"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import sys
import time
from contextlib import contextmanager

from loop_solvers import SplitMix64

from pcsplab.cli import all_symmetric_ternary_structures, main
from pcsplab.homs import check_coloring, hom_exists, hom_lattice
from pcsplab.polymorphisms import enumerate_polymorphisms
from pcsplab.properties import (
    PROPERTY_CATALOG,
    SELECTOR_CATALOG,
    check_properties,
    chromatic_number,
    kneser_graph,
    verify_selector,
)
from pcsplab.solvers import (
    OPEN,
    Instance,
    classify_template,
    generate_planted,
    solve_nae,
    solve_t2,
)
from pcsplab.structures import TemplatePair, associated_digraph, named_template
from pcsplab.symmetric import (
    is_block_symmetric_polymorphism,
    is_symmetric_polymorphism,
    search_block_symmetric,
    search_symmetric,
    sym_compatible_triples,
)


@contextmanager
def criterion(number, description):
    # write past pytest's capture so the per-criterion line always lands in
    # the terminal / tee'd log
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {description}: FAIL ({time.monotonic() - start:.1f}s)", file=sys.__stdout__)
        raise
    print(f"[criterion {number}] {description}: PASS ({time.monotonic() - start:.1f}s)", file=sys.__stdout__)


def pair(src, tgt):
    return TemplatePair(named_template(src), named_template(tgt))


def test_criterion_1_seeded_contradiction_reproduction(capsys):
    with criterion(1, "seeded arity-23 contradiction reproduction"):
        start = time.monotonic()
        code = main(["poly", "verify", "--appendix-b"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("force", "contradiction"))]
        assert lines == [
            "force f(7) = 1 via (7, 8, 8)",
            "force f(9) = 2 via (7, 7, 9)",
            "force f(5) = 3 via (5, 9, 9)",
            "force f(13) = 0 via (5, 5, 13)",
            "force f(2) = 1 via (2, 8, 13)",
            "force f(14) = 2 via (2, 7, 14)",
            "force f(0) = 3 via (0, 9, 14)",
            "contradiction at f(6)",
        ]
        assert time.monotonic() - start <= 60

        start = time.monotonic()
        assert main(["poly", "search-sym", "1in3", "CHplus", "23"]) == 1
        assert time.monotonic() - start <= 60

        start = time.monotonic()
        assert main(["poly", "search-block", "1in3", "CHplus", "23", "24"]) == 1
        assert time.monotonic() - start <= 60
        capsys.readouterr()


def brute_symmetric_exists(target, n):
    rel = target.single_ternary().as_set
    triples = sym_compatible_triples(n)
    for values in itertools.product(range(target.domain_size), repeat=n + 1):
        if all((values[a], values[b], values[c]) in rel for a, b, c in triples):
            return True
    return False


def test_criterion_2_tractability_witnesses():
    with criterion(2, "tractability witnesses"):
        start = time.monotonic()
        t2 = pair("1in3", "T2")

        for n in range(1, 32):
            if n % 3 == 1:
                result = search_symmetric(t2.target, n)
                assert result.table is not None, f"missing witness at arity {n}"
                assert is_symmetric_polymorphism(result.table, t2)

        for n in range(1, 9):
            assert (search_symmetric(t2.target, n).table is not None) == brute_symmetric_exists(
                named_template("T2"), n
            ), f"search disagrees with the brute-force oracle at arity {n}"

        nae = pair("1in3", "NAE")
        for k in range(1, 16):
            result = search_block_symmetric(nae.target, k + 1, k)
            assert result.table is not None, f"missing block witness at ({k + 1}, {k})"
            assert is_block_symmetric_polymorphism(result.table, nae)

        assert time.monotonic() - start <= 120

        # n = 2 mod 3: f(w) = 2w mod 3 is a witness, since 2(a + b + c) = 2n = 1 mod 3.
        # n = 0 mod 3: the triple (n/3, n/3, n/3) forces 3 f(n/3) = 1 mod 3, impossible.
        for n in range(1, 11):
            if n % 3 == 0:
                assert search_symmetric(t2.target, n).table is None, (
                    f"a symmetric witness was reported at arity {n} = 0 mod 3"
                )
            elif n % 3 == 2:
                result = search_symmetric(t2.target, n)
                assert result.table is not None, f"missing witness at arity {n} = 2 mod 3"
                assert is_symmetric_polymorphism(result.table, t2)


def test_criterion_3_lemma_suites():
    with criterion(3, "all 15 catalog properties at arities <= 4"):
        start = time.monotonic()
        for pid, spec in sorted(PROPERTY_CATALOG.items()):
            template = named_template(spec.template_name)
            report = check_properties(template, [pid], 4)[0]
            assert report.holds, (pid, report.counterexamples[:1])
        assert time.monotonic() - start <= 600


def test_criterion_4_selector_suites():
    with criterion(4, "all 4 selectors over chains within arity <= 3"):
        start = time.monotonic()
        for name, spec in sorted(SELECTOR_CATALOG.items()):
            template = named_template(spec.template_name)
            report = verify_selector(template, spec, 3)
            assert report.holds, (name, report.violations[:1])
        assert time.monotonic() - start <= 600


def test_criterion_5_kneser_bound():
    with criterion(5, "Kneser chromatic numbers meet the bound"):
        start = time.monotonic()
        for n in range(2, 9):
            for m in range(1, 4):
                if n < 2 * m:
                    continue
                chi = chromatic_number(kneser_graph(n, m), limit=n)
                assert chi is not None
                assert chi >= n - 2 * m + 2, (n, m, chi)
        assert chromatic_number(kneser_graph(5, 2), limit=5) == 3
        assert time.monotonic() - start <= 60


def test_criterion_6_trichotomy():
    with criterion(6, "classification of all 1023 symmetric ternary structures"):
        start = time.monotonic()
        lo3 = named_template("LO_3")
        nae_base = named_template("NAE")
        t2_base = named_template("T2")
        counts = {"P": 0, "NP-hard": 0, "open": 0}
        for structure in all_symmetric_ternary_structures():
            label = classify_template(structure)
            counts[label] += 1
            open_equivalent = hom_exists(structure, lo3) and hom_exists(lo3, structure)
            assert (label == OPEN) == open_equivalent
            # digraph dichotomy: a directed cycle admits one of the tractable
            # bases, an acyclic digraph maps into the strict-order target
            if associated_digraph(structure).has_directed_cycle():
                assert hom_exists(nae_base, structure) or hom_exists(t2_base, structure)
            else:
                assert hom_exists(structure, lo3)
        assert counts == {"P": 974, "NP-hard": 43, "open": 6}

        names = ["1in3", "NAE", "D1", "D2", "T1", "T2", "Q1", "Q2", "Q3", "C", "S"]
        names += [n + "plus" for n in names]
        inputs = {name: named_template(name) for name in names}
        lattice = hom_lattice(list(inputs.values()))
        reach = {i: {i} for i in range(len(lattice.classes))}
        for _ in range(len(lattice.classes)):
            for i, j in lattice.cover_edges:
                reach[i] |= reach[j]
        lo3_class = lattice.class_index_of(inputs["T1plus"])
        for lower in ("T1", "D1plus", "D2plus"):
            c = lattice.class_index_of(inputs[lower])
            assert c != lo3_class and lo3_class in reach[c]
        nae, t2 = inputs["NAE"], inputs["T2"]
        for i in range(len(lattice.classes)):
            if i != lo3_class and i in reach[lo3_class]:
                rep = lattice.classes[i].representative
                assert hom_exists(nae, rep) or hom_exists(t2, rep)
        assert time.monotonic() - start <= 300


def test_criterion_7_solver_round_trip():
    with criterion(7, "1000 planted instances solved and verified by both routes"):
        one_in_3 = named_template("1in3")
        t2 = named_template("T2")
        nae = named_template("NAE")
        sizes = SplitMix64(20240)
        worst = 0.0
        for i in range(1000):
            nv = 3 + sizes.next_below(48)
            ne = sizes.next_below(101)
            instance, planted = generate_planted(nv, ne, 31337 + i)
            assert check_coloring(instance, planted, one_in_3)
            start = time.monotonic()
            a = solve_t2(instance)
            b = solve_nae(instance)
            elapsed = time.monotonic() - start
            worst = max(worst, elapsed)
            assert a is not None and check_coloring(instance, a, t2)
            assert b is not None and check_coloring(instance, b, nae)
        assert worst <= 1.0, f"worst instance took {worst:.2f}s"

        degenerate = Instance(1, ((1, 1, 1),))
        assert solve_t2(degenerate) is None
        assert solve_nae(degenerate) is None


def naive_polymorphism_set(target, n):
    rel = target.single_ternary().as_set
    k = target.domain_size
    full = (1 << n) - 1
    out = set()
    for values in itertools.product(range(k), repeat=1 << n):
        ok = True
        for x in range(1 << n):
            rest = full ^ x
            y = rest
            while ok:
                if (values[x], values[y], values[rest ^ y]) not in rel:
                    ok = False
                if y == 0:
                    break
                y = (y - 1) & rest
            if not ok:
                break
        if ok:
            out.add(values)
    return out


def test_criterion_8_enumeration_oracle_equivalence():
    with criterion(8, "pruned enumeration equals naive filtering at arity <= 3"):
        for name in ("1in3", "NAE", "T1", "T2", "D1plus", "D2plus", "CH", "CHplus"):
            target = named_template(name)
            for n in (1, 2, 3):
                stream = list(enumerate_polymorphisms(target, n))
                assert len(stream) == len(set(stream)), "stream emitted a duplicate"
                assert set(stream) == naive_polymorphism_set(target, n), (name, n)
