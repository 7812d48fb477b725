import itertools
import random
import sys

import pytest

from general_tables import boolean_to_general, is_polymorphism_general

from pcsplab.errors import TimeBudgetExceeded, deadline_after
from pcsplab import polymorphisms
from pcsplab.polymorphisms import BlockTable, _search_network, enumerate_orbits, enumerate_polymorphisms, is_polymorphism, one_in_three_target
from pcsplab.structures import TemplatePair, named_template
from pcsplab.symmetric import (
    BlockSymTable,
    SymTable,
    chplus23_certificate,
    is_block_symmetric_polymorphism,
    is_symmetric_polymorphism,
    propagate,
    restrict_block_to_symmetric,
    search_block_symmetric,
    search_symmetric,
    sym_compatible_triples,
)


def pair(src, tgt):
    return TemplatePair(named_template(src), named_template(tgt))


def sym_network(target, n):
    """The arity-n symmetric search network that propagate runs on."""
    return _search_network(target, (n,))


def brute_symmetric_exists(target, n):
    """Oracle: try all |B|**(n+1) weight tables against every weight triple."""
    rel = target.single_ternary().as_set
    k = target.domain_size
    triples = sym_compatible_triples(n)
    for values in itertools.product(range(k), repeat=n + 1):
        if all((values[a], values[b], values[c]) in rel for a, b, c in triples):
            return values
    return None


def sym_table(target_size, values):
    return BlockTable((len(values) - 1,), target_size, tuple(values))


def test_sym_compatible_triples_small():
    assert sym_compatible_triples(3) == [(0, 0, 3), (0, 1, 2), (1, 1, 1)]
    assert sym_compatible_triples(1) == [(0, 0, 1)]


def test_sym_compatible_triples_arity_23_contains_cited_steps():
    triples = set(sym_compatible_triples(23))
    cited = [(7, 8, 8), (7, 7, 9), (5, 9, 9), (5, 5, 13), (2, 8, 13),
             (2, 7, 14), (0, 9, 14), (6, 6, 11), (5, 6, 12), (0, 11, 12)]
    for t in cited:
        assert tuple(sorted(t)) in triples
    assert all(sum(t) == 23 for t in triples)


def test_is_symmetric_polymorphism_examples():
    t2 = pair("1in3", "T2")
    mod3 = sym_table(3, [m % 3 for m in range(8)])
    assert is_symmetric_polymorphism(mod3, t2)

    threshold = sym_table(2, [0, 1, 1])
    assert not is_symmetric_polymorphism(threshold, pair("1in3", "1in3"))
    assert is_symmetric_polymorphism(threshold, pair("1in3", "NAE"))

    constant = sym_table(2, [1, 1, 1, 1])
    assert not is_symmetric_polymorphism(constant, pair("1in3", "NAE"))

    with pytest.raises(ValueError):
        is_symmetric_polymorphism(BlockTable((2,), 2, (0, None, 1)), pair("1in3", "NAE"))


@pytest.mark.parametrize(
    "make",
    [
        lambda values: BlockTable((1,), 2, values),
        lambda values: SymTable(1, 2, values),
        lambda values: BlockSymTable(1, 1, 2, values + values),
    ],
    ids=["PolyTable", "SymTable", "BlockSymTable"],
)
def test_tables_reject_unassigned_cells(make):
    # every table is total: a cell holds a color of the target, never None
    assert make((0, 1)).values[-1] == 1
    with pytest.raises(ValueError, match="outside target domain"):
        make((0, None))


def expand_weight_table(shape, values):
    """Values on every subset of [n]: blocks of the shape in coordinate order, cells in mixed radix."""
    n = sum(shape)
    full = []
    for mask in range(1 << n):
        index, low = 0, 0
        for size in shape:
            index = index * (size + 1) + (mask >> low & ((1 << size) - 1)).bit_count()
            low += size
        full.append(values[index])
    return full


@pytest.mark.parametrize("target", ["T1", "D2plus", "NAE", "CHplus"])
def test_weight_checkers_agree_with_general_test(target):
    template = pair("1in3", target)
    k = template.target.domain_size
    rng = random.Random(target)
    shapes = [(n,) for n in range(1, 7)] + [(k1, k2) for k1 in range(1, 4) for k2 in range(1, 4)]
    verdicts = []
    for shape in shapes:
        if len(shape) == 1:
            found = search_symmetric(template.target, shape[0]).table
        else:
            found = search_block_symmetric(template.target, *shape).table
        ncells = (shape[0] + 1) * (shape[1] + 1) if len(shape) == 2 else shape[0] + 1
        tables = [] if found is None else [found.values]
        for _ in range(6):
            colors = rng.sample(range(k), rng.randint(1, k))
            tables.append(tuple(rng.choice(colors) for _ in range(ncells)))
        for values in tables:
            if len(shape) == 1:
                got = is_symmetric_polymorphism(BlockTable(shape, k, values), template)
            else:
                got = is_block_symmetric_polymorphism(BlockTable(shape, k, values), template)
            full = BlockTable((1,) * sum(shape), k, tuple(expand_weight_table(shape, values)))
            assert got == is_polymorphism_general(boolean_to_general(full), template), (shape, values)
            verdicts.append(got)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("target", ["NAE", "T2"])
def test_block_checker_agrees_with_general_test_on_single_cell_changes(target):
    # a found table with one cell recoloured breaks the partitions through that cell, so across every cell
    # and shape a failure falls at every position of the checker's last-block chunk
    template = pair("1in3", target)
    k = template.target.domain_size
    shapes = 0
    for shape in itertools.product(range(1, 5), range(1, 4)):
        found = search_block_symmetric(template.target, *shape).table
        if found is None:
            continue
        shapes += 1
        for cell, color in itertools.product(range(len(found.values)), range(k)):
            if color == found.values[cell]:
                continue
            values = found.values[:cell] + (color,) + found.values[cell + 1 :]
            got = is_block_symmetric_polymorphism(BlockTable(shape, k, values), template)
            full = BlockTable((1,) * sum(shape), k, tuple(expand_weight_table(shape, values)))
            assert got == is_polymorphism_general(boolean_to_general(full), template), (shape, values)
    assert shapes == 11  # (3, 3) has no table for either target


@pytest.mark.parametrize("target", ["NAE", "T2"])
def test_unit_block_checker_agrees_with_general_test_past_arity_6(target):
    # found tables of arity 7 to 9 expanded to every subset; flipping one mask makes one sub-table distinct at
    # every level on its path, so the unit-block walk must tell it apart from its equal siblings at each level
    template = pair("1in3", target)
    k = template.target.domain_size
    rng = random.Random(target)
    verdicts = []
    for shape in [(7,), (8,), (4, 3), (3, 4), (5, 3), (4, 4), (5, 4), (4, 5)]:
        search = search_symmetric if len(shape) == 1 else search_block_symmetric
        expanded = expand_weight_table(shape, search(template.target, *shape).table.values)
        tables = [tuple(expanded)]
        for mask in rng.sample(range(len(expanded)), 3):
            flipped = list(expanded)
            flipped[mask] = rng.choice([v for v in range(k) if v != flipped[mask]])
            tables.append(tuple(flipped))
        for values in tables:
            full = BlockTable((1,) * sum(shape), k, values)
            got = is_polymorphism(full, template.target)
            assert got == is_polymorphism_general(boolean_to_general(full), template), (shape, values)
            verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_propagate_single_weight_force():
    t2 = named_template("T2")
    assigned, trace = propagate(sym_network(t2, 1), {0: 0})
    assert assigned == {0: 0, 1: 1}
    assert [(e.cell, e.color, e.triple) for e in trace.forced()] == [(1, 1, (0, 0, 1))]


def test_propagate_empty_partial_is_inert():
    t2 = named_template("T2")
    assigned, trace = propagate(sym_network(t2, 5), {})
    assert assigned == {}
    assert trace.events == ()


def test_propagate_t2_arity7_seed_zero():
    t2 = named_template("T2")
    assigned, trace = propagate(sym_network(t2, 7), {0: 0})
    assert assigned[7] == 1
    assert trace.forced()[0].triple == (0, 0, 7)


def fixpoint_oracle(target, n, seed):
    """Independent fixpoint: intersect candidates until stable, no ordering."""
    rel = target.single_ternary().as_set
    k = target.domain_size
    cand = [set(range(k)) for _ in range(n + 1)]
    for w, v in seed.items():
        cand[w] = {v}
    triples = sym_compatible_triples(n)
    changed = True
    while changed:
        changed = False
        for a, b, c in triples:
            for (x, y, z) in ((b, c, a), (a, c, b), (a, b, c)):
                if len(cand[x]) == 1 and len(cand[y]) == 1:
                    vx, vy = next(iter(cand[x])), next(iter(cand[y]))
                    allowed = {v for v in range(k) if all(p in rel for p in itertools.permutations((vx, vy, v)))}
                    new = cand[z] & allowed
                    if new != cand[z]:
                        cand[z] = new
                        changed = True
    return cand


def test_propagate_chplus_arity23_seeded_fixpoint():
    chp = named_template("CHplus")
    assigned, trace = propagate(sym_network(chp, 23), {8: 0})
    forced = [(e.cell, e.color, e.triple) for e in trace.forced()]
    assert forced == [
        (7, 1, (7, 8, 8)),
        (9, 2, (7, 7, 9)),
        (5, 3, (5, 9, 9)),
        (13, 0, (5, 5, 13)),
        (2, 1, (2, 8, 13)),
        (19, 2, (2, 2, 19)),
        (14, 2, (2, 7, 14)),
        (0, 3, (0, 9, 14)),
        (23, 0, (0, 0, 23)),
        (18, 0, (0, 5, 18)),
    ]
    assert trace.contradiction is None
    assert assigned == {
        0: 3, 2: 1, 5: 3, 7: 1, 8: 0, 9: 2, 13: 0, 14: 2, 18: 0, 19: 2, 23: 0
    }
    # agreement with an order-free fixpoint oracle
    cand = fixpoint_oracle(named_template("CHplus"), 23, {8: 0})
    for w, v in assigned.items():
        assert cand[w] == {v}
    for w in range(24):
        if w not in assigned:
            assert len(cand[w]) != 1


def test_chplus23_certificate_seed_zero():
    chp = named_template("CHplus")
    cert = chplus23_certificate(chp, 0)
    assert [(e.cell, e.color, e.triple) for e in cert.forced] == [
        (7, 1, (7, 8, 8)),
        (9, 2, (7, 7, 9)),
        (5, 3, (5, 9, 9)),
        (13, 0, (5, 5, 13)),
        (2, 1, (2, 8, 13)),
        (14, 2, (2, 7, 14)),
        (0, 3, (0, 9, 14)),
    ]
    assert cert.contradiction_weight == 6
    assert cert.automorphism_transitive
    assert cert.complete
    for _, trace in cert.refutations:
        assert trace.contradiction is not None


def test_chplus23_certificate_other_seeds_shift():
    chp = named_template("CHplus")
    base = {7: 1, 9: 2, 5: 3, 13: 0, 2: 1, 14: 2, 0: 3}
    for seed in (1, 2, 3):
        cert = chplus23_certificate(chp, seed)
        assert cert.complete
        for event in cert.forced:
            assert event.color == (base[event.cell] + seed) % 4


def test_search_symmetric_t2():
    t2 = pair("1in3", "T2")
    found = search_symmetric(t2.target, 7)
    assert found.table is not None
    assert is_symmetric_polymorphism(found.table, t2)

    missing = search_symmetric(t2.target, 6)
    assert missing.table is None
    assert brute_symmetric_exists(named_template("T2"), 6) is None


def test_search_symmetric_chplus23_nonexistence():
    chp = named_template("CHplus")
    result = search_symmetric(chp, 23)
    assert result.table is None


def test_search_agrees_with_brute_oracle():
    cases = [("T2", range(1, 8)), ("NAE", range(1, 8)), ("CHplus", range(1, 7)), ("T1", range(1, 7))]
    for name, arities in cases:
        target = named_template(name)
        for n in arities:
            found = search_symmetric(target, n).table is not None
            assert found == (brute_symmetric_exists(target, n) is not None), (name, n)


def test_search_wlog_does_not_change_answers():
    for name in ("T2", "NAE", "T1", "D2plus", "CHplus", "CH"):
        template = named_template(name)
        for n in (3, 4, 6, 7, 10):
            with_wlog = search_symmetric(template, n, use_wlog=True).table is not None
            without = search_symmetric(template, n, use_wlog=False).table is not None
            assert with_wlog == without, (name, n)


def test_search_block_nae_exists():
    nae = pair("1in3", "NAE")
    result = search_block_symmetric(nae.target, 3, 2)
    assert result.table is not None
    assert is_block_symmetric_polymorphism(result.table, nae)
    # the weight-comparison table is itself a witness
    comparison = BlockTable((3, 2), 2, tuple(
        1 if w1 > w2 else 0 for w1 in range(4) for w2 in range(3)
    ))
    assert is_block_symmetric_polymorphism(comparison, nae)


def test_search_block_t2_exists_mod3():
    t2 = pair("1in3", "T2")
    k1, k2 = 4, 3  # k1 = k2 + 1 and k1 + k2 = 7 = 1 mod 3
    result = search_block_symmetric(t2.target, k1, k2)
    assert result.table is not None
    assert is_block_symmetric_polymorphism(result.table, t2)
    modsum = BlockTable((k1, k2), 3, tuple(
        (w1 + w2) % 3 for w1 in range(k1 + 1) for w2 in range(k2 + 1)
    ))
    assert is_block_symmetric_polymorphism(modsum, t2)


def test_search_block_chplus_23_24_nonexistence():
    chp = named_template("CHplus")
    result = search_block_symmetric(chp, 23, 24)
    assert result.table is None


def test_search_leaves_recursion_limit_alone():
    # the search keeps its own stack: a low interpreter limit is enough and stays as set
    chp = named_template("CHplus")
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        result = search_block_symmetric(chp, 23, 24)
        assert result.table is None
        assert result.nodes == 2
        assert sys.getrecursionlimit() == 300
    finally:
        sys.setrecursionlimit(saved)


@pytest.mark.parametrize(
    "target, shape, found, nodes",
    [
        pytest.param("LO_3", (50,), False, 1, id="LO_3-50"),
        pytest.param("LO_3", (6, 5), True, 16, id="LO_3-6x5"),
        pytest.param("NAE", (31, 30), True, 32, id="NAE-31x30"),
    ],
)
def test_search_node_counts_pinned(target, shape, found, nodes):
    # the branch order and the wlog colors fix these counts; any engine change that alters them shows here
    template = named_template(target)
    if len(shape) == 1:
        result = search_symmetric(template, *shape)
    else:
        result = search_block_symmetric(template, *shape)
    assert (result.table is not None, result.nodes) == (found, nodes)


def test_lo3_frontier():
    # a table into LO_3 needs f(c) > f(a) on every weight triple (a, a, c), so propagation refutes
    # every other shape at the root; the budget keeps a weaker engine from running for minutes
    lo3 = pair("1in3", "LO_3")
    found = {"sym": set(), "block": set()}
    for kind, search, check, shapes in (
        ("sym", search_symmetric, is_symmetric_polymorphism, [(n,) for n in range(1, 101)]),
        ("block", search_block_symmetric, is_block_symmetric_polymorphism, [(k + 1, k) for k in range(1, 16)]),
    ):
        for shape in shapes:
            result = search(lo3.target, *shape, deadline=deadline_after(5))
            if result.table is None:
                assert result.nodes <= 4, shape
            else:
                assert check(result.table, lo3)
                found[kind].add(shape[-1])
    assert found == {"sym": {1, 2, 5}, "block": {1, 2, 4, 5}}


SWEEP_TARGETS = ("LO_3", "LO_4", "LO_5", "LO_6", "NAE_3", "NAE_4", "CHplus", "T1", "D1plus", "D2plus", "T2", "C", "Q1plus")


def test_block_sweep_decides_every_search():
    # the (L+1, L) tables decide whether BLP+AIP solves PCSP(1in3, B); each search here must decide well inside its
    # budget (at most 993 nodes), and each table it finds must check
    undecided, found, nodes = [], 0, 0
    for name in SWEEP_TARGETS:
        target = named_template(name)
        for k in range(1, 31):
            try:
                result = search_block_symmetric(target, k + 1, k, deadline=deadline_after(5))
            except TimeBudgetExceeded:
                undecided.append((name, k))
                continue
            nodes += result.nodes
            if result.table is not None:
                found += 1
                assert is_polymorphism(result.table, target), (name, k)
    assert (undecided, found, nodes) == ([], 242, 41_951)


def test_restrict_block_to_symmetric():
    nae = pair("1in3", "NAE")
    g = search_block_symmetric(nae.target, 4, 3).table
    assert g is not None
    f = restrict_block_to_symmetric(g)
    assert f.arity == 4
    assert f.values == tuple(g.value(m, 1) for m in range(5))
    assert is_symmetric_polymorphism(f, nae)

    with pytest.raises(ValueError):
        restrict_block_to_symmetric(BlockTable((5, 4), 2, (0,) * 30))


def test_block_table_value_checks_weights():
    table = BlockTable((2, 2), 3, tuple(range(3)) * 3)
    assert [table.value(w1, w2) for w1 in range(3) for w2 in range(3)] == list(table.values)
    for w1, w2 in ((0, 3), (-1, 0), (3, 0), (0, -1)):
        with pytest.raises(ValueError, match="outside"):
            table.value(w1, w2)


def test_restrict_block_smallest_shape():
    nae = pair("1in3", "NAE")
    g = search_block_symmetric(nae.target, 1, 3).table
    assert g is not None
    f = restrict_block_to_symmetric(g)
    assert f.arity == 1
    assert is_symmetric_polymorphism(f, nae)


def test_block_triples_rule_out_three_by_three():
    # with both blocks divisible by 3 the equal-split partition forces a
    # constant triple, so no not-all-equal block table exists at (3,3)
    nae = named_template("NAE")
    assert search_block_symmetric(nae, 3, 3).table is None


def test_restrict_matches_full_table_expansion():
    # expand a block table over blocks {1,2}, {3,4,5} to a full cube table
    # and compare the restriction against concrete subset evaluations
    nae = named_template("NAE")
    g = search_block_symmetric(nae, 2, 3).table
    assert g is not None
    n = 5

    def weight_pair(mask):
        w1 = sum(1 for i in range(2) if mask >> i & 1)
        w2 = sum(1 for i in range(2, 5) if mask >> i & 1)
        return w1, w2

    full = BlockTable((1,) * n, 2, tuple(g.value(*weight_pair(m)) for m in range(1 << n)))
    assert is_polymorphism(full, nae)
    f = restrict_block_to_symmetric(g)
    for m in range(3):
        concrete = (1 << m) - 1 | (1 << 2)  # m first-block coordinates plus one second-block
        assert f.values[m] == full.values[concrete]


def test_block_and_symmetric_nonexistence_consistency():
    # restriction argument: a block (23,24) table would yield an arity-23
    # table, so the two negative answers must agree
    chp = named_template("CHplus")
    sym_none = search_symmetric(chp, 23).table is None
    block_none = search_block_symmetric(chp, 23, 24).table is None
    assert sym_none and block_none


def test_time_budget_aborts():
    chp = named_template("CHplus")
    with pytest.raises(TimeBudgetExceeded):
        search_symmetric(chp, 23, deadline=deadline_after(0.0))


@pytest.mark.parametrize(
    "search",
    [
        lambda t2: search_symmetric(t2, 2000, deadline=deadline_after(0)),
        lambda t2: search_block_symmetric(t2, 31, 30, deadline=deadline_after(0)),
        lambda t2: next(enumerate_polymorphisms(t2, 5, deadline=deadline_after(0))),
        lambda t2: next(enumerate_orbits(t2, 5, deadline=deadline_after(0))),
    ],
    ids=["sym", "block", "enumerate", "orbits"],
)
def test_time_budget_is_checked_before_the_network_is_built(monkeypatch, search):
    def refuse(*args):
        raise AssertionError("a network was built past the time budget")

    monkeypatch.setattr(polymorphisms, "Network", refuse)
    with pytest.raises(TimeBudgetExceeded, match="after 0 nodes, while building its network"):
        search(named_template("T2"))


def test_propagate_contradiction_event_recorded():
    # weights 0 and 2 both pinned to color 0: triple (0, 0, 2) empties the
    # candidate set at the first slot it narrows
    t2 = named_template("T2")
    _, trace = propagate(sym_network(t2, 2), {0: 0, 2: 0})
    contradiction = trace.contradiction
    assert contradiction is not None
    assert contradiction.cell == 0
    assert contradiction.eliminations == ((0, (0, 0, 2)),)


def test_is_symmetric_polymorphism_tests_all_orders():
    # target holds (1,1,0) but not its other orderings, so the weight table
    # (0,1,1) is compatible only after symmetrizing
    from pcsplab.structures import make_structure, symmetrize

    tuples = {(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)}
    asym = make_structure(2, [tuples])
    table = sym_table(2, [0, 1, 1])
    template_asym = TemplatePair(named_template("1in3"), asym)
    template_sym = TemplatePair(named_template("1in3"), symmetrize(asym))
    assert not is_symmetric_polymorphism(table, template_asym)
    assert is_symmetric_polymorphism(table, template_sym)


def test_wlog_equivalence_all_named_targets():
    from pcsplab.structures import template_names_3

    for name in template_names_3() + ["CH", "CHplus"]:
        template = named_template(name)
        for n in range(1, 11):
            with_wlog = search_symmetric(template, n, use_wlog=True).table is not None
            without = search_symmetric(template, n, use_wlog=False).table is not None
            assert with_wlog == without, (name, n)


def brute_completions(target, n, seed):
    rel = target.single_ternary().as_set
    k = target.domain_size
    triples = sym_compatible_triples(n)
    out = []
    for values in itertools.product(range(k), repeat=n + 1):
        if any(values[w] != v for w, v in seed.items()):
            continue
        if all((values[a], values[b], values[c]) in rel for a, b, c in triples):
            out.append(values)
    return out


def test_propagate_soundness_random_seeds():
    # propagation must never contradict a seed that has a completion, and a
    # forced cell must agree with every completion
    import random

    rng = random.Random(83)
    targets = ["T2", "NAE", "T1", "D2plus", "CH"]
    for _ in range(60):
        name = rng.choice(targets)
        target = named_template(name)
        k = target.domain_size
        n = rng.randint(1, 6)
        seed = {w: rng.randrange(k) for w in rng.sample(range(n + 1), rng.randint(0, min(2, n)))}
        assigned, trace = propagate(sym_network(target, n), seed)
        # differential check against the order-free fixpoint
        cand = fixpoint_oracle(target, n, seed)
        assert (trace.contradiction is not None) == any(not c for c in cand), (name, n, seed)
        if trace.contradiction is None:
            singletons = {w: next(iter(c)) for w, c in enumerate(cand) if len(c) == 1}
            assert assigned == singletons, (name, n, seed)
        completions = brute_completions(target, n, seed)
        if trace.contradiction is not None:
            assert not completions, (name, n, seed)
        else:
            for completion in completions:
                for w, v in assigned.items():
                    assert completion[w] == v, (name, n, seed, completion)


def brute_block_exists(target, k1, k2):
    rel = target.single_ternary().as_set
    k = target.domain_size
    cells = (k1 + 1) * (k2 + 1)
    comps1 = [(a, b, k1 - a - b) for a in range(k1 + 1) for b in range(k1 + 1 - a)]
    comps2 = [(a, b, k2 - a - b) for a in range(k2 + 1) for b in range(k2 + 1 - a)]
    for values in itertools.product(range(k), repeat=cells):
        def g(w1, w2):
            return values[w1 * (k2 + 1) + w2]

        if all(
            (g(c1[0], c2[0]), g(c1[1], c2[1]), g(c1[2], c2[2])) in rel
            for c1 in comps1
            for c2 in comps2
        ):
            return True
    return False


def test_block_search_agrees_with_brute_oracle():
    for name in ("T2", "NAE", "1in3"):
        target = named_template(name)
        for k1 in (1, 2):
            for k2 in (1, 2):
                found = search_block_symmetric(target, k1, k2).table is not None
                assert found == brute_block_exists(target, k1, k2), (name, k1, k2)


def test_shape_mismatches_rejected():
    # a seed names a weight in 0..n and a color of the target
    chp = named_template("CHplus")
    net = sym_network(chp, 5)
    for seed in ({6: 0}, {-1: 0}, {0: 4}, {0: -1}, {0: 0, 3: None}):
        with pytest.raises(ValueError, match="outside weights 0..5 or colors 0..3"):
            propagate(net, seed)
    # arity 0 has one weight, and the builder refuses a network of fewer than two cells
    with pytest.raises(ValueError, match="at least two cells"):
        _search_network(chp, (0,))


def test_propagation_builds_networks_only_where_asked(monkeypatch, capsys):
    # propagate runs on the network it is given; a certificate builds one arity-23 network for its four refutations
    from pcsplab._network import Network
    from pcsplab.cli import main

    builds = []
    init = Network.__init__
    monkeypatch.setattr(Network, "__init__", lambda self, *args: builds.append(len(args[0])) or init(self, *args))
    chp = named_template("CHplus")
    net = sym_network(chp, 23)
    assert builds == [24]
    propagate(net, {8: 0})
    propagate(net, {8: 0, 6: 1})
    assert builds == [24]
    assert chplus23_certificate(chp).complete and builds == [24, 24]
    builds.clear()
    assert main(["poly", "verify", "--appendix-b"]) == 0
    assert capsys.readouterr().out.endswith("no symmetric polymorphism of arity 23 exists\n")
    assert builds == [24] * 4  # one network per seed color, where each refuted color built its own


def test_propagate_queues_seeds_in_ascending_order():
    # the trace depends on the order seeds are queued in, never on the order the dict was built in
    chp = named_template("CHplus")
    seed = {8: 0, 7: 1, 9: 2, 5: 3, 13: 0, 2: 1, 14: 2, 0: 3, 6: 1}
    net = sym_network(chp, 23)
    ascending = propagate(net, dict(sorted(seed.items())))
    assert propagate(net, seed) == ascending
    assert propagate(net, dict(reversed(seed.items()))) == ascending
    assert ascending[1].contradiction is not None


def test_chplus_symmetric_frontier():
    # existence flips for good between arities 14 and 17; instant either way
    chp = named_template("CHplus")
    assert search_symmetric(chp, 11).table is not None
    assert search_symmetric(chp, 14).table is not None
    assert search_symmetric(chp, 17).table is None
    assert search_symmetric(chp, 20).table is None


# every weight-table check and search, each on a shape that fits a target of k colors; the searches and
# propagate take a target, so a pair reaches them through one_in_three_target, as on the command line
WEIGHT_CALLS = {
    "search_sym": lambda t, k: search_symmetric(one_in_three_target(t), 4),
    "search_block": lambda t, k: search_block_symmetric(one_in_three_target(t), 2, 2),
    "propagate": lambda t, k: propagate(sym_network(one_in_three_target(t), 3), {0: 0}),
    "is_sym": lambda t, k: is_symmetric_polymorphism(BlockTable((3,), k, (0,) * 4), t),
    "is_block": lambda t, k: is_block_symmetric_polymorphism(BlockTable((2, 2), k, (0,) * 9), t),
}


@pytest.mark.parametrize("src, tgt", [("NAE", "NAE"), ("D1", "T1")])
@pytest.mark.parametrize("call", WEIGHT_CALLS.values(), ids=WEIGHT_CALLS.keys())
def test_weight_tables_need_one_in_three_source(src, tgt, call):
    # weight tables mean a + b + c = n only for the exactly-one-1 source
    template = pair(src, tgt)
    with pytest.raises(ValueError, match="exactly-one-1 Boolean source"):
        call(template, template.target.domain_size)


def test_block_checker_rejects_target_size_mismatch():
    table = BlockTable((1, 1), 5, (4, 4, 4, 4))
    with pytest.raises(ValueError, match="table target size does not match template target"):
        is_block_symmetric_polymorphism(table, pair("1in3", "CHplus"))
