import hashlib
import itertools
import random

import pytest

from pcsplab.errors import FormatError, SignatureMismatchError
from pcsplab.structures import (
    NAMED_TEMPLATES,
    Relation,
    TemplatePair,
    all_symmetric_ternary_structures,
    associated_digraph,
    automorphism_orbits,
    automorphisms,
    make_structure,
    named_template,
    parse_structure,
    plus_closure,
    rainbow_triples,
    symmetrize,
    template_names_3,
    ternary_structure,
)


def perm_closure(tuples):
    return {p for t in tuples for p in itertools.permutations(t)}


def random_ternary(rng, domain_size=3):
    all_tuples = list(itertools.product(range(domain_size), repeat=3))
    while True:
        chosen = [t for t in all_tuples if rng.random() < 0.3]
        if chosen:
            return make_structure(domain_size, [chosen])


def test_make_structure_one_in_three():
    s = make_structure(2, [perm_closure([(0, 0, 1)])])
    assert s.domain_size == 2
    assert s.relations[0].as_set == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}
    assert s == named_template("1in3")


def test_make_structure_smallest():
    s = make_structure(1, [{(0, 0, 0)}])
    assert s.domain_size == 1 and s.relations[0].tuples == ((0, 0, 0),)


def test_make_structure_rejects_empty_relation():
    with pytest.raises(ValueError):
        make_structure(3, [set()])


def test_make_structure_rejects_out_of_domain():
    with pytest.raises(ValueError):
        make_structure(2, [{(0, 0, 2)}])


def test_make_structure_rejects_mixed_arity():
    with pytest.raises(ValueError):
        make_structure(2, [{(0, 0, 1), (0, 1)}])


def test_named_d2plus():
    s = named_template("D2plus")
    expected = perm_closure([(0, 0, 1), (1, 1, 2), (0, 1, 2)])
    assert s.domain_size == 3 and s.relations[0].as_set == expected


def test_named_lo2_equals_one_in_three():
    assert named_template("LO_2") == named_template("1in3")


def test_named_lo3_equals_t1plus():
    assert named_template("LO_3") == named_template("T1plus")


def test_named_ch():
    s = named_template("CH")
    expected = perm_closure([(0, 0, 1), (1, 1, 2), (2, 2, 3), (0, 3, 3)])
    assert s.domain_size == 4 and s.relations[0].as_set == expected


def test_named_nae_k():
    assert named_template("NAE_2") == named_template("NAE")
    nae3 = named_template("NAE_3")
    assert nae3.relations[0].as_set == {
        t for t in itertools.product(range(3), repeat=3) if len(set(t)) > 1
    }


def linear_order_oracle(k):
    # two equal entries force the third strictly above them; rainbow always allowed
    tuples = rainbow_triples(k)
    for b in range(k):
        for c in range(b + 1, k):
            tuples |= perm_closure([(b, b, c)])
    return make_structure(k, [tuples])


def nae_oracle(k):
    return make_structure(k, [{t for t in itertools.product(range(k), repeat=3) if len(set(t)) > 1}])


@pytest.mark.parametrize("k", range(2, 9))
def test_parametric_families_match_their_definitions(k):
    assert named_template(f"LO_{k}") == linear_order_oracle(k)
    assert named_template(f"NAE_{k}") == nae_oracle(k)


def test_catalog_structures_pinned():
    # SHA-256 of the reprs of every fixed catalog template, LO_k and NAE_k at k = 2..12, 17 or 31, and 60, and the
    # all3 list, recorded before the parametric families were built from their rules: every tuple, in order
    names = [name for name in NAMED_TEMPLATES if "<" not in name]
    names += [f"{family}_{k}" for family in ("LO", "NAE") for k in [*range(2, 13), 60]] + ["LO_31", "NAE_17"]
    digest = hashlib.sha256()
    for structure in [named_template(name) for name in names] + all_symmetric_ternary_structures():
        digest.update(repr(structure).encode())
    assert digest.hexdigest() == "7528c62bc2014ff5e26c1d4141b0ca05f52ffe64010c5e41e63df948154f4610"


def test_all3_structures_share_the_27_triples():
    structures = all_symmetric_ternary_structures()
    assert len(structures) == 1023
    assert len({id(t) for s in structures for t in s.relations[0].tuples}) == 27


def test_named_unknown_and_bad_k():
    with pytest.raises(ValueError):
        named_template("NOSUCH")
    with pytest.raises(ValueError):
        named_template("LO_1")
    with pytest.raises(ValueError):
        named_template("LO_x")


def test_symmetrize_rainbow_orbit():
    s = make_structure(3, [{(0, 1, 2)}])
    assert symmetrize(s).relations[0].as_set == perm_closure([(0, 1, 2)])


def test_symmetrize_boolean_tuple_gives_one_in_three():
    s = make_structure(2, [{(0, 0, 1)}])
    assert symmetrize(s) == named_template("1in3")


def test_symmetrize_idempotent_and_monotone():
    rng = random.Random(7)
    for _ in range(30):
        s = random_ternary(rng)
        sym = symmetrize(s)
        assert sym.symmetric
        assert symmetrize(sym) == sym
        assert sym.relations[0].as_set >= s.relations[0].as_set


def test_plus_closure_named_pairs():
    assert plus_closure(named_template("D2")) == named_template("D2plus")
    assert plus_closure(named_template("CH")) == named_template("CHplus")


def test_plus_closure_two_element_identity():
    for name in ("1in3", "NAE"):
        s = named_template(name)
        assert plus_closure(s) == s


def test_plus_closure_requires_single_ternary():
    two_rel = make_structure(2, [{(0, 1)}, {(0, 0, 1)}])
    with pytest.raises(SignatureMismatchError):
        plus_closure(two_rel)


def test_plus_closure_preserves_digraph():
    rng = random.Random(11)
    names = ["1in3", "NAE", "D1", "D2", "T1", "T2", "Q1", "Q2", "Q3", "C", "S", "CH"]
    candidates = [named_template(n) for n in names] + [random_ternary(rng) for _ in range(20)]
    for s in candidates:
        assert associated_digraph(plus_closure(s)) == associated_digraph(s)


def test_associated_digraph_values():
    assert associated_digraph(named_template("T2")).sorted_arcs() == [(0, 1), (1, 2), (2, 0)]
    assert associated_digraph(named_template("1in3")).sorted_arcs() == [(0, 1)]
    assert associated_digraph(named_template("CHplus")).sorted_arcs() == [(0, 1), (1, 2), (2, 3), (3, 0)]


def test_automorphisms_examples():
    shifts = {tuple((v + j) % 4 for v in range(4)) for j in range(4)}
    assert set(automorphisms(named_template("CHplus"))) == shifts
    assert automorphisms(named_template("NAE")) == [(0, 1), (1, 0)]
    assert automorphisms(named_template("1in3")) == [(0, 1)]


def test_automorphisms_form_a_group():
    rng = random.Random(13)
    for _ in range(15):
        s = random_ternary(rng)
        autos = set(automorphisms(s))
        identity = tuple(range(s.domain_size))
        assert identity in autos
        for p in autos:
            inverse = tuple(p.index(v) for v in range(s.domain_size))
            assert inverse in autos
            for q in autos:
                assert tuple(p[q[v]] for v in range(s.domain_size)) in autos


def brute_automorphisms(structure):
    """Reference: every permutation, in itertools order, that maps each relation onto itself."""
    return [
        perm
        for perm in itertools.permutations(range(structure.domain_size))
        if all({tuple(perm[x] for x in t) for t in rel.tuples} == rel.as_set for rel in structure.relations)
    ]


def catalog_templates():
    """Every catalog template, the parametric families at sizes 2 to 5."""
    names = [n for n in NAMED_TEMPLATES if "<" not in n]
    names += [f"{family}_{k}" for family in ("LO", "NAE") for k in range(2, 6)]
    return [named_template(n) for n in names]


def test_automorphisms_match_permutation_filter():
    rng = random.Random(29)
    structures = all_symmetric_ternary_structures() + catalog_templates()
    # all symmetric, so the injective search tests one tuple per class of permuted tuples
    assert all(s.relations[0].symmetric for s in structures)
    structures += [random_ternary(rng, domain_size) for domain_size in (2, 3, 4) for _ in range(20)]
    structures.append(make_structure(4, [{(0, 1)}, {(2, 3, 3), (3, 2, 2)}]))
    for s in structures:
        assert automorphisms(s) == brute_automorphisms(s)


def test_relation_orbit_tuples_and_symmetric_match_permutation_brute_force():
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    for trial in range(400):
        arity, domain_size = rng.randint(1, 4), rng.randint(1, 4)
        all_tuples = list(itertools.product(range(domain_size), repeat=arity))
        chosen = [t for t in all_tuples if rng.random() < 0.4] or [rng.choice(all_tuples)]
        if trial % 2:
            chosen = perm_closure(chosen)
        rel = Relation(arity, tuple(chosen))
        classes = {}
        for t in sorted(chosen):
            classes.setdefault(tuple(sorted(t)), t)
        assert rel.orbit_tuples == tuple(sorted(classes.values()))
        symmetric = all(p in rel.as_set for t in rel.tuples for p in itertools.permutations(t))
        assert rel.symmetric == symmetric
        seen[symmetric] += 1
    assert min(seen.values()) >= 60


def test_automorphism_orbits_match_group():
    rng = random.Random(31)
    names = template_names_3() + ["CH", "CHplus", "LO_3", "LO_6", "NAE_3", "NAE_6"]
    structures = all_symmetric_ternary_structures() + [named_template(n) for n in names]
    structures += [random_ternary(rng, domain_size) for domain_size in (4, 5) for _ in range(40)]
    structures.append(make_structure(4, [{(0, 1)}, {(2, 3, 3), (3, 2, 2)}]))
    for s in structures:
        autos = automorphisms(s)
        group_orbits = sorted({frozenset(p[v] for p in autos) for v in range(s.domain_size)}, key=min)
        assert automorphism_orbits(s) == group_orbits


def test_exactly_two_structures_per_digraph():
    # on 3 elements, relations built from a digraph's orbits plus optionally
    # the rainbow orbit: only the base structure and its plus variant match
    for name in ("D1", "D2", "T1", "T2", "Q1", "Q2", "Q3", "C", "S"):
        base = named_template(name)
        digraph = associated_digraph(base)
        orbit_tuples = base.relations[0].as_set
        matches = []
        for add_rainbow in (False, True):
            tuples = set(orbit_tuples) | (rainbow_triples(3) if add_rainbow else set())
            candidate = make_structure(3, [tuples])
            if associated_digraph(candidate) == digraph:
                matches.append(candidate)
        assert matches == [base, plus_closure(base)]


def test_ternary_structure_closure():
    s = ternary_structure(4, [(3, 3, 0)])
    assert s.relations[0].as_set == perm_closure([(0, 3, 3)])


def format_structure(structure):
    """The text that `parse_structure` reads back as `structure`."""
    lines = [f"domain {structure.domain_size}"]
    for rel in structure.relations:
        lines.append(f"rel {rel.arity}")
        for t in rel.tuples:
            lines.append("t " + " ".join(str(x) for x in t))
    return "\n".join(lines) + "\n"


def test_text_format_round_trip():
    for name in ("1in3", "D2plus", "CH", "LO_3"):
        s = named_template(name)
        assert parse_structure(format_structure(s)) == s


def test_text_format_comments_and_errors():
    text = "# header\ndomain 2\nrel 3\nt 0 0 1  # a tuple\nt 0 1 0\nt 1 0 0\n"
    assert parse_structure(text) == named_template("1in3")
    with pytest.raises(FormatError):
        parse_structure("rel 3\nt 0 0 1\n")
    with pytest.raises(FormatError):
        parse_structure("domain 2\nrel 3\nt 0 0\n")
    with pytest.raises(FormatError):
        parse_structure("domain 2\nrel 3\n")
    with pytest.raises(FormatError):
        parse_structure("domain 2\nbogus 1\n")


def test_template_pair_check_can_be_wrapped_on_the_class():
    # perfbench/tracing.py counts the pairs built by wrapping TemplatePair.__post_init__ with setattr
    original, calls = TemplatePair.__post_init__, []

    def counting(pair):
        calls.append(pair)
        return original(pair)

    one_in_three, nae = named_template("1in3"), named_template("NAE")
    setattr(TemplatePair, "__post_init__", counting)
    try:
        pair = TemplatePair(one_in_three, nae)
        with pytest.raises(ValueError, match="no homomorphism from source to target"):
            TemplatePair(nae, one_in_three)
        # _replace builds through __new__, so the wrapper counts it too, refused or not
        same = pair._replace(target=nae)
        with pytest.raises(ValueError, match="no homomorphism from source to target"):
            pair._replace(source=nae, target=one_in_three)
    finally:
        setattr(TemplatePair, "__post_init__", original)
    assert calls == [pair, (nae, one_in_three), same, (nae, one_in_three)]
    assert TemplatePair.__post_init__ is original
    TemplatePair(one_in_three, nae)
    assert len(calls) == 4
    with pytest.raises(ValueError, match="no homomorphism from source to target"):
        TemplatePair(nae, one_in_three)
