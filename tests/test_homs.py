import hashlib
import itertools
import random
import re
import sys

import pytest

from pcsplab.errors import SignatureMismatchError
from pcsplab.homs import (
    EQUIVALENT,
    INCOMPARABLE,
    STRICTLY_ABOVE,
    STRICTLY_BELOW,
    HomClass,
    HomLattice,
    HomMap,
    check_coloring,
    find_homomorphism,
    hom_exists,
    hom_lattice,
    hom_order_compare,
    lattice_to_dot,
)
from pcsplab.solvers import Instance
from pcsplab.structures import (
    TemplatePair,
    _maps,
    all_symmetric_ternary_structures,
    make_structure,
    named_template,
    symmetrize,
    template_names_3,
)


def brute_hom_exists(source, target):
    """Straight-line oracle: try every map of the source domain."""
    rels = list(zip(source.relations, target.relations))
    for image in itertools.product(range(target.domain_size), repeat=source.domain_size):
        if all(
            tuple(image[x] for x in t) in rel_b.as_set
            for rel_x, rel_b in rels
            for t in rel_x.tuples
        ):
            return True
    return False


def random_ternary(rng, domain_size):
    all_tuples = list(itertools.product(range(domain_size), repeat=3))
    while True:
        chosen = [t for t in all_tuples if rng.random() < 0.25]
        if chosen:
            return make_structure(domain_size, [chosen])


def test_identity_hom_one_in_three_to_nae():
    hom = find_homomorphism(named_template("1in3"), named_template("NAE"))
    assert hom is not None
    assert hom.preserves(named_template("1in3"), named_template("NAE"))


def test_no_hom_nae_to_one_in_three():
    assert find_homomorphism(named_template("NAE"), named_template("1in3")) is None
    assert not brute_hom_exists(named_template("NAE"), named_template("1in3"))


def test_identity_hom_d2plus_to_t1plus():
    d2p, t1p = named_template("D2plus"), named_template("T1plus")
    identity = HomMap(3, 3, (0, 1, 2))
    assert identity.preserves(d2p, t1p)
    assert hom_exists(d2p, t1p)


def test_hom_exists_examples():
    assert hom_exists(named_template("1in3"), named_template("LO_3"))
    assert hom_exists(named_template("T2"), named_template("S"))
    assert not hom_exists(named_template("LO_3"), named_template("1in3"))
    assert not brute_hom_exists(named_template("LO_3"), named_template("1in3"))


def test_hom_search_leaves_recursion_limit_alone():
    # the search keeps its own stack: a source far longer than the interpreter limit still maps
    path = make_structure(1500, [[(i, i + 1, i + 2) for i in range(1498)]])
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        assert hom_exists(path, named_template("NAE"))
        assert sys.getrecursionlimit() == 300
    finally:
        sys.setrecursionlimit(saved)


def test_signature_mismatch():
    binary = make_structure(2, [{(0, 1)}])
    with pytest.raises(SignatureMismatchError):
        find_homomorphism(binary, named_template("1in3"))


MISMATCHED_PAIRS = {
    "(3, 2) vs 1in3": (make_structure(2, [{(0, 0, 1), (0, 1, 0), (1, 0, 0)}, {(0, 1)}]), named_template("1in3")),
    "binary vs ternary": (make_structure(2, [{(0, 1), (1, 0)}]), named_template("1in3")),
}


@pytest.mark.parametrize("pair", MISMATCHED_PAIRS.values(), ids=MISMATCHED_PAIRS.keys())
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_every_relation_pairing_refuses_mismatched_signatures(pair, reverse):
    # zipping the relation lists would drop the unpaired relation and let a map through
    a, b = reversed(pair) if reverse else pair
    message = re.escape(f"signatures differ: {a.signature} vs {b.signature}")
    checks = {
        "_maps": lambda: next(_maps(a, b, range(2), [range(2)] * 2)),
        "HomMap.preserves": lambda: HomMap(2, 2, (0, 1)).preserves(a, b),
        "find_homomorphism": lambda: find_homomorphism(a, b),
        "TemplatePair": lambda: TemplatePair(a, b),
        "hom_lattice": lambda: hom_lattice([a, b]),
    }
    for name, check in checks.items():
        with pytest.raises(SignatureMismatchError, match=message):
            check()
            pytest.fail(f"{name} accepted {a.signature} against {b.signature}")


def test_completeness_against_brute_force():
    rng = random.Random(23)
    for _ in range(60):
        size_x = rng.randint(1, 4)
        size_b = rng.randint(1, 4)
        x = random_ternary(rng, size_x)
        b = random_ternary(rng, size_b)
        assert hom_exists(x, b) == brute_hom_exists(x, b)


def random_structure(rng, domain_size, signature, density):
    """One relation per arity in the signature, each tuple kept with the given probability; not symmetric."""
    relations = []
    for arity in signature:
        all_tuples = list(itertools.product(range(domain_size), repeat=arity))
        chosen = [t for t in all_tuples if rng.random() < density] or [rng.choice(all_tuples)]
        relations.append(chosen)
    return make_structure(domain_size, relations)


def brute_first_hom(source, target):
    """Oracle: the first preserving map in lexicographic order of its values along the degree order."""
    n, k = source.domain_size, target.domain_size
    degree = [0] * n
    for rel in source.relations:
        for t in rel.tuples:
            for x in t:
                degree[x] += 1
    order = sorted(range(n), key=lambda x: (-degree[x], x))
    for values in itertools.product(range(k), repeat=n):
        assignment = [0] * n
        for x, v in zip(order, values):
            assignment[x] = v
        hom = HomMap(n, k, tuple(assignment))
        if hom.preserves(source, target):
            return hom
    return None


def test_find_homomorphism_is_first_map_along_degree_order():
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for trial in range(360):
        signature = (2, 3) if trial % 3 == 0 else (3,)
        source = random_structure(rng, rng.randint(1, 4), signature, rng.choice((0.1, 0.3)))
        target = random_structure(rng, rng.randint(1, 4), signature, rng.choice((0.3, 0.6)))
        expected = brute_first_hom(source, target)
        assert find_homomorphism(source, target) == expected
        outcomes[expected is not None] += 1
    assert min(outcomes.values()) >= 60


def test_find_homomorphism_is_first_map_into_symmetric_targets():
    # into a symmetric target relation the search tests one tuple per class of permuted tuples;
    # (1, 3) reaches the getter of unary relations, symmetric and asymmetric sources both occur
    rng = random.Random(37)
    outcomes = {True: 0, False: 0}
    signatures = ((3,), (2, 3), (1, 3))
    for trial in range(360):
        signature = signatures[trial % 3]
        source = random_structure(rng, rng.randint(1, 4), signature, rng.choice((0.1, 0.3)))
        if trial % 2:
            source = symmetrize(source)
        target = symmetrize(random_structure(rng, rng.randint(1, 4), signature, rng.choice((0.1, 0.3))))
        assert all(rel.symmetric for rel in target.relations)
        expected = brute_first_hom(source, target)
        assert find_homomorphism(source, target) == expected
        outcomes[expected is not None] += 1
    assert min(outcomes.values()) >= 60


class RecordingSet(frozenset):
    """A relation's tuple set that records every tuple tested against it."""

    def __new__(cls, tuples):
        rel = super().__new__(cls, tuples)
        rel.asked = []
        return rel

    def __contains__(self, t):
        self.asked.append(t)
        return super().__contains__(t)


def test_preserves_checks_every_tuple_of_a_symmetric_target():
    # the oracle of the searches takes no shortcut: each source tuple's image is tested, one tuple at a time
    source = make_structure(3, [{(0, 1)}, [(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)]])
    target = symmetrize(make_structure(3, [{(0, 1), (0, 2), (1, 2)}, {(0, 1, 2)}]))
    recorders = [RecordingSet(rel.as_set) for rel in target.relations]
    for rel, recorder in zip(target.relations, recorders):
        rel.__dict__["as_set"] = recorder  # the cached property's slot
    hom = HomMap(3, 3, (2, 0, 1))
    assert hom.preserves(source, target)
    for rel_x, recorder in zip(source.relations, recorders):
        assert recorder.asked == [tuple(hom(x) for x in t) for t in rel_x.tuples]


def test_hom_order_examples():
    assert hom_order_compare(named_template("1in3"), named_template("NAE")) == STRICTLY_BELOW
    assert hom_order_compare(named_template("NAE"), named_template("1in3")) == STRICTLY_ABOVE
    assert hom_order_compare(named_template("T2"), named_template("T2")) == EQUIVALENT
    assert hom_order_compare(named_template("NAE"), named_template("T2")) == INCOMPARABLE


def test_hom_order_reflexive_transitive():
    rng = random.Random(29)
    pool = [symmetrize(random_ternary(rng, rng.randint(2, 3))) for _ in range(8)]
    for s in pool:
        assert hom_order_compare(s, s) == EQUIVALENT
    for a, b, c in itertools.product(pool, repeat=3):
        if hom_exists(a, b) and hom_exists(b, c):
            assert hom_exists(a, c)


def test_symmetrization_reduction_properties():
    # (1) X -> A gives sym(X) -> A for symmetric A; (2) sym(X) -> B gives
    # X -> B; (3) X -> sym(B) iff sym(X) -> sym(B)
    rng = random.Random(31)
    symmetric_a = [named_template("NAE"), named_template("T2"), named_template("D2plus")]
    for _ in range(40):
        x = random_ternary(rng, rng.randint(2, 3))
        b = random_ternary(rng, rng.randint(2, 3))
        sym_x = symmetrize(x)
        for a in symmetric_a:
            if hom_exists(x, a):
                assert hom_exists(sym_x, a)
        if hom_exists(sym_x, b):
            assert hom_exists(x, b)
        assert hom_exists(x, symmetrize(b)) == hom_exists(sym_x, symmetrize(b))


def test_symmetrization_two_sided_claim_fails_for_asymmetric_targets():
    # sym(X) -> sym(B) does not imply X -> B once B is asymmetric: the
    # symmetric closures align, the originals cannot
    x = make_structure(3, [{(0, 1, 2), (1, 2, 0)}])
    b = make_structure(2, [{(0, 1, 1)}])
    assert hom_exists(symmetrize(x), symmetrize(b))
    assert not hom_exists(x, b)


def test_check_coloring_examples():
    one_in_3, nae, t1 = named_template("1in3"), named_template("NAE"), named_template("T1")
    inst = Instance(3, ((1, 2, 3),))
    assert check_coloring(inst, {1: 1, 2: 0, 3: 0}, one_in_3)
    inst_rep = Instance(2, ((1, 1, 2),))
    assert not check_coloring(inst_rep, {1: 0, 2: 0}, nae)
    assert not check_coloring(inst, {1: 0, 2: 1, 3: 2}, t1)


def test_check_coloring_rejects_partial_or_bad_colors():
    inst = Instance(3, ((1, 2, 3),))
    with pytest.raises(ValueError):
        check_coloring(inst, {1: 0, 2: 1}, named_template("T1"))
    with pytest.raises(ValueError):
        check_coloring(inst, {1: 0, 2: 1, 3: 7}, named_template("T1"))


def test_lattice_single_structure():
    lattice = hom_lattice([named_template("T2")])
    assert len(lattice.classes) == 1 and not lattice.cover_edges


def test_lattice_named_templates():
    names = ["1in3", "NAE", "D1", "D2", "T1", "T2", "Q1", "Q2", "Q3", "C", "S"]
    names += [n + "plus" for n in names]
    inputs = {name: named_template(name) for name in names}
    lattice = hom_lattice(list(inputs.values()))

    def class_of(name):
        return lattice.class_index_of(inputs[name])

    # reachability in the cover DAG matches the hom order
    reach = {i: {i} for i in range(len(lattice.classes))}
    for _ in range(len(lattice.classes)):
        for i, j in lattice.cover_edges:
            reach[i] |= reach[j]

    lo3 = class_of("T1plus")
    for lower in ("T1", "D1plus", "D2plus"):
        c = class_of(lower)
        assert c != lo3 and lo3 in reach[c]
    # everything strictly above the open class admits NAE or T2
    nae, t2 = inputs["NAE"], inputs["T2"]
    for i in range(len(lattice.classes)):
        if i != lo3 and i in reach[lo3]:
            rep = lattice.classes[i].representative
            assert hom_exists(nae, rep) or hom_exists(t2, rep)
    # plus variants of the two-element templates collapse into their classes
    assert class_of("1in3") == class_of("1in3plus")
    assert class_of("S") != class_of("Splus")


def test_lattice_dot_output():
    lattice = hom_lattice([named_template("1in3"), named_template("NAE"), named_template("T2")])
    dot = lattice_to_dot(lattice)
    assert dot.startswith("digraph")
    assert dot.count("->") >= 1


def test_lattice_dot_names_catalog_classes():
    # every fixed catalog name, and all3 structures outside the catalog, some in classes of their own
    catalog = {name: named_template(name) for name in template_names_3() + ["CH", "CHplus"]}
    others = [s for s in all_symmetric_ternary_structures()[::97] if s not in catalog.values()]
    lattice = hom_lattice(list(catalog.values()) + others)
    labels = re.findall(r'^  c(\d+) \[label="([^"]*)"\];$', lattice_to_dot(lattice), re.M)
    assert [int(i) for i, _ in labels] == list(range(len(lattice.classes)))
    unnamed = 0
    for cls, (_, label) in zip(lattice.classes, labels):
        names = sorted(name for name, structure in catalog.items() if structure in cls.members)
        if names:
            assert label == "=".join(names)
        else:
            unnamed += 1
            assert label.startswith("d3:") and "=" not in label
    assert unnamed and unnamed < len(lattice.classes)
    assert any("=" in label for _, label in labels)


def test_lattice_matches_pairwise_oracle():
    # the reference: every ordered pair tested, classes and covers read off the full matrix
    inputs = all_symmetric_ternary_structures()[::12] + [named_template(name) for name in template_names_3()]
    m = len(inputs)
    hom = [[hom_exists(a, b) for b in inputs] for a in inputs]
    class_ids = []
    for i in range(m):
        if not any(i in ids for ids in class_ids):
            class_ids.append([j for j in range(m) if hom[i][j] and hom[j][i]])
    classes = [tuple(inputs[j] for j in ids) for ids in class_ids]
    order = sorted(range(len(classes)), key=lambda c: min(classes[c]))
    below = [[a != b and hom[class_ids[a][0]][class_ids[b][0]] for b in order] for a in order]
    n = len(order)
    covers = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if below[i][j] and not any(below[i][k] and below[k][j] for k in range(n))
    }
    expected = HomLattice(
        tuple(HomClass(classes[c], min(classes[c])) for c in order),
        frozenset(covers),
    )
    assert len(expected.classes) > 1 and expected.cover_edges
    assert hom_lattice(inputs) == expected


def test_lattice_hom_test_count_pinned(monkeypatch):
    from pcsplab import homs

    calls = []
    real = homs.hom_exists

    def counting(source, target):
        calls.append(None)
        return real(source, target)

    monkeypatch.setattr(homs, "hom_exists", counting)
    structures = all_symmetric_ternary_structures()
    lattice = hom_lattice(structures)
    # each structure is tested both ways against at most one head per class
    assert len(calls) <= 2 * len(structures) * len(lattice.classes)
    assert len(calls) == 3718


def test_lattice_dot_digests_pinned():
    lattice = hom_lattice(all_symmetric_ternary_structures())
    assert len(lattice.classes) == 21
    # SHA-256 of `hom lattice --all3` and `--named3` stdout, recorded before the
    # classes were sorted ahead of building the order relation
    named = hom_lattice([named_template(name) for name in template_names_3()])
    digests = [hashlib.sha256(lattice_to_dot(lat).encode()).hexdigest() for lat in (lattice, named)]
    assert digests == [
        "1e4e34d2e5cc2ac18186f58fc5491e91d0588d6179be79546ffc7ba808af3612",
        "6bc20cdd9c6c56822026a95fd3e1fcc165cd857590288c5d98ae426237812c77",
    ]
