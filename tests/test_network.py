import hashlib
import itertools
import math
import random
import time
import tracemalloc

import pytest

from pcsplab import errors
from pcsplab._network import Network
from pcsplab.errors import TimeBudgetExceeded
from pcsplab.polymorphisms import _partition_triples, _search_network, allowed_table, enumerate_polymorphisms
from pcsplab.structures import NAMED_TEMPLATES, TemplatePair, named_template
from pcsplab.symmetric import _block_branch_order, search_block_symmetric, search_symmetric, sym_compatible_triples


def partition_triples(blocks):
    """Sorted cell triples of every ordered 3-partition of the coordinates, deduplicated.

    Coordinates are numbered block after block; a part's cell is the
    mixed-radix index of its weight vector, last block least significant.
    """
    block_masks, strides = [], []
    start, stride = 0, 1
    for size in blocks:
        block_masks.append(((1 << size) - 1) << start)
        start += size
    for size in reversed(blocks):
        strides.append(stride)
        stride *= size + 1
    strides.reverse()
    full = (1 << start) - 1
    cell_of = [
        sum(bin(mask & bm).count("1") * s for bm, s in zip(block_masks, strides)) for mask in range(full + 1)
    ]
    triples = set()
    x = full
    while True:
        rest = full ^ x
        y = rest
        while True:
            triples.add(tuple(sorted((cell_of[x], cell_of[y], cell_of[rest ^ y]))))
            if y == 0:
                break
            y = (y - 1) & rest
        if x == 0:
            break
        x = (x - 1) & full
    return triples


SHAPES = (
    [(1,) * n for n in range(1, 6)]
    + [(n,) for n in range(1, 13)]
    + [(k1, k2) for k1 in range(1, 6) for k2 in range(1, 6)]
    + [(2, 1, 3)]
    # ties running over three or more blocks
    + [(2, 2, 2), (3, 3, 3), (1,) * 8, (4, 1, 2, 1), (6, 5)]
)


@pytest.mark.parametrize("blocks", SHAPES, ids=str)
def test_network_constraints_match_coordinate_partitions(blocks):
    ncells = math.prod(size + 1 for size in blocks)
    triples = [decode(code, ncells) for code in _partition_triples(blocks)]
    # sorted and free of duplicates: the oracle is a set
    assert triples == sorted(partition_triples(blocks))
    codes = encode(triples, ncells)
    net = Network(ncells, codes, range(ncells), [[1, 1], [1, 1]])
    assert codes == encode(triples, ncells)  # the network reads the list and leaves it as it is
    assert net.ncells == ncells and net.k == 2
    watched = {tuple(sorted((a, *w[i : i + 2]))) for a, w in enumerate(net.watch) for i in range(0, len(w), 2)}
    assert watched == set(triples)
    # each constraint is watched once from each of its three cells, two cells per watch
    assert sum(len(w) for w in net.watch) == 2 * 3 * len(watched)


def decode(code, ncells):
    return code // ncells // ncells, code // ncells % ncells, code % ncells


def encode(triples, ncells):
    """A fresh list of the triples' codes, for a Network to read."""
    return [(a * ncells + b) * ncells + c for a, b, c in triples]


def test_partition_triples_encode_one_int_per_triple():
    codes = list(_partition_triples((2000,)))
    assert len(codes) == 334_334 and max(codes) > 2**31
    assert [decode(code, 2001) for code in codes] == sym_compatible_triples(2000)
    codes = list(_partition_triples((31, 30)))
    assert len(codes) == 43_776
    # cells in mixed radix: 991 is (31, 30), 325 is (10, 15) and 341 is (11, 0)
    assert decode(codes[0], 992) == (0, 0, 991) and decode(codes[-1], 992) == (325, 325, 341)


def test_partition_triples_stream_in_constant_memory():
    # the codes come one first cell at a time: as one list, these 334,334 took 13.28 MB
    tracemalloc.start()
    try:
        count = sum(1 for _ in _partition_triples((2000,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 334_334 and peak < 2**20


def test_networks_built_from_one_code_list_agree():
    # a network reads its codes and leaves the list as it is, so a caller may build from it again
    codes = list(_partition_triples((31, 30)))
    first = Network(992, codes, range(992), [[1, 1], [1, 1]])
    second = Network(992, codes, range(992), [[1, 1], [1, 1]])
    assert len(codes) == 43_776 and first.watch == second.watch
    assert sum(map(len, first.watch)) == 6 * len(codes)


def test_search_network_holds_flat_int_watch_lists():
    tracemalloc.start()
    try:
        net = _search_network(named_template("NAE"), (31, 30), _block_branch_order(31, 30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(len(w) % 2 == 0 and all(type(cell) is int for cell in w) for w in net.watch)
    # every watched cell is one shared int object, not a fresh one per constraint
    assert len({id(cell) for w in net.watch for cell in w}) <= net.ncells
    assert peak < 8 * 2**20


def test_network_build_stops_at_its_deadline(monkeypatch):
    target = named_template("T2")
    calls, stop = 0, math.inf

    def clock():
        nonlocal calls
        calls += 1
        return 0.0 if calls <= stop else 1.0

    monkeypatch.setattr(errors.time, "monotonic", clock)
    _partition_triples((2000,), 0.5)
    # the clock passes the deadline ten reads after the partial triples are built, while the network reads the codes
    calls, stop = 0, calls + 10
    with pytest.raises(TimeBudgetExceeded, match="after 0 nodes, while building its network"):
        _search_network(target, (2000,), range(2001), 0.5)
    assert calls == stop + 1


def test_search_stops_at_a_node_it_reaches_past_its_deadline(monkeypatch):
    # one propagation can outlast the budget: the solution it reaches is not yielded
    now = 0.0
    monkeypatch.setattr(errors.time, "monotonic", lambda: now)
    net = _search_network(named_template("T2"), (7,), range(8))
    propagate = net.propagate_from

    def slow(cand, queue, rows, on_narrow=None):
        nonlocal now
        holds = propagate(cand, queue, rows, on_narrow)
        if all(mask & (mask - 1) == 0 for mask in cand):
            now = 1.0
        return holds

    net.propagate_from = slow
    with pytest.raises(TimeBudgetExceeded, match=r"past its time budget after \d+ nodes$"):
        next(net.solutions(None, 0.5))


def catalog_pairs():
    """(name, target) for each catalog target that 1in3 maps to: TemplatePair refuses the others."""
    names = [name for name in NAMED_TEMPLATES if "<" not in name] + ["LO_3", "LO_4", "NAE_3", "NAE_4"]
    source = named_template("1in3")
    for name in names:
        try:
            yield name, TemplatePair(source, named_template(name)).target
        except ValueError:
            continue


def search_matrix():
    """(target, kind, shape, found, nodes or count, table values or count) over the catalog targets with a 1in3 pair."""
    entries = []
    for name, target in catalog_pairs():
        for n in range(1, 13):
            result = search_symmetric(target, n)
            entries.append((name, "sym", (n,), result.table is not None, result.nodes, table_values(result)))
        for k in range(1, 5):
            for shape in ((k + 1, k), (k, k + 1)):
                result = search_block_symmetric(target, *shape)
                entries.append((name, "block", shape, result.table is not None, result.nodes, table_values(result)))
        for n in range(1, 4):
            count = sum(1 for _ in enumerate_polymorphisms(target, n))
            entries.append((name, "enumerate", (n,), count > 0, count, count))
    return entries


def table_values(result):
    return None if result.table is None else result.table.values


@pytest.fixture(scope="module")
def matrix():
    return search_matrix()


# node counts move with the strength of propagation; re-recorded when the network became arc consistent
# and again when it became exact on the constraints that repeat a cell
MATRIX_DIGEST = "628bc60d01428e690f46fb266bae7e53ea31f751ab948b6996586bf73a66f964"
# verdicts, first tables and enumeration counts must not move with the engine; recorded under forward checking
VERDICT_DIGEST = "eb2d2b0b5e607053be89f09c8cf4fe76739362bedab6ef054e73f0fcfac5e805"


def test_search_matrix_pinned(matrix):
    entries = [entry[:5] for entry in matrix]
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert digest == MATRIX_DIGEST, "\n".join(map(repr, entries))


def test_search_verdicts_pinned(matrix):
    entries = [entry[:4] + entry[5:] for entry in matrix]
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert digest == VERDICT_DIGEST, "\n".join(map(repr, entries))


def gac_oracle(triples, ok, domains):
    """Order-free arc consistency over sets of colors.

    Every pass shrinks each cell of each constraint to the colors that some
    assignment of the constraint's cells completes, until a pass changes
    nothing; a cell repeated in a triple takes one color.
    """
    domains = [set(d) for d in domains]
    changed = True
    while changed:
        changed = False
        for t in triples:
            cells = sorted(set(t))
            colorings = (dict(zip(cells, colors)) for colors in itertools.product(*(domains[c] for c in cells)))
            good = [color for color in colorings if ok(*(color[c] for c in t))]
            for cell in cells:
                keep = {color[cell] for color in good}
                if keep != domains[cell]:
                    domains[cell] = keep
                    changed = True
    return domains


def completions(ncells, triples, ok, domains):
    """Every table on the cells inside `domains` that satisfies each triple, by plain backtracking."""
    closing = [[t for t in triples if max(t) == cell] for cell in range(ncells)]
    values = []

    def extend(cell):
        if cell == ncells:
            yield tuple(values)
            return
        for v in sorted(domains[cell]):
            values.append(v)
            if all(ok(values[a], values[b], values[c]) for a, b, c in closing[cell]):
                yield from extend(cell + 1)
            values.pop()

    return list(extend(0))


GAC_SHAPES = [(n,) for n in range(1, 7)] + [(k1, k2) for k1 in range(1, 4) for k2 in range(1, 4)]


@pytest.mark.parametrize("target", ["LO_3", "NAE", "T2", "CHplus", "D1plus", "1in3"])
def test_propagation_reaches_arc_consistency(target):
    structure = named_template(target)
    rel = structure.single_ternary().as_set
    k = structure.domain_size

    def ok(a, b, c):
        return all(p in rel for p in itertools.permutations((a, b, c)))

    rng = random.Random(target)
    for blocks in GAC_SHAPES:
        triples = sorted(partition_triples(blocks))
        ncells = math.prod(size + 1 for size in blocks)
        net = Network(ncells, encode(triples, ncells), None, allowed_table(structure))
        for _ in range(8):
            assert_arc_consistent(net, triples, ok, rng)


def assert_arc_consistent(net, triples, ok, rng):
    """Propagate from a random seed of at most two cells and compare with the oracles."""
    k = net.k
    seed = {cell: rng.randrange(k) for cell in rng.sample(range(net.ncells), rng.randint(0, 2))}
    domains = [{seed[c]} if c in seed else set(range(k)) for c in range(net.ncells)]
    expected = gac_oracle(triples, ok, domains)
    cand = [sum(1 << v for v in domain) for domain in domains]
    consistent = net.propagate_from(cand, list(range(net.ncells)), net.support)
    assert consistent == all(expected)
    if consistent:
        assert [{v for v in range(k) if m >> v & 1} for m in cand] == expected
    for table in completions(net.ncells, triples, ok, domains):
        assert consistent and all(cand[c] >> v & 1 for c, v in enumerate(table))


@pytest.mark.parametrize("target", ["LO_3", "T1", "D1plus", "CHplus", "NAE", "T2"])
def test_on_narrow_reports_every_narrowing_under_support_rows(target):
    # twin tables narrow only under support rows, so this is the one place their reports are seen
    structure = named_template(target)
    rng = random.Random(target)
    narrowed = 0
    for blocks in [(4,), (5,), (2, 2), (1, 1, 1), (3, 2)]:
        ncells = math.prod(size + 1 for size in blocks)
        net = _search_network(structure, blocks, range(ncells))
        for _ in range(20):
            start = [net.full] * ncells
            for cell in rng.sample(range(ncells), rng.randint(0, 2)):
                start[cell] = 1 << rng.randrange(net.k)
            cand, reported = list(start), [0] * ncells

            def record(cell, removed, triple):
                assert cell in triple
                assert removed & reported[cell] == 0  # no colour is reported twice
                reported[cell] |= removed

            if net.propagate_from(cand, list(range(ncells)), net.support, record):
                assert reported == [s & ~c for s, c in zip(start, cand)]
                narrowed += any(reported)
    assert narrowed


def random_relation(seed):
    """A seeded random symmetric relation on 2 to 4 colors: (rng, k, ncells, ok, allowed), rng past its draws."""
    rng = random.Random(seed)
    k = rng.randint(2, 4)
    ncells = rng.randint(2, 7)
    rel = {t for t in itertools.combinations_with_replacement(range(k), 3) if rng.random() < 0.4}

    def ok(a, b, c):
        return tuple(sorted((a, b, c))) in rel

    allowed = [[sum(1 << v for v in range(k) if ok(x, y, v)) for y in range(k)] for x in range(k)]
    return rng, k, ncells, ok, allowed


@pytest.mark.parametrize("seed", range(40))
def test_engine_on_random_triples(seed):
    """Arbitrary sorted triples, repeated cells and cells in no triple included, under a random relation."""
    rng, k, ncells, ok, allowed = random_relation(seed)
    triples = sorted({tuple(sorted(rng.choices(range(ncells), k=3))) for _ in range(rng.randint(1, 8))})
    net = Network(ncells, encode(triples, ncells), range(ncells), allowed)
    for _ in range(6):
        assert_arc_consistent(net, triples, ok, rng)
    # solutions come out in lexicographic order along the branch order, each exactly once
    domains = [set(range(k))] * ncells
    assert list(net.solutions(None, None)) == completions(ncells, triples, ok, domains)


def test_random_relations_reach_both_kinds_of_support_rows():
    # a full cell skips its watch list only under inert rows, so the seeds above cover both branches
    kinds = set()
    for seed in range(40):
        *_, allowed = random_relation(seed)
        kinds.add(Network(2, encode([(0, 0, 1)], 2), range(2), allowed).support.inert)
    assert kinds == {True, False}


# in LO_3 a 2 goes only with two smaller colors, so support[full][1 << 2] lacks the 2
@pytest.mark.parametrize("target, inert", [("LO_3", False), ("NAE", True), ("CHplus", True)])
def test_catalog_support_rows_inert(target, inert):
    net = Network(2, encode([(0, 0, 1)], 2), range(2), allowed_table(named_template(target)))
    assert net.support.inert == inert and net.forward.inert


def test_arc_consistency_under_rows_that_are_not_inert():
    # 0 and 1 are not-all-equal, and 2 goes only with itself: a 2 on one cell forces the other two
    rel = {(0, 0, 1), (0, 1, 1), (2, 2, 2)}

    def ok(a, b, c):
        return tuple(sorted((a, b, c))) in rel

    allowed = [[sum(1 << v for v in range(3) if ok(x, y, v)) for y in range(3)] for x in range(3)]
    rng = random.Random(0)
    for blocks in GAC_SHAPES:
        triples = sorted(partition_triples(blocks))
        ncells = math.prod(size + 1 for size in blocks)
        net = Network(ncells, encode(triples, ncells), None, allowed)
        assert not net.support.inert and net.support[net.full][0b100] == 0b100
        for _ in range(8):
            assert_arc_consistent(net, triples, ok, rng)
    # queued alone, a full cell still narrows through its watch list: here its 2 forces the third cell
    net = Network(3, encode([(0, 1, 2)], 3), None, allowed)
    cand = [0b111, 0b100, 0b111]
    assert net.propagate_from(cand, [0], net.support)
    assert cand == [0b100] * 3
    # so does a full cell at the root, queued with its neighbours: without (2, 2, 2), 2 is in no triple,
    # and only the rows of the full cells take it away
    rel.discard((2, 2, 2))
    allowed = [[sum(1 << v for v in range(3) if ok(x, y, v)) for y in range(3)] for x in range(3)]
    net = Network(3, encode([(0, 1, 2)], 3), None, allowed)
    cand = [0b111] * 3
    assert net.propagate_from(cand, [0, 1, 2], net.support)
    assert cand == [0b011] * 3


def test_partition_triples_stops_at_its_deadline():
    with pytest.raises(TimeBudgetExceeded, match="while building its network"):
        _partition_triples((2000,), time.monotonic() - 1)


def test_network_needs_two_cells():
    # a one-cell network would yield bare colors, not value tuples
    with pytest.raises(ValueError, match="at least two cells"):
        Network(1, [0], [0], [[1, 0], [0, 2]])
