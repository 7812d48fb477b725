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
from pcsplab.polymorphisms import _cell_partners, _search_network, allowed_table, enumerate_polymorphisms
from pcsplab.structures import (
    NAMED_TEMPLATES,
    TemplatePair,
    all_symmetric_ternary_structures,
    make_structure,
    named_template,
    template_names_3,
)
from pcsplab.symmetric import propagate, search_block_symmetric, search_symmetric, sym_compatible_triples


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
    partners, repeated = _cell_partners(blocks)
    # per cell, the other two cells of each triple through it, once per distinct cell, in ascending triple order
    expected, expected_repeated = constraints_of(ncells, partition_triples(blocks))
    assert pairs_of(partners) == pairs_of(expected)
    assert repeated == expected_repeated
    for pairs in pairs_of(partners):
        us = [u for u, _ in pairs]
        assert all(u <= v for u, v in pairs) and us == sorted(set(us))
    net = Network(partners, repeated, [[1, 1], [1, 1]])
    assert net.ncells == ncells and net.k == 2 and net.partners is partners  # the network keeps the lists as they are


def constraints_of(ncells, triples):
    """(partners, repeated) for a Network, from sorted cell triples: the test-side twin of _cell_partners."""
    pairs = [([], []) for _ in range(ncells)]
    for triple in sorted(set(triples)):
        for cell in sorted(set(triple)):
            rest = list(triple)
            rest.remove(cell)
            pairs[cell][0].append(rest[0])
            pairs[cell][1].append(rest[1])
    partners = [(us + vs[::-1], slice(2 * len(us) - 1, len(us) - 1, -1)) for us, vs in pairs]
    return partners, [t for t in sorted(set(triples)) if len(set(t)) < 3]


def pairs_of(partners):
    """Per cell, the (u, v) pairs that its list and slice hold."""
    return [list(zip(cells, cells[s])) for cells, s in partners]


def triples_of(partners):
    """The sorted cell triples that partner lists hold."""
    return sorted({tuple(sorted((w, u, v))) for w, pairs in enumerate(pairs_of(partners)) for u, v in pairs})


def test_partner_lists_count_each_constraint_once():
    partners, repeated = _cell_partners((2000,))
    triples = triples_of(partners)
    assert len(triples) == 334_334 and triples == sym_compatible_triples(2000)
    # a triple is listed once from each of its distinct cells
    assert sum(map(len, pairs_of(partners))) == 3 * len(triples) - sum(3 - len(set(t)) for t in repeated)
    partners, repeated = _cell_partners((31, 30))
    triples = triples_of(partners)
    assert len(triples) == 43_776
    # cells in mixed radix: 991 is (31, 30), 325 is (10, 15) and 341 is (11, 0)
    assert triples[0] == (0, 0, 991) and triples[-1] == (325, 325, 341)
    assert len(repeated) == 16 * 16 and repeated[0] == (0, 0, 991)


@pytest.mark.parametrize("target, blocks, mb", [("NAE", (31, 30), 1), ("T2", (2000,), 2), ("T1", (1,) * 8, 1)], ids=str)
def test_search_network_partner_lists_share_the_cell_ints(target, blocks, mb):
    ncells = math.prod(size + 1 for size in blocks)
    tracemalloc.start()
    try:
        net = _search_network(named_template(target), blocks)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(type(cells) is list and type(s) is slice for cells, s in net.partners)
    # every cell's list is one of the box patterns, one per weight vector past the first block, not one per cell
    lists = {id(cells): cells for cells, _ in net.partners}.values()
    assert len(lists) <= ncells // (blocks[0] + 1)
    # every listed cell is one of ncells shared int objects, not a fresh one per constraint
    assert len({id(cell) for cells in lists for cell in cells}) <= ncells
    # the build keeps no more than the patterns and one tuple and slice per cell, no list of triples, and holds
    # under mb / 2 MB: a network that copied two lists per cell would hold 2.3 MB for NAE (31, 30), 16 MB for T2 (2000,)
    assert peak - held < 2**18 and held < mb * 2**19 and peak < mb * 2**20


def test_network_build_stops_at_its_deadline(monkeypatch):
    target = named_template("T2")
    calls, stop = 0, math.inf

    def clock():
        nonlocal calls
        calls += 1
        return 0.0 if calls <= stop else 1.0

    monkeypatch.setattr(errors.time, "monotonic", clock)
    _cell_partners((2000,), 0.5)
    assert calls == 4002  # one read per box the pre-passes copy, here the one box at each of 2001 weights, and one per cell
    # the clock passes the deadline halfway through the cells
    calls, stop = 0, 3000
    with pytest.raises(TimeBudgetExceeded, match="after 0 nodes, while building its network"):
        _search_network(target, (2000,), 0.5)
    assert calls == stop + 1


def test_cell_partners_stop_at_their_deadline():
    with pytest.raises(TimeBudgetExceeded, match="while building its network"):
        _cell_partners((2000,), time.monotonic() - 1)


def test_cell_partners_stop_before_building_their_boxes():
    # the boxes of 14 unit blocks hold 3**13 cells between them: a past deadline stops the first of them
    tracemalloc.start()
    try:
        with pytest.raises(TimeBudgetExceeded, match="after 0 nodes, while building its network"):
            _cell_partners((1,) * 14, time.monotonic() - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_cell_partners_stop_before_listing_their_cells():
    # 20 unit blocks have 2**20 cells: a past deadline stops their list after its first 2**16 ints
    tracemalloc.start()
    try:
        with pytest.raises(TimeBudgetExceeded, match="after 0 nodes, while building its network"):
            _cell_partners((1,) * 20, time.monotonic() - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_search_stops_at_a_node_it_reaches_past_its_deadline(monkeypatch):
    # one propagation can outlast the budget: the solution it reaches is not yielded
    now = 0.0
    monkeypatch.setattr(errors.time, "monotonic", lambda: now)
    net = _search_network(named_template("T2"), (7,))
    propagate = net.propagate_from

    def slow(cand, queue, rows, on_narrow=None):
        nonlocal now
        holds = propagate(cand, queue, rows, on_narrow)
        if all(mask & (mask - 1) == 0 for mask in cand):
            now = 1.0
        return holds

    net.propagate_from = slow
    with pytest.raises(TimeBudgetExceeded, match=r"past its time budget after \d+ nodes$"):
        next(net.solutions(range(8), None, 0.5))


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


# node counts move with the strength of propagation and with the branch order; re-recorded when the network became
# arc consistent, when it became exact on the constraints that repeat a cell, and when the two-block order became
# centre-first
MATRIX_DIGEST = "e9c5f84d4d8f272c46cf21ec6faa9cddebc979b0822673cf4f846dc59425fc4c"
# which shapes have a table, and how many tables each enumeration finds, must not move with the engine or the branch
# order; recorded under the row-major two-block order
VERDICT_DIGEST = "7848ebc66c240ed201d6cb86b91ad472dd8c967208be63a82830243031ade9f2"
# each first table is the least one along the branch order, so it moves with the order but not with the engine;
# recorded under forward checking, and again when the two-block order became centre-first
FIRST_TABLE_DIGEST = "c442fd90df7ed47d97da54a5fb219a674bc589020b7651415a2ad4b11a6d8bf1"


def test_search_matrix_pinned(matrix):
    entries = [entry[:5] for entry in matrix]
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert digest == MATRIX_DIGEST, "\n".join(map(repr, entries))


def test_search_verdicts_pinned(matrix):
    entries = [entry[:4] + (entry[4] if entry[1] == "enumerate" else None,) for entry in matrix]
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert digest == VERDICT_DIGEST, "\n".join(map(repr, entries))


def test_search_first_tables_pinned(matrix):
    entries = [entry[:4] + entry[5:] for entry in matrix]
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert digest == FIRST_TABLE_DIGEST, "\n".join(map(repr, entries))


# forced chains and contradictions of every single-weight seed, the raw material of refutation proofs;
# they must not move with how the network stores its constraints
TRACE_DIGEST = "f10625c8013a2affdcb74825be25add68ff952b691527a8d1259430c139176c7"


def test_propagation_traces_pinned():
    entries = []
    for name, target in catalog_pairs():
        for n in range(1, 13):
            net = _search_network(target, (n,))
            for w in range(n + 1):
                for color in range(target.domain_size):
                    assigned, trace = propagate(net, {w: color})
                    entries.append((name, n, w, color, sorted(assigned.items()), trace.events))
    assert sum(len(entry[-1]) for entry in entries) == 3996
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert digest == TRACE_DIGEST, "\n".join(map(repr, entries))


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
        net = Network(*constraints_of(ncells, triples), allowed_table(structure))
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
        net = _search_network(structure, blocks)
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
    net = Network(*constraints_of(ncells, triples), allowed)
    for _ in range(6):
        assert_arc_consistent(net, triples, ok, rng)
    # solutions come out in lexicographic order along the branch order, each exactly once
    domains = [set(range(k))] * ncells
    assert list(net.solutions(range(ncells), None, None)) == completions(ncells, triples, ok, domains)


def test_one_network_serves_two_branch_orders():
    # restarts rerun one network under shuffled orders: each run yields every solution once, in lexicographic
    # order along its own branch order, and counts its own nodes
    reordered = 0
    for seed in range(40):
        rng, k, ncells, ok, allowed = random_relation(seed)
        triples = sorted({tuple(sorted(rng.choices(range(ncells), k=3))) for _ in range(rng.randint(1, 8))})
        net = Network(*constraints_of(ncells, triples), allowed)
        orders = [range(ncells), rng.sample(range(ncells), ncells)]
        runs = []
        for order in orders + orders[:1]:
            found = list(net.solutions(order, None, None))
            assert found == sorted(found, key=lambda values: [values[cell] for cell in order])
            runs.append((found, net.nodes))
        assert runs[0][0] == completions(ncells, triples, ok, [set(range(k))] * ncells)
        assert sorted(runs[1][0]) == runs[0][0]
        assert runs[2] == runs[0]  # the same order again: the same stream and the same nodes, counted afresh
        reordered += runs[1][0] != runs[0][0]
    assert reordered


def test_random_relations_reach_both_kinds_of_support_rows():
    # a full cell skips its partner lists only under inert rows, so the seeds above cover both branches
    kinds = set()
    for seed in range(40):
        *_, allowed = random_relation(seed)
        kinds.add(Network(*constraints_of(2, [(0, 0, 1)]), allowed).support.inert)
    assert kinds == {True, False}


# in LO_3 a 2 goes only with two smaller colors, so support[full][1 << 2] lacks the 2
@pytest.mark.parametrize("target, inert", [("LO_3", False), ("NAE", True), ("CHplus", True)])
def test_catalog_support_rows_inert(target, inert):
    net = Network(*constraints_of(2, [(0, 0, 1)]), allowed_table(named_template(target)))
    assert net.support.inert == inert and net.forward.inert


def every_order_table(target):
    """allowed_table's definition read literally: bit v of [x][y] when every order of (x, y, v) is in the relation."""
    rel = target.single_ternary().as_set
    k = target.domain_size
    return [
        [sum(1 << v for v in range(k) if all(p in rel for p in itertools.permutations((x, y, v)))) for y in range(k)]
        for x in range(k)
    ]


def test_allowed_table_matches_every_order_oracle():
    names = template_names_3() + ["CH", "CHplus", "LO_5", "NAE_4", "LO_9"]
    targets = all_symmetric_ternary_structures() + [named_template(name) for name in names]
    rng = random.Random(50)
    for _ in range(300):  # mostly not symmetric
        k = rng.randint(1, 4)
        triples = list(itertools.product(range(k), repeat=3))
        targets.append(make_structure(k, [rng.sample(triples, rng.randint(1, len(triples)))]))
    assert sum(not target.symmetric for target in targets) > 150
    for target in targets:
        assert allowed_table(target) == every_order_table(target)


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
        net = Network(*constraints_of(ncells, triples), allowed)
        assert not net.support.inert and net.support[net.full][0b100] == 0b100
        for _ in range(8):
            assert_arc_consistent(net, triples, ok, rng)
    # queued alone, a full cell still narrows through its partner lists: here its 2 forces the third cell
    net = Network(*constraints_of(3, [(0, 1, 2)]), allowed)
    cand = [0b111, 0b100, 0b111]
    assert net.propagate_from(cand, [0], net.support)
    assert cand == [0b100] * 3
    # so does a full cell at the root, queued with its neighbours: without (2, 2, 2), 2 is in no triple,
    # and only the rows of the full cells take it away
    rel.discard((2, 2, 2))
    allowed = [[sum(1 << v for v in range(3) if ok(x, y, v)) for y in range(3)] for x in range(3)]
    net = Network(*constraints_of(3, [(0, 1, 2)]), allowed)
    cand = [0b111] * 3
    assert net.propagate_from(cand, [0, 1, 2], net.support)
    assert cand == [0b011] * 3


def test_network_needs_two_cells():
    # a one-cell network would yield bare colors, not value tuples
    with pytest.raises(ValueError, match="at least two cells"):
        Network(*constraints_of(1, [(0, 0, 0)]), [[1, 0], [0, 2]])
