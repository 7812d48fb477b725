import gc
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace

import pytest
from full_suites import brute_force_leaders, coordinate_permutations, full_check_properties
from loop_properties import LOOP_PREDICATES

import pcsplab.properties as properties_module
from pcsplab.cli import main
from pcsplab.errors import ArityBoundError, TimeBudgetExceeded, deadline_after
from pcsplab.polymorphisms import BlockTable, enumerate_orbits, enumerate_polymorphisms
from pcsplab.properties import (
    PROPERTY_CATALOG,
    SELECTOR_CATALOG,
    MaskTables,
    SelectorSpec,
    SlicedTable,
    _coloring_view,
    _dsatur_picks,
    _greedy_clique,
    check_properties,
    chromatic_number,
    kneser_graph,
    properties_for_template,
    verify_selector,
)
from pcsplab.structures import NAMED_TEMPLATES, named_template


def test_Ef_odd_for_enumerated_t1_polymorphisms():
    template = named_template("T1")
    for values in enumerate_polymorphisms(template, 3):
        if values[0] == 0:
            e = sum(1 for i in range(3) if values[1 << i] != 0)
            assert e % 2 == 1


def test_kneser_graph_petersen():
    g = kneser_graph(5, 2)
    assert len(g.vertices) == 10
    assert g.edge_count == 15


def test_kneser_graph_matching_and_point():
    g = kneser_graph(6, 3)  # perfect matching on 20 vertices
    assert len(g.vertices) == 20
    assert all(len(nb) == 1 for nb in g.adjacency)
    point = kneser_graph(3, 3)
    assert len(point.vertices) == 1 and point.edge_count == 0


def test_kneser_graph_matches_disjointness():
    # the definition, pair by pair: v and w are adjacent iff they are disjoint m-subsets of 1..n
    for n in range(1, 12):
        for m in range(1, n + 1):
            graph = kneser_graph(n, m)
            assert graph.vertices == tuple(itertools.combinations(range(1, n + 1), m))
            oracle = tuple(
                tuple(j for j, w in enumerate(graph.vertices) if not set(v) & set(w)) for v in graph.vertices
            )
            assert graph.adjacency == oracle, (n, m)


def test_chromatic_number_leaves_recursion_limit_alone():
    # the coloring search keeps its own stack: a path far longer than the interpreter limit is fine
    path_adjacency = [[w for w in (v - 1, v + 1) if 0 <= w < 1200] for v in range(1200)]
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        assert chromatic_number(path_adjacency, 3) == 2
        assert sys.getrecursionlimit() == 300
    finally:
        sys.setrecursionlimit(saved)


def test_kneser_graph_bad_parameters():
    with pytest.raises(ValueError):
        kneser_graph(2, 3)
    with pytest.raises(ValueError):
        kneser_graph(3, 0)


def test_chromatic_number_of_kneser_graphs():
    # Lovasz: chi(KG(n, m)) = n - 2m + 2 whenever n >= 2m
    for n in range(2, 10):
        for m in range(1, n // 2 + 1):
            assert chromatic_number(kneser_graph(n, m), n) == n - 2 * m + 2, (n, m)


def _loop_dsatur_picks(adjacency, k, clique):
    """The coloring search with saturation recomputed at every pick, yielding each picked vertex."""
    nvert = len(adjacency)
    if len(clique) > k:
        return
    color = [-1] * nvert
    for i, v in enumerate(clique):
        color[v] = i
    by_degree = sorted(range(nvert), key=lambda v: (-len(adjacency[v]), v))

    def pick():
        best_v, best_key = -1, None
        for v in by_degree:
            if color[v] >= 0:
                continue
            saturation = len({color[w] for w in adjacency[v] if color[w] >= 0})
            key = (-saturation, -len(adjacency[v]), v)
            if best_key is None or key < best_key:
                best_v, best_key = v, key
        return best_v

    todo = nvert - len(clique)
    if todo == 0:
        yield None
        return
    stack = []

    def push(used):
        v = pick()
        taken = {color[w] for w in adjacency[v] if color[w] >= 0}
        stack.append((v, iter([c for c in range(min(k, used + 1)) if c not in taken]), used))
        return v

    yield push(len(clique))
    while stack:
        v, colors, used = stack[-1]
        c = next(colors, -1)
        color[v] = c
        if c < 0:
            stack.pop()
        elif len(stack) == todo:
            yield None
            return
        else:
            yield push(max(used, c + 1))


def test_dsatur_picks_match_recomputed_saturation():
    # every color budget chromatic_number tries on the Kneser graphs of the suites benchmark
    pairs = [(n, m) for n in range(2, 10) for m in range(1, 5) if n >= 2 * m] + [(10, 4)]
    budgets = 0
    for n, m in pairs:
        adjacency = kneser_graph(n, m).adjacency
        view = _coloring_view(adjacency)
        clique = _greedy_clique(view)
        for k in range(max(1, len(clique)), n - 2 * m + 3):
            assert list(_dsatur_picks(view, k, clique)) == list(_loop_dsatur_picks(adjacency, k, clique)), (n, m, k)
            budgets += 1
    assert budgets == 38


def _random_graph(rng, nvert, density):
    adjacency = [[] for _ in range(nvert)]
    for v, w in itertools.combinations(range(nvert), 2):
        if rng.random() < density:
            adjacency[v].append(w)
            adjacency[w].append(v)
    return adjacency


def test_dsatur_picks_match_recomputed_saturation_on_random_graphs():
    # unlike the regular Kneser graphs, these tie on saturation between vertices of different degrees
    rng = random.Random(37)
    graphs = [_random_graph(rng, rng.randint(1, 30), rng.random()) for _ in range(300)]
    assert sum(len({len(nb) for nb in adjacency}) > 1 for adjacency in graphs) > 250
    graphs += [[[] for _ in range(12)], [[w for w in range(12) if w != v] for v in range(12)]]  # edgeless, complete
    for adjacency in graphs:
        view = _coloring_view(adjacency)
        clique = _greedy_clique(view)
        for k in range(1, 7):
            assert list(_dsatur_picks(view, k, clique)) == list(_loop_dsatur_picks(adjacency, k, clique)), (adjacency, k)


@pytest.mark.parametrize("adjacency, message", [
    ([[0]], "vertex 0 is its own neighbor"),
    ([[0, 1], [0]], "vertex 0 is its own neighbor"),
])
def test_chromatic_number_rejects_a_self_loop(adjacency, message):
    with pytest.raises(ValueError, match=message):
        chromatic_number(adjacency, 3)


@pytest.mark.parametrize("adjacency, message", [
    ([[5]], "vertex 0 has neighbor 5, which is not a vertex"),
    ([[], [-1]], "vertex 1 has neighbor -1, which is not a vertex"),
])
def test_chromatic_number_rejects_a_neighbor_that_is_not_a_vertex(adjacency, message):
    with pytest.raises(ValueError, match=message):
        chromatic_number(adjacency, 3)


def test_chromatic_number_rejects_an_edge_listed_on_one_side():
    with pytest.raises(ValueError, match="vertex 0 has neighbor 1, which does not list 0 back"):
        chromatic_number([[1], []], 3)
    with pytest.raises(ValueError, match="vertex 2 has neighbor 0, which does not list 2 back"):
        chromatic_number([[1], [0, 2], [1, 0]], 3)


def test_chromatic_number_examples():
    assert chromatic_number(kneser_graph(5, 2), 5) == 3
    assert chromatic_number([[], [], []], 5) == 1  # edgeless
    assert chromatic_number([], 3) == 0  # no vertices
    assert chromatic_number(kneser_graph(6, 2), 6) == 4
    assert chromatic_number(kneser_graph(6, 2), 3) is None


def test_property_catalog_complete():
    assert len(PROPERTY_CATALOG) == 15
    assert sorted(properties_for_template("D2plus")) == [
        "D2_singleton", "D2_small02", "D2_successor", "D2_unions"
    ]
    assert len(properties_for_template("T1")) == 6
    assert len(properties_for_template("CH")) == 3
    assert len(properties_for_template("D1plus")) == 2


def test_all_properties_hold_at_arity_three():
    for pid, spec in PROPERTY_CATALOG.items():
        template = named_template(spec.template_name)
        report = check_properties(template, [pid], 3)[0]
        assert report.holds, (pid, report.counterexamples[:1])
        assert report.examined > 0


def test_property_sanity_on_projection_minion():
    report = check_properties(named_template("1in3"), ["D1_no_disjoint"], 3)[0]
    assert report.holds


def test_property_counterexample_reporting_and_reverification():
    # the no-disjoint fact is specific to its home template: against the
    # not-all-equal target it fails and every witness must re-verify
    report = check_properties(named_template("NAE"), ["D1_no_disjoint"], 3)[0]
    assert not report.holds
    for ce in report.counterexamples:
        tag, color, x, y = ce.witness
        assert tag == "disjoint-sets"
        assert x & y == 0
        assert ce.table.values[x] == color and ce.table.values[y] == color


def test_one_pass_reports_match_single_property_checks():
    # the shared pass keeps each property's own counterexamples and cap;
    # D1_no_disjoint fails against NAE, so its cap of two is reached
    template = named_template("NAE")
    ids = ["D1_small_iset", "D1_no_disjoint"]
    joint = check_properties(template, ids, 3, counterexample_cap=2)
    assert [report.property_id for report in joint] == ids
    assert len(joint[1].counterexamples) == 2
    for pid, report in zip(ids, joint):
        single = check_properties(template, [pid], 3, counterexample_cap=2)[0]
        assert replace(report, elapsed_ms=0.0) == replace(single, elapsed_ms=0.0)


def _assert_loops_agree(values, masks):
    """Compares every catalog predicate with its loop; returns the ids the table violates."""
    view = SlicedTable(values, masks)
    violated = []
    for pid, loop in LOOP_PREDICATES.items():
        expected = loop(values, masks.n)
        assert PROPERTY_CATALOG[pid].predicate(view) == expected, (pid, values)
        if expected is not None:
            violated.append(pid)
    return violated


def test_sliced_predicates_match_loops_on_catalog_tables():
    # every predicate on every template's tables: the cross-template pairs give real violations
    violations = 0
    for name in NAMED_TEMPLATES:
        if "<" in name:
            continue
        template = named_template(name)
        for n in (1, 2, 3):
            masks = MaskTables(n, template.domain_size)
            for values in enumerate_polymorphisms(template, n):
                violations += len(_assert_loops_agree(values, masks))
    assert violations > 30000


def test_sliced_predicates_match_loops_on_random_tables():
    # arity 6 lets T1_smallEf fail; every predicate must see violations
    rng = random.Random(11)
    violated = set()
    for _ in range(6000):
        n = rng.randint(1, 6)
        k = rng.choice((3, 4))
        weights = [rng.random() ** 3 for _ in range(k)]  # skewed color mixes
        values = tuple(rng.choices(range(k), weights=weights, k=1 << n))
        violated.update(_assert_loops_agree(values, MaskTables(n, k)))
    assert violated == set(LOOP_PREDICATES)


@pytest.mark.parametrize("name", ["T1", "CH"])
def test_sliced_predicates_match_loops_on_arity_four_streams(name):
    template = named_template(name)
    masks = MaskTables(4, template.domain_size)
    for values in enumerate_polymorphisms(template, 4):
        _assert_loops_agree(values, masks)


ORBIT_TARGETS = ["T1", "D1plus", "D2plus", "CH", "NAE", "T2", "1in3"]


@pytest.mark.parametrize("name", ORBIT_TARGETS)
def test_predicates_invariant_under_coordinate_permutations(name):
    # check_properties runs each predicate on one table per orbit: pass or fail must not see the coordinate names
    template = named_template(name)
    predicates = [spec.predicate for spec in PROPERTY_CATALOG.values()]
    for n in range(1, 5 if name in ("T1", "CH", "D2plus") else 4):
        masks = MaskTables(n, template.domain_size)
        permutations = coordinate_permutations(n)
        for values in enumerate_polymorphisms(template, n):
            fails = [p(SlicedTable(values, masks)) is not None for p in predicates]
            for member in {get(values) for get in permutations}:
                assert [p(SlicedTable(member, masks)) is not None for p in predicates] == fails, (n, values, member)


@pytest.mark.parametrize("name", ORBIT_TARGETS)
def test_orbit_suites_match_full_enumeration(name):
    template = named_template(name)
    ids = list(PROPERTY_CATALOG)
    examined, found = full_check_properties(template, ids, 4, 25)
    if name == "NAE":
        assert found["D1_no_disjoint"]  # a D1 fact fails off its template
    for cap in (2, 25):
        for report in check_properties(template, ids, 4, counterexample_cap=cap):
            assert report.examined == examined
            got = [(c.arity, c.table.values, c.witness) for c in report.counterexamples]
            assert got == found[report.property_id][:cap], (report.property_id, cap)


@pytest.mark.parametrize("name", ORBIT_TARGETS)
def test_orbit_leaders_match_brute_force(name):
    template = named_template(name)
    for n in range(1, 5):
        assert list(enumerate_orbits(template, n)) == brute_force_leaders(template, n), n


@pytest.mark.parametrize("name", ["CH", "T2"])
def test_orbit_leaders_match_brute_force_past_arity_4(name):
    # the prune carries tied permutations across layers; arity 6 permutes every coordinate, all 720 of S_6
    template = named_template(name)
    for n in (5, 6):
        assert list(enumerate_orbits(template, n, force=True)) == brute_force_leaders(template, n, force=True), n


def test_orbit_leaders_pinned_t1_arity_five():
    leaders = list(enumerate_orbits(named_template("T1"), 5))
    assert (len(leaders), sum(size for _, size in leaders)) == (4022, 328582)


def test_check_properties_keeps_no_module_state():
    # the mask tables live in one pass: none at import, none after it
    code = "import gc, pcsplab.properties as p; print(sum(isinstance(o, p.MaskTables) for o in gc.get_objects()))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True).stdout == "0\n"
    before = dict(vars(properties_module))
    template = named_template("T1")
    ids = properties_for_template("T1")
    first = check_properties(template, ids, 3)
    second = check_properties(template, ids, 3)
    assert [replace(r, elapsed_ms=0.0) for r in first] == [replace(r, elapsed_ms=0.0) for r in second]
    assert dict(vars(properties_module)) == before
    gc.collect()
    assert not any(isinstance(o, MaskTables) for o in gc.get_objects())


@pytest.mark.parametrize("budget", ["1", "2"])
def test_verify_lemmas_honours_time_budget(budget, capsys):
    start = time.monotonic()
    code = main(["verify", "lemmas", "T1", "--max-arity", "6", "--force", "--time-budget", budget])
    assert code == 2
    assert time.monotonic() - start < 10
    # arity 6 is past the default cap, so the past-cap note comes first
    assert capsys.readouterr().err.splitlines()[-1].startswith("aborted: ")


def test_arity_cap_refused_before_any_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the arity check")

    monkeypatch.setattr(properties_module, "enumerate_orbits", refuse)
    monkeypatch.setattr(properties_module, "enumerate_polymorphisms", refuse)
    template = named_template("T1")
    with pytest.raises(ArityBoundError):
        check_properties(template, properties_for_template("T1"), 6)
    with pytest.raises(ArityBoundError):
        verify_selector(template, SELECTOR_CATALOG["SEL_T1"], 6)
    # force lets the suite past the cap, so it reaches the enumeration
    with pytest.raises(AssertionError, match="enumerated"):
        check_properties(template, properties_for_template("T1"), 6, force=True)


def test_unknown_property_id():
    with pytest.raises(KeyError):
        check_properties(named_template("T1"), ["NOSUCH"], 2)


def test_report_json_shape():
    report = check_properties(named_template("D2plus"), ["D2_unions"], 2)[0]
    data = report.to_dict()
    assert data["property"] == "D2_unions"
    assert data["examined"] == report.examined
    assert data["counterexamples"] == []


def test_counterexample_report_json_pinned():
    # SHA-256 of the failing report without elapsed_ms: pins the --json schema of counterexamples
    data = check_properties(named_template("NAE"), ["D1_no_disjoint"], 3)[0].to_dict()
    del data["elapsed_ms"]
    assert (data["examined"], len(data["counterexamples"])) == (44, 25)
    digest = hashlib.sha256(json.dumps(data).encode()).hexdigest()
    assert digest == "8554534b21e0f860ea30c385a537b0bc052ecaa669447b048dadfcd58f9f6b1d"


def test_selector_catalog_parameters():
    params = {(s.name, s.k, s.l) for s in SELECTOR_CATALOG.values()}
    assert params == {("SEL_D1", 3, 2), ("SEL_D2", 2, 5), ("SEL_T1", 5, 2), ("SEL_CH", 2, 5)}


def test_selector_rules_total_and_bounded():
    for spec in SELECTOR_CATALOG.values():
        template = named_template(spec.template_name)
        for n in (1, 2, 3):
            for values in enumerate_polymorphisms(template, n):
                chosen = spec.rule(values, n)
                assert chosen is not None
                assert chosen.bit_count() <= spec.k


def test_selector_d1_tie_breaking():
    # prefers a 2-set over a 1-set, then smaller, then lexicographic
    spec = SELECTOR_CATALOG["SEL_D1"]
    template = named_template("D1plus")
    for values in enumerate_polymorphisms(template, 3):
        chosen = spec.rule(values, 3)
        if values[chosen] == 1:
            assert all(values[m] != 2 for m in range(8) if bin(m).count("1") <= 3)


@pytest.mark.parametrize(
    "name, target_size, values, expected",
    [
        ("SEL_D1", 3, (0, 0, 0, 0), None),
        ("SEL_D2", 3, (1, 0, 1, 1), {1}),  # no small 2-set or 1-singleton: the first small 0-set
        ("SEL_D2", 3, (0, 0, 0, 0), None),
        ("SEL_T1", 3, (1, 1, 1, 1), None),
        ("SEL_CH", 4, (0, 0, 0, 0), None),
    ],
)
def test_selector_rule_fallbacks(name, target_size, values, expected):
    # hand-built arity-2 tables, not polymorphisms, that reach each rule's last branches
    table = BlockTable((1, 1), target_size, values)
    chosen = SELECTOR_CATALOG[name].rule(table.values, table.arity)
    assert (None if chosen is None else {i + 1 for i in range(2) if chosen >> i & 1}) == expected


def _loop_sel_d2(f, n):
    # the rule with its singleton scan as a plain loop
    m = properties_module._first_mask(f, n, 2, 2)
    if m is not None:
        return m
    if f[0] == 0:
        for x in range(n):
            if f[1 << x] == 1:
                return 1 << x
    if f[0] == 1:
        return properties_module._first_mask(f, n, 0, 2)
    return None


def _loop_sel_ch(f, n):
    i = f[0]
    m = properties_module._first_mask(f, n, (i + 3) % 4, 2)
    if m is not None:
        return m
    for x in range(n):
        if f[1 << x] == (i + 1) % 4:
            return 1 << x
    return None


def test_selector_rules_match_loops_on_random_tables():
    rng = random.Random(26)
    cases = {"SEL_D2": (3, _loop_sel_d2), "SEL_CH": (4, _loop_sel_ch)}
    found = {name: set() for name in cases}
    for _ in range(4000):
        n = rng.randint(1, 5)
        for name, (k, loop) in cases.items():
            values = tuple(rng.randrange(k) for _ in range(1 << n))
            chosen = SELECTOR_CATALOG[name].rule(values, n)
            assert chosen == loop(values, n), (name, values)
            found[name].add(None if chosen is None else chosen.bit_count())
    # both rules pick single coordinates and fall through to None on some tables
    assert all({None, 1} <= sizes for sizes in found.values())


def test_verify_selectors_hold_at_arity_two():
    for spec in SELECTOR_CATALOG.values():
        template = named_template(spec.template_name)
        report = verify_selector(template, spec, 2)
        assert report.holds, (spec.name, report.violations[:1])
        assert report.states_explored > 0


# states explored per selector: a rewrite of the chain search must do the same work
SELECTOR_STATE_PINS = [
    ("SEL_D1", 3, 398),
    ("SEL_D2", 3, 227),
    ("SEL_T1", 3, 125),
    ("SEL_CH", 4, 3588),
    ("SEL_T1", 4, 4995),
    ("SEL_D2", 4, 19499),
]


@pytest.mark.parametrize("name, max_arity, states", SELECTOR_STATE_PINS)
def test_verify_selector_states_pinned(name, max_arity, states):
    spec = SELECTOR_CATALOG[name]
    report = verify_selector(named_template(spec.template_name), spec, max_arity)
    assert report.holds
    assert report.states_explored == states


def test_verify_selector_deadline_checked_per_state(monkeypatch):
    # let the enumeration ignore the budget, so that the chain search meets the deadline
    def unbounded(template, n, deadline=None):
        return enumerate_polymorphisms(template, n)

    monkeypatch.setattr(properties_module, "enumerate_polymorphisms", unbounded)
    spec = SELECTOR_CATALOG["SEL_T1"]
    with pytest.raises(TimeBudgetExceeded, match="after 1 states"):
        verify_selector(named_template(spec.template_name), spec, 2, deadline=deadline_after(0))


def test_verify_selector_refuses_a_minor_off_the_stream(monkeypatch):
    # drop the first unary table from the stream: a minor of a binary table lands on it
    def short(template, n, deadline=None):
        tables = enumerate_polymorphisms(template, n)
        if n == 1:
            next(tables)
        return tables

    monkeypatch.setattr(properties_module, "enumerate_polymorphisms", short)
    spec = SELECTOR_CATALOG["SEL_T1"]
    with pytest.raises(AssertionError, match="minor of a polymorphism left the enumerated stream"):
        verify_selector(named_template(spec.template_name), spec, 2)


def test_verify_selector_violation_chains_pinned():
    # SHA-256 of the report without elapsed_ms: pins every chain (arity, values, mapping)
    empty_rule = SelectorSpec("SEL_EMPTY", 1, 2, "T1", "always empty", lambda f, n: 0)
    pins = {
        2: (31, 14, "0c441301eb3755c8a98a13d4954888a2e3061cb06d36d48e3745d30d7ba81d53"),
        3: (157, 77, "b44dd77f8e9244a78e2f22feb8e17a0c50c2e6bd1b9d481e0f9d879e5f3d67fe"),
    }
    for max_arity, (states, chains, digest) in pins.items():
        data = verify_selector(named_template("T1"), empty_rule, max_arity).to_dict()
        del data["elapsed_ms"]
        assert (data["states_explored"], len(data["violations"])) == (states, chains)
        assert hashlib.sha256(json.dumps(data).encode()).hexdigest() == digest


def test_verify_selector_failures_in_arity_then_stream_order():
    template = named_template("T1")
    last_unary = list(enumerate_polymorphisms(template, 1))[-1]
    calls = []

    def rule(values, n):
        calls.append((n, values))
        return None if n == 2 or values == last_unary else 1

    spec = replace(SELECTOR_CATALOG["SEL_T1"], rule=rule)
    report = verify_selector(template, spec, 2)
    stream = [(n, v) for n in (1, 2) for v in enumerate_polymorphisms(template, n)]
    assert calls == stream  # one rule call per table, in stream order
    assert list(report.totality_failures) == [(n, v) for n, v in stream if rule(v, n) is None]
    assert not report.bound_failures


def test_verify_selector_report_shape():
    spec = SELECTOR_CATALOG["SEL_T1"]
    report = verify_selector(named_template("T1"), spec, 2)
    data = report.to_dict()
    assert data["selector"] == "SEL_T1"
    assert data["violations"] == []
    assert data["chain_length"] == 2


def test_subunion_disjointness_is_needed():
    # the stated fact without disjointness has an arity-2 counterexample;
    # keep it on record so the hypothesis is not dropped by accident
    values = (0, 0, 2, 1)  # f(empty)=0, f({1})=0, f({2})=2, f({1,2})=1
    table = BlockTable((1, 1), 3, values)
    template = named_template("T1")
    from pcsplab.polymorphisms import is_polymorphism

    assert is_polymorphism(table, template)
    x = y = 3  # the overlapping pair {1,2},{1,2}
    z = 2
    assert table.values[x] == 1 and table.values[y] == 1
    assert z & ~(x | y) == 0 and table.values[z] == 2
    # the catalog predicate (disjoint pairs only) accepts this table
    assert PROPERTY_CATALOG["T1_subunion"].predicate(SlicedTable(values, MaskTables(2, 3))) is None


def test_verify_selector_detects_bad_rules():
    from pcsplab.properties import SelectorSpec, verify_selector

    template = named_template("T1")
    # an empty selection can never intersect anything: every chain violates
    empty_rule = SelectorSpec("SEL_EMPTY", 1, 2, "T1", "always empty", lambda f, n: 0)
    report = verify_selector(template, empty_rule, 2)
    assert not report.holds and report.violations

    # a partial rule is reported as a totality failure
    partial_rule = SelectorSpec(
        "SEL_PARTIAL", 1, 2, "T1", "undefined on arity 2",
        lambda f, n: None if n == 2 else 1,
    )
    report = verify_selector(template, partial_rule, 2)
    assert report.totality_failures
    entries = json.loads(json.dumps(report.to_dict()))["totality_failures"]
    assert len(entries) == len(report.totality_failures)
    assert all(arity == 2 and len(values) == 4 for arity, values in entries)

    # an oversized selection is flagged against the bound
    big_rule = SelectorSpec("SEL_BIG", 1, 2, "T1", "whole coordinate set", lambda f, n: (1 << n) - 1)
    report = verify_selector(template, big_rule, 2)
    assert report.bound_failures
    entries = json.loads(json.dumps(report.to_dict()))["bound_failures"]
    assert entries == [[arity, list(values)] for arity, values in report.bound_failures]
    assert all(arity == 2 and len(values) == 4 for arity, values in entries)
