import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

import loop_solvers
from loop_solvers import SplitMix64

from pcsplab.errors import FormatError, TimeBudgetExceeded, UnsupportedTargetError, deadline_after
from pcsplab.homs import check_coloring
from pcsplab.solvers import (
    NP_HARD,
    OPEN,
    P,
    SPLITMIX_CHUNK,
    Instance,
    _draws_below,
    _splitmix64,
    classify_template,
    fill_set_aside,
    format_coloring,
    format_instance,
    gauss_gf3,
    generate_planted,
    hnf_solve,
    parse_instance,
    peel,
    solve_nae,
    solve_t2,
    solve_via_relaxation,
)
from pcsplab.structures import make_structure, named_template, symmetrize


def step(state):
    """One step of the documented recurrence, straight-line: (word, next state)."""
    mask = (1 << 64) - 1
    state = (state + 0x9E3779B97F4A7C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31), state


def test_splitmix64_matches_reference_recurrence():
    # the chunked words across three chunk boundaries, and the scalar oracle of tests/loop_solvers.py
    for seed in (0, 42, (1 << 64) - 1):
        words = _splitmix64(seed)
        oracle = SplitMix64(seed)
        state = seed
        for _ in range(3 * SPLITMIX_CHUNK + 5):
            expected, state = step(state)
            assert next(words) == expected == oracle.next_word()


def test_splitmix64_known_vector_seed_zero():
    assert next(_splitmix64(0)) == SplitMix64(0).next_word() == 0xE220A8397B1DCDAF


def test_draws_below_skip_rejected_words_as_next_below():
    # n = 2**63 + 1 rejects the words >= 2**64 - (2**64 mod n) = n, about half of them
    n = 2**63 + 1
    for seed in (7, 42):
        draws = _draws_below(_splitmix64(seed), (n,))
        oracle = SplitMix64(seed)
        assert [next(draws) for _ in range(1000)] == [oracle.next_below(n) for _ in range(1000)]
    words = _splitmix64(7)
    assert sum(next(words) >= n for _ in range(1000)) > 400
    draws = _draws_below(_splitmix64(3), (n, 3, 5))  # bounds in turn, each with its own limit
    oracle = SplitMix64(3)
    assert [next(draws) for _ in range(300)] == [oracle.next_below(b) for _ in range(100) for b in (n, 3, 5)]


def test_generate_planted_matches_scalar_reference():
    # criterion 7's (nv, ne, seed) triples, and nv = 3, where with edges 5 of 8 first assignments are redrawn
    sizes = SplitMix64(20240)
    for i in range(1000):
        nv = 3 + sizes.next_below(48)
        ne = sizes.next_below(101)
        assert generate_planted(nv, ne, 31337 + i) == loop_solvers.generate_planted(nv, ne, 31337 + i)
    redraws = 0
    for seed in range(200):
        oracle = SplitMix64(seed)
        redraws += sum(oracle.next_word() & 1 for _ in range(3)) != 1
        for ne in (0, 1, 4):
            assert generate_planted(3, ne, seed) == loop_solvers.generate_planted(3, ne, seed)
    assert redraws > 100
    # criterion 7 draws at most 450 words an instance, all in the first chunk; this draws 6,600, across six boundaries
    assert generate_planted(600, 1500, 5) == loop_solvers.generate_planted(600, 1500, 5)


def test_generate_planted_minimal():
    instance, planted = generate_planted(3, 1, 5)
    (edge,) = instance.edges
    values = sorted(planted[v] for v in edge)
    assert values == [0, 0, 1]
    assert check_coloring(instance, planted, named_template("1in3"))


def test_generate_planted_empty():
    instance, planted = generate_planted(5, 0, 9)
    assert instance.edges == ()
    assert set(planted.values()) <= {0, 1}
    assert 1 in planted.values() and 0 in planted.values()


def test_generate_planted_large_and_deterministic():
    a1, p1 = generate_planted(50, 100, 42)
    a2, p2 = generate_planted(50, 100, 42)
    b, _ = generate_planted(50, 100, 43)
    assert a1 == a2 and p1 == p2
    assert a1 != b
    assert check_coloring(a1, p1, named_template("1in3"))


def test_generate_planted_too_small():
    with pytest.raises(ValueError):
        generate_planted(2, 1, 0)


def test_gauss_gf3_examples():
    assert gauss_gf3((((1, 2, 3), 1),), 3) == [1, 0, 0]
    assert gauss_gf3((((1, 1, 1), 1),), 1) is None
    assert gauss_gf3((((1, 2, 3), 1), ((1, 2, 4), 1)), 4) == [1, 0, 0, 0]


def test_gauss_gf3_against_brute_force():
    rng = random.Random(61)
    for _ in range(80):
        nv = rng.randint(1, 5)
        rows = tuple(
            ((rng.randint(1, nv), rng.randint(1, nv), rng.randint(1, nv)), rng.randint(0, 2))
            for _ in range(rng.randint(1, 5))
        )
        solution = gauss_gf3(rows, nv)

        def satisfies(assign):
            return all((assign[i - 1] + assign[j - 1] + assign[k - 1]) % 3 == rhs for (i, j, k), rhs in rows)

        brute = next(
            (list(a) for a in itertools.product(range(3), repeat=nv) if satisfies(a)), None
        )
        assert (solution is None) == (brute is None)
        if solution is not None:
            assert satisfies(solution)


def test_solve_t2_examples():
    t2 = named_template("T2")
    inst = Instance(3, ((1, 2, 3),))
    coloring = solve_t2(inst)
    assert coloring is not None
    assert sum(coloring.values()) % 3 == 1
    assert check_coloring(inst, coloring, t2)

    instance, _ = generate_planted(30, 60, 7)
    coloring = solve_t2(instance)
    assert coloring is not None and check_coloring(instance, coloring, t2)

    assert solve_t2(Instance(1, ((1, 1, 1),))) is None


def test_hnf_solve_examples():
    solution = hnf_solve(((1, 2, 3),), 3)
    assert solution is not None and sum(solution) == 1

    assert hnf_solve(((1, 1, 1),), 1) is None

    solution = hnf_solve(((1, 2, 3), (1, 2, 4)), 4)
    assert solution is not None
    assert solution[0] + solution[1] + solution[2] == 1
    assert solution[0] + solution[1] + solution[3] == 1


def brute_integer_solution(rows, nv, bound=3):
    for v in itertools.product(range(-bound, bound + 1), repeat=nv):
        if all(v[i - 1] + v[j - 1] + v[k - 1] == 1 for i, j, k in rows):
            return list(v)
    return None


def test_hnf_agrees_with_bounded_brute_force():
    rng = random.Random(67)
    for _ in range(80):
        nv = rng.randint(1, 4)
        rows = tuple(
            (rng.randint(1, nv), rng.randint(1, nv), rng.randint(1, nv))
            for _ in range(rng.randint(1, 4))
        )
        solution = hnf_solve(rows, nv)
        brute = brute_integer_solution(rows, nv)
        if brute is not None:
            assert solution is not None
        if solution is not None:
            assert all(solution[i - 1] + solution[j - 1] + solution[k - 1] == 1 for i, j, k in rows)


def random_system(rng, nv, ne):
    return tuple(tuple(rng.randint(1, nv) for _ in range(3)) for _ in range(ne)), nv


def pinned_systems():
    """(rows, nv) of seeded planted systems, then of random ones with repeated coordinates (many insoluble)."""
    systems = [
        (generate_planted(nv, ne, seed)[0].edges, nv)
        for nv, ne, seed in ((240, 180, 1), (240, 180, 2), (240, 180, 3), (400, 800, 1))
    ]
    rng = random.Random(8)
    systems += [random_system(rng, nv, ne) for nv, ne in ((240, 180), (240, 180), (120, 150), (30, 45))]
    for _ in range(300):
        nv = rng.randint(1, 6)
        systems.append(random_system(rng, nv, rng.randint(1, 7)))
    return systems


# count of None and SHA-256 of the JSON list of solutions over pinned_systems():
# a change in the choice or order of any column operation changes the solutions.
# gauss_gf3's was recorded before the HNF column operations moved onto one list
# per column, hnf_solve's when its pivot key took the column's count of entries
SOLVER_PINS = [
    ("hnf_solve", lambda s: hnf_solve(*s), 203, "fb30711efa7b8884e9978f1b3ad54d7b58b0a845149d2dd99a8ffdd9ac0b0a15"),
    ("gauss_gf3", lambda s: gauss_gf3(tuple((row, 1) for row in s[0]), s[1]), 202,
     "9b89cb674cb6e3a3c6e447a77890d9bc07106521429e1cc46f1837ea956ff6a4"),
]


@pytest.mark.parametrize("name, solve, nones, digest", SOLVER_PINS, ids=[p[0] for p in SOLVER_PINS])
def test_solver_outputs_pinned(name, solve, nones, digest):
    solutions = [solve(system) for system in pinned_systems()]
    assert solutions.count(None) == nones
    assert hashlib.sha256(json.dumps(solutions).encode()).hexdigest() == digest


def test_gauss_gf3_large_planted_pinned():
    # SHA-256 of the JSON list of solutions, recorded before the elimination
    # filed its rows in buckets by lowest column
    solutions = []
    for seed in (1, 2, 3):
        instance = generate_planted(1000, 2000, seed)[0]
        solutions.append(gauss_gf3(tuple((e, 1) for e in instance.edges), 1000))
    digest = hashlib.sha256(json.dumps(solutions).encode()).hexdigest()
    assert digest == "d8a22f31ff28b4dcb7008d5989e67ed38d57f8b582c71dc069dcd9ec0c593c3e"


def test_hnf_solve_larger_planted_pinned():
    # SHA-256 of the JSON list of solutions, recorded when the pivot key took the
    # column's count of entries
    solutions = [hnf_solve(generate_planted(400, 800, seed)[0].edges, 400) for seed in (2, 3, 4, 5)]
    digest = hashlib.sha256(json.dumps(solutions).encode()).hexdigest()
    assert digest == "b0a0bb4dba65f44be65327affd2cf09becb6985bb31b60c3fefa3e527b576b5a"


# Systems whose reduction needs each kind of recorded column operation, checked
# once with a copy of hnf_solve that logged the kinds it applied under the pivot
# key (|entry|, the column's count of entries, j).  Columns count from 0.
REPLAY_CASES = [
    # row 0 holds 2 for x1 and 1 for x2: add -2 times x2's column into x1's, then swap them
    ("swap", (((1, 1, 2),), 2)),
    # row 0 as above; row 1 then holds -1 and 1 in columns 1 and 2: add column 1 into column 2, then negate column 1
    ("negation", (((1, 1, 2), (1, 2, 3)), 3)),
    # row 1 holds -2, 1 and 1 and swaps; row 2 holds 5 and -2, then -1 and -2, so two Euclid steps, then a negation
    ("two_euclid_steps", (((1, 2, 2), (3, 1, 5), (3, 3, 2), (2, 5, 4)), 5)),
]


@pytest.mark.parametrize("system", [c[1] for c in REPLAY_CASES], ids=[c[0] for c in REPLAY_CASES])
def test_hnf_solve_replays_each_operation_kind(system):
    x = hnf_solve(*system)
    assert x is not None and x == loop_solvers.hnf_solve(*system)


def differential_cases():
    """(nv, rows, right-hand sides): 3,000 random small systems, then planted ones.

    A random system draws its coordinates from the first `span` of its nv <= 40
    variables, so coordinates repeat and many systems are insoluble; its
    right-hand sides are 0, 1 and 2 for GF(3).  Planted systems have all 1s.
    """
    rng = random.Random(12)
    for _ in range(3000):
        nv = rng.randint(1, 40)
        span = rng.randint(1, nv)
        rows = tuple(tuple(rng.randint(1, span) for _ in range(3)) for _ in range(rng.randint(1, 2 * span)))
        yield nv, rows, tuple(rng.randint(0, 2) for _ in rows)
    for nv, ne, seed in ((240, 180, 1), (240, 180, 2), (240, 180, 3), (400, 800, 1)):
        rows = generate_planted(nv, ne, seed)[0].edges
        yield nv, rows, (1,) * ne


def test_solvers_match_dense_references():
    # the packed kernels return exactly what the dense list kernels return
    insoluble = Counter()
    for nv, rows, rhs in differential_cases():
        gf3 = tuple(zip(rows, rhs))
        solution = gauss_gf3(gf3, nv)
        assert solution == loop_solvers.gauss_gf3(gf3, nv)
        x = hnf_solve(rows, nv)
        assert x == loop_solvers.hnf_solve(rows, nv)
        insoluble["gauss_gf3"] += solution is None
        insoluble["hnf_solve"] += x is None
    assert 500 < insoluble["gauss_gf3"] < 2500 and 500 < insoluble["hnf_solve"] < 2500
    # recorded under the pivot key (|entry|, j); a pivot order may move solutions, never whether one exists
    assert insoluble["hnf_solve"] == 1949


def test_solve_routes_peel_without_moving_a_verdict():
    # a set-aside row holds whatever the rest holds, so each route returns None exactly when its kernel does on the
    # whole system, though its colouring is built from the core's solution
    nones = Counter()
    for nv, rows, _ in differential_cases():
        instance = Instance(nv, rows)
        t2, nae = solve_t2(instance), solve_nae(instance)
        assert (t2 is None) == (gauss_gf3(tuple((row, 1) for row in rows), nv) is None)
        assert (nae is None) == (hnf_solve(rows, nv) is None)
        nones["t2"] += t2 is None
        nones["nae"] += nae is None
        set_aside, core = peel(rows, nv)
        assert sorted(core + [row for row, _ in set_aside]) == sorted(rows)
        core_variables = {v for row in core for v in row}
        for i, (row, v) in enumerate(set_aside):
            assert row.count(v) == 1 and v not in core_variables
            assert all(v not in later for later, _ in set_aside[i + 1 :])
    assert 500 < nones["t2"] < 2500 and nones["nae"] == 1949


def test_fill_set_aside_ignores_what_a_private_variable_held():
    # the kernels leave each private variable at 0, so only a solution holding other values there tests the fill;
    # gen 240 180 7 peels to an empty core, of which any x is a solution
    rows = generate_planted(240, 180, 7)[0].edges
    set_aside, core = peel(rows, 240)
    assert core == []
    for modulus in (None, 3):
        x = [v % 5 - 2 for v in range(240)]
        fill_set_aside(x, set_aside, modulus)
        sums = [x[a - 1] + x[b - 1] + x[c - 1] for a, b, c in rows]
        assert all(s % 3 == 1 for s in sums) if modulus else all(s == 1 for s in sums)


# (nv, ne, seed, rows set aside, core rows) of planted systems: at ne < nv every row of seed 7 is set aside, at
# ne = 2 nv the core keeps nearly all of them
PEEL_PINS = [(240, 180, 7, 180, 0), (400, 800, 2, 27, 773), (400, 800, 3, 19, 781), (400, 800, 4, 12, 788),
             (400, 800, 5, 19, 781)]


@pytest.mark.parametrize("nv, ne, seed, set_aside, core", PEEL_PINS)
def test_peel_counts_pinned(nv, ne, seed, set_aside, core):
    rows = generate_planted(nv, ne, seed)[0].edges
    assert tuple(map(len, peel(rows, nv))) == (set_aside, core)


def test_peel_reads_its_deadline_after_each_4096_rows():
    rows = generate_planted(6000, 4500, 1)[0].edges
    past = deadline_after(0) - 1.0
    late = r"^solve ran past its time budget after setting aside 4096 of 4500 rows$"
    with pytest.raises(TimeBudgetExceeded, match=late):
        peel(rows, 6000, deadline=past)
    # no more than one chunk: peel reads no clock, and the kernels read it before their loops
    assert tuple(map(len, peel(rows[:4096], 6000, deadline=past))) == (4096, 0)


# Systems that reach the row index of hnf_solve where it is easy to get wrong,
# checked once under the same key with a copy of hnf_solve that logged its
# operations; the third and fourth fail if an operation or a swap does not add
# its column to the index (checked with a copy that left out each append).
INDEX_CASES = [
    # x1, x3, x5 and x7 occur in no row: row 0's pivot moves into the empty column 0's place
    ("empty_columns", (((2, 4, 6), (4, 6, 6), (2, 2, 4)), 7)),
    # repeated coordinates give entries 2 and 3, and 3 x3 = 1 has no integer solution
    ("entries_2_and_3", (((1, 1, 2), (3, 3, 3), (2, 3, 4)), 4)),
    # row 1 adds -2 times x4's column into x3's, which gives x3's an entry in row 2
    # that only the fill lists
    ("operation_creates_entries", (((1, 1, 2), (3, 3, 4), (2, 2, 4)), 4)),
    # row 0 leaves its entry in x2's column, which swaps with x1's: row 1, held by
    # x1's alone, must find it in x2's old place
    ("swap_moves_a_later_row", (((3, 3, 2), (3, 1, 3)), 3)),
    # row 0 leaves its entry in x4's column, which swaps with x1's: both hold row 1,
    # and only x1's holds row 2
    ("swap_sharing_later_rows", (((3, 3, 4), (4, 1, 3), (2, 3, 1)), 4)),
    # 20 rows on 6 variables: the reduction runs out of columns before it runs out of rows
    ("more_rows_than_variables", (generate_planted(6, 20, 3)[0].edges, 6)),
    ("more_rows_insoluble", (((1, 2, 3), (1, 1, 2), (2, 3, 3), (1, 3, 3)), 3)),
]


@pytest.mark.parametrize("system", [c[1] for c in INDEX_CASES], ids=[c[0] for c in INDEX_CASES])
def test_hnf_solve_row_index_edge_cases(system):
    assert hnf_solve(*system) == loop_solvers.hnf_solve(*system)


def test_solvers_raise_past_their_deadline():
    instance = generate_planted(30, 40, 2)[0]
    gf3 = tuple((e, 1) for e in instance.edges)
    past = deadline_after(0) - 1.0
    with pytest.raises(TimeBudgetExceeded, match=r"^solve ran past its time budget after 0 of 30 columns$"):
        gauss_gf3(gf3, 30, deadline=past)
    with pytest.raises(TimeBudgetExceeded, match=r"^solve ran past its time budget after 0 of 40 rows$"):
        hnf_solve(instance.edges, 30, deadline=past)
    with pytest.raises(TimeBudgetExceeded):
        solve_via_relaxation(instance, named_template("NAE"), prefer="nae", deadline=past)
    never = deadline_after(float("inf"))
    assert gauss_gf3(gf3, 30, deadline=never) == gauss_gf3(gf3, 30)
    assert hnf_solve(instance.edges, 30, deadline=never) == hnf_solve(instance.edges, 30)


def test_solve_nae_examples():
    nae = named_template("NAE")
    inst = Instance(4, ((1, 2, 3), (1, 2, 4)))
    coloring = solve_nae(inst)
    assert coloring is not None and check_coloring(inst, coloring, nae)

    inst_rep = Instance(2, ((1, 1, 2),))
    coloring = solve_nae(inst_rep)
    assert coloring is not None and check_coloring(inst_rep, coloring, nae)

    instance, _ = generate_planted(50, 100, 11)
    coloring = solve_nae(instance)
    assert coloring is not None and check_coloring(instance, coloring, nae)

    assert solve_nae(Instance(1, ((1, 1, 1),))) is None


def test_solve_via_relaxation_routes():
    instance, _ = generate_planted(20, 35, 13)
    for target_name in ("S", "NAE", "T2", "Q1", "NAE_3"):
        target = named_template(target_name)
        coloring = solve_via_relaxation(instance, target)
        assert coloring is not None and check_coloring(instance, coloring, target)
    with pytest.raises(UnsupportedTargetError):
        solve_via_relaxation(instance, named_template("LO_3"))


def test_solve_via_relaxation_prefer_flag():
    instance, _ = generate_planted(12, 20, 17)
    target = named_template("Splus")  # admits both routes
    a = solve_via_relaxation(instance, target, prefer="t2")
    b = solve_via_relaxation(instance, target, prefer="nae")
    assert a is not None and b is not None
    assert check_coloring(instance, a, target) and check_coloring(instance, b, target)
    assert len(set(b.values())) <= 2  # the two-color route never uses a third color


def test_symmetrized_instance_consistency():
    rng = random.Random(71)
    targets = [named_template(n) for n in ("NAE", "T2", "S")]
    for _ in range(20):
        nv = rng.randint(3, 8)
        edges = tuple(
            (rng.randint(1, nv), rng.randint(1, nv), rng.randint(1, nv))
            for _ in range(rng.randint(1, 8))
        )
        inst = Instance(nv, edges)
        closed = tuple(sorted({p for e in edges for p in itertools.permutations(e)}))
        inst_sym = Instance(nv, closed)
        for target in targets:
            a = solve_via_relaxation(inst, target)
            b = solve_via_relaxation(inst_sym, target)
            assert (a is None) == (b is None)


def test_classify_template_examples():
    assert classify_template(named_template("D1plus")) == NP_HARD
    assert classify_template(named_template("S")) == P
    assert classify_template(named_template("LO_3")) == OPEN
    assert classify_template(named_template("T2")) == P
    assert classify_template(named_template("T1")) == NP_HARD
    constant = make_structure(3, [{(1, 1, 1)}])
    assert classify_template(constant) == P


def test_classify_template_preconditions():
    with pytest.raises(ValueError):
        classify_template(named_template("NAE"))  # wrong domain size
    with pytest.raises(ValueError):
        classify_template(make_structure(3, [{(0, 1, 2)}]))  # not symmetric


def parse_planted(text: str) -> dict[int, int]:
    """The planted colouring that `format_instance` writes as comment lines."""
    witness = {}
    for raw in text.splitlines():
        parts = raw.split()
        if parts[:2] == ["#", "planted"] and len(parts) == 4:
            witness[int(parts[2])] = int(parts[3])
    return witness


def test_instance_text_round_trip():
    instance, planted = generate_planted(8, 5, 3)
    text = format_instance(instance, planted)
    assert parse_instance(text) == instance
    assert parse_planted(text) == planted


def test_instance_text_errors():
    with pytest.raises(FormatError):
        parse_instance("e 1 2 3\n")
    with pytest.raises(FormatError):
        parse_instance("p hyp3 3 2\ne 1 2 3\n")
    with pytest.raises(FormatError):
        parse_instance("p hyp3 2 1\ne 1 2 5\n")
    with pytest.raises(FormatError):
        parse_instance("p hyp3 2 1\nq 1 2 2\n")


def test_coloring_format():
    assert format_coloring({2: 1, 1: 0}) == "v 1 0\nv 2 1\n"


def test_symmetrize_helper_consistency():
    # symmetrizing a template target commutes with solving: identical edges
    s = named_template("D2")
    assert symmetrize(s) == s


def test_generate_planted_varies_one_position():
    positions = set()
    for seed in range(40):
        instance, planted = generate_planted(6, 3, seed)
        for edge in instance.edges:
            positions.add(tuple(planted[v] for v in edge).index(1))
    assert positions == {0, 1, 2}
