import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

import loop_solvers

from pcsplab.errors import FormatError, TimeBudgetExceeded, UnsupportedTargetError, deadline_after
from pcsplab.homs import check_coloring
from pcsplab.solvers import (
    NP_HARD,
    OPEN,
    P,
    GF3System,
    Instance,
    IntAffineSystem,
    SplitMix64,
    classify_template,
    format_coloring,
    format_instance,
    gauss_gf3,
    generate_planted,
    hnf_solve,
    parse_instance,
    solve_nae,
    solve_t2,
    solve_via_relaxation,
)
from pcsplab.structures import make_structure, named_template, symmetrize


def test_splitmix64_matches_reference_recurrence():
    # straight-line reimplementation of the documented recurrence
    mask = (1 << 64) - 1
    state = 42

    def step(state):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31), state

    rng = SplitMix64(42)
    for _ in range(100):
        expected, state = step(state)
        assert rng.next_word() == expected


def test_splitmix64_known_vector_seed_zero():
    rng = SplitMix64(0)
    assert rng.next_word() == 0xE220A8397B1DCDAF


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
    assert gauss_gf3(GF3System((((1, 2, 3), 1),)), 3) == [1, 0, 0]
    assert gauss_gf3(GF3System((((1, 1, 1), 1),)), 1) is None
    assert gauss_gf3(GF3System((((1, 2, 3), 1), ((1, 2, 4), 1))), 4) == [1, 0, 0, 0]


def test_gauss_gf3_against_brute_force():
    rng = random.Random(61)
    for _ in range(80):
        nv = rng.randint(1, 5)
        rows = tuple(
            ((rng.randint(1, nv), rng.randint(1, nv), rng.randint(1, nv)), rng.randint(0, 2))
            for _ in range(rng.randint(1, 5))
        )
        system = GF3System(rows)
        solution = gauss_gf3(system, nv)

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
    solution = hnf_solve(IntAffineSystem(3, ((1, 2, 3),)))
    assert solution is not None and sum(solution) == 1

    assert hnf_solve(IntAffineSystem(1, ((1, 1, 1),))) is None

    solution = hnf_solve(IntAffineSystem(4, ((1, 2, 3), (1, 2, 4))))
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
        solution = hnf_solve(IntAffineSystem(nv, rows))
        brute = brute_integer_solution(rows, nv)
        if brute is not None:
            assert solution is not None
        if solution is not None:
            assert all(solution[i - 1] + solution[j - 1] + solution[k - 1] == 1 for i, j, k in rows)


def random_system(rng, nv, ne):
    return IntAffineSystem(nv, tuple(tuple(rng.randint(1, nv) for _ in range(3)) for _ in range(ne)))


def pinned_systems():
    """Seeded planted systems, then random ones with repeated coordinates (many insoluble)."""
    systems = [
        IntAffineSystem(nv, generate_planted(nv, ne, seed)[0].edges)
        for nv, ne, seed in ((240, 180, 1), (240, 180, 2), (240, 180, 3), (400, 800, 1))
    ]
    rng = random.Random(8)
    systems += [random_system(rng, nv, ne) for nv, ne in ((240, 180), (240, 180), (120, 150), (30, 45))]
    for _ in range(300):
        nv = rng.randint(1, 6)
        systems.append(random_system(rng, nv, rng.randint(1, 7)))
    return systems


# count of None and SHA-256 of the JSON list of solutions over pinned_systems(),
# recorded before the HNF column operations moved onto one list per column: a
# change in the choice or order of any column operation changes the solutions
SOLVER_PINS = [
    ("hnf_solve", hnf_solve, 203, "76692299e2af0de6948c631a7b34abd7724efdf0a3112515eebd69994ba7fcd6"),
    ("gauss_gf3", lambda s: gauss_gf3(GF3System(tuple((row, 1) for row in s.rows)), s.variable_count), 202,
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
        solutions.append(gauss_gf3(GF3System(tuple((e, 1) for e in instance.edges)), 1000))
    digest = hashlib.sha256(json.dumps(solutions).encode()).hexdigest()
    assert digest == "d8a22f31ff28b4dcb7008d5989e67ed38d57f8b582c71dc069dcd9ec0c593c3e"


def test_hnf_solve_larger_planted_pinned():
    # SHA-256 of the JSON list of solutions, recorded while the reduction still
    # carried the transform T in every column
    solutions = [hnf_solve(IntAffineSystem(400, generate_planted(400, 800, seed)[0].edges)) for seed in (2, 3, 4, 5)]
    digest = hashlib.sha256(json.dumps(solutions).encode()).hexdigest()
    assert digest == "f2122b545a45210b886e208ec1bbd8133af066536a0615d22164c2681203eda3"


# Systems whose reduction needs each kind of recorded column operation, checked
# once with a copy of hnf_solve that logged the kinds it applied.
REPLAY_CASES = [
    # row 0 holds 2 for x1 and 1 for x2: add -2 times x2's column into x1's, then swap them
    ("swap", IntAffineSystem(2, ((1, 1, 2),))),
    # after row 0, row 1 holds -1 for x2 and -2 for x3: add -2 times x2's column into x3's, then negate x2's
    ("negation", IntAffineSystem(3, ((1, 2, 3), (1, 1, 2)))),
    # rows 0 and 1 swap; row 2 holds 5 and -2, then -1 and -2, so two Euclid steps, then a negation
    ("two_euclid_steps", IntAffineSystem(4, ((1, 1, 2), (2, 3, 4), (1, 3, 3)))),
]


@pytest.mark.parametrize("system", [c[1] for c in REPLAY_CASES], ids=[c[0] for c in REPLAY_CASES])
def test_hnf_solve_replays_each_operation_kind(system):
    x = hnf_solve(system)
    assert x is not None and x == loop_solvers.hnf_solve(system)


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
        gf3 = GF3System(tuple(zip(rows, rhs)))
        solution = gauss_gf3(gf3, nv)
        assert solution == loop_solvers.gauss_gf3(gf3, nv)
        integer = IntAffineSystem(nv, rows)
        x = hnf_solve(integer)
        assert x == loop_solvers.hnf_solve(integer)
        insoluble["gauss_gf3"] += solution is None
        insoluble["hnf_solve"] += x is None
    assert 500 < insoluble["gauss_gf3"] < 2500 and 500 < insoluble["hnf_solve"] < 2500


# Systems that reach the row index of hnf_solve where it is easy to get wrong,
# checked once with a copy of hnf_solve that logged its swaps; the third and
# fourth fail if an operation or a swap does not add its column to the index.
INDEX_CASES = [
    # x1, x3, x5 and x7 occur in no row: row 0's pivot moves into the empty column 0's place
    ("empty_columns", IntAffineSystem(7, ((2, 4, 6), (4, 6, 6), (2, 2, 4)))),
    # repeated coordinates give entries 2 and 3, and 3 x3 = 1 has no integer solution
    ("entries_2_and_3", IntAffineSystem(4, ((1, 1, 2), (3, 3, 3), (2, 3, 4)))),
    # row 0 subtracts x1's column from x3's and x4's, which gives x3's an entry in
    # row 1 and x4's one in row 2, where the fill listed neither
    ("operation_creates_entries", IntAffineSystem(4, ((4, 1, 3), (4, 1, 2), (3, 1, 1)))),
    # row 0 leaves its entry in x2's column, which swaps with x1's: row 1, held by
    # x1's alone, must find it in x2's old place
    ("swap_moves_a_later_row", IntAffineSystem(3, ((3, 3, 2), (3, 1, 3)))),
    # row 0 leaves its entry in x4's column, which swaps with x1's: both hold row 1,
    # and only x1's holds row 2
    ("swap_sharing_later_rows", IntAffineSystem(4, ((3, 3, 4), (4, 1, 3), (2, 3, 1)))),
    # 20 rows on 6 variables: the reduction runs out of columns before it runs out of rows
    ("more_rows_than_variables", IntAffineSystem(6, generate_planted(6, 20, 3)[0].edges)),
    ("more_rows_insoluble", IntAffineSystem(3, ((1, 2, 3), (1, 1, 2), (2, 3, 3), (1, 3, 3)))),
]


@pytest.mark.parametrize("system", [c[1] for c in INDEX_CASES], ids=[c[0] for c in INDEX_CASES])
def test_hnf_solve_row_index_edge_cases(system):
    assert hnf_solve(system) == loop_solvers.hnf_solve(system)


def test_solvers_raise_past_their_deadline():
    instance = generate_planted(30, 40, 2)[0]
    gf3 = GF3System(tuple((e, 1) for e in instance.edges))
    integer = IntAffineSystem(30, instance.edges)
    past = deadline_after(0) - 1.0
    with pytest.raises(TimeBudgetExceeded, match=r"^solve ran past its time budget after 0 of 30 columns$"):
        gauss_gf3(gf3, 30, deadline=past)
    with pytest.raises(TimeBudgetExceeded, match=r"^solve ran past its time budget after 0 of 40 rows$"):
        hnf_solve(integer, deadline=past)
    with pytest.raises(TimeBudgetExceeded):
        solve_via_relaxation(instance, named_template("NAE"), prefer="nae", deadline=past)
    never = deadline_after(float("inf"))
    assert gauss_gf3(gf3, 30, deadline=never) == gauss_gf3(gf3, 30)
    assert hnf_solve(integer, deadline=never) == hnf_solve(integer)


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
