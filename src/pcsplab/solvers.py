"""Instances, planted generation, exact algebraic solvers, and the classifier.

The cyclic three-color route reduces each hyperedge to one linear equation
modulo 3; the not-all-equal route solves the integer system "each edge sums
to one" exactly (Hermite-style column reduction over arbitrary-precision
integers) and thresholds the solution at >= 1, which can never color an
edge all-equal because its three integers sum to 1.

Both matrices are a few per cent non-zero: `gauss_gf3` packs each row into
two integer bitplanes (bit-slicing, Boothby and Bradshaw 2009) and
`hnf_solve` keeps each column of A as a dict of its non-zero entries, with
a row index (the columns that may hold each row) so that a row reads its
entries without scanning every column.  Both kernels return the answers
of the dense kernels in `tests/loop_solvers.py`:
`hnf_solve` chooses their column operations in the same order, which its x
depends on (both pivot on the least (|entry|, the column's count of
non-zero entries, column index)), but stores no transform: it applies the
recorded operations to y last to first; `gauss_gf3` eliminates in another
order, but its pivot columns are the greedy leftmost independent set, its
free variables are 0, and the reduced echelon form is unique.

`solve_t2` and `solve_nae` first set aside each row that a variable
occurring nowhere else satisfies (`peel`), run their kernel on the 2-core
that is left and fill the set-aside rows in last.  So a coloring from
`solve` is no longer the kernel's answer on the whole system, though the
kernels still equal the dense references and the verdicts are theirs.

`generate_planted` reads the splitmix64 words (Steele, Lea and Flood 2014)
a chunk at a time: `_splitmix64` packs a chunk's states into the 128-bit
lanes of one int, so each xor-shift, mask and multiply acts on every lane.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from itertools import cycle, islice

from .errors import FormatError, TimeBudgetExceeded, UnsupportedTargetError, expired
from .homs import check_coloring, find_homomorphism, hom_exists
from .structures import Checked, RelStructure, named_template

MASK64 = (1 << 64) - 1

# the reference structures of the solvers and the classifier, built once
NAE = named_template("NAE")
T2 = named_template("T2")
T1 = named_template("T1")
D1plus = named_template("D1plus")
D2plus = named_template("D2plus")


class Instance(Checked, namedtuple("Instance", "variable_count edges")):
    """A 3-uniform hypergraph with ordered triples over variables 1..variable_count."""

    __slots__ = ()

    def __new__(cls, variable_count: int, edges: tuple[tuple[int, int, int], ...]):
        if variable_count < 0:
            raise ValueError("variable count must be >= 0")
        for e in edges:
            if len(e) != 3:
                raise ValueError(f"edge {e} is not a triple")
            for v in e:
                if not 1 <= v <= variable_count:
                    raise ValueError(f"edge entry {v} outside 1..{variable_count}")
        return super().__new__(cls, variable_count, edges)


SPLITMIX_CHUNK = 1024  # words; lane k of a chunk is bits 128k..128k + 127
_GAMMA = 0x9E3779B97F4A7C15
_LANE_ONES = int.from_bytes((b"\1" + bytes(15)) * SPLITMIX_CHUNK, "little")  # 1 in every lane
_LANE_LOW = int.from_bytes((b"\xff" * 8 + bytes(8)) * SPLITMIX_CHUNK, "little")  # each lane's low 64 bits
# k * _GAMMA mod 2**64 in lane k - 1 for k = 1..SPLITMIX_CHUNK, built without a loop: for X = 2**128,
# (SPLITMIX_CHUNK * X**SPLITMIX_CHUNK - _LANE_ONES) / (X - 1) holds k in lane k - 1
_LANE_STEPS = _GAMMA * (((SPLITMIX_CHUNK << 128 * SPLITMIX_CHUNK) - _LANE_ONES) // ((1 << 128) - 1)) & _LANE_LOW
_LOW_HALVES = slice(None, None, 2 if sys.byteorder == "little" else -2)  # of a chunk's bytes read as "Q"


def _splitmix64(seed: int):
    """The splitmix64 words from seed (README, Determinism), forever, SPLITMIX_CHUNK at a time.

    A 64-bit lane times a 64-bit constant stays in its 128-bit lane; masking each lane to
    its low 64 bits reduces mod 2**64 and drops what a right shift moved in from the lane above.
    """
    steps, low = _LANE_STEPS, _LANE_LOW
    state = seed & MASK64
    while True:
        z = (state * _LANE_ONES + steps) & low
        z = ((z ^ z >> 30) & low) * 0xBF58476D1CE4E5B9 & low
        z = ((z ^ z >> 27) & low) * 0x94D049BB133111EB & low
        z ^= z >> 31  # what moves in from the lane above lands in the high half, which is not read
        yield from memoryview(z.to_bytes(16 * SPLITMIX_CHUNK, sys.byteorder)).cast("Q")[_LOW_HALVES].tolist()
        state = (state + SPLITMIX_CHUNK * _GAMMA) & MASK64


def _draws_below(words, bounds):
    """Draws below each n of bounds in turn, forever: each skips the words >= 2**64 - (2**64 mod n) and reduces the
    first other word mod n."""
    limits = [(n, (1 << 64) - (1 << 64) % n) for n in bounds]
    for n, limit in cycle(limits):
        w = next(words)
        while w >= limit:
            w = next(words)
        yield w % n


def generate_planted(nv: int, ne: int, seed: int) -> tuple[Instance, dict[int, int]]:
    """A seeded instance built around a hidden exactly-one-1 witness.

    Procedure (bit-exact given the words of `_splitmix64`): draw one bit per
    variable (low bit of one word each, variables ascending) until the
    assignment has at least one 1 and at least one 0, and at least two 0s
    whenever edges are requested; then for each edge pick a 1-variable, two
    distinct 0-variables, and the position of the 1-variable inside the
    triple, each by `_draws_below` over the ascending candidate lists.
    """
    if nv < 3:
        raise ValueError(f"need at least 3 variables to sample distinct indices, got {nv}")
    if ne < 0:
        raise ValueError("edge count must be >= 0")
    words = _splitmix64(seed)
    while True:
        bits = {v: w & 1 for v, w in zip(range(1, nv + 1), words)}
        ones = [v for v in range(1, nv + 1) if bits[v] == 1]
        zeros = [v for v in range(1, nv + 1) if bits[v] == 0]
        if ones and zeros and (ne == 0 or len(zeros) >= 2):
            break
    # with ne = 0 no draw is made, so the bound len(zeros) - 1 is never read when it is 0
    draws = _draws_below(words, (len(ones), len(zeros), len(zeros) - 1, 3))
    edges = []
    for one, i1, i2, pos in islice(zip(draws, draws, draws, draws), ne):
        edge = [zeros[i1], zeros[i2 + (i2 >= i1)]]  # i2 indexes zeros without zeros[i1]
        edge.insert(pos, ones[one])
        edges.append(tuple(edge))
    return Instance(nv, tuple(edges)), bits


def gauss_gf3(rows, nv: int, *, deadline: float | None = None) -> list[int] | None:
    """Gaussian elimination modulo 3 over the variables 1..nv; free variables are set to 0.

    A row ((i, j, k), rhs) is the equation x_i + x_j + x_k = rhs modulo 3.
    Each row is packed as two bitplanes (p, m): bit c of p is set iff the
    coefficient of column c is 1, bit c of m iff it is 2, and bit nv holds
    the right-hand side.  Negating a row swaps its planes, and adding one row
    into another is a dozen bitwise operations on whole planes.  Rows wait
    in buckets by their lowest non-zero column: a column's first row is its
    pivot, adding it into the others moves them to higher buckets, and a
    row left with only a right-hand side has no solution.  Back-substitution
    runs from the highest pivot down.  The pivot columns are the greedy
    leftmost independent set and the reduced echelon form is unique, so the
    solution is the dense one in `tests/loop_solvers.py`.  `deadline` (a
    `errors.deadline_after` value, None for none) is checked before the loop
    and at each pivot column; once it has passed, TimeBudgetExceeded is
    raised.
    """
    if expired(deadline):  # also for a system without rows, which reaches no pivot column
        raise TimeBudgetExceeded(f"solve ran past its time budget after 0 of {nv} columns")
    buckets: dict[int, list[tuple[int, int]]] = {}
    pending = []
    for e, rhs in rows:
        p = m = 0
        for v in e:  # each occurrence adds 1 to the coefficient of v: 0 -> 1 -> 2 -> 0
            bit = 1 << (v - 1)
            p, m = p ^ (bit & ~m), m ^ (bit & (p | m))
        pending.append((p | (rhs % 3 == 1) << nv, m | (rhs % 3 == 2) << nv))
    pivots = []
    for col in range(nv + 1):
        for p, m in pending:  # file each row under its lowest non-zero column
            low = ((p | m) & -(p | m)).bit_length() - 1
            if low == nv:  # only the right-hand side is left: 0 = non-zero
                return None
            if low >= 0:
                buckets.setdefault(low, []).append((p, m))
        pending = buckets.pop(col, [])
        if not pending:
            continue
        if expired(deadline):
            raise TimeBudgetExceeded(f"solve ran past its time budget after {col} of {nv} columns")
        (ap, am), *pending = pending
        if am >> col & 1:  # times the inverse of 2, that is negated
            ap, am = am, ap
        pivots.append((col, ap, am))
        keep = ~(ap | am)
        for i, (q, n) in enumerate(pending):
            # subtract the pivot row times the entry: add its negation for 1, itself for 2
            bp, bm = (am, ap) if q >> col & 1 else (ap, am)
            skip = ~(q | n)
            pending[i] = ((q & keep) | (bp & skip) | (n & bm), (n & keep) | (bm & skip) | (q & bp))
    ones = twos = 0  # the solution as bitplanes
    for col, p, m in reversed(pivots):
        # x_col = rhs minus the row's other entries times x, with 2 = -1
        x = (p >> nv) - (m >> nv) - (p & ones).bit_count() - (m & twos).bit_count()
        x += (p & twos).bit_count() + (m & ones).bit_count()
        ones |= (x % 3 == 1) << col
        twos |= (x % 3 == 2) << col
    return [(ones >> c & 1) + 2 * (twos >> c & 1) for c in range(nv)]


def peel(rows, nv: int, *, deadline: float | None = None):
    """Split rows, each x_i + x_j + x_k = 1 over the variables 1..nv, into (set_aside, core).

    A variable that occurs once in the rows left, counted with repeats (twice
    in (v, v, w)), satisfies its row whatever the other variables hold, so
    the row is set aside with it as the row's private variable, which may
    free the row's other variables in turn: the peeling of a hypergraph to
    its 2-core (Molloy 2005).  A variable's count and XOR of row indices
    name its one row when the count is 1.  set_aside holds the pairs (row,
    private variable) in the order set aside, core the rows left in input
    order.  `fill_set_aside` extends any solution of the core to every row,
    so the rows have a solution exactly when the core has.  `deadline` is
    checked before each 4,096 rows set aside but the first.
    """
    count = [0] * (nv + 1)
    xor = [0] * (nv + 1)
    for r, row in enumerate(rows):
        for v in row:
            count[v] += 1
            xor[v] ^= r
    free = [v for v in range(1, nv + 1) if count[v] == 1]
    set_aside = []
    kept = [True] * len(rows)
    while free:
        v = free.pop()
        if count[v] != 1:  # 0: its one row went with another private variable
            continue
        if set_aside and not len(set_aside) % 4096 and expired(deadline):
            raise TimeBudgetExceeded(
                f"solve ran past its time budget after setting aside {len(set_aside)} of {len(rows)} rows"
            )
        r = xor[v]
        set_aside.append((rows[r], v))
        kept[r] = False
        for u in rows[r]:
            count[u] -= 1
            xor[u] ^= r
            if count[u] == 1:
                free.append(u)
    return set_aside, [row for row, keep in zip(rows, kept) if keep]


def fill_set_aside(x: list[int], set_aside, modulus: int | None = None) -> None:
    """Extend x (x[v - 1] for variable v), a solution of `peel`'s core, to the set-aside rows, in place.

    Last set aside first, each private variable becomes 1 minus its row's
    other entries, mod `modulus` if given.  It occurs in no row set aside
    later nor in the core, and the private variables filled after it do not
    occur in its row, so every row holds at the end.
    """
    for (a, b, c), v in reversed(set_aside):
        value = 1 - x[a - 1] - x[b - 1] - x[c - 1] + x[v - 1]  # v occurs once in (a, b, c)
        x[v - 1] = value % modulus if modulus else value


def solve_t2(instance: Instance, *, deadline: float | None = None) -> dict[int, int] | None:
    """Three-coloring via one mod-3 equation per edge; always verified.

    `gauss_gf3` solves `peel`'s core and the set-aside rows are filled in mod
    3; None comes back exactly when the kernel finds none for the whole system.
    """
    set_aside, core = peel(instance.edges, instance.variable_count, deadline=deadline)
    solution = gauss_gf3([(e, 1) for e in core], instance.variable_count, deadline=deadline)
    if solution is None:
        return None
    fill_set_aside(solution, set_aside, 3)
    coloring = {v: solution[v - 1] for v in range(1, instance.variable_count + 1)}
    assert check_coloring(instance, coloring, T2)
    return coloring


def hnf_solve(rows, nv: int, *, deadline: float | None = None) -> list[int] | None:
    """An integer solution of A x = 1 over the variables 1..nv via column reduction, or None.

    A row (i, j, k) of A is the equation x_i + x_j + x_k = 1; the three
    variables may coincide.  Column j of A is one dict of its non-zero
    entries, and each row keeps a list of the columns that may hold it: a
    column joins the list when it gains an entry in the row (the fill, a
    column operation, a swap) and is never taken off, so a row reads its
    live entries from its list alone.
    Within a row the pivot is the column of least (|entry|, count of non-zero
    entries, index): the least |entry| keeps each Euclid step shrinking the
    row's minimum, and among equal ones the sparsest column spreads the
    least fill into later rows (Markowitz's rule as a tie-break).
    Each column operation is recorded as applied: (s, t, f) adds f times
    column s into column t, (a, b) swaps two columns, (c,) negates one; their
    product is a unimodular T.  Once each row has at most one pivot,
    back-substitution solves (A T) y = 1 with exact divisibility (free
    parameters 0), and x = T y comes from applying the operations to y last
    to first.  The choice of each operation and their order are those of
    dense columns (`tests/loop_solvers.py`, same key), so the solution is
    the same.
    `deadline` (a `errors.deadline_after` value, None for none) is checked
    before the loop and before each row; once it has passed,
    TimeBudgetExceeded is raised.
    """
    m, n = len(rows), nv
    if expired(deadline):  # also for a system without rows
        raise TimeBudgetExceeded(f"solve ran past its time budget after 0 of {m} rows")
    cols: list[dict[int, int]] = [{} for _ in range(n)]
    holders: list[list[int]] = [[] for _ in range(m)]  # row -> columns that may hold it, repeats allowed
    for r, (i, j, k) in enumerate(rows):
        for v in (i, j, k):
            cols[v - 1][r] = cols[v - 1].get(r, 0) + 1
            holders[r].append(v - 1)

    ops: list[tuple[int, ...]] = []
    pivots: dict[int, int] = {}  # row -> pivot column
    col = 0
    for row in range(m):
        if col >= n:
            break
        if expired(deadline):
            raise TimeBudgetExceeded(f"solve ran past its time budget after {row} of {m} rows")
        # the row's entries in columns col.., ascending, so the operations are recorded in the dense code's order
        entries = {j: a for j in sorted(set(holders[row])) if j >= col and (a := cols[j].get(row))}
        while len(entries) > 1:
            best = min(entries, key=lambda j: (abs(entries[j]), len(cols[j]), j))
            source = cols[best]
            for j, entry in entries.items():
                if j != best:
                    # never 0: best holds the least absolute value in this row
                    f = -(entry // entries[best])
                    target = cols[j]
                    for idx, b in source.items():
                        a = target.get(idx)
                        if a is None:
                            target[idx] = f * b
                            holders[idx].append(j)
                        elif a := a + f * b:
                            target[idx] = a
                        else:
                            del target[idx]
                    ops.append((best, j, f))
            # the row's operations touch only these columns; the order stays ascending
            entries = {j: a for j in entries if (a := cols[j].get(row))}
        if not entries:
            continue
        [(first, entry)] = entries.items()
        if first != col:
            cols[first], cols[col] = cols[col], cols[first]
            for idx in cols[first]:  # no later row reads column col, the new pivot
                holders[idx].append(first)
            ops.append((first, col))
        if entry < 0:
            cols[col] = {idx: -a for idx, a in cols[col].items()}
            ops.append((col,))
        pivots[row] = col
        col += 1

    acc = [0] * m  # A T y, row by row
    y = [0] * n
    for row in range(m):
        residual = 1 - acc[row]
        if residual:
            j = pivots.get(row)
            if j is None or residual % cols[j][row]:
                return None
            y[j] = residual // cols[j][row]
            for idx, a in cols[j].items():
                acc[idx] += a * y[j]
    for op in reversed(ops):  # x = T y, T the product of the operations in order
        if len(op) == 3:
            y[op[0]] += op[2] * y[op[1]]
        elif len(op) == 2:
            y[op[0]], y[op[1]] = y[op[1]], y[op[0]]
        else:
            y[op[0]] = -y[op[0]]
    for i, j, k in rows:
        assert y[i - 1] + y[j - 1] + y[k - 1] == 1
    return y


def solve_nae(instance: Instance, *, deadline: float | None = None) -> dict[int, int] | None:
    """Two-coloring via the integer relaxation, thresholded at >= 1; verified.

    Each edge's three integers sum to exactly 1, so they can be neither all
    >= 1 nor all <= 0; the thresholded coloring therefore never makes an
    edge constant.  `hnf_solve` solves the core and the set-aside rows are
    filled in; None comes back exactly when the kernel finds none for the
    whole system.
    """
    set_aside, core = peel(instance.edges, instance.variable_count, deadline=deadline)
    solution = hnf_solve(core, instance.variable_count, deadline=deadline)
    if solution is None:
        return None
    fill_set_aside(solution, set_aside)
    coloring = {v: 1 if solution[v - 1] >= 1 else 0 for v in range(1, instance.variable_count + 1)}
    assert check_coloring(instance, coloring, NAE)
    return coloring


def solve_via_relaxation(
    instance: Instance, target: RelStructure, prefer: str = "t2", *, deadline: float | None = None
) -> dict[int, int] | None:
    """Solve against any target reachable from the cyclic or not-all-equal base.

    The base coloring is composed with a homomorphism into the target and
    re-verified.  When both routes apply the cyclic one is taken (cheaper
    exact algebra) unless prefer = "nae".  `deadline` goes to `peel` and
    the kernel of the route taken.
    """
    base_homs = {}
    for route, base_structure in (("t2", T2), ("nae", NAE)):
        hom = find_homomorphism(base_structure, target)
        if hom is not None:
            base_homs[route] = hom
    if not base_homs:
        raise UnsupportedTargetError("target admits neither the cyclic nor the not-all-equal relaxation")
    route = prefer if prefer in base_homs else next(iter(base_homs))
    base = (solve_t2 if route == "t2" else solve_nae)(instance, deadline=deadline)
    if base is None:
        return None
    hom = base_homs[route]
    coloring = {v: hom(c) for v, c in base.items()}
    assert check_coloring(instance, coloring, target)
    return coloring


P = "P"
NP_HARD = "NP-hard"
OPEN = "open"


def classify_template(target: RelStructure) -> str:
    """Complexity label for a symmetric ternary three-element target.

    Tractable when a constant tuple is present or the not-all-equal /
    cyclic structure maps in; hard when the target maps into one of the
    three hard acyclic structures; the remaining case is exactly the
    hom-equivalence class of the strict-order target and is reported open.
    """
    if target.domain_size != 3:
        raise ValueError(f"classification needs a 3-element domain, got {target.domain_size}")
    rel = target.single_ternary()
    if not rel.symmetric:
        raise ValueError("classification needs a symmetric relation")
    has_constant = any(len(set(t)) == 1 for t in rel.tuples)
    tractable = has_constant or hom_exists(NAE, target) or hom_exists(T2, target)
    hard = hom_exists(target, T1) or hom_exists(target, D1plus) or hom_exists(target, D2plus)
    assert not (tractable and hard), "tractability and hardness certificates cannot coexist"
    if tractable:
        return P
    if hard:
        return NP_HARD
    return OPEN


# --- text formats ------------------------------------------------------------
#
#   p hyp3 <nvars> <nedges>
#   e v1 v2 v3
#
# variables are 1-indexed; "#" starts a comment.  A planted witness rides
# along as "# planted <var> <bit>" comment lines.  Colorings are emitted as
# "v <var> <color>" lines.


def parse_instance(text: str) -> Instance:
    header = None
    edges = []
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "p":
                if header is not None or len(parts) != 4 or parts[1] != "hyp3":
                    raise FormatError(f"line {lineno}: bad problem header")
                header = (int(parts[2]), int(parts[3]))
            elif parts[0] == "e":
                if header is None:
                    raise FormatError(f"line {lineno}: edge before header")
                if len(parts) != 4:
                    raise FormatError(f"line {lineno}: edge needs three entries")
                edges.append((int(parts[1]), int(parts[2]), int(parts[3])))
            else:
                raise FormatError(f"line {lineno}: unrecognized directive {parts[0]!r}")
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from exc
    if header is None:
        raise FormatError("missing problem header")
    nv, ne = header
    if len(edges) != ne:
        raise FormatError(f"header announced {ne} edges, found {len(edges)}")
    try:
        return Instance(nv, tuple(edges))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_instance(instance: Instance, planted: dict[int, int] | None = None) -> str:
    lines = [f"p hyp3 {instance.variable_count} {len(instance.edges)}"]
    lines += [f"e {a} {b} {c}" for a, b, c in instance.edges]
    lines += [f"# planted {v} {planted[v]}" for v in sorted(planted or ())]
    return "\n".join(lines) + "\n"


def format_coloring(coloring: dict[int, int]) -> str:
    return "\n".join(f"v {v} {coloring[v]}" for v in sorted(coloring)) + "\n"
