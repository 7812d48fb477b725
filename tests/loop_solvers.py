"""The exact solvers as dense list arithmetic: the reference for the packed ones.

`gauss_gf3` keeps one list of residues per row and `hnf_solve` one list per
column (column of A, then column of the transform T).  The kernels of the
same name in `pcsplab.solvers` store GF(3) rows as two bitplanes and the
columns of A alone as dicts of their non-zero entries;
`test_solvers_match_dense_references` requires equal outputs, element for
element.  The packed `hnf_solve` chooses the same operations in the same
order, which its x depends on, records them instead of applying them to T,
and applies them to y last to first, which gives the same x = T y.
The packed `gauss_gf3` eliminates in another order, but its pivot columns
are the greedy leftmost independent set, its free variables are 0, and the
reduced echelon form is unique, so it returns the same solution.
"""


def gauss_gf3(rows, nv: int) -> list[int] | None:
    """Gaussian elimination modulo 3 over the rows ((i, j, k), rhs); free variables are set to 0."""
    matrix = []
    for (i, j, k), rhs in rows:
        row = [0] * (nv + 1)
        for v in (i, j, k):
            row[v - 1] = (row[v - 1] + 1) % 3
        row[nv] = rhs % 3
        matrix.append(row)
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for col in range(nv):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = matrix[rank][col]  # inverses mod 3: 1 -> 1, 2 -> 2
        matrix[rank] = [(x * inv) % 3 for x in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [(a - factor * b) % 3 for a, b in zip(matrix[r], matrix[rank])]
        pivot_of_col[col] = rank
        rank += 1
    for r in range(rank, len(matrix)):
        if matrix[r][nv]:
            return None
    solution = [0] * nv
    for col, r in pivot_of_col.items():
        solution[col] = matrix[r][nv]
    return solution


def hnf_solve(rows, nv: int) -> list[int] | None:
    """An integer solution of A x = 1, rows (i, j, k) of A over the variables 1..nv, via column reduction, or None.

    Column j is one list: column j of A, then column j of a unimodular
    transform T that starts as the identity, so each column operation acts
    on A T and T at once.  Once each row has at most one pivot,
    back-substitution solves (A T) y = 1 with exact divisibility (free
    parameters 0), and x = T y.
    """
    m, n = len(rows), nv
    cols = [[0] * m + [1 if r == j else 0 for r in range(n)] for j in range(n)]
    for r, (i, j, k) in enumerate(rows):
        for v in (i, j, k):
            cols[v - 1][r] += 1

    pivots: dict[int, int] = {}  # row -> pivot column
    col = 0
    for row in range(m):
        if col >= n:
            break
        while True:
            nonzero = [j for j in range(col, n) if cols[j][row]]
            if len(nonzero) <= 1:
                break
            best = min(nonzero, key=lambda j: (abs(cols[j][row]), j))
            for j in nonzero:
                if j != best:
                    f = -(cols[j][row] // cols[best][row])
                    cols[j] = [a + f * b for a, b in zip(cols[j], cols[best])]
        if not nonzero:
            continue
        if nonzero[0] != col:
            cols[nonzero[0]], cols[col] = cols[col], cols[nonzero[0]]
        if cols[col][row] < 0:
            cols[col] = [-a for a in cols[col]]
        pivots[row] = col
        col += 1

    y: dict[int, int] = {}  # pivot column -> nonzero y_j
    for row in range(m):
        residual = 1 - sum(cols[j][row] * yj for j, yj in y.items())
        if row in pivots:
            pivot = cols[pivots[row]][row]
            if residual % pivot:
                return None
            if residual:
                y[pivots[row]] = residual // pivot
        elif residual:
            return None
    solution = [0] * n
    for j, yj in y.items():
        solution = [x + yj * t for x, t in zip(solution, cols[j][m:])]
    for i, j, k in rows:
        assert solution[i - 1] + solution[j - 1] + solution[k - 1] == 1
    return solution
