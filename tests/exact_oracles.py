"""Plain reference implementations that the tests check d2kit against.

None of these is used by d2kit itself: the determinant and lattice equality
are oracles for unimodularity and lattice identity, and `dense_column_echelon`
is the list-of-rows column elimination that `intlinalg.column_echelon` must
reproduce exactly.
"""

from d2kit.intlinalg import DimensionMismatch, IntMatrix, lattice_hnf


def determinant(A):
    """Exact determinant (Bareiss fraction-free elimination)."""
    if A.rows != A.cols:
        raise DimensionMismatch("determinant needs a square matrix")
    n = A.rows
    if n == 0:
        return 1
    m = A.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def lattices_equal(vectors_a, vectors_b, dim):
    return lattice_hnf(vectors_a, dim) == lattice_hnf(vectors_b, dim)


def dense_column_echelon(A):
    """Column echelon form A*V = H on dense rows: least |value| pivot, lowest
    column on ties, floor quotients, then swap to the pivot position, make
    the pivot positive and reduce the earlier pivot columns."""
    m, n = A.rows, A.cols
    H = A.to_rows()
    V = IntMatrix.identity(n).to_rows()

    def add_col(dst, src, q):
        for M in (H, V):
            for row in M:
                row[dst] += q * row[src]

    c = 0
    for r in range(m):
        if c >= n:
            break
        while True:
            nz = [j for j in range(c, n) if H[r][j] != 0]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: (abs(H[r][j]), j))
            for j in nz:
                if j != j0:
                    add_col(j, j0, -(H[r][j] // H[r][j0]))
        if not nz:
            continue
        j0 = nz[0]
        for M in (H, V):
            for row in M:
                row[c], row[j0] = row[j0], row[c]
        if H[r][c] < 0:
            for M in (H, V):
                for row in M:
                    row[c] = -row[c]
        for j in range(c):
            if H[r][j]:
                add_col(j, c, -(H[r][j] // H[r][c]))
        c += 1
    return (IntMatrix(m, n, [x for row in H for x in row]),
            IntMatrix(n, n, [x for row in V for x in row]))
