"""Plain reference implementations that the tests check d2kit against.

None of these is used by d2kit itself: the determinant and lattice equality
are oracles for unimodularity and lattice identity, `lattice_hnf` is the
xgcd-based row Hermite form that `column_hnf` and `intlinalg.kernel_basis`
must reproduce exactly,
`rank_mod_p` is Gaussian elimination over F_p for the Smith-form ranks of
`intlinalg.rank_over_field`, `column_echelon` reads the transform A*V = H
off d2kit's sparse echelon of [A; I], and `column_hnf` its Hermite basis,
`dense_column_echelon` is the list-of-rows column elimination that
`column_echelon` must reproduce exactly, and `dense_solve_integer_system`
is the dense back-substitution followed by V*Y that
`intlinalg.solve_integer_system` must reproduce exactly. The `letters_*`
functions are the word algebra on letter tuples ((generator, +1 or -1)
pairs) that `words` and `Word` must agree with on encoded text.
"""

from d2kit.intlinalg import (
    DimensionMismatch,
    IntMatrix,
    _columns,
    _echelon,
    _hermite,
    _matrix,
    _stacked_columns,
)


def xgcd(a, b):
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def lattice_hnf(vectors, dim):
    """Unique row-style Hermite normal form basis of the lattice spanned
    by `vectors` in Z^dim: pivot columns strictly increase, pivots are
    positive, and entries above a pivot are reduced into [0, pivot)."""
    rows = {}  # pivot column -> the kept row leading there
    for v0 in vectors:
        v = list(v0)
        if len(v) != dim:
            raise DimensionMismatch("vector length != dim")
        j = _leading(v, 0)
        while j < dim:
            row = rows.get(j)
            if row is None:
                rows[j] = v
                break
            x, y, g = xgcd(row[j], v[j])
            qr, qv = row[j] // g, v[j] // g
            rows[j] = [x * a + y * b for a, b in zip(row, v)]
            v = [qr * b - qv * a for a, b in zip(row, v)]
            j = _leading(v, j + 1)
    pivots = sorted(rows)
    basis = [rows[j] if rows[j][j] > 0 else [-x for x in rows[j]] for j in pivots]
    for i, j in enumerate(pivots):
        p = basis[i][j]
        for k in range(i):
            q = basis[k][j] // p
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return [tuple(row) for row in basis]


def _leading(v, start):
    """Index of the first nonzero entry of v at or after start, or len(v)."""
    return next((t for t in range(start, len(v)) if v[t]), len(v))


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


def rank_mod_p(A, p):
    """Rank of A over F_p (p prime) by Gauss-Jordan elimination."""
    rows = [[x % p for x in A.row(i)] for i in range(A.rows)]
    r = 0
    for j in range(A.cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][j], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][j]:
                c = rows[i][j]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def column_echelon(A):
    """Column echelon form with transform: A*V = H, V unimodular.

    Pivot rows strictly increase along nonzero columns; pivots are positive;
    columns after the last pivot are zero; the nonzero columns are the
    Hermite normal form of A's column lattice (see `intlinalg._echelon`).

    Runs `_echelon` on the sparse columns of the stacked matrix [A; I];
    rows m.. become V.
    """
    m, n = A.rows, A.cols
    C = _stacked_columns(_columns(A), m)
    _echelon(C, m)
    out = [0] * ((m + n) * n)
    for j, col in enumerate(C):
        for i, x in col.items():
            out[i * n + j] = x
    return (IntMatrix._raw(m, n, tuple(out[:m * n])),
            IntMatrix._raw(n, n, tuple(out[m * n:])))


def column_hnf(A):
    """The Hermite basis `intlinalg._hermite` builds of the lattice spanned by
    A's columns, as length-`A.rows` tuples (the d2kit code under test, made
    dense). Its length is the rank of A over Q."""
    H = _matrix(_hermite(_columns(A), A.rows), A.rows)
    return [H.column(j) for j in range(H.cols)]


def dense_solve_integer_system(A, B):
    """A*X = B over Z by dense back-substitution through the column echelon
    form A*V = H, then X = V*Y; None when no integer solution exists."""
    if A.rows != B.rows:
        raise DimensionMismatch("A and B need equal row counts")
    H, V = column_echelon(A)
    n, k = A.cols, B.cols
    pivots = []
    for j in range(n):
        h = H.column(j)
        i = next((t for t, x in enumerate(h) if x), None)
        if i is None:
            break
        pivots.append((i, j, h))
    Y = [0] * (n * k)
    for c in range(k):
        b = list(B.column(c))
        for i, j, h in pivots:
            if b[i] % h[i]:
                return None
            q = b[i] // h[i]
            if q:
                Y[j * k + c] = q
                b = [x - q * y for x, y in zip(b, h)]
        if any(b):
            return None
    return V * IntMatrix(n, k, Y)


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


def letters_reduce(letters):
    """Freely reduce a letter sequence (stack cancellation)."""
    out = []
    for g, s in letters:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def letters_inverse(letters):
    return tuple((g, -s) for g, s in reversed(letters))


def letters_product(a, b):
    """The product of reduced letter tuples; cancellation only at the seam."""
    t, n = 0, min(len(a), len(b))
    while t < n and a[-1 - t] == (b[t][0], -b[t][1]):
        t += 1
    return a[:len(a) - t] + b[t:]


def letters_cyclic_core(letters):
    """(core, conjugator) of a reduced letter tuple: letters is conjugator *
    core * conjugator^-1 with core cyclically reduced."""
    a, b = 0, len(letters)
    while b - a >= 2 and letters[a] == (letters[b - 1][0], -letters[b - 1][1]):
        a += 1
        b -= 1
    return letters[a:b], letters[:a]


def letters_substitute(letters, images):
    """Replace generator g by the letter tuple images[g] (extended to
    inverses) and freely reduce."""
    out = []
    for g, s in letters:
        out.extend(images[g] if s > 0 else letters_inverse(images[g]))
    return letters_reduce(out)


def letters_order_key(letters):
    """Length-lexicographic key, letters ordered (0, +1) < (0, -1) < (1, +1) < ..."""
    return len(letters), tuple(2 * g + (s < 0) for g, s in letters)
