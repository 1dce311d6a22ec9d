"""Exact integer matrix algebra.

Smith and Hermite-style normal forms with unimodular transform certificates,
integer linear system solving, kernel lattices, and ranks over Q and F_p.
Everything runs on arbitrary-precision Python integers; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass


class DimensionMismatch(ValueError):
    pass


class NotPrime(ValueError):
    pass


class CertificateError(ArithmeticError):
    """An exact re-verification of a computed result failed."""


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


class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, entries):
        data = tuple(int(x) for x in entries)
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows}x{cols} = {rows * cols} entries, got {len(data)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_rows(cls, rows_of_entries):
        rows = [list(r) for r in rows_of_entries]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != n:
                raise DimensionMismatch("ragged rows")
        return cls(m, n, [x for r in rows for x in r])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def entry(self, i, j):
        return self.data[i * self.cols + j]

    def row(self, i):
        return self.data[i * self.cols:(i + 1) * self.cols]

    def column(self, j):
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)])

    def __add__(self, other):
        self._check_same_shape(other)
        return IntMatrix(self.rows, self.cols,
                         [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        self._check_same_shape(other)
        return IntMatrix(self.rows, self.cols,
                         [a - b for a, b in zip(self.data, other.data)])

    def __neg__(self):
        return IntMatrix(self.rows, self.cols, [-a for a in self.data])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix(self.rows, self.cols, [other * a for a in self.data])
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        m, k, n = self.rows, self.cols, other.cols
        a, b = self.data, other.data
        out = [0] * (m * n)
        for i in range(m):
            arow = a[i * k:(i + 1) * k]
            orow = i * n
            for t in range(k):
                c = arow[t]
                if c:
                    brow = t * n
                    for j in range(n):
                        out[orow + j] += c * b[brow + j]
        return IntMatrix(m, n, out)

    __rmul__ = __mul__

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionMismatch("hstack needs equal row counts")
        entries = []
        for i in range(self.rows):
            entries.extend(self.row(i))
            entries.extend(other.row(i))
        return IntMatrix(self.rows, self.cols + other.cols, entries)

    def vstack(self, other):
        if self.cols != other.cols:
            raise DimensionMismatch("vstack needs equal column counts")
        return IntMatrix(self.rows + other.rows, self.cols, self.data + other.data)

    def is_zero(self):
        return all(x == 0 for x in self.data)

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch")

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        if self.rows * self.cols <= 36:
            return f"IntMatrix({self.to_rows()!r})"
        return f"<IntMatrix {self.rows}x{self.cols}>"


@dataclass(frozen=True)
class SNFResult:
    """U*A*V = D with U, V unimodular and D diagonal, d1 | d2 | ... >= 0."""
    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self):
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D.entry(i, i) for i in range(n))


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m, dst, src, q):
    # row[dst] += q * row[src]
    rd, rs = m[dst], m[src]
    for t in range(len(rd)):
        rd[t] += q * rs[t]


def _add_col(m, dst, src, q):
    for row in m:
        row[dst] += q * row[src]


def _negate_row(m, i):
    m[i] = [-x for x in m[i]]


def _diagonalize(D, U, V):
    """In-place reduction of D to diagonal form, tracking U (rows), V (cols)."""
    m = len(D)
    n = len(D[0]) if m else 0
    for t in range(min(m, n)):
        while True:
            # minimal absolute value pivot, ties broken by (row, col) index
            pivot = None
            best = None
            for i in range(t, m):
                row = D[i]
                for j in range(t, n):
                    x = row[j]
                    if x != 0 and (best is None or abs(x) < best):
                        best = abs(x)
                        pivot = (i, j)
            if pivot is None:
                return
            i, j = pivot
            if i != t:
                _swap_rows(D, t, i)
                _swap_rows(U, t, i)
            if j != t:
                _swap_cols(D, t, j)
                _swap_cols(V, t, j)
            if D[t][t] < 0:
                _negate_row(D, t)
                _negate_row(U, t)
            p = D[t][t]
            done = True
            for i in range(t + 1, m):
                if D[i][t]:
                    q = D[i][t] // p
                    _add_row(D, i, t, -q)
                    _add_row(U, i, t, -q)
                    if D[i][t]:
                        done = False
            for j in range(t + 1, n):
                if D[t][j]:
                    q = D[t][j] // p
                    _add_col(D, j, t, -q)
                    _add_col(V, j, t, -q)
                    if D[t][j]:
                        done = False
            if done:
                break


def smith_normal_form(A):
    """Smith normal form with unimodular certificates: U*A*V = D."""
    m, n = A.rows, A.cols
    D = A.to_rows()
    U = IntMatrix.identity(m).to_rows()
    V = IntMatrix.identity(n).to_rows()
    while True:
        _diagonalize(D, U, V)
        # enforce the divisibility chain; a violation re-enters diagonalization
        violation = None
        r = min(m, n)
        for i in range(r - 1):
            if D[i][i] != 0 and D[i + 1][i + 1] % D[i][i] != 0:
                violation = i
                break
        if violation is None:
            break
        _add_col(D, violation, violation + 1, 1)
        _add_col(V, violation, violation + 1, 1)
    return SNFResult(IntMatrix.from_rows(U) if m else IntMatrix(0, 0, []),
                     IntMatrix(m, n, [x for row in D for x in row]),
                     IntMatrix.from_rows(V) if n else IntMatrix(0, 0, []))


def column_echelon(A):
    """Column echelon form with transform: A*V = H, V unimodular.

    Pivot rows strictly increase along nonzero columns; pivots are positive;
    columns after the last pivot are zero. Deterministic (minimal absolute
    value pivot, lowest column index on ties).
    """
    m, n = A.rows, A.cols
    H = A.to_rows()
    V = IntMatrix.identity(n).to_rows()
    c = 0
    for r in range(m):
        if c >= n:
            break
        # clear row r to a single pivot among columns >= c
        while True:
            nz = [j for j in range(c, n) if H[r][j] != 0]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: (abs(H[r][j]), j))
            for j in nz:
                if j == j0:
                    continue
                q = H[r][j] // H[r][j0]
                _add_col(H, j, j0, -q)
                _add_col(V, j, j0, -q)
        nz = [j for j in range(c, n) if H[r][j] != 0]
        if not nz:
            continue
        j0 = nz[0]
        if j0 != c:
            _swap_cols(H, c, j0)
            _swap_cols(V, c, j0)
        if H[r][c] < 0:
            for row in H:
                row[c] = -row[c]
            for row in V:
                row[c] = -row[c]
        # reduce earlier pivot columns against this pivot for determinism
        for j in range(c):
            if H[r][j]:
                q = H[r][j] // H[r][c]
                _add_col(H, j, c, -q)
                _add_col(V, j, c, -q)
        c += 1
    return (IntMatrix(m, n, [x for row in H for x in row]),
            IntMatrix.from_rows(V) if n else IntMatrix(0, 0, []))


def _pivots(H):
    """(row, column) of each pivot of a column echelon form H."""
    out = []
    for j in range(H.cols):
        i = next((i for i in range(H.rows) if H.entry(i, j)), None)
        if i is None:
            break
        out.append((i, j))
    return out


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def rank_over_field(A, field):
    """Rank over Q (field="Q") or F_p (field=p, p prime)."""
    if field == "Q":
        return len(column_hnf(A))
    p = int(field)
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    rows = [[x % p for x in A.row(i)] for i in range(A.rows)]
    r = 0
    n = A.cols
    for j in range(n):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][j] % p:
                piv = i
                break
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


def solve_integer_system(A, B):
    """Solve A*X = B over the integers.

    Returns X (an IntMatrix) or None when no integer solution exists.
    The solution is the deterministic one produced by back-substitution
    through the column echelon form of A.
    """
    if A.rows != B.rows:
        raise DimensionMismatch("A and B need equal row counts")
    H, V = column_echelon(A)
    n, k = A.cols, B.cols
    pivots = [(i, j, H.column(j)) for i, j in _pivots(H)]
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
    # back through the column transform: A*(V*Y) = H*Y = B
    return V * IntMatrix(n, k, Y)


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Witness that A*x = b has no integer solution.

    `row` is an integer vector y with y*A == 0 (mod `modulus`) while
    y*b != 0 (mod `modulus`); modulus 0 means equality over Z, certifying
    that the system is infeasible even over Q.
    """
    row: tuple
    modulus: int
    column: int  # which column of B is obstructed

    def verify(self, A, B):
        y = self.row
        m = self.modulus
        if len(y) != A.rows:
            return False
        for j in range(A.cols):
            s = sum(y[i] * A.entry(i, j) for i in range(A.rows))
            if (s if m == 0 else s % m) != 0:
                return False
        s = sum(y[i] * B.entry(i, self.column) for i in range(A.rows))
        return (s if m == 0 else s % m) != 0


def infeasibility_certificate(A, B):
    """Produce an InfeasibilityCertificate for A*X = B, or None if solvable.

    Uses the Smith normal form criterion, independently of the echelon-based
    solver, so the two can cross-check each other.
    """
    if A.rows != B.rows:
        raise DimensionMismatch("A and B need equal row counts")
    snf = smith_normal_form(A)
    C = snf.U * B
    diag = snf.diagonal()
    r = sum(1 for d in diag if d)
    for k in range(B.cols):
        for i in range(A.rows):
            c = C.entry(i, k)
            if i >= r or diag[i] == 0:
                if c != 0:
                    return InfeasibilityCertificate(tuple(snf.U.row(i)), 0, k)
            elif c % diag[i]:
                return InfeasibilityCertificate(tuple(snf.U.row(i)), diag[i], k)
    return None


def kernel_basis(A):
    """Canonical basis of the integer kernel lattice {x : A*x = 0}.

    Returns a list of length-`A.cols` tuples, the rows of the Hermite
    normal form of the kernel lattice (unique, hence golden-test stable).
    """
    H, V = column_echelon(A)
    gens = [V.column(j) for j in range(len(_pivots(H)), A.cols)]
    return lattice_hnf(gens, A.cols)


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


def column_hnf(A):
    """Hermite normal form basis of the lattice spanned by A's columns;
    its length is the rank of A over Q."""
    return lattice_hnf([A.data[j::A.cols] for j in range(A.cols)], A.rows)


def lattices_equal(vectors_a, vectors_b, dim):
    return lattice_hnf(vectors_a, dim) == lattice_hnf(vectors_b, dim)
