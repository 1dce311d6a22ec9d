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

    @classmethod
    def _raw(cls, rows, cols, data):
        """Wrap a tuple of rows*cols ints computed from matrices, unchecked."""
        M = object.__new__(cls)
        object.__setattr__(M, "rows", rows)
        object.__setattr__(M, "cols", cols)
        object.__setattr__(M, "data", data)
        return M

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
        return self.data[j::self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        data, n = self.data, self.cols
        return IntMatrix._raw(n, self.rows,
                              tuple(x for j in range(n) for x in data[j::n]))

    def __add__(self, other):
        self._check_same_shape(other)
        return IntMatrix._raw(self.rows, self.cols,
                              tuple(a + b for a, b in zip(self.data, other.data)))

    def __sub__(self, other):
        self._check_same_shape(other)
        return IntMatrix._raw(self.rows, self.cols,
                              tuple(a - b for a, b in zip(self.data, other.data)))

    def __neg__(self):
        return IntMatrix._raw(self.rows, self.cols, tuple(-a for a in self.data))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix._raw(self.rows, self.cols,
                                  tuple(other * a for a in self.data))
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
        return IntMatrix._raw(m, n, tuple(out))

    __rmul__ = __mul__

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionMismatch("hstack needs equal row counts")
        entries = []
        for i in range(self.rows):
            entries.extend(self.row(i))
            entries.extend(other.row(i))
        return IntMatrix._raw(self.rows, self.cols + other.cols, tuple(entries))

    def vstack(self, other):
        if self.cols != other.cols:
            raise DimensionMismatch("vstack needs equal column counts")
        return IntMatrix._raw(self.rows + other.rows, self.cols, self.data + other.data)

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
    return SNFResult(*(IntMatrix._raw(r, c, tuple(x for row in M for x in row))
                       for M, r, c in ((U, m, m), (D, m, n), (V, n, n))))


def column_echelon(A):
    """Column echelon form with transform: A*V = H, V unimodular.

    Pivot rows strictly increase along nonzero columns; pivots are positive;
    columns after the last pivot are zero. Deterministic (minimal absolute
    value pivot, lowest column index on ties).

    Runs the dense elimination's operations, in its order, on the sparse
    {row: value} columns of the stacked matrix [A; I]; rows m.. become V.
    """
    m, n = A.rows, A.cols
    C = [{i: x for i, x in enumerate(A.data[j::n]) if x} for j in range(n)]
    for j, col in enumerate(C):
        col[m + j] = 1
    c = 0
    for r in range(m):
        if c >= n:
            break
        # clear row r to a single pivot among columns >= c
        while True:
            nz = [j for j in range(c, n) if r in C[j]]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: (abs(C[j][r]), j))
            p = C[j0][r]
            for j in nz:
                if j != j0:
                    _sub_scaled(C[j], C[j0], C[j][r] // p)
        if not nz:
            continue
        j0 = nz[0]
        C[c], C[j0] = C[j0], C[c]
        if C[c][r] < 0:
            C[c] = {i: -x for i, x in C[c].items()}
        # reduce earlier pivot columns against this pivot for determinism
        p = C[c][r]
        for j in range(c):
            q = C[j].get(r, 0) // p
            if q:
                _sub_scaled(C[j], C[c], q)
        c += 1
    out = [0] * ((m + n) * n)
    for j, col in enumerate(C):
        for i, x in col.items():
            out[i * n + j] = x
    return (IntMatrix._raw(m, n, tuple(out[:m * n])),
            IntMatrix._raw(n, n, tuple(out[m * n:])))


def _sub_scaled(dst, src, q):
    """dst -= q * src on sparse columns; q != 0."""
    for i, x in src.items():
        v = dst.get(i, 0) - q * x
        if v:
            dst[i] = v
        else:
            del dst[i]


def _pivots(H):
    """(row, column) of each pivot of a column echelon form H; a column is
    zero above its pivot, and each pivot lies below the one before."""
    out = []
    i = 0
    for j in range(H.cols):
        col = H.column(j)
        i = next((t for t in range(i, H.rows) if col[t]), None)
        if i is None:
            break
        out.append((i, j))
        i += 1
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

