"""Exact integer matrix algebra.

Smith and Hermite-style normal forms with unimodular transform certificates,
integer linear system solving, kernel lattices, and ranks over Q and F_p.
Everything runs on arbitrary-precision Python integers; no floating point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, islice


class DimensionMismatch(ValueError):
    pass


class NotPrime(ValueError):
    pass


class CertificateError(ArithmeticError):
    """An exact re-verification of a computed result failed."""


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


def _diagonalize(B, m, n):
    """Bring the D block of smith_normal_form's working matrix B to diagonal
    form in place. Row i < m of B is D_i followed by U_i, so a row operation
    updates D and U at once; rows m.. are V, so an operation on a column
    j < n updates D and V at once. Pivot: least |x| in the untreated part of
    D, ties broken by (row, col); then the pivot row is negated if needed
    and the pivot's column and row are cleared, in index order, with floor
    quotients taken from D before each operation."""
    for t in range(min(m, n)):
        while True:
            pivot = None
            best = None
            for i in range(t, m):
                row = B[i]
                for j in range(t, n):
                    x = row[j]
                    if x != 0 and (best is None or abs(x) < best):
                        best = abs(x)
                        pivot = (i, j)
            if pivot is None:
                return
            i, j = pivot
            B[t], B[i] = B[i], B[t]
            if j != t:
                for row in B:
                    row[t], row[j] = row[j], row[t]
            top = B[t]
            if top[t] < 0:
                B[t] = top = [-x for x in top]
            p = top[t]
            done = True
            for i in range(t + 1, m):
                if B[i][t]:
                    q = B[i][t] // p
                    B[i] = row = [x - q * y for x, y in zip(B[i], top)]
                    if row[t]:
                        done = False
            for j in range(t + 1, n):
                if top[j]:
                    q = top[j] // p
                    for row in B:
                        row[j] -= q * row[t]
                    if top[j]:
                        done = False
            if done:
                break


def smith_normal_form(A):
    """Smith normal form with unimodular certificates: U*A*V = D.

    All three live in one working matrix B of m + n rows: the first m rows
    are [D_i | U_i] (D = A and U = I to start), the last n rows are V_i (V = I
    to start). Where d_i does not divide d_(i+1), column i + 1 is added to
    column i and _diagonalize runs again."""
    m, n = A.rows, A.cols
    B = [list(A.row(i)) + [int(i == k) for k in range(m)] for i in range(m)]
    B += [[int(i == k) for k in range(n)] for i in range(n)]
    while True:
        _diagonalize(B, m, n)
        for i in range(min(m, n) - 1):
            if B[i][i] and B[i + 1][i + 1] % B[i][i]:
                for row in B:
                    row[i] += row[i + 1]
                break
        else:
            break
    return SNFResult(IntMatrix._raw(m, m, tuple(x for row in B[:m] for x in row[n:])),
                     IntMatrix._raw(m, n, tuple(x for row in B[:m] for x in row[:n])),
                     IntMatrix._raw(n, n, tuple(x for row in B[m:] for x in row)))


def _columns(A):
    """The columns of A as sparse {row: value} dicts, rows in increasing
    order; only the nonzero cells of A are visited."""
    n, data = A.cols, A.data
    C = [{} for _ in range(n)]
    for k in compress(range(len(data)), data):
        i, j = divmod(k, n)
        C[j][i] = data[k]
    return C


def _stacked_columns(C, m):
    """Stack the identity under the m-row sparse columns C, in place: C
    becomes the columns of [A; I]."""
    for j, col in enumerate(C):
        col[m + j] = 1
    return C


def _matrix(C, m):
    """The m x len(C) IntMatrix whose columns are the sparse columns C."""
    n = len(C)
    data = [0] * (m * n)
    for j, col in enumerate(C):
        for i, x in col.items():
            data[i * n + j] = x
    return IntMatrix._raw(m, n, tuple(data))


def _echelon(C, m):
    """Bring rows 0..m-1 of the sparse {row: value} columns C to column
    echelon form in place, carrying rows m.. along; return the pivot count
    r. Minimal absolute value pivot, lowest column on ties, floor quotients.

    C[:r] is the (unique) Hermite normal form of the lattice the columns
    span in rows 0..m-1: pivot rows increase, pivots are positive, and each
    placed pivot reduces the earlier pivot columns into [0, pivot) in its
    row, which later steps never change, since they only subtract columns
    that are zero there. C[r:] is zero in rows 0..m-1.

    No row is scanned. At row r every non-pivot column is zero above r, so
    each is filed in `lead` under its lowest row below m, and row r's
    columns are exactly lead[r]. `hits[k]` lists the pivot positions that
    may be nonzero in row k: a position joins when its pivot is placed and
    when an earlier-pivot reduction creates its entry in row k, and is never
    removed, so a probe may find a zero. The operations, their quotients
    and their order within each column are those of a scan of every column."""
    n = len(C)
    lead = [[] for _ in range(m)]
    row_of = [m] * n  # the row position j is filed under, m if none
    for j, col in enumerate(C):
        if col:
            k = min(col)
            if k < m:
                lead[k].append(j)
                row_of[j] = k
    hits = [[] for _ in range(m)]
    c = 0
    for r in range(m):
        if c >= n:
            break
        nz = lead[r]
        if not nz:
            continue
        # clear row r to a single pivot among columns >= c; a reduction only
        # changes columns in nz, so the others stay zero in row r
        nz.sort()
        while len(nz) > 1:
            j0 = min(nz, key=lambda j: (abs(C[j][r]), j))
            p = C[j0][r]
            for j in nz:
                if j != j0:
                    _sub_scaled(C[j], C[j0], C[j][r] // p)
            kept = []
            for j in nz:
                col = C[j]
                if r in col:
                    kept.append(j)
                    continue
                # the entry in row r cancelled: file j under its new lowest row
                k = min(col) if col else m
                if k < m:
                    lead[k].append(j)
                row_of[j] = k
            nz = kept
        j0 = nz[0]
        if j0 != c:
            C[c], C[j0] = C[j0], C[c]
            k = row_of[c]
            if k < m:
                filed = lead[k]
                filed[filed.index(c)] = j0
            row_of[j0] = k
        col = C[c]
        if col[r] < 0:
            C[c] = col = {i: -x for i, x in col.items()}
        # reduce earlier pivot columns against this pivot for determinism
        p = col[r]
        for j in hits[r]:
            dst = C[j]
            q = dst.get(r, 0) // p
            if q:
                for i, x in col.items():
                    v = dst.get(i)
                    if v is None:
                        dst[i] = -q * x
                        if i < m:
                            hits[i].append(j)
                    elif v != q * x:
                        dst[i] = v - q * x
                    else:
                        del dst[i]
        for i in col:
            if r < i < m:
                hits[i].append(c)
        c += 1
    return c


# Columns per elimination in `_hermite`. Chunks of 8 to 64 all beat one
# elimination of PSL(2,7)'s expanded d_2; 32 was the fastest on it and on
# A5's. On 100- and 200-generator symbolic d_2, 16 was about a third faster.
HERMITE_CHUNK = 32


def _hermite(C, m):
    """The Hermite basis (the pivot columns of `_echelon`) of the lattice the
    sparse columns C span in rows 0..m-1, leaving C unchanged. It is built
    HERMITE_CHUNK columns at a time on top of the basis so far; since the
    Hermite form is unique, the result is that of one elimination of all of
    C, while the columns that reduce to zero never fill in together."""
    return _span(C, m, None)[0]


def _unit_pivots(H):
    """Whether every pivot of the Hermite basis H is 1, which makes H
    saturated: no later column is nonzero in a column's pivot row, so an
    integer vector in H's Q-span has integer coordinates."""
    return all(col[min(col)] == 1 for col in H)


def _saturated(H):
    """Whether the Hermite basis H of r columns spans a saturated lattice
    (every Smith invariant 1), that is whether H^T maps onto Z^r: unit
    pivots say yes at once, else the Hermite basis of the rows of H, over
    r rows, must have its r pivots (H's columns are independent) all 1.
    Through `_span` it checks only the basis of what `_rank_span`'s unit
    pass leaves; `chains.quotient_by_split_summand` calls it directly."""
    if _unit_pivots(H):
        return True
    rows = {}
    for j, col in enumerate(H):
        for i, x in col.items():
            rows.setdefault(i, {})[j] = x
    return _span([rows[i] for i in sorted(rows)], len(H), len(H))[1]


def _span(C, m, bound):
    """(H, spans): H is `_hermite(C, m)`, built as there, and `spans` says
    whether C spans L, when every column of C lies in a saturated lattice L
    of rank `bound` (L = Z^m meet a Q-subspace). The build stops at the
    first basis so far of `bound` columns that is `_saturated`: a saturated
    sublattice of L of L's rank is L (Newman, Integral Matrices, ch. II),
    so the later columns leave the basis as it is. When `bound` is m, L is
    Z^m, whose Hermite basis is the identity, so `_unit_pivots` decides;
    this is how `_saturated` checks the rows of a basis. With `bound` None,
    all of C is eliminated and `spans` is False. `_rank_span` runs it on
    the columns its unit pass leaves; `_hermite` reads its basis."""
    H = []
    for s in range(0, max(len(C), 1), HERMITE_CHUNK):
        H += [dict(col) for col in C[s:s + HERMITE_CHUNK]]
        H = H[:_echelon(H, m)]
        if len(H) == bound and (_unit_pivots(H) if bound == m else _saturated(H)):
            return H, True
    return H, False


def _sub_scaled(dst, src, q):
    """dst -= q * src on sparse columns; q != 0."""
    for i, x in src.items():
        v = dst.get(i, 0) - q * x
        if v:
            dst[i] = v
        else:
            del dst[i]


def _masks2(C):
    """The sparse {row: value} columns C reduced mod 2, each as an int
    bitmask with bit i set where row i is odd."""
    return [sum(1 << i for i, x in col.items() if x & 1) for col in C]


def _independent2(masks):
    """Yield the index of each int bitmask (`_masks2`) that is independent
    over F_2 of the masks before it: XOR elimination that files each
    reduced column under its top bit. It runs only as far as it is read."""
    pivots = {}
    for j, x in enumerate(masks):
        while x:
            top = x.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = x
                yield j
                break
            x ^= p


def _rank2(masks):
    """Rank over F_2 of the columns given as int bitmasks (`_masks2`)."""
    return len(list(_independent2(masks)))


def _unit_pass(C, bound):
    """Pivots of entry 1 from the sparse columns C, and what they leave:
    (k, rest), with C unchanged. Each column is reduced by the pivots so
    far, in the order they were made, which clears it in their rows; a
    reduced column with an entry +-1 becomes a pivot, with its sign
    normalized, on the row of such an entry that the fewest columns of C
    meet (the lowest on ties), which keeps later reductions sparse. A
    column with no such entry is set aside and tried again after any pass
    that made a pivot. The k pivots are unitriangular on their rows, so
    they span a direct summand P of Z^m. `rest` is None once there are
    `bound` of them; else it is the nonzero columns set aside, all zero in
    P's rows, when a pass makes no pivot."""
    met = Counter(chain.from_iterable(C))  # row -> columns of C meeting it
    pivots = []  # (pivot row, column)
    todo = [(dict(col), 0) for col in C if col]  # (column, pivots applied)
    while todo:
        made = len(pivots)
        left = []
        for col, done in todo:
            for r, p in pivots[done:]:
                q = col.get(r)
                if q:
                    _sub_scaled(col, p, q)
            if not col:
                continue
            units = [i for i, x in col.items() if x == 1 or x == -1]
            if not units:
                left.append((col, len(pivots)))
                continue
            r = min(units, key=lambda i: (met[i], i))
            if col[r] < 0:
                col = {i: -x for i, x in col.items()}
            pivots.append((r, col))
            if len(pivots) == bound:
                return bound, None
        if len(pivots) == made:
            return made, [col for col, _ in left]
        todo = left
    return len(pivots), []


def _rank_span(C, m, bound=None):
    """(rank, spans) for the sparse columns C over m rows, as `len(H),
    spans` from `_span(C, m, bound)`, with C unchanged. The columns that
    are independent mod 2 go first into `_unit_pass`, as they are the
    likeliest to keep an entry +-1. When its k pivots reach `bound`, the
    columns span L: they span a direct summand of Z^m inside L of L's rank.
    Otherwise what they leave goes to `_span` with bound - k, and the rank
    is k plus its rank: Z^m is P + N, with N the vectors that are zero in
    the pivot rows, and L = P + (L meet N) is spanned exactly when N's part
    of it is. Every answer comes from exact integer arithmetic."""
    first = list(islice(_independent2(_masks2(C)), bound))
    chosen = set(first)
    k, rest = _unit_pass([C[j] for j in first]
                         + [col for j, col in enumerate(C) if j not in chosen], bound)
    if rest is None:
        return k, True
    H, spans = _span(rest, m, None if bound is None else bound - k)
    return k + len(H), spans


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
    """Rank over Q (field="Q") or F_p (field=p, p prime): over Q, that of
    `_rank_span`; over F_p, the number of Smith invariant factors of A that
    p does not divide."""
    if field == "Q":
        return _rank_span(_columns(A), A.rows)[0]
    p = int(field)
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return sum(1 for d in smith_normal_form(A).diagonal() if d % p)


def solve_integer_system(A, B):
    """Solve A*X = B over the integers.

    Returns X (an IntMatrix) or None when no integer solution exists: the
    deterministic solution of `_solve` on the sparse columns of A."""
    if A.rows != B.rows:
        raise DimensionMismatch("A and B need equal row counts")
    return _solve(_columns(A), A.rows, B)


def _solve(C, m, B):
    """Solve A*X = B over the integers, for A given as the m-row sparse
    columns C, which are stacked and reduced in place; X or None.

    X comes from back-substitution on the sparse column echelon form of
    [A; I]: each pivot column's rows 0..m-1 (its H part) reduce a column of
    B, and the quotients times its rows m.. (its V part) accumulate into X,
    so X = V*Y without a dense V."""
    n, k = len(C), B.cols
    # (pivot row, pivot, H part, V part) of each pivot column
    pivots = []
    for col in C[:_echelon(_stacked_columns(C, m), m)]:
        h = {i: x for i, x in col.items() if i < m}
        i = min(h)
        pivots.append((i, h[i], h, [(t - m, x) for t, x in col.items() if t >= m]))
    X = [0] * (n * k)
    for c in range(k):
        b = list(B.column(c))
        for i, p, h, v in pivots:
            if b[i] % p:
                return None
            q = b[i] // p
            if q:
                for t, y in h.items():
                    b[t] -= q * y
                for t, x in v:
                    X[t * k + c] += q * x
        if any(b):
            return None
    # every entry of X is an int sum of products, so it needs no checking
    return IntMatrix._raw(n, k, tuple(X))


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


def _kernel(C, m):
    """Hermite normal form basis of the integer kernel lattice of the m-row
    sparse columns C, as sparse columns over len(C) rows; C is stacked and
    reduced in place. The zero columns of the echelon form of [A; I] span
    the kernel in rows m..; the same elimination puts them in Hermite form,
    and no dense V is built."""
    n = len(C)
    C = _stacked_columns(C, m)
    r = _echelon(C, m)
    K = [{i - m: x for i, x in col.items()} for col in C[r:]]
    return K[:_echelon(K, n)]


def kernel_basis(A):
    """Canonical basis of the integer kernel lattice {x : A*x = 0}: the
    Hermite normal form (unique, hence golden-test stable) as length-`A.cols`
    tuples (see `_kernel`)."""
    K = _matrix(_kernel(_columns(A), A.rows), A.cols)
    return [K.column(j) for j in range(K.cols)]
