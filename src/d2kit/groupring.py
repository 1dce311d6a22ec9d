"""Exact arithmetic in ZG for a finite group G, and matrices of left-module
homomorphisms ZG^b -> ZG^a.

Conventions
-----------
Modules are *left* ZG-modules and matrices act on column vectors, with
coordinates multiplying matrix entries from the left:

    (M v)_i = sum_j v_j * M_ij.

Composition therefore reverses entry products:

    (M o N)_ik = sum_j N_jk * M_ij,

which is exactly the convention under which the Fox-derivative boundary
matrices of a presentation complex satisfy d1 o d2 = 0 (via the identity
sum_i (dw/dx_i) * (x_i - 1) = w - 1).

A rows x cols GroupRingMatrix is one (rows*|G|) x cols IntMatrix `vec`:
row i*|G| + t, column k holds the coefficient of element t in entry (i, k).
Sums, stacking and equality are IntMatrix operations on `vec`.

`regular_rep_expand` replaces each entry z by the |G| x |G| integer matrix of
its action on coefficient columns (w -> w * z, the right regular action);
with the composition above this is multiplicative:
expand(M o N) = expand(M) * expand(N), and expand(identity) = identity.
`_action_terms` is the one place that knows that action. `_expanded_columns`
(the expansion) and `_composed_columns` (vec of a product, with no
expansion) write it into sparse {row: value} columns; `regular_rep_expand`
and `compose` are their dense forms. `_translates2` writes it into bitmasks
mod 2, from which `_composed_masks2` reads a column times a row mod 2
with no integer product. Solving A o X = B or X o A = B over ZG
is the integer system that `_gr_system` assembles; its unknowns are the ZG
coefficients of X, so equivariance is built in.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import itemgetter

from .intlinalg import (
    CertificateError,
    DimensionMismatch,
    IntMatrix,
    _matrix,
    _solve,
)


class ModelMismatch(ValueError):
    pass


def _check_same_model(x, y):
    if x.model is not y.model and not x.model.same_table(y.model):
        raise ModelMismatch("operands live over different group models")


class GroupRingElement:
    __slots__ = ("model", "coeffs")

    def __init__(self, model, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != model.order:
            raise DimensionMismatch("coefficient vector length != group order")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _raw(cls, model, coeffs):
        """Wrap a tuple of model.order ints computed from elements, unchecked."""
        z = object.__new__(cls)
        object.__setattr__(z, "model", model)
        object.__setattr__(z, "coeffs", coeffs)
        return z

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElement is immutable")

    @classmethod
    def zero(cls, model):
        return cls(model, (0,) * model.order)

    @classmethod
    def one(cls, model):
        return cls.from_element(model, 0)

    @classmethod
    def from_element(cls, model, index, coeff=1):
        c = [0] * model.order
        c[index] = coeff
        return cls(model, c)

    @classmethod
    def from_pairs(cls, model, pairs):
        c = [0] * model.order
        for index, coeff in pairs:
            c[index] += coeff
        return cls(model, c)

    def to_pairs(self):
        """Sparse (element index, coefficient) pairs, sorted, zeros omitted."""
        return tuple((i, c) for i, c in enumerate(self.coeffs) if c)

    def augmentation(self):
        return sum(self.coeffs)

    def is_zero(self):
        return not any(self.coeffs)

    def __add__(self, other):
        _check_same_model(self, other)
        return GroupRingElement._raw(
            self.model, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        _check_same_model(self, other)
        return GroupRingElement._raw(
            self.model, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return GroupRingElement._raw(self.model, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement._raw(self.model,
                                         tuple(other * a for a in self.coeffs))
        _check_same_model(self, other)
        mult = self.model.mult
        out = [0] * self.model.order
        for i, a in enumerate(self.coeffs):
            if a:
                row = mult[i]
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[row[j]] += a * b
        return GroupRingElement._raw(self.model, tuple(out))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        return (isinstance(other, GroupRingElement)
                and self.model.same_table(other.model)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"GroupRingElement({self.to_pairs()!r})"


class GroupRingMatrix:
    """rows x cols matrix over ZG; a left-module map ZG^cols -> ZG^rows,
    stored as the (rows*|G|) x cols coefficient matrix `vec`."""

    __slots__ = ("model", "rows", "cols", "vec")

    def __init__(self, model, rows, cols, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch("wrong number of entries")
        checked = model
        for e in entries:
            if not isinstance(e, GroupRingElement):
                raise TypeError("entries must be GroupRingElements")
            if e.model is not model and e.model is not checked:
                if not e.model.same_table(model):
                    raise ModelMismatch("entry over a different group model")
                checked = e.model
        n = model.order
        data = [0] * (rows * n * cols)
        for k, e in enumerate(entries):
            i, j = divmod(k, cols)
            data[i * n * cols + j:(i + 1) * n * cols:cols] = e.coeffs
        self._set(model, rows, cols, IntMatrix._raw(rows * n, cols, tuple(data)))

    def _set(self, *values):
        for name, value in zip(GroupRingMatrix.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _raw(cls, model, rows, cols, vec):
        """Wrap a (rows*model.order) x cols IntMatrix computed from matrices,
        unchecked."""
        M = object.__new__(cls)
        M._set(model, rows, cols, vec)
        return M

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingMatrix is immutable")

    @classmethod
    def from_rows(cls, model, rows_of_entries):
        rows = list(rows_of_entries)
        m = len(rows)
        n = len(rows[0]) if m else 0
        return cls(model, m, n, [e for row in rows for e in row])

    @classmethod
    def zeros(cls, model, rows, cols):
        return cls._raw(model, rows, cols, IntMatrix.zeros(rows * model.order, cols))

    @classmethod
    def identity(cls, model, n):
        data = [0] * (n * model.order * n)
        data[::model.order * n + 1] = (1,) * n
        return cls._raw(model, n, n, IntMatrix._raw(n * model.order, n, tuple(data)))

    def entry(self, i, j):
        c = self.cols
        span = self.model.order * c
        return GroupRingElement._raw(
            self.model, self.vec.data[i * span + j:(i + 1) * span:c])

    @property
    def entries(self):
        """The entries as GroupRingElements, row by row."""
        return tuple(self.entry(i, j)
                     for i in range(self.rows) for j in range(self.cols))

    def compose(self, other):
        """self o other (apply `other` first): entries sum_j other_jk * self_ij."""
        if not isinstance(other, GroupRingMatrix):
            raise TypeError("compose expects a GroupRingMatrix")
        _check_same_model(self, other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        return GroupRingMatrix._raw(self.model, self.rows, other.cols, _matrix(
            _composed_columns(self, other), self.vec.rows))

    # over one model, vec shapes agree exactly when the ZG shapes do
    def __add__(self, other):
        _check_same_model(self, other)
        return GroupRingMatrix._raw(self.model, self.rows, self.cols,
                                    self.vec + other.vec)

    def __sub__(self, other):
        _check_same_model(self, other)
        return GroupRingMatrix._raw(self.model, self.rows, self.cols,
                                    self.vec - other.vec)

    def __neg__(self):
        return GroupRingMatrix._raw(self.model, self.rows, self.cols, -self.vec)

    def hstack(self, other):
        _check_same_model(self, other)
        return GroupRingMatrix._raw(self.model, self.rows, self.cols + other.cols,
                                    self.vec.hstack(other.vec))

    def vstack(self, other):
        _check_same_model(self, other)
        return GroupRingMatrix._raw(self.model, self.rows + other.rows, self.cols,
                                    self.vec.vstack(other.vec))

    def submatrix(self, row_indices, col_indices):
        n, row_indices, col_indices = self.model.order, tuple(row_indices), tuple(col_indices)
        vrows = [self.vec.row(i * n + t) for i in row_indices for t in range(n)]
        return GroupRingMatrix._raw(
            self.model, len(row_indices), len(col_indices),
            IntMatrix._raw(len(vrows), len(col_indices),
                           tuple(row[j] for row in vrows for j in col_indices)))

    def is_zero(self):
        return self.vec.is_zero()

    def is_identity(self):
        return (self.rows == self.cols
                and self.vec == GroupRingMatrix.identity(self.model, self.rows).vec)

    def augmentation_matrix(self):
        """Entrywise augmentation (the trivial-coefficient shadow)."""
        span = self.model.order * self.cols
        data = self.vec.data
        return IntMatrix._raw(self.rows, self.cols, tuple(
            sum(data[i * span + j:(i + 1) * span:self.cols])
            for i in range(self.rows) for j in range(self.cols)))

    def __eq__(self, other):
        return (isinstance(other, GroupRingMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.model.same_table(other.model)
                and self.vec == other.vec)

    def __hash__(self):
        return hash((self.rows, self.cols, self.vec))

    def __repr__(self):
        return f"<GroupRingMatrix {self.rows}x{self.cols} over |G|={self.model.order}>"


def _action_terms(M, left, js=None):
    """Yield (i, j, a, perm) for each nonzero coefficient a, of element t in
    entry M_ij: block (i, j) of the action of M gains a at (perm[x], x) for
    every x, where perm[x] = t * x when left (w -> z * w) and x * t otherwise
    (w -> w * z). The only matrix code that reads the multiplication table.

    Terms come column by column, over the columns j in `js` (all by
    default), and perm is built only for an element t with a term there."""
    n, cols, data, mult = M.model.order, M.cols, M.vec.data, M.model.mult
    rows = range(M.rows * n)
    perms = {}
    for j in range(cols) if js is None else js:
        col = data[j::cols]
        for r in compress(rows, col):
            i, t = divmod(r, n)
            perm = perms.get(t)
            if perm is None:
                perm = perms[t] = mult[t] if left else tuple(map(itemgetter(t), mult))
            yield i, j, col[r], perm


def _expanded_columns(M, left):
    """The columns, as sparse {row: value} dicts, of the (rows*|G|) x
    (cols*|G|) integer matrix whose block (i, j) is the left (or right)
    action of M_ij on coefficient columns. Within one entry distinct
    elements t give distinct perm[x], so no cell gets two terms."""
    n = M.model.order
    C = [{} for _ in range(M.cols * n)]
    for i, j, a, perm in _action_terms(M, left):
        base = i * n
        for col, y in zip(C[j * n:(j + 1) * n], perm):
            col[base + y] = a
    return C


def _composed_columns(A, B):
    """vec(A o B) as sparse {row: value} columns, cells that cancel dropped;
    A.cols == B.rows over one model (not checked). Term by term,
    vec(A o B) = expand(A) * B.vec: a term (i, j, a, perm) of A adds a * row
    (j, x) of B.vec to row (i, perm[x])."""
    n, p, data = A.model.order, B.cols, B.vec.data
    # the nonzero rows (x, [(k, b), ...]) of each row block j of B.vec
    nonzero = {}
    for e in compress(range(len(data)), data):
        r, k = divmod(e, p)
        nonzero.setdefault(r, []).append((k, data[e]))
    blocks = [[] for _ in range(B.rows)]
    for r, src in nonzero.items():
        blocks[r // n].append((r % n, src))
    C = [{} for _ in range(p)]
    js = [j for j, block in enumerate(blocks) if block]
    for i, j, a, perm in _action_terms(A, False, js):
        for x, src in blocks[j]:
            row = i * n + perm[x]
            for k, b in src:
                col = C[k]
                col[row] = col.get(row, 0) + a * b
    return [{i: x for i, x in col.items() if x} for col in C]


def _translates2(M, j):
    """Column j of M mod 2 moved by each x in G: |G| int bitmasks, the one
    for x with bit i*|G| + x*t set for each odd coefficient of element t
    in M_ij. Within one entry distinct t give distinct x*t, so no bit is
    set twice."""
    n = M.model.order
    T = [0] * n
    for i, _, a, perm in _action_terms(M, False, (j,)):
        if a & 1:
            base = i * n
            T = [m | 1 << (base + y) for m, y in zip(T, perm)]
    return T


def _odd_support(B, c):
    """Row c of B mod 2: for each column k, the elements x whose
    coefficient in B_ck is odd."""
    n, p = B.model.order, B.cols
    row = B.vec.data[c * n * p:(c + 1) * n * p]
    return [tuple(compress(range(n), [b & 1 for b in row[k::p]]))
            for k in range(p)]


def _composed_masks2(T, support):
    """`intlinalg._masks2(_composed_columns(v, row))` for a column v with
    translates T = `_translates2(v, 0)` and a row with odd elements
    `_odd_support(row, 0)`. Term by term that product adds a * b at row
    i*|G| + x*t of column k for b the coefficient of x in row_k; mod 2
    the cell is the XOR of the odd products, so column k is the XOR of
    T[x] over the x with b odd."""
    masks = []
    for xs in support:
        m = 0
        for x in xs:
            m ^= T[x]
        masks.append(m)
    return masks


def _transpose_grid(M):
    """The entries of M in transposed positions (no anti-involution): row
    j*|G| + t of the result's vec is column j of the rows i*|G| + t of M.vec."""
    n, cols, data = M.model.order, M.cols, M.vec.data
    return GroupRingMatrix._raw(M.model, cols, M.rows, IntMatrix._raw(
        cols * n, M.rows, tuple(chain.from_iterable(
            data[r % n * cols + r // n::n * cols] for r in range(cols * n)))))


def regular_rep_expand(M):
    """Expand a ZG matrix to the integer matrix of its action on stacked
    coefficient columns. Multiplicative for composition:
    expand(M o N) == expand(M) * expand(N)."""
    return _matrix(_expanded_columns(M, False), M.rows * M.model.order)


def _gr_system(A, B, side):
    """(columns, m, rhs): the sparse columns of an m-row integer matrix big
    and an IntMatrix rhs such that the solutions x of big * x = rhs are the
    ZG coefficients of the X with A o X = B (side="right") or X o A = B
    (side="left").

    Right: big = regular_rep_expand(A) and x = X.vec. Left: column i of x
    holds row i of X, since sum_j L(A_jk) X_ij = B_ik with L the left
    action; so big expands the transposed grid of A by left actions and
    x is the vec of the transposed grid of X.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    _check_same_model(A, B)
    if side == "right":
        if A.rows != B.rows:
            raise DimensionMismatch("A and B need equal row counts")
        return _expanded_columns(A, False), B.vec.rows, B.vec
    if A.cols != B.cols:
        raise DimensionMismatch("A and B need equal column counts")
    rhs = _transpose_grid(B).vec
    return _expanded_columns(_transpose_grid(A), True), rhs.rows, rhs


def gr_integer_system(A, B, side):
    """The system of `_gr_system` as dense IntMatrices (big, rhs)."""
    C, m, rhs = _gr_system(A, B, side)
    return _matrix(C, m), rhs


def solve_gr_system(A, B, side):
    """Solve A o X = B (side="right") or X o A = B (side="left") over ZG.

    Returns the GroupRingMatrix X from the deterministic integer solver,
    re-verified by exact ZG composition, or None when certified infeasible.
    """
    sol = _solve(*_gr_system(A, B, side))
    if sol is None:
        return None
    if side == "right":
        X = GroupRingMatrix._raw(A.model, A.cols, B.cols, sol)
        if A.compose(X) != B:
            raise CertificateError("solution fails A o X == B")
    else:
        X = _transpose_grid(GroupRingMatrix._raw(A.model, A.rows, B.rows, sol))
        if X.compose(A) != B:
            raise CertificateError("solution fails X o A == B")
    return X
