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

`regular_rep_expand` replaces each entry z by the |G| x |G| integer matrix of
its action on coefficient columns (w -> w * z, the right regular action);
with the composition above this is multiplicative:
expand(M o N) = expand(M) * expand(N), and expand(identity) = identity.
Solving A o X = B or X o A = B over ZG reduces to an integer system whose
unknowns are the ZG coefficients of X, so equivariance is built in.
"""

from __future__ import annotations

from .intlinalg import CertificateError, DimensionMismatch, IntMatrix, solve_integer_system


class ModelMismatch(ValueError):
    pass


def _check_same_model(x, y):
    if x.model is not y.model and not x.model.same_table(y.model):
        raise ModelMismatch("elements live over different group models")


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


def gr_multiply(x, y):
    return x * y


class GroupRingMatrix:
    """rows x cols matrix over ZG; a left-module map ZG^cols -> ZG^rows."""

    __slots__ = ("model", "rows", "cols", "entries")

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
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

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
        z = GroupRingElement.zero(model)
        return cls(model, rows, cols, [z] * (rows * cols))

    @classmethod
    def identity(cls, model, n):
        one = GroupRingElement.one(model)
        z = GroupRingElement.zero(model)
        return cls(model, n, n, [one if i == j else z
                                 for i in range(n) for j in range(n)])

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def compose(self, other):
        """self o other (apply `other` first): entries sum_j other_jk * self_ij."""
        if not isinstance(other, GroupRingMatrix):
            raise TypeError("compose expects a GroupRingMatrix")
        if self.model is not other.model and not self.model.same_table(other.model):
            raise ModelMismatch("matrices live over different group models")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        n, p = self.cols, other.cols
        # the nonzero (j, self_ij) of each row and {j: other_jk} of each column
        rows = [[(j, b) for j, b in enumerate(self.entries[i * n:(i + 1) * n])
                 if not b.is_zero()] for i in range(self.rows)]
        cols = [{j: a for j, a in enumerate(other.entries[k::p]) if not a.is_zero()}
                for k in range(p)]
        out = []
        zero = GroupRingElement._raw(self.model, (0,) * self.model.order)
        for row in rows:
            for col in cols:
                acc = zero
                for j, b in row:
                    a = col.get(j)
                    if a is not None:
                        acc = acc + a * b
                out.append(acc)
        return GroupRingMatrix(self.model, self.rows, p, out)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch")
        return GroupRingMatrix(self.model, self.rows, self.cols,
                               [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch")
        return GroupRingMatrix(self.model, self.rows, self.cols,
                               [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return GroupRingMatrix(self.model, self.rows, self.cols,
                               [-a for a in self.entries])

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionMismatch("hstack needs equal row counts")
        entries = []
        for i in range(self.rows):
            entries.extend(self.entries[i * self.cols:(i + 1) * self.cols])
            entries.extend(other.entries[i * other.cols:(i + 1) * other.cols])
        return GroupRingMatrix(self.model, self.rows,
                               self.cols + other.cols, entries)

    def vstack(self, other):
        if self.cols != other.cols:
            raise DimensionMismatch("vstack needs equal column counts")
        return GroupRingMatrix(self.model, self.rows + other.rows, self.cols,
                               self.entries + other.entries)

    def submatrix(self, row_indices, col_indices):
        row_indices = tuple(row_indices)
        col_indices = tuple(col_indices)
        return GroupRingMatrix(self.model, len(row_indices), len(col_indices),
                               [self.entry(i, j) for i in row_indices
                                for j in col_indices])

    def is_zero(self):
        return all(e.is_zero() for e in self.entries)

    def is_identity(self):
        if self.rows != self.cols:
            return False
        one = GroupRingElement.one(self.model)
        z = GroupRingElement.zero(self.model)
        return all(self.entry(i, j) == (one if i == j else z)
                   for i in range(self.rows) for j in range(self.cols))

    def augmentation_matrix(self):
        """Entrywise augmentation (the trivial-coefficient shadow)."""
        return IntMatrix(self.rows, self.cols,
                         [e.augmentation() for e in self.entries])

    def __eq__(self, other):
        return (isinstance(other, GroupRingMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.model.same_table(other.model)
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"<GroupRingMatrix {self.rows}x{self.cols} over |G|={self.model.order}>"


def _assemble_blocks(blocks, block_rows, block_cols, model):
    """Dense (block_rows*|G|) x (block_cols*|G|) IntMatrix from (bi, bj, z,
    left) blocks, written straight from the multiplication table: block
    (bi, bj) gains the action of the ZG element z on coefficient columns,
    w -> z * w when left, else w -> w * z. A coefficient a of element i adds
    a at (row mult[i][j], column j) of a left block, for every j, and at
    (row mult[k][i], column k) of a right block, for every k. Blocks sharing
    a position sum."""
    n, mult = model.order, model.mult
    by_col = tuple(zip(*mult))
    width = block_cols * n
    out = [0] * (block_rows * n * width)
    for bi, bj, z, left in blocks:
        corner = bi * n * width + bj * n
        for i, a in enumerate(z.coeffs):
            if a:
                for c, r in enumerate(mult[i] if left else by_col[i], corner):
                    out[r * width + c] += a
    return IntMatrix._raw(block_rows * n, width, tuple(out))


def _expand(M, left):
    """Integer matrix whose block (i, j) is the left (or right) action of
    M_ij."""
    return _assemble_blocks(
        ((i, j, M.entry(i, j), left)
         for i in range(M.rows) for j in range(M.cols)),
        M.rows, M.cols, M.model)


def _transpose_grid(M):
    """The entries of M in transposed positions (no anti-involution)."""
    return GroupRingMatrix(M.model, M.cols, M.rows,
                           [M.entry(i, j) for j in range(M.cols)
                            for i in range(M.rows)])


def regular_rep_expand(M):
    """Expand a ZG matrix to the integer matrix of its action on stacked
    coefficient columns. Multiplicative for composition:
    expand(M o N) == expand(M) * expand(N)."""
    return _expand(M, False)


def vec_columns(M):
    """(rows*|G|) x cols integer matrix; column k stacks the coefficient
    vectors of M's column k."""
    n = M.model.order
    return IntMatrix._raw(M.rows * n, M.cols, tuple(
        x for i in range(M.rows)
        for row in zip(*(M.entry(i, k).coeffs for k in range(M.cols)))
        for x in row))


def unvec_columns(model, rows, cols, X):
    """Inverse of vec_columns for a rows x cols ZG matrix."""
    n = model.order
    entries = []
    for i in range(rows):
        for k in range(cols):
            entries.append(GroupRingElement._raw(
                model, tuple(X.entry(i * n + t, k) for t in range(n))))
    return GroupRingMatrix(model, rows, cols, entries)


def gr_integer_system(A, B, side):
    """Integer system (big, rhs) whose solutions x of big * x = rhs are the
    ZG coefficients of the X with A o X = B (side="right") or X o A = B
    (side="left").

    Right: big = regular_rep_expand(A) and x = vec_columns(X). Left: column
    i of x holds row i of X, since sum_j L(A_jk) X_ij = B_ik with L the left
    action; so big expands the transposed grid of A by left actions and
    x = vec_columns of the transposed grid of X.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if A.model is not B.model and not A.model.same_table(B.model):
        raise ModelMismatch("A and B live over different group models")
    if side == "right":
        if A.rows != B.rows:
            raise DimensionMismatch("A and B need equal row counts")
        return regular_rep_expand(A), vec_columns(B)
    if A.cols != B.cols:
        raise DimensionMismatch("A and B need equal column counts")
    return (_expand(_transpose_grid(A), True),
            vec_columns(_transpose_grid(B)))


def solve_gr_system(A, B, side):
    """Solve A o X = B (side="right") or X o A = B (side="left") over ZG.

    Returns the GroupRingMatrix X from the deterministic integer solver,
    re-verified by exact ZG composition, or None when certified infeasible.
    """
    sol = solve_integer_system(*gr_integer_system(A, B, side))
    return None if sol is None else _gr_solution(A, B, side, sol)


def _gr_solution(A, B, side, sol):
    """X from a solution of gr_integer_system(A, B, side), re-verified."""
    if side == "right":
        X = unvec_columns(A.model, A.cols, B.cols, sol)
        if A.compose(X) != B:
            raise CertificateError("solution fails A o X == B")
    else:
        X = _transpose_grid(unvec_columns(A.model, A.rows, B.rows, sol))
        if X.compose(A) != B:
            raise CertificateError("solution fails X o A == B")
    return X
