"""Algebraic complexes over ZG and their chain-level operations.

An algebraic n-complex is a truncated free resolution
F_n -> ... -> F_1 -> F_0 -> Z -> 0 of the trivial module, recorded as ranks
(f_0..f_n) plus boundary matrices. Two modes:

* finite mode: boundaries are GroupRingMatrix over a FiniteGroupModel, and
  every check is exact in ZG;
* symbolic mode (infinite or unenumerated groups): boundaries carry only
  their trivial-coefficient shadow (entrywise augmentation, an IntMatrix),
  which is enough for Euler characteristics and field homology.

Boundary d_i maps F_i -> F_(i-1) and is stored as a ranks[i-1] x ranks[i]
matrix acting on column vectors; compositions use GroupRingMatrix.compose
(see groupring module for the left-module conventions).

Fox derivative convention: d(uv)/dx = du/dx + u*(dv/dx), dx/dx = 1,
d(x^-1)/dx = -x^-1; then sum_i (dw/dx_i)*(x_i - 1) = w - 1, which makes
d1 o d2 = 0 for every presentation complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .coset import FiniteGroupModel
from .groupring import (
    GroupRingElement,
    GroupRingMatrix,
    ModelMismatch,
    _assemble_blocks,
    _gr_solution,
    gr_integer_system,
    regular_rep_expand,
    solve_gr_system,
    unvec_columns,
    vec_columns,
)
from .intlinalg import (
    CertificateError,
    DimensionMismatch,
    IntMatrix,
    column_hnf,
    infeasibility_certificate,
    kernel_basis,
    rank_over_field,
    solve_integer_system,
)
from .presentations import Presentation

# budget units (solver calls and candidate tests) for certification; the
# correction search needs more room than the deficiency search
DEFAULT_CERTIFY_BUDGET = 600


class NotAChainMap(ValueError):
    pass


class NotSplit(ValueError):
    pass


class SummandBasisNotFound(ValueError):
    pass


@dataclass(frozen=True)
class AlgebraicComplex:
    """ranks = (f_0, ..., f_n); boundaries = (d_1, ..., d_n).

    model is a FiniteGroupModel (finite mode, GroupRingMatrix boundaries) or
    None (symbolic mode, IntMatrix shadows). presentation records provenance
    when the complex came from one.
    """
    ranks: tuple
    model: FiniteGroupModel | None
    boundaries: tuple
    presentation: Presentation | None = None

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        object.__setattr__(self, "boundaries", tuple(self.boundaries))
        if not self.ranks or self.ranks[0] < 1:
            raise ValueError("need f_0 >= 1")
        if any(r < 0 for r in self.ranks):
            raise ValueError("ranks must be nonnegative")
        if len(self.ranks) - 1 > 3:
            raise ValueError("top degree at most 3")
        if len(self.boundaries) != len(self.ranks) - 1:
            raise ValueError("need one boundary per positive degree")
        for i, d in enumerate(self.boundaries, start=1):
            if self.model is None:
                if not isinstance(d, IntMatrix):
                    raise TypeError("symbolic boundaries must be IntMatrix shadows")
            else:
                if not isinstance(d, GroupRingMatrix):
                    raise TypeError("finite-mode boundaries must be GroupRingMatrix")
                if not d.model.same_table(self.model):
                    raise ModelMismatch("boundary over a different group model")
            if (d.rows, d.cols) != (self.ranks[i - 1], self.ranks[i]):
                raise ValueError(f"d_{i} has shape {d.rows}x{d.cols}, "
                                 f"expected {self.ranks[i - 1]}x{self.ranks[i]}")

    @property
    def top_degree(self):
        return len(self.ranks) - 1

    @property
    def finite_mode(self):
        return self.model is not None

    def boundary(self, i):
        return self.boundaries[i - 1]

    def shadow(self, i):
        """Trivial-coefficient image of d_i (an IntMatrix), in either mode."""
        d = self.boundaries[i - 1]
        return d.augmentation_matrix() if self.finite_mode else d


def fox_derivative(model, word, gen):
    """Fox derivative dw/dx_gen evaluated in ZG through `model`."""
    coeffs = [0] * model.order
    prefix = 0
    for g, s in word.letters:
        image = model.generator_images[g]
        if s > 0:
            if g == gen:
                coeffs[prefix] += 1
            prefix = model.mult[prefix][image]
        else:
            prefix = model.mult[prefix][model.inverse[image]]
            if g == gen:
                coeffs[prefix] -= 1
    return GroupRingElement(model, coeffs)


def presentation_complex(P, model=None):
    """Chain complex of the presentation 2-complex: ranks (1, d, k), d_1
    entries x_i - 1, d_2 the Fox derivative matrix (d r_j / d x_i at (i,j)).

    With a FiniteGroupModel the boundaries are exact ZG matrices (the model
    must present the same group); without one, only the exponent shadows.
    """
    d, k = P.num_generators, P.num_relators
    if model is None:
        d1 = IntMatrix.zeros(1, d)
        d2 = IntMatrix(d, k, [P.relators[j].exponent_sum(i)
                              for i in range(d) for j in range(k)])
        return AlgebraicComplex((1, d, k), None, (d1, d2), P)
    if len(model.generator_images) != d:
        raise ModelMismatch("model generator count differs from presentation")
    for r in P.relators:
        if model.evaluate_word(r) != 0:
            raise ModelMismatch("model does not satisfy the presentation's relators")
    one = GroupRingElement.one(model)
    d1 = GroupRingMatrix(model, 1, d, [
        GroupRingElement.from_element(model, model.generator_images[i]) - one
        for i in range(d)])
    d2 = GroupRingMatrix(model, d, k, [
        fox_derivative(model, P.relators[j], i)
        for i in range(d) for j in range(k)])
    return AlgebraicComplex((1, d, k), model, (d1, d2), P)


def euler_characteristic(F):
    """Alternating sum with the top rank positive:
    f_n - f_(n-1) + ... +- f_0."""
    n = F.top_degree
    return sum((-1) ** (n - i) * f for i, f in enumerate(F.ranks))


@dataclass(frozen=True)
class ValidationReport:
    mode: str
    chain_ok: bool
    aug_d1_zero: bool
    exact_at_f0: bool | None
    exact_at_f1: bool | None
    d2_rank_q: int | None
    ker_d2_qdim: int | None
    failures: tuple

    @property
    def ok(self):
        return (self.chain_ok and self.aug_d1_zero
                and self.exact_at_f0 is not False
                and self.exact_at_f1 is not False)


def validate_complex(F, check_exactness=True):
    """Check d o d = 0 (exactly in finite mode, shadows otherwise), that the
    augmentation kills d_1, and (finite mode, when requested) exactness at
    F_0 and F_1 via integer-lattice comparison; reports the Q-rank of the
    expanded d_2 and the Q-dimension of its kernel (the algebraic pi_2
    size; in symbolic mode these are shadow quantities)."""
    failures = []
    n = F.top_degree
    chain_ok = True
    for i in range(1, n):
        if F.finite_mode:
            zero = F.boundary(i).compose(F.boundary(i + 1)).is_zero()
        else:
            zero = (F.shadow(i) * F.shadow(i + 1)).is_zero()
        if not zero:
            chain_ok = False
            failures.append(f"d_{i} o d_{i + 1} != 0")
    # the augmented complex needs eps o d_1 = 0: column sums of the shadow
    aug_ok = True
    if n >= 1:
        sh = F.shadow(1)
        aug_ok = all(sum(sh.entry(i, j) for i in range(sh.rows)) == 0
                     for j in range(sh.cols))
    if not aug_ok:
        failures.append("augmentation does not kill d_1")
    exact0 = exact1 = None
    d2_rank = ker_dim = None
    if F.finite_mode:
        order = F.model.order
        if check_exactness and n >= 1:
            E1 = regular_rep_expand(F.boundary(1))
            aug_row = IntMatrix(1, F.ranks[0] * order, [1] * (F.ranks[0] * order))
            exact0 = column_hnf(E1) == kernel_basis(aug_row)
            if not exact0:
                failures.append("image of d_1 differs from the augmentation ideal")
        if n >= 2:
            H2 = column_hnf(regular_rep_expand(F.boundary(2)))
            if check_exactness:
                exact1 = H2 == kernel_basis(E1)
                if not exact1:
                    failures.append("ker d_1 differs from image of d_2")
            d2_rank = len(H2)
            ker_dim = F.ranks[2] * order - d2_rank
    elif n >= 2:
        d2_rank = rank_over_field(F.shadow(2), "Q")
        ker_dim = F.ranks[2] - d2_rank
    return ValidationReport("finite" if F.finite_mode else "symbolic",
                            chain_ok, aug_ok, exact0, exact1,
                            d2_rank, ker_dim, tuple(failures))


def stabilize_wedge(F, n):
    """Wedge on n 2-spheres: f_2 grows by n, d_2 gains n zero columns,
    and the Euler characteristic grows by exactly n."""
    if F.top_degree != 2:
        raise ValueError("stabilize_wedge needs a top-degree-2 complex")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return F
    f0, f1, f2 = F.ranks
    d2 = F.boundary(2)
    if F.finite_mode:
        ext = d2.hstack(GroupRingMatrix.zeros(F.model, f1, n))
    else:
        ext = d2.hstack(IntMatrix.zeros(f1, n))
    return AlgebraicComplex((f0, f1, f2 + n), F.model,
                            (F.boundary(1), ext), F.presentation)


def attach_three_cells(F, d3):
    """Extend a top-degree-2 complex by 3-cells with boundary d3
    (requires d_2 o d_3 = 0 exactly)."""
    if F.top_degree != 2:
        raise ValueError("attach_three_cells needs a top-degree-2 complex")
    if not F.finite_mode:
        raise ValueError("attaching 3-cells requires finite mode")
    if not isinstance(d3, GroupRingMatrix):
        raise TypeError("d3 must be a GroupRingMatrix")
    if d3.rows != F.ranks[2]:
        raise ValueError("d3 must land in F_2")
    if not F.boundary(2).compose(d3).is_zero():
        raise NotAChainMap("d_2 o d_3 != 0")
    return AlgebraicComplex(F.ranks + (d3.cols,), F.model,
                            F.boundaries + (d3,), F.presentation)


@dataclass(frozen=True)
class SplitReport:
    """Whether the top boundary d_3 splits (has a left inverse over ZG).

    When it does, `retraction` satisfies retraction o d_3 = identity exactly;
    when it does not, `obstruction` is an integer-infeasibility certificate
    for the expanded retraction equations."""
    splits: bool
    retraction: GroupRingMatrix | None = None
    obstruction: object | None = None


def split_test(F):
    if F.top_degree != 3:
        raise ValueError("split_test needs a top-degree-3 complex")
    if not F.finite_mode:
        raise ValueError("split_test requires finite mode")
    d3 = F.boundary(3)
    identity = GroupRingMatrix.identity(F.model, d3.cols)
    big, rhs = gr_integer_system(d3, identity, "left")
    sol = solve_integer_system(big, rhs)
    if sol is not None:
        return SplitReport(True, _gr_solution(d3, identity, "left", sol))
    cert = infeasibility_certificate(big, rhs)
    if cert is None or not cert.verify(big, rhs):
        raise CertificateError("no verified obstruction for an infeasible split")
    return SplitReport(False, None, cert)


def quotient_by_split_summand(F, report):
    """Collapse the split image of d_3: a top-degree-2 complex on a free
    complement of im(d_3) inside F_2, with d_2 restricted accordingly.

    The complement basis is chosen deterministically: the first subset of
    the (1 - d_3 o R)-images of the standard basis whose expanded columns
    are a lattice basis of ker(d_3 o R)."""
    if F.top_degree != 3:
        raise ValueError("quotient needs a top-degree-3 complex")
    if not report.splits:
        raise NotSplit("top boundary does not split")
    model = F.model
    order = model.order
    f0, f1, f2, f3 = F.ranks
    d3, R = F.boundary(3), report.retraction
    e = d3.compose(R)
    q = GroupRingMatrix.identity(model, f2) - e
    m = f2 - f3
    K = kernel_basis(regular_rep_expand(e))
    if len(K) != m * order:
        raise SummandBasisNotFound(
            "kernel lattice rank does not match the expected free rank")
    for subset in combinations(range(f2), m):
        J = q.submatrix(range(f2), subset)
        if column_hnf(regular_rep_expand(J)) == K:
            d2_new = F.boundary(2).compose(J)
            return AlgebraicComplex((f0, f1, m), model,
                                    (F.boundary(1), d2_new), F.presentation)
    raise SummandBasisNotFound(
        "no coordinate subset of the complement projection is a free basis")


def homology_over_field(F, field):
    """Homology dimensions of F tensored with the trivial module over the
    field ("Q" or a prime p): h_0 = f_0 - rank d_1, h_i = f_i - rank d_i -
    rank d_(i+1). The Euler-Poincare identity holds by construction."""
    n = F.top_degree
    r = [rank_over_field(F.shadow(i), field) for i in range(1, n + 1)]
    r.append(0)
    out = [F.ranks[0] - r[0]]
    for i in range(1, n + 1):
        out.append(F.ranks[i] - r[i - 1] - r[i])
    return tuple(out)


# ---------------------------------------------------------------------------
# chain-homotopy equivalence certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Explicit chain maps and homotopies witnessing F ~ G.

    forward = (f_0, f_1, f_2): F -> G and backward = (g_0, g_1, g_2): G -> F
    are chain maps compatible with the augmentations;
    homotopies_gf = (h_0, h_1) satisfy g o f - id = d o h + h o d on F and
    homotopies_fg = (k_0, k_1) the same on G.
    """
    forward: tuple
    backward: tuple
    homotopies_gf: tuple
    homotopies_fg: tuple

    def verify(self, F, G):
        try:
            f0, f1, f2 = self.forward
            g0, g1, g2 = self.backward
            h0, h1 = self.homotopies_gf
            k0, k1 = self.homotopies_fg
            dF1, dF2 = F.boundary(1), F.boundary(2)
            dG1, dG2 = G.boundary(1), G.boundary(2)
            IF = [GroupRingMatrix.identity(F.model, r) for r in F.ranks]
            IG = [GroupRingMatrix.identity(G.model, r) for r in G.ranks]
            checks = [
                dG1.compose(f1) == f0.compose(dF1),
                dG2.compose(f2) == f1.compose(dF2),
                dF1.compose(g1) == g0.compose(dG1),
                dF2.compose(g2) == g1.compose(dG2),
                _aug_compatible(f0), _aug_compatible(g0),
                g0.compose(f0) - IF[0] == dF1.compose(h0),
                g1.compose(f1) - IF[1] == h0.compose(dF1) + dF2.compose(h1),
                g2.compose(f2) - IF[2] == h1.compose(dF2),
                f0.compose(g0) - IG[0] == dG1.compose(k0),
                f1.compose(g1) - IG[1] == k0.compose(dG1) + dG2.compose(k1),
                f2.compose(g2) - IG[2] == k1.compose(dG2),
            ]
            return all(checks)
        except Exception:
            return False


def _aug_compatible(f0):
    """Augmentation of each column of f0 must be 1 (eps o f0 = eps)."""
    return all(
        sum(f0.entry(i, j).augmentation() for i in range(f0.rows)) == 1
        for j in range(f0.cols))


@dataclass(frozen=True)
class CertifyOutcome:
    kind: str                      # "certificate" | "not_equivalent" | "unknown"
    certificate: EquivalenceCertificate | None = None
    reason: str = ""
    solver_calls: int = 0

    @property
    def equivalent(self):
        return self.kind == "certificate"


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, amount=1):
        self.used += amount
        return self.used <= self.limit


def _identity_certificate(F):
    ident = [GroupRingMatrix.identity(F.model, r) for r in F.ranks]
    z01 = GroupRingMatrix.zeros(F.model, F.ranks[1], F.ranks[0])
    z12 = GroupRingMatrix.zeros(F.model, F.ranks[2], F.ranks[1])
    return EquivalenceCertificate(tuple(ident), tuple(ident),
                                  (z01, z12), (z01, z12))


def _canonical_degree0(model, t0, s0):
    """t0 x s0 map sending every source basis vector to the first target
    basis vector (augmentation-compatible)."""
    one = GroupRingElement.one(model)
    z = GroupRingElement.zero(model)
    return GroupRingMatrix(model, t0, s0,
                           [one if i == 0 else z
                            for i in range(t0) for j in range(s0)])


def _lift_chain_map(src, tgt, budget):
    """Degree-wise lift of the identity on Z to a chain map src -> tgt.
    Returns [phi0, phi1, phi2] or None."""
    model = src.model
    phi0 = _canonical_degree0(model, tgt.ranks[0], src.ranks[0])
    if not budget.spend():
        return None
    phi1 = solve_gr_system(tgt.boundary(1), phi0.compose(src.boundary(1)), "right")
    if phi1 is None:
        return None
    if not budget.spend():
        return None
    phi2 = solve_gr_system(tgt.boundary(2), phi1.compose(src.boundary(2)), "right")
    if phi2 is None:
        return None
    return [phi0, phi1, phi2]


def _pi2_isomorphism(phi2, K_src, K_tgt):
    """Whether phi2 maps the kernel lattice pi_2 = ker d_2 of the source
    onto that of the target, given their Hermite bases K_src and K_tgt:
    the ranks agree and the images of K_src have the Hermite form K_tgt."""
    if len(K_src) != len(K_tgt):
        return False
    E = regular_rep_expand(phi2)
    basis_t = IntMatrix._raw(E.cols, len(K_src),
                             tuple(x for row in zip(*K_src) for x in row))
    return column_hnf(E * basis_t) == K_tgt


def _phi2_candidates(phi, src, tgt, K_tgt, budget):
    """Yield phi2 variants keeping the chain condition: base, then single
    and double corrections by kernel-lattice columns."""
    model = src.model
    order = model.order
    s2, t2 = src.ranks[2], tgt.ranks[2]
    yield phi[2]
    singles = []
    for c in range(s2):
        for v in K_tgt:
            entries = []
            for i in range(t2):
                coeffs = v[i * order:(i + 1) * order]
                entries.append(GroupRingElement(model, coeffs))
            omega = GroupRingMatrix(model, t2, s2, [
                entries[i] if j == c else GroupRingElement.zero(model)
                for i in range(t2) for j in range(s2)])
            singles.append(omega)
    for omega in singles:
        for sign in (1, -1):
            if not budget.spend():
                return
            yield phi[2] + (omega if sign > 0 else -omega)
    for a in range(len(singles)):
        for b in range(a + 1, len(singles)):
            for sa in (1, -1):
                for sb in (1, -1):
                    if not budget.spend():
                        return
                    omega = (singles[a] if sa > 0 else -singles[a]) + \
                            (singles[b] if sb > 0 else -singles[b])
                    yield phi[2] + omega


class _GrSystem:
    """Integer system linear in unknown ZG matrices.

    Each equation sum(terms) = rhs contributes one |G|-row block per entry
    of rhs, row-major; each entry of each unknown is one |G|-column block,
    in the order the unknowns were added.
    """

    def __init__(self, model):
        self.model = model
        self.unknowns = {}       # name -> (entry offset, rows, cols)
        self.total_entries = 0
        self.blocks = []         # (rhs entry, unknown entry, element, action)
        self.rhs = []            # rhs entries in block-row order

    def add_unknown(self, name, rows, cols):
        self.unknowns[name] = (self.total_entries, rows, cols)
        self.total_entries += rows * cols

    def add_equation(self, rhs, *terms):
        """sum(terms) = rhs for a known rhs. A term (K, "x") is compose(K, X):
        output (i,k) gains the right action of K_ij on X_jk. A term ("x", K)
        is compose(X, K): output (i,k) gains the left action of K_jk on X_ij."""
        base, cols = len(self.rhs), rhs.cols
        for a, b in terms:
            if isinstance(b, str):
                K, (off, xr, xc) = a, self.unknowns[b]
                if K.rows != rhs.rows or K.cols != xr or xc != cols:
                    raise DimensionMismatch(f"compose(K, {b}) does not fit")
                self.blocks += [
                    (base + i * cols + k, off + j * xc + k, K.entry(i, j),
                     GroupRingElement.right_action_matrix)
                    for i in range(K.rows) for j in range(K.cols)
                    for k in range(xc)]
            else:
                (off, xr, xc), K = self.unknowns[a], b
                if xr != rhs.rows or xc != K.rows or K.cols != cols:
                    raise DimensionMismatch(f"compose({a}, K) does not fit")
                self.blocks += [
                    (base + i * cols + k, off + i * xc + j, K.entry(j, k),
                     GroupRingElement.left_action_matrix)
                    for j in range(K.rows) for k in range(K.cols)
                    for i in range(xr)]
        self.rhs.extend(rhs.entries)

    def solve(self):
        big = _assemble_blocks(self.blocks, len(self.rhs), self.total_entries,
                               self.model.order)
        rhs = vec_columns(GroupRingMatrix(self.model, len(self.rhs), 1, self.rhs))
        sol = solve_integer_system(big, rhs)
        if sol is None:
            return None
        x = unvec_columns(self.model, self.total_entries, 1, sol).entries
        return {name: GroupRingMatrix(self.model, r, c, x[off:off + r * c])
                for name, (off, r, c) in self.unknowns.items()}


def _contract_cone(phi, src, tgt, budget):
    """Solve D s + s D = id for the mapping cone of phi: src -> tgt, with
    C_n = src_(n-1) (+) tgt_n; returns (s0, s1, s2) or None."""
    if not budget.spend():
        return None
    model = src.model
    dS1, dS2 = src.boundary(1), src.boundary(2)
    dT1, dT2 = tgt.boundary(1), tgt.boundary(2)
    s0, s1, s2 = src.ranks
    t0, t1, t2 = tgt.ranks
    D1 = phi[0].hstack(dT1)
    D2 = (-dS1).hstack(GroupRingMatrix.zeros(model, s0, t2)).vstack(
        phi[1].hstack(dT2))
    D3 = (-dS2).vstack(phi[2])
    c0, c1, c2, c3 = t0, s0 + t1, s1 + t2, s2
    sys = _GrSystem(model)
    sys.add_unknown("s0", c1, c0)
    sys.add_unknown("s1", c2, c1)
    sys.add_unknown("s2", c3, c2)
    sys.add_equation(GroupRingMatrix.identity(model, c0), (D1, "s0"))
    sys.add_equation(GroupRingMatrix.identity(model, c1), (D2, "s1"), ("s0", D1))
    sys.add_equation(GroupRingMatrix.identity(model, c2), (D3, "s2"), ("s1", D2))
    sys.add_equation(GroupRingMatrix.identity(model, c3), ("s2", D3))
    sol = sys.solve()
    if sol is None:
        return None
    return sol["s0"], sol["s1"], sol["s2"]


def _extract_certificate(phi, src, tgt, contraction):
    """Turn a cone contraction into the inverse chain map and homotopies.

    For the cone of phi: src -> tgt, the contraction blocks give a chain map
    back: tgt -> src, a homotopy on src for back o phi - id, and a homotopy
    on tgt for phi o back - id.
    """
    s0d, s1d, s2d = src.ranks
    t0d, t1d, t2d = tgt.ranks
    s0, s1, s2 = contraction
    back0 = s0.submatrix(range(s0d), range(t0d))
    e0 = s0.submatrix(range(s0d, s0d + t1d), range(t0d))
    h0 = s1.submatrix(range(s1d), range(s0d))                       # src0 -> src1
    back1 = s1.submatrix(range(s1d), range(s0d, s0d + t1d))
    e1 = s1.submatrix(range(s1d, s1d + t2d), range(s0d, s0d + t1d))
    h1 = s2.submatrix(range(s2d), range(s1d))                       # src1 -> src2
    back2 = s2.submatrix(range(s2d), range(s1d, s1d + t2d))
    back = (back0, back1, back2)
    hom_src = (h0, h1)
    hom_tgt = (-e0, -e1)
    return back, hom_src, hom_tgt


def _attempt_orientation(src, tgt, budget):
    """Try to certify src ~ tgt by lifting src -> tgt and contracting the
    cone. Returns (forward src->tgt, backward, hom_src, hom_tgt) or None."""
    phi = _lift_chain_map(src, tgt, budget)
    if phi is None:
        return None
    K_src = kernel_basis(regular_rep_expand(src.boundary(2)))
    K_tgt = kernel_basis(regular_rep_expand(tgt.boundary(2)))
    for phi2 in _phi2_candidates(phi, src, tgt, K_tgt, budget):
        if budget.used > budget.limit:
            return None
        if not _pi2_isomorphism(phi2, K_src, K_tgt):
            continue
        cand = [phi[0], phi[1], phi2]
        contraction = _contract_cone(cand, src, tgt, budget)
        if contraction is None:
            continue
        back, hom_src, hom_tgt = _extract_certificate(cand, src, tgt, contraction)
        return tuple(cand), back, hom_src, hom_tgt
    return None


def certify_chain_equivalence(F, G, budget=DEFAULT_CERTIFY_BUDGET):
    """Decide chain-homotopy equivalence of two top-degree-2 complexes over
    the same finite group.

    Returns a fully verified EquivalenceCertificate, NotEquivalent with the
    distinguishing invariant (Euler characteristic or field homology), or
    Unknown when the bounded constructive search is exhausted (`budget`
    counts solver calls and candidate tests).
    """
    if F.top_degree != 2 or G.top_degree != 2:
        raise ValueError("certification handles top-degree-2 complexes")
    if not (F.finite_mode and G.finite_mode):
        raise ValueError("certification requires finite mode")
    if not F.model.same_table(G.model):
        raise ModelMismatch("complexes live over different groups")
    b = _Budget(budget)
    if F.ranks == G.ranks and F.boundaries == G.boundaries:
        cert = _identity_certificate(F)
        if not cert.verify(F, G):
            raise CertificateError("identity certificate fails to verify")
        return CertifyOutcome("certificate", cert, "identical complexes", b.used)
    chiF, chiG = euler_characteristic(F), euler_characteristic(G)
    if chiF != chiG:
        return CertifyOutcome(
            "not_equivalent", None,
            f"euler characteristic differs: {chiF} vs {chiG}", b.used)
    for field in ("Q", 2, 3, 5):
        hF, hG = homology_over_field(F, field), homology_over_field(G, field)
        if hF != hG:
            return CertifyOutcome(
                "not_equivalent", None,
                f"homology over {field} differs: {hF} vs {hG}", b.used)
    res = _attempt_orientation(F, G, b)
    if res is not None:
        forward, back, hom_F, hom_G = res
        cert = EquivalenceCertificate(forward, back, hom_F, hom_G)
        if cert.verify(F, G):
            return CertifyOutcome("certificate", cert, "", b.used)
    res = _attempt_orientation(G, F, b)
    if res is not None:
        forward, back, hom_G, hom_F = res
        cert = EquivalenceCertificate(back, forward, hom_F, hom_G)
        if cert.verify(F, G):
            return CertifyOutcome("certificate", cert, "", b.used)
    return CertifyOutcome("unknown", None, "constructive search exhausted", b.used)
