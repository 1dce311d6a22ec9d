"""Algebraic complexes over ZG and their chain-level operations.

An algebraic n-complex is a truncated free resolution
F_n -> ... -> F_1 -> F_0 -> Z -> 0 of the trivial module, recorded as ranks
(f_0..f_n) plus boundary matrices. Two modes:

* finite mode: boundaries are GroupRingMatrix over a FiniteGroupModel, and
  every check is exact in ZG;
* symbolic mode (infinite or unenumerated groups): boundaries are only
  their trivial-coefficient shadows, the complex pushed down to Z = Z[1],
  as GroupRingMatrix over ONE_ELEMENT; enough for Euler characteristics
  and field homology, so both modes share one code path.

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
    _composed_columns,
    _composed_masks2,
    _expanded_columns,
    _odd_support,
    _translates2,
    gr_integer_system,
    solve_gr_system,
)
from .intlinalg import (
    CertificateError,
    IntMatrix,
    _echelon,
    _kernel,
    _masks2,
    _matrix,
    _rank2,
    _rank_span,
    _saturated,
    _sub_scaled,
    infeasibility_certificate,
    rank_over_field,
)
from .presentations import Presentation

# budget units (solver calls and candidate tests) for certification; the
# correction search needs more room than the deficiency search
DEFAULT_CERTIFY_BUDGET = 600

# the group of order 1: the ring of a symbolic complex's boundaries is Z[1] = Z
ONE_ELEMENT = FiniteGroupModel(1, ((0,),), (0,), ())


class NotAChainMap(ValueError):
    pass


class NotSplit(ValueError):
    pass


class SummandBasisNotFound(ValueError):
    pass


@dataclass(frozen=True)
class AlgebraicComplex:
    """ranks = (f_0, ..., f_n); boundaries = (d_1, ..., d_n).

    Every boundary is a GroupRingMatrix over `model`, a FiniteGroupModel
    (finite mode), or over ONE_ELEMENT when model is None (symbolic mode:
    the group is unknown). presentation records provenance when the
    complex came from one.
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
        ring = self.model or ONE_ELEMENT
        for i, d in enumerate(self.boundaries, start=1):
            if not isinstance(d, GroupRingMatrix):
                raise TypeError("boundaries must be GroupRingMatrix")
            if not d.model.same_table(ring):
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
        return self.boundaries[i - 1].augmentation_matrix()


def fox_derivative(model, word, gen):
    """Fox derivative dw/dx_gen evaluated in ZG through `model`."""
    coeffs = [0] * model.order
    prefix = 0
    for c in map(ord, word.text):
        g = c >> 1
        image = model.generator_images[g]
        if not c & 1:
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
    must present the same group); without one, they are their shadows over
    ONE_ELEMENT: d_1 = 0 and d_2 the exponent sums.
    """
    d, k = P.num_generators, P.num_relators
    if model is None:
        d1 = GroupRingMatrix.zeros(ONE_ELEMENT, 1, d)
        d2 = GroupRingMatrix._raw(ONE_ELEMENT, d, k, IntMatrix(d, k, [
            P.relators[j].exponent_sum(i) for i in range(d) for j in range(k)]))
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


def validate_complex(F):
    """Check d o d = 0 exactly over the boundaries' ring, that the
    augmentation kills d_1, and (finite mode) exactness at F_0 and F_1;
    reports the Q-rank of the expanded d_2 and the Q-dimension of its
    kernel (the algebraic pi_2 size; in symbolic mode these are shadow
    quantities). The lattice and rank work runs only when the first two
    checks pass; otherwise those fields are None. Each expanded column of
    d_1 (of d_2) lies in the augmentation ideal (in ker d_1), a saturated
    lattice L, and `intlinalg._rank_span` gives the rank of the columns and
    whether they span L; L itself is never built, and no Hermite basis is
    read. Pivots of entry 1 span a direct summand, so when they reach L's
    rank the columns span L; only what they leave is put in Hermite form,
    which must reach the rest of L's rank and be saturated."""
    failures = []
    n = F.top_degree
    chain_ok = True
    for i in range(1, n):
        if not F.boundary(i).compose(F.boundary(i + 1)).is_zero():
            chain_ok = False
            failures.append(f"d_{i} o d_{i + 1} != 0")
    # the augmented complex needs eps o d_1 = 0: column sums of the shadow
    sh = F.shadow(1) if n >= 1 else None
    aug_ok = n < 1 or all(sum(sh.column(j)) == 0 for j in range(sh.cols))
    if not aug_ok:
        failures.append("augmentation does not kill d_1")
    exact0 = exact1 = d2_rank = ker_dim = None
    if chain_ok and aug_ok and n >= 1:
        order = F.boundary(1).model.order
        m0, m1 = F.ranks[0] * order, F.ranks[1] * order
        # exactness is a statement about a known group
        if F.finite_mode:
            # eps o d_1 = 0: the augmentation ideal has rank m0 - 1
            rank1, exact0 = _rank_span(_expanded_columns(F.boundary(1), False),
                                       m0, m0 - 1)
            if not exact0:
                failures.append("image of d_1 differs from the augmentation ideal")
        if n >= 2:
            # d_1 o d_2 = 0: ker d_1 has rank m1 - rank d_1
            bound = m1 - rank1 if F.finite_mode else None
            d2_rank, spans = _rank_span(_expanded_columns(F.boundary(2), False),
                                        m1, bound)
            if F.finite_mode:
                exact1 = spans
                if not exact1:
                    failures.append("ker d_1 differs from image of d_2")
            ker_dim = F.ranks[2] * order - d2_rank
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
    ext = d2.hstack(GroupRingMatrix.zeros(d2.model, f1, n))
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
    """Decide whether d_3 splits; F must pass `validate_complex` (not re-checked)."""
    if F.top_degree != 3:
        raise ValueError("split_test needs a top-degree-3 complex")
    if not F.finite_mode:
        raise ValueError("split_test requires finite mode")
    d3 = F.boundary(3)
    identity = GroupRingMatrix.identity(F.model, d3.cols)
    retraction = solve_gr_system(d3, identity, "left")
    if retraction is not None:
        return SplitReport(True, retraction)
    # the dense Smith form is an independent cross-check of the failed solve
    big, rhs = gr_integer_system(d3, identity, "left")
    cert = infeasibility_certificate(big, rhs)
    if cert is None or not cert.verify(big, rhs):
        raise CertificateError("no verified obstruction for an infeasible split")
    return SplitReport(False, None, cert)


def quotient_by_split_summand(F, report):
    """Collapse the split image of d_3: a top-degree-2 complex on a free
    complement of im(d_3) inside F_2, with d_2 restricted accordingly.

    The complement basis is chosen deterministically: the first subset of
    the (1 - d_3 o R)-images of the standard basis whose expanded columns
    are a lattice basis of ker(d_3 o R). R o d_3 = 1 (NotSplit if not)
    makes e = d_3 o R idempotent, so ker e = im(1 - e) over Z holds every
    subset's columns, a saturated lattice of rank (f_2 - f_3)|G|: a subset's
    Hermite basis must have that rank and be `intlinalg._saturated`. Its
    expanded columns are copies of its column blocks of 1 - e. The unit
    pass of `intlinalg._rank_span` does not pay here: on the PSL(2,7)
    wedge round trip it made the first subset's test about twice as slow
    (0.6 to 1.4 ms). F must pass `validate_complex` (not re-checked)."""
    if F.top_degree != 3:
        raise ValueError("quotient needs a top-degree-3 complex")
    model, order = F.model, F.model.order
    f0, f1, f2, f3 = F.ranks
    d3, R = F.boundary(3), report.retraction
    if not report.splits or R.compose(d3) != GroupRingMatrix.identity(model, f3):
        raise NotSplit("top boundary does not split")
    q = GroupRingMatrix.identity(model, f2) - d3.compose(R)
    m, rows = f2 - f3, f2 * order
    Q = _expanded_columns(q, False)
    for subset in combinations(range(f2), m):
        H = [dict(col) for j in subset for col in Q[j * order:(j + 1) * order]]
        H = H[:_echelon(H, rows)]
        if len(H) == m * order and _saturated(H):
            d2_new = F.boundary(2).compose(q.submatrix(range(f2), subset))
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
        except ValueError:
            return False


def _aug_compatible(f0):
    """Augmentation of each column of f0 must be 1 (eps o f0 = eps)."""
    aug = f0.augmentation_matrix()
    return all(sum(aug.column(j)) == 1 for j in range(aug.cols))


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
    one, zero = GroupRingElement.one(model), GroupRingElement.zero(model)
    return GroupRingMatrix(model, t0, s0, [one if i == 0 else zero
                                           for i in range(t0) for _ in range(s0)])


def _pi2(F):
    """pi_2 = ker d_2 as an f_2 x k ZG matrix and as sparse columns: the
    Hermite basis of the kernel lattice of the expanded d_2."""
    n, f1, f2 = F.model.order, F.ranks[1], F.ranks[2]
    K = _kernel(_expanded_columns(F.boundary(2), False), f1 * n)
    return GroupRingMatrix._raw(F.model, f2, len(K), _matrix(K, f2 * n)), K


def _lift_chain_map(src, tgt, budget):
    """Degree-wise lift of the identity on Z to a chain map src -> tgt, one
    budget unit and one solve per degree 1, 2. Returns [phi0, phi1, phi2] or
    None."""
    phi = [_canonical_degree0(src.model, tgt.ranks[0], src.ranks[0])]
    for k in (1, 2):
        if not budget.spend():
            return None
        rhs = phi[-1].compose(src.boundary(k))
        phi.append(solve_gr_system(tgt.boundary(k), rhs, "right"))
        if phi[-1] is None:
            return None
    return phi


def _merged(base, rows, corrections):
    """Fresh sparse columns: base plus sign * (v o rows[c]) for each
    correction (sign, (c, v)), sign = 1 or -1."""
    cols = [dict(col) for col in base]
    for sign, (c, v) in corrections:
        for col, add in zip(cols, _composed_columns(v, rows[c])):
            _sub_scaled(col, add, -sign)
    return cols


def _phi2_candidates(phi2, K_src, K_tgt, budget):
    """Yield (corrections, image) for the phi2 variants that keep the chain
    condition and whose image has the right rank over F_2: phi2 itself,
    then phi2 plus single and double corrections, one budget unit each,
    spent whether or not the candidate is yielded. A correction is
    (sign, (c, v)), sign 1 or -1, for omega = v e_c^T: the column v of
    K_tgt (a t_2 x 1 ZG matrix) placed in matrix column c. No omega is
    built here; `_attempt_orientation` builds it only for a candidate that
    passes its pi_2 test.

    image is the vec of (phi2 + sum sign * omega) o K_src as fresh sparse
    {row: value} columns, which the caller may reduce in place: phi2 o K_src
    plus v o (row c of K_src) = omega o K_src, by `groupring._composed_columns`.

    The F_2 test only rejects. Every image lies in L = ker d_2 of the
    target, a saturated lattice of rank r = K_tgt.cols, so L mod 2 has
    dimension r (Newman, Integral Matrices, ch. II), and an image that
    spans L has F_2 rank r; a candidate of another F_2 rank is not yielded,
    and only the caller's Hermite comparison accepts. Mod 2 an image is the
    XOR of the bitmasks of phi2 o K_src (`intlinalg._masks2`) and of each
    v o (row c of K_src); signs do not change it, so one `intlinalg._rank2`
    serves every sign choice of a single or a pair. A single's masks come
    from the translates of column j of K_tgt, built when j is first reached
    (`groupring._composed_masks2`), with no integer product. Row c of K_src
    and column v of K_tgt are sliced, and a single's integer image
    composed, only for a yielded candidate that names them."""
    s2, t2, r = K_src.rows, K_tgt.rows, K_tgt.cols
    base = _composed_columns(phi2, K_src)
    base2 = _masks2(base)
    rows, targets, translates = {}, {}, []

    def named(c, j):
        if c not in rows:
            rows[c] = K_src.submatrix((c,), range(K_src.cols))
        if j not in targets:
            targets[j] = K_tgt.submatrix(range(t2), (j,))
        return c, targets[j]

    if _rank2(base2) == r:
        yield (), _merged(base, rows, ())
    singles = []
    for c in range(s2):
        support = _odd_support(K_src, c)
        for j in range(r):
            if j == len(translates):
                translates.append(_translates2(K_tgt, j))
            masks = _composed_masks2(translates[j], support)
            singles.append(((c, j), masks))
            full = _rank2([x ^ y for x, y in zip(base2, masks)]) == r
            for sign in (1, -1):
                if not budget.spend():
                    return
                if full:
                    corrections = ((sign, named(c, j)),)
                    yield corrections, _merged(base, rows, corrections)
    for a, (wa, ma) in enumerate(singles):
        base_a = [x ^ y for x, y in zip(base2, ma)]
        for wb, mb in singles[a + 1:]:
            full = _rank2([x ^ y for x, y in zip(base_a, mb)]) == r
            for sa in (1, -1):
                for sb in (1, -1):
                    if not budget.spend():
                        return
                    if full:
                        corrections = ((sa, named(*wa)), (sb, named(*wb)))
                        yield corrections, _merged(base, rows, corrections)


def _contract_cone(phi, src, tgt, budget):
    """Contract the mapping cone of phi: src -> tgt, with C_n = src_(n-1)
    (+) tgt_n, one degree at a time: solve D1 s0 = 1, D2 s1 = 1 - s0 D1 and
    D3 s2 = 1 - s1 D2 with solve_gr_system, and accept only if s2 D3 = 1.
    Returns (s0, s1, s2) or None; the try costs one budget unit.

    D o D = 0 puts each right-hand side in ker D_k. A bounded acyclic
    complex of free modules is contractible, so then every lift exists
    whatever the earlier ones chose, and s2 D3 = 1 because D3 is injective:
    the try succeeds exactly when the cone has a contraction."""
    if not budget.spend():
        return None
    model = src.model
    D1 = phi[0].hstack(tgt.boundary(1))
    D2 = (-src.boundary(1)).hstack(
        GroupRingMatrix.zeros(model, src.ranks[0], tgt.ranks[2])).vstack(
        phi[1].hstack(tgt.boundary(2)))
    D3 = (-src.boundary(2)).vstack(phi[2])
    contraction = []
    rest = GroupRingMatrix.identity(model, D1.rows)
    for D in (D1, D2, D3):
        s = solve_gr_system(D, rest, "right")
        if s is None:
            return None
        contraction.append(s)
        rest = GroupRingMatrix.identity(model, D.cols) - s.compose(D)
    return tuple(contraction) if rest.is_zero() else None


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


def _attempt_orientation(src, tgt, K_src, K_tgt, goal, budget):
    """Try to certify src ~ tgt by lifting src -> tgt and contracting the
    cone; K_src and K_tgt are pi_2 = ker d_2 as ZG matrices and goal is
    K_tgt.vec as sparse columns (`_pi2`). A phi2 candidate goes on to the
    cone only when it maps K_src onto K_tgt: the ranks agree and its image
    has the Hermite form goal. Only then are its corrections
    omega = v o (row c of the identity) and its matrix built. Returns
    (forward src->tgt, backward, hom_src, hom_tgt) or None.

    `_phi2_candidates` yields only the candidates whose image has rank
    K_tgt.cols over F_2, which every image that spans pi_2 has, so that
    test only rejects; only a yielded candidate has an integer image,
    the base columns plus its one or two composed corrections. Only the
    Hermite comparison accepts: it reduces the sparse
    image columns in place with `intlinalg._echelon`, whose pivot columns
    are the Hermite normal form of the lattice they span, and compares them
    with goal. The Hermite form is unique, so this is the same decision as
    comparing the Hermite basis of the dense image with K_tgt.vec, in
    exact integers."""
    phi = _lift_chain_map(src, tgt, budget)
    if phi is None:
        return None
    for corrections, image in _phi2_candidates(phi[2], K_src, K_tgt, budget):
        if K_src.cols != K_tgt.cols or image[:_echelon(image, K_tgt.vec.rows)] != goal:
            continue
        phi2, s2 = phi[2], K_src.rows
        for sign, (c, v) in corrections:
            omega = v.compose(GroupRingMatrix.identity(src.model, s2)
                              .submatrix((c,), range(s2)))
            phi2 = phi2 + omega if sign > 0 else phi2 - omega
        cand = [phi[0], phi[1], phi2]
        contraction = _contract_cone(cand, src, tgt, budget)
        if contraction is None:
            continue
        back, hom_src, hom_tgt = _extract_certificate(cand, src, tgt, contraction)
        return tuple(cand), back, hom_src, hom_tgt
    return None


def certify_chain_equivalence(F, G, budget=DEFAULT_CERTIFY_BUDGET):
    """Decide chain-homotopy equivalence of two top-degree-2 complexes over
    the same finite group; both must pass `validate_complex` (not re-checked).

    Returns a fully verified EquivalenceCertificate, not_equivalent when the
    Euler characteristics differ (exact complexes of equal chi over one group
    have the same field homology), or unknown when the bounded constructive
    search is exhausted (`budget` counts solver calls and candidate tests).
    Each phi2 candidate that maps pi_2 isomorphically costs one unit for a
    cone contraction, built degree by degree; its blocks are the back maps
    and homotopies.
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
    pi_F, pi_G = _pi2(F), _pi2(G)
    for flip in (False, True):
        src, tgt, (K_src, _), (K_tgt, goal) = (
            (G, F, pi_G, pi_F) if flip else (F, G, pi_F, pi_G))
        res = _attempt_orientation(src, tgt, K_src, K_tgt, goal, b)
        if res is not None:
            there, back, hom_src, hom_tgt = res
            cert = (EquivalenceCertificate(back, there, hom_tgt, hom_src) if flip
                    else EquivalenceCertificate(there, back, hom_src, hom_tgt))
            if cert.verify(F, G):
                return CertifyOutcome("certificate", cert, "", b.used)
    return CertifyOutcome("unknown", None, "constructive search exhausted", b.used)
