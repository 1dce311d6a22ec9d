"""Invariant reports: mu_2 sandwich bounds, Swan's inequality, the stable
wedge index (how many 2-spheres suffice before a cohomologically
2-dimensional 3-complex collapses to a presentation complex), realization
checks for classifying spaces, and sub-presentation inheritance.

Bound conventions. Swan's rational-homology bound gives
mu_2(G) >= 1 - b_1 + b_2; we certify finiteness (then b_1 = b_2 = 0 and the
bound is 1) or drop the nonnegative b_2 term and use 1 - b_1 from the
abelianization. Every presentation P gives the witness upper bound
mu_2(G) <= 1 - def(P). A tight sandwich pins both mu_2(G) and def(G) with
def = 1 - mu_2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import euler_characteristic
from .coset import DEFAULT_MAX_COSETS, todd_coxeter
from .groupring import _expanded_columns
from .intlinalg import _rank_span
from .presentations import abelianization, deficiency
from .tietze import deficiency_search, subpresentation

DEFAULT_SEARCH_BUDGET = 60


class NotCertifiedFinite(ValueError):
    pass


def _lower_bound(P, max_cosets):
    """(order, h1, (bound, provenance)) for the mu_2 lower bound: |G|
    certified by one coset enumeration, or None when it is incomplete; P's
    abelianization (its invariant factors) h1; and the bound with its
    provenance. When b_1 > 0 the group is infinite, no enumeration can
    complete, and none is run."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    h1 = abelianization(P).invariant_factors
    b1, order = h1.free_rank, None
    if b1 == 0:
        tc = todd_coxeter(P, max_cosets)
        order = tc.num_cosets if tc.complete else None
    if order is not None:
        return order, h1, (
            1, f"finite group of order {order}: rational Betti numbers vanish")
    return order, h1, (
        1 - b1, f"1 - b_1 with b_1 = {b1} (rational first Betti number)")


def mu2_lower_bound(P, max_cosets=DEFAULT_MAX_COSETS):
    """Certified lower bound for mu_2 of the presented group.

    With a finite order certified by coset enumeration the bound is 1;
    otherwise 1 - b_1 from the abelianization (the nonnegative b_2 term of
    the rational bound is dropped, which keeps it a valid lower bound). The
    abelianization comes first: when b_1 > 0 the group is infinite and no
    enumeration is run.
    Returns (bound, provenance string).
    """
    return _lower_bound(P, max_cosets)[2]


@dataclass(frozen=True)
class Mu2Sandwich:
    lower: int
    lower_provenance: str
    upper: int
    upper_provenance: str
    tight: bool
    witness: object  # Presentation achieving the upper bound

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("sandwich bounds crossed; a certificate is wrong")


def _sandwich(search, lower, lower_prov):
    upper = 1 - search.deficiency
    upper_prov = (f"1 - def of best found presentation "
                  f"(def = {search.deficiency}, visited {search.visited})")
    return Mu2Sandwich(lower, lower_prov, upper, upper_prov, lower == upper,
                       search.best)


def mu2_sandwich(P, search_budget=DEFAULT_SEARCH_BUDGET,
                 max_cosets=DEFAULT_MAX_COSETS):
    """Two-sided estimate of mu_2: lower from rational homology, upper as
    1 - def(best presentation found). When tight, def(G) = 1 - mu_2(G) and
    both invariants are exactly determined."""
    lower = _lower_bound(P, max_cosets)[2]
    return _sandwich(deficiency_search(P, search_budget), *lower)


@dataclass(frozen=True)
class SwanReport:
    deficiency: int
    mu2_lower: int
    certified_finite: bool
    swan_ok: bool                  # def(P) <= 1 - mu2_lower
    finite_bound_ok: bool | None   # finite groups: def(P) <= 0
    conjectural_lower: int         # -mu2_lower (conditional bound, labeled)
    conjectural_consistent: bool
    notes: tuple


def _swan_report(def_value, mu2_low, certified_finite):
    swan_ok = def_value <= 1 - mu2_low
    finite_ok = (def_value <= 0) if certified_finite else None
    conj = -mu2_low
    notes = [f"Swan inequality: def <= 1 - mu2 ({def_value} <= {1 - mu2_low})"
             + ("" if swan_ok else " VIOLATED")]
    if certified_finite:
        notes.append(f"finite group: def <= 0 ({def_value} <= 0)"
                     + ("" if finite_ok else " VIOLATED"))
    notes.append("conditional (normal generation conjecture): def >= -mu2 "
                 f"(def >= {conj})")
    consistent = def_value >= conj or not certified_finite
    return SwanReport(def_value, mu2_low, certified_finite, swan_ok,
                      finite_ok, conj, consistent, tuple(notes))


def swan_inequality_check(P, max_cosets=DEFAULT_MAX_COSETS):
    """Verify def(P) <= 1 - mu2_lower_bound for this presentation, plus the
    finite-group bound def <= 0 when finiteness is certified; records the
    conjecture-conditional bound def >= -mu2 without asserting it."""
    order, _, (bound, _) = _lower_bound(P, max_cosets)
    return _swan_report(deficiency(P), bound, order is not None)


@dataclass(frozen=True)
class D2nEstimate:
    """n_upper = 2 - def_found - mu2_lower: wedging this many 2-spheres
    collapses any finite 3-complex chain of cohomological dimension <= 2
    over the group to a presentation-complex chain type. Valid as an upper
    bound because def_found <= def(G), mu2_lower <= mu2(G), and the wedge
    property is monotone in n."""
    n_upper: int
    def_found: int
    def_provenance: str
    mu2_lower: int
    mu2_provenance: str


def _d2n(search, lower, lower_prov):
    return D2nEstimate(2 - search.deficiency - lower, search.deficiency,
                       f"deficiency search, visited {search.visited}",
                       lower, lower_prov)


def d2n_estimate(P, search_budget=DEFAULT_SEARCH_BUDGET,
                 max_cosets=DEFAULT_MAX_COSETS):
    order, _, lower = _lower_bound(P, max_cosets)
    if order is None:
        raise NotCertifiedFinite(
            "the wedge index bound applies to certified finite groups only")
    return _d2n(deficiency_search(P, search_budget), *lower)


@dataclass(frozen=True)
class PresentationAnalysis:
    """One-pass bundle for the full invariant pipeline (one abelianization,
    at most one enumeration, none when b_1 > 0, and one deficiency search
    shared by all reports)."""
    order: int | None
    h1: object
    perfect: bool
    def_given: int
    sandwich: Mu2Sandwich
    swan: SwanReport
    d2n: D2nEstimate | None


def analyze_presentation(P, search_budget=DEFAULT_SEARCH_BUDGET,
                         max_cosets=DEFAULT_MAX_COSETS):
    order, h1, lower = _lower_bound(P, max_cosets)
    search = deficiency_search(P, search_budget)
    return PresentationAnalysis(
        order, h1, h1.is_trivial(), deficiency(P), _sandwich(search, *lower),
        _swan_report(deficiency(P), lower[0], order is not None),
        None if order is None else _d2n(search, *lower))


@dataclass(frozen=True)
class RealizationReport:
    realizes: bool                 # chi equals the tight sandwich value
    chi: int
    mu2: int | None
    bg_clause: str                 # "asserted-aspherical" | "suppressed-finite"
                                   # | "not-realized" | "sandwich-not-tight"
    kernel_qdim: int | None        # Q-dim of ker d_2 (shadow in symbolic mode)
    kernel_conflict: bool
    notes: tuple


def realization_check(F, sandwich, certified_finite=None):
    """Does this presentation complex realize the geometric mu_2 minimum?

    With a tight sandwich and chi(F) equal to it, the complex realizes the
    minimum. The classifying-space conclusion (the complex is a finite
    2-dimensional BG) additionally needs asphericity, which is
    caller-asserted for infinite groups and impossible for finite ones
    (finite groups have no finite-dimensional classifying space), so the
    clause is suppressed there. The computable shadow reported here is the
    Q-dimension of ker d_2 over the boundaries' ring (ZG, or Z in symbolic
    mode), which vanishes for an aspherical complex."""
    if F.top_degree != 2:
        raise ValueError("realization check applies to top-degree-2 complexes")
    if certified_finite is None:
        certified_finite = F.finite_mode
    chi = euler_characteristic(F)
    notes = []
    d2 = F.boundary(2)
    E2 = _expanded_columns(d2, False)
    kernel_qdim = len(E2) - _rank_span(E2, d2.rows * d2.model.order)[0]
    if not F.finite_mode:
        notes.append("kernel dimension is the exponent-shadow value "
                     "(strictly weaker than the ZG statement)")
    if not sandwich.tight:
        return RealizationReport(False, chi, None, "sandwich-not-tight",
                                 kernel_qdim, False, tuple(notes))
    mu2 = sandwich.lower
    realizes = chi == mu2
    if not realizes:
        return RealizationReport(False, chi, mu2, "not-realized",
                                 kernel_qdim, False, tuple(notes))
    if certified_finite:
        notes.append("finite groups have no finite-dimensional classifying "
                     "space; BG conclusion suppressed")
        return RealizationReport(True, chi, mu2, "suppressed-finite",
                                 kernel_qdim, kernel_qdim != 0, tuple(notes))
    notes.append("complex realizes the geometric mu_2 minimum; it is a "
                 "finite 2-dimensional classifying space provided the "
                 "caller-asserted asphericity holds")
    return RealizationReport(True, chi, mu2, "asserted-aspherical",
                             kernel_qdim, kernel_qdim != 0, tuple(notes))


@dataclass(frozen=True)
class SubcomplexReport:
    sub_chi: int
    inherited_mu2g: int            # the value the sub-presentation realizes
    cross_check_upper: int
    cross_check_lower: int
    cross_check_tight: bool
    inconsistent_evidence: bool
    notes: tuple


def subcomplex_realization_report(P, sub_gens, sub_rels, evidence,
                                  search_budget=DEFAULT_SEARCH_BUDGET,
                                  max_cosets=DEFAULT_MAX_COSETS):
    """If P realizes the geometric mu_2 minimum of its group (tight
    `evidence` sandwich supplied by the caller), every sub-presentation
    realizes the minimum for its own group. Emits that conclusion for the
    given sub-presentation and cross-checks it with a fresh sandwich: a
    search that beats the inherited value contradicts the caller's evidence
    and is flagged."""
    sub = subpresentation(P, sub_gens, sub_rels)
    notes = []
    if not evidence.tight:
        notes.append("caller evidence is not a tight sandwich; conclusion "
                     "is conditional")
    sub_chi = 1 - deficiency(sub)
    sandwich = mu2_sandwich(sub, search_budget, max_cosets)
    inconsistent = sandwich.upper < sub_chi
    if inconsistent:
        notes.append("search found a better presentation than the "
                     "sub-presentation; the caller's realization evidence "
                     "is inconsistent")
    else:
        notes.append("sub-presentation realizes the geometric mu_2 minimum "
                     f"of its group (value {sub_chi})")
    return SubcomplexReport(sub_chi, sub_chi, sandwich.upper, sandwich.lower,
                            sandwich.tight, inconsistent, tuple(notes))
