import pytest

from d2kit.chains import presentation_complex, stabilize_wedge
from d2kit.coset import group_model
from d2kit.invariants import (
    D2nEstimate,
    NotCertifiedFinite,
    _swan_report,
    analyze_presentation,
    d2n_estimate,
    mu2_lower_bound,
    mu2_sandwich,
    realization_check,
    subcomplex_realization_report,
    swan_inequality_check,
)
from d2kit.presentations import parse_presentation

TRIVIAL = parse_presentation("gens:\nrels:\n")
Z5 = parse_presentation("gens: x\nrels: x^5\n")
A5 = parse_presentation("gens: a b\nrels: a^2 b^3 (a b)^5\n")
TREFOIL = parse_presentation("gens: x y\nrels: (x^2 y^-3)\n")
F2 = parse_presentation("gens: x y\nrels:\n")
CORPUS = {
    "trivial": TRIVIAL,
    "z": parse_presentation("gens: x\nrels:\n"),
    "z2": parse_presentation("gens: x\nrels: x^2\n"),
    "z5": Z5,
    "s3": parse_presentation("gens: a b\nrels: a^2 b^2 (a b)^3\n"),
    "q8": parse_presentation("gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n"),
    "a5": A5,
    "f2": F2,
    "trefoil": TREFOIL,
}
FINITE = {"trivial", "z2", "z5", "s3", "q8", "a5"}


def test_mu2_lower_examples():
    assert mu2_lower_bound(A5)[0] == 1
    assert mu2_lower_bound(TREFOIL, max_cosets=2000)[0] == 0
    assert mu2_lower_bound(F2, max_cosets=2000)[0] == -1


def test_mu2_sandwich_trefoil_tight():
    s = mu2_sandwich(TREFOIL)
    assert (s.lower, s.upper, s.tight) == (0, 0, True)


def test_mu2_sandwich_z5_tight():
    s = mu2_sandwich(Z5)
    assert (s.lower, s.upper, s.tight) == (1, 1, True)


def test_mu2_sandwich_a5_gap():
    s = mu2_sandwich(A5, search_budget=20)
    assert s.lower == 1 and s.upper == 2 and not s.tight


def test_mu2_sandwich_f2_tight():
    s = mu2_sandwich(F2, max_cosets=2000)
    assert (s.lower, s.upper, s.tight) == (-1, -1, True)


def test_swan_holds_on_corpus():
    for name, P in CORPUS.items():
        rep = swan_inequality_check(P, max_cosets=20000)
        assert rep.swan_ok, name
        if name in FINITE:
            assert rep.certified_finite and rep.finite_bound_ok, name
        else:
            assert not rep.certified_finite


def test_swan_negative_control_injected():
    # fabricated data: def(P) = 1 for a certified-finite group must flag
    rep = _swan_report(1, 1, True)
    assert not rep.swan_ok
    assert rep.finite_bound_ok is False
    assert any("VIOLATED" in n for n in rep.notes)


def test_d2n_estimates():
    assert d2n_estimate(Z5).n_upper == 2 - 0 - 1 == 1
    assert d2n_estimate(TRIVIAL).n_upper == 1
    assert d2n_estimate(A5, search_budget=20).n_upper == 2 - (-1) - 1 == 2
    with pytest.raises(NotCertifiedFinite):
        d2n_estimate(TREFOIL, max_cosets=2000)


def test_d2n_monotone_in_budget():
    small = d2n_estimate(A5, search_budget=5).n_upper
    large = d2n_estimate(A5, search_budget=40).n_upper
    assert small >= large  # weaker search never shrinks the bound


def test_tight_sandwich_stable_under_larger_budget():
    for P in (TREFOIL, Z5, F2):
        s1 = mu2_sandwich(P, search_budget=5, max_cosets=2000)
        s2 = mu2_sandwich(P, search_budget=200, max_cosets=2000)
        assert s1.tight
        assert (s1.lower, s1.upper) == (s2.lower, s2.upper)


def test_analyze_presentation_matches_standalone_ops():
    for P in (Z5, A5, TREFOIL):
        a = analyze_presentation(P, search_budget=20, max_cosets=2000)
        s = mu2_sandwich(P, search_budget=20, max_cosets=2000)
        assert a.sandwich == s
        swan = swan_inequality_check(P, max_cosets=2000)
        assert a.swan == swan
        if a.order is not None:
            assert a.d2n == d2n_estimate(P, search_budget=20, max_cosets=2000)
        else:
            assert a.d2n is None
    a = analyze_presentation(A5, search_budget=20, max_cosets=2000)
    assert (a.sandwich.lower_provenance, a.sandwich.upper_provenance) == (
        "finite group of order 60: rational Betti numbers vanish",
        "1 - def of best found presentation (def = -1, visited 20)")
    assert a.d2n == D2nEstimate(
        2, -1, "deficiency search, visited 20",
        1, "finite group of order 60: rational Betti numbers vanish")
    t = analyze_presentation(TREFOIL, search_budget=20, max_cosets=2000)
    assert (t.sandwich.lower_provenance, t.sandwich.upper_provenance) == (
        "1 - b_1 with b_1 = 1 (rational first Betti number)",
        "1 - def of best found presentation (def = 1, visited 1)")


# Z/2 * Z/3: b_1 = 0, yet infinite, so its enumeration hits the limit
Z2_FREE_Z3 = parse_presentation("gens: a b\nrels: a^2 b^3\n")

# every library view that certifies an order, as (name, call(P, max_cosets))
VIEWS = [
    ("mu2_lower_bound", lambda P, m: mu2_lower_bound(P, max_cosets=m)),
    ("mu2_sandwich",
     lambda P, m: mu2_sandwich(P, search_budget=5, max_cosets=m)),
    ("swan_inequality_check",
     lambda P, m: swan_inequality_check(P, max_cosets=m)),
    ("analyze_presentation",
     lambda P, m: analyze_presentation(P, search_budget=5, max_cosets=m)),
    ("d2n_estimate", lambda P, m: d2n_estimate(P, search_budget=5, max_cosets=m)),
]


def test_each_view_enumerates_at_most_once_at_the_callers_limit(monkeypatch):
    # at most one enumeration, at the caller's limit, and none when b_1 > 0:
    # the group is then infinite and no enumeration could complete
    import d2kit.invariants as inv

    limits = []
    real = inv.todd_coxeter

    def recording(P, max_cosets, strategy="hlt"):
        limits.append(max_cosets)
        return real(P, max_cosets, strategy)

    monkeypatch.setattr(inv, "todd_coxeter", recording)
    cases = [(TREFOIL, [], None), (F2, [], None),
             (A5, [2000], 60), (Z2_FREE_Z3, [2000], None)]
    for P, limits_seen, order in cases:
        for name, view in VIEWS:
            limits.clear()
            if name == "d2n_estimate" and order is None:
                with pytest.raises(NotCertifiedFinite):
                    view(P, 2000)
            else:
                result = view(P, 2000)
                if name == "analyze_presentation":
                    assert result.order == order
            assert limits == limits_seen, (P, name)


@pytest.mark.parametrize("P", [F2, A5], ids=["f2", "a5"])
def test_every_view_checks_max_cosets(P):
    # F2 takes the b_1 > 0 path with no enumeration, A5 enumerates; both
    # refuse a limit below one
    for _, view in VIEWS:
        with pytest.raises(ValueError, match="max_cosets must be >= 1"):
            view(P, 0)


def test_realization_trefoil():
    F = presentation_complex(TREFOIL)
    s = mu2_sandwich(TREFOIL)
    rep = realization_check(F, s, certified_finite=False)
    assert rep.realizes
    assert rep.bg_clause == "asserted-aspherical"
    assert rep.kernel_qdim == 0 and not rep.kernel_conflict


def test_realization_z5_suppressed():
    m = group_model(Z5, 100)
    F = presentation_complex(Z5, m)
    s = mu2_sandwich(Z5)
    rep = realization_check(F, s)
    assert rep.realizes
    assert rep.bg_clause == "suppressed-finite"
    assert rep.kernel_qdim == 4


def test_realization_stabilized_trefoil_fails():
    F = stabilize_wedge(presentation_complex(TREFOIL), 1)
    s = mu2_sandwich(TREFOIL)
    rep = realization_check(F, s, certified_finite=False)
    assert not rep.realizes and rep.bg_clause == "not-realized"


def test_subcomplex_report_full_subpresentation():
    s = mu2_sandwich(TREFOIL)
    rep = subcomplex_realization_report(TREFOIL, [0, 1], [0], s)
    assert not rep.inconsistent_evidence
    assert rep.sub_chi == 0


def test_subcomplex_report_z2_inside_free_product():
    # P = <x,y | x^2>: H1 = Z + Z/2, b1 = 1 -> lower 0 = upper 0: tight
    P = parse_presentation("gens: x y\nrels: x^2\n")
    s = mu2_sandwich(P, max_cosets=2000)
    assert s.tight and s.lower == 0
    rep = subcomplex_realization_report(P, [0], [0], s)
    assert not rep.inconsistent_evidence
    assert rep.sub_chi == 1           # <x | x^2> has chi 1 = mu2(Z/2)
    assert rep.cross_check_tight


def test_subcomplex_report_flags_fabricated_evidence():
    # <x,y | y, y> simplifies to <x|> with better deficiency, so the full
    # sub-presentation cannot realize the minimum; fabricated evidence flags
    P = parse_presentation("gens: x y\nrels: y y\n")
    fake = mu2_sandwich(TREFOIL)  # any tight sandwich object as "evidence"
    rep = subcomplex_realization_report(P, [0, 1], [0, 1], fake)
    assert rep.inconsistent_evidence
