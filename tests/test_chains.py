import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import d2kit
from d2kit import acx
from d2kit.chains import (
    ONE_ELEMENT,
    AlgebraicComplex,
    _Budget,
    _contract_cone,
    _lift_chain_map,
    _phi2_candidates,
    _pi2,
    NotAChainMap,
    NotSplit,
    attach_three_cells,
    certify_chain_equivalence,
    euler_characteristic,
    fox_derivative,
    homology_over_field,
    presentation_complex,
    quotient_by_split_summand,
    split_test,
    stabilize_wedge,
    validate_complex,
)
from d2kit.coset import group_model
from d2kit.groupring import (
    GroupRingElement,
    GroupRingMatrix,
    ModelMismatch,
    _expanded_columns,
    regular_rep_expand,
)
from d2kit.intlinalg import (
    IntMatrix,
    _columns,
    _echelon,
    _matrix,
    kernel_basis,
    solve_integer_system,
)
from d2kit.presentations import Presentation, parse_presentation
from d2kit.words import Word
from exact_oracles import (
    column_echelon,
    column_hnf,
    dense_column_echelon,
    determinant,
    rank_mod_p,
)

Z2P = parse_presentation("gens: x\nrels: x^2\n")
Z5P = parse_presentation("gens: x\nrels: x^5\n")
S3P = parse_presentation("gens: a b\nrels: a^2 b^2 (a b)^3\n")
A5P = parse_presentation("gens: a b\nrels: a^2 b^3 (a b)^5\n")
TREFOILP = parse_presentation("gens: x y\nrels: (x^2 y^-3)\n")
TRIVIALP = parse_presentation("gens:\nrels:\n")

Z2M = group_model(Z2P, 100)
Z5M = group_model(Z5P, 100)
S3M = group_model(S3P, 1000)


def elem(model, *pairs):
    return GroupRingElement.from_pairs(model, pairs)


def test_fox_derivative_power():
    # d(x^5)/dx = 1 + x + x^2 + x^3 + x^4
    d = fox_derivative(Z5M, Word([(0, 1)] * 5), 0)
    assert d.to_pairs() == ((0, 1), (1, 1), (2, 1), (3, 1), (4, 1))


def test_fox_derivative_inverse_rule():
    # d(x^-1)/dx = -x^-1
    d = fox_derivative(Z5M, Word([(0, -1)]), 0)
    assert d == elem(Z5M, (Z5M.inverse[Z5M.generator_images[0]], -1))


def test_presentation_complex_z5():
    F = presentation_complex(Z5P, Z5M)
    assert F.ranks == (1, 1, 1)
    x = Z5M.generator_images[0]
    assert F.boundary(1).entry(0, 0) == elem(Z5M, (x, 1), (0, -1))
    assert F.boundary(2).entry(0, 0).coeffs == (1, 1, 1, 1, 1)
    assert F.boundary(1).compose(F.boundary(2)).is_zero()


def test_presentation_complex_symbolic_trefoil():
    F = presentation_complex(TREFOILP)
    assert F.ranks == (1, 2, 1)
    assert F.shadow(2).to_rows() == [[2], [-3]]
    assert F.shadow(1).is_zero()


def test_every_boundary_is_a_group_ring_matrix():
    # a symbolic complex lives over the one-element group; its shadows are
    # the exponent-sum matrices symbolic complexes always had
    for P, shadows in [(S3P, ([[0, 0]], [[2, 0, 3], [0, 2, 3]])),
                       (TREFOILP, ([[0, 0]], [[2], [-3]]))]:
        F = presentation_complex(P)
        assert all(d.model is ONE_ELEMENT for d in F.boundaries)
        assert (F.shadow(1), F.shadow(2)) == tuple(map(IntMatrix.from_rows, shadows))
        with pytest.raises(TypeError):
            AlgebraicComplex(F.ranks, None, (F.shadow(1), F.shadow(2)), P)
    Z2F = presentation_complex(Z2P, Z2M)
    with pytest.raises(TypeError):
        AlgebraicComplex(Z2F.ranks, Z2M, (Z2F.shadow(1), Z2F.boundary(2)))
    # the ring is fixed by the mode: Z[1] in symbolic mode, ZG in finite mode
    with pytest.raises(ModelMismatch):
        AlgebraicComplex(Z2F.ranks, None, Z2F.boundaries)
    with pytest.raises(ModelMismatch):
        AlgebraicComplex(Z2F.ranks, Z2M, presentation_complex(Z2P).boundaries)


def test_presentation_complex_trivial():
    F = presentation_complex(TRIVIALP)
    assert F.ranks == (1, 0, 0)


def test_presentation_complex_model_mismatch():
    with pytest.raises(ModelMismatch):
        presentation_complex(Z5P, Z2M)


def test_chain_condition_all_corpus():
    finite = [(Z2P, Z2M), (Z5P, Z5M), (S3P, S3M),
              (parse_presentation("gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n"), None),
              (A5P, None)]
    for P, m in finite:
        if m is None:
            m = group_model(P, 20000)
        F = presentation_complex(P, m)
        assert F.boundary(1).compose(F.boundary(2)).is_zero()
    for P in [parse_presentation("gens: x\nrels:\n"),
              parse_presentation("gens: x y\nrels:\n"), TREFOILP]:
        F = presentation_complex(P)
        assert (F.shadow(1) * F.shadow(2)).is_zero()


def test_euler_characteristic_examples():
    assert euler_characteristic(presentation_complex(TREFOILP)) == 0
    assert euler_characteristic(presentation_complex(A5P)) == 2
    assert euler_characteristic(presentation_complex(Z5P, Z5M)) == 1


def test_validate_z5():
    rep = validate_complex(presentation_complex(Z5P, Z5M))
    assert rep.ok
    assert rep.exact_at_f0 and rep.exact_at_f1
    assert rep.d2_rank_q == 1       # rank of the expanded norm entry
    assert rep.ker_d2_qdim == 4     # the augmentation ideal, spanned by x-1


def test_validate_corrupted_d2():
    F = presentation_complex(Z5P, Z5M)
    bad = GroupRingMatrix(Z5M, 1, 1, [F.boundary(2).entry(0, 0) + elem(Z5M, (2, 1))])
    G = AlgebraicComplex(F.ranks, Z5M, (F.boundary(1), bad))
    rep = validate_complex(G)
    assert not rep.chain_ok
    assert any("d_1 o d_2" in f for f in rep.failures)


def test_validate_free_group_symbolic():
    rep = validate_complex(presentation_complex(
        parse_presentation("gens: x y\nrels:\n")))
    assert rep.ok and rep.mode == "symbolic"


def test_stabilize_wedge():
    F = presentation_complex(Z5P, Z5M)
    assert stabilize_wedge(F, 0) is F
    W = stabilize_wedge(F, 1)
    assert W.ranks == (1, 1, 2)
    assert euler_characteristic(W) == 2
    assert W.boundary(2).entry(0, 1).is_zero()
    T = stabilize_wedge(presentation_complex(TREFOILP), 2)
    assert euler_characteristic(T) == 2


def test_wedge_euler_property():
    rng = random.Random(4)
    for P, m in [(Z5P, Z5M), (TREFOILP, None)]:
        F = presentation_complex(P, m)
        for _ in range(10):
            n = rng.randint(0, 5)
            assert euler_characteristic(stabilize_wedge(F, n)) == \
                euler_characteristic(F) + n


def test_attach_three_cells():
    F = presentation_complex(Z2P, Z2M)
    x_minus_1 = elem(Z2M, (1, 1), (0, -1))
    X = attach_three_cells(F, GroupRingMatrix(Z2M, 1, 1, [x_minus_1]))
    assert X.top_degree == 3
    # chi of the 3-complex is (#3-cells) - chi of the base
    assert euler_characteristic(X) == 1 - euler_characteristic(F)
    with pytest.raises(NotAChainMap):
        attach_three_cells(F, GroupRingMatrix.identity(Z2M, 1))
    W = stabilize_wedge(F, 1)
    zero_col = GroupRingMatrix.zeros(Z2M, 2, 1)
    X2 = attach_three_cells(W, zero_col)
    assert euler_characteristic(X2) == 1 - euler_characteristic(W)


def test_split_inclusion():
    F = stabilize_wedge(presentation_complex(Z5P, Z5M), 1)
    d3 = GroupRingMatrix(Z5M, 2, 1,
                         [GroupRingElement.zero(Z5M), GroupRingElement.one(Z5M)])
    X = attach_three_cells(F, d3)
    rep = split_test(X)
    assert rep.splits
    assert rep.retraction.compose(d3).is_identity()


def test_split_negative_x_minus_1():
    F = presentation_complex(Z2P, Z2M)
    d3 = GroupRingMatrix(Z2M, 1, 1, [elem(Z2M, (1, 1), (0, -1))])
    X = attach_three_cells(F, d3)
    rep = split_test(X)
    assert not rep.splits
    big_ok = rep.obstruction is not None
    assert big_ok


def test_split_negative_norm():
    W = stabilize_wedge(presentation_complex(Z2P, Z2M), 1)
    d3 = GroupRingMatrix(Z2M, 2, 1,
                         [GroupRingElement.zero(Z2M), elem(Z2M, (0, 1), (1, 1))])
    X = attach_three_cells(W, d3)
    rep = split_test(X)
    assert not rep.splits and rep.obstruction is not None


def test_quotient_round_trip_structure():
    for P, m in [(Z2P, Z2M), (Z5P, Z5M), (S3P, S3M)]:
        F = presentation_complex(P, m)
        W = stabilize_wedge(F, 1)
        z, one = GroupRingElement.zero(m), GroupRingElement.one(m)
        col = [z] * (W.ranks[2] - 1) + [one]
        d3 = GroupRingMatrix(m, W.ranks[2], 1, col)
        X = attach_three_cells(W, d3)
        rep = split_test(X)
        assert rep.splits
        Q = quotient_by_split_summand(X, rep)
        assert Q.ranks == F.ranks
        assert Q.boundaries == F.boundaries
        # euler bookkeeping: mu2(out) = f2 - f3 - f1 + f0
        f0, f1, f2, f3 = X.ranks
        assert euler_characteristic(Q) == f2 - f3 - f1 + f0


def test_split_and_quotient_make_no_dense_integer_product(monkeypatch):
    # the solver back-substitutes on the sparse echelon and builds no V * Y
    W = stabilize_wedge(presentation_complex(S3P, S3M), 2)
    z, one = GroupRingElement.zero(S3M), GroupRingElement.one(S3M)
    d3 = GroupRingMatrix(S3M, 5, 2, [z, z, z, z, z, z, one, z, z, one])
    X = attach_three_cells(W, d3)

    def no_product(self, other):
        raise AssertionError("IntMatrix.__mul__ called")

    monkeypatch.setattr(IntMatrix, "__mul__", no_product)
    rep = split_test(X)
    assert rep.splits
    Q = quotient_by_split_summand(X, rep)
    assert Q.ranks == (1, 2, 3)


def test_quotient_lattice_is_the_image_of_one_minus_e():
    # R o d_3 = 1 makes e = d_3 o R idempotent, so ker e = im(1 - e) over Z,
    # the saturated lattice of rank (f_2 - 1)|G| the quotient's subsets must
    # span
    P = parse_presentation("gens: a b\nrels: a^2 b^3 (a b)^7 (a^-1 b^-1 a b)^4\n")
    m = group_model(P, 20000)
    W = stabilize_wedge(presentation_complex(P, m), 1)
    f2 = W.ranks[2]
    z, one = GroupRingElement.zero(m), GroupRingElement.one(m)
    d3 = GroupRingMatrix(m, f2, 1, [z] * (f2 - 1) + [one])
    rep = split_test(attach_three_cells(W, d3))
    assert rep.splits
    e = d3.compose(rep.retraction)
    q = GroupRingMatrix.identity(m, f2) - e
    K = column_hnf(regular_rep_expand(q))
    assert len(K) == (f2 - 1) * m.order
    assert K == kernel_basis(regular_rep_expand(e))


def test_quotient_eliminations_match_the_dense_reference():
    # the A5 quotient of F v 2 S^2 by a 3-cell on both spheres: its
    # expanded 1 - e (300 x 300) and the expanded columns J of every
    # subset it tries, against the dense elimination, H and V
    m = group_model(A5P, 20000)
    W = stabilize_wedge(presentation_complex(A5P, m), 2)
    f2, n = W.ranks[2], m.order
    z, one = GroupRingElement.zero(m), GroupRingElement.one(m)
    u = GroupRingElement.from_pairs(m, [(0, 2), (7, -1), (31, 1)])
    X = attach_three_cells(W, GroupRingMatrix(m, f2, 1, [z] * (f2 - 2) + [u, one]))
    rep = split_test(X)
    assert rep.splits
    q = GroupRingMatrix.identity(m, f2) - X.boundary(3).compose(rep.retraction)
    Q = _expanded_columns(q, False)
    systems = [_matrix(Q, f2 * n)]
    assert systems[0] == regular_rep_expand(q)
    assert (systems[0].rows, systems[0].cols) == (300, 300)
    for subset in combinations(range(f2), f2 - 1):
        # a subset's expansion is the subset's column blocks of Q
        J = _matrix([col for j in subset for col in Q[j * n:(j + 1) * n]], f2 * n)
        assert J == regular_rep_expand(q.submatrix(range(f2), subset))
        systems.append(J)
    for A in systems:
        assert column_echelon(A) == dense_column_echelon(A)
    assert quotient_by_split_summand(X, rep).ranks == (1, 2, 4)


def test_quotient_identity_d3_gives_rank_zero():
    F = presentation_complex(Z2P, Z2M)
    # F_2 = ZG has d2 = norm; d3 = identity is not a chain map there, so
    # build a wedge-only complex whose d2 column is zero
    W = stabilize_wedge(
        presentation_complex(parse_presentation("gens: x\nrels:\n")), 1)
    # symbolic mode cannot attach; use finite trivial group instead
    triv = group_model(parse_presentation("gens:\nrels:\n"), 10)
    base = presentation_complex(parse_presentation("gens:\nrels:\n"), triv)
    Wt = stabilize_wedge(base, 1)
    d3 = GroupRingMatrix.identity(triv, 1)
    X = attach_three_cells(Wt, d3)
    rep = split_test(X)
    assert rep.splits
    Q = quotient_by_split_summand(X, rep)
    assert Q.ranks == (1, 0, 0)


def test_quotient_requires_split():
    F = presentation_complex(Z2P, Z2M)
    d3 = GroupRingMatrix(Z2M, 1, 1, [elem(Z2M, (1, 1), (0, -1))])
    X = attach_three_cells(F, d3)
    rep = split_test(X)
    with pytest.raises(NotSplit):
        quotient_by_split_summand(X, rep)


def test_quotient_checks_the_retraction():
    # a report whose R is not a left inverse of d_3 does not show a split
    W = stabilize_wedge(presentation_complex(Z2P, Z2M), 1)
    X = attach_three_cells(W, GroupRingMatrix(Z2M, 2, 1, [elem(Z2M), elem(Z2M, (0, 1))]))
    rep = split_test(X)
    assert rep.splits and quotient_by_split_summand(X, rep).ranks == (1, 1, 1)
    doubled = dataclasses.replace(rep, retraction=rep.retraction + rep.retraction)
    with pytest.raises(NotSplit):
        quotient_by_split_summand(X, doubled)


def test_homology_examples():
    assert homology_over_field(presentation_complex(TREFOILP), "Q") == (1, 1, 0)
    a5 = presentation_complex(A5P)
    assert homology_over_field(a5, "Q") == (1, 0, 1)
    z5 = presentation_complex(Z5P, Z5M)
    assert homology_over_field(z5, 5) == (1, 1, 1)
    assert homology_over_field(z5, "Q") == (1, 0, 0)


def test_euler_poincare_identity_random_stabilizations():
    rng = random.Random(12)
    bases = [presentation_complex(Z5P, Z5M), presentation_complex(S3P, S3M),
             presentation_complex(TREFOILP), presentation_complex(A5P)]
    for F in bases:
        for _ in range(12):
            W = stabilize_wedge(F, rng.randint(0, 6))
            for field in ("Q", 2, 3, 5):
                h = homology_over_field(W, field)
                alt = sum((-1) ** i * h[i] for i in range(len(h)))
                alt_f = sum((-1) ** i * W.ranks[i] for i in range(len(W.ranks)))
                assert alt == alt_f


def test_certify_self_identity():
    F = presentation_complex(Z5P, Z5M)
    out = certify_chain_equivalence(F, F)
    assert out.kind == "certificate"
    assert out.certificate.verify(F, F)
    f0, f1, f2 = out.certificate.forward
    assert f0.is_identity() and f1.is_identity() and f2.is_identity()


def test_certify_classification_pair():
    # stabilized minimal complex vs a chi-2 presentation complex of Z/5
    F = stabilize_wedge(presentation_complex(Z5P, Z5M), 1)
    z5b = parse_presentation("gens: x y\nrels: x^5 y y\n")
    mb = group_model(z5b, 100)
    G = presentation_complex(z5b, mb)
    assert euler_characteristic(F) == euler_characteristic(G) == 2
    out = certify_chain_equivalence(F, G)
    assert out.kind == "certificate"
    assert out.certificate.verify(F, G)
    # verdicts are symmetric
    back = certify_chain_equivalence(G, F)
    assert back.kind == "certificate"
    assert back.certificate.verify(G, F)


def test_certificate_verify_rejects_misfits_and_surfaces_faults(monkeypatch):
    F = stabilize_wedge(presentation_complex(Z5P, Z5M), 1)
    z5b = parse_presentation("gens: x y\nrels: x^5 y y\n")
    G = presentation_complex(z5b, group_model(z5b, 100))
    cert = certify_chain_equivalence(F, G).certificate
    assert cert.verify(F, G)
    # a certificate that does not fit the complexes raises a ValueError
    # inside the check: DimensionMismatch, ModelMismatch, tuple arity
    z2 = stabilize_wedge(presentation_complex(Z2P, Z2M), 1)
    assert z2.ranks == F.ranks
    assert not cert.verify(F, stabilize_wedge(F, 1))
    assert not cert.verify(z2, z2)
    assert not dataclasses.replace(cert, forward=cert.forward[:2]).verify(F, G)
    assert not dataclasses.replace(cert, homotopies_fg=cert.forward).verify(F, G)

    # a fault in the arithmetic is not a failed check
    def compose(self, other):
        raise RuntimeError("compose fault")

    monkeypatch.setattr(GroupRingMatrix, "compose", compose)
    with pytest.raises(RuntimeError, match="compose fault"):
        cert.verify(F, G)


def test_certify_chi_mismatch():
    F = presentation_complex(Z5P, Z5M)
    W = stabilize_wedge(F, 1)
    out = certify_chain_equivalence(F, W)
    assert out.kind == "not_equivalent"
    assert "euler characteristic" in out.reason
    back = certify_chain_equivalence(W, F)
    assert back.kind == "not_equivalent"


def test_certify_literal_spec_pair_distinguished():
    # stabilize_wedge(<x|x^5>,1) has chi 2 but <x,y|x^5,y> gives chi 1:
    # the two are honestly inequivalent
    F = stabilize_wedge(presentation_complex(Z5P, Z5M), 1)
    lit = parse_presentation("gens: x y\nrels: x^5 y\n")
    H = presentation_complex(lit, group_model(lit, 100))
    out = certify_chain_equivalence(F, H)
    assert out.kind == "not_equivalent"
    assert "euler characteristic differs: 2 vs 1" in out.reason


def test_certify_nonabelian_generic_path():
    s3b = parse_presentation("gens: a b\nrels: b^2 a^2 (b a)^3\n")
    A = presentation_complex(S3P, S3M)
    B = presentation_complex(s3b, group_model(s3b, 1000))
    out = certify_chain_equivalence(A, B)
    assert out.kind == "certificate"
    assert out.certificate.verify(A, B)


def test_certify_model_mismatch():
    with pytest.raises(ModelMismatch):
        certify_chain_equivalence(presentation_complex(Z5P, Z5M),
                                  presentation_complex(Z2P, Z2M))


def test_certify_budget_exhaustion_is_unknown():
    F = stabilize_wedge(presentation_complex(Z5P, Z5M), 1)
    z5b = parse_presentation("gens: x y\nrels: x^5 y y\n")
    G = presentation_complex(z5b, group_model(z5b, 100))
    out = certify_chain_equivalence(F, G, budget=1)
    assert out.kind == "unknown"
    assert "exhausted" in out.reason


def test_certify_trivial_group_degenerate_shapes():
    # < | > vs < x | x > present the trivial group with chi 1 each; the
    # lift runs through empty boundary matrices
    triv = parse_presentation("gens:\nrels:\n")
    tm = group_model(triv, 10)
    xx = parse_presentation("gens: x\nrels: x\n")
    xm = group_model(xx, 10)
    G1 = presentation_complex(triv, tm)
    G2 = presentation_complex(xx, xm)
    out = certify_chain_equivalence(G1, G2)
    assert out.kind == "certificate"
    assert out.certificate.verify(G1, G2)


def test_round_trip_two_cells():
    F = presentation_complex(Z5P, Z5M)
    W = stabilize_wedge(F, 2)
    z, one = GroupRingElement.zero(Z5M), GroupRingElement.one(Z5M)
    d3 = GroupRingMatrix(Z5M, 3, 2, [z, z, one, z, z, one])
    X = attach_three_cells(W, d3)
    rep = split_test(X)
    assert rep.splits
    Q = quotient_by_split_summand(X, rep)
    assert Q.boundaries == F.boundaries
    assert certify_chain_equivalence(Q, F).kind == "certificate"


def test_certify_q8_classification_instance():
    q8 = parse_presentation("gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n")
    m = group_model(q8, 20000)
    F = stabilize_wedge(presentation_complex(q8, m), 1)
    dup = parse_presentation(
        "gens: a b\nrels: (a^2 b^-2) (b^-1 a b a) (b^-1 a b a)\n")
    G = presentation_complex(dup, group_model(dup, 20000))
    assert euler_characteristic(F) == euler_characteristic(G) == 2
    out = certify_chain_equivalence(F, G)
    assert out.kind == "certificate"
    assert out.certificate.verify(F, G)


def test_validate_a5_exactness():
    m = group_model(A5P, 20000)
    rep = validate_complex(presentation_complex(A5P, m))
    assert rep.ok and rep.exact_at_f0 and rep.exact_at_f1
    # by exactness at F_1, rank d_2 equals dim ker d_1 = 2|G| - (|G| - 1)
    assert rep.d2_rank_q == 61
    assert rep.ker_d2_qdim == 3 * 60 - 61


def _record_echelons(monkeypatch):
    """Record (rows eliminated, columns) of every call of the elimination core,
    in every module that binds it."""
    from d2kit import chains, intlinalg

    calls = []
    real = intlinalg._echelon

    def echelon(C, m):
        calls.append((m, len(C)))
        return real(C, m)

    for module in (intlinalg, chains):
        monkeypatch.setattr(module, "_echelon", echelon)
    return calls


def _record_saturation_checks(monkeypatch):
    """Record (columns, rows) of every basis whose pivots are not all 1 that
    `intlinalg._span` checks with `intlinalg._saturated`, which builds the
    Hermite basis of its rows."""
    from d2kit import intlinalg

    calls = []
    real = intlinalg._saturated

    def saturated(H):
        if not intlinalg._unit_pivots(H):
            calls.append((len(H), len(set().union(*H))))
        return real(H)

    monkeypatch.setattr(intlinalg, "_saturated", saturated)
    return calls


def _record_unit_passes(monkeypatch):
    """Record (bound, pivots, columns left or None) of every
    `intlinalg._unit_pass`; None when its pivots reach the bound."""
    from d2kit import intlinalg

    calls = []
    real = intlinalg._unit_pass

    def unit_pass(C, bound):
        k, rest = real(C, bound)
        calls.append((bound, k, None if rest is None else len(rest)))
        return k, rest

    monkeypatch.setattr(intlinalg, "_unit_pass", unit_pass)
    return calls


def _scrambled(F, seed):
    """F with F_1 rebased by a product E of three seeded elementary ZG
    operations (add ±g times basis element i to basis element j): d_1 becomes
    d_1 E and d_2 becomes E^-1 d_2, so exactness and ranks are unchanged."""
    model, f1 = F.model, F.ranks[1]
    rng = random.Random(seed)
    d1, d2 = F.boundary(1), F.boundary(2)
    for _ in range(3):
        i, j = rng.sample(range(f1), 2)
        g, a = rng.randrange(model.order), rng.choice((-1, 1))
        unit = [GroupRingElement.zero(model)] * (f1 * f1)
        unit[i * f1 + j] = GroupRingElement.from_element(model, g, a)
        unit = GroupRingMatrix(model, f1, f1, unit)
        one = GroupRingMatrix.identity(model, f1)
        # unit o unit = 0, so 1 - unit inverts 1 + unit
        d1, d2 = d1.compose(one + unit), (one - unit).compose(d2)
    return AlgebraicComplex(F.ranks, model, (d1, d2))


def test_validate_complex_eliminates_d2_once(monkeypatch):
    calls = _record_echelons(monkeypatch)
    checks = _record_saturation_checks(monkeypatch)
    units = _record_unit_passes(monkeypatch)
    F = presentation_complex(S3P, S3M)
    rep = validate_complex(F)
    assert rep.ok and rep.d2_rank_q == 7
    # the unit pass reaches the bound rank on d_1 (6 - 1) and on d_2
    # (12 - 5 = rank of ker d_1) with pivots 1, which span a direct summand,
    # so nothing is eliminated and no saturation check runs
    assert units == [(5, 5, None), (7, 7, None)]
    assert calls == [] and checks == []
    # rebasing F_1 leaves 8 columns of d_1 with no entry +-1 after 4 pivots:
    # one elimination of them over 6 rows finds the last pivot, which is 1;
    # d_2 still reaches its bound in the unit pass
    units.clear()
    assert validate_complex(_scrambled(F, 1)) == rep
    assert units == [(5, 4, 8), (7, 7, None)]
    assert calls == [(6, 8)]
    assert checks == []


# Scrambled complexes are exact with the reports of their presentation
# complexes (recorded before validation built Hermite forms in chunks). Over
# the 40 seeds: the unit passes that leave a remainder, the eliminations of
# remainders and of saturation checks, and the saturation checks of a
# remainder basis with a pivot other than 1.
_SCRAMBLE_GROUPS = [
    ("gens: a b\nrels: a^2 b^2 (a b)^3\n", 7, 11, 8, 12, 4),
    ("gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n", 9, 7, 26, 40, 14),
    ("gens: a b\nrels: a^2 b^3 (a b)^5\n", 61, 119, 42, 62, 18),
]


@pytest.mark.parametrize("text,rank,kernel_dim,remainders,eliminations,fallbacks",
                         _SCRAMBLE_GROUPS, ids=["s3", "q8", "a5"])
def test_validate_scrambled_complexes(monkeypatch, text, rank, kernel_dim, remainders,
                                      eliminations, fallbacks):
    P = parse_presentation(text)
    F = presentation_complex(P, group_model(P, 1000))
    expected = validate_complex(F)
    assert expected.ok and (expected.d2_rank_q, expected.ker_d2_qdim) == (rank, kernel_dim)
    calls = _record_echelons(monkeypatch)
    checks = _record_saturation_checks(monkeypatch)
    units = _record_unit_passes(monkeypatch)
    for seed in range(40):
        assert validate_complex(_scrambled(F, seed)) == expected, seed
    assert len(units) == 80
    assert sum(1 for *_, rest in units if rest is not None) == remainders
    assert len(calls) == eliminations
    assert len(checks) == fallbacks


def test_validate_unsaturated_image_of_d2(monkeypatch):
    """2 d_2 has the rank of ker d_1 but spans a sublattice of index 2^7,
    and zeroing a column of d_2 lowers the rank: neither is exact at F_1.
    Only the first needs the saturation check."""
    checks = _record_saturation_checks(monkeypatch)
    F = presentation_complex(S3P, S3M)
    d1, d2 = F.boundaries
    failure = ("ker d_1 differs from image of d_2",)
    rep = validate_complex(AlgebraicComplex(F.ranks, S3M, (d1, d2 + d2)))
    assert (rep.chain_ok, rep.aug_d1_zero, rep.exact_at_f0) == (True, True, True)
    assert rep.exact_at_f1 is False and rep.failures == failure
    assert (rep.d2_rank_q, rep.ker_d2_qdim) == (7, 11)
    assert len(checks) == 1
    f1, f2 = F.ranks[1:]
    zero = GroupRingElement.zero(S3M)
    dropped = GroupRingMatrix.from_rows(
        S3M, [[d2.entry(i, j) if j else zero for j in range(f2)] for i in range(f1)])
    rep = validate_complex(AlgebraicComplex(F.ranks, S3M, (d1, dropped)))
    assert (rep.chain_ok, rep.aug_d1_zero, rep.exact_at_f0) == (True, True, True)
    assert rep.exact_at_f1 is False and rep.failures == failure
    assert (rep.d2_rank_q, rep.ker_d2_qdim) == (5, 13)
    assert len(checks) == 1


@pytest.mark.slow
def test_validate_scrambled_psl27_complexes(monkeypatch):
    # the expanded d_2 is 336 x 672. Per complex: the pivots of the unit
    # passes on d_1 (168 rows, bound 167) and on d_2 (336 rows, bound 169),
    # and the eliminations of what they leave over 168 and 336 rows and of
    # saturation checks. The presentation complex and seed 2 reach both
    # bounds in the unit pass; seed 0 leaves d_1 a remainder, and seed 1
    # leaves both one, which reach their bound ranks (24 and 15) in their
    # second and first chunks with a pivot other than 1, so each takes a
    # saturation check
    P = parse_presentation("gens: a b\nrels: a^2 b^3 (a b)^7 (a^-1 b^-1 a b)^4\n")
    F = presentation_complex(P, group_model(P, 1000))
    expected = validate_complex(F)
    assert expected.ok and (expected.d2_rank_q, expected.ker_d2_qdim) == (169, 503)
    calls = _record_echelons(monkeypatch)
    units = _record_unit_passes(monkeypatch)
    counts = []
    for G in [F] + [_scrambled(F, seed) for seed in range(3)]:
        calls.clear()
        units.clear()
        assert validate_complex(G) == expected
        rows = [m for m, _ in calls]
        counts.append(([k for _, k, _ in units], rows.count(168), rows.count(336),
                       len(rows) - rows.count(168) - rows.count(336)))
    assert counts == [([167, 169], 0, 0, 0), ([151, 169], 1, 0, 0),
                      ([143, 154], 2, 1, 2), ([167, 169], 0, 0, 0)]


def _random_presentation(n, seed):
    """n generators and n relators, each relator six syllables x^e with e in
    {-3, -2, -1, 1, 2, 3}."""
    rng = random.Random(seed)
    relators = []
    for _ in range(n):
        letters = []
        for _ in range(6):
            g, e = rng.randrange(n), rng.choice((-3, -2, -1, 1, 2, 3))
            letters += [(g, 1 if e > 0 else -1)] * abs(e)
        relators.append(Word(letters))
    return Presentation(tuple(f"x{i}" for i in range(n)), tuple(relators))


@pytest.mark.slow
def test_symbolic_rank_of_a_200_generator_d2():
    """The Q-rank of a 200 x 200 symbolic d_2, as one elimination of all its
    columns gave it."""
    F = presentation_complex(_random_presentation(200, 0))
    rep = validate_complex(F)
    assert rep.ok and (rep.d2_rank_q, rep.ker_d2_qdim) == (198, 2)
    assert homology_over_field(F, "Q") == (1, 2, 2)


def _mutants(F):
    """Four mutants of F, most of them not exact: 2 d_2, d_2 with column 0
    zeroed, and d_1 with column 0 doubled, alone (no longer a chain complex)
    and with every other row of d_2 doubled (a chain complex again)."""
    model = F.model if F.finite_mode else ONE_ELEMENT
    d1, d2 = F.boundaries
    f1, f2 = F.ranks[1:]
    one, zero = GroupRingElement.one(model), GroupRingElement.zero(model)
    two = one + one

    def scale(rows, cols, factor):
        return GroupRingMatrix(model, rows, cols, [
            factor(i) if i == j else zero for i in range(rows) for j in range(cols)])

    column0 = scale(f2, f2, lambda i: zero if i == 0 else one)
    double0 = scale(f1, f1, lambda i: two if i == 0 else one)
    halve0 = scale(f1, f1, lambda i: one if i == 0 else two)
    return [AlgebraicComplex(F.ranks, F.model, boundaries) for boundaries in (
        (d1, d2 + d2), (d1, d2.compose(column0)), (d1.compose(double0), d2),
        (d1.compose(double0), halve0.compose(d2)))]


@pytest.mark.slow
def test_validation_identity_sweep():
    # one sha256 over the ValidationReports of the presentation complexes of
    # Z/2, Z/5, S3, Q8, D5 and A5 and of their rebased copies (`_scrambled`)
    # of seeds 0-39, of PSL(2,7) and its rebased copies of seeds 0-5, of the
    # `_mutants` of each presentation complex and of its first five rebased
    # copies, and of symbolic complexes of `_random_presentation` and their
    # mutants; recorded with validation by chunked Hermite forms. Z/2 and
    # Z/5 are rebased as <x, y | x^n, x y^-1>, as `_scrambled` needs two
    # basis elements of F_1
    texts = [("gens: x\nrels: x^2\n", 0), ("gens: x\nrels: x^5\n", 0),
             ("gens: x y\nrels: x^2 (x y^-1)\n", 40),
             ("gens: x y\nrels: x^5 (x y^-1)\n", 40),
             ("gens: a b\nrels: a^2 b^2 (a b)^3\n", 40),
             ("gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n", 40),
             ("gens: a b\nrels: a^2 b^2 (a b)^5\n", 40),
             ("gens: a b\nrels: a^2 b^3 (a b)^5\n", 40),
             ("gens: a b\nrels: a^2 b^3 (a b)^7 (a^-1 b^-1 a b)^4\n", 6)]
    complexes = []
    for text, seeds in texts:
        P = parse_presentation(text)
        F = presentation_complex(P, group_model(P, 1000))
        rebased = [_scrambled(F, seed) for seed in range(seeds)]
        complexes += [F] + rebased + _mutants(F)
        for G in rebased[:5]:
            complexes += _mutants(G)
    for n, seed in ((3, 0), (5, 1), (8, 2), (12, 3), (20, 4), (40, 5), (80, 6)):
        F = presentation_complex(_random_presentation(n, seed))
        complexes += [F] + _mutants(F)
    digest = hashlib.sha256()
    kinds = set()
    for F in complexes:
        rep = validate_complex(F)
        kinds.add((rep.mode, rep.chain_ok, rep.exact_at_f0, rep.exact_at_f1))
        digest.update(f"{rep!r}\n".encode())
    assert len(complexes) == 2 * 5 + 6 * (1 + 40 + 4 + 20) + (1 + 6 + 4 + 20) + 7 * 5
    assert kinds == {("finite", True, True, True), ("finite", True, True, False),
                     ("finite", True, False, True), ("finite", True, False, False),
                     ("finite", False, None, None), ("symbolic", True, None, None)}
    assert digest.hexdigest() == (
        "3f31c4fc567317b396cde60369c5035ec5130e945b0c4de785eb72d9f3a2434d")


def test_read_check_does_no_lattice_work(monkeypatch):
    """Lattice work runs only on a chain complex killed by the augmentation."""
    calls = _record_echelons(monkeypatch)
    F = presentation_complex(S3P, S3M)
    # d_2 plus 1 in entry (0, 0): d_1 o d_2 != 0, and d_1 is untouched
    f1, f2 = F.ranks[1:]
    bump = GroupRingMatrix(S3M, f1, f2, [elem(S3M, (0, 1))] + [elem(S3M)] * (f1 * f2 - 1))
    bad = F.boundary(2) + bump
    rep = validate_complex(AlgebraicComplex(F.ranks, S3M, (F.boundary(1), bad)))
    assert not rep.chain_ok and rep.aug_d1_zero and not rep.ok
    assert (rep.exact_at_f0, rep.exact_at_f1) == (None, None)
    assert (rep.d2_rank_q, rep.ker_d2_qdim) == (None, None)
    # a chain complex whose d_1 the augmentation does not kill
    ones = GroupRingMatrix(S3M, 1, f1, [elem(S3M, (0, 1))] * f1)
    zero = GroupRingMatrix.zeros(S3M, f1, f2)
    rep = validate_complex(AlgebraicComplex(F.ranks, S3M, (ones, zero)))
    assert rep.chain_ok and not rep.aug_d1_zero and not rep.ok
    assert (rep.exact_at_f0, rep.exact_at_f1, rep.d2_rank_q) == (None, None, None)
    assert calls == []
    # symbolic mode keeps its shadow rank, one elimination
    rep = validate_complex(presentation_complex(S3P))
    assert rep.d2_rank_q == 2
    assert len(calls) == 1
    # and, as in finite mode, no rank when the augmentation does not kill d_1
    S = presentation_complex(S3P)
    bump = GroupRingMatrix.from_rows(ONE_ELEMENT, [[elem(ONE_ELEMENT, (0, 1))] * 2])
    rep = validate_complex(AlgebraicComplex(S.ranks, None, (bump, S.boundary(2))))
    assert not rep.aug_d1_zero and (rep.d2_rank_q, rep.ker_d2_qdim) == (None, None)
    assert len(calls) == 1


def _dup_pair(P, model, dup):
    """(P wedge S^2, P with relator dup listed twice) over model."""
    F = stabilize_wedge(presentation_complex(P, model), 1)
    G = presentation_complex(
        Presentation(P.generators, P.relators + (P.relators[dup],)), model)
    return F, G


def _pi2_by_determinant(phi2, K_src, K_tgt):
    """The coordinate test the Hermite-form comparison replaced."""
    if len(K_src) != len(K_tgt):
        return False
    if not K_src:
        return True
    img = regular_rep_expand(phi2) * IntMatrix.from_rows(K_src).transpose()
    Y = solve_integer_system(IntMatrix.from_rows(K_tgt).transpose(), img)
    return Y is not None and determinant(Y) in (1, -1)


def _corrected(phi2, corrections):
    """phi2 plus sign * omega for each correction (sign, (c, v)), where
    omega = v e_c^T is the column v in matrix column c."""
    s2, n, zero = phi2.cols, phi2.model.order, GroupRingElement.zero(phi2.model)
    for sign, (c, v) in corrections:
        omega = GroupRingMatrix(phi2.model, phi2.rows, s2, [
            GroupRingElement(phi2.model, v.vec.data[i * n:(i + 1) * n])
            if j == c else zero for i in range(phi2.rows) for j in range(s2)])
        phi2 = phi2 + omega if sign > 0 else phi2 - omega
    return phi2


def _kernel(F):
    """The Hermite basis of pi_2 = ker d_2 as tuples, built without _pi2."""
    return kernel_basis(regular_rep_expand(F.boundary(2)))


def _candidate_corrections(src, tgt):
    """The corrections of every phi2 candidate, in the order
    _phi2_candidates tries them: none, then each single (c, v) with sign 1
    and -1, then each pair of singles a < b with signs (1, 1), (1, -1),
    (-1, 1), (-1, -1); v runs over the columns of ker d_2 of tgt as t_2 x 1
    ZG matrices."""
    model, n, t2 = tgt.model, tgt.model.order, tgt.ranks[2]
    singles = [(c, GroupRingMatrix(model, t2, 1, [
        GroupRingElement(model, v[i * n:(i + 1) * n]) for i in range(t2)]))
        for c in range(src.ranks[2]) for v in _kernel(tgt)]
    out = [()] + [((sign, w),) for w in singles for sign in (1, -1)]
    out += [((sa, wa), (sb, wb)) for a, wa in enumerate(singles)
            for wb in singles[a + 1:] for sa in (1, -1) for sb in (1, -1)]
    return out


def _tried_candidates(src, tgt, phi2, budget):
    """(corrections, phi2 matrix, dense image of K_src, kept) for each
    candidate _phi2_candidates spends on with `budget` (one unit each after
    phi2 itself); kept says whether its image has rank |K_tgt| over F_2."""
    K_src_t = IntMatrix.from_rows(_kernel(src)).transpose()
    r = len(_kernel(tgt))
    out = []
    for corrections in _candidate_corrections(src, tgt)[:1 + budget.limit - budget.used]:
        cand = _corrected(phi2, corrections)
        img = regular_rep_expand(cand) * K_src_t
        out.append((corrections, cand, img, rank_mod_p(img, 2) == r))
    return out


@pytest.mark.parametrize("text, k", [
    ("gens: x\nrels: x^5\n", 4),
    ("gens: a b\nrels: a^2 b^2 (a b)^3\n", 11),
    ("gens: a\nrels: a\n", 0),
], ids=["z5", "s3", "trivial-a"])
def test_pi2_is_the_kernel_of_d2(text, k):
    P = parse_presentation(text)
    F = presentation_complex(P, group_model(P, 1000))
    # a wedged 2-sphere adds one free ZG summand, |G| lattice vectors
    for X, rank in ((F, k), (stabilize_wedge(F, 1), k + F.model.order)):
        K, goal = _pi2(X)
        assert (K.rows, K.cols) == (X.ranks[2], rank)
        assert X.boundary(2).compose(K).is_zero()
        assert [K.vec.column(j) for j in range(K.cols)] == _kernel(X)
        assert goal == _columns(K.vec)


@pytest.mark.parametrize("text, dup", [
    ("gens: a b\nrels: a^2 b^2 (a b)^3\n", 2),
    ("gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n", 1),
    ("gens: a b\nrels: a^2 b^2 (a b)^5\n", 0),
], ids=["s3", "q8", "d5"])
def test_pi2_isomorphism_matches_the_determinant_test(text, dup):
    # every candidate the budget reaches, the rejected ones included: the
    # F_2 rank decides which are yielded, it never drops one the
    # determinant test accepts, and each yielded one's Hermite comparison
    # agrees with the determinant test
    P = parse_presentation(text)
    F, G = _dup_pair(P, group_model(P, 1000), dup)
    decisions = []
    for src, tgt in ((F, G), (G, F)):
        budget = _Budget(120)
        phi = _lift_chain_map(src, tgt, budget)
        K_src, K_tgt = _kernel(src), _kernel(tgt)
        tried = _tried_candidates(src, tgt, phi[2], budget)
        m = tgt.ranks[2] * tgt.model.order
        goal = [{i: x for i, x in enumerate(v) if x} for v in K_tgt]
        got = list(_phi2_candidates(phi[2], _pi2(src)[0], _pi2(tgt)[0], budget))
        assert budget.used == 121
        assert [c for c, _ in got] == [c for c, _, _, kept in tried if kept]
        images = {c: image for c, image in got}
        for corrections, cand, img, kept in tried:
            det = _pi2_by_determinant(cand, K_src, K_tgt)
            assert kept or not det
            if kept:
                image = images[corrections]
                assert image == _columns(img)
                # the sparse Hermite comparison that _attempt_orientation makes
                iso = len(K_src) == len(K_tgt) and image[:_echelon(image, m)] == goal
                assert iso == det
            decisions.append(det)
    assert len(decisions) > 100
    assert True in decisions and False in decisions


def test_contract_cone_checks_the_top_degree(monkeypatch):
    # phi2 sends the wedged 2-sphere to zero: the cone is acyclic below
    # degree 3, so all three lifts exist, but D3 is not injective and no
    # s2 has s2 D3 = 1
    from d2kit import chains

    F = presentation_complex(Z2P, Z2M)
    W = stabilize_wedge(F, 1)
    one, z = elem(Z2M, (0, 1)), elem(Z2M)
    ident = GroupRingMatrix(Z2M, 1, 1, [one])
    phi = [ident, ident, GroupRingMatrix(Z2M, 1, 2, [one, z])]
    lifts = []

    def recording(A, B, side):
        lifts.append(real(A, B, side))
        return lifts[-1]

    real = chains.solve_gr_system
    monkeypatch.setattr(chains, "solve_gr_system", recording)
    budget = _Budget(5)
    assert _contract_cone(phi, W, F, budget) is None
    assert len(lifts) == 3 and None not in lifts
    assert budget.used == 1


def test_phi2_candidates_order_and_images():
    # Z/5 is small enough that the budget reaches the double corrections
    # (c, v), (c', v') of the first three singles
    F = stabilize_wedge(presentation_complex(Z5P, Z5M), 1)
    G = presentation_complex(
        Presentation(Z5P.generators, Z5P.relators * 2), Z5M)
    n, z = Z5M.order, GroupRingElement.zero(Z5M)
    kept_counts = []
    for src, tgt in ((F, G), (G, F)):
        budget = _Budget(300)
        phi = _lift_chain_map(src, tgt, budget)
        K_tgt = _kernel(tgt)
        s2, t2 = src.ranks[2], tgt.ranks[2]
        signed = []
        for c in range(s2):
            for v in K_tgt:
                w = GroupRingMatrix(Z5M, t2, s2, [
                    GroupRingElement(Z5M, v[i * n:(i + 1) * n]) if j == c else z
                    for i in range(t2) for j in range(s2)])
                signed.append((w, -w))
        expected = [phi[2]] + [phi[2] + x for pair in signed for x in pair]
        expected += [phi[2] + (xa + xb)
                     for a in range(len(signed)) for b in range(a + 1, len(signed))
                     for xa in signed[a] for xb in signed[b]]
        tried = _tried_candidates(src, tgt, phi[2], budget)
        # the lift spent 2 units; every candidate after phi2 spends one
        assert len(tried) == 1 + 298 > 1 + 2 * len(signed) + 4 * 3 * (len(signed) - 2)
        assert [cand for _, cand, _, _ in tried] == expected[:len(tried)]
        got = list(_phi2_candidates(phi[2], _pi2(src)[0], _pi2(tgt)[0], budget))
        assert budget.used == 301
        kept = [(c, _columns(img)) for c, _, img, k in tried if k]
        assert got == kept
        kept_counts.append(len(kept))
    assert kept_counts == [90, 180]


@pytest.mark.parametrize("P, model, budget", [
    (Z5P, Z5M, 100), (S3P, S3M, 160)], ids=["z5", "s3"])
def test_phi2_candidate_images_survive_in_place_reduction(P, model, budget):
    # _attempt_orientation reduces each image in place with _echelon; that
    # must not reach the base image later candidates merge
    F, G = _dup_pair(P, model, 0)
    for src, tgt in ((F, G), (G, F)):
        b = _Budget(budget)
        phi = _lift_chain_map(src, tgt, b)
        tried = _tried_candidates(src, tgt, phi[2], b)
        kept = [(c, _columns(img)) for c, _, img, k in tried if k]
        m = tgt.ranks[2] * model.order
        seen = []
        for corrections, image in _phi2_candidates(phi[2], _pi2(src)[0],
                                                   _pi2(tgt)[0], b):
            seen.append((corrections, [dict(col) for col in image]))
            _echelon(image, m)
        assert seen == kept and len(seen) > 1
        assert b.used == budget + 1
        # the budget reaches the double corrections
        assert len(tried) > 1 + 2 * src.ranks[2] * len(_kernel(tgt))


def test_phi2_candidates_build_no_matrix_per_correction(monkeypatch):
    # a correction is data (c, v); only _attempt_orientation composes an
    # omega, and only for a candidate that passes the pi_2 test
    F = stabilize_wedge(presentation_complex(Z5P, Z5M), 1)
    G = presentation_complex(
        Presentation(Z5P.generators, Z5P.relators * 2), Z5M)
    calls = []
    real = GroupRingMatrix.compose

    def counting(self, other):
        calls.append((self.rows, self.cols, other.cols))
        return real(self, other)

    for src, tgt in ((F, G), (G, F)):
        budget = _Budget(100)
        phi = _lift_chain_map(src, tgt, budget)
        K_src, K_tgt = _pi2(src)[0], _pi2(tgt)[0]
        tried = _tried_candidates(src, tgt, phi[2], budget)
        monkeypatch.setattr(GroupRingMatrix, "compose", counting)
        got = list(_phi2_candidates(phi[2], K_src, K_tgt, budget))
        monkeypatch.setattr(GroupRingMatrix, "compose", real)
        assert calls == [] and budget.used == 101
        assert [c for c, _ in got] == [c for c, _, _, k in tried if k]
        for corrections, _ in got:
            for sign, (c, v) in corrections:
                assert sign in (1, -1) and 0 <= c < src.ranks[2]
                assert (v.rows, v.cols) == (tgt.ranks[2], 1)


@pytest.mark.parametrize("P, model", [(Z5P, Z5M), (S3P, S3M)], ids=["z5", "s3"])
def test_phi2_candidates_compose_and_slice_only_yielded_corrections(P, model, monkeypatch):
    # a single correction is tested from bitmasks: the base image is
    # composed once, each yielded correction once more, and a row of K_src
    # or a column of K_tgt is sliced only when a yielded candidate names it
    from d2kit import chains

    F, G = _dup_pair(P, model, 0)
    real_compose, real_slice = chains._composed_columns, GroupRingMatrix.submatrix
    yielded = []
    for src, tgt in ((F, G), (G, F)):
        budget = _Budget(100)
        phi = _lift_chain_map(src, tgt, budget)
        K_src, K_tgt = _pi2(src)[0], _pi2(tgt)[0]
        composed, sliced = [], []

        def composing(A, B):
            composed.append(1)
            return real_compose(A, B)

        def slicing(self, row_indices, col_indices):
            row_indices, col_indices = tuple(row_indices), tuple(col_indices)
            if self is K_src and col_indices == tuple(range(K_src.cols)):
                sliced.append(("row", row_indices))
            elif self is K_tgt and row_indices == tuple(range(K_tgt.rows)):
                sliced.append(("column", col_indices))
            else:
                sliced.append(("other", row_indices, col_indices))
            return real_slice(self, row_indices, col_indices)

        monkeypatch.setattr(chains, "_composed_columns", composing)
        monkeypatch.setattr(GroupRingMatrix, "submatrix", slicing)
        got = list(_phi2_candidates(phi[2], K_src, K_tgt, budget))
        monkeypatch.undo()
        assert budget.used == 101
        named = [w for corrections, _ in got for _, w in corrections]
        assert len(composed) == 1 + len(named)
        columns = [K_tgt.vec.column(j) for j in range(K_tgt.cols)]
        rows = {("row", (c,)) for c, _ in named}
        targets = {("column", (columns.index(v.vec.column(0)),)) for _, v in named}
        assert sorted(sliced) == sorted(rows | targets)
        # not every row and column the budget reaches
        assert len(sliced) < K_src.rows + K_tgt.cols
        yielded.append(len(named))
    assert yielded[0] + yielded[1] > 0


# sha256 over (kind, solver_calls, vec data of the ten certificate maps) of
# certify_chain_equivalence on _dup_pair for every duplicated relator, in
# both argument orders
CERTIFY_DIGEST = "e5625f7174221675c99d78409972a825e6ae24d54681e1ea52e5888ddc617510"


def test_dup_pair_certificates_digest():
    digest, calls = hashlib.sha256(), []
    for text in ("gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n",
                 "gens: a b\nrels: a^2 b^2 (a b)^3\n",
                 "gens: a b\nrels: a^2 b^2 (a b)^5\n"):
        P = parse_presentation(text)
        model = group_model(P, 1000)
        for dup in range(len(P.relators)):
            F, G = _dup_pair(P, model, dup)
            for X, Y in ((F, G), (G, F)):
                out = certify_chain_equivalence(X, Y)
                cert = out.certificate
                maps = (cert.forward + cert.backward + cert.homotopies_gf
                        + cert.homotopies_fg)
                digest.update(repr((out.kind, out.solver_calls,
                                    [m.vec.data for m in maps])).encode())
                calls.append(out.solver_calls)
    assert calls == [66, 18, 78, 48, 106, 26, 114, 60, 120, 94,
                     178, 42, 190, 100, 200, 158]
    assert digest.hexdigest() == CERTIFY_DIGEST


def test_certification_hermite_tests_only_f2_survivors(monkeypatch):
    # the certify-pairs inputs of perfbench seed 0: Q8 with its relators
    # rotated by 3 and 1 letters, S3 and D5 as given. Before the F_2 rank
    # test every candidate image reached _echelon: 76, 112 and 176 calls
    from d2kit import chains

    calls = []
    real = chains._echelon

    def counting(C, m):
        calls.append(m)
        return real(C, m)

    monkeypatch.setattr(chains, "_echelon", counting)
    found = []
    for text, rotations, dup in (
            ("gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n", (3, 1), 1),
            ("gens: a b\nrels: a^2 b^2 (a b)^3\n", (0, 0, 0), 1),
            ("gens: a b\nrels: a^2 b^2 (a b)^5\n", (0, 0, 0), 0)):
        P = parse_presentation(text)
        rels = tuple(Word(r.letters[k:] + r.letters[:k])
                     for r, k in zip(P.relators, rotations))
        F, G = _dup_pair(Presentation(P.generators, rels), group_model(P, 1000), dup)
        calls.clear()
        out = certify_chain_equivalence(F, G)
        found.append((out.kind, out.solver_calls, len(calls)))
    assert found == [("certificate", 78, 3), ("certificate", 114, 1),
                     ("certificate", 178, 1)]


# sha256 of repr([m.vec.data for m in the ten maps]) for A5 wedge S^2
# against A5 with relator dup listed twice, at budget 3000, recorded before
# single corrections were tested from bitmasks
A5_DUP_CERTIFICATES = {
    0: (1078, "75ebfed6803f58119fd308147db9f755583c9b7a071ad1f8e1bcf973cf93204a"),
    1: (1140, "48e3a693ee2266a112d59606f3604beb0daedc8963a6b2cba37ba635575ea054"),
    2: (1220, "13ad48b1381e5a2653bb8776e6342e99ed1bedc470ab17f44a7013769cc16317"),
}


@pytest.mark.parametrize("dup", sorted(A5_DUP_CERTIFICATES))
def test_a5_duplicate_pairs_certify_at_budget_3000(dup):
    # unknown at the default 600 units; every unit goes to single corrections
    F, G = _dup_pair(A5P, group_model(A5P, 1000), dup)
    out = certify_chain_equivalence(F, G, budget=3000)
    cert = out.certificate
    maps = cert.forward + cert.backward + cert.homotopies_gf + cert.homotopies_fg
    digest = hashlib.sha256(repr([m.vec.data for m in maps]).encode()).hexdigest()
    assert (out.kind, out.solver_calls, digest) == ("certificate",) + A5_DUP_CERTIFICATES[dup]


def test_psl27_duplicate_pair_stays_unknown():
    # the forward search runs out at unit 601 and the reverse lift's first
    # spend fails at 602; no candidate the budget reaches maps pi_2 onto pi_2
    P = parse_presentation("gens: a b\nrels: a^2 b^3 (a b)^7 (a^-1 b^-1 a b)^4\n")
    F, G = _dup_pair(P, group_model(P, 1000), 0)
    out = certify_chain_equivalence(F, G)
    assert (out.kind, out.solver_calls) == ("unknown", 602)


def test_acx_round_trip_finite():
    F = presentation_complex(S3P, S3M)
    text = acx.dumps(F)
    G = acx.loads(text)
    assert G.ranks == F.ranks
    assert G.boundaries == F.boundaries
    assert G.model.same_table(F.model)
    assert acx.dumps(G) == text


def test_acx_round_trip_symbolic():
    F = presentation_complex(TREFOILP)
    G = acx.loads(acx.dumps(F))
    assert G.ranks == F.ranks
    assert G.boundaries == F.boundaries
    assert G.presentation == F.presentation


def test_acx_round_trip_top3(tmp_path):
    W = stabilize_wedge(presentation_complex(Z5P, Z5M), 1)
    d3 = GroupRingMatrix(Z5M, 2, 1,
                         [GroupRingElement.zero(Z5M), GroupRingElement.one(Z5M)])
    X = attach_three_cells(W, d3)
    path = tmp_path / "x.acx"
    acx.write_acx(X, path)
    Y = acx.read_acx(path)
    assert Y.ranks == X.ranks and Y.boundaries == X.boundaries


Q8P = parse_presentation("gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n")
_CODEC_GROUPS = [(Z2P, Z2M), (S3P, S3M), (Q8P, group_model(Q8P, 100)),
                 (A5P, group_model(A5P, 1000)), (TREFOILP, None)]
# sha256 of every text the codec round trip writes, in order: a change to
# the .acx bytes shows here
_CODEC_SHA256 = "50247cde5028c3550d34bc303c0173d3a483e6bef1497dd2eab8d15a409c0e9b"


def _random_complex(rng, P, model):
    """A seeded complex of top degree 1, 2 or 3 over model (symbolic when
    None): rank-0 degrees, all-zero blocks, negative and multi-digit
    coefficients. Its boundaries need not compose to zero."""
    top = rng.randint(1, 3)
    ranks = (rng.randint(1, 3),) + tuple(rng.randint(0, 3) for _ in range(top))
    ring = model or ONE_ELEMENT
    n = ring.order
    boundaries = []
    for rows, cols in zip(ranks, ranks[1:]):
        density = rng.choice((0, 0.05, 0.5))
        flat = IntMatrix(rows * n, cols, [
            rng.choice((-40321, -12, -1, 1, 3, 1000)) if rng.random() < density
            else 0 for _ in range(rows * n * cols)])
        boundaries.append(GroupRingMatrix._raw(ring, rows, cols, flat))
    keep = model is None or rng.random() < 0.5
    return AlgebraicComplex(ranks, model, tuple(boundaries), P if keep else None)


def test_acx_codec_round_trip():
    # loads inverts dumps and dumps inverts loads, in both modes, and the
    # written bytes are pinned
    rng = random.Random(2015)
    texts = []
    for P, model in _CODEC_GROUPS:
        for _ in range(12):
            F = _random_complex(rng, P, model)
            text = acx.dumps(F)
            assert acx.loads(text) == F
            assert acx.dumps(acx.loads(text)) == text
            texts.append(text)
    assert any("[d3]\n" in t for t in texts)
    assert any(t.endswith("]\n") for t in texts)  # an empty last block
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == _CODEC_SHA256


# per corpus file, the symbolic complex: sha256 of its .acx text, its
# validate_complex fields and its homology over Q, F_2, F_3 and F_5
_SYMBOLIC_PINS = {
    "a5.fp": (
        "a3ee1685063de9eeb380215eafded90c40f3a205bfdc5e65a40179eb27caadf2",
        ("symbolic", True, True, None, None, 2, 1, ()),
        ((1, 0, 1), (1, 0, 1), (1, 0, 1), (1, 0, 1))),
    "f2.fp": (
        "603ba75d806449702371fa3452166768c4f57b2be53f7257e0cdc5d6f045f08b",
        ("symbolic", True, True, None, None, 0, 0, ()),
        ((1, 2, 0), (1, 2, 0), (1, 2, 0), (1, 2, 0))),
    "q8.fp": (
        "7654f4943479b181c738211dc10a50b140b5665627917527e87e874a4119a4b1",
        ("symbolic", True, True, None, None, 2, 0, ()),
        ((1, 0, 0), (1, 2, 2), (1, 0, 0), (1, 0, 0))),
    "s3.fp": (
        "ec2e74277ab39e81004a0363d6eebdb1f29fcaec1b51af169bc6217e1796cd58",
        ("symbolic", True, True, None, None, 2, 1, ()),
        ((1, 0, 1), (1, 1, 2), (1, 0, 1), (1, 0, 1))),
    "trefoil.fp": (
        "11826d2bc94e4c46b48a8bf9af839807d6851b0a12940fd6e15b25528adcaa67",
        ("symbolic", True, True, None, None, 1, 0, ()),
        ((1, 1, 0), (1, 1, 0), (1, 1, 0), (1, 1, 0))),
    "trivial.fp": (
        "49dce1c050b55ead1fc6262437eb6e5c8c26603f2480eea32e6fc1b4a4ad6fac",
        ("symbolic", True, True, None, None, 0, 0, ()),
        ((1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0))),
    "z.fp": (
        "b6695b6814d93fed8546f9ce8cd60a182a3a807528e183f6d8f536b885b6c770",
        ("symbolic", True, True, None, None, 0, 0, ()),
        ((1, 1, 0), (1, 1, 0), (1, 1, 0), (1, 1, 0))),
    "z2.fp": (
        "3fb93a7a0a08f603858271989f543d753cbf190fb81d9c214f0dc94cbf5ae27f",
        ("symbolic", True, True, None, None, 1, 0, ()),
        ((1, 0, 0), (1, 1, 1), (1, 0, 0), (1, 0, 0))),
    "z5.fp": (
        "b0510e4b8353055c726feb2704fa50d6c911ae053f6dca9002e3238f0f18b399",
        ("symbolic", True, True, None, None, 1, 0, ()),
        ((1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 1, 1))),
}
# sha256 of the .acx texts of every corpus file's symbolic complex wedged
# with two 2-spheres, in file order
_SYMBOLIC_WEDGE_SHA256 = "56e9a93ee679787099ee23c25327cea5d532befdd8f0ff0dea3e826a60377284"


def test_symbolic_complexes_are_pinned():
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    paths = sorted(corpus.glob("*.fp"))
    assert [p.name for p in paths] == sorted(_SYMBOLIC_PINS)
    wedges = hashlib.sha256()
    for path in paths:
        F = presentation_complex(parse_presentation(path.read_text()))
        digest, report, homology = _SYMBOLIC_PINS[path.name]
        assert hashlib.sha256(acx.dumps(F).encode()).hexdigest() == digest, path.name
        assert dataclasses.astuple(validate_complex(F)) == report, path.name
        assert tuple(homology_over_field(F, f) for f in ("Q", 2, 3, 5)) == homology
        wedges.update(acx.dumps(stabilize_wedge(F, 2)).encode())
    assert wedges.hexdigest() == _SYMBOLIC_WEDGE_SHA256


def test_acx_bad_input():
    with pytest.raises(acx.AcxError):
        acx.loads("[ranks]\n1 1\n")
    with pytest.raises(acx.AcxError):
        acx.loads("[group]\nmode: nonsense\n[ranks]\n1\n")
    with pytest.raises(acx.AcxError, match="lacks an order"):
        acx.loads("[group]\nmode: finite\nmulttable:\n0\n[ranks]\n1\n")
    with pytest.raises(acx.AcxError, match="empty \\[ranks\\]"):
        acx.loads("[group]\nmode: finite\norder: 1\nmulttable:\n0\n[ranks]\n")


_Z2_D1 = ("[group]\nmode: finite\norder: 2\nmulttable:\n0 1\n1 0\n"
          "generators: 1\n[ranks]\n1 1\n[d1]\n")
_FREE_D1 = ("[group]\nmode: symbolic\n[presentation]\ngens: x\nrels:\n"
            "[ranks]\n1 1\n[d1]\n")


def test_acx_entry_lines_sum_pairs_and_repeated_entries_rejected():
    # pairs repeated on one line add up; a second line for the same entry
    # is rejected in both modes, not read over the first
    F = acx.loads(_Z2_D1.replace("1 1\n", "1 2\n") +
                  "0 1 0:5\n0 0 1:-1 0:-2 1:2\n")
    t = F.boundary(1)
    assert t.entries == (GroupRingElement(t.model, (-2, 1)),
                         GroupRingElement(t.model, (5, 0)))
    for text in (_Z2_D1 + "0 0 0:1 1:4\n0 0 1:1\n", _FREE_D1 + "0 0 1\n0 0 2\n"):
        with pytest.raises(acx.AcxError, match="repeats entry 0 0"):
            acx.loads(text)
    # no rows: the boundary is empty, not an error
    G = acx.loads("[group]\nmode: finite\norder: 1\nmulttable:\n0\n"
                  "generators:\n[ranks]\n1 0 2\n")
    assert (G.boundary(2).rows, G.boundary(2).cols) == (0, 2)


@pytest.mark.parametrize("text", [
    _Z2_D1 + "-1 0 0:1\n", _Z2_D1 + "0 -1 0:1\n", _Z2_D1 + "0 0 -1:1\n",
    _Z2_D1 + "1 0 0:1\n", _Z2_D1 + "0 1 0:1\n", _Z2_D1 + "0 0 2:1\n",
    _FREE_D1 + "-1 0 1\n", _FREE_D1 + "0 1 1\n"],
    ids=["row-neg", "col-neg", "elem-neg", "row-big", "col-big", "elem-big",
         "symbolic-row-neg", "symbolic-col-big"])
def test_acx_index_out_of_range(text):
    # a negative index must not wrap to the last row or element
    with pytest.raises(acx.AcxError, match="out of range"):
        acx.loads(text)


def test_acx_ranks_bounded_before_allocating():
    with pytest.raises(acx.AcxError, match="negative rank in \\[ranks\\]: 1 -2"):
        acx.loads(_FREE_D1.replace("1 1\n", "1 -2\n"))
    # a symbolic boundary at the cap is read; one entry more is rejected
    side = 1000
    assert side * side == acx.MAX_BOUNDARY_COEFFS
    F = acx.loads(_FREE_D1.replace("1 1\n", f"1 1 {side} {side}\n"))
    assert F.ranks == (1, 1, side, side)
    with pytest.raises(acx.AcxError, match="\\[d3\\] of 1000x1001 entries over a "
                       "group of order 1 exceeds 1000000 coefficients"):
        acx.loads(_FREE_D1.replace("1 1\n", f"1 1 {side} {side + 1}\n"))


def _finite_acx(rows, generators):
    table = "\n".join(" ".join(str(x) for x in row) for row in rows)
    return (f"[group]\nmode: finite\norder: {len(rows)}\nmulttable:\n{table}\n"
            f"generators: {generators}\n[ranks]\n1\n")


# a Latin square with identity 0 that is not associative: (1*1)*2 != 1*(1*2)
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("rows, generators, message", [
    ([[0, 1], [0, 1]], "1", "column 0 is not a permutation"),
    ([[0, 1], [1, 1]], "1", "row 1 is not a permutation"),
    ([[1, 0], [0, 1]], "1", "element 0 is not the identity"),
    ([[0, 1], [1, 0]], "2", "generator index 2 out of range"),
    (LOOP5, "1 2", "not associative"),
    (LOOP5, "", "not associative"),
], ids=["order-2-constant-rows", "repeated-entry", "no-identity",
        "generator-out-of-range", "loop5", "loop5-no-generators"])
def test_acx_rejects_tables_that_are_not_groups(rows, generators, message):
    with pytest.raises(acx.AcxError, match=message):
        acx.loads(_finite_acx(rows, generators))


def _reduced_latin_squares(n):
    """Every Latin square on 0..n-1 whose first row and column are 0..n-1."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield tuple(tuple(r) for r in rows)
            return
        i, j = divmod(cell, n)
        if i == 0 or j == 0:
            yield from fill(cell + 1)
            return
        for x in range(n):
            if x not in rows[i][:j] and all(rows[k][j] != x for k in range(i)):
                rows[i][j] = x
                yield from fill(cell + 1)
        rows[i][j] = None

    yield from fill(0)


def test_acx_group_check_agrees_with_brute_force_associativity():
    seen = {True: 0, False: 0}
    for n in (3, 4, 5):
        for mult in _reduced_latin_squares(n):
            assoc = all(mult[mult[x][a]][y] == mult[x][mult[a][y]]
                        for x in range(n) for a in range(n) for y in range(n))
            seen[assoc] += 1
            for gens in ((), (1,), (n - 1, 1)):
                try:
                    acx._check_group(mult, gens)
                    accepted = True
                except acx.AcxError:
                    accepted = False
                assert accepted == assoc, (mult, gens)
    assert seen[True] and seen[False]


# Each case breaks one step under a re-verification and expects it to raise.
# The script runs under `python -O`, which strips assert statements.
_OPTIMIZED_CHECKS = """
from d2kit import chains, coset, groupring
from d2kit.chains import (
    attach_three_cells, certify_chain_equivalence, presentation_complex,
    split_test)
from d2kit.coset import group_model
from d2kit.groupring import GroupRingElement, GroupRingMatrix, solve_gr_system
from d2kit.intlinalg import CertificateError, IntMatrix
from d2kit.presentations import parse_presentation

P = parse_presentation("gens: x\\nrels: x^2\\n")
m = group_model(P, 100)
one = GroupRingMatrix.identity(m, 1)
B = GroupRingMatrix(m, 1, 1, [GroupRingElement.from_pairs(m, [(0, 1), (1, 1)])])
x_minus_1 = GroupRingMatrix(m, 1, 1, [GroupRingElement.from_pairs(m, [(1, 1), (0, -1)])])
X = attach_three_cells(presentation_complex(P, m), x_minus_1)  # does not split
X1 = attach_three_cells(presentation_complex(P, m), GroupRingMatrix.zeros(m, 1, 1))


def expect(name, error, fn, *args):
    try:
        fn(*args)
    except error:
        print(name)


def wrong_solution(C, m, B):
    return IntMatrix.zeros(len(C), B.cols)


print("asserts" if __debug__ else "optimized")
# every ZG solve, split_test's included, goes through groupring._solve
real = groupring._solve
groupring._solve = wrong_solution
expect("right", CertificateError, solve_gr_system, one, B, "right")
expect("left", CertificateError, solve_gr_system, one, B, "left")
expect("retraction", CertificateError, split_test, X1)
groupring._solve = real
chains.infeasibility_certificate = lambda A, B: None
expect("obstruction", CertificateError, split_test, X)


class Disconnected:  # two live cosets that no column joins
    cols = [[0, 1], [0, 1]]

    def live(self):
        return [0, 1]

    def rep(self, k):
        return k


expect("standardized", CertificateError, coset._compress_and_standardize,
       Disconnected())
is_complete = coset._Table.is_complete
coset._Table.is_complete = lambda self: False
expect("complete", CertificateError, coset.todd_coxeter, P, 100)
coset._Table.is_complete = is_complete
evaluate_word = coset.FiniteGroupModel.evaluate_word
coset.FiniteGroupModel.evaluate_word = lambda self, w: 1
expect("relators", CertificateError, coset.group_model, P, 100)
coset.FiniteGroupModel.evaluate_word = evaluate_word
chains.EquivalenceCertificate.verify = lambda self, F, G: False
F0 = presentation_complex(P, m)
expect("identity", CertificateError, certify_chain_equivalence, F0, F0)
"""


def test_reverifications_raise_under_python_optimize():
    src = str(Path(d2kit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [
        "optimized", "right", "left", "retraction", "obstruction",
        "standardized", "complete", "relators", "identity"]
