"""Golden values for the exact solver's choices.

solve_integer_system returns the particular solution that the column echelon
form of the system picks, so any change to the rows, columns or entries of
an assembled ZG system can change retractions and certificates while every
re-verification still passes. These values pin the systems and the choices.
"""

import hashlib

import pytest

from d2kit.chains import (
    attach_three_cells,
    certify_chain_equivalence,
    presentation_complex,
    quotient_by_split_summand,
    split_test,
    stabilize_wedge,
)
from d2kit.coset import group_model
from d2kit.groupring import (
    GroupRingElement,
    GroupRingMatrix,
    gr_integer_system,
    regular_rep_expand,
)
from d2kit.intlinalg import kernel_basis
from d2kit.presentations import Presentation, parse_presentation

Z2 = group_model(parse_presentation("gens: x\nrels: x^2\n"), 100)
S3P = parse_presentation("gens: a b\nrels: a^2 b^2 (a b)^3\n")
S3 = group_model(S3P, 1000)


def elem(model, *pairs):
    return GroupRingElement.from_pairs(model, pairs)


def grid(M):
    return (M.rows, M.cols, tuple(e.coeffs for e in M.entries))


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def int_digest(M):
    return M.rows, M.cols, digest((M.rows, M.cols, M.data))


def test_gr_integer_system_z2():
    B = GroupRingMatrix.from_rows(Z2, [[elem(Z2, (0, 2), (1, 1))]])
    row = GroupRingMatrix.from_rows(Z2, [[elem(Z2, (0, 1), (1, 1)),
                                          elem(Z2, (1, -1))]])
    col = GroupRingMatrix.from_rows(Z2, [[elem(Z2, (0, 1), (1, 1))],
                                         [elem(Z2, (1, -1))]])
    for A, side in ((row, "right"), (col, "left")):
        big, rhs = gr_integer_system(A, B, side)
        assert big.to_rows() == [[1, 1, 0, -1], [1, 1, -1, 0]]
        assert rhs.to_rows() == [[2], [1]]


def test_gr_integer_system_s3():
    A = GroupRingMatrix.from_rows(S3, [
        [elem(S3, (0, 1), (1, -1)), elem(S3, (2, 1))],
        [elem(S3, (3, 2)), elem(S3, (0, 1), (4, 1), (5, -1))]])
    rhs_digest = (12, 1, "a60f4b3727077a992e7a295a0c3b882a"
                         "0b3f9f0e1b99f4033bfe8afe1b8fa6a0")
    big, rhs = gr_integer_system(
        A, GroupRingMatrix.from_rows(S3, [[elem(S3, (1, 1))],
                                          [elem(S3, (0, 1), (2, -1))]]),
        "right")
    assert big == regular_rep_expand(A)
    assert int_digest(big) == (12, 12, "9aa1327dddd4f2ada911796161f7f8be"
                                       "66b8a890c49cb29f26779f4d599c79bf")
    assert int_digest(rhs) == rhs_digest
    big, rhs = gr_integer_system(
        A, GroupRingMatrix.from_rows(S3, [[elem(S3, (1, 1)),
                                           elem(S3, (0, 1), (2, -1))]]),
        "left")
    assert int_digest(big) == (12, 12, "3596f9552e4aa0f74642b1ad3f21739b"
                                       "9a19a89f82bce3c6d5321baa9aff6189")
    assert int_digest(rhs) == rhs_digest


def test_split_retraction_and_quotient_s3():
    # d3 includes the wedged slot twisted by b, plus a pi_2 element in the
    # original slots, so the retraction is a genuine solver choice
    F = presentation_complex(S3P, S3)
    W = stabilize_wedge(F, 1)
    v = kernel_basis(regular_rep_expand(F.boundary(2)))[0]
    n = S3.order
    col = [GroupRingElement(S3, v[i * n:(i + 1) * n]) for i in range(3)]
    d3 = GroupRingMatrix(S3, 4, 1, col + [GroupRingElement.from_element(S3, 1)])
    assert grid(d3) == (4, 1, ((1, 0, 0, 0, 1, 1), (0, 0, 1, 1, 0, 1),
                               (0, 0, 0, 0, -1, -1), (0, 1, 0, 0, 0, 0)))
    X = attach_three_cells(W, d3)
    rep = split_test(X)
    assert rep.splits
    assert grid(rep.retraction) == (1, 4, (
        (1, 0, 0, 0, -1, 0), (-1, 0, 0, 0, 0, 0),
        (0, -2, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)))
    Q = quotient_by_split_summand(X, rep)
    assert [grid(d) for d in Q.boundaries] == [
        (1, 2, ((-1, 1, 0, 0, 0, 0), (-1, 0, 1, 0, 0, 0))),
        (2, 3, ((1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0),
                (1, 0, 0, 1, 1, 0), (0, 0, 0, 0, 0, 0),
                (1, 0, 1, 0, 0, 0), (0, 1, 1, 0, 0, 1)))]


def test_split_obstruction_z2():
    F = presentation_complex(parse_presentation("gens: x\nrels: x^2\n"), Z2)
    X = attach_three_cells(
        F, GroupRingMatrix(Z2, 1, 1, [elem(Z2, (1, 1), (0, -1))]))
    rep = split_test(X)
    assert not rep.splits
    assert (rep.obstruction.row, rep.obstruction.modulus,
            rep.obstruction.column) == ((1, 1), 0, 0)


def test_certificate_s3_duplicated_relator():
    F = stabilize_wedge(presentation_complex(S3P, S3), 1)
    rels = S3P.relators
    G = presentation_complex(Presentation(S3P.generators, rels + (rels[0],)), S3)
    out = certify_chain_equivalence(F, G)
    assert out.kind == "certificate"
    assert out.solver_calls == 106
    c = out.certificate
    maps = c.forward + c.backward + c.homotopies_gf + c.homotopies_fg
    assert digest([grid(m) for m in maps]) == (
        "26cf4cc9cbd59dfb6d6a825355644ff51c7985bb227d6cc08edd188dd06014f3")


Q8P = parse_presentation("gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n")
Q8 = group_model(Q8P, 1000)


def certificate_digest(c):
    return digest([grid(m) for m in
                   c.forward + c.backward + c.homotopies_gf + c.homotopies_fg])


def _budget_sweep(P, model, dup, budgets):
    F = stabilize_wedge(presentation_complex(P, model), 1)
    G = presentation_complex(
        Presentation(P.generators, P.relators + (P.relators[dup],)), model)
    sweep = []
    for budget in budgets:
        out = certify_chain_equivalence(F, G, budget=budget)
        maps = None if out.certificate is None else certificate_digest(out.certificate)
        sweep.append((budget, out.kind, out.reason, out.solver_calls, maps))
    return sweep


@pytest.mark.parametrize("P, model, dup, first, sweep_digest", [
    (S3P, S3, 0, 106,
     "0eaa15369f88c0b932a6017f1ad881b03d433ff80f45b0f593ec33574c406cf5"),
    (Q8P, Q8, 1, 78,
     "2e7f9ea6dd063440915b74ae4621d60c71df97f35fe1754a2d2b9527479495a5"),
], ids=["s3", "q8"])
def test_certification_budget_boundary(P, model, dup, first, sweep_digest):
    # every budget from 1 to past the first certificate: below it the
    # forward orientation runs out with one or two failed spends and the
    # reverse lift's first spend fails too; from it on the forward
    # orientation certifies with the same maps
    sweep = _budget_sweep(P, model, dup, range(1, first + 3))
    assert [kind for _, kind, _, _, _ in sweep] == (
        ["unknown"] * (first - 1) + ["certificate"] * 3)
    assert all(calls - budget in (2, 3) for budget, _, _, calls, _ in sweep[:first - 1])
    assert [calls for _, _, _, calls, _ in sweep[first - 1:]] == [first] * 3
    assert digest(sweep) == sweep_digest


def test_certificate_from_the_reverse_orientation(monkeypatch):
    # with the F -> G search made to fail, G -> F certifies, and its maps
    # and homotopies are swapped into the F -> G certificate; G has a
    # cancelling generator-relator pair, so the homotopies are not zero
    from d2kit import chains

    real = chains._attempt_orientation
    attempts = []

    def attempt(src, tgt, K_src, K_tgt, budget):
        attempts.append((src, tgt))
        if len(attempts) == 1:
            return None
        return real(src, tgt, K_src, K_tgt, budget)

    monkeypatch.setattr(chains, "_attempt_orientation", attempt)
    F = presentation_complex(S3P, S3)
    P = parse_presentation("gens: a b c\nrels: a^2 b^2 (a b)^3 c\n")
    G = presentation_complex(P, group_model(P, 1000))
    out = certify_chain_equivalence(F, G)
    assert attempts == [(F, G), (G, F)]
    assert (out.kind, out.solver_calls) == ("certificate", 3)
    assert out.certificate.verify(F, G)
    assert certificate_digest(out.certificate) == (
        "01b75ad126108255908de320b5379d6a6ee34eb31bc3c13abcf4a0347f4ed5e0")


@pytest.mark.slow
def test_certificate_s4_duplicated_relator():
    P = parse_presentation("gens: a b\nrels: a^2 b^3 (a b)^4\n")
    S4 = group_model(P, 1000)
    F = stabilize_wedge(presentation_complex(P, S4), 1)
    G = presentation_complex(
        Presentation(P.generators, P.relators + P.relators[:1]), S4)
    out = certify_chain_equivalence(F, G)
    assert out.kind == "certificate"
    assert out.solver_calls == 430
    c = out.certificate
    maps = c.forward + c.backward + c.homotopies_gf + c.homotopies_fg
    assert digest([grid(m) for m in maps]) == (
        "c3b77f539aeb0c429c62583afbf22f8a73eaa7249671c8f25c679aaaaa4afa0a")
