"""Acceptance suite: every criterion runs at its stated tolerance (all are
exact) and reports one line in the terminal summary (see conftest.py)."""

import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

from d2kit.chains import (
    attach_three_cells,
    certify_chain_equivalence,
    euler_characteristic,
    homology_over_field,
    presentation_complex,
    quotient_by_split_summand,
    split_test,
    stabilize_wedge,
)
from d2kit.coset import find_normal_generator, group_model, todd_coxeter
from d2kit.groupring import GroupRingElement, GroupRingMatrix
from d2kit.intlinalg import IntMatrix, smith_normal_form
from d2kit.invariants import d2n_estimate, mu2_sandwich, swan_inequality_check
from d2kit.presentations import abelianization, deficiency, is_perfect, parse_presentation
from d2kit.tietze import replace_subpresentation
from d2kit.words import Word
from exact_oracles import determinant

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"

CORPUS_TEXT = {
    "trivial": "gens:\nrels:\n",
    "z": "gens: x\nrels:\n",
    "z2": "gens: x\nrels: x^2\n",
    "z5": "gens: x\nrels: x^5\n",
    "s3": "gens: a b\nrels: a^2 b^2 (a b)^3\n",
    "q8": "gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n",
    "a5": "gens: a b\nrels: a^2 b^3 (a b)^5\n",
    "f2": "gens: x y\nrels:\n",
    "trefoil": "gens: x y\nrels: (x^2 y^-3)\n",
}
PRESENTATIONS = {k: parse_presentation(v) for k, v in CORPUS_TEXT.items()}
FINITE_ORDERS = {"trivial": 1, "z2": 2, "z5": 5, "s3": 6, "q8": 8, "a5": 60}

_model_cache = {}


def model_of(name):
    if name not in _model_cache:
        _model_cache[name] = group_model(PRESENTATIONS[name], 20000)
    return _model_cache[name]


def test_criterion_01_exact_linalg_certificates():
    """1000 random matrices (<=8x8, entries in [-9,9]): U*A*V = D exactly,
    |det U| = |det V| = 1, and the divisibility chain holds -- 100%."""
    rng = random.Random(1729)
    for _ in range(1000):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        A = IntMatrix(m, n, [rng.randint(-9, 9) for _ in range(m * n)])
        res = smith_normal_form(A)
        assert res.U * A * res.V == res.D
        assert abs(determinant(res.U)) == 1
        assert abs(determinant(res.V)) == 1
        diag = res.diagonal()
        assert all(d >= 0 for d in diag)
        nz = [d for d in diag if d]
        assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
        assert all(d == 0 for d in diag[len(nz):])


def _perm_closure_order(perms):
    n = len(perms[0])
    gens = [tuple(p) for p in perms]
    gens += [tuple(sorted(range(n), key=lambda i: p[i])) for p in gens]
    elems = {tuple(range(n))}
    frontier = list(elems)
    while frontier:
        nxt = []
        for e in frontier:
            for p in gens:
                q = tuple(p[e[i]] for i in range(n))
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(elems)


def test_criterion_02_group_orders_by_coset_enumeration():
    """trivial->1, Z/5->5, S3->6, Q8->8, A5->60, cross-checked against
    brute-force permutation closures for S3 and A5."""
    for name, order in FINITE_ORDERS.items():
        tc = todd_coxeter(PRESENTATIONS[name], 20000)
        assert tc.complete and tc.num_cosets == order, name
    # independent oracles: S3 = <(01),(12)>, A5 = <(01)(23),(024)>
    assert _perm_closure_order([[1, 0, 2], [0, 2, 1]]) == 6
    assert _perm_closure_order([[1, 0, 3, 2, 4], [2, 1, 4, 3, 0]]) == 60


def test_criterion_03_perfectness_and_normal_generation():
    """A5 is perfect (Smith-form oracle on the exponent matrix) and is
    normally generated by the single letter a; the quotient <b | b^3, b^5>
    enumerates to the trivial group."""
    a5 = PRESENTATIONS["a5"]
    ab = abelianization(a5)
    assert all(d == 1 for d in ab.snf.diagonal())
    assert is_perfect(a5)
    res = find_normal_generator(a5, max_len=2, max_cosets=20000)
    assert res.found and res.word == Word([(0, 1)])
    q = parse_presentation("gens: b\nrels: b^3 b^5\n")
    tc = todd_coxeter(q, 100)
    assert tc.complete and tc.num_cosets == 1


def _corpus_complexes():
    out = {}
    for name in CORPUS_TEXT:
        if name in FINITE_ORDERS:
            out[name] = presentation_complex(PRESENTATIONS[name], model_of(name))
        else:
            out[name] = presentation_complex(PRESENTATIONS[name])
    return out


def test_criterion_04_chain_validity():
    """d_1 o d_2 = 0 exactly for every corpus presentation complex (full ZG
    check in finite mode, exponent shadow for z, f2, trefoil)."""
    for name, F in _corpus_complexes().items():
        if F.finite_mode:
            assert F.boundary(1).compose(F.boundary(2)).is_zero(), name
        assert (F.shadow(1) * F.shadow(2)).is_zero(), name


def test_criterion_05_euler_poincare_identity():
    """sum (-1)^i dim h_i == sum (-1)^i f_i over Q, F2, F3, F5 for every
    corpus complex and 50 randomly stabilized variants -- exact."""
    complexes = list(_corpus_complexes().values())
    rng = random.Random(505)
    variants = list(complexes)
    for _ in range(50):
        base = complexes[rng.randrange(len(complexes))]
        variants.append(stabilize_wedge(base, rng.randint(1, 8)))
    for F in variants:
        for field in ("Q", 2, 3, 5):
            h = homology_over_field(F, field)
            lhs = sum((-1) ** i * h[i] for i in range(len(h)))
            rhs = sum((-1) ** i * F.ranks[i] for i in range(len(F.ranks)))
            assert lhs == rhs


def test_criterion_06_swan_inequality():
    """def(P) <= 1 - mu2_lower_bound for every corpus presentation; every
    certified-finite entry also satisfies def(P) <= 0."""
    for name, P in PRESENTATIONS.items():
        rep = swan_inequality_check(P, max_cosets=20000)
        assert rep.swan_ok, name
        if name in FINITE_ORDERS:
            assert rep.certified_finite and rep.finite_bound_ok, name


def test_criterion_07_trefoil_tight_sandwich():
    """Deficiency equals 1 - mu2 for the trefoil group: the sandwich is
    tight at mu2 = 0 with def = 1, computed entirely in-tool."""
    s = mu2_sandwich(PRESENTATIONS["trefoil"])
    assert s.lower == 0 and s.upper == 0 and s.tight
    assert deficiency(s.witness) == 1
    assert "b_1 = 1" in s.lower_provenance


def test_criterion_08_splitting_tests():
    """Inclusion-type d_3 splits with a verified retraction; norm-element
    and (x-1)-type d_3 over Z[Z/2] are certified non-split by verified
    integer-infeasibility certificates."""
    m = model_of("z2")
    F = presentation_complex(PRESENTATIONS["z2"], m)
    # inclusion into a wedge slot: splits
    W = stabilize_wedge(F, 1)
    incl = GroupRingMatrix(m, 2, 1,
                           [GroupRingElement.zero(m), GroupRingElement.one(m)])
    rep = split_test(attach_three_cells(W, incl))
    assert rep.splits
    assert rep.retraction.compose(incl).is_identity()
    # (x-1)-type: not split
    xm1 = GroupRingElement.from_pairs(m, [(1, 1), (0, -1)])
    X = attach_three_cells(F, GroupRingMatrix(m, 1, 1, [xm1]))
    rep = split_test(X)
    assert not rep.splits
    assert rep.obstruction is not None
    # norm-type into a wedge slot: not split
    norm = GroupRingElement.from_pairs(m, [(0, 1), (1, 1)])
    Xn = attach_three_cells(W, GroupRingMatrix(
        m, 2, 1, [GroupRingElement.zero(m), norm]))
    repn = split_test(Xn)
    assert not repn.splits and repn.obstruction is not None


def test_criterion_09_round_trip_wedge_attach_split_quotient_certify():
    """Build F, wedge one sphere, attach the matching 3-cell, split, take
    the quotient, and certify chain equivalence against the original F --
    for Z/5, Z/2, and S3."""
    for name in ("z5", "z2", "s3"):
        m = model_of(name)
        F = presentation_complex(PRESENTATIONS[name], m)
        W = stabilize_wedge(F, 1)
        z, one = GroupRingElement.zero(m), GroupRingElement.one(m)
        col = [z] * (W.ranks[2] - 1) + [one]
        d3 = GroupRingMatrix(m, W.ranks[2], 1, col)
        X = attach_three_cells(W, d3)
        rep = split_test(X)
        assert rep.splits, name
        Q = quotient_by_split_summand(X, rep)
        out = certify_chain_equivalence(Q, F)
        assert out.kind == "certificate", name
        assert out.certificate.verify(Q, F), name


def test_criterion_10_classification_instance():
    """Equal Euler characteristic above mu2 classifies: the stabilized
    minimal Z/5 complex is chain equivalent to a chi = 2 presentation
    complex (certificate found and verified); the spec's literal pair has
    chi 2 vs 1 and is correctly distinguished; the wedge index bound for
    Z/5 is exactly 1 (tight sandwich)."""
    m = model_of("z5")
    F = stabilize_wedge(presentation_complex(PRESENTATIONS["z5"], m), 1)
    chi2 = parse_presentation("gens: x y\nrels: x^5 y y\n")
    G = presentation_complex(chi2, group_model(chi2, 100))
    assert euler_characteristic(F) == euler_characteristic(G) == 2
    s = mu2_sandwich(PRESENTATIONS["z5"])
    assert s.tight and s.lower == 1          # mu2(Z/5) = 1 < chi = 2
    out = certify_chain_equivalence(F, G)
    assert out.kind == "certificate"
    assert out.certificate.verify(F, G)
    # honest cross-check: the literally named pair differs in chi
    lit = parse_presentation("gens: x y\nrels: x^5 y\n")
    H = presentation_complex(lit, group_model(lit, 100))
    out2 = certify_chain_equivalence(F, H)
    assert out2.kind == "not_equivalent"
    assert "euler characteristic" in out2.reason
    assert d2n_estimate(PRESENTATIONS["z5"]).n_upper == 1


def test_criterion_11_subpresentation_extension_counts():
    """Rebasing A5 on the alternative <c | c^2> of its sub-presentation
    <a | a^2> yields <c b | c^2 b^3 (c b)^5>: |alt gens| + (n - n')
    generators, |alt rels| + (m - m') relators, and order 60."""
    a5 = PRESENTATIONS["a5"]
    alt = parse_presentation("gens: c\nrels: c^2\n")
    res = replace_subpresentation(a5, [0], [0], alt, {0: Word([(0, 1)])})
    out = res.presentation
    assert out == parse_presentation("gens: c b\nrels: c^2 b^3 (c b)^5\n")
    assert out.num_generators == 1 + (2 - 1)
    assert out.num_relators == 1 + (3 - 1)
    assert res.lifting_verified
    tc = todd_coxeter(out, 20000)
    assert tc.complete and tc.num_cosets == 60


def test_criterion_12_report_determinism(tmp_path):
    """Repeated runs of `d2kit report corpus/` produce byte-identical
    stdout and sidecar, also under different str hash seeds."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for fp in CORPUS.glob("*.fp"):
        shutil.copy(fp, corpus)
    outputs = []
    sidecars = []
    for seed in ("1", "2"):
        r = subprocess.run([sys.executable, "-m", "d2kit.cli", "report",
                            str(corpus)], capture_output=True,
                           env={**os.environ, "PYTHONHASHSEED": seed})
        assert r.returncode == 0
        outputs.append(r.stdout)
        sidecars.append((corpus / "report.jsonl").read_bytes())
    assert outputs[0] == outputs[1]
    assert sidecars[0] == sidecars[1]
