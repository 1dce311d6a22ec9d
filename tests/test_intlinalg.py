import random

import pytest

from d2kit.intlinalg import (
    DimensionMismatch,
    IntMatrix,
    NotPrime,
    column_echelon,
    infeasibility_certificate,
    kernel_basis,
    lattice_hnf,
    rank_over_field,
    smith_normal_form,
    solve_integer_system,
    xgcd,
)

from exact_oracles import dense_column_echelon, determinant, lattices_equal


def random_matrix(rng, max_dim=8, lo=-9, hi=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return IntMatrix(m, n, [rng.randint(lo, hi) for _ in range(m * n)])


def check_snf(A):
    res = smith_normal_form(A)
    assert res.U * A * res.V == res.D
    assert abs(determinant(res.U)) == 1
    assert abs(determinant(res.V)) == 1
    diag = res.diagonal()
    for i in range(min(A.rows, A.cols)):
        for j in range(A.cols):
            if i != j and j < A.cols and i < A.rows:
                assert res.D.entry(i, j) == 0 or i == j
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # zeros only after the nonzero part
    seen_zero = False
    for d in diag:
        if d == 0:
            seen_zero = True
        else:
            assert not seen_zero
    return res


def test_snf_examples():
    assert check_snf(IntMatrix.from_rows([[2, 0], [0, 3]])).diagonal() == (1, 6)
    assert check_snf(IntMatrix.identity(4)).diagonal() == (1, 1, 1, 1)
    assert check_snf(IntMatrix.from_rows([[2, -3]])).diagonal() == (1,)


def test_snf_random_certificates():
    rng = random.Random(20260201)
    for _ in range(300):
        check_snf(random_matrix(rng))


def test_snf_zero_and_empty():
    assert check_snf(IntMatrix.zeros(3, 2)).diagonal() == (0, 0)
    res = smith_normal_form(IntMatrix(0, 3, []))
    assert res.D.rows == 0 and res.D.cols == 3


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-3, -9)]:
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0


def test_column_echelon_certificate():
    rng = random.Random(7)
    for _ in range(200):
        A = random_matrix(rng, max_dim=6)
        H, V = column_echelon(A)
        assert A * V == H
        assert abs(determinant(V)) == 1
        # pivot rows strictly increase; trailing columns zero
        last = -1
        zero_seen = False
        for j in range(H.cols):
            col = H.column(j)
            nz = [i for i, x in enumerate(col) if x]
            if not nz:
                zero_seen = True
                continue
            assert not zero_seen
            assert nz[0] > last
            last = nz[0]


def test_column_echelon_matches_dense_reference():
    rng = random.Random(20261018)
    shapes = [(0, 4), (3, 0), (0, 0), (4, 4), (1, 6), (6, 1)]
    cases = [IntMatrix.zeros(m, n) for m, n in shapes]
    cases.append(IntMatrix.from_rows([[-2, -2, 2], [-3, 1, -1]]))  # ties, negative pivot
    for _ in range(300):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        values = rng.choice(((-2, -1, 0, 1, 2), (-9, -3, 0, 0, 3, 6), (-40, 0, 0, 0, 17)))
        cases.append(IntMatrix(m, n, [rng.choice(values) for _ in range(m * n)]))
    for A in cases:
        assert column_echelon(A) == dense_column_echelon(A), A


def test_column_echelon_matches_dense_reference_on_cone_systems(monkeypatch):
    from d2kit import intlinalg
    from d2kit.chains import certify_chain_equivalence, presentation_complex, stabilize_wedge
    from d2kit.coset import group_model
    from d2kit.presentations import Presentation, parse_presentation

    systems = []
    real = intlinalg.column_echelon

    def recording(A):
        systems.append(A)
        return real(A)

    monkeypatch.setattr(intlinalg, "column_echelon", recording)
    for text in ("gens: a b\nrels: a^2 b^2 (a b)^3\n",
                 "gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n"):
        P = parse_presentation(text)
        model = group_model(P, 1000)
        F = stabilize_wedge(presentation_complex(P, model), 1)
        G = presentation_complex(
            Presentation(P.generators, P.relators + P.relators[:1]), model)
        assert certify_chain_equivalence(F, G).kind == "certificate"
    # the cone contractions of S3 (|G| = 6) and Q8 (|G| = 8) are among them
    assert {(372, 270), (352, 264)} <= {(A.rows, A.cols) for A in systems}
    for A in systems:
        assert real(A) == dense_column_echelon(A)


def test_public_constructor_checks_entries():
    with pytest.raises(ValueError):
        IntMatrix(1, 1, ["x"])


def test_solve_examples():
    A = IntMatrix.from_rows([[2]])
    assert solve_integer_system(A, IntMatrix.from_rows([[4]])) == IntMatrix.from_rows([[2]])
    assert solve_integer_system(A, IntMatrix.from_rows([[3]])) is None
    A = IntMatrix.from_rows([[1, 1], [0, 2]])
    X = solve_integer_system(A, IntMatrix.from_rows([[1], [2]]))
    assert X == IntMatrix.from_rows([[0], [1]])


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_integer_system(IntMatrix.identity(2), IntMatrix.identity(3))


def test_solve_random_verified_and_crosschecked():
    rng = random.Random(99)
    feasible = infeasible = 0
    for _ in range(300):
        A = random_matrix(rng, max_dim=5, lo=-4, hi=4)
        B = IntMatrix(A.rows, 1, [rng.randint(-6, 6) for _ in range(A.rows)])
        X = solve_integer_system(A, B)
        cert = infeasibility_certificate(A, B)
        if X is not None:
            feasible += 1
            assert A * X == B
            assert cert is None
        else:
            infeasible += 1
            assert cert is not None
            assert cert.verify(A, B)
    assert feasible > 10 and infeasible > 10


def test_solve_constructed_feasible_systems():
    rng = random.Random(5)
    for _ in range(100):
        A = random_matrix(rng, max_dim=5, lo=-5, hi=5)
        X0 = IntMatrix(A.cols, 2, [rng.randint(-3, 3) for _ in range(A.cols * 2)])
        B = A * X0
        X = solve_integer_system(A, B)
        assert X is not None
        assert A * X == B


def test_rank_over_field():
    D = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert rank_over_field(D, "Q") == 2
    assert rank_over_field(D, 2) == 1
    assert rank_over_field(D, 3) == 1
    assert rank_over_field(IntMatrix.zeros(3, 3), "Q") == 0
    assert rank_over_field(IntMatrix(0, 3, []), "Q") == 0
    assert rank_over_field(IntMatrix(3, 0, []), "Q") == 0
    with pytest.raises(NotPrime):
        rank_over_field(D, 4)


def test_rank_equals_snf_nonzero_count():
    rng = random.Random(13)
    for _ in range(100):
        A = random_matrix(rng, max_dim=6)
        nz = sum(1 for d in smith_normal_form(A).diagonal() if d)
        assert rank_over_field(A, "Q") == nz


def test_kernel_basis():
    A = IntMatrix.from_rows([[1, 2, 3]])
    basis = kernel_basis(A)
    assert len(basis) == 2
    for v in basis:
        assert sum(a * x for a, x in zip((1, 2, 3), v)) == 0
    # canonical: recomputing from scaled generators gives the same HNF
    doubled = [tuple(2 * x for x in v) for v in basis] + list(basis)
    assert lattice_hnf(doubled, 3) == lattice_hnf(basis, 3)


def test_kernel_basis_random():
    rng = random.Random(31)
    for _ in range(60):
        A = random_matrix(rng, max_dim=5, lo=-3, hi=3)
        basis = kernel_basis(A)
        assert len(basis) == A.cols - rank_over_field(A, "Q")
        for v in basis:
            for i in range(A.rows):
                assert sum(A.entry(i, j) * v[j] for j in range(A.cols)) == 0


def test_lattice_equality():
    a = [(2, 0), (0, 2)]
    b = [(2, 2), (0, 2)]
    c = [(2, 2), (2, -2)]
    assert lattices_equal(a, b, 2)
    assert not lattices_equal(a, c, 2)


def test_lattice_hnf_canonical_under_unimodular_regeneration():
    rng = random.Random(41)
    for _ in range(60):
        dim = rng.randint(1, 5)
        k = rng.randint(1, dim)
        basis = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(k)]
        hnf = lattice_hnf(basis, dim)
        # random invertible integer recombinations span the same lattice
        regen = [list(row) for row in basis]
        for _ in range(10):
            i, j = rng.randrange(k), rng.randrange(k)
            if i != j:
                q = rng.randint(-3, 3)
                regen[i] = [a + q * b for a, b in zip(regen[i], regen[j])]
            elif rng.random() < 0.3:
                regen[i] = [-a for a in regen[i]]
        assert lattice_hnf(regen, dim) == hnf


def _nonzero_invariant_product(rows, dim):
    diag = smith_normal_form(IntMatrix(len(rows), dim, [x for r in rows for x in r]))
    nonzero = [d for d in diag.diagonal() if d]
    prod = 1
    for d in nonzero:
        prod *= d
    return len(nonzero), prod


def test_lattice_hnf_is_a_hermite_basis_of_the_input_lattice():
    rng = random.Random(43)
    for _ in range(150):
        dim = rng.randint(1, 6)
        vectors = [[rng.choice((0, 0, rng.randint(-12, 12))) for _ in range(dim)]
                   for _ in range(rng.randint(0, 7))]
        hnf = lattice_hnf(vectors, dim)
        pivots = [next(t for t in range(dim) if row[t]) for row in hnf]
        assert pivots == sorted(set(pivots))
        for i, (row, j) in enumerate(zip(hnf, pivots)):
            assert row[j] > 0
            assert all(0 <= hnf[k][j] < row[j] for k in range(i))
        # every input reduces to zero against the triangular basis ...
        for v in vectors:
            v = list(v)
            for row, j in zip(hnf, pivots):
                assert v[j] % row[j] == 0
                q = v[j] // row[j]
                v = [a - q * b for a, b in zip(v, row)]
            assert not any(v)
        # ... and spans a lattice of the same rank and index (Smith invariants)
        if vectors:
            assert _nonzero_invariant_product(vectors, dim) == \
                _nonzero_invariant_product(hnf, dim)
        else:
            assert hnf == []


def test_determinant_oracle():
    rng = random.Random(3)

    def det_laplace(M, rows, cols):
        if not rows:
            return 1
        i = rows[0]
        total = 0
        for t, j in enumerate(cols):
            x = M.entry(i, j)
            if x:
                sub = det_laplace(M, rows[1:], cols[:t] + cols[t + 1:])
                total += (-1) ** t * x * sub
        return total

    for _ in range(50):
        n = rng.randint(1, 5)
        M = IntMatrix(n, n, [rng.randint(-5, 5) for _ in range(n * n)])
        assert determinant(M) == det_laplace(M, tuple(range(n)), tuple(range(n)))
