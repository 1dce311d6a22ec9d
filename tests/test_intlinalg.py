import hashlib
import random

import pytest

from d2kit import intlinalg
from d2kit.intlinalg import (
    HERMITE_CHUNK,
    DimensionMismatch,
    IntMatrix,
    NotPrime,
    _columns,
    _echelon,
    _hermite,
    _masks2,
    _matrix,
    _independent2,
    _rank2,
    _rank_span,
    _saturated,
    _span,
    _unit_pivots,
    infeasibility_certificate,
    kernel_basis,
    rank_over_field,
    smith_normal_form,
    solve_integer_system,
)

from exact_oracles import (
    column_echelon,
    column_hnf,
    dense_column_echelon,
    dense_solve_integer_system,
    determinant,
    lattice_hnf,
    lattices_equal,
    rank_mod_p,
    xgcd,
)


def random_matrix(rng, max_dim=8, lo=-9, hi=9):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return IntMatrix(m, n, [rng.randint(lo, hi) for _ in range(m * n)])


def columns_matrix(vectors, dim):
    """The dim x len(vectors) matrix whose columns are `vectors`."""
    return IntMatrix(dim, len(vectors), [v[i] for i in range(dim) for v in vectors])


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


def _snf_pin_inputs():
    """Seeded random matrices of every shape from 0x0 to 6x6 (empty shapes
    included), about half their entries zero, plus diagonal ones whose
    invariants need the divisibility fix-up."""
    rng = random.Random(20261019)
    mats = [IntMatrix.zeros(m, n) for m in range(7) for n in range(7)]
    for _ in range(600):
        m, n = rng.randrange(7), rng.randrange(7)
        mats.append(IntMatrix(m, n, [rng.choice((0, 0, 0, rng.randint(-40, 40)))
                                     if rng.random() < 0.5 else rng.randint(-9, 9)
                                     for _ in range(m * n)]))
    for diag in ((2, 3), (4, 6, 10), (6, 4, 0, 9), (12, 8, 18, 27)):
        k = len(diag)
        mats.append(IntMatrix(k, k, [diag[i] if i == j else 0
                                     for i in range(k) for j in range(k)]))
    return mats


def test_snf_transforms_pinned():
    # the pivot rule, quotients and operation order fix U and V as well as
    # D; split obstructions and certificates print rows of U
    triples = [(r.U.data, r.D.data, r.V.data)
               for r in map(smith_normal_form, _snf_pin_inputs())]
    assert len(triples) == 653
    assert hashlib.sha256(repr(triples).encode()).hexdigest() == (
        "473ac43f351ce75f4df3988b4ebcabe3870b7fa4be0cd9872ff550070182af67")


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


def _certify_s3_and_q8():
    """Certify F v S^2 against G (first relator listed twice) for S3 and Q8."""
    from d2kit.chains import certify_chain_equivalence, presentation_complex, stabilize_wedge
    from d2kit.coset import group_model
    from d2kit.presentations import Presentation, parse_presentation

    for text in ("gens: a b\nrels: a^2 b^2 (a b)^3\n",
                 "gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n"):
        P = parse_presentation(text)
        model = group_model(P, 1000)
        F = stabilize_wedge(presentation_complex(P, model), 1)
        G = presentation_complex(
            Presentation(P.generators, P.relators + P.relators[:1]), model)
        assert certify_chain_equivalence(F, G).kind == "certificate"


def test_column_echelon_matches_dense_reference_on_cone_systems(monkeypatch):
    from d2kit import intlinalg
    from d2kit.chains import presentation_complex
    from d2kit.coset import group_model
    from d2kit.groupring import regular_rep_expand
    from d2kit.presentations import parse_presentation

    # every echelon of [A; I] (the solver's and the kernel's, which _pi2
    # runs on the sparse expansion of d_2) starts here
    systems = []
    real = intlinalg._stacked_columns

    def recording(C, m):
        systems.append(_matrix(C, m))
        return real(C, m)

    monkeypatch.setattr(intlinalg, "_stacked_columns", recording)
    _certify_s3_and_q8()
    monkeypatch.undo()
    # the cone lifts D1, D2, D3 of S3 (|G| = 6) and Q8 (|G| = 8) are among them
    assert {(6, 18), (18, 36), (36, 24), (8, 24), (24, 40), (40, 24)} <= {
        (A.rows, A.cols) for A in systems}
    # and one large elimination: the expanded d_2 of PSL(2,7)
    P = parse_presentation("gens: a b\nrels: a^2 b^3 (a b)^7 (a^-1 b^-1 a b)^4\n")
    E2 = regular_rep_expand(presentation_complex(P, group_model(P, 1000)).boundary(2))
    assert (E2.rows, E2.cols) == (336, 672)
    systems.append(E2)
    for A in systems:
        assert column_echelon(A) == dense_column_echelon(A)


def check_echelon_against_dense(A):
    """The core on [A; I] gives the dense H and V, and on A alone the dense H."""
    H, V = dense_column_echelon(A)
    assert column_echelon(A) == (H, V), A
    C = _columns(A)
    _echelon(C, A.rows)
    assert _matrix(C, A.rows) == H, A


def test_column_echelon_matches_dense_reference_on_sparse_matrices():
    cases = [IntMatrix.from_rows(rows) for rows in (
        # a reduction zeroes a whole column
        [[2, 4], [1, 2]],
        # a cancelled row-0 entry files its column under row 1
        [[2, 4, 0], [1, 3, 0], [0, 0, 5]],
        # the columns swapped out of position c are filed under later rows
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        # reducing pivot 0 against pivot 1 creates its entry in row 2,
        # which pivot 2 must then reduce
        [[1, 0, 0], [3, 2, 0], [0, 1, 1]],
    )]
    rng = random.Random(20261019)
    for _ in range(40):
        m, n = rng.randint(1, 60), rng.randint(1, 120)
        density = rng.choice((0.01, 0.03, 0.05))
        cases.append(IntMatrix(m, n, [
            rng.choice((-3, -2, -1, 1, 2, 3)) if rng.random() < density else 0
            for _ in range(m * n)]))
    for A in cases:
        check_echelon_against_dense(A)


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


def _split_left_system(spheres):
    """The left system R o d_3 = 1 that split_test solves on Z/2 wedged with
    `spheres` 2-spheres and `spheres` 3-cells attached along them."""
    from d2kit.chains import presentation_complex, stabilize_wedge
    from d2kit.coset import group_model
    from d2kit.groupring import GroupRingMatrix, gr_integer_system
    from d2kit.presentations import parse_presentation

    P = parse_presentation("gens: x\nrels: x^2\n")
    model = group_model(P, 100)
    F = presentation_complex(P, model)
    d3 = GroupRingMatrix.zeros(model, F.ranks[2], spheres).vstack(
        GroupRingMatrix.identity(model, spheres))
    assert stabilize_wedge(F, spheres).boundary(2).compose(d3).is_zero()
    return gr_integer_system(d3, GroupRingMatrix.identity(model, spheres), "left")


def test_solve_matches_dense_reference_solver(monkeypatch):
    from d2kit import groupring

    rng = random.Random(99)
    systems = []
    for _ in range(300):  # the draws of test_solve_random_verified_and_crosschecked
        A = random_matrix(rng, max_dim=5, lo=-4, hi=4)
        systems.append((A, IntMatrix(A.rows, 1, [rng.randint(-6, 6) for _ in range(A.rows)])))
    for m, n, k in ((0, 3, 2), (3, 0, 2), (0, 0, 0), (3, 2, 0), (0, 3, 0), (3, 0, 0)):
        systems.append((IntMatrix.zeros(m, n), IntMatrix(m, k, [1] * (m * k))))
        systems.append((IntMatrix(m, n, [2] * (m * n)), IntMatrix.zeros(m, k)))
    infeasible = [
        (IntMatrix.from_rows([[2, 4], [0, 6]]), IntMatrix.from_rows([[2, 1], [3, 0]])),  # mod d
        (IntMatrix.from_rows([[1, 1], [2, 2]]), IntMatrix.from_rows([[1], [3]])),  # over Q
        (IntMatrix.zeros(2, 2), IntMatrix.from_rows([[0], [1]])),  # over Q, A = 0
    ]
    systems += infeasible
    recorded = []
    real = groupring._solve

    # every ZG solve reaches the sparse solve through groupring's binding
    def recording(C, m, B):
        recorded.append((_matrix(C, m), B))
        return real(C, m, B)

    monkeypatch.setattr(groupring, "_solve", recording)
    _certify_s3_and_q8()
    monkeypatch.undo()
    # the cone lifts D1, D2, D3 of S3 and Q8 are among the recorded systems
    assert {(6, 18), (18, 36), (36, 24), (8, 24), (24, 40), (40, 24)} <= {
        (A.rows, A.cols) for A, _ in recorded}
    systems += recorded
    big, rhs = _split_left_system(100)
    assert (big.rows, big.cols, rhs.cols) == (200, 202, 100)
    systems.append((big, rhs))
    results = [solve_integer_system(A, B) for A, B in systems]
    for (A, B), X in zip(systems, results):
        assert X == dense_solve_integer_system(A, B), (A, B)
    assert all(solve_integer_system(A, B) is None for A, B in infeasible)
    assert results[-1] is not None
    assert sum(X is None for X in results) > 10


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


def test_rank_mod_p_matches_gaussian_elimination():
    rng = random.Random(17)
    shapes = [(0, 0), (0, 3), (3, 0)]
    for p in (2, 3, 5, 7):
        for rows, cols in shapes:
            assert rank_over_field(IntMatrix.zeros(rows, cols), p) == 0
        assert rank_over_field(IntMatrix.zeros(3, 4), p) == 0
        for _ in range(80):
            A = random_matrix(rng, max_dim=6, lo=-2 * p, hi=2 * p)
            assert rank_over_field(A, p) == rank_mod_p(A, p), (A, p)


def test_rank2_matches_rank_over_f2():
    # XOR elimination on column bitmasks against the Smith form count, on
    # seeded matrices with zero and repeated columns and on empty shapes
    rng = random.Random(23)
    inputs = [IntMatrix.zeros(rows, cols) for rows, cols in ((0, 0), (0, 3), (3, 0), (3, 4))]
    for _ in range(200):
        A = random_matrix(rng, max_dim=9, lo=-4, hi=4)
        cols = [A.column(j) for j in range(A.cols)]
        cols += [rng.choice(cols) for _ in range(rng.randint(0, 3))]
        cols += [(0,) * A.rows] * rng.randint(0, 2)
        rng.shuffle(cols)
        inputs.append(columns_matrix(cols, A.rows))
    inputs += [IntMatrix(70, 3, [rng.randrange(-3, 4) for _ in range(210)])]
    for A in inputs:
        masks = _masks2(_columns(A))
        assert len(masks) == A.cols
        assert _rank2(masks) == rank_over_field(A, 2), A
    assert {rank_over_field(A, 2) < min(A.rows, A.cols) for A in inputs} == {False, True}


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
    assert column_hnf(columns_matrix(doubled, 3)) == basis


def test_kernel_basis_random():
    rng = random.Random(31)
    for _ in range(60):
        A = random_matrix(rng, max_dim=5, lo=-3, hi=3)
        basis = kernel_basis(A)
        assert len(basis) == A.cols - rank_over_field(A, "Q")
        for v in basis:
            for i in range(A.rows):
                assert sum(A.entry(i, j) * v[j] for j in range(A.cols)) == 0


def _one_shot_hermite(C, m):
    """The pivot columns of one elimination of (a copy of) all of C."""
    H = [dict(col) for col in C]
    return H[:_echelon(H, m)]


def _random_columns(rng, m, n, rank):
    """n sparse columns over m rows, each an integer combination of `rank`
    fixed random vectors, so the lattice has rank at most `rank`; some
    columns come out zero."""
    gens = [[rng.randint(-4, 4) if rng.random() < 0.4 else 0 for _ in range(m)]
            for _ in range(rank)]
    C = []
    for _ in range(n):
        v = [0] * m
        for g in gens:
            c = rng.choice((-2, -1, 0, 0, 1, 2))
            for i, x in enumerate(g):
                v[i] += c * x
        C.append({i: x for i, x in enumerate(v) if x})
    return C


def test_hermite_matches_one_shot_echelon():
    rng = random.Random(20261020)
    k = HERMITE_CHUNK
    shapes = [(0, 0), (5, 0), (0, 7), (1, k + 1), (6, k - 1), (6, k), (6, k + 1),
              (9, 3 * k + 5), (40, 2 * k + 1)]
    for m, n in shapes:
        for rank in sorted({0, 1, min(m, n) // 2, min(m, n)}):
            for _ in range(3):
                C = _random_columns(rng, m, n, rank)
                before = [list(col.items()) for col in C]
                H = _hermite(C, m)
                assert H == _one_shot_hermite(C, m), (m, n, rank)
                assert [list(col.items()) for col in C] == before
    # zero columns only, and columns whose span is all of Z^m
    assert _hermite([{}] * (k + 1), 4) == []
    C = [{i: 1} for i in range(5)] * (k // 5 + 1)
    assert _hermite(C, 5) == [{i: 1} for i in range(5)]


@pytest.mark.parametrize("text,chunk", [
    ("gens: a b\nrels: a^2 b^3 (a b)^5\n", 16),
    ("gens: a b\nrels: a^2 b^3 (a b)^7 (a^-1 b^-1 a b)^4\n", HERMITE_CHUNK),
], ids=["a5-chunk-16", "psl27"])
def test_hermite_stops_at_a_saturated_basis_of_the_bound_rank(monkeypatch, text, chunk):
    from d2kit.chains import presentation_complex
    from d2kit.coset import group_model
    from d2kit.groupring import _expanded_columns
    from d2kit.presentations import parse_presentation

    P = parse_presentation(text)
    F = presentation_complex(P, group_model(P, 20000))
    E1, E2 = (_expanded_columns(F.boundary(i), False) for i in (1, 2))
    order = F.model.order
    m0, m1 = F.ranks[0] * order, F.ranks[1] * order
    bound = m1 - len(_hermite(E1, m0))
    monkeypatch.setattr(intlinalg, "HERMITE_CHUNK", chunk)
    calls = []
    real = intlinalg._echelon

    def echelon(C, m):
        calls.append(len(C))
        return real(C, m)

    monkeypatch.setattr(intlinalg, "_echelon", echelon)
    # every column of d_2 lies in ker d_1, saturated of rank `bound`, and
    # the build stops before its last chunk with the basis of one elimination
    H, spans = _span(E2, m1, bound)
    assert spans and len(H) == bound and len(calls) < -(-len(E2) // chunk)
    assert H == _one_shot_hermite(E2, m1)
    # a basis of the bound rank that is not saturated does not stop the
    # build; one that is stops it, whether or not its pivots are 1
    C = [{0: 2}] * chunk + [{0: 3}]
    assert _span(C, 1, 1) == ([{0: 1}], True)
    assert _span(C[:chunk], 1, 1) == ([{0: 2}], False)
    calls.clear()
    C = [{0: 2, 1: 1}] * chunk + [{0: 4, 1: 2}]
    assert _span(C, 2, 1) == ([{0: 2, 1: 1}], True)
    assert calls == [chunk, 2]  # the first chunk, then its two rows over 1 row
    # no columns span the zero lattice, and only it
    assert _span([], 3, 0) == ([], True) and _span([], 3, 1) == ([], False)
    assert _span([{}] * 3, 3, 0) == ([], True)


def _unimodular(rng, m):
    """A seeded m x m integer matrix of determinant 1: a product of
    elementary column operations."""
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(3 * m if m > 1 else 0):
        i, j = rng.sample(range(m), 2)
        c = rng.randint(-3, 3)
        for row in U:
            row[i] += c * row[j]
    return IntMatrix.from_rows(U)


def _saturation_inputs():
    """Seeded full-column-rank candidates: random m x r matrices with
    0 <= r <= m, each also with one column scaled by a prime, and products
    U * D of a unimodular U and an m x r diagonal D."""
    rng = random.Random(2029)
    out = []
    for _ in range(150):
        m = rng.randint(1, 9)
        r = rng.choice((0, m, rng.randint(0, m)))
        A = IntMatrix(m, r, [rng.randint(-4, 4) for _ in range(m * r)])
        out.append(A)
        if r:
            j, p = rng.randrange(r), rng.choice((2, 3, 5, 7))
            out.append(IntMatrix.from_rows(
                [[x * p if k == j else x for k, x in enumerate(row)]
                 for row in A.to_rows()]))
        d = [rng.choice((1, 1, 1, -1, 2, 3, 6)) for _ in range(r)]
        D = IntMatrix(m, r, [d[j] if i == j else 0 for i in range(m) for j in range(r)])
        out.append(_unimodular(rng, m) * D)
    return out


@pytest.mark.parametrize("chunk", [HERMITE_CHUNK, 2])
def test_saturated_agrees_with_the_smith_invariants(monkeypatch, chunk):
    # a Hermite basis spans a saturated lattice exactly when every Smith
    # invariant is 1; chunk 2 makes the transposed check span chunks
    monkeypatch.setattr(intlinalg, "HERMITE_CHUNK", chunk)
    kinds = set()
    for A in _saturation_inputs():
        H = _hermite(_columns(A), A.rows)
        if len(H) < A.cols:
            continue
        want = all(x == 1 for x in smith_normal_form(_matrix(H, A.rows)).diagonal())
        assert _saturated(H) == want, A
        kinds.add((len(H), A.rows, want, _unit_pivots(H)))
    assert {(want, unit) for *_, want, unit in kinds} == {
        (True, True), (True, False), (False, False)}
    # r = 0, and r = m, where the saturated lattice is Z^m itself
    assert (0, 1, True, True) in kinds
    assert {want for r, m, want, _ in kinds if r == m > 0} == {True, False}


def _lattice_columns(rng, m, r, index):
    """Seeded columns in a saturated lattice L of rank r in Z^m, the span of
    r columns of a unimodular matrix, all in the sublattice of index `index`
    where the first of them is scaled by it: mostly that sublattice's basis
    and, always, seeded combinations of it (some zero), shuffled."""
    U = _unimodular(rng, m)
    basis = [list(U.column(j)) for j in range(r)]
    L = [tuple(v) for v in basis]
    if r:
        basis[0] = [index * x for x in basis[0]]
    cols = [list(v) for v in basis] if rng.random() < 0.7 else []
    for _ in range(rng.randint(0, 2 * m)):
        v = [0] * m
        for b in basis:
            c = rng.choice((-2, -1, 0, 0, 1, 2, 3))
            v = [x + c * y for x, y in zip(v, b)]
        cols.append(v)
    rng.shuffle(cols)
    return L, [{i: x for i, x in enumerate(v) if x} for v in cols]


@pytest.mark.parametrize("chunk", [HERMITE_CHUNK, 2])
def test_rank_span_matches_span_on_saturated_lattices(monkeypatch, chunk):
    # columns in a saturated lattice L of known rank, spanning L or a
    # sublattice of index 2, 3 or 5 (which mod 2 alone cannot tell from L):
    # (rank, spans) as `_span` gives them, spans as the lattice oracle says,
    # through the unit pass alone and through its remainder
    monkeypatch.setattr(intlinalg, "HERMITE_CHUNK", chunk)
    passes = []
    real = intlinalg._unit_pass

    def unit_pass(C, bound):
        k, rest = real(C, bound)
        passes.append(rest is None)
        return k, rest

    monkeypatch.setattr(intlinalg, "_unit_pass", unit_pass)
    rng = random.Random(2037)
    kinds = set()
    for _ in range(400):
        m = rng.randint(1, 9)
        r = rng.choice((m, rng.randint(0, m)))
        index = rng.choice((1, 1, 2, 3, 5))
        L, C = _lattice_columns(rng, m, r, index)
        before = [list(col.items()) for col in C]
        H, spans = _span(C, m, r)
        got = _rank_span(C, m, r)
        assert got == (len(H), spans), (m, r, C)
        assert spans == lattices_equal([_matrix([col], m).column(0) for col in C], L, m)
        assert [list(col.items()) for col in C] == before
        kinds.add((spans, index if r else 1, passes[-1]))
    assert kinds >= {(True, 1, True), (True, 1, False), (False, 1, False)}
    assert {(index, unit) for spans, index, unit in kinds if not spans} >= {
        (2, False), (3, False), (5, False)}


def test_rank_span_without_unit_entries_and_on_empty_input():
    # spanning columns with no entry +-1 leave everything to the remainder
    for C, m in (([{0: 2, 1: 3}, {0: 3, 1: 5}], 2),
                 ([{0: 2, 1: 3}, {}, {0: 3, 1: 5}, {0: 4, 1: 6}], 2),
                 ([{0: 2, 2: 3}, {0: 5, 2: 8}, {1: 2}, {1: 3}], 3)):
        assert _rank_span(C, m, m) == (m, True) == (len(_span(C, m, m)[0]), True)
        assert _rank_span(C, m, None) == (m, False)
    # zero columns and no columns span the zero lattice, and only it
    for C in ([], [{}] * 3):
        assert _rank_span(C, 3, 0) == (0, True)
        assert _rank_span(C, 3, 1) == (0, False) == (len(_span(C, 3, 1)[0]), False)
    # bound 0 with nonzero columns, with and without an entry +-1
    for C in ([{0: 1}], [{0: 2}], [{0: 2, 1: -1}, {1: 4}]):
        H, spans = _span(C, 2, 0)
        assert _rank_span(C, 2, 0) == (len(H), spans) and not spans
    # the independent masks, in order: zero and dependent ones are skipped
    masks = [0b11, 0b110, 0b101, 0, 0b1000, 0b1, 0b1110]
    assert list(_independent2(masks)) == [0, 1, 4, 5] and _rank2(masks) == 4


def test_rank_span_rank_is_the_hermite_rank():
    for A in _oracle_inputs():
        C = _columns(A)
        assert _rank_span(C, A.rows) == (len(_hermite(C, A.rows)), False), A
        assert rank_over_field(A, "Q") == len(_hermite(C, A.rows))


def _oracle_inputs():
    """Seeded random matrices (some of low rank), zero and empty shapes, and
    the expanded d_1 and d_2 of the A5 presentation complex."""
    from d2kit.chains import presentation_complex
    from d2kit.coset import group_model
    from d2kit.groupring import regular_rep_expand
    from d2kit.presentations import parse_presentation

    rng = random.Random(59)
    out = [IntMatrix.zeros(r, c) for r in range(4) for c in range(4)]
    for _ in range(240):
        out.append(random_matrix(rng, max_dim=7, lo=-6, hi=6))
    for _ in range(80):
        m, n, k = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 3)
        left = IntMatrix(m, k, [rng.randint(-4, 4) for _ in range(m * k)])
        right = IntMatrix(k, n, [rng.randint(-4, 4) for _ in range(k * n)])
        out.append(left * right)
    P = parse_presentation("gens: a b\nrels: a^2 b^3 (a b)^5\n")
    F = presentation_complex(P, group_model(P, 20000))
    out += [regular_rep_expand(F.boundary(i)) for i in (1, 2)]
    return out


def test_column_hnf_and_kernel_basis_match_the_lattice_hnf_oracle():
    inputs = _oracle_inputs()
    assert len(inputs) >= 300
    assert any(rank_over_field(A, "Q") < min(A.rows, A.cols) for A in inputs)
    for A in inputs:
        cols = [A.column(j) for j in range(A.cols)]
        assert column_hnf(A) == lattice_hnf(cols, A.rows), A
        # the kernel generators the echelon transform gives, in Hermite form
        H, V = column_echelon(A)
        rank = rank_over_field(A, "Q")
        gens = [V.column(j) for j in range(rank, A.cols)]
        assert kernel_basis(A) == lattice_hnf(gens, A.cols), A


def test_lattice_equality():
    a = [(2, 0), (0, 2)]
    b = [(2, 2), (0, 2)]
    c = [(2, 2), (2, -2)]
    assert lattices_equal(a, b, 2)
    assert not lattices_equal(a, c, 2)


def test_column_hnf_canonical_under_unimodular_regeneration():
    rng = random.Random(41)
    for _ in range(60):
        dim = rng.randint(1, 5)
        k = rng.randint(1, dim)
        basis = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(k)]
        hnf = column_hnf(columns_matrix(basis, dim))
        # random invertible integer recombinations span the same lattice
        regen = [list(row) for row in basis]
        for _ in range(10):
            i, j = rng.randrange(k), rng.randrange(k)
            if i != j:
                q = rng.randint(-3, 3)
                regen[i] = [a + q * b for a, b in zip(regen[i], regen[j])]
            elif rng.random() < 0.3:
                regen[i] = [-a for a in regen[i]]
        assert column_hnf(columns_matrix(regen, dim)) == hnf


def _nonzero_invariant_product(rows, dim):
    diag = smith_normal_form(IntMatrix(len(rows), dim, [x for r in rows for x in r]))
    nonzero = [d for d in diag.diagonal() if d]
    prod = 1
    for d in nonzero:
        prod *= d
    return len(nonzero), prod


def test_column_hnf_is_a_hermite_basis_of_the_input_lattice():
    rng = random.Random(43)
    for _ in range(150):
        dim = rng.randint(1, 6)
        vectors = [[rng.choice((0, 0, rng.randint(-12, 12))) for _ in range(dim)]
                   for _ in range(rng.randint(0, 7))]
        hnf = column_hnf(columns_matrix(vectors, dim))
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
