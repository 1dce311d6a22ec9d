import pytest

from d2kit.coset import (
    NotFinitelyEnumerated,
    find_normal_generator,
    group_model,
    is_trivial_quotient,
    todd_coxeter,
)
from d2kit.presentations import parse_presentation
from d2kit.words import Word

TRIVIAL = parse_presentation("gens:\nrels:\n")
Z = parse_presentation("gens: x\nrels:\n")
Z2 = parse_presentation("gens: x\nrels: x^2\n")
Z5 = parse_presentation("gens: x\nrels: x^5\n")
S3 = parse_presentation("gens: a b\nrels: a^2 b^2 (a b)^3\n")
Q8 = parse_presentation("gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n")
A5 = parse_presentation("gens: a b\nrels: a^2 b^3 (a b)^5\n")
TREFOIL = parse_presentation("gens: x y\nrels: (x^2 y^-3)\n")


def perm_group_order(perms):
    """Brute-force closure of a permutation set (independent oracle)."""
    n = len(perms[0])
    identity = tuple(range(n))
    elems = {identity}
    frontier = [identity]
    gens = [tuple(p) for p in perms] + [
        tuple(sorted(range(n), key=lambda i: p[i])) for p in perms]
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


def test_permutation_oracles():
    # S3 = <(01),(12)>, A5 = <(01)(23),(024)>
    assert perm_group_order([[1, 0, 2], [0, 2, 1]]) == 6
    assert perm_group_order([[1, 0, 3, 2, 4], [2, 1, 4, 3, 0]]) == 60


@pytest.mark.parametrize("P,order", [
    (TRIVIAL, 1), (Z2, 2), (Z5, 5), (S3, 6), (Q8, 8), (A5, 60)])
@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
def test_orders(P, order, strategy):
    tc = todd_coxeter(P, 20000, strategy)
    assert tc.complete
    assert tc.num_cosets == order


def test_strategies_agree_and_tables_match():
    for P in [TRIVIAL, Z2, Z5, S3, Q8, A5]:
        h = todd_coxeter(P, 20000, "hlt")
        f = todd_coxeter(P, 20000, "felsch")
        assert h.num_cosets == f.num_cosets
        assert h.table == f.table  # canonical standardization


def test_incomplete_for_infinite_groups():
    for P in [Z, TREFOIL]:
        tc = todd_coxeter(P, 5000)
        assert tc.status == "incomplete"
        assert not tc.complete
    tc = todd_coxeter(TREFOIL, 5000, "felsch")
    assert tc.status == "incomplete"


def test_group_model_z2():
    m = group_model(Z2, 100)
    assert m.order == 2
    assert m.mult == ((0, 1), (1, 0))
    assert m.generator_images == (1,)


def test_group_model_trivial():
    m = group_model(TRIVIAL, 10)
    assert m.order == 1
    assert m.mult == ((0,),)


def test_group_model_s3_nonabelian():
    m = group_model(S3, 1000)
    assert m.order == 6
    a, b = m.generator_images
    assert m.mult[a][b] != m.mult[b][a]
    # group table sanity: identity row/col, rows and cols are permutations
    for i in range(6):
        assert m.mult[0][i] == i and m.mult[i][0] == i
        assert sorted(m.mult[i]) == list(range(6))
        assert sorted(m.mult[j][i] for j in range(6)) == list(range(6))
        assert m.mult[i][m.inverse[i]] == 0
    # exhaustive associativity at this size
    for i in range(6):
        for j in range(6):
            for k in range(6):
                assert m.mult[m.mult[i][j]][k] == m.mult[i][m.mult[j][k]]


def test_group_model_relators_and_reproducibility():
    for P in [Z5, S3, Q8]:
        m1 = group_model(P, 5000)
        m2 = group_model(P, 5000)
        assert m1 == m2
        for r in P.relators:
            assert m1.evaluate_word(r) == 0


def test_group_model_incomplete_raises():
    with pytest.raises(NotFinitelyEnumerated):
        group_model(TREFOIL, 2000)


def test_model_same_table_across_presentations():
    # Z/5 presented with a redundant generator standardizes to the same table
    z5b = parse_presentation("gens: x y\nrels: x^5 y\n")
    assert group_model(Z5, 1000).same_table(group_model(z5b, 1000))


def test_is_trivial_quotient():
    res = is_trivial_quotient(A5, [Word([(0, 1)])], 20000)
    assert res.kind == "trivial"
    res = is_trivial_quotient(parse_presentation("gens: x\nrels: x^4\n"),
                              [Word([(0, 1), (0, 1)])], 1000)
    assert res.kind == "nontrivial" and res.order == 2
    res = is_trivial_quotient(TREFOIL, [], 2000)
    assert res.kind == "unknown"


def test_find_normal_generator_a5():
    res = find_normal_generator(A5, max_len=2, max_cosets=20000)
    assert res.found
    assert res.word == Word([(0, 1)])  # the single letter a
    # the quotient <b | b^3, b^5> enumerates to the trivial group
    q = parse_presentation("gens: b\nrels: b^3 b^5\n")
    assert todd_coxeter(q, 100).num_cosets == 1


def test_find_normal_generator_enumerates_each_quotient_once(monkeypatch):
    from d2kit import coset

    calls = []
    real = coset.todd_coxeter

    def recording(P, max_cosets, strategy="hlt"):
        calls.append(P.relators)
        return real(P, max_cosets, strategy)

    monkeypatch.setattr(coset, "todd_coxeter", recording)
    res = find_normal_generator(A5, max_len=2, max_cosets=20000)
    assert res.found and res.word == Word([(0, 1)])
    # the group model, then the quotients by the empty word and by a
    assert calls == [A5.relators, A5.relators + (Word(),),
                     A5.relators + (Word([(0, 1)]),)]


def test_find_normal_generator_trivial_group():
    res = find_normal_generator(TRIVIAL, max_len=2, max_cosets=100)
    assert res.found
    assert res.word == Word()


def test_find_normal_generator_non_perfect():
    res = find_normal_generator(TREFOIL, max_len=2, max_cosets=500)
    assert not res.found
    assert "non-perfect" in res.warnings
    assert res.tested == 0
