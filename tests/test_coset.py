import hashlib
import random
from pathlib import Path

import pytest

from d2kit import coset
from d2kit.coset import (
    NotFinitelyEnumerated,
    find_normal_generator,
    group_model,
    is_trivial_quotient,
    todd_coxeter,
)
from d2kit.presentations import Presentation, parse_presentation
from d2kit.words import Word

TRIVIAL = parse_presentation("gens:\nrels:\n")
Z = parse_presentation("gens: x\nrels:\n")
Z2 = parse_presentation("gens: x\nrels: x^2\n")
Z5 = parse_presentation("gens: x\nrels: x^5\n")
S3 = parse_presentation("gens: a b\nrels: a^2 b^2 (a b)^3\n")
Q8 = parse_presentation("gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n")
A5 = parse_presentation("gens: a b\nrels: a^2 b^3 (a b)^5\n")
TREFOIL = parse_presentation("gens: x y\nrels: (x^2 y^-3)\n")
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def coset_large(m):
    """<a,b | a^2, b^3, (ab)^7, [a,b]^m>, the coset-large benchmark groups."""
    return parse_presentation(
        f"gens: a b\nrels: a^2 b^3 (a b)^7 (a^-1 b^-1 a b)^{m}\n")


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


def word_walk_mult(rows):
    """mult[i][j]: walk j's breadth-first representative word from i."""
    n = len(rows)
    rep_path = [None] * n
    rep_path[0] = ()
    queue = [0]
    for a in queue:
        for c, b in enumerate(rows[a]):
            if rep_path[b] is None:
                rep_path[b] = rep_path[a] + (c,)
                queue.append(b)
    mult = []
    for i in range(n):
        row = []
        for j in range(n):
            e = i
            for c in rep_path[j]:
                e = rows[e][c]
            row.append(e)
        mult.append(tuple(row))
    return tuple(mult)


def test_group_model_mult_matches_word_walk():
    groups = [parse_presentation(p.read_text())
              for p in sorted(CORPUS.glob("*.fp"))]
    groups += [coset_large(4), coset_large(6)]  # PSL(2,7) and order 1092
    orders = []
    for P in groups:
        tc = todd_coxeter(P, 20000)
        if not tc.complete:
            continue
        m = group_model(P, 20000)
        assert m.mult == word_walk_mult(tc.table)
        orders.append(m.order)
    assert orders == [60, 8, 6, 1, 2, 5, 168, 1092]


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


# --- golden enumeration results --------------------------------------------
# Recorded with the row-major table that the column-major one replaced (the
# m8 and m9 rows with the column-major table, before its hot loops were
# tightened). A change in which cosets get defined or merged shows up here as
# a different live count on a limit hit or a different table digest.

GOLDEN_LIMITS = (50, 700, 5000)


def random_free(seed):
    """2 or 3 generators, 2-4 random relators of up to 10 letters."""
    rng = random.Random(seed)
    ngens = 2 + seed % 2
    rels = [Word([(rng.randrange(ngens), rng.choice((1, -1)))
                  for _ in range(rng.randint(2, 10))])
            for _ in range(rng.randint(2, 4))]
    return Presentation("abc"[:ngens], rels)


def random_powers(seed):
    """g^k (k in 2..5) for each of 2 or 3 generators, plus 1-2 random words."""
    rng = random.Random(seed)
    ngens = 2 + seed % 2
    rels = [Word([(g, 1)] * rng.randint(2, 5)) for g in range(ngens)]
    rels += [Word([(rng.randrange(ngens), rng.choice((1, -1)))
                   for _ in range(rng.randint(4, 10))])
             for _ in range(rng.randint(1, 2))]
    return Presentation("abc"[:ngens], rels)


def golden_inputs():
    out = {p.stem: parse_presentation(p.read_text())
           for p in sorted(CORPUS.glob("*.fp"))}
    out.update((f"free{s}", random_free(s)) for s in range(20))
    out.update((f"powers{s}", random_powers(s)) for s in range(24))
    out.update((f"m{m}", coset_large(m)) for m in (4, 5, 8, 9))
    return out


def table_digest(tc):
    if not tc.complete:
        return None
    return hashlib.sha256(repr(tc.table).encode()).hexdigest()[:16]


def golden_row(P, strategy):
    return tuple((tc.status, tc.num_cosets, table_digest(tc))
                 for tc in (todd_coxeter(P, limit, strategy)
                            for limit in GOLDEN_LIMITS))


# (input, strategy) -> (status, num_cosets, digest) at limits 50, 700, 5000
TODD_COXETER_GOLDEN = {
    ("a5", "hlt"): (("incomplete", 49, None), ("complete", 60, "610d3d697464c289"),
                    ("complete", 60, "610d3d697464c289")),
    ("a5", "felsch"): (("incomplete", 50, None), ("complete", 60, "610d3d697464c289"),
                       ("complete", 60, "610d3d697464c289")),
    ("f2", "hlt"): (("incomplete", 50, None), ("incomplete", 700, None),
                    ("incomplete", 5000, None)),
    ("f2", "felsch"): (("incomplete", 50, None), ("incomplete", 700, None),
                       ("incomplete", 5000, None)),
    ("q8", "hlt"): (("complete", 8, "e11952981ac076dc"), ("complete", 8, "e11952981ac076dc"),
                    ("complete", 8, "e11952981ac076dc")),
    ("q8", "felsch"): (("complete", 8, "e11952981ac076dc"), ("complete", 8, "e11952981ac076dc"),
                       ("complete", 8, "e11952981ac076dc")),
    ("s3", "hlt"): (("complete", 6, "296ffe54aae8144d"), ("complete", 6, "296ffe54aae8144d"),
                    ("complete", 6, "296ffe54aae8144d")),
    ("s3", "felsch"): (("complete", 6, "296ffe54aae8144d"), ("complete", 6, "296ffe54aae8144d"),
                       ("complete", 6, "296ffe54aae8144d")),
    ("trefoil", "hlt"): (("incomplete", 50, None), ("incomplete", 672, None),
                         ("incomplete", 4817, None)),
    ("trefoil", "felsch"): (("incomplete", 50, None), ("incomplete", 700, None),
                            ("incomplete", 5000, None)),
    ("trivial", "hlt"): (("complete", 1, "6af22f1bc2d94295"), ("complete", 1, "6af22f1bc2d94295"),
                         ("complete", 1, "6af22f1bc2d94295")),
    ("trivial", "felsch"): (("complete", 1, "6af22f1bc2d94295"), ("complete", 1, "6af22f1bc2d94295"),
                            ("complete", 1, "6af22f1bc2d94295")),
    ("z", "hlt"): (("incomplete", 50, None), ("incomplete", 700, None),
                   ("incomplete", 5000, None)),
    ("z", "felsch"): (("incomplete", 50, None), ("incomplete", 700, None),
                      ("incomplete", 5000, None)),
    ("z2", "hlt"): (("complete", 2, "71a6dbfe4aff17b0"), ("complete", 2, "71a6dbfe4aff17b0"),
                    ("complete", 2, "71a6dbfe4aff17b0")),
    ("z2", "felsch"): (("complete", 2, "71a6dbfe4aff17b0"), ("complete", 2, "71a6dbfe4aff17b0"),
                       ("complete", 2, "71a6dbfe4aff17b0")),
    ("z5", "hlt"): (("complete", 5, "a61025afa2fa6670"), ("complete", 5, "a61025afa2fa6670"),
                    ("complete", 5, "a61025afa2fa6670")),
    ("z5", "felsch"): (("complete", 5, "a61025afa2fa6670"), ("complete", 5, "a61025afa2fa6670"),
                       ("complete", 5, "a61025afa2fa6670")),
    ("free0", "hlt"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                       ("complete", 1, "d8f7da685833a9d3")),
    ("free0", "felsch"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                          ("complete", 1, "d8f7da685833a9d3")),
    ("free1", "hlt"): (("incomplete", 29, None), ("incomplete", 354, None),
                       ("incomplete", 2504, None)),
    ("free1", "felsch"): (("incomplete", 26, None), ("incomplete", 351, None),
                          ("incomplete", 2501, None)),
    ("free2", "hlt"): (("complete", 3, "5f6eddfbb34ded84"), ("complete", 3, "5f6eddfbb34ded84"),
                       ("complete", 3, "5f6eddfbb34ded84")),
    ("free2", "felsch"): (("complete", 3, "5f6eddfbb34ded84"), ("complete", 3, "5f6eddfbb34ded84"),
                          ("complete", 3, "5f6eddfbb34ded84")),
    ("free3", "hlt"): (("incomplete", 37, None), ("incomplete", 300, None),
                       ("incomplete", 1775, None)),
    ("free3", "felsch"): (("incomplete", 47, None), ("incomplete", 584, None),
                          ("incomplete", 4067, None)),
    ("free4", "hlt"): (("incomplete", 33, None), ("incomplete", 311, None),
                       ("incomplete", 2151, None)),
    ("free4", "felsch"): (("incomplete", 50, None), ("incomplete", 700, None),
                          ("incomplete", 5000, None)),
    ("free5", "hlt"): (("complete", 1, "f565f5c7e6a88397"), ("complete", 1, "f565f5c7e6a88397"),
                       ("complete", 1, "f565f5c7e6a88397")),
    ("free5", "felsch"): (("complete", 1, "f565f5c7e6a88397"), ("complete", 1, "f565f5c7e6a88397"),
                          ("complete", 1, "f565f5c7e6a88397")),
    ("free6", "hlt"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                       ("complete", 1, "d8f7da685833a9d3")),
    ("free6", "felsch"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                          ("complete", 1, "d8f7da685833a9d3")),
    ("free7", "hlt"): (("complete", 5, "6b9ac8f541c2b630"), ("complete", 5, "6b9ac8f541c2b630"),
                       ("complete", 5, "6b9ac8f541c2b630")),
    ("free7", "felsch"): (("complete", 5, "6b9ac8f541c2b630"), ("complete", 5, "6b9ac8f541c2b630"),
                          ("complete", 5, "6b9ac8f541c2b630")),
    ("free8", "hlt"): (("incomplete", 50, None), ("incomplete", 700, None),
                       ("incomplete", 5000, None)),
    ("free8", "felsch"): (("incomplete", 50, None), ("incomplete", 700, None),
                          ("incomplete", 5000, None)),
    ("free9", "hlt"): (("incomplete", 47, None), ("complete", 3, "f77941e1cebb1051"),
                       ("complete", 3, "f77941e1cebb1051")),
    ("free9", "felsch"): (("complete", 3, "f77941e1cebb1051"), ("complete", 3, "f77941e1cebb1051"),
                          ("complete", 3, "f77941e1cebb1051")),
    ("free10", "hlt"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                        ("complete", 1, "d8f7da685833a9d3")),
    ("free10", "felsch"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                           ("complete", 1, "d8f7da685833a9d3")),
    ("free11", "hlt"): (("incomplete", 49, None), ("incomplete", 662, None),
                        ("incomplete", 4651, None)),
    ("free11", "felsch"): (("incomplete", 50, None), ("incomplete", 694, None),
                           ("incomplete", 4913, None)),
    ("free12", "hlt"): (("complete", 3, "5f6eddfbb34ded84"), ("complete", 3, "5f6eddfbb34ded84"),
                        ("complete", 3, "5f6eddfbb34ded84")),
    ("free12", "felsch"): (("complete", 3, "5f6eddfbb34ded84"), ("complete", 3, "5f6eddfbb34ded84"),
                           ("complete", 3, "5f6eddfbb34ded84")),
    ("free13", "hlt"): (("incomplete", 50, None), ("incomplete", 678, None),
                        ("incomplete", 4407, None)),
    ("free13", "felsch"): (("incomplete", 50, None), ("incomplete", 640, None),
                           ("incomplete", 4939, None)),
    ("free14", "hlt"): (("complete", 2, "83f95dd54f1cd46c"), ("complete", 2, "83f95dd54f1cd46c"),
                        ("complete", 2, "83f95dd54f1cd46c")),
    ("free14", "felsch"): (("complete", 2, "83f95dd54f1cd46c"), ("complete", 2, "83f95dd54f1cd46c"),
                           ("complete", 2, "83f95dd54f1cd46c")),
    ("free15", "hlt"): (("incomplete", 44, None), ("incomplete", 613, None),
                        ("incomplete", 4377, None)),
    ("free15", "felsch"): (("incomplete", 50, None), ("incomplete", 700, None),
                           ("incomplete", 5000, None)),
    ("free16", "hlt"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                        ("complete", 1, "d8f7da685833a9d3")),
    ("free16", "felsch"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                           ("complete", 1, "d8f7da685833a9d3")),
    ("free17", "hlt"): (("complete", 3, "95f650a8b94b14f7"), ("complete", 3, "95f650a8b94b14f7"),
                        ("complete", 3, "95f650a8b94b14f7")),
    ("free17", "felsch"): (("complete", 3, "95f650a8b94b14f7"), ("complete", 3, "95f650a8b94b14f7"),
                           ("complete", 3, "95f650a8b94b14f7")),
    ("free18", "hlt"): (("complete", 6, "c61e1c8aee6f046e"), ("complete", 6, "c61e1c8aee6f046e"),
                        ("complete", 6, "c61e1c8aee6f046e")),
    ("free18", "felsch"): (("complete", 6, "c61e1c8aee6f046e"), ("complete", 6, "c61e1c8aee6f046e"),
                           ("complete", 6, "c61e1c8aee6f046e")),
    ("free19", "hlt"): (("complete", 2, "8ecef713a3387f7d"), ("complete", 2, "8ecef713a3387f7d"),
                        ("complete", 2, "8ecef713a3387f7d")),
    ("free19", "felsch"): (("complete", 2, "8ecef713a3387f7d"), ("complete", 2, "8ecef713a3387f7d"),
                           ("complete", 2, "8ecef713a3387f7d")),
    ("powers0", "hlt"): (("incomplete", 50, None), ("incomplete", 700, None),
                         ("incomplete", 5000, None)),
    ("powers0", "felsch"): (("incomplete", 50, None), ("incomplete", 700, None),
                            ("incomplete", 5000, None)),
    ("powers1", "hlt"): (("incomplete", 25, None), ("complete", 24, "0565848572e96cb9"),
                         ("complete", 24, "0565848572e96cb9")),
    ("powers1", "felsch"): (("complete", 24, "0565848572e96cb9"), ("complete", 24, "0565848572e96cb9"),
                            ("complete", 24, "0565848572e96cb9")),
    ("powers2", "hlt"): (("complete", 4, "9173dbffa0bb3ff1"), ("complete", 4, "9173dbffa0bb3ff1"),
                         ("complete", 4, "9173dbffa0bb3ff1")),
    ("powers2", "felsch"): (("complete", 4, "9173dbffa0bb3ff1"), ("complete", 4, "9173dbffa0bb3ff1"),
                            ("complete", 4, "9173dbffa0bb3ff1")),
    ("powers3", "hlt"): (("incomplete", 45, None), ("complete", 3, "401c2c5d86d4dea9"),
                         ("complete", 3, "401c2c5d86d4dea9")),
    ("powers3", "felsch"): (("complete", 3, "401c2c5d86d4dea9"), ("complete", 3, "401c2c5d86d4dea9"),
                            ("complete", 3, "401c2c5d86d4dea9")),
    ("powers4", "hlt"): (("incomplete", 49, None), ("complete", 18, "67fec24eff798101"),
                         ("complete", 18, "67fec24eff798101")),
    ("powers4", "felsch"): (("incomplete", 50, None), ("complete", 18, "67fec24eff798101"),
                            ("complete", 18, "67fec24eff798101")),
    ("powers5", "hlt"): (("incomplete", 37, None), ("incomplete", 105, None),
                         ("incomplete", 675, None)),
    ("powers5", "felsch"): (("incomplete", 37, None), ("incomplete", 469, None),
                            ("incomplete", 3337, None)),
    ("powers6", "hlt"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                         ("complete", 1, "d8f7da685833a9d3")),
    ("powers6", "felsch"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                            ("complete", 1, "d8f7da685833a9d3")),
    ("powers7", "hlt"): (("incomplete", 50, None), ("incomplete", 628, None),
                         ("incomplete", 4596, None)),
    ("powers7", "felsch"): (("incomplete", 50, None), ("incomplete", 700, None),
                            ("incomplete", 5000, None)),
    ("powers8", "hlt"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                         ("complete", 1, "d8f7da685833a9d3")),
    ("powers8", "felsch"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                            ("complete", 1, "d8f7da685833a9d3")),
    ("powers9", "hlt"): (("incomplete", 29, None), ("incomplete", 376, None),
                         ("incomplete", 2600, None)),
    ("powers9", "felsch"): (("incomplete", 37, None), ("incomplete", 505, None),
                            ("incomplete", 3601, None)),
    ("powers10", "hlt"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                          ("complete", 1, "d8f7da685833a9d3")),
    ("powers10", "felsch"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                             ("complete", 1, "d8f7da685833a9d3")),
    ("powers11", "hlt"): (("incomplete", 30, None), ("incomplete", 356, None),
                          ("incomplete", 2504, None)),
    ("powers11", "felsch"): (("incomplete", 37, None), ("incomplete", 513, None),
                             ("incomplete", 3661, None)),
    ("powers12", "hlt"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                          ("complete", 1, "d8f7da685833a9d3")),
    ("powers12", "felsch"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                             ("complete", 1, "d8f7da685833a9d3")),
    ("powers13", "hlt"): (("incomplete", 41, None), ("incomplete", 512, None),
                          ("incomplete", 3644, None)),
    ("powers13", "felsch"): (("incomplete", 50, None), ("incomplete", 700, None),
                             ("incomplete", 5000, None)),
    ("powers14", "hlt"): (("complete", 3, "c1ae10b84f0e0f8e"), ("complete", 3, "c1ae10b84f0e0f8e"),
                          ("complete", 3, "c1ae10b84f0e0f8e")),
    ("powers14", "felsch"): (("complete", 3, "c1ae10b84f0e0f8e"), ("complete", 3, "c1ae10b84f0e0f8e"),
                             ("complete", 3, "c1ae10b84f0e0f8e")),
    ("powers15", "hlt"): (("complete", 2, "147e3ee703fd7030"), ("complete", 2, "147e3ee703fd7030"),
                          ("complete", 2, "147e3ee703fd7030")),
    ("powers15", "felsch"): (("complete", 2, "147e3ee703fd7030"), ("complete", 2, "147e3ee703fd7030"),
                             ("complete", 2, "147e3ee703fd7030")),
    ("powers16", "hlt"): (("complete", 20, "95f52e50385389aa"), ("complete", 20, "95f52e50385389aa"),
                          ("complete", 20, "95f52e50385389aa")),
    ("powers16", "felsch"): (("complete", 20, "95f52e50385389aa"), ("complete", 20, "95f52e50385389aa"),
                             ("complete", 20, "95f52e50385389aa")),
    ("powers17", "hlt"): (("complete", 1, "f565f5c7e6a88397"), ("complete", 1, "f565f5c7e6a88397"),
                          ("complete", 1, "f565f5c7e6a88397")),
    ("powers17", "felsch"): (("complete", 1, "f565f5c7e6a88397"), ("complete", 1, "f565f5c7e6a88397"),
                             ("complete", 1, "f565f5c7e6a88397")),
    ("powers18", "hlt"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                          ("complete", 1, "d8f7da685833a9d3")),
    ("powers18", "felsch"): (("complete", 1, "d8f7da685833a9d3"), ("complete", 1, "d8f7da685833a9d3"),
                             ("complete", 1, "d8f7da685833a9d3")),
    ("powers19", "hlt"): (("complete", 1, "f565f5c7e6a88397"), ("complete", 1, "f565f5c7e6a88397"),
                          ("complete", 1, "f565f5c7e6a88397")),
    ("powers19", "felsch"): (("complete", 1, "f565f5c7e6a88397"), ("complete", 1, "f565f5c7e6a88397"),
                             ("complete", 1, "f565f5c7e6a88397")),
    ("powers20", "hlt"): (("incomplete", 50, None), ("complete", 6, "d7025f1cde3d733e"),
                          ("complete", 6, "d7025f1cde3d733e")),
    ("powers20", "felsch"): (("incomplete", 50, None), ("complete", 6, "d7025f1cde3d733e"),
                             ("complete", 6, "d7025f1cde3d733e")),
    ("powers21", "hlt"): (("incomplete", 50, None), ("complete", 1, "f565f5c7e6a88397"),
                          ("complete", 1, "f565f5c7e6a88397")),
    ("powers21", "felsch"): (("incomplete", 50, None), ("complete", 1, "f565f5c7e6a88397"),
                             ("complete", 1, "f565f5c7e6a88397")),
    ("powers22", "hlt"): (("complete", 3, "c1ae10b84f0e0f8e"), ("complete", 3, "c1ae10b84f0e0f8e"),
                          ("complete", 3, "c1ae10b84f0e0f8e")),
    ("powers22", "felsch"): (("complete", 3, "c1ae10b84f0e0f8e"), ("complete", 3, "c1ae10b84f0e0f8e"),
                             ("complete", 3, "c1ae10b84f0e0f8e")),
    ("powers23", "hlt"): (("complete", 4, "4c6d65fae9af005c"), ("complete", 4, "4c6d65fae9af005c"),
                          ("complete", 4, "4c6d65fae9af005c")),
    ("powers23", "felsch"): (("complete", 4, "4c6d65fae9af005c"), ("complete", 4, "4c6d65fae9af005c"),
                             ("complete", 4, "4c6d65fae9af005c")),
    ("m4", "hlt"): (("incomplete", 50, None), ("complete", 168, "7e0880b49cddd5bd"),
                    ("complete", 168, "7e0880b49cddd5bd")),
    ("m4", "felsch"): (("incomplete", 50, None), ("complete", 168, "7e0880b49cddd5bd"),
                       ("complete", 168, "7e0880b49cddd5bd")),
    ("m5", "hlt"): (("incomplete", 50, None), ("incomplete", 570, None),
                    ("complete", 1, "d8f7da685833a9d3")),
    ("m5", "felsch"): (("incomplete", 50, None), ("complete", 1, "d8f7da685833a9d3"),
                       ("complete", 1, "d8f7da685833a9d3")),
    ("m8", "hlt"): (("incomplete", 50, None), ("incomplete", 666, None),
                    ("incomplete", 4282, None)),
    ("m8", "felsch"): (("incomplete", 50, None), ("incomplete", 700, None),
                       ("incomplete", 5000, None)),
    ("m9", "hlt"): (("incomplete", 50, None), ("incomplete", 674, None),
                    ("incomplete", 4478, None)),
    ("m9", "felsch"): (("incomplete", 50, None), ("incomplete", 700, None),
                       ("incomplete", 5000, None)),
}


def test_todd_coxeter_golden():
    got = {(name, strategy): golden_row(P, strategy)
           for name, P in golden_inputs().items()
           for strategy in ("hlt", "felsch")}
    assert got == TODD_COXETER_GOLDEN


def enumerate_table(P, limit, strategy):
    """The `_Table` of todd_coxeter(P, limit, strategy) as the enumeration
    left it, stopped at the limit or complete."""
    table = coset._Table(P.num_generators, limit)
    run = coset._enumerate_hlt if strategy == "hlt" else coset._enumerate_felsch
    try:
        run(table, coset._preprocess(P))
    except coset._Limit:
        pass
    return table


def table_violations(table):
    """Defined entries b = cols[c][k] of live cosets k whose inverse entry
    does not lead back: rep(cols[c ^ 1][rep(b)]) must be k."""
    rep, cols = table.rep, table.cols
    bad = []
    for k in table.live():
        for c, col in enumerate(cols):
            b = col[k]
            if b is None:
                continue
            back = cols[c ^ 1][rep(b)]
            if back is None or rep(back) != k:
                bad.append((k, c))
    return bad


def test_coset_tables_consistent():
    # _Limit is raised before define changes the table, so a table stopped at
    # the limit is as consistent as a complete one
    cases = [(name, P, limit) for name, P in golden_inputs().items()
             for limit in GOLDEN_LIMITS]
    cases.append(("m9", coset_large(9), 20000))
    bad = [(name, limit, strategy)
           for name, P, limit in cases for strategy in ("hlt", "felsch")
           if table_violations(enumerate_table(P, limit, strategy))]
    assert bad == []


@pytest.mark.slow
def test_coset_large_at_benchmark_size():
    # the coset-large workload's inputs: m = 8 completes within 300 000
    # cosets, and m = 9 hits limits inside the workload's seeded band
    for strategy in ("hlt", "felsch"):
        tc = todd_coxeter(coset_large(8), 300000, strategy)
        assert (tc.status, tc.num_cosets, table_digest(tc)) == (
            "complete", 10752, "da371134fe5f9ef2")
    table = enumerate_table(coset_large(8), 300000, "hlt")
    assert len(table.p) == 1 + 272595  # coset 0, then one per definition
    assert len(table.live()) == 10752 and table_violations(table) == []
    for limit, strategy, live in ((200000, "hlt", 159751),
                                  (200000, "felsch", 199816),
                                  (200146, "hlt", 159825),
                                  (200146, "felsch", 199962)):
        table = enumerate_table(coset_large(9), limit, strategy)
        assert len(table.live()) == live
        assert table_violations(table) == []
