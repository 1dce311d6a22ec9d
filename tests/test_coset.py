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
from d2kit.presentations import Presentation, is_perfect, parse_presentation
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


def test_sl27_campbell_robertson():
    # SL(2,7) from Campbell and Robertson's balanced family at p = 7: a
    # perfect group that HLT enumerates only with far more than its 336
    # cosets (the CLI's `order` at its default limit says unknown)
    P = parse_presentation("gens: x y\nrels: (x^2 (x y)^-3) ((x y^4 x y^4)^2 y^7 x^4)\n")
    assert is_perfect(P)
    f = todd_coxeter(P, 20000, "felsch")
    assert f.complete and f.num_cosets == 336
    h = todd_coxeter(P, 200000, "hlt")
    assert h.complete and h.table == f.table


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


def raw_digest(table):
    """Digest of every union-find parent and column entry of a `_Table`, dead
    cosets included, so it pins each definition, deduction and merge."""
    return hashlib.sha256(repr((table.p, table.cols)).encode()).hexdigest()[:12]


# (input, strategy) -> raw_digest of enumerate_table at limits 50, 700, 5000
RAW_TABLE_DIGESTS = {
    ("a5", "hlt"): ("3fd5fc2c1dd4", "0fe9b56b057a", "0fe9b56b057a"),
    ("a5", "felsch"): ("d7892ed94083", "03d629a7e7ce", "03d629a7e7ce"),
    ("f2", "hlt"): ("bf18c89af4a5", "af40fea42af9", "d066a762f2cd"),
    ("f2", "felsch"): ("bf18c89af4a5", "af40fea42af9", "d066a762f2cd"),
    ("q8", "hlt"): ("beca671f846d", "beca671f846d", "beca671f846d"),
    ("q8", "felsch"): ("b1f52d1de2f5", "b1f52d1de2f5", "b1f52d1de2f5"),
    ("s3", "hlt"): ("826abbc93c78", "826abbc93c78", "826abbc93c78"),
    ("s3", "felsch"): ("ec16d0d6862f", "ec16d0d6862f", "ec16d0d6862f"),
    ("trefoil", "hlt"): ("6cd510f2cb80", "01eea42b4e7b", "fb24316a5aac"),
    ("trefoil", "felsch"): ("09ce1c2e5141", "0a97ac0e10c7", "54a8bc536172"),
    ("trivial", "hlt"): ("56ca4e61f6ba", "56ca4e61f6ba", "56ca4e61f6ba"),
    ("trivial", "felsch"): ("56ca4e61f6ba", "56ca4e61f6ba", "56ca4e61f6ba"),
    ("z", "hlt"): ("79767d6777d5", "631564086d7c", "9cf73fad89d3"),
    ("z", "felsch"): ("79767d6777d5", "631564086d7c", "9cf73fad89d3"),
    ("z2", "hlt"): ("3c341b499a83", "3c341b499a83", "3c341b499a83"),
    ("z2", "felsch"): ("3c341b499a83", "3c341b499a83", "3c341b499a83"),
    ("z5", "hlt"): ("4c8b84312a67", "4c8b84312a67", "4c8b84312a67"),
    ("z5", "felsch"): ("e266eba79106", "e266eba79106", "e266eba79106"),
    ("free0", "hlt"): ("bf9385ca8c0a", "bf9385ca8c0a", "bf9385ca8c0a"),
    ("free0", "felsch"): ("c5a01acfed09", "c5a01acfed09", "c5a01acfed09"),
    ("free1", "hlt"): ("a2e6e5f70385", "35692d15db65", "f7edc7bbc383"),
    ("free1", "felsch"): ("62deb3306390", "e11d126fd02c", "881ed288307b"),
    ("free2", "hlt"): ("538da2fdaaba", "538da2fdaaba", "538da2fdaaba"),
    ("free2", "felsch"): ("af825e54a1bd", "af825e54a1bd", "af825e54a1bd"),
    ("free3", "hlt"): ("974a545fc605", "f2dc8f354c0a", "b85aaf6dd328"),
    ("free3", "felsch"): ("8f4a498bd51a", "620e7ee02f81", "be3699532e54"),
    ("free4", "hlt"): ("ec2cafe208c4", "a4d2bffea8c5", "30ca99a07441"),
    ("free4", "felsch"): ("1a68cb6ad18d", "1f8d6f7b004d", "3760bbb4ad3b"),
    ("free5", "hlt"): ("fe21db733646", "fe21db733646", "fe21db733646"),
    ("free5", "felsch"): ("093f3f067c85", "093f3f067c85", "093f3f067c85"),
    ("free6", "hlt"): ("5db36f038187", "5db36f038187", "5db36f038187"),
    ("free6", "felsch"): ("f731169ec226", "f731169ec226", "f731169ec226"),
    ("free7", "hlt"): ("8555eb9e1fe8", "8555eb9e1fe8", "8555eb9e1fe8"),
    ("free7", "felsch"): ("6f4f2ef87d8b", "6f4f2ef87d8b", "6f4f2ef87d8b"),
    ("free8", "hlt"): ("6a484b891741", "abbe3f39b3fd", "6cf51367fedd"),
    ("free8", "felsch"): ("1a54243826c5", "c4012d4d4498", "d2d32e562ea6"),
    ("free9", "hlt"): ("3fa845ff5c6d", "ff227613e128", "ff227613e128"),
    ("free9", "felsch"): ("a8ba58b28784", "a8ba58b28784", "a8ba58b28784"),
    ("free10", "hlt"): ("31f966bf0a63", "31f966bf0a63", "31f966bf0a63"),
    ("free10", "felsch"): ("c5a01acfed09", "c5a01acfed09", "c5a01acfed09"),
    ("free11", "hlt"): ("8711c99ce7a4", "d69d64513128", "cd7da06b662c"),
    ("free11", "felsch"): ("eae79a7c0e4e", "6e53b9f14e73", "b3b88a507e42"),
    ("free12", "hlt"): ("d354ffdb4eb5", "d354ffdb4eb5", "d354ffdb4eb5"),
    ("free12", "felsch"): ("af825e54a1bd", "af825e54a1bd", "af825e54a1bd"),
    ("free13", "hlt"): ("88d08c641629", "34bc68c55370", "dcf274810798"),
    ("free13", "felsch"): ("594cfbf1cce3", "0e3171664253", "2947986b32b7"),
    ("free14", "hlt"): ("82a29cfbda10", "82a29cfbda10", "82a29cfbda10"),
    ("free14", "felsch"): ("44990a957dac", "44990a957dac", "44990a957dac"),
    ("free15", "hlt"): ("7b7aa654fbde", "aac45c91ef79", "6397900630be"),
    ("free15", "felsch"): ("529b6d6da35b", "2a8573d77480", "effe2296d777"),
    ("free16", "hlt"): ("5db36f038187", "5db36f038187", "5db36f038187"),
    ("free16", "felsch"): ("c6bc66b776b8", "c6bc66b776b8", "c6bc66b776b8"),
    ("free17", "hlt"): ("ed0b9ea39f4b", "ed0b9ea39f4b", "ed0b9ea39f4b"),
    ("free17", "felsch"): ("9ca8966870e9", "9ca8966870e9", "9ca8966870e9"),
    ("free18", "hlt"): ("b163434eab9c", "b163434eab9c", "b163434eab9c"),
    ("free18", "felsch"): ("1155d02cc4da", "1155d02cc4da", "1155d02cc4da"),
    ("free19", "hlt"): ("8636b8807384", "8636b8807384", "8636b8807384"),
    ("free19", "felsch"): ("7ad36787ba86", "7ad36787ba86", "7ad36787ba86"),
    ("powers0", "hlt"): ("78afc0377286", "40d7a40a65a1", "066b6749edc6"),
    ("powers0", "felsch"): ("0de94a5c134e", "afa0d75abc03", "75cc5bf4694b"),
    ("powers1", "hlt"): ("2c122aba4e83", "077fef6e9318", "077fef6e9318"),
    ("powers1", "felsch"): ("aac037c93d73", "aac037c93d73", "aac037c93d73"),
    ("powers2", "hlt"): ("1a290d86244d", "1a290d86244d", "1a290d86244d"),
    ("powers2", "felsch"): ("1a290d86244d", "1a290d86244d", "1a290d86244d"),
    ("powers3", "hlt"): ("5b9d19551aee", "93f21fdf01e4", "93f21fdf01e4"),
    ("powers3", "felsch"): ("3e51699fe63d", "3e51699fe63d", "3e51699fe63d"),
    ("powers4", "hlt"): ("5bbbb89c9bc0", "4d2c9169b577", "4d2c9169b577"),
    ("powers4", "felsch"): ("2d004aa43ea4", "af06e4ae0eb1", "af06e4ae0eb1"),
    ("powers5", "hlt"): ("43bdcf2dd777", "c585a14ce8e1", "7c565fe64d7a"),
    ("powers5", "felsch"): ("83623e739741", "d7279fad249e", "afcb0a30b945"),
    ("powers6", "hlt"): ("e04da2f195da", "e04da2f195da", "e04da2f195da"),
    ("powers6", "felsch"): ("d9e32ca05f11", "d9e32ca05f11", "d9e32ca05f11"),
    ("powers7", "hlt"): ("fb3acda42208", "9ff93269599a", "0766402bcf47"),
    ("powers7", "felsch"): ("fd0328f7d30f", "ea07cff7dcc4", "89a3ab16f218"),
    ("powers8", "hlt"): ("e21809a7d142", "e21809a7d142", "e21809a7d142"),
    ("powers8", "felsch"): ("c06cbe84d17b", "c06cbe84d17b", "c06cbe84d17b"),
    ("powers9", "hlt"): ("9222740b6137", "fe63d8dbfb8b", "c67d7d78ee45"),
    ("powers9", "felsch"): ("1343c3d464a6", "8cf84e7157d7", "e082da66fab1"),
    ("powers10", "hlt"): ("440f57c183ba", "440f57c183ba", "440f57c183ba"),
    ("powers10", "felsch"): ("d9e32ca05f11", "d9e32ca05f11", "d9e32ca05f11"),
    ("powers11", "hlt"): ("d041266263ff", "30ddbec2452b", "bb230abc6c9a"),
    ("powers11", "felsch"): ("a1ab050d147e", "4a044fdd9ca3", "710328676295"),
    ("powers12", "hlt"): ("ad025e59a6d2", "ad025e59a6d2", "ad025e59a6d2"),
    ("powers12", "felsch"): ("d97519df7971", "d97519df7971", "d97519df7971"),
    ("powers13", "hlt"): ("c2dce7702521", "ca79b9cf13ad", "283885454864"),
    ("powers13", "felsch"): ("7d7be75eb5a2", "1bd00ffb21e3", "6da09b8c0164"),
    ("powers14", "hlt"): ("72e262f6a30e", "72e262f6a30e", "72e262f6a30e"),
    ("powers14", "felsch"): ("174108af9e8f", "174108af9e8f", "174108af9e8f"),
    ("powers15", "hlt"): ("acc4b102e2e0", "acc4b102e2e0", "acc4b102e2e0"),
    ("powers15", "felsch"): ("3926b981a885", "3926b981a885", "3926b981a885"),
    ("powers16", "hlt"): ("8ec286281b7e", "8ec286281b7e", "8ec286281b7e"),
    ("powers16", "felsch"): ("e733a8bd65cc", "e733a8bd65cc", "e733a8bd65cc"),
    ("powers17", "hlt"): ("66c6ee750c54", "66c6ee750c54", "66c6ee750c54"),
    ("powers17", "felsch"): ("661a452f78b0", "661a452f78b0", "661a452f78b0"),
    ("powers18", "hlt"): ("f50b645bde78", "f50b645bde78", "f50b645bde78"),
    ("powers18", "felsch"): ("d9e32ca05f11", "d9e32ca05f11", "d9e32ca05f11"),
    ("powers19", "hlt"): ("f6008d0dc916", "f6008d0dc916", "f6008d0dc916"),
    ("powers19", "felsch"): ("5478ca565108", "5478ca565108", "5478ca565108"),
    ("powers20", "hlt"): ("3923f0a6caee", "c93265802019", "c93265802019"),
    ("powers20", "felsch"): ("68e3bfd2bc42", "175bd132937a", "175bd132937a"),
    ("powers21", "hlt"): ("ea647edd40a0", "01e8dfe7e24f", "01e8dfe7e24f"),
    ("powers21", "felsch"): ("6c1c4ee95ecc", "cf6737793ca6", "cf6737793ca6"),
    ("powers22", "hlt"): ("1c21b2f7abe1", "1c21b2f7abe1", "1c21b2f7abe1"),
    ("powers22", "felsch"): ("0621fe9c964d", "0621fe9c964d", "0621fe9c964d"),
    ("powers23", "hlt"): ("8904b24406a0", "8904b24406a0", "8904b24406a0"),
    ("powers23", "felsch"): ("426a399d02de", "426a399d02de", "426a399d02de"),
    ("m4", "hlt"): ("5fad50f0c75b", "1a77c520fbbd", "1a77c520fbbd"),
    ("m4", "felsch"): ("7a7c8d8b2448", "2ed97f4b0836", "2ed97f4b0836"),
    ("m5", "hlt"): ("4f8e4663ae29", "3b6c623e4611", "b0da1b19215e"),
    ("m5", "felsch"): ("7a7c8d8b2448", "26ff0e8fddfa", "26ff0e8fddfa"),
    ("m8", "hlt"): ("a69409f3b667", "55c0328a72d1", "6e075e948f78"),
    ("m8", "felsch"): ("7a7c8d8b2448", "7b01f947c6f9", "46c98dfcb275"),
    ("m9", "hlt"): ("bf266e8dea72", "9d7649d9e207", "0cbf5d77be83"),
    ("m9", "felsch"): ("7a7c8d8b2448", "5111140d7962", "698d2438306d"),
}

# m9 at 20 000 cosets, by strategy
RAW_M9_20000 = {"hlt": "9e0ed1155c4d", "felsch": "aac659ef0322"}


def test_coset_raw_tables_pinned():
    got = {(name, strategy): tuple(raw_digest(enumerate_table(P, limit, strategy))
                                   for limit in GOLDEN_LIMITS)
           for name, P in golden_inputs().items()
           for strategy in ("hlt", "felsch")}
    assert got == RAW_TABLE_DIGESTS
    assert {strategy: raw_digest(enumerate_table(coset_large(9), 20000, strategy))
            for strategy in ("hlt", "felsch")} == RAW_M9_20000


# Golden runs that take the rare branches of the scans, with how often each
# run takes its branch (counted once on a copy of the scans with counters).
# Their raw digests pin those branches: an edit that changes what a branch
# does changes a digest, and one that drops a run from the golden inputs
# fails here.
RARE_BRANCH_RUNS = {
    # Felsch: the backward pass walks past the gap, whose inverse entry is
    # already defined, so the scan ends in a coincidence (933 and 1663 times)
    "felsch crossing": (("free3", 5000, "felsch"), ("powers5", 5000, "felsch")),
    # HLT: the passes cross before any definition (2496, 1285 and 149 times;
    # 91 of the 344 raw runs take this branch)
    "hlt crossing": (("free1", 5000, "hlt"), ("powers5", 5000, "hlt"),
                     ("m9", 5000, "hlt")),
    # HLT: a definition lets the backward pass step onto the new coset
    # (1, 3 and 3 times)
    "hlt step after a definition": (("free9", 50, "hlt"), ("free9", 700, "hlt"),
                                    ("free9", 5000, "hlt")),
}


def test_coset_rare_branches_pinned():
    inputs = golden_inputs()
    for branch, runs in RARE_BRANCH_RUNS.items():
        for name, limit, strategy in runs:
            want = RAW_TABLE_DIGESTS[name, strategy][GOLDEN_LIMITS.index(limit)]
            got = raw_digest(enumerate_table(inputs[name], limit, strategy))
            assert got == want, (branch, name, limit, strategy)


@pytest.mark.slow
def test_coset_large_at_benchmark_size():
    # the coset-large workload's inputs: m = 8 completes within 300 000
    # cosets, and m = 9 hits limits inside the workload's seeded band
    for strategy in ("hlt", "felsch"):
        tc = todd_coxeter(coset_large(8), 300000, strategy)
        assert (tc.status, tc.num_cosets, table_digest(tc)) == (
            "complete", 10752, "da371134fe5f9ef2")
    # coset 0, then one per definition
    for strategy, defined in (("hlt", 272595), ("felsch", 39744)):
        table = enumerate_table(coset_large(8), 300000, strategy)
        assert len(table.p) == 1 + defined
        assert len(table.live()) == 10752 and table_violations(table) == []
    for limit, strategy, live in ((200000, "hlt", 159751),
                                  (200000, "felsch", 199816),
                                  (200146, "hlt", 159825),
                                  (200146, "felsch", 199962)):
        table = enumerate_table(coset_large(9), limit, strategy)
        assert len(table.live()) == live
        assert table_violations(table) == []
