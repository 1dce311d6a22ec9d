import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, deque
from pathlib import Path

import pytest

from d2kit import invariants, presentations, tietze
from d2kit.cli import main
from d2kit.coset import todd_coxeter
from d2kit.presentations import (
    Presentation,
    abelianization,
    deficiency,
    parse_presentation,
    serialize_presentation,
)
from d2kit.tietze import (
    _chunk,
    _eliminate_generator,
    _first_difference,
    _is_duplicate,
    _length_index,
    _neighbour,
    _node_key,
    _plain_precedes,
    _precedes,
    _presentation,
    _simplify,
    _single_generators,
    AddGenerator,
    AddRelator,
    ExtensionResult,
    InvalidMove,
    LiftingViolatesRelator,
    NotASubpresentation,
    RemoveGenerator,
    RemoveRelator,
    apply_move,
    deficiency_search,
    derived_word,
    invert_move,
    replace_subpresentation,
    simplify,
    subpresentation,
)
from d2kit.words import (
    Word,
    cyclic_core,
    decode,
    encode,
    flip_table,
    free_reduce,
    inverse,
    product,
    substitute,
)
from exact_oracles import (
    letters_cyclic_core,
    letters_inverse,
    letters_order_key,
    letters_product,
    letters_reduce,
    letters_substitute,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

A5 = parse_presentation("gens: a b\nrels: a^2 b^3 (a b)^5\n")
TREFOIL = parse_presentation("gens: x y\nrels: (x^2 y^-3)\n")
Z5_REDUNDANT = parse_presentation("gens: x y\nrels: x^5 y\n")


def test_add_generator_then_remove_round_trip():
    P = TREFOIL
    move = AddGenerator("z", Word([(0, 1), (1, -1)]))
    Q = apply_move(P, move)
    assert Q.num_generators == 3 and Q.num_relators == 2
    assert deficiency(Q) == deficiency(P)
    back = apply_move(Q, invert_move(P, move))
    assert back == P


def test_add_relator_with_derivation_and_remove():
    P = A5
    derivation = ((Word([(1, 1)]), 0, 1), (Word(), 1, -1))
    w = derived_word(P.relators, derivation)
    move = AddRelator(w, derivation)
    Q = apply_move(P, move)
    assert Q.num_relators == 4
    assert deficiency(Q) == deficiency(P) - 1
    back = apply_move(Q, invert_move(P, move))
    assert back == P


def test_add_relator_bad_derivation_rejected():
    P = A5
    with pytest.raises(InvalidMove):
        apply_move(P, AddRelator(Word([(0, 1)]), ((Word(), 1, 1),)))


def test_remove_relator_requires_honest_derivation():
    P = parse_presentation("gens: x\nrels: x^2 x^2\n")
    Q = apply_move(P, RemoveRelator(1, ((Word(), 0, 1),)))
    assert Q.num_relators == 1
    with pytest.raises(InvalidMove):
        apply_move(P, RemoveRelator(1, ((Word(), 1, 1),)))  # uses itself


def test_remove_generator_eliminates_via_single_occurrence():
    Q = apply_move(Z5_REDUNDANT, RemoveGenerator(1))
    assert Q == parse_presentation("gens: x\nrels: x^5\n")
    with pytest.raises(InvalidMove):
        apply_move(TREFOIL, RemoveGenerator(0))  # x occurs twice


def test_remove_generator_substitutes():
    # < x y | y x^-2, y^5 > : remove y -> < x | x^10 >
    P = parse_presentation("gens: x y\nrels: (y x^-2) y^5\n")
    Q = apply_move(P, RemoveGenerator(1))
    assert Q == parse_presentation("gens: x\nrels: x^10\n")


def test_simplify_examples():
    assert simplify(Z5_REDUNDANT) == parse_presentation("gens: x\nrels: x^5\n")
    assert simplify(A5) == A5
    assert simplify(TREFOIL) == TREFOIL
    # empty + duplicate relators vanish
    P = parse_presentation("gens: x\nrels: () x^2 x^2 (x x^2 x^-1)\n")
    assert simplify(P) == parse_presentation("gens: x\nrels: x^2\n")


def test_simplify_stops_after_a_pass_without_elimination(monkeypatch):
    # the first pass cyclically reduces a b^2 a^-1 and drops b a b a, a
    # rotation of (a b)^2, but eliminates no generator: it is the only pass
    calls = []
    is_duplicate = tietze._is_duplicate

    def counting(*args):
        calls.append(args[0])
        return is_duplicate(*args)

    monkeypatch.setattr(tietze, "_is_duplicate", counting)
    P = parse_presentation("gens: a b\nrels: (a b^2 a^-1) a^3 (a b)^2 (b a b a)\n")
    rels = tuple(r.text for r in P.relators)
    node = _simplify(P.generators, rels, {}, flip_table(4))
    assert len(calls) == 4  # one duplicate test per relator of the one pass
    assert _presentation(*node) == parse_presentation(
        "gens: a b\nrels: b^2 a^3 (a b)^2\n")


def _defining_relator_index(P, gen):
    for i, r in enumerate(P.relators):
        if r.generator_count(gen) == 1:
            return i
    return None


def random_verified_moves(P, rng, count):
    """A deterministic stream of group-preserving moves applied in sequence.

    `track_added` holds indices of relators added redundantly (so removing
    them later is safe); RemoveGenerator deletes its defining relator, which
    shifts the tracked indices.
    """
    track_added = []
    out = []

    def drop_index(removed):
        nonlocal track_added
        track_added = [i if i < removed else i - 1
                       for i in track_added if i != removed]

    for _ in range(count):
        kind = rng.choice(["addrel", "addgen", "removerel", "remgen"])
        if kind == "addrel" and P.num_relators:
            deriv = []
            for _ in range(rng.randint(1, 2)):
                j = rng.randrange(P.num_relators)
                u = Word([(rng.randrange(P.num_generators), rng.choice((1, -1)))
                          for _ in range(rng.randint(0, 2))]) if P.num_generators else Word()
                deriv.append((u, j, rng.choice((1, -1))))
            w = derived_word(P.relators, tuple(deriv))
            move = AddRelator(w, tuple(deriv))
            track_added.append(P.num_relators)
            P = apply_move(P, move)
            out.append(move)
        elif kind == "addgen":
            name = f"t{len(P.generators)}_{rng.randrange(1000)}"
            w = Word([(rng.randrange(P.num_generators), rng.choice((1, -1)))
                      for _ in range(rng.randint(0, 3))]) if P.num_generators else Word()
            move = AddGenerator(name, w)
            P = apply_move(P, move)
            out.append(move)
        elif kind == "removerel" and track_added:
            idx = track_added.pop()
            move = RemoveRelator(idx, None)
            P = apply_move(P, move)
            out.append(move)
            drop_index(idx)
        elif kind == "remgen":
            target = None
            for g in range(P.num_generators):
                if _defining_relator_index(P, g) is not None:
                    target = g
                    break
            if target is not None:
                defining = _defining_relator_index(P, target)
                move = RemoveGenerator(target)
                P = apply_move(P, move)
                out.append(move)
                drop_index(defining)
    return P, out


@pytest.mark.parametrize("seed,text", [
    (101, "gens: a b\nrels: a^2 b^3 (a b)^5\n"),
    (202, "gens: x y\nrels: (x^2 y^-3)\n"),
    (303, "gens: a b\nrels: a^2 b^2 (a b)^3\n"),
    (404, "gens: x\nrels: x^5\n"),
])
def test_abelianization_invariant_under_random_move_sequences(seed, text):
    P0 = parse_presentation(text)
    h0 = abelianization(P0).invariant_factors
    rng = random.Random(seed)
    for trial in range(25):
        P, _ = random_verified_moves(P0, rng, 6)
        assert abelianization(P).invariant_factors == h0


def test_order_invariant_under_random_move_sequences():
    rng = random.Random(11)
    for text, order in [("gens: x\nrels: x^5\n", 5),
                        ("gens: a b\nrels: a^2 b^2 (a b)^3\n", 6),
                        ("gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n", 8)]:
        P0 = parse_presentation(text)
        for _ in range(5):
            P, _ = random_verified_moves(P0, rng, 5)
            tc = todd_coxeter(P, 20000)
            assert tc.complete and tc.num_cosets == order


def test_deficiency_effect_of_moves():
    P = TREFOIL
    Q = apply_move(P, AddGenerator("z", Word([(0, 1)])))
    assert deficiency(Q) == deficiency(P)
    R = apply_move(P, AddRelator(P.relators[0], ((Word(), 0, 1),)))
    assert deficiency(R) == deficiency(P) - 1


def test_deficiency_search_examples():
    res = deficiency_search(Z5_REDUNDANT, budget=50)
    assert res.best == parse_presentation("gens: x\nrels: x^5\n")
    assert res.deficiency == 0
    res = deficiency_search(TREFOIL, budget=50)
    assert res.deficiency == 1
    res = deficiency_search(A5, budget=30)
    assert res.deficiency == -1
    assert res.visited <= 30


def test_deficiency_search_deterministic():
    a = deficiency_search(A5, budget=20)
    b = deficiency_search(A5, budget=20)
    assert serialize_presentation(a.best) == serialize_presentation(b.best)
    assert a.deficiency == b.deficiency and a.visited == b.visited


def test_subpresentation():
    sub = subpresentation(A5, [0], [0])
    assert sub == parse_presentation("gens: a\nrels: a^2\n")
    with pytest.raises(NotASubpresentation):
        subpresentation(A5, [0], [2])  # (ab)^5 uses b
    with pytest.raises(IndexError):
        subpresentation(A5, [5], [0])


def test_replace_subpresentation_a5_example():
    alternative = parse_presentation("gens: c\nrels: c^2\n")
    res = replace_subpresentation(A5, [0], [0], alternative,
                                  {0: Word([(0, 1)])})
    assert isinstance(res, ExtensionResult)
    out = res.presentation
    assert out == parse_presentation("gens: c b\nrels: c^2 b^3 (c b)^5\n")
    # counts: |alt gens| + (n - n') and |alt rels| + (m - m')
    assert out.num_generators == 1 + (2 - 1)
    assert out.num_relators == 1 + (3 - 1)
    assert res.lifting_verified
    tc = todd_coxeter(out, 20000)
    assert tc.complete and tc.num_cosets == 60


def test_replace_subpresentation_enumerates_once(monkeypatch):
    from d2kit import coset

    limits = []
    real = coset.todd_coxeter

    def recording(P, max_cosets, strategy="hlt"):
        limits.append(max_cosets)
        return real(P, max_cosets, strategy)

    monkeypatch.setattr(coset, "todd_coxeter", recording)
    alternative = parse_presentation("gens: c\nrels: c^2\n")
    res = replace_subpresentation(A5, [0], [0], alternative,
                                  {0: Word([(0, 1)])}, max_cosets=100)
    assert res.lifting_verified
    assert limits == [100]


def test_replace_subpresentation_identity_case():
    res = replace_subpresentation(
        A5, [0, 1], [0, 1, 2], A5,
        {0: Word([(0, 1)]), 1: Word([(1, 1)])})
    assert res.presentation == A5


def test_replace_subpresentation_two_relator_example():
    P = parse_presentation("gens: x y\nrels: x^2 y^3\n")
    alt = parse_presentation("gens: z\nrels: z^2\n")
    res = replace_subpresentation(P, [0], [0], alt, {0: Word([(0, 1)])})
    assert res.presentation == parse_presentation("gens: z y\nrels: z^2 y^3\n")


def test_replace_subpresentation_bad_lifting():
    alt = parse_presentation("gens: c\nrels: c^3\n")  # c^2 does not hold
    with pytest.raises(LiftingViolatesRelator):
        replace_subpresentation(A5, [0], [0], alt, {0: Word([(0, 1)])})


def test_replace_subpresentation_infinite_target_is_caller_asserted():
    P = parse_presentation("gens: x y\nrels: x^2\n")
    alt = parse_presentation("gens: z\nrels:\n")  # Z: never enumerates? (it does: no)
    res = replace_subpresentation(
        parse_presentation("gens: x y\nrels: (x^2 y^-3)\n"),
        [0, 1], [0],
        parse_presentation("gens: u v\nrels: (u^2 v^-3)\n"),
        {0: Word([(0, 1)]), 1: Word([(1, 1)])}, max_cosets=500)
    assert not res.lifting_verified
    assert any("caller-asserted" in n for n in res.notes)


def test_name_clash_renaming():
    P = parse_presentation("gens: x y\nrels: x^2 y^3\n")
    alt = parse_presentation("gens: y\nrels: y^2\n")  # clashes with kept y
    res = replace_subpresentation(P, [0], [0], alt, {0: Word([(0, 1)])})
    assert res.presentation.generators == ("y", "y_")


# --- the search and simplify against the implementation they replaced ------

def _reference_cyclic_form_key(w):
    core, _ = letters_cyclic_core(w.letters)
    best = None
    for cand in (core, letters_inverse(core)):
        n = len(cand)
        for k in range(max(n, 1)):
            rot = cand[k:] + cand[:k]
            if best is None or rot < best:
                best = rot
    return best


def _reference_remove_generator(P, gen):
    i = next(i for i, r in enumerate(P.relators) if r.generator_count(gen) == 1)
    r = P.relators[i]
    pos = next(k for k, (g, _) in enumerate(r.letters) if g == gen)
    u = Word(r.letters[:pos])
    v = Word(r.letters[pos + 1:])
    solved = (u.inverse() * v.inverse()) ** r.letters[pos][1]
    images = {g: solved if g == gen else Word.generator(g)
              for g in range(P.num_generators)}
    rels = []
    for k, w in enumerate(P.relators):
        if k != i:
            w = w.substituted(images)
            rels.append(Word([(g if g < gen else g - 1, s) for g, s in w.letters]))
    gens = tuple(n for k, n in enumerate(P.generators) if k != gen)
    return Presentation(gens, tuple(rels))


def _reference_simplify(P):
    """simplify as it was written on Words, one Presentation per pass."""
    while True:
        changed = False
        new_relators = []
        for r in P.relators:
            core, _ = r.cyclically_reduced()
            if core != r:
                changed = True
            new_relators.append(core)
        seen = set()
        kept = []
        for r in new_relators:
            if r.is_identity():
                changed = True
                continue
            key = _reference_cyclic_form_key(r)
            if key in seen:
                changed = True
                continue
            seen.add(key)
            kept.append(r)
        P = Presentation(P.generators, tuple(kept))
        for gen in range(P.num_generators):
            if any(r.generator_count(gen) == 1 for r in P.relators):
                P = _reference_remove_generator(P, gen)
                changed = True
                break
        if not changed:
            return P


def _random_presentation(rng):
    d = rng.randint(1, 3)
    rels = []
    for _ in range(rng.randint(0, 4)):
        if rels and rng.random() < 0.3:  # a rotated, maybe inverted, copy
            core, _ = rng.choice(rels).cyclically_reduced()
            k = rng.randrange(len(core)) if core else 0
            w = Word(core.letters[k:] + core.letters[:k])
            rels.append(w.inverse() if rng.random() < 0.5 else w)
        else:
            rels.append(Word([(rng.randrange(d), rng.choice((1, -1)))
                              for _ in range(rng.randint(0, 8))]))
    return Presentation(tuple("abc"[:d]), tuple(rels))


def test_simplify_matches_reference_on_random_presentations():
    rng = random.Random(5)
    cases = [_random_presentation(rng) for _ in range(300)]
    for text in ("gens: a b\nrels: a^2 b^3 (a b)^5\n",
                 "gens: a b\nrels: (a^2 b^-2) (b^-1 a b a)\n"):
        for _ in range(40):
            cases.append(random_verified_moves(parse_presentation(text), rng, 6)[0])
    eliminated = 0
    for P in cases:
        expected = _reference_simplify(P)
        assert simplify(P) == expected, serialize_presentation(P)
        eliminated += expected.num_generators < P.num_generators
    assert eliminated > 50  # the generator elimination path is exercised


def test_neighbour_matches_simplify_of_the_raw_neighbour():
    # `_neighbour(gens, rels, i, r)`, with a plain neighbour built from its
    # core, against `_simplify` of rels with relator i replaced by r, on
    # seeded `_simplify` nodes: every r = r_i r_j^s the search makes, and
    # for each i the empty word (no product of two inequivalent relators is
    # empty), a conjugate of a rotation of each other relator or of its
    # inverse, and a random word. A neighbour is plain exactly when its
    # relator is kept as it is
    rng = random.Random(24)
    kinds = Counter()
    for _ in range(1500):
        P = _random_presentation(rng)
        flip = flip_table(2 * P.num_generators)
        memo = {}
        gens, rels = _simplify(P.generators, tuple(r.text for r in P.relators),
                               memo, flip)
        index = _length_index(rels, memo)
        for i, w in enumerate(rels):
            words = [product(w, memo[w][1], f) for j, k in enumerate(rels)
                     if j != i for f in (k, memo[k][1])]
            words.append("")
            for k in rels[:i] + rels[i + 1:]:
                k = rng.choice((k, memo[k][1]))
                t = rng.randrange(len(k))
                x = encode([(rng.randrange(len(gens)), rng.choice((1, -1)))])
                words.append(free_reduce(x + k[t:] + k[:t] + inverse(x, flip), flip))
            words.append(free_reduce(encode(_random_letters(
                rng, range(len(gens)), rng.randint(1, 8))), flip))
            for r in words:
                raw = rels[:i] + (r,) + rels[i + 1:]
                core, node = _neighbour(gens, rels, i, r, memo, flip, index)
                if node is None:
                    node = gens, rels[:i] + (core,) + rels[i + 1:]
                assert node == _simplify(gens, raw, {}, flip), (gens, raw)
                plain = core is not None
                core = cyclic_core(r, flip)
                same = [k for k, v in enumerate(rels) if k != i and _is_duplicate(
                    core, inverse(core, flip), [v + v])]
                if not core:
                    kind = "empty"
                elif same:
                    kind = "earlier" if same[0] < i else "later"
                elif _single_generators(core, flip):
                    kind = "eliminates"
                else:
                    kind = "kept"
                kinds[kind] += 1
                # only a kept relator leaves the neighbour plain
                assert plain == (kind == "kept"), (gens, raw)
    assert min(kinds[k] for k in ("empty", "earlier", "later", "eliminates",
                                  "kept")) > 100, kinds


# generator pools of the random words, with code '\n' (generator 5), codes
# past one byte (generators 128 and up) and surrogate code points
# (generators 27648 to 28671)
_POOLS = ((0,), (0, 1), (0, 1, 2), (4, 5, 6), (5,), (0, 5, 130), (128, 129, 300),
          (2, 27700, 28000))
_FLIP = flip_table(2 * 28001)


def _random_letters(rng, pool, length):
    return [(rng.choice(pool), rng.choice((1, -1))) for _ in range(length)]


def test_encoded_helpers_match_words():
    # words.py's str functions and Word's methods against the letter-tuple
    # algebra of exact_oracles
    rng = random.Random(1980)
    checked = periodic = duplicates = substituted = 0
    for _ in range(3000):
        pool = rng.choice(_POOLS)
        raw = _random_letters(rng, pool, rng.randint(0, 9))
        if raw and rng.random() < 0.3:
            raw *= rng.randint(2, 5)
            periodic += 1
        letters = letters_reduce(raw)
        w = Word(raw)
        text = w.text
        assert decode(encode(raw)) == tuple(raw)
        assert decode(text) == w.letters == letters and len(text) == len(w)
        assert free_reduce(encode(raw), _FLIP) == text
        inv = inverse(text, _FLIP)
        assert decode(inv) == w.inverse().letters == letters_inverse(letters)
        # a right factor that often cancels part of w at the seam
        v = letters_reduce(list(letters_inverse(letters)[:rng.randint(0, len(w))])
                           + _random_letters(rng, pool, rng.randint(0, 4)))
        expected = letters_product(letters, v)
        assert decode(product(text, inv, encode(v))) == expected
        assert (w * Word(v)).letters == expected
        assert (w < Word(v)) == (letters_order_key(letters) < letters_order_key(v))
        core = cyclic_core(text, _FLIP)
        ref_core, ref_conjugator = letters_cyclic_core(letters)
        assert decode(core) == ref_core
        assert [x.letters for x in w.cyclically_reduced()] == [ref_core, ref_conjugator]
        counts = Counter(g for g, _ in letters)
        assert _single_generators(text, _FLIP) == {g for g in pool if counts[g] == 1}
        for g in pool:
            assert w.generator_count(g) == counts[g]
            assert w.exponent_sum(g) == sum(s for h, s in letters if h == g)
        if letters:
            g = rng.choice(letters)[0]
            images = {h: ((h, 1),) for h in pool}
            images[g] = letters_reduce(_random_letters(rng, pool, rng.randint(0, 5)))
            expected = letters_substitute(letters, images)
            table = {2 * g: encode(images[g]),
                     2 * g + 1: encode(letters_inverse(images[g]))}
            assert decode(substitute(text, table, _FLIP)) == expected
            assert w.substituted({h: Word(x) for h, x in images.items()}).letters == expected
            substituted += 1
        if not core:
            continue
        r = Word._reduced(core)
        # a rotation of r or of its inverse, or another word of its length
        other = rng.choice((r, r.inverse())).letters
        k = rng.randrange(len(other))
        other = other[k:] + other[:k]
        if rng.random() < 0.5:
            other = _random_letters(rng, pool, len(other))
        o = Word(other).cyclically_reduced()[0]
        if not o:
            continue
        same = _reference_cyclic_form_key(r) == _reference_cyclic_form_key(o)
        assert _is_duplicate(core, inverse(core, _FLIP), [o.text + o.text]) == same
        checked += 1
        duplicates += same
    assert checked > 1500 and periodic > 500 and substituted > 2000
    assert 500 < duplicates < checked - 500


def test_eliminate_generator_renumbers_past_code_ten():
    # eliminating b moves f from codes 10, 11 to 8, 9 and g onto 10, 11
    gens = tuple("abcdefg")
    P = Presentation(gens, (Word([(1, 1), (5, -1), (6, 1)]),
                            Word([(1, -1), (6, 1), (5, 1), (5, 1)]),
                            Word([(6, 1), (6, 1), (0, 1)])))
    expected = parse_presentation(
        "gens: a c d e f g\nrels: (f^-1 g^2 f^2) (g^2 a)\n")
    assert apply_move(P, RemoveGenerator(1)) == expected
    node = _eliminate_generator(gens, tuple(r.text for r in P.relators),
                                1, 0, flip_table(14))
    assert node[1][1] == "\n\n\x00" and _presentation(*node) == expected


def test_eliminate_generator_renumbers_past_code_2_16():
    # the same elimination with every index raised by 32767: b is generator
    # 32768, so the flip table is looked up per code, and it must flip the
    # renumbered codes of c..g, which no relator held before
    shift = 32767
    gens = tuple(f"x{k}" for k in range(shift)) + tuple("abcdefg")
    small = (((1, 1), (5, -1), (6, 1)), ((1, -1), (6, 1), (5, 1), (5, 1)),
             ((6, 1), (6, 1), (0, 1)))
    P = Presentation(gens, tuple(Word([(g + shift, s) for g, s in r])
                                 for r in small))
    expected = parse_presentation(
        "gens: a c d e f g\nrels: (f^-1 g^2 f^2) (g^2 a)\n")
    got = apply_move(P, RemoveGenerator(1 + shift))
    assert got.generators == gens[:shift + 1] + gens[shift + 2:]
    assert [r.letters for r in got.relators] == [
        tuple((g + shift, s) for g, s in r.letters) for r in expected.relators]


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_analyze_long_relator_pin(tmp_path, monkeypatch):
    # a relator at the parse cap; Booth's least rotation on letter tuples
    # made this take about 9 s
    monkeypatch.chdir(tmp_path)
    Path("long.fp").write_text("gens: a b\nrels: a^2 b^-100000 (a b)^3\n")
    start = time.perf_counter()
    code, out = _stdout(["analyze", "long.fp", "--budget", "5", "--max-cosets", "200"])
    assert time.perf_counter() - start < 5
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2a1407bb045d31e5f2bbe14f6cb46a4444f0c95605c8c4ecdbecff58cb993710")


def _corpus_variant(P, rng):
    """`perfbench/workloads.corpus_variant`: each relator cyclically rotated
    and inverted at random, and the relator order shuffled."""
    rels = []
    for r in P.relators:
        core, _ = r.cyclically_reduced()
        if core:
            k = rng.randrange(len(core))
            core = Word(core.letters[k:] + core.letters[:k])
            if rng.random() < 0.5:
                core = core.inverse()
        rels.append(core)
    rng.shuffle(rels)
    return serialize_presentation(Presentation(P.generators, rels))


@pytest.mark.slow
def test_analyze_identity_sweep(tmp_path, monkeypatch):
    # `analyze --format json` on the corpus and on seeded variants of each,
    # with every search's best text, deficiency, visited and exhausted;
    # recorded with the search on letter tuples
    monkeypatch.chdir(tmp_path)
    searches = []
    search = invariants.deficiency_search

    def recording(P, budget):
        res = search(P, budget)
        searches.append(f"{serialize_presentation(res.best)}{res.deficiency} "
                        f"{res.visited} {res.exhausted}\n")
        return res

    monkeypatch.setattr(invariants, "deficiency_search", recording)
    runs = [(seed, budget) for budget in (5, 600) for seed in range(10)]
    runs += [(seed, 2000) for seed in range(3)]
    digest = hashlib.sha256()
    for path in sorted(CORPUS.glob("*.fp")):
        text = path.read_text(encoding="utf-8")
        Path(path.name).write_text(text, encoding="utf-8")
        files = [(path.name, budget) for budget in (5, 600, 2000)]
        P = parse_presentation(text)
        for seed, budget in runs:
            name = f"{path.stem}.{seed}.fp"
            Path(name).write_text(_corpus_variant(
                P, random.Random(f"{path.stem}/{seed}")), encoding="utf-8")
            files.append((name, budget))
        for name, budget in files:
            code, out = _stdout(["analyze", name, "--format", "json",
                                 "--budget", str(budget)])
            assert code == 0
            digest.update(out.encode())
    assert len(searches) == 234
    digest.update("".join(searches).encode())
    assert digest.hexdigest() == (
        "58484356d48d168567daa4321c1d45c2b56fde2e2b0f2677f08941c9298d61ba")


@pytest.mark.slow
def test_search_identity_sweep():
    # deficiency_search and simplify on the corpus at budget 600, the
    # corpus-report variants (`perfbench/workloads.setup_corpus_report`) of
    # seeds 0-59 at budget 600 and of seeds 0-9 at budgets 5 and 2000, and
    # prefix-names: one sha256 over each best text, deficiency, visited,
    # exhausted and simplify(P); recorded with the search that formatted
    # every chunk of a tied node and simplified every relator of a neighbour
    corpus = [parse_presentation(path.read_text(encoding="utf-8"))
              for path in sorted(CORPUS.glob("*.fp"))]
    inputs = [(P, 600) for P in corpus]
    for budget, seeds in ((600, 60), (5, 10), (2000, 10)):
        for seed in range(seeds):
            rng = random.Random(f"corpus-report/{seed}")
            inputs += [(parse_presentation(_corpus_variant(P, rng)), budget)
                       for P in corpus]
    inputs.append((parse_presentation(SEARCH_VARIANTS["prefix-names"]), 600))
    digest = hashlib.sha256()
    for P, budget in inputs:
        res = deficiency_search(P, budget)
        digest.update(f"{serialize_presentation(res.best)}{res.deficiency} "
                      f"{res.visited} {res.exhausted}\n"
                      f"{serialize_presentation(simplify(P))}".encode())
    assert len(inputs) == 730
    assert digest.hexdigest() == (
        "5e6793082d5ad4508aa72a3ab33b782c8aea98520bebb2d9376e14ab70290930")


def test_deficiency_search_long_relator_is_linear():
    # the all-rotations key took minutes on this relator
    P = parse_presentation("gens: x y\nrels: (x^20000 y) y^3\n")
    start = time.perf_counter()
    res = deficiency_search(P, budget=1)
    assert time.perf_counter() - start < 5
    assert res.deficiency == 0


# (name, budget, first 16 hex digits of sha256(serialize_presentation(best)),
#  deficiency, visited, exhausted). The first sixteen rows were recorded with
# the search as it was before relators became letter tuples, the rest with the
# search as it was before the tie-break text was built from relator chunks.
# The two corpus variants are `perfbench/workloads.corpus_variant` of q8 and
# a5 with random.Random(3). cycle-7 eliminates generators below f and g
# throughout, so their codes cross chr(10) and are renumbered; it was
# recorded with the search on letter tuples. prefix-names, whose generator a
# is a prefix of ab, ties on more than 10 000 nodes; it was recorded with the
# tie-break on the whole serialized text. The three tie rows are corpus-report
# variants of a5 and q8, recorded with the search as it was before a neighbour
# met once `seen` is full was settled from its node's first difference with
# the best.
SEARCH_VARIANTS = {
    "a5-rotated": "gens: a b\nrels: (b a)^5 b^-3 a^2\n",
    "a5-swapped": "gens: b a\nrels: b^3 a^2 (a b)^5\n",
    "a5-extra-gen": "gens: a b c\nrels: (c a^-1 b) a^2 b^3 (a b)^5\n",
    "s3-rotated": "gens: a b\nrels: (b a)^3 b^-2 a^-2\n",
    "s3-inverted": "gens: a b\nrels: (a b)^-3 b^2 a^2\n",
    "q8-rotated": "gens: a b\nrels: (a b a b^-1) (b^-2 a^2)\n",
    "q8-inverted": "gens: a b\nrels: (a^-1 b^-1 a^-1 b) (b^2 a^-2)\n",
    "q8-variant-3": "gens: a b\nrels: (a b^-2 a) (b a^-1 b^-1 a^-1)\n",
    "a5-variant-3": "gens: a b\nrels: b^-3 a^2 "
                    "(a^-1 b^-1 a^-1 b^-1 a^-1 b^-1 a^-1 b^-1 a^-1 b^-1)\n",
    "cycle-7": "gens: a b c d e f g\nrels: (a^2 b^3) (b^-2 c^3) (c^-2 d^3) "
               "(d^-2 e^3) (e^-2 f^3) (f^-2 g^3) (g^-2 a^3)\n",
    "prefix-names": "gens: a ab b\nrels: a^2 ab^2 b^3 (a ab b)^2\n",
    "a5-tie-1": "gens: a b\nrels: b^-3 (b a b a b a b a b a) a^-2\n",
    "q8-tie": "gens: a b\nrels: (a^-2 b^2) (a b^-1 a b)\n",
    "a5-tie-2": "gens: a b\nrels: b^3 a^2 "
                "(a^-1 b^-1 a^-1 b^-1 a^-1 b^-1 a^-1 b^-1 a^-1 b^-1)\n",
}
SEARCH_GOLDEN = [
    ("a5", 600, "8fc511c3bd2f2b95", -1, 600, True),
    ("f2", 600, "a80ea14a172db730", 2, 1, False),
    ("q8", 600, "3df101da8104cd72", 0, 600, True),
    ("s3", 600, "e0b69a7495e605d5", -1, 600, True),
    ("trefoil", 600, "c8058c5626ae6788", 1, 1, False),
    ("trivial", 600, "351065a720b4d4e3", 0, 1, False),
    ("z", 600, "374147ceddca3242", 1, 1, False),
    ("z2", 600, "465e483d6c71e29e", 0, 1, False),
    ("z5", 600, "b34746105c198699", 0, 1, False),
    ("a5-rotated", 600, "e7bed80fc0136514", -1, 600, True),
    ("a5-swapped", 600, "046d7af991ab7462", -1, 600, True),
    ("a5-extra-gen", 600, "49f8f3d179eaf6d1", -1, 600, True),
    ("s3-rotated", 600, "6eaaa2a908e089a6", -1, 600, True),
    ("s3-inverted", 600, "bc31a393bc836883", -1, 600, True),
    ("q8-rotated", 600, "01f43672c6308e98", 0, 600, True),
    ("q8-inverted", 600, "aee44a2ac7c8e7c5", 0, 600, True),
    # searches whose best changes often
    ("s3", 2000, "b0dec05f1e7dabd4", 0, 2000, True),
    ("a5-extra-gen", 1000, "be7d5a3ab00adc69", -1, 1000, True),
    ("q8-variant-3", 600, "2ef56da4923a8958", 0, 600, True),
    ("a5-variant-3", 600, "02ed67820aaf97fb", -1, 600, True),
    ("cycle-7", 300, "c1ea25ad3b68aa0c", 0, 300, True),
    ("prefix-names", 600, "488715a46fb28f64", -1, 600, True),
    # searches in which a neighbour whose new chunk equals the best's at
    # the node's first difference with the best still precedes the best
    ("a5-tie-1", 600, "eb1ce3932b2cb90f", -1, 600, True),
    ("q8-tie", 600, "2889ef364a7bbdd1", 0, 600, True),
    ("a5-tie-2", 600, "da9b73c62d9fbaa1", -1, 600, True),
]


@pytest.mark.parametrize(
    "name, budget, digest, defic, visited, exhausted", SEARCH_GOLDEN,
    ids=[name if budget == 600 else f"{name}-{budget}"
         for name, budget, *_ in SEARCH_GOLDEN])
def test_deficiency_search_golden(name, budget, digest, defic, visited, exhausted):
    text = SEARCH_VARIANTS.get(name)
    if text is None:
        text = (CORPUS / f"{name}.fp").read_text(encoding="utf-8")
    res = deficiency_search(parse_presentation(text), budget=budget)
    sha = hashlib.sha256(serialize_presentation(res.best).encode()).hexdigest()
    assert (sha[:16], res.deficiency, res.visited, res.exhausted) == (
        digest, defic, visited, exhausted)
    assert res.deficiency == deficiency(res.best)


def _key_test_nodes():
    """Seeded `_simplify` nodes, half with three-letter names, and written
    nodes whose names, generator tuples, chunks or relator tuples are
    prefixes of others'."""
    rng = random.Random(12)
    nodes = []
    eliminated = 0
    for _ in range(300):
        P = _random_presentation(rng)
        if rng.random() < 0.5:  # names of three letters
            P = Presentation(("gen", "x_2", "Yz9")[:P.num_generators], P.relators)
        node = _simplify(P.generators, tuple(r.text for r in P.relators),
                         {}, flip_table(2 * P.num_generators))
        eliminated += len(node[0]) < P.num_generators
        nodes.append(node)
    x3, y_2 = ((0, 1),) * 3, ((1, -1),) * 2
    f3_g = ((5, 1),) * 3 + ((6, -1),) * 2 + ((5, -1),)
    wide = ((128, 1), (300, -1), (300, -1), (5, 1), (0, -1))
    cases = [
        (("a", "b"), ()),  # no relators
        ((), ()),
        (("abc",), (((0, 1),), ((0, -1),), x3, ((0, -1),) * 7)),  # pure powers
        (("a", "b"), (y_2, x3 + y_2)),
        (("a", "c"), (y_2, x3 + y_2)),  # the same letters under another name
        (("xyz", "b_1"), (x3 + ((1, 1),) + ((0, -1),) * 2, ((1, 1),))),
        (tuple("abcdefg"), (f3_g, ((5, 1),) * 10)),  # code 10 is f
        (tuple(f"g{i}" for i in range(301)), (wide, ((129, -1),) * 2)),
    ]
    # names that are prefixes of others, generator tuples that are prefixes
    # of others, and chunks a, a^2, a^-1, a^-12, a^12, (a b), (a^2 b) that
    # are prefixes of others or of one relator tuple; the leads a, a^2,
    # a^-1, a^12, (a and (x are prefixes of other chunks too
    for gens in (("a",), ("ab",), ("a_1",), ("a", "b"), ("ab", "b"),
                 ("a_1", "b"), ("a", "ab"), ("a", "ab", "b"), ("a", "b", "ab"),
                 ("x", "x_2")):
        cases.append((gens, ()))
        for word in (((0, 1),), ((0, 1),) * 2, ((0, -1),), ((0, -1),) * 12,
                     ((0, 1),) * 12, ((0, 1), (1, 1)), ((0, 1),) * 2 + ((1, 1),),
                     ((1, 1),), ((1, 1), (0, 1))):
            if max(g for g, _ in word) < len(gens):
                cases.append((gens, (word,)))
                cases.append((gens, (word, ((0, 1),))))
                cases.append((gens, (word, ((0, 1),) * 2)))
    for gens, rels in cases:
        nodes.append((gens, tuple(encode(r) for r in rels)))
    assert eliminated > 50
    return nodes


def test_node_key_orders_as_serialized_text():
    chunks = {}
    keyed = [(_node_key(gens, rels, chunks),
              serialize_presentation(_presentation(gens, rels)))
             for gens, rels in _key_test_nodes()]
    for key, text in keyed:
        for other_key, other_text in keyed:
            assert (key < other_key) == (text < other_text), (text, other_text)
            assert (key == other_key) == (text == other_text), (text, other_text)


def test_precedes_agrees_with_node_key():
    # the lazy tie comparison against the whole-key one, on every pair,
    # through one warm cache and through a fresh one. From a fresh cache it
    # formats the chunks before the first that differs, and that one too
    # unless its lead (`_chunk_lead`) settles the comparison; none at all
    # when the names differ
    nodes = _key_test_nodes()
    chunks = {}
    keys = [_node_key(*node, chunks) for node in nodes]
    settled = unsettled = 0
    for node, key in zip(nodes, keys):
        for other in keys:
            assert _precedes(*node, other, chunks) == (key < other), (node, other)
            fresh = {}
            assert _precedes(*node, other, fresh) == (key < other), (node, other)
            if key[0] != other[0]:
                assert fresh == {}
                continue
            n = min(len(key[1]), len(other[1]))
            m = next((m + 1 for m in range(n) if key[1][m] != other[1][m]), n)
            formatted = {(node[0], r) for r in node[1][:m]}
            if m and key[1][m - 1] != other[1][m - 1]:
                chunk = key[1][m - 1]
                lead = chunk.split(" ")[0] if chunk[0] == "(" else chunk
                if other[1][m - 1].startswith(lead):
                    unsettled += 1
                else:
                    settled += 1
                    formatted = {(node[0], r) for r in node[1][:m - 1]}
            assert set(fresh) == formatted, (node, other)
    # both branches of the lead test are taken often
    assert settled > 5000 and unsettled > 500


def test_plain_precedes_agrees_with_node_key():
    # the search's rule for a plain neighbour once `seen` is full, from the
    # node's first difference p with the best, against the whole-key order
    # (higher deficiency first, then `_node_key`), through one warm cache
    # and through a fresh one. The nodes are `_key_test_nodes`; the bests
    # are the node itself, nodes made from it by replacing one or two of
    # its relators, and other nodes, each kept only if the node does not
    # precede it, as in the search; the neighbours replace one relator by a
    # node relator, by a seeded word or by a word that some best holds
    rng = random.Random(36)
    nodes = [node for node in _key_test_nodes() if node[1]]
    chunks = {}
    cases = Counter()
    for gens, rels in nodes:
        flip = flip_table(2 * len(gens))
        n = len(rels)
        key = _node_key(gens, rels, chunks)
        words = list(rels)
        while len(words) < n + 3:
            w = cyclic_core(free_reduce(encode(_random_letters(
                rng, range(len(gens)), rng.randint(1, 6))), flip), flip)
            if w:
                words.append(w)
        bests = [(gens, rels)] + rng.sample(nodes, 3)
        for _ in range(6):
            m, m2 = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
            new = list(rels)
            new[m], new[m2] = rng.choice(words), rng.choice(words)
            bests.append((gens, tuple(new)))
        words += [r for _, best_rels in bests[4:] for r in best_rels]
        for best in bests:
            best_key = _node_key(*best, chunks)
            d_best = len(best[0]) - len(best[1])
            if n - len(gens) > -d_best or (
                    n - len(gens) == -d_best and key < best_key):
                continue  # the node precedes this best
            p = _first_difference(gens, rels, best_key, chunks)
            assert p == _first_difference(gens, rels, best_key, {})
            for i in range(n):
                for r in words:
                    nb = rels[:i] + (r,) + rels[i + 1:]
                    expected = len(gens) - n == d_best and _node_key(
                        gens, nb, chunks) < best_key
                    got = _plain_precedes(gens, rels, i, r, p, best_key, chunks)
                    assert got == expected, (gens, rels, i, r, best)
                    fresh = {}
                    assert _plain_precedes(gens, rels, i, r, _first_difference(
                        gens, rels, best_key, fresh), best_key, fresh) == expected
                    if p < 0:
                        kind = "names" if gens != best[0] else "count"
                    elif p < i:
                        kind = "before"
                    elif p == i and _chunk(gens, r, chunks) == best_key[1][i]:
                        kind = "tie, wins" if expected else "tie, loses"
                    else:
                        kind = "at" if p == i else "after" if p < n else "equal"
                    cases[kind] += 1
    assert min(cases[kind] for kind in (
        "names", "count", "before", "tie, wins", "tie, loses", "at", "after",
        "equal")) > 100, cases


def test_deficiency_search_builds_one_presentation(monkeypatch):
    built, serialized, ties, formatted = [], [], [], []
    post_init = Presentation.__post_init__
    serialize = presentations.serialize_presentation
    precedes = tietze._precedes
    plain_precedes = tietze._plain_precedes
    relator_chunk = tietze._relator_chunk

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    def counting_serialize(P):
        serialized.append(P)
        return serialize(P)

    def counting_precedes(*args):
        ties.append(args)
        return precedes(*args)

    def counting_plain_precedes(gens, rels, i, r, p, key, chunks):
        if p >= 0:  # the node has the best's names and deficiency
            ties.append((gens, rels, i, r))
        return plain_precedes(gens, rels, i, r, p, key, chunks)

    def counting_relator_chunk(*args):
        formatted.append(args)
        return relator_chunk(*args)

    monkeypatch.setattr(Presentation, "__post_init__", counting_post_init)
    monkeypatch.setattr(presentations, "serialize_presentation", counting_serialize)
    monkeypatch.setattr(tietze, "serialize_presentation", counting_serialize,
                        raising=False)
    monkeypatch.setattr(tietze, "_precedes", counting_precedes)
    monkeypatch.setattr(tietze, "_plain_precedes", counting_plain_precedes)
    monkeypatch.setattr(tietze, "_relator_chunk", counting_relator_chunk)
    res = deficiency_search(A5, budget=600)
    assert res.visited == 600
    # the tie-break ran on many nodes: 609 `_precedes` calls, and 6459 ties
    # met once `seen` is full and settled by the first-difference rule
    assert len(ties) > 5000
    # formatting every chunk of each tied node took 1653 chunks, and
    # formatting each tied chunk up to the first that differs 627
    assert len(formatted) < 220
    assert built == [res.best]
    assert serialized == []


# --- the bounded search against the search it replaced -----------------------

def _reference_deficiency_search(P, budget, max_letters=None):
    """deficiency_search as it was before `seen` and the queue were bounded
    by the budget: every new neighbour is stored, and the budget is checked
    before each pop. Written on Words through `_reference_simplify`; the
    best is the least (-deficiency, serialized text) over every node
    reached. With `max_letters`, a neighbour of more relator letters is
    dropped, which makes the graph finite."""
    start = _reference_simplify(P)
    seen = {start}
    queue = deque([start])
    reached = [start]
    visited = 0
    exhausted = False
    while queue:
        if visited >= budget:
            exhausted = True
            break
        node = queue.popleft()
        visited += 1
        rels = node.relators
        for i, w in enumerate(rels):
            for j, v in enumerate(rels):
                if i == j:
                    continue
                for f in (v, v.inverse()):
                    nb = _reference_simplify(Presentation(
                        node.generators, rels[:i] + (w * f,) + rels[i + 1:]))
                    if max_letters is not None and sum(map(len, nb.relators)) > max_letters:
                        continue
                    if nb not in seen:
                        seen.add(nb)
                        queue.append(nb)
                        reached.append(nb)
    best = min(reached, key=lambda Q: (-deficiency(Q), serialize_presentation(Q)))
    return serialize_presentation(best), deficiency(best), visited, exhausted


def _search_row(P, budget):
    res = deficiency_search(P, budget)
    return serialize_presentation(res.best), res.deficiency, res.visited, res.exhausted


def test_bounded_search_matches_reference():
    # seeded presentations of two to four relators and corpus variants, at
    # every budget from 1 to 20 and at 30, 40 and 50, and a one-node search
    rng = random.Random(31)
    cases = []
    while len(cases) < 4:
        P = _random_presentation(rng)
        if simplify(P).num_relators >= 2:
            cases.append(P)
    for name in ("q8", "s3", "a5"):
        P = parse_presentation((CORPUS / f"{name}.fp").read_text(encoding="utf-8"))
        cases.append(parse_presentation(_corpus_variant(P, random.Random(name))))
    for P in cases:
        for budget in [*range(1, 21), 30, 40, 50]:
            assert _search_row(P, budget) == _reference_deficiency_search(P, budget), (
                serialize_presentation(P), budget)
    # simplify leaves one relator, so no move applies
    assert _search_row(TREFOIL, 1) == _reference_deficiency_search(TREFOIL, 1)
    assert _search_row(TREFOIL, 1)[2:] == (1, False)


@pytest.mark.parametrize("letters, nodes", [(11, 3), (12, 32)])
def test_bounded_search_exhausted_at_the_budget_edge(monkeypatch, letters, nodes):
    # a neighbour of more relator letters than `letters` is mapped back to
    # its parent, which the search has seen: the graph is finite, of `nodes`
    # nodes. At that budget every node is popped and the search is not
    # exhausted; one below, the last node is met once `seen` is full. The
    # hook is `_neighbour`, which classifies every neighbour, also the
    # plain ones the search settles without building once `seen` is full;
    # the parent is the plain neighbour that keeps relator i
    neighbour = tietze._neighbour

    def within(gens, rels, i, *args):
        r, node = neighbour(gens, rels, i, *args)
        new = rels[:i] + (r,) + rels[i + 1:] if node is None else node[1]
        return (r, node) if sum(map(len, new)) <= letters else (rels[i], None)

    monkeypatch.setattr(tietze, "_neighbour", within)
    P = parse_presentation("gens: a b\nrels: a^2 b^3 (a b)^3\n")
    assert _reference_deficiency_search(P, 10 ** 6, letters)[2:] == (nodes, False)
    for budget, exhausted in ((nodes, False), (nodes - 1, True), (nodes + 1, False)):
        row = _search_row(P, budget)
        assert row == _reference_deficiency_search(P, budget, letters)
        assert row[2:] == (min(budget, nodes), exhausted)


def _two_syllable_text(n, m, seed=0):
    """A seeded .fp of n generators x0, x1, ... and m relators (xi^e xj^f),
    i != j, exponents in +-1..+-3."""
    rng = random.Random(seed)
    rels = []
    for _ in range(m):
        i, j = rng.sample(range(n), 2)
        e, f = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2))
        rels.append(f"(x{i}^{e} x{j}^{f})")
    gens = " ".join(f"x{k}" for k in range(n))
    return f"gens: {gens}\nrels: {' '.join(rels)}\n"


def test_deficiency_search_memory_is_bounded_by_the_budget():
    # 50 relators build 4900 neighbours per node; storing every new one
    # peaked at 63 MB (tracemalloc) on this search
    P = parse_presentation(_two_syllable_text(100, 50))
    tracemalloc.start()
    try:
        res = deficiency_search(P, budget=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20, peak
    row = (f"{serialize_presentation(res.best)}{res.deficiency} {res.visited} "
           f"{res.exhausted}")
    assert (res.deficiency, res.visited, res.exhausted) == (50, 60, True)
    assert hashlib.sha256(row.encode()).hexdigest() == (
        "8b607444c8bc7b37ecdae516bb36ad227211aad2ecd1cb35984a0e61e4f5204b")


# The child reports its peak RSS as VmHWM, the high-water mark of its own
# address space: ru_maxrss would also count the RSS of the process it was
# forked from, which exec carries over on Linux.
_CEILING_CHILD = """
import re, resource, sys
limit = {limit}
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
from d2kit.cli import main
code = main(["analyze", {name!r}, "--format", "json"])
sys.stdout.flush()
with open("/proc/self/status") as status:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.slow
@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_analyze_many_relators_memory_ceiling(tmp_path):
    # 150 relators: storing every new neighbour of the search peaked at
    # 710 MB; the child caps its address space at 512 MB so a regression
    # fails fast, and its peak RSS must stay under 100 MB
    name = "r300x150.fp"
    (tmp_path / name).write_text(_two_syllable_text(300, 150), encoding="utf-8")
    src = str(Path(tietze.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-c", _CEILING_CHILD.format(limit=512 * 2 ** 20, name=name)],
        capture_output=True, cwd=tmp_path, env=env, timeout=600)
    stderr = res.stderr.decode()
    assert res.returncode == 0 and "Traceback" not in stderr, stderr
    peak_kb = int(stderr.split()[-1])
    assert peak_kb < 100 * 1024, peak_kb
    assert hashlib.sha256(res.stdout).hexdigest() == (
        "3dccd2aef5d400bd72bcd5e6a4005353636696ccc8af59ccc895f083278f1a6d")
