import random

import pytest

from d2kit.words import (
    Word,
    _small_flip_table,
    flip_for,
    reduce_word,
    words_in_length_lex_order,
)


def W(*letters):
    return Word(letters)


def test_reduce_examples():
    # x x^-1 y -> y
    assert W((0, 1), (0, -1), (1, 1)) == W((1, 1))
    # x^2 x^-3 -> x^-1
    assert W((0, 1), (0, 1), (0, -1), (0, -1), (0, -1)) == W((0, -1))
    assert Word() == Word(())
    assert Word().is_identity()


def test_reduce_idempotent_and_length_nonincreasing():
    rng = random.Random(2)
    for _ in range(300):
        letters = [(rng.randint(0, 2), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 12))]
        w = Word(letters)
        assert reduce_word(w) == w
        assert len(w) <= len(letters)
        assert Word(w.letters) == w


def test_generator_index_out_of_range_rejected():
    # negative indices, and indices whose letter codes pass U+10FFFF
    for g in (-1, -7, 0x110000 // 2, 10**9):
        with pytest.raises(ValueError, match="generator index must be in"):
            Word([(0, 1), (g, 1)])
        with pytest.raises(ValueError, match="generator index must be in"):
            Word.generator(g, -1)
    assert Word.generator(0x110000 // 2 - 1, -1).text == chr(0x10FFFF)


def test_large_codes_keep_no_flip_table():
    # from code 2^16 on, flip_for flips each code as it is looked up, so
    # only the power-of-two tables of smaller codes are cached
    _small_flip_table.cache_clear()
    for g in (32_768, 100_000, 0x110000 // 2 - 1):
        x, y = Word.generator(g), Word.generator(1)
        w = x * y * x.inverse()
        assert w.letters == ((g, 1), (1, 1), (g, -1))
        assert w.inverse().letters == ((g, 1), (1, -1), (g, -1))
        assert (w * w.inverse()).is_identity() and ((w ** -2) * w ** 2).is_identity()
        assert w.cyclically_reduced() == (y, x)
        assert w.substituted({g: y * y, 1: x}).letters == (
            (1, 1), (1, 1), (g, 1), (1, -1), (1, -1))
        flip = flip_for(w.text)
        assert not isinstance(flip, str)
        assert [flip[c] for c in (0, 3, 2 * g, 2 * g + 1)] == [
            chr(1), chr(2), chr(2 * g + 1), chr(2 * g)]
    # the one table kept is the 4-code table of generator 1
    assert _small_flip_table.cache_info().currsize == 1
    assert len(flip_for(chr(3))) == 4 and flip_for(chr(3)) is flip_for(chr(2))


def test_reduce_is_multiplicative():
    rng = random.Random(3)
    for _ in range(300):
        u = [(rng.randint(0, 2), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))]
        v = [(rng.randint(0, 2), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))]
        assert Word(list(u) + list(v)) == Word(u) * Word(v)


def test_inverse_and_power():
    w = W((0, 1), (1, -1))
    assert (w * w.inverse()).is_identity()
    assert w ** 0 == Word()
    assert w ** 3 == w * w * w
    assert w ** -2 == (w.inverse()) ** 2
    assert w.conjugated_by(W((2, 1))) == W((2, 1)) * w * W((2, -1))


def test_exponent_sum_and_counts():
    w = W((0, 1), (0, 1), (1, -1), (0, -1))
    assert w.exponent_sum(0) == 1
    assert w.exponent_sum(1) == -1
    assert w.generator_count(0) == 3


def test_cyclic_reduction():
    w = W((0, -1), (1, 1), (1, 1), (0, 1))
    core, conj = w.cyclically_reduced()
    assert core == W((1, 1), (1, 1))
    assert conj * core * conj.inverse() == w
    core, conj = W((1, 1)).cyclically_reduced()
    assert core == W((1, 1)) and conj.is_identity()


def test_substitution():
    # map x -> ab, y -> b^-1 inside x y
    images = {0: W((0, 1), (1, 1)), 1: W((1, -1))}
    w = W((0, 1), (1, 1))
    assert w.substituted(images) == W((0, 1))  # a b b^-1 = a


def test_length_lex_order():
    ws = list(words_in_length_lex_order(2, 2))
    # 1 + 4 + 4*3 words
    assert len(ws) == 17
    assert ws[0].is_identity()
    assert ws[1] == W((0, 1))
    assert ws[2] == W((0, -1))
    assert ws[3] == W((1, 1))
    assert ws[4] == W((1, -1))
    assert ws[5] == W((0, 1), (0, 1))
    assert all(len(w) <= 2 for w in ws)
    assert len(set(ws)) == len(ws)
    assert ws == sorted(ws)
