"""Freely reduced words over an indexed generating set.

A letter is a pair (generator index, sign) with sign +1 or -1. Words are
immutable and always stored freely reduced; the empty word is the identity.

A letter's code is 2g for (g, +1) and 2g + 1 for (g, -1): a letter and its
inverse differ in the last bit, and codes order letters as
(0, +1) < (0, -1) < (1, +1) < ... An *encoded* word is a str with one
character chr(code) per letter.
"""

from __future__ import annotations


def letter_code(g, s):
    """The code of letter (g, s)."""
    return 2 * g + (s < 0)


def encode(letters):
    """A letter sequence as an encoded word."""
    return "".join([chr(letter_code(g, s)) for g, s in letters])


def decode(text):
    """The letter tuple of an encoded word."""
    return tuple((c >> 1, -1 if c & 1 else 1) for c in map(ord, text))


def reduce_letters(letters):
    """Freely reduce a letter sequence (stack cancellation)."""
    out = []
    for g, s in letters:
        if s not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {s!r}")
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((int(g), s))
    return tuple(out)


class Word:
    __slots__ = ("letters",)

    def __init__(self, letters=()):
        object.__setattr__(self, "letters", reduce_letters(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def identity(cls):
        return _IDENTITY

    @classmethod
    def generator(cls, index, sign=1):
        return cls(((index, sign),))

    @classmethod
    def _reduced(cls, letters):
        """Wrap a letter tuple already known to be freely reduced, unchecked."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def is_identity(self):
        return not self.letters

    def __mul__(self, other):
        # both factors are reduced, so cancellation happens only at the seam
        a, b = self.letters, other.letters
        t, n = 0, min(len(a), len(b))
        while t < n and a[-1 - t] == (b[t][0], -b[t][1]):
            t += 1
        return Word._reduced(a[:len(a) - t] + b[t:])

    def inverse(self):
        return Word._reduced(tuple((g, -s) for g, s in reversed(self.letters)))

    __invert__ = inverse

    def __pow__(self, n):
        if n == 0:
            return _IDENTITY
        base = self if n > 0 else self.inverse()
        return Word(base.letters * abs(n))

    def conjugated_by(self, u):
        """u * self * u^-1."""
        return u * self * u.inverse()

    def exponent_sum(self, gen):
        return sum(s for g, s in self.letters if g == gen)

    def generator_count(self, gen):
        return sum(1 for g, _ in self.letters if g == gen)

    def max_generator(self):
        return max(self.letters, default=(-1, 0))[0]

    def cyclically_reduced(self):
        """Return (core, conjugator) with self == conjugator * core * conjugator^-1
        and core cyclically reduced."""
        letters = self.letters
        a, b = 0, len(letters)
        while b - a >= 2 and letters[a] == (letters[b - 1][0], -letters[b - 1][1]):
            a += 1
            b -= 1
        return Word._reduced(letters[a:b]), Word._reduced(letters[:a])

    def substituted(self, images):
        """Replace generator i by the word images[i] (extended to inverses)."""
        out = []
        for g, s in self.letters:
            w = images[g]
            out.extend(w.letters if s > 0 else w.inverse().letters)
        return Word(out)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __lt__(self, other):
        # length-lexicographic; letter order (0,+1) < (0,-1) < (1,+1) < ...
        return self._lex_key() < other._lex_key()

    def _lex_key(self):
        return len(self.letters), tuple(letter_code(g, s) for g, s in self.letters)

    def __repr__(self):
        return f"Word({self.letters!r})"


_IDENTITY = Word._reduced(())


def reduce_word(w):
    """Freely reduce; accepts a Word or a raw letter sequence."""
    if isinstance(w, Word):
        return w
    return Word(w)


def words_in_length_lex_order(num_generators, max_length):
    """Yield all freely reduced words up to max_length, shortest first,
    ties broken lexicographically by (generator index, +1 before -1)."""
    alphabet = [(g, s) for g in range(num_generators) for s in (1, -1)]
    yield Word()
    level = [()]
    for _ in range(max_length):
        nxt = []
        for prefix in level:
            for g, s in alphabet:
                if prefix and prefix[-1] == (g, -s):
                    continue
                letters = prefix + ((g, s),)
                nxt.append(letters)
                yield Word(letters)
        level = nxt
