"""Freely reduced words over an indexed generating set.

A letter is a pair (generator index, sign) with sign +1 or -1. Its code is
2g for (g, +1) and 2g + 1 for (g, -1): a letter and its inverse differ in
the last bit, and codes order letters as (0, +1) < (0, -1) < (1, +1) < ...
A `Word` *is* its encoded text: an immutable, freely reduced str with one
character chr(code) per letter. The empty word is the identity.

The functions on encoded text below take a flip table (`flip_table`), the
`str.translate` table that maps each code in use to its inverse letter.
`Word`'s methods wrap them; the deficiency search calls them on raw text.
"""

from __future__ import annotations

from functools import lru_cache

# generator indices whose two letter codes are characters
_MAX_INDEX = 0x110000 // 2


def encode(letters):
    """A letter sequence as (unreduced) encoded text."""
    codes = []
    for g, s in letters:
        if s not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {s!r}")
        if not 0 <= g < _MAX_INDEX:
            raise ValueError(f"generator index must be in [0, {_MAX_INDEX}), got {g!r}")
        codes.append(2 * int(g) + (s < 0))
    return "".join(map(chr, codes))


def decode(text):
    """The letter tuple of an encoded word."""
    return tuple((c >> 1, -1 if c & 1 else 1) for c in map(ord, text))


def flip_table(n):
    """The str whose character at code c < n is chr(c ^ 1): inverts every
    letter of a text whose codes are below n."""
    return "".join([chr(c ^ 1) for c in range(n)])


class _Flip:
    """The flip table of every code, one lookup at a time."""
    __slots__ = ()

    def __getitem__(self, c):
        return chr(c ^ 1)


# codes below this get a cached flip table: at most 17 tables (one per
# power of two), 256 KB in all, since their characters fit in two bytes
_SMALL_FLIP = 1 << 16
_small_flip_table = lru_cache(maxsize=None)(flip_table)
_EVERY_FLIP = _Flip()


def flip_for(text):
    """A flip table for the codes of text's generators and every lower code,
    so it also inverts text's inverse and any renumbering down: the cached
    flip_table of the least power of two above them when that is at most
    _SMALL_FLIP, else a table that flips each code as it is looked up, so
    that no large table is built or kept."""
    top = ord(max(text, default="\0")) | 1
    if top < _SMALL_FLIP:
        return _small_flip_table(1 << top.bit_length())
    return _EVERY_FLIP


def free_reduce(text, flip):
    """Freely reduce an encoded word (stack cancellation)."""
    out = []
    for c, inv in zip(text, text.translate(flip)):
        if out and out[-1] == inv:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def inverse(text, flip):
    return text[::-1].translate(flip)


def product(a, a_inv, b):
    """The product of reduced encoded words a and b, given a's inverse: the
    letters that cancel at the seam are the common prefix of a^-1 and b."""
    t, n = 0, min(len(a), len(b))
    while t < n and a_inv[t] == b[t]:
        t += 1
    return a[:len(a) - t] + b[t:]


def cyclic_core(text, flip):
    """The cyclically reduced core of a reduced encoded word."""
    a, b = 0, len(text)
    while b - a >= 2 and text[a] == flip[ord(text[b - 1])]:
        a += 1
        b -= 1
    return text[a:b]


def substitute(text, table, flip):
    """Replace each letter code of `text` by its image in the `str.translate`
    table `table` and freely reduce; `flip` covers the images' codes."""
    return free_reduce(text.translate(table), flip)


class Word:
    __slots__ = ("text",)

    def __init__(self, letters=()):
        text = encode(letters)
        object.__setattr__(self, "text", free_reduce(text, flip_for(text)))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def generator(cls, index, sign=1):
        return cls(((index, sign),))

    @classmethod
    def _reduced(cls, text):
        """Wrap an encoded word already known to be freely reduced, unchecked."""
        w = object.__new__(cls)
        object.__setattr__(w, "text", text)
        return w

    @property
    def letters(self):
        return decode(self.text)

    def __len__(self):
        return len(self.text)

    def __bool__(self):
        return bool(self.text)

    def is_identity(self):
        return not self.text

    def __mul__(self, other):
        a = self.text
        return Word._reduced(product(a, inverse(a, flip_for(a)), other.text))

    def inverse(self):
        return Word._reduced(inverse(self.text, flip_for(self.text)))

    def __pow__(self, n):
        text = (self if n >= 0 else self.inverse()).text * abs(n)
        return Word._reduced(free_reduce(text, flip_for(text)))

    def conjugated_by(self, u):
        """u * self * u^-1."""
        return u * self * u.inverse()

    def exponent_sum(self, gen):
        return self.text.count(chr(2 * gen)) - self.text.count(chr(2 * gen + 1))

    def generator_count(self, gen):
        return self.text.count(chr(2 * gen)) + self.text.count(chr(2 * gen + 1))

    def max_generator(self):
        return ord(max(self.text)) >> 1 if self.text else -1

    def cyclically_reduced(self):
        """Return (core, conjugator) with self == conjugator * core * conjugator^-1
        and core cyclically reduced."""
        text = self.text
        core = cyclic_core(text, flip_for(text))
        return Word._reduced(core), Word._reduced(text[:(len(text) - len(core)) // 2])

    def substituted(self, images):
        """Replace generator i by the word images[i] (extended to inverses)."""
        gens = {ord(c) >> 1 for c in self.text}
        flip = flip_for("".join([images[g].text for g in gens]))
        table = {}
        for g in gens:
            table[2 * g] = images[g].text
            table[2 * g + 1] = inverse(images[g].text, flip)
        return Word._reduced(substitute(self.text, table, flip))

    def __eq__(self, other):
        return isinstance(other, Word) and self.text == other.text

    def __hash__(self):
        return hash(self.text)

    def __lt__(self, other):
        # length-lexicographic; letter order (0,+1) < (0,-1) < (1,+1) < ...
        return (len(self.text), self.text) < (len(other.text), other.text)

    def __repr__(self):
        return f"Word({self.letters!r})"


def reduce_word(w):
    """Freely reduce; accepts a Word or a raw letter sequence."""
    if isinstance(w, Word):
        return w
    return Word(w)


def words_in_length_lex_order(num_generators, max_length):
    """Yield all freely reduced words up to max_length, shortest first,
    ties broken lexicographically by (generator index, +1 before -1)."""
    alphabet = [chr(c) for c in range(2 * num_generators)]
    yield Word()
    level = [""]
    for _ in range(max_length):
        nxt = []
        for prefix in level:
            back = chr(ord(prefix[-1]) ^ 1) if prefix else ""
            for c in alphabet:
                if c != back:
                    nxt.append(prefix + c)
                    yield Word._reduced(prefix + c)
        level = nxt
