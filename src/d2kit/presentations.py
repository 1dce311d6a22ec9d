"""Finite presentations: parsing, serialization, abelianization, deficiency.

Text format (.fp)
-----------------
A presentation is one `gens:` line followed by optional `rels:` lines::

    # comment
    gens: a b
    rels: a^2 b^3 (a b)^5

* Generator names match ``[A-Za-z][A-Za-z0-9_]*`` and are unique.
* On a ``rels:`` line, top-level whitespace separates *relators*. A relator is
  a word: ``word := term+``, ``term := atom | atom '^' int``,
  ``atom := name | '(' word ')'``. Inside parentheses whitespace separates the
  terms of a single word, so multi-term relators are written ``(x^2 y^-3)``
  (or without internal whitespace when names stay unambiguous: ``x^2y^-3``).
* Exponents are decimal integers; ``-`` and the minus sign ``−`` both work.
* A relator has at most ``MAX_RELATOR_LETTERS`` (100 000) letters. The
  parser checks each power and the running length of the relator before it
  builds them, so ``x^1000000000`` is a ``ParseError``, not a huge word.
* Multiple ``rels:`` lines concatenate. ``gens:`` with no names is the trivial
  presentation and is legal only when there are no relators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby

from .intlinalg import IntMatrix, SNFResult, smith_normal_form
from .words import Word

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# The most letters a parsed relator may have. A power counts its reduced
# base's length times the exponent, and the terms of a word add up before
# free reduction, so the check comes before any letter is built.
MAX_RELATOR_LETTERS = 100_000


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = "" if line is None else f" (line {line}, column {col})"
        super().__init__(message + where)


class UnknownGenerator(ParseError):
    pass


class EmptyGeneratorList(ParseError):
    pass


@dataclass(frozen=True)
class Presentation:
    generators: tuple
    relators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(self.relators))
        seen = set()
        for name in self.generators:
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad generator name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate generator {name!r}")
            seen.add(name)
        d = len(self.generators)
        for r in self.relators:
            if not isinstance(r, Word):
                raise TypeError("relators must be Words")
            if r.max_generator() >= d:
                raise ValueError("relator references an undeclared generator")

    @property
    def num_generators(self):
        return len(self.generators)

    @property
    def num_relators(self):
        return len(self.relators)

    def format_word(self, w):
        """Human-readable display form (not necessarily re-parseable)."""
        if w.is_identity():
            return "1"
        return " ".join(_syllables(w.letters, self.generators))

    def __str__(self):
        gens = " ".join(self.generators)
        rels = ", ".join(self.format_word(r) for r in self.relators)
        return f"< {gens} | {rels} >"


def _syllables(letters, names):
    """The syllables of a reduced word as text, ``x`` or ``x^k``: its runs
    of one repeated letter."""
    out = []
    for (g, s), run in groupby(letters):
        k = s * sum(1 for _ in run)
        out.append(names[g] if k == 1 else f"{names[g]}^{k}")
    return out


def _relator_chunk(letters, names):
    """One relator's text on a ``rels:`` line: ``()`` for the empty word, a
    bare syllable, or its syllables in parentheses."""
    sylls = _syllables(letters, names)
    if len(sylls) == 1:
        return sylls[0]
    return "(" + " ".join(sylls) + ")"


def _presentation_text(names, chunks):
    """The ``gens:``/``rels:`` text of generator names and relator chunks."""
    rels = "rels: " + " ".join(chunks) if chunks else "rels:"
    return "gens: " + " ".join(names) + "\n" + rels + "\n"


def _relator_chunks(body, line_no, col0):
    """Split a rels-line body into top-level chunks (paren depth 0 whitespace)."""
    chunks = []
    depth = 0
    cur = []
    start = col0
    for k, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", line_no, col0 + k + 1)
        if ch.isspace() and depth == 0:
            if cur:
                chunks.append(("".join(cur), start))
                cur = []
        else:
            if not cur:
                start = col0 + k + 1
            cur.append(ch)
    if depth != 0:
        raise ParseError("unbalanced '('", line_no, col0 + len(body))
    if cur:
        chunks.append(("".join(cur), start))
    return chunks


_TOKEN_RE = re.compile(
    r"\s+|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<lpar>\()|(?P<rpar>\))"
    r"|(?P<caret>\^)|(?P<int>[-−]?[0-9]+)")


def _tokenize(text, line_no, col0):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line_no, col0 + pos)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(), col0 + pos))
        pos = m.end()
    return tokens


class _WordParser:
    def __init__(self, tokens, gen_index, line_no):
        self.tokens = tokens
        self.i = 0
        self.gen_index = gen_index
        self.line_no = line_no

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def parse_word(self, stop_at_rpar=False):
        letters = []
        while True:
            tok = self.peek()
            if tok is None or (stop_at_rpar and tok[0] == "rpar"):
                break
            col = tok[2]
            term = self.parse_term()
            if len(letters) + len(term) > MAX_RELATOR_LETTERS:
                raise ParseError("relator longer than "
                                 f"{MAX_RELATOR_LETTERS} letters", self.line_no, col)
            letters.extend(term.letters)
        return Word(letters)

    def parse_term(self):
        kind, text, col = self.tokens[self.i]
        if kind == "name":
            self.i += 1
            if text not in self.gen_index:
                raise UnknownGenerator(f"unknown generator {text!r}",
                                       self.line_no, col)
            atom = Word.generator(self.gen_index[text])
        elif kind == "lpar":
            self.i += 1
            atom = self.parse_word(stop_at_rpar=True)
            tok = self.peek()
            if tok is None or tok[0] != "rpar":
                raise ParseError("missing ')'", self.line_no, col)
            self.i += 1
        else:
            raise ParseError(f"unexpected token {text!r}", self.line_no, col)
        tok = self.peek()
        if tok is not None and tok[0] == "caret":
            self.i += 1
            past_caret = tok[2] + 1
            tok = self.peek()
            if tok is None or tok[0] != "int":
                raise ParseError("expected integer exponent", self.line_no,
                                 tok[2] if tok else past_caret)
            self.i += 1
            digits = tok[1].replace("−", "-")
            if len(digits) > 20:
                raise ParseError("exponent too large", self.line_no, tok[2])
            exp = int(digits)
            if len(atom) * abs(exp) > MAX_RELATOR_LETTERS:
                raise ParseError("power longer than "
                                 f"{MAX_RELATOR_LETTERS} letters", self.line_no, tok[2])
            atom = atom ** exp
        return atom


def parse_presentation(text):
    gens = None
    relators = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        if stripped.startswith("gens:"):
            if gens is not None:
                raise ParseError("duplicate gens: line", line_no, indent + 1)
            gens, seen = [], set()
            for m in re.finditer(r"\S+", stripped[len("gens:"):]):
                name, col = m.group(), indent + len("gens:") + m.start() + 1
                if not _NAME_RE.fullmatch(name):
                    raise ParseError(f"bad generator name {name!r}", line_no, col)
                if name in seen:
                    raise ParseError(f"duplicate generator {name!r}", line_no, col)
                seen.add(name)
                gens.append(name)
        elif stripped.startswith("rels:"):
            if gens is None:
                raise ParseError("rels: before gens:", line_no, indent + 1)
            body = stripped[len("rels:"):]
            col0 = indent + len("rels:")
            gen_index = {name: i for i, name in enumerate(gens)}
            for chunk, col in _relator_chunks(body, line_no, col0):
                tokens = _tokenize(chunk, line_no, col)
                parser = _WordParser(tokens, gen_index, line_no)
                w = parser.parse_word()
                if parser.peek() is not None:
                    _, text_, col_ = parser.tokens[parser.i]
                    raise ParseError(f"unexpected token {text_!r}", line_no, col_)
                relators.append(w)
        else:
            raise ParseError("expected 'gens:' or 'rels:' line", line_no, indent + 1)
    if gens is None:
        raise ParseError("missing gens: line")
    if not gens and relators:
        raise EmptyGeneratorList("relators given but generator list is empty")
    return Presentation(tuple(gens), tuple(relators))


def serialize_presentation(P):
    """Canonical text form; parse_presentation round-trips it exactly."""
    return _presentation_text(P.generators, [
        _relator_chunk(r.letters, P.generators) for r in P.relators])


@dataclass(frozen=True)
class InvariantFactors:
    """H1(G;Z) = Z^free_rank + Z/t1 + Z/t2 + ... with t1 | t2 | ..."""
    free_rank: int
    torsion: tuple

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class AbelianizationResult:
    matrix: IntMatrix          # relators x generators exponent-sum matrix
    snf: SNFResult
    invariant_factors: InvariantFactors


def abelianization(P):
    k, d = P.num_relators, P.num_generators
    entries = []
    for r in P.relators:
        entries.extend(r.exponent_sum(g) for g in range(d))
    A = IntMatrix(k, d, entries)
    snf = smith_normal_form(A)
    diag = [x for x in snf.diagonal() if x != 0]
    torsion = tuple(x for x in diag if x > 1)
    free_rank = d - len(diag)
    return AbelianizationResult(A, snf, InvariantFactors(free_rank, torsion))


def is_perfect(P):
    return abelianization(P).invariant_factors.is_trivial()


def deficiency(P):
    """Generators minus relators of this presentation (a lower bound for
    the group's deficiency)."""
    return P.num_generators - P.num_relators
