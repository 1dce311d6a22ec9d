"""Todd-Coxeter coset enumeration over the trivial subgroup.

Produces certified group orders and canonical multiplication tables
(FiniteGroupModel). Two deterministic strategies are provided: "hlt"
(relator-based scan and fill) and "felsch" (definition plus deduction
processing); a completed enumeration certifies |G| = number of cosets.
Hitting the coset limit is reported as an incomplete table, never an
exception. Tables are standardized (breadth-first relabeling from the
identity coset in generator-column order), so element numbering is
reproducible across runs and across strategies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .intlinalg import CertificateError
from .presentations import Presentation
from .words import Word, words_in_length_lex_order

DEFAULT_MAX_COSETS = 20000


class NotFinitelyEnumerated(ValueError):
    pass


class _Limit(Exception):
    pass


def _col(g, s):
    return 2 * g + (0 if s > 0 else 1)


def _word_cols(w):
    return tuple(_col(g, s) for g, s in w.letters)


class _Table:
    """Mutable coset table with union-find coincidence handling."""

    def __init__(self, ngens, max_cosets):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.rows = [[None] * self.ncols]
        self.p = [0]

    def rep(self, k):
        p = self.p
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def define(self, a, c):
        if len(self.rows) >= self.max_cosets:
            raise _Limit
        b = len(self.rows)
        self.rows.append([None] * self.ncols)
        self.p.append(b)
        self.rows[a][c] = b
        self.rows[b][c ^ 1] = a
        return b

    def _merge(self, a, b, queue):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            self.p[b] = a
            queue.append(b)

    def coincidence(self, a, b, deductions=None):
        rows = self.rows
        queue = deque()
        self._merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            for c in range(self.ncols):
                delta = rows[gamma][c]
                if delta is None:
                    continue
                rows[delta][c ^ 1] = None
                if deductions is not None:
                    deductions.append((delta, c ^ 1))
                mu, nu = self.rep(gamma), self.rep(delta)
                if rows[mu][c] is not None:
                    self._merge(nu, rows[mu][c], queue)
                elif rows[nu][c ^ 1] is not None:
                    self._merge(mu, rows[nu][c ^ 1], queue)
                else:
                    rows[mu][c] = nu
                    rows[nu][c ^ 1] = mu
                    if deductions is not None:
                        deductions.append((mu, c))

    def scan(self, a, word_cols, fill, deductions=None):
        """Scan `word_cols` from coset `a`; fill gaps when `fill`."""
        rows = self.rows
        if not word_cols:
            return
        while True:
            f, i = a, 0
            r = len(word_cols)
            while i < r and rows[f][word_cols[i]] is not None:
                f = rows[f][word_cols[i]]
                i += 1
            if i == r:
                if f != a:
                    self.coincidence(f, a, deductions)
                return
            b, j = a, r - 1
            while j >= i and rows[b][word_cols[j] ^ 1] is not None:
                b = rows[b][word_cols[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b, deductions)
                return
            if j == i:
                rows[f][word_cols[i]] = b
                rows[b][word_cols[i] ^ 1] = f
                if deductions is not None:
                    deductions.append((f, word_cols[i]))
                return
            if not fill:
                return
            self.define(f, word_cols[i])

    def live(self):
        return [k for k in range(len(self.rows)) if self.p[k] == k]

    def is_complete(self):
        return all(None not in self.rows[k] for k in self.live())


def _preprocess(P, extra_relators=()):
    words = []
    for r in list(P.relators) + list(extra_relators):
        core, _ = r.cyclically_reduced()
        if core:
            words.append(_word_cols(core))
    return words


def _enumerate_hlt(table, relator_cols):
    alpha = 0
    while alpha < len(table.rows):
        if table.p[alpha] == alpha:
            for w in relator_cols:
                table.scan(alpha, w, fill=True)
                if table.p[alpha] != alpha:
                    break
            if table.p[alpha] == alpha:
                for c in range(table.ncols):
                    if table.rows[alpha][c] is None:
                        table.define(alpha, c)
        alpha += 1


def _enumerate_felsch(table, relator_cols):
    # all cyclic rotations of each relator and its inverse, keyed by first column
    by_first = [[] for _ in range(table.ncols)]
    seen = set()
    for w in relator_cols:
        for base in (w, tuple(c ^ 1 for c in reversed(w))):
            for k in range(len(base)):
                rot = base[k:] + base[:k]
                if rot not in seen:
                    seen.add(rot)
                    by_first[rot[0]].append(rot)
    deductions = []

    def process():
        while deductions:
            a, c = deductions.pop()
            a = table.rep(a)
            for w in by_first[c]:
                table.scan(a, w, fill=False, deductions=deductions)
                if table.p[a] != a:
                    break

    alpha = 0
    while alpha < len(table.rows):
        if table.p[alpha] == alpha:
            c = 0
            while c < table.ncols:
                if table.p[alpha] != alpha:
                    break
                if table.rows[alpha][c] is None:
                    table.define(alpha, c)
                    deductions.append((alpha, c))
                    process()
                c += 1
        alpha += 1


def _compress_and_standardize(table):
    """Relabel live cosets: first compress, then breadth-first renumber
    scanning rows in order and columns (g0,+),(g0,-),(g1,+),... so the
    final table is canonical for the group regardless of strategy."""
    live = table.live()
    index = {}
    for k in live:
        index[k] = len(index)
    n = len(live)
    rows = [[index[table.rep(table.rows[k][c])] for c in range(table.ncols)]
            for k in live]
    # breadth-first relabeling
    order = [None] * n
    order[0] = 0
    count = 1
    queue = deque([0])
    while queue:
        a = queue.popleft()
        for c in range(table.ncols):
            b = rows[a][c]
            if order[b] is None:
                order[b] = count
                count += 1
                queue.append(b)
    if count != n:
        raise CertificateError("standardization missed live cosets")
    out = [[0] * table.ncols for _ in range(n)]
    for a in range(n):
        for c in range(table.ncols):
            out[order[a]][c] = order[rows[a][c]]
    return out


@dataclass(frozen=True)
class CosetTable:
    status: str                  # "complete" | "incomplete"
    num_cosets: int              # |G| when complete; live cosets used otherwise
    table: tuple = ()            # canonical rows (complete only)
    strategy: str = "hlt"

    @property
    def complete(self):
        return self.status == "complete"


def todd_coxeter(P, max_cosets, strategy="hlt"):
    """Enumerate cosets of the trivial subgroup of the group presented by P.

    A complete table certifies the group order; an incomplete table means
    only that `max_cosets` was not enough (the group may be infinite).
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    if strategy not in ("hlt", "felsch"):
        raise ValueError(f"unknown strategy {strategy!r}")
    relator_cols = _preprocess(P)
    table = _Table(P.num_generators, max_cosets)
    try:
        if strategy == "hlt":
            _enumerate_hlt(table, relator_cols)
        else:
            _enumerate_felsch(table, relator_cols)
    except _Limit:
        return CosetTable("incomplete", len(table.live()), (), strategy)
    if not table.is_complete():
        raise CertificateError("enumeration ended with an incomplete table")
    rows = _compress_and_standardize(table)
    return CosetTable("complete", len(rows),
                      tuple(tuple(r) for r in rows), strategy)


@dataclass(frozen=True)
class FiniteGroupModel:
    """A finite group as an explicit multiplication table.

    Element 0 is the identity; `mult[i][j]` is the product of elements i and
    j; `generator_images[g]` is the element representing presentation
    generator g. Tables come from a standardized coset enumeration, so the
    numbering is reproducible.
    """
    order: int
    mult: tuple
    inverse: tuple
    generator_images: tuple

    def multiply(self, i, j):
        return self.mult[i][j]

    def inverse_of(self, i):
        return self.inverse[i]

    def evaluate_word(self, w, start=0):
        """Image of the free word w (right multiplication from `start`)."""
        e = start
        for g, s in w.letters:
            x = self.generator_images[g]
            e = self.mult[e][x if s > 0 else self.inverse[x]]
        return e

    def conjugacy_class(self, i):
        return frozenset(self.mult[self.mult[g][i]][self.inverse[g]]
                         for g in range(self.order))

    def same_table(self, other):
        return self.order == other.order and self.mult == other.mult


def group_model(P, max_cosets, strategy="hlt"):
    """Multiplication-table model of the (finite) group presented by P."""
    tc = todd_coxeter(P, max_cosets, strategy)
    if not tc.complete:
        raise NotFinitelyEnumerated(
            f"enumeration incomplete after {max_cosets} cosets")
    n = tc.num_cosets
    rows = tc.table
    # representative words (as column paths) in first-visit order
    rep_path = [None] * n
    rep_path[0] = ()
    queue = deque([0])
    while queue:
        a = queue.popleft()
        for c in range(len(rows[a])):
            b = rows[a][c]
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
    inverse = [0] * n
    for i in range(n):
        inverse[i] = mult[i].index(0)
    gen_images = tuple(rows[0][_col(g, 1)] for g in range(P.num_generators))
    model = FiniteGroupModel(n, tuple(mult), tuple(inverse), gen_images)
    for r in P.relators:
        if model.evaluate_word(r) != 0:
            raise CertificateError("a relator does not hold in the model")
    return model


@dataclass(frozen=True)
class QuotientCheck:
    """Outcome of testing whether P plus extra relators presents the
    trivial group: kind is "trivial", "nontrivial" (with the order), or
    "unknown" (enumeration hit the coset limit)."""
    kind: str
    order: int | None = None


def is_trivial_quotient(P, extra_relators, max_cosets):
    Q = Presentation(P.generators, tuple(P.relators) + tuple(extra_relators))
    tc = todd_coxeter(Q, max_cosets)
    if not tc.complete:
        return QuotientCheck("unknown")
    if tc.num_cosets == 1:
        return QuotientCheck("trivial", 1)
    return QuotientCheck("nontrivial", tc.num_cosets)


@dataclass(frozen=True)
class NormalGeneratorSearch:
    status: str                  # "found" | "not-found-within-bounds"
    word: Word | None = None
    tested: int = 0
    warnings: tuple = ()

    @property
    def found(self):
        return self.status == "found"


def find_normal_generator(P, max_len, max_cosets):
    """Search for a single word whose normal closure is the whole group.

    Candidates are freely reduced words in length-lexicographic order; each
    is tested by coset enumeration of the quotient. The search only runs on
    perfect presentations (the normal-generation conjecture's hypothesis);
    non-perfect input returns immediately with a "non-perfect" warning.
    A returned word is certified by the completed enumeration of its
    quotient. "not-found-within-bounds" is never a nonexistence claim.
    """
    from .presentations import is_perfect

    if not is_perfect(P):
        return NormalGeneratorSearch("not-found-within-bounds",
                                     warnings=("non-perfect",))
    try:
        model = group_model(P, max_cosets)
    except NotFinitelyEnumerated:
        model = None
    seen_classes = set()
    tested = 0
    warnings = []
    for w in words_in_length_lex_order(P.num_generators, max_len):
        if model is not None:
            # words with conjugate (or inverse-conjugate) images generate the
            # same normal closure; skip repeats (performance only)
            e = model.evaluate_word(w)
            key = frozenset(model.conjugacy_class(e)
                            | model.conjugacy_class(model.inverse_of(e)))
            if key in seen_classes:
                continue
            seen_classes.add(key)
        tested += 1
        res = is_trivial_quotient(P, (w,), max_cosets)
        if res.kind == "trivial":
            return NormalGeneratorSearch("found", w, tested)
        elif res.kind == "unknown":
            warnings.append("unknown-quotients-encountered")
    return NormalGeneratorSearch("not-found-within-bounds", None, tested,
                                 tuple(dict.fromkeys(warnings)))
