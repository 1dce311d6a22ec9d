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
from .presentations import Presentation, is_perfect
from .words import Word, words_in_length_lex_order

DEFAULT_MAX_COSETS = 20000

# Largest |G|^2 multiplication table, or integer expansion of a boundary or
# of an f x f matrix over ZG, that d2kit builds, in cells: rows * cols *
# |G|^2 for a matrix, an empty side counting as 1 (`acx.check_ranks`). Every
# CLI read of a complex expands d_1 and d_2 for the exactness check, so this
# bounds what a read allocates. The largest expansions d2kit builds stay
# under half of it: Z/2 with 706 attached spheres (2.0 M) and PSL(2,7)
# wedged and attached (705 600).
MAX_EXPANDED_CELLS = 1 << 22


class NotFinitelyEnumerated(ValueError):
    pass


class _Limit(Exception):
    pass


class _Table:
    """Column-major coset table with union-find coincidence handling.

    `cols[c][k]` is the coset reached from coset k by column c (generator g
    forward is column 2g, backward 2g + 1), or None while undefined. `p` is
    the union-find parent list: the table has len(p) cosets and the live ones
    are the roots. `pairs` holds one (c, cols[c], cols[c ^ 1]) triple per
    column, the order in which coincidence processing walks a coset's row.
    Columns are only ever appended to, so a word compiled against them, and
    `pairs`, stay valid for the whole enumeration.
    """

    def __init__(self, ngens, max_cosets):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        cols = self.cols = [[None] for _ in range(self.ncols)]
        self.pairs = tuple((c, col, cols[c ^ 1]) for c, col in enumerate(cols))
        self.p = [0]
        self._live = None

    def rep(self, k):
        p = self.p
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def define(self, a, c):
        p, cols = self.p, self.cols
        b = len(p)
        if b >= self.max_cosets:
            raise _Limit
        p.append(b)
        for col in cols:
            col.append(None)
        cols[c][a] = b
        cols[c ^ 1][b] = a
        return b

    def compile(self, word_cols):
        """A word's scan form: its columns, the forward pairs (i, column list
        of letter i) in word order and the backward pairs (j, inverse column
        list of letter j), last index first. A pass walks its pairs with no
        counter and no bound and stops at an undefined entry, whose index
        says where."""
        cols = self.cols
        return (word_cols, tuple(enumerate(cols[c] for c in word_cols)),
                tuple(enumerate(cols[c ^ 1] for c in word_cols))[::-1])

    def coincidence(self, a, b, deductions=None):
        p, rep, pairs = self.p, self.rep, self.pairs
        queue = deque()
        pop = queue.popleft

        def merge(x, y):
            x = x if p[x] == x else rep(x)
            y = y if p[y] == y else rep(y)
            if x != y:
                if x > y:
                    x, y = y, x
                p[y] = x
                queue.append(y)

        merge(a, b)
        while queue:
            gamma = pop()
            mu = p[gamma]
            if p[mu] != mu:
                mu = rep(mu)
            for c, col, inv in pairs:
                delta = col[gamma]
                if delta is None:
                    continue
                inv[delta] = None
                if deductions is not None:
                    deductions.append((delta, c ^ 1))
                if p[mu] != mu:
                    mu = rep(mu)
                nu = delta if p[delta] == delta else rep(delta)
                if col[mu] is not None:
                    merge(nu, col[mu])
                elif inv[nu] is not None:
                    merge(mu, inv[nu])
                else:
                    col[mu] = nu
                    inv[nu] = mu
                    if deductions is not None:
                        deductions.append((mu, c))

    def live(self):
        """The live cosets in increasing order, listed once the enumeration
        has stopped (the list is kept, and the table must not change after)."""
        if self._live is None:
            self._live = [k for k, root in enumerate(self.p) if k == root]
        return self._live

    def is_complete(self):
        live = self.live()
        return all(col[k] is not None for col in self.cols for k in live)


def _preprocess(P):
    words = []
    for r in P.relators:
        core, _ = r.cyclically_reduced()
        if core:
            words.append(tuple(map(ord, core.text)))
    return words


def _scan_and_fill(table, define, a, word):
    """HLT: scan `word` from coset a, defining cosets (with `define`, the
    table's bound method) until it closes.

    The forward pass stops at the gap i, the backward pass at j. If the
    backward pass runs past i, the passes cross: a second walk back to i
    reaches the coset that must equal f. Otherwise each definition fills
    position i from the forward side. The new coset has only its edge back
    and relators are freely reduced, so the forward pass cannot move past
    it, and the backward pass moves at most one step, onto it, when b was
    the old f.
    """
    w, fwd, bwd = word
    f = a
    for i, col in fwd:
        g = col[f]
        if g is None:
            break
        f = g
    else:
        if f != a:
            table.coincidence(f, a)
        return
    b = a
    for j, icol in bwd:
        g = icol[b]
        if g is None:
            break
        b = g
    else:
        j = -1
    if j < i:
        b = a
        for j, icol in bwd:
            b = icol[b]
            if j == i:
                break
        table.coincidence(f, b)
        return
    cols = table.cols
    while j > i:
        f = define(f, w[i])
        i += 1
        g = cols[w[j] ^ 1][b]
        if g is not None:
            b = g
            j -= 1
    cols[w[i]][f] = b
    cols[w[i] ^ 1][b] = f


def _enumerate_hlt(table, relator_cols):
    words = [table.compile(w) for w in relator_cols]
    cols, p, define = table.cols, table.p, table.define
    alpha = 0
    while alpha < len(p):
        if p[alpha] == alpha:
            for w in words:
                _scan_and_fill(table, define, alpha, w)
                if p[alpha] != alpha:
                    break
            if p[alpha] == alpha:
                for c, col in enumerate(cols):
                    if col[alpha] is None:
                        define(alpha, c)
        alpha += 1


def _enumerate_felsch(table, relator_cols):
    # all cyclic rotations of each relator and its inverse, compiled and keyed
    # by first column
    by_first = [[] for _ in range(table.ncols)]
    seen = set()
    for w in relator_cols:
        for base in (w, tuple(c ^ 1 for c in reversed(w))):
            for k in range(len(base)):
                rot = base[k:] + base[:k]
                if rot not in seen:
                    seen.add(rot)
                    by_first[rot[0]].append(table.compile(rot))
    cols, p, rep, coincidence = table.cols, table.p, table.rep, table.coincidence
    deductions = []
    pop, push = deductions.pop, deductions.append

    def process():
        # scan each rotation starting with the deduced entry's column, without
        # filling: a scan closes, yields one deduction or is left open. The
        # backward pass stops at its first undefined entry j: at j == i that
        # entry is the gap (f, w[i]); at j > i the scan is open. It walks past
        # i only when the gap's inverse entry is defined, and then a second
        # walk to i + 1 finds the coset to merge with f.
        while deductions:
            a, c = pop()
            if p[a] != a:
                a = rep(a)
            for w, fwd, bwd in by_first[c]:
                f = a
                for i, col in fwd:
                    g = col[f]
                    if g is None:
                        break
                    f = g
                else:
                    if f != a:
                        coincidence(f, a, deductions)
                        if p[a] != a:
                            break
                    continue
                b = a
                for j, icol in bwd:
                    g = icol[b]
                    if g is None:
                        break
                    b = g
                else:
                    j = -1
                if j > i:
                    continue
                if j == i:
                    col[f] = b
                    icol[b] = f
                    push((f, w[i]))
                    continue
                b = a
                for j, icol in bwd:
                    if j == i:
                        break
                    b = icol[b]
                coincidence(f, icol[b], deductions)
                if p[a] != a:
                    break

    alpha = 0
    while alpha < len(p):
        if p[alpha] == alpha:
            for c, col in enumerate(cols):
                if p[alpha] != alpha:
                    break
                if col[alpha] is None:
                    table.define(alpha, c)
                    push((alpha, c))
                    process()
        alpha += 1


def _compress_and_standardize(table):
    """Canonical rows of the live cosets: breadth-first renumbering from the
    identity coset, scanning columns (g0,+),(g0,-),(g1,+),... so the final
    table is canonical for the group regardless of strategy."""
    live = table.live()
    index = {k: n for n, k in enumerate(live)}
    rep = table.rep
    cols = [[index[rep(col[k])] for k in live] for col in table.cols]
    n = len(live)
    order = [None] * n
    order[0] = 0
    visit = [0]
    for a in visit:
        for col in cols:
            b = col[a]
            if order[b] is None:
                order[b] = len(visit)
                visit.append(b)
    if len(visit) != n:
        raise CertificateError("standardization missed live cosets")
    return tuple(tuple(order[col[a]] for col in cols) for a in visit)


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
    return CosetTable("complete", len(rows), rows, strategy)


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

    def evaluate_word(self, w):
        """Image of the free word w."""
        e = 0
        for c in map(ord, w.text):
            x = self.generator_images[c >> 1]
            e = self.mult[e][self.inverse[x] if c & 1 else x]
        return e

    def conjugacy_class(self, i):
        return frozenset(self.mult[self.mult[g][i]][self.inverse[g]]
                         for g in range(self.order))

    def same_table(self, other):
        return self.order == other.order and self.mult == other.mult


def group_model(P, max_cosets):
    """Multiplication-table model of the (finite) group presented by P."""
    tc = todd_coxeter(P, max_cosets)
    if not tc.complete:
        raise NotFinitelyEnumerated(f"enumeration incomplete after {max_cosets} cosets")
    return table_model(P, tc.table)


def table_model(P, rows):
    """Model of P from `rows`, which must be the `table` of a complete
    `todd_coxeter` run (standardized rows); it builds the |G|^2
    multiplication table, so a caller may check |G| first."""
    n = len(rows)
    # the standardized numbering is breadth-first in this column order, so
    # element b > 0 is first reached from some k < b by a column c: its
    # representative word is k's followed by c, and i * b = (i * k) moved
    # along column c; columns of mult are built from their tree parents
    by_col = tuple(zip(*rows))
    mult_cols = [None] * n
    mult_cols[0] = tuple(range(n))
    for k in range(n):
        for c, b in enumerate(rows[k]):
            if mult_cols[b] is None:
                mult_cols[b] = tuple(map(by_col[c].__getitem__, mult_cols[k]))
    mult = tuple(zip(*mult_cols))
    inverse = tuple(row.index(0) for row in mult)
    gen_images = tuple(rows[0][2 * g] for g in range(P.num_generators))
    model = FiniteGroupModel(n, mult, inverse, gen_images)
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

    Words whose images are conjugate, or inverse-conjugate, have the same
    normal closure, so with a model of the group all but the first are
    skipped. The model's |G|^2 table is built only within
    MAX_EXPANDED_CELLS; above it every word is tested, with the warning
    "conjugates-not-skipped".
    """
    if not is_perfect(P):
        return NormalGeneratorSearch("not-found-within-bounds",
                                     warnings=("non-perfect",))
    tc = todd_coxeter(P, max_cosets)
    model = None
    warnings = []
    if tc.complete and tc.num_cosets ** 2 <= MAX_EXPANDED_CELLS:
        model = table_model(P, tc.table)
    elif tc.complete:
        warnings.append("conjugates-not-skipped")
    seen_classes = set()
    tested = 0
    for w in words_in_length_lex_order(P.num_generators, max_len):
        if model is not None:
            e = model.evaluate_word(w)
            key = frozenset(model.conjugacy_class(e)
                            | model.conjugacy_class(model.inverse[e]))
            if key in seen_classes:
                continue
            seen_classes.add(key)
        tested += 1
        res = is_trivial_quotient(P, (w,), max_cosets)
        if res.kind == "trivial":
            return NormalGeneratorSearch("found", w, tested,
                                         tuple(dict.fromkeys(warnings)))
        elif res.kind == "unknown":
            warnings.append("unknown-quotients-encountered")
    return NormalGeneratorSearch("not-found-within-bounds", None, tested,
                                 tuple(dict.fromkeys(warnings)))
