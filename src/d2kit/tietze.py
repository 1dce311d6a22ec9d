"""Tietze transformations, presentation simplification, deficiency search,
and rebuilding a presentation on an alternative presentation of a
sub-presentation's group.

A move is *verified* when its validity is checkable from the data it
carries: added relators carry a derivation (a product of conjugates of
existing relators), generator moves carry their defining words. Applying a
verified move never changes the presented group.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .coset import DEFAULT_MAX_COSETS, NotFinitelyEnumerated, group_model
from .presentations import Presentation, _chunk_lead, _relator_chunk
from .words import Word, cyclic_core, flip_for, inverse, product, substitute


class InvalidMove(ValueError):
    pass


class NotASubpresentation(ValueError):
    pass


class LiftingViolatesRelator(ValueError):
    pass


@dataclass(frozen=True)
class AddGenerator:
    """Adjoin a generator `name` with defining relator  name * defining^-1."""
    name: str
    defining: Word


@dataclass(frozen=True)
class RemoveGenerator:
    """Remove generator `index` by solving the first relator in which it
    occurs exactly once and substituting everywhere else."""
    index: int


@dataclass(frozen=True)
class AddRelator:
    """Adjoin `word`; `derivation` certifies it as a product of conjugates
    of existing relators: a tuple of (conjugator, relator index, sign).
    derivation=None means Unverified."""
    word: Word
    derivation: tuple | None


@dataclass(frozen=True)
class RemoveRelator:
    """Remove relator `index`; `derivation` (over the *other* relators'
    indices) certifies redundancy. derivation=None means Unverified."""
    index: int
    derivation: tuple | None


def derived_word(relators, derivation):
    w = Word()
    for conjugator, idx, sign in derivation:
        w = w * (relators[idx] ** sign).conjugated_by(conjugator)
    return w


def _presentation(gens, rels):
    """The Presentation of a (generators, reduced encoded relators) pair."""
    return Presentation(gens, tuple(map(Word._reduced, rels)))


def _relator_texts(P):
    """P's relators as encoded words, and a flip table covering them: every
    word the search or an elimination builds from them uses no higher code."""
    rels = tuple(r.text for r in P.relators)
    return rels, flip_for("".join(rels))


def _is_duplicate(r, r_inv, doubled):
    """Whether cyclically reduced r is a rotation of a relator k, or of k's
    inverse, for some k + k in `doubled`: then r or r^-1 is a substring of
    k + k, which has twice r's length."""
    n = 2 * len(r)
    for kk in doubled:
        if len(kk) == n and (r in kk or r_inv in kk):
            return True
    return False


def _single_generators(r, flip):
    """The generators occurring exactly once in encoded word r."""
    return frozenset(ord(c) >> 1 for c in set(r)
                     if r.count(c) == 1 and flip[ord(c)] not in r)


def _eliminate_generator(gens, rels, gen, i, flip):
    """Solve relator `i`, in which generator `gen` occurs exactly once, for
    `gen`, substitute the solution into the other relators and drop `gen`,
    renumbering the later generators down by one. Works on reduced encoded
    relators; `flip` covers their codes."""
    r = rels[i]
    forward, backward = chr(2 * gen), chr(2 * gen + 1)
    pos = r.find(forward)
    # r = u gen^s v, so gen = (u^-1 v^-1)^s = (v u)^-s; v u need not be
    # reduced, since every relator it replaces a letter of is reduced after
    if pos >= 0:
        solved = inverse(r[pos + 1:] + r[:pos], flip)
    else:
        pos = r.find(backward)
        solved = r[pos + 1:] + r[:pos]
    shift = {c: c - 2 for c in range(2 * gen + 2, 2 * len(gens))}
    solved = solved.translate(shift)
    table = {2 * gen: solved, 2 * gen + 1: inverse(solved, flip), **shift}
    out = []
    for k, w in enumerate(rels):
        if k == i:
            continue
        if forward in w or backward in w:
            out.append(substitute(w, table, flip))
        else:
            out.append(w.translate(shift))
    return gens[:gen] + gens[gen + 1:], tuple(out)


def apply_move(P, move):
    if isinstance(move, AddGenerator):
        if move.name in P.generators:
            raise InvalidMove(f"generator {move.name!r} already present")
        if move.defining.max_generator() >= P.num_generators:
            raise InvalidMove("defining word uses unknown generators")
        g = P.num_generators
        relator = Word.generator(g) * move.defining.inverse()
        return Presentation(P.generators + (move.name,),
                            P.relators + (relator,))
    if isinstance(move, RemoveGenerator):
        gen = move.index
        if not 0 <= gen < P.num_generators:
            raise InvalidMove("generator index out of range")
        i = next((i for i, r in enumerate(P.relators)
                  if r.generator_count(gen) == 1), None)
        if i is None:
            raise InvalidMove("no relator with a single occurrence of the generator")
        rels, flip = _relator_texts(P)
        return _presentation(*_eliminate_generator(P.generators, rels, gen, i, flip))
    if isinstance(move, AddRelator):
        if move.word.max_generator() >= P.num_generators:
            raise InvalidMove("relator uses unknown generators")
        if move.derivation is not None:
            if derived_word(P.relators, move.derivation) != move.word:
                raise InvalidMove("derivation does not produce the relator")
        return Presentation(P.generators, P.relators + (move.word,))
    if isinstance(move, RemoveRelator):
        i = move.index
        if not 0 <= i < P.num_relators:
            raise InvalidMove("relator index out of range")
        if move.derivation is not None:
            if any(idx == i for _, idx, _ in move.derivation):
                raise InvalidMove("derivation may not use the removed relator")
            if derived_word(P.relators, move.derivation) != P.relators[i]:
                raise InvalidMove("derivation does not produce the relator")
        return Presentation(P.generators,
                            tuple(w for k, w in enumerate(P.relators) if k != i))
    raise TypeError(f"not a Tietze move: {move!r}")


def invert_move(P, move):
    """A move undoing `move` on apply_move(P, move)."""
    if isinstance(move, AddGenerator):
        return RemoveGenerator(P.num_generators)
    if isinstance(move, AddRelator):
        return RemoveRelator(P.num_relators, move.derivation)
    if isinstance(move, RemoveRelator):
        return AddRelator(P.relators[move.index], move.derivation)
    if isinstance(move, RemoveGenerator):
        # substitution rewrites other relators, so the inverse is not a
        # single move in general; re-add the generator explicitly instead
        raise InvalidMove("RemoveGenerator has no single-move inverse")
    raise TypeError(f"not a Tietze move: {move!r}")


def _simplify(gens, rels, memo, flip):
    """`simplify` on (generator names, reduced encoded relators); `flip`
    covers their codes. `memo` maps a cyclically reduced relator r to r + r,
    r^-1 and the set of generators occurring once in r. A relator is
    dropped as a duplicate when it is a rotation of a kept relator or of its
    inverse (`_is_duplicate`, against the kept relators of r's length, held
    by doubled length): rotation or inversion is an equivalence and
    the kept relators are pairwise inequivalent, so this keeps the first
    relator of each class. A pass that eliminates no generator is the last:
    it leaves every relator cyclically reduced, nonempty and inequivalent to
    the earlier ones, so a further pass would change nothing. The search
    simplifies a neighbour, whose relators are all of this form but one,
    with `_neighbour`, which checks that one alone."""
    while True:
        # cyclic reduction (relator -> conjugate core), then drop empties
        # and duplicates up to rotation/inversion
        kept = []
        doubled = {}
        singles = []
        for r in rels:
            if r and r[0] == flip[ord(r[-1])]:
                r = cyclic_core(r, flip)
            if not r:
                continue
            info = memo.get(r)
            if info is None:
                info = memo[r] = (r + r, inverse(r, flip), _single_generators(r, flip))
            bucket = doubled.setdefault(len(info[0]), [])
            if _is_duplicate(r, info[1], bucket):
                continue
            kept.append(r)
            bucket.append(info[0])
            singles.append(info[2])
        # generator elimination, lowest generator index first, solved from
        # the first relator it occurs once in
        gen = min(frozenset().union(*singles), default=None)
        if gen is None:
            return gens, tuple(kept)
        i = next(i for i, ones in enumerate(singles) if gen in ones)
        gens, rels = _eliminate_generator(gens, kept, gen, i, flip)


def _length_index(rels, memo):
    """{len(w + w): [(k, w + w), ...]} over the relators w of a node, all in
    `memo`, each bucket in relator order."""
    index = {}
    for k, w in enumerate(rels):
        kk = memo[w][0]
        index.setdefault(len(kk), []).append((k, kk))
    return index


def _neighbour(gens, rels, i, r, memo, flip, index):
    """`_simplify` of the node (gens, rels) with relator i replaced by the
    reduced encoded word r; `index` is the node's `_length_index`. The node
    is `_simplify` output: its relators are cyclically reduced, nonempty,
    pairwise inequivalent and in `memo`, and no generator occurs once in any
    of them. So a pass over the neighbour keeps every other relator, except
    one equivalent to r after it, and finds a generator to eliminate only
    in r. Only relators of r's length can be equivalent to it, so the
    duplicate test walks their bucket alone.

    Returns (c, None) when the neighbour is *plain*: r's cyclic core c is
    nonempty, equivalent to no other relator and holds no generator once.
    Then the neighbour is rels with relator i replaced by c, of the node's
    generators and relator count, and is left to the caller to build.
    Otherwise returns (None, neighbour)."""
    if r and r[0] == flip[ord(r[-1])]:
        r = cyclic_core(r, flip)
    if not r:
        return None, (gens, rels[:i] + rels[i + 1:])
    info = memo.get(r)
    if info is None:
        info = memo[r] = (r + r, inverse(r, flip), _single_generators(r, flip))
    doubled, r_inv, ones = info
    for k, kk in index.get(len(doubled), ()):
        if k != i and (r in kk or r_inv in kk):
            # the first relator of a class is kept; r, like relator k,
            # has no generator occurring once
            if k < i:
                return None, (gens, rels[:i] + rels[i + 1:])
            return None, (gens, rels[:i] + (r,) + rels[i + 1:k] + rels[k + 1:])
    if not ones:
        return r, None
    return None, _simplify(*_eliminate_generator(
        gens, rels[:i] + (r,) + rels[i + 1:], min(ones), i, flip), memo, flip)


def simplify(P):
    """Greedy verified simplification: cyclically reduce relators, drop
    empty and cyclically-duplicate relators, eliminate generators that
    occur exactly once in some relator. Deterministic."""
    rels, flip = _relator_texts(P)
    return _presentation(*_simplify(P.generators, rels, {}, flip))


def _node_key(gens, rels, chunks):
    """(generator names, relator chunks) of a node, which orders and compares
    as its `serialize_presentation` text. Chunks are cached in `chunks` on
    (generator names, encoded relator), as elimination renames codes.
    Names match [A-Za-z][A-Za-z0-9_]*; a chunk is a bare syllable or one
    parenthesised group whose only ")" is its last character. Where a name
    or chunk is a proper prefix of its counterpart, the text goes on with
    " " or "\n" after the shorter and with one of [A-Za-z0-9_^-], which all
    sort above both, in the longer. Where one tuple of names or chunks is a
    prefix of the other, "\n" follows the shorter and " " the longer, and
    "\n" < " ". The text also determines the tuple."""
    return gens, tuple(_chunk(gens, r, chunks) for r in rels)


def _chunk(gens, r, chunks):
    """Relator r's chunk, formatted once per (generator names, r)."""
    chunk = chunks.get((gens, r))
    if chunk is None:
        chunk = chunks[gens, r] = _relator_chunk(r, gens)
    return chunk


def _settling(gens, r, other, chunks):
    """Relator r's chunk, or its lead (`_chunk_lead`, a prefix of it) when
    that alone orders it against the chunk `other`: when `other` does not
    start with the lead, either the two differ inside the lead or `other`
    is a proper prefix of it, and in both cases the lead orders against
    `other` as the whole chunk does. So the result equals `other` exactly
    when r's chunk does. A chunk not yet cached is formatted only when its
    lead does not settle it."""
    chunk = chunks.get((gens, r))
    if chunk is None:
        lead = _chunk_lead(r, gens)
        if not other.startswith(lead):
            return lead
        chunk = _chunk(gens, r, chunks)
    return chunk


def _precedes(gens, rels, key, chunks):
    """Whether `_node_key(gens, rels, chunks) < key`, formatting chunks only
    up to the first one that differs from key's, and that one only when its
    lead does not settle it (`_settling`)."""
    if gens != key[0]:
        return gens < key[0]
    for r, other in zip(rels, key[1]):
        text = _settling(gens, r, other, chunks)
        if text != other:
            return text < other
    return len(rels) < len(key[1])


def _first_difference(gens, rels, key, chunks):
    """The first chunk index at which the node (gens, rels) differs from
    `key`: -1 when their generator names or relator counts differ, and
    len(rels) when the node's key is `key`. Chunks are compared as in
    `_precedes`."""
    if gens != key[0] or len(rels) != len(key[1]):
        return -1
    for m, (r, other) in enumerate(zip(rels, key[1])):
        if _settling(gens, r, other, chunks) != other:
            return m
    return len(rels)


def _plain_precedes(gens, rels, i, r, p, key, chunks):
    """Whether the plain neighbour of the node (gens, rels) that has relator
    i replaced by r precedes the best, of key `key`, in the search's order:
    higher deficiency first, then `_node_key`. The node must not precede
    the best, and p is its `_first_difference` with `key`. The neighbour
    keeps the node's names and relator count, so it loses when p = -1: the
    node has a lower deficiency, or the best's and later names. Otherwise
    the node has the best's chunks before p and a later one at p, unless
    p = len(rels). So the neighbour loses when p < i, and else its chunk i
    settles it against the best's, except when the two are equal at p == i:
    then the node's chunks after i decide (`_precedes`)."""
    if p < i:
        return False
    other = key[1][i]
    text = _settling(gens, r, other, chunks)
    if text != other:
        return text < other
    return p == i and _precedes(gens, rels[:i] + (r,) + rels[i + 1:], key, chunks)


@dataclass(frozen=True)
class SearchResult:
    best: Presentation
    deficiency: int
    exhausted: bool
    visited: int


def deficiency_search(P, budget):
    """Bounded breadth-first search over verified Tietze moves for a
    presentation of maximal deficiency. The result is a certified lower
    bound for the group's deficiency; `exhausted` reports whether the
    budget cut the search short.

    The search starts from simplify(P). Each node is expanded by the moves
    r_i -> r_i * r_j^s (i != j, s = 1 then -1), each result simplified;
    since the node is already simplified, only the new relator r_i is
    checked (`_neighbour`), which is cheap enough that a neighbour met
    again is simplified again rather than remembered. Its duplicate test
    reads an index of the node's relators by doubled length
    (`_length_index`), built once per node, and walks only the bucket of
    the new relator's length. A node is identified by its generators and
    its relators' encoded text (`Word.text`), which the search multiplies,
    inverts, reduces and deduplicates with the str functions of `words`.

    What the search stores is bounded by `budget`: breadth-first order pops
    only the first `budget` nodes it enqueues, so `seen` and the queue take
    at most `budget` nodes, and every node stored is popped. A neighbour
    not in `seen` once it is full is still compared with the best, and it
    sets `exhausted`: it would be node budget + 1. `visited` is the number
    of nodes popped, min(budget, nodes reached). A node of k relators
    builds 2k(k - 1) neighbours, so a search builds about budget * 2k^2.

    Among the nodes of highest deficiency, the one with the least
    serialized text (`serialize_presentation`) is returned. The best is
    held as its (generator names, relator chunks) key (`_node_key`), which
    orders as that text does; a tie compares the names, then the chunks in
    turn, and settles at the first that differs (`_precedes`), formatting
    no chunk past it. A chunk whose leading syllable already settles the
    comparison is not formatted at all; most ties end there. Chunks are
    cached for the search, no text is joined, and only the returned best
    is made into a `Presentation`, after the search.

    Once `exhausted` is set, `seen` is full and a neighbour can only
    replace the best. One met before cannot: it was compared with the best
    when first met, the best only gets better, and a tie must strictly
    precede it. So `seen` is no longer read, and a plain neighbour
    (`_neighbour`) is settled without being built (`_plain_precedes`), from
    its node's first difference with the best, found once per node and
    again after each change of the best. Only one that replaces the best
    is built."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    rels, flip = _relator_texts(P)  # one table serves the whole search
    memo = {}
    chunks = {}
    start = _simplify(P.generators, rels, memo, flip)
    best_node = start
    best_deficiency = len(start[0]) - len(start[1])
    best_key = _node_key(*start, chunks)
    seen = {start}
    queue = deque([start])
    visited = 0
    exhausted = False
    while queue:
        gens, rels = queue.popleft()
        visited += 1
        index = _length_index(rels, memo)  # every node relator is in memo
        factors = [(w, memo[w][1]) for w in rels]
        p = None  # the node's `_first_difference` with the best, once needed
        for i, (w, w_inv) in enumerate(factors):
            for j, pair in enumerate(factors):
                if i == j:
                    continue
                for f in pair:
                    r, node = _neighbour(gens, rels, i, product(w, w_inv, f),
                                         memo, flip, index)
                    if node is None:
                        if exhausted:
                            if p is None:
                                p = _first_difference(gens, rels, best_key, chunks)
                            if not _plain_precedes(gens, rels, i, r, p,
                                                   best_key, chunks):
                                continue
                        node = gens, rels[:i] + (r,) + rels[i + 1:]
                    if not exhausted:
                        if node in seen:
                            continue
                        if len(seen) < budget:
                            seen.add(node)
                            queue.append(node)
                        else:
                            exhausted = True
                    d = len(node[0]) - len(node[1])
                    if d > best_deficiency or (
                            d == best_deficiency and _precedes(*node, best_key, chunks)):
                        best_node, best_deficiency = node, d
                        best_key = _node_key(*node, chunks)
                        p = None
    return SearchResult(_presentation(*best_node), best_deficiency, exhausted, visited)


def subpresentation(P, gen_indices, rel_indices):
    """Extract the sub-presentation on the given generator/relator index
    sets; raises NotASubpresentation when a chosen relator uses a
    non-chosen generator."""
    gen_indices = sorted(set(gen_indices))
    rel_indices = sorted(set(rel_indices))
    for i in gen_indices:
        if not 0 <= i < P.num_generators:
            raise IndexError(f"generator index {i} out of range")
    for i in rel_indices:
        if not 0 <= i < P.num_relators:
            raise IndexError(f"relator index {i} out of range")
    # renumbering generators keeps a word freely reduced
    codes = {2 * g + b: 2 * k + b for k, g in enumerate(gen_indices) for b in (0, 1)}
    rels = []
    for i in rel_indices:
        text = P.relators[i].text
        for c in map(ord, text):
            if c not in codes:
                raise NotASubpresentation(
                    f"relator {i} uses generator {P.generators[c >> 1]!r} "
                    "outside the sub-presentation")
        rels.append(Word._reduced(text.translate(codes)))
    gens = tuple(P.generators[i] for i in gen_indices)
    return Presentation(gens, tuple(rels))


@dataclass(frozen=True)
class ExtensionResult:
    presentation: Presentation
    lifting_verified: bool
    notes: tuple


def replace_subpresentation(P, sub_gens, sub_rels, alternative, lifting,
                            max_cosets=DEFAULT_MAX_COSETS):
    """Rebuild a presentation of P's group from an alternative presentation
    of a sub-presentation's group.

    `lifting` maps each sub-presentation generator index (an index into P's
    generators) to a Word over `alternative`'s generators, such that the
    sub-presentation's relators become trivial in the alternative group.
    The output has |alternative.gens| + (n - n') generators and
    |alternative.rels| + (m - m') relators: kept generators stay, every
    other relator of P is rewritten through the lifting.

    The lifting is verified by coset enumeration when the alternative group
    enumerates within `max_cosets`; otherwise it is accepted caller-asserted
    and recorded in the notes.
    """
    subpresentation(P, sub_gens, sub_rels)  # validates
    sub_rels = set(sub_rels)
    if set(lifting) != set(sub_gens):
        raise ValueError("lifting must cover exactly the sub-presentation generators")
    u = alternative.num_generators
    for w in lifting.values():
        if w.max_generator() >= u:
            raise ValueError("lifting word uses unknown generators of the alternative")

    notes = []
    verified = False
    try:
        model = group_model(alternative, max_cosets)
    except NotFinitelyEnumerated:
        notes.append("lifting accepted caller-asserted: alternative group "
                     "did not enumerate within the coset limit")
    else:
        for i in sorted(sub_rels):
            # sub-relators use only sub-generators (validated above)
            image = P.relators[i].substituted(lifting)
            if model.evaluate_word(image) != 0:
                raise LiftingViolatesRelator(
                    f"relator {i} does not hold in the alternative group")
        verified = True

    kept = [g for g in range(P.num_generators) if g not in lifting]
    names = list(alternative.generators)
    for g in kept:
        name = P.generators[g]
        while name in names:
            name += "_"
        names.append(name)
    images = dict(lifting)
    images.update((g, Word.generator(u + k)) for k, g in enumerate(kept))
    rels = list(alternative.relators)
    rels += [r.substituted(images) for i, r in enumerate(P.relators)
             if i not in sub_rels]
    result = Presentation(tuple(names), tuple(rels))
    return ExtensionResult(result, verified, tuple(notes))
