"""Tietze transformations, presentation simplification, deficiency search,
and rebuilding a presentation on an alternative presentation of a
sub-presentation's group.

A move is *verified* when its validity is checkable from the data it
carries: added relators carry a derivation (a product of conjugates of
existing relators), generator moves carry their defining words. Applying a
verified move never changes the presented group.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from .coset import DEFAULT_MAX_COSETS, NotFinitelyEnumerated, group_model
from .presentations import Presentation, deficiency, serialize_presentation
from .words import Word, reduce_letters


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
    """The Presentation of a (generators, reduced relator letters) pair."""
    return Presentation(gens, tuple(Word._reduced(r) for r in rels))


def _eliminate_generator(gens, rels, gen, i):
    """Solve relator `i`, in which generator `gen` occurs exactly once, for
    `gen`, substitute the solution into the other relators and drop `gen`,
    reindexing the later generators down by one. Works on reduced letter
    tuples."""
    r = rels[i]
    pos = next(k for k, (g, _) in enumerate(r) if g == gen)
    # r = u gen^s v, so gen = (u^-1 v^-1)^s = (v u)^-s
    vu = Word(r[pos + 1:] + r[:pos])
    solved = vu.inverse() if r[pos][1] > 0 else vu
    images = {}
    for s, w in ((1, solved), (-1, solved.inverse())):
        images[s] = tuple((g - 1 if g > gen else g, t) for g, t in w.letters)
    out = []
    for k, w in enumerate(rels):
        if k == i:
            continue
        letters = []
        for g, s in w:
            if g == gen:
                letters.extend(images[s])
            else:
                letters.append((g - 1 if g > gen else g, s))
        out.append(reduce_letters(letters))
    return gens[:gen] + gens[gen + 1:], tuple(out)


def _single_occurrence_relator(P, gen):
    for i, r in enumerate(P.relators):
        if r.generator_count(gen) == 1:
            return i
    return None


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
        i = _single_occurrence_relator(P, gen)
        if i is None:
            raise InvalidMove("no relator with a single occurrence of the generator")
        return _presentation(*_eliminate_generator(
            P.generators, tuple(r.letters for r in P.relators), gen, i))
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


def _cyclic_form_key(letters):
    """Canonical key of a cyclically reduced relator up to cyclic rotation
    and inversion: the least rotation of its letters or of its inverse's."""
    inverse = Word._reduced(letters).inverse().letters
    return min(_least_rotation(letters), _least_rotation(inverse))


def _least_rotation(w):
    """Lexicographically least rotation of a nonempty tuple, in linear time
    (Booth's algorithm: a failure function over w + w)."""
    s = w + w
    fail = [-1] * len(s)
    k = 0  # start of the least rotation found so far
    for j in range(1, len(s)):
        x = s[j]
        i = fail[j - k - 1]
        while i != -1 and x != s[k + i + 1]:
            if x < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if x != s[k + i + 1]:  # here i == -1
            if x < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return w[k:] + w[:k]


def _simplify(gens, rels, memo):
    """`simplify` on (generator names, reduced relator letter tuples).
    `memo` maps a cyclically reduced relator's letters to its
    `_cyclic_form_key` and the set of generators occurring once in it."""
    while True:
        changed = False
        # cyclic reduction (relator -> conjugate core), then drop empties
        # and duplicates up to rotation/inversion
        seen = set()
        kept = []
        singles = []
        for r in rels:
            if r and r[0] == (r[-1][0], -r[-1][1]):
                r = Word._reduced(r).cyclically_reduced()[0].letters
                changed = True
            if not r:
                changed = True
                continue
            info = memo.get(r)
            if info is None:
                counts = Counter(g for g, _ in r)
                info = memo[r] = (_cyclic_form_key(r), frozenset(
                    g for g, n in counts.items() if n == 1))
            if info[0] in seen:
                changed = True
                continue
            seen.add(info[0])
            kept.append(r)
            singles.append(info[1])
        rels = tuple(kept)
        # generator elimination, lowest generator index first, solved from
        # the first relator it occurs once in
        gen = min(frozenset().union(*singles), default=None)
        if gen is not None:
            i = next(i for i, ones in enumerate(singles) if gen in ones)
            gens, rels = _eliminate_generator(gens, rels, gen, i)
            changed = True
        if not changed:
            return gens, rels


def simplify(P):
    """Greedy verified simplification: cyclically reduce relators, drop
    empty and cyclically-duplicate relators, eliminate generators that
    occur exactly once in some relator. Deterministic."""
    return _presentation(*_simplify(
        P.generators, tuple(r.letters for r in P.relators), {}))


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
    r_i -> r_i * r_j^s (i != j, s = 1 then -1), each result simplified.
    A node is identified by its generators and its freely reduced relator
    letters. Among the nodes of highest deficiency, the one with the least
    serialized text (`serialize_presentation`) is returned."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    memo = {}
    start = _simplify(P.generators, tuple(r.letters for r in P.relators), memo)
    best = _presentation(*start)
    best_deficiency = deficiency(best)
    best_text = serialize_presentation(best)
    seen = {start}
    generated = set()  # raw neighbours: simplify is deterministic
    queue = deque([start])
    visited = 0
    exhausted = False
    while queue:
        if visited >= budget:
            exhausted = True
            break
        gens, rels = queue.popleft()
        visited += 1
        factors = [(w, w.inverse()) for w in map(Word._reduced, rels)]
        for i, (w, _) in enumerate(factors):
            for j, pair in enumerate(factors):
                if i == j:
                    continue
                for f in pair:
                    raw = (gens, rels[:i] + ((w * f).letters,) + rels[i + 1:])
                    if raw in generated:
                        continue
                    generated.add(raw)
                    node = _simplify(*raw, memo)
                    if node in seen:
                        continue
                    seen.add(node)
                    queue.append(node)
                    d = len(node[0]) - len(node[1])
                    if d >= best_deficiency:
                        R = _presentation(*node)
                        text = serialize_presentation(R)
                        if d > best_deficiency or text < best_text:
                            best, best_deficiency, best_text = R, d, text
    return SearchResult(best, best_deficiency, exhausted, visited)


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
    reindex = {g: k for k, g in enumerate(gen_indices)}
    rels = []
    for i in rel_indices:
        r = P.relators[i]
        for g, _ in r.letters:
            if g not in reindex:
                raise NotASubpresentation(
                    f"relator {i} uses generator {P.generators[g]!r} "
                    "outside the sub-presentation")
        rels.append(Word([(reindex[g], s) for g, s in r.letters]))
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
    sub = subpresentation(P, sub_gens, sub_rels)  # validates
    sub_gens = sorted(set(sub_gens))
    sub_rels = sorted(set(sub_rels))
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
        images = {g: lifting[g] for g in sub_gens}
        for i in sub_rels:
            # sub-relators use only sub-generators (validated above)
            image = P.relators[i].substituted(images)
            if model.evaluate_word(image) != 0:
                raise LiftingViolatesRelator(
                    f"relator {i} does not hold in the alternative group")
        verified = True

    kept = [g for g in range(P.num_generators) if g not in set(sub_gens)]
    names = list(alternative.generators)
    kept_names = []
    for g in kept:
        name = P.generators[g]
        while name in names:
            name += "_"
        names.append(name)
        kept_names.append(name)
    index_of_kept = {g: u + k for k, g in enumerate(kept)}

    def phi(r):
        out = []
        for g, s in r.letters:
            if g in index_of_kept:
                out.append((index_of_kept[g], s))
            else:
                w = lifting[g]
                out.extend(w.letters if s > 0 else w.inverse().letters)
        return Word(out)

    rels = list(alternative.relators)
    for i, r in enumerate(P.relators):
        if i not in set(sub_rels):
            rels.append(phi(r))
    result = Presentation(tuple(names), tuple(rels))
    return ExtensionResult(result, verified, tuple(notes))
