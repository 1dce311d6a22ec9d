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
from .presentations import Presentation, deficiency, serialize_presentation
from .words import Word


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


def _substitute_generator(P, gen, replacement):
    """Replace generator `gen` by `replacement` (a word not using `gen`)
    and drop the generator, reindexing the later ones down by one."""
    images = {}
    for g in range(P.num_generators):
        if g == gen:
            images[g] = replacement
        else:
            images[g] = Word.generator(g)
    shift = {g: (g if g < gen else g - 1) for g in range(P.num_generators) if g != gen}
    new_relators = []
    for r in P.relators:
        w = r.substituted(images)
        new_relators.append(Word([(shift[g], s) for g, s in w.letters]))
    gens = tuple(n for i, n in enumerate(P.generators) if i != gen)
    return Presentation(gens, tuple(new_relators))


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
        r = P.relators[i]
        pos = next(k for k, (g, _) in enumerate(r.letters) if g == gen)
        u = Word(r.letters[:pos])
        v = Word(r.letters[pos + 1:])
        sign = r.letters[pos][1]
        solved = (u.inverse() * v.inverse()) ** sign  # gen = this word
        without = Presentation(P.generators,
                               tuple(w for k, w in enumerate(P.relators) if k != i))
        return _substitute_generator(without, gen, solved)
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


def _cyclic_form_key(w):
    """Canonical key identifying relators up to cyclic rotation and inversion."""
    core, _ = w.cyclically_reduced()
    letters = core.letters
    best = None
    for cand in (letters, core.inverse().letters):
        n = len(cand)
        for k in range(max(n, 1)):
            rot = cand[k:] + cand[:k]
            if best is None or rot < best:
                best = rot
    return best


def simplify(P):
    """Greedy verified simplification: cyclically reduce relators, drop
    empty and cyclically-duplicate relators, eliminate generators that
    occur exactly once in some relator. Deterministic."""
    while True:
        changed = False
        # cyclic reduction (relator -> conjugate core)
        new_relators = []
        for r in P.relators:
            core, _ = r.cyclically_reduced()
            if core != r:
                changed = True
            new_relators.append(core)
        # drop empties and duplicates up to rotation/inversion
        seen = set()
        kept = []
        for r in new_relators:
            if r.is_identity():
                changed = True
                continue
            key = _cyclic_form_key(r)
            if key in seen:
                changed = True
                continue
            seen.add(key)
            kept.append(r)
        P = Presentation(P.generators, tuple(kept))
        # generator elimination, lowest generator index first
        for gen in range(P.num_generators):
            if _single_occurrence_relator(P, gen) is not None:
                P = apply_move(P, RemoveGenerator(gen))
                changed = True
                break
        if not changed:
            return P


@dataclass(frozen=True)
class SearchResult:
    best: Presentation
    deficiency: int
    exhausted: bool
    visited: int


def _neighbors(P):
    """Relator-multiply variants r_i -> r_i * r_j^s, deterministic order."""
    out = []
    k = P.num_relators
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            for s in (1, -1):
                new = P.relators[i] * (P.relators[j] ** s)
                rels = list(P.relators)
                rels[i] = new
                out.append(Presentation(P.generators, tuple(rels)))
    return out


def _key(P):
    return serialize_presentation(P)


def deficiency_search(P, budget):
    """Bounded breadth-first search over verified Tietze moves for a
    presentation of maximal deficiency. The result is a certified lower
    bound for the group's deficiency; `exhausted` reports whether the
    budget cut the search short."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    start = simplify(P)
    best = start
    seen = {_key(start)}
    queue = deque([start])
    visited = 0
    exhausted = False
    while queue:
        if visited >= budget:
            exhausted = True
            break
        Q = queue.popleft()
        visited += 1
        for R in _neighbors(Q):
            R = simplify(R)
            key = _key(R)
            if key in seen:
                continue
            seen.add(key)
            queue.append(R)
            if deficiency(R) > deficiency(best) or (
                    deficiency(R) == deficiency(best) and key < _key(best)):
                best = R
    return SearchResult(best, deficiency(best), exhausted, visited)


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
