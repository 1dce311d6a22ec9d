"""Textual .acx serialization of algebraic complexes.

Layout (sections in fixed order, deterministic output)::

    # d2kit algebraic complex v1
    [group]
    mode: finite            | mode: symbolic
    order: 5                (finite)
    multtable:              (finite; `order` rows of `order` indices)
    0 1 2 3 4
    ...
    generators: 1           (finite; generator image indices, may be empty)
    [presentation]          (optional; required in symbolic mode)
    gens: x
    rels: x^5
    [ranks]
    1 1 1
    [d1]
    0 0 0:-1 1:1            (finite: `i j` then sparse index:coeff pairs)
    [d2]
    0 0 2                   (symbolic: `i j coeff`, zeros omitted)

Group-ring entries serialize as sorted (element index, coefficient) pairs
with zeros omitted; a zero entry is simply absent. A symbolic boundary is a
matrix over the one-element group (`chains.ONE_ELEMENT`), so its entries
are written as their single coefficient. `loads` rejects what it
would otherwise ignore: a section other than these (or a [dN] above the top
degree), a second [ranks] line, and an unknown or repeated [group] key.
"""

from __future__ import annotations

from .chains import ONE_ELEMENT, AlgebraicComplex
from .coset import MAX_EXPANDED_CELLS, FiniteGroupModel
from .groupring import GroupRingMatrix
from .intlinalg import IntMatrix
from .presentations import parse_presentation, serialize_presentation


# Largest boundary `loads` accepts, in ZG coefficients: rows * cols * |G|
# (|G| = 1 in symbolic mode, and an empty side counts as 1). It bounds what
# is allocated before a boundary line is read. Each rank f must also keep
# f * f * |G| under it, since splitting, quotienting and certifying build
# f x f matrices over ZG. d2kit's own complexes stay far below it: the
# wedged PSL(2,7) complexes have under 5 000.
MAX_BOUNDARY_COEFFS = 1_000_000


# The keys of a [group] section; symbolic mode has only `mode`.
GROUP_KEYS = ("mode", "order", "multtable", "generators")


class AcxError(ValueError):
    pass


def check_ranks(ranks, group_order):
    """Raise AcxError unless a complex with these ranks over a group of this
    order (1 in symbolic mode) stays under MAX_BOUNDARY_COEFFS and, expanded
    over Z, under MAX_EXPANDED_CELLS: each boundary and each f x f matrix
    on a rank f. The coefficient checks come first."""
    over = f"over a group of order {group_order}"
    sizes = [(f"[d{i}] of {ranks[i - 1]}x{ranks[i]} entries {over}",
              max(ranks[i - 1], 1) * max(ranks[i], 1)) for i in range(1, len(ranks))]
    sizes += [(f"rank {f} of F_{i} {over}: a {f}x{f} matrix", f * f)
              for i, f in enumerate(ranks)]
    for what, entries in sizes:
        if entries * group_order > MAX_BOUNDARY_COEFFS:
            raise AcxError(f"{what} exceeds {MAX_BOUNDARY_COEFFS} coefficients")
    for what, entries in sizes:
        if max(entries, 1) * group_order ** 2 > MAX_EXPANDED_CELLS:
            raise AcxError(f"{what} expands to more than {MAX_EXPANDED_CELLS} "
                           "integer cells")


def dumps(F):
    lines = ["# d2kit algebraic complex v1", "[group]"]
    if F.finite_mode:
        lines += ["mode: finite", f"order: {F.model.order}", "multtable:"]
        # entries are element indices, so each is formatted once here
        names = [str(x) for x in range(F.model.order)]
        lines += [" ".join([names[x] for x in row]) for row in F.model.mult]
        lines.append("generators: " + " ".join(str(x) for x in F.model.generator_images))
    else:
        lines.append("mode: symbolic")
    if F.presentation is not None:
        lines.append("[presentation]")
        lines.extend(serialize_presentation(F.presentation).rstrip("\n").splitlines())
    lines += ["[ranks]", " ".join(map(str, F.ranks))]
    for i, d in enumerate(F.boundaries, start=1):
        lines.append(f"[d{i}]")
        _write_block(lines, d, F.finite_mode)
    return "\n".join(lines) + "\n"


def write_acx(F, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(F))


def _sections(text):
    out = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.startswith("["):
            current = line.strip()
            if current in out:
                raise AcxError(f"duplicate section {current}")
            out[current] = []
        else:
            if current is None:
                raise AcxError("content before first section")
            out[current].append(line)
    return out


def _index(text, bound, what):
    i = int(text)
    if not 0 <= i < bound:
        raise AcxError(f"{what} index {i} out of range for size {bound}")
    return i


def _write_block(lines, d, finite):
    """Append the entry lines of boundary d from its flat coefficient matrix
    d.vec (n = |G|, 1 in symbolic mode): row r*n + t, column c holds the
    coefficient of element t in entry (r, c). Only the entry syntax depends
    on the mode: `r c t:a ...` or `r c a`."""
    flat, n = d.vec, d.model.order
    for r in range(d.rows):
        for c, coeffs in enumerate(zip(*(flat.row(r * n + t) for t in range(n)))):
            if any(coeffs):
                terms = (" ".join(f"{t}:{a}" for t, a in enumerate(coeffs) if a)
                         if finite else coeffs[0])
                lines.append(f"{r} {c} {terms}")


def _read_block(key, body, rows, cols, ring, finite):
    """The boundary over `ring` of section `key` from its lines: the inverse
    of _write_block. An entry may be given once, and its `t:a` pairs add
    up."""
    n = ring.order
    vec = [0] * (rows * n * cols)
    seen = set()
    for line in body:
        parts = line.split()
        if finite and len(parts) < 2:
            raise AcxError(f"{key} line {line!r} lacks a row and column")
        if not finite and len(parts) != 3:
            raise AcxError(f"{key} line {line!r} is not a row, a column "
                           "and a coefficient")
        rc = (_index(parts[0], rows, "row"), _index(parts[1], cols, "column"))
        if rc in seen:
            raise AcxError(f"{key} line {line!r} repeats entry {rc[0]} {rc[1]}")
        seen.add(rc)
        coeffs = [0] * n
        for p in parts[2:]:
            # a symbolic coefficient is that of the identity, element 0
            idx, _, coeff = p.partition(":") if finite else ("0", "", p)
            coeffs[_index(idx, n, "element")] += int(coeff)
        vec[rc[0] * n * cols + rc[1]:(rc[0] + 1) * n * cols:cols] = coeffs
    return GroupRingMatrix._raw(ring, rows, cols,
                                IntMatrix._raw(rows * n, cols, tuple(vec)))


def _check_group(mult, gens):
    """Raise AcxError unless `mult` is the table of a group with identity 0.

    Element 0 must be a two-sided identity and every row and column a
    permutation. Associativity is Light's test: the elements a with
    (x a) y = x (a y) for all x, y are closed under products, so it
    suffices to test a set whose right products reach every element. That
    set is grown from the generator images, adding the least element not
    yet reached, so the cost is O(k n^2) for k tested elements."""
    n = len(mult)
    if n == 0:
        raise AcxError("multiplication table is empty")
    elements = set(range(n))
    for what, lines in (("row", mult), ("column", zip(*mult))):
        for i, line in enumerate(lines):
            if set(line) != elements:
                raise AcxError(f"multiplication table {what} {i} "
                               "is not a permutation")
    if mult[0] != tuple(range(n)) or any(row[0] != i for i, row in enumerate(mult)):
        raise AcxError("element 0 is not the identity of the table")
    reached = [True] + [False] * (n - 1)
    members = [0]
    tested = []
    for a in gens + tuple(range(n)):
        if len(members) == n:
            break
        if reached[a]:
            continue
        right = mult[a]
        for x in range(n):
            xa = mult[x][a]
            if tuple(map(mult[x].__getitem__, right)) != mult[xa]:
                y = next(y for y in range(n) if mult[xa][y] != mult[x][right[y]])
                raise AcxError("multiplication table is not associative: "
                               f"({x}*{a})*{y} != {x}*({a}*{y})")
        tested.append(a)
        todo = [mult[x][a] for x in members]
        while todo:
            x = todo.pop()
            if not reached[x]:
                reached[x] = True
                members.append(x)
                todo.extend(mult[x][t] for t in tested)


def loads(text):
    sec = _sections(text)
    if "[group]" not in sec or "[ranks]" not in sec:
        raise AcxError("missing [group] or [ranks] section")
    fields = {}
    table = []  # kept as text until the ranks are checked against the order
    in_table = False
    for line in sec["[group]"]:
        if in_table and ":" not in line:
            # a row that is not plain digits is converted now, so that a bad
            # entry is reported before the [ranks] and later [group] checks
            if not line.replace(" ", "").isdecimal():
                [int(x) for x in line.split()]
            table.append(line)
            continue
        key, colon, value = line.partition(":")
        key = key.strip()
        if not colon or key not in GROUP_KEYS:
            raise AcxError(f"[group] line {line.strip()!r} is not a "
                           f"{'/'.join(GROUP_KEYS)} key")
        if key in fields:
            raise AcxError(f"[group] key {key} is repeated")
        fields[key] = value.strip()
        in_table = key == "multtable"
    mode = fields.get("mode")
    if mode not in ("finite", "symbolic"):
        raise AcxError(f"bad mode {mode!r}")
    if mode == "symbolic" and len(fields) > 1:
        raise AcxError("symbolic [group] section has keys other than mode")
    presentation = None
    if "[presentation]" in sec:
        presentation = parse_presentation("\n".join(sec["[presentation]"]) + "\n")
    if not sec["[ranks]"]:
        raise AcxError("empty [ranks] section")
    if len(sec["[ranks]"]) > 1:
        raise AcxError("[ranks] section has more than one line")
    ranks = tuple(int(x) for x in sec["[ranks]"][0].split())
    if any(r < 0 for r in ranks):
        raise AcxError(f"negative rank in [ranks]: {sec['[ranks]'][0].strip()}")
    if mode == "symbolic" and presentation is None:
        raise AcxError("symbolic mode requires a [presentation] section")
    if mode == "finite" and "order" not in fields:
        raise AcxError("finite [group] section lacks an order")
    order = int(fields.get("order", 1))
    check_ranks(ranks, order)
    model = None
    if mode == "finite":
        mult = tuple(tuple(map(int, line.split())) for line in table)
        if len(mult) != order or any(len(row) != order for row in mult):
            raise AcxError("multiplication table has the wrong shape")
        gens = tuple(_index(x, order, "generator")
                     for x in fields.get("generators", "").split())
        _check_group(mult, gens)
        inverse = tuple(row.index(0) for row in mult)
        model = FiniteGroupModel(order, mult, inverse, gens)
    known = {"[group]", "[presentation]", "[ranks]"}
    known.update(f"[d{i}]" for i in range(1, len(ranks)))
    for name in sec:
        if name not in known:
            raise AcxError(f"unknown section {name} in a complex of top "
                           f"degree {len(ranks) - 1}")
    boundaries = tuple(
        _read_block(f"[d{i}]", sec.get(f"[d{i}]", []), ranks[i - 1], ranks[i],
                    model or ONE_ELEMENT, mode == "finite")
        for i in range(1, len(ranks)))
    return AlgebraicComplex(ranks, model, boundaries, presentation)


def read_acx(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
