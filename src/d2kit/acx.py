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
with zeros omitted; a zero entry is simply absent.
"""

from __future__ import annotations

from .chains import AlgebraicComplex
from .coset import FiniteGroupModel
from .groupring import GroupRingElement, GroupRingMatrix
from .intlinalg import IntMatrix
from .presentations import parse_presentation, serialize_presentation


# Largest boundary `loads` accepts, in ZG coefficients: rows * cols * |G|
# (|G| = 1 in symbolic mode, and an empty side counts as 1). It bounds what
# is allocated before a boundary line is read. d2kit's own complexes stay far
# below it: the wedged PSL(2,7) complexes have under 2 000.
MAX_BOUNDARY_COEFFS = 1_000_000


class AcxError(ValueError):
    pass


def dumps(F):
    lines = ["# d2kit algebraic complex v1", "[group]"]
    if F.finite_mode:
        m = F.model
        lines.append("mode: finite")
        lines.append(f"order: {m.order}")
        lines.append("multtable:")
        for row in m.mult:
            lines.append(" ".join(str(x) for x in row))
        lines.append("generators: " + " ".join(str(x) for x in m.generator_images))
    else:
        lines.append("mode: symbolic")
    if F.presentation is not None:
        lines.append("[presentation]")
        lines.extend(serialize_presentation(F.presentation).rstrip("\n").splitlines())
    lines.append("[ranks]")
    lines.append(" ".join(str(r) for r in F.ranks))
    for i in range(1, F.top_degree + 1):
        lines.append(f"[d{i}]")
        d = F.boundary(i)
        for r in range(d.rows):
            for c in range(d.cols):
                if F.finite_mode:
                    pairs = d.entry(r, c).to_pairs()
                    if pairs:
                        body = " ".join(f"{idx}:{coeff}" for idx, coeff in pairs)
                        lines.append(f"{r} {c} {body}")
                else:
                    v = d.entry(r, c)
                    if v:
                        lines.append(f"{r} {c} {v}")
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
    glines = sec["[group]"]
    fields = {}
    mult_rows = []
    in_table = False
    for line in glines:
        if in_table and ":" not in line:
            mult_rows.append([int(x) for x in line.split()])
            continue
        in_table = False
        key, _, value = line.partition(":")
        key = key.strip()
        fields[key] = value.strip()
        if key == "multtable":
            in_table = True
    mode = fields.get("mode")
    if mode not in ("finite", "symbolic"):
        raise AcxError(f"bad mode {mode!r}")
    presentation = None
    if "[presentation]" in sec:
        presentation = parse_presentation("\n".join(sec["[presentation]"]) + "\n")
    if not sec["[ranks]"]:
        raise AcxError("empty [ranks] section")
    ranks = tuple(int(x) for x in sec["[ranks]"][0].split())
    if any(r < 0 for r in ranks):
        raise AcxError(f"negative rank in [ranks]: {sec['[ranks]'][0].strip()}")
    model = None
    if mode == "finite":
        if "order" not in fields:
            raise AcxError("finite [group] section lacks an order")
        order = int(fields["order"])
        if len(mult_rows) != order or any(len(r) != order for r in mult_rows):
            raise AcxError("multiplication table has the wrong shape")
        mult = tuple(tuple(x) for x in mult_rows)
        gens = tuple(_index(x, order, "generator")
                     for x in fields.get("generators", "").split())
        _check_group(mult, gens)
        inverse = tuple(row.index(0) for row in mult)
        model = FiniteGroupModel(order, mult, inverse, gens)
    elif presentation is None:
        raise AcxError("symbolic mode requires a [presentation] section")
    boundaries = []
    group_order = model.order if model else 1
    for i in range(1, len(ranks)):
        key = f"[d{i}]"
        rows, cols = ranks[i - 1], ranks[i]
        if max(rows, 1) * max(cols, 1) * group_order > MAX_BOUNDARY_COEFFS:
            raise AcxError(f"{key} of {rows}x{cols} entries over a group of "
                           f"order {group_order} exceeds "
                           f"{MAX_BOUNDARY_COEFFS} coefficients")
        body = sec.get(key, [])
        if mode == "finite":
            zero = GroupRingElement.zero(model)
            entries = [[zero] * cols for _ in range(rows)]
            for line in body:
                parts = line.split()
                if len(parts) < 2:
                    raise AcxError(f"{key} line {line!r} lacks a row and column")
                r = _index(parts[0], rows, "row")
                c = _index(parts[1], cols, "column")
                pairs = []
                for p in parts[2:]:
                    idx, _, coeff = p.partition(":")
                    pairs.append((_index(idx, order, "element"), int(coeff)))
                entries[r][c] = GroupRingElement.from_pairs(model, pairs)
            boundaries.append(GroupRingMatrix.from_rows(model, entries)
                              if rows else GroupRingMatrix(model, 0, cols, []))
        else:
            entries = [[0] * cols for _ in range(rows)]
            for line in body:
                r, c, v = line.split()
                entries[_index(r, rows, "row")][_index(c, cols, "column")] = int(v)
            boundaries.append(IntMatrix(rows, cols,
                                        [x for row in entries for x in row]))
    return AlgebraicComplex(ranks, model, tuple(boundaries), presentation)


def read_acx(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
