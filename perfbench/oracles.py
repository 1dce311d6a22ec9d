"""Output checks for the benchmark jobs.

Each check compares a job's output with something the timed call did not
produce: the corpus sidecars, a re-multiplication of the certificate through
integer matrices, a coefficient-wise comparison of complexes, or a coset
table walked relator by relator. Checks run outside the timed region.
"""

from __future__ import annotations


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


# --- corpus-report ---------------------------------------------------------

# Fields that are properties of the group, so every presentation of it
# (the corpus file and its seeded variant) must report the sidecar value.
GROUP_FIELDS = ("order", "h1", "perfect", "mu2_lower")
# The group fields that follow from a certified order.
ORDER_FIELDS = ("order", "mu2_lower")

# `analyze --format json` writes these placeholders where the sidecar has null.
_PLACEHOLDERS = {"order": "unknown", "d2n_upper": "n/a"}


def normalized_report(report):
    out = dict(report)
    for key, placeholder in _PLACEHOLDERS.items():
        if out.get(key) == placeholder:
            out[key] = None
    return out


def check_analysis(report, expected, exact):
    """With `exact`, every sidecar field must match. Otherwise the group
    fields must match, except that a variant whose order stayed unknown for
    a finite group is "unresolved" and only its order-free fields are
    compared. Returns "ok" or "unresolved"; raises CheckFailed on any
    mismatch."""
    got = normalized_report(report)
    unresolved = (not exact and expected.get("order") is not None
                  and got.get("order") is None)
    keys = expected if exact else GROUP_FIELDS
    if unresolved:
        keys = [k for k in keys if k not in ORDER_FIELDS]
    for key in keys:
        expect(key in got, f"{key}: missing from output")
        expect(got[key] == expected[key],
               f"{key}: expected {expected[key]!r}, got {got[key]!r}")
    expect(got["mu2_lower"] <= got["mu2_upper"],
           f"mu2_lower {got['mu2_lower']} > mu2_upper {got['mu2_upper']}")
    expect(got["def_found"] >= got["def_given"],
           f"def_found {got['def_found']} < def_given {got['def_given']}")
    return "unresolved" if unresolved else "ok"


# --- certify-pairs ---------------------------------------------------------

def check_certificate(d2, cert, F, G):
    """Re-check every chain-map and homotopy identity of `cert` through the
    regular representation: expand(M o N) = expand(M) * expand(N), so each
    ZG identity becomes an IntMatrix product identity."""
    expect(cert.verify(F, G), "certificate.verify(F, G) is false")
    expand = d2.groupring.regular_rep_expand
    identity = d2.intlinalg.IntMatrix.identity
    n = F.model.order
    f0, f1, f2 = (expand(m) for m in cert.forward)
    g0, g1, g2 = (expand(m) for m in cert.backward)
    h0, h1 = (expand(m) for m in cert.homotopies_gf)
    k0, k1 = (expand(m) for m in cert.homotopies_fg)
    dF1, dF2 = expand(F.boundary(1)), expand(F.boundary(2))
    dG1, dG2 = expand(G.boundary(1)), expand(G.boundary(2))
    IF = [identity(r * n) for r in F.ranks]
    IG = [identity(r * n) for r in G.ranks]
    identities = (
        ("dG1 f1 = f0 dF1", dG1 * f1, f0 * dF1),
        ("dG2 f2 = f1 dF2", dG2 * f2, f1 * dF2),
        ("dF1 g1 = g0 dG1", dF1 * g1, g0 * dG1),
        ("dF2 g2 = g1 dG2", dF2 * g2, g1 * dG2),
        ("g0 f0 - 1 = dF1 h0", g0 * f0 - IF[0], dF1 * h0),
        ("g1 f1 - 1 = h0 dF1 + dF2 h1", g1 * f1 - IF[1], h0 * dF1 + dF2 * h1),
        ("g2 f2 - 1 = h1 dF2", g2 * f2 - IF[2], h1 * dF2),
        ("f0 g0 - 1 = dG1 k0", f0 * g0 - IG[0], dG1 * k0),
        ("f1 g1 - 1 = k0 dG1 + dG2 k1", f1 * g1 - IG[1], k0 * dG1 + dG2 * k1),
        ("f2 g2 - 1 = k1 dG2", f2 * g2 - IG[2], k1 * dG2),
    )
    for label, lhs, rhs in identities:
        expect(lhs == rhs, f"identity fails after expansion: {label}")
    for name, m in (("f0", cert.forward[0]), ("g0", cert.backward[0])):
        for j in range(m.cols):
            aug = sum(sum(m.entry(i, j).coeffs) for i in range(m.rows))
            expect(aug == 1, f"{name} column {j} has augmentation {aug}, not 1")


# --- exact-complex ---------------------------------------------------------

def _coeff_rows(M):
    return [[tuple(M.entry(i, j).coeffs) for j in range(M.cols)]
            for i in range(M.rows)]


def check_same_boundaries(got, want, label):
    expect(len(got) == len(want), f"{label}: {len(got)} boundaries, "
                                  f"expected {len(want)}")
    for i, (a, b) in enumerate(zip(got, want), start=1):
        expect((a.rows, a.cols) == (b.rows, b.cols),
               f"{label}: d{i} is {a.rows}x{a.cols}, expected {b.rows}x{b.cols}")
        expect(_coeff_rows(a) == _coeff_rows(b), f"{label}: d{i} entries differ")


def check_same_complex(got, want, label):
    expect(got.ranks == want.ranks, f"{label}: ranks {got.ranks} != {want.ranks}")
    expect(got.model.mult == want.model.mult,
           f"{label}: multiplication tables differ")
    expect(got.model.generator_images == want.model.generator_images,
           f"{label}: generator images differ")
    check_same_boundaries(got.boundaries, want.boundaries, label)


# --- coset-large -----------------------------------------------------------

def check_coset_table(rows, relators, ngens, order):
    """Every entry is a coset, each generator column is inverted by its
    inverse column, and every relator closes at every coset."""
    expect(len(rows) == order, f"table has {len(rows)} rows, expected {order}")
    ncols = 2 * ngens
    for a, row in enumerate(rows):
        expect(len(row) == ncols, f"row {a} has {len(row)} columns")
        for c, b in enumerate(row):
            expect(0 <= b < order, f"entry ({a},{c}) = {b} out of range")
            expect(rows[b][c ^ 1] == a, f"column {c ^ 1} does not invert "
                                        f"column {c} at coset {a}")
    paths = [[2 * g + (0 if s > 0 else 1) for g, s in r] for r in relators]
    for a in range(order):
        for k, path in enumerate(paths):
            e = a
            for c in path:
                e = rows[e][c]
            expect(e == a, f"relator {k} does not close at coset {a}")
