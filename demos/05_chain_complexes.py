"""Presentation complexes, wedges, 3-cells, splitting, quotients, and
chain-homotopy certificates: the full round trip.

Run:  python3 demos/05_chain_complexes.py
"""

from d2kit import (
    GroupRingElement,
    GroupRingMatrix,
    attach_three_cells,
    certify_chain_equivalence,
    euler_characteristic,
    group_model,
    homology_over_field,
    parse_presentation,
    presentation_complex,
    quotient_by_split_summand,
    split_test,
    stabilize_wedge,
    validate_complex,
)

z5p = parse_presentation("gens: x\nrels: x^5\n")
m = group_model(z5p, 100)
F = presentation_complex(z5p, m)
print("Z/5 presentation complex: ranks", F.ranks,
      "chi =", euler_characteristic(F))
print("d2 entry (the norm element):", F.boundary(2).entry(0, 0).to_pairs())
print("validation:", validate_complex(F))

# wedge a 2-sphere, attach the matching 3-cell, split, and collapse back
W = stabilize_wedge(F, 1)
print("\nafter one wedge: ranks", W.ranks, "chi =", euler_characteristic(W))
z, one = GroupRingElement.zero(m), GroupRingElement.one(m)
d3 = GroupRingMatrix(m, 2, 1, [z, one])
X = attach_three_cells(W, d3)
rep = split_test(X)
print("top boundary splits:", rep.splits)
Q = quotient_by_split_summand(X, rep)
print("quotient ranks:", Q.ranks, "(the original complex again)")
out = certify_chain_equivalence(Q, F)
print("certified equivalent to the original:", out.kind)

# classification by Euler characteristic above the minimum: the stabilized
# minimal complex is equivalent to any chi-2 presentation complex of Z/5
chi2 = parse_presentation("gens: x y\nrels: x^5 y y\n")
G = presentation_complex(chi2, group_model(chi2, 100))
out = certify_chain_equivalence(W, G)
print("\nstabilized minimal vs chi-2 presentation complex:", out.kind,
      f"(solver calls: {out.solver_calls})")
print("certificate verifies:", out.certificate.verify(W, G))

# homology with trivial coefficients, computed on its own: certification
# never needs it, since exact complexes over one group with equal chi
# have the same homology over every field
trefoil = presentation_complex(parse_presentation("gens: x y\nrels: (x^2 y^-3)\n"))
print("\ntrefoil complex over Q:", homology_over_field(trefoil, "Q"))
print("Z/5 complex over F_5:", homology_over_field(F, 5))
