"""The two end-to-end counterexample reproductions.

First: the g-vector of the join of two boundary (u-k)-simplices and a
boundary 2k-simplex follows a three-band formula; it ends in g_u = 1
yet is asymmetric (g_1 = 2, g_{u-1} = 3), so it cannot be a level
sequence, and the stress-space socle is indeed nonzero below the top.

Second: on the free-sum polytope whose boundary is that sphere for
u = 2m+1, the one-dimensional top stress space is spanned by an
explicit product of linear stresses whose expansion drops every face
made of m vertices from each simplex group plus one triangle vertex.

Run:  python3 demos/counterexamples.py
"""

import spherestress as ss

SEED = 7  # of the generic embedding that the socles are computed under

print("=== band formula and failure of levelness ===\n")
for u, k in ((3, 1), (4, 1)):
    rep = ss.verify_counterexample_level(u, k)
    print(f"u={u}, k={k}: sphere {rep.name}")
    print(f"  g computed = {list(rep.g)}")
    print(f"  g by bands = {list(rep.formula)}   match: {rep.formula_matches}")
    print(f"  g_u = {rep.g_top}, g_1 = {rep.g1}, g_(u-1) = {rep.g_top_minus1}")
    print(f"  level test: {'passes' if rep.level_verdict.holds else 'FAILS'}")
    print(f"    ({rep.level_verdict.detail})")
    socle = ss.StressSpaces(rep.complex, ss.generic_embedding(rep.complex, SEED)).socle
    print(f"  stress-space socle by degree: {socle}"
          f"  (nonzero below degree {u}: {not ss.is_level(socle, u).holds})")
    print()

print("Truncating at min(u, floor((d-1)/2)) = 2 still passes, so the")
print("failure genuinely lives beyond the guaranteed level range:")
rep = ss.verify_counterexample_level(3, 1)
print("  ", ss.corollary_level_g_check(list(rep.g), 2).holds)

print("\n=== the unsupported faces of the top stress ===\n")
rep = ss.verify_counterexample_support(1)
print(f"polytope-1 (9 vertices in dimension 6, boundary = K(2,5)):")
print(f"  explicit product stress satisfies all 7 operator equations: "
      f"{rep.operator_equations_hold}")
print(f"  dim of the degree-3 stress space: {rep.stress_space_dim}")
print(f"  the explicit stress spans it: {rep.explicit_stress_spans}")
print(f"  coefficient of y1*y2*y3: {rep.mixed_coefficient}")
print(f"  faces of shape (one vertex per simplex group + one triangle vertex): "
      f"{rep.candidate_faces}")
print(f"  of those, absent from the support: {rep.unsupported_faces}")
print(f"  derivative span in degree 2: {rep.derivative_span_dim} "
      f"< g_2 = {rep.g_top_minus1}")
print()
print("The same pipeline at m = 2 (13 vertices in dimension 10):")
rep2 = ss.verify_counterexample_support(2)
print(f"  dim = {rep2.stress_space_dim}, unsupported faces "
      f"{rep2.unsupported_faces}/{rep2.candidate_faces}, "
      f"span {rep2.derivative_span_dim} < g_4 = {rep2.g_top_minus1}")
