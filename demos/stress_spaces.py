"""Affine stress spaces: dimensions, socle, star-supported witnesses,
and the cone lift, all over exact rationals.

Run:  python3 demos/stress_spaces.py
"""

import spherestress as ss

SEED = 17

print("=== dim of the degree-k stress space equals g_k ===\n")
for name in ("octahedron", "cross-5", "K-2-4", "K-2-5"):
    c = ss.build(name).complex
    d = c.dim + 1
    g = ss.g_vector(c)
    e = ss.generic_embedding(c, SEED)
    dims = [ss.stress_dim(c, e, k) for k in range(1, d // 2 + 1)]
    print(f"{name:<12} stress dims {dims}  vs  g {list(g[1:d // 2 + 1])}")

print("\nSeed stability doubles as a genericity certificate:")
c = ss.build("K-2-5").complex
print("  two seeds on K-2-5, degree 2:",
      ss.certified_stress_dims(c, 2, seed=SEED), "(agreement required)")

poly = ss.build("polytope-1")
dims = [ss.stress_dim(poly.complex, poly.natural_coords, k) for k in (1, 2, 3)]
print("  natural polytope coordinates give", dims, "for degrees 1..3")

print("\n=== basis elements verify the operator equations directly ===\n")
e = ss.generic_embedding(c, SEED)
basis = ss.stress_space(c, e, 3)
omega = basis.polys[0]
print(f"degree-3 basis stress on K-2-5 has {len(omega.terms)} monomials;")
print("  is_stress re-checks all d+1 derivative conditions:",
      ss.is_stress(c, e, omega))
dv = ss.derivative(omega, (1,))
print("  its x_1-derivative is again a stress:", ss.is_stress(c, e, dv))

print("\n=== socle of the Artinian reduction, computed dually ===\n")
print("socle dim in degree k = dim S_k minus the rank of the first")
print("derivatives coming down from degree k+1; below the middle degree")
print("it equals the number of missing (d-k)-faces.\n")
for name in ("octahedron", "K-2-4", "K-2-5"):
    c = ss.build(name).complex
    e = ss.generic_embedding(c, SEED)
    print(f"{name:<12} socle {ss.socle_dims(c, e)}   "
          f"missing-face counts {ss.missing_face_counts(c)}")
k24 = ss.build("K-2-4").complex
print("\nK-2-4 is level up to degree 2:",
      ss.is_level(ss.socle_dims(k24, ss.generic_embedding(k24, SEED)), 2).holds)

print("\n=== star-supported stresses ===\n")
oct_ = ss.build("octahedron").complex
e = ss.generic_embedding(oct_, SEED)
w = ss.star_stress_witness(oct_, e, {1}, 1)
print("octahedron, vertex 1, degree 1: witness supported on",
      sorted(w.support_vertices()), "(the star of 1; antipode 2 excluded)")

print("\n=== lifting stresses through a cone ===\n")
for base, i in ((ss.cycle(4), 1), (ss.cycle(6), 1), (ss.build("K-2-4").complex, 2)):
    rep = ss.cone_lift_check(base, i, seed=SEED)
    print(f"base dim {rep.dim_base}, cone dim {rep.dim_cone}, "
          f"every basis stress lifts: {rep.all_lifted}")
