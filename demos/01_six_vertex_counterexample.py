#!/usr/bin/env python3
"""The 6-vertex graph whose best host is neither quasi-star nor quasi-clique.

Take a triangle, hang a bridge vertex off one corner, and give the bridge
two pendant leaves.  Its independence number is 3 (half the vertex count)
but its fractional independence number is 7/2, and that strict gap forces
a strictly interior three-class host to win at small edge density.
"""

import math

from copymax import (
    automorphism_count,
    builtin_graph,
    clique_density,
    crossover_beta,
    curve_sample,
    spectrum,
    star_density,
    t_density,
)

Q = 1.0 / math.sqrt(2.0)

g = builtin_graph("G6")
print("graph:", g)

spec = spectrum(g)
print(f"\nindependence number alpha = {spec.alpha}")
print(f"maximum independent sets A = {spec.max_independent_sets}")
print(f"fractional independence number alpha* = {spec.alpha_star}")
print(f"automorphisms = {automorphism_count(g)}")

print(f"\nweightings: {spec.total_weightings} total")
print("0/1 slice (drives the quasi-star density):")
for (r, y, b), mult in sorted(spec.y_zero_slice().items()):
    print(f"  {mult} weightings with {r} zeros / {b} ones")
print("maximisers by zero-count:", spec.maximiser_counts)

print("\nvanishing-density constants:")
print(f"  quasi-star   C2 = {spec.star_limit_constant()}")
print(f"  interior     C1(1/sqrt2) = {spec.interior_limit_constant(Q):.9f}"
      f"  (= 1/(8 sqrt 2) = {1 / (8 * math.sqrt(2)):.9f})")

print("\ndensities on the small-beta window (T = interior host at q = 1/sqrt2):")
print(f"  {'beta':>6}  {'t_T':>12}  {'t_K':>12}  {'t_S':>12}  ordering")
for beta in (0.001, 0.004, 0.008, 0.012, 0.015):
    t_t = t_density(spec, beta, Q)
    t_k = clique_density(spec, beta)
    t_s = star_density(spec, beta)
    order = "T > K > S" if t_t > t_k > t_s else "??"
    print(f"  {beta:>6}  {t_t:>12.5e}  {t_k:>12.5e}  {t_s:>12.5e}  {order}")

root = crossover_beta(spec, 1.0, Q, (0.01, 0.03), tol=1e-9)
print(f"\nthe interior host loses to the quasi-clique at beta = {root:.8f}")

print("\noptimising over ALL q (not just 1/sqrt2):")
for beta in (0.005, 0.02, 0.05):
    s = curve_sample(spec, beta)
    kind = "interior" if 0 < s.q_star < 1 else ("star" if s.q_star == 0 else "clique")
    print(f"  beta = {beta}: best q = {s.q_star:.4f} ({kind}), value {s.f_T:.5e}")
