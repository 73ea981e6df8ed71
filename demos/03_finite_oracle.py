#!/usr/bin/env python3
"""Ground truth: exact counts on explicit finite hosts.

Two completely different routes to the embedding count must agree to the
integer: backtracking search over the host's adjacency bitsets, and the
weighting census paired with falling factorials of the class sizes.  The
homomorphism count follows the same way, summed over the quotients of the
pattern by its partitions into independent blocks.  The normalised counts
then converge to the limiting density like 1/n; the census route reaches
hosts far too large to build.
"""

import math

from copymax import (
    automorphism_count,
    builtin_graph,
    class_sizes,
    convergence_report,
    hom_count,
    hom_count_from_partitions,
    injective_count,
    injective_count_from_spectrum,
    path_graph,
    spectrum,
    t_density,
    three_class_graph,
)

Q = 1.0 / math.sqrt(2.0)


def copies_count(pattern, host):
    """Unlabelled copies: embeddings divided by the automorphism count."""
    return injective_count(pattern, host) // automorphism_count(pattern)


g6 = builtin_graph("G6")
spec = spectrum(g6)

print("classic sanity values:")
from copymax import complete_graph, cycle_graph
print("  copies of the 4-edge path in the 7-cycle:", copies_count(path_graph(4), cycle_graph(7)))
print("  copies of the 4-edge path in K5:        ", copies_count(path_graph(4), complete_graph(5)))

sizes = class_sizes(60, 0.2, Q)
host = three_class_graph(*sizes)
print(f"\nhost at n = 60, beta = 0.2, q = 1/sqrt2: classes {sizes}, "
      f"{host.edge_count} edges (target {0.2 * 60 * 60 / 2:.0f})")
search = injective_count(g6, host)
census = injective_count_from_spectrum(spec, sizes)
print(f"embeddings by backtracking search: {search}")
print(f"embeddings by census + falling factorials: {census}")
print("exact match:", search == census)
search_hom = hom_count(g6, host)
partition_hom = hom_count_from_partitions(g6, sizes)
print(f"homomorphisms (collisions included) by search: {search_hom}")
print(f"homomorphisms by the partition route:          {partition_hom}")
print("exact match:", search_hom == partition_hom)

print("\nconvergence to the limit density:")
result = convergence_report(g6, 0.2, Q, [30, 60, 120, 10 ** 3, 10 ** 6])
t_ref = t_density(spec, 0.2, Q)
print(f"  limit t = {t_ref:.8f}")
print(f"  {'n':>7} {'inj/n^6':>12} {'gap':>10} {'n*gap':>7} {'(hom/inj-1)*n':>14}")
for r in result:
    print(f"  {r.n:>7} {r.normalised:>12.8f} {r.gap:>10.2e} {r.n * r.gap:>7.4f} "
          f"{(r.hom - r.injective) * r.n / r.injective:>14.4f}")
