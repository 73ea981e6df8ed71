#!/usr/bin/env python3
"""Exact extremal counts at tiny scale, and counterexample hunting.

At n <= 7 the maximum copy count over all hosts with a bounded edge budget
can be computed by exhausting isomorphism classes.  Separately, scanning
all small connected graphs for alpha* > max(alpha, v/2) finds every graph
whose optimal host family must open with a strictly interior member: none
exist on five or fewer vertices, three classes exist on six.
"""

from copymax import (
    complete_graph,
    exhaustive_ex,
    path_graph,
    search_counterexamples,
    spectrum,
    three_class_host_probe,
    write_graph6,
)

print("ex(5, 6, triangle): most triangles in a 5-vertex host with <= 6 edges")
best, host = exhaustive_ex(5, 6, complete_graph(3))
print(f"  maximum = {best}, attained by {write_graph6(host)} "
      f"(degrees {sorted(host.degree(v) for v in range(host.n))})")
print("  -> the quasi-clique: K4 plus an isolated vertex")

print("\nex(4, 3, single edge):", exhaustive_ex(4, 3, complete_graph(2))[0],
      "(any 3 edges count themselves)")

print("\nhow close does the three-class family come at n = 7, e = 7 for the "
      "4-edge path?")
probe = three_class_host_probe(7, 7, path_graph(4))
print(f"  true extremum {probe.exhaustive_max}, best three-class host "
      f"{probe.family_max} with classes {probe.family_sizes}: "
      f"ratio {probe.ratio:.3f}")

print("\ncounterexample census (alpha* strictly above both alpha and v/2):")
for max_v in (4, 5, 6):
    found = search_counterexamples(max_v)
    print(f"  up to {max_v} vertices: {len(found)} graphs")
    for g in found:
        spec = spectrum(g)
        print(f"    {write_graph6(g)}: v = {g.n}, e = {g.edge_count}, "
              f"alpha = {spec.alpha}, alpha* = {spec.alpha_star}")
