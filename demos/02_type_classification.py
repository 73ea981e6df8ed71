#!/usr/bin/env python3
"""Type patterns: who wins as the edge density sweeps from 0 to 1.

S = quasi-star, T = strictly interior three-class host, K = quasi-clique.
Every observed pattern ends in K; paths and stars flip S -> K at a single
density, graphs with fractional independence number v/2 are pure K, and
the 6-vertex counterexample opens with an interior window (TK).  A pattern
is the winner sequence itself, with one boundary per change: the 8-vertex
clique with a pendant star, family (3, 4), goes T -> S -> K.
"""

from copymax import (
    builtin_graph,
    classify_type,
    clique_with_pendant_star,
    q_star_curve,
    sweep_connected_graphs,
)


def boundary_text(boundaries, digits):
    return "".join(f"  {beta:.{digits}f}" for beta, _ in boundaries)


graphs = {name: builtin_graph(name)
          for name in ("K3", "P3", "C5", "P2", "P4", "star3", "star4", "G6")}
graphs["(3, 4)"] = clique_with_pendant_star(3, 4)
for name, g in graphs.items():
    res = classify_type(g)
    print(f"{name:>6}: {res.pattern}{boundary_text(res.boundaries, 6)}")

print("\nargmax-q curve for the 6-vertex counterexample (conjectured monotone):")
curve = q_star_curve(builtin_graph("G6"),
                     betas=[0.001, 0.005, 0.01, 0.02, 0.05, 0.2, 0.6, 1.0])
for s in curve.samples:
    note = "  (tie: every q works)" if s.tie else ""
    print(f"  beta = {s.beta:<6} q* = {s.q_star:.5f}{note}")
print("non-decreasing:", curve.non_decreasing)

print("\nfull sweep of connected graphs on up to 5 vertices:")
rows = sweep_connected_graphs(5)
for row in rows:
    g, spec, res = row.graph, row.spectrum, row.classification
    print(f"  {res.graph_id:>6}  v={g.n} e={g.edge_count:>2}  alpha={spec.alpha} "
          f"alpha*={str(spec.alpha_star):>4}  {res.pattern}"
          f"{boundary_text(res.boundaries, 5)}")
print(f"{len(rows)} classes, patterns observed:",
      sorted({row.classification.pattern for row in rows}))
