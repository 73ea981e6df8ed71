#!/usr/bin/env python3
"""The linear program behind the interior exponent, certified exactly.

Maximising sum x_u under x_u + x_w <= 2 - eps on edges (and a unit box)
yields exactly v - eps (v - alpha*), witnessed by x_u = 1 - eps (1 - phi(u))
for any maximal weighting phi.  One simplex solve of the dual covering
program finds a cover of the same cost, so weak duality proves both optimal.
Everything below is exact rational arithmetic: no tolerances anywhere.
"""

import math
from fractions import Fraction

from copymax import (
    builtin_graph,
    complete_graph,
    cycle_graph,
    duality_check,
    enumerate_connected_graphs,
    fractional_independence_number,
)


def epsilon_for_density(beta: float, n: int) -> float:
    """The eps with n^(-eps) = beta/2, i.e. -log(beta/2)/log(n)."""
    if not 0.0 < beta <= 2.0:
        raise ValueError(f"beta must lie in (0, 2], got {beta}")
    if n < 2:
        raise ValueError("need n >= 2")
    return -math.log(beta / 2.0) / math.log(n)


def main():
    for g, name in ((builtin_graph("G6"), "G6"), (cycle_graph(5), "C5"),
                    (complete_graph(2), "K2")):
        eps = Fraction(1, 10)
        rep = duality_check(g, eps)
        print(f"{name}: alpha* = {fractional_independence_number(g)}, eps = {eps}")
        print(f"  primal optimum  {rep.primal}")
        print(f"  dual optimum    {rep.dual}")
        print(f"  v - eps(v - a*) {rep.formula}")
        print(f"  witness x: {[str(v) for v in rep.x]}")

    print("exhaustive check over every connected graph on up to 5 vertices:")
    count = 0
    for g in enumerate_connected_graphs(5):
        for eps in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            rep = duality_check(g, eps)
            assert rep.primal == rep.dual == rep.formula
            count += 1
    print(f"  {count} exact duality identities verified")

    print("\nthe density-to-eps dictionary (n^-eps = beta/2):")
    for beta, n in ((0.02, 1000), (0.2, 100), (2 / 50, 50)):
        print(f"  beta = {beta:<5} n = {n:<5} -> eps = {epsilon_for_density(beta, n):.6f}")


if __name__ == "__main__":
    main()
