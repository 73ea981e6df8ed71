"""Exact rational LPs certifying the fractional independence number.

For a graph on v vertices and a parameter eps, the primal program maximises
sum x_u over 0 <= x_u <= 1 with x_u + x_w <= 2 - eps on every edge; its
optimum is v - eps (v - alpha*) for eps in (0, 1], witnessed by
x_u = 1 - eps (1 - phi(u)) for any maximal weighting phi.  The dual asks
for nonnegative vertex weights z_u and edge weights y_uw covering every
vertex (z_u + sum of incident y >= 1) at minimum cost
sum z_u + (2 - eps) sum y_uw.

The primal side is the closed-form witness.  The dual is solved once, by a
dense simplex over Fraction entries with Bland's pivoting rule, started
from the feasible basis z_u = 1.  A two-phase start reaches that basis, with
the same tableau, at the end of phase 1, so phase 1 is skipped and every
later pivot is the same.  Both points are checked feasible by substitution,
and their values meet at the closed form, so weak duality proves both
optimal: exact rationals, no solver tolerances, and no second solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
from .weightings import maximal_weighting

F0 = Fraction(0)
F1 = Fraction(1)

MAX_LP_VARIABLES = 40


class DualityMismatchError(RuntimeError):
    """Primal, dual and closed-form values were expected to agree exactly."""


@dataclass(frozen=True)
class DualityReport:
    primal: Fraction
    dual: Fraction
    formula: Fraction
    x: tuple                   # primal witness, one value per vertex
    y: tuple                   # dual edge weights, in g.edges order
    z: tuple                   # dual vertex weights, one per vertex


def _as_eps(eps) -> Fraction:
    """eps as a Fraction, from a number or a text such as '1/10'."""
    try:
        value = Fraction(eps)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"eps must be a rational number such as 1/10, got {eps!r}") from None
    if not F0 < value < 2:
        raise ValueError(f"eps must lie in (0, 2), got {value}")
    return value


# ---------------------------------------------------------------------------
# dense simplex, Fraction arithmetic, Bland's rule

def _pivot(tableau, bottom, basis, row, col):
    prow = tableau[row]
    piv = prow[col]
    tableau[row] = prow = [x / piv for x in prow]
    for r, trow in enumerate(tableau):
        if r != row and trow[col]:
            f = trow[col]
            tableau[r] = [a - f * b for a, b in zip(trow, prow)]
    if bottom[col]:
        f = bottom[col]
        for j, b in enumerate(prow):
            bottom[j] -= f * b
    basis[row] = col


def _optimize(tableau, bottom, basis, ncols):
    while True:
        enter = next((j for j in range(ncols) if bottom[j] < 0), None)  # Bland
        if enter is None:
            return
        leave = None
        best = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise RuntimeError("LP is unbounded (cannot happen for these programs)")
        _pivot(tableau, bottom, basis, leave, enter)


def _solve_cover(g: Graph, eps):
    """An optimal cover [z_1..z_v, y in g.edges order]: min sum z + (2 - eps)
    sum y over z, y >= 0 with z_u + (sum of y on edges at u) >= 1.

    The tableau holds the covering rows [I | incidence | -I | 1] over z, y
    and the surplus columns, in the basis z_u = 1: reduced costs 0 on z,
    -eps on y and +1 on the surplus.  A two-phase start ends phase 1 in this
    state (Bland's rule enters z_1, ..., z_v, each into the one row where it
    is nonzero), so the pivots below are the two-phase simplex's phase 2.
    """
    v, e = g.n, g.edge_count
    ncols = 2 * v + e
    tableau = [[F0] * (ncols + 1) for _ in range(v)]
    for u, row in enumerate(tableau):
        row[u], row[v + e + u], row[-1] = F1, -F1, F1
    for k, (a, b) in enumerate(g.edges):
        tableau[a][v + k] = tableau[b][v + k] = F1
    bottom = [F0] * v + [-eps] * e + [F1] * v + [Fraction(-v)]
    basis = list(range(v))
    _optimize(tableau, bottom, basis, ncols)
    basic = {col: row[-1] for col, row in zip(basis, tableau)}
    return [basic.get(j, F0) for j in range(v + e)]


# ---------------------------------------------------------------------------
# closed form, witnesses and the duality report

def primal_optimum_formula(g: Graph, eps):
    """Closed-form optimum v - eps (v - alpha*) with its witness point, a
    tuple with one value per vertex.

    The witness x_u = 1 - eps (1 - phi(u)) is primal-feasible, and the value
    matches the LP optimum, exactly when eps <= 1.
    """
    eps = _as_eps(eps)
    phi = maximal_weighting(g)
    alpha_star = Fraction(sum(phi), 2)
    witness = tuple(1 - eps * (1 - Fraction(w, 2)) for w in phi)
    value = g.n - eps * (g.n - alpha_star)
    return value, witness


def duality_check(g: Graph, eps) -> DualityReport:
    """Certify the closed form by weak duality: the witness x and the
    simplex's covering (y, z) are feasible and share its value exactly.

    Restricted to eps in (0, 1]: beyond 1 the lower box bound binds before
    the closed form does (already on the 2-edge path the LP optimum drops
    below v - eps (v - alpha*)), so equality genuinely fails there.
    """
    eps = _as_eps(eps)
    if eps > 1:
        raise ValueError("duality_check requires eps <= 1; the closed form "
                         "does not equal the LP optimum beyond that")
    if g.n + g.edge_count > MAX_LP_VARIABLES:
        raise ValueError("LP exceeds the supported (small, dense) size")
    formula, x = primal_optimum_formula(g, eps)
    if any(not F0 <= xi <= F1 for xi in x):
        raise DualityMismatchError("formula witness leaves the unit box")
    if any(x[a] + x[b] > 2 - eps for a, b in g.edges):
        raise DualityMismatchError("formula witness violates an edge row")
    if sum(x) != formula:
        raise DualityMismatchError("formula witness misses the optimum")
    zy = _solve_cover(g, eps)
    z, y = zy[:g.n], zy[g.n:]
    cover = list(z)
    for (a, b), yk in zip(g.edges, y):
        cover[a] += yk
        cover[b] += yk
    dual = sum(z) + (2 - eps) * sum(y)
    if any(t < 0 for t in zy) or any(c < 1 for c in cover):
        raise DualityMismatchError("simplex returned an infeasible cover")
    if dual != formula:
        raise DualityMismatchError(f"dual {dual} / formula {formula}")
    return DualityReport(primal=sum(x), dual=dual, formula=formula,
                         x=x, y=tuple(y), z=tuple(z))
