"""Exact rational LPs certifying the fractional independence number.

For a graph on v vertices and a parameter eps, the primal program maximises
sum x_u over 0 <= x_u <= 1 with x_u + x_w <= 2 - eps on every edge; its
optimum is v - eps (v - alpha*) for eps in (0, 1], witnessed by
x_u = 1 - eps (1 - phi(u)) for any maximal weighting phi.  The dual asks
for nonnegative vertex weights z_u and edge weights y_uw covering every
vertex (z_u + sum of incident y >= 1) at minimum cost
sum z_u + (2 - eps) sum y_uw.

Everything is solved with a dense two-phase simplex over Fraction entries
and Bland's pivoting rule, so optima and certificates are exact rationals
with no solver tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph
from .weightings import maximal_weighting

F0 = Fraction(0)
F1 = Fraction(1)

MAX_LP_VARIABLES = 40
MAX_LP_ROWS = 140


class DualityMismatchError(RuntimeError):
    """Primal, dual and closed-form values were expected to agree exactly."""


@dataclass(frozen=True)
class LinearProgram:
    maximize: bool
    objective: tuple               # Fraction per variable
    rows: tuple                    # (coeffs tuple, sense "<=" or ">=", rhs)
    var_names: tuple


@dataclass(frozen=True)
class LPSolution:
    value: Fraction
    assignment: dict               # var name -> Fraction


@dataclass(frozen=True)
class DualityReport:
    primal: Fraction
    dual: Fraction
    formula: Fraction
    witness_x: dict
    witness_yz: dict
    complementary_slackness_ok: bool

    def to_json_dict(self):
        return {
            "primal": str(self.primal),
            "dual": str(self.dual),
            "formula": str(self.formula),
            "witness_x": {k: str(v) for k, v in self.witness_x.items()},
            "witness_yz": {
                "y": {k: str(v) for k, v in self.witness_yz["y"].items()},
                "z": {k: str(v) for k, v in self.witness_yz["z"].items()},
            },
        }


def _as_eps(eps) -> Fraction:
    eps = Fraction(eps)
    if not F0 < eps < 2:
        raise ValueError(f"eps must lie in (0, 2), got {eps}")
    return eps


def primal_lp(g: Graph, eps) -> LinearProgram:
    eps = _as_eps(eps)
    v = g.n
    rows = []
    for u in range(v):
        coeffs = [F0] * v
        coeffs[u] = F1
        rows.append((tuple(coeffs), "<=", F1))
    for u, w in g.edges:
        coeffs = [F0] * v
        coeffs[u] = F1
        coeffs[w] = F1
        rows.append((tuple(coeffs), "<=", 2 - eps))
    return LinearProgram(
        maximize=True,
        objective=tuple([F1] * v),
        rows=tuple(rows),
        var_names=tuple(f"x{u + 1}" for u in range(v)),
    )


def dual_lp(g: Graph, eps) -> LinearProgram:
    eps = _as_eps(eps)
    v = g.n
    edges = g.edges
    nvar = v + len(edges)
    names = [f"z{u + 1}" for u in range(v)]
    names += [f"y{u + 1}-{w + 1}" for u, w in edges]
    obj = [F1] * v + [2 - eps] * len(edges)
    rows = []
    for u in range(v):
        coeffs = [F0] * nvar
        coeffs[u] = F1
        for k, (a, b) in enumerate(edges):
            if u in (a, b):
                coeffs[v + k] = F1
        rows.append((tuple(coeffs), ">=", F1))
    return LinearProgram(
        maximize=False,
        objective=tuple(obj),
        rows=tuple(rows),
        var_names=tuple(names),
    )


# ---------------------------------------------------------------------------
# dense two-phase simplex, Fraction arithmetic, Bland's rule

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


def _simplex_max(c, A, b):
    """max c.x subject to A x <= b, x >= 0; b entries of any sign.

    Returns (optimum, x).  Rows with negative right-hand side are negated
    into >= form and given an artificial variable; phase 1 drives the
    artificials to zero before phase 2 optimises the true objective.
    """
    m, n = len(A), len(c)
    art_rows = [i for i in range(m) if b[i] < 0]
    n_art = len(art_rows)
    ncols = n + m + n_art
    tableau = []
    basis = []
    art_of = {r: n + m + k for k, r in enumerate(art_rows)}
    for i in range(m):
        coeffs = list(A[i])
        rhs = b[i]
        row = [F0] * (ncols + 1)
        if rhs < 0:
            coeffs = [-x for x in coeffs]
            rhs = -rhs
            row[n + i] = -F1              # surplus
            row[art_of[i]] = F1           # artificial, starts basic
            basis.append(art_of[i])
        else:
            row[n + i] = F1               # slack, starts basic
            basis.append(n + i)
        row[:n] = coeffs
        row[-1] = rhs
        tableau.append(row)

    if n_art:
        # phase 1: maximise -(sum of artificials)
        bottom = [F0] * (ncols + 1)
        for r in art_rows:
            bottom[art_of[r]] = F1
        for i, r in enumerate(art_rows):
            # eliminate the basic artificial columns from the bottom row
            row = tableau[r]
            for j in range(ncols + 1):
                bottom[j] -= row[j]
        _optimize(tableau, bottom, basis, ncols)
        if bottom[-1] != 0:
            raise RuntimeError("LP is infeasible (cannot happen for these programs)")
        for i in range(m):
            if basis[i] >= n + m:
                # basic artificial at level zero: pivot it out or drop the row
                col = next((j for j in range(n + m) if tableau[i][j] != 0), None)
                if col is not None:
                    _pivot(tableau, bottom, basis, i, col)
        keep = [i for i in range(m) if basis[i] < n + m]
        tableau = [tableau[i][: n + m] + [tableau[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]
    ncols = n + m

    bottom = [-x for x in c] + [F0] * (m + 1)
    for i, bvar in enumerate(basis):
        if bottom[bvar]:
            f = bottom[bvar]
            row = tableau[i]
            for j in range(ncols + 1):
                bottom[j] -= f * row[j]
    _optimize(tableau, bottom, basis, ncols)

    x = [F0] * n
    for i, bvar in enumerate(basis):
        if bvar < n:
            x[bvar] = tableau[i][-1]
    return bottom[-1], x


def solve_lp(lp: LinearProgram) -> LPSolution:
    n = len(lp.objective)
    if n > MAX_LP_VARIABLES or len(lp.rows) > MAX_LP_ROWS:
        raise ValueError("LP exceeds the supported (small, dense) size")
    c = list(lp.objective) if lp.maximize else [-x for x in lp.objective]
    A, b = [], []
    for coeffs, sense, rhs in lp.rows:
        if sense == "<=":
            A.append(list(coeffs))
            b.append(rhs)
        elif sense == ">=":
            A.append([-x for x in coeffs])
            b.append(-rhs)
        else:
            raise ValueError(f"unknown row sense {sense!r}")
    value, x = _simplex_max(c, A, b)
    if not lp.maximize:
        value = -value
    # re-verify feasibility by direct substitution
    for coeffs, sense, rhs in lp.rows:
        lhs = sum(a * xi for a, xi in zip(coeffs, x))
        if sense == "<=" and lhs > rhs:
            raise RuntimeError("simplex returned an infeasible point")
        if sense == ">=" and lhs < rhs:
            raise RuntimeError("simplex returned an infeasible point")
    return LPSolution(value=value, assignment=dict(zip(lp.var_names, x)))


# ---------------------------------------------------------------------------
# closed form, witnesses and the duality report

def primal_optimum_formula(g: Graph, eps):
    """Closed-form optimum v - eps (v - alpha*) with its witness point.

    The witness x_u = 1 - eps (1 - phi(u)) is primal-feasible, and the value
    matches the LP optimum, exactly when eps <= 1.
    """
    eps = _as_eps(eps)
    phi = maximal_weighting(g)
    alpha_star = Fraction(sum(phi), 2)
    witness = {
        f"x{u + 1}": 1 - eps * (1 - Fraction(phi[u], 2))
        for u in range(g.n)
    }
    value = g.n - eps * (g.n - alpha_star)
    return value, witness


def _complementary_slackness(g, eps, x, y, z):
    edges = g.edges
    for u in range(g.n):
        cover = z[u] + sum(yk for (a, b), yk in zip(edges, y) if u in (a, b))
        if x[u] > 0 and cover != 1:
            return False
        if z[u] > 0 and x[u] != 1:
            return False
    for (a, b), yk in zip(edges, y):
        if yk > 0 and x[a] + x[b] != 2 - eps:
            return False
    return True


def duality_check(g: Graph, eps) -> DualityReport:
    """Solve both programs and assert exact agreement with the closed form.

    Restricted to eps in (0, 1]: beyond 1 the lower box bound binds before
    the closed form does (already on the 2-edge path the LP optimum drops
    below v - eps (v - alpha*)), so equality genuinely fails there.
    """
    eps = _as_eps(eps)
    if eps > 1:
        raise ValueError("duality_check requires eps <= 1; the closed form "
                         "does not equal the LP optimum beyond that")
    primal = solve_lp(primal_lp(g, eps))
    dual = solve_lp(dual_lp(g, eps))
    formula, witness_x = primal_optimum_formula(g, eps)
    if not (primal.value == dual.value == formula):
        raise DualityMismatchError(
            f"primal {primal.value} / dual {dual.value} / formula {formula}")
    # the formula witness must itself be feasible and optimal
    wit = [witness_x[f"x{u + 1}"] for u in range(g.n)]
    if any(not F0 <= xi <= F1 for xi in wit):
        raise DualityMismatchError("formula witness leaves the unit box")
    if any(wit[a] + wit[b] > 2 - eps for a, b in g.edges):
        raise DualityMismatchError("formula witness violates an edge row")
    if sum(wit) != formula:
        raise DualityMismatchError("formula witness misses the optimum")
    x = [primal.assignment[f"x{u + 1}"] for u in range(g.n)]
    z = [dual.assignment[f"z{u + 1}"] for u in range(g.n)]
    y = [dual.assignment[f"y{a + 1}-{b + 1}"] for a, b in g.edges]
    cs = _complementary_slackness(g, eps, x, y, z)
    yz = {
        "y": {f"{a + 1}-{b + 1}": yk for (a, b), yk in zip(g.edges, y)},
        "z": {f"{u + 1}": z[u] for u in range(g.n)},
    }
    return DualityReport(
        primal=primal.value,
        dual=dual.value,
        formula=formula,
        witness_x=witness_x,
        witness_yz=yz,
        complementary_slackness_ok=cs,
    )


def epsilon_for_density(beta: float, n: int) -> float:
    """The eps with n^(-eps) = beta/2, i.e. -log(beta/2)/log(n)."""
    if not 0.0 < beta <= 2.0:
        raise ValueError(f"beta must lie in (0, 2], got {beta}")
    if n < 2:
        raise ValueError("need n >= 2")
    return -math.log(beta / 2.0) / math.log(n)
