import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from copymax.graphs import (
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    path_graph,
    star_graph,
)
from copymax.lp import (
    dual_lp,
    duality_check,
    epsilon_for_density,
    primal_lp,
    primal_optimum_formula,
    solve_lp,
    _simplex_max,
)
from copymax.weightings import fractional_independence_number, maximal_weighting
from oracles import ref_weightings


def test_formula_values(g6):
    value, witness = primal_optimum_formula(g6, Fraction(1, 10))
    assert value == Fraction(23, 4)
    assert witness["x5"] == 1 and witness["x6"] == 1
    value, _ = primal_optimum_formula(complete_graph(2), Fraction(3, 7))
    assert value == 2 - Fraction(3, 7)
    # eps -> 0 recovers the vertex count
    value, _ = primal_optimum_formula(g6, Fraction(1, 10 ** 9))
    assert value == 6 - Fraction(1, 10 ** 9) * Fraction(5, 2)


def test_primal_solve_matches_formula(g6):
    for g, eps in ((g6, Fraction(1, 10)), (complete_graph(3), Fraction(1, 2)),
                   (cycle_graph(5), Fraction(1, 3)), (path_graph(4), Fraction(1, 7))):
        sol = solve_lp(primal_lp(g, eps))
        assert sol.value == g.n - eps * (g.n - fractional_independence_number(g))


def test_primal_k3_half():
    assert solve_lp(primal_lp(complete_graph(3), Fraction(1, 2))).value == Fraction(9, 4)


def test_dual_k2():
    sol = solve_lp(dual_lp(complete_graph(2), Fraction(1, 10)))
    assert sol.value == Fraction(19, 10)
    # the optimum is attained with the single edge covering both vertices
    assert sol.assignment["y1-2"] == 1
    assert sol.assignment["z1"] == 0 and sol.assignment["z2"] == 0


def test_duality_check_values(g6):
    rep = duality_check(g6, Fraction(1, 10))
    assert rep.primal == rep.dual == rep.formula == Fraction(23, 4)
    assert rep.complementary_slackness_ok
    rep = duality_check(cycle_graph(5), Fraction(1, 3))
    assert rep.formula == Fraction(25, 6)
    rep = duality_check(complete_graph(2), 1)
    assert rep.formula == 1


def test_duality_check_star15():
    # 16 vertices, 3^15 + 2^15 + 1 weightings: the census must not list them
    rep = duality_check(star_graph(15), Fraction(1, 2))
    assert rep.primal == rep.dual == rep.formula == Fraction(31, 2)


def test_duality_json_schema(g6):
    d = duality_check(g6, Fraction(1, 10)).to_json_dict()
    assert d["primal"] == d["dual"] == d["formula"] == "23/4"
    assert set(d) == {"primal", "dual", "formula", "witness_x", "witness_yz"}
    assert set(d["witness_yz"]) == {"y", "z"}
    assert d["witness_x"]["x1"] == "19/20"


def test_duality_check_rejects_large_eps(g6):
    # beyond eps = 1 the closed form stops matching the LP optimum (already
    # for the 2-edge path the box constraint x >= 0 binds first)
    with pytest.raises(ValueError):
        duality_check(g6, Fraction(3, 2))
    sol = solve_lp(primal_lp(path_graph(2), Fraction(3, 2)))
    formula, _ = primal_optimum_formula(path_graph(2), Fraction(3, 2))
    assert sol.value == 1 < formula


def test_strong_duality_all_small_graphs():
    for g in enumerate_connected_graphs(5):
        for eps in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            rep = duality_check(g, eps)
            assert rep.primal == rep.dual == rep.formula


def test_witness_feasible_for_every_maximal_weighting():
    for g in enumerate_connected_graphs(4):
        alpha_star = fractional_independence_number(g)
        maximal = [w for w in ref_weightings(g) if Fraction(sum(w), 2) == alpha_star]
        assert maximal
        assert maximal_weighting(g) in maximal
        for phi in maximal:
            for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
                x = [1 - eps * (1 - Fraction(phi[u], 2)) for u in range(g.n)]
                assert all(0 <= xi <= 1 for xi in x)
                assert all(x[u] + x[v] <= 2 - eps for u, v in g.edges)
                assert sum(x) == g.n - eps * (g.n - alpha_star)


def test_eps_domain(g6):
    for eps in (0, 2, -1, Fraction(5, 2)):
        with pytest.raises(ValueError):
            primal_lp(g6, eps)


def test_simplex_against_scipy():
    rng = random.Random(1234)
    for _ in range(30):
        n = rng.randint(2, 5)
        m = rng.randint(2, 6)
        c = [Fraction(rng.randint(-4, 6)) for _ in range(n)]
        A = [[Fraction(rng.randint(-3, 5)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(0, 8)) for _ in range(m)]
        # keep the region bounded
        A += [[Fraction(1)] * n]
        b += [Fraction(20)]
        value, x = _simplex_max(c, A, b)
        res = linprog(
            c=[-float(ci) for ci in c],
            A_ub=np.array([[float(a) for a in row] for row in A]),
            b_ub=np.array([float(bi) for bi in b]),
            bounds=[(0, None)] * n,
            method="highs",
        )
        assert res.success
        assert float(value) == pytest.approx(-res.fun, abs=1e-8)
        assert all(xi >= 0 for xi in x)


def test_simplex_phase1_against_scipy():
    # rows with negative right-hand side exercise the artificial variables
    rng = random.Random(987)
    for _ in range(20):
        n = rng.randint(2, 4)
        c = [Fraction(rng.randint(-3, 4)) for _ in range(n)]
        A = [[Fraction(rng.randint(-3, 4)) for _ in range(n)] for _ in range(3)]
        b = [Fraction(rng.randint(-4, 6)) for _ in range(3)]
        A += [[Fraction(1)] * n]
        b += [Fraction(15)]
        res = linprog(
            c=[-float(ci) for ci in c],
            A_ub=np.array([[float(a) for a in row] for row in A]),
            b_ub=np.array([float(bi) for bi in b]),
            bounds=[(0, None)] * n,
            method="highs",
        )
        if not res.success:
            continue  # infeasible instances are exercised by the dual LPs
        value, _ = _simplex_max(c, A, b)
        assert float(value) == pytest.approx(-res.fun, abs=1e-8)


def test_epsilon_for_density():
    assert epsilon_for_density(2.0 / 1000.0, 1000) == pytest.approx(1.0, rel=1e-12)
    assert epsilon_for_density(2.0, 50) == 0.0
    assert epsilon_for_density(0.02, 1000) == pytest.approx(2.0 / 3.0, rel=1e-12)
    for beta, n in ((0.5, 37), (0.001, 12), (1.0, 999)):
        eps = epsilon_for_density(beta, n)
        assert n ** -eps == pytest.approx(beta / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        epsilon_for_density(0.0, 10)
    with pytest.raises(ValueError):
        epsilon_for_density(0.5, 1)
