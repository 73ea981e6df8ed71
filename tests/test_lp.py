import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from copymax import lp
from copymax.cli import main
from copymax.graphs import (
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    path_graph,
    star_graph,
)
from copymax.lp import (
    DualityMismatchError,
    duality_check,
    primal_optimum_formula,
    _solve_cover,
)
from copymax.weightings import fractional_independence_number, maximal_weighting
from oracles import ref_primal_program, ref_simplex_max, ref_weightings
from test_graphs import graphs_without_isolated_vertices


def covering_program(g, eps):
    """The covering dual as max c.x subject to A x <= b, x >= 0: costs and
    covering rows negated, b = -1.  Columns are z_1..z_v, then y in g.edges
    order, the columns _solve_cover returns."""
    v, edges = g.n, g.edges
    c = [-Fraction(1)] * v + [-(2 - Fraction(eps))] * len(edges)
    A = []
    for u in range(v):
        row = [Fraction(0)] * (v + len(edges))
        row[u] = -Fraction(1)
        for k, (a, b) in enumerate(edges):
            if u in (a, b):
                row[v + k] = -Fraction(1)
        A.append(row)
    return c, A, [-Fraction(1)] * v


def test_formula_values(g6):
    value, witness = primal_optimum_formula(g6, Fraction(1, 10))
    assert value == Fraction(23, 4)
    assert witness[4] == 1 and witness[5] == 1
    value, _ = primal_optimum_formula(complete_graph(2), Fraction(3, 7))
    assert value == 2 - Fraction(3, 7)
    # eps -> 0 recovers the vertex count
    value, _ = primal_optimum_formula(g6, Fraction(1, 10 ** 9))
    assert value == 6 - Fraction(1, 10 ** 9) * Fraction(5, 2)


def test_primal_solve_matches_formula(g6):
    for g, eps in ((g6, Fraction(1, 10)), (complete_graph(3), Fraction(1, 2)),
                   (cycle_graph(5), Fraction(1, 3)), (path_graph(4), Fraction(1, 7))):
        value, _ = ref_simplex_max(*ref_primal_program(g, eps))
        assert value == g.n - eps * (g.n - fractional_independence_number(g))


def test_primal_k3_half():
    value, _ = ref_simplex_max(*ref_primal_program(complete_graph(3), Fraction(1, 2)))
    assert value == Fraction(9, 4)


def test_dual_k2():
    rep = duality_check(complete_graph(2), Fraction(1, 10))
    assert rep.dual == Fraction(19, 10)
    # the optimum is attained with the single edge covering both vertices
    assert (rep.y, rep.z) == ((1,), (0, 0))


def test_duality_check_values(g6):
    rep = duality_check(g6, Fraction(1, 10))
    assert rep.primal == rep.dual == rep.formula == Fraction(23, 4)
    rep = duality_check(cycle_graph(5), Fraction(1, 3))
    assert rep.formula == Fraction(25, 6)
    rep = duality_check(complete_graph(2), 1)
    assert rep.formula == 1


def test_duality_check_star15():
    # 16 vertices, 3^15 + 2^15 + 1 weightings: the census must not list them
    rep = duality_check(star_graph(15), Fraction(1, 2))
    assert rep.primal == rep.dual == rep.formula == Fraction(31, 2)


def test_duality_json_schema(capsys):
    assert main(["lp", "--builtin", "G6", "--epsilon", "1/10"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["primal"] == d["dual"] == d["formula"] == "23/4"
    assert set(d) == {"primal", "dual", "formula", "witness_x", "witness_yz"}
    assert set(d["witness_yz"]) == {"y", "z"}
    assert d["witness_x"]["x1"] == "19/20"


def test_lp_refuses_a_zero_denominator(capsys):
    # Fraction('1/0') raises ZeroDivisionError, which used to print as
    # "error: Fraction(1, 0)"
    assert main(["lp", "--builtin", "G6", "--epsilon", "1/0"]) == 2
    assert capsys.readouterr().err == \
        "error: eps must be a rational number such as 1/10, got '1/0'\n"


def test_duality_check_rejects_large_eps(g6):
    # beyond eps = 1 the closed form stops matching the LP optimum (already
    # for the 2-edge path the box constraint x >= 0 binds first)
    with pytest.raises(ValueError):
        duality_check(g6, Fraction(3, 2))
    value, _ = ref_simplex_max(*ref_primal_program(path_graph(2), Fraction(3, 2)))
    formula, _ = primal_optimum_formula(path_graph(2), Fraction(3, 2))
    assert value == 1 < formula


def test_duality_check_solves_once(g6, monkeypatch):
    # the primal is the closed-form witness: only the covering program is solved
    calls = []

    def counted(*args):
        calls.append(args)
        return _solve_cover(*args)
    monkeypatch.setattr(lp, "_solve_cover", counted)
    duality_check(g6, Fraction(1, 10))
    assert len(calls) == 1


def test_certificate_refuses_an_infeasible_cover(g6, monkeypatch):
    monkeypatch.setattr(lp, "_solve_cover", lambda g, eps: [0] * (g.n + g.edge_count))
    with pytest.raises(DualityMismatchError, match="infeasible cover"):
        duality_check(g6, Fraction(1, 10))


def test_certificate_refuses_a_dual_off_the_formula(g6, monkeypatch):
    # z = 1 on every vertex and y = 0 is a feasible cover of value v, above
    # the optimum v - eps (v - alpha*)
    monkeypatch.setattr(lp, "_solve_cover",
                        lambda g, eps: [1] * g.n + [0] * g.edge_count)
    with pytest.raises(DualityMismatchError, match="dual 6 / formula 11/2"):
        duality_check(g6, Fraction(1, 5))


def test_certificate_refuses_a_witness_off_an_edge_row(monkeypatch):
    # weight 1 (two halves) on both ends of the edge 1-2 puts x = 1 on each
    monkeypatch.setattr(lp, "maximal_weighting", lambda g: (2, 2, 0))
    with pytest.raises(DualityMismatchError, match="violates an edge row"):
        duality_check(path_graph(2), Fraction(1, 10))


@given(graphs_without_isolated_vertices(max_v=9).filter(
           lambda g: g.n + g.edge_count <= lp.MAX_LP_VARIABLES),
       st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda e: e > 0))
@settings(max_examples=100, deadline=None)
def test_cover_matches_two_phase_reference(g, eps):
    # the z-basis start replays the two-phase simplex's phase 2: same optimum
    # vertex, so the same value for every variable
    value, x = ref_simplex_max(*covering_program(g, eps))
    zy = _solve_cover(g, eps)
    assert zy == x
    assert sum(zy[:g.n]) + (2 - eps) * sum(zy[g.n:]) == -value


@given(graphs_without_isolated_vertices(max_v=7),
       st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda e: e > 0))
@settings(max_examples=100, deadline=None)
def test_certificate_on_random_graphs(g, eps):
    rep = duality_check(g, eps)
    assert len(rep.x) == len(rep.z) == g.n and len(rep.y) == g.edge_count
    y = dict(zip(g.edges, rep.y))
    z = rep.z
    assert all(t >= 0 for t in [*y.values(), *z])
    assert all(z[u] + sum(yk for e, yk in y.items() if u in e) >= 1 for u in range(g.n))
    cost = sum(z) + (2 - eps) * sum(y.values())
    assert cost == rep.formula == ref_simplex_max(*ref_primal_program(g, eps))[0]


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
            primal_optimum_formula(g6, eps)
        with pytest.raises(ValueError):
            duality_check(g6, eps)


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
        value, x = ref_simplex_max(c, A, b)
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
        value, _ = ref_simplex_max(c, A, b)
        assert float(value) == pytest.approx(-res.fun, abs=1e-8)
