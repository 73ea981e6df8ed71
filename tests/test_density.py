import math

import numpy as np
import pytest

from copymax.density import (
    asymptotic_exponent,
    attribute_winner,
    best_t_density,
    class_fractions,
    clique_density,
    crossover_beta,
    crossover_bracket,
    curve_sample,
    density_curve,
    star_density,
    t_density,
    t_density_grid,
)
from copymax.graphs import complete_graph, enumerate_connected_graphs, path_graph
from copymax.weightings import spectrum
from oracles import g6_interior_polynomial, g6_star_polynomial

Q_HALF = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# class fractions

def test_fraction_endpoints():
    fr = class_fractions(0.36, 0.0)
    assert fr.y == 0.0
    assert fr.r == pytest.approx(1.0 - math.sqrt(0.64), abs=1e-15)
    assert fr.b == pytest.approx(math.sqrt(0.64), abs=1e-15)
    fr = class_fractions(0.36, 1.0)
    assert fr.r == 0.0
    assert fr.y == pytest.approx(0.6, abs=1e-15)
    assert fr.b == pytest.approx(0.4, abs=1e-15)
    fr = class_fractions(0.0, 0.7)
    assert (fr.y, fr.r, fr.b) == (0.0, 0.0, 1.0)


def test_fraction_identities_random():
    rng = np.random.default_rng(2024)
    betas = rng.uniform(0.0, 1.0, 20000)
    qs = rng.uniform(0.0, 1.0, 20000)
    for beta, q in zip(betas, qs):
        fr = class_fractions(beta, q)
        assert fr.y >= 0.0 and fr.r >= 0.0 and fr.b >= 0.0
        assert abs(fr.y + fr.r + fr.b - 1.0) <= 1e-12
        edge = fr.y ** 2 + fr.r ** 2 + 2.0 * fr.r * (fr.y + fr.b)
        assert abs(edge - beta) <= 1e-12


def test_fraction_domain():
    for beta, q in ((-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1)):
        with pytest.raises(ValueError):
            class_fractions(beta, q)


# ---------------------------------------------------------------------------
# densities

def test_clique_density_closed_form(g6_spec):
    for beta in (0.01, 0.0625, 0.25, 0.81):
        assert clique_density(g6_spec, beta) == pytest.approx(beta ** 3, rel=1e-12)
    assert clique_density(g6_spec, 0.25) == pytest.approx(0.015625, rel=1e-12)


def test_clique_density_closed_form_all_small_graphs():
    for g in enumerate_connected_graphs(5):
        sp = spectrum(g)
        for beta in (0.04, 0.2, 0.5):
            assert clique_density(sp, beta) == pytest.approx(
                beta ** (g.n / 2.0), rel=1e-12)


def test_star_density_matches_printed_polynomial(g6_spec):
    for beta in (0.005, 0.01, 0.2, 0.7):
        assert star_density(g6_spec, beta) == pytest.approx(
            g6_star_polynomial(beta), rel=1e-12)


def test_interior_density_matches_printed_polynomial(g6_spec):
    for beta in (0.005, 0.01, 0.016, 0.3):
        assert t_density(g6_spec, beta, Q_HALF) == pytest.approx(
            g6_interior_polynomial(beta), rel=1e-12)


def test_star_density_p2_value():
    sp = spectrum(path_graph(2))
    assert star_density(sp, 0.5) == pytest.approx(2.0 ** -1.5, rel=1e-12)
    assert star_density(sp, 0.0) == 0.0


def test_k2_density_is_edge_density():
    # for a single edge the census sum telescopes to beta itself
    sp = spectrum(complete_graph(2))
    rng = np.random.default_rng(7)
    for beta, q in zip(rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)):
        assert t_density(sp, beta, q) == pytest.approx(beta, rel=1e-12, abs=1e-13)


def test_density_at_beta_one(g6_spec):
    for q in (0.0, 0.3, 1.0):
        assert t_density(g6_spec, 1.0, q) == pytest.approx(1.0, rel=1e-12)


def test_density_zero_at_beta_zero(g6_spec):
    assert t_density(g6_spec, 0.0, 0.5) == 0.0


def test_density_grid_matches_scalar(g6_spec):
    qs = np.linspace(0.0, 1.0, 65)
    grid = t_density_grid(g6_spec, 0.037, qs)
    for q, t in zip(qs, grid):
        assert t == pytest.approx(t_density(g6_spec, 0.037, float(q)), rel=1e-12)


def test_density_monotone_in_beta(g6_spec):
    for q in (0.0, 0.4, Q_HALF, 1.0):
        vals = [t_density(g6_spec, b, q) for b in np.linspace(0.001, 1.0, 60)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_limit_constants(g6_spec):
    # quasi-star limit: s / beta^(v - alpha) -> A 2^(alpha - v)
    c2 = float(g6_spec.star_limit_constant())
    for beta in (1e-4, 1e-5):
        ratio = star_density(g6_spec, beta) / beta ** 3
        assert abs(ratio - c2) / c2 <= 10.0 * beta
    # interior limit: t / beta^(v - alpha*) -> C1(q); at the canonical q the
    # correction constant is ~3 so the 10 sqrt(beta) envelope holds
    c1 = g6_spec.interior_limit_constant(Q_HALF)
    for beta in (1e-6, 1e-7):
        ratio = t_density(g6_spec, beta, Q_HALF) / beta ** 2.5
        assert abs(ratio - c1) / c1 <= 10.0 * math.sqrt(beta)


def test_limit_constant_error_order(g6_spec):
    # away from the canonical q the correction constant depends on (g, q)
    # (about 28 at q = 0.3 here), but the sqrt(beta) order is universal:
    # dev / sqrt(beta) must be stable as beta shrinks 100-fold
    for q in (0.3, 0.9):
        c1 = g6_spec.interior_limit_constant(q)
        devs = []
        for beta in (1e-6, 1e-8):
            ratio = t_density(g6_spec, beta, q) / beta ** 2.5
            devs.append(abs(ratio - c1) / c1 / math.sqrt(beta))
        assert devs[1] == pytest.approx(devs[0], rel=0.2)


def test_star_vs_clique_small_beta():
    # the quasi-clique attains max(s, k) at vanishing density exactly when
    # the independence number is at most half the vertex count
    beta = 1e-4
    for g in enumerate_connected_graphs(5):
        sp = spectrum(g)
        s = star_density(sp, beta)
        k = clique_density(sp, beta)
        assert (2 * sp.alpha <= g.n) == (k >= s * (1.0 - 1e-9))


# ---------------------------------------------------------------------------
# profiles

def test_profile_interior_win(g6_spec):
    prof = best_t_density(g6_spec, 0.01)
    assert prof.value > clique_density(g6_spec, 0.01) * (1.0 + 1e-9)
    assert prof.value > star_density(g6_spec, 0.01) * (1.0 + 1e-9)
    assert 0.0 < prof.q_star < 1.0


def test_profile_clique_pattern():
    sp = spectrum(complete_graph(3))
    for beta in (0.01, 0.2, 0.8):
        prof = best_t_density(sp, beta)
        assert prof.value == pytest.approx(clique_density(sp, beta), rel=1e-12)


def test_profile_beta_one_ties(g6_spec):
    prof = best_t_density(g6_spec, 1.0)
    assert prof.value == pytest.approx(1.0, rel=1e-12)
    assert prof.q_star == 0.0
    assert prof.tie


def test_profile_dominates_endpoints(g6_spec):
    for beta in np.geomspace(1e-4, 1.0, 12):
        prof = best_t_density(g6_spec, float(beta))
        assert prof.value >= star_density(g6_spec, float(beta)) * (1 - 1e-15)
        assert prof.value >= clique_density(g6_spec, float(beta)) * (1 - 1e-15)


def test_profile_argument_checks(g6_spec):
    with pytest.raises(ValueError):
        best_t_density(g6_spec, 0.1, q_grid=32)
    with pytest.raises(ValueError):
        best_t_density(g6_spec, 0.1, refine_tol=0.0)


# ---------------------------------------------------------------------------
# crossovers and exponents

def test_crossover_g6(g6_spec):
    root = crossover_beta(g6_spec, 1.0, Q_HALF, (0.01, 0.03), tol=1e-9)
    assert root == pytest.approx(0.01613474, abs=1e-6)


def test_crossover_p2():
    sp = spectrum(path_graph(2))
    root = crossover_beta(sp, 0.0, 1.0, (0.3, 0.7), tol=1e-12)
    assert root == pytest.approx(0.5, abs=1e-9)


def test_crossover_p4():
    sp = spectrum(path_graph(4))
    root = crossover_beta(sp, 0.0, 1.0, (0.05, 0.12), tol=1e-9)
    assert root == pytest.approx(0.0865, abs=5e-4)


def test_crossover_bracket_g6(g6_spec):
    lo, hi = crossover_bracket(g6_spec, 1.0, Q_HALF)
    assert lo < 0.01613474 < hi
    assert crossover_beta(g6_spec, 1.0, Q_HALF, (lo, hi), tol=1e-9) == \
        pytest.approx(0.01613474, abs=1e-6)


def test_crossover_requires_sign_change(g6_spec):
    with pytest.raises(ValueError):
        crossover_beta(g6_spec, 1.0, Q_HALF, (0.5, 0.9))


def test_exponents(g6_spec):
    assert asymptotic_exponent(g6_spec, 1.0, 1e-6, 1e-4) == pytest.approx(3.0, abs=0.05)
    assert asymptotic_exponent(g6_spec, Q_HALF, 1e-6, 1e-4) == pytest.approx(2.5, abs=0.05)
    assert asymptotic_exponent(g6_spec, 0.0, 1e-6, 1e-4) == pytest.approx(3.0, abs=0.05)


def test_exponent_underflow_reported(g6_spec):
    with pytest.raises(ValueError, match="underflow"):
        asymptotic_exponent(g6_spec, Q_HALF, 1e-300, 1e-250)


def test_exponent_argument_checks(g6_spec):
    with pytest.raises(ValueError):
        asymptotic_exponent(g6_spec, 0.5, 1e-4, 1e-6)
    with pytest.raises(ValueError):
        asymptotic_exponent(g6_spec, 0.5, 1e-6, 1e-4, points=10)


# ---------------------------------------------------------------------------
# curves

def test_density_curve_csv(g6_spec):
    curve = density_curve(g6_spec, [0.005, 0.01, 0.5], graph_id="ExCO")
    text = curve.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "beta,f_T,q_star,t_S,t_K,winner"
    assert len(lines) == 4
    assert lines[1].startswith("0.005,")
    winners = [ln.split(",")[-1] for ln in lines[1:]]
    assert winners[0] == "T" and winners[-1] == "K"


def test_curve_sample_matches_parts(g6_spec):
    s = curve_sample(g6_spec, 0.005)
    prof = best_t_density(g6_spec, 0.005)
    assert (s.f_T, s.q_star) == (prof.value, prof.q_star)
    assert s.t_star == star_density(g6_spec, 0.005)
    assert s.t_clique == clique_density(g6_spec, 0.005)
    assert s.winner == attribute_winner(s.f_T, s.t_star, s.t_clique) == "T"


def test_density_curve_requires_increasing(g6_spec):
    with pytest.raises(ValueError):
        density_curve(g6_spec, [0.2, 0.1])


def test_attribute_winner_rules():
    assert attribute_winner(1.0, 1.0, 1.0) == "K"     # full tie goes to K
    assert attribute_winner(1.0, 1.0, 0.5) == "S"
    assert attribute_winner(1.0, 0.5, 0.5) == "T"
