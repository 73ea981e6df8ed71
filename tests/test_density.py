import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copymax import classify, density
from copymax.cli import main
from copymax.density import (
    BETA_CHUNK,
    Q_GRID,
    REL_TOL,
    attribute_winner,
    best_t_density,
    bisect_side,
    clique_density,
    crossover_beta,
    crossover_bracket,
    curve_sample,
    density_curve,
    side_changes,
    star_density,
    t_density,
    t_density_grid,
    _fractions,
    _golden_lanes,
    _golden_max,
    _lane_sum,
    _t_lanes,
    _term_columns,
    _term_sum,
)
from copymax.graphs import (
    Graph,
    builtin_graph,
    clique_with_pendant_star,
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    path_graph,
    write_graph6,
)
from copymax.hosts import class_sizes
from copymax.weightings import spectrum
from oracles import (
    g6_interior_polynomial,
    g6_star_polynomial,
    ref_asymptotic_exponent,
    ref_best_t_density,
    ref_t_density,
    ref_t_density_grid,
)

Q_HALF = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# class fractions

def test_fraction_endpoints():
    y, r, b = _fractions(0.36, 0.0)
    assert y == 0.0
    assert r == pytest.approx(1.0 - math.sqrt(0.64), abs=1e-15)
    assert b == pytest.approx(math.sqrt(0.64), abs=1e-15)
    y, r, b = _fractions(0.36, 1.0)
    assert r == 0.0
    assert y == pytest.approx(0.6, abs=1e-15)
    assert b == pytest.approx(0.4, abs=1e-15)
    assert _fractions(0.0, 0.7) == (0.0, 0.0, 1.0)


def test_fraction_identities_random():
    rng = np.random.default_rng(2024)
    betas = rng.uniform(0.0, 1.0, 20000)
    qs = rng.uniform(0.0, 1.0, 20000)
    for beta, q in zip(betas, qs):
        y, r, b = _fractions(beta, q)
        assert y >= 0.0 and r >= 0.0 and b >= 0.0
        assert abs(y + r + b - 1.0) <= 1e-12
        edge = y ** 2 + r ** 2 + 2.0 * r * (y + b)
        assert abs(edge - beta) <= 1e-12


def test_fraction_domain():
    # the class sizes are the one public reader of the fractions
    for beta, q in ((-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1)):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            class_sizes(100, beta, q)


def test_evaluators_refuse_the_same_inputs(g6_spec):
    # NaN fails every comparison, so a min/max range check lets it through
    nan = float("nan")
    for beta, q in ((nan, 0.5), (0.5, nan), (-0.1, 0.5), (1.1, 0.5),
                    (0.5, -0.1), (0.5, 1.1)):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]") as scalar:
            t_density(g6_spec, beta, q)
        for betas, qs in ((beta, [q]), ([0.2, beta], [0.3, q])):
            with pytest.raises(ValueError) as grid:
                t_density_grid(g6_spec, betas, qs)
            assert str(grid.value) == str(scalar.value)


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


@st.composite
def connected_graphs(draw, max_v=6):
    """A random spanning tree (each vertex tied to an earlier one) plus any
    subset of the remaining pairs."""
    n = draw(st.integers(min_value=2, max_value=max_v))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
    if pairs:
        edges.update(draw(st.lists(st.sampled_from(pairs), unique=True)))
    return Graph(n, sorted(edges))


unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


def _flat(spec, beta):
    ts = ref_t_density_grid(spec, beta, np.linspace(0.0, 1.0, Q_GRID + 1))
    return ts.min() >= ts.max() * (1.0 - REL_TOL)


@given(connected_graphs(), unit, st.lists(unit, min_size=1, max_size=9))
@settings(max_examples=80, deadline=None)
def test_evaluators_match_reference(g, beta, qs):
    spec = spectrum(g)
    for q in qs:
        assert t_density(spec, beta, q) == ref_t_density(spec, beta, q)
    for grid in (qs, np.linspace(0.0, 1.0, Q_GRID + 1)):
        assert np.array_equal(t_density_grid(spec, beta, grid),
                              ref_t_density_grid(spec, beta, grid))
    prof, ref = best_t_density(spec, beta), ref_best_t_density(spec, beta)
    if _flat(spec, beta):
        assert (prof.q_star, prof.tie) == (ref.q_star, ref.tie)
        assert prof.value == pytest.approx(ref.value, rel=REL_TOL, abs=0.0)
    else:
        assert prof == ref


small_betas = st.one_of(st.sampled_from([0.0, 1.0, 5e-324]),
                        st.floats(min_value=0.0, max_value=1.0))


@given(connected_graphs(max_v=7),
       st.lists(small_betas, min_size=1, max_size=3 * BETA_CHUNK + 5),
       st.lists(unit, min_size=1, max_size=9))
@settings(max_examples=60, deadline=None)
def test_batched_grid_rows_match_reference(g, betas, qs):
    spec = spectrum(g)
    for grid in (qs, np.linspace(0.0, 1.0, Q_GRID + 1)):
        rows = t_density_grid(spec, betas, grid)
        assert rows.shape == (len(betas), len(grid))
        for beta, row in zip(betas, rows):
            assert np.array_equal(row, ref_t_density_grid(spec, beta, grid))


def test_density_grid_bits_on_short_arrays():
    # a pairwise row sum would move the last bits once a census has 8 or
    # more entries and the q array is short
    rng = np.random.default_rng(11)
    for g in (builtin_graph("C7"), builtin_graph("C8"), clique_with_pendant_star(4, 2)):
        spec = spectrum(g)
        assert len(spec.entries) >= 8
        for size in range(1, 10):
            for _ in range(10):
                beta, qs = float(rng.uniform()), rng.uniform(size=size)
                assert np.array_equal(t_density_grid(spec, beta, qs),
                                      ref_t_density_grid(spec, beta, qs))


def test_flat_profiles_skip_refinement(monkeypatch):
    calls = []
    counted = density.t_density

    def counting(*args):
        calls.append(args)
        return counted(*args)

    monkeypatch.setattr(density, "t_density", counting)
    k2, g6 = spectrum(complete_graph(2)), spectrum(builtin_graph("G6"))
    # t = beta on every host for K2, and t = 1 at beta = 1 for every graph
    for spec, beta in ((k2, 0.3), (k2, 1e-5), (g6, 1.0)):
        assert _flat(spec, beta)
        prof = best_t_density(spec, beta)
        assert (prof.q_star, prof.tie) == (0.0, True)
        assert prof.value == pytest.approx(ref_best_t_density(spec, beta).value,
                                           rel=REL_TOL, abs=0.0)
    assert calls == []
    # refinement still goes through density.t_density, so a tracer counts it
    assert not _flat(g6, 0.3)
    assert best_t_density(g6, 0.3) == ref_best_t_density(g6, 0.3)
    assert calls


def test_flat_rule_only_on_k2_and_beta_one():
    graphs = [*enumerate_connected_graphs(5), builtin_graph("G6"), builtin_graph("C7")]
    betas = [1e-5, 0.01, 0.3, 0.9, 1.0]
    flat = {(write_graph6(g), beta) for g in graphs for beta in betas
            if _flat(spectrum(g), beta)}
    k2 = write_graph6(complete_graph(2))
    assert flat == {(write_graph6(g), 1.0) for g in graphs} | {(k2, b) for b in betas}


def _bits(values):
    """Each float as float.hex, so -0.0 and 0.0 differ; anything else as is."""
    return [v.hex() if isinstance(v, float) else v for v in values]


@st.composite
def graphs_without_isolated_vertices(draw, max_v=8):
    """Any edge set on n vertices, each vertex left isolated then tied to
    one other vertex."""
    n = draw(st.integers(min_value=2, max_value=max_v))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = set(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)))
    for v in range(n):
        if not any(v in e for e in edges):
            u = draw(st.integers(min_value=0, max_value=n - 2))
            u += u >= v
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


@given(graphs_without_isolated_vertices(), st.lists(st.tuples(unit, unit), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_lane_sum_has_the_scalar_bits(g, points):
    # every drawn (beta, q) also with beta and q at 0 and at 1, so empty
    # classes (y = 0 at q = 0, r = 0 at q = 1, b = 0 at beta = 1) are hit
    points = [(beta, q) for b0, q0 in points
              for beta, q in ((b0, q0), (0.0, q0), (1.0, q0), (b0, 0.0), (b0, 1.0))]
    spec = spectrum(g)
    terms = spec.density_terms
    columns = _term_columns(terms)
    fractions = [_fractions(beta, q) for beta, q in points]
    lanes = _lane_sum(columns, *(np.array(v) for v in zip(*fractions)))
    assert _bits(lanes.tolist()) == _bits([_term_sum(terms, *f) for f in fractions])
    betas, qs = (np.array(v) for v in zip(*points))
    assert _bits(_t_lanes(columns, betas, qs).tolist()) == \
        _bits([t_density(spec, beta, q) for beta, q in points])


@given(connected_graphs(), st.lists(st.tuples(unit, st.integers(min_value=0, max_value=Q_GRID)),
                                    min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_lockstep_golden_matches_scalar_lane_by_lane(g, lanes):
    # the brackets a grid maximum at index p gets, the two end ones 1/128 wide
    lanes = [*lanes, (lanes[0][0], 0), (lanes[0][0], Q_GRID)]
    spec = spectrum(g)
    qf = np.linspace(0.0, 1.0, Q_GRID + 1).tolist()
    brackets = [(qf[max(p - 1, 0)], qf[min(p + 1, Q_GRID)]) for _, p in lanes]
    betas = [beta for beta, _ in lanes]
    columns = _term_columns(spec.density_terms)
    for n in (1, len(lanes)):
        refined = _golden_lanes(spec, columns, betas[:n], brackets[:n])
        scalar = [_golden_max(lambda q: t_density(spec, beta, q), lo, hi, density.REFINE_TOL)
                  for beta, (lo, hi) in zip(betas[:n], brackets[:n])]
        assert [_bits(qt) for qt in refined] == [_bits(qt) for qt in scalar]


@pytest.mark.parametrize("g", [builtin_graph("G6"), complete_graph(2),
                               clique_with_pendant_star(3, 4), clique_with_pendant_star(4, 8)],
                         ids=["G6", "K2", "family 3,4", "family 4,8"])
def test_curve_rows_match_one_beta_samples(g):
    # K2's rows are all flat; the families' rows have several maxima to
    # refine, and the grid ends at beta = 1, where every row is flat
    spec = spectrum(g)
    betas = classify.default_beta_grid()
    assert betas[-1] == 1.0
    curve = density_curve(spec, betas)
    one = [curve_sample(spec, beta) for beta in betas]
    assert curve == tuple(one)
    assert [_bits(dataclasses.astuple(s)) for s in curve] == \
        [_bits(dataclasses.astuple(s)) for s in one]


def test_pruned_profiles_match_reference():
    # the sweep's own route: batched grid rows, maxima refined highest
    # first, brackets that cannot reach the threshold skipped
    graphs = [*enumerate_connected_graphs(6)]
    graphs += [clique_with_pendant_star(a, b) for a in (3, 4, 5) for b in (2, 3, 4)]
    betas = classify.default_beta_grid()[::8]
    checked = interior = 0
    for g in graphs:
        spec = spectrum(g)
        for s in density_curve(spec, betas):
            if _flat(spec, s.beta):
                continue
            ref = ref_best_t_density(spec, s.beta)
            assert (s.f_T, s.q_star, s.tie) == tuple(ref)
            checked += 1
            interior += s.winner == "T"
    assert (checked, interior) == (2400, 74)


def test_sweep_refinement_count(monkeypatch):
    # t is evaluated at a (beta, q) point by t_density (one lane) or as a
    # lane of a _t_lanes call; both are counted
    calls, lanes = [], []
    scalar, lane = density.t_density, density._t_lanes

    def counting(*args):
        calls.append(args)
        return scalar(*args)

    def counting_lanes(columns, betas, qs):
        lanes.extend(zip(betas.tolist(), qs.tolist()))
        return lane(columns, betas, qs)

    monkeypatch.setattr(density, "t_density", counting)
    monkeypatch.setattr(density, "_t_lanes", counting_lanes)
    rows = list(classify.sweep_connected_graphs(4))
    assert [r.classification.pattern for r in rows] == ["K", "SK", "K", "SK", "K", "K", "K", "K", "K"]
    # refining every local grid maximum took 70,618 evaluations; refining
    # the rows of a curve in lockstep leaves the count as it was
    assert len(calls) + len(lanes) == 46938
    assert len(calls) == 2376


def test_density_terms_built_once(g6_spec):
    terms = g6_spec.density_terms
    assert g6_spec.density_terms is terms
    assert len(terms) == len(g6_spec.entries)
    assert all(isinstance(t[3], float) for t in terms)


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


@pytest.mark.parametrize("spec, q1, q2, bracket, tol", [
    pytest.param(spectrum(builtin_graph("G6")), 1.0, Q_HALF, (0.01, 0.03), 1e-9, id="G6"),
    pytest.param(spectrum(path_graph(2)), 0.0, 1.0, (0.3, 0.7), 1e-12, id="P2"),
    pytest.param(spectrum(path_graph(4)), 0.0, 1.0, (0.05, 0.12), 1e-9, id="P4"),
])
def test_crossover_gap_changes_sign_across_root(spec, q1, q2, bracket, tol):
    root = crossover_beta(spec, q1, q2, bracket, tol=tol)
    gap = lambda beta: t_density(spec, beta, q1) - t_density(spec, beta, q2)
    assert gap(root - tol) * gap(root + tol) < 0.0


def test_side_changes_is_lazy():
    read = []
    sides = (read.append(s) or s for s in "SSSKKTK")
    assert next(side_changes(sides)) == 2
    assert read == list("SSSK")
    assert list(side_changes("SSSKKTK")) == [2, 4, 5]
    assert list(side_changes("")) == list(side_changes("K")) == []


def test_bisect_side_stops_at_adjacent_floats():
    # a step at 0.3 on the left-closed side: lo stays below it, hi above
    mid, (lo, hi) = bisect_side(lambda beta: beta < 0.3, 0.0, 1.0, True, 0.0)
    assert lo < 0.3 <= hi and math.nextafter(lo, 1.0) == hi
    assert mid in (lo, hi)
    mid, (lo, hi) = bisect_side(lambda beta: beta < 0.3, 0.0, 1.0, True, 0.25)
    assert (lo, hi) == (0.25, 0.5) and mid == 0.375


def test_crossover_requires_sign_change(g6_spec):
    with pytest.raises(ValueError):
        crossover_beta(g6_spec, 1.0, Q_HALF, (0.5, 0.9))


def test_crossover_refuses_equal_q(g6_spec):
    # the gap is identically 0: the bracket scan and the bisection each
    # used to report a phantom root (9.9e-07, or the bracket's lo end)
    with pytest.raises(ValueError, match="q1 and q2 must differ"):
        crossover_bracket(g6_spec, 0.5, 0.5)
    with pytest.raises(ValueError, match="q1 and q2 must differ"):
        crossover_beta(g6_spec, 0.5, 0.5, (0.1, 0.2))


def test_exponents(g6_spec):
    # the census gives the vanishing-beta exponents exactly; the log-log
    # fit is the numeric check of each
    for spec in (g6_spec, spectrum(cycle_graph(5)), spectrum(path_graph(4))):
        v = spec.v
        for q, exponent in ((1.0, Fraction(v, 2)), (Q_HALF, v - spec.alpha_star),
                            (0.0, Fraction(v - spec.alpha))):
            assert ref_asymptotic_exponent(spec, q, 1e-6, 1e-4) == \
                pytest.approx(float(exponent), abs=0.05)


# ---------------------------------------------------------------------------
# curves

def test_density_curve_csv(g6_spec, monkeypatch, capsys):
    # profile prints one line per CurveSample of its beta grid
    betas = [0.005, 0.01, 0.5]
    curve = density_curve(g6_spec, betas)
    monkeypatch.setattr(classify, "default_beta_grid", lambda: betas)
    assert main(["profile", "--builtin", "G6"]) == 0
    text = capsys.readouterr().out
    lines = text.strip().split("\n")
    assert lines[0] == "beta,f_T,q_star,t_S,t_K,winner"
    assert len(lines) == 4
    assert lines[1].startswith("0.005,")
    winners = [ln.split(",")[-1] for ln in lines[1:]]
    assert winners[0] == "T" and winners[-1] == "K"
    assert winners == [s.winner for s in curve]


def test_curve_sample_matches_parts(g6_spec):
    s = curve_sample(g6_spec, 0.005)
    prof = best_t_density(g6_spec, 0.005)
    assert (s.f_T, s.q_star, s.tie) == (prof.value, prof.q_star, prof.tie)
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
