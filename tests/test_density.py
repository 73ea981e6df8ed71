import dataclasses
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copymax import classify, density
from copymax.cli import main
from copymax.density import (
    Q_GRID,
    REL_TOL,
    attribute_winner,
    bisect_side,
    clique_density,
    crossover_beta,
    crossover_bracket,
    curve_sample,
    density_curve,
    density_curves,
    side_changes,
    star_density,
    t_density,
    _fractions,
    _census_table,
    _golden_lanes,
    _golden_max,
    _grid_blocks,
    _lane_sum,
    _t_lanes,
    _term_sum,
)
from copymax.graphs import (
    Graph,
    builtin_graph,
    clique_with_pendant_star,
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    parse_graph6,
    path_graph,
    write_graph6,
)
from copymax.hosts import class_sizes
from copymax.weightings import MAX_WEIGHTING_VERTICES, spectrum
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
    for q in (nan, -0.1, 1.1):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            t_density(g6_spec, 0.5, q)
    # a sample and a curve refuse a beta with t_density's message
    for beta in (nan, -0.1, 1.1):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]") as scalar:
            t_density(g6_spec, beta, 0.5)
        for sample in (lambda: curve_sample(g6_spec, beta),
                       lambda: density_curve(g6_spec, sorted([0.2, beta]))):
            with pytest.raises(ValueError) as grid:
                sample()
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


def _grid(specs, betas, qs):
    """The _grid_blocks passes over a census list's table, joined into one
    array of shape (censuses, betas, q)."""
    blocks = _grid_blocks(_census_table(specs), np.asarray(betas, dtype=float)[:, None],
                          np.asarray(qs, dtype=float))
    return np.concatenate([block for _, block in blocks], axis=1)


def test_density_grid_matches_scalar(g6_spec):
    qs = np.linspace(0.0, 1.0, 65)
    grid = _grid([g6_spec], [0.037], qs)[0, 0]
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
        assert np.array_equal(_grid([spec], [beta], grid)[0, 0],
                              ref_t_density_grid(spec, beta, grid))
    s, (value, q_star, tie) = curve_sample(spec, beta), ref_best_t_density(spec, beta)
    if _flat(spec, beta):
        assert (s.q_star, s.tie) == (q_star, tie)
        assert s.f_T == pytest.approx(value, rel=REL_TOL, abs=0.0)
    else:
        assert (s.f_T, s.q_star, s.tie) == (value, q_star, tie)


small_betas = st.one_of(st.sampled_from([0.0, 1.0, 5e-324]),
                        st.floats(min_value=0.0, max_value=1.0))


@given(st.lists(connected_graphs(max_v=7), min_size=1, max_size=density.GRAPH_CHUNK),
       st.lists(small_betas, min_size=1, max_size=101),
       st.lists(unit, min_size=1, max_size=9))
@settings(max_examples=60, deadline=None)
def test_batched_grid_rows_match_reference(graphs, betas, qs):
    # one chunk of graphs of mixed sizes, its betas over several BETA_CHUNK
    # passes: every (census, beta) row has the reference's bits
    specs = [spectrum(g) for g in graphs]
    for grid in (qs, np.linspace(0.0, 1.0, Q_GRID + 1)):
        rows = _grid(specs, betas, grid)
        assert rows.shape == (len(specs), len(betas), len(grid))
        for spec, census_rows in zip(specs, rows):
            for beta, row in zip(betas, census_rows):
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
                assert np.array_equal(_grid([spec], [beta], qs)[0, 0],
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
        s = curve_sample(spec, beta)
        assert (s.q_star, s.tie) == (0.0, True)
        assert s.f_T == pytest.approx(ref_best_t_density(spec, beta)[0], rel=REL_TOL, abs=0.0)
        # the two endpoint hosts, and no refinement
        assert calls == [(spec, beta, 0.0), (spec, beta, 1.0)]
        calls.clear()
    # refinement still goes through density.t_density, so a tracer counts it
    assert not _flat(g6, 0.3)
    s = curve_sample(g6, 0.3)
    assert (s.f_T, s.q_star, s.tie) == ref_best_t_density(g6, 0.3)
    assert len(calls) > 2


@pytest.mark.parametrize("g, beta", [(path_graph(2), 0.5), (parse_graph6("E{a?"), 16 / 25),
                                     (parse_graph6("E}a?"), 9 / 25)],
                         ids=["P2 at 1/2", "E{a? at 16/25", "E}a? at 9/25"])
def test_exact_star_clique_ties_on_steep_rows(g, beta):
    # t_S = t_K exactly at these betas (an S/K flip), and both ends attain
    # f_T on a row that is not flat: the smallest attaining q is 0, a q far
    # above it attains too, and K wins the tie, on both routes
    spec = spectrum(g)
    assert not _flat(spec, beta)
    one, lane = curve_sample(spec, beta), density_curve(spec, [beta / 2, beta])[1]
    assert _bits(dataclasses.astuple(lane)) == _bits(dataclasses.astuple(one))
    assert _bits((one.f_T, one.q_star, one.tie)) == _bits(ref_best_t_density(spec, beta))
    assert (one.tie, one.q_star, one.winner) == (True, 0.0, "K")


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
    table, census = _census_table([spec]), np.zeros(len(points), dtype=np.intp)
    fractions = [_fractions(beta, q) for beta, q in points]
    lanes = _lane_sum(table, census, *(np.array(v) for v in zip(*fractions)))
    scalar = [_term_sum(spec.entries, *f) for f in fractions]
    assert _bits(lanes.tolist()) == _bits(scalar)
    betas, qs = (np.array(v) for v in zip(*points))
    assert _bits(_t_lanes(table, census, betas, qs).tolist()) == \
        _bits([t_density(spec, beta, q) for beta, q in points])


CENSUS_CAP_GRAPHS = ("C16", "star15", "K16")


@pytest.mark.parametrize("name", CENSUS_CAP_GRAPHS)
def test_empty_class_rule_at_the_census_cap(name):
    # the largest counts the census allows (16 vertices) on every empty
    # class: y = 0 at q = 0 or beta = 0, r = 0 at q = 1 or beta <= 5e-324,
    # b = 0 at beta = 1, and two classes empty at once at (0, q) and (1, 0);
    # the grid alone and in one chunk with the other two
    spec = spectrum(builtin_graph(name))
    assert spec.v == 16
    betas, qs = [0.0, 5e-324, 0.3, 1.0], [0.0, 0.5, 1.0]
    points = [(beta, q) for beta in betas for q in qs]
    scalar = [t_density(spec, beta, q) for beta, q in points]
    assert scalar == [ref_t_density(spec, beta, q) for beta, q in points]
    chunk = [spectrum(builtin_graph(n)) for n in CENSUS_CAP_GRAPHS]
    for rows in (_grid([spec], betas, qs)[0],
                 _grid(chunk, betas, qs)[CENSUS_CAP_GRAPHS.index(name)]):
        for beta, row in zip(betas, rows):
            assert np.array_equal(row, ref_t_density_grid(spec, beta, qs))
    # the bit proof needs every multiplicity exact as a float: each is at
    # most 3^v, and the census cap keeps that below 2^53
    assert 3 ** MAX_WEIGHTING_VERTICES < 2 ** 53
    for specs in ([spec], chunk):
        mult = _census_table(specs)[2]
        for g, s in enumerate(specs):
            assert mult[:len(s.entries), g].tolist() == [m for _, m in s.entries]
    lanes = _t_lanes(_census_table([spec]), np.zeros(len(points), dtype=np.intp),
                     *(np.array(v) for v in zip(*points)))
    assert _bits(lanes.tolist()) == _bits(scalar)


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
    table = _census_table([spec])
    for n in (1, len(lanes)):
        lo, hi = np.array(brackets[:n]).T
        qs, ts = _golden_lanes(table, np.zeros(n, dtype=np.intp), np.array(betas[:n]), lo, hi)
        assert qs.shape == ts.shape == (n,)
        scalar = [_golden_max(lambda q: t_density(spec, beta, q), *bracket, density.REFINE_TOL)
                  for beta, bracket in zip(betas[:n], brackets[:n])]
        assert [_bits(qt) for qt in zip(qs.tolist(), ts.tolist())] == \
            [_bits(qt) for qt in scalar]


def _assert_rows_match_samples(spec, betas):
    # the lane route (a curve) and the scalar route (one beta) agree bit for
    # bit, and both hold plain Python values, not numpy scalars
    curve = density_curve(spec, betas)
    one = [curve_sample(spec, beta) for beta in betas]
    assert curve == tuple(one)
    assert [_bits(dataclasses.astuple(s)) for s in curve] == \
        [_bits(dataclasses.astuple(s)) for s in one]
    assert {type(v) for s in (*curve, *one) for v in dataclasses.astuple(s)} <= {float, bool, str}


@pytest.mark.parametrize("g", [builtin_graph("G6"), complete_graph(2),
                               clique_with_pendant_star(3, 4), clique_with_pendant_star(4, 8)],
                         ids=["G6", "K2", "family 3,4", "family 4,8"])
def test_curve_rows_match_one_beta_samples(g):
    # K2's rows are all flat; the families' rows have several maxima to
    # refine, and the grid ends at beta = 1, where every row is flat
    betas = classify.default_beta_grid()
    assert betas[-1] == 1.0
    _assert_rows_match_samples(spectrum(g), betas)


@given(connected_graphs(max_v=7), st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6))
@settings(max_examples=30, deadline=None)
def test_random_curve_rows_match_one_beta_samples(g, inner):
    # beta = 0 and beta = 1 are flat rows for every graph
    _assert_rows_match_samples(spectrum(g), sorted({0.0, 1.0, *inner}))


@given(st.lists(connected_graphs(max_v=7), min_size=1, max_size=6),
       st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4))
@settings(max_examples=15, deadline=None)
def test_chunked_curves_match_one_graph_routes(drawn, inner):
    # graphs of mixed sizes refined as one chunk, with K2 (all rows flat)
    # and family (3, 4) (rows with several maxima): every curve has the
    # bits of its own density_curve and of its one-beta samples
    specs = [spectrum(g) for g in (*drawn, complete_graph(2), clique_with_pendant_star(3, 4))]
    assert len(specs) <= density.GRAPH_CHUNK
    betas = sorted({0.0, 1.0, *inner, *classify.default_beta_grid()[::16]})
    chunked = list(density_curves(specs, betas))
    assert len(chunked) == len(specs)
    for spec, curve in zip(specs, chunked):
        one = density_curve(spec, betas)
        samples = [curve_sample(spec, beta) for beta in betas]
        assert [_bits(dataclasses.astuple(s)) for s in curve] == \
            [_bits(dataclasses.astuple(s)) for s in one] == \
            [_bits(dataclasses.astuple(s)) for s in samples]


def test_sweep_lane_sums_share_their_exps(monkeypatch):
    # a lane sum maps math.exp once per (distinct (y, r, b) point, count
    # triple of its chunk's table), not once per (lane, census entry)
    exps, shared, entries = [0], [0], [0]
    real_exp, real_sum = math.exp, density._lane_sum

    def counting_exp(x):
        exps[0] += 1
        return real_exp(x)

    def counting_sum(table, graphs, *classes):
        before = exps[0]
        out = real_sum(table, graphs, *classes)
        shared[0] += exps[0] - before
        entries[0] += int(np.count_nonzero(table[2][:, graphs]))
        return out

    monkeypatch.setattr(math, "exp", counting_exp)
    monkeypatch.setattr(density, "_lane_sum", counting_sum)
    rows = list(classify.sweep_connected_graphs(4))
    assert len(rows) == 9
    assert (shared[0], entries[0]) == (277258, 365500)


def test_route_follows_the_beta_count(monkeypatch):
    # one beta takes the scalar route throughout (t_density and _golden_max)
    # and a curve the lane route throughout (_t_lanes, _lane_sum and
    # _golden_lanes), also when a single maximum is left to refine in a
    # curve (the default grid for G6 has rows with one surviving maximum);
    # either scans its grid one _grid_blocks pass per BETA_CHUNK betas, on
    # one _census_table per chunk of censuses
    calls = Counter()
    for name in ("_golden_max", "t_density", "_golden_lanes", "_lane_sum", "_t_lanes",
                 "_census_table"):
        def counting(*args, _name=name, _f=getattr(density, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(density, name, counting)

    def counting_passes(*args, _f=density._grid_blocks):
        for grid_pass in _f(*args):
            calls["grid pass"] += 1
            yield grid_pass
    monkeypatch.setattr(density, "_grid_blocks", counting_passes)
    g6 = spectrum(builtin_graph("G6"))
    curve_sample(g6, 0.3)
    assert calls["_golden_max"] and calls["t_density"]
    assert calls["_golden_lanes"] == calls["_lane_sum"] == calls["_t_lanes"] == 0
    assert calls["grid pass"] == calls["_census_table"] == 1
    assert density.BETA_CHUNK == 8 and len(classify.default_beta_grid()) == 129
    for betas, passes in (([0.01, 0.3], 1), (classify.default_beta_grid(), 17)):
        calls.clear()
        density_curve(g6, betas)
        assert calls["_golden_lanes"] == 1 and calls["_lane_sum"] and calls["_t_lanes"]
        assert calls["_golden_max"] == calls["t_density"] == 0
        assert calls["grid pass"] == passes and calls["_census_table"] == 1
    # one pass and one table per chunk of censuses: 9 graphs are chunks of 8 and 1
    specs = [spectrum(g) for g in enumerate_connected_graphs(4)]
    assert len(specs) == 9 and density.GRAPH_CHUNK == 8
    calls.clear()
    assert len(list(density_curves(specs, [0.01, 0.3]))) == 9
    assert calls["grid pass"] == calls["_census_table"] == 2


def test_curve_peak_memory():
    # a chunk's grid is reduced one _grid_blocks pass at a time, so the
    # curves never hold a whole (censuses x betas x q) grid: 8 x 129 x 129
    # floats are 1.07 MB, and holding it with two masks of the same shape
    # puts the traced peak near 2.75 MB; streamed it is about 1.65 MB with a
    # dict of (q, t) lists per row for the samples, and about 1.03 MB with
    # the samples resolved by array reductions over one flat candidate list
    import tracemalloc

    specs = [spectrum(g) for g in enumerate_connected_graphs(5)]
    betas = classify.default_beta_grid()
    assert len(specs) == 30
    list(density_curves(specs[:density.GRAPH_CHUNK], betas))
    tracemalloc.start()
    try:
        for _ in density_curves(specs, betas):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4e6


def test_empty_beta_grid(g6):
    assert density_curve(spectrum(g6), []) == ()
    curve = classify.q_star_curve(g6, [])
    assert curve.samples == () and curve.non_decreasing and curve.violations == ()


def test_pruned_profiles_match_reference():
    # the sweep's own routes: a curve's batched grid rows, every surviving
    # maximum refined in one lockstep search, brackets bounded below the
    # row's grid maximum skipped; and the bisection's one-beta samples, each
    # maximum refined by the scalar search
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
            assert (s.f_T, s.q_star, s.tie) == ref
            one = curve_sample(spec, s.beta)
            assert (one.f_T, one.q_star, one.tie) == ref
            checked += 1
            interior += s.winner == "T"
    assert (checked, interior) == (2400, 74)


def test_sweep_refinement_count(monkeypatch):
    # t is evaluated at a (beta, q) point by t_density (the scalar route) or
    # as a lane of a _t_lanes call (the lane route); both are counted, and
    # so are the scalar evaluations made inside the bisection's one-beta
    # samples
    calls, lanes, in_samples = [], [], []
    scalar, lane, sample = density.t_density, density._t_lanes, classify.curve_sample

    def counting(*args):
        calls.append(args)
        return scalar(*args)

    def counting_lanes(table, graphs, betas, qs):
        lanes.extend(zip(betas.tolist(), qs.tolist()))
        return lane(table, graphs, betas, qs)

    def counting_sample(spec, beta):
        before = len(calls)
        out = sample(spec, beta)
        in_samples.append(len(calls) - before)
        return out

    monkeypatch.setattr(density, "t_density", counting)
    monkeypatch.setattr(density, "_t_lanes", counting_lanes)
    monkeypatch.setattr(classify, "curve_sample", counting_sample)
    rows = list(classify.sweep_connected_graphs(4))
    assert [r.classification.pattern for r in rows] == ["K", "SK", "K", "SK", "K", "K", "K", "K", "K"]
    # refining every local grid maximum took 70,618 evaluations; refining
    # the rows of a curve in lockstep, and skipping against the grid
    # maximum, leave the count as it was
    assert len(calls) + len(lanes) == 46938
    # curves take the lane route, so every scalar evaluation is one of the
    # one-beta samples'
    assert len(calls) == sum(in_samples) == 2296


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
    s = curve_sample(g6_spec, 0.01)
    assert s.f_T > clique_density(g6_spec, 0.01) * (1.0 + 1e-9)
    assert s.f_T > star_density(g6_spec, 0.01) * (1.0 + 1e-9)
    assert 0.0 < s.q_star < 1.0


def test_profile_clique_pattern():
    sp = spectrum(complete_graph(3))
    for beta in (0.01, 0.2, 0.8):
        s = curve_sample(sp, beta)
        assert s.f_T == pytest.approx(clique_density(sp, beta), rel=1e-12)


def test_profile_beta_one_ties(g6_spec):
    s = curve_sample(g6_spec, 1.0)
    assert s.f_T == pytest.approx(1.0, rel=1e-12)
    assert s.q_star == 0.0
    assert s.tie


def test_profile_dominates_endpoints(g6_spec):
    for beta in np.geomspace(1e-4, 1.0, 12):
        s = curve_sample(g6_spec, float(beta))
        assert s.f_T >= star_density(g6_spec, float(beta)) * (1 - 1e-15)
        assert s.f_T >= clique_density(g6_spec, float(beta)) * (1 - 1e-15)


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
