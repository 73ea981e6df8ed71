import dataclasses
import itertools
import json
from fractions import Fraction

import pytest

from copymax import classify, hosts
from copymax.cli import main
from copymax.classify import (
    _predicted_start,
    classify_type,
    default_beta_grid,
    exhaustive_ex,
    q_star_curve,
    search_counterexamples,
    sweep_connected_graphs,
    three_class_host_probe,
)
from copymax.density import curve_sample
from copymax.graphs import (
    builtin_graph,
    clique_with_pendant_star,
    complete_graph,
    enumerate_connected_graphs,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
    write_graph6,
)
from copymax.weightings import spectrum
from oracles import are_isomorphic, ref_independent_counts


def test_default_grid_shape():
    grid = default_beta_grid()
    assert grid[0] == pytest.approx(1e-5)
    assert grid[-1] == 1.0
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_classify_k3():
    assert classify_type(complete_graph(3)).pattern == "K"


def test_classify_p3():
    assert classify_type(path_graph(3)).pattern == "K"


def test_classify_p2():
    res = classify_type(path_graph(2), tol=1e-8)
    assert res.pattern == "SK"
    [(gamma, (lo, hi))] = res.boundaries
    assert gamma == pytest.approx(0.5, abs=1e-6)
    assert lo < 0.5 < hi + 1e-7


def test_classify_p4():
    res = classify_type(path_graph(4))
    assert res.pattern == "SK"
    assert res.boundaries[0][0] == pytest.approx(0.0865, abs=5e-4)


def test_classify_stars():
    for k in (2, 3, 4):
        assert classify_type(star_graph(k)).pattern == "SK"


def test_classify_g6(g6):
    res = classify_type(g6)
    assert res.pattern == "TK"
    assert res.pattern.startswith("T")


def test_patterns_end_in_k(g6):
    for g in (complete_graph(3), path_graph(2), path_graph(4), star_graph(3), g6):
        res = classify_type(g)
        assert res.pattern.endswith("K")
        assert res.samples[-1].winner == "K"


def test_boundary_brackets_straddle_the_winner_change():
    # the bisection keeps the left run's winner at lo and another at hi
    # (3, 4) is TSK, so its second change is bisected too
    checked = 0
    for g in [*enumerate_connected_graphs(5), clique_with_pendant_star(3, 4)]:
        res = classify_type(g)
        spec = spectrum(g)
        assert len(res.boundaries) == len(res.pattern) - 1
        for left, (_, (lo, hi)) in zip(res.pattern, res.boundaries):
            assert 0.0 < hi - lo <= 1e-6
            assert curve_sample(spec, lo).winner == left
            assert curve_sample(spec, hi).winner != left
            checked += 1
    assert checked > 0


def test_classify_requires_connected():
    with pytest.raises(ValueError):
        classify_type(parse_edge_list("n=4;1-2"))


def test_classification_json(capsys):
    assert main(["classify", "--builtin", "G6"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["pattern"] == "TK"
    assert d["gamma"] is not None and d["delta"] is None
    assert {"beta", "winner", "q_star"} <= set(d["samples"][0])


def test_classification_json_tsk(capsys):
    # exact verdicts put T at beta(k = 1/5) ~ 0.14793 and S at k = 9/40
    # (0.18346) and k = 2/5 (0.47562); K wins at the grid's 0.4867
    assert main(["classify", "--family", "3,4"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["pattern"] == "TSK"
    assert 0.14793 < d["gamma"] < 0.18346
    assert 0.47562 < d["delta"] < 0.4867
    assert d["gamma_bracket"][0] <= d["gamma"] <= d["gamma_bracket"][1]
    assert d["delta_bracket"][0] <= d["delta"] <= d["delta_bracket"][1]


# ---------------------------------------------------------------------------
# q* curve

def test_q_star_curve_p2():
    curve = q_star_curve(path_graph(2), betas=[0.1, 0.3, 0.45, 0.55, 0.8])
    q_values = [s.q_star for s in curve.samples]
    assert q_values[0] == 0.0 and q_values[-1] == 1.0
    assert curve.non_decreasing


def test_q_star_curve_g6_interior(g6):
    curve = q_star_curve(g6, betas=[0.002, 0.006, 0.012])
    for s in curve.samples:
        assert 0.0 < s.q_star < 1.0


def test_q_star_tie_at_beta_one(g6):
    curve = q_star_curve(g6, betas=[0.5, 1.0])
    last = curve.samples[-1]
    assert last.tie and last.q_star == 0.0


def test_q_star_tie_is_not_a_violation(g6):
    # at beta = 1 every q is optimal (q* = 0, tie): no drop into it
    curve = q_star_curve(g6, betas=[0.001, 0.005, 0.01, 0.02, 0.05, 0.2, 0.6, 1.0])
    assert curve.non_decreasing and curve.violations == ()
    betas = default_beta_grid()[-4:]
    assert betas[-1] == 1.0
    for g in enumerate_connected_graphs(5):
        curve = q_star_curve(g, betas=betas)
        assert curve.non_decreasing and curve.violations == (), write_graph6(g)


def test_q_star_curve_requires_increasing(g6):
    # argmaxes are compared in beta order, so the grid must be in that order
    with pytest.raises(ValueError):
        q_star_curve(g6, betas=[0.2, 0.1])
    with pytest.raises(ValueError):
        q_star_curve(g6, betas=[0.1, 0.1])


# ---------------------------------------------------------------------------
# counterexample search

def test_no_counterexamples_up_to_five():
    assert search_counterexamples(5) == []


def test_g6_found_at_six(g6):
    found = search_counterexamples(6)
    assert any(are_isomorphic(g, g6) for g in found)
    # every hit genuinely satisfies the strict inequality
    from copymax.weightings import fractional_independence_number
    for g in found:
        a_star = fractional_independence_number(g)
        assert a_star > max(k for k, i_k in enumerate(ref_independent_counts(g)) if i_k)
        assert a_star > Fraction(g.n, 2)


def test_k4_not_a_counterexample():
    found = search_counterexamples(4)
    assert not any(are_isomorphic(g, complete_graph(4)) for g in found)
    assert found == []


# ---------------------------------------------------------------------------
# sweep

def test_sweep_small(monkeypatch, capsys):
    rows = list(sweep_connected_graphs(4))
    assert len(rows) == 9
    patterns = [r.classification.pattern for r in rows]
    assert all(p.endswith("K") for p in patterns)
    for r, p in zip(rows, patterns):
        assert p in ("K", "SK")
        if p == "SK":
            assert r.classification.boundaries
        # start of the numeric pattern matches the exponent prediction
        assert p[0] == r.predicted_start
    # the CLI prints these rows, one line each
    monkeypatch.setattr(classify, "sweep_connected_graphs", lambda max_v: rows)
    assert main(["classify-all", "--max-v", "4"]) == 0
    csv = capsys.readouterr().out
    assert csv.startswith("graph6,v,e,alpha,alpha_star,A,pattern,gamma,delta\n")
    assert len(csv.strip().split("\n")) == 10
    assert [ln.split(",")[0] for ln in csv.strip().split("\n")[1:]] == \
        [write_graph6(r.graph) for r in rows]


def test_sweep_builds_each_census_once(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return spectrum(g)

    monkeypatch.setattr(classify, "spectrum", counting)
    rows = list(sweep_connected_graphs(4))
    assert len(rows) == len(calls) == 9


@pytest.mark.parametrize("g", [clique_with_pendant_star(3, 3),
                               parse_graph6("FzaC?"), parse_graph6("F~aC?")],
                         ids=["FjaC?", "FzaC?", "F~aC?"])
def test_start_rule_when_alpha_and_alpha_star_exceed_half(g):
    # alpha > v/2 but alpha_star > alpha: the exponent v - alpha_star (T)
    # is below both v - alpha (S) and v/2 (K), so the type starts with T
    spec = spectrum(g)
    assert (g.n, spec.alpha, spec.alpha_star) == (7, 4, Fraction(9, 2))
    assert _predicted_start(spec) == "T"
    assert classify_type(g).pattern == "TK"


def test_sweep_requires_whole_k_pattern(monkeypatch):
    # alpha* = v/2 (K3 among the 3-vertex graphs) forces K at every beta,
    # so any other pattern for it is an internal error
    real = classify._classify

    def broken(g, spec, tol):
        cls = real(g, spec, tol)
        return dataclasses.replace(cls, pattern="SK") if g.n == 3 else cls

    monkeypatch.setattr(classify, "_classify", broken)
    with pytest.raises(RuntimeError, match="forces K at every beta"):
        list(sweep_connected_graphs(3))


def test_sweep_cap():
    with pytest.raises(ValueError):
        sweep_connected_graphs(6)


# ---------------------------------------------------------------------------
# exact extremal counts

def test_ex_edges():
    best, host = exhaustive_ex(4, 3, complete_graph(2))
    assert best == 3
    assert host.edge_count == 3


def test_ex_triangles_quasi_clique():
    best, host = exhaustive_ex(5, 6, complete_graph(3))
    assert best == 4
    # the maximiser is K4 plus an isolated vertex
    degs = sorted(host.degree(v) for v in range(5))
    assert degs == [0, 3, 3, 3, 3]


def test_ex_against_labelled_scan():
    # independent route: scan every labelled host on 5 vertices with <= 6
    # edges and count triangles directly
    best = 0
    pairs = list(itertools.combinations(range(5), 2))
    for edges in itertools.combinations(pairs, 6):
        es = set(edges)
        tri = sum(1 for a, b, c in itertools.combinations(range(5), 3)
                  if {(a, b), (a, c), (b, c)} <= es)
        best = max(best, tri)
    assert best == exhaustive_ex(5, 6, complete_graph(3))[0]


def test_ex_cap():
    # class enumeration stops at 8 vertices; larger hosts are refused
    # before any enumeration starts
    for n in (9, 10):
        with pytest.raises(ValueError, match="limited to 8 vertices"):
            exhaustive_ex(n, 5, complete_graph(2))


def test_ex_counts_automorphisms_once(monkeypatch):
    calls = []
    counted = hosts.automorphism_count

    def counting(g):
        calls.append(g.n)
        return counted(g)

    # both names: ex's own, and hosts' own, so a count made inside hosts shows too
    monkeypatch.setattr(classify, "automorphism_count", counting)
    monkeypatch.setattr(hosts, "automorphism_count", counting)
    best, host = exhaustive_ex(7, 12, builtin_graph("G6"))
    assert (best, write_graph6(host)) == (48, "F]~o?")
    assert calls == [6]
    # patterns past the count limit are refused before any automorphism search
    for k in (9, 10):
        with pytest.raises(ValueError, match="pattern limited to 8 vertices"):
            exhaustive_ex(5, 3, complete_graph(k))
    assert calls == [6]


def test_probe_counts_automorphisms_once(monkeypatch):
    calls = []
    counted = hosts.automorphism_count

    def counting(g):
        calls.append(g.n)
        return counted(g)

    # both names: the probe's own module, and hosts' own, so a count made
    # inside hosts shows too
    monkeypatch.setattr(classify, "automorphism_count", counting)
    monkeypatch.setattr(hosts, "automorphism_count", counting)
    probe = three_class_host_probe(7, 12, builtin_graph("G6"))
    assert probe == classify.ThreeClassProbe(
        exhaustive_max=48, family_max=36, family_sizes=(4, 1, 2), ratio=0.75)
    assert calls == [6]


def test_ex_eight_vertices():
    # 10 edges hold at most the 10 triangles of K5 (Kruskal-Katona)
    best, host = exhaustive_ex(8, 10, complete_graph(3))
    assert best == 10 and host.n == 8 and host.edge_count == 10


def test_three_class_probe():
    probe = three_class_host_probe(6, 6, path_graph(2))
    assert 0.0 < probe.ratio <= 1.0
    assert probe.family_max <= probe.exhaustive_max
    assert sum(probe.family_sizes) == 6


def test_three_class_probe_p4_small_host():
    # how much of the true extremum the three-class family captures at
    # n = 7, e = 7 is a report, not an assertion; at this tiny scale no
    # member of the family even fits a 5-vertex path within 7 edges, so
    # the honest ratio is 0 (the family's optimality is an n -> infinity
    # statement)
    probe = three_class_host_probe(7, 7, path_graph(4))
    assert 0.0 <= probe.ratio <= 1.0
    assert probe.exhaustive_max == 14
    assert probe.family_max == 0
