"""Type classification and small-graph sweeps.

Sweeping the edge density from 0 to 1 and asking which host attains the
best density partitions [0, 1] into S (quasi-star wins), T (a strictly
interior three-class host wins) and K (quasi-clique wins) regions.  A
graph's pattern is its winner sequence on the beta grid, with one bisected
boundary per change.  A pattern is K exactly when alpha* = v/2, a
theorem: alpha* = v/2 forces K (Friedgut-Kahn), which _sweep_row checks,
and alpha* > v/2 predicts an S or T start.  The rest is numerics: every
connected graph on at most 7 vertices is K, SK, TK or STK, but three on 8
vertices are TSK (clique_with_pendant_star(3, 4) among them), and family
(4, 8) is TSTK.

The module also hunts for graphs whose interior region is provably
non-empty (fractional independence number exceeding both the independence
number and half the vertex count) and computes exact extremal copy counts
ex(n, e, pattern) at tiny scale by exhausting host isomorphism classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import tee

from .density import (
    BETA_TOL,
    bisect_side,
    curve_sample,
    density_curve,
    density_curves,
    side_changes,
)
from .graphs import (
    MAX_ENUMERATION,
    Graph,
    enumerate_connected_graphs,
    graph_from_edge_mask,
    is_connected,
    write_graph6,
    _graph_classes,
)
from .hosts import (
    DEFAULT_BUDGET,
    _check_pattern_size,
    _copies,
    automorphism_count,
    injective_count,
    injective_count_from_spectrum,
    three_class_graph,
)
from .weightings import WeightingSpectrum, spectrum


@dataclass(frozen=True)
class TypeClassification:
    graph_id: str
    pattern: str               # winner sequence, e.g. "K", "SK", "TSK"
    boundaries: tuple          # (beta, (lo, hi)) per winner change, in order
    samples: tuple             # CurveSample per grid point


@dataclass(frozen=True)
class QStarCurve:
    samples: tuple             # CurveSample per beta
    non_decreasing: bool
    violations: tuple          # (beta, next untied beta) where q_star dropped


@dataclass(frozen=True)
class SweepRow:
    graph: Graph
    spectrum: WeightingSpectrum
    predicted_start: str
    classification: TypeClassification


def default_beta_grid():
    """Geometric 1e-5..0.1 (40 points) then linear 0.1..1 (90 points):
    resolves both the vanishing-density regime and the K tail."""
    import numpy as np

    grid = np.concatenate([np.geomspace(1e-5, 0.1, 40), np.linspace(0.1, 1.0, 90)])
    return sorted(set(grid.tolist()))


def classify_type(g: Graph, tol: float = BETA_TOL) -> TypeClassification:
    if not tol > 0.0:                 # NaN included
        raise ValueError("tol must be positive")
    if not is_connected(g):
        raise ValueError("classification requires a connected graph")
    spec = spectrum(g)
    return _classify(g, spec, tol, density_curve(spec, default_beta_grid()))


def _classify(g, spec, tol, samples):
    """The classification whose default-grid curve is samples."""
    winners = [s.winner for s in samples]
    changes = list(side_changes(winners))
    # the grid already gave the winner at samples[i], so it is passed in
    boundaries = tuple(
        bisect_side(lambda beta: curve_sample(spec, beta).winner,
                    samples[i].beta, samples[i + 1].beta, winners[i], tol)
        for i in changes)
    return TypeClassification(
        graph_id=write_graph6(g),
        pattern="".join([winners[0]] + [winners[i + 1] for i in changes]),
        boundaries=boundaries, samples=samples,
    )


def q_star_curve(g: Graph, betas=None) -> QStarCurve:
    """Sampled argmax curve with a monotonicity report.

    Whether q_star increases with beta is an open conjecture: violations
    are reported, never treated as errors.
    """
    if not is_connected(g):
        raise ValueError("q_star curve requires a connected graph")
    spec = spectrum(g)
    if betas is None:
        betas = default_beta_grid()
    samples = density_curve(spec, betas)
    # a tied sample (every q optimal, as at beta = 1) has no argmax to
    # compare, so each untied q_star is checked against the previous untied one
    untied = [s for s in samples if not s.tie]
    violations = tuple(
        (s0.beta, s1.beta) for s0, s1 in zip(untied, untied[1:])
        if s1.q_star < s0.q_star - 1e-8
    )
    return QStarCurve(samples=samples,
                      non_decreasing=not violations,
                      violations=violations)


def search_counterexamples(max_v: int):
    """Connected graphs (up to isomorphism, 2..max_v vertices) whose
    fractional independence number exceeds both the independence number and
    half the vertex count: exactly the graphs whose type cannot start with
    S or K."""
    return [g for g, _ in _counterexamples(max_v)]


def _counterexamples(max_v: int):
    """search_counterexamples' graphs, each with the census that found it."""
    pairs = ((g, spectrum(g)) for g in enumerate_connected_graphs(max_v))
    return [(g, spec) for g, spec in pairs if _predicted_start(spec) == "T"]


def _predicted_start(spec):
    """The host that wins at vanishing density: the one with the smallest
    exponent among v/2 (K), v - alpha (S) and v - alpha_star (T).  For a
    connected graph alpha_star >= max(alpha, v/2), so alpha_star = v/2
    means K, alpha_star > alpha means T, and otherwise S."""
    if spec.alpha_star == Fraction(spec.v, 2):
        return "K"
    if spec.alpha_star > spec.alpha:
        return "T"
    return "S"


def sweep_connected_graphs(max_v: int):
    """Classify every connected graph on 2..max_v vertices, checking that
    each numeric pattern starts with the exponent prediction and is K
    throughout when alpha* = v/2.  The graphs are enumerated here, so a
    bad max_v raises at the call.  Each row is classified when it is read,
    from a curve that density_curves refines together with the rest of its
    chunk, so a caller that keeps no row holds one chunk at a time."""
    graphs = list(enumerate_connected_graphs(max_v))
    specs, curve_specs = tee(map(spectrum, graphs))
    return map(_sweep_row, graphs, specs, density_curves(curve_specs, default_beta_grid()))


def _sweep_row(g, spec, samples):
    cls = _classify(g, spec, BETA_TOL, samples)
    predicted = _predicted_start(spec)
    # alpha* = v/2 bounds t by beta^(v/2) on every host (Friedgut-Kahn),
    # so the whole pattern must be K, not only its start
    if predicted == "K" and cls.pattern != "K":
        raise RuntimeError(f"{cls.graph_id}: alpha* = v/2 forces K at every beta, "
                           f"got {cls.pattern}")
    if not cls.pattern.startswith(predicted):
        raise RuntimeError(f"{cls.graph_id}: expected {predicted} start, got {cls.pattern}")
    return SweepRow(graph=g, spectrum=spec, predicted_start=predicted, classification=cls)


def exhaustive_ex(n: int, e: int, pattern: Graph, budget: int = DEFAULT_BUDGET):
    """Exact maximum of the copy count over all hosts with n vertices and at
    most e edges, by exhausting isomorphism classes.

    Adding an edge never destroys a copy, so the maximum is attained with
    exactly min(e, C(n,2)) edges; only that level is counted.  Each host is
    counted by backtracking, which raises CountBudgetExceeded past
    ``budget`` search nodes; the pattern's automorphisms are counted once.
    """
    return _exhaustive_ex(n, e, pattern, budget)[:2]


def _exhaustive_ex(n, e, pattern, budget):
    """exhaustive_ex's (count, host), with the pattern's |Aut| it divided by."""
    if n < 1:
        raise ValueError(f"host needs at least 1 vertex, got n = {n}")
    if n > MAX_ENUMERATION:
        raise ValueError(f"exhaustive search limited to {MAX_ENUMERATION} vertices")
    if e < 0:
        raise ValueError("edge bound must be non-negative")
    if budget < 1:
        raise ValueError(f"search budget must be at least 1 node, got {budget}")
    _check_pattern_size(pattern)      # before the automorphism search
    aut = automorphism_count(pattern)
    levels = _graph_classes(n)                # one level per edge count 0..C(n,2)
    candidates = (graph_from_edge_mask(n, mask) for mask in levels[min(e, len(levels) - 1)])
    counted = ((_copies(injective_count(pattern, h, budget=budget), aut), h) for h in candidates)
    return (*max(counted, key=lambda ch: ch[0]), aut)  # the first host with the most copies


@dataclass(frozen=True)
class ThreeClassProbe:
    exhaustive_max: int
    family_max: int
    family_sizes: tuple
    ratio: float               # family_max / exhaustive_max


def three_class_host_probe(n: int, e: int, pattern: Graph) -> ThreeClassProbe:
    """How close the best three-class host of the same size comes to the
    true extremal count (a report, not an assertion: the conjecture that
    the family is asymptotically optimal is open).  The three-class hosts
    are counted by the census route, so the pattern must have no isolated
    vertices."""
    exhaustive_max, _, aut = _exhaustive_ex(n, e, pattern, DEFAULT_BUDGET)
    spec = spectrum(pattern)
    best = -1
    best_sizes = None
    for ny in range(n + 1):
        for nr in range(n - ny + 1):
            sizes = ny, nr, n - ny - nr
            if three_class_graph(*sizes).edge_count > e:
                continue
            c = _copies(injective_count_from_spectrum(spec, sizes), aut)
            if c > best:
                best, best_sizes = c, sizes
    ratio = best / exhaustive_max if exhaustive_max > 0 else math.nan
    return ThreeClassProbe(exhaustive_max=exhaustive_max, family_max=best,
                           family_sizes=best_sizes, ratio=ratio)
