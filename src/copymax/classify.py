"""Type classification and small-graph sweeps.

Sweeping the edge density from 0 to 1 and asking which host attains the
best density partitions [0, 1] into S (quasi-star wins), T (a strictly
interior three-class host wins) and K (quasi-clique wins) regions.  For
every graph the observed patterns are K, SK, TK or STK (the K tail is a
proven fact, the rest is numerics), and anything else is reported verbatim
as OTHER rather than forced into a pattern.

The module also hunts for graphs whose interior region is provably
non-empty (fractional independence number exceeding both the independence
number and half the vertex count) and computes exact extremal copy counts
ex(n, e, pattern) at tiny scale by exhausting host isomorphism classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .density import curve_sample, density_curve
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
    _copies,
    automorphism_count,
    copies_count,
    injective_count_from_spectrum,
)
from .weightings import spectrum


@dataclass(frozen=True)
class TypeClassification:
    graph_id: str
    pattern: str               # "K", "SK", "TK", "STK" or "OTHER"
    gamma: float | None        # first boundary
    delta: float | None        # second boundary (STK only)
    gamma_bracket: tuple | None
    delta_bracket: tuple | None
    samples: tuple             # (beta, winner, q_star) per grid point

    def to_json_dict(self):
        return {
            "graph6": self.graph_id,
            "pattern": self.pattern,
            "gamma": self.gamma,
            "delta": self.delta,
            "gamma_bracket": list(self.gamma_bracket) if self.gamma_bracket else None,
            "delta_bracket": list(self.delta_bracket) if self.delta_bracket else None,
            "samples": [
                {"beta": b, "winner": w, "q_star": q} for b, w, q in self.samples
            ],
        }


@dataclass(frozen=True)
class QStarCurve:
    samples: tuple             # (beta, q_star, tie)
    non_decreasing: bool
    violations: tuple          # (beta, next untied beta) where q_star dropped


@dataclass(frozen=True)
class SweepRow:
    graph6: str
    v: int
    e: int
    alpha: int
    alpha_star: Fraction
    max_independent_sets: int
    predicted_start: str
    pattern: str
    gamma: float | None
    delta: float | None

    def to_csv_row(self):
        gamma = f"{self.gamma:.12g}" if self.gamma is not None else ""
        delta = f"{self.delta:.12g}" if self.delta is not None else ""
        return (f"{self.graph6},{self.v},{self.e},{self.alpha},"
                f"{self.alpha_star},{self.max_independent_sets},"
                f"{self.pattern},{gamma},{delta}")


def default_beta_grid():
    """Geometric 1e-5..0.1 (40 points) then linear 0.1..1 (90 points):
    resolves both the vanishing-density regime and the K tail."""
    grid = np.concatenate([np.geomspace(1e-5, 0.1, 40), np.linspace(0.1, 1.0, 90)])
    return [float(b) for b in np.unique(grid)]


def _refine_boundary(spec, lo, hi, left_winner, tol):
    """Bisect the winner change inside (lo, hi) to absolute tolerance tol."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if curve_sample(spec, mid).winner == left_winner:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi)


def classify_type(g: Graph, tol: float = 1e-6) -> TypeClassification:
    if not is_connected(g):
        raise ValueError("classification requires a connected graph")
    return _classify(g, spectrum(g), tol)


def _classify(g, spec, tol):
    samples = [(s.beta, s.winner, s.q_star)
               for s in density_curve(spec, default_beta_grid()).samples]
    runs = [samples[0][1]]
    changes = []                     # (index before change)
    for i in range(1, len(samples)):
        if samples[i][1] != runs[-1]:
            runs.append(samples[i][1])
            changes.append(i - 1)
    seq = "".join(runs)
    graph_id = write_graph6(g)
    gamma = delta = None
    gamma_bracket = delta_bracket = None
    if seq in ("SK", "TK", "STK"):
        gamma, gamma_bracket = _refine_boundary(
            spec, samples[changes[0]][0], samples[changes[0] + 1][0],
            runs[0], tol)
        if seq == "STK":
            delta, delta_bracket = _refine_boundary(
                spec, samples[changes[1]][0], samples[changes[1] + 1][0],
                runs[1], tol)
    pattern = seq if seq in ("K", "SK", "TK", "STK") else "OTHER"
    return TypeClassification(
        graph_id=graph_id, pattern=pattern,
        gamma=gamma, delta=delta,
        gamma_bracket=gamma_bracket, delta_bracket=delta_bracket,
        samples=tuple(samples),
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
    samples = [(s.beta, s.q_star, s.tie) for s in density_curve(spec, betas).samples]
    # a tied sample (every q optimal, as at beta = 1) has no argmax to
    # compare, so each untied q_star is checked against the previous untied one
    untied = [(beta, q) for beta, q, tie in samples if not tie]
    violations = tuple(
        (b0, b1) for (b0, q0), (b1, q1) in zip(untied, untied[1:])
        if q1 < q0 - 1e-8
    )
    return QStarCurve(samples=tuple(samples),
                      non_decreasing=not violations,
                      violations=violations)


def search_counterexamples(max_v: int):
    """Connected graphs (up to isomorphism, 2..max_v vertices) whose
    fractional independence number exceeds both the independence number and
    half the vertex count: exactly the graphs whose type cannot start with
    S or K."""
    return [g for g in enumerate_connected_graphs(max_v)
            if _predicted_start(spectrum(g)) == "T"]


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
    throughout when alpha* = v/2."""
    if max_v > 5:
        raise ValueError("the full numeric sweep is limited to 5 vertices")
    rows = []
    for g in enumerate_connected_graphs(max_v):
        spec = spectrum(g)
        cls = _classify(g, spec, 1e-6)      # classify_type's default tol
        predicted = _predicted_start(spec)
        # alpha* = v/2 bounds t by beta^(v/2) on every host (Friedgut-Kahn),
        # so the whole pattern must be K, not only its start
        if predicted == "K" and cls.pattern != "K":
            raise RuntimeError(f"{cls.graph_id}: alpha* = v/2 forces K at every beta, "
                               f"got {cls.pattern}")
        if not cls.pattern.startswith(predicted):
            raise RuntimeError(f"{cls.graph_id}: expected {predicted} start, got {cls.pattern}")
        rows.append(SweepRow(
            graph6=cls.graph_id, v=g.n, e=g.edge_count,
            alpha=spec.alpha, alpha_star=spec.alpha_star,
            max_independent_sets=spec.max_independent_sets,
            predicted_start=predicted, pattern=cls.pattern,
            gamma=cls.gamma, delta=cls.delta,
        ))
    return rows


def sweep_to_csv(rows) -> str:
    lines = ["graph6,v,e,alpha,alpha_star,A,pattern,gamma,delta"]
    lines += [r.to_csv_row() for r in rows]
    return "\n".join(lines) + "\n"


def exhaustive_ex(n: int, e: int, pattern: Graph, budget: int = DEFAULT_BUDGET):
    """Exact maximum of the copy count over all hosts with n vertices and at
    most e edges, by exhausting isomorphism classes.

    Adding an edge never destroys a copy, so the maximum is attained with
    exactly min(e, C(n,2)) edges; only that level is counted.  Each host is
    counted by backtracking, which raises CountBudgetExceeded past
    ``budget`` search nodes.
    """
    if n > MAX_ENUMERATION:
        raise ValueError(f"exhaustive search limited to {MAX_ENUMERATION} vertices")
    if e < 0:
        raise ValueError("edge bound must be non-negative")
    e = min(e, n * (n - 1) // 2)
    levels = _graph_classes(n)
    best = -1
    best_host = None
    for mask in levels[e]:
        host = graph_from_edge_mask(n, mask)
        c = copies_count(pattern, host, budget=budget)
        if c > best:
            best, best_host = c, host
    return best, best_host


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
    exhaustive_max, _ = exhaustive_ex(n, e, pattern)
    spec = spectrum(pattern)
    aut = automorphism_count(pattern)
    best = -1
    best_sizes = None
    for ny in range(n + 1):
        for nr in range(n - ny + 1):
            nb = n - ny - nr
            edges = ny * (ny - 1) // 2 + nr * (nr - 1) // 2 + nr * ny + nr * nb
            if edges > e:
                continue
            c = _copies(injective_count_from_spectrum(spec, (ny, nr, nb)), aut)
            if c > best:
                best, best_sizes = c, (ny, nr, nb)
    ratio = best / exhaustive_max if exhaustive_max > 0 else math.nan
    return ThreeClassProbe(exhaustive_max=exhaustive_max, family_max=best,
                           family_sizes=best_sizes, ratio=ratio)
