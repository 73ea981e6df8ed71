"""Asymptotic homomorphism densities into the three-class host family.

The host family interpolates, as q runs over [0, 1], from the quasi-star
(q = 0) to the quasi-clique (q = 1) at a fixed edge density beta.  Its
three vertex-class fractions are

    y(q) = sqrt(beta) q
    r(q) = 1 - sqrt(1 - beta (1 - q^2))
    b(q) = sqrt(1 - beta (1 - q^2)) - sqrt(beta) q

and the limiting density of a pattern graph is the census sum

    t(beta, q) = sum over weightings phi of  y^{y_phi} r^{r_phi} b^{b_phi}.

r and b are evaluated through the conjugate forms x/(1 + sqrt(1-x)) and
(1-beta)/(sqrt(1-x) + sqrt(beta) q): the naive expressions lose ~5 decimal
digits to cancellation at small beta, which is fatal for the 1e-12-relative
endpoint comparisons below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

REL_TOL = 1e-12        # relative tolerance for "attains the supremum"
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ClassFractions:
    beta: float
    q: float
    y: float
    r: float
    b: float


class ProfilePoint(NamedTuple):
    value: float       # sup over q of t(beta, q)
    q_star: float      # smallest argmax (ties resolved within REL_TOL)
    tie: bool          # another q far from q_star also attains the sup


@dataclass(frozen=True)
class CurveSample:
    beta: float
    f_T: float
    q_star: float
    t_star: float      # quasi-star density, q = 0
    t_clique: float    # quasi-clique density, q = 1
    winner: str        # "S", "T" or "K"


@dataclass(frozen=True)
class DensityCurve:
    graph_id: str
    samples: tuple
    grid: dict

    def to_csv(self) -> str:
        lines = ["beta,f_T,q_star,t_S,t_K,winner"]
        for s in self.samples:
            lines.append(
                f"{s.beta:.12g},{s.f_T:.12g},{s.q_star:.12g},"
                f"{s.t_star:.12g},{s.t_clique:.12g},{s.winner}"
            )
        return "\n".join(lines) + "\n"


def _check_range(beta, q):
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")


def class_fractions(beta: float, q: float) -> ClassFractions:
    _check_range(beta, q)
    x = beta * (1.0 - q * q)
    s = math.sqrt(1.0 - x)
    y = math.sqrt(beta) * q
    r = x / (1.0 + s)
    b = (1.0 - beta) / (s + y) if (s + y) > 0.0 else 0.0
    return ClassFractions(beta, q, y, r, b)


def t_density(spec, beta: float, q: float) -> float:
    """Census sum for one (beta, q), each term evaluated in log space."""
    fr = class_fractions(beta, q)
    ly = math.log(fr.y) if fr.y > 0.0 else None
    lr = math.log(fr.r) if fr.r > 0.0 else None
    lb = math.log(fr.b) if fr.b > 0.0 else None
    total = 0.0
    for (rc, yc, bc), mult in spec.entries:
        s = 0.0
        if yc:
            if ly is None:
                continue
            s += yc * ly
        if rc:
            if lr is None:
                continue
            s += rc * lr
        if bc:
            if lb is None:
                continue
            s += bc * lb
        total += mult * math.exp(s)
    return total


def t_density_grid(spec, beta: float, qs) -> np.ndarray:
    """t(beta, q) over an array of q values in one vectorised pass."""
    qs = np.asarray(qs, dtype=float)
    if qs.size and (qs.min() < 0.0 or qs.max() > 1.0):
        raise ValueError("q grid must lie in [0, 1]")
    _check_range(beta, 0.0)
    x = beta * (1.0 - qs * qs)
    s = np.sqrt(1.0 - x)
    y = math.sqrt(beta) * qs
    r = x / (1.0 + s)
    denom = s + y
    b = np.divide(1.0 - beta, denom, out=np.zeros_like(qs), where=denom > 0.0)
    with np.errstate(divide="ignore"):
        logs = (np.log(y), np.log(r), np.log(b))
    vals = (y, r, b)
    total = np.zeros_like(qs)
    for (rc, yc, bc), mult in spec.entries:
        acc = np.zeros_like(qs)
        alive = np.ones(qs.shape, dtype=bool)
        for count, val, lg in zip((yc, rc, bc), vals, logs):
            if count:
                alive &= val > 0.0
                acc = acc + count * lg
        total += mult * np.where(alive, np.exp(np.where(alive, acc, 0.0)), 0.0)
    return total


def clique_density(spec, beta: float) -> float:
    """Density in the quasi-clique (equals beta^(v/2) when no weight-0 or
    weight-1 vertex can appear, i.e. for any pattern without isolated
    vertices)."""
    return t_density(spec, beta, 1.0)


def star_density(spec, beta: float) -> float:
    """Density in the quasi-star (the weight-{0,1} slice of the census)."""
    return t_density(spec, beta, 0.0)


def _golden_max(f, lo, hi, tol):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def best_t_density(spec, beta: float, q_grid: int = 128,
                   refine_tol: float = 1e-10) -> ProfilePoint:
    """Supremum of t(beta, q) over q in [0, 1].

    Grid scan followed by golden-section refinement around every local
    grid maximum; t(q) may be multimodal.  The reported q_star is the
    smallest q whose value is within REL_TOL (relative) of the best; a tie
    is flagged when a well-separated q attains the same value.
    """
    if q_grid < 64:
        raise ValueError("q_grid must be at least 64")
    if refine_tol <= 0.0:
        raise ValueError("refine_tol must be positive")
    qs = np.linspace(0.0, 1.0, q_grid + 1)
    ts = t_density_grid(spec, beta, qs)
    f = lambda q: t_density(spec, beta, q)
    candidates = [(0.0, float(ts[0])), (1.0, float(ts[-1]))]
    m = q_grid
    for i in range(m + 1):
        left = ts[i - 1] if i > 0 else -math.inf
        right = ts[i + 1] if i < m else -math.inf
        if ts[i] >= left and ts[i] >= right:
            candidates.append((float(qs[i]), float(ts[i])))
            qq, tt = _golden_max(f, float(qs[max(i - 1, 0)]), float(qs[min(i + 1, m)]),
                                 refine_tol)
            candidates.append((float(qq), float(tt)))
    best = max(t for _, t in candidates)
    threshold = best * (1.0 - REL_TOL) if best > 0.0 else 0.0
    attaining = sorted(q for q, t in candidates if t >= threshold)
    q_star = attaining[0]
    tie = any(q - q_star > 1e-6 for q in attaining)
    return ProfilePoint(best, q_star, tie)


def attribute_winner(f_T: float, t_star: float, t_clique: float,
                     rel_tol: float = REL_TOL) -> str:
    """Which host attains the supremum: quasi-clique first (ties at beta = 1
    or for edge-count patterns go to K, matching the proven K tail), then
    quasi-star, else a strictly interior host."""
    if t_clique >= f_T * (1.0 - rel_tol):
        return "K"
    if t_star >= f_T * (1.0 - rel_tol):
        return "S"
    return "T"


def curve_sample(spec, beta: float, q_grid: int = 128) -> CurveSample:
    """The optimised profile, both endpoint hosts and the winner at one beta."""
    prof = best_t_density(spec, beta, q_grid=q_grid)
    t0 = star_density(spec, beta)
    t1 = clique_density(spec, beta)
    return CurveSample(beta=beta, f_T=prof.value, q_star=prof.q_star,
                       t_star=t0, t_clique=t1,
                       winner=attribute_winner(prof.value, t0, t1))


def density_curve(spec, betas, q_grid: int = 128, graph_id: str = "") -> DensityCurve:
    betas = list(betas)
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta grid must be strictly increasing")
    samples = tuple(curve_sample(spec, beta, q_grid) for beta in betas)
    return DensityCurve(graph_id=graph_id, samples=samples,
                        grid={"q_grid": q_grid, "points": len(betas)})


def crossover_bracket(spec, q1: float, q2: float):
    """First sign change of t(., q1) - t(., q2) on a 400-point geometric
    grid over [1e-6, 1], as a bracket for crossover_beta."""
    grid = np.geomspace(1e-6, 1.0, 400)
    f = lambda b: t_density(spec, b, q1) - t_density(spec, b, q2)
    prev_b, prev_f = None, None
    for b in grid:
        val = f(float(b))
        if val == 0.0:
            return (float(b) * 0.99, min(float(b) * 1.01, 1.0))
        if prev_f is not None and (val > 0.0) != (prev_f > 0.0):
            return (prev_b, float(b))
        prev_b, prev_f = float(b), val
    raise ValueError("no crossover found on (1e-6, 1); give --bracket explicitly")


def crossover_beta(spec, q1: float, q2: float, bracket, tol: float = 1e-6) -> float:
    """Bisection root of t(., q1) - t(., q2) on the bracket, to absolute
    tolerance tol on beta."""
    lo, hi = bracket
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"bad bracket {bracket}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    f = lambda b: t_density(spec, b, q1) - t_density(spec, b, q2)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on bracket {bracket}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def asymptotic_exponent(spec, q: float, beta_lo: float, beta_hi: float,
                        points: int = 24) -> float:
    """Least-squares slope of log t against log beta on a geometric grid.

    The slope recovers the vanishing-density exponent: v/2 at q = 1,
    v - alpha_star for interior q, v - alpha at q = 0.
    """
    if not 0.0 < beta_lo < beta_hi <= 1.0:
        raise ValueError("need 0 < beta_lo < beta_hi <= 1")
    if points < 20:
        raise ValueError("need at least 20 sample points")
    betas = np.geomspace(beta_lo, beta_hi, points)
    ts = np.array([t_density(spec, float(b), q) for b in betas])
    dead = [float(b) for b, t in zip(betas, ts) if t <= 0.0]
    if dead:
        raise ValueError(f"density underflowed to 0 at beta = {dead}")
    slope = np.polyfit(np.log(betas), np.log(ts), 1)[0]
    return float(slope)
