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

The supremum over q is a grid scan plus golden-section refinement at every
local grid maximum, except on flat profiles (the grid within REL_TOL of
its maximum: beta = 1 for every graph, every beta for K2), where every q
attains it and no refinement runs.  There f_T is the grid maximum, which
may differ by a few ulps from what refinement would have reported; no
printed output changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

REL_TOL = 1e-12        # relative tolerance for "attains the supremum"
Q_GRID = 128           # q grid intervals scanned before refinement
REFINE_TOL = 1e-10     # golden-section bracket width on q
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
    tie: bool          # another q far from q_star also attains f_T


@dataclass(frozen=True)
class DensityCurve:
    samples: tuple

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


def _fractions(beta, q):
    """(y, r, b) at one (beta, q) already checked to lie in range."""
    x = beta * (1.0 - q * q)
    s = math.sqrt(1.0 - x)
    y = math.sqrt(beta) * q
    r = x / (1.0 + s)
    b = (1.0 - beta) / (s + y) if (s + y) > 0.0 else 0.0
    return y, r, b


def class_fractions(beta: float, q: float) -> ClassFractions:
    _check_range(beta, q)
    return ClassFractions(beta, q, *_fractions(beta, q))


def t_density(spec, beta: float, q: float) -> float:
    """Census sum for one (beta, q), each term evaluated in log space and
    added in entry order."""
    _check_range(beta, q)
    y, r, b = _fractions(beta, q)
    terms = spec.density_terms
    total = 0.0
    if y > 0.0 and r > 0.0 and b > 0.0:
        # a zero count adds +-0.0 to the exponent: the same bits as skipping it
        ly, lr, lb = math.log(y), math.log(r), math.log(b)
        for yc, rc, bc, mult in terms:
            total += mult * math.exp(yc * ly + rc * lr + bc * lb)
        return total
    ly = math.log(y) if y > 0.0 else None
    lr = math.log(r) if r > 0.0 else None
    lb = math.log(b) if b > 0.0 else None
    for yc, rc, bc, mult in terms:
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
    """t(beta, q) over a 1-D array of q values in one (entry x q) pass: the
    masked count * log columns added in (y, r, b) order, one exp, then the
    rows summed in entry order.  The sum is a running sum because np.sum may
    add rows pairwise, which changes the last bits for short q arrays."""
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
    terms = np.array(spec.density_terms, dtype=float).reshape(-1, 4)
    acc = np.zeros((len(terms), qs.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        # log 0 = -inf, so a term with a positive count on an empty class
        # is exp(-inf) = 0; a zero count is masked, never 0 * -inf
        for col, val in enumerate((y, r, b)):
            counts = terms[:, col:col + 1]
            acc += np.where(counts != 0.0, counts * np.log(val), 0.0)
    return np.cumsum(terms[:, 3:] * np.exp(acc), axis=0)[-1]


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


def best_t_density(spec, beta: float) -> ProfilePoint:
    """Supremum of t(beta, q) over q in [0, 1].

    Grid scan followed by golden-section refinement around every local
    grid maximum; t(q) may be multimodal.  The reported q_star is the
    smallest q whose value is within REL_TOL (relative) of the best; a tie
    is flagged when a well-separated q attains the same value.

    Flat rule: when the whole grid lies within REL_TOL of its maximum
    (t = 1 at beta = 1 for every graph, t = beta for K2), every q attains
    the sup, so the result is (grid max, 0, tie) with no refinement.  The
    refinement would only have chased float noise, so on flat profiles the
    value may differ from it by a few ulps; nothing printed changes.
    """
    qs = np.linspace(0.0, 1.0, Q_GRID + 1)
    ts = t_density_grid(spec, beta, qs)
    top = float(ts.max())
    if ts.min() >= top * (1.0 - REL_TOL):
        return ProfilePoint(top, 0.0, True)
    f = lambda q: t_density(spec, beta, q)
    candidates = [(0.0, float(ts[0])), (1.0, float(ts[-1]))]
    for i in range(Q_GRID + 1):
        left = ts[i - 1] if i > 0 else -math.inf
        right = ts[i + 1] if i < Q_GRID else -math.inf
        if ts[i] >= left and ts[i] >= right:
            candidates.append((float(qs[i]), float(ts[i])))
            qq, tt = _golden_max(f, float(qs[max(i - 1, 0)]), float(qs[min(i + 1, Q_GRID)]),
                                 REFINE_TOL)
            candidates.append((float(qq), float(tt)))
    best = max(t for _, t in candidates)
    threshold = best * (1.0 - REL_TOL) if best > 0.0 else 0.0
    attaining = sorted(q for q, t in candidates if t >= threshold)
    q_star = attaining[0]
    tie = any(q - q_star > 1e-6 for q in attaining)
    return ProfilePoint(best, q_star, tie)


def attribute_winner(f_T: float, t_star: float, t_clique: float) -> str:
    """Which host attains the supremum: quasi-clique first (ties at beta = 1
    or for edge-count patterns go to K, matching the proven K tail), then
    quasi-star, else a strictly interior host."""
    if t_clique >= f_T * (1.0 - REL_TOL):
        return "K"
    if t_star >= f_T * (1.0 - REL_TOL):
        return "S"
    return "T"


def curve_sample(spec, beta: float) -> CurveSample:
    """The optimised profile, both endpoint hosts and the winner at one beta."""
    prof = best_t_density(spec, beta)
    t0 = star_density(spec, beta)
    t1 = clique_density(spec, beta)
    return CurveSample(beta=beta, f_T=prof.value, q_star=prof.q_star,
                       t_star=t0, t_clique=t1,
                       winner=attribute_winner(prof.value, t0, t1),
                       tie=prof.tie)


def density_curve(spec, betas) -> DensityCurve:
    """One curve_sample per beta of a strictly increasing grid."""
    betas = list(betas)
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta grid must be strictly increasing")
    return DensityCurve(samples=tuple(curve_sample(spec, beta) for beta in betas))


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
