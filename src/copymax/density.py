"""Asymptotic homomorphism densities into the three-class host family.

The host family interpolates, as q runs over [0, 1], from the quasi-star
(q = 0) to the quasi-clique (q = 1) at a fixed edge density beta.  Its
three vertex-class fractions are

    y(q) = sqrt(beta) q
    r(q) = 1 - sqrt(1 - beta (1 - q^2))
    b(q) = sqrt(1 - beta (1 - q^2)) - sqrt(beta) q

and the limiting density of a pattern graph is the census sum

    t(beta, q) = sum over weightings phi of  y^{y_phi} r^{r_phi} b^{b_phi}.

r and b are evaluated in conjugate form (``_fractions``, the one copy of
y, r and b): the naive expressions lose ~5 decimal digits to cancellation
at small beta, which is fatal for the 1e-12-relative endpoint comparisons
below.

The grid evaluator takes an array of betas as well as an array of q, so a
density curve scans its betas in one pass per BETA_CHUNK rows, each row
with the bits of a one-beta scan.

The supremum over q is a grid scan plus golden-section refinement of the
local grid maxima, highest first, skipping a maximum whose bracket
[lo, hi] cannot reach the best value so far: y rises in q while r and b
fall (b' = sqrt(beta)(sqrt(beta) q/s - 1) <= 0, as s >= sqrt(beta) q), so
the term sum at (y(hi), r(lo), b(lo)) bounds t on the bracket.  On flat
profiles (the grid within REL_TOL of its maximum: beta = 1 for every
graph, every beta for K2) every q attains the sup and no refinement runs.
There f_T is the grid maximum, which may differ by a few ulps from what
refinement would have reported; no printed output changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

REL_TOL = 1e-12        # relative tolerance for "attains the supremum"
Q_GRID = 128           # q grid intervals scanned before refinement
BETA_CHUNK = 32        # betas per grid pass, bounding its temporaries
REFINE_TOL = 1e-10     # golden-section bracket width on q
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def _fractions(beta, q, sqrt=math.sqrt):
    """(y, r, b) at a beta and a q, checked to lie in range; with
    sqrt=np.sqrt either may be an array, and they broadcast.  Below beta = 1,
    s + y >= sqrt(1 - beta) > 0.  At beta = 1 the numerator of b is 0 and
    s + y is 0 at q = 0, so adding (beta >= 1) to the denominator keeps it
    positive there and adds nothing anywhere else."""
    x = beta * (1.0 - q * q)
    s = sqrt(1.0 - x)
    y = sqrt(beta) * q
    r = x / (1.0 + s)
    b = (1.0 - beta) / (s + y + (beta >= 1.0))
    return y, r, b


def _live_terms(terms, y, r, b):
    """The terms with no positive count on an empty class (the rest are 0);
    apart from the hot loop in _term_sum, so that loop reads no closure
    cells."""
    return [t for t in terms if not (y <= 0.0 and t[0] or r <= 0.0 and t[1]
                                     or b <= 0.0 and t[2])]


def _term_sum(terms, y, r, b):
    """sum of mult * y^yc r^rc b^bc over the (yc, rc, bc, mult) terms, each
    term evaluated in log space and added in entry order."""
    if y > 0.0 and r > 0.0 and b > 0.0:
        ly, lr, lb = math.log(y), math.log(r), math.log(b)
    else:
        # the terms left count the empty class 0 times, so log 0.0 in its
        # place adds +-0.0 to the exponent: the same bits as skipping it
        terms = _live_terms(terms, y, r, b)
        ly, lr, lb = (math.log(v) if v > 0.0 else 0.0 for v in (y, r, b))
    total = 0.0
    for yc, rc, bc, mult in terms:
        total += mult * math.exp(yc * ly + rc * lr + bc * lb)
    return total


def t_density(spec, beta: float, q: float) -> float:
    """Census sum for one (beta, q)."""
    _check_range(beta, q)
    return _term_sum(spec.density_terms, *_fractions(beta, q))


def _check_grid(name, values):
    """Refuse any value outside [0, 1]; NaN fails both comparisons."""
    outside = values[~((values >= 0.0) & (values <= 1.0))]
    if outside.size:
        raise ValueError(f"{name} must lie in [0, 1], got {outside[0]}")


def t_density_grid(spec, beta, qs):
    """t(beta, q) over one beta or a 1-D array of betas and a 1-D array of
    q values, as an array of shape beta.shape + qs.shape.

    Betas are taken BETA_CHUNK rows at a time.  Each census entry adds its
    nonzero count * log columns to an exponent that starts at 0 in (y, r, b)
    order (log 0 = -inf makes a term on an empty class exp(-inf) = 0), and
    the terms are added as a running sum in entry order (np.sum may add
    pairwise, which moves the last bits).  No element depends on another,
    so each row of a batched call has the bits of a one-beta call."""
    import numpy as np

    betas = np.asarray(beta, dtype=float)
    qs = np.asarray(qs, dtype=float)
    _check_grid("beta", betas)
    _check_grid("q", qs)
    out = np.zeros((betas.size, qs.size))
    for lo in range(0, betas.size, BETA_CHUNK):
        rows = betas.reshape(-1, 1)[lo:lo + BETA_CHUNK]
        with np.errstate(divide="ignore"):
            logs = [np.log(v) for v in _fractions(rows, qs, np.sqrt)]
        total = out[lo:lo + BETA_CHUNK]
        for *counts, mult in spec.density_terms:
            acc = 0.0
            for count, lg in zip(counts, logs):
                if count:
                    acc = acc + count * lg
            total += mult * np.exp(acc)
    return out.reshape(betas.shape + qs.shape)


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


@lru_cache(maxsize=None)
def _q_grid():
    """The Q_GRID + 1 scan points on [0, 1], as a read-only array and as
    floats; built on first use."""
    import numpy as np

    qs = np.linspace(0.0, 1.0, Q_GRID + 1)
    qs.flags.writeable = False
    return qs, tuple(qs.tolist())


def best_t_density(spec, beta: float, ts=None) -> ProfilePoint:
    """Supremum of t(beta, q) over q in [0, 1].

    Grid scan followed by golden-section refinement around local grid
    maxima; t(q) may be multimodal.  ts, when given, is this beta's row of
    t_density_grid on the Q_GRID scan (density_curve passes the rows of one
    batched pass).  The reported q_star is the smallest q whose value is
    within REL_TOL (relative) of the best; a tie is flagged when a
    well-separated q attains the same value.

    The local maxima are refined in descending grid value, and one with
    bracket [lo, hi] is skipped when the term sum at (y(hi), r(lo), b(lo)),
    times 1 + 1e-9 for rounding, is below best * (1 - REL_TOL).  The skip
    is exact: on [0, 1] y rises while r and b fall (b' = sqrt(beta)
    (sqrt(beta) q/s - 1) <= 0, as s^2 = 1 - beta + beta q^2 >= beta q^2), so
    no q in the bracket exceeds that sum, and best only grows, so the
    skipped value could neither raise best nor reach the final threshold.

    Flat rule: when the whole grid lies within REL_TOL of its maximum
    (t = 1 at beta = 1 for every graph, t = beta for K2), every q attains
    the sup, so the result is (grid max, 0, tie) with no refinement.  The
    refinement would only have chased float noise, so on flat profiles the
    value may differ from it by a few ulps; nothing printed changes.
    """
    import numpy as np

    qs, qf = _q_grid()
    if ts is None:
        ts = t_density_grid(spec, beta, qs)
    top = float(ts.max())
    if ts.min() >= top * (1.0 - REL_TOL):
        return ProfilePoint(top, 0.0, True)
    edge = np.full(1, -math.inf)
    padded = np.concatenate((edge, ts, edge))
    peaks = np.flatnonzero((ts >= padded[:-2]) & (ts >= padded[2:])).tolist()
    ts = ts.tolist()
    peaks.sort(key=ts.__getitem__, reverse=True)
    candidates = [(0.0, ts[0]), (1.0, ts[-1])] + [(qf[i], ts[i]) for i in peaks]
    best = top
    terms = spec.density_terms
    f = lambda q: t_density(spec, beta, q)
    for i in peaks:
        lo, hi = qf[max(i - 1, 0)], qf[min(i + 1, Q_GRID)]
        y = _fractions(beta, hi)[0]
        _, r, b = _fractions(beta, lo)
        if _term_sum(terms, y, r, b) * (1.0 + 1e-9) < best * (1.0 - REL_TOL):
            continue
        q, t = _golden_max(f, lo, hi, REFINE_TOL)
        candidates.append((q, t))
        best = max(best, t)
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


def curve_sample(spec, beta: float, ts=None) -> CurveSample:
    """The optimised profile, both endpoint hosts and the winner at one
    beta; ts as for best_t_density."""
    prof = best_t_density(spec, beta, ts)
    t0 = star_density(spec, beta)
    t1 = clique_density(spec, beta)
    return CurveSample(beta=beta, f_T=prof.value, q_star=prof.q_star,
                       t_star=t0, t_clique=t1,
                       winner=attribute_winner(prof.value, t0, t1),
                       tie=prof.tie)


def density_curve(spec, betas) -> DensityCurve:
    """One curve_sample per beta of a strictly increasing grid, their q
    scans taken in one batched grid pass."""
    betas = list(betas)
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta grid must be strictly increasing")
    rows = t_density_grid(spec, betas, _q_grid()[0])
    return DensityCurve(samples=tuple(curve_sample(spec, beta, ts)
                                      for beta, ts in zip(betas, rows)))


def _crossover_gap(spec, q1, q2):
    """beta -> t(beta, q1) - t(beta, q2), whose root is the crossover."""
    return lambda beta: t_density(spec, beta, q1) - t_density(spec, beta, q2)


def crossover_bracket(spec, q1: float, q2: float):
    """First sign change of t(., q1) - t(., q2) on a 400-point geometric
    grid over [1e-6, 1], as a bracket for crossover_beta."""
    import numpy as np

    f = _crossover_gap(spec, q1, q2)
    prev_b, prev_f = None, None
    for b in np.geomspace(1e-6, 1.0, 400).tolist():
        val = f(b)
        if val == 0.0:
            return (b * 0.99, min(b * 1.01, 1.0))
        if prev_f is not None and (val > 0.0) != (prev_f > 0.0):
            return (prev_b, b)
        prev_b, prev_f = b, val
    raise ValueError("no crossover found on (1e-6, 1); give --bracket explicitly")


def crossover_beta(spec, q1: float, q2: float, bracket, tol: float = 1e-6) -> float:
    """Bisection root of t(., q1) - t(., q2) on the bracket, to absolute
    tolerance tol on beta or until lo and hi are adjacent floats."""
    lo, hi = bracket
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"bad bracket {bracket}")
    if not tol > 0.0:                 # NaN included
        raise ValueError("tol must be positive")
    f = _crossover_gap(spec, q1, q2)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on bracket {bracket}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:         # lo and hi are adjacent floats
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
