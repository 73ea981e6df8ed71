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

One loop, _term_sum, adds the terms mult * exp(y_phi log y + r_phi log r
+ b_phi log b) in entry order, with math.exp for one (beta, q) and np.exp
for the grid.  A class is empty at Nagy's hosts (y = 0 at q = 0, r = 0 at
q = 1) and at beta = 1 (b = 0), and a term that counts an empty class is
0.  The one encoding of that rule is the log _EMPTY_LOG = -1e300 given to
an empty class, and it drops exactly those terms, bit for bit.  A count 0
times it is -0.0, which added to an exponent leaves its bits (and exp(0)
is 1 either way).  Counts c >= 1 on empty classes (c <= v <= 62, graph6's
limit) make the exponent c * -1e300 plus at most 62 * 745 in size from
the live logs, so it lies in about [-6.2e301, -1e300]: no overflow, and
its exp is exactly 0.0 in math and in numpy (whose underflow is ignored
by default), so the term adds +0.0 to a sum that is never negative.

The grid evaluator takes an array of betas as well as an array of q, so a
density curve scans its betas in one pass per BETA_CHUNK rows, each row
with the bits of a one-beta scan.

The supremum over q is a grid scan plus golden-section refinement of the
local grid maxima, skipping those that provably cannot reach their row's
grid maximum (_profiles gives the rule and its proof).  A density curve
refines every surviving maximum of all its betas in one lockstep
golden-section search, whose lanes each take the scalar search's float
steps and are evaluated in one lane sum per step, with the scalar sum's
bits (_lane_sum), so every sample has the bits of a one-beta call.  A
one-beta sample, as in the boundary bisection, takes the scalar route
throughout, which is cheaper than numpy there.

Every beta boundary (the S/T/K winner changes and the crossover of two q
values) is found by one search: side_changes scans a grid for the first
change of a side function, and bisect_side bisects that change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, pairwise

REL_TOL = 1e-12        # relative tolerance for "attains the supremum"
Q_GRID = 128           # q grid intervals scanned before refinement
BETA_CHUNK = 32        # betas per grid pass, bounding its temporaries
REFINE_TOL = 1e-10     # golden-section bracket width on q
BETA_TOL = 1e-6        # default bisection bracket width on beta
_EMPTY_LOG = -1e300    # the log of an empty class (module docstring)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CurveSample:
    beta: float
    f_T: float         # sup over q of t(beta, q)
    q_star: float      # smallest argmax (ties resolved within REL_TOL)
    t_star: float      # quasi-star density, q = 0
    t_clique: float    # quasi-clique density, q = 1
    winner: str        # "S", "T" or "K"
    tie: bool          # another q far from q_star also attains f_T


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


def _logs(y, r, b):
    """math.log of each class fraction, with _EMPTY_LOG for an empty class."""
    return (math.log(y) if y > 0.0 else _EMPTY_LOG, math.log(r) if r > 0.0 else _EMPTY_LOG,
            math.log(b) if b > 0.0 else _EMPTY_LOG)


def _term_sum(terms, ly, lr, lb, exp):
    """sum of mult * exp(yc ly + rc lr + bc lb) over the (yc, rc, bc, mult)
    terms, added in entry order: the census sum in log space, on Python
    floats with exp=math.exp or elementwise on arrays with exp=np.exp."""
    total = 0.0
    for yc, rc, bc, mult in terms:
        total += mult * exp(yc * ly + rc * lr + bc * lb)
    return total


def t_density(spec, beta: float, q: float) -> float:
    """Census sum for one (beta, q)."""
    _check_range(beta, q)
    return _term_sum(spec.density_terms, *_logs(*_fractions(beta, q)), math.exp)


def _check_grid(name, values):
    """Refuse any value outside [0, 1]; NaN fails both comparisons."""
    outside = values[~((values >= 0.0) & (values <= 1.0))]
    if outside.size:
        raise ValueError(f"{name} must lie in [0, 1], got {outside[0]}")


def t_density_grid(spec, beta, qs):
    """t(beta, q) over one beta or a 1-D array of betas and a 1-D array of
    q values, as an array of shape beta.shape + qs.shape.

    Betas are taken BETA_CHUNK rows at a time, each chunk summed by one
    _term_sum call on its np.log columns (an empty class at _EMPTY_LOG).
    No element depends on another, so each row of a batched call has the
    bits of a one-beta call."""
    import numpy as np

    betas = np.asarray(beta, dtype=float)
    qs = np.asarray(qs, dtype=float)
    _check_grid("beta", betas)
    _check_grid("q", qs)
    out = np.zeros((betas.size, qs.size))
    for lo in range(0, betas.size, BETA_CHUNK):
        rows = betas.reshape(-1, 1)[lo:lo + BETA_CHUNK]
        with np.errstate(divide="ignore"):
            logs = [np.maximum(np.log(v), _EMPTY_LOG) for v in _fractions(rows, qs, np.sqrt)]
        out[lo:lo + BETA_CHUNK] = _term_sum(spec.density_terms, *logs, np.exp)
    return out.reshape(betas.shape + qs.shape)


def clique_density(spec, beta: float) -> float:
    """Density in the quasi-clique (equals beta^(v/2) when no weight-0 or
    weight-1 vertex can appear, i.e. for any pattern without isolated
    vertices)."""
    return t_density(spec, beta, 1.0)


def star_density(spec, beta: float) -> float:
    """Density in the quasi-star (the weight-{0,1} slice of the census)."""
    return t_density(spec, beta, 0.0)


def _term_columns(terms):
    """The (yc, rc, bc, mult) terms as a (k, 3) count matrix and a (k, 1)
    multiplicity column, the form _lane_sum reads."""
    import numpy as np

    table = np.fromiter(chain.from_iterable(terms), float, 4 * len(terms)).reshape(-1, 4)
    return table[:, :3], table[:, 3:]


def _lane_sum(columns, y, r, b):
    """_term_sum(terms, *_logs(y, r, b), math.exp) at every lane of the 1-D
    arrays y, r and b, with its bits.

    Each numpy op is elementwise and is an op of the scalar loop, taken in
    its order: the count * log products, the exponent summed in (y, r, b)
    order, mult * exp, and a running sum over the terms in entry order
    (np.sum or @ would change that order).  The logs and exps are math's,
    mapped over the lanes, because np.log and np.exp differ from them in
    the last bit at some points; an empty class gets _EMPTY_LOG.  This
    (terms x lanes) form maps math.exp once per call; _term_sum on lanes
    would map it once per term, which made curves 25% slower."""
    import numpy as np

    counts, mult = columns
    classes = np.stack((y, r, b))
    live = classes > 0.0
    logs = np.full(classes.shape, _EMPTY_LOG)
    logs[live] = np.fromiter(map(math.log, classes[live].tolist()), float)
    exponent = counts[:, :1] * logs[0] + counts[:, 1:2] * logs[1] + counts[:, 2:] * logs[2]
    terms = mult * np.fromiter(map(math.exp, exponent.ravel().tolist()), float,
                               exponent.size).reshape(exponent.shape)
    total = np.zeros(len(y))
    for row in terms:
        total += row
    return total


def _t_lanes(columns, betas, qs):
    """t at each (beta, q) lane of two 1-D arrays, by _lane_sum."""
    import numpy as np

    return _lane_sum(columns, *_fractions(betas, qs, np.sqrt))


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


def _golden_lanes(columns, betas, lo, hi):
    """_golden_max(t(beta, .), lo, hi, REFINE_TOL) as a (q, t) pair for each
    lane of the 1-D arrays betas, lo and hi, the lanes stepped in lockstep:
    every lane takes _golden_max's float ops and stops at its own
    b - a <= REFINE_TOL, and the new points of one step are evaluated in one
    _t_lanes call."""
    import numpy as np

    a, b = lo.copy(), hi.copy()
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = np.split(_t_lanes(columns, np.concatenate((betas, betas)),
                               np.concatenate((c, d))), 2)
    live = np.flatnonzero(b - a > REFINE_TOL)
    while live.size:
        al, bl, cl, dl, fcl, fdl = (v[live] for v in (a, b, c, d, fc, fd))
        left = fcl >= fdl
        # left lanes: b, d, fd = d, c, fc; the others: a, c, fc = c, d, fd
        bl, al = np.where(left, dl, bl), np.where(left, al, cl)
        cl, dl = (np.where(left, bl - _INVPHI * (bl - al), dl),
                  np.where(left, cl, al + _INVPHI * (bl - al)))
        f = _t_lanes(columns, betas[live], np.where(left, cl, dl))
        fcl, fdl = np.where(left, f, fdl), np.where(left, fcl, f)
        a[live], b[live], c[live], d[live], fc[live], fd[live] = al, bl, cl, dl, fcl, fdl
        live = live[bl - al > REFINE_TOL]
    pick = fc >= fd
    return list(zip(np.where(pick, c, d).tolist(), np.where(pick, fc, fd).tolist()))


@lru_cache(maxsize=None)
def _q_grid():
    """The Q_GRID + 1 scan points on [0, 1], as a read-only array; built on
    first use."""
    import numpy as np

    qs = np.linspace(0.0, 1.0, Q_GRID + 1)
    qs.flags.writeable = False
    return qs


def _profiles(spec, betas):
    """One CurveSample per beta of a list: f_T = sup of t(beta, q) over q
    in [0, 1], its smallest argmax q_star (within REL_TOL relative; a tie
    when a q more than 1e-6 away also attains f_T), both endpoint hosts
    and the winner.

    A grid scan, then golden-section refinement of the local grid maxima
    (t(q) may be multimodal).  One with bracket [lo, hi] is skipped when
    the term sum at (y(hi), r(lo), b(lo)), times 1 + 1e-9 for rounding, is
    below top * (1 - REL_TOL), top being its row's grid maximum.  The skip
    is exact: on [0, 1] y rises while r and b fall
    (b' = sqrt(beta) (sqrt(beta) q/s - 1) <= 0, as
    s^2 = 1 - beta + beta q^2 >= beta q^2), so no q in the bracket exceeds
    that sum, and f_T >= top, so the skipped value could neither raise f_T
    nor reach the final threshold f_T * (1 - REL_TOL).  Every surviving
    maximum of every row is refined in one pass; f_T, the attaining set
    and q_star do not depend on the order of the candidates.

    Flat rule: when the whole grid lies within REL_TOL of its maximum
    (t = 1 at beta = 1 for every graph, t = beta for K2), every q attains
    the sup, so the sample is (grid max, 0, tie) with no refinement.  The
    refinement would only have chased float noise, so on flat profiles f_T
    may differ from it by a few ulps; nothing printed changes.

    The route is chosen once per call.  One beta (a curve_sample, as in the
    boundary bisection) takes the scalar route, cheaper than numpy at a few
    lanes: _term_sum bounds, _golden_max per maximum and t_density at the
    ends.  A curve takes the lane route: one _lane_sum for the bounds, one
    _golden_lanes search over every surviving maximum and one _t_lanes
    call for both endpoint hosts, each lane with the scalar route's bits."""
    import numpy as np

    qs = _q_grid()
    ts = t_density_grid(spec, betas, qs)
    top = ts.max(axis=1)
    flat = ts.min(axis=1) >= top * (1.0 - REL_TOL)
    edge = np.full((len(betas), 1), -math.inf)
    padded = np.concatenate((edge, ts, edge), axis=1)
    rows, peaks = np.nonzero((ts >= padded[:, :-2]) & (ts >= padded[:, 2:]) & ~flat[:, None])
    lanes = np.asarray(betas, dtype=float)[rows]
    lo, hi = qs[np.maximum(peaks - 1, 0)], qs[np.minimum(peaks + 1, Q_GRID)]
    # each maximum's skip bound is the term sum at (y(hi), r(lo), b(lo))
    y = _fractions(lanes, hi, np.sqrt)[0]
    _, r, b = _fractions(lanes, lo, np.sqrt)
    if len(betas) == 1:
        bounds = [_term_sum(spec.density_terms, *_logs(*v), math.exp)
                  for v in zip(y.tolist(), r.tolist(), b.tolist())]
        ends = [(star_density(spec, betas[0]), clique_density(spec, betas[0]))]

        def refine(keep):
            return [_golden_max(lambda q: t_density(spec, betas[0], q), *bracket, REFINE_TOL)
                    for bracket in zip(lo[keep].tolist(), hi[keep].tolist())]
    else:
        columns = _term_columns(spec.density_terms)
        bounds = _lane_sum(columns, y, r, b)
        both = np.tile(np.asarray(betas, dtype=float), 2)
        t0, t1 = np.split(_t_lanes(columns, both, np.repeat([0.0, 1.0], len(betas))), 2)
        ends = zip(t0.tolist(), t1.tolist())

        def refine(keep):
            return _golden_lanes(columns, lanes[keep], lo[keep], hi[keep])
    keep = np.flatnonzero(np.asarray(bounds) * (1.0 + 1e-9) >= top[rows] * (1.0 - REL_TOL))
    grid_ends = ts[:, [0, -1]].tolist()
    candidates = {i: [(0.0, grid_ends[i][0]), (1.0, grid_ends[i][1])]
                  for i in np.flatnonzero(~flat).tolist()}
    for i, q, t in zip(rows.tolist(), qs[peaks].tolist(), ts[rows, peaks].tolist()):
        candidates[i].append((q, t))
    for i, qt in zip(rows[keep].tolist(), refine(keep)):
        candidates[i].append(qt)
    out = []
    for i, (beta, value, (t0, t1)) in enumerate(zip(betas, top.tolist(), ends)):
        q_star, tie = 0.0, True
        if i in candidates:
            value = max(t for _, t in candidates[i])
            threshold = value * (1.0 - REL_TOL) if value > 0.0 else 0.0
            attaining = sorted(q for q, t in candidates[i] if t >= threshold)
            q_star = attaining[0]
            tie = any(q - q_star > 1e-6 for q in attaining)
        out.append(CurveSample(beta=beta, f_T=value, q_star=q_star, t_star=t0, t_clique=t1,
                               winner=attribute_winner(value, t0, t1), tie=tie))
    return tuple(out)


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
    """The optimised profile, both endpoint hosts and the winner at one
    beta."""
    return _profiles(spec, [beta])[0]


def density_curve(spec, betas) -> tuple:
    """One CurveSample per beta of a strictly increasing grid, all refined
    together (_profiles)."""
    betas = list(betas)
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta grid must be strictly increasing")
    return _profiles(spec, betas)


def side_changes(sides):
    """Each i at which sides[i + 1] differs from sides[i], read lazily: a
    caller that stops at the first change evaluates no side past it."""
    return (i for i, (a, b) in enumerate(pairwise(sides)) if a != b)


def bisect_side(side, lo, hi, left, tol):
    """Bisect a change of side(beta) inside (lo, hi), where left is the
    side at lo: lo moves to mid while side(mid) is left, hi otherwise,
    until hi - lo <= tol or lo and hi are adjacent floats.  Returns the
    midpoint and the final (lo, hi)."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:         # lo and hi are adjacent floats
            break
        if side(mid) == left:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi)


def _crossover_side(spec, q1, q2):
    """beta -> the sign (-1, 0 or 1) of t(beta, q1) - t(beta, q2), whose
    change is the crossover.  Equal q values make the gap 0 at every beta,
    so there is no crossover to find."""
    if q1 == q2:
        raise ValueError(f"q1 and q2 must differ, both are {q1}")

    def side(beta):
        gap = t_density(spec, beta, q1) - t_density(spec, beta, q2)
        return (gap > 0.0) - (gap < 0.0)
    return side


def crossover_bracket(spec, q1: float, q2: float):
    """First side change of t(., q1) - t(., q2) on the 399 points below 1
    of a 400-point geometric grid over [1e-6, 1], as a bracket for
    crossover_beta.  Every pair of q ties at beta = 0 and at beta = 1, so
    neither end is scanned."""
    import numpy as np

    side = _crossover_side(spec, q1, q2)
    betas = np.geomspace(1e-6, 1.0, 400).tolist()[:-1]
    i = next(side_changes(map(side, betas)), None)
    if i is None:
        raise ValueError("no crossover found on (1e-6, 1); give --bracket explicitly")
    return betas[i], betas[i + 1]


def crossover_beta(spec, q1: float, q2: float, bracket, tol: float = BETA_TOL) -> float:
    """Bisection root of t(., q1) - t(., q2) on a bracket inside (0, 1), to
    absolute tolerance tol on beta or until lo and hi are adjacent floats."""
    lo, hi = bracket
    if not 0.0 < lo < hi < 1.0:
        raise ValueError(f"bad bracket {bracket}: need 0 < lo < hi < 1")
    if not tol > 0.0:                 # NaN included
        raise ValueError("tol must be positive")
    side = _crossover_side(spec, q1, q2)
    left = side(lo)
    if side(hi) == left:
        raise ValueError(f"no sign change on bracket {bracket}")
    return bisect_side(side, lo, hi, left, tol)[0]
