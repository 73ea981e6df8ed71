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

Every evaluator adds the terms mult * exp(y_phi log y + r_phi log r + b_phi
log b) in entry order.  A class is empty at Nagy's hosts (y = 0 at q = 0,
r = 0 at q = 1) and at beta = 1 (b = 0), and a term that counts an empty
class is 0.  The one encoding of that rule is the log _EMPTY_LOG = -1e300
given to an empty class, and it drops exactly those terms, bit for bit.  A
count 0 times it is -0.0, which added to an exponent leaves its bits (and
exp(0) is 1 either way).  Counts c >= 1 on empty classes (c <= v <= 62,
graph6's limit) make the exponent c * -1e300 plus at most 62 * 745 in size
from the live logs, so it lies in about [-6.2e301, -1e300]: no overflow,
and its exp is exactly 0.0 in math and in numpy (whose underflow is
ignored by default), so the term adds +0.0 to a sum that is never negative.

_term_sum(entries, y, r, b) adds the terms at one point with math.exp,
reading the census's ((rc, yc, bc), mult) entries as they are.  Every numpy
evaluation reads one layout, a chunk's _census_table: _grid_blocks over a
beta column x a q array, BETA_CHUNK betas a pass, with np.exp, and _lane_sum
over (census, y, r, b) lanes with math.exp.  Each value has the
bits of the one-census loop at its point with the same exp, as it does the
same IEEE ops on the same operands: the log of each fraction, the exponent
yc ly + rc lr + bc lb in that order (counts <= 62 are exact as floats),
its exp, and mult * exp added to a running total in the census's entry
order.  A multiplicity is at most 3^16 < 2^53, so the loop's int mult
times a float rounds exactly as the table's float mult does.  Points that
share their logs, and censuses that share a count triple, share its exp,
which changes no operand.  An entry that pads a census to the table's
width has mult 0.0, and every log is <= 0 (no fraction exceeds 1), so its
exp is finite and the term is +0.0, which leaves the bits of a total that
is never negative.  So every grid row and
every curve sample has the bits of a one-census, one-beta call.

The supremum over q is a grid scan plus golden-section refinement of the
local grid maxima, skipping those that provably cannot reach their row's
grid maximum (_profiles gives the rule and its proof).  The curves of up
to GRAPH_CHUNK censuses share one _census_table, scan their grid one
_grid_blocks pass at a time, and refine every surviving maximum of all
their rows in one lockstep golden-section search, whose
lanes each take the scalar search's float steps and are evaluated in one
_lane_sum call per step.  A one-beta sample, as in the boundary bisection,
refines on the scalar route, which is cheaper than numpy there.

Every beta boundary (the S/T/K winner changes and the crossover of two q
values) is found by one search: side_changes scans a grid for the first
change of a side function, and bisect_side bisects that change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, pairwise

from .graphs import Graph
from .weightings import spectrum

REL_TOL = 1e-12        # relative tolerance for "attains the supremum"
Q_GRID = 128           # q grid intervals scanned before refinement
BETA_CHUNK = 8         # betas per grid pass, bounding its temporaries
GRAPH_CHUNK = 8        # censuses refined together, bounding their lanes
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


def _term_sum(entries, y, r, b):
    """The census sum at the class fractions (y, r, b): mult * exp(yc ly +
    rc lr + bc lb) over the ((rc, yc, bc), mult) census entries, added in
    entry order, with ly, lr, lb the math.log of each fraction (_EMPTY_LOG
    for an empty class)."""
    ly = math.log(y) if y > 0.0 else _EMPTY_LOG
    lr = math.log(r) if r > 0.0 else _EMPTY_LOG
    lb = math.log(b) if b > 0.0 else _EMPTY_LOG
    total = 0.0
    for (rc, yc, bc), mult in entries:
        total += mult * math.exp(yc * ly + rc * lr + bc * lb)
    return total


def t_density(spec, beta: float, q: float) -> float:
    """Census sum for one (beta, q)."""
    _check_range(beta, q)
    return _term_sum(spec.entries, *_fractions(beta, q))


def _check_grid(name, values):
    """Refuse any value outside [0, 1]; NaN fails both comparisons."""
    outside = values[~((values >= 0.0) & (values <= 1.0))]
    if outside.size:
        raise ValueError(f"{name} must lie in [0, 1], got {outside[0]}")


def clique_density(spec, beta: float) -> float:
    """Density in the quasi-clique (equals beta^(v/2) when no weight-0 or
    weight-1 vertex can appear, i.e. for any pattern without isolated
    vertices)."""
    return t_density(spec, beta, 1.0)


def star_density(spec, beta: float) -> float:
    """Density in the quasi-star (the weight-{0,1} slice of the census)."""
    return t_density(spec, beta, 0.0)


def _census_table(specs):
    """A chunk's census entries as t_density_grid and _lane_sum read them:
    its distinct (yc, rc, bc) count triples as three (T, 1) count columns,
    and per entry k of census g the index slots[k, g] of its triple and its
    multiplicity mult[k, g] as a float (exact: it is at most 3^16),
    zero-padded."""
    import numpy as np

    index = {}
    slots = np.zeros((max(len(s.entries) for s in specs), len(specs)), dtype=np.intp)
    mult = np.zeros(slots.shape)
    for g, spec in enumerate(specs):
        for k, ((rc, yc, bc), m) in enumerate(spec.entries):
            slots[k, g], mult[k, g] = index.setdefault((yc, rc, bc), len(index)), m
    return np.array(list(index), dtype=float).T[:, :, None], slots, mult


def _grid_blocks(table, betas, qs):
    """t over a (betas, 1) column and a 1-D q array for each census of a
    _census_table, BETA_CHUNK betas a pass: yields each pass's first beta
    index and its array of shape (censuses, betas of the pass, q).  A pass
    takes one np.log per class of each (beta, q) point (an empty class at
    _EMPTY_LOG), one exponent and one np.exp per table triple, and adds
    each census's mult * exp terms in its entry order, so every row has the
    bits of a one-census, one-beta call (module docstring).  The passes
    share one exponent buffer and one product buffer, so no pass allocates
    an array of the table's size: fresh ones each pass make the allocator
    map and fault their pages again (22-triple grids run about 30 % slower)."""
    import numpy as np

    counts, slots, mult = table
    counts, mult = counts[..., None], mult[..., None, None]
    exps = np.empty((counts.shape[1], min(BETA_CHUNK, betas.size), qs.size))
    product = np.empty_like(exps)
    for lo in range(0, betas.size, BETA_CHUNK):
        with np.errstate(divide="ignore"):
            ly, lr, lb = (np.maximum(np.log(v), _EMPTY_LOG)
                          for v in _fractions(betas[lo:lo + BETA_CHUNK], qs, np.sqrt))
        rows = slice(0, ly.shape[0])
        pass_exps, pass_product = exps[:, rows], product[:, rows]
        np.multiply(counts[0], ly, out=pass_exps)
        pass_exps += np.multiply(counts[1], lr, out=pass_product)
        pass_exps += np.multiply(counts[2], lb, out=pass_product)
        np.exp(pass_exps, out=pass_exps)
        block = np.zeros((slots.shape[1], *ly.shape))
        for k_slots, k_mult in zip(slots, mult):
            block += k_mult * pass_exps[k_slots]
        yield lo, block


def t_density_grid(specs, betas, qs):
    """t(beta, q) of each census of a list over a 1-D array of betas and a
    1-D array of q values, as an array of shape (censuses, betas, q),
    filled from the _grid_blocks passes on the list's _census_table."""
    import numpy as np

    betas = np.asarray(betas, dtype=float).reshape(-1, 1)
    qs = np.asarray(qs, dtype=float)
    _check_grid("beta", betas)
    _check_grid("q", qs)
    out = np.empty((len(specs), betas.size, qs.size))
    for lo, block in _grid_blocks(_census_table(specs), betas, qs):
        out[:, lo:lo + BETA_CHUNK] = block
    return out


def _lane_sum(table, graphs, y, r, b):
    """_term_sum(entries of census g, y, r, b) at each lane (g, y, r, b) of
    four 1-D arrays, with its bits (module docstring): one
    math.log per live class of each distinct (y, r, b) point, one math.exp
    per (distinct point, table triple), then each lane's running sum of its
    census's mult * exp terms in entry order (np.sum or @ would reorder)."""
    import numpy as np

    counts, slots, mult = table
    classes = np.stack((y, r, b))
    order = np.lexsort(classes)
    ordered = classes[:, order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    point = np.empty_like(order)
    point[order] = np.cumsum(new) - 1
    points = ordered[:, new]
    live = points > 0.0
    logs = np.full(points.shape, _EMPTY_LOG)
    logs[live] = np.fromiter(map(math.log, points[live].tolist()), float)
    exponent = counts[0] * logs[0] + counts[1] * logs[1] + counts[2] * logs[2]
    exps = np.stack([np.fromiter(map(math.exp, row.tolist()), float, row.size)
                     for row in exponent])
    total = np.zeros(order.size)
    for k_slots, k_mult in zip(slots, mult):
        total += k_mult[graphs] * exps[k_slots[graphs], point]
    return total


def _t_lanes(table, graphs, betas, qs):
    """t at each (graph, beta, q) lane of three 1-D arrays, by _lane_sum."""
    import numpy as np

    return _lane_sum(table, graphs, *_fractions(betas, qs, np.sqrt))


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


def _golden_lanes(table, graphs, betas, lo, hi):
    """_golden_max(t(beta, .), lo, hi, REFINE_TOL) as a (q, t) pair for each
    (graph, beta) lane of the 1-D arrays graphs, betas, lo and hi, the
    lanes stepped in lockstep: every lane takes _golden_max's float ops and
    stops at its own b - a <= REFINE_TOL, and the new points of one step
    are evaluated in one _t_lanes call."""
    import numpy as np

    a, b = lo.copy(), hi.copy()
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = np.split(_t_lanes(table, np.tile(graphs, 2), np.tile(betas, 2),
                               np.concatenate((c, d))), 2)
    live = np.flatnonzero(b - a > REFINE_TOL)
    while live.size:
        al, bl, cl, dl, fcl, fdl = (v[live] for v in (a, b, c, d, fc, fd))
        left = fcl >= fdl
        # left lanes: b, d, fd = d, c, fc; the others: a, c, fc = c, d, fd
        bl, al = np.where(left, dl, bl), np.where(left, al, cl)
        cl, dl = (np.where(left, bl - _INVPHI * (bl - al), dl),
                  np.where(left, cl, al + _INVPHI * (bl - al)))
        f = _t_lanes(table, graphs[live], betas[live], np.where(left, cl, dl))
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


def _profiles(specs, betas):
    """One CurveSample per beta of a list, for each census of a list, as
    one tuple per census: f_T = sup of t(beta, q) over q in [0, 1], its
    smallest argmax q_star (within REL_TOL relative; a tie when a q more
    than 1e-6 away also attains f_T), both endpoint hosts and the winner.

    A grid scan, then golden-section refinement of the local grid maxima
    (t(q) may be multimodal).  One with bracket [lo, hi] is skipped when
    the term sum at (y(hi), r(lo), b(lo)), times 1 + 1e-9 for rounding, is
    below top * (1 - REL_TOL), top being its row's grid maximum.  The skip
    is exact: on [0, 1] y rises while r and b fall
    (b' = sqrt(beta) (sqrt(beta) q/s - 1) <= 0, as
    s^2 = 1 - beta + beta q^2 >= beta q^2), so no q in the bracket exceeds
    that sum, and f_T >= top, so the skipped value could neither raise f_T
    nor reach the final threshold f_T * (1 - REL_TOL).  Every surviving
    maximum of every row of every census is refined in one pass; f_T, the
    attaining set and q_star do not depend on the order of the candidates,
    nor on the other censuses.

    Flat rule: when the whole grid lies within REL_TOL of its maximum
    (t = 1 at beta = 1 for every graph, t = beta for K2), every q attains
    the sup, so the sample is (grid max, 0, tie) with no refinement.  The
    refinement would only have chased float noise, so on flat profiles f_T
    may differ from it by a few ulps; nothing printed changes.

    One _census_table serves the grid and the lane route.  The grid is
    scanned one _grid_blocks pass of BETA_CHUNK betas at a time, and each
    pass leaves only what is read below: each row's top, flat flag and two
    grid ends, and its local maxima (row, q index, value), so no whole
    (censuses x betas x q) grid is held.  The route of the rest is chosen
    once per call.  One beta takes the scalar route: _term_sum bounds,
    _golden_max per maximum and t_density at the ends.  Curves take the
    lane route: one _lane_sum for the bounds, one _golden_lanes search and
    one _t_lanes call for both ends of every row, each lane with the
    scalar route's bits."""
    import numpy as np

    qs, nb, ng = _q_grid(), len(betas), len(specs)
    if not nb:
        return ((),) * ng
    beta_array = np.asarray(betas, dtype=float)
    _check_grid("beta", beta_array)
    table = _census_table(specs)
    # [g, j] is the row of beta j of census g; flattened, row i holds
    # beta i % nb of census i // nb
    top, flat = np.empty((ng, nb)), np.empty((ng, nb), dtype=bool)
    grid_ends, maxima = np.empty((ng, nb, 2)), []
    for start, ts in _grid_blocks(table, beta_array[:, None], qs):
        cols = slice(start, start + BETA_CHUNK)
        top[:, cols] = block_top = ts.max(axis=2)
        flat[:, cols] = block_flat = ts.min(axis=2) >= block_top * (1.0 - REL_TOL)
        grid_ends[:, cols] = ts[..., [0, -1]]
        # a local maximum of a row that is not flat: at least each neighbour
        peak = np.repeat(~block_flat[..., None], qs.size, axis=2)
        peak[..., 1:] &= ts[..., 1:] >= ts[..., :-1]
        peak[..., :-1] &= ts[..., :-1] >= ts[..., 1:]
        g, j, p = np.nonzero(peak)
        maxima.append((g * nb + start + j, p, ts[peak]))
    # (row, q index, value) of every maximum, pass by pass: a row's maxima
    # are all in one pass, in q order, and the rows' order matters nowhere
    rows, peaks, values = (np.concatenate(v) for v in zip(*maxima))
    top, flat = top.reshape(-1), flat.reshape(-1)
    row_graphs = np.repeat(np.arange(ng), nb)
    row_betas = np.tile(beta_array, ng)
    graphs, lanes = row_graphs[rows], row_betas[rows]
    lo, hi = qs[np.maximum(peaks - 1, 0)], qs[np.minimum(peaks + 1, Q_GRID)]
    # each maximum's skip bound is the term sum at (y(hi), r(lo), b(lo))
    y = _fractions(lanes, hi, np.sqrt)[0]
    _, r, b = _fractions(lanes, lo, np.sqrt)
    if nb == 1:
        beta = betas[0]
        bounds = [_term_sum(specs[g].entries, *v)
                  for g, *v in zip(graphs.tolist(), y.tolist(), r.tolist(), b.tolist())]
        ends = [(star_density(spec, beta), clique_density(spec, beta)) for spec in specs]

        def refine(keep):
            return [_golden_max(lambda q: t_density(specs[g], beta, q), *bracket, REFINE_TOL)
                    for g, *bracket in zip(graphs[keep].tolist(), lo[keep].tolist(),
                                           hi[keep].tolist())]
    else:
        bounds = _lane_sum(table, graphs, y, r, b)
        t0, t1 = np.split(_t_lanes(table, np.tile(row_graphs, 2), np.tile(row_betas, 2),
                                   np.repeat([0.0, 1.0], row_betas.size)), 2)
        ends = zip(t0.tolist(), t1.tolist())

        def refine(keep):
            return _golden_lanes(table, graphs[keep], lanes[keep], lo[keep], hi[keep])
    keep = np.flatnonzero(np.asarray(bounds) * (1.0 + 1e-9) >= top[rows] * (1.0 - REL_TOL))
    grid_ends = grid_ends.reshape(-1, 2).tolist()
    candidates = {i: [(0.0, grid_ends[i][0]), (1.0, grid_ends[i][1])]
                  for i in np.flatnonzero(~flat).tolist()}
    for i, q, t in zip(rows.tolist(), qs[peaks].tolist(), values.tolist()):
        candidates[i].append((q, t))
    for i, qt in zip(rows[keep].tolist(), refine(keep)):
        candidates[i].append(qt)
    out = []
    for i, (beta, value, (t0, t1)) in enumerate(zip(betas * len(specs), top.tolist(), ends)):
        q_star, tie = 0.0, True
        if i in candidates:
            value = max(t for _, t in candidates[i])
            threshold = value * (1.0 - REL_TOL) if value > 0.0 else 0.0
            attaining = sorted(q for q, t in candidates[i] if t >= threshold)
            q_star = attaining[0]
            tie = any(q - q_star > 1e-6 for q in attaining)
        out.append(CurveSample(beta=beta, f_T=value, q_star=q_star, t_star=t0, t_clique=t1,
                               winner=attribute_winner(value, t0, t1), tie=tie))
    return tuple(tuple(out[g * nb:(g + 1) * nb]) for g in range(len(specs)))


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
    return _profiles([spec], [beta])[0][0]


def density_curves(specs, betas):
    """density_curve of each census of an iterable on one beta grid, as an
    iterator: the censuses are read and refined GRAPH_CHUNK at a time, in
    one _profiles call per chunk, each curve with its one-census bits."""
    betas = list(betas)
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta grid must be strictly increasing")
    specs = iter(specs)
    chunks = iter(lambda: list(islice(specs, GRAPH_CHUNK)), [])
    return chain.from_iterable(_profiles(chunk, betas) for chunk in chunks)


def density_curve(spec, betas) -> tuple:
    """One CurveSample per beta of a strictly increasing grid: the curves
    of a chunk of one census."""
    return next(density_curves([spec], betas))


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
    and so does a perfect matching: a single edge has t = beta at every q
    (the host's edge density y^2 + r^2 + 2r(y + b) is beta) and t
    multiplies over components.  Neither has a crossover to find."""
    if q1 == q2:
        raise ValueError(f"q1 and q2 must differ, both are {q1}")
    v = spec.v
    if v % 2 == 0 and spec == spectrum(Graph(v, [(i, i + 1) for i in range(0, v, 2)])):
        raise ValueError(f"a perfect matching has t = beta^{v // 2} at every q, "
                         "so there is no crossover to find")

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
