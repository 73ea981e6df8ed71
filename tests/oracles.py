"""Independent reference implementations used only by the tests.

Everything here is deliberately naive (product scans, combinations
filters, permutation scans, hardcoded limit polynomials, per-entry density
loops, a log-log fit, the full primal LP, a general two-phase simplex) so
that the library's routes can be checked against code that shares nothing
with them but the density module's grid size and tolerances.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from copymax.density import Q_GRID, REFINE_TOL, REL_TOL
from copymax.graphs import Graph


def ref_independent_counts(g):
    """Counts of independent sets by size via itertools.combinations."""
    counts = [0] * (g.n + 1)
    for k in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            if all(not g.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                counts[k] += 1
    return tuple(counts)


def ref_weightings(g):
    """All half-integral weightings via a full product scan (halves)."""
    out = []
    for w in itertools.product((0, 1, 2), repeat=g.n):
        if all(w[u] + w[v] <= 2 for u, v in g.edges):
            out.append(w)
    return out


def ref_interior_limit_constant(census, q):
    """C(q) = sum of mult * q^y * ((1 - q^2)/2)^r over the census entries
    ((r, y, b), mult) of maximum total weight y/2 + b = alpha*, exactly in
    Fractions at a rational q."""
    census = list(census)
    q = Fraction(q)
    best = max(y + 2 * b for (_, y, b), _ in census)
    return sum(mult * q ** y * ((1 - q * q) / 2) ** r
               for (r, y, b), mult in census if y + 2 * b == best)


def ref_hom_count(g, host, injective=False):
    """Exhaustive scan over all vertex maps."""
    total = 0
    for m in itertools.product(range(host.n), repeat=g.n):
        if injective and len(set(m)) != g.n:
            continue
        if all(host.has_edge(m[u], m[v]) for u, v in g.edges):
            total += 1
    return total


def ref_automorphism_count(g):
    total = 0
    edges = set(g.edges)
    for perm in itertools.permutations(range(g.n)):
        mapped = {tuple(sorted((perm[u], perm[v]))) for u, v in edges}
        if mapped == edges:
            total += 1
    return total


# limit polynomials for the 6-vertex clique-with-pendant-star builtin,
# written out once and kept independent of the census machinery

def g6_star_polynomial(beta):
    """Quasi-star density: r^6 + 6 r^5 b + 9 r^4 b^2 + 3 r^3 b^3."""
    r = 1.0 - math.sqrt(1.0 - beta)
    b = math.sqrt(1.0 - beta)
    return r ** 6 + 6 * r ** 5 * b + 9 * r ** 4 * b ** 2 + 3 * r ** 3 * b ** 3


def g6_interior_polynomial(beta):
    """Density at q = 1/sqrt(2), grouped by the blue independent set."""
    y = math.sqrt(beta / 2.0)
    r = 1.0 - math.sqrt(1.0 - beta / 2.0)
    b = math.sqrt(1.0 - beta / 2.0) - math.sqrt(beta / 2.0)
    s = y + r
    return (s ** 6 + 2 * s ** 3 * r ** 2 * b + 2 * s ** 2 * r ** 3 * b
            + 2 * s ** 4 * r * b + 2 * r ** 4 * b ** 2 + 6 * s * r ** 3 * b ** 2
            + s ** 3 * r * b ** 2 + 3 * r ** 3 * b ** 3)


def ref_set_partitions(items):
    """Every partition of ``items`` into blocks, by plain recursion: the
    first item either starts a block of its own or joins one block of a
    partition of the rest."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in ref_set_partitions(rest):
        yield [[first]] + partition
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]


def ref_independent_partitions(g):
    """Partitions of the vertex set whose blocks are independent sets."""
    return [p for p in ref_set_partitions(range(g.n))
            if all(not g.has_edge(u, v)
                   for block in p for u, v in itertools.combinations(block, 2))]


def ref_quotient(g, partition):
    """The simple quotient graph F/P as (vertex count, sorted edge list):
    one vertex per block, two blocks adjacent when some edge joins them."""
    block_of = {u: i for i, block in enumerate(partition) for u in block}
    edges = {tuple(sorted((block_of[u], block_of[v]))) for u, v in g.edges}
    return len(partition), sorted(edges)


def _ref_least_mask(n, edges):
    """Minimum edge mask of an n-vertex edge list over itertools.permutations
    (pair i < j is bit j(j-1)/2 + i): n! work."""
    bit = {(i, j): j * (j - 1) // 2 + i for j in range(n) for i in range(j)}
    return min(sum(1 << bit[tuple(sorted((p[u], p[v])))] for u, v in edges)
               for p in itertools.permutations(range(n)))


def ref_canonical_form(g):
    """(n, minimum edge mask over all n! relabellings)."""
    return g.n, _ref_least_mask(g.n, g.edges)


def ref_graph_classes(n):
    """Every labelled graph on n vertices reduced to its minimum edge mask,
    grouped by edge count as sorted tuples.  2^C(n,2) * n! work: n <= 5."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    levels = [set() for _ in range(len(pairs) + 1)]
    for mask in range(1 << len(pairs)):
        edges = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
        levels[len(edges)].add(_ref_least_mask(n, edges))
    return [tuple(sorted(level)) for level in levels]


def ref_asymptotic_exponent(spec, q, beta_lo, beta_hi, points=24):
    """Least-squares slope of log t against log beta on a geometric grid:
    the numeric reference for the vanishing-density exponents the census
    gives exactly (v/2 at q = 1, v - alpha* inside, v - alpha at q = 0)."""
    betas = np.geomspace(beta_lo, beta_hi, points)
    ts = [ref_t_density(spec, float(b), q) for b in betas]
    assert min(ts) > 0.0, "density underflowed to 0"
    return float(np.polyfit(np.log(betas), np.log(ts), 1)[0])


def ref_primal_program(g, eps):
    """The primal LP as (c, A, b) for max c.x subject to A x <= b, x >= 0:
    maximise sum x_u under x_u <= 1 and x_u + x_w <= 2 - eps on every edge."""
    eps = Fraction(eps)
    rows = [[Fraction(int(w == u)) for w in range(g.n)] for u in range(g.n)]
    rows += [[Fraction(int(w in e)) for w in range(g.n)] for e in g.edges]
    return [Fraction(1)] * g.n, rows, [Fraction(1)] * g.n + [2 - eps] * len(g.edges)


# the dense two-phase simplex the library used before it started the
# covering program from the z basis: <=-form rows, artificials and phase 1

F0 = Fraction(0)
F1 = Fraction(1)


def _ref_pivot(tableau, bottom, basis, row, col):
    prow = tableau[row]
    piv = prow[col]
    tableau[row] = prow = [x / piv for x in prow]
    for r, trow in enumerate(tableau):
        if r != row and trow[col]:
            f = trow[col]
            tableau[r] = [a - f * b for a, b in zip(trow, prow)]
    if bottom[col]:
        f = bottom[col]
        for j, b in enumerate(prow):
            bottom[j] -= f * b
    basis[row] = col


def _ref_optimize(tableau, bottom, basis, ncols):
    while True:
        enter = next((j for j in range(ncols) if bottom[j] < 0), None)  # Bland
        if enter is None:
            return
        leave = None
        best = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise RuntimeError("LP is unbounded (cannot happen for these programs)")
        _ref_pivot(tableau, bottom, basis, leave, enter)


def ref_simplex_max(c, A, b):
    """max c.x subject to A x <= b, x >= 0; b entries of any sign.

    Returns (optimum, x).  Rows with negative right-hand side are negated
    into >= form and given an artificial variable; phase 1 drives the
    artificials to zero before phase 2 optimises the true objective.
    """
    m, n = len(A), len(c)
    art_rows = [i for i in range(m) if b[i] < 0]
    n_art = len(art_rows)
    ncols = n + m + n_art
    tableau = []
    basis = []
    art_of = {r: n + m + k for k, r in enumerate(art_rows)}
    for i in range(m):
        coeffs = list(A[i])
        rhs = b[i]
        row = [F0] * (ncols + 1)
        if rhs < 0:
            coeffs = [-x for x in coeffs]
            rhs = -rhs
            row[n + i] = -F1              # surplus
            row[art_of[i]] = F1           # artificial, starts basic
            basis.append(art_of[i])
        else:
            row[n + i] = F1               # slack, starts basic
            basis.append(n + i)
        row[:n] = coeffs
        row[-1] = rhs
        tableau.append(row)

    if n_art:
        # phase 1: maximise -(sum of artificials)
        bottom = [F0] * (ncols + 1)
        for r in art_rows:
            bottom[art_of[r]] = F1
        for i, r in enumerate(art_rows):
            # eliminate the basic artificial columns from the bottom row
            row = tableau[r]
            for j in range(ncols + 1):
                bottom[j] -= row[j]
        _ref_optimize(tableau, bottom, basis, ncols)
        if bottom[-1] != 0:
            raise RuntimeError("LP is infeasible (cannot happen for these programs)")
        for i in range(m):
            if basis[i] >= n + m:
                # basic artificial at level zero: pivot it out or drop the row
                col = next((j for j in range(n + m) if tableau[i][j] != 0), None)
                if col is not None:
                    _ref_pivot(tableau, bottom, basis, i, col)
        keep = [i for i in range(m) if basis[i] < n + m]
        tableau = [tableau[i][: n + m] + [tableau[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]
    ncols = n + m

    bottom = [-x for x in c] + [F0] * (m + 1)
    for i, bvar in enumerate(basis):
        if bottom[bvar]:
            f = bottom[bvar]
            row = tableau[i]
            for j in range(ncols + 1):
                bottom[j] -= f * row[j]
    _ref_optimize(tableau, bottom, basis, ncols)

    x = [F0] * n
    for i, bvar in enumerate(basis):
        if bvar < n:
            x[bvar] = tableau[i][-1]
    return bottom[-1], x


def random_graph(rng, n, p=0.5):
    """G(n, p) from a random.Random: each pair an edge with probability p."""
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def disjoint_union(a, b):
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph(a.n + b.n, edges)


def are_isomorphic(a, b):
    """Some permutation maps a's edge set onto b's (itertools scan)."""
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    target = set(b.edges)
    return any({tuple(sorted((p[u], p[v]))) for u, v in a.edges} == target
               for p in itertools.permutations(range(a.n)))


# the density evaluators as they were written before the vectorised grid
# pass, the hoisted scalar sum and the flat-profile rule: one census entry
# at a time, in (r, y, b) entry order

def ref_fractions(beta, q):
    """(y, r, b) at one (beta, q) in conjugate form: r = x / (1 + s) and
    b = (1 - beta) / (s + y), with x = beta (1 - q^2) and s = sqrt(1 - x),
    and b = 0 where s + y = 0 (beta = 1, q = 0)."""
    x = beta * (1.0 - q * q)
    s = math.sqrt(1.0 - x)
    y = math.sqrt(beta) * q
    return y, x / (1.0 + s), (1.0 - beta) / (s + y) if s + y > 0.0 else 0.0


def ref_t_density(spec, beta, q):
    """Census sum for one (beta, q), term by term in log space."""
    y, r, b = ref_fractions(beta, q)
    ly = math.log(y) if y > 0.0 else None
    lr = math.log(r) if r > 0.0 else None
    lb = math.log(b) if b > 0.0 else None
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


def ref_t_density_grid(spec, beta, qs):
    """t(beta, q) over a 1-D q array, one census entry per numpy pass."""
    qs = np.asarray(qs, dtype=float)
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


def ref_golden_max(f, lo, hi, tol):
    """(q, f(q)) at the end of a golden-section search for a maximum of f
    on [lo, hi], stopped once the bracket is at most tol wide; the float
    steps are those the library's refinement must take."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def ref_best_t_density(spec, beta):
    """(sup of t(beta, .) over [0, 1], smallest q attaining it, tie): a
    grid scan, then golden-section refinement around every local grid
    maximum, flat profiles included."""
    qs = np.linspace(0.0, 1.0, Q_GRID + 1)
    ts = ref_t_density_grid(spec, beta, qs)
    f = lambda q: ref_t_density(spec, beta, q)
    candidates = [(0.0, float(ts[0])), (1.0, float(ts[-1]))]
    for i in range(Q_GRID + 1):
        left = ts[i - 1] if i > 0 else -math.inf
        right = ts[i + 1] if i < Q_GRID else -math.inf
        if ts[i] >= left and ts[i] >= right:
            candidates.append((float(qs[i]), float(ts[i])))
            qq, tt = ref_golden_max(f, float(qs[max(i - 1, 0)]),
                                    float(qs[min(i + 1, Q_GRID)]), REFINE_TOL)
            candidates.append((float(qq), float(tt)))
    best = max(t for _, t in candidates)
    threshold = best * (1.0 - REL_TOL) if best > 0.0 else 0.0
    attaining = sorted(q for q, t in candidates if t >= threshold)
    q_star = attaining[0]
    tie = any(q - q_star > 1e-6 for q in attaining)
    return best, q_star, tie
