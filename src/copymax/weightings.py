"""Half-integral fractional independence weightings and their census.

A fractional independence weighting assigns each vertex a weight in
{0, 1/2, 1} so that the two endpoints of every edge sum to at most 1.  The
maximum total weight over such assignments is the fractional independence
number; by half-integrality of the vertex-cover LP relaxation nothing is
lost by restricting to these three values.  All arithmetic is exact:
weights are stored as integers counted in halves.

The census of weightings by their (zero, half, one) vertex counts (the
"spectrum") is the sufficient statistic for every asymptotic density
formula downstream.  It is counted once, by a memoised walk that never
builds the weightings themselves, and alpha, the independent-set counts
i_k, alpha*, the maximiser counts and a maximal weighting are all read
from that one count.  Each memo state is one int with a field per (y, b)
(Kronecker packing), so merging a vertex's choices is shifts and adds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .graphs import Graph

MAX_WEIGHTING_VERTICES = 16


@dataclass(frozen=True)
class WeightingSpectrum:
    """Multiset of (r, y, b) signatures with multiplicities.

    ``maximiser_counts[i]`` is the number of weightings of maximum total
    weight that have exactly i zero-weight vertices; indices run from 0 to
    floor(v - alpha_star), with zeros where nothing attains the maximum.
    """

    v: int
    entries: tuple                  # ((r, y, b), multiplicity), sorted
    alpha: int
    alpha_star: Fraction
    maximiser_counts: tuple

    @property
    def total_weightings(self):
        return sum(m for _, m in self.entries)

    @property
    def independent_counts(self):
        """i_0 .. i_v: the 0/1 weightings with b ones are exactly the
        independent sets of size b."""
        counts = [0] * (self.v + 1)
        for (_, _, b), mult in self.y_zero_slice().items():
            counts[b] = mult
        return tuple(counts)

    @property
    def max_independent_sets(self):
        return self.independent_counts[self.alpha]

    def y_zero_slice(self):
        return {sig: m for sig, m in self.entries if sig[1] == 0}

    def star_limit_constant(self) -> Fraction:
        """Leading coefficient of the quasi-star density as beta -> 0."""
        return Fraction(self.max_independent_sets, 2 ** (self.v - self.alpha))

    def interior_limit_constant(self, q: float) -> float:
        """Leading coefficient of the interior host density as beta -> 0."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must lie strictly between 0 and 1")
        two_exp = 2 * (self.v - self.alpha_star)  # even integer
        out = 0.0
        for i, count in enumerate(self.maximiser_counts):
            if count:
                out += count * ((1.0 - q * q) / 2.0) ** i * q ** (int(two_exp) - 2 * i)
        return out


def _moves(later, half, zero):
    """(weight in halves, caps left on the later vertices) for every weight
    the current vertex may take, lowest first.

    Masks are relative to the current vertex (bit 0): ``half`` holds the
    unassigned vertices capped at 1/2, ``zero`` those capped at 0, and
    ``later`` the current vertex's later neighbours.
    """
    out = [(0, half >> 1, zero >> 1)]
    if not zero & 1:
        out.append((1, ((half | later) & ~zero) >> 1, zero >> 1))
        if not half & 1:
            out.append((2, (half & ~later) >> 1, (zero | later) >> 1))
    return out


def _census(g: Graph):
    """The memoised count behind every census figure.

    ``count(u, half, zero)`` is the census of vertices u..n-1 under the caps
    ``half`` and ``zero`` (relative to u, as in ``_moves``), packed into one
    int: the number of weightings with y halves and b ones is slot
    y*(n+1) + b, ``_width(n)`` bits wide (r is what is left).  No slot
    exceeds 3^n, so adds never carry between slots.  Weights are assigned in
    vertex order and a weight caps only later neighbours, so the count
    depends on nothing else.  ``count(0, 0, 0)`` is the whole census.
    """
    n = g.n
    if n > MAX_WEIGHTING_VERTICES:
        raise ValueError(f"weighting census limited to {MAX_WEIGHTING_VERTICES} vertices")
    later = [g.adj[u] >> u for u in range(n)]
    width = _width(n)
    shift = (0, (n + 1) * width, width)     # by weight in halves: +0, +y, +b

    @lru_cache(maxsize=None)
    def count(u, half, zero):
        if u == n:
            return 1
        total = 0
        for w, h, z in _moves(later[u], half, zero):
            total += count(u + 1, h, z) << shift[w]
        return total

    return count


def _width(n: int) -> int:
    return (3 ** n).bit_length()


def _slot(packed: int, n: int, y: int, b: int) -> int:
    """The number of weightings with y >= 0 halves and b >= 0 ones."""
    width = _width(n)
    return packed >> (y * (n + 1) + b) * width & ((1 << width) - 1)


def _unpack(packed: int, n: int) -> dict:
    """A packed census as {(y, b): multiplicity}, zero slots left out."""
    width = _width(n)
    mask = (1 << width) - 1
    fields = ((y, b, packed >> (y * (n + 1) + b) * width & mask)
              for y in range(n + 1) for b in range(n + 1 - y))
    return {(y, b): mult for y, b, mult in fields if mult}


def _max_halves(table) -> int:
    return max(y + 2 * b for y, b in table)


def fractional_independence_number(g: Graph) -> Fraction:
    """Maximum total weight, as an exact half-integer."""
    return Fraction(_max_halves(_unpack(_census(g)(0, 0, 0), g.n)), 2)


def maximal_weighting(g: Graph) -> tuple:
    """First weighting (in halves) attaining the maximum total, in census
    order: fewest zeros, then lexicographically smallest.

    Walks down the census memo, lowest weight first, keeping a weight only
    when the rest of the walk can still reach the target (y, b).
    """
    count = _census(g)
    table = _unpack(count(0, 0, 0), g.n)
    best = _max_halves(table)
    # among maximisers r fixes (y, b); the largest y + b has the fewest zeros
    y, b = max((yb for yb in table if yb[0] + 2 * yb[1] == best), key=sum)
    halves = []
    half = zero = 0
    for u in range(g.n):
        for w, h, z in _moves(g.adj[u] >> u, half, zero):
            rest = (y - (w == 1), b - (w == 2))
            # a target below zero halves or ones is empty, not another slot
            if min(rest) >= 0 and _slot(count(u + 1, h, z), g.n, *rest):
                break
        halves.append(w)
        half, zero, (y, b) = h, z, rest
    return tuple(halves)


def spectrum(g: Graph) -> WeightingSpectrum:
    """Weighting census of a graph without isolated vertices."""
    if g.has_isolated_vertices:
        raise ValueError("spectrum requires a graph with no isolated vertices")
    table = _unpack(_census(g)(0, 0, 0), g.n)
    entries = tuple(sorted(((g.n - y - b, y, b), m) for (y, b), m in table.items()))
    best = _max_halves(table)
    alpha_star = Fraction(best, 2)
    counts = [0] * (int(g.n - alpha_star) + 1)  # floor: alpha_star is half-integral
    for (r, y, b), mult in entries:
        if y + 2 * b == best:
            counts[r] += mult
    return WeightingSpectrum(
        v=g.n,
        entries=entries,
        alpha=max(b for y, b in table if y == 0),
        alpha_star=alpha_star,
        maximiser_counts=tuple(counts),
    )
