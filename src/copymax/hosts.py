"""Exact subgraph counts on finite hosts: the census route and the search.

The three-class hosts realise, at finite n, the family the density model
reasons about in the limit: a yellow clique, a red clique joined completely
to everything else, and a blue independent set, with |Y| ~ y(q) n,
|R| ~ r(q) n and B taking the remainder.  On these hosts the counts come
from the class sizes alone.  An embedding sorts the pattern's vertices into
the three classes, which induces a valid weighting, so the embedding count
is the weighting census summed against falling factorials of the class
sizes.  Every homomorphism is an embedding of a quotient F/P, with P a
partition of V(F) into independent blocks (the Moebius relation over the
partition lattice), so the homomorphism count is the same sum over the
census of every such quotient.  This route counts `convergence_report`
and never builds the host.

Backtracking search over explicit adjacency bitsets is the oracle: it
counts homomorphisms and embeddings into any host, must agree with the
census route to the exact integer, and counts automorphisms as the
self-embeddings of a graph.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .density import _check_range, _fractions, t_density
from .graphs import Graph
from .weightings import spectrum

MAX_PATTERN_VERTICES = 8
DEFAULT_BUDGET = 10 ** 9


class CountBudgetExceeded(RuntimeError):
    """Search tree outgrew the node budget; carries the partial tally."""

    def __init__(self, partial_count, nodes):
        super().__init__(f"count aborted after {nodes} nodes "
                         f"(partial count {partial_count})")
        self.partial_count = partial_count
        self.nodes = nodes


@dataclass(frozen=True)
class CountReport:
    n: int
    beta: float
    q: float
    hom: int
    injective: int
    copies: int
    normalised: float
    t_reference: float
    gap: float

    def to_csv_row(self):
        return (f"{self.n},{self.beta:.12g},{self.q:.12g},{self.hom},"
                f"{self.injective},{self.copies},{self.normalised:.12g},"
                f"{self.t_reference:.12g},{self.gap:.12g}")


@dataclass(frozen=True)
class ConvergenceResult:
    reports: tuple

    def to_csv(self):
        lines = ["n,beta,q,hom,injective,copies,normalised,t_reference,gap"]
        lines += [r.to_csv_row() for r in self.reports]
        return "\n".join(lines) + "\n"


def three_class_graph(ny: int, nr: int, nb: int) -> Graph:
    """Y and R cliques, B independent, R complete to both, no Y-B edges."""
    n = ny + nr + nb
    if n < 1 or min(ny, nr, nb) < 0:
        raise ValueError("class sizes must be non-negative, with n >= 1")
    mask_y = (1 << ny) - 1
    mask_r = ((1 << (ny + nr)) - 1) ^ mask_y
    full = (1 << n) - 1
    adj = []
    for v in range(n):
        bit = 1 << v
        if v < ny:
            adj.append((mask_y | mask_r) & ~bit)
        elif v < ny + nr:
            adj.append(full & ~bit)
        else:
            adj.append(mask_r)
    return Graph._from_adjacency(n, adj)


def class_sizes(n: int, beta: float, q: float) -> tuple:
    """(|Y|, |R|, |B|) of the three-class host on n vertices: |Y| and |R|
    rounded to nearest, the remainder to B."""
    if n < 10:
        raise ValueError("hosts need n >= 10")
    _check_range(beta, q)
    y, r, _ = _fractions(beta, q)
    ny = math.floor(y * n + 0.5)
    nr = math.floor(r * n + 0.5)
    nb = n - ny - nr
    if nb < 0:
        raise ValueError(f"rounding left no room for the B class at n={n}")
    return ny, nr, nb


def _search_order(pattern: Graph):
    """Vertex order where each vertex (per component) follows a placed
    neighbour, preferring many placed neighbours then high degree."""
    n = pattern.n
    adj = pattern.adj
    degs = [adj[u].bit_count() for u in range(n)]
    order = []
    placed = 0
    for _ in range(n):
        best_key, best_u = None, None
        for u in range(n):
            if placed >> u & 1:
                continue
            key = ((adj[u] & placed).bit_count(), degs[u], -u)
            if best_key is None or key > best_key:
                best_key, best_u = key, u
        order.append(best_u)
        placed |= 1 << best_u
    return order


def _count_maps(pattern: Graph, host: Graph, injective: bool, budget: int) -> int:
    k = pattern.n
    hadj = host.adj
    full = (1 << host.n) - 1
    order = _search_order(pattern)
    prev = [[j for j in range(i) if pattern.has_edge(order[i], order[j])]
            for i in range(k)]
    images = [0] * k
    state = {"count": 0, "nodes": 0}

    def bump(amount=1):
        state["nodes"] += amount
        if state["nodes"] > budget:
            raise CountBudgetExceeded(state["count"], state["nodes"])

    def cand(pos, used):
        m = full
        for j in prev[pos]:
            m &= hadj[images[j]]
        if injective:
            m &= ~used
        return m

    last_pair_adjacent = k >= 2 and (k - 2) in prev[k - 1]

    def rec(pos, used):
        remaining = k - pos
        if remaining == 1:
            bump()
            state["count"] += cand(pos, used).bit_count()
            return
        if remaining == 2:
            mu = cand(pos, used)
            mw = full
            for j in prev[pos + 1]:
                if j != pos:
                    mw &= hadj[images[j]]
            if injective:
                mw &= ~used
            if last_pair_adjacent:
                m = mu
                while m:
                    low = m & -m
                    m ^= low
                    bump()
                    state["count"] += (mw & hadj[low.bit_length() - 1]).bit_count()
            else:
                bump()
                cu = mu.bit_count()
                if injective:
                    state["count"] += cu * mw.bit_count() - (mu & mw).bit_count()
                else:
                    state["count"] += cu * mw.bit_count()
            return
        m = cand(pos, used)
        while m:
            low = m & -m
            m ^= low
            bump()
            images[pos] = low.bit_length() - 1
            rec(pos + 1, used | low if injective else used)

    if k == 1:
        return host.n
    rec(0, 0)
    return state["count"]


def _check_pattern_size(pattern: Graph):
    # the search grows like n^v and the independent partitions like the
    # Bell numbers: star15 would not finish
    if pattern.n > MAX_PATTERN_VERTICES:
        raise ValueError(f"pattern limited to {MAX_PATTERN_VERTICES} vertices")


def hom_count(pattern: Graph, host: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of edge-preserving maps from the pattern to the host."""
    _check_pattern_size(pattern)
    return _count_maps(pattern, host, injective=False, budget=budget)


def injective_count(pattern: Graph, host: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of labelled embeddings (injective homomorphisms)."""
    _check_pattern_size(pattern)
    return _count_maps(pattern, host, injective=True, budget=budget)


def automorphism_count(g: Graph) -> int:
    """Number of automorphisms: the embeddings of the graph into itself."""
    if g.n > 10:      # the search walks the automorphisms: K10 takes 10!/2 nodes
        raise ValueError("automorphism scan limited to 10 vertices")
    return _count_maps(g, g, injective=True, budget=DEFAULT_BUDGET)


def _copies(inj: int, aut: int) -> int:
    if inj % aut:
        raise RuntimeError(f"embedding count {inj} not divisible by |Aut| = {aut}")
    return inj // aut


def _census_sum(entries, sizes) -> int:
    """Census entries summed against falling factorials of the class sizes
    (|Y|, |R|, |B|) of a three-class host."""
    ny, nr, nb = sizes
    total = 0
    for (rc, yc, bc), mult in entries:
        total += mult * math.perm(ny, yc) * math.perm(nr, rc) * math.perm(nb, bc)
    return total


def injective_count_from_spectrum(spec, sizes) -> int:
    """Census route to the embedding count into the three-class host with
    class sizes (|Y|, |R|, |B|): an embedding sorts the pattern vertices
    into the three classes, the induced weighting is valid, and within each
    class any injective placement works, so the count is the census sum of
    falling factorials.  Must equal injective_count exactly.
    """
    return _census_sum(spec.entries, sizes)


def independent_partitions(g: Graph) -> list:
    """Every partition of the vertex set into independent blocks, each a
    tuple of block bitmasks: vertex u joins, in turn, every block that
    holds none of its neighbours, or opens a block of its own."""
    out = []

    def place(u, blocks):
        if u == g.n:
            out.append(blocks)
            return
        bit = 1 << u
        for i, block in enumerate(blocks):
            if not block & g.adj[u]:
                place(u + 1, blocks[:i] + (block | bit,) + blocks[i + 1:])
        place(u + 1, blocks + (bit,))

    place(0, ())
    return out


def _quotient(g: Graph, blocks) -> Graph:
    """F/P: one vertex per block, two blocks adjacent when an edge of g
    joins them (blocks are independent, so no loops arise)."""
    reach = []
    for block in blocks:
        m = 0
        for u in range(g.n):
            if block >> u & 1:
                m |= g.adj[u]
        reach.append(m)
    adj = [sum(1 << j for j, other in enumerate(blocks) if reach[i] & other)
           for i in range(len(blocks))]
    return Graph._from_adjacency(len(blocks), adj)


def _hom_census(pattern: Graph) -> tuple:
    """The spectra of F/P over the independent partitions P, merged into
    one census of signatures: hom(F, G) = sum over P of inj(F/P, G)."""
    _check_pattern_size(pattern)
    total = Counter()
    for blocks in independent_partitions(pattern):
        total.update(dict(spectrum(_quotient(pattern, blocks)).entries))
    return tuple(sorted(total.items()))


def hom_count_from_partitions(pattern: Graph, sizes) -> int:
    """Census route to the homomorphism count into the three-class host
    with class sizes (|Y|, |R|, |B|): the sum over the partitions P of the
    pattern into independent blocks of the census count of inj(F/P).  The
    pattern must have no isolated vertices.  Must equal hom_count exactly.
    """
    return _census_sum(_hom_census(pattern), sizes)


def convergence_report(pattern: Graph, beta: float, q: float,
                       n_list) -> ConvergenceResult:
    """Exact counts against the limiting density for growing host sizes,
    by the census route: only the class sizes of each host are formed."""
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    spec = spectrum(pattern)
    hom_entries = _hom_census(pattern)
    t_ref = t_density(spec, beta, q)
    aut = automorphism_count(pattern)
    v = pattern.n
    reports = []
    for n in n_list:
        sizes = class_sizes(n, beta, q)
        hom = _census_sum(hom_entries, sizes)
        inj = injective_count_from_spectrum(spec, sizes)
        normalised = inj / n ** v
        reports.append(CountReport(
            n=n, beta=beta, q=q, hom=hom, injective=inj, copies=_copies(inj, aut),
            normalised=normalised, t_reference=t_ref,
            gap=abs(normalised - t_ref),
        ))
    return ConvergenceResult(reports=tuple(reports))
