"""Explicit finite hosts and brute-force subgraph counting.

The three-class hosts realise, at finite n, the family the density model
reasons about in the limit: a yellow clique, a red clique joined completely
to everything else, and a blue independent set, with |Y| ~ y(q) n,
|R| ~ r(q) n and B taking the remainder.  Backtracking search over explicit
adjacency bitsets provides ground-truth homomorphism and embedding counts;
the census route (falling factorials against the class sizes) must agree
with the search to the exact integer, which is the central oracle identity
of the test suite.  The same search counts automorphisms, as the
self-embeddings of a graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import class_fractions, t_density
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
class HostGraph:
    graph: Graph
    class_sizes: tuple        # (|Y|, |R|, |B|); vertices blocked in that order
    beta: float
    q: float
    target_edges: float

    @property
    def n(self):
        return self.graph.n

    def vertex_class(self, v):
        ny, nr, _ = self.class_sizes
        if v < ny:
            return "Y"
        return "R" if v < ny + nr else "B"


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
    decay_rate: float | None   # fitted exponent of gap ~ n^(-rate)

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


def build_host(n: int, beta: float, q: float) -> HostGraph:
    """Three-class host rounded to n vertices: |Y| and |R| to nearest,
    remainder to B."""
    if n < 10:
        raise ValueError("hosts need n >= 10")
    fr = class_fractions(beta, q)
    ny = math.floor(fr.y * n + 0.5)
    nr = math.floor(fr.r * n + 0.5)
    nb = n - ny - nr
    if nb < 0:
        raise ValueError(f"rounding left no room for the B class at n={n}")
    return HostGraph(
        graph=three_class_graph(ny, nr, nb),
        class_sizes=(ny, nr, nb),
        beta=beta,
        q=q,
        target_edges=beta * n * n / 2.0,
    )


def _host_graph(host):
    return host.graph if isinstance(host, HostGraph) else host


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


def _count_maps(pattern: Graph, host, injective: bool, budget: int) -> int:
    k = pattern.n
    hg = _host_graph(host)
    hadj = hg.adj
    full = (1 << hg.n) - 1
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
        return hg.n
    rec(0, 0)
    return state["count"]


def hom_count(pattern: Graph, host, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of edge-preserving maps from the pattern to the host."""
    if pattern.n > MAX_PATTERN_VERTICES:
        raise ValueError(f"pattern limited to {MAX_PATTERN_VERTICES} vertices")
    return _count_maps(pattern, host, injective=False, budget=budget)


def injective_count(pattern: Graph, host, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of labelled embeddings (injective homomorphisms)."""
    if pattern.n > MAX_PATTERN_VERTICES:
        raise ValueError(f"pattern limited to {MAX_PATTERN_VERTICES} vertices")
    return _count_maps(pattern, host, injective=True, budget=budget)


def automorphism_count(g: Graph) -> int:
    """Number of automorphisms: the embeddings of the graph into itself."""
    if g.n > 10:      # the search walks the automorphisms: K10 takes 10!/2 nodes
        raise ValueError("automorphism scan limited to 10 vertices")
    return _count_maps(g, g, injective=True, budget=DEFAULT_BUDGET)


def copies_count(pattern: Graph, host, budget: int = DEFAULT_BUDGET) -> int:
    """Unlabelled copies: embeddings divided by the automorphism count."""
    inj = injective_count(pattern, host, budget=budget)
    aut = automorphism_count(pattern)
    if inj % aut:
        raise RuntimeError(f"embedding count {inj} not divisible by |Aut| = {aut}")
    return inj // aut


def injective_count_from_spectrum(spec, host: HostGraph) -> int:
    """Census route to the embedding count: an embedding sorts the pattern
    vertices into the three classes, the induced weighting is valid, and
    within each class any injective placement works, so the count is the
    census sum of falling factorials.  Must equal injective_count exactly.
    """
    ny, nr, nb = host.class_sizes
    total = 0
    for (rc, yc, bc), mult in spec.entries:
        total += mult * math.perm(ny, yc) * math.perm(nr, rc) * math.perm(nb, bc)
    return total


def convergence_report(pattern: Graph, beta: float, q: float, n_list,
                       budget: int = DEFAULT_BUDGET) -> ConvergenceResult:
    """Exact counts against the limiting density for growing host sizes."""
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    spec = spectrum(pattern)
    t_ref = t_density(spec, beta, q)
    aut = automorphism_count(pattern)
    v = pattern.n
    reports = []
    for n in n_list:
        host = build_host(n, beta, q)
        hom = hom_count(pattern, host, budget=budget)
        inj = injective_count(pattern, host, budget=budget)
        if inj % aut:
            raise RuntimeError("embedding count not divisible by |Aut|")
        normalised = inj / n ** v
        reports.append(CountReport(
            n=n, beta=beta, q=q, hom=hom, injective=inj, copies=inj // aut,
            normalised=normalised, t_reference=t_ref,
            gap=abs(normalised - t_ref),
        ))
    gaps = [(r.n, r.gap) for r in reports if r.gap > 0.0]
    decay = None
    if len(gaps) >= 2:
        xs = np.log([n for n, _ in gaps])
        ys = np.log([g for _, g in gaps])
        decay = float(-np.polyfit(xs, ys, 1)[0])
    return ConvergenceResult(reports=tuple(reports), decay_rate=decay)
