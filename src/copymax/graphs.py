"""Small labelled undirected graphs: parsing, connectivity, canonical forms
and enumeration up to isomorphism.

Vertices are stored 0-indexed internally; the text formats (edge lists,
reports) use 1-indexed labels.  Adjacency is kept as one Python-int bitmask
per vertex, which makes neighbourhood intersections cheap for the small
patterns this library analyses and still scales to host graphs with a
couple of thousand vertices.  Independence facts (alpha, the counts i_k,
the number A of maximum independent sets) are read from the weighting
census in ``copymax.weightings``, and automorphism counts from the map
search in ``copymax.hosts`` (as self-embeddings), not computed here.
"""

from __future__ import annotations

import re
from functools import lru_cache

MAX_ENUMERATION = 8       # canonical forms and graph classes on <= 8 vertices


class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj", "_edges", "_edge_count")

    def __init__(self, n, edges=()):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        adj = [0] * n
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)
        self._edges = tuple(sorted(seen))
        self._edge_count = len(seen)

    @classmethod
    def _from_adjacency(cls, n, adj):
        # Trusted constructor for programmatically built (symmetric, loop-free)
        # adjacency; skips edge materialisation so big hosts stay cheap.
        g = object.__new__(cls)
        g.n = n
        g._adj = tuple(adj)
        g._edges = None
        g._edge_count = None
        return g

    @property
    def adj(self):
        return self._adj

    @property
    def edges(self):
        if self._edges is None:
            out = []
            for u in range(self.n):
                m = self._adj[u] >> (u + 1)
                base = u + 1
                while m:
                    low = m & -m
                    out.append((u, base + low.bit_length() - 1))
                    m ^= low
            self._edges = tuple(out)
        return self._edges

    @property
    def edge_count(self):
        if self._edge_count is None:
            self._edge_count = sum(a.bit_count() for a in self._adj) // 2
        return self._edge_count

    def degree(self, u):
        return self._adj[u].bit_count()

    def has_edge(self, u, v):
        return bool(self._adj[u] >> v & 1)

    @property
    def has_isolated_vertices(self):
        return any(a == 0 for a in self._adj)

    def edge_list_text(self):
        """1-indexed edge dump in the parse_edge_list format."""
        body = ",".join(f"{u + 1}-{v + 1}" for u, v in self.edges)
        return f"n={self.n};{body}" if self.has_isolated_vertices or not body else body

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges)})"


# ---------------------------------------------------------------------------
# edge masks: pair i < j of an n-vertex graph is bit j(j-1)/2 + i (graph6 order)

@lru_cache(maxsize=None)
def _pairs(n):
    return tuple((i, j) for j in range(n) for i in range(j))


def _bit(i, j):
    return j * (j - 1) // 2 + i                   # pair i < j


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    return Graph(n, [pair for k, pair in enumerate(_pairs(n)) if mask >> k & 1])


# ---------------------------------------------------------------------------
# parsing / formatting

_TOKEN = re.compile(r"^(\d+)-(\d+)$")


def parse_edge_list(text: str) -> Graph:
    """Parse comma-separated 1-indexed "a-b" pairs, optional "n=k;" prefix."""
    text = text.strip()
    declared = None
    if text.startswith("n="):
        head, sep, rest = text.partition(";")
        if not sep:
            raise ValueError("missing ';' after n= prefix")
        try:
            declared = int(head[2:])
        except ValueError:
            raise ValueError(f"bad vertex count {head!r}") from None
        if declared < 1:
            raise ValueError("declared vertex count must be positive")
        text = rest.strip()
    edges = []
    if text:
        for token in text.split(","):
            token = token.strip()
            m = _TOKEN.match(token)
            if not m:
                raise ValueError(f"malformed edge token {token!r}")
            u, v = int(m.group(1)), int(m.group(2))
            if u < 1 or v < 1:
                raise ValueError(f"vertex labels are 1-indexed, got {token!r}")
            if u == v:
                raise ValueError(f"self-loop {token!r}")
            if declared is not None and max(u, v) > declared:
                raise ValueError(f"label in {token!r} exceeds declared n={declared}")
            edges.append((u - 1, v - 1))
    elif declared is None:
        raise ValueError("empty edge list without declared vertex count")
    n = declared if declared is not None else max(max(e) for e in edges) + 1
    return Graph(n, edges)


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (single-byte size form, v <= 62)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise ValueError("graph6 byte out of range")
    n = data[0]
    if n > 62:
        raise ValueError("multi-byte graph6 sizes are not supported")
    if n == 0:
        raise ValueError("graph6 string encodes an empty graph")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - 1 != need:
        raise ValueError(f"graph6 bit field has {len(data) - 1} bytes, expected {need}")
    mask = sum(1 << k for k in range(nbits) if data[1 + k // 6] >> (5 - k % 6) & 1)
    return graph_from_edge_mask(n, mask)


def write_graph6(g: Graph) -> str:
    """Encode in graph6 (column-major upper-triangle bits, 6 per byte)."""
    if g.n > 62:
        raise ValueError("graph6 single-byte form needs v <= 62")
    mask = sum(1 << _bit(u, v) for u, v in g.edges)       # edges have u < v
    out = [chr(g.n + 63)]
    for k in range(0, g.n * (g.n - 1) // 2, 6):      # bit k is a byte's high bit
        out.append(chr(63 + sum((mask >> (k + i) & 1) << (5 - i) for i in range(6))))
    return "".join(out)


# ---------------------------------------------------------------------------
# constructors

def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(k: int) -> Graph:
    return Graph(k, _pairs(k))


def path_graph(edges: int) -> Graph:
    """Path with the given number of edges (so edges+1 vertices)."""
    if edges < 1:
        raise ValueError("path needs at least one edge")
    return Graph(edges + 1, [(i, i + 1) for i in range(edges)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def star_graph(leaves: int) -> Graph:
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def clique_with_pendant_star(a: int, b: int) -> Graph:
    """Clique K_a, a bridge vertex tied to one clique vertex, and b leaves
    hanging off the bridge.

    These are the graphs whose fractional independence number b + a/2
    strictly exceeds both the independence number b + 1 and half the vertex
    count; the smallest, at a=3 and b=2, is the 6-vertex builtin ``G6``.
    """
    if a < 3:
        raise ValueError("clique size must be at least 3")
    if b < 2:
        raise ValueError("need at least 2 pendant leaves")
    edges = list(_pairs(a))
    u = a
    edges.append((a - 1, u))
    edges.extend((u, u + 1 + i) for i in range(b))
    return Graph(a + b + 1, edges)


_BUILTIN = re.compile(r"^(P|K|C|star)(\d+)$", re.IGNORECASE)


def builtin_graph(name: str) -> Graph:
    """Named graphs for the CLI: P<l>, K<k>, C<k>, star<k>, G6."""
    if name.upper() == "G6":
        return clique_with_pendant_star(3, 2)
    m = _BUILTIN.match(name.strip())
    if not m:
        raise ValueError(f"unknown builtin graph {name!r}")
    kind, k = m.group(1).lower(), int(m.group(2))
    if kind == "p":
        return path_graph(k)
    if kind == "k":
        return complete_graph(k)
    if kind == "c":
        return cycle_graph(k)
    return star_graph(k)


# ---------------------------------------------------------------------------
# connectivity

def is_connected(g: Graph) -> bool:
    if g.n == 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        grow = 0
        m = frontier
        while m:
            low = m & -m
            grow |= g.adj[low.bit_length() - 1]
            m ^= low
        frontier = grow & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


# ---------------------------------------------------------------------------
# canonical forms and enumeration up to isomorphism
#
# The canonical form is the minimum, over all n! vertex permutations, of the
# permuted edge mask.  Column p (pairs (i, p), i < p, as bits i) outweighs
# every column below it, so ``_lower`` places vertices at positions n-1 down
# to 0, each with its least column: in each cell of an ordered partition of
# the free positions its non-neighbours go above its neighbours.  Only ties
# branch, and twins (N(u) - {w} = N(w) - {u}: their swap fixes the placement)
# only once.  Classes are generated orderly (Read 1978): setting the lowest
# zero bit of a least mask gives a least mask, so each class hangs once
# below the complete graph.

def _lower(adj, cells, p, best, stop):
    """Lower ``best`` (best[q] is column q of the least mask found) along
    the placements of the ordered ``cells`` ((vertex bitmask, lowest
    position) pairs, top first) at positions p down to 0.  True if some
    placement went below ``best``; with ``stop``, return then and leave
    ``best`` as it was."""
    if p == 0:
        return False
    bound, least, ties = best[p], 1 << p, []
    for u, a in enumerate(adj):
        if cells[0][0] >> u & 1:
            col = 0
            for c, lo in cells:
                col |= ((1 << (c & a).bit_count()) - 1) << lo
            if col < bound and stop:
                return True
            if col < least:
                least, ties = col, [u]
            elif col == least:
                ties.append(u)
    if least > bound:
        return False
    lowered = least < bound
    if lowered:                                   # 1 << p is above every lower column
        best[:p + 1] = [1 << p] * p + [least]
    tried = []
    for u in ties:
        if any(not (adj[u] ^ adj[w]) & ~(1 << u | 1 << w) for w in tried):
            continue                              # a twin of a tried vertex
        tried.append(u)
        a = adj[u]
        refined = [cell for c, lo in ((cells[0][0] ^ 1 << u, cells[0][1]), *cells[1:])
                   for cell in ((c & ~a, lo + (c & a).bit_count()), (c & a, lo)) if cell[0]]
        lowered |= _lower(adj, refined, p - 1, best, stop)
        if lowered and stop:
            return True
    return lowered


def canonical_form(g: Graph):
    """(n, minimum edge bitmask); equal exactly for isomorphic graphs."""
    if g.n > MAX_ENUMERATION:
        raise ValueError(f"canonical form limited to {MAX_ENUMERATION} vertices")
    best = [1 << g.n] * g.n
    _lower(g.adj, [((1 << g.n) - 1, 0)], g.n - 1, best, False)
    return (g.n, sum(best[p] << _bit(0, p) for p in range(1, g.n)))


@lru_cache(maxsize=None)
def _graph_classes(n):
    """Canonical masks of every isomorphism class on n vertices, by edge
    count.  The children of a canonical mask P are P - 2^j for each bit j
    below P's lowest zero bit; a child is kept if no relabelling lowers it."""
    pairs = _pairs(n)
    levels = [((1 << len(pairs)) - 1,)]
    for _ in pairs:
        nxt = []
        for mask in levels[-1]:
            adj = [0] * n
            for k, (u, v) in enumerate(pairs):
                if mask >> k & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            for j in range((~mask & mask + 1).bit_length() - 1):
                u, v = pairs[j]
                a = adj[:]
                a[u] ^= 1 << v
                a[v] ^= 1 << u
                child = mask ^ 1 << j
                best = [child >> _bit(0, p) & (1 << p) - 1 for p in range(n)]
                if not _lower(a, [((1 << n) - 1, 0)], n - 1, best, True):
                    nxt.append(child)
        levels.append(tuple(sorted(nxt)))
    return levels[::-1]


def enumerate_connected_graphs(max_v: int):
    """One representative per connected isomorphism class on 2..max_v
    vertices, in deterministic (n, edge count, mask) order."""
    if max_v < 2:
        raise ValueError(f"max_v must be at least 2, got {max_v}")
    if max_v > MAX_ENUMERATION:
        raise ValueError(f"enumeration limited to {MAX_ENUMERATION} vertices")
    for n in range(2, max_v + 1):
        for level in _graph_classes(n):
            for mask in level:
                g = graph_from_edge_mask(n, mask)
                if is_connected(g):
                    yield g
