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

import itertools
import re
from functools import lru_cache

import numpy as np

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
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            byte = data[1 + k // 6]
            if byte >> (5 - k % 6) & 1:
                edges.append((i, j))
            k += 1
    return Graph(n, edges)


def write_graph6(g: Graph) -> str:
    """Encode in graph6 (column-major upper-triangle bits, 6 per byte)."""
    if g.n > 62:
        raise ValueError("graph6 single-byte form needs v <= 62")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        chunk = bits[k:k + 6] + [0] * (6 - len(bits[k:k + 6]))
        val = 0
        for b in chunk:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# constructors

def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(k: int) -> Graph:
    return Graph(k, list(itertools.combinations(range(k), 2)))


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
    edges = list(itertools.combinations(range(a), 2))
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
# Pair i < j of an n-vertex graph is bit j(j-1)/2 + i of its edge mask.  The
# canonical form is the minimum, over all n! vertex permutations, of the
# permuted edge mask.  ``_pair_images(n)`` holds, for each pair bit, its
# image bit under every permutation, so a graph's n! images are the OR of
# its edges' rows and one numpy min gives the form.  The rows are int32,
# which holds the C(8, 2) = 28 pair bits of MAX_ENUMERATION vertices.

@lru_cache(maxsize=None)
def _pair_images(n):
    """(C(n,2), n!) int32 table: row k is 1 << (image of pair bit k) under
    each permutation, in itertools.permutations order."""
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))),
                        dtype=np.int8).reshape(-1, n)
    pairs = [(i, j) for j in range(n) for i in range(j)]      # bit k <-> pairs[k]
    bit = np.zeros((n, n), dtype=np.int32)
    for k, (i, j) in enumerate(pairs):
        bit[i, j] = bit[j, i] = k
    table = np.empty((len(pairs), len(perms)), dtype=np.int32)
    for k, (i, j) in enumerate(pairs):
        np.left_shift(1, bit[perms[:, i], perms[:, j]], out=table[k])
    return table


def _images(table, bits):
    """Edge masks of one graph under every permutation, from its pair bits."""
    images = np.zeros(table.shape[1], dtype=np.int32)
    for k in bits:
        images |= table[k]
    return images


def canonical_form(g: Graph):
    """(n, minimum edge bitmask); equal exactly for isomorphic graphs."""
    if g.n > MAX_ENUMERATION:
        raise ValueError(f"canonical form limited to {MAX_ENUMERATION} vertices")
    bits = [v * (v - 1) // 2 + u for u, v in g.edges]       # edges have u < v
    return (g.n, int(_images(_pair_images(g.n), bits).min()))


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if mask >> k & 1:
                edges.append((i, j))
            k += 1
    return Graph(n, edges)


@lru_cache(maxsize=None)
def _graph_classes(n):
    """Canonical masks of every isomorphism class on n vertices, grouped by
    edge count (built level by level: every class with k+1 edges arises from
    one with k edges by adding a single edge).  Each class's images are
    formed once; adding free pair k to all of them is one OR with row k."""
    table = _pair_images(n)
    buf = np.empty(table.shape[1], dtype=np.int32)
    levels = [(0,)]
    for _ in range(len(table)):
        nxt = set()
        for mask in levels[-1]:
            images = _images(table, [k for k in range(len(table)) if mask >> k & 1])
            for k in range(len(table)):
                if not mask >> k & 1:
                    nxt.add(int(np.bitwise_or(images, table[k], out=buf).min()))
        levels.append(tuple(sorted(nxt)))
    return levels


def enumerate_connected_graphs(max_v: int):
    """One representative per connected isomorphism class on 2..max_v
    vertices, in deterministic (n, edge count, mask) order."""
    if max_v > MAX_ENUMERATION:
        raise ValueError(f"enumeration limited to {MAX_ENUMERATION} vertices")
    for n in range(2, max_v + 1):
        for level in _graph_classes(n):
            for mask in level:
                g = graph_from_edge_mask(n, mask)
                if is_connected(g):
                    yield g
