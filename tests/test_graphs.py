import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copymax.graphs import (
    MAX_ENUMERATION,
    Graph,
    _graph_classes,
    builtin_graph,
    canonical_form,
    clique_with_pendant_star,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_connected_graphs,
    graph_from_edge_mask,
    is_connected,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
    write_graph6,
)
from copymax.hosts import automorphism_count
from copymax.weightings import spectrum
from oracles import (
    are_isomorphic,
    disjoint_union,
    ref_automorphism_count,
    ref_graph_classes,
    ref_independent_counts,
)


def random_graph(rng, n, p=0.5):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# parsing

def test_parse_edge_list_g6():
    g = parse_edge_list("1-2,1-3,2-3,3-4,4-5,4-6")
    assert g.n == 6
    assert g.edge_count == 6
    assert set(g.edges) == {(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5)}


def test_parse_edge_list_single_edge():
    g = parse_edge_list("1-2")
    assert g.n == 2 and g.edges == ((0, 1),)


@pytest.mark.parametrize("text", ["1-1", "1--2", "a-b", "0-1", "1-2,,3-4", "n=2;1-3"])
def test_parse_edge_list_rejects(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


def test_parse_edge_list_declared_vertices_flags_isolated():
    g = parse_edge_list("n=4;1-2")
    assert g.n == 4
    assert g.has_isolated_vertices


def test_parse_edge_list_roundtrip(g6):
    assert parse_edge_list(g6.edge_list_text()) == g6


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


# ---------------------------------------------------------------------------
# graph6

def test_graph6_known_strings():
    assert parse_graph6("A_") == complete_graph(2)
    assert parse_graph6("A?") == empty_graph(2)
    assert parse_graph6("C~") == complete_graph(4)


def test_graph6_roundtrip_enumerated():
    for n in range(2, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_edge_mask(n, mask)
            assert parse_graph6(write_graph6(g)) == g
            if n > 4:
                break  # full scan only for tiny n


def test_graph6_matches_networkx():
    rng = random.Random(20240917)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 16))
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert write_graph6(g) == theirs
        back = nx.from_graph6_bytes(write_graph6(g).encode())
        assert set(map(tuple, map(sorted, back.edges()))) == set(g.edges)


@pytest.mark.parametrize("text", ["", "A", "A_?", "\x7f_", "~~~"])
def test_graph6_rejects(text):
    with pytest.raises(ValueError):
        parse_graph6(text)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0))
@settings(max_examples=120, deadline=None)
def test_graph6_roundtrip_random(n, seed):
    mask = seed % (1 << (n * (n - 1) // 2))
    g = graph_from_edge_mask(n, mask)
    assert parse_graph6(write_graph6(g)) == g


# ---------------------------------------------------------------------------
# independence (read from the weighting census)

def test_independence_numbers(g6):
    assert spectrum(g6).alpha == 3
    assert spectrum(complete_graph(5)).alpha == 1
    assert spectrum(path_graph(4)).alpha == 3


def test_census_g6(g6):
    sp = spectrum(g6)
    assert sp.independent_counts == (1, 6, 9, 3, 0, 0, 0)
    assert sp.alpha == 3 and sp.max_independent_sets == 3


def test_census_examples():
    two_edges = disjoint_union(complete_graph(2), complete_graph(2))
    sp = spectrum(two_edges)
    assert sp.alpha == 2 and sp.max_independent_sets == 4
    sp = spectrum(cycle_graph(5))
    assert sp.alpha == 2 and sp.max_independent_sets == 5


def test_census_against_combinations_oracle():
    rng = random.Random(4119)
    checked = 0
    while checked < 25:
        g = random_graph(rng, rng.randint(2, 8))
        if g.has_isolated_vertices:
            continue
        checked += 1
        assert spectrum(g).independent_counts == ref_independent_counts(g)


def test_trivial_alpha_identities():
    for v in range(2, 7):
        assert spectrum(complete_graph(v)).alpha == 1


def test_max_independent_sets_bound_at_half_alpha():
    # graphs whose independence number is exactly half the vertex count
    # cannot have more than 2^(v/2) maximum independent sets
    for g in enumerate_connected_graphs(5):
        sp = spectrum(g)
        if 2 * sp.alpha == g.n:
            assert sp.max_independent_sets <= 2 ** (g.n // 2)


@st.composite
def graphs_without_isolated_vertices(draw, max_v=9):
    n = draw(st.integers(min_value=2, max_value=max_v))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    covered = {u for e in edges for u in e}
    # tie every isolated vertex to a drawn partner so spectrum accepts it
    for u in range(n):
        if u not in covered:
            v = draw(st.integers(min_value=0, max_value=n - 2))
            e = (u, v + (v >= u))
            edges.append((min(e), max(e)))
            covered.update(e)
    return Graph(n, set(edges))


@given(graphs_without_isolated_vertices())
@settings(max_examples=150, deadline=None)
def test_independent_counts_property(g):
    sp = spectrum(g)
    assert sp.independent_counts == ref_independent_counts(g)
    assert sp.alpha == max(k for k, i_k in enumerate(sp.independent_counts) if i_k)
    assert sp.max_independent_sets == sp.independent_counts[sp.alpha]


# ---------------------------------------------------------------------------
# automorphisms

def test_automorphism_counts(g6):
    assert automorphism_count(complete_graph(3)) == 6
    assert automorphism_count(g6) == 4
    assert automorphism_count(path_graph(2)) == 2
    # 9 and 10 vertices: beyond the 8-vertex pattern limit of the host counts
    assert automorphism_count(cycle_graph(9)) == 18
    assert automorphism_count(star_graph(8)) == math.factorial(8)
    assert automorphism_count(cycle_graph(10)) == 20
    with pytest.raises(ValueError, match="automorphism scan limited to 10 vertices"):
        automorphism_count(empty_graph(11))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    return graph_from_edge_mask(n, draw(st.integers(0, 2 ** (n * (n - 1) // 2) - 1)))


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_automorphism_against_oracle(g):
    # isolated vertices and edgeless graphs included
    assert automorphism_count(g) == ref_automorphism_count(g)


def test_automorphism_divides_factorial():
    for g in enumerate_connected_graphs(5):
        assert math.factorial(g.n) % automorphism_count(g) == 0


def test_graph_invariants_bundle(g6):
    sp = spectrum(g6)
    assert (sp.alpha, sp.max_independent_sets, automorphism_count(g6)) == (3, 3, 4)
    assert sp.independent_counts[0] == 1
    assert sp.independent_counts[1] == g6.n


# ---------------------------------------------------------------------------
# the counterexample family

def test_family_smallest_member_is_g6(g6):
    assert are_isomorphic(clique_with_pendant_star(3, 2), g6)


def test_family_counts():
    g = clique_with_pendant_star(4, 2)
    assert g.n == 7 and g.edge_count == 9  # C(4,2) + 1 + 2


def test_family_rejects_small_parameters():
    with pytest.raises(ValueError):
        clique_with_pendant_star(2, 2)
    with pytest.raises(ValueError):
        clique_with_pendant_star(3, 1)


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_tiny_census():
    got = list(enumerate_connected_graphs(3))
    keys = {canonical_form(g) for g in got}
    expected = {canonical_form(complete_graph(2)),
                canonical_form(path_graph(2)),
                canonical_form(complete_graph(3))}
    assert keys == expected


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_connected_graphs(4)) == 9
    assert sum(1 for _ in enumerate_connected_graphs(5)) == 30


def test_enumerate_pairwise_nonisomorphic():
    graphs = list(enumerate_connected_graphs(5))
    keys = [canonical_form(g) for g in graphs]
    assert len(set(keys)) == len(keys)


def test_enumerate_matches_direct_scan():
    # brute force: canonicalise every labelled graph on 4 vertices
    seen = set()
    for mask in range(1 << 6):
        g = graph_from_edge_mask(4, mask)
        if is_connected(g):
            seen.add(canonical_form(g))
    ours = {canonical_form(g) for g in enumerate_connected_graphs(4) if g.n == 4}
    assert ours == seen


def test_enumeration_cap():
    assert MAX_ENUMERATION == 8
    with pytest.raises(ValueError, match="enumeration limited to 8 vertices"):
        list(enumerate_connected_graphs(9))
    with pytest.raises(ValueError, match="canonical form limited to 8 vertices"):
        canonical_form(cycle_graph(9))


@pytest.mark.parametrize("n", range(1, 6))
def test_graph_classes_match_brute_force(n):
    assert _graph_classes(n) == ref_graph_classes(n)


# OEIS A008406: graphs on n nodes with k edges, k = 0..C(n,2)
A008406 = {
    2: (1, 1),
    3: (1, 1, 1, 1),
    4: (1, 1, 2, 3, 2, 1, 1),
    5: (1, 1, 2, 4, 6, 6, 6, 4, 2, 1, 1),
    6: (1, 1, 2, 5, 9, 15, 21, 24, 24, 21, 15, 9, 5, 2, 1, 1),
    7: (1, 1, 2, 5, 10, 21, 41, 65, 97, 131, 148, 148, 131, 97, 65, 41, 21, 10,
        5, 2, 1, 1),
    8: (1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557, 1646, 1557,
        1312, 980, 663, 402, 221, 115, 56, 24, 11, 5, 2, 1, 1),
}


@pytest.mark.parametrize("n", sorted(A008406))
def test_graph_class_counts(n):
    assert tuple(len(level) for level in _graph_classes(n)) == A008406[n]


@given(small_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_canonical_form_is_relabelling_invariant(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    relabelled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    n, mask = canonical_form(g)
    assert canonical_form(relabelled) == (n, mask)
    assert are_isomorphic(g, relabelled)
    assert mask in _graph_classes(n)[g.edge_count]


# ---------------------------------------------------------------------------
# builtins

def test_builtin_names(g6):
    assert builtin_graph("G6") == g6 == parse_edge_list("1-2,1-3,2-3,3-4,4-5,4-6")
    assert builtin_graph("P4") == path_graph(4)
    assert builtin_graph("K5") == complete_graph(5)
    assert builtin_graph("C5") == cycle_graph(5)
    assert builtin_graph("star3") == star_graph(3)
    with pytest.raises(ValueError):
        builtin_graph("Q3")
