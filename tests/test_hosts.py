import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copymax import hosts
from copymax.density import t_density
from copymax.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    star_graph,
)
from copymax.hosts import (
    CountBudgetExceeded,
    automorphism_count,
    class_sizes,
    convergence_report,
    hom_count,
    hom_count_from_partitions,
    independent_partitions,
    injective_count,
    injective_count_from_spectrum,
    three_class_graph,
)
from copymax.weightings import spectrum
from oracles import (
    ref_hom_count,
    ref_independent_partitions,
    ref_quotient,
    ref_set_partitions,
)
from test_graphs import graphs_without_isolated_vertices, small_graphs

Q_HALF = 1.0 / math.sqrt(2.0)


def random_graph(rng, n, p=0.5):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# host construction

def build_host(n, beta, q):
    return three_class_graph(*class_sizes(n, beta, q))


def test_build_host_sizes():
    assert class_sizes(100, 0.18, Q_HALF) == (30, 5, 65)


def test_build_host_clique_limit():
    ny, nr, nb = class_sizes(50, 0.36, 1.0)
    assert ny == 30 and nr == 0
    # a clique plus isolated vertices
    host = three_class_graph(ny, nr, nb)
    assert all(host.degree(v) == ny - 1 for v in range(ny))
    assert all(host.degree(v) == 0 for v in range(ny, 50))


def test_build_host_empty():
    assert class_sizes(40, 0.0, 0.3) == (0, 0, 40)
    assert build_host(40, 0.0, 0.3).edge_count == 0


def test_build_host_structure():
    ny, nr, nb = class_sizes(30, 0.3, 0.5)
    g = three_class_graph(ny, nr, nb)

    def vertex_class(v):
        return "Y" if v < ny else "R" if v < ny + nr else "B"
    for u in range(g.n):
        for v in range(u + 1, g.n):
            cu, cv = vertex_class(u), vertex_class(v)
            expected = {("Y", "Y"): True, ("R", "R"): True, ("Y", "R"): True,
                        ("R", "Y"): True, ("R", "B"): True, ("B", "R"): True,
                        ("Y", "B"): False, ("B", "Y"): False, ("B", "B"): False}
            assert g.has_edge(u, v) == expected[(cu, cv)]


def test_build_host_rejects_tiny():
    with pytest.raises(ValueError):
        class_sizes(5, 0.2, 0.5)


def test_edge_count_slack():
    for n in (30, 100, 500, 2000):
        for beta in (0.1, 0.2, 0.5, 0.9):
            for q in (0.0, 0.3, Q_HALF, 1.0):
                host = build_host(n, beta, q)
                assert abs(host.edge_count - beta * n * n / 2.0) <= 4 * n


# ---------------------------------------------------------------------------
# counting

def test_hom_known_values():
    assert hom_count(complete_graph(2), complete_graph(3)) == 6
    assert hom_count(complete_graph(3), complete_graph(2)) == 0
    assert hom_count(path_graph(2), complete_graph(3)) == 12


def test_hom_k2_counts_ordered_edges():
    host = build_host(200, 0.3, 0.6)
    assert hom_count(complete_graph(2), host) == 2 * host.edge_count


def copies_count(pattern, host):
    return hosts._copies(injective_count(pattern, host), automorphism_count(pattern))


def test_copies_known_values(g6):
    assert copies_count(path_graph(4), cycle_graph(7)) == 7
    assert copies_count(path_graph(4), complete_graph(5)) == 60
    assert copies_count(g6, g6) == 1


def test_counts_against_exhaustive_scan(g6):
    rng = random.Random(60601)
    patterns = [complete_graph(2), path_graph(2), complete_graph(3),
                path_graph(3), star_graph(3), cycle_graph(4)]
    hosts = [three_class_graph(3, 2, 5), three_class_graph(0, 2, 6),
             three_class_graph(4, 0, 4)]
    hosts += [random_graph(rng, rng.randint(4, 7)) for _ in range(4)]
    for pat in patterns:
        for host in hosts:
            assert hom_count(pat, host) == ref_hom_count(pat, host)
            assert injective_count(pat, host) == ref_hom_count(pat, host, injective=True)
    small = three_class_graph(3, 2, 5)
    assert hom_count(g6, small) == ref_hom_count(g6, small)
    assert injective_count(g6, small) == ref_hom_count(g6, small, injective=True)


def test_partition_oracles(g6):
    # Bell numbers, then the independent partitions of the builtin: the
    # trivial one, 9 single merges of a non-adjacent pair, and 27 coarser
    assert [len(list(ref_set_partitions(range(k)))) for k in range(6)] == [1, 1, 2, 5, 15, 52]
    parts = ref_independent_partitions(g6)
    assert len(parts) == 37
    assert sum(len(p) == g6.n - 1 for p in parts) == 9
    assert ref_quotient(g6, [[0, 3], [1], [2], [4], [5]]) == (
        5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])


def _as_sets(partitions):
    return sorted(sorted(sorted(block) for block in p) for p in partitions)


def _blocks(g, masks):
    return [[u for u in range(g.n) if mask >> u & 1] for mask in masks]


def test_independent_partitions_g6(g6):
    parts = independent_partitions(g6)
    assert len(parts) == 37
    assert _as_sets(_blocks(g6, p) for p in parts) == _as_sets(ref_independent_partitions(g6))


@given(small_graphs())
@settings(max_examples=100, deadline=None)
def test_independent_partitions_against_oracle(g):
    assert (_as_sets(_blocks(g, p) for p in independent_partitions(g))
            == _as_sets(ref_independent_partitions(g)))


@st.composite
def three_class_sizes(draw):
    # (|Y|, |R|, |B|) of a host on 1..25 vertices
    ny = draw(st.integers(0, 25))
    nr = draw(st.integers(0, 25 - ny))
    nb = draw(st.integers(0 if ny + nr else 1, 25 - ny - nr))
    return ny, nr, nb


@given(graphs_without_isolated_vertices(max_v=6), three_class_sizes())
@settings(max_examples=60, deadline=None)
def test_census_routes_against_search(pattern, sizes):
    host = three_class_graph(*sizes)
    assert hom_count_from_partitions(pattern, sizes) == hom_count(pattern, host)
    assert (injective_count_from_spectrum(spectrum(pattern), sizes)
            == injective_count(pattern, host))


def test_census_copies_on_every_seven_vertex_host(g6):
    # the three-class hosts three_class_host_probe scans at n = 7
    aut = automorphism_count(g6)
    sizes = [(ny, nr, 7 - ny - nr) for ny in range(8) for nr in range(8 - ny)]
    assert len(sizes) == 36
    for s in sizes:
        census = injective_count_from_spectrum(spectrum(g6), s)
        assert census % aut == 0
        assert census // aut == copies_count(g6, three_class_graph(*s))


def test_hom_is_sum_over_independent_partitions():
    # hom(F, G) = sum over independent partitions P of inj(F/P, G), checked
    # with the reference scans alone on a host without three-class structure
    pat = path_graph(4)
    host = random_graph(random.Random(4100), 10)
    total = sum(ref_hom_count(Graph(*ref_quotient(pat, p)), host, injective=True)
                for p in ref_independent_partitions(pat))
    assert total == ref_hom_count(pat, host)


def test_pattern_into_empty_host(g6):
    assert injective_count(g6, empty_graph(12)) == 0
    assert hom_count(g6, empty_graph(12)) == 0


def test_disconnected_pattern():
    two_edges = Graph(4, [(0, 1), (2, 3)])
    host = complete_graph(4)
    assert hom_count(two_edges, host) == ref_hom_count(two_edges, host)
    assert injective_count(two_edges, host) == ref_hom_count(two_edges, host, True)


def test_hom_dominates_injective(g6):
    host = build_host(25, 0.4, 0.5)
    assert hom_count(g6, host) >= injective_count(g6, host)


def test_injective_divisible_by_automorphisms(g6):
    for pat in (g6, path_graph(4), cycle_graph(5), star_graph(3)):
        host = build_host(20, 0.5, 0.4)
        inj = injective_count(pat, host)
        assert inj % automorphism_count(pat) == 0


def test_budget_abort(g6):
    host = build_host(50, 0.5, 0.5)
    with pytest.raises(CountBudgetExceeded) as err:
        hom_count(g6, host, budget=10)
    assert err.value.nodes > 10
    assert err.value.partial_count >= 0


def test_pattern_size_cap():
    for count in (hom_count, injective_count):
        with pytest.raises(ValueError, match="pattern limited to 8 vertices"):
            count(empty_graph(9), complete_graph(3))


# ---------------------------------------------------------------------------
# the census route vs the search route

def test_oracle_identity_batch(g6):
    patterns = [complete_graph(2), path_graph(2), complete_graph(3), path_graph(4), g6]
    count = 0
    for pat in patterns:
        sp = spectrum(pat)
        for beta, q, n in ((0.1, 0.0, 30), (0.2, Q_HALF, 30), (0.5, 1.0, 30),
                           (0.2, Q_HALF, 60)):
            sizes = class_sizes(n, beta, q)
            assert (injective_count(pat, three_class_graph(*sizes))
                    == injective_count_from_spectrum(sp, sizes))
            count += 1
    assert count >= 20


def test_spectrum_route_k2_is_twice_edges():
    sp = spectrum(complete_graph(2))
    for n, beta, q in ((40, 0.3, 0.2), (100, 0.6, 0.8)):
        sizes = class_sizes(n, beta, q)
        host = three_class_graph(*sizes)
        assert injective_count_from_spectrum(sp, sizes) == 2 * host.edge_count
        assert injective_count(complete_graph(2), host) == 2 * host.edge_count


# ---------------------------------------------------------------------------
# convergence

def test_convergence_report_p2():
    result = convergence_report(path_graph(2), 0.2, Q_HALF, [20, 40, 80])
    gaps = [r.gap for r in result.reports]
    assert gaps[0] > gaps[1] > gaps[2]
    for r in result.reports:
        assert r.hom >= r.injective
        assert r.normalised == pytest.approx(r.injective / r.n ** 3, rel=1e-12)
        assert r.t_reference == pytest.approx(
            t_density(spectrum(path_graph(2)), 0.2, Q_HALF), rel=1e-12)


def test_convergence_zero_density(g6):
    result = convergence_report(g6, 0.0, 0.5, [10, 20])
    assert all(r.injective == 0 and r.hom == 0 for r in result.reports)


def test_convergence_k2_clique_host():
    # a clique host makes the gap a pure rounding effect: within 2/n
    result = convergence_report(complete_graph(2), 0.5, 1.0, [50, 100])
    for r in result.reports:
        assert r.gap <= 2.0 / r.n


def test_convergence_csv_format():
    result = convergence_report(complete_graph(2), 0.5, 1.0, [50, 100])
    lines = result.to_csv().strip().split("\n")
    assert lines[0] == "n,beta,q,hom,injective,copies,normalised,t_reference,gap"
    assert len(lines) == 3
    assert lines[1].startswith("50,0.5,1,")


def test_convergence_at_a_million_vertices(g6, monkeypatch):
    # only class sizes are formed: building this host would not fit in memory
    def refuse(*args):
        raise AssertionError("convergence_report built a host graph")
    monkeypatch.setattr(hosts, "three_class_graph", refuse)
    beta, n = 0.2, 10 ** 6
    t_f = t_density(spectrum(g6), beta, Q_HALF)
    c_inf = sum(t_density(spectrum(Graph(*ref_quotient(g6, p))), beta, Q_HALF) / t_f
                for p in ref_independent_partitions(g6) if len(p) == g6.n - 1)
    start = time.perf_counter()
    (r,) = convergence_report(g6, beta, Q_HALF, [n]).reports
    assert time.perf_counter() - start < 5.0
    assert abs((r.hom - r.injective) * n / r.injective - c_inf) < 1e-3


def test_convergence_pattern_limit():
    with pytest.raises(ValueError, match="pattern limited to 8 vertices"):
        convergence_report(cycle_graph(9), 0.2, Q_HALF, [30])


def test_convergence_requires_increasing(g6):
    with pytest.raises(ValueError):
        convergence_report(g6, 0.2, 0.5, [30, 30])
