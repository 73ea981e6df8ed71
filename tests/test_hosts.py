import itertools
import math
import random

import pytest

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
    build_host,
    convergence_report,
    copies_count,
    hom_count,
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

Q_HALF = 1.0 / math.sqrt(2.0)


def random_graph(rng, n, p=0.5):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# host construction

def test_build_host_sizes():
    host = build_host(100, 0.18, Q_HALF)
    assert host.class_sizes == (30, 5, 65)


def test_build_host_clique_limit():
    host = build_host(50, 0.36, 1.0)
    ny, nr, nb = host.class_sizes
    assert ny == 30 and nr == 0
    # a clique plus isolated vertices
    assert all(host.graph.degree(v) == ny - 1 for v in range(ny))
    assert all(host.graph.degree(v) == 0 for v in range(ny, 50))


def test_build_host_empty():
    host = build_host(40, 0.0, 0.3)
    assert host.class_sizes == (0, 0, 40)
    assert host.graph.edge_count == 0


def test_build_host_structure():
    host = build_host(30, 0.3, 0.5)
    g = host.graph
    ny, nr, nb = host.class_sizes
    for u in range(g.n):
        for v in range(u + 1, g.n):
            cu, cv = host.vertex_class(u), host.vertex_class(v)
            expected = {("Y", "Y"): True, ("R", "R"): True, ("Y", "R"): True,
                        ("R", "Y"): True, ("R", "B"): True, ("B", "R"): True,
                        ("Y", "B"): False, ("B", "Y"): False, ("B", "B"): False}
            assert g.has_edge(u, v) == expected[(cu, cv)]


def test_build_host_rejects_tiny():
    with pytest.raises(ValueError):
        build_host(5, 0.2, 0.5)


def test_edge_count_slack():
    for n in (30, 100, 500, 2000):
        for beta in (0.1, 0.2, 0.5, 0.9):
            for q in (0.0, 0.3, Q_HALF, 1.0):
                host = build_host(n, beta, q)
                assert abs(host.graph.edge_count - beta * n * n / 2.0) <= 4 * n


# ---------------------------------------------------------------------------
# counting

def test_hom_known_values():
    assert hom_count(complete_graph(2), complete_graph(3)) == 6
    assert hom_count(complete_graph(3), complete_graph(2)) == 0
    assert hom_count(path_graph(2), complete_graph(3)) == 12


def test_hom_k2_counts_ordered_edges():
    host = build_host(200, 0.3, 0.6)
    assert hom_count(complete_graph(2), host) == 2 * host.graph.edge_count


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
            host = build_host(n, beta, q)
            assert injective_count(pat, host) == injective_count_from_spectrum(sp, host)
            count += 1
    assert count >= 20


def test_spectrum_route_k2_is_twice_edges():
    sp = spectrum(complete_graph(2))
    for n, beta, q in ((40, 0.3, 0.2), (100, 0.6, 0.8)):
        host = build_host(n, beta, q)
        assert injective_count_from_spectrum(sp, host) == 2 * host.graph.edge_count
        assert injective_count(complete_graph(2), host) == 2 * host.graph.edge_count


# ---------------------------------------------------------------------------
# convergence

def test_convergence_report_p2():
    result = convergence_report(path_graph(2), 0.2, Q_HALF, [20, 40, 80])
    gaps = [r.gap for r in result.reports]
    assert gaps[0] > gaps[1] > gaps[2]
    assert result.decay_rate == pytest.approx(1.0, abs=0.5)
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


def test_convergence_requires_increasing(g6):
    with pytest.raises(ValueError):
        convergence_report(g6, 0.2, 0.5, [30, 30])
