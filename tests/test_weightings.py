import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copymax.cli import main
from copymax.graphs import (
    Graph,
    clique_with_pendant_star,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_connected_graphs,
    parse_edge_list,
    star_graph,
)
from copymax.weightings import (
    fractional_independence_number,
    maximal_weighting,
    spectrum,
    _census,
    _unpack,
)
from oracles import (
    random_graph,
    ref_independent_counts,
    ref_interior_limit_constant,
    ref_weightings,
)


def signature(halves):
    return (halves.count(0), halves.count(1), halves.count(2))


def census_table(g):
    """The whole census, {(y, b): multiplicity}, isolated vertices allowed."""
    return _unpack(_census(g)(0, 0, 0), g.n)


@st.composite
def graphs_up_to_nine(draw):
    """Random graphs on 1..9 vertices, isolated vertices allowed."""
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


def test_k2_weightings_explicit():
    assert set(ref_weightings(complete_graph(2))) == {
        (0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (1, 1)}
    assert spectrum(complete_graph(2)).total_weightings == 6


def test_single_vertex_weightings():
    assert census_table(empty_graph(1)) == {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    assert maximal_weighting(empty_graph(1)) == (2,)


def test_g6_weighting_count(g6):
    assert spectrum(g6).total_weightings == 145


def test_enumeration_matches_product_scan(g6):
    rng = random.Random(515)
    graphs = [g6, cycle_graph(5), star_graph(4)]
    graphs += [random_graph(rng, rng.randint(1, 6)) for _ in range(10)]
    for g in graphs:
        want = Counter(signature(w) for w in ref_weightings(g))
        assert census_table(g) == {(y, b): m for (r, y, b), m in want.items()}


@given(graphs_up_to_nine())
@settings(max_examples=80, deadline=None)
def test_packed_census_matches_product_scan(g):
    ws = sorted(ref_weightings(g), key=lambda w: (signature(w), w))
    tally = Counter((w.count(1), w.count(2)) for w in ws)
    assert census_table(g) == dict(tally)
    best = max(sum(w) for w in ws)
    assert maximal_weighting(g) == next(w for w in ws if sum(w) == best)


def test_packed_slots_hold_the_largest_counts():
    # with no edges every (y, b) slot is a trinomial 16!/(y! b! r!): the
    # largest counts any 16-vertex census holds, so a narrow field shows
    n = 16
    table = census_table(empty_graph(n))
    want = {(y, b): math.factorial(n) // (math.factorial(y) * math.factorial(b)
                                          * math.factorial(n - y - b))
            for y in range(n + 1) for b in range(n + 1 - y)}
    assert len(table) == 153 and table == want
    assert sum(table.values()) == 3 ** n
    assert spectrum(cycle_graph(n)).total_weightings == 422266
    with pytest.raises(ValueError):
        census_table(empty_graph(n + 1))


def test_maximal_weighting_is_first_in_census_order():
    # census order: (r, y, b) signature, then the weight tuple itself
    rng = random.Random(2024)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), p=rng.uniform(0.1, 0.9))
        ws = sorted(ref_weightings(g), key=lambda w: (signature(w), w))
        best = max(sum(w) for w in ws)
        assert maximal_weighting(g) == next(w for w in ws if sum(w) == best)
        assert fractional_independence_number(g) == Fraction(best, 2)


def test_honest_limit_star15():
    # 3^15 weightings with a zero centre, 2^15 with a half, 1 with a one
    assert spectrum(star_graph(15)).total_weightings == 3 ** 15 + 2 ** 15 + 1


def test_honest_limit_c16():
    # weightings of a cycle are closed walks of the compatibility matrix
    m = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 0]], dtype=object)
    walks = np.identity(3, dtype=object)
    for _ in range(16):
        walks = walks.dot(m)
    assert np.trace(walks) == 422266
    assert spectrum(cycle_graph(16)).total_weightings == 422266


def test_fractional_independence_values(g6):
    assert fractional_independence_number(g6) == Fraction(7, 2)
    assert fractional_independence_number(cycle_graph(5)) == Fraction(5, 2)
    assert fractional_independence_number(complete_graph(2)) == 1


def test_family_alpha_star_formula():
    for a in range(3, 6):
        for b in range(2, 5):
            g = clique_with_pendant_star(a, b)
            assert fractional_independence_number(g) == b + Fraction(a, 2)
            assert spectrum(g).alpha == b + 1


def test_spectrum_g6(g6_spec):
    assert g6_spec.v == 6
    assert g6_spec.alpha == 3
    assert g6_spec.alpha_star == Fraction(7, 2)
    assert g6_spec.y_zero_slice() == {
        (6, 0, 0): 1, (5, 0, 1): 6, (4, 0, 2): 9, (3, 0, 3): 3}
    assert g6_spec.maximiser_counts == (0, 1, 0)
    assert g6_spec.max_independent_sets == 3
    assert g6_spec.total_weightings == 145


def test_spectrum_k2():
    sp = spectrum(complete_graph(2))
    assert dict(sp.entries) == {(2, 0, 0): 1, (1, 0, 1): 2, (0, 2, 0): 1, (1, 1, 0): 2}
    assert sp.maximiser_counts == (1, 2)


def test_spectrum_rejects_isolated_vertices():
    with pytest.raises(ValueError):
        spectrum(parse_edge_list("n=3;1-2"))


def test_spectrum_consistency_random():
    rng = random.Random(808)
    checked = 0
    while checked < 12:
        g = random_graph(rng, rng.randint(2, 7), p=0.55)
        if g.has_isolated_vertices:
            continue
        checked += 1
        sp = spectrum(g)
        ws = ref_weightings(g)
        assert sp.total_weightings == len(ws)
        # signatures add up entry by entry
        assert dict(sp.entries) == dict(Counter(signature(w) for w in ws))
        # the y = 0 slice is the independent-set census in disguise
        counts = ref_independent_counts(g)
        alpha = max(k for k, i_k in enumerate(counts) if i_k)
        assert (sp.alpha, sp.max_independent_sets) == (alpha, counts[alpha])
        for k in range(g.n + 1):
            assert sp.y_zero_slice().get((g.n - k, 0, k), 0) == counts[k]
        # alpha* dominates both the 0/1 optimum and the all-half weighting
        assert sp.alpha_star >= alpha
        assert sp.alpha_star >= Fraction(g.n, 2)
        # r + y/2 >= v - alpha*, equality exactly on the maximisers
        maximisers = Counter()
        for w in ws:
            r, y, _ = signature(w)
            margin = Fraction(2 * r + y, 2)
            assert margin >= g.n - sp.alpha_star
            is_max = Fraction(sum(w), 2) == sp.alpha_star
            assert (margin == g.n - sp.alpha_star) == is_max
            maximisers[r] += is_max
        assert sp.maximiser_counts == tuple(maximisers[i] for i in range(len(sp.maximiser_counts)))
        assert sum(sp.maximiser_counts) == sum(maximisers.values())


def test_star_limit_constants(g6_spec):
    assert g6_spec.star_limit_constant() == Fraction(3, 8)
    assert spectrum(complete_graph(2)).star_limit_constant() == 1
    assert spectrum(star_graph(3)).star_limit_constant() == Fraction(1, 2)


def test_interior_limit_constant_values(g6_spec):
    got = g6_spec.interior_limit_constant(1.0 / math.sqrt(2.0))
    assert got == pytest.approx(1.0 / (8.0 * math.sqrt(2.0)), rel=1e-12)
    k2 = spectrum(complete_graph(2))
    assert k2.interior_limit_constant(0.5) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("q", [Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)])
def test_interior_limit_constant_matches_census(q):
    # C(q) recomputed from a naive product-scan census, not the hard-coded G6 values
    graphs = [*enumerate_connected_graphs(5), clique_with_pendant_star(3, 2),
              clique_with_pendant_star(4, 3)]
    for g in graphs:
        census = Counter((w.count(0), w.count(1), w.count(2)) for w in ref_weightings(g))
        want = float(ref_interior_limit_constant(census.items(), q))
        assert spectrum(g).interior_limit_constant(float(q)) == pytest.approx(want, rel=1e-12)


def test_interior_limit_constant_positive():
    rng = random.Random(31)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 6), p=0.6)
        if g.has_isolated_vertices:
            continue
        q = rng.uniform(0.05, 0.95)
        assert spectrum(g).interior_limit_constant(q) > 0.0


def test_interior_limit_constant_domain(g6_spec):
    for q in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            g6_spec.interior_limit_constant(q)


def test_spectrum_json_schema(capsys):
    assert main(["analyze", "--builtin", "G6"]) == 0
    d = json.loads(capsys.readouterr().out)["spectrum"]
    assert d["v"] == 6 and d["alpha"] == 3 and d["alpha_star"] == "7/2"
    assert {"r": 6, "y": 0, "b": 0, "mult": 1} in d["entries"]
    assert sum(e["mult"] for e in d["entries"]) == 145
    assert all(e["r"] + e["y"] + e["b"] == 6 for e in d["entries"])


def test_weighting_cap():
    with pytest.raises(ValueError):
        fractional_independence_number(empty_graph(17))
    with pytest.raises(ValueError):
        spectrum(cycle_graph(17))
