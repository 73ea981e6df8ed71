"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  All thirteen criteria are expected to pass.  Criterion 9's
collision clause compares hom/inj in three-class hosts with the limit
constant C_inf = sum of t(F/uv)/t(F) over the nine non-adjacent pairs of the
6-vertex builtin (about 18.758 at beta = 0.2, q = 1/sqrt 2), derived from
the quotient graphs' densities rather than measured.  (hom/inj - 1) * n
falls toward C_inf from above (31.1, 24.3, 21.3 at n = 30, 60, 120; the
value near 21 once quoted as the constant is the n = 120 one, not the
limit), so no bound of the form 1 + 10/n holds at any n.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from copymax.classify import classify_type, search_counterexamples
from copymax.density import (
    clique_density,
    crossover_beta,
    star_density,
    t_density,
)
from copymax.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    graph_from_edge_mask,
    parse_graph6,
    path_graph,
    star_graph,
    write_graph6,
)
from copymax.hosts import (
    automorphism_count,
    class_sizes,
    convergence_report,
    hom_count,
    injective_count,
    injective_count_from_spectrum,
    three_class_graph,
    _copies,
)
from copymax.lp import duality_check
from copymax.weightings import fractional_independence_number, spectrum
from oracles import (
    are_isomorphic,
    g6_interior_polynomial,
    ref_asymptotic_exponent,
    ref_independent_partitions,
    ref_quotient,
)

Q_HALF = 1.0 / math.sqrt(2.0)


def _report(num, ok, detail):
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def test_criterion_01_g6_invariants(g6, g6_spec):
    alpha = g6_spec.alpha
    a = g6_spec.max_independent_sets
    aut = automorphism_count(g6)
    ok = (alpha == 3 and g6_spec.alpha_star == Fraction(7, 2) and a == 3 and aut == 4)
    _report(1, ok, f"alpha={alpha} alpha*={g6_spec.alpha_star} A={a} |Aut|={aut}")


def test_criterion_02_spectrum_slice(g6_spec):
    got = g6_spec.y_zero_slice()
    want = {(6, 0, 0): 1, (5, 0, 1): 6, (4, 0, 2): 9, (3, 0, 3): 3}
    _report(2, got == want, f"y=0 slice {got}")


def test_criterion_03_interior_polynomial(g6_spec):
    worst = 0.0
    for beta in (0.005, 0.01, 0.016):
        ours = t_density(g6_spec, beta, Q_HALF)
        ref = g6_interior_polynomial(beta)
        worst = max(worst, abs(ours - ref) / ref)
    _report(3, worst <= 1e-12, f"max relative deviation {worst:.2e} (tol 1e-12)")


def test_criterion_04_crossover(g6_spec):
    root = crossover_beta(g6_spec, 1.0, Q_HALF, (0.01, 0.03), tol=1e-9)
    err = abs(root - 0.01613474)
    _report(4, err <= 1e-6, f"crossover {root:.9f}, |err| = {err:.2e} (tol 1e-6)")


def test_criterion_05_strict_ordering(g6_spec):
    margins = []
    for beta in (0.001, 0.004, 0.008, 0.012, 0.015):
        t_interior = t_density(g6_spec, beta, Q_HALF)
        t_clique = clique_density(g6_spec, beta)
        t_star = star_density(g6_spec, beta)
        margins.append(math.log(t_interior) - math.log(t_clique))
        margins.append(math.log(t_clique) - math.log(t_star))
    ok = all(m > 1e-15 for m in margins)
    _report(5, ok, f"min log-space margin {min(margins):.3e} (> 1e-15)")


def test_criterion_06_known_flips():
    p2_root = crossover_beta(spectrum(path_graph(2)), 0.0, 1.0, (0.3, 0.7), tol=1e-12)
    p4_root = crossover_beta(spectrum(path_graph(4)), 0.0, 1.0, (0.05, 0.12), tol=1e-9)
    ok = abs(p2_root - 0.5) <= 1e-9 and abs(p4_root - 0.0865) <= 5e-4
    _report(6, ok, f"P2 flip {p2_root:.12f} (tol 1e-9), P4 flip {p4_root:.6f} (tol 5e-4)")


def test_criterion_07_vanishing_beta(g6_spec):
    # exponents read from the census: v/2 at q = 1, v - alpha* inside,
    # v - alpha at q = 0; the log-log fit is the numeric check
    v = g6_spec.v
    exponents = {1.0: Fraction(v, 2), Q_HALF: v - g6_spec.alpha_star,
                 0.0: Fraction(v - g6_spec.alpha)}
    slopes = {q: ref_asymptotic_exponent(g6_spec, q, 1e-6, 1e-4) for q in exponents}
    slope_ok = all(abs(slopes[q] - float(e)) <= 0.05 for q, e in exponents.items())
    beta = 1e-6
    ratio_k = clique_density(g6_spec, beta) / beta ** float(exponents[1.0])
    ratio_t = t_density(g6_spec, beta, Q_HALF) / beta ** float(exponents[Q_HALF])
    ratio_s = star_density(g6_spec, beta) / beta ** float(exponents[0.0])
    c1 = 1.0 / (8.0 * math.sqrt(2.0))
    ratio_ok = (abs(ratio_k - 1.0) <= 1e-6
                and abs(ratio_t - c1) <= 1e-3
                and abs(ratio_s - 0.375) <= 1e-3)
    _report(7, slope_ok and ratio_ok,
            f"slopes q=1:{slopes[1.0]:.4f} ({exponents[1.0]}) "
            f"q=1/sqrt2:{slopes[Q_HALF]:.4f} ({exponents[Q_HALF]}) "
            f"q=0:{slopes[0.0]:.4f} ({exponents[0.0]}); ratios K:{ratio_k:.6f} T:{ratio_t:.6f} "
            f"(C1={c1:.6f}) S:{ratio_s:.6f} (C2=0.375)")


def test_criterion_08_oracle_identity(g6):
    patterns = [complete_graph(2), path_graph(2), complete_graph(3), path_graph(4), g6]
    settings = [(0.1, 0.0, 30), (0.2, Q_HALF, 30), (0.5, 1.0, 30), (0.2, Q_HALF, 60)]
    pairs = 0
    for pat in patterns:
        spec = spectrum(pat)
        for beta, q, n in settings:
            sizes = class_sizes(n, beta, q)
            if (injective_count(pat, three_class_graph(*sizes))
                    != injective_count_from_spectrum(spec, sizes)):
                _report(8, False, f"mismatch for pattern v={pat.n} at {(beta, q, n)}")
            pairs += 1
    p4_aut = automorphism_count(path_graph(4))
    c7 = _copies(injective_count(path_graph(4), cycle_graph(7)), p4_aut)
    k5 = _copies(injective_count(path_graph(4), complete_graph(5)), p4_aut)
    ok = pairs >= 20 and c7 == 7 and k5 == 60
    _report(8, ok, f"{pairs} exact (pattern, host) identities; "
                   f"copies(P4,C7)={c7}, copies(P4,K5)={k5}")


def test_criterion_09_convergence(g6):
    beta, q = 0.2, Q_HALF
    result = convergence_report(g6, beta, q, [30, 60, 120])
    gaps = [r.gap for r in result.reports]
    decreasing = gaps[0] > gaps[1] > gaps[2]
    c_fit = max(r.n * r.gap for r in result.reports)
    bounded = all(r.gap <= c_fit / r.n * (1 + 1e-12) for r in result.reports)

    # hom(F, G) = sum over partitions P of V(F) into independent blocks of
    # inj(F/P, G), so hom/inj - 1 = C/n + O(1/n^2) with C the sum of
    # t(F/uv)/t(F) over the single merges of a non-adjacent pair {u, v}
    quotients = [(len(p), spectrum(Graph(*ref_quotient(g6, p))))
                 for p in ref_independent_partitions(g6)]
    t_f = t_density(spectrum(g6), beta, q)
    c_inf = sum(t_density(spec, beta, q) / t_f
                for blocks, spec in quotients if blocks == g6.n - 1)
    identity_ok = all(
        r.hom == sum(injective_count_from_spectrum(spec, class_sizes(r.n, beta, q))
                     for _, spec in quotients)
        for r in result.reports)
    # the report counts by the census; backtracking on the built host is
    # the ground truth it must meet
    host_of = {r.n: three_class_graph(*class_sizes(r.n, beta, q)) for r in result.reports}
    search_ok = all(r.hom == hom_count(g6, host_of[r.n])
                    and r.injective == injective_count(g6, host_of[r.n])
                    for r in result.reports)

    scaled = [(r.hom - r.injective) / r.injective * r.n for r in result.reports]
    excess = [s - c_inf for s in scaled]
    n_excess = [r.n * e for r, e in zip(result.reports, excess)]
    ratio_ok = (all(e > 0.0 for e in excess)
                and all(a > b for a, b in zip(scaled, scaled[1:]))
                and all(a >= b for a, b in zip(n_excess, n_excess[1:])))
    ok = decreasing and bounded and identity_ok and search_ok and ratio_ok
    _report(9, ok,
            f"gaps={[f'{g:.3e}' for g in gaps]} decreasing={decreasing}, "
            f"fitted C={c_fit:.4f} bound ok={bounded}; hom = sum over "
            f"{len(quotients)} independent partitions of inj(F/P) ok={identity_ok}, "
            f"= backtracking ok={search_ok}; "
            f"C_inf={c_inf:.4f}, (hom/inj-1)*n={[f'{s:.3f}' for s in scaled]}, "
            f"excess over C_inf={[f'{e:.3f}' for e in excess]}, "
            f"n*excess={[f'{e:.1f}' for e in n_excess]} -> {ratio_ok}")


def test_criterion_10_lp_duality():
    eps_values = (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2))
    graphs = list(enumerate_connected_graphs(6))
    for g in graphs:
        for eps in eps_values:
            rep = duality_check(g, eps)
            want = g.n - eps * (g.n - fractional_independence_number(g))
            if not (rep.primal == rep.dual == rep.formula == want):
                _report(10, False, f"mismatch on {write_graph6(g)} at eps={eps}")
    _report(10, True, f"primal = dual = v - eps(v - alpha*) exactly on "
                      f"{len(graphs)} connected graphs x {len(eps_values)} eps values")


def test_criterion_11_counterexample_census(g6):
    at_five = search_counterexamples(5)
    at_six = search_counterexamples(6)
    ok = at_five == [] and any(are_isomorphic(g, g6) for g in at_six)
    _report(11, ok, f"none on <= 5 vertices ({len(at_five)}), "
                    f"{len(at_six)} on <= 6 including the 6-vertex builtin")


def test_criterion_12_sweep_anchors(g6):
    results = {}
    results["K3"] = classify_type(complete_graph(3))
    results["P3"] = classify_type(path_graph(3))
    results["P2"] = classify_type(path_graph(2), tol=1e-8)
    results["P4"] = classify_type(path_graph(4))
    for k in (2, 3, 4):
        results[f"star{k}"] = classify_type(star_graph(k))
    checks = {
        "K3 type K": results["K3"].pattern == "K",
        "P3 type K": results["P3"].pattern == "K",
        "P2 type SK": results["P2"].pattern == "SK",
        "P2 gamma 1/2": abs(results["P2"].gamma - 0.5) <= 1e-6,
        "P4 type SK": results["P4"].pattern == "SK",
        "P4 gamma": abs(results["P4"].gamma - 0.0865) <= 5e-4,
        "stars SK": all(results[f"star{k}"].pattern == "SK" for k in (2, 3, 4)),
        "all end in K": all(r.pattern.endswith("K") for r in results.values()),
    }
    ok = all(checks.values())
    detail = "; ".join(f"{name}={'ok' if good else 'BAD'}"
                       for name, good in checks.items())
    _report(12, ok, detail)


def test_criterion_13_property_suite(g6):
    # class-fraction identities at one million random points
    rng = np.random.default_rng(1331)
    betas = rng.uniform(0.0, 1.0, 1_000_000)
    qs = rng.uniform(0.0, 1.0, 1_000_000)
    x = betas * (1.0 - qs * qs)
    s = np.sqrt(1.0 - x)
    y = np.sqrt(betas) * qs
    r = x / (1.0 + s)
    b = (1.0 - betas) / (s + y)
    sum_err = np.abs(y + r + b - 1.0).max()
    edge_err = np.abs(y * y + r * r + 2.0 * r * (y + b) - betas).max()
    fractions_ok = sum_err <= 1e-12 and edge_err <= 1e-12
    # the scalar route agrees with the vectorised formulas
    from copymax.density import _fractions
    for i in rng.integers(0, 1_000_000, 500):
        assert _fractions(float(betas[i]), float(qs[i])) == (y[i], r[i], b[i])

    # graph6 round-trips: every class on <= 5 vertices plus random graphs
    roundtrip_ok = True
    for n in range(2, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_edge_mask(n, mask)
            if parse_graph6(write_graph6(g)) != g:
                roundtrip_ok = False
    pyrng = random.Random(77)
    for _ in range(200):
        n = pyrng.randint(1, 16)
        edges = [e for e in itertools.combinations(range(n), 2)
                 if pyrng.random() < 0.5]
        g = Graph(n, edges)
        if parse_graph6(write_graph6(g)) != g:
            roundtrip_ok = False

    # embedding counts divisible by the automorphism count
    divisible_ok = True
    host = three_class_graph(*class_sizes(24, 0.4, 0.5))
    for pat in (complete_graph(2), path_graph(2), path_graph(4), star_graph(3), g6):
        if injective_count(pat, host) % automorphism_count(pat):
            divisible_ok = False

    # maximum-independent-set bound at alpha = v/2 on the small census
    cr_ok = True
    for g in enumerate_connected_graphs(5):
        sp = spectrum(g)
        if 2 * sp.alpha == g.n and sp.max_independent_sets > 2 ** (g.n // 2):
            cr_ok = False

    ok = fractions_ok and roundtrip_ok and divisible_ok and cr_ok
    _report(13, ok,
            f"fraction identities max err (sum {sum_err:.2e}, edge {edge_err:.2e}) "
            f"at 1e6 points; graph6 round-trips ok={roundtrip_ok}; "
            f"|Aut| divisibility ok={divisible_ok}; "
            f"half-alpha independent-set bound ok={cr_ok}")
