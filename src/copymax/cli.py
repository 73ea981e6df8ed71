"""Command-line surface emitting reproducible CSV/JSON artifacts.

Identical invocations produce byte-identical output: floats are printed
with 12 significant digits and all iteration orders are deterministic.
Exit codes: 0 success, 2 invalid input, 3 counting budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import classify as cls
from . import density, hosts, lp, weightings
from .graphs import (
    builtin_graph,
    clique_with_pendant_star,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)


def _fmt(x):
    return f"{x:.12g}"


def _parse_q(text):
    if text.strip().lower() in ("1/sqrt2", "1/sqrt(2)"):
        return 1.0 / math.sqrt(2.0)
    q = float(text)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {text!r}")
    return q


def _parse_beta_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"beta range must be lo:hi:steps, got {text!r}")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 2 or not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"bad beta range {text!r}")
    return [float(b) for b in np.linspace(lo, hi, steps)]


def _parse_n_list(text):
    ns = [int(tok) for tok in text.split(",") if tok.strip()]
    if not ns:
        raise ValueError("empty n list")
    return ns


def _load_graph(args):
    sources = [s for s in (args.graph, args.builtin, args.family) if s is not None]
    if len(sources) != 1:
        raise ValueError("give exactly one graph source "
                         "(--graph, --builtin or --family)")
    if args.graph is not None:
        if args.graph.startswith("g6:"):
            return parse_graph6(args.graph[3:])
        return parse_edge_list(args.graph)
    if args.builtin is not None:
        return builtin_graph(args.builtin)
    a, b = (int(x) for x in args.family.split(","))
    return clique_with_pendant_star(a, b)


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args):
    g = _load_graph(args)
    # before the census, so a graph over both size limits reports the
    # automorphism limit
    automorphisms = hosts.automorphism_count(g)
    spec = weightings.spectrum(g)
    q = _parse_q(args.q) if args.q is not None else 1.0 / math.sqrt(2.0)
    out = {
        "graph6": write_graph6(g),
        "vertices": g.n,
        "edges": g.edge_count,
        "alpha": spec.alpha,
        "alpha_star": str(spec.alpha_star),
        "alpha_star_float": float(spec.alpha_star),
        "max_independent_sets": spec.max_independent_sets,
        "independent_set_counts": list(spec.independent_counts),
        "automorphisms": automorphisms,
        "weightings": spec.total_weightings,
        "maximiser_counts": list(spec.maximiser_counts),
        "star_limit_constant": str(spec.star_limit_constant()),
        "interior_limit_constant_at_q": {
            "q": q,
            "value": float(spec.interior_limit_constant(q)),
        },
        "spectrum": spec.to_json_dict(),
    }
    _emit(_json_text(out), args.out)
    return 0


def cmd_profile(args):
    g = _load_graph(args)
    spec = weightings.spectrum(g)
    betas = _parse_beta_range(args.beta) if args.beta else cls.default_beta_grid()
    curve = density.density_curve(spec, betas, q_grid=args.grid,
                                  graph_id=write_graph6(g))
    _emit(curve.to_csv(), args.out)
    return 0


def cmd_crossover(args):
    g = _load_graph(args)
    spec = weightings.spectrum(g)
    q1, q2 = _parse_q(args.q1), _parse_q(args.q2)
    if args.bracket:
        lo, hi = (float(x) for x in args.bracket.split(":"))
        bracket = (lo, hi)
    else:
        bracket = density.crossover_bracket(spec, q1, q2)
    root = density.crossover_beta(spec, q1, q2, bracket, tol=args.tol)
    out = {
        "graph6": write_graph6(g),
        "q1": q1,
        "q2": q2,
        "bracket": [bracket[0], bracket[1]],
        "tol": args.tol,
        "beta": _fmt(root),
    }
    _emit(_json_text(out), args.out)
    return 0


def cmd_classify(args):
    g = _load_graph(args)
    res = cls.classify_type(g, q_grid=args.grid, tol=args.tol)
    _emit(_json_text(res.to_json_dict()), args.out)
    return 0


def cmd_classify_all(args):
    rows = cls.sweep_connected_graphs(args.max_v, q_grid=args.grid, tol=args.tol)
    _emit(cls.sweep_to_csv(rows), args.out)
    return 0


def cmd_oracle(args):
    g = _load_graph(args)
    q = _parse_q(args.q) if args.q else 1.0 / math.sqrt(2.0)
    beta = float(args.beta) if args.beta else 0.2
    n_list = _parse_n_list(args.n_list) if args.n_list else [30, 60]
    result = hosts.convergence_report(g, beta, q, n_list, budget=args.budget)
    _emit(result.to_csv(), args.out)
    return 0


def cmd_search(args):
    found = cls.search_counterexamples(args.max_v)
    graphs = []
    for g in found:
        spec = weightings.spectrum(g)
        graphs.append({
            "graph6": write_graph6(g),
            "v": g.n,
            "e": g.edge_count,
            "alpha": spec.alpha,
            "alpha_star": str(spec.alpha_star),
        })
    out = {"max_v": args.max_v, "count": len(found), "graphs": graphs}
    _emit(_json_text(out), args.out)
    return 0


def cmd_lp(args):
    g = _load_graph(args)
    eps = Fraction(args.epsilon)
    report = lp.duality_check(g, eps)
    _emit(_json_text(report.to_json_dict()), args.out)
    return 0


def cmd_ex(args):
    pattern = _load_graph(args)
    best, host = cls.exhaustive_ex(args.n, args.e, pattern)
    out = {
        "n": args.n,
        "e": args.e,
        "pattern_graph6": write_graph6(pattern),
        "maximum": best,
        "maximiser_graph6": write_graph6(host),
    }
    _emit(_json_text(out), args.out)
    return 0


# ---------------------------------------------------------------------------

def _add_graph_source(p):
    p.add_argument("--graph", help="edge list '1-2,2-3,...' or 'g6:<graph6>'")
    p.add_argument("--builtin", help="named graph: P2/P3/P4/G6/K<k>/C<k>/star<k>")
    p.add_argument("--family", metavar="a,b",
                   help="clique-with-pendant-star family parameters")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="copymax",
        description="Subgraph-copy maximisation toolkit: weighting censuses, "
                    "host-family densities, LP duality, counting oracles and "
                    "type classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="invariants, weighting census and limit constants")
    _add_graph_source(p)
    p.add_argument("--q", help="q for the interior limit constant (default 1/sqrt2)")
    p.add_argument("--out")

    p = sub.add_parser("profile", help="density curve CSV over a beta grid")
    _add_graph_source(p)
    p.add_argument("--beta", metavar="lo:hi:steps", help="linear beta grid")
    p.add_argument("--grid", type=int, default=128, help="q grid size")
    p.add_argument("--out")

    p = sub.add_parser("crossover", help="bisect the density crossover of two q values")
    _add_graph_source(p)
    p.add_argument("--q1", required=True)
    p.add_argument("--q2", required=True)
    p.add_argument("--bracket", metavar="lo:hi")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out")

    p = sub.add_parser("classify", help="S/T/K type pattern of one graph")
    _add_graph_source(p)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out")

    p = sub.add_parser("classify-all", help="sweep all connected graphs up to max-v")
    p.add_argument("--max-v", type=int, default=5, dest="max_v")
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out")

    p = sub.add_parser("oracle", help="exact counts vs the limit density")
    _add_graph_source(p)
    p.add_argument("--beta")
    p.add_argument("--q")
    p.add_argument("--n-list", dest="n_list", metavar="30,60,120")
    p.add_argument("--budget", type=int, default=hosts.DEFAULT_BUDGET)
    p.add_argument("--out")

    p = sub.add_parser("search", help="graphs where an interior host must win at small beta")
    p.add_argument("--max-v", type=int, default=6, dest="max_v")
    p.add_argument("--out")

    p = sub.add_parser("lp", help="exact primal/dual duality report")
    _add_graph_source(p)
    p.add_argument("--epsilon", default="1/10", help="rational, e.g. 1/10")
    p.add_argument("--out")

    p = sub.add_parser("ex", help="exact extremal copy count at tiny scale")
    _add_graph_source(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--out")

    return parser


_HANDLERS = {
    "analyze": cmd_analyze,
    "profile": cmd_profile,
    "crossover": cmd_crossover,
    "classify": cmd_classify,
    "classify-all": cmd_classify_all,
    "oracle": cmd_oracle,
    "search": cmd_search,
    "lp": cmd_lp,
    "ex": cmd_ex,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except hosts.CountBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
