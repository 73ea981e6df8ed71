"""Command-line surface emitting reproducible CSV/JSON artifacts.

This is the only module that turns results into text: the numeric layers
return plain records (dataclasses, tuples of them, Fractions, ints and
floats), and each subcommand below builds its own CSV rows or JSON dict
from them, labels included.  Identical invocations produce byte-identical
output: CSV floats are printed with 12 significant digits and all
iteration orders are deterministic.
Exit codes: 0 success, 2 invalid input, 3 counting budget exceeded (the
backtracking search of ``ex --budget``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

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


def _csv(header, rows):
    """CSV text: a float field through _fmt, None as an empty field, any
    other field as str."""
    lines = [header]
    lines += [",".join("" if x is None else _fmt(x) if isinstance(x, float) else str(x)
                       for x in row) for row in rows]
    return "\n".join(lines) + "\n"


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
    import numpy as np

    return [float(b) for b in np.linspace(lo, hi, steps)]


def _split_two(text, sep, form):
    parts = text.split(sep)
    if len(parts) != 2:
        raise ValueError(f"{form}, got {text!r}")
    return parts


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
    a, b = _split_two(args.family, ",", "family must be a,b")
    return clique_with_pendant_star(int(a), int(b))


def _json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns its output text

def cmd_analyze(args):
    g = _load_graph(args)
    # before the census, so a graph over both size limits reports the
    # automorphism limit
    automorphisms = hosts.automorphism_count(g)
    spec = weightings.spectrum(g)
    q = 1.0 / math.sqrt(2.0)    # the interior constant is reported at 1/sqrt2
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
        "spectrum": {
            "v": spec.v,
            "alpha": spec.alpha,
            "alpha_star": str(spec.alpha_star),
            "entries": [{"r": r, "y": y, "b": b, "mult": m}
                        for (r, y, b), m in spec.entries],
        },
    }
    return _json_text(out)


def cmd_profile(args):
    g = _load_graph(args)
    spec = weightings.spectrum(g)
    betas = (_parse_beta_range(args.beta) if args.beta is not None
             else cls.default_beta_grid())
    return _csv("beta,f_T,q_star,t_S,t_K,winner",
                ((s.beta, s.f_T, s.q_star, s.t_star, s.t_clique, s.winner)
                 for s in density.density_curve(spec, betas)))


def cmd_crossover(args):
    g = _load_graph(args)
    spec = weightings.spectrum(g)
    q1, q2 = _parse_q(args.q1), _parse_q(args.q2)
    if args.bracket is not None:
        lo, hi = _split_two(args.bracket, ":", "bracket must be lo:hi")
        bracket = float(lo), float(hi)
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
    return _json_text(out)


def _gamma_delta(boundaries):
    """The first two winner changes, (beta, bracket) each, as the printed
    gamma and delta; (None, None) where the winner changes fewer times."""
    return (*boundaries, (None, None), (None, None))[:2]


def cmd_classify(args):
    g = _load_graph(args)
    c = cls.classify_type(g, tol=args.tol)
    (gamma, gamma_bracket), (delta, delta_bracket) = _gamma_delta(c.boundaries)
    out = {
        "graph6": c.graph_id,
        "pattern": c.pattern,
        "gamma": gamma,
        "delta": delta,
        "gamma_bracket": list(gamma_bracket) if gamma_bracket else None,
        "delta_bracket": list(delta_bracket) if delta_bracket else None,
        "samples": [{"beta": s.beta, "winner": s.winner, "q_star": s.q_star}
                    for s in c.samples],
    }
    return _json_text(out)


def cmd_classify_all(args):
    rows = []
    for r in cls.sweep_connected_graphs(args.max_v):
        c, spec = r.classification, r.spectrum
        (gamma, _), (delta, _) = _gamma_delta(c.boundaries)
        rows.append((c.graph_id, r.graph.n, r.graph.edge_count, spec.alpha,
                     spec.alpha_star, spec.max_independent_sets, c.pattern,
                     gamma, delta))
    return _csv("graph6,v,e,alpha,alpha_star,A,pattern,gamma,delta", rows)


def cmd_oracle(args):
    g = _load_graph(args)
    q, n_list = _parse_q(args.q), _parse_n_list(args.n_list)
    return _csv("n,beta,q,hom,injective,copies,normalised,t_reference,gap",
                ((r.n, r.beta, r.q, r.hom, r.injective, r.copies, r.normalised,
                  r.t_reference, r.gap)
                 for r in hosts.convergence_report(g, args.beta, q, n_list)))


def cmd_search(args):
    graphs = [{
        "graph6": write_graph6(g),
        "v": g.n,
        "e": g.edge_count,
        "alpha": spec.alpha,
        "alpha_star": str(spec.alpha_star),
    } for g, spec in cls._counterexamples(args.max_v)]
    return _json_text({"max_v": args.max_v, "count": len(graphs), "graphs": graphs})


def cmd_lp(args):
    g = _load_graph(args)
    rep = lp.duality_check(g, args.epsilon)
    out = {
        "primal": str(rep.primal),
        "dual": str(rep.dual),
        "formula": str(rep.formula),
        "witness_x": {f"x{u + 1}": str(x) for u, x in enumerate(rep.x)},
        "witness_yz": {
            "y": {f"{a + 1}-{b + 1}": str(y) for (a, b), y in zip(g.edges, rep.y)},
            "z": {f"{u + 1}": str(z) for u, z in enumerate(rep.z)},
        },
    }
    return _json_text(out)


def cmd_ex(args):
    pattern = _load_graph(args)
    best, host = cls.exhaustive_ex(args.n, args.e, pattern, budget=args.budget)
    out = {
        "n": args.n,
        "e": args.e,
        "pattern_graph6": write_graph6(pattern),
        "maximum": best,
        "maximiser_graph6": write_graph6(host),
    }
    return _json_text(out)


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="copymax",
        description="Subgraph-copy maximisation toolkit: weighting censuses, "
                    "host-family densities, LP duality, counting oracles and "
                    "type classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, graph=True):
        p = sub.add_parser(name, help=summary)
        if graph:
            p.add_argument("--graph", help="edge list '1-2,2-3,...' or 'g6:<graph6>'")
            p.add_argument("--builtin", help="named graph: P2/P3/P4/G6/K<k>/C<k>/star<k>")
            p.add_argument("--family", metavar="a,b",
                           help="clique-with-pendant-star family parameters")
        p.add_argument("--out", metavar="FILE", help="write the output here, not to stdout")
        p.set_defaults(handler=handler)
        return p

    command("analyze", cmd_analyze, "invariants, weighting census and limit constants")

    p = command("profile", cmd_profile, "density curve CSV over a beta grid")
    p.add_argument("--beta", metavar="lo:hi:steps", help="linear beta grid")

    p = command("crossover", cmd_crossover, "bisect the density crossover of two q values")
    p.add_argument("--q1", required=True)
    p.add_argument("--q2", required=True)
    p.add_argument("--bracket", metavar="lo:hi")
    p.add_argument("--tol", type=float, default=density.BETA_TOL)

    p = command("classify", cmd_classify, "S/T/K type pattern of one graph")
    p.add_argument("--tol", type=float, default=density.BETA_TOL)

    p = command("classify-all", cmd_classify_all, "sweep all connected graphs up to max-v",
                graph=False)
    p.add_argument("--max-v", type=int, default=5, dest="max_v")

    p = command("oracle", cmd_oracle, "exact counts vs the limit density")
    p.add_argument("--beta", type=float, default=0.2)
    p.add_argument("--q", default="1/sqrt2")
    p.add_argument("--n-list", dest="n_list", metavar="30,60,120", default="30,60")

    p = command("search", cmd_search, "graphs where an interior host must win at small beta",
                graph=False)
    p.add_argument("--max-v", type=int, default=6, dest="max_v")

    p = command("lp", cmd_lp, "exact primal/dual duality report")
    p.add_argument("--epsilon", default="1/10", help="rational, e.g. 1/10")

    p = command("ex", cmd_ex, "exact extremal copy count at tiny scale")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--budget", type=int, default=hosts.DEFAULT_BUDGET,
                   help="search nodes allowed per host count")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        text = args.handler(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except hosts.CountBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
