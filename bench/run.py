"""copymax benchmark: CLI invocations in fresh interpreters, closed loop.

    python3 bench/run.py --workload sweep --seed 0 --seconds 40 --trace 0

One client: each `python -m copymax.cli ...` starts only after the previous
one has exited, with BLAS/OpenMP threads pinned to 1, so at most two busy
processes (this one and the child) share the CPUs.  Fresh processes matter:
the CLI's in-process caches (e.g. graph classes) would otherwise hide work
every CLI user pays.  A pass runs the workload's invocations once, checking
each output against its reference; passes repeat while the next one is
expected to end within --seconds.

--trace 0 reports the end-to-end metrics: wall_s (median pass time),
setup_s (median time for a fresh interpreter to import copymax.cli) and
peak_rss_mb (median over passes of the largest child ru_maxrss).
--trace 1 alternates untraced passes with passes run through tracer.py and
reports the per-layer metrics.  The last line of output is one JSON object;
the lines before it are the same figures with quartiles and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from check import check
from tracer import LAYERS
from workloads import DEFAULT_SEED, WORKLOADS, slug

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references"

TIMEOUT_S = 60.0          # one invocation; a hang becomes a counted failure
RUN_LIMIT_S = 170.0       # per workload: no invocation runs past this
SETUP_SAMPLES = 7
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONPATH": str(SRC)}
CLI = ("-m", "copymax.cli")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS + ("cli",)},
    "density.profile_calls": "count",
    "density.t_evals": "count",
    "density.t_evals_per_s": "1/s",
    "classify.calls": "count",
    "hosts.count_calls": "count",
    "hosts.maps": "count",
    "hosts.host_vertices": "count",
    "graphs.graphs_built": "count",
    "graphs.graphs_per_s": "1/s",
    "weightings.weightings": "count",
    "weightings.per_s": "1/s",
    "lp.solves": "count",
    "lp.vars": "count",
    "proc.cpu_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Outcome:
    code: int | None          # None: killed at the timeout
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    trace: dict | None = None


def spawn(args, timeout, trace=False) -> Outcome:
    """Run one child to completion (or kill it at the timeout) and read its
    resource usage with wait4."""
    env = {**os.environ, **CHILD_ENV}
    pass_fds, reader = (), None
    if trace:
        read_fd, write_fd = os.pipe()
        pass_fds = (write_fd,)
        args = [str(BENCH / "tracer.py"), str(write_fd), *args]
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, pass_fds=pass_fds)
    if trace:
        os.close(write_fd)
        reader = os.fdopen(read_fd, "rb")
    chunks = {f: [] for f in (proc.stdout, proc.stderr, reader) if f}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = start + timeout - time.perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for f in chunks:
        f.close()
    text = {f: b"".join(c).decode("utf-8", "replace") for f, c in chunks.items()}
    traced = None
    if reader is not None and not timed_out:
        try:
            traced = json.loads(text[reader])
        except ValueError:       # the child died before writing it
            pass
    return Outcome(
        code=None if timed_out else proc.returncode,
        stdout=text[proc.stdout], stderr=text[proc.stderr], wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0, trace=traced)


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    times: list = field(default_factory=list)
    complete: bool = True
    self_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    spans: list = field(default_factory=list)


def add_trace(p: Pass, invocation: int, trace: dict):
    """Fold one child's spans into the pass: a span's self time is its
    duration minus its direct children's; the CLI's self time is the
    remainder of main()."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    cli_children = 0.0
    for _, parent, start, end in spans:
        if parent < 0:
            cli_children += end - start
        else:
            child[parent] += end - start
    for i, (name, parent, start, end) in enumerate(spans):
        p.self_s[name.split(".")[0]] += end - start - child[i]
        p.spans.append([invocation, name, parent, start, end])
    start, end = trace["cli"]
    p.self_s["cli"] += end - start - cli_children
    p.calls.update(trace["calls"])
    p.counts.update(trace["counts"])


def run_pass(invocations, references, traced, deadline) -> Pass:
    p = Pass(traced)
    for i, inv in enumerate(invocations):
        left = deadline - time.perf_counter()
        if left <= 0:
            p.complete = False
            break
        out = spawn(inv if traced else [*CLI, *inv], min(TIMEOUT_S, left), traced)
        p.attempted += 1
        p.wall_s += out.wall_s
        p.times.append(out.wall_s)
        p.cpu_s += out.cpu_s
        p.rss_mb = max(p.rss_mb, out.rss_mb)
        reason = check(out.code, out.stdout, references[inv])
        if reason is None and traced and out.trace is None:
            reason = "no trace written"
        if reason is not None:
            p.failures.append({"invocation": " ".join(inv), "reason": reason,
                               "stderr": out.stderr[-500:]})
        elif traced:
            add_trace(p, i, out.trace)
    return p


def measure_setup() -> list:
    """Fresh-interpreter import times of copymax.cli; one untimed import
    first writes the bytecode cache, which users do not pay per call."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        out = spawn(["-c", "import copymax.cli"], TIMEOUT_S)
        if out.code != 0:
            raise RuntimeError(f"importing copymax.cli failed: {out.stderr.strip()}")
        if i:
            times.append(out.wall_s)
    return times


def ratio(a, b):
    return a / b if b > 0 else 0.0


def layer_metrics(p: Pass) -> dict:
    s, calls, counts = p.self_s, p.calls, p.counts
    m = {f"{layer}.self_s": s[layer] for layer in LAYERS + ("cli",)}
    m["density.profile_calls"] = calls["density.best_t_density"]
    m["density.t_evals"] = calls["density.t_density"] + counts["density.grid_points"]
    m["density.t_evals_per_s"] = ratio(m["density.t_evals"], s["density"])
    m["classify.calls"] = calls["classify.classify_type"]
    m["hosts.count_calls"] = calls["hosts.hom_count"] + calls["hosts.injective_count"]
    m["hosts.maps"] = counts["hosts.maps"]
    m["hosts.host_vertices"] = counts["hosts.host_vertices"]
    m["graphs.graphs_built"] = calls["graphs.graph_from_edge_mask"]
    m["graphs.graphs_per_s"] = ratio(m["graphs.graphs_built"], s["graphs"])
    m["weightings.weightings"] = counts["weightings.weightings"]
    m["weightings.per_s"] = ratio(m["weightings.weightings"], s["weightings"])
    m["lp.solves"] = calls["lp.solve_lp"]
    m["lp.vars"] = counts["lp.vars"]
    return m


def summary(values) -> dict:
    values = sorted(values)
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (values[0], values[0]))
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def metadata_record() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    loc = sum(len(f.read_text().splitlines())
              for f in sorted((SRC / "copymax").glob("*.py")))
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "src.loc": loc}


def run_workload(name, seed, seconds, trace) -> dict:
    run_deadline = time.perf_counter() + RUN_LIMIT_S
    invocations = WORKLOADS[name].invocations(seed)
    references = {inv: (REFERENCES / slug(inv)).read_text() for inv in invocations}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "meta": metadata_record(),
              "loadavg_before": os.getloadavg()}
    setup = measure_setup()
    kinds = (False, True) if trace else (False,)
    passes = []
    start = time.perf_counter()
    while True:
        kind = kinds[len(passes) % len(kinds)]
        p = run_pass(invocations, references, kind, run_deadline)
        passes.append(p)
        if not p.complete or time.perf_counter() >= run_deadline:
            break
        nxt = kinds[len(passes) % len(kinds)]
        if len(passes) >= len(kinds):
            expected = max(q.wall_s for q in passes if q.traced == nxt)
            if time.perf_counter() - start + expected > seconds:
                break
    record["loadavg_after"] = os.getloadavg()

    done = [p for p in passes if p.complete] or passes[:1]
    untraced = [p for p in done if not p.traced] or done
    if trace:
        traced = [p for p in done if p.traced] or untraced
        per_pass = [layer_metrics(p) for p in traced]
        samples = {k: [m[k] for m in per_pass] for k in per_pass[0]}
        samples["proc.cpu_s"] = [p.cpu_s for p in untraced]
        untraced_wall = statistics.median(p.wall_s for p in untraced)
        samples["trace.overhead_s"] = [p.wall_s - untraced_wall for p in traced]
        units = PER_LAYER_UNITS
        record["spans"] = [s for p in traced for s in p.spans]
    else:
        samples = {"wall_s": [p.wall_s for p in untraced], "setup_s": setup,
                   "peak_rss_mb": [p.rss_mb for p in untraced]}
        units = END_TO_END_UNITS
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    record.update(
        correct=not failures and all(p.complete for p in passes),
        attempted=attempted, failed=len(failures),
        fail_rate=ratio(len(failures), attempted), failures=failures[:20],
        passes=len(passes),
        invocations={" ".join(inv): [p.times[i] for p in untraced if i < len(p.times)]
                     for i, inv in enumerate(invocations)},
        metrics={k: {"value": statistics.median(v), "unit": units[k], **summary(v)}
                 for k, v in samples.items()})
    return record


def print_record(r):
    meta = r["meta"]
    print(f"# {r['workload']} seed={r['seed']} trace={r['trace']} "
          f"commit={meta['commit'][:12]} python={meta['python']} "
          f"numpy={meta['numpy']} nproc={meta['nproc']} src.loc={meta['src.loc']} "
          f"loadavg={r['loadavg_before'][0]:.2f}->{r['loadavg_after'][0]:.2f}")
    for name, m in r["metrics"].items():
        print(f"{r['workload']:7s} {name:24s} {m['median']:14.6g} {m['unit']:6s} "
              f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}")
    print(f"{r['workload']:7s} {'fail_rate':24s} {r['fail_rate']:14.6g} {'1':6s} "
          f"failed={r['failed']} attempted={r['attempted']}")
    for f in r["failures"]:
        print(f"  FAILED {f['invocation']}: {f['reason']}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, a comma list, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each result record (JSON line) here")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    if not (SRC / "copymax" / "cli.py").is_file():
        print(f"error: no copymax source under {SRC}", file=sys.stderr)
        return 2

    records = [run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names]
    for r in records:
        print_record(r)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps(r) + "\n")
    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k):
                    {"value": m["value"], "unit": m["unit"]}
                    for r in records for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
