"""Compare two sets of benchmark results, one row per (workload, metric).

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records `run.py --out FILE` appends, one per run.
Runs are paired by workload and seed, in file order.  A row shows each
side's median, quartiles and run count, the fraction of pairs the change
wins (ties excluded) and a verdict under BENCHMARK.json's bounds:

  improved    the change wins at least 9 pairs in 10 and the medians differ
              by more than the parent's own quartile spread
  worse       the change's median is worse than the parent's by more than
              the bound (fail_rate: by anything; per-layer metrics, which
              have no bound: the improved rule with the sides swapped)
  unresolved  neither, and the parent's quartile spread exceeds the bound,
              unless every change run beats every parent run
  unchanged   otherwise

Rows are never combined into a single score.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{(workload, metric): {seed: [values in file order]}}, units."""
    runs, units = defaultdict(lambda: defaultdict(list)), {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        r = json.loads(line)
        values = {k: (m["value"], m["unit"]) for k, m in r["metrics"].items()}
        values["fail_rate"] = (r["fail_rate"], "1")
        for name, (value, unit) in values.items():
            runs[(r["workload"], name)][r["seed"]].append(value)
            units[name] = unit
    return runs, units


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, pairs, lower_better, bound):
    sign = 1 if lower_better else -1          # > 0: the change is better
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gains = [sign * (p - c) for p, c in pairs]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    win = wins / (wins + losses) if wins + losses else None
    if win is not None and win >= 0.9 and sign * (pm - cm) > q3 - q1:
        return win, "improved"
    if bound is None:
        if win is not None and win <= 0.1 and sign * (cm - pm) > q3 - q1:
            return win, "worse"
        return win, "unchanged"
    if sign * (cm - pm) > bound * abs(pm):
        return win, "worse"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if pm and (q3 - q1) / abs(pm) > bound and not all_better:
        return win, "unresolved"
    return win, "unchanged"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds["fail_rate"] = 0.0
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    better["fail_rate"] = "lower"
    parent, units = load(argv[0])
    change, change_units = load(argv[1])
    units.update(change_units)
    print(f"{'workload':8s} {'metric':24s} {'unit':6s} "
          f"{'parent median [q1, q3] n':36s} {'change median [q1, q3] n':36s} "
          f"{'win':>5s}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        if name not in better:
            continue
        p_runs, c_runs = parent[key], change[key]
        p = [v for vs in p_runs.values() for v in vs]
        c = [v for vs in c_runs.values() for v in vs]
        pairs = [pair for seed in p_runs.keys() & c_runs.keys()
                 for pair in zip(p_runs[seed], c_runs[seed])]
        win, word = verdict(p, c, pairs, better[name] == "lower", bounds.get(name))
        cells = []
        for values in (p, c):
            q1, q3 = quartiles(values)
            cells.append(f"{statistics.median(values):.6g} "
                         f"[{q1:.6g}, {q3:.6g}] n={len(values)}")
        win_text = "-" if win is None else f"{win:.2f}"
        print(f"{workload:8s} {name:24s} {units[name]:6s} {cells[0]:36s} "
              f"{cells[1]:36s} {win_text:>5s}  {word}")


if __name__ == "__main__":
    main()
