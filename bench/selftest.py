"""Self-test of the benchmark harness; takes a few seconds.

    python3 bench/selftest.py

Runs a tiny pool through the same spawn-and-check path as run.py and shows
that the reference check accepts the committed references, rejects
deliberately altered ones (an integer, a Fraction, a float beyond the
tolerance, a graph6 string, an exit code), accepts a float moved within
the tolerance, counts a hang as a timed-out failure, and that a traced
run gives the same output plus spans and counters.  Exits 1 on a failure.
"""

from __future__ import annotations

import sys

from check import REL_TOL, check, compare
from run import CLI, REFERENCES, Pass, add_trace, spawn
from workloads import slug

LP = ("lp", "--builtin", "K8", "--epsilon", "1")
CROSSOVER = ("crossover", "--builtin", "G6", "--q1", "1", "--q2", "1/sqrt2")
HANG = ("ex", "--builtin", "K3", "--n", "8", "--e", "10")   # _graph_classes(8)

failures = []


def expect(label, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    if not ok:
        failures.append(label)


def altered(text, old, new):
    assert old in text, old
    return text.replace(old, new, 1)


def main():
    lp_ref = (REFERENCES / slug(LP)).read_text()
    cross_ref = (REFERENCES / slug(CROSSOVER)).read_text()
    lp = spawn([*CLI, *LP], 60)
    cross = spawn([*CLI, *CROSSOVER], 60)

    expect("lp output matches its reference", check(lp.code, lp.stdout, lp_ref) is None)
    expect("crossover output matches its reference",
           check(cross.code, cross.stdout, cross_ref) is None)
    expect("altered Fraction is rejected",
           compare(lp.stdout, altered(lp_ref, '"x1": "1/2"', '"x1": "1/3"')) is not None)
    expect("altered integer is rejected",
           compare(lp.stdout, altered(lp_ref, '"primal": "4"', '"primal": "5"')) is not None)
    expect("altered graph6 string is rejected",
           compare(cross.stdout, altered(cross_ref, '"ExCO"', '"ExCP"')) is not None)
    expect(f"float moved by more than rel_tol {REL_TOL} is rejected",
           compare(cross.stdout, altered(cross_ref, "0.0161349614348", "0.0161349624348"))
           is not None)
    expect(f"float moved within rel_tol {REL_TOL} is accepted",
           compare(cross.stdout, altered(cross_ref, "0.0161349614348", "0.0161349614349"))
           is None)
    expect("wrong exit code is rejected", check(2, lp.stdout, lp_ref) is not None)

    hang = spawn([*CLI, *HANG], 1.0)
    expect("a hang is killed at the timeout and counted as a failure",
           hang.code is None and check(hang.code, hang.stdout, "") == "timed out")

    traced = spawn(LP, 60, trace=True)
    expect("traced output matches the reference",
           check(traced.code, traced.stdout, lp_ref) is None)
    p = Pass(traced=True)
    if traced.trace is not None:
        add_trace(p, 0, traced.trace)
    expect("trace counts two LP solves and gives lp self time",
           p.calls["lp.solve_lp"] == 2 and p.self_s["lp"] > 0)
    expect("layer self times add up to the CLI's main()",
           traced.trace is not None and abs(sum(p.self_s.values()) -
               (traced.trace["cli"][1] - traced.trace["cli"][0])) < 1e-6)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
