"""Write the reference output of every invocation in every workload pool.

    python3 bench/make_references.py

References are taken once, at the commit that defines the benchmark; every
pool entry must exit 0.  Re-running this after a change to the CLI would
hide that change from the reference check, so only do it when a change
deliberately alters output, and say so in that change.
"""

from __future__ import annotations

import sys

from run import CLI, REFERENCES, TIMEOUT_S, spawn
from workloads import WORKLOADS, slug


def main():
    invocations = sorted({inv for w in WORKLOADS.values() for inv in w.every_invocation()})
    names = {slug(inv) for inv in invocations}
    if len(names) != len(invocations):
        raise SystemExit("two invocations share a reference file name")
    REFERENCES.mkdir(exist_ok=True)
    for inv in invocations:
        out = spawn([*CLI, *inv], TIMEOUT_S)
        if out.code != 0:
            raise SystemExit(f"{' '.join(inv)} exited {out.code}: {out.stderr}")
        (REFERENCES / slug(inv)).write_text(out.stdout)
        print(f"{out.wall_s:7.2f} s  {' '.join(inv)}", flush=True)
    stale = {p.name for p in REFERENCES.glob("*.out")} - names
    for name in sorted(stale):
        print(f"stale reference not in any pool: {name}", file=sys.stderr)


if __name__ == "__main__":
    main()
