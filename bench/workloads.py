"""The benchmark's workloads: CLI invocations of copymax, grouped so that
each workload puts one or two layers' work in front.

Every workload has fixed entries, which every seed runs, and seeded
entries, which the seed draws from pools.  Members of one pool cost about
the same (measured at the commit that added the benchmark), so a pass
costs about the same whichever seed drew it, and a seed held out while a
change was written can still confirm its claim.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

DEFAULT_SEED = 0
SQRT = "1/sqrt2"


@dataclass(frozen=True)
class Workload:
    why: str
    fixed: tuple            # invocations every seed runs
    pools: tuple            # (how many to draw, candidate invocations)

    def invocations(self, seed: int) -> list:
        rng = random.Random(seed)
        out = list(self.fixed)
        for k, pool in self.pools:
            out += rng.sample(pool, k)
        return out

    def every_invocation(self) -> list:
        return list(self.fixed) + [inv for _, pool in self.pools for inv in pool]


def _inv(text: str) -> tuple:
    return tuple(text.split())


WORKLOADS = {
    # The paper's type census.  density is nearly all of the time here,
    # hosts and lp do no work and graphs almost none, so a faster density
    # engine or a single weighting census shows on this workload alone.
    "sweep": Workload(
        why="S/T/K type census: density-layer sweeps (classify-all, profile, "
            "crossover, classify); hosts and lp idle",
        fixed=tuple(_inv(t) for t in (
            "classify-all --max-v 5",
            "profile --builtin G6",
            f"crossover --builtin G6 --q1 1 --q2 {SQRT}",
            "analyze --builtin G6",
        )),
        pools=((3, tuple(_inv(t) for t in (
            "classify --builtin G6",
            "classify --family 4,2",
            "classify --builtin C6",
            "classify --builtin C7",
            "classify --builtin C8",
            "classify --builtin P6",
            "classify --builtin star5",
        ))),),
    ),
    # Criterion 9's finite-host validation: backtracking counts on a few
    # large three-class hosts, nearly all of the time in hosts.
    "oracle": Workload(
        why="finite three-class host oracle: hosts-layer backtracking counts "
            "on a few large hosts",
        fixed=(_inv(f"oracle --builtin G6 --beta 0.2 --q {SQRT} --n-list 30,60,90"),),
        pools=((1, tuple(_inv(t) for t in (
            f"oracle --builtin P4 --beta 0.2 --q {SQRT} --n-list 60,120,240",
            "oracle --builtin P4 --beta 0.3 --q 0.5 --n-list 50,100,195",
            f"oracle --builtin C4 --beta 0.2 --q {SQRT} --n-list 100,200,320",
            f"oracle --builtin C5 --beta 0.2 --q {SQRT} --n-list 30,60,108",
            "oracle --builtin star3 --beta 0.2 --q 0.5 --n-list 400,800,2100",
            "oracle --builtin G6 --beta 0.1 --q 0.5 --n-list 30,60,140",
        ))),),
    ),
    # Isomorph-free enumeration (graphs), the weighting census (C16 has
    # 422,266 weightings) and the exact simplex.  hosts runs here the other
    # way round from oracle: over ~100 tiny arbitrary hosts, so a shortcut
    # for three-class hosts must leave this workload unchanged.
    "exact": Workload(
        why="exact routes: class enumeration (search, ex), weighting census "
            "and Fraction simplex (lp); hosts only on tiny hosts",
        fixed=tuple(_inv(t) for t in (
            "search --max-v 7",
            "lp --builtin C16 --epsilon 1/10",
        )),
        pools=(
            (1, tuple(_inv(t) for t in (
                "ex --builtin G6 --n 7 --e 12",
                "ex --builtin P4 --n 7 --e 10",
                "ex --builtin K3 --n 7 --e 9",
                "ex --builtin C4 --n 7 --e 11",
                "ex --builtin star3 --n 7 --e 8",
                "ex --builtin C5 --n 7 --e 12",
                "ex --builtin P5 --n 7 --e 11",
            ))),
            (2, tuple(_inv(t) for t in (
                "lp --builtin K8 --epsilon 1",
                "lp --family 5,4 --epsilon 1/7",
                "lp --builtin C10 --epsilon 1/3",
                "lp --builtin P6 --epsilon 1/2",
                "lp --builtin G6 --epsilon 1/10",
                "lp --builtin C9 --epsilon 1/5",
                "lp --builtin star6 --epsilon 1/4",
                "lp --family 4,3 --epsilon 2/3",
            ))),
        ),
    ),
}


def slug(inv) -> str:
    """File name of an invocation's reference output."""
    return re.sub(r"[^A-Za-z0-9.]+", "-", " ".join(inv)).strip("-") + ".out"
