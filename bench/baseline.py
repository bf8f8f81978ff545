"""Reproduce ROADMAP's baseline rows: one untraced DP solve per (K, n), seed 3.

    python3 bench/baseline.py

Each row draws n jobs (randint(0,4), randint(1,4), randint(1,4)) from
Random(3), perturbs release times with eps=1, builds
reduction_grid(T, K, 3) and times ``DpSolver(cov).solve()`` with
validation on, and counts the memo's (0, ()) and infeasible entries.
The draw is the one instance 0 of a solve run with seed 3 gets.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from random import Random

from worker import load_program, selection_digest

SEED = 3
ROWS = ((2, 12), (3, 8))  # (K, n)


def main() -> int:
    m = load_program()
    for K, n in ROWS:
        rng = Random(SEED)
        triples = [(rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 4)) for _ in range(n)]
        work = m["jobs"].perturb_release_times(m["jobs"].make_instance(triples), 1)
        T = m["jobs"].total_horizon(work)
        cov = m["covering"].build_covering(work, m["oracle"].reduction_grid(T, K, SEED))
        solver = m["dpsolver"].DpSolver(cov)
        t0 = time.perf_counter()
        res = solver.solve()
        wall = time.perf_counter() - t0
        memo = list(solver.memo.values())
        print(json.dumps({
            "K": K,
            "n": n,
            "seed": SEED,
            "T": T,
            "cost": res.cost,
            "selection_digest": selection_digest(res.selection.sorted_ids()),
            "states": res.stats.states,
            "memo_zero": sum(1 for e in memo if e == (0, ())),
            "memo_infeasible": sum(1 for e in memo if e is None),
            "dp_wall_s": round(wall, 3),
            "peak_rss_mb_so_far": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
