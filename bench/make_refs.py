"""Regenerate ``refs/<workload>.json``: reference cost and selection digest per draw seed.

    python3 bench/make_refs.py

For every workload, solves every draw seed a run can reach (the workload's
pool, see ``worker.py``) and records (cost, digest of the sorted selection
ids), indexed by draw seed.  ``worker.py`` checks every answer of every run
against them.  Generate them only from a commit whose answers are trusted; a
change that alters answers must not regenerate them.
"""

from __future__ import annotations

import json
import sys

from worker import BENCH, KINDS, answer_params, load_program, selection_digest


def main() -> int:
    m = load_program()
    workloads = json.loads((BENCH / "workloads.json").read_text())
    for name, params in sorted(workloads.items()):
        wl = KINDS[params["kind"]](m, params, 0)
        rows = []
        for out in wl.reference_outcomes():
            problems = wl.check(out)
            if problems:
                print(f"{name}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            for x, cost, ids in out.answers:
                assert x == len(rows), "draws must come in seed order"
                rows.append([cost, selection_digest(ids)])
        refs = {"params": answer_params(params), "refs": rows[: wl.reach]}
        path = BENCH / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"{name}: {wl.reach} references", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
