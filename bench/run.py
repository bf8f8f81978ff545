"""flowcover benchmark: one workload, one seed, figures by name with units.

    python3 bench/run.py --workload solve-k2 --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Each set-up sample and the measured run are
separate worker processes (``worker.py``), so peak memory is the
workload's own.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-up-only workers before and after the measured one: set-up time comes
# in machine phases of about a second, so samples spread over the run.
SETUP_PROBES = 5


def units(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class Worker:
    """One worker process; ``ready_s`` is the time from start to READY."""

    def __init__(self, args, deadline: float, setup_only: bool):
        cmd = [
            sys.executable,
            str(BENCH / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if setup_only:
            cmd.append("--setup-only")
        env = {k: v for k, v in os.environ.items() if k != "FLOWCOVER_BUDGET_MS"}
        self.deadline = deadline
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        first = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - started
        if first.strip() != "READY":
            self.finish()
            raise RuntimeError(f"worker failed during set-up (exit {self.proc.returncode})")

    def finish(self) -> str:
        """Wait for the worker, killing it past the deadline; returns its output."""
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("worker ran past the deadline and was stopped")
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a run stops its worker and fails past this: a run takes about
    # --seconds plus a few seconds of set-up probes and its last instance
    deadline = time.perf_counter() + 2 * args.seconds + 60

    if not (ROOT / "src" / "flowcover" / "__init__.py").is_file():
        print(f"error: no flowcover package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = json.loads((BENCH / "workloads.json").read_text())
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads)}", file=sys.stderr)
        return 2

    def probe() -> float:
        worker = Worker(args, deadline, setup_only=True)
        worker.finish()
        return worker.ready_s

    try:
        setups = [probe() for _ in range(SETUP_PROBES)]
        worker = Worker(args, deadline, setup_only=False)
        setups.append(worker.ready_s)
        result = json.loads(worker.finish().splitlines()[-1])
        setups += [probe() for _ in range(SETUP_PROBES)]
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for line in result.get("failures", []):
        print(f"FAILED {line}")
    if args.trace:
        values = result["metrics"]
        metrics = {k: {"value": values[k], "unit": u} for k, u in units("per_layer").items()}
        print_breakdown(values)
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": u} for k, u in units("end_to_end").items()}
        info = result["info"]
        rounds = f"median of {info['rounds']:.1f} rounds"
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "instances_per_kref": f"{info['instances']} instances, {rounds}",
            "instance_ref_p50": rounds,
            "instance_ref_p90": f"{rounds}, {info['beyond_p90']} beyond",
        }
        for name, m in metrics.items():
            print(f"  {name:<18} {m['value']:>12.4f} {m['unit']:<6} {notes.get(name, '')}")
        print(f"  reference loop {info['ref_ms']:.4f} ms (median).  Wall time at each instance's best round:")
        for name, unit in (("instances_per_s", "1/s"), ("instance_ms_p50", "ms"), ("instance_ms_p90", "ms")):
            print(f"  {name:<18} {info[name]:>12.4f} {unit}")
        print(f"  {'failed_ratio':<18} {failed / attempted:>12.4f} ratio  {failed}/{attempted}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def print_breakdown(m: dict) -> None:
    """Self time by layer per instance; with the unaccounted rest it sums to
    the traced wall time."""
    parts = [
        ("jobs", m["jobs.perturb_ms"]),
        ("grid", m["grid.build_ms"]),
        ("covering", m["covering.build_ms"] + m["covering.scan_ms"]),
        ("dpsolver", m["dpsolver.solve_self_ms"]),
        ("oracle", m["oracle.search_ms"] + m["oracle.verify_self_ms"]),
        ("harness", m["harness.self_ms"]),
        ("bench (checks, counters)", m["bench.self_ms"]),
        ("unaccounted", m["trace.unaccounted_ms"]),
    ]
    wall = m["trace.wall_ms"]
    print(f"  traced wall {wall:.4f} ms/instance over {m['trace.instances']} instances; "
          f"tracing overhead {m['trace.overhead_ms']:.4f} ms/instance")
    for name, ms in parts:
        print(f"  {name:<26} {ms:>10.4f} ms  {100 * ms / wall:6.2f}%")
    print(f"  {'sum':<26} {sum(ms for _, ms in parts):>10.4f} ms")
    for name, value in sorted(m.items()):
        print(f"  {name:<26} {value}")


if __name__ == "__main__":
    sys.exit(main())
