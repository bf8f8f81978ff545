"""Run one benchmark workload in this process and print its figures as JSON.

``run.py`` starts this script once per set-up sample and once for the
measured run, so that peak memory belongs to the workload alone.  Protocol
on stdout: a line ``READY`` once the program is imported and the workload
is set up, then (unless ``--setup-only``) one JSON line.

Each workload draws from a fixed pool of draw seeds 0..pool-1, and
``refs/<workload>.json`` holds the answer for every draw seed a run can
reach, so every answer of every run is checked, whatever its seed.  Draw i
of a run with seed s uses draw seed (s + i) mod pool: instance 0 is drawn
with s itself (seed 3 at K=2, n=12 is ROADMAP's baseline row).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from random import Random

from tracing import ATTRS, END, INSTANCE, LAYER, NAME, PARENT, START, AllocPeaks, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MEM_WINDOW = 5  # instances run under tracemalloc at the end of a traced run


def selection_digest(ids) -> str:
    return hashlib.sha256(",".join(map(str, ids)).encode()).hexdigest()[:16]


def answer_params(params: dict) -> dict:
    """The workload parameters that decide its draws and answers."""
    return {k: v for k, v in params.items() if k not in ("instances", "count_window")}


def load_refs(workload: str, params: dict) -> list:
    """Shipped [cost, digest] per draw seed of one workload; refuses stale ones."""
    refs = json.loads((BENCH / "refs" / f"{workload}.json").read_text())
    if refs["params"] != answer_params(params):
        raise SystemExit(f"refs/{workload}.json was made for other parameters: {refs['params']}")
    return refs["refs"]


def load_program() -> dict:
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import flowcover
    from flowcover import covering, dpsolver, grid, harness, jobs, oracle

    if Path(flowcover.__file__).resolve().parent != src / "flowcover":
        raise SystemExit(f"imported flowcover from {flowcover.__file__}, not from {src}")
    return {
        "jobs": jobs,
        "grid": grid,
        "covering": covering,
        "dpsolver": dpsolver,
        "oracle": oracle,
        "harness": harness,
    }


class Outcome:
    """One instance's result; ``answers`` holds (draw seed, cost, sorted ids)
    for each draw it solved."""

    __slots__ = ("answers", "stats", "reports", "covering")

    def __init__(self, answers, stats=None, reports=None, covering=None):
        self.answers = answers
        self.stats = stats
        self.reports = reports
        self.covering = covering


class SolveWorkload:
    """Draw, perturb, reduce and solve with ``DpSolver`` directly.

    Instance i is draw (seed + i) mod pool, drawn when it runs (about 45 us,
    against tens of ms for the solve), as the harness draws verify-k2 trials.
    """

    def __init__(self, m: dict, params: dict, seed: int):
        self.m = m
        self.seed = seed
        self.K = params["K"]
        self.n = params["n"]
        self.pool = self.reach = params["pool"]
        # bound now, so that tracing (which swaps module attributes) skips the gate
        self.gate_scan = m["covering"].check_feasible
        self.gate_cost = m["covering"].selection_cost

    def draw(self, x: int):
        rng = Random(x)
        triples = [(rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 4)) for _ in range(self.n)]
        return x, self.m["jobs"].make_instance(triples)

    def solve(self, x: int, inst) -> Outcome:
        m = self.m
        work = m["jobs"].perturb_release_times(inst, 1)
        grid = m["oracle"].reduction_grid(m["jobs"].total_horizon(work), self.K, x)
        cov = m["covering"].build_covering(work, grid)
        res = m["dpsolver"].DpSolver(cov).solve()
        return Outcome([(x, res.cost, res.selection.sorted_ids())], stats=res.stats, covering=cov)

    def run(self, i: int) -> Outcome:
        return self.solve(*self.draw((self.seed + i) % self.pool))

    def reference_outcomes(self):
        """Every draw seed of the pool in order, for ``make_refs.py``."""
        for x in range(self.pool):
            yield self.solve(*self.draw(x))

    def check(self, out: Outcome) -> list[str]:
        _, cost, ids = out.answers[0]
        sel = self.m["covering"].Selection.of(ids)
        problems = []
        if not self.gate_scan(out.covering, sel).ok:
            problems.append("dp selection fails check_feasible")
        if self.gate_cost(out.covering, sel) != cost:
            problems.append("dp cost differs from the selection's cost")
        return problems


class VerifyWorkload:
    """``run_campaign`` calls of ``trials`` trials each: DP and oracle per trial.

    Instance i of a run with seed s is the campaign with base seed
    (s + trials * i) mod pool, so a run walks the trial seeds s, s+1, ...
    as one long campaign would, in chunks of ``trials``.  A campaign near the
    end of the pool reaches trial seeds up to pool + trials - 2.
    """

    def __init__(self, m: dict, params: dict, seed: int):
        self.m = m
        self.seed = seed
        self.trials = params["trials"]
        self.pool = params["pool"]
        self.reach = self.pool + self.trials - 1
        self.params = {k: params[k] for k in ("K", "n_max", "p_max", "w_max", "horizon_max")}
        h = m["harness"]
        self.config = h.CampaignConfig
        # bound now, so that tracing (which swaps module attributes) skips the gate
        self.gate = (
            h.campaign_instance,
            m["jobs"].perturb_release_times,
            m["jobs"].total_horizon,
            m["grid"].build_grid,
            m["covering"].build_covering,
            m["covering"].check_feasible,
            m["covering"].selection_cost,
            m["covering"].Selection,
        )

    def campaign(self, base: int) -> Outcome:
        cfg = self.config(seed=base, trials=self.trials, workers=1, **self.params)
        reports = self.m["harness"].run_campaign(cfg).reports
        return Outcome([(r.seed, r.dp_cost, r.dp_selection) for r in reports], reports=reports)

    def run(self, i: int) -> Outcome:
        return self.campaign((self.seed + self.trials * i) % self.pool)

    def reference_outcomes(self):
        """Campaigns covering trial seeds 0..reach-1 in order, for ``make_refs.py``."""
        for base in range(0, self.reach, self.trials):
            yield self.campaign(base)

    def check(self, out: Outcome) -> list[str]:
        draw, perturb, horizon, build_grid, build_covering, scan, cost, Selection = self.gate
        problems = []
        for r in out.reports:
            if r.status != "ok":
                problems.append(f"trial seed {r.seed}: verify status {r.status} {r.detail}".strip())
                continue
            if r.dp_cost != r.oracle_cost:
                problems.append(f"trial seed {r.seed}: dp cost {r.dp_cost} != oracle cost {r.oracle_cost}")
            cfg = self.config(seed=r.seed, trials=1, workers=1, **self.params)
            work = perturb(draw(r.seed, cfg), cfg.epsilon)
            cov = build_covering(work, build_grid(horizon(work) + 1, cfg.K, shift=r.shift))
            sel = Selection.of(r.dp_selection)
            if not scan(cov, sel).ok:
                problems.append(f"trial seed {r.seed}: dp selection fails check_feasible")
            if cost(cov, sel) != r.dp_cost:
                problems.append(f"trial seed {r.seed}: dp cost differs from the selection's cost")
        return problems


KINDS = {"solve": SolveWorkload, "verify": VerifyWorkload}


class Runner:
    """Runs instances, gates each against the checks and the shipped references."""

    def __init__(self, workload, refs: list):
        self.wl = workload
        self.refs = refs
        self.failures: list[str] = []

    def gate(self, i: int, out: Outcome | None, error: str | None) -> bool:
        if error is not None:
            problems = [error]
        else:
            problems = self.wl.check(out)
            for x, cost, ids in out.answers:
                if x >= len(self.refs):
                    problems.append(f"draw seed {x}: no reference")
                    continue
                ref_cost, ref_digest = self.refs[x]
                if cost != ref_cost or selection_digest(ids) != ref_digest:
                    problems.append(f"draw seed {x}: reference mismatch, cost {cost} vs {ref_cost}")
        if problems:
            self.failures.append(f"instance {i}: {'; '.join(problems)}")
        return not problems

    def attempt(self, i: int) -> tuple[Outcome | None, str | None]:
        try:
            return self.wl.run(i), None
        except Exception as exc:  # counted as a failed instance, never dropped
            return None, f"{type(exc).__name__}: {exc}"


def signature(out: Outcome | None) -> tuple | None:
    """The non-timing fields of one outcome, for the determinism check."""
    if out is None:
        return None
    answers = tuple((x, cost, selection_digest(ids)) for x, cost, ids in out.answers)
    if out.stats is not None:
        st = out.stats
        counts = (st.states, st.triples, st.carry_vectors, st.max_carry, st.max_depth)
    else:
        counts = tuple((r.dp_states, r.dp_max_depth, r.oracle_cost) for r in out.reports)
    return answers + counts


# Keys of the reference loop, built once so that the loop allocates nothing
# the garbage collector tracks: a collection inside it would charge the
# program's heap to the machine.
REF_KEYS = [(i % 97, i % 13) for i in range(3000)]
REF_SPAN = 4  # reference samples on each side of an instance that set its local speed


def reference_loop() -> None:
    """Fixed pure-Python work: tuple hashing and dict updates, as in the DP's memo."""
    counts: dict = {}
    for key in REF_KEYS:
        counts[key] = counts.get(key, 0) + 1


def measure(runner: Runner, count: int, seconds: float) -> dict:
    """Rounds over the run's first ``count`` instances until ``seconds`` have
    passed, at least one full round.

    The machine is shared, and its speed drifts by 10-40% over seconds to
    minutes, across whole runs too.  So each instance is timed right after
    a run of ``reference_loop``, and its cost is its wall time divided by
    the median reference time around it: a figure in reference-loop runs
    that cancels the machine's speed.  An instance's cost is the median over
    its rounds.  Only the program's work is timed; every repeat is gated,
    and its outcome must equal the first round's.
    """
    walls: list[float] = []
    refs: list[float] = []
    first: list = [None] * count
    started = now = time.perf_counter()
    i = 0
    while i < count or now - started < seconds:
        k = i % count
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        out, error = runner.attempt(k)
        now = time.perf_counter()
        refs.append(t1 - t0)
        walls.append(now - t1)
        runner.gate(k, out, error)
        sig = signature(out)
        if i < count:
            first[k] = sig
        elif sig != first[k]:
            runner.failures.append(f"instance {k}: outcome differs between two rounds")
        i += 1
    costs: list[list[float]] = [[] for _ in range(count)]
    best = [math.inf] * count
    for j, wall in enumerate(walls):
        local = statistics.median(refs[max(0, j - REF_SPAN) : j + REF_SPAN + 1])
        costs[j % count].append(wall / local)
        best[j % count] = min(best[j % count], wall)
    cost = [statistics.median(c) for c in costs]
    ms = [t * 1000.0 for t in best]
    failed = len(runner.failures)
    p90 = quantile(cost, 0.9)
    return {
        "attempted": i,
        "failed": failed,
        "metrics": {
            "instances_per_kref": 1000.0 * count / sum(cost),
            "instance_ref_p50": statistics.median(cost),
            "instance_ref_p90": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (i - failed) / i,
        },
        "info": {
            "instances": count,
            "rounds": i / count,
            "beyond_p90": sum(1 for v in cost if v > p90),
            "ref_ms": statistics.median(refs) * 1000.0,
            "instances_per_s": count / sum(best),
            "instance_ms_p50": statistics.median(ms),
            "instance_ms_p90": quantile(ms, 0.9),
        },
    }


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


COUNTS = (
    "jobs.perturb_calls",
    "grid.cells",
    "covering.scan_calls",
    "covering.scan_intervals",
    "covering.rects",
    "covering.groups",
    "dpsolver.states",
    "dpsolver.triples",
    "dpsolver.carry_vectors",
    "dpsolver.max_carry",
    "dpsolver.max_depth",
    "dpsolver.memo_zero",
    "dpsolver.memo_infeasible",
    "oracle.calls",
    "oracle.skipped",
    "harness.draw_attempts",
)


def count_instance(tracer: Tracer, first: int, out: Outcome | None, counts: dict) -> None:
    """Fold the counters of one instance's spans into ``counts``, then drop
    the call arguments and results the spans held."""
    spans = tracer.spans
    for rec in spans[first:]:
        attrs = rec[ATTRS]
        if attrs is None:
            continue
        rec[ATTRS] = None
        args, result = attrs
        name = rec[NAME]
        if name == "covering.scan":
            T = args[0].horizon
            counts["covering.scan_calls"] += 1
            counts["covering.scan_intervals"] += (T + 1) * (T + 2) // 2
        elif name == "covering.build":
            counts["covering.rects"] += len(result.rectangles)
            counts["covering.groups"] += len(result.groups)
        elif name == "grid.build":
            counts["grid.cells"] += sum(len(level) for level in result.levels)
        elif name == "dpsolver.solve":
            st = result.stats
            counts["dpsolver.states"] += st.states
            counts["dpsolver.triples"] += st.triples
            counts["dpsolver.carry_vectors"] += st.carry_vectors
            counts["dpsolver.max_carry"] = max(counts["dpsolver.max_carry"], st.max_carry)
            counts["dpsolver.max_depth"] = max(counts["dpsolver.max_depth"], st.max_depth)
            for entry in args[0].memo.values():
                if entry is None:
                    counts["dpsolver.memo_infeasible"] += 1
                elif entry == (0, ()):
                    counts["dpsolver.memo_zero"] += 1
        elif name == "oracle.search":
            counts["oracle.calls"] += 1
        elif name == "jobs.perturb":
            counts["jobs.perturb_calls"] += 1
            if rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] == "harness.draw":
                counts["harness.draw_attempts"] += 1
    if out is not None and out.reports is not None:
        counts["oracle.skipped"] += sum(1 for r in out.reports if r.skipped)


def traced_run(runner: Runner, m: dict, params: dict, seconds: float) -> dict:
    """Per-layer figures: each instance runs traced, then again untraced.

    The loop runs at least ``count_window`` instances and at least
    ``seconds``.  Counters come from the first
    ``count_window`` instances, so they repeat exactly for one seed.  The
    untraced repeat right after each traced instance gives the tracing
    overhead as a paired difference, and its outcome must equal the traced
    one.  A last pass measures DP allocation peaks under tracemalloc.
    """
    window = params["count_window"]
    tracer = Tracer(m)
    counts = dict.fromkeys(COUNTS, 0)
    traced_wall = replay_wall = 0.0
    started = time.perf_counter()
    n = 0
    while n < window or time.perf_counter() - started < seconds:
        tracer.instance = n
        tracer.collect = n < window
        first = len(tracer.spans)
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.span("bench.instance", "bench"):
                out, error = runner.attempt(n)
                with tracer.span("bench.check", "bench"):
                    runner.gate(n, out, error)
                    sig = signature(out)
                if tracer.collect:
                    with tracer.span("bench.counters", "bench"):
                        count_instance(tracer, first, out, counts)
            traced_wall += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        failed = len(runner.failures)
        t0 = time.perf_counter()
        again, error = runner.attempt(n)
        runner.gate(n, again, error)
        again_sig = signature(again)
        replay_wall += time.perf_counter() - t0
        del runner.failures[failed:]  # already counted in the traced run
        if again_sig != sig:
            runner.failures.append(f"instance {n}: outcome differs between two runs")
        n += 1

    peaks = AllocPeaks(m["dpsolver"].DpSolver)
    peaks.install()
    try:
        for i in range(min(MEM_WINDOW, n)):
            runner.attempt(i)
    finally:
        peaks.uninstall()

    self_ns = tracer.self_times_ns()
    layer_self: dict[str, int] = {}
    total: dict[str, int] = {}
    dp_window_ns = 0
    for rec, own in zip(tracer.spans, self_ns):
        layer_self[rec[LAYER]] = layer_self.get(rec[LAYER], 0) + own
        total[rec[NAME]] = total.get(rec[NAME], 0) + rec[END] - rec[START]
        if rec[LAYER] == "dpsolver" and rec[INSTANCE] < window:
            dp_window_ns += own
    verify_self = sum(o for rec, o in zip(tracer.spans, self_ns) if rec[NAME] == "oracle.verify")

    def per_instance_ms(ns: int) -> float:
        return ns / 1e6 / n

    metrics = {
        "jobs.perturb_ms": per_instance_ms(layer_self.get("jobs", 0)),
        "grid.build_ms": per_instance_ms(layer_self.get("grid", 0)),
        "covering.build_ms": per_instance_ms(total.get("covering.build", 0)),
        "covering.scan_ms": per_instance_ms(total.get("covering.scan", 0)),
        "dpsolver.solve_self_ms": per_instance_ms(layer_self.get("dpsolver", 0)),
        "dpsolver.us_per_state": dp_window_ns / 1e3 / max(1, counts["dpsolver.states"]),
        "dpsolver.alloc_peak_mb": max(peaks.peaks, default=0) / 2**20,
        "oracle.search_ms": per_instance_ms(total.get("oracle.search", 0)),
        "oracle.verify_self_ms": per_instance_ms(verify_self),
        "harness.draw_ms": per_instance_ms(total.get("harness.draw", 0)),
        "harness.self_ms": per_instance_ms(layer_self.get("harness", 0)),
        "bench.self_ms": per_instance_ms(layer_self.get("bench", 0)),
        "trace.wall_ms": traced_wall * 1e3 / n,
        "trace.unaccounted_ms": traced_wall * 1e3 / n - per_instance_ms(total["bench.instance"]),
        "trace.overhead_ms": per_instance_ms(total["bench.instance"] - total.get("bench.counters", 0))
        - replay_wall * 1e3 / n,
        "trace.instances": n,
    }
    metrics.update(counts)
    return {
        "attempted": n,
        "failed": len(runner.failures),
        "metrics": metrics,
        "counts": counts,
        "info": {"count_window": window, "mem_window": min(MEM_WINDOW, n)},
        "spans": tracer.export(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    params = json.loads((BENCH / "workloads.json").read_text())[args.workload]
    m = load_program()
    workload = KINDS[params["kind"]](m, params, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(workload, load_refs(args.workload, params))
    if args.trace:
        result = traced_run(runner, m, params, args.seconds)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans = result.pop("spans")
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"counts": result["counts"], "spans": spans}) + "\n")
    else:
        result = measure(runner, params["instances"], args.seconds)
    result["failures"] = runner.failures[:10]
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
