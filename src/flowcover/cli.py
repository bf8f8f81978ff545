"""Command-line front end: generate, reduce, solve, check, verify.

Artifact files (instances, reductions, solutions, verify summaries) carry no
wall-clock data and are byte-identical for identical seeds and configs;
timing goes to stdout, to optional stats files and to the ms column of CSV
reports, which are run reports rather than artifacts.  ``solve --csv`` and
``verify --csv`` both append rows under one header, written when the file is
new or empty, so their rows can share a file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .covering import (
    COST_MODELS,
    CoveringInstance,
    Selection,
    check_feasible,
    covering_record,
    selection_cost,
)
from .dpsolver import solve as dp_solve
from .harness import CSV_HEADER, CampaignConfig, campaign_instance, csv_row, run_campaign
from .jobs import (
    JobInstance,
    instance_from_json,
    instance_to_json,
    parse_epsilon,
    perturb_scale,
)
from .oracle import brute_force_covering, reduce_instance, reduction_fields


def _instance_hash(instance: JobInstance) -> str:
    return hashlib.sha256(instance_to_json(instance).encode()).hexdigest()[:16]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _append_csv(path: str, rows: list[str]) -> None:
    """Append CSV_HEADER rows, with the header first when the file is new or
    empty; ``solve --csv`` and ``verify --csv`` both write through here."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a") as fh:
        if fh.tell() == 0:  # append mode opens at the end: 0 means empty
            rows = [CSV_HEADER, *rows]
        fh.write("\n".join(rows) + "\n")


def _load_instance(path: str) -> JobInstance:
    return instance_from_json(Path(path).read_text())


def _reduction_fields(instance: JobInstance, cov: CoveringInstance) -> dict:
    """Record fields shared by reduce and solve outputs."""
    return {"instance_hash": _instance_hash(instance), **reduction_fields(cov)}


def cmd_gen(args: argparse.Namespace) -> int:
    if args.n < 1:
        print("error: --n must be at least 1", file=sys.stderr)
        return 2
    cfg = CampaignConfig(
        seed=args.seed,
        epsilon=parse_epsilon(args.epsilon or "1"),
        n_max=args.n,
        p_max=args.pmax,
        w_max=args.wmax,
        horizon_max=args.horizon,
    )
    instance = campaign_instance(args.seed, cfg)
    _emit(instance_to_json(instance), args.out)
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    cov = reduce_instance(instance, args.K, args.seed, args.epsilon, args.cost_model)
    payload = covering_record(cov)
    payload.update(_reduction_fields(instance, cov), seed=args.seed)
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    cov = reduce_instance(instance, args.K, args.seed, args.epsilon, args.cost_model)
    record = _reduction_fields(instance, cov)
    # leaves are unit cells; the record keeps the field
    record.update(method=args.method, leaf_len=1, seed=args.seed, cost_model=args.cost_model)
    if args.method == "dp":
        # the DP scans its own answer and raises DpError when it is infeasible
        result = dp_solve(cov)
        record.update(
            cost=result.cost,
            selection=list(result.selection.sorted_ids()),
            feasible=True,
        )
        # counters describe the search, not the answer: stats only
        stats = asdict(result.stats)
        stats["wall_ms"] = round(stats["wall_ms"], 3)
    else:
        started = time.perf_counter()
        cost, selection = brute_force_covering(cov)
        stats = {"wall_ms": round((time.perf_counter() - started) * 1000.0, 3)}
        record.update(
            cost=cost,
            selection=list(selection.sorted_ids()),
            feasible=check_feasible(cov, selection).ok,
        )
    _emit(json.dumps(record, sort_keys=True, indent=2) + "\n", args.out)
    if args.stats_out:
        _emit(json.dumps(stats, sort_keys=True, indent=2) + "\n", args.stats_out)
    if args.csv:
        # the method's own cost column; states is a DP counter, blank for the oracle
        costs = (record["cost"], None) if args.method == "dp" else (None, record["cost"])
        row = csv_row(args.seed, record["n"], record["P"], record["K"], record["shift"],
                      record["T"], *costs, stats.get("states"), round(stats["wall_ms"]))
        _append_csv(args.csv, [row])
    if args.out is not None:
        print(f"{args.method} cost={record['cost']} stats={json.dumps(stats, sort_keys=True)}")
    return 0 if record["feasible"] else 1


# fields of a ``solve`` record that ``check`` reads
_SOLVE_RECORD_KEYS = (
    "instance_hash", "K", "seed", "epsilon", "leaf_len", "shift", "selection", "cost"
)
_SOLVE_RECORD_INTS = ("K", "seed", "leaf_len", "shift", "cost")


def _record_type_error(record: dict, n: int) -> str | None:
    """What is wrong with the types of a solve record's fields, if anything;
    ``n`` is the instance's job count, which epsilon must scale exactly.

    ``type(v) is int`` rather than isinstance: JSON true/false load as bool,
    a subclass of int.
    """
    for key in _SOLVE_RECORD_INTS:
        if type(record[key]) is not int:
            return f"field {key!r} must be an integer, got {record[key]!r}"
    if record["K"] < 2:
        return f"field 'K' must be >= 2, got {record['K']}"
    if record["leaf_len"] != 1:
        return f"field 'leaf_len' must be 1 (leaves are unit cells), got {record['leaf_len']}"
    try:
        epsilon = parse_epsilon(record["epsilon"], "field 'epsilon'")
    except ValueError as exc:
        return str(exc)
    try:
        perturb_scale(n, epsilon)
    except ValueError as exc:
        return f"field 'epsilon' is {record['epsilon']!r} for n = {n}: {exc}"
    selection = record["selection"]
    if type(selection) is not list:
        return f"field 'selection' must be a list of integers, got {selection!r}"
    for i, rid in enumerate(selection):
        if type(rid) is not int:
            return f"field 'selection' must be a list of integers, got {rid!r} at index {i}"
    cost_model = record.get("cost_model", "weighted_length")
    if type(cost_model) is not str or cost_model not in COST_MODELS:
        return f"field 'cost_model' must be one of {sorted(COST_MODELS)}, got {cost_model!r}"
    return None


def cmd_check(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    try:
        record = json.loads(Path(args.solution).read_text())
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8 text
        print(f"check: FAIL {args.solution} is not a solve record (not JSON: {exc})")
        return 1
    if type(record) is not dict:
        got = f"expected a JSON object, got {type(record).__name__}"
        print(f"check: FAIL {args.solution} is not a solve record ({got})")
        return 1
    missing = [key for key in _SOLVE_RECORD_KEYS if key not in record]
    if missing:
        listed = ", ".join(missing)
        print(f"check: FAIL {args.solution} is not a solve record (missing: {listed})")
        return 1
    problem = _record_type_error(record, instance.n)
    if problem is not None:
        print(f"check: FAIL {args.solution} {problem}")
        return 1
    if record["instance_hash"] != _instance_hash(instance):
        print("check: FAIL instance hash mismatch")
        return 1
    cov = reduce_instance(
        instance,
        record["K"],
        record["seed"],
        record["epsilon"],
        record.get("cost_model", "weighted_length"),
    )
    if cov.grid.shift != record["shift"]:
        print(
            f"check: FAIL recorded shift {record['shift']} does not match seed "
            f"{record['seed']}, which gives shift {cov.grid.shift}"
        )
        return 1
    seen: set[int] = set()
    for rid in record["selection"]:
        if not 0 <= rid < len(cov.rectangles):
            print(f"check: FAIL selection names unknown rectangle id {rid}")
            return 1
        # Selection.of folds the list into a set, which would hide a repeat
        if rid in seen:
            print(f"check: FAIL selection repeats rectangle id {rid}")
            return 1
        seen.add(rid)
    selection = Selection.of(record["selection"])
    report = check_feasible(cov, selection)
    cost = selection_cost(cov, selection)
    ok = report.ok and cost == record["cost"]
    if ok:
        print(f"check: OK cost={cost} rays clean, prefixes clean")
        return 0
    print(
        "check: FAIL "
        f"cost={cost} recorded={record['cost']} "
        f"prefix_violations={len(report.prefix_violations)} "
        f"demand_violations={len(report.demand_violations)}"
    )
    for v in report.demand_violations[:10]:
        print(f"  ray [{v.s},{v.t}] needs {v.required}, covered {v.covered}")
    for v in report.prefix_violations[:10]:
        print(
            f"  group job={v.job} cell=[{v.cell_begin},{v.cell_end}) "
            f"selected positions {list(v.selected_positions)}"
        )
    return 1


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = CampaignConfig(
        seed=args.seed,
        trials=args.trials,
        K=args.K,
        epsilon=parse_epsilon(args.epsilon or "1"),
        n_max=args.n,
        p_max=args.pmax,
        w_max=args.wmax,
        horizon_max=args.horizon,
        cost_model=args.cost_model,
        workers=args.workers,
    )
    started = time.perf_counter()
    result = run_campaign(cfg)
    elapsed = time.perf_counter() - started
    if args.out:
        _emit(result.summary_json(), args.out)
    if args.csv:
        _append_csv(args.csv, result.csv_lines())
    failures = result.failures
    for report in failures:
        print(f"FAIL trial seed={report.seed}: {report.status} {report.detail}")
        if args.regression_dir and report.instance_json:
            target = Path(args.regression_dir)
            target.mkdir(parents=True, exist_ok=True)
            meta = {
                "seed": report.seed,
                "K": report.K,
                "epsilon": report.epsilon,
                "leaf_len": 1,  # leaves are unit cells; the record keeps the field
                "shift": report.shift,
                "status": report.status,
                "detail": report.detail,
                "instance": json.loads(report.instance_json),
            }
            path = target / f"regression_seed{report.seed}.json"
            path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
            print(f"  saved {path}")
    print(
        f"verify: {result.verified}/{cfg.trials} ok, "
        f"{len(failures)} failed, {result.skipped} skipped "
        f"({elapsed:.1f}s)"
    )
    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcover",
        description=(
            "Exact covering solver for the rectangle/ray reduction of preemptive "
            "weighted flow time, with brute-force verification oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, reduction: bool = True) -> None:
        p.add_argument("--seed", type=int, default=0, help="seed for shifts and draws")
        p.add_argument("--epsilon", type=str, default=None, help='accuracy, e.g. "1" or "1/2"')
        if reduction:
            p.add_argument("--K", type=int, default=2, help="grid branching factor (>= 2)")
            p.add_argument(
                "--cost-model",
                default="weighted_length",
                dest="cost_model",
                choices=list(COST_MODELS),
            )

    p = sub.add_parser("gen", help="generate a random instance file")
    common(p, reduction=False)
    p.add_argument("--n", type=int, default=4, help="max job count")
    p.add_argument("--pmax", type=int, default=4, help="max processing time")
    p.add_argument("--wmax", type=int, default=4, help="max weight")
    p.add_argument("--horizon", type=int, default=64, help="cap on preprocessed horizon")
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reduce", help="preprocess and dump the covering instance")
    common(p)
    p.add_argument("--instance", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("solve", help="solve one instance with the DP or the oracle")
    common(p)
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=["dp", "oracle"], default="dp")
    p.add_argument("--out", default=None)
    p.add_argument("--stats-out", default=None, dest="stats_out")
    p.add_argument("--csv", default=None, help="append a CSV row here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="re-verify a solution file against its instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="paired DP-vs-oracle campaign over random instances")
    common(p)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--pmax", type=int, default=4)
    p.add_argument("--wmax", type=int, default=4)
    p.add_argument("--horizon", type=int, default=64)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="summary JSON path")
    p.add_argument("--csv", default=None, help="append a CSV row per trial here")
    p.add_argument("--regression-dir", default=None, dest="regression_dir")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # the covering's size follows its rectangles, not the horizon: a cell
        # longer than K holds up to K**2 pieces, so a large K over a long
        # horizon can lay out more rectangles than fit
        print(
            "error: out of memory; the reduction has too many rectangles for this K",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
