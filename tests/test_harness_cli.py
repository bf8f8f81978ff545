import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import flowcover
import flowcover.cli as cli_mod
import flowcover.oracle as oracle_mod
from flowcover.cli import main
from flowcover.harness import (
    CSV_HEADER,
    CampaignConfig,
    campaign_instance,
    random_instance,
    run_campaign,
    run_trial,
)
from flowcover.jobs import instance_to_json, make_instance, perturb_release_times, total_horizon


# -- harness ---------------------------------------------------------------------


def test_random_instance_respects_caps():
    rng = Random(1)
    for _ in range(50):
        inst = random_instance(rng, n_max=3, p_max=3, w_max=2)
        assert 1 <= inst.n <= 3
        for job in inst.jobs:
            assert 0 <= job.release <= 3
            assert 1 <= job.processing <= 3
            assert 1 <= job.weight <= 2


def test_campaign_instance_fits_horizon_cap():
    cfg = CampaignConfig(seed=0, trials=1, horizon_max=64)
    for seed in range(30):
        inst = campaign_instance(seed, cfg)
        assert total_horizon(perturb_release_times(inst, cfg.epsilon)) <= 64


def test_campaign_instance_deterministic():
    cfg = CampaignConfig(seed=0, trials=1)
    assert campaign_instance(7, cfg) == campaign_instance(7, cfg)


def test_trial_seed_offsets_base_seed():
    cfg = CampaignConfig(seed=40, trials=3)
    report = run_trial(cfg, 2)
    assert report.seed == 42


def test_campaign_counts_sum_to_trials():
    cfg = CampaignConfig(seed=10, trials=8)
    res = run_campaign(cfg)
    assert len(res.reports) == 8
    assert res.verified + len(res.failures) + res.skipped == 8
    assert res.verified == 8


def test_campaign_skip_accounting(monkeypatch):
    monkeypatch.setattr(oracle_mod, "MAX_NODES", 1)
    cfg = CampaignConfig(seed=10, trials=5)
    res = run_campaign(cfg)
    assert res.skipped == 5 and res.verified == 0 and not res.failures
    summary = res.summary_dict()
    assert summary["skipped"] == 5 and summary["trials"] == 5


def test_campaign_summary_identical_across_worker_counts():
    base = dict(seed=3, trials=6, K=2)
    serial = run_campaign(CampaignConfig(workers=1, **base))
    pooled = run_campaign(CampaignConfig(workers=3, **base))
    assert serial.summary_json() == pooled.summary_json()
    # the summary holds answers only; the search counters must agree too
    assert [r.dp_states for r in serial.reports] == [r.dp_states for r in pooled.reports]


def test_importing_the_cli_loads_no_process_pool():
    # only a campaign with workers > 1 imports the pool; a fresh interpreter
    # shows what the import alone loads
    code = (
        "import sys, flowcover.cli, flowcover.harness; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(flowcover.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_csv_lines_shape():
    res = run_campaign(CampaignConfig(seed=1, trials=2))
    lines = res.csv_lines()
    assert CSV_HEADER == "seed,n,P,K,shift,T,dp_cost,oracle_cost,states,ms"
    # trial rows only: the writer adds the header to a new or empty file
    assert [line.split(",")[0] for line in lines] == ["1", "2"]
    for line in lines:
        assert len(line.split(",")) == 10


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(K=1)
    with pytest.raises(ValueError):
        CampaignConfig(trials=0)
    with pytest.raises(ValueError):
        CampaignConfig(n_max=0)


# -- cli -------------------------------------------------------------------------


def test_gen_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--seed", "1", "--out", str(a)]) == 0
    assert main(["gen", "--seed", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["jobs"]


def test_gen_instance_carries_its_epsilon(tmp_path):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--seed", "1", "--n", "3", "--epsilon", "1/3", "--out", str(inst)]) == 0
    assert json.loads(inst.read_text())["epsilon"] == "1/3"
    # a solve without --epsilon reduces with the instance's own 1/3
    plain, explicit = tmp_path / "plain.json", tmp_path / "explicit.json"
    argv = ["solve", "--instance", str(inst), "--seed", "1"]
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--epsilon", "1/3", "--out", str(explicit)]) == 0
    assert json.loads(plain.read_text())["epsilon"] == "1/3"
    assert plain.read_bytes() == explicit.read_bytes()


def test_gen_has_no_grid_option(tmp_path, capsys):
    # gen draws jobs only; a branching factor would be read by nothing
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--K", "3", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --K 3" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_gen_rejects_zero_jobs(tmp_path, capsys):
    rc = main(["gen", "--n", "0", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "at least 1" in capsys.readouterr().err


def test_solve_counters_go_to_stats_not_to_the_record(tmp_path, capsys):
    inst, sol, stats = tmp_path / "inst.json", tmp_path / "sol.json", tmp_path / "stats.json"
    assert main(["gen", "--seed", "5", "--out", str(inst)]) == 0
    argv = ["solve", "--instance", str(inst), "--seed", "5", "--out", str(sol)]
    assert main(argv + ["--stats-out", str(stats)]) == 0
    record = json.loads(sol.read_text())
    assert "states" not in record and "max_depth" not in record
    counters = json.loads(stats.read_text())
    assert set(counters) == {
        "states", "canonical_states", "split_states", "theta_decided", "phi_decided",
        "max_depth", "carry_vectors", "max_carry", "triples", "wall_ms",
    }
    # states counts stored memo entries, each of one of the two kinds
    assert counters["states"] == counters["canonical_states"] + counters["split_states"]
    assert counters["theta_decided"] > 0


def test_solve_check_round_trip(tmp_path):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    assert main(["gen", "--seed", "5", "--out", str(inst)]) == 0
    assert main(
        ["solve", "--instance", str(inst), "--seed", "5", "--out", str(sol)]
    ) == 0
    record = json.loads(sol.read_text())
    assert record["method"] == "dp" and record["feasible"] is True
    assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 0


def test_check_flags_corrupted_solution(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    main(["gen", "--seed", "6", "--out", str(inst)])
    main(["solve", "--instance", str(inst), "--seed", "6", "--out", str(sol)])
    record = json.loads(sol.read_text())
    record["selection"] = record["selection"][1:]  # drop the first rectangle
    sol.write_text(json.dumps(record))
    assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_rejects_shift_not_matching_seed(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    main(["gen", "--seed", "6", "--out", str(inst)])
    main(["solve", "--instance", str(inst), "--seed", "6", "--out", str(sol)])
    record = json.loads(sol.read_text())
    record["shift"] += 1  # the selection is untouched; only the shift disagrees
    sol.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and f"recorded shift {record['shift']}" in out


def test_check_rejects_stats_file(tmp_path, capsys):
    # the counters of --stats-out are no record of the answer
    inst, sol, stats = tmp_path / "inst.json", tmp_path / "sol.json", tmp_path / "stats.json"
    main(["gen", "--seed", "6", "--out", str(inst)])
    argv = ["solve", "--instance", str(inst), "--seed", "6", "--out", str(sol)]
    assert main(argv + ["--stats-out", str(stats)]) == 0
    capsys.readouterr()
    assert main(["check", "--instance", str(inst), "--solution", str(stats)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        f"check: FAIL {stats} is not a solve record (missing: instance_hash, K, seed, "
        "epsilon, leaf_len, shift, selection, cost)\n"
    )
    assert captured.err == ""


def _solve_record(tmp_path):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    main(["gen", "--seed", "6", "--out", str(inst)])
    main(["solve", "--instance", str(inst), "--seed", "6", "--out", str(sol)])
    return inst, sol, json.loads(sol.read_text())


@pytest.mark.parametrize(
    "value, kind",
    [
        (5, "int"),
        (None, "NoneType"),
        ("instance_hash K seed epsilon leaf_len shift selection cost", "str"),
        (["instance_hash", "K", "seed", "epsilon", "leaf_len", "shift", "selection", "cost"],
         "list"),
    ],
)
def test_check_rejects_record_that_is_not_an_object(tmp_path, capsys, value, kind):
    inst, sol, _record = _solve_record(tmp_path)
    sol.write_text(json.dumps(value))
    capsys.readouterr()
    assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        f"check: FAIL {sol} is not a solve record (expected a JSON object, got {kind})\n"
    )
    assert captured.err == ""


@pytest.mark.parametrize(
    "data, why",
    [
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b'{"K": 2', "Expecting ',' delimiter"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["empty", "truncated", "not-utf8"],
)
def test_check_rejects_solution_that_is_not_json(tmp_path, capsys, data, why):
    inst, sol, _record = _solve_record(tmp_path)
    sol.write_bytes(data)
    capsys.readouterr()
    assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(f"check: FAIL {sol} is not a solve record (not JSON: {why}")
    assert captured.out.count("\n") == 1 and captured.out.endswith(")\n")
    assert captured.err == ""


@pytest.mark.parametrize(
    "key, value, shown",
    [
        ("K", "2", "'2'"),
        ("seed", 6.0, "6.0"),
        ("leaf_len", True, "True"),
        ("shift", None, "None"),
        ("cost", "12", "'12'"),
    ],
)
def test_check_rejects_mistyped_integer_field(tmp_path, capsys, key, value, shown):
    inst, sol, record = _solve_record(tmp_path)
    record[key] = value
    sol.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"check: FAIL {sol} field {key!r} must be an integer, got {shown}\n"
    assert captured.err == ""


@pytest.mark.parametrize("K", [1, 0, -3])
def test_check_rejects_K_below_two(tmp_path, capsys, K):
    inst, sol, record = _solve_record(tmp_path)
    record["K"] = K
    sol.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"check: FAIL {sol} field 'K' must be >= 2, got {K}\n"
    assert captured.err == ""


def test_check_rejects_mistyped_epsilon(tmp_path, capsys):
    inst, sol, record = _solve_record(tmp_path)
    record["epsilon"] = [1, 2]
    sol.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        f"check: FAIL {sol} field 'epsilon' must be a string or an integer, got [1, 2]\n"
    )
    assert captured.err == ""


def test_check_rejects_zero_denominator_epsilon(tmp_path, capsys):
    inst, sol, record = _solve_record(tmp_path)
    record["epsilon"] = "1/0"
    sol.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        f"check: FAIL {sol} field 'epsilon' must be a positive fraction such as 1 or 1/2, "
        "got '1/0'\n"
    )
    assert captured.err == ""


def test_check_rejects_epsilon_that_cannot_scale_n(tmp_path, capsys):
    # the reduction scales the instance by n/epsilon, which must be an
    # integer; an epsilon that breaks it is a bad field like any other
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    inst.write_text(instance_to_json(make_instance([(0, 2, 1)])))
    assert main(["solve", "--instance", str(inst), "--out", str(sol)]) == 0
    record = json.loads(sol.read_text())
    record["epsilon"] = "3/4"
    sol.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        f"check: FAIL {sol} field 'epsilon' is '3/4' for n = 1: "
        "n/epsilon = 4/3 is not an integer; cannot scale exactly\n"
    )
    assert captured.err == ""


@pytest.mark.parametrize("leaf_len", [2, 0])
def test_check_rejects_leaf_len_other_than_one(tmp_path, capsys, leaf_len):
    inst, sol, record = _solve_record(tmp_path)
    assert record["leaf_len"] == 1
    record["leaf_len"] = leaf_len
    sol.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        f"check: FAIL {sol} field 'leaf_len' must be 1 (leaves are unit cells), got {leaf_len}\n"
    )
    assert captured.err == ""


def test_check_rejects_mistyped_selection(tmp_path, capsys):
    inst, sol, record = _solve_record(tmp_path)
    for selection, shown in (
        ("0,1", "'0,1'"),
        ([0, "1"], "'1' at index 1"),
        ([0, False], "False at index 1"),
    ):
        record["selection"] = selection
        sol.write_text(json.dumps(record))
        capsys.readouterr()
        assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            f"check: FAIL {sol} field 'selection' must be a list of integers, got {shown}\n"
        )
        assert captured.err == ""


@pytest.mark.parametrize("rid", [1000000, -1])
def test_check_rejects_unknown_rectangle_id(tmp_path, capsys, rid):
    inst, sol, record = _solve_record(tmp_path)
    record["selection"] = record["selection"] + [rid]
    sol.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"check: FAIL selection names unknown rectangle id {rid}\n"
    assert captured.err == ""


def test_check_rejects_repeated_rectangle_id(tmp_path, capsys):
    # the set of ids is still the solver's feasible selection at its cost
    inst, sol, record = _solve_record(tmp_path)
    rid = record["selection"][0]
    record["selection"] = record["selection"] + [rid]
    sol.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"check: FAIL selection repeats rectangle id {rid}\n"
    assert captured.err == ""


@pytest.mark.parametrize(
    "value, shown",
    [("nope", "'nope'"), (5, "5"), (["unit"], "['unit']"), ({"a": 1}, "{'a': 1}")],
)
def test_check_rejects_unknown_cost_model(tmp_path, capsys, value, shown):
    inst, sol, record = _solve_record(tmp_path)
    record["cost_model"] = value
    sol.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        f"check: FAIL {sol} field 'cost_model' must be one of ['unit', 'weighted_length'], "
        f"got {shown}\n"
    )
    assert captured.err == ""


def test_solve_oracle_agrees_with_dp(tmp_path):
    inst = tmp_path / "inst.json"
    dp_out = tmp_path / "dp.json"
    oracle_out = tmp_path / "oracle.json"
    main(["gen", "--seed", "11", "--out", str(inst)])
    assert main(["solve", "--instance", str(inst), "--seed", "11", "--out", str(dp_out)]) == 0
    assert (
        main(
            [
                "solve",
                "--instance",
                str(inst),
                "--seed",
                "11",
                "--method",
                "oracle",
                "--out",
                str(oracle_out),
            ]
        )
        == 0
    )
    assert json.loads(dp_out.read_text())["cost"] == json.loads(oracle_out.read_text())["cost"]


def test_solve_files_byte_identical_across_runs(tmp_path):
    inst = tmp_path / "inst.json"
    main(["gen", "--seed", "12", "--out", str(inst)])
    outs = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        assert main(["solve", "--instance", str(inst), "--seed", "12", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_reduce_dump(tmp_path):
    inst = tmp_path / "inst.json"
    red = tmp_path / "red.json"
    main(["gen", "--seed", "13", "--out", str(inst)])
    assert main(["reduce", "--instance", str(inst), "--seed", "13", "--out", str(red)]) == 0
    payload = json.loads(red.read_text())
    assert payload["groups"] and payload["instance_hash"]
    assert payload["T"] > 0


def test_solve_csv_rows_and_records_check(tmp_path):
    # each method appends one row under one header and fills its own cost
    # column; states is a DP counter, blank for the oracle
    inst, csv = tmp_path / "inst.json", tmp_path / "runs.csv"
    main(["gen", "--seed", "21", "--out", str(inst)])
    rows = {}
    for method in ("dp", "oracle"):
        sol, stats = tmp_path / f"{method}.json", tmp_path / f"{method}-stats.json"
        argv = ["solve", "--instance", str(inst), "--seed", "21", "--method", method]
        argv += ["--out", str(sol), "--stats-out", str(stats), "--csv", str(csv)]
        assert main(argv) == 0
        assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 0
        record, counters = json.loads(sol.read_text()), json.loads(stats.read_text())
        assert "wall_ms" not in record
        lines = csv.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == len(rows) + 2
        rows[method] = dict(zip(CSV_HEADER.split(","), lines[-1].split(",")))
        reduction = [str(record[key]) for key in ("n", "P", "K", "shift", "T")]
        assert [rows[method][key] for key in ("n", "P", "K", "shift", "T")] == reduction
        assert rows[method]["seed"] == "21"
        assert rows[method]["ms"] == str(round(counters["wall_ms"]))
    cost = str(json.loads((tmp_path / "dp.json").read_text())["cost"])
    assert (rows["dp"]["dp_cost"], rows["dp"]["oracle_cost"]) == (cost, "")
    assert (rows["oracle"]["dp_cost"], rows["oracle"]["oracle_cost"]) == ("", cost)
    states = json.loads((tmp_path / "dp-stats.json").read_text())["states"]
    assert (rows["dp"]["states"], rows["oracle"]["states"]) == (str(states), "")


def test_solve_empty_instance_costs_zero(tmp_path):
    inst = tmp_path / "empty.json"
    inst.write_text('{"epsilon": "1", "jobs": []}\n')
    sol = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(inst), "--out", str(sol)]) == 0
    record = json.loads(sol.read_text())
    assert record["cost"] == 0 and record["selection"] == []
    assert record["feasible"] is True
    assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 0


def test_solve_matches_verify_on_same_seed(tmp_path):
    # trial i of a verify campaign with base seed s equals gen+solve at s+i
    cfg = CampaignConfig(seed=30, trials=2)
    res = run_campaign(cfg)
    report = res.reports[1]  # seed 31
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    main(["gen", "--seed", "31", "--out", str(inst)])
    main(["solve", "--instance", str(inst), "--seed", "31", "--out", str(sol)])
    record = json.loads(sol.read_text())
    assert record["cost"] == report.oracle_cost == report.dp_cost
    assert tuple(record["selection"]) == report.dp_selection
    assert record["shift"] == report.shift


def test_verify_cli_outputs(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    csv = tmp_path / "trials.csv"
    rc = main(
        [
            "verify",
            "--seed",
            "50",
            "--trials",
            "5",
            "--out",
            str(summary),
            "--csv",
            str(csv),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "5/5 ok" in out
    payload = json.loads(summary.read_text())
    assert payload["verified"] == 5 and payload["failed"] == 0
    assert csv.read_text().startswith(CSV_HEADER)
    # --plot is gone: its nP,states table was two columns of the CSV
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--plot", str(tmp_path / "plot.csv")])
    assert exc.value.code == 2


def test_solve_and_verify_append_csv_rows_under_one_header(tmp_path):
    inst, csv = tmp_path / "inst.json", tmp_path / "runs.csv"
    main(["gen", "--seed", "7", "--out", str(inst)])
    solve = ["solve", "--instance", str(inst), "--seed", "7", "--out", str(tmp_path / "sol.json")]
    assert main(solve + ["--csv", str(csv)]) == 0
    verify = ["verify", "--seed", "7", "--trials", "3", "--csv", str(csv)]
    assert main(verify) == 0
    first = csv.read_text().splitlines()
    assert main(verify) == 0
    lines = csv.read_text().splitlines()
    # verify appends after the solve row, and a second verify appends again
    assert lines[:5] == first and lines.count(CSV_HEADER) == 1 and lines[0] == CSV_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == ["7", "7", "8", "9", "7", "8", "9"]
    # the two verify runs differ in the ms column alone
    untimed = [line.rsplit(",", 1)[0] for line in lines]
    assert untimed[2:5] == untimed[5:]
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["verify", "--seed", "7", "--trials", "1", "--csv", str(empty)]) == 0
    header, row = empty.read_text().splitlines()
    assert (header, row.rsplit(",", 1)[0]) == (CSV_HEADER, untimed[2])


def test_verify_summary_byte_identical_across_workers(tmp_path):
    paths = []
    for workers, name in ((1, "w1.json"), (2, "w2.json")):
        out = tmp_path / name
        rc = main(
            [
                "verify",
                "--seed",
                "60",
                "--trials",
                "4",
                "--workers",
                str(workers),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def test_verify_budget_skips(tmp_path, monkeypatch, capsys):
    # the oracle's node cap, read when it runs, cut to its first node
    monkeypatch.setattr(oracle_mod, "MAX_NODES", 1)
    out = tmp_path / "summary.json"
    rc = main(["verify", "--seed", "70", "--trials", "3", "--out", str(out)])
    assert rc == 0  # skips are not failures
    payload = json.loads(out.read_text())
    assert payload["skipped"] == 3
    assert "3 skipped" in capsys.readouterr().out


def test_verify_regression_capture(tmp_path, monkeypatch):
    import flowcover.harness as harness_mod
    from flowcover.oracle import VerifyReport

    def fake_trial(cfg, trial):
        return VerifyReport(
            seed=cfg.seed + trial,
            K=cfg.K,
            epsilon="1",
            shift=0,
            n=1,
            P=1,
            T=2,
            status="mismatch",
            dp_cost=1,
            oracle_cost=2,
            detail="forced",
            instance_json='{"epsilon": "1", "jobs": []}',
        )

    monkeypatch.setattr(harness_mod, "run_trial", fake_trial)
    regdir = tmp_path / "regressions"
    rc = main(
        [
            "verify",
            "--seed",
            "80",
            "--trials",
            "1",
            "--regression-dir",
            str(regdir),
        ]
    )
    assert rc == 1
    saved = list(regdir.glob("regression_seed*.json"))
    assert len(saved) == 1
    meta = json.loads(saved[0].read_text())
    assert meta["status"] == "mismatch" and meta["seed"] == 80
    assert meta["leaf_len"] == 1


def test_verify_saves_instance_when_dp_raises(tmp_path, monkeypatch, capsys):
    import flowcover.oracle as oracle_mod
    from flowcover.dpsolver import DpError

    def failing_dp(cov):
        raise DpError("solver returned an infeasible selection")

    monkeypatch.setattr(oracle_mod, "dp_solve", failing_dp)
    regdir = tmp_path / "regressions"
    rc = main(["verify", "--seed", "3", "--trials", "2", "--regression-dir", str(regdir)])
    assert rc == 1
    assert "0/2 ok, 2 failed" in capsys.readouterr().out
    saved = sorted(regdir.glob("regression_seed*.json"))
    assert [p.name for p in saved] == ["regression_seed3.json", "regression_seed4.json"]
    meta = json.loads(saved[0].read_text())
    assert meta["status"] == "dp_infeasible" and meta["instance"]["jobs"]


@pytest.mark.parametrize("command", ["reduce", "solve", "verify"])
def test_leaf_len_flag_removed(tmp_path, capsys, command):
    inst = tmp_path / "inst.json"
    main(["gen", "--seed", "3", "--out", str(inst)])
    argv = [command, "--leaf-len", "1"]
    if command != "verify":
        argv += ["--instance", str(inst)]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --leaf-len 1" in capsys.readouterr().err


def test_pipeline_is_not_a_subcommand(tmp_path, capsys):
    # solve writes the answer, its counters (--stats-out) and its CSV row
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--instance", str(tmp_path / "inst.json")])
    assert exc.value.code == 2
    assert "invalid choice: 'pipeline'" in capsys.readouterr().err


def test_epsilon_flag_with_zero_denominator_rejected(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--seed", "3", "--out", str(inst)])
    _assert_one_line_error(
        [
            ["gen", "--epsilon", "1/0"],
            ["verify", "--epsilon", "1/0"],
            *(argv + ["--epsilon", "1/0"] for argv in _instance_commands(inst)[:2]),
        ],
        capsys,
        "epsilon must be a positive fraction such as 1 or 1/2, got '1/0'",
    )


def test_instance_zero_denominator_epsilon_rejected(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--seed", "3", "--out", str(inst)])
    payload = json.loads(inst.read_text())
    payload["epsilon"] = "1/0"
    inst.write_text(json.dumps(payload))
    _assert_one_line_error(
        _instance_commands(inst),
        capsys,
        "field 'epsilon' must be a positive fraction such as 1 or 1/2, got '1/0'",
    )


def test_cli_error_exit_code(tmp_path, capsys):
    rc = main(["solve", "--instance", str(tmp_path / "missing.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_oversized_horizon_is_one_error_line(tmp_path, monkeypatch, capsys):
    # a large K over a long horizon lays out up to K**2 rectangles per chain
    # cell; the allocation's MemoryError is stood in for here
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli_mod, "reduce_instance", out_of_memory)
    inst = tmp_path / "inst.json"
    inst.write_text('{"jobs":[{"id":1,"release":2000000000,"processing":1,"weight":1}]}')
    _assert_one_line_error(
        _instance_commands(inst)[:2],  # check fails on its solution record first
        capsys,
        "out of memory; the reduction has too many rectangles for this K",
    )


def test_huge_release_solves_and_checks(tmp_path, capsys):
    # a release of 2e9 makes a horizon of 2e9; the covering, the scan and
    # the oracle pay per rectangle, not per time step, so it solves at once
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    inst.write_text(
        '{"jobs":[{"id":1,"release":5,"processing":3,"weight":2},'
        '{"id":2,"release":2000000000,"processing":1,"weight":1}]}'
    )
    assert main(["solve", "--K", "2", "--instance", str(inst), "--out", str(sol)]) == 0
    record = json.loads(sol.read_text())
    assert record["T"] > 2_000_000_000 and record["feasible"] is True
    capsys.readouterr()
    assert main(["check", "--instance", str(inst), "--solution", str(sol)]) == 0
    assert capsys.readouterr().out.startswith(f"check: OK cost={record['cost']} ")


def _instance_commands(inst):
    """Every subcommand that reads ``--instance``."""
    return [
        ["reduce", "--instance", str(inst)],
        ["solve", "--instance", str(inst)],
        ["check", "--instance", str(inst), "--solution", str(inst)],
    ]


def _assert_one_line_error(argvs, capsys, message):
    for argv in argvs:
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv


def test_instance_missing_field_names_job_and_key(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--seed", "3", "--out", str(inst)])
    payload = json.loads(inst.read_text())
    del payload["jobs"][1]["weight"]
    inst.write_text(json.dumps(payload))
    _assert_one_line_error(_instance_commands(inst), capsys, "jobs[1]: missing key 'weight'")


def test_instance_string_release_names_job_and_field(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--seed", "3", "--out", str(inst)])
    payload = json.loads(inst.read_text())
    payload["jobs"][0]["release"] = "0"
    inst.write_text(json.dumps(payload))
    _assert_one_line_error(
        _instance_commands(inst),
        capsys,
        "jobs[0]: field 'release' must be an integer, got '0'",
    )


def test_instance_top_level_array_rejected(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--seed", "3", "--out", str(inst)])
    inst.write_text(json.dumps(json.loads(inst.read_text())["jobs"]))
    _assert_one_line_error(
        _instance_commands(inst), capsys, "expected a JSON object with a `jobs` list"
    )
