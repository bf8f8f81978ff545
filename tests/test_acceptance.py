"""Acceptance suite: one test per primary criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
The heavyweight paired campaign (200 instances) runs once and is shared.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest

from flowcover.cli import main
from flowcover.covering import Selection, build_covering, check_feasible
from flowcover.grid import build_grid, root_length
from flowcover.harness import CampaignConfig, campaign_instance, run_campaign
from flowcover.jobs import make_instance, perturb_release_times, total_horizon
from flowcover.oracle import reduce_instance
from helpers import (
    check_nesting,
    job_groups,
    opt_weighted_flow_time,
    ray_rectangles,
    segments_flat,
)

CAMPAIGN = CampaignConfig(
    seed=20_000, trials=200, K=2, n_max=4, p_max=4, w_max=4, horizon_max=64
)


@contextmanager
def criterion(name):
    try:
        holder = {}
        yield holder
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    else:
        note = holder.get("note", "")
        print(f"ACCEPTANCE PASS: {name}{' (' + note + ')' if note else ''}")


@pytest.fixture(scope="module")
def campaign():
    started = time.perf_counter()
    result = run_campaign(CAMPAIGN)
    elapsed = time.perf_counter() - started
    return result, elapsed


def draw_preprocessed(rng, n_max=4):
    """Caps-abiding draw, redrawn until the preprocessed horizon fits 64."""
    while True:
        raw = make_instance(
            [
                (rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 4))
                for _ in range(rng.randint(1, n_max))
            ]
        )
        inst = perturb_release_times(raw, 1)
        if total_horizon(inst) <= 64:
            return inst


def rebuild_covering(report):
    cfg = CAMPAIGN
    cov = reduce_instance(
        campaign_instance(report.seed, cfg),
        cfg.K,
        report.seed,
        cfg.epsilon,
        cfg.cost_model,
    )
    assert cov.grid.shift == report.shift
    return cov


def test_dp_oracle_equivalence(campaign):
    result, elapsed = campaign
    with criterion("dp-oracle equivalence, 200 seeded instances at K=2") as c:
        assert len(result.reports) == 200
        assert result.skipped == 0
        assert not result.failures
        assert result.verified == 200
        for report in result.reports:
            assert report.dp_cost == report.oracle_cost
            assert report.T <= 64 and report.n <= 4
        assert elapsed < 600.0
        c["note"] = f"200/200 exact matches in {elapsed:.1f}s"


def test_dp_solutions_pass_independent_feasibility(campaign):
    result, _ = campaign
    with criterion("feasibility of every DP solution over all O(T^2) intervals") as c:
        violations = 0
        for report in result.reports:
            cov = rebuild_covering(report)
            scan = check_feasible(cov, Selection.of(report.dp_selection))
            violations += len(scan.prefix_violations) + len(scan.demand_violations)
        assert violations == 0
        c["note"] = f"{len(result.reports)} solutions re-scanned, 0 violations"


def test_structural_suite():
    with criterion("structural suite over 100 (instance, K, shift) triples") as c:
        rng = Random(31_000)
        checked = 0
        while checked < 100:
            K = rng.choice([2, 3])
            inst = draw_preprocessed(rng)
            T = total_horizon(inst)
            shift = rng.randrange(root_length(T + 1, K))
            grid = build_grid(T + 1, K, shift=shift)
            for job in inst.jobs:
                groups = job_groups(job, grid)
                flat = segments_flat(groups)
                cursor = job.release
                for a, b in flat:
                    assert a == cursor and b > a
                    cursor = b
                assert cursor == grid.root.end
                lengths = [b - a for a, b in flat]
                assert lengths == sorted(lengths)
                for g in groups:
                    if g.cell.level <= grid.lmax - 2:
                        assert len(g.rectangles) % K == 0 and len(g.rectangles) > 0
            for a in inst.jobs:
                for b in inst.jobs:
                    if a.release <= b.release:
                        assert check_nesting(a, b, grid)
            cov = build_covering(inst, grid)
            for job in inst.jobs:
                strips = sorted((r.x_begin, r.x_end) for r in cov.rectangles if r.job == job.id)
                cursor = job.release
                for x0, x1 in strips:
                    assert x0 == cursor
                    cursor = x1
                assert cursor == grid.root.end
            checked += 1
        c["note"] = f"{checked} triples, all exact"


def test_empty_ray_property():
    with criterion("intervals with no crossed rectangles: d <= 0, s not a release") as c:
        rng = Random(32_000)
        intervals = 0
        for _ in range(40):
            inst = draw_preprocessed(rng)
            T = total_horizon(inst)
            assert T <= 64
            grid = build_grid(T + 1, 2, shift=rng.randrange(root_length(T + 1, 2)))
            cov = build_covering(inst, grid)
            releases = {j.release for j in inst.jobs}
            for t in range(0, T + 1):
                for s in range(0, t + 1):
                    if not ray_rectangles(cov, s, t):
                        assert cov.demand(s, t) <= 0
                        assert s not in releases
                        intervals += 1
        assert intervals > 0
        c["note"] = f"{intervals} empty-ray intervals checked exhaustively"


def test_demand_telescoping():
    with criterion("demand telescoping between consecutive releases") as c:
        rng = Random(33_000)
        checked = 0
        for _ in range(40):
            inst = draw_preprocessed(rng)
            if inst.n < 2:
                continue
            T = total_horizon(inst)
            grid = build_grid(T + 1, 2)
            cov = build_covering(inst, grid)
            jobs = inst.jobs
            for j in range(1, inst.n):
                r_j = jobs[j - 1].release
                r_next = jobs[j].release
                for t in range(r_next, T + 1):
                    lhs = cov.demand(r_j, t)
                    rhs = cov.demand(r_next, t) + jobs[j - 1].processing - r_next + r_j
                    assert lhs == rhs
                    checked += 1
        assert checked > 0
        c["note"] = f"{checked} identities, exact"


def test_preprocessing_cost_bound():
    with criterion("perturbed optimum within (n/eps)(1+eps) of the original, scaled") as c:
        rng = Random(34_000)
        cases = [
            [(0, 2, 1), (0, 2, 3)],
            [(1, 1, 2), (1, 2, 1), (2, 1, 3)],
            [(0, 1, 1), (0, 1, 1), (0, 1, 1)],
            [(3, 2, 4)],
        ]
        while len(cases) < 24:
            n = rng.randint(1, 3)
            cases.append(
                [(rng.randint(0, 2), rng.randint(1, 2), rng.randint(1, 4)) for _ in range(n)]
            )
        checked = 0
        for eps in (Fraction(1), Fraction(1, 2)):
            for triples in cases:
                inst = make_instance(triples, epsilon=eps)
                scaled_inst = perturb_release_times(inst)
                if total_horizon(scaled_inst) > 32:
                    continue
                base = opt_weighted_flow_time(inst)
                scaled = opt_weighted_flow_time(scaled_inst)
                scale = int(inst.n / eps)
                assert scaled <= (scale + inst.n) * base
                checked += 1
        assert checked >= 20
        c["note"] = f"{checked} exact integer comparisons across eps in {{1, 1/2}}"


def test_state_growth_sanity(campaign):
    result, _ = campaign
    with criterion("DP state counts fit a polynomial in nP (reported)") as c:
        points = sorted(
            {(r.n * r.P, r.dp_states) for r in result.reports if r.ok and r.dp_states > 0}
        )
        assert len(points) >= 10
        xs = [math.log(np) for np, _ in points]
        ys = [math.log(states) for _, states in points]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        var_x = sum((x - mean_x) ** 2 for x in xs)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var_x
        intercept = mean_y - slope * mean_x
        max_states = max(s for _, s in points)
        print("\n  nP,states fit table (deduplicated):")
        for np, states in points:
            print(f"    {np},{states}")
        assert math.isfinite(slope) and slope < 8.0
        c["note"] = (
            f"states <= ~e^{intercept:.2f} * (nP)^{slope:.2f}, max {max_states} states"
        )


def test_determinism_byte_identical(tmp_path):
    with criterion("byte-identical artifacts for equal seeds, any worker count") as c:
        inst = tmp_path / "inst.json"
        sols = []
        for name in ("a.json", "b.json"):
            assert main(["gen", "--seed", "777", "--out", str(inst)]) == 0
            out = tmp_path / name
            assert main(
                ["solve", "--instance", str(inst), "--seed", "777", "--out", str(out)]
            ) == 0
            sols.append(out.read_bytes())
        assert sols[0] == sols[1]

        summaries = []
        for workers, name in ((1, "w1.json"), (2, "w2.json")):
            out = tmp_path / name
            assert (
                main(
                    [
                        "verify",
                        "--seed",
                        "888",
                        "--trials",
                        "30",
                        "--workers",
                        str(workers),
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            summaries.append(out.read_bytes())
        assert summaries[0] == summaries[1]
        c["note"] = "solve outputs and 30-trial verify summaries identical"
