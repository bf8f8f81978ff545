import json
from random import Random

import pytest

import flowcover.covering as covering_mod
from flowcover.covering import (
    Selection,
    build_covering,
    check_feasible,
    covering_record,
    selection_cost,
    unit_cost,
)
from flowcover.dpsolver import DpSolver
from flowcover.dpsolver import solve as dp_solve
from flowcover.grid import build_grid, root_length
from flowcover.jobs import make_instance, perturb_release_times, total_horizon
from flowcover.harness import CampaignConfig, campaign_instance
from flowcover.oracle import reduce_instance
from helpers import (
    anchor_job,
    campaign_coverings,
    edf_meets_deadlines,
    full_selection,
    ray_rectangles,
    rects_crossing,
    reference_scan,
    release_of,
)


def cov_for(triples, K=2, shift=0, cost_model="weighted_length"):
    inst = make_instance(triples)
    T = total_horizon(inst)
    grid = build_grid(T, K, shift=shift)
    return build_covering(inst, grid, cost_model=cost_model)


def random_cov(rng, n_max=4, K=2, epsilon=1):
    inst = make_instance(
        [
            (rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 4))
            for _ in range(rng.randint(1, n_max))
        ]
    )
    work = perturb_release_times(inst, epsilon)
    T = total_horizon(work)
    shift = rng.randrange(root_length(T + 1, K))
    grid = build_grid(T + 1, K, shift=shift)
    return build_covering(work, grid)


# -- build_covering -----------------------------------------------------------


def test_one_job_rectangle_count_matches_segments():
    inst = make_instance([(0, 4, 1)])
    grid = build_grid(T=4, K=2, shift=0)
    cov = build_covering(inst, grid)
    assert len(cov.rectangles) == 4
    assert [(r.x_begin, r.x_end) for r in cov.rectangles] == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_empty_instance_gives_empty_covering():
    inst = make_instance([])
    grid = build_grid(T=0, K=2)
    cov = build_covering(inst, grid)
    assert cov.rectangles == () and cov.groups == ()
    assert check_feasible(cov, Selection.of([])).ok


def test_rows_follow_job_index():
    cov = cov_for([(0, 2, 1), (1, 1, 1)])
    rows = {r.job for r in cov.rectangles}
    assert rows == {1, 2}
    for rect in cov.rectangles:
        assert rect.capacity == cov.instance.jobs[rect.job - 1].processing


def test_records_are_immutable():
    cov = cov_for([(0, 2, 1), (1, 1, 1)])
    rect, group = cov.rectangles[0], cov.groups[0]
    for record, name in ((rect, "cost"), (group, "job")):
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        rect.x_begin = 0


def test_rectangles_of_two_builds_equal_and_hash_alike():
    first = cov_for([(0, 2, 1), (3, 1, 2), (4, 3, 1)])
    second = cov_for([(0, 2, 1), (3, 1, 2), (4, 3, 1)])
    assert first.rectangles == second.rectangles
    assert [hash(r) for r in first.rectangles] == [hash(r) for r in second.rectangles]
    assert len(set(first.rectangles) | set(second.rectangles)) == len(first.rectangles)
    # groups hold their build's own cells, which compare by identity
    assert first.groups[0].cell is not second.groups[0].cell
    assert first.groups[0] != second.groups[0]


def test_build_covering_walks_each_cell_chain_once(monkeypatch):
    work = perturb_release_times(make_instance([(0, 2, 1), (1, 3, 2), (1, 1, 1), (4, 2, 3)]), 1)
    grid = build_grid(total_horizon(work) + 1, 3, shift=2)
    walks = []
    walk = covering_mod.cell_chain
    monkeypatch.setattr(
        covering_mod, "cell_chain", lambda grid, x: walks.append(x) or walk(grid, x)
    )
    cov = build_covering(work, grid)
    assert walks == list(cov.releases)  # one walk per job


def test_build_guarantees_what_the_search_and_the_scan_rely_on():
    # CoveringInstance makes its groups off each release's cell chain, so
    # these hold by construction; the DP's bounds and the feasibility scan
    # rely on them
    coverings = 0
    for cov in campaign_coverings(40):
        rects = cov.rectangles
        assert [r.rid for g in cov.groups for r in g.rectangles] == list(range(len(rects)))
        assert [r.job for r in rects] == sorted(r.job for r in rects)  # rows in id order
        for job in cov.instance.jobs:
            row = [r for r in rects if r.job == job.id]
            assert all(r.capacity == job.processing and r.cost >= 1 for r in row)
            # the row tiles [r_j, end(root)) left to right
            assert all(r.x_begin < r.x_end for r in row)
            assert [r.x_begin for r in row] == [job.release] + [r.x_end for r in row[:-1]]
            assert row[-1].x_end == cov.grid.root.end
        coverings += 1
    assert coverings == 4 * 2 * 40


def test_duplicate_releases_rejected():
    inst = make_instance([(1, 1, 1), (1, 1, 1)])
    grid = build_grid(T=3, K=2)
    with pytest.raises(ValueError, match="distinct"):
        build_covering(inst, grid)


def test_cost_models():
    inst = make_instance([(0, 2, 3)])
    grid = build_grid(T=8, K=2)
    weighted = build_covering(inst, grid)
    assert [r.cost for r in weighted.rectangles] == [3, 3, 3, 3, 6, 6]
    assert all(r.cost == 3 * (r.x_end - r.x_begin) for r in weighted.rectangles)
    unit = build_covering(inst, grid, cost_model="unit")
    assert [r.cost for r in unit.rectangles] == [1] * 6
    for model in ("nope", unit_cost):
        with pytest.raises(ValueError, match="unknown cost model"):
            build_covering(inst, grid, cost_model=model)


def test_cost_model_that_is_no_name_rejected():
    # a list is unhashable and a tuple is no name: both get the ValueError
    inst = make_instance([(0, 2, 3)])
    grid = build_grid(T=8, K=2)
    for model in (["unit"], ("unit",), ("weighted_length", "unit")):
        with pytest.raises(ValueError, match=r"unknown cost model [\[(]'"):
            build_covering(inst, grid, cost_model=model)


# -- demand ---------------------------------------------------------------------


def naive_demand(inst, s, t):
    """Reference d([s, t]): processing released within [s, t] minus (t - s)."""
    return sum(j.processing for j in inst.jobs if s <= j.release <= t) - (t - s)


def test_demand_examples():
    cov = cov_for([(0, 3, 1), (1, 2, 1)])
    assert cov.demand(0, 4) == 1
    assert cov.demand(2, 4) == -2
    assert cov.demand(0, 0) == 3


def test_demand_bounds():
    cov = cov_for([(0, 3, 1), (1, 2, 1)])
    assert cov.horizon == 6
    with pytest.raises(ValueError):
        cov.demand(3, 2)
    with pytest.raises(ValueError):
        cov.demand(0, 7)
    with pytest.raises(ValueError):
        cov.demand(-1, 2)


def test_release_of_checks_its_range():
    cov = cov_for([(0, 2, 1), (3, 1, 1)])
    assert [release_of(cov, j) for j in (1, 2)] == [0, 3]
    assert release_of(cov, 3) == cov.horizon + 1  # the sentinel row n+1
    for job in (0, -1, 4):
        with pytest.raises(ValueError, match=rf"job {job} outside 1\.\.3"):
            release_of(cov, job)


def test_demand_matches_instance_method():
    rng = Random(5)
    for _ in range(20):
        cov = random_cov(rng)
        inst = cov.instance
        for t in range(0, cov.horizon + 1):
            for s in range(0, t + 1):
                assert cov.demand(s, t) == naive_demand(inst, s, t)


def test_demand_window_shift_independent_of_t():
    # d([s', t]) - d([s, t]) depends only on the releases in [s', s)
    rng = Random(6)
    for _ in range(10):
        cov = random_cov(rng, n_max=3)
        inst = cov.instance
        for s in range(1, min(cov.horizon, 12) + 1):
            for sp in range(0, s):
                expect = sum(
                    j.processing for j in inst.jobs if sp <= j.release < s
                ) - (s - sp)
                for t in range(s, cov.horizon + 1):
                    assert cov.demand(sp, t) - cov.demand(s, t) == expect


# -- rays -------------------------------------------------------------------------


def test_ray_rectangles_anchor_row():
    cov = cov_for([(0, 3, 1), (1, 2, 1)])
    rects = ray_rectangles(cov, 1, 3)
    assert rects and all(r.job == 2 for r in rects)
    assert all(r.x_begin <= 3 < r.x_end for r in rects)


def test_ray_rectangles_vacuous_without_anchor():
    cov = cov_for([(0, 3, 1), (1, 2, 1)])
    assert ray_rectangles(cov, 2, 4) == ()


def test_ray_rectangles_at_most_one_per_job():
    rng = Random(9)
    for _ in range(15):
        cov = random_cov(rng)
        for t in range(0, cov.horizon + 1):
            for s in range(0, t + 1):
                per_job: dict[int, int] = {}
                for r in ray_rectangles(cov, s, t):
                    per_job[r.job] = per_job.get(r.job, 0) + 1
                assert all(count == 1 for count in per_job.values())


def test_empty_ray_intervals_have_nonpositive_demand_and_no_release_start():
    rng = Random(10)
    for _ in range(15):
        cov = random_cov(rng)
        releases = set(j.release for j in cov.instance.jobs)
        for t in range(0, cov.horizon + 1):
            for s in range(0, t + 1):
                if not ray_rectangles(cov, s, t):
                    assert cov.demand(s, t) <= 0
                    assert s not in releases


def test_rectangles_tile_each_job_strip():
    rng = Random(12)
    for _ in range(15):
        cov = random_cov(rng)
        for job in cov.instance.jobs:
            intervals = sorted(
                (r.x_begin, r.x_end) for r in cov.rectangles if r.job == job.id
            )
            cursor = job.release
            for a, b in intervals:
                assert a == cursor and b > a
                cursor = b
            assert cursor == cov.grid.root.end


# -- feasibility and cost -----------------------------------------------------------


def test_empty_selection_ok_iff_all_demands_nonpositive():
    # only the empty instance has no positive-demand window (each job forces
    # d([r_j, r_j]) = p_j > 0), and there the empty selection is feasible
    empty = build_covering(make_instance([]), build_grid(T=0, K=2))
    assert check_feasible(empty, Selection.of([])).ok

    cov = cov_for([(0, 1, 1), (3, 1, 1)])
    report = check_feasible(cov, Selection.of([]))
    assert not report.ok
    assert {(v.s, v.t) for v in report.demand_violations} == {(0, 0), (3, 3)}


def test_full_selection_always_feasible():
    rng = Random(14)
    for _ in range(25):
        cov = random_cov(rng)
        assert check_feasible(cov, full_selection(cov)).ok


def test_prefix_violation_reported():
    cov = cov_for([(0, 4, 1)])
    group = next(g for g in cov.groups if len(g.rectangles) >= 2)
    sel = Selection.of([group.rectangles[1].rid])
    report = check_feasible(cov, sel)
    assert any(
        v.job == group.job and v.selected_positions == (1,) for v in report.prefix_violations
    )


@pytest.mark.parametrize("K", [2, 3, 4])
def test_feasibility_matches_edf_on_selection_deadlines(K):
    # a selection keeps row j alive up to D_j, the right end of its
    # rightmost selected rectangle (r_j when none is); its closure C takes
    # every rectangle of row j ending by D_j.  C covers every ray exactly
    # when EDF meets every deadline D_j, and a feasible selection lies in
    # its closure, so EDF meets its deadlines too
    rng = Random(K)
    checked = feasible = 0
    for seed in range(60):
        cov = reduce_instance(campaign_instance(seed, CampaignConfig(K=K, n_max=4)), K, seed)
        selections = [dp_solve(cov).selection] + [
            Selection.of(
                r.rid for g in cov.groups for r in g.rectangles[: rng.randint(0, len(g.rectangles))]
            )
            for _ in range(20)
        ]
        for selection in selections:
            chosen = [cov.rectangles[rid] for rid in selection.chosen]
            deadline = {
                job.id: max((r.x_end for r in chosen if r.job == job.id), default=job.release)
                for job in cov.instance.jobs
            }
            closure = Selection.of(r.rid for r in cov.rectangles if r.x_end <= deadline[r.job])
            edf = edf_meets_deadlines(
                [(job.release, job.processing, deadline[job.id]) for job in cov.instance.jobs]
            )
            closure_ok = check_feasible(cov, closure).ok
            assert closure_ok == edf, (seed, selection.sorted_ids())
            if check_feasible(cov, selection).ok:
                assert edf, (seed, selection.sorted_ids())
            checked += 1
            feasible += closure_ok
    # both outcomes occur often
    assert checked == 60 * 21 and 300 < feasible < checked


def test_edf_meets_deadlines_examples():
    assert edf_meets_deadlines([])
    assert edf_meets_deadlines([(0, 2, 2), (1, 1, 3)])
    assert not edf_meets_deadlines([(0, 2, 2), (1, 1, 2)])
    # EDF runs the later-released job first when its deadline is earlier
    assert edf_meets_deadlines([(0, 3, 5), (1, 1, 2)])
    assert not edf_meets_deadlines([(0, 1, 0)])


def test_rays_starting_at_releases_dominate():
    # the binding-ray rule of the covering module docstring, ray by ray
    rng = Random(31)
    dominated = nonpositive = 0
    for trial in range(30):
        cov = random_cov(rng, n_max=5, K=2 if trial % 2 else 3)
        for t in range(cov.horizon + 1):
            for s in range(t + 1):
                j = anchor_job(cov, s)
                r_j = release_of(cov, j) if j is not None else None
                if r_j is not None and r_j <= t:
                    assert ray_rectangles(cov, s, t) == ray_rectangles(cov, r_j, t)
                    assert cov.demand(s, t) == cov.demand(r_j, t) - (r_j - s)
                    dominated += s < r_j
                else:
                    assert cov.demand(s, t) <= 0
                    nonpositive += 1
    assert dominated and nonpositive


def naive_scan(cov, sel):
    """Demand violations from one ``cov.demand``/``anchor_job`` pair per ray."""
    violations = []
    for t in range(cov.horizon + 1):
        for s in range(t + 1):
            need = cov.demand(s, t)
            if need <= 0:
                continue
            assert anchor_job(cov, s) is not None
            got = sum(r.capacity for r in ray_rectangles(cov, s, t) if r.rid in sel.chosen)
            if got < need:
                violations.append((s, t, need, got))
    return violations


def test_check_feasible_matches_naive_scan():
    rng = Random(2024)
    infeasible = 0
    for trial in range(60):
        cov = random_cov(rng, n_max=5, K=2 if trial % 2 else 3)
        # each rectangle kept with probability q: mostly infeasible, some not
        q = rng.choice([0.0, 0.3, 0.6, 0.9, 1.0])
        sel = Selection.of(r.rid for r in cov.rectangles if rng.random() < q)
        report = check_feasible(cov, sel)
        got = [(v.s, v.t, v.required, v.covered) for v in report.demand_violations]
        assert got == naive_scan(cov, sel)
        infeasible += bool(got)
    assert 20 <= infeasible < 60


def test_check_feasible_matches_naive_scan_one_rectangle_short():
    # The full selection minus one rectangle fails in one or two anchor
    # blocks, at their edges: s at a release, s just past the previous
    # release, and s = t must all show up.
    rng = Random(77)
    releases_hit = after_release_hit = at_t_hit = 0
    covs = []
    while len(covs) < 2:
        cov = random_cov(rng, n_max=5, K=2, epsilon="1/2")
        if cov.horizon > 100:
            covs.append(cov)
    covs += [random_cov(rng, n_max=5, K=3) for _ in range(6)]
    for cov in covs:
        releases = [j.release for j in cov.instance.jobs]
        full = full_selection(cov).chosen
        for rect in cov.rectangles:
            if rect.x_begin > cov.horizon:
                continue  # crossed by no ray: the selection stays feasible
            sel = Selection.of(full - {rect.rid})
            report = check_feasible(cov, sel)
            got = [(v.s, v.t, v.required, v.covered) for v in report.demand_violations]
            assert got == naive_scan(cov, sel)
            for s, t, _, _ in got:
                releases_hit += s in releases
                after_release_hit += any(s == r + 1 for r in releases)
                at_t_hit += s == t
    assert releases_hit and after_release_hit and at_t_hit


def naive_prefix(cov, sel):
    """Prefix violations from each group's selected positions, group by group."""
    violations = []
    for g in cov.groups:
        positions = tuple(i for i, r in enumerate(g.rectangles) if r.rid in sel.chosen)
        if positions != tuple(range(len(positions))):
            violations.append((g.job, g.cell.begin, g.cell.end, positions))
    return violations


def assert_report_matches_naive(cov, sel):
    """The whole report equals the naive references, order included."""
    report = check_feasible(cov, sel)
    got_prefix = [
        (v.job, v.cell_begin, v.cell_end, v.selected_positions) for v in report.prefix_violations
    ]
    got_demand = [(v.s, v.t, v.required, v.covered) for v in report.demand_violations]
    assert got_prefix == naive_prefix(cov, sel)
    assert got_demand == naive_scan(cov, sel)
    return report


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("cost_model", ["weighted_length", "unit"])
@pytest.mark.parametrize("epsilon", ["1", "1/2"])
def test_check_feasible_report_matches_naive_references(K, cost_model, epsilon):
    # empty, full, random densities, the DP's selection and the DP's
    # selection minus each id, on small reduced instances
    rng = Random(f"{K}-{cost_model}-{epsilon}")
    kinds = dict.fromkeys(["prefix", "demand", "ok"], 0)
    for trial in range(2):
        inst = make_instance(
            [(rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 3))
             for _ in range(rng.randint(1, 3))]
        )
        cov = reduce_instance(inst, K, trial, epsilon, cost_model)
        ids = [r.rid for r in cov.rectangles]
        dp = sorted(DpSolver(cov).solve().selection.chosen)
        selections = [[], ids, dp] + [[x for x in dp if x != y] for y in dp]
        selections += [[x for x in ids if rng.random() < q] for q in (0.2, 0.5, 0.8)]
        for chosen in selections:
            report = assert_report_matches_naive(cov, Selection.of(chosen))
            kinds["prefix"] += bool(report.prefix_violations)
            kinds["demand"] += bool(report.demand_violations)
            kinds["ok"] += report.ok
    assert all(kinds.values())


def test_check_feasible_equals_the_per_column_reference_scan():
    # The scan over runs of columns returns the whole report of the scan
    # column by column: on the DP's answers, the answers with each group's
    # take moved by -2..+1, random id subsets (mostly breaking a prefix) and
    # selections holding ids outside the covering.
    rng = Random(30)
    kinds = dict.fromkeys(["prefix", "demand", "ok", "outside"], 0)
    checked = 0
    for cov in campaign_coverings(80, fans=(2, 3, 5, 8)):
        ids, n_rects = [r.rid for r in cov.rectangles], len(cov.rectangles)
        answer = DpSolver(cov).solve().selection.chosen
        selections = [answer, frozenset(), frozenset(ids)]
        for group in cov.groups:
            first, size = group.rectangles[0].rid, len(group.rectangles)
            take = sum(first + i in answer for i in range(size))
            others = answer.difference(range(first, first + size))
            for move in (-2, -1, 1):
                new = min(max(take + move, 0), size)
                selections.append(others.union(range(first, first + new)))
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            selections.append(frozenset(i for i in ids if rng.random() < q))
        selections += [
            answer | {-1},
            answer | {n_rects},
            frozenset(i for i in ids if rng.random() < 0.5) | {n_rects + 3, -5},
        ]
        for chosen in selections:
            sel = Selection(chosen=chosen)
            report = check_feasible(cov, sel)
            assert report == reference_scan(cov, sel)
            kinds["prefix"] += bool(report.prefix_violations)
            kinds["demand"] += bool(report.demand_violations)
            kinds["ok"] += report.ok
            kinds["outside"] += not chosen.issubset(ids)
            checked += 1
    assert checked >= 20_000 and min(kinds.values()) >= 1_000, (checked, kinds)


def test_check_feasible_at_the_horizon_edge():
    # One job, released at 5 with p = 3, so T = 8, on the grid over [0, 16):
    # rectangles [5, 6), then [6, 7) [7, 8), then [8, 12), which starts at T
    # and runs past the horizon, and [12, 16), wholly past it.  Every subset
    # is judged against the naive references.
    inst = make_instance([(5, 3, 1)])
    assert total_horizon(inst) == 8
    cov = build_covering(inst, build_grid(16, 2))
    spans = [[(r.x_begin, r.x_end) for r in g.rectangles] for g in cov.groups]
    assert spans == [[(5, 6)], [(6, 7), (7, 8)], [(8, 12), (12, 16)]]
    n = len(cov.rectangles)
    outcomes = {}
    for mask in range(1 << n):
        chosen = [i for i in range(n) if mask >> i & 1]
        report = assert_report_matches_naive(cov, Selection.of(chosen))
        outcomes[tuple(chosen)] = [(v.s, v.t) for v in report.demand_violations]
    # d(5, t) = 3 - (t - 5) binds at t = 5, 6, 7, and d(s, t) = d(5, t) - (5 - s)
    short_5 = [(3, 5), (4, 5), (5, 5)]
    short_6 = [(4, 6), (5, 6)]
    short_7 = [(5, 7)]
    assert outcomes[()] == short_5 + short_6 + short_7
    assert outcomes[(0,)] == short_6 + short_7
    assert outcomes[(0, 1)] == short_7
    assert outcomes[(0, 1, 2)] == outcomes[(0, 1, 2, 3, 4)] == []
    assert outcomes[(1, 2, 3, 4)] == short_5
    assert outcomes[(0, 1, 2, 4)] == []  # [8, 12) crosses no ray that binds
    prefix = check_feasible(cov, Selection.of([0, 1, 2, 4])).prefix_violations
    assert [(v.cell_begin, v.cell_end, v.selected_positions) for v in prefix] == [(0, 16, (1,))]


def test_rects_crossing_built_on_first_use():
    # the index matches the rectangles through t + 1/2, in row order, and a
    # DP solve or a feasibility scan never builds it
    rng = Random(404)
    for trial in range(20):
        cov = random_cov(rng, n_max=5, K=2 + trial % 3)
        assert "_crossing" not in vars(cov)
        result = DpSolver(cov).solve()
        check_feasible(cov, result.selection)
        check_feasible(cov, full_selection(cov))
        assert "_crossing" not in vars(cov)
        for t in range(-2, cov.horizon + 3):
            through = tuple(
                r for r in cov.rectangles if r.x_begin <= t < r.x_end and 0 <= t <= cov.horizon
            )
            assert rects_crossing(cov, t) == through
            assert [r.job for r in through] == sorted(r.job for r in through)
        assert "_crossing" in vars(cov)


def test_selection_cost_examples():
    inst = make_instance([(0, 2, 3)])
    grid = build_grid(T=2, K=2)
    cov = build_covering(inst, grid, cost_model="unit")
    assert selection_cost(cov, Selection.of([])) == 0
    assert selection_cost(cov, Selection.of([0])) == 1
    assert selection_cost(cov, full_selection(cov)) == 2
    total = selection_cost(cov, full_selection(cov))
    parts = sum(selection_cost(cov, Selection.of([r.rid])) for r in cov.rectangles)
    assert total == parts
    with pytest.raises(KeyError):
        selection_cost(cov, Selection.of([99]))


def test_covering_json_dump():
    cov = cov_for([(0, 2, 1), (1, 1, 1)])
    payload = covering_record(cov)
    assert json.loads(json.dumps(payload)) == payload
    # the reduction's own fields (T, K, shift) are added by ``reduce``
    assert set(payload) == {"groups", "leaf_len"}
    ids = [r["id"] for g in payload["groups"] for r in g["rectangles"]]
    assert ids == sorted(ids)
