from fractions import Fraction
from itertools import product
from random import Random

import pytest

import flowcover.oracle as oracle_mod
from flowcover.covering import (
    Selection,
    build_covering,
    check_feasible,
    selection_cost,
)
from flowcover.dpsolver import DpError
from flowcover.grid import build_grid, root_length
from flowcover.harness import CampaignConfig, campaign_instance, run_campaign
from flowcover.jobs import make_instance, perturb_release_times, total_horizon
from flowcover.oracle import (
    OracleBudgetExceeded,
    brute_force_covering,
    derive_shift,
    reduce_instance,
    verify_pair,
)
from helpers import ray_rectangles


def cov_for(triples, K=2, shift=0):
    inst = make_instance(triples)
    grid = build_grid(total_horizon(inst), K, shift=shift)
    return build_covering(inst, grid)


def random_cov(rng, K=2, cost_model="weighted_length", n_min=1, p_max=3):
    inst = make_instance(
        [
            (rng.randint(0, 3), rng.randint(1, p_max), rng.randint(1, 3))
            for _ in range(rng.randint(n_min, 3))
        ]
    )
    work = perturb_release_times(inst, 1)
    T = total_horizon(work)
    grid = build_grid(T + 1, K, shift=rng.randrange(root_length(T + 1, K)))
    return build_covering(work, grid, cost_model=cost_model)


def test_empty_instance_yields_empty_minimum():
    cov = build_covering(make_instance([]), build_grid(T=0, K=2))
    cost, sel = brute_force_covering(cov)
    assert cost == 0 and sel.chosen == frozenset()


def test_single_group_prefix_enumeration():
    # one job on the root [0, 3) over three unit leaves: a group of one
    # rectangle in its leaf, a group of two in the root; the rays [0, 0] and
    # [0, 1] need the first rectangle of each group, [0, 2] needs nothing
    cov = cov_for([(0, 2, 1)], K=3)
    assert [len(g.rectangles) for g in cov.groups] == [1, 2]
    assert [(r.x_begin, r.x_end) for r in cov.rectangles] == [(0, 1), (1, 2), (2, 3)]
    cost, sel = brute_force_covering(cov)
    assert sel.sorted_ids() == (0, 1)
    assert cost == 2
    assert check_feasible(cov, sel).ok


def test_oracle_matches_feasibility_and_is_minimal():
    rng = Random(55)
    for _ in range(25):
        cov = random_cov(rng)
        cost, sel = brute_force_covering(cov)
        assert check_feasible(cov, sel).ok
        assert selection_cost(cov, sel) == cost
        # dropping the last element of any selected prefix must break
        # feasibility: all costs are positive, so a cheaper subset cannot
        # stay feasible below the reported optimum
        for group in cov.groups:
            chosen = [r.rid for r in group.rectangles if r.rid in sel.chosen]
            if not chosen:
                continue
            reduced = Selection.of(sel.chosen - {chosen[-1]})
            assert not check_feasible(cov, reduced).ok


def test_oracle_matches_unpruned_enumeration():
    # every prefix combination, judged by the feasibility scan alone: the
    # oracle's pruning and its choice of rays must not change the minimum,
    # nor, under unit costs where ties are common, the tie-break.  Two rows
    # or more, so that rays cross several groups; at K=4 only processing 1
    # keeps two rows under the size cap
    rng = Random(8)
    kinds = [(K, cost_model) for K in (2, 3, 4) for cost_model in ("weighted_length", "unit")]
    checked = 0
    largest = 0
    ties = 0
    while checked < 60:
        K, cost_model = kinds[checked % len(kinds)]
        cov = random_cov(rng, K=K, cost_model=cost_model, n_min=2, p_max=1 if K == 4 else 3)
        choices = [range(len(g.rectangles) + 1) for g in cov.groups]
        size = 1
        for c in choices:
            size *= len(c)
        if size > 400:
            continue
        feasible = []
        for takes in product(*choices):
            sel = Selection.of(
                r.rid for g, take in zip(cov.groups, takes) for r in g.rectangles[:take]
            )
            if check_feasible(cov, sel).ok:
                feasible.append((selection_cost(cov, sel), sel.sorted_ids()))
        best = min(feasible)
        cost, sel = brute_force_covering(cov)
        assert (cost, sel.sorted_ids()) == best
        checked += 1
        largest = max(largest, size)
        ties += [c for c, _ in feasible].count(best[0]) > 1
    assert largest > 100 and ties


# Search nodes of the campaign draws with seeds 0..9 (n <= 3), per (K, cost
# model): the least max_combinations that does not raise.  Every ray is
# checked at every group it crosses, with its later groups taken in full
# (the oracle docstring), so the search cuts each subtree whose prefix no
# completion can make feasible.  A change to how a node finds its takes
# must leave every count as it is, and a change to which rays it checks
# must move none of them up.
SEARCH_NODES = {
    (2, "weighted_length"): (8, 3, 3, 5, 3, 64, 131, 11, 4, 69),
    (2, "unit"): (12, 3, 3, 5, 3, 196, 249, 19, 4, 44),
    (3, "weighted_length"): (65, 3, 3, 3, 3, 122, 25, 20, 4, 41),
    (3, "unit"): (78, 3, 3, 3, 3, 16452, 204, 54, 4, 30),
}


@pytest.mark.parametrize("K, cost_model", sorted(SEARCH_NODES))
def test_search_visits_the_pinned_nodes(K, cost_model, monkeypatch):
    cfg = CampaignConfig(K=K, n_max=3, cost_model=cost_model)
    for seed, nodes in enumerate(SEARCH_NODES[K, cost_model]):
        cov = reduce_instance(campaign_instance(seed, cfg), K, seed, cost_model=cost_model)
        monkeypatch.setattr(oracle_mod, "MAX_NODES", nodes)
        brute_force_covering(cov)
        monkeypatch.setattr(oracle_mod, "MAX_NODES", nodes - 1)
        with pytest.raises(OracleBudgetExceeded, match="nodes"):
            brute_force_covering(cov)


def test_unit_cost_campaign_breaks_ties_alike():
    # unit costs make equal-cost selections common; verify_pair fails a trial
    # whose DP and oracle return different selections of the same cost
    result = run_campaign(CampaignConfig(seed=0, trials=60, K=2, n_max=3, cost_model="unit"))
    assert [(r.seed, r.status) for r in result.reports] == [(seed, "ok") for seed in range(60)]


def test_no_feasible_selection_raises_not_asserts(monkeypatch):
    # demands past every capacity break the invariant that the full selection
    # is feasible; under python -O too, the oracle must say so
    cov = reduce_instance(make_instance([(0, 2, 1), (1, 1, 1)]), K=2, seed=0)
    # the oracle reads d(r_j, x) = excess[x] - row_offset[j - 1] at each run
    # start x: 100 everywhere
    monkeypatch.setattr(cov, "excess", dict.fromkeys(cov.excess, 100))
    monkeypatch.setattr(cov, "row_offset", [0] * len(cov.row_offset))
    with pytest.raises(RuntimeError, match="no feasible selection"):
        brute_force_covering(cov)


def test_rays_on_one_rectangle_set_keep_the_larger_need():
    # perturbed, job 1 is (r=1, p=4) and job 2 is (r=2, p=6); the rays [1, 4]
    # to [1, 10] all cross rectangle 3 (row 1, capacity 4) and rectangle 7
    # (row 2, capacity 6) with needs 7 down to 1; need 6 and below are met by
    # rectangle 7, which the ray [2, 4] needs anyway, and only need 7 asks
    # for rectangle 3 (cost 8) on top
    cov = reduce_instance(make_instance([(0, 2, 1), (0, 3, 2)]), K=2, seed=0)
    assert [j.release for j in cov.instance.jobs] == [1, 2]
    rays = [(cov.demand(1, t), ray_rectangles(cov, 1, t)) for t in range(4, 11)]
    assert {tuple(r.rid for r in rects) for _, rects in rays} == {(3, 7)}
    assert [need for need, _ in rays] == [7, 6, 5, 4, 3, 2, 1]
    cost, sel = brute_force_covering(cov)
    assert (cost, sel.sorted_ids()) == (31, (0, 1, 2, 3, 5, 6, 7))
    assert check_feasible(cov, sel).ok
    assert not check_feasible(cov, Selection.of(sel.chosen - {3})).ok


def test_oracle_deterministic():
    cov = cov_for([(0, 3, 2), (2, 1, 1)])
    first = brute_force_covering(cov)
    second = brute_force_covering(cov)
    assert first[0] == second[0]
    assert first[1].sorted_ids() == second[1].sorted_ids()


def test_budget_node_cap(monkeypatch):
    cov = cov_for([(0, 3, 1), (1, 2, 1)])
    monkeypatch.setattr(oracle_mod, "MAX_NODES", 1)
    with pytest.raises(OracleBudgetExceeded, match="nodes"):
        brute_force_covering(cov)


def test_budget_group_cap(monkeypatch):
    cov = cov_for([(0, 3, 1), (1, 2, 1)])
    monkeypatch.setattr(oracle_mod, "MAX_GROUPS", 1)
    with pytest.raises(OracleBudgetExceeded, match="groups"):
        brute_force_covering(cov)


def test_derive_shift_seeded_and_in_range():
    assert derive_shift(10, 2, seed=3) == derive_shift(10, 2, seed=3)
    for seed in range(40):
        assert 0 <= derive_shift(10, 2, seed) < root_length(10, 2)


# -- verify_pair -----------------------------------------------------------------


def test_verify_pair_single_unit_job():
    report = verify_pair(make_instance([(0, 1, 1)]), K=2, seed=1)
    assert report.ok
    assert report.dp_cost == report.oracle_cost


def test_verify_pair_small_instances_agree():
    rng = Random(2024)
    for seed in range(15):
        inst = make_instance(
            [
                (rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 3))
                for _ in range(3)
            ]
        )
        report = verify_pair(inst, K=2, seed=seed)
        assert report.ok, report
        assert report.dp_cost == report.oracle_cost
        assert report.n == 3 and report.T > 0


def test_verify_pair_accepts_duplicate_releases():
    report = verify_pair(make_instance([(2, 1, 1), (2, 2, 1)]), K=2, seed=5)
    assert report.ok


def test_verify_pair_epsilon_override():
    inst = make_instance([(0, 1, 1), (1, 1, 1)])
    report = verify_pair(inst, K=2, seed=0, epsilon=Fraction(1, 2))
    assert report.ok and report.epsilon == "1/2"
    assert report.P == 4  # processing scaled by n/eps = 4


def test_verify_pair_budget_skip(monkeypatch):
    inst = make_instance([(0, 2, 1), (1, 1, 1)])
    monkeypatch.setattr(oracle_mod, "MAX_NODES", 1)
    report = verify_pair(inst, K=2, seed=0)
    assert report.skipped and report.status == "skipped_budget"
    assert report.oracle_cost is None
    assert report.dp_cost is not None  # the DP side still ran


def test_verify_pair_mismatch_report(monkeypatch):
    inst = make_instance([(0, 2, 1), (1, 1, 1)])

    def wrong_oracle(cov):
        return 0, Selection.of([])

    monkeypatch.setattr(oracle_mod, "brute_force_covering", wrong_oracle)
    report = verify_pair(inst, K=2, seed=0)
    assert report.status in ("mismatch", "oracle_infeasible")
    assert report.instance_json is not None and '"jobs"' in report.instance_json
    assert report.dp_selection is not None and report.oracle_selection is not None
    assert not report.ok


def test_verify_pair_reports_a_tie_broken_apart(monkeypatch):
    # under unit costs (0, 1, 2, 3, 6, 7) and (0, 1, 2, 6, 7, 8) both cost 6;
    # the lexicographically smaller one is the answer of both solvers
    inst = make_instance([(0, 2, 1), (1, 1, 1)])
    report = verify_pair(inst, K=2, seed=2, cost_model="unit")
    assert report.ok and report.dp_selection == (0, 1, 2, 3, 6, 7)

    def other_tie(cov):
        return 6, Selection.of([0, 1, 2, 6, 7, 8])

    monkeypatch.setattr(oracle_mod, "brute_force_covering", other_tie)
    report = verify_pair(inst, K=2, seed=2, cost_model="unit")
    assert report.status == "mismatch" and report.detail == "tie broken apart at cost 6"
    assert report.oracle_selection == (0, 1, 2, 6, 7, 8)
    assert report.instance_json is not None


def test_verify_pair_scans_only_an_oracle_selection_that_differs(monkeypatch):
    # the DP's selection passed the scan inside its solve, so the oracle's
    # is scanned again only when it is another selection
    inst = make_instance([(0, 2, 1), (1, 1, 1)])
    scanned = []
    scan = oracle_mod.check_feasible
    monkeypatch.setattr(
        oracle_mod, "check_feasible", lambda cov, sel: scanned.append(sel) or scan(cov, sel)
    )
    assert verify_pair(inst, K=2, seed=0).ok and scanned == []

    def infeasible_oracle(cov):
        return 0, Selection.of([])

    monkeypatch.setattr(oracle_mod, "brute_force_covering", infeasible_oracle)
    report = verify_pair(inst, K=2, seed=0)
    assert report.status == "oracle_infeasible" and scanned == [Selection.of([])]
    assert report.instance_json is not None


def test_verify_pair_reports_dp_error_as_dp_infeasible(monkeypatch):
    inst = make_instance([(0, 2, 1), (1, 1, 1)])

    def failing_dp(cov):
        raise DpError("solver returned an infeasible selection")

    monkeypatch.setattr(oracle_mod, "dp_solve", failing_dp)
    report = verify_pair(inst, K=2, seed=0)
    assert report.status == "dp_infeasible" and not report.ok and not report.skipped
    assert "infeasible selection" in report.detail
    assert report.instance_json is not None and '"jobs"' in report.instance_json
