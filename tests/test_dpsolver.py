import hashlib
import sys
from functools import cache
from fractions import Fraction
from operator import gt
from random import Random

import pytest

from flowcover.covering import (
    COST_MODELS,
    build_covering,
    check_feasible,
    selection_cost,
)
from flowcover.dpsolver import (
    ZERO,
    DpError,
    DpSolver,
    TripleTable,
    solve,
)
from flowcover.grid import GridCell, build_grid, cell_at, root_length
from flowcover.harness import CampaignConfig, campaign_instance
from flowcover.jobs import Job, make_instance, perturb_release_times, total_horizon
from flowcover.oracle import brute_force_covering, reduce_instance, reduction_grid
from helpers import (
    area_begin,
    area_holds_rectangle,
    campaign_coverings,
    clamp,
    dense_carry,
    group_at,
    is_canonical,
    job_groups,
    next_carry,
    rects_crossing,
    release_of,
    step_over_top_child,
    subcells,
    table_areas,
    table_of,
)


def cov_for(triples, K=2, shift=0, T=None):
    inst = make_instance(triples)
    horizon = T if T is not None else total_horizon(inst)
    grid = build_grid(horizon, K, shift=shift)
    return build_covering(inst, grid)


def random_cov(rng, K, n_max=4, p_max=4):
    inst = make_instance(
        [
            (rng.randint(0, p_max), rng.randint(1, p_max), rng.randint(1, 4))
            for _ in range(rng.randint(1, n_max))
        ]
    )
    work = perturb_release_times(inst, 1)
    T = total_horizon(work)
    shift = rng.randrange(root_length(T + 1, K))
    grid = build_grid(T + 1, K, shift=shift)
    return build_covering(work, grid)


def _area(solver, job, cell, k):
    """The table of the area (cell, k) from row ``job`` down, built by the
    solver's area builder at depth 0."""
    return solver._area(job, cell, area_begin(cell, k, solver.grid.K), 0)


# -- area ---------------------------------------------------------------------


def test_area_internal_cell():
    grid = build_grid(T=8, K=2)
    assert (area_begin(grid.root, 2, grid.K), grid.root.end) == (4, 8)


def test_area_leaf_cell():
    grid = build_grid(T=8, K=2)
    leaf = cell_at(grid, grid.lmax, 4)  # [4, 5)
    assert (area_begin(leaf, 1, grid.K), leaf.end) == (4, 5)


def test_area_empty_for_oversized_k():
    # a unit leaf has one area, k = 1; an internal cell has K
    grid = build_grid(T=9, K=3)
    leaf = cell_at(grid, grid.lmax, 4)
    for k in (0, 2, 3):
        with pytest.raises(ValueError, match=r"k must be in 1\.\.1, got"):
            area_begin(leaf, k, grid.K)
        with pytest.raises(ValueError, match=r"k must be in 1\.\.1, got"):
            subcells(leaf, k, grid)
    with pytest.raises(ValueError, match=r"k must be in 1\.\.3, got 4"):
        area_begin(grid.root, 4, grid.K)


# -- subcells -------------------------------------------------------------------


def test_subcells_grandchildren():
    grid = build_grid(T=8, K=2)
    assert subcells(grid.root, 1, grid) == ((0, 2), (2, 4), (4, 6), (6, 8))
    assert subcells(grid.root, 2, grid) == ((4, 6), (6, 8))


def test_subcells_units_above_leaves():
    grid = build_grid(T=9, K=3)
    mid = cell_at(grid, 1, 3)  # [3, 6), children are leaves
    assert subcells(mid, 1, grid) == ((3, 4), (4, 5), (5, 6))
    assert subcells(mid, 2, grid) == ((4, 5), (5, 6))
    assert subcells(mid, 3, grid) == ((5, 6),)


def test_subcells_leaf_tiles_the_area_span():
    # the one piece of a leaf state is the leaf itself
    grid = build_grid(T=8, K=2)
    leaf = cell_at(grid, grid.lmax, 4)  # [4, 5)
    subs = subcells(leaf, 1, grid)
    assert subs == ((4, 5),)
    assert subs[0][0] == area_begin(leaf, 1, grid.K) and subs[-1][1] == leaf.end


def test_piece_layout_matches_independent_recount():
    # the carry pieces and the segments share one width rule; recount
    # both from the cell tree: grandchildren under children k..K, units when
    # the children are leaves, the leaf itself for a leaf (k = 1 only)
    for K in (2, 3, 4):
        for T, shift in ((0, 0), (5, 0), (13, 2), (40, 7), (100, 31)):
            grid = build_grid(T, K, shift=shift)
            for level in grid.levels:
                for cell in level:
                    if cell.is_leaf:
                        assert cell.length == 1
                        assert subcells(cell, 1, grid) == ((cell.begin, cell.end),)
                        continue
                    for k in range(1, K + 1):
                        if cell.children[0].is_leaf:
                            lo = cell.children[k - 1].begin
                            expect = tuple((x, x + 1) for x in range(lo, cell.end))
                        else:
                            expect = tuple(
                                (g.begin, g.end)
                                for child in cell.children[k - 1 :]
                                for g in child.children
                            )
                        assert subcells(cell, k, grid) == expect
            for r in range(max(grid.root.begin, 0), grid.root.end):
                for group in job_groups(Job(1, r, 1, 1), grid):
                    widths = {rect.x_end - rect.x_begin for rect in group.rectangles}
                    assert widths == {group.cell.piece_width}


def test_subcells_count_bounded_by_k_squared():
    for K in (2, 3):
        grid = build_grid(T=30, K=K)
        for level in grid.levels:
            for cell in level:
                assert len(subcells(cell, 1, grid)) <= K * K


# -- canonical test and carry bump ------------------------------------------------


def test_not_canonical_without_own_rectangles():
    cov = cov_for([(0, 2, 1), (1, 1, 1)])
    grid = cov.grid
    # job 2 has no rectangles in the cell [0, 2): its group there is empty
    mid = cell_at(grid, 1, 0)
    assert not is_canonical(2, mid, 2, cov)


def test_canonical_leaf_at_release():
    cov = cov_for([(1, 2, 1)], T=3)
    leaf = cell_at(cov.grid, cov.grid.lmax, 1)
    assert leaf.begin == 1
    assert is_canonical(1, leaf, 1, cov)


def test_canonical_states_span_both_edges():
    # whenever a table is canonical, a tail included, its group also ends at
    # the area's end; tail states are answered unstored, so the tables are read
    rng = Random(77)
    for _ in range(12):
        cov = random_cov(rng, K=2)
        solver = DpSolver(cov)
        solver.solve()
        seen = 0
        for tab, (job, cell, k) in table_areas(solver):
            if is_canonical(job, cell, k, cov):
                group = group_at(cov, job, cell)
                assert tab.group is group
                assert group.rectangles[-1].x_end == cell.end
                seen += 1
        assert seen > 0


def test_settled_rays_match_per_t_reference():
    # the closed form (a piece holds a settled ray iff its left edge x is
    # < r_{job+1}, and d(r_job, x) is its largest settled demand) against the
    # per-t definition: the largest d(r_job, t) over the t of the piece whose
    # deepest crossing rectangle lies in row job or above
    rng = Random(515)
    tables = 0
    for trial in range(48):
        K = 2 if trial % 2 else 3
        epsilon = Fraction(1, 2) if trial % 4 < 2 else 1
        inst = make_instance(
            [(rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 4))
             for _ in range(rng.randint(1, 4 if K == 2 else 3))],
            epsilon,
        )
        cov = reduce_instance(inst, K, trial)
        solver = DpSolver(cov)
        solver.solve()
        for tab, (job, cell, k) in table_areas(solver):
            if tab.group is None:
                continue
            r_job = release_of(cov, job)
            pieces = subcells(cell, k, cov.grid)
            assert tab.n_pieces == len(pieces)
            rects = group_at(cov, job, cell).rectangles
            assert tuple((r.x_begin, r.x_end) for r in rects) == pieces
            largest = []  # per piece: its largest settled demand, or None
            for sub in pieces:
                demands = [
                    cov.demand(r_job, t)
                    for t in range(max(sub[0], r_job), min(sub[1], cov.horizon + 1))
                    if rects_crossing(cov, t)[-1].job <= job
                ]
                largest.append(max(demands) if demands else None)
            settled = [dem for dem in largest if dem is not None]
            assert largest == settled + [None] * (len(largest) - len(settled))  # a prefix
            assert tab.settled == tuple(settled)
            tables += 1
    assert tables > 300


def test_memo_holds_one_table_keyed_entry_per_state():
    # a key is (table, carry), and a table hashes by identity, so hashing a
    # key runs no Python-level ``__hash__``
    assert TripleTable.__hash__ is object.__hash__
    rng = Random(616)
    for trial in range(8):
        cov = random_cov(rng, K=2 if trial % 2 else 3, n_max=3)
        solver = DpSolver(cov)
        result = solver.solve()
        assert len(solver.memo) == result.stats.states
        built = set(map(id, solver._tables))
        for key in solver.memo:
            tab, carry = key
            assert type(key) is tuple and len(key) == 2
            assert type(tab) is TripleTable and id(tab) in built
            # the carry is dense: one int >= 0 per piece of the table
            assert type(carry) is tuple and len(carry) == tab.n_pieces
            assert all(type(v) is int and v >= 0 for v in carry)


def test_carry_of_wrong_length_rejected():
    cov = cov_for([(0, 2, 1), (1, 1, 1)])
    solver = DpSolver(cov)
    root = cov.grid.root
    n_pieces = len(subcells(root, 1, cov.grid))
    tab = _area(solver, 1, root, 1)
    for carry in ((), (0,) * (n_pieces - 1), (0,) * (n_pieces + 1)):
        expected = f"carry of {len(carry)} values for a state of {n_pieces} pieces"
        with pytest.raises(DpError, match=expected):
            solver._enter(tab, carry)
    assert solver._enter(tab, (0,) * n_pieces) is not None


def test_next_carry_arithmetic():
    assert next_carry((2,), 3, 1, 3) == [1]
    assert next_carry((2,), 3, 1, 0) == [4]
    assert next_carry((0,), 1, 5, 0) == [0]


def test_next_carry_maps_a_whole_carry():
    carries = [(), (0,), (3, 0, 1), (0, 5, 2, 7), (1,) * 6]
    for carry in carries:
        for p in range(4):
            for g in range(5):
                for paid in (0, p):
                    expected = [max(0, v + p - g - paid) for v in carry]
                    assert next_carry(carry, p, g, paid) == expected


def _searched_states(solver):
    """Record the carries the solver's steps hand ``_state``, which answers
    each with the empty selection instead of searching."""
    searched = []
    solver._state = lambda tab, carry: searched.append(carry) or ZERO
    return searched


def _counters(solver):
    return solver._theta_decided, solver._phi_decided


def test_single_pass_decide_matches_the_two_pass_clamp():
    # (top, carry, theta); theta = -1 does not cover v = 0, so a carry
    # whose clamp is all zeros can still need a search
    cases = [
        (2, (0, 0), (-1, -1)),
        (3, (2, 1, 0, 3), (3, 1, -1, 3)),  # no bound on pieces 0 and 3, values on both
        (2, (1, 2), (2, 2)),  # no bound anywhere, so (0, ())
        (3, (3, 0), (3, 0)),  # v == theta everywhere
        (3, (0, 3, 1), (0, 2, 0)),  # nothing to clamp
    ]
    rng = Random(1818)
    for _ in range(500):
        n, top = rng.randint(1, 6), rng.randint(0, 5)
        theta = tuple(rng.randint(-1, top) for _ in range(n))
        cases.append((top, tuple(rng.randint(0, top) for _ in range(n)), theta))
    results = []
    for top, carry, theta in cases:
        tab = TripleTable(None, len(carry), top, 0)
        tab.theta = theta
        solver = DpSolver(cov_for([(0, 2, 1)]))
        searched = _searched_states(solver)
        answer = solver._decide(tab, carry)
        if all(v <= t for v, t in zip(carry, theta)):
            assert (answer, searched, _counters(solver)) == (ZERO, [], (1, 0))
        else:
            assert (searched, _counters(solver)) == ([tuple(clamp(carry, theta))], (0, 0))
        results.append(searched)
    assert results[:5] == [[(0, 0)], [(0, 0, 0, 0)], [], [], [(0, 3, 1)]]


def _two_pass_canonical(tab, carry):
    """The child carries a canonical step searches, in order, and its
    (theta_decided, phi_decided), from the whole-vector clamp of both
    ``next_carry`` vectors and a test of every take against the child's bounds.
    A take that hands the child the previous take's carry costs more for the
    same answer, so it is not searched again."""
    child = tab.child
    paid = next_carry(carry, tab.p, tab.gap, tab.p)
    unpaid = next_carry(carry, tab.p, tab.gap, 0)
    kept_paid, kept_unpaid = clamp(paid, child.theta), clamp(unpaid, child.theta)
    takes = [pos + 1 for pos, dem in enumerate(tab.settled) if dem + carry[pos] > 0]
    searched, theta_decided, phi_decided = [], 0, 0
    for take in range(max(takes, default=0), len(carry) + 1):
        values = paid[:take] + unpaid[take:]
        if any(v > f for v, f in zip(values, child.phi)):
            phi_decided += 1
        elif all(v <= t for v, t in zip(values, child.theta)):
            theta_decided = 1  # the cheapest take the empty selection finishes
            break
        else:
            kept = tuple(kept_paid[:take] + kept_unpaid[take:])
            if not searched or kept != searched[-1]:
                searched.append(kept)
    return searched, (theta_decided, phi_decided)


def test_single_pass_canonical_step_matches_the_two_pass_clamp():
    # (top, p, gap, settled, carry, theta, phi) of a canonical step and its
    # child's bounds, where the child's top, top + p, means no bound;
    # paid = v - gap and unpaid = v - gap + p, at least 0
    cases = [
        (3, 2, 3, (), (3, 1, 0), (-1, -1, -1), (4, 4, 4)),  # theta = -1, v = 0
        (3, 2, 3, (), (3, 1, 2), (1, 0, 1), (5, 5, 5)),  # v == cleared for paid, unpaid
        (3, 2, 3, (), (3, 2, 4), (0, 1, 1), (5, 5, 5)),  # v == theta + cleared
        (3, 2, 1, (-1,), (2, 3, 1), (5, 5, 5), (5, 5, 5)),  # no bound anywhere
        (3, 2, 1, (), (3, 3, 1, 2), (5, 5, 1, 5), (5, 5, 3, 5)),  # one bounded piece
    ]
    rng = Random(1919)
    for _ in range(800):
        n, top, p, gap = rng.randint(1, 6), rng.randint(0, 5), rng.randint(1, 4), rng.randint(1, 5)
        # about half the pieces have no bound, the child's top + p
        theta = tuple(
            top + p if rng.random() < 0.5 else rng.randint(-1, top + p) for _ in range(n)
        )
        phi = tuple(rng.randint(max(t, 0), top + p) for t in theta)
        # the parent's phi bounds v - gap by the child's, where v is positive
        carry = tuple(min(rng.randint(0, top), f + gap) for f in phi)
        settled = tuple(rng.randint(-4, 2) for _ in range(rng.randint(0, n)))
        cases.append((top, p, gap, settled, carry, theta, phi))
    results = []
    for top, p, gap, settled, carry, theta, phi in cases:
        n = len(carry)
        # ``_canonical`` is called directly, so neither table needs a group
        child = TripleTable(None, n, top + p, 1)
        child.theta, child.phi = theta, phi
        tab = TripleTable(None, n, top, 0)
        tab.settled, tab.p, tab.gap, tab.child = settled, p, gap, child
        tab.prefix_cost, tab.first_rid = tuple(range(n + 1)), 0
        solver = DpSolver(cov_for([(0, 2, 1)]))
        searched = _searched_states(solver)
        solver._canonical(tab, carry)
        assert (searched, _counters(solver)) == _two_pass_canonical(tab, carry)
        results.append(searched)
    # each edge case but the unbounded one reaches a search
    assert [len(searched) for searched in results[:5]] == [2, 1, 2, 0, 1]
    assert sum(map(len, results)) > 300


# -- solve ------------------------------------------------------------------------


def test_single_job_matches_oracle_from_root_state():
    cov = cov_for([(0, 4, 2)])
    oracle_cost, _ = brute_force_covering(cov)
    solver = DpSolver(cov)
    root = cov.grid.root
    entry = solver._enter(_area(solver, 1, root, 1), dense_carry(root, 1, cov.grid))
    assert entry is not None and entry[0] == oracle_cost
    assert solve(cov).cost == oracle_cost


def test_empty_instance_costs_zero():
    cov = build_covering(make_instance([]), build_grid(T=0, K=2))
    result = solve(cov)
    assert result.cost == 0 and result.selection.chosen == frozenset()


def test_leaf_boundary_carry_regression():
    # two jobs straddling a leaf boundary with p_1 exceeding the release gap;
    # narrower leaf carry pieces return an infeasible cost-3 answer
    cov = cov_for([(0, 2, 1), (1, 1, 1)])
    oracle_cost, oracle_sel = brute_force_covering(cov)
    result = solve(cov)
    assert oracle_cost == result.cost == 4
    assert check_feasible(cov, result.selection).ok
    assert check_feasible(cov, oracle_sel).ok


def test_random_instances_match_oracle():
    rng = Random(4242)
    for trial in range(60):
        K = 2 if trial % 3 else 3
        cov = random_cov(rng, K=K, n_max=3, p_max=3)
        oracle_cost, _ = brute_force_covering(cov)
        result = solve(cov)
        assert result.cost == oracle_cost
        assert check_feasible(cov, result.selection).ok
        assert selection_cost(cov, result.selection) == result.cost


def test_solution_is_prefix_valid():
    rng = Random(88)
    for _ in range(10):
        cov = random_cov(rng, K=2)
        result = solve(cov)
        report = check_feasible(cov, result.selection)
        assert report.ok and not report.prefix_violations


def test_demand_telescoping_along_releases():
    rng = Random(99)
    for _ in range(15):
        cov = random_cov(rng, K=2)
        jobs = cov.instance.jobs
        for j, job in enumerate(jobs[:-1], start=1):
            nxt = jobs[j]
            for t in range(nxt.release, cov.horizon + 1):
                lhs = cov.demand(job.release, t)
                rhs = cov.demand(nxt.release, t) + job.processing - nxt.release + job.release
                assert lhs == rhs


def test_solve_deterministic():
    cov = cov_for([(0, 3, 2), (2, 2, 1), (4, 1, 3)])
    first = solve(cov)
    second = solve(cov)
    assert first.cost == second.cost
    assert first.selection == second.selection
    assert first.stats.states == second.stats.states


def test_stats_shape():
    rng = Random(321)
    cov = random_cov(rng, K=2)
    result = solve(cov)
    stats = result.stats
    assert stats.states <= stats.triples * stats.carry_vectors
    assert stats.max_carry <= sum(j.processing for j in cov.instance.jobs)
    assert stats.max_depth >= 1 and stats.wall_ms >= 0.0


def _frames_in_use() -> int:
    """The frames on this call's stack, this call's included."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def _solve_from_limit(monkeypatch, cov, start=None):
    """Solve ``cov`` from the recursion limit ``start``, by default one
    with no frames to spare beyond the runner's own stack, so the search
    runs only on the frames the solve adds.  Returns the limit the root
    step ran under and the start, which the solve must leave in place."""
    limits = []
    root_state = DpSolver._enter

    def spy(self, *args):
        limits.append(sys.getrecursionlimit())
        return root_state(self, *args)

    start = start or _frames_in_use() + 30
    outer = sys.getrecursionlimit()
    with monkeypatch.context() as patch:
        patch.setattr(DpSolver, "_enter", spy)
        sys.setrecursionlimit(start)
        try:
            solve(cov)
            assert sys.getrecursionlimit() == start
        finally:
            sys.setrecursionlimit(outer)
    return limits[0], start


def test_solve_leaves_the_recursion_limit_as_it_found_it(monkeypatch):
    # the solve raises a limit too low for its search while it runs;
    # afterwards the caller's limit is back, also when the solve raises
    cov = reduce_instance(campaign_instance(1, CampaignConfig(seed=1)), 1000, 0)
    raised, low = _solve_from_limit(monkeypatch, cov)
    assert raised > low
    monkeypatch.setattr(DpSolver, "_table", lambda *a: 1 / 0)
    outer = sys.getrecursionlimit()
    sys.setrecursionlimit(low)
    try:
        with pytest.raises(ZeroDivisionError):
            solve(cov)
        assert sys.getrecursionlimit() == low
    finally:
        sys.setrecursionlimit(outer)


def test_large_k_solve_raises_the_limit_by_its_depth_not_by_k(monkeypatch):
    # `gen --seed 1` at K=100000 searches 2 states deep: the limit is raised
    # by frames per table level times (2n + 2), not sized by K, which
    # once raised it past a million frames
    cov = reduce_instance(campaign_instance(1, CampaignConfig(seed=1)), 100000, 0)
    raised, low = _solve_from_limit(monkeypatch, cov)
    assert low < raised < low + 200
    raised, _ = _solve_from_limit(monkeypatch, cov, 1000)  # the default limit
    assert raised < 1200


def test_the_raised_limit_covers_every_search(monkeypatch):
    # each row adds at most one split and one canonical table to a path, so
    # it spans at most 2n + 1 tables, and each draw solves from a limit with
    # no frames to spare, so a raise too small for the search would raise
    # RecursionError here
    for cov in [_baseline_row_k2_n8_seed3()[0].cov, *campaign_coverings(20)]:
        solver = DpSolver(cov)
        solver.solve()
        assert max(t.depth for t in solver._tables) <= 2 * cov.instance.n
        raised, low = _solve_from_limit(monkeypatch, cov)
        assert raised > low


def test_large_k_search_is_two_splits_deep():
    # `gen --seed 1` at K=10000 puts both releases in one leaf's parent, far
    # right of the shifted root's start.  Each split goes straight to its
    # row's groups, so the search is a few states deep, not a chain of
    # one-part splits as long as the shift: the root's split, row 1's
    # canonical step and row 2's split, whose parts are tails
    cov = reduce_instance(campaign_instance(1, CampaignConfig(seed=1)), 10000, 0)
    stats = solve(cov).stats
    assert (stats.states, stats.split_states, stats.max_depth) == (3, 2, 2)


def test_large_k_search_probes_each_state_once(monkeypatch):
    # the canonical step of the K=10000 instance clamps nearly every piece
    # to 0 both paid and unpaid, so nearly every take hands the child the
    # previous take's carry; none of those takes is searched again, and
    # each state, stored or tail, is probed once, by the step that first
    # reaches it
    cov = reduce_instance(campaign_instance(1, CampaignConfig(seed=1)), 10000, 0)
    state, probes, tails = DpSolver._state, [], []

    def spy(self, tab, carry):
        probes.append((tab, carry))
        tails.append(tab.tail)
        return state(self, tab, carry)

    monkeypatch.setattr(DpSolver, "_state", spy)
    stats = solve(cov).stats
    assert len(probes) == len(set(probes)) == stats.states + sum(tails) == 6
    assert stats.states == 3


def test_memo_stores_each_distinct_answer_once():
    # equal (cost, ids) answers of different states share one tuple
    solvers = [_baseline_row_k2_n8_seed3()[0]]
    for cov in campaign_coverings(10):
        solver = DpSolver(cov)
        solver.solve()
        solvers.append(solver)
    shared = 0
    for solver in solvers:
        entries = list(solver.memo.values())
        assert len({id(e) for e in entries}) == len(set(entries))
        shared += len(entries) - len(set(entries))
    assert shared > 100


def test_the_search_reads_no_cell(monkeypatch):
    # ``solve`` builds the root table and with it every table the search can
    # reach; from its first ``_decide`` on, the search follows the tables'
    # links and reads no ``GridCell.children``
    reads, searching = [], []
    children = GridCell.children.fget
    decide = DpSolver._decide

    def spy_children(cell):
        if searching:
            reads.append(cell)
        return children(cell)

    def spy_decide(self, *args):
        searching.append(True)
        return decide(self, *args)

    monkeypatch.setattr(GridCell, "children", property(spy_children))
    monkeypatch.setattr(DpSolver, "_decide", spy_decide)
    splits = 0
    for cov in campaign_coverings(60):
        splits += solve(cov).stats.split_states
        searching.clear()
    assert reads == [] and splits > 100


def test_table_depth_is_the_search_depth(monkeypatch):
    # each state is searched one ``_state`` frame below the state that
    # reached it, and the root state in the outermost one, so the number of
    # enclosing ``_state`` frames is the depth; the table's must match it.
    # Tail states are answered in ``_state`` too, but unstored, so
    # ``max_depth``, read off the memo, is the deepest stored state's.
    state = DpSolver._state
    frames, pairs = [0], []

    def spy(self, tab, carry):
        pairs.append((tab.depth, frames[0], tab.tail))
        frames[0] += 1
        try:
            return state(self, tab, carry)
        finally:
            frames[0] -= 1

    monkeypatch.setattr(DpSolver, "_state", spy)
    checked = tails = 0
    for cov in campaign_coverings(100):
        pairs.clear()
        stats = solve(cov).stats
        assert [(d, f) for d, f, _ in pairs if d != f] == []
        assert stats.max_depth == max((f for _, f, tail in pairs if not tail), default=0)
        checked += len(pairs)
        tails += sum(tail for _, _, tail in pairs)
    assert checked > 10000 and tails > 3000


def test_carry_checked_on_tabled_triple():
    # the carry check runs for every carry handed to a table, not once per
    # table
    cov = cov_for([(0, 4, 1)])
    solver = DpSolver(cov)
    root = cov.grid.root
    tab = _area(solver, 1, root, 1)
    zero = dense_carry(root, 1, cov.grid)
    assert solver._enter(tab, zero) is not None
    with pytest.raises(DpError, match=f"carry of {len(zero) + 1} values"):
        solver._enter(tab, zero + (1,))
    # (0, 1) is a piece, but no row above job 1 can owe anything
    with pytest.raises(DpError, match="outside 0..0"):
        solver._enter(tab, dense_carry(root, 1, cov.grid, {(0, 1): 1}))


def test_table_kind_matches_a_scan_of_the_covering():
    # the rule a table is found by, against a scan of every rectangle:
    # canonical as ``is_canonical`` says, a tail exactly where a canonical
    # area holds no rectangle of a deeper row, and a split exactly where a
    # non-canonical area holds one of row job or deeper.  Every table the
    # search reaches holds a rectangle, and every table but the root, the
    # first built, is linked exactly once, by a table one level less deep:
    # the tables form a tree, so none needs a cache
    rng = Random(1515)
    kinds = dict.fromkeys(["canonical", "split", "tail"], 0)
    for K in (2, 3, 4):
        for seed in range(150):
            inst = make_instance(
                [(rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 5 if K == 2 else 4))]
            )
            cov = reduce_instance(inst, K, seed)
            solver = DpSolver(cov)
            solver.solve()
            links = []
            for tab, (job, cell, k) in table_areas(solver):
                canonical = tab.group is not None
                assert canonical == is_canonical(job, cell, k, cov)
                assert area_holds_rectangle(job, cell, k, cov)
                deeper = area_holds_rectangle(job + 1, cell, k, cov)
                assert tab.tail == (canonical and not deeper)
                assert (tab.child is not None) == (canonical and deeper)
                assert bool(tab.parts) == (not canonical)
                kind = "tail" if tab.tail else "canonical" if canonical else "split"
                kinds[kind] += 1
                for linked in [tab.child] if tab.child else [part for part, _ in tab.parts]:
                    assert linked.depth == tab.depth + 1
                    links.append(id(linked))
            assert solver._tables[0].depth == 0
            assert len(set(map(id, solver._tables))) == len(solver._tables)
            assert sorted(links) == sorted(map(id, solver._tables[1:]))
    assert min(kinds.values()) > 1000


def test_each_canonical_table_is_a_distinct_group_of_the_covering():
    # a canonical table is one of the covering's groups, in its own cell,
    # no two tables share a group, and the area's pieces are the group's
    # rectangles
    tables = 0
    for cov in campaign_coverings(20):
        solver = DpSolver(cov)
        solver.solve()
        seen = []
        for tab, (job, cell, k) in table_areas(solver):
            if tab.group is None:
                continue
            assert any(g is tab.group for g in cov.groups)
            assert (tab.group.job, tab.group.cell) == (job, cell)
            pieces = subcells(cell, k, cov.grid)
            assert tuple((r.x_begin, r.x_end) for r in tab.group.rectangles) == pieces
            assert tab.n_pieces == len(pieces)
            seen.append(id(tab.group))
        assert len(seen) == len(set(seen))
        tables += len(seen)
    assert tables > 1000


def test_only_the_root_of_an_instance_without_rectangles_is_empty():
    # an area without a rectangle gets a table only as the root of an
    # instance that has none: a split with no parts, whose bounds are its
    # top on every piece
    cov = build_covering(make_instance([]), build_grid(T=0, K=2))
    solver = DpSolver(cov)
    assert solve(cov).cost == 0
    solver.solve()
    [tab] = solver._tables
    assert table_areas(solver) == [(tab, (1, cov.grid.root, 1))]
    assert not area_holds_rectangle(1, cov.grid.root, 1, cov)
    assert (tab.group, tab.tail, tab.child, tab.parts) == (None, False, None, ())
    assert tab.theta == tab.phi == (0,) * tab.n_pieces


def test_tail_answer_is_a_canonical_step_over_an_all_top_child():
    # a tail table answers a carry from its bounds alone: against every take
    # of its group tried in turn, over an area one row down that bounds
    # nothing, on carries over theta and past phi, and with no memo entry
    rng = Random(2323)
    answered = infeasible = 0
    for K in (2, 3, 5, 8):
        for cost_model in COST_MODELS:
            for seed in range(25):
                cfg = CampaignConfig(seed=seed, K=K, n_max=4 if K == 2 else 3)
                cov = reduce_instance(campaign_instance(seed, cfg), K, seed, cost_model=cost_model)
                solver = DpSolver(cov)
                solver.solve()
                memo = dict(solver.memo)
                for tab, (job, cell, k) in table_areas(solver):
                    if not tab.tail:
                        continue
                    for _ in range(6):
                        carry = tuple(rng.randint(0, tab.top) for _ in range(tab.n_pieces))
                        expect = step_over_top_child(cov, job, cell, k, carry)
                        assert solver._enter(tab, carry) == expect
                        if expect is None:
                            infeasible += 1
                        elif any(map(gt, carry, tab.theta)):
                            assert solver._state(tab, carry) == expect
                            answered += 1
                assert solver.memo == memo
    assert answered > 1000 and infeasible > 300


def test_split_parts_are_the_rows_groups_inside_the_area():
    # a split's parts are row job's non-empty groups that lie inside the
    # area, each as its canonical table; each part piece reads the value of
    # the area's piece that holds it; and the split's bounds are, piece by
    # piece, the minimum over the part pieces it holds, its top where it
    # holds none.  All three against a scan of the covering.
    splits = fanned = skipped = 0
    for cov in campaign_coverings(40):
        grid = cov.grid
        solver = DpSolver(cov)
        solver.solve()
        areas = {id(tab): area for tab, area in table_areas(solver)}
        for tab, (job, cell, k) in table_areas(solver):
            if tab.group is not None:
                continue
            x_begin = area_begin(cell, k, grid.K)
            groups = [
                g for g in cov.groups
                if g.job == job and x_begin <= g.rectangles[0].x_begin
                and g.rectangles[-1].x_end <= cell.end
            ]
            # deepest first, as ``cov.groups`` lists a row's groups
            assert [part.group for part, _ in tab.parts] == groups
            pieces = subcells(cell, k, grid)
            theta, phi = [tab.top] * len(pieces), [tab.top] * len(pieces)
            for part, gather in tab.parts:
                part_job, part_cell, part_k = areas[id(part)]
                assert part_job == job
                assert area_begin(part_cell, part_k, grid.K) == part.group.rectangles[0].x_begin
                part_pieces = subcells(part_cell, part_k, grid)
                read = gather(tuple(range(len(pieces))))
                assert len(read) == len(part_pieces)
                for (a, b), i, t, f in zip(part_pieces, read, part.theta, part.phi):
                    [holder] = [j for j, (c, d) in enumerate(pieces) if c <= a and b <= d]
                    assert i == holder
                    theta[i], phi[i] = min(theta[i], t), min(phi[i], f)
                fanned += len(set(read)) < len(read)
            assert (tab.theta, tab.phi) == (tuple(theta), tuple(phi))
            splits += 1
            skipped += pieces[0][1] <= release_of(cov, job)  # a piece left of r_job
    assert splits > 500 and fanned > 100 and skipped > 50


# -- threshold bounds -----------------------------------------------------------


def _two_job_cov():
    # jobs (r, p, w) = (0, 2, 1) and (1, 1, 1), horizon T = 4, grid over
    # [0, 8) at K=2, unshifted.  Row 1's rectangles: [0,1) [1,2) [2,3) [3,4)
    # [4,6) [6,8) (ids 0-5); row 2's: [1,2) [2,3) [3,4) [4,6) [6,8) (ids
    # 6-10).  Demands: d(0, t) = 2, 2, 1, 0, -1 and d(1, t) = 1, 0, -1, -2
    # for t = 0..4 and 1..4.  A carry at row 1 is 0 (nothing above it); at
    # row 2 it is at most p_1 = 2, the "no bound" value of row 2.
    inst = make_instance([(0, 2, 1), (1, 1, 1)])
    return build_covering(inst, build_grid(5, 2, shift=0))


def test_theta_phi_by_hand_on_two_jobs():
    cov = _two_job_cov()
    solver = DpSolver(cov)
    grid = cov.grid
    quarter = cell_at(grid, 1, 0)  # [0, 4), whose pieces are units
    half = cell_at(grid, 2, 0)  # [0, 2)
    leaf = cell_at(grid, grid.lmax, 1)  # [1, 2)
    # the root's table, and with it every table the search can reach
    root = _area(solver, 1, grid.root, 1)

    # row 2's group in [0,4): area [2,4), p = 1, next release is the
    # sentinel's T + 1 = 5, so gap = 4, and both pieces are settled, with
    # dem = d(1, 2) = 0 and d(1, 3) = -1.  Row 2 is the last, so the table
    # is a tail with no child: theta = -dem = (0, 1) and phi = p - dem =
    # (1, 2).
    tail = table_of(solver, group_at(cov, 2, quarter))
    assert (tail.tail, tail.child) == (True, None)
    assert (tail.top, tail.settled) == (2, (0, -1))
    assert (tail.theta, tail.phi) == ((0, 1), (1, 2))

    # row 1's group in [0,4): same area, p = 2, gap = r_2 - r_1 = 1, no
    # settled piece (both start at x >= r_2).  Its child is row 2's group
    # above, whole in the area one row down.  theta = child - p + g =
    # (-1, 0) and phi = child + g = (2, 3), clipped to row 1's top 0: the
    # second piece has no bound.
    tab = table_of(solver, group_at(cov, 1, quarter))
    assert (tab.tail, tab.top, tab.settled) == (False, 0, ())
    assert tab.child is tail
    assert (tab.theta, tab.phi) == ((-1, 0), (0, 0))

    # row 2's leaf [1,2): canonical, settled with dem = d(1, 1) = 1:
    # theta = -1 (the empty selection leaves ray [1, 1] short) and
    # phi = p - dem = 0.
    leaf_tab = table_of(solver, group_at(cov, 2, leaf))
    assert (leaf_tab.theta, leaf_tab.phi) == ((-1,), (0,))

    def parts(tab, carry):
        return [(part.group, gather(carry)) for part, gather in tab.parts]

    # (1, [0,8), k=1): the root, pieces [0,2) [2,4) [4,6) [6,8), holds all
    # four of row 1's groups, deepest first: the leaf [0,1) and [1,2) both
    # lie in piece [0,2), the units [2,3) [3,4) in piece [2,4), and [4,8)
    # in the root is two of its pieces.  The units [0,1) [1,2) [2,3), whose
    # rays [0, t] have demand 2, 2, 1, have theta = -1, and [3,4), where
    # d(0, 3) = 0, has none; phi is row 1's top, 0.  Each piece takes the
    # minimum over the part pieces it holds, and [4,8) bounds nothing:
    # theta = (-1, -1, 0, 0), phi = (0, 0, 0, 0).
    row1 = [group_at(cov, 1, cell_at(grid, level, 0)) for level in (3, 2, 1, 0)]
    assert parts(root, (10, 11, 12, 13)) == [
        (row1[0], (10,)), (row1[1], (10,)), (row1[2], (11, 11)), (row1[3], (12, 13)),
    ]
    assert (root.group, root.tail, root.child) == (None, False, None)
    assert (root.theta, root.phi) == ((-1, -1, 0, 0), (0, 0, 0, 0))

    # the bounds decide the states of row 2's group in [0,4) without a search
    def carry(values):
        return dense_carry(quarter, 2, grid, values)

    assert solver._enter(tail, carry({(3, 4): 1})) == (0, ())  # v <= theta
    assert solver._enter(tail, carry({(2, 3): 2})) is None  # v_0 > phi_0
    # theta_0 < 1 <= phi_0: row 2 must take its rectangle [2,3), which the
    # tail answers from its bounds, storing nothing
    assert solver._enter(tail, carry({(2, 3): 1})) == (1, (7,))
    assert solver.memo == {}
    # row 1's group in [0,4) is no tail: its zero carry is over theta_0 =
    # -1, so it is searched and stored.  Taking nothing hands row 2 the
    # carry (1, 1), clamped to (1, 0), which the tail pays with [2,3), id
    # 7, at cost 1; taking row 1's [2,3), id 2, costs 1 too and hands row 2
    # (0, 1), which theta = (0, 1) covers, so the tie goes to (2,)
    assert solver._enter(tab, (0, 0)) == (1, (2,))
    assert solver.memo == {(tab, (0, 0)): (1, (2,))}

    # Two areas the search does not reach, built by the area builder.
    # (2, [0,2), 1): r_2 = 1 lies in the second child, the leaf [1,2).  Row
    # 2's only group in the area is that leaf's, so the split has one part,
    # which reads the second piece; the first piece, left of r_2, has no
    # bound: theta = (2, -1), phi = (2, 0).
    split = _area(solver, 2, half, 1)
    assert parts(split, (10, 11)) == [(group_at(cov, 2, leaf), (11,))]
    assert (split.parts[0][0].theta, split.parts[0][0].phi) == ((-1,), (0,))
    assert (split.theta, split.phi) == ((2, -1), (2, 0))

    # (2, [0,4), k=1): row 2's groups in the area are the leaf [1,2) and
    # [2,4) in [0,4), each of whose pieces is one of the area's units:
    # theta = (2, -1, 0, 1), phi = (2, 0, 1, 2).
    split = _area(solver, 2, quarter, 1)
    assert parts(split, (10, 11, 12, 13)) == [
        (group_at(cov, 2, leaf), (11,)), (group_at(cov, 2, quarter), (12, 13)),
    ]
    assert (split.theta, split.phi) == ((2, -1, 0, 1), (2, 0, 1, 2))


def test_a_release_left_of_the_area_raises():
    # the search reaches no split whose release lies left of its area, so
    # the area builder refuses one
    cov = _two_job_cov()
    solver = DpSolver(cov)
    with pytest.raises(DpError, match=r"release 1 of row 2 lies left of area \[4, 8\)"):
        _area(solver, 2, cell_at(cov.grid, 1, 4), 1)
    inst = make_instance([(0, 1, 1), (2, 1, 1)])
    cov = build_covering(inst, build_grid(9, 3, shift=0))
    # row 2's group in the root [0,9) covers [3,9), across the area [6,9)
    with pytest.raises(DpError, match=r"release 2 of row 2 lies left of area \[6, 9\)"):
        _area(DpSolver(cov), 2, cov.grid.root, 3)


def test_bounds_decide_no_carry_before_it_is_checked():
    cov = _two_job_cov()
    solver = DpSolver(cov)
    quarter = cell_at(cov.grid, 1, 0)
    tail = _area(solver, 2, quarter, 2)
    # theta = (0, 1) would answer (0, ()) for this carry, but -1 is no carry
    with pytest.raises(DpError, match=r"carry value -1 outside 0\.\.2"):
        solver._enter(tail, dense_carry(quarter, 2, cov.grid, {(3, 4): -1}))
    # above the processing of the rows above: phi would call it infeasible
    with pytest.raises(DpError, match=r"carry value 3 outside 0\.\.2"):
        solver._enter(tail, dense_carry(quarter, 2, cov.grid, {(3, 4): 3}))
    # row 3 holds no rectangle, so its bounds decide every carry as (0, ());
    # the length is still checked
    empty = _area(solver, 3, quarter, 2)
    with pytest.raises(DpError, match="carry of 1 values for a state of 2 pieces"):
        solver._enter(empty, (0,))
    assert solver._enter(empty, (2, 3)) == (0, ())
    assert solver.memo == {}


def test_memo_holds_only_searched_states():
    # no stored entry is one the bounds decide: never infeasible, never the
    # empty selection; every stored carry is clamped
    rng = Random(717)
    for trial in range(30):
        cov = random_cov(rng, K=(2, 3, 4)[trial % 3], n_max=3)
        solver = DpSolver(cov)
        result = solver.solve()
        st = result.stats
        assert st.states == len(solver.memo) == st.canonical_states + st.split_states
        for (tab, carry), entry in solver.memo.items():
            assert entry is not None and entry[1] != ()
            assert len(tab.theta) == len(tab.phi) == len(carry)
            assert not any(v > f for v, f in zip(carry, tab.phi))
            assert all(v == 0 or v > t for v, t in zip(carry, tab.theta))


def _baseline_row_k2_n8_seed3():
    # the K=2, n=8 row of the seed-3 baseline in ROADMAP.md
    rng = Random(3)
    triples = [(rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 4)) for _ in range(8)]
    work = perturb_release_times(make_instance(triples), 1)
    cov = build_covering(work, reduction_grid(total_horizon(work), 2, 3))
    solver = DpSolver(cov)
    return solver, solver.solve()


def test_baseline_row_k2_n8_seed3():
    # answers only; the search's counters are pinned separately below
    _, result = _baseline_row_k2_n8_seed3()
    assert result.cost == 1163
    assert result.selection.sorted_ids() == (
        *range(0, 7), *range(8, 14), *range(21, 32), *range(35, 41), 42,
        *range(46, 52), *range(56, 62), *range(63, 69), *range(77, 88),
    )


def test_baseline_row_k2_n8_seed3_counters():
    solver, result = _baseline_row_k2_n8_seed3()
    stats = result.stats
    # carry_vectors counts distinct dense carries (one int per piece); the
    # threshold bounds cut the stored states from 1,864 (641 of them (0, ())
    # and 660 infeasible) to 423, none of either sort, a split that goes
    # straight to its release's child cut them to 409, and tail answers and
    # splits straight into the row's groups cut them to 227
    assert (stats.states, stats.triples, stats.carry_vectors) == (227, 59, 140)
    assert (stats.canonical_states, stats.split_states) == (216, 11)
    assert (stats.theta_decided, stats.phi_decided) == (17, 147)
    entries = list(solver.memo.values())
    assert sum(1 for e in entries if e == (0, ())) == 0
    assert sum(1 for e in entries if e is None) == 0


@cache
def _per_draw_rows():
    """(answers, counters) per draw: cost and selection, then the DP's
    structural counters, including the memo's empty-selection and
    infeasible entries and the threshold decisions."""
    rng = Random(2021)
    rows = []
    for K, draws in ((2, 300), (3, 60), (4, 60)):
        for seed in range(draws):
            inst = make_instance(
                [(rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 5 if K == 2 else 3))]
            )
            solver = DpSolver(reduce_instance(inst, K, seed))
            result = solver.solve()
            st = result.stats
            memo = list(solver.memo.values())
            rows.append((
                (K, result.cost, result.selection.sorted_ids()),
                (st.states, st.triples, st.carry_vectors, st.max_carry, st.max_depth,
                 memo.count((0, ())), memo.count(None), st.canonical_states,
                 st.split_states, st.theta_decided, st.phi_decided),
            ))
    assert len(rows) == 420
    return rows


def test_dp_answers_pinned_per_draw():
    # a change to how the DP searches must leave this digest as it is
    answers = [row[0] for row in _per_draw_rows()]
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest == "bd4c0cff27bafd313638ee8f05cf092142bee8afd47c4d68d100e18e03e494fa"


def test_dp_counters_pinned_per_draw():
    # re-pinned only by a change that means to change the search
    counters = [row[1] for row in _per_draw_rows()]
    digest = hashlib.sha256(repr(counters).encode()).hexdigest()
    assert digest == "635b020cacc8e0939d631ecfd60ddd85cda25878fe5da05e4c8df37afe4fbcac"


def _widest_minimum(tab):
    """The most part pieces that one piece of a split's area holds, so takes
    its bounds' minimum over; 0 for a canonical table."""
    read = [i for _, gather in tab.parts for i in gather(tuple(range(tab.n_pieces)))]
    return max(map(read.count, read), default=0)


def test_dp_answers_and_counters_pinned_at_wide_fans():
    # the per-draw pins above reach fans of at most four; these K = 5 and 8
    # draws reach the split bounds' minimum over five and eight pieces and
    # more, under both cost models
    rng = Random(2022)
    answers, counters, wide = [], [], dict.fromkeys((5, 8), 0)
    for K in (5, 8):
        for cost_model in COST_MODELS:
            for seed in range(150):
                inst = make_instance(
                    [(rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 4))
                     for _ in range(rng.randint(1, 3))]
                )
                solver = DpSolver(reduce_instance(inst, K, seed, cost_model=cost_model))
                result = solver.solve()
                st = result.stats
                wide[K] += sum(_widest_minimum(tab) > 2 for tab, _ in solver.memo)
                answers.append((K, cost_model, result.cost, result.selection.sorted_ids()))
                counters.append((
                    st.states, st.triples, st.carry_vectors, st.max_carry, st.max_depth,
                    st.canonical_states, st.split_states, st.theta_decided, st.phi_decided,
                ))
    assert len(answers) == 600 and wide[5] > 100 and wide[8] > 50
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == (
        "d4a0cd8acd5268a7c7519950c11e3c6f4c31e2f4d5041d284e710a909c00c462"
    )
    assert hashlib.sha256(repr(counters).encode()).hexdigest() == (
        "8f411eeddda849c55149817eadf08bee0e4fa260d384552614bf65bd378b8242"
    )
