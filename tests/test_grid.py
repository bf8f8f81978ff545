from random import Random

import pytest

from flowcover.grid import (
    GridCell,
    build_grid,
    cell_at,
    cell_chain,
    cell_path,
    root_length,
)
from flowcover.jobs import Job, make_instance
from helpers import (
    campaign_coverings,
    check_nesting,
    group_span,
    job_groups,
    segments_flat,
    spans_nest,
)


def intervals_partition(segments, lo, hi):
    """Independent check: sorted segments tile [lo, hi) without gap or overlap."""
    cursor = lo
    for a, b in sorted(segments):
        if a != cursor or b <= a:
            return False
        cursor = b
    return cursor == hi


def random_jobs(rng, n, spread):
    return make_instance(
        [(rng.randint(0, spread), rng.randint(1, 4), rng.randint(1, 4)) for _ in range(n)]
    )


# -- build_grid ---------------------------------------------------------------


def test_build_grid_k2_unit_leaves():
    grid = build_grid(T=8, K=2, shift=0)
    assert grid.lmax == 3
    assert [(c.begin, c.end) for c in grid.levels[0]] == [(0, 8)]
    assert [(c.begin, c.end) for c in grid.levels[1]] == [(0, 4), (4, 8)]
    assert [(c.begin, c.end) for c in grid.levels[2]] == [(0, 2), (2, 4), (4, 6), (6, 8)]
    assert [(c.begin, c.end) for c in grid.levels[3]] == [(x, x + 1) for x in range(8)]
    assert all(c.is_leaf for c in grid.levels[3]) and not grid.levels[2][0].is_leaf


def test_build_grid_k3_unit_leaves():
    grid = build_grid(T=3, K=3, shift=0)
    assert grid.lmax == 1
    assert (grid.root.begin, grid.root.end) == (0, 3)
    assert [(c.begin, c.end) for c in grid.levels[1]] == [(0, 1), (1, 2), (2, 3)]


def test_build_grid_shifted_independent_recount():
    grid = build_grid(T=5, K=2, shift=1)
    assert (grid.root.begin, grid.root.end) == (-1, 7)
    assert grid.lmax == 3
    # recompute the subdivision independently: level l has 2**l cells of
    # length 8 / 2**l starting at -1
    for level in range(4):
        width = 8 // (2**level)
        expect = [(-1 + i * width, -1 + (i + 1) * width) for i in range(2**level)]
        assert [(c.begin, c.end) for c in grid.levels[level]] == expect
    assert grid.root.begin <= 0 and grid.root.end >= 5


def test_build_grid_parameter_bounds():
    with pytest.raises(ValueError):
        build_grid(T=4, K=1)
    with pytest.raises(ValueError):
        build_grid(T=4, K=2, shift=-1)
    with pytest.raises(ValueError):
        build_grid(T=-1, K=2)


def test_root_length_bound_when_horizon_within_np():
    # len(root) < K^2 * T whenever the shift stays below the unshifted length
    for T in (1, 5, 17, 64):
        for K in (2, 3):
            base = root_length(T, K)
            for shift in (0, base // 2, base - 1):
                assert root_length(T, K, shift) < K * K * max(T, 1)


# -- cell_at ------------------------------------------------------------------


def test_cell_at_examples():
    grid = build_grid(T=8, K=2, shift=0)
    assert (cell_at(grid, 2, 5).begin, cell_at(grid, 2, 5).end) == (4, 6)
    assert cell_at(grid, 0, 3) is grid.root
    assert (cell_at(grid, 1, 7).begin, cell_at(grid, 1, 7).end) == (4, 8)


def test_cell_at_bounds():
    grid = build_grid(T=8, K=2, shift=0)
    with pytest.raises(ValueError):
        cell_at(grid, 4, 0)
    with pytest.raises(ValueError):
        cell_at(grid, 1, 8)


# -- lazy cells ---------------------------------------------------------------


def test_huge_horizon_builds_only_what_is_reached():
    grid = build_grid(T=2**40, K=2)
    assert grid.lmax == 40 and grid.root.length == 2**40
    leaf = cell_at(grid, grid.lmax, 2**39 + 5)
    assert (leaf.begin, leaf.end) == (2**39 + 5, 2**39 + 6) and leaf.is_leaf
    assert len(cell_chain(grid, 2**39 + 5)) == 41


def test_cells_are_built_once_per_grid():
    for K, T, shift in ((2, 13, 3), (3, 20, 5)):
        grid = build_grid(T, K, shift=shift)
        for x in range(grid.root.begin, grid.root.end):
            chain = cell_chain(grid, x)
            for level in range(grid.lmax + 1):
                assert cell_at(grid, level, x) is cell_at(grid, level, x)
                assert chain[level] is cell_at(grid, level, x)


def test_cell_chain_builds_one_cell_per_level(monkeypatch):
    # K=1000: building each chain cell's siblings would make 999 more a level
    grid = build_grid(T=900_000_000, K=1000, shift=12345)
    built = []
    init = GridCell.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(GridCell, "__init__", counting_init)
    chain = cell_chain(grid, 987_654_321)
    assert grid.lmax == 3 and len(built) == 3
    assert [(c.level, c.begin, c.end, c.K) for c in chain[1:]] == built
    # a second chain through the same level-1 cell builds only its new cells,
    # and reading the root's children later hands out the same objects
    second = cell_chain(grid, 987_000_000)
    assert len(built) == 5 and second[1] is chain[1]
    assert grid.root.children[grid.root.child_index(987_654_321)] is chain[1]
    assert len(built) == 5 + 999


def test_children_reads_return_the_same_cells():
    grid = build_grid(T=13, K=3, shift=2)
    root = grid.root
    kids = root.children
    assert root.children is kids
    assert all(a is b for a, b in zip(kids, root.children))
    assert all(kid.children is kid.children for kid in kids)
    assert repr(kids[1]) == f"GridCell(level=1, begin={kids[1].begin}, end={kids[1].end})"


def test_two_builds_give_distinct_cells_with_equal_hashes():
    first, second = build_grid(T=13, K=2, shift=3), build_grid(T=13, K=2, shift=3)
    for x in range(first.root.begin, first.root.end):
        for a, b in zip(cell_chain(first, x), cell_chain(second, x)):
            assert a is not b and a != b
            assert hash(a) == hash(b)
            assert (a.level, a.begin, a.end) == (b.level, b.begin, b.end)


def test_cell_path_round_trips_through_parent():
    for K, T, shift in ((2, 13, 3), (3, 20, 5)):
        grid = build_grid(T, K, shift=shift)
        assert cell_path(grid, grid.root) == ""
        levels = grid.levels
        for upper, row in zip(levels, levels[1:]):
            for cell in row:
                parent = next(p for p in upper if p.begin <= cell.begin < p.end)
                path = cell_path(grid, cell).split("/")
                assert "/".join(path[:-1]) == cell_path(grid, parent)
                assert parent.children[int(path[-1])] is cell
                walked = grid.root
                for i in path:
                    walked = walked.children[int(i)]
                assert walked is cell
        # a cell of another build of the same grid is not this grid's
        other = build_grid(T, K, shift=shift)
        for level in range(grid.lmax + 1):
            foreign = cell_at(other, level, other.root.begin)
            with pytest.raises(ValueError, match="not a cell of this grid"):
                cell_path(grid, foreign)
        # the descent reads only children already built, so it builds no cell
        fresh = build_grid(T, K, shift=shift)
        with pytest.raises(ValueError, match="not a cell of this grid"):
            cell_path(fresh, cell_at(other, other.lmax, other.root.begin))
        assert fresh.root._children is None


def test_levels_match_independent_recount_after_lazy_access():
    # touch one leaf first: the rest of the tree is still built on demand
    grid = build_grid(T=5, K=2, shift=1)
    cell_at(grid, 3, 4)
    for level in range(4):
        width = 8 // (2**level)
        expect = [(-1 + i * width, -1 + (i + 1) * width) for i in range(2**level)]
        assert [(c.begin, c.end) for c in grid.levels[level]] == expect


# -- segments: a job's groups in the covering --------------------------------


def test_segments_example_r5():
    grid = build_grid(T=8, K=2, shift=0)
    groups = job_groups(Job(1, 5, 1, 1), grid)
    by_cell = {(g.cell.begin, g.cell.end): segments_flat([g]) for g in groups}
    assert by_cell[(5, 6)] == [(5, 6)]
    assert (4, 6) not in by_cell  # no group in that cell
    assert by_cell[(4, 8)] == [(6, 7), (7, 8)]
    assert (0, 8) not in by_cell
    assert intervals_partition(segments_flat(groups), 5, 8)


def test_segments_full_span_from_root_begin():
    grid = build_grid(T=8, K=2, shift=0)
    groups = job_groups(Job(1, 0, 1, 1), grid)
    assert intervals_partition(segments_flat(groups), 0, 8)


def test_segments_last_slot_only():
    grid = build_grid(T=8, K=2, shift=0)
    groups = job_groups(Job(1, 7, 1, 1), grid)
    assert segments_flat(groups) == [(7, 8)]


def test_segments_release_outside_root():
    grid = build_grid(T=4, K=2)
    with pytest.raises(ValueError):
        job_groups(Job(1, 9, 1, 1), grid)


def test_segment_structure_invariants_random():
    rng = Random(123)
    for trial in range(60):
        K = rng.choice([2, 3])
        inst = random_jobs(rng, rng.randint(1, 4), spread=8)
        T = max(j.release for j in inst.jobs) + sum(j.processing for j in inst.jobs)
        shift = rng.randrange(root_length(T, K))
        grid = build_grid(T, K, shift=shift)
        for job in inst.jobs:
            groups = job_groups(job, grid)
            flat = segments_flat(groups)
            assert intervals_partition(flat, job.release, grid.root.end)
            lengths = [b - a for a, b in flat]
            assert lengths == sorted(lengths)
            for g in groups:
                segments = segments_flat([g])
                widths = {b - a for a, b in segments}
                assert len(widths) == 1
                span = group_span(g)
                assert g.cell.begin <= span[0] and span[1] == g.cell.end
                if g.cell.level <= grid.lmax - 2:
                    count = len(segments)
                    assert count % K == 0 and 0 < count <= K * K
                if g.cell.level <= grid.lmax - 1:
                    child_begins = {c.begin for c in g.cell.children}
                    assert span[0] in child_begins
                assert all(isinstance(x, int) for seg in segments for x in seg)


# -- nesting -------------------------------------------------------------------


def test_nesting_identity():
    grid = build_grid(T=8, K=2)
    job = Job(1, 3, 1, 1)
    assert check_nesting(job, job, grid)


def test_nesting_random_pairs():
    rng = Random(321)
    for _ in range(40):
        K = rng.choice([2, 3])
        inst = random_jobs(rng, rng.randint(2, 4), spread=10)
        T = max(j.release for j in inst.jobs) + sum(j.processing for j in inst.jobs)
        shift = rng.randrange(root_length(T, K))
        grid = build_grid(T, K, shift=shift)
        for a in inst.jobs:
            for b in inst.jobs:
                if a.release <= b.release:
                    assert check_nesting(a, b, grid)


def test_nesting_over_campaign_rows_at_wide_fans():
    # the DP's split rule relies on nesting at every fan the campaigns reach,
    # K = 8 included; the draws above stop at K = 3
    pairs = 0
    for cov in campaign_coverings(40, fans=(2, 3, 4, 5, 8)):
        for a in cov.instance.jobs:
            for b in cov.instance.jobs:
                if a.release <= b.release:
                    assert check_nesting(a, b, cov.grid)
                    pairs += a is not b
    assert pairs > 500


def test_nesting_fails_across_different_shifts():
    # mixing groups built on differently shifted grids breaks the contract
    job_a = Job(1, 2, 1, 1)
    job_b = Job(2, 3, 1, 1)
    grid_a = build_grid(T=6, K=2, shift=0)
    grid_b = build_grid(T=6, K=2, shift=3)
    assert not spans_nest(job_groups(job_a, grid_a), job_groups(job_b, grid_b))


def test_nesting_requires_release_order():
    grid = build_grid(T=6, K=2)
    with pytest.raises(ValueError):
        check_nesting(Job(2, 4, 1, 1), Job(1, 1, 1, 1), grid)
