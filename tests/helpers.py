"""Checks the tests share that the package itself never runs.

``job_groups`` reads one job's groups off a one-job covering, and
``segments_flat``, ``group_span``, ``is_descendant_or_self``,
``spans_nest`` and ``check_nesting`` state the segment structure of the
``covering`` module docstring on them.  ``area_begin`` is the left edge
of the area (cell, k), and ``group_at`` finds a row's group in a cell by
scanning the covering; ``is_canonical`` and ``area_holds_rectangle`` are
the two facts that decide a table's kind, computed here on their own by
scanning the covering.  ``table_of`` reads a solver's table of a group,
and ``table_areas`` every table linked from its root, each with its area.
``subcells`` and ``dense_carry`` lay out a state's carry by its pieces.
``next_carry`` and ``clamp`` are the whole-vector carry map and theta
clamp that the DP's single-pass steps are checked against, and
``step_over_top_child`` the canonical step, take by take, that a tail
table's answer is checked against.  ``rects_crossing``, ``anchor_job``
and ``ray_rectangles`` give the rectangles a ray [s, t] crosses from a
per-column crossing index, and ``full_selection`` and ``release_of``
read a covering the way the tests need and the package does not.
``campaign_coverings`` draws the reductions that several draw-loop tests
share.  ``reference_scan`` is the feasibility scan column by column, over
a demand vector with one entry per time step, that the scan over runs of
columns is checked against.  ``opt_weighted_flow_time`` is the exhaustive optimum of a
desk-scale schedule instance, the reference that the perturbation bound
is checked against, and ``edf_meets_deadlines`` the schedule that the
covering's feasibility is checked against.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator, Sequence
from functools import cache
from itertools import accumulate
from math import inf
from operator import sub

from flowcover.covering import (
    COST_MODELS,
    CoveringInstance,
    FeasibilityReport,
    PrefixGroup,
    PrefixViolation,
    RayViolation,
    Rectangle,
    Selection,
)
from flowcover.dpsolver import Bounds, Carry, DpSolver, Entry, TripleTable
from flowcover.grid import Grid, GridCell
from flowcover.harness import CampaignConfig, campaign_instance
from flowcover.jobs import Job, JobInstance, make_instance, total_horizon
from flowcover.oracle import reduce_instance

Interval = tuple[int, int]


def job_groups(job: Job, grid: Grid) -> tuple[PrefixGroup, ...]:
    """The groups of ``job`` alone on ``grid``, deepest cell first: the one
    row of a one-job covering.  The job is re-id'd as 1 through
    ``make_instance``, so draws with repeated releases work too."""
    alone = make_instance([(job.release, job.processing, job.weight)])
    return CoveringInstance(alone, grid).row_groups[0]


def segments_flat(groups: Sequence[PrefixGroup]) -> list[Interval]:
    """All segments of one job, left to right."""
    return [(r.x_begin, r.x_end) for group in groups for r in group.rectangles]


def group_span(group: PrefixGroup) -> Interval:
    """[first segment's begin, last segment's end) of a group."""
    return (group.rectangles[0].x_begin, group.rectangles[-1].x_end)


def is_descendant_or_self(cell: GridCell, ancestor: GridCell) -> bool:
    """Whether ``cell`` lies in ``ancestor``'s subtree (or is it)."""
    return (
        cell.level >= ancestor.level
        and ancestor.begin <= cell.begin
        and cell.end <= ancestor.end
    )


def spans_nest(outer_groups: Sequence[PrefixGroup], inner_groups: Sequence[PrefixGroup]) -> bool:
    """Whether every inner group's span sits inside the span of some outer
    group whose cell is an ancestor-or-self of the inner group's cell.

    ``outer_groups`` must belong to the job released no later than the other;
    groups built on different grids will generally fail this check.
    """
    for inner in inner_groups:
        begin, end = group_span(inner)
        if not any(
            (ospan := group_span(outer))[0] <= begin
            and end <= ospan[1]
            and is_descendant_or_self(inner.cell, outer.cell)
            for outer in outer_groups
        ):
            return False
    return True


def check_nesting(job: Job, job2: Job, grid: Grid) -> bool:
    """Nesting property for a pair of jobs built on one shared grid."""
    if job.release > job2.release:
        raise ValueError("check_nesting expects job.release <= job2.release")
    return spans_nest(job_groups(job, grid), job_groups(job2, grid))


def area_begin(cell: GridCell, k: int, K: int) -> int:
    """Left edge x1 of the area of (cell, k): the k-th child's begin, or the
    begin of a leaf, whose only area is k = 1."""
    top = 1 if cell.is_leaf else K
    if not 1 <= k <= top:
        raise ValueError(f"k must be in 1..{top}, got {k}")
    return cell.begin + (k - 1) * (cell.length // K)


def group_at(cov: CoveringInstance, job: int, cell: GridCell) -> PrefixGroup | None:
    """Row ``job``'s group in ``cell``, by scanning every group; None when
    the row has none there."""
    for group in cov.groups:
        if group.job == job and group.cell is cell:
            return group
    return None


def table_of(solver: DpSolver, group: PrefixGroup) -> TripleTable:
    """The table ``solver`` built for ``group``; ValueError unless it
    built exactly one."""
    found = [tab for tab in solver._tables if tab.group is group]
    if len(found) != 1:
        raise ValueError(f"{len(found)} tables of {group}")
    return found[0]


def table_areas(solver: DpSolver) -> list[tuple[TripleTable, tuple[int, GridCell, int]]]:
    """Each table linked from the solver's root, the first table it built,
    with its area (job, cell, k), root first.  The root's area is row 1
    over the root cell, a canonical table's child's is the table's own area
    one row down, and a split part's is its group's area in the split's
    row."""
    root = solver.grid.root
    found, todo = [], [(solver._tables[0], (1, root, 1))]
    while todo:
        tab, (job, cell, k) = todo.pop()
        found.append((tab, (job, cell, k)))
        if tab.child is not None:
            todo.append((tab.child, (job + 1, cell, k)))
        for part, _ in tab.parts:
            part_cell, x = part.group.cell, part.group.rectangles[0].x_begin
            part_k = 1 if part_cell.is_leaf else part_cell.child_index(x) + 1
            todo.append((part, (job, part_cell, part_k)))
    return found


def is_canonical(job: int, cell: GridCell, k: int, cov: CoveringInstance) -> bool:
    """Whether the job's own rectangles in ``cell`` exactly span the area of
    (cell, k): its group is non-empty, starts at the area's left edge and
    ends inside the cell."""
    group = group_at(cov, job, cell)
    if group is None or not group.rectangles:
        return False
    rects = group.rectangles
    return rects[0].x_begin == area_begin(cell, k, cov.grid.K) and rects[-1].x_end <= cell.end


def area_holds_rectangle(job: int, cell: GridCell, k: int, cov: CoveringInstance) -> bool:
    """Whether a rectangle of row ``job`` or deeper lies wholly inside the
    area [area_begin, end(cell)) of (cell, k), by scanning every rectangle."""
    x_begin = area_begin(cell, k, cov.grid.K)
    return any(
        r.job >= job and x_begin <= r.x_begin and r.x_end <= cell.end for r in cov.rectangles
    )


def subcells(cell: GridCell, k: int, grid: Grid) -> tuple[Interval, ...]:
    """The pieces of (cell, k), one per carry value: the cell's pieces across
    the area's x-span."""
    width = cell.piece_width
    return tuple((x, x + width) for x in range(area_begin(cell, k, grid.K), cell.end, width))


def dense_carry(
    cell: GridCell, k: int, grid: Grid, values: dict[Interval, int] | None = None
) -> Carry:
    """The carry of (cell, k) with ``values`` on the pieces it names and 0
    on the others; ValueError for an interval that is not a piece."""
    values = values or {}
    pieces = subcells(cell, k, grid)
    unknown = set(values) - set(pieces)
    if unknown:
        raise ValueError(f"intervals {sorted(unknown)} are not pieces of the state")
    return tuple(values.get(piece, 0) for piece in pieces)


def next_carry(carry: Carry, processing: int, release_gap: int, paid_capacity: int) -> list[int]:
    """Carried demand for the next row, piece by piece: each old debt plus
    the current job's processing, minus the release gap and whatever
    selected capacity paid, and at least 0.  One call maps a whole carry,
    since every piece shares the shift."""
    cleared = release_gap + paid_capacity - processing  # a debt this small clears
    return [v - cleared if v > cleared else 0 for v in carry]


def clamp(carry: Sequence[int], theta: Bounds) -> list[int]:
    """``carry`` as a list with 0 on every piece where it is at most theta."""
    return [v if v > t else 0 for v, t in zip(carry, theta)]


def step_over_top_child(
    cov: CoveringInstance, job: int, cell: GridCell, k: int, carry: Carry
) -> Entry | None:
    """The answer of the canonical state of the area (job, cell, k) and
    ``carry`` when the area one row down holds no rectangle, from every
    take of the group in turn: the child's bounds are then its top, the
    processing of rows 1..job, on every piece, and each take's
    ``next_carry`` must lie within it, so the child answers (0, ()).  A
    take covers the state when every ray [r_job, t] of a piece, t <= T,
    has demand plus the piece's carry at most the capacity the take puts
    there: p_job on the pieces it takes, 0 on the others.  The cheapest
    covering take wins, a tie going to the smaller ids; None when no take
    covers it.  ValueError unless row job's group in the cell, found by
    scanning the covering, spans the area and the carry has one value per
    rectangle, or for a child carry outside 0..top, which the child's
    bounds would not decide."""
    group = group_at(cov, job, cell)
    rects = group.rectangles if group else ()
    if not rects or rects[0].x_begin != area_begin(cell, k, cov.grid.K) or len(carry) != len(rects):
        raise ValueError(f"({job}, {cell!r}, {k}) is no canonical area of the carry {carry}")
    r_job, p = release_of(cov, job), rects[0].capacity
    gap, top = release_of(cov, job + 1) - r_job, cov.proc_prefix[job]
    best = None
    for take in range(len(rects) + 1):
        child = next_carry(carry[:take], p, gap, p) + next_carry(carry[take:], p, gap, 0)
        if not all(0 <= v <= top for v in child):
            raise ValueError(f"take {take} hands the child {child}, outside 0..{top}")
        covers = all(
            cov.demand(r_job, t) + v <= (p if pos < take else 0)
            for pos, (rect, v) in enumerate(zip(rects, carry))
            for t in range(max(rect.x_begin, r_job), min(rect.x_end, cov.horizon + 1))
        )
        if covers:
            entry = (sum(r.cost for r in rects[:take]), tuple(r.rid for r in rects[:take]))
            if best is None or entry < best:
                best = entry
    return best


def rects_crossing(cov: CoveringInstance, t: int) -> tuple[Rectangle, ...]:
    """Rectangles whose x-interval contains t + 1/2, sorted by row.

    Indexed for 0 <= t <= horizon only, where every ray lies; ``()`` for
    any other t.  The index is built on the first call and kept on the
    covering as ``_crossing``; rectangles come job by job, so each column's
    list is already in row order.
    """
    crossing = vars(cov).get("_crossing")
    if crossing is None:
        columns: list[list[Rectangle]] = [[] for _ in range(cov.horizon + 1)]
        for rect in cov.rectangles:
            for x in range(rect.x_begin, min(rect.x_end, cov.horizon + 1)):
                columns[x].append(rect)
        crossing = cov._crossing = [tuple(column) for column in columns]
    if not 0 <= t < len(crossing):
        return ()
    return crossing[t]


def anchor_job(cov: CoveringInstance, s: int) -> int | None:
    """1-based id of the earliest released job with release >= s."""
    idx = bisect_left(cov.releases, s)
    return idx + 1 if idx < len(cov.releases) else None


def ray_rectangles(cov: CoveringInstance, s: int, t: int) -> tuple[Rectangle, ...]:
    """Rectangles the ray of [s, t] passes through: crossing t + 1/2 at rows
    at or below the anchor job.  Empty when no job is released at or after s."""
    if not 0 <= s <= t <= cov.horizon:
        raise ValueError(f"interval [{s}, {t}] outside 0..{cov.horizon}")
    anchor = anchor_job(cov, s)
    if anchor is None:
        return ()
    return tuple([r for r in rects_crossing(cov, t) if r.job >= anchor])


def full_selection(cov: CoveringInstance) -> Selection:
    """Every rectangle of the covering, which covers every demand."""
    return Selection.of(r.rid for r in cov.rectangles)


def release_of(cov: CoveringInstance, job: int) -> int:
    """Release of ``job``; one past the horizon for the sentinel job n+1.
    ValueError for any job outside 1..n+1."""
    n = cov.instance.n
    if not 1 <= job <= n + 1:
        raise ValueError(f"job {job} outside 1..{n + 1}")
    if job == n + 1:
        return cov.horizon + 1
    return cov.releases[job - 1]


def campaign_coverings(
    draws: int, fans: Sequence[int] = (2, 3, 4, 5)
) -> Iterator[CoveringInstance]:
    """The reductions of campaign draws 0..``draws`` - 1 at each K in
    ``fans`` under each cost model, with n <= 4 at K = 2 and n <= 3 above
    it."""
    for K in fans:
        for cost_model in COST_MODELS:
            for seed in range(draws):
                cfg = CampaignConfig(seed=seed, K=K, n_max=4 if K == 2 else 3)
                yield reduce_instance(campaign_instance(seed, cfg), K, seed, cost_model=cost_model)


def reference_scan(cov: CoveringInstance, sel: Selection) -> FeasibilityReport:
    """``check_feasible`` column by column: each group's prefix from its
    first id on, then one pass per row, deepest first, over a difference
    array with one entry per column 0..T + 1 and the demand vector
    excess[t], the processing released by t minus t, for t = 0..T."""
    chosen = sel.chosen
    n, T = cov.instance.n, cov.horizon
    rows: list[list[Rectangle]] = [[] for _ in range(n + 1)]
    prefix_viols: list[PrefixViolation] = []
    for group in cov.groups:
        rects = group.rectangles
        first = rects[0].rid  # a group's ids run first, first + 1, ...
        take = 0
        while take < len(rects) and first + take in chosen:
            take += 1
        if chosen.isdisjoint(range(first + take + 1, first + len(rects))):
            rows[group.job] += rects[:take]
            continue
        positions = tuple([i for i, r in enumerate(rects) if r.rid in chosen])
        prefix_viols.append(
            PrefixViolation(
                job=group.job,
                cell_begin=group.cell.begin,
                cell_end=group.cell.end,
                selected_positions=positions,
            )
        )
        rows[group.job] += [rects[i] for i in positions]

    released = [0] * (T + 1)
    for job in cov.instance.jobs:
        released[job.release] += job.processing
    excess = list(map(sub, accumulate(released), range(T + 1)))
    releases, row_offset = cov.releases, cov.row_offset
    diff = [0] * (T + 2)  # selected capacity in the rows passed, as differences
    found: list[tuple[int, int, int, int]] = []  # (t, s, required, covered)
    for j in range(n, 0, -1):
        for r in rows[j]:
            if r.x_begin <= T:
                diff[r.x_begin] += r.capacity
                diff[min(r.x_end, T + 1)] -= r.capacity
        got = list(accumulate(diff))  # got_j(t)
        r_j = releases[j - 1]
        bar = row_offset[j - 1]  # need_j(t) = excess[t] - bar
        left = list(map(sub, excess[r_j:], got[r_j:]))  # excess[t] - got_j(t)
        if max(left) <= bar:
            continue
        first_s = releases[j - 2] + 1 if j > 1 else 0  # the row's s run first_s..r_j
        for t, x in enumerate(left, r_j):
            if x > bar:
                need = x - bar + got[t]
                for s in range(max(first_s, r_j - x + bar + 1), r_j + 1):
                    found.append((t, s, need - (r_j - s), got[t]))
    found.sort()
    return FeasibilityReport(
        prefix_violations=tuple(prefix_viols),
        demand_violations=tuple(
            [RayViolation(s=s, t=t, required=q, covered=c) for t, s, q, c in found]
        ),
    )


_TINY_MAX_JOBS = 5
_TINY_MAX_HORIZON = 32


def opt_weighted_flow_time(instance: JobInstance) -> int:
    """Minimum weighted flow time of ``instance`` over preemptive schedules,
    by exhaustive slot-by-slot search memoized on (time, remaining work):
    each unit slot runs one released, unfinished job or idles.  ValueError
    beyond n <= 5 and T <= 32; RuntimeError when no schedule completes
    within the horizon, which ``total_horizon`` always admits."""
    n, horizon = instance.n, total_horizon(instance)
    if n > _TINY_MAX_JOBS or horizon > _TINY_MAX_HORIZON:
        raise ValueError(
            f"opt_weighted_flow_time handles n <= {_TINY_MAX_JOBS}, "
            f"T <= {_TINY_MAX_HORIZON}; got n={n}, T={horizon}"
        )
    releases = [j.release for j in instance.jobs]
    weights = [j.weight for j in instance.jobs]

    @cache
    def best(t: int, remaining: tuple[int, ...]) -> float:
        if not any(remaining):
            return 0
        if t == horizon:
            return inf
        cost = best(t + 1, remaining)  # idle
        for i, left in enumerate(remaining):
            if left and releases[i] <= t:
                done = weights[i] * (t + 1 - releases[i]) if left == 1 else 0
                rest = remaining[:i] + (left - 1,) + remaining[i + 1 :]
                cost = min(cost, done + best(t + 1, rest))
        return cost

    cost = best(0, tuple([j.processing for j in instance.jobs]))
    if cost == inf:
        raise RuntimeError("no complete schedule within the horizon; the horizon always admits one")
    return cost


def edf_meets_deadlines(jobs: Sequence[tuple[int, int, int]]) -> bool:
    """Whether earliest-deadline-first finishes every (release, processing,
    deadline) job by its deadline.  Each unit slot [t, t + 1) runs the
    released, unfinished job with the earliest deadline; on one machine with
    preemption, EDF meets every deadline whenever any schedule does."""
    left = [p for _, p, _ in jobs]
    t = 0
    while any(left):
        ready = [i for i, (r, _, _) in enumerate(jobs) if r <= t and left[i]]
        if ready:
            i = min(ready, key=lambda i: jobs[i][2])
            left[i] -= 1
            if not left[i] and t + 1 > jobs[i][2]:
                return False
        t += 1
    return True
