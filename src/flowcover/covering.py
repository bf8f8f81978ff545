"""Geometric covering instances: rectangles, prefix groups, rays, demands.

Each job j has segments that partition [r_j, end(root)) of the ``grid``.
Take the chain of cells containing r_j, one per level.  The deepest (leaf)
cell is the unit [r_j, r_j + 1), the first segment.  Inside each ancestor
the segments are its pieces (``GridCell.piece_width``) between the
next-deeper chain cell's end and the ancestor's end; an ancestor whose
next-deeper chain cell already ends where it does holds none.  Left to
right the segment lengths are non-decreasing, each group's span ends at its
cell's end and starts at a child boundary, and groups of different jobs
never partially overlap (the later-released job's group span lies inside
some group span of the earlier job whose cell is an ancestor-or-self of the
later group's cell).  ``CoveringInstance`` is the one place these segments
are made, so the structure holds by construction and nothing downstream
re-derives it.

Every segment of job j becomes an axis-parallel rectangle: the segment's
x-interval at unit height in row j (y in [j, j+1)).  A rectangle carries a
cost and a capacity equal to the job's processing time.  Within one group
(one job, one cell) a valid selection must take a left prefix of the
rectangles.

For every integer interval [s, t] with 0 <= s <= t <= T there is a downward
ray at x = t + 1/2 starting just below row j, the earliest released job with
r_j >= s.  Its demand is

    d([s, t]) = sum of p_j over jobs with s <= r_j <= t,  minus (t - s),

the amount of work released in the window that cannot have finished by t.  A
selection is feasible when every ray's demand is covered by the total
capacity of selected rectangles the ray passes through.

Only rays that start at a release can bind.  If r_j <= t, no job is released
in [s, r_j), so the ray of [s, t] crosses the same rectangles as that of
[r_j, t] (rows j and deeper at t) and d(s, t) = d(r_j, t) - (r_j - s).  Any
other ray has no release in [s, t], so d(s, t) = -(t - s) <= 0.  The
feasibility scan, the oracle and the DP's settled rays rest on this rule.
Rays are never materialized, and no column is visited on its own.  The
columns [0, T] a ray can sit in fall into *runs*: a run starts at a
rectangle's ``x_begin`` or at the root's end, the ones in [0, T], and
lasts to the next start, or to T.  Each release is the ``x_begin`` of its
leaf's rectangle, and each ``x_end`` the next ``x_begin`` of its row or the
root's end, so inside a run no job is released and every ray crosses the
same rectangles: each demand falls by exactly one per column, and the
run's first column holds its largest.  Demands come from one
value per run: ``excess[x]``, at a run start x, is the processing released
by x, minus x, so d(s, t) = excess[x] - (t - x) - (P_{<s} - s) for t in the
run of x, where P_{<s} is the processing released before s.  For the rays
that can bind, that offset is one number per row,
``CoveringInstance.row_offset[j - 1]`` = P_{j-1} - r_j, so d(r_j, x) =
excess[x] - row_offset[j - 1]; the feasibility scan, the oracle and the
DP's settled rays all read it.  Each row tiles [r_j, end(root)), so a ray
[r_j, t] with t inside the root crosses one rectangle in each row j..m, m
the number of rows released by t; the feasibility scan sums the selected
capacity per run and the oracle reads the rectangles from per-row run
arrays that it builds from the groups.  So both cost the number of
rectangles, not the horizon T.

``CoveringInstance`` is the one way to make a covering, so what the rest
of the package relies on holds by construction (its docstring) and is
never checked again.  A build walks each job's cell chain once and makes
one ``Rectangle`` per segment and one ``PrefixGroup`` per chain cell that
holds segments, dozens per small instance, so both are
``typing.NamedTuple``s: immutable, equal and hashed by value.  The build
makes them with ``tuple.__new__(cls, (...))``, which skips the
Python-level ``__new__`` that a NamedTuple call runs and so costs less than
half as much a record; a frozen dataclass costs more still, since it
assigns each field through ``object.__setattr__``.

Costs come from a built-in model named in ``COST_MODELS``.  The default
charges weight * segment length, the weighted duration the job stays alive
across that segment; ``unit`` charges 1 per rectangle.  The exact cost
function of the full scheduling reduction is out of scope, so end-to-end
flow-time optimality is not claimed for either model; the solver is exact
for whatever costs the instance carries.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter, sub
from typing import Callable, Iterable, NamedTuple

from .grid import Grid, GridCell, cell_chain, cell_path
from .jobs import Job, JobInstance, total_horizon

CostFn = Callable[[Job, int, int], int]


def weighted_length_cost(job: Job, x_begin: int, x_end: int) -> int:
    return job.weight * (x_end - x_begin)


def unit_cost(job: Job, x_begin: int, x_end: int) -> int:
    return 1


COST_MODELS: dict[str, CostFn] = {
    "weighted_length": weighted_length_cost,
    "unit": unit_cost,
}


def resolve_cost_model(model: str) -> CostFn:
    """The built-in cost function named ``model``; ValueError for anything
    else, a value that is no name (a list, a tuple) included."""
    if isinstance(model, str) and model in COST_MODELS:
        return COST_MODELS[model]
    raise ValueError(f"unknown cost model {model!r}; built-ins: {sorted(COST_MODELS)}")


class Rectangle(NamedTuple):
    """Segment [x_begin, x_end) of job ``job`` lifted to row [job, job+1)."""

    rid: int
    job: int
    x_begin: int
    x_end: int
    cost: int
    capacity: int


class PrefixGroup(NamedTuple):
    """Rectangles of one job in one cell, left to right; selections must take
    a (possibly empty) prefix of this order."""

    job: int
    cell: GridCell
    rectangles: tuple[Rectangle, ...]


@dataclass(frozen=True)
class Selection:
    """A chosen subset of rectangles, identified by rectangle ids."""

    chosen: frozenset[int]

    @staticmethod
    def of(ids: Iterable[int]) -> "Selection":
        return Selection(chosen=frozenset(ids))

    def sorted_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.chosen))


@dataclass(frozen=True)
class RayViolation:
    s: int
    t: int
    required: int
    covered: int


@dataclass(frozen=True)
class PrefixViolation:
    job: int
    cell_begin: int
    cell_end: int
    selected_positions: tuple[int, ...]


@dataclass(frozen=True)
class FeasibilityReport:
    prefix_violations: tuple[PrefixViolation, ...]
    demand_violations: tuple[RayViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.prefix_violations and not self.demand_violations


class CoveringInstance:
    """Rectangles, groups, and ray machinery built from jobs plus a grid.

    The one way to make a covering: for each job in order, every cell of
    its release's chain that holds segments (module docstring) becomes one
    ``PrefixGroup`` holding one ``Rectangle`` per segment, costed by the
    ``cost_model`` named in ``COST_MODELS``.  So ids run 0..N-1 in group
    order, every rectangle's capacity is its job's processing, and every
    rectangle costs at least 1 (both models charge a weight >= 1 times a
    length >= 1, or 1; the DP's threshold bounds rely on it).  Each row's
    groups carry the segment structure of the module docstring: each row
    tiles [r_j, end(root)), groups nest and none straddles a cell.  The
    DP's tables are these groups and splits of a row's groups, which the
    structure lets it find with no scan, and the feasibility scan's run
    arrays rely on what it implies: every x-interval is non-empty and
    starts at or after r_j >= 0, and every boundary is a run start or lies
    past T.

    Raises ValueError unless the release times are pairwise distinct (run
    the release perturbation first) and every release lies inside the
    grid's root interval, or for an unknown cost model.

    ``releases`` holds the jobs' release times in release order,
    ``row_groups[j - 1]`` row j's groups, deepest cell first, as the build
    walks its release's cell chain, ``proc_prefix[j]`` is p_1 + ... + p_j,
    the processing of the first j jobs, for j = 0..n, and
    ``row_offset[j - 1]`` is P_{j-1} - r_j.  ``run_starts`` lists the runs'
    first columns (module docstring), left to right: the distinct rectangle
    ``x_begin``s up to T, and the root's end when it is up to T.
    ``run_of`` maps every rectangle boundary, ``x_begin`` or ``x_end``, to
    the index of the run it starts, and one past T to the number of runs.
    ``excess[x]``, for a run start x, is the processing released by x, minus
    x, so that d(r_j, t) = excess[x] - (t - x) - row_offset[j - 1] for t in
    the run of x.  ``group_firsts`` holds each group's first id.
    """

    def __init__(self, instance: JobInstance, grid: Grid, cost_model: str = "weighted_length"):
        self.releases = instance.releases()
        if len(set(self.releases)) != len(self.releases):
            raise ValueError("release times must be pairwise distinct; perturb the instance first")
        cost_fn = resolve_cost_model(cost_model)
        new = tuple.__new__  # positional records (module docstring)
        groups: list[PrefixGroup] = []
        rectangles: list[Rectangle] = []
        row_groups: list[tuple[PrefixGroup, ...]] = []
        firsts: list[int] = []
        rid = 0  # the next rectangle's id
        for job in instance.jobs:
            jid, p = job.id, job.processing
            row: list[PrefixGroup] = []
            # the leaf's group starts at r_j, each ancestor's where the last ended
            lo = job.release
            for cell in reversed(cell_chain(grid, lo)):
                end, width = cell.end, cell.piece_width
                if lo < end:
                    firsts.append(rid)
                    rects = []
                    for a in range(lo, end, width):
                        b = a + width
                        rects.append(new(Rectangle, (rid, jid, a, b, cost_fn(job, a, b), p)))
                        rid += 1
                    rectangles += rects
                    group = new(PrefixGroup, (jid, cell, tuple(rects)))
                    row.append(group)
                    lo = end
            groups += row
            row_groups.append(tuple(row))
        self.instance = instance
        self.grid = grid
        self.groups = tuple(groups)
        self.row_groups = row_groups
        self.rectangles: tuple[Rectangle, ...] = tuple(rectangles)
        self.group_firsts = frozenset(firsts)
        self.horizon = T = total_horizon(instance)
        procs = [0] + [job.processing for job in instance.jobs]  # procs[j] = p_j
        self.proc_prefix = proc_prefix = list(accumulate(procs))
        self.row_offset = list(map(sub, proc_prefix, self.releases))
        # runs (module docstring): every x_end is the next x_begin of its
        # row or the root's end, so these are all the boundaries
        bounds = set(map(attrgetter("x_begin"), rectangles))
        bounds.add(grid.root.end)
        self.run_starts = starts = sorted([x for x in bounds if x <= T])
        self.run_of = run_of = dict.fromkeys(bounds, len(starts))
        run_of.update(zip(starts, range(len(starts))))
        released = [0] * len(starts)  # the processing released at each start
        for r, p in zip(self.releases, procs[1:]):
            released[run_of[r]] += p
        self.excess = dict(zip(starts, map(sub, accumulate(released), starts)))

    # -- lookups ----------------------------------------------------------

    def demand(self, s: int, t: int) -> int:
        """d([s, t]) = total processing released within [s, t] minus (t - s)."""
        if not 0 <= s <= t <= self.horizon:
            raise ValueError(f"interval [{s}, {t}] outside 0..{self.horizon}")
        releases, proc_prefix = self.releases, self.proc_prefix
        released = proc_prefix[bisect_right(releases, t)] - proc_prefix[bisect_left(releases, s)]
        return released - (t - s)


def build_covering(
    instance: JobInstance, grid: Grid, cost_model: str = "weighted_length"
) -> CoveringInstance:
    """The covering of ``instance`` on ``grid``; see ``CoveringInstance``."""
    return CoveringInstance(instance, grid, cost_model)


def selection_cost(cov: CoveringInstance, sel: Selection) -> int:
    total = 0
    for rid in sel.chosen:
        if not 0 <= rid < len(cov.rectangles):
            raise KeyError(f"unknown rectangle id {rid}")
        total += cov.rectangles[rid].cost
    return total


def check_feasible(cov: CoveringInstance, sel: Selection) -> FeasibilityReport:
    """Scan every prefix constraint and every interval [s, t] within the horizon.

    Violations are returned as data, not raised, in (t, s) order.  A
    selection breaks a group's prefix exactly when some chosen id neither
    starts its group nor follows a chosen id, so one test per chosen id
    finds whether any does, and only then are the groups walked to list
    the positions.  By the binding-ray rule (module docstring), the rays
    [s, t] with r_{j-1} < s <= r_j <= t cross the same rectangles as
    [r_j, t], those in rows j and deeper at t, whose selected capacity is
    got_j(t); their demand d(r_j, t) - (r_j - s) grows with s, and every
    other ray's demand is at most 0.  So one pass per row, deepest first,
    judges every [s, t], run by run: the row's selected rectangles are
    added to one difference array over the runs, whose running sum is got_j
    on each run, a suffix sum over rows, and got_j is compared with
    need_j(t) = excess[x] - (t - x) - row_offset[j - 1] on each run from
    the one r_j starts, x the run's start.  need_j - got_j falls by one a
    column, so a run falls short only when its first column does, and where
    that column falls short by m, exactly the run's first m columns do
    (fewer if the run is shorter); at each, where it falls short by m', the
    rays of the m' largest s of the row's range fail.
    """
    chosen, rectangles, firsts = sel.chosen, cov.rectangles, cov.group_firsts
    prefix_viols: list[PrefixViolation] = []
    # an id outside the covering is in no group, so it breaks none
    breaks = [i for i in chosen if i - 1 not in chosen and i not in firsts]
    if breaks:
        for group in cov.groups:
            rects = group.rectangles
            first = rects[0].rid  # a group's ids run first, first + 1, ...
            if any(first <= i < first + len(rects) for i in breaks):
                prefix_viols.append(
                    PrefixViolation(
                        job=group.job,
                        cell_begin=group.cell.begin,
                        cell_end=group.cell.end,
                        selected_positions=tuple(
                            [i for i, r in enumerate(rects) if r.rid in chosen]
                        ),
                    )
                )
    # the chosen rectangles, deepest row first: ids run in row order
    picked = [rectangles[i] for i in sorted(chosen, reverse=True) if 0 <= i < len(rectangles)]

    releases, row_offset, run_of = cov.releases, cov.row_offset, cov.run_of
    starts, excess = cov.run_starts, list(cov.excess.values())
    diff = [0] * (len(starts) + 1)  # selected capacity in the rows passed, by run
    found: list[tuple[int, int, int, int]] = []  # (t, s, required, covered)
    k = 0
    for j in range(cov.instance.n, 0, -1):
        while k < len(picked) and picked[k].job == j:
            r = picked[k]
            diff[run_of[r.x_begin]] += r.capacity
            diff[run_of[r.x_end]] -= r.capacity
            k += 1
        r_j = releases[j - 1]
        first = run_of[r_j]  # the run r_j starts; no row from j on has a rectangle before it
        bar = row_offset[j - 1]  # need_j at a run start x is excess[x] - bar
        # excess[x] - got_j(x) at each run start x from r_j on
        left = list(map(sub, excess[first:], accumulate(diff[first:])))
        if max(left) <= bar:
            continue
        first_s = releases[j - 2] + 1 if j > 1 else 0  # the row's s run first_s..r_j
        for i, lead in enumerate(left, first):
            if lead > bar:
                covered, start = excess[i] - lead, starts[i]
                end = starts[i + 1] if i + 1 < len(starts) else cov.horizon + 1
                for t in range(start, min(start + lead - bar, end)):
                    x = lead - (t - start)  # excess[t] - got_j(t)
                    need = x - bar + covered
                    for s in range(max(first_s, r_j - x + bar + 1), r_j + 1):
                        found.append((t, s, need - (r_j - s), covered))
    found.sort()
    return FeasibilityReport(
        prefix_violations=tuple(prefix_viols),
        demand_violations=tuple(
            [RayViolation(s=s, t=t, required=q, covered=c) for t, s, q, c in found]
        ),
    )


def covering_record(cov: CoveringInstance) -> dict:
    """The covering's groups as a JSON-ready dict, with their ordered
    rectangle records; ``reduce`` adds the reduction's own fields."""
    return {
        "leaf_len": 1,  # leaves are unit cells; the record keeps the field
        "groups": [
            {
                "job": g.job,
                "cell_path": cell_path(cov.grid, g.cell),
                "rectangles": [
                    {
                        "id": r.rid,
                        "job": r.job,
                        "x_begin": r.x_begin,
                        "x_end": r.x_end,
                        "cost": r.cost,
                        "capacity": r.capacity,
                    }
                    for r in g.rectangles
                ],
            }
            for g in cov.groups
        ],
    }
