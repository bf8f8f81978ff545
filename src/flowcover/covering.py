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
Rays are never materialized.  Demands come from one per-column vector over
[0, T], the only columns a ray can sit in: ``excess[t]`` is the processing
released by t, minus t, so d(s, t) = excess[t] - (P_{<s} - s), where P_{<s}
is the processing released before s.  For the rays that can bind, that
offset is one number per row, ``CoveringInstance.row_offset[j - 1]`` =
P_{j-1} - r_j, so d(r_j, t) = excess[t] - row_offset[j - 1]; the feasibility
scan and the DP's settled rays both read it.  Each row tiles
[r_j, end(root)), so a ray [r_j, t] with t inside the root crosses one
rectangle in each row j..m, m the number of rows released by t; the oracle
reads them from per-row column arrays that it builds from the groups.

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

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
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
    structure lets it find with no scan, and the feasibility scan's column
    arrays rely on what it implies: every x-interval is non-empty and
    starts at or after r_j >= 0.

    Raises ValueError unless the release times are pairwise distinct (run
    the release perturbation first) and every release lies inside the
    grid's root interval, or for an unknown cost model.

    ``releases`` holds the jobs' release times in release order,
    ``row_groups[j - 1]`` row j's groups, deepest cell first, as the build
    walks its release's cell chain, ``proc_prefix[j]`` is p_1 + ... + p_j,
    the processing of the first j jobs, for j = 0..n,
    ``excess[t]`` is the processing released by t, minus t, for t = 0..T,
    and ``row_offset[j - 1]`` is P_{j-1} - r_j, so that d(r_j, t) =
    excess[t] - row_offset[j - 1].
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
        rid = 0  # the next rectangle's id
        for job in instance.jobs:
            jid, p = job.id, job.processing
            row: list[PrefixGroup] = []
            # the leaf's group starts at r_j, each ancestor's where the last ended
            lo = job.release
            for cell in reversed(cell_chain(grid, lo)):
                end, width = cell.end, cell.piece_width
                if lo < end:
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
        self.horizon = total_horizon(instance)
        procs = [0] + [job.processing for job in instance.jobs]  # procs[j] = p_j
        self.proc_prefix = list(accumulate(procs))
        self.row_offset = list(map(sub, self.proc_prefix, self.releases))
        released = [0] * (self.horizon + 1)
        for job in instance.jobs:
            released[job.release] += job.processing
        self.excess = list(map(sub, accumulate(released), range(self.horizon + 1)))

    # -- lookups ----------------------------------------------------------

    def demand(self, s: int, t: int) -> int:
        """d([s, t]) = total processing released within [s, t] minus (t - s)."""
        if not 0 <= s <= t <= self.horizon:
            raise ValueError(f"interval [{s}, {t}] outside 0..{self.horizon}")
        return self.excess[t] - (self.proc_prefix[bisect_left(self.releases, s)] - s)


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

    Violations are returned as data, not raised, in (t, s) order.  By the
    binding-ray rule (module docstring), the rays [s, t] with
    r_{j-1} < s <= r_j <= t cross the same rectangles as [r_j, t], those in
    rows j and deeper at t, whose selected capacity is got_j(t); their
    demand d(r_j, t) - (r_j - s) grows with s, and every other ray's demand
    is at most 0.  So one pass per row, deepest first, judges every [s, t]:
    the row's selected rectangles are added to one difference array over
    the columns, whose running sum is got_j, a suffix sum over rows, and
    got_j(t) is compared with need_j(t) = excess[t] - row_offset[j - 1] for
    t >= r_j.  Where it falls short by m, the rays of the m largest s of
    the row's range fail.
    """
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

    releases, row_offset, excess = cov.releases, cov.row_offset, cov.excess
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
