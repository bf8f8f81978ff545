"""Checks the tests share that the package itself never runs.

``segments_flat``, ``group_span``, ``spans_nest`` and ``check_nesting``
state the segment structure of the ``grid`` module docstring;
``is_canonical`` is the state kind that ``DpSolver`` decides in its table
build, computed here on its own.
"""

from __future__ import annotations

from flowcover.covering import CoveringInstance
from flowcover.dpsolver import area_begin
from flowcover.grid import Grid, GridCell, Interval, SegmentGroup, build_segments
from flowcover.jobs import Job


def segments_flat(groups: list[SegmentGroup]) -> list[Interval]:
    """All segments of one job, left to right."""
    return [seg for group in groups for seg in group.segments]


def group_span(group: SegmentGroup) -> Interval | None:
    """[first segment's begin, last segment's end) of a group; None when empty."""
    if not group.segments:
        return None
    return (group.segments[0][0], group.segments[-1][1])


def spans_nest(outer_groups: list[SegmentGroup], inner_groups: list[SegmentGroup]) -> bool:
    """Whether every non-empty inner group's span sits inside the span of some
    outer group whose cell is an ancestor-or-self of the inner group's cell.

    ``outer_groups`` must belong to the job released no later than the other;
    segment groups built on different grids will generally fail this check.
    """
    for inner in inner_groups:
        span = group_span(inner)
        if span is None:
            continue
        if not any(
            (ospan := group_span(outer)) is not None
            and ospan[0] <= span[0]
            and span[1] <= ospan[1]
            and inner.cell.is_descendant_or_self(outer.cell)
            for outer in outer_groups
        ):
            return False
    return True


def check_nesting(job: Job, job2: Job, grid: Grid) -> bool:
    """Nesting property for a pair of jobs built on one shared grid."""
    if job.release > job2.release:
        raise ValueError("check_nesting expects job.release <= job2.release")
    return spans_nest(build_segments(job, grid), build_segments(job2, grid))


def is_canonical(job: int, cell: GridCell, k: int, cov: CoveringInstance) -> bool:
    """Whether the job's own rectangles in ``cell`` exactly span the area of
    (cell, k): its group is non-empty, starts at the area's left edge and
    ends inside the cell."""
    group = cov.group(job, cell)
    if group is None or not group.rectangles:
        return False
    rects = group.rectangles
    return rects[0].x_begin == area_begin(cell, k, cov.grid.K) and rects[-1].x_end <= cell.end
