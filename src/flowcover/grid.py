"""K-ary hierarchical grid over the time horizon and per-job segment structure.

The time axis is recursively subdivided: level 0 is a single root cell whose
half-open interval contains [0, T); every cell longer than the leaf length
has exactly K equal children one level below.  A non-negative shift moves the
whole grid left so that structural boundaries fall at randomized positions
relative to the jobs while all coordinates stay integral.

Each job j is assigned segments Seg(j) that partition [r_j, end(root)).  Take
the chain of cells containing r_j, one per level.  Inside the deepest (leaf)
cell the segments are the unit intervals from r_j to the cell's end.  Inside
each ancestor at level l the segments cover the gap between the next-deeper
chain cell's end and the ancestor's end: unit intervals at the two deepest
levels, level-(l+2) cells otherwise.  Left to right the segment lengths are
non-decreasing, each group's span ends at its cell's end and starts at a
child boundary, and groups of different jobs never partially overlap (the
later-released job's group span lies inside some group span of the earlier
job whose cell is an ancestor-or-self of the later group's cell).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .jobs import Job

Interval = tuple[int, int]


@dataclass(frozen=True, eq=False)
class GridCell:
    """One grid cell: half-open interval [begin, end) at ``level``.

    Cells compare by identity; two builds of the same grid yield distinct
    cell objects on purpose, so structures from different grids cannot be
    mixed silently.
    """

    level: int
    begin: int
    end: int
    children: tuple["GridCell", ...] = field(default=())

    def __hash__(self) -> int:  # stable across runs, unlike id()
        return hash((self.level, self.begin, self.end))

    @property
    def length(self) -> int:
        return self.end - self.begin

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def contains_point(self, x: int) -> bool:
        return self.begin <= x < self.end

    def is_descendant_or_self(self, ancestor: "GridCell") -> bool:
        """Whether this cell lies in ``ancestor``'s subtree (or is it)."""
        return (
            self.level >= ancestor.level
            and ancestor.begin <= self.begin
            and self.end <= ancestor.end
        )


class Grid:
    """Immutable K-ary cell tree; ``levels[l]`` lists level-l cells in order."""

    def __init__(self, root: GridCell, K: int, shift: int, leaf_len: int):
        self.root = root
        self.K = K
        self.shift = shift
        self.leaf_len = leaf_len
        levels: list[list[GridCell]] = []
        frontier = [root]
        while frontier:
            levels.append(frontier)
            frontier = [child for cell in frontier for child in cell.children]
        self.levels = levels
        self._parent: dict[GridCell, GridCell] = {}
        for row in levels:
            for cell in row:
                for child in cell.children:
                    self._parent[child] = cell

    @property
    def lmax(self) -> int:
        return len(self.levels) - 1

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def parent(self, cell: GridCell) -> GridCell | None:
        return self._parent.get(cell)


def root_length(T: int, K: int, leaf_len: int = 1, shift: int = 0) -> int:
    """Smallest leaf_len * K**m covering T + shift; the root's length."""
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    if not 1 <= leaf_len <= K:
        raise ValueError(f"leaf_len must be in 1..K, got {leaf_len}")
    if shift < 0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    length = leaf_len
    while length < T + shift:
        length *= K
    return length


def build_grid(T: int, K: int, shift: int = 0, leaf_len: int = 1) -> Grid:
    """Build the grid whose root [-shift, -shift + leaf_len*K**m) covers [0, T).

    m is the least exponent making the root long enough; cells are subdivided
    into K equal children until their length equals ``leaf_len``.
    """
    length = root_length(T, K, leaf_len, shift)

    def make(level: int, begin: int, span: int) -> GridCell:
        if span == leaf_len:
            return GridCell(level=level, begin=begin, end=begin + span)
        step = span // K
        children = tuple(make(level + 1, begin + i * step, step) for i in range(K))
        return GridCell(level=level, begin=begin, end=begin + span, children=children)

    return Grid(root=make(0, -shift, length), K=K, shift=shift, leaf_len=leaf_len)


def cell_at(grid: Grid, level: int, x: int) -> GridCell:
    """The unique level-``level`` cell whose interval contains x."""
    if not 0 <= level <= grid.lmax:
        raise ValueError(f"level must be in 0..{grid.lmax}, got {level}")
    if not grid.root.contains_point(x):
        raise ValueError(f"x={x} outside root interval [{grid.root.begin}, {grid.root.end})")
    row = grid.levels[level]
    width = row[0].length
    return row[(x - grid.root.begin) // width]


def cell_chain(grid: Grid, x: int) -> list[GridCell]:
    """Cells containing x, one per level, root first."""
    return [cell_at(grid, level, x) for level in range(grid.level_count)]


@dataclass(frozen=True)
class SegmentGroup:
    """The segments of one job inside one cell, ordered left to right."""

    job: int
    cell: GridCell
    segments: tuple[Interval, ...]

    @property
    def span(self) -> Interval | None:
        if not self.segments:
            return None
        return (self.segments[0][0], self.segments[-1][1])


def _chunk(begin: int, end: int, width: int) -> tuple[Interval, ...]:
    return tuple((x, x + width) for x in range(begin, end, width))


def build_segments(job: Job, grid: Grid) -> list[SegmentGroup]:
    """Segment groups of ``job``, deepest cell first.

    Concatenating the groups' segments left to right yields a partition of
    [r_j, end(root)) with non-decreasing segment lengths.  Groups may be
    empty (when the chain cell at the next level already touches the cell's
    end); they are kept so callers see one group per level.
    """
    r = job.release
    if not grid.root.contains_point(r):
        raise ValueError(
            f"release {r} outside root interval [{grid.root.begin}, {grid.root.end})"
        )
    chain = cell_chain(grid, r)
    groups: list[SegmentGroup] = []
    leaf = chain[grid.lmax]
    groups.append(SegmentGroup(job=job.id, cell=leaf, segments=_chunk(r, leaf.end, 1)))
    for level in range(grid.lmax - 1, -1, -1):
        cell = chain[level]
        lo = chain[level + 1].end
        if level > grid.lmax - 2:
            width = 1
        else:
            width = grid.levels[level + 2][0].length
        groups.append(SegmentGroup(job=job.id, cell=cell, segments=_chunk(lo, cell.end, width)))
    return groups


def segments_flat(groups: list[SegmentGroup]) -> list[Interval]:
    """All segments of one job, left to right."""
    return [seg for group in groups for seg in group.segments]


def spans_nest(
    outer_groups: list[SegmentGroup], inner_groups: list[SegmentGroup]
) -> bool:
    """Whether every non-empty inner group's span sits inside the span of some
    outer group whose cell is an ancestor-or-self of the inner group's cell.

    ``outer_groups`` must belong to the job released no later than the other;
    segment groups built on different grids will generally fail this check.
    """
    for inner in inner_groups:
        span = inner.span
        if span is None:
            continue
        if not any(
            (ospan := outer.span) is not None
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


def cell_path(grid: Grid, cell: GridCell) -> str:
    """Slash-separated child indices from the root; the root path is ''."""
    parts: list[int] = []
    cur = cell
    parent = grid.parent(cur)
    while parent is not None:
        parts.append(parent.children.index(cur))
        cur = parent
        parent = grid.parent(cur)
    return "/".join(str(i) for i in reversed(parts))


def _cell_payload(cell: GridCell) -> dict:
    payload: dict = {"level": cell.level, "begin": cell.begin, "end": cell.end}
    if cell.children:
        payload["children"] = [_cell_payload(c) for c in cell.children]
    return payload


def grid_to_json(grid: Grid, segment_groups: list[SegmentGroup] | None = None) -> str:
    """Debug dump of the cell tree and, optionally, segment groups."""
    payload: dict = {
        "K": grid.K,
        "shift": grid.shift,
        "leaf_len": grid.leaf_len,
        "lmax": grid.lmax,
        "root": _cell_payload(grid.root),
    }
    if segment_groups is not None:
        payload["segments"] = [
            {
                "job": g.job,
                "cell_path": cell_path(grid, g.cell),
                "segments": [list(seg) for seg in g.segments],
            }
            for g in segment_groups
        ]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
