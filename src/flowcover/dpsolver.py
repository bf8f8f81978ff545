"""Exact dynamic program for prefix-constrained rectangle/ray covering.

The solver walks states (job, cell, k, carry) top-down with memoization:

- ``job`` is a row index in 1..n+1; rows above it are already decided.
- ``cell`` and ``k`` select the area A = [x1, end(cell)) x [job, oo), where
  x1 is the start of the cell's k-th child; a leaf is a unit cell, whose one
  area (k = 1) is the leaf itself.  Only rectangles wholly inside A may still
  be chosen.
- ``carry`` holds one extra demand per piece of A's x-span, left to right:
  the cell's pieces from x1 on (``GridCell.piece_width``, listed by
  ``subcells``), zeros included.  A carried value remembers, for rays that
  start at rows above ``job`` but reach down into A, how much capacity they
  are still owed: the state must cover d([r_job, t]) plus the carry of the
  piece containing t.

A state where A holds no rectangle stores the empty selection: rays met
entirely inside such an area can have no positive demand, and no carried
obligation can reference them.  A state is *canonical* when the job's own
rectangles in the cell exactly span A's x-range; the solver then tries every
prefix of that group, checks the rays that no deeper row can still affect,
re-derives the carry for the next row (selected capacity pays the debt, the
job's own processing and the gap to the next release shift it), and recurses
with job+1.  Otherwise the area splits along the k-th child into two
independent states.

Every carry transition is a slice, because the pieces of the next state are
a run of the current state's pieces, or of their cuts.  A split keeps the
pieces right of the k-th child for the right part, ``carry[inside:]``, and
hands the left part the first ``inside`` values, each repeated ``fan``
times, since each of those pieces holds ``fan`` of the child's pieces.  A
canonical step keeps the pieces and maps each value through ``next_carry``.

Costs, demands, and coordinates are integers throughout; ties between
equal-cost solutions go to the lexicographically smallest sorted tuple of
rectangle ids, so results are deterministic.  The root state covers the full
plane with zero carry, which is exactly the covering problem; its solution is
re-verified against the exhaustive interval scan before being returned.

Work that does not depend on the carry is done once per (job, cell, k), the
first time a state of that triple is reached, and kept in a
``TripleTable``: the number of pieces, whether the area holds a rectangle,
whether the triple is canonical and, if so, the largest demand of each
settled piece and the cost and ids of every prefix of the group, or, for a
split, the two slice widths.  Tables and memo entries are keyed on plain
integers, ``(job, cell.level, cell.begin, k)``, with the carry appended for
the memo, so no cell object is hashed on the way.

Settled rays need no per-t scan.  Only the rays [r_job, t] can bind (the
rule in ``covering``); one is settled at row ``job``, crossing no deeper row,
exactly when t < r_{job+1}, and there d(r_job, t) = p_job - (t - r_job)
falls with t.  A canonical group's pieces all start at some x >= r_job (the
leaf group at r_job, an ancestor group at a deeper cell's end), so the
settled pieces are the prefix with x < r_{job+1}, and d(r_job, x) is each
one's largest settled demand.  Every capacity is p_job and ids run in group
order (``CoveringInstance`` checks both), so a prefix's ids followed by the
next row's sorted ids are already sorted.

The structural checks (the pieces tile the area; every deeper group lies
wholly inside or outside it, under the state's cell; a canonical group is
the pieces, from r_job on) run when the table is built.  The carry checks
(one value per piece, each in 0..the processing of the rows above) run for
every state, so a state's own carry is never trusted because its triple was
seen before.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from itertools import accumulate

from .covering import (
    CoveringInstance,
    PrefixGroup,
    Selection,
    check_feasible,
    selection_cost,
)
from .grid import Grid, GridCell, Interval, chunk

Carry = tuple[int, ...]  # one value per piece of the area, left to right
TableKey = tuple[int, int, int, int]  # (job, cell.level, cell.begin, k)
StateKey = tuple[TableKey, Carry]
_UNSOLVED = object()  # memo default; a stored None means infeasible


class DpError(RuntimeError):
    """Internal contract of the dynamic program broken."""


def area_begin(cell: GridCell, k: int, K: int) -> int:
    """Left edge x1 of the area of (cell, k): the k-th child's begin, or the
    begin of a leaf, whose only area is k = 1."""
    top = 1 if cell.is_leaf else K
    if not 1 <= k <= top:
        raise ValueError(f"k must be in 1..{top}, got {k}")
    return cell.begin + (k - 1) * (cell.length // K)


def subcells(cell: GridCell, k: int, grid: Grid) -> tuple[Interval, ...]:
    """The pieces of (cell, k), one per carry value: the cell's pieces across
    the area's x-span.  Computed from the cell's bounds, so no grandchild cell
    is built for it.
    """
    return chunk(area_begin(cell, k, grid.K), cell.end, cell.piece_width)


def is_canonical(job: int, cell: GridCell, k: int, cov: CoveringInstance) -> bool:
    """Whether the job's own rectangles in ``cell`` exactly span the area."""
    return _spans_area(cov.group(job, cell), area_begin(cell, k, cov.grid.K), cell.end)


def _spans_area(group: PrefixGroup | None, x_begin: int, x_end: int) -> bool:
    """Three conditions: the group is non-empty, lies inside [x_begin, x_end),
    and its leftmost edge is x_begin.  (Group spans always end at the cell's
    right edge, so the right edges then match too.)"""
    if group is None or not group.rectangles:
        return False
    rects = group.rectangles
    return rects[0].x_begin == x_begin and rects[-1].x_end <= x_end


def next_carry(carry_value: int, processing: int, release_gap: int, paid_capacity: int) -> int:
    """Carried demand for the next row: the old debt plus the current job's
    processing, minus the release gap and whatever selected capacity paid."""
    return max(0, carry_value + processing - release_gap - paid_capacity)


class TripleTable:
    """Carry-independent facts of one (job, cell, k), shared by all its states.

    ``n_pieces`` is the number of pieces of the area, so the length of
    every carry of the triple.  Canonical triples, whose group's rectangles
    are the pieces, fill:

    - ``settled``: the largest settled demand of each piece in the settled
      prefix of the pieces;
    - ``gap``: the release gap to the next row;
    - ``prefix_cost`` and ``prefix_ids``: the cost and the ids of the first
      ``take`` rectangles, for take = 0..len(group).

    Internal triples that split fill ``inside``, the number of pieces in the
    k-th child, and ``fan``, the number of the child's pieces in each.
    """

    __slots__ = (
        "n_pieces",
        "has_rectangle",
        "canonical",
        "settled",
        "gap",
        "prefix_cost",
        "prefix_ids",
        "inside",
        "fan",
    )

    def __init__(self, n_pieces: int, has_rectangle: bool, canonical: bool):
        self.n_pieces = n_pieces
        self.has_rectangle = has_rectangle
        self.canonical = canonical
        self.settled: tuple[int, ...] = ()
        self.gap = 0
        self.prefix_cost: tuple[int, ...] = ()
        self.prefix_ids: tuple[tuple[int, ...], ...] = ()
        self.inside = 0
        self.fan = 0


@dataclass
class SolveStats:
    states: int = 0
    max_depth: int = 0
    wall_ms: float = 0.0
    triples: int = 0
    carry_vectors: int = 0
    max_carry: int = 0


@dataclass(frozen=True)
class DpResult:
    cost: int
    selection: Selection
    stats: SolveStats


class DpSolver:
    """Memoized recursion over covering states; see the module docstring.

    ``memo`` holds one entry per state, keyed ``((job, cell.level,
    cell.begin, k), carry)``; the entry is (cost, sorted ids), or None when
    the state is infeasible.
    """

    def __init__(self, cov: CoveringInstance):
        self.cov = cov
        self.grid = cov.grid
        self.memo: dict[StateKey, tuple[int, tuple[int, ...]] | None] = {}
        self._tables: dict[TableKey, TripleTable] = {}
        self._carries: set[Carry] = set()
        self._max_carry = 0
        self._max_depth = 0
        # _spans_from[job]: (job, x_begin, x_end, cell) of every group in row
        # job or deeper, so a table build scans only the rows it can reach
        spans = [
            (g.job, g.rectangles[0].x_begin, g.rectangles[-1].x_end, g.cell)
            for g in cov.groups
            if g.rectangles
        ]
        self._spans_from = [
            tuple(span for span in spans if span[0] >= job) for job in range(cov.instance.n + 2)
        ]

    # -- public entry points ------------------------------------------------

    def solve(self) -> DpResult:
        started = time.perf_counter()
        depth_needed = (self.cov.instance.n + 2) * (self.grid.lmax + 1) * (self.grid.K + 2)
        if sys.getrecursionlimit() < depth_needed + 100:
            sys.setrecursionlimit(depth_needed + 1000)
        entry = self.solve_cell(1, self.grid.root, 1)
        if entry is None:
            raise DpError("root state must be feasible: the full selection covers all demands")
        cost, ids = entry
        selection = Selection.of(ids)
        if selection_cost(self.cov, selection) != cost:
            raise DpError("selection cost disagrees with the computed optimum")
        report = check_feasible(self.cov, selection)
        if not report.ok:
            raise DpError(f"solver returned an infeasible selection: {report}")
        stats = SolveStats(
            states=len(self.memo),
            max_depth=self._max_depth,
            wall_ms=(time.perf_counter() - started) * 1000.0,
            triples=len(self._tables),
            carry_vectors=len(self._carries),
            max_carry=self._max_carry,
        )
        return DpResult(cost=cost, selection=selection, stats=stats)

    def solve_cell(
        self, job: int, cell: GridCell, k: int, carry: dict[Interval, int] | None = None
    ) -> tuple[int, tuple[int, ...]] | None:
        """Solve one state directly; None means infeasible.

        ``carry`` maps pieces of the area to their values; a piece it leaves
        out carries 0.
        """
        pieces = subcells(cell, k, self.grid)
        dense = dict.fromkeys(pieces, 0)
        for iv, v in (carry or {}).items():
            if iv not in dense:
                raise DpError(f"carry interval {iv} outside the subdivision of the state")
            dense[iv] = v
        return self._cell(job, cell, k, tuple(dense.values()), depth=0)

    # -- recursion ------------------------------------------------------------

    def _cell(
        self, job: int, cell: GridCell, k: int, carry: Carry, depth: int
    ) -> tuple[int, tuple[int, ...]] | None:
        tkey = (job, cell.level, cell.begin, k)
        key = (tkey, carry)
        entry = self.memo.get(key, _UNSOLVED)
        if entry is not _UNSOLVED:
            return entry
        if depth > self._max_depth:
            self._max_depth = depth
        self._carries.add(carry)

        tab = self._tables.get(tkey)
        if tab is None:
            tab = self._tables[tkey] = self._build_table(job, cell, k)
        if len(carry) != tab.n_pieces:
            raise DpError(f"carry of {len(carry)} values for a state of {tab.n_pieces} pieces")
        bound = self.cov.proc_prefix[job - 1]  # processing of the rows above
        top = max(carry, default=0)
        if top > bound or min(carry, default=0) < 0:
            bad = next(v for v in carry if not 0 <= v <= bound)
            raise DpError(f"carry value {bad} outside 0..{bound}")
        if top > self._max_carry:
            self._max_carry = top

        if not tab.has_rectangle:
            entry = (0, ())
        elif tab.canonical:
            entry = self._canonical(job, cell, k, tab, carry, depth)
        else:
            entry = self._split(job, cell, k, tab, carry, depth)

        self.memo[key] = entry
        return entry

    def _canonical(
        self,
        job: int,
        cell: GridCell,
        k: int,
        tab: TripleTable,
        carry: Carry,
        depth: int,
    ) -> tuple[int, tuple[int, ...]] | None:
        # A settled ray must be paid by the row's own rectangle at its t, so
        # that rectangle must be selected and p_job must cover the need.
        p = self.cov.proc_prefix[job] - self.cov.proc_prefix[job - 1]
        min_take = 0
        for pos, dem in enumerate(tab.settled):
            need = dem + carry[pos]
            if need > p:
                return None  # no prefix can pay this ray
            if need > 0:
                min_take = pos + 1

        # The next row's carry on each piece, if its rectangle is taken
        # (paid) or not (unpaid); a prefix of `take` pays the first `take`.
        gap = tab.gap
        paid = tuple(next_carry(v, p, gap, p) for v in carry)
        unpaid = tuple(next_carry(v, p, gap, 0) for v in carry)

        best: tuple[int, tuple[int, ...]] | None = None
        for take in range(min_take, len(carry) + 1):
            child = self._cell(job + 1, cell, k, paid[:take] + unpaid[take:], depth + 1)
            if child is None:
                continue
            cand = (tab.prefix_cost[take] + child[0], tab.prefix_ids[take] + child[1])
            if best is None or cand < best:
                best = cand
        return best

    def _split(
        self, job: int, cell: GridCell, k: int, tab: TripleTable, carry: Carry, depth: int
    ) -> tuple[int, tuple[int, ...]] | None:
        fan = tab.fan
        inherited = tuple(v for v in carry[: tab.inside] for _ in range(fan))
        left = self._cell(job, cell.children[k - 1], 1, inherited, depth + 1)
        if left is None or k == self.grid.K:
            return left
        right = self._cell(job, cell, k + 1, carry[tab.inside :], depth + 1)
        if right is None:
            return None
        return (left[0] + right[0], tuple(sorted(left[1] + right[1])))

    # -- per-triple tables ---------------------------------------------------

    def _build_table(self, job: int, cell: GridCell, k: int) -> TripleTable:
        x_begin = area_begin(cell, k, self.grid.K)
        subs = subcells(cell, k, self.grid)
        if subs and (subs[0][0] != x_begin or subs[-1][1] != cell.end):
            raise DpError("the pieces must tile the area's x-span")
        group = self.cov.group(job, cell)
        tab = TripleTable(
            n_pieces=len(subs),
            has_rectangle=self._groups_inside(job, cell, x_begin),
            canonical=_spans_area(group, x_begin, cell.end),
        )
        if tab.has_rectangle:
            if tab.canonical:
                self._fill_canonical(tab, job, group, subs)
            elif cell.is_leaf:
                # The rectangle inside belongs to a deeper row released at the
                # leaf, so row job, released earlier, has one over the leaf too.
                # _groups_inside passed, so that one is row job's own leaf
                # group and the state is canonical: only a covering whose rows
                # do not tile [r_j, end(root)) gets here.
                raise DpError(
                    f"non-canonical leaf state (job={job}, leaf [{cell.begin},{cell.end})) "
                    "holds a rectangle"
                )
            else:
                child = cell.children[k - 1]
                tab.inside = child.length // cell.piece_width
                tab.fan = cell.piece_width // child.piece_width
        return tab

    def _fill_canonical(
        self, tab: TripleTable, job: int, group: PrefixGroup, subs: tuple[Interval, ...]
    ) -> None:
        # The group lies inside the area and spans it, so its rectangles must
        # be the pieces themselves, in order.
        rects = group.rectangles
        if tuple(r.x_interval for r in rects) != subs:
            raise DpError(f"canonical group (job={job}) does not match the pieces {subs}")

        # Settled rays (module docstring): only the prefix choice can still
        # cover them, and a piece's rays share its carry and its rectangle.
        r_job = self.cov.release_of(job)
        r_next = self.cov.release_of(job + 1)
        if subs[0][0] < r_job:
            raise DpError(f"canonical group (job={job}) starts left of its release {r_job}")
        tab.settled = tuple(self.cov.demand(r_job, x) for x, _ in subs if x < r_next)
        tab.gap = r_next - r_job
        tab.prefix_cost = tuple(accumulate((r.cost for r in rects), initial=0))
        rid0 = rects[0].rid
        tab.prefix_ids = tuple(tuple(range(rid0, rid0 + take)) for take in range(len(rects) + 1))

    def _groups_inside(self, job: int, cell: GridCell, x_begin: int) -> bool:
        """Whether a group of row ``job`` or deeper lies inside the area
        [x_begin, end(cell)).

        Every such group must lie wholly inside or wholly outside the area,
        and inside groups must belong to the cell or one of its descendants;
        DpError otherwise.
        """
        x_end = cell.end
        inside = False
        for g_job, lo, hi, g_cell in self._spans_from[job]:
            if hi <= x_begin or lo >= x_end:
                continue
            if not (x_begin <= lo and hi <= x_end):
                raise DpError(
                    f"group (job={g_job}, cell=[{g_cell.begin},{g_cell.end})) straddles the area"
                )
            if not g_cell.is_descendant_or_self(cell):
                raise DpError("group inside the area but not under the state's cell")
            inside = True
        return inside


def solve(cov: CoveringInstance) -> DpResult:
    """Minimum-cost feasible selection for ``cov``; deterministic.

    Raises DpError when the answer fails the exhaustive interval scan or its
    cost check, so a returned result is always feasible.
    """
    return DpSolver(cov).solve()
