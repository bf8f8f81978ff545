"""Exact dynamic program for prefix-constrained rectangle/ray covering.

The solver walks states (job, cell, k, carry) top-down with memoization:

- ``job`` is a row index in 1..n+1; rows above it are already decided.
- ``cell`` and ``k`` select the area A = [x1, end(cell)) x [job, oo), where
  x1 is the start of the cell's k-th child (or the cell's (k-1)-th unit for
  leaf cells).  Only rectangles wholly inside A may still be chosen.
- ``carry`` maps each member of a fixed subdivision of A's x-span (the
  grandchild cells under children k..K, or unit intervals at the two deepest
  levels) to an extra demand.  A carried value remembers, for rays that
  start at rows above ``job`` but reach down into A, how much capacity they
  are still owed: the state must cover d([r_job, t]) plus the carry of the
  subdivision interval containing t.

A state where A holds no rectangle stores the empty selection: rays met
entirely inside such an area can have no positive demand, and no carried
obligation can reference them.  A state is *canonical* when the job's own
rectangles in the cell exactly span A's x-range; the solver then tries every
prefix of that group, checks the rays that no deeper row can still affect,
re-derives the carry for the next row (selected capacity pays the debt, the
job's own processing and the gap to the next release shift it), and recurses
with job+1.  Otherwise the area splits along the k-th child into two
independent states, or, at leaf level, k simply advances.

Costs, demands, and coordinates are integers throughout; ties between
equal-cost solutions go to the lexicographically smallest sorted tuple of
rectangle ids, so results are deterministic.  The root state covers the full
plane with zero carry, which is exactly the covering problem; its solution is
re-verified against the exhaustive interval scan before being returned.

Work that does not depend on the carry is done once per (job, cell, k), the
first time a state of that triple is reached, and kept in a
``TripleTable``: the area, the carry subdivision as a set, whether the area
holds a rectangle, whether the triple is canonical and, if so, its group and
its settled rays reduced to the largest demand per subcell.  The structural
checks (the subdivision tiles the area; every deeper group lies wholly
inside or outside it, under the state's cell) run when the table is built.
The carry checks (each interval belongs to the subdivision, each value lies
in 0 < v <= the processing of the rows above) run for every state, so a
state's own carry is never trusted because its triple was seen before.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_right
from dataclasses import dataclass

from .covering import (
    CoveringInstance,
    PrefixGroup,
    Rectangle,
    Selection,
    check_feasible,
    selection_cost,
)
from .grid import Grid, GridCell, Interval

CarryItems = tuple[tuple[Interval, int], ...]
StateKey = tuple[int, GridCell, int, CarryItems]
_UNSOLVED = object()  # memo default; a stored None means infeasible


class DpError(RuntimeError):
    """Internal contract of the dynamic program broken."""


class EmptyAreaError(ValueError):
    """The requested (job, cell, k) has an empty area; no such state exists."""


@dataclass(frozen=True)
class Area:
    """Half-open region [x_begin, x_end) x [row, oo)."""

    x_begin: int
    x_end: int
    row: int


def area(job: int, cell: GridCell, k: int, grid: Grid) -> Area:
    """Area of state (job, cell, k); raises EmptyAreaError when undefined."""
    if not 1 <= k <= grid.K:
        raise ValueError(f"k must be in 1..{grid.K}, got {k}")
    if cell.is_leaf:
        if k > cell.length:
            raise EmptyAreaError(f"k={k} exceeds leaf length {cell.length}")
        x1 = cell.begin + k - 1
    else:
        x1 = cell.begin + (k - 1) * (cell.length // grid.K)  # the k-th child's begin
    return Area(x_begin=x1, x_end=cell.end, row=job)


def subcells(cell: GridCell, k: int, grid: Grid) -> tuple[Interval, ...]:
    """The carry subdivision for (cell, k); it tiles the area's x-span.

    Grandchild cells under children k..K for shallow cells, unit intervals
    at the two deepest levels.  Computed from the cell's bounds, so no
    grandchild cell is built for it.
    """
    if cell.is_leaf:
        if k > cell.length:
            return ()
        return tuple((x, x + 1) for x in range(cell.begin + k - 1, cell.end))
    step = cell.length // grid.K
    width = 1 if step == grid.leaf_len else step // grid.K
    return tuple((x, x + width) for x in range(cell.begin + (k - 1) * step, cell.end, width))


def is_canonical(job: int, cell: GridCell, k: int, cov: CoveringInstance) -> bool:
    """Whether the job's own rectangles in ``cell`` exactly span the area.

    Three conditions: the group is non-empty, lies inside the area, and its
    leftmost edge matches the area's left edge.  (Group spans always end at
    the cell's right edge, so the right edges then match too.)
    """
    group = cov.group(job, cell)
    if group is None or not group.rectangles:
        return False
    a = area(job, cell, k, cov.grid)
    first = group.rectangles[0]
    last = group.rectangles[-1]
    return first.x_begin == a.x_begin and last.x_end <= a.x_end


def carry_items(carry: dict[Interval, int]) -> CarryItems:
    """Canonical sparse form: sorted, zero entries dropped."""
    return tuple(sorted((iv, v) for iv, v in carry.items() if v > 0))


def next_carry(carry_value: int, processing: int, release_gap: int, paid_capacity: int) -> int:
    """Carried demand for the next row: the old debt plus the current job's
    processing, minus the release gap and whatever selected capacity paid."""
    return max(0, carry_value + processing - release_gap - paid_capacity)


@dataclass(frozen=True)
class TripleTable:
    """Carry-independent facts of one (job, cell, k), shared by all its states.

    ``group``, ``rect_by_sub``, ``settled`` and ``gap`` are filled for
    canonical triples only: ``settled`` holds one entry (largest demand,
    subcell, own capacity, prefix position) per subcell with a settled ray.
    ``expand`` is filled for internal triples that split: it maps each
    subcell of the area to the subcells of the k-th child's subdivision
    inside it.
    """

    area: Area
    subs: frozenset[Interval]
    has_rectangle: bool
    canonical: bool
    group: PrefixGroup | None = None
    rect_by_sub: dict[Interval, Rectangle] | None = None
    settled: tuple[tuple[int, Interval, int, int], ...] = ()
    gap: int = 0
    expand: dict[Interval, tuple[Interval, ...]] | None = None


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
    """Memoized recursion over covering states; see the module docstring."""

    def __init__(self, cov: CoveringInstance):
        self.cov = cov
        self.grid = cov.grid
        self.memo: dict[StateKey, tuple[int, tuple[int, ...]] | None] = {}
        self._tables: dict[tuple[int, int, int, int], TripleTable] = {}
        self._carries: set[CarryItems] = set()
        self._max_carry = 0
        self._max_depth = 0
        n = cov.instance.n
        self._proc = [0] * (n + 1)
        self._proc_before = [0] * (n + 2)
        for j in cov.instance.jobs:
            self._proc[j.id] = j.processing
        for j in range(1, n + 2):
            self._proc_before[j] = self._proc_before[j - 1] + self._proc[j - 1]

    # -- public entry points ------------------------------------------------

    def solve(self) -> DpResult:
        started = time.perf_counter()
        depth_needed = (self.cov.instance.n + 2) * (self.grid.lmax + 1) * (self.grid.K + 2)
        if sys.getrecursionlimit() < depth_needed + 100:
            sys.setrecursionlimit(depth_needed + 1000)
        entry = self._cell(1, self.grid.root, 1, (), depth=0)
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
        self, job: int, cell: GridCell, k: int, carry: dict[Interval, int] | CarryItems = ()
    ) -> tuple[int, tuple[int, ...]] | None:
        """Solve one state directly (used by tests); None means infeasible."""
        items = carry_items(dict(carry)) if not isinstance(carry, tuple) else carry
        return self._cell(job, cell, k, items, depth=0)

    # -- recursion ------------------------------------------------------------

    def _cell(
        self, job: int, cell: GridCell, k: int, carry: CarryItems, depth: int
    ) -> tuple[int, tuple[int, ...]] | None:
        key: StateKey = (job, cell, k, carry)
        entry = self.memo.get(key, _UNSOLVED)
        if entry is not _UNSOLVED:
            return entry
        self._max_depth = max(self._max_depth, depth)
        self._carries.add(carry)

        tab = self._table(job, cell, k)
        bound = self._proc_before[job]
        for iv, v in carry:
            if iv not in tab.subs:
                raise DpError(f"carry interval {iv} outside the subdivision of the state")
            if not 0 < v <= bound:
                raise DpError(f"carry value {v} outside 0..{bound}")
            if v > self._max_carry:
                self._max_carry = v

        if not tab.has_rectangle:
            entry = (0, ())
        elif tab.canonical:
            entry = self._canonical(job, cell, k, tab, carry, depth)
        elif not cell.is_leaf:
            entry = self._split(job, cell, k, tab, carry, depth)
        else:
            entry = self._cell(job, cell, k + 1, _carry_from(carry, cell.begin + k), depth + 1)

        self.memo[key] = entry
        return entry

    def _canonical(
        self,
        job: int,
        cell: GridCell,
        k: int,
        tab: TripleTable,
        carry: CarryItems,
        depth: int,
    ) -> tuple[int, tuple[int, ...]] | None:
        # A settled ray must be paid by the row's own rectangle at its t, so
        # that rectangle must be selected and its capacity must suffice.
        owed = dict(carry)
        min_take = 0
        for dem, sub, capacity, pos in tab.settled:
            need = dem + owed.get(sub, 0)
            if need <= 0:
                continue
            if need > capacity:
                return None  # no prefix can pay this ray
            min_take = max(min_take, pos + 1)

        rects = tab.group.rectangles
        processing = self._proc[job]
        best: tuple[int, tuple[int, ...]] | None = None
        prefix_cost = sum(r.cost for r in rects[:min_take])
        chosen: set[int] = {r.rid for r in rects[:min_take]}
        for take in range(min_take, len(rects) + 1):
            if take > min_take:
                prefix_cost += rects[take - 1].cost
                chosen.add(rects[take - 1].rid)
            child_carry: list[tuple[Interval, int]] = []
            for sub, rect in tab.rect_by_sub.items():
                paid = rect.capacity if rect.rid in chosen else 0
                nxt = next_carry(owed.get(sub, 0), processing, tab.gap, paid)
                if nxt > 0:
                    child_carry.append((sub, nxt))
            child = self._cell(job + 1, cell, k, tuple(child_carry), depth + 1)
            if child is None:
                continue
            cand = (prefix_cost + child[0], tuple(sorted(chosen | set(child[1]))))
            if best is None or cand < best:
                best = cand
        return best

    def _split(
        self, job: int, cell: GridCell, k: int, tab: TripleTable, carry: CarryItems, depth: int
    ) -> tuple[int, tuple[int, ...]] | None:
        child_cell = cell.children[k - 1]
        inherited = tuple((sub, v) for iv, v in carry for sub in tab.expand[iv])
        left = self._cell(job, child_cell, 1, inherited, depth + 1)
        if left is None or k == self.grid.K:
            return left
        kept = _carry_from(carry, cell.children[k].begin)
        right = self._cell(job, cell, k + 1, kept, depth + 1)
        if right is None:
            return None
        return (left[0] + right[0], tuple(sorted(left[1] + right[1])))

    # -- per-triple tables ---------------------------------------------------

    def _table(self, job: int, cell: GridCell, k: int) -> TripleTable:
        key = (job, cell.level, cell.begin, k)
        tab = self._tables.get(key)
        if tab is None:
            tab = self._tables[key] = self._build_table(job, cell, k)
        return tab

    def _build_table(self, job: int, cell: GridCell, k: int) -> TripleTable:
        a = area(job, cell, k, self.grid)
        subs = subcells(cell, k, self.grid)
        if subs and (subs[0][0] != a.x_begin or subs[-1][1] != a.x_end):
            raise DpError("carry subdivision must tile the area's x-span")
        has_rectangle = self._groups_inside(job, cell, a)
        canonical = is_canonical(job, cell, k, self.cov)
        fields: dict = {}
        if has_rectangle:
            if canonical:
                fields = self._canonical_fields(job, cell, subs)
            elif not cell.is_leaf:
                fields = {"expand": self._expansion(subs, cell.children[k - 1])}
            elif k >= cell.length:
                # A non-canonical leaf state holding a rectangle always has the
                # job released strictly right of the area's left edge, so k can
                # advance.
                raise DpError(f"cannot advance k={k} in leaf of length {cell.length}")
        return TripleTable(
            area=a,
            subs=frozenset(subs),
            has_rectangle=has_rectangle,
            canonical=canonical,
            **fields,
        )

    def _canonical_fields(self, job: int, cell: GridCell, subs: tuple[Interval, ...]) -> dict:
        group = self.cov.group(job, cell)
        assert group is not None
        rect_by_sub = {r.x_interval: r for r in group.rectangles}
        for sub in subs:
            if sub not in rect_by_sub:
                raise DpError(f"canonical state lacks a rectangle over {sub}")
        pos_of = {r.rid: i for i, r in enumerate(group.rectangles)}

        # Rays ending at t are settled at this row when no deeper rectangle
        # crosses t: only the prefix choice can still cover them.  The rays
        # of one subcell share its carry and its rectangle, so the largest
        # demand among them stands for all.
        r_job = self.cov.release_of(job)
        settled = []
        for sub in subs:
            demands = [
                self.cov.demand(r_job, t)
                for t in range(max(sub[0], r_job), min(sub[1], self.cov.horizon + 1))
                if self.cov.rects_crossing(t)[-1].job <= job
            ]
            if demands:
                rect = rect_by_sub[sub]
                settled.append((max(demands), sub, rect.capacity, pos_of[rect.rid]))
        return {
            "group": group,
            "rect_by_sub": rect_by_sub,
            "settled": tuple(settled),
            "gap": self.cov.release_of(job + 1) - r_job,
        }

    def _expansion(
        self, subs: tuple[Interval, ...], child_cell: GridCell
    ) -> dict[Interval, tuple[Interval, ...]]:
        """Each subcell of the area -> the child state's subcells inside it."""
        begins = [sub[0] for sub in subs]
        parts: dict[Interval, list[Interval]] = {sub: [] for sub in subs}
        for sub in subcells(child_cell, 1, self.grid):
            parts[subs[_containing(begins, subs, sub)]].append(sub)
        return {sub: tuple(inner) for sub, inner in parts.items()}

    def _groups_inside(self, job: int, cell: GridCell, a: Area) -> bool:
        """Whether a group of row ``job`` or deeper lies inside the area.

        Every such group must lie wholly inside or wholly outside the area,
        and inside groups must belong to the cell or one of its descendants;
        DpError otherwise.
        """
        inside = False
        for g in self.cov.groups:
            if g.job < job:
                continue
            lo = g.rectangles[0].x_begin
            hi = g.rectangles[-1].x_end
            if hi <= a.x_begin or lo >= a.x_end:
                continue
            if not (a.x_begin <= lo and hi <= a.x_end):
                raise DpError(
                    f"group (job={g.job}, cell=[{g.cell.begin},{g.cell.end})) straddles the area"
                )
            if not g.cell.is_descendant_or_self(cell):
                raise DpError("group inside the area but not under the state's cell")
            inside = True
        return inside


def _carry_from(carry: CarryItems, x: int) -> CarryItems:
    """The carry entries on subcells at or right of x; they stay sorted."""
    return tuple(item for item in carry if item[0][0] >= x)


def _containing(begins: list[int], subs: tuple[Interval, ...], target: Interval) -> int:
    idx = bisect_right(begins, target[0]) - 1
    if idx < 0 or not (subs[idx][0] <= target[0] and target[1] <= subs[idx][1]):
        raise DpError(f"{target} not inside any carry interval")
    return idx


def solve(cov: CoveringInstance) -> DpResult:
    """Minimum-cost feasible selection for ``cov``; deterministic.

    Raises DpError when the answer fails the exhaustive interval scan or its
    cost check, so a returned result is always feasible.
    """
    return DpSolver(cov).solve()
