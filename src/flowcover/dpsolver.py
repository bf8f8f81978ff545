"""Exact dynamic program for prefix-constrained rectangle/ray covering.

The solver walks states (table, carry) top-down with memoization.  A table
stands for an area A = [x1, end(cell)) x [job, oo):

- ``job`` is a row index in 1..n+1; rows above it are already decided.
- x1 is the begin of one of the cell's children, or of a leaf, a unit
  cell whose one area is the leaf itself.  Only rectangles wholly inside
  A may still be chosen.
- ``carry`` holds one extra demand per piece of A's x-span, left to right:
  the cell's pieces from x1 on (``GridCell.piece_width``), zeros included.
  A carried value remembers, for rays that start at rows above ``job`` but
  reach down into A, how much capacity they are still owed: the state must
  cover d([r_job, t]) plus the carry of the piece containing t.

A table is one of the covering's groups or a split of a row's groups.  A
*canonical* table is a group, whose rectangles exactly span A's x-range,
so they are A's pieces; the solver tries every prefix of the group, checks
the rays that no deeper row can still affect, re-derives the carry for the
next row (selected capacity pays the debt, the job's own processing and
the gap to the next release shift it), and steps to its child, the area
[x1, end(cell)) one row down.  A canonical area that holds no rectangle of
a deeper row is a *tail*: it has no child, the next row bounds nothing
there, so the tail's bounds alone answer each of its carries, with no
search and no memo entry (below).  One rule finds the table of a child's
area, and of the root's, row 1 over the root cell: take row job's groups
at the cell's level and below, deepest first.  When the last of them is
the group in the cell itself and starts at x1, it is the whole area, and
its table is the area's.  Otherwise the area *splits* into independent
parts, those groups, each a canonical area; an instance without
rectangles makes the root a split with no parts.  Canonical tables and
splits are the two kinds of state the solver searches and stores.  Each
table links the tables its states step to, so no search step reads a
cell or looks a table up.

Every carry transition is one pass over its carry.  A split hands each
part, for each of the part's pieces, the value of the area's piece that
holds it: one precomputed index gather, a slice where the part's pieces
are the area's.  The area's pieces wholly left of r_job, where no ray
[r_job, t] of the state reaches, are read by no part.  A canonical step keeps the
pieces and maps each value to the next row's twice: once as if its
piece's rectangle were taken (paid: v - gap) and once as if not (unpaid:
v - gap + p_job), each at least 0.

Threshold bounds decide most states without a search.  Fix a prefix-valid
selection S of the area.  A carried value reaches only the rays inside its
own piece, and raises their demand one for one, so S covers the state
exactly when v_i <= tau_i(S) on every piece i, for some per-piece threshold
tau_i(S).  Selecting more never lowers a threshold: paid <= unpaid.
Every prefix-valid S lies between the empty selection and the full one,
so with theta = tau(empty) and phi = tau(full):

- some v_i > phi_i: no selection covers the state, which is infeasible;
- v <= theta: the empty selection covers it.  Every rectangle costs at
  least 1 (``CoveringInstance`` builds it so), so the answer is (0, ());
- otherwise a value with v_i <= theta_i is met by every selection, and is
  set to 0: the feasible selections, hence the cost and the tie-break, stay
  the same, and states that differ only there share one memo entry.

theta and phi are filled once per table, bottom-up through the same
recurrences as the states, by ``_table`` and ``_area``, which build the
tables.  Like the carry, they hold one value per piece, clipped to -1..B,
where B is the processing of the rows above, the largest value a carry of
the row may hold, so B means "no bound"; a split without parts has B on
every piece.
A canonical table with gap g and p = p_job reads its child's bounds:
theta_i = theta'_i - p + g and phi_i = phi'_i + g, or -1 where the
child's value is negative; on a settled piece with largest demand dem_i
they are also capped at -dem_i and p - dem_i.  A tail has no child, and
reads its next row as bounding nothing, so its bounds come from its
settled pieces alone: theta_i = -dem_i and phi_i = p - dem_i, clipped,
and B on the other pieces.  A split has no bound on the pieces no part
reads, and on each other piece the minimum over the part pieces it holds.
A canonical table is built in one loop over its group's rectangles,
which computes each piece's settled demand, prefix cost and both bounds;
a split walks each part's pieces once, taking both minima and building
the part's gather.
Callers decide a state from its bounds before they recurse.  ``_decide``
clamps a carry to theta and tests it against theta in one loop;
``_canonical`` walks its pieces once, and on each piece computes the
settled floor, the paid and unpaid values, the phi test, both theta tests
and both clamped values.
Its takes then run over those two clamped lists.  The child carry of a
take differs from that of the take one smaller only on the last piece the
larger take pays, so where the clamped paid and unpaid values agree on it
the larger take reaches the same child state at a higher cost (every cost
is at least 1).  It can neither win nor tie and is not searched, so each
distinct child carry is probed once.

A tail answers a carry that its bounds pass in closed form.  Its area
holds no deeper row's rectangle, so each of its rays [r_job, t] is
covered by row job's own rectangle at t alone.  Every piece is settled
when job < n, since r_{job+1} >= end(cell); when job = n the pieces past
T hold no ray and have no bound.  So a settled piece needs its rectangle
exactly when v_i + dem_i > 0, that is when v_i > theta_i, and the
cheapest covering take is the prefix through the last piece whose value
is over theta; phi has already checked that p_job covers each piece it
takes.  ``_state`` answers it without the memo; the carry checks still run.

The memo stores only searched states and is the one record of them:
``states``, ``canonical_states``, ``split_states``, ``carry_vectors``,
``max_carry`` and ``max_depth``, the largest depth of a key's table, are
read off its keys once, when the solve ends.  Equal answers are stored as
one tuple: a solve's memo holds few distinct (cost, ids) over many
states, and a copy per state held most of its memory.

Costs, demands, and coordinates are integers throughout; ties between
equal-cost solutions go to the lexicographically smallest sorted tuple of
rectangle ids, so results are deterministic.  The root state covers the full
plane with zero carry, which is exactly the covering problem; its solution is
re-verified against the exhaustive interval scan before being returned.

Work that does not depend on the carry is done once per table and kept in
a ``TripleTable``: the number of pieces, the two bound vectors, for a
canonical table its group, whether it is a tail, the largest demand of
each settled piece, the cost of every prefix of the group and the group's
first id, or, for a split, its parts and their gathers.  A prefix's ids
run from the first id on, so a canonical step builds a candidate's id
tuple only when its cost can beat or tie the best so far.  Tables read the
covering's per-row arrays and one per-solve list of releases, r_1..r_n
followed by the sentinel T + 1 of row n + 1, with no range-checked lookup
per table.  Building the root's table builds every table the search can
reach, each once and with its depth: the links form a tree
(``TripleTable``), so no table is looked up or cached on the way.  The
memo is keyed ``(table, carry)``, and a table hashes by identity.

Settled rays need no per-t scan.  Only the rays [r_job, t] can bind (the
rule in ``covering``); one is settled at row ``job``, crossing no deeper row,
exactly when t < r_{job+1}, and there d(r_job, t) = p_job - (t - r_job)
falls with t.  A canonical group's pieces all start at some x >= r_job (the
leaf group at r_job, an ancestor group at a deeper cell's end), so the
settled pieces are the prefix with x < r_{job+1}.  Each piece's x is a
rectangle's ``x_begin`` at most T, so a run start, and d(r_job, x) =
excess[x] - row_offset[job - 1] (``covering``), the per-run value, is the
piece's largest settled demand.  Every capacity is p_job and ids run in group order
(``CoveringInstance`` builds both so), so a prefix's ids followed by the
next row's sorted ids are already sorted.

The rule that finds an area's table needs no scan of the covering, because
``CoveringInstance`` builds every row's groups from its release's cell
chain: rows tile [r_j, end(root)), releases strictly increase, and groups
of different rows nest (``covering`` docstring), so no group straddles an
area the recursion reaches.  A canonical table of row job's group in a
cell has a child exactly when job < n and r_{job+1} < end(cell): a deeper
row has a rectangle in the area exactly then.  Every cell the rule is
applied to holds its row's release: the root holds r_1, and the cell of
row job's group holds r_job, so with r_job < r_{job+1} < end(cell) it
holds r_{job+1} too.  So row job + 1's groups at the cell's level and
below tile [r_{job+1}, end(cell)), and every deeper row's lie inside
them.  Where r_{job+1} < x1 it lies in the cell's child that holds
r_job, so row job + 1's group in the cell starts at x1, as row job's
does, and is the whole area; otherwise those groups are the row's
rectangles inside A.  ``CoveringInstance.row_groups`` keeps each row's
groups deepest first, so a split reads its parts off the front of its
row's.  A split whose release lies left of its area raises ``DpError``.  The carry checks (one value per piece, each in 0..the
processing of the rows above) run for every carry handed to ``_enter``,
before its bounds decide it, and for every state that is searched or
answered as a tail, so a carry is never trusted because its table was
seen before.

The tuples a solve builds are made from lists, ``tuple([...])``, not from
generators.  CPython grows a tuple built from a generator by resizing it,
so it is never taken from the interpreter's free list of tuples of its
size, but it is put on that list when it dies.  Only a full garbage
collection empties the lists, and a solve that stores few states allocates
too few tracked objects to set one off; over thousands of solves the lists
filled and held megabytes of resident memory.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from itertools import repeat
from operator import gt, itemgetter
from typing import Callable

from .covering import (
    CoveringInstance,
    PrefixGroup,
    Selection,
    check_feasible,
    selection_cost,
)
from .grid import GridCell

Carry = tuple[int, ...]  # one value per piece of the area, left to right
Bounds = tuple[int, ...]  # one value per piece of the area, top meaning no bound
Entry = tuple[int, tuple[int, ...]]  # (cost, sorted ids)
ZERO: Entry = (0, ())  # the empty selection


# The interpreter frames of one search step, and those a solve may add on
# top of its steps; ``DpSolver.solve`` raises the recursion limit by them.
FRAMES_PER_LEVEL = 3
FRAME_MARGIN = 100


class DpError(RuntimeError):
    """Internal contract of the dynamic program broken."""


class TripleTable:
    """Carry-independent facts of one area, shared by all its states.

    ``group`` is the covering's group that a canonical table is, or None
    for a split.  ``n_pieces`` is the number of pieces of the area, so the
    length of every carry of the table, ``top`` the processing of the rows
    above, the largest value a carry may hold, and ``depth`` the search
    depth of the table's states: the number of steps from the table
    ``_enter`` was handed, where it is 0.  The links form a tree: a split's
    parts are distinct groups of its row, whose cells hold its release, and
    a canonical table's child is its area one row down, so a table is
    linked by one table only, and the build sets its depth from that one.
    Each row adds at most a split and a canonical table to a path.  Tables
    hash by identity, so a memo key ``(table, carry)`` runs no Python-level
    ``__hash__``.
    ``theta`` and ``phi`` are the bound vectors of the module docstring,
    one value per piece, with ``top`` meaning no bound; a split with no
    parts has ``top`` on every piece.  ``_table`` and ``_area`` fill them,
    from the child's, from a tail's settled pieces or from the parts'; the
    search reads them: ``_decide`` clamps a carry to theta, ``_canonical``
    clamps both of its child's candidate values in the same pass that tests
    them, and a tail's answer is the prefix through the last value over
    theta.

    Canonical tables, whose group's rectangles are the pieces, fill the
    fields below; one loop over the rectangles fills ``settled``,
    ``prefix_cost`` and both bounds:

    - ``settled``: the largest settled demand of each piece in the settled
      prefix of the pieces;
    - ``p`` and ``gap``: the job's processing and the release gap to the
      next row;
    - ``prefix_cost``: the cost of the first ``take`` rectangles, for
      take = 0..len(group);
    - ``first_rid``: the group's first id; the first ``take`` rectangles
      have ids first_rid..first_rid + take - 1;
    - ``child``: the table of the area one row down, or None for a
      ``tail``, whose area holds no rectangle of a deeper row.

    Splits fill ``parts``: for each of the row's groups at the cell's level
    and below, deepest first, its canonical table and a gather, an
    ``operator.itemgetter`` that reads off the area's carry the value of
    the piece holding each of the part's pieces (a slice when those are the
    area's own pieces).
    """

    __slots__ = (
        "group",
        "n_pieces",
        "top",
        "depth",
        "theta",
        "phi",
        "settled",
        "p",
        "gap",
        "prefix_cost",
        "first_rid",
        "child",
        "tail",
        "parts",
    )

    def __init__(self, group: PrefixGroup | None, n_pieces: int, top: int, depth: int):
        self.group = group
        self.n_pieces = n_pieces
        self.top = top
        self.depth = depth
        self.theta: Bounds = ()
        self.phi: Bounds = ()
        self.settled: tuple[int, ...] = ()
        self.p = 0
        self.gap = 0
        self.prefix_cost: tuple[int, ...] = ()
        self.first_rid = 0
        self.child: TripleTable | None = None
        self.tail = False
        self.parts: tuple[tuple[TripleTable, Callable[[Carry], Carry]], ...] = ()


StateKey = tuple[TripleTable, Carry]


@dataclass
class SolveStats:
    """Counters of one solve.  ``states`` counts stored memo entries, the
    states that were searched, so not the tail states, which are answered
    from their bounds unstored; ``canonical_states`` and ``split_states``
    divide them by kind.  ``max_depth`` is the largest depth of a searched
    state's table.  These, ``carry_vectors`` and ``max_carry`` are read
    off the memo once.  ``triples`` counts the tables built, groups and
    splits, the root's included.  ``theta_decided`` and ``phi_decided``
    count the carries that the bounds answered without a search, as (0, ())
    and as infeasible."""

    states: int = 0
    max_depth: int = 0
    wall_ms: float = 0.0
    triples: int = 0
    carry_vectors: int = 0
    max_carry: int = 0
    canonical_states: int = 0
    split_states: int = 0
    theta_decided: int = 0
    phi_decided: int = 0


@dataclass(frozen=True)
class DpResult:
    cost: int
    selection: Selection
    stats: SolveStats


class DpSolver:
    """Memoized recursion over covering states; see the module docstring.

    ``memo`` holds one entry per searched state, keyed ``(table, carry)``
    with the carry after clamping; the entry is (cost, sorted ids).  States
    the bounds decide are not stored, so no entry is None (infeasible) or
    (0, ()); ``solve`` reads its counters off the memo.  ``_tables`` lists
    the tables in build order, the root's first.
    """

    def __init__(self, cov: CoveringInstance):
        self.cov = cov
        self.grid = cov.grid
        # r_job and row job's groups for job = 1..n+1 at index job - 1; row
        # n+1 is the sentinel, released at T + 1, with no group
        self._releases = [*cov.releases, cov.horizon + 1]
        self._rows = [*cov.row_groups, ()]
        self._n = cov.instance.n
        self.memo: dict[StateKey, Entry] = {}
        self._answers: dict[Entry, Entry] = {}  # each distinct answer, once
        self._tables: list[TripleTable] = []
        self._theta_decided = 0
        self._phi_decided = 0

    # -- public entry points ------------------------------------------------

    def solve(self) -> DpResult:
        """The optimum of the root state, checked.  The search recurses once
        per table level, so this raises the interpreter's recursion limit by
        the frames of its deepest path while it runs; the caller's limit is
        back when this returns or raises.

        Each row adds at most one split and one canonical table to a path
        of tables: a split's parts are canonical, and a canonical table's
        child belongs to the next row.  So a path spans at most 2n + 1
        tables; the bound adds one.  A split step, ``_state`` to ``_split``
        to ``_decide`` to ``_state``, is the longest, at
        ``FRAMES_PER_LEVEL`` frames; the table build takes at most two
        frames a level.  The margin covers this call's own frames and the C
        calls inside a step."""
        started = time.perf_counter()
        levels = 2 * self.cov.instance.n + 2
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + FRAMES_PER_LEVEL * levels + FRAME_MARGIN)
        root = self.grid.root
        try:
            # the root's table, and with it every table the search can reach
            tab = self._area(1, root, root.begin, 0)
            entry = self._enter(tab, (0,) * tab.n_pieces)
        finally:
            sys.setrecursionlimit(limit)  # the caller's limit
        if entry is None:
            raise DpError("root state must be feasible: the full selection covers all demands")
        cost, ids = entry
        selection = Selection.of(ids)
        if selection_cost(self.cov, selection) != cost:
            raise DpError("selection cost disagrees with the computed optimum")
        report = check_feasible(self.cov, selection)
        if not report.ok:
            raise DpError(f"solver returned an infeasible selection: {report}")
        # the searched states' counters, read off the memo in one pass
        carries, canonical, max_depth = set(), 0, 0
        for tab, carry in self.memo:
            canonical += tab.group is not None
            if tab.depth > max_depth:
                max_depth = tab.depth
            carries.add(carry)
        stats = SolveStats(
            states=len(self.memo),
            max_depth=max_depth,
            wall_ms=(time.perf_counter() - started) * 1000.0,
            triples=len(self._tables),
            carry_vectors=len(carries),
            max_carry=max(map(max, carries), default=0),
            canonical_states=canonical,
            split_states=len(self.memo) - canonical,
            theta_decided=self._theta_decided,
            phi_decided=self._phi_decided,
        )
        return DpResult(cost=cost, selection=selection, stats=stats)

    # -- recursion ------------------------------------------------------------

    def _enter(self, tab: TripleTable, carry: Carry) -> Entry | None:
        """A carry from outside the recursion: checked, then decided."""
        self._check_carry(tab, carry)
        if any(map(gt, carry, tab.phi)):
            self._phi_decided += 1
            return None
        return self._decide(tab, carry)

    def _check_carry(self, tab: TripleTable, carry: Carry) -> None:
        """DpError unless the carry holds one value per piece, each in 0..top."""
        if len(carry) != tab.n_pieces:
            raise DpError(f"carry of {len(carry)} values for a state of {tab.n_pieces} pieces")
        # an area holds at least one piece, so the carry is not empty here
        if max(carry) > tab.top or min(carry) < 0:
            bad = next(v for v in carry if not 0 <= v <= tab.top)
            raise DpError(f"carry value {bad} outside 0..{tab.top}")

    def _decide(self, tab: TripleTable, carry: Carry) -> Entry:
        """Answer a carry that phi has passed: (0, ()) when theta covers it,
        else the search of its state clamped to theta: 0 on every piece
        where the carry is at most theta.  One pass clamps and tests."""
        kept, covered = [], True
        for v, t in zip(carry, tab.theta):
            if v > t:
                kept.append(v)
                covered = False
            else:
                kept.append(0)
        if covered:
            self._theta_decided += 1
            return ZERO
        return self._state(tab, tuple(kept))

    def _state(self, tab: TripleTable, carry: Carry) -> Entry:
        """Search one clamped state that the bounds do not decide, or answer
        it from a tail table's bounds, unstored.  Equal answers are stored
        as one tuple, so the memo holds each once."""
        if tab.tail:
            if len(carry) != tab.n_pieces or min(carry) < 0 or max(carry) > tab.top:
                self._check_carry(tab, carry)  # raises
            # the prefix through the last piece whose value is over theta
            theta, take = tab.theta, len(carry)
            while take and carry[take - 1] <= theta[take - 1]:
                take -= 1
            first = tab.first_rid
            return (tab.prefix_cost[take], tuple(range(first, first + take)))
        key = (tab, carry)
        entry = self.memo.get(key)  # no entry is None
        if entry is not None:
            return entry
        if len(carry) != tab.n_pieces or min(carry) < 0 or max(carry) > tab.top:
            self._check_carry(tab, carry)  # raises
        if tab.group is not None:
            entry = self._canonical(tab, carry)
        else:
            entry = self._split(tab, carry)
        entry = self.memo[key] = self._answers.setdefault(entry, entry)
        return entry

    def _canonical(self, tab: TripleTable, carry: Carry) -> Entry:
        # One pass over the pieces.  A settled ray must be paid by the row's
        # own rectangle at its t, so that rectangle must be selected: the
        # last such piece sets the least take.  (phi has already checked
        # that p_job covers the need.)  The next row's value on each piece
        # is `paid` if its rectangle is taken, `unpaid` if not: the debt
        # plus p minus the gap, less p when paid, and at least 0; a prefix
        # of `take` pays the first `take`.  paid <= unpaid, so the child's
        # phi rules out exactly the takes below `least`, the last piece
        # whose unpaid value is over it, and its theta answers (0, ()) for
        # exactly the takes in zero_lo..zero_hi: from the last piece whose
        # unpaid value is over theta to the first whose paid value is.  The
        # cheapest of those is the smallest; a larger take costs more.
        # Both values are clamped to theta as ``_decide`` does.
        p, gap, child = tab.p, tab.gap, tab.child
        settled, n = tab.settled, len(carry)
        n_settled, cleared = len(settled), gap - p  # an unpaid debt this small clears
        min_take = least = zero_lo = pos = 0
        zero_hi = n
        kept_paid, kept_unpaid = [], []
        for v, t, f in zip(carry, child.theta, child.phi):
            if pos < n_settled and settled[pos] + v > 0:
                min_take = pos + 1
            pos += 1
            u = v - cleared if v > cleared else 0
            if u > f:
                least = pos
            if u > t:
                zero_lo = pos
                kept_unpaid.append(u)
            else:
                kept_unpaid.append(0)
            w = v - gap if v > gap else 0
            if w > t:
                if zero_hi == n:
                    zero_hi = pos - 1
                kept_paid.append(w)
            else:
                kept_paid.append(0)
        if least > min_take:
            self._phi_decided += least - min_take
            min_take = least

        zero_take = min_take if min_take > zero_lo else zero_lo
        prefix_cost, first = tab.prefix_cost, tab.first_rid
        if zero_take <= zero_hi:
            self._theta_decided += 1
            best = (prefix_cost[zero_take], tuple(range(first, first + zero_take)))
            stop = zero_take
        else:
            best = None
            stop = n + 1
        # every take here leaves the child a carry that neither bound decides
        for take in range(min_take, stop):
            # a take whose last piece clamps alike paid or unpaid hands
            # the child the previous take's carry at a higher cost
            if take > min_take and kept_paid[take - 1] == kept_unpaid[take - 1]:
                continue
            sub = self._state(child, tuple(kept_paid[:take] + kept_unpaid[take:]))
            cost = prefix_cost[take] + sub[0]
            # ids only for a candidate that can win; a tie goes to the smaller ids
            if best is None or cost <= best[0]:
                ids = tuple(range(first, first + take)) + sub[1]
                if best is None or cost < best[0] or ids < best[1]:
                    best = (cost, ids)
        return best

    def _split(self, tab: TripleTable, carry: Carry) -> Entry:
        # The state's phi is the minimum of its parts', so it has passed each.
        # Each part reads its pieces' values off the carry in one gather.
        cost, ids, last = 0, [], ZERO
        for part, gather in tab.parts:
            sub = self._decide(part, gather(carry))
            if sub[1]:
                cost += sub[0]
                ids += sub[1]
                last = sub
        if len(ids) == len(last[1]):  # at most one part selects
            return last
        ids.sort()
        return (cost, tuple(ids))

    # -- tables ---------------------------------------------------------------

    def _table(self, group: PrefixGroup, depth: int) -> TripleTable:
        """The canonical table of ``group``, whose rectangles are its area's
        pieces, built with the tables it links.  ``depth`` is the search
        depth of its states, one more than the depth of the table that links
        it."""
        cov, releases = self.cov, self._releases
        job, cell, rects = group
        top = cov.proc_prefix[job - 1]
        tab = TripleTable(group, len(rects), top, depth)
        self._tables.append(tab)
        r_next = releases[job]
        tab.p = p = cov.proc_prefix[job] - top
        tab.gap = gap = r_next - releases[job - 1]
        tab.first_rid = rects[0].rid
        if job < self._n and r_next < cell.end:
            tab.child = child = self._area(job + 1, cell, rects[0].x_begin, depth + 1)
            below_theta, below_phi = child.theta, child.phi
        else:
            # a tail: no deeper row has a rectangle in the area, so the area
            # one row down bounds nothing, as if its bounds were its top,
            # top + p, on every piece
            tab.tail = True
            below_theta = below_phi = repeat(top + p)
        # One pass over the group's rectangles, which are the pieces.
        # Settled rays (module docstring): only the prefix choice can still
        # cover them, and a piece's rays share its carry and its rectangle.
        # Bounds from the child's: its value minus p plus gap for theta,
        # plus gap for phi, -1 where it is negative; on a settled piece
        # capped at -dem and p - dem; clipped to -1..top.
        excess, offset = cov.excess, cov.row_offset[job - 1]
        settled, prefix_cost, theta, phi = [], [0], [], []
        cost = 0
        for (_, _, x, _, c, _), t, f in zip(rects, below_theta, below_phi):
            cost += c
            prefix_cost.append(cost)
            t = t - p + gap if t >= 0 else -1
            f = f + gap if f >= 0 else -1
            if x < r_next:
                dem = excess[x] - offset
                settled.append(dem)
                if t > -dem:
                    t = -dem
                if f > p - dem:
                    f = p - dem
            theta.append(-1 if t < 0 else t if t < top else top)
            phi.append(-1 if f < 0 else f if f < top else top)
        tab.settled, tab.prefix_cost = tuple(settled), tuple(prefix_cost)
        tab.theta, tab.phi = tuple(theta), tuple(phi)
        return tab

    def _area(self, job: int, cell: GridCell, x_begin: int, depth: int) -> TripleTable:
        """The table of the area [x_begin, end(cell)) from row ``job`` down,
        by the rule of the module docstring: row job's group in the cell
        when it starts at x_begin, else a split over row job's groups at the
        cell's level and below."""
        groups = []
        for group in self._rows[job - 1]:  # deepest first
            if group.cell.level < cell.level:
                break
            groups.append(group)
        if groups and groups[-1].cell is cell and groups[-1].rectangles[0].x_begin == x_begin:
            return self._table(groups[-1], depth)
        # The area splits into those groups, which tile [r_job, end(cell)),
        # each a canonical area.  Each of a part's pieces lies in one of the
        # area's, whose value it inherits; the area's pieces wholly left of
        # r_job, where no ray of the state reaches, have no bound, and every
        # other piece takes the minimum over the part pieces it holds.  The
        # parts belong to one row, so they share ``top``.
        r_job = self._releases[job - 1]
        if r_job < x_begin:
            raise DpError(f"release {r_job} of row {job} lies left of area [{x_begin}, {cell.end})")
        top, width = self.cov.proc_prefix[job - 1], cell.piece_width
        n_pieces = (cell.end - x_begin) // width
        tab = TripleTable(None, n_pieces, top, depth)
        self._tables.append(tab)
        theta, phi, parts = [top] * n_pieces, [top] * n_pieces, []
        for group in groups:
            part = self._table(group, depth + 1)
            index = [(rect.x_begin - x_begin) // width for rect in group.rectangles]
            for i, t, f in zip(index, part.theta, part.phi):
                if t < theta[i]:
                    theta[i] = t
                if f < phi[i]:
                    phi[i] = f
            first, last = index[0], index[-1]
            if last - first == len(index) - 1:  # consecutive pieces, one each
                parts.append((part, itemgetter(slice(first, last + 1))))
            else:
                parts.append((part, itemgetter(*index)))
        tab.parts = tuple(parts)
        tab.theta, tab.phi = tuple(theta), tuple(phi)
        return tab


def solve(cov: CoveringInstance) -> DpResult:
    """Minimum-cost feasible selection for ``cov``; deterministic.

    Raises DpError when the answer fails the exhaustive interval scan or its
    cost check, so a returned result is always feasible.
    """
    return DpSolver(cov).solve()
