"""Brute-force reference solvers used to certify the covering solver.

``brute_force_covering`` enumerates, per prefix group, every prefix length,
i.e. the complete space of prefix-valid selections.  Groups are fixed in the
order they appear in the covering instance (job by job, deepest cell first,
which is left to right).  Only the rays [r_j, t] with positive demand can
bind (the rule in ``covering``), and rays crossing the same rectangles are
one constraint with the largest need.  Within a run of columns (the
``covering`` docstring) every ray crosses the same rectangles and its need
falls by one a column, so only the rays at run starts are enumerated.  A
ray crosses one rectangle in each of its rows, so one per group, read from
per-row run arrays.

Each ray is checked at every group it crosses, assuming that its later
groups take everything.  At a group g the ray is short by its need minus
the selected capacity of its earlier groups and the full capacity of its
later ones; at its trigger, the last group it crosses, that is exactly
whether the selection covers it.  A take of g below the ray's rectangle
there adds nothing to the ray, and no completion adds more than the later
groups' full capacity, so while the shortfall is positive such a take has
no feasible completion; when the shortfall exceeds the rectangle's
capacity no take of g has one.  A node therefore fixes its group's least
take as the largest of these over its rays (a ray crossing no earlier group
gives a fixed bound, computed once), and cuts only subtrees without a
feasible leaf: the feasible leaves come in the same order as with every
take tried, so costs, selections and tie-breaks do not depend on the rule.
The node tries takes from the least take up and stops at the first take
that costs more than the best complete solution: every cost is >= 1 and
the best only falls, so every larger take would cost more too.  Both
prunings are exact: every potentially optimal selection is still visited,
so the result is a true minimum.

``reduce_instance`` is the reduction pipeline (release perturbation, seeded
shifted grid, covering) that every solve, check and verification runs;
``reduction_fields`` is the one record of what a reduction reports.
``verify_pair`` reduces one instance, solves it both with the dynamic program
and with this oracle, and reports whether the costs and the selections agree
(both break cost ties towards the smallest sorted id tuple) and both
solutions pass the independent feasibility scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .covering import (
    CoveringInstance,
    Selection,
    build_covering,
    check_feasible,
)
from .dpsolver import DpError
from .dpsolver import solve as dp_solve
from .grid import Grid, build_grid, root_length
from .jobs import (
    JobInstance,
    instance_to_json,
    max_processing,
    perturb_release_times,
    total_horizon,
)


# The exhaustive search's limits.  Both are counts, so whether a search
# runs out does not depend on the machine's speed.  The walk recurses once
# per group, so the group cap also bounds its depth; the node cap counts
# the nodes actually visited (the pruned tree, not the far larger product
# of prefix choices).
MAX_GROUPS = 256
MAX_NODES = 2_000_000


class OracleBudgetExceeded(RuntimeError):
    """The exhaustive search hit MAX_GROUPS or MAX_NODES."""


def brute_force_covering(cov: CoveringInstance) -> tuple[int, Selection]:
    """Cheapest prefix-valid selection covering every ray demand.

    Ties are broken towards the lexicographically smallest sorted tuple of
    rectangle ids.  Raises OracleBudgetExceeded beyond MAX_GROUPS groups or
    MAX_NODES visited nodes.
    """
    groups = cov.groups
    if len(groups) > MAX_GROUPS:
        raise OracleBudgetExceeded(f"{len(groups)} groups exceed cap {MAX_GROUPS}")

    # One pass over the groups: each group's prefix costs, and per row the
    # (group index, position in the group, capacity) of its rectangle
    # through each run of columns (None past the root's end).
    run_of, starts = cov.run_of, cov.run_starts
    at: list[list[tuple[int, int, int] | None]] = [[None] * len(starts) for _ in cov.releases]
    prefix_costs: list[list[int]] = []
    for gi, group in enumerate(groups):
        row = at[group.job - 1]
        costs = [0]
        for pos, r in enumerate(group.rectangles):
            costs.append(costs[-1] + r.cost)
            a, b = run_of[r.x_begin], run_of[r.x_end]
            row[a:b] = [(gi, pos, r.capacity)] * (b - a)
        prefix_costs.append(costs)

    # Rays [r_j, t] with positive demand, keyed by the rectangles they cross:
    # one per row j..m at t, m the number of rows released by t, so in group
    # order.  Rays crossing the same rectangles are one constraint with the
    # largest need, so of a run's rays only those at its start x count, with
    # d(r_j, x) = excess[x] - row_offset[j - 1] (``covering``).
    releases, excess, row_offset = cov.releases, cov.excess, cov.row_offset
    needs: dict[tuple[tuple[int, int, int], ...], int] = {}
    m = 0
    for i, x in enumerate(starts):
        while m < len(releases) and releases[m] <= x:
            m += 1
        col = [row[i] for row in at[:m]]
        for j in range(m):
            need = excess[x] - row_offset[j]
            if need > 0:
                if col[j] is None:  # a ray past the root's end crosses nothing
                    raise RuntimeError(
                        "the oracle found no feasible selection; the full selection always is"
                    )
                key = tuple(col[j:])
                needs[key] = max(need, needs.get(key, 0))

    # Per group: the least take that the rays crossing no earlier group ask
    # for, and for the other rays their shortfall with the later groups
    # taken in full (module docstring), their earlier rectangles, and the
    # least take holding their own rectangle and its capacity.  A key walked
    # backwards gives the later capacity; once that alone meets the need,
    # no earlier group can fail the ray.
    floors = [0] * len(groups)
    buckets: list[list[tuple[int, tuple[tuple[int, int, int], ...], int, int]]] = [
        [] for _ in groups
    ]
    for key, need in needs.items():
        short = need
        for i in range(len(key) - 1, -1, -1):
            g, pos, cap = key[i]
            if i:
                buckets[g].append((short, key[:i], pos + 1, cap))
            else:
                least = pos + 1 if short <= cap else len(prefix_costs[g])
                floors[g] = max(floors[g], least)
            short -= cap
            if short <= 0:
                break

    last = len(groups)
    max_nodes = MAX_NODES
    lengths = [0] * last
    best: tuple[int, tuple[int, ...]] | None = None
    nodes = 0

    def walk(gi: int, cost: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > max_nodes:
            raise OracleBudgetExceeded(f"visited more than {max_nodes} nodes")
        if gi == last:
            ids = tuple(
                sorted(
                    rect.rid
                    for g, group in enumerate(groups)
                    for rect in group.rectangles[: lengths[g]]
                )
            )
            cand = (cost, ids)
            if best is None or cand < best:
                best = cand
            return
        # the least take that every ray of this bucket allows; a ray that its
        # own rectangle cannot meet after the earlier groups allows none
        lo = floors[gi]
        for short, earlier, least, cap in buckets[gi]:
            for g, pos, c in earlier:
                if lengths[g] > pos:
                    short -= c
            if short > 0:
                if short > cap:
                    return
                if least > lo:
                    lo = least
        costs = prefix_costs[gi]
        for take in range(lo, len(costs)):
            branch_cost = cost + costs[take]
            # costs are >= 1 and best only falls: every larger take costs more
            if best is not None and branch_cost > best[0]:
                break
            lengths[gi] = take
            walk(gi + 1, branch_cost)

    walk(0, 0)
    if best is None:
        raise RuntimeError("the oracle found no feasible selection; the full selection always is")
    return best[0], Selection.of(best[1])


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one paired solver-vs-oracle run; plain data, picklable."""

    seed: int
    K: int
    epsilon: str
    shift: int
    n: int
    P: int
    T: int
    status: str  # ok | mismatch | dp_infeasible | oracle_infeasible | skipped_budget
    dp_cost: int | None = None
    oracle_cost: int | None = None
    dp_selection: tuple[int, ...] | None = None
    oracle_selection: tuple[int, ...] | None = None
    dp_states: int = 0
    dp_max_depth: int = 0
    dp_ms: float = 0.0
    oracle_ms: float | None = None
    instance_json: str | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def skipped(self) -> bool:
        return self.status == "skipped_budget"


def derive_shift(T: int, K: int, seed: int) -> int:
    """Seeded uniform draw from {0, ..., unshifted root length - 1}."""
    return Random(seed).randrange(root_length(T, K))


def reduction_grid(T: int, K: int, seed: int) -> Grid:
    """Seeded-shift grid for the covering reduction.

    Sized over T + 1 so the root strictly contains [0, T]: every ray position
    t + 1/2 with t <= T then falls inside the span that each released job's
    rectangles tile, which the empty-ray property relies on.
    """
    span = T + 1
    return build_grid(span, K, shift=derive_shift(span, K, seed))


def reduce_instance(
    instance: JobInstance,
    K: int,
    seed: int,
    epsilon: Fraction | int | str | None = None,
    cost_model: str = "weighted_length",
) -> CoveringInstance:
    """The reduction pipeline: perturb releases, lay the seeded grid, lift.

    ``epsilon`` defaults to the instance's own.  The result carries
    everything the callers report: the perturbed instance (``n``,
    ``epsilon``), the horizon ``T`` and the grid with its shift.
    """
    work = perturb_release_times(instance, epsilon)
    grid = reduction_grid(total_horizon(work), K, seed)
    return build_covering(work, grid, cost_model=cost_model)


def reduction_fields(cov: CoveringInstance) -> dict:
    """What a reduction reports about itself; CLI records and verify reports carry it."""
    work = cov.instance
    return {
        "epsilon": str(work.epsilon),
        "K": cov.grid.K,
        "shift": cov.grid.shift,
        "n": work.n,
        "P": max_processing(work),
        "T": cov.horizon,
    }


def verify_pair(
    instance: JobInstance,
    K: int,
    seed: int,
    epsilon: Fraction | int | str | None = None,
    cost_model: str = "weighted_length",
) -> VerifyReport:
    """Reduce ``instance`` and solve it with both solvers.

    The release perturbation runs first (so duplicate release times are
    fine) and the grid shift is drawn from ``seed``.  The DP checks its own
    answer with the exhaustive interval scan; the oracle's answer is scanned
    here when it is not the same selection.  Any disagreement, in cost or in
    the selection of a tied cost, comes back as a failed report carrying the
    serialized instance so it can be replayed.
    """
    cov = reduce_instance(instance, K, seed, epsilon, cost_model)
    base = dict(seed=seed, **reduction_fields(cov))
    try:
        dp = dp_solve(cov)
    except DpError as exc:
        return VerifyReport(
            status="dp_infeasible",
            detail=str(exc),
            instance_json=instance_to_json(instance),
            **base,
        )
    base.update(
        dp_cost=dp.cost,
        dp_selection=dp.selection.sorted_ids(),
        dp_states=dp.stats.states,
        dp_max_depth=dp.stats.max_depth,
        dp_ms=dp.stats.wall_ms,
    )

    try:
        t1 = time.perf_counter()
        oracle_cost, oracle_sel = brute_force_covering(cov)
        oracle_ms = (time.perf_counter() - t1) * 1000.0
    except OracleBudgetExceeded as exc:
        return VerifyReport(status="skipped_budget", detail=str(exc), **base)

    base.update(
        oracle_cost=oracle_cost,
        oracle_selection=oracle_sel.sorted_ids(),
        oracle_ms=oracle_ms,
    )

    # the DP's selection passed the scan in ``DpSolver.solve``, which raises
    # otherwise, so only a different selection is scanned again
    if oracle_sel != dp.selection and not check_feasible(cov, oracle_sel).ok:
        return VerifyReport(
            status="oracle_infeasible", instance_json=instance_to_json(instance), **base
        )
    if dp.cost != oracle_cost:
        detail = f"dp_cost={dp.cost} oracle_cost={oracle_cost}"
    elif base["dp_selection"] != base["oracle_selection"]:
        # both solvers break cost ties towards the smallest sorted id tuple
        detail = f"tie broken apart at cost {dp.cost}"
    else:
        return VerifyReport(status="ok", **base)
    return VerifyReport(
        status="mismatch", detail=detail, instance_json=instance_to_json(instance), **base
    )
