"""Preemptive single-machine instances, schedules, and a tiny exact solver.

A job has an integer release time, a positive integer processing time, and a
positive integer weight.  A preemptive schedule assigns unit time slots to
jobs (one job per slot, idling allowed); the flow time of a job is its
completion time minus its release time, and the objective is the weighted sum
of flow times.

Besides the instance/schedule model this module provides:

- ``evaluate_schedule``: objective evaluation with hard validation,
- ``exact_opt_tiny``: an exhaustive slot-by-slot optimum for desk-scale
  instances, used as ground truth in tests,
- ``perturb_release_times``: the release-time perturbation that makes all
  release times pairwise distinct while scaling the instance by an exact
  integer factor, a prerequisite of the covering reduction.

All arithmetic is exact (ints and ``fractions.Fraction``).  The tuples that
every solve builds (jobs, releases) are made from lists, not generators: see
the ``dpsolver`` docstring on tuples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping


class ScheduleViolation(ValueError):
    """A schedule breaks a hard constraint; ``kind`` names the rule."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind


class SizeGuardExceeded(ValueError):
    """An exhaustive solver was asked to run outside its guarded size range."""


@dataclass(frozen=True)
class Job:
    """One job; ``id`` is the 1-based index after sorting by release time."""

    id: int
    release: int
    processing: int
    weight: int

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError(f"job id must be >= 1, got {self.id}")
        if self.release < 0:
            raise ValueError(f"release must be >= 0, got {self.release}")
        if self.processing < 1:
            raise ValueError(f"processing must be >= 1, got {self.processing}")
        if self.weight < 1:
            raise ValueError(f"weight must be >= 1, got {self.weight}")


@dataclass(frozen=True)
class JobInstance:
    """Jobs sorted by release time (ties by id), plus the accuracy parameter.

    ``epsilon`` is only consumed by the preprocessing step and by harness
    configuration; the covering solver itself never depends on it.
    """

    jobs: tuple[Job, ...]
    epsilon: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        for pos, job in enumerate(self.jobs, start=1):
            if job.id != pos:
                raise ValueError(f"job ids must be 1..n in order, got {job.id} at position {pos}")
        for a, b in zip(self.jobs, self.jobs[1:]):
            if a.release > b.release:
                raise ValueError("jobs must be sorted by non-decreasing release time")

    @property
    def n(self) -> int:
        return len(self.jobs)

    def releases(self) -> tuple[int, ...]:
        return tuple([j.release for j in self.jobs])


def parse_epsilon(value: Fraction | int | str, name: str = "epsilon") -> Fraction:
    """``value`` (a Fraction, an int or a string such as "1/2") as a positive
    Fraction; ValueError naming ``name`` and the value otherwise."""
    if type(value) not in (Fraction, int, str):
        raise ValueError(f"{name} must be a string or an integer, got {value!r}")
    try:
        eps = Fraction(value)
    except (ValueError, ZeroDivisionError):
        eps = None
    if eps is None or eps <= 0:
        raise ValueError(f"{name} must be a positive fraction such as 1 or 1/2, got {value!r}")
    return eps


def make_instance(
    triples: Iterable[tuple[int, int, int]], epsilon: Fraction | int | str = 1
) -> JobInstance:
    """Build an instance from (release, processing, weight) triples.

    Sorts by release time (stable, so equal releases keep input order) and
    assigns 1-based ids in that order.
    """
    ordered = sorted(triples, key=lambda t: t[0])
    jobs = tuple(
        [
            Job(id=i, release=r, processing=p, weight=w)
            for i, (r, p, w) in enumerate(ordered, start=1)
        ]
    )
    return JobInstance(jobs=jobs, epsilon=parse_epsilon(epsilon))


def total_horizon(instance: JobInstance) -> int:
    """Max release plus total processing; every job can finish by this time.
    0 for an empty instance."""
    jobs = instance.jobs
    return max((j.release for j in jobs), default=0) + sum(j.processing for j in jobs)


def max_processing(instance: JobInstance) -> int:
    """Largest processing time P; 0 for an empty instance."""
    return max((j.processing for j in instance.jobs), default=0)


@dataclass(frozen=True)
class Schedule:
    """Unit-slot schedule: ``slots`` maps slot [t, t+1) to the job id run in it.

    Idle slots are simply absent.  Stored as a sorted tuple of (t, job_id)
    pairs so schedules are immutable and hashable.
    """

    slots: tuple[tuple[int, int], ...]

    @staticmethod
    def from_mapping(mapping: Mapping[int, int]) -> "Schedule":
        return Schedule(slots=tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.slots)

    def completion_times(self) -> dict[int, int]:
        """Per-job completion time: one past the last slot assigned to it."""
        done: dict[int, int] = {}
        for t, job_id in self.slots:
            done[job_id] = max(done.get(job_id, 0), t + 1)
        return done


def evaluate_schedule(instance: JobInstance, schedule: Schedule) -> int:
    """Weighted flow time of ``schedule``, after validating it.

    Raises ScheduleViolation with kind "unknown_job", "slot_bounds",
    "release", or "processing_total" on the first broken constraint.
    """
    by_id = {j.id: j for j in instance.jobs}
    assigned: dict[int, int] = {j.id: 0 for j in instance.jobs}
    for t, job_id in schedule.slots:
        job = by_id.get(job_id)
        if job is None:
            raise ScheduleViolation("unknown_job", f"slot {t} runs unknown job {job_id}")
        if t < 0:
            raise ScheduleViolation("slot_bounds", f"slot {t} is negative")
        if t < job.release:
            raise ScheduleViolation(
                "release", f"job {job_id} runs at slot {t} before release {job.release}"
            )
        assigned[job_id] += 1
    for job in instance.jobs:
        if assigned[job.id] != job.processing:
            raise ScheduleViolation(
                "processing_total",
                f"job {job.id} got {assigned[job.id]} slots, needs {job.processing}",
            )
    completion = schedule.completion_times()
    return sum(j.weight * (completion[j.id] - j.release) for j in instance.jobs)


_TINY_MAX_JOBS = 5
_TINY_MAX_HORIZON = 32


def exact_opt_tiny(instance: JobInstance) -> tuple[int, Schedule]:
    """Minimum weighted flow time by exhaustive slot enumeration.

    Guarded to n <= 5 and T <= 32.  Every slot choice among released,
    unfinished jobs (and idle) is explored with memoization on
    (time, remaining work vector).  Ties are broken towards the
    lexicographically smallest slot assignment, where slot entries compare as
    job 1 < job 2 < ... < idle.
    """
    if not instance.jobs:
        return 0, Schedule(slots=())
    n = instance.n
    horizon = total_horizon(instance)
    if n > _TINY_MAX_JOBS or horizon > _TINY_MAX_HORIZON:
        raise SizeGuardExceeded(
            f"exact_opt_tiny handles n <= {_TINY_MAX_JOBS}, T <= {_TINY_MAX_HORIZON}; "
            f"got n={n}, T={horizon}"
        )
    releases = tuple(j.release for j in instance.jobs)
    weights = tuple(j.weight for j in instance.jobs)
    idle = n + 1  # sorts after every job id

    @lru_cache(maxsize=None)
    def best(t: int, remaining: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
        if all(r == 0 for r in remaining):
            return 0, (idle,) * (horizon - t)
        if t == horizon:
            return None
        result: tuple[int, tuple[int, ...]] | None = None
        for i in range(n):
            if remaining[i] == 0 or releases[i] > t:
                continue
            left = remaining[i] - 1
            tail = best(t + 1, remaining[:i] + (left,) + remaining[i + 1 :])
            if tail is None:
                continue
            cost = tail[0]
            if left == 0:
                cost += weights[i] * (t + 1 - releases[i])
            cand = (cost, (i + 1,) + tail[1])
            if result is None or cand < result:
                result = cand
        tail = best(t + 1, remaining)
        if tail is not None:
            cand = (tail[0], (idle,) + tail[1])
            if result is None or cand < result:
                result = cand
        return result

    start = tuple(j.processing for j in instance.jobs)
    answer = best(0, start)
    best.cache_clear()
    if answer is None:
        raise RuntimeError("no complete schedule within the horizon; the horizon always admits one")
    cost, assignment = answer
    slots = {t: job_id for t, job_id in enumerate(assignment) if job_id != idle}
    return cost, Schedule.from_mapping(slots)


def perturb_release_times(
    instance: JobInstance, epsilon: Fraction | int | str | None = None
) -> JobInstance:
    """Make release times pairwise distinct by an exact integer rescaling.

    Job j's release becomes r_j * (n/eps) + j and its processing time becomes
    p_j * (n/eps); weights are unchanged.  Requires n/eps to be an integer.
    The result has strictly increasing release times in job-id order, and the
    optimum of the rescaled instance is at most (n/eps)*(1+eps) times the
    original optimum.
    """
    eps = instance.epsilon if epsilon is None else parse_epsilon(epsilon)
    if not instance.jobs:
        return JobInstance(jobs=(), epsilon=eps)
    scale_frac = Fraction(instance.n) / eps
    if scale_frac.denominator != 1:
        raise ValueError(f"n/epsilon = {scale_frac} is not an integer; cannot scale exactly")
    scale = int(scale_frac)
    jobs = tuple(
        [
            Job(
                id=j.id,
                release=j.release * scale + j.id,
                processing=j.processing * scale,
                weight=j.weight,
            )
            for j in instance.jobs
        ]
    )
    return JobInstance(jobs=jobs, epsilon=eps)


def instance_to_json(instance: JobInstance) -> str:
    """Canonical JSON text for an instance; stable byte-for-byte."""
    payload = {
        "epsilon": str(instance.epsilon),
        "jobs": [
            {"id": j.id, "release": j.release, "processing": j.processing, "weight": j.weight}
            for j in instance.jobs
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_JOB_FIELDS = ("id", "release", "processing", "weight")


def instance_from_json(text: str) -> JobInstance:
    """Parse ``instance_to_json`` output; ValueError names what is malformed."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or not isinstance(payload.get("jobs"), list):
        raise ValueError("expected a JSON object with a `jobs` list")
    jobs = []
    for i, rec in enumerate(payload["jobs"]):
        if not isinstance(rec, dict):
            raise ValueError(f"jobs[{i}]: expected an object, got {type(rec).__name__}")
        for key in _JOB_FIELDS:
            if key not in rec:
                raise ValueError(f"jobs[{i}]: missing key {key!r}")
            if type(rec[key]) is not int:
                raise ValueError(f"jobs[{i}]: field {key!r} must be an integer, got {rec[key]!r}")
        jobs.append(Job(**{key: rec[key] for key in _JOB_FIELDS}))
    epsilon = parse_epsilon(payload.get("epsilon", "1"), "field 'epsilon'")
    return JobInstance(jobs=tuple(jobs), epsilon=epsilon)
