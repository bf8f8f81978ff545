"""Preemptive single-machine instances and the release-time perturbation.

A job has an integer release time, a positive integer processing time, and a
positive integer weight.  A preemptive schedule assigns unit time slots to
jobs (one job per slot, idling allowed); the flow time of a job is its
completion time minus its release time, and the objective is the weighted sum
of flow times.  Instances are the reduction's input; no schedule is built.

Besides the instance model and its JSON form this module provides
``perturb_release_times``: the release-time perturbation that makes all
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
from typing import Iterable


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


def perturb_scale(n: int, epsilon: Fraction) -> int:
    """The factor n/epsilon that the perturbation of n jobs scales by;
    ValueError unless it is an integer."""
    scale = Fraction(n) / epsilon
    if scale.denominator != 1:
        raise ValueError(f"n/epsilon = {scale} is not an integer; cannot scale exactly")
    return int(scale)


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
    scale = perturb_scale(instance.n, eps)
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
