import json
from fractions import Fraction
from random import Random

import pytest

import helpers
from flowcover.jobs import (
    Job,
    JobInstance,
    instance_from_json,
    instance_to_json,
    make_instance,
    max_processing,
    perturb_release_times,
    total_horizon,
)
from helpers import opt_weighted_flow_time


# -- opt_weighted_flow_time (the test reference) ------------------------------


def test_evaluate_preemption_example_and_optimality():
    # job 2 preempts job 1 at its release: job 2 ends at 2 (flow 1, weight
    # 10) and job 1 at 4 (flow 4, weight 1), a cost of 14 that is optimal
    assert opt_weighted_flow_time(make_instance([(0, 3, 1), (1, 1, 10)])) == 14


def test_tiny_single_job():
    assert opt_weighted_flow_time(make_instance([(0, 2, 1)])) == 2


def test_tiny_no_contention():
    assert opt_weighted_flow_time(make_instance([(0, 1, 1), (2, 1, 1)])) == 2


def test_tiny_guard():
    # a raised error, not an assert, so the guard holds under python -O
    with pytest.raises(ValueError, match="n=1, T=33"):
        opt_weighted_flow_time(make_instance([(0, 33, 1)]))
    with pytest.raises(ValueError, match="n=6, T=6"):
        opt_weighted_flow_time(make_instance([(0, 1, 1)] * 6))


def test_tiny_short_horizon_raises_not_asserts(monkeypatch):
    # a horizon too short for the work breaks the invariant; under python -O
    # too, it must be an error naming it, not a failure further on
    monkeypatch.setattr(helpers, "total_horizon", lambda instance: 1)
    with pytest.raises(RuntimeError, match="no complete schedule within the horizon"):
        opt_weighted_flow_time(make_instance([(0, 2, 1)]))


def test_tiny_cost_invariant_under_input_permutation():
    jobs = [(0, 2, 3), (0, 2, 3), (1, 1, 2)]
    a = opt_weighted_flow_time(make_instance(jobs))
    assert opt_weighted_flow_time(make_instance(list(reversed(jobs)))) == a


def test_tiny_schedules_validate_and_bound_below():
    # weighted flow is at least the weighted processing total
    rng = Random(7)
    for _ in range(30):
        n = rng.randint(1, 3)
        inst = make_instance(
            [(rng.randint(0, 3), rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)]
        )
        cost = opt_weighted_flow_time(inst)
        assert cost >= sum(j.weight * j.processing for j in inst.jobs)


# -- perturb_release_times ---------------------------------------------------


def test_perturb_equal_releases():
    inst = make_instance([(3, 1, 1), (3, 2, 1)], epsilon=1)
    out = perturb_release_times(inst)
    assert [j.release for j in out.jobs] == [7, 8]
    assert [j.processing for j in out.jobs] == [2, 4]


def test_perturb_single_job():
    out = perturb_release_times(make_instance([(0, 1, 1)], epsilon=1))
    assert [(j.release, j.processing) for j in out.jobs] == [(1, 1)]


def test_perturb_half_epsilon():
    out = perturb_release_times(make_instance([(0, 1, 1), (0, 1, 1)]), epsilon=Fraction(1, 2))
    assert [j.release for j in out.jobs] == [1, 2]
    assert [j.processing for j in out.jobs] == [4, 4]


def test_perturb_rejects_fractional_scale():
    inst = make_instance([(0, 1, 1), (0, 1, 1)])
    with pytest.raises(ValueError, match="not an integer"):
        perturb_release_times(inst, Fraction(3, 2))


def test_perturb_releases_strictly_increase():
    rng = Random(11)
    for _ in range(50):
        n = rng.randint(1, 5)
        inst = make_instance(
            [(rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 4)) for _ in range(n)]
        )
        out = perturb_release_times(inst, 1)
        releases = [j.release for j in out.jobs]
        assert all(a < b for a, b in zip(releases, releases[1:]))


def test_perturb_cost_bound_scaled_exactly():
    # optimum of the rescaled instance is at most (n/eps + n) times the original
    cases = [
        ([(0, 2, 1), (0, 2, 3)], 1),
        ([(0, 2, 1), (0, 2, 3)], Fraction(1, 2)),
        ([(1, 1, 2), (1, 2, 1), (2, 1, 3)], 1),
        ([(0, 1, 1), (0, 1, 1), (0, 1, 1)], Fraction(1, 2)),
    ]
    for triples, eps in cases:
        inst = make_instance(triples, epsilon=eps)
        base = opt_weighted_flow_time(inst)
        scaled = opt_weighted_flow_time(perturb_release_times(inst))
        scale = inst.n * Fraction(eps) ** -1
        bound = (scale + inst.n) * base
        assert scaled <= bound, (triples, eps, scaled, bound)


# -- total_horizon -----------------------------------------------------------


def test_horizon_examples():
    assert total_horizon(make_instance([(0, 3, 1), (1, 2, 1)])) == 6
    assert total_horizon(make_instance([(5, 1, 1)])) == 6
    assert total_horizon(make_instance([(0, 1, 1), (0, 1, 1)])) == 2


def test_horizon_of_empty_instance_is_zero():
    # like max_processing: a reduction of no jobs lays its grid over [0, 0]
    assert total_horizon(JobInstance(jobs=())) == 0


def test_max_processing_of_empty_instance_is_zero():
    assert max_processing(JobInstance(jobs=())) == 0
    assert max_processing(make_instance([(0, 3, 1), (2, 5, 1)])) == 5


# -- model validation and serialization ---------------------------------------


def test_job_field_validation():
    with pytest.raises(ValueError):
        Job(id=1, release=-1, processing=1, weight=1)
    with pytest.raises(ValueError):
        Job(id=1, release=0, processing=0, weight=1)
    with pytest.raises(ValueError):
        Job(id=1, release=0, processing=1, weight=0)


def test_instance_requires_sorted_ids():
    with pytest.raises(ValueError):
        JobInstance(jobs=(Job(2, 0, 1, 1),))
    with pytest.raises(ValueError):
        JobInstance(jobs=(Job(1, 5, 1, 1), Job(2, 0, 1, 1)))


def test_json_round_trip_is_stable():
    inst = make_instance([(0, 3, 1), (2, 1, 4)], epsilon=Fraction(1, 2))
    text = instance_to_json(inst)
    again = instance_from_json(text)
    assert again == inst
    assert instance_to_json(again) == text
    assert json.loads(text)["epsilon"] == "1/2"
