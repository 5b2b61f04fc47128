"""The batched estimator walks equal the unbatched estimate sequence.

:meth:`TaskEstimator.snapshot_running` and
:meth:`TaskEstimator.update_running_snaps` are the simulator's hottest
code: they inline, per running task, the sequence ``tnew(task)``,
``trem(task, now)``, ``record_trem_outcome(trem, max(1e-6,
task.true_remaining(now)))``.  The unbatched methods have no production
caller any more; they are kept as the reference these tests pin the
batched walks to — returned values, accuracy-tracker mean and count, noise
caches, eviction generation and RNG state must all be bit-equal.
"""

from __future__ import annotations

from itertools import count, permutations
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import ApproximationBound
from repro.core.estimators import EstimatorConfig, TaskEstimator
from repro.core.job import Job
from repro.core.policies.base import TaskSnapshot
from repro.core.task import Task, TaskCopy
from repro.utils.rng import RngStream
from tests.conftest import make_job_spec

WORKS = (0.5, 1.0, 2.0, 3.0)
#: Copy durations; with the clocks below they cover "no progress report
#: yet", mid-run extrapolation and overdue copies (remaining clamped to 0).
DURATIONS = (0.3, 1.0, 4.0, 9.0)
CLOCKS = (0.0, 0.02, 1.0, 5.0, 20.0)


@st.composite
def estimator_scenarios(draw):
    works = draw(st.lists(st.sampled_from(WORKS), min_size=1, max_size=8))
    job = Job(make_job_spec(works, ApproximationBound.exact()))
    job.start(0.0)
    now = draw(st.sampled_from(CLOCKS))
    copy_ids = count()
    running: List[Task] = []
    for task in job.tasks.values():
        # Task 0 always runs, so every walk has at least one running task.
        copies = draw(st.integers(1 if task.task_id == 0 else 0, 3))
        for _ in range(copies):
            start = now * draw(st.sampled_from((0.0, 0.5, 0.99, 1.0)))
            task.add_copy(
                TaskCopy(
                    copy_id=next(copy_ids),
                    task_id=task.task_id,
                    machine_id=0,
                    start_time=start,
                    duration=draw(st.sampled_from(DURATIONS)),
                )
            )
        if copies:
            running.append(task)
    # Each running task re-checked twice: repeated walks hit the noise caches.
    walk = running * draw(st.integers(1, 2))
    completions = draw(st.lists(st.sampled_from(DURATIONS), max_size=5))
    noise = draw(st.sampled_from((0.0, 0.05, 0.5)))
    config = EstimatorConfig(trem_noise=noise, tnew_noise=noise)
    return job, now, walk, completions, config, draw(st.integers(0, 99)), draw(st.booleans())


def make_estimator(job, completions, config, seed, near_eviction) -> TaskEstimator:
    estimator = TaskEstimator(config, RngStream(seed, "estimator"))
    tasks = list(job.tasks.values())
    for position, duration in enumerate(completions):
        estimator.observe_completion(tasks[position % len(tasks)], duration)
    if near_eviction:
        # One more distinct trem noise key evicts the cache mid-walk.
        estimator._trem_noise_cache.update(((-1, i, 0), 1.0) for i in range(4097))
    return estimator


def unbatched(estimator: TaskEstimator, task: Task, now: float) -> Tuple[float, float, float]:
    tnew = estimator.tnew(task)
    trem = estimator.trem(task, now)
    actual = max(1e-6, task.true_remaining(now))
    estimator.record_trem_outcome(trem, actual)
    return tnew, trem, actual


def estimator_state(estimator: TaskEstimator) -> Tuple:
    mean = estimator.trem_tracker._accuracy
    return (
        mean.count,
        mean.value.hex(),
        estimator._rng.getstate(),
        estimator.noise_generation,
        dict(estimator._trem_noise_cache),
        dict(estimator._tnew_noise_cache),
    )


def hexes(*values: float) -> Tuple[str, ...]:
    return tuple(value.hex() for value in values)


class TestBatchedWalksMatchUnbatched:
    @settings(max_examples=200, deadline=None)
    @given(scenario=estimator_scenarios())
    def test_snapshot_running(self, scenario):
        job, now, walk, completions, config, seed, near_eviction = scenario
        batched = make_estimator(job, completions, config, seed, near_eviction)
        reference = make_estimator(job, completions, config, seed, near_eviction)
        for task in walk:
            tnew, trem, actual, _ = batched.snapshot_running(task, now)
            assert hexes(tnew, trem, actual) == hexes(*unbatched(reference, task, now))
        assert estimator_state(batched) == estimator_state(reference)

    @settings(max_examples=200, deadline=None)
    @given(scenario=estimator_scenarios())
    def test_update_running_snaps(self, scenario):
        job, now, walk, completions, config, seed, near_eviction = scenario
        batched = make_estimator(job, completions, config, seed, near_eviction)
        reference = make_estimator(job, completions, config, seed, near_eviction)
        snaps = {task.task_id: TaskSnapshot(task, True, 1, 1.0, 1.0) for task in walk}
        running_ids = sorted(snaps)
        samples, _, rate, noise = batched.update_running_snaps(snaps, running_ids, now)
        for task_id in running_ids:
            snap = snaps[task_id]
            tnew, trem, actual = unbatched(reference, snap.task, now)
            assert hexes(snap.tnew, snap.trem, snap._actual) == hexes(tnew, trem, actual)
            assert snap.copies == snap.task.running_copy_count
            assert snap.running
        # The returned epoch factor reproduces ``tnew`` for any task.
        first = job.tasks[0]
        assert samples == reference.completed_samples
        assert hexes(max(1e-6, (rate * first.work) * noise)) == hexes(reference.tnew(first))
        assert estimator_state(batched) == estimator_state(reference)


#: Copies ``(start, duration)`` of one task that all finish at t=9, so at
#: ``now=5`` their true remaining times tie at 4 while their progress (and
#: hence their trem noise keys and extrapolations) differ.
TIED_COPIES = ((0.0, 9.0), (5.0, 4.0), (2.5, 6.5))


@pytest.mark.parametrize("order", list(permutations(range(len(TIED_COPIES)))))
@pytest.mark.parametrize("walk", ("snapshot_running", "update_running_snaps"))
def test_best_copy_ties_keep_launch_order(order, walk):
    """Copies tied on remaining time: the first launched is the best copy.

    The unbatched ``trem`` takes ``min`` over the running copies, which
    keeps the first of equal keys; both batched walks must pick the same
    copy, whichever of the tied copies launched first.
    """
    job = Job(make_job_spec([3.0, 3.0], ApproximationBound.exact()))
    job.start(0.0)
    task = job.tasks[0]
    for copy_id, index in enumerate(order):
        start, duration = TIED_COPIES[index]
        task.add_copy(TaskCopy(copy_id, 0, 0, start, duration))
    config = EstimatorConfig(trem_noise=0.3, tnew_noise=0.3)
    batched = make_estimator(job, [], config, seed=3, near_eviction=False)
    reference = make_estimator(job, [], config, seed=3, near_eviction=False)
    if walk == "snapshot_running":
        tnew, trem, actual, _ = batched.snapshot_running(task, 5.0)
    else:
        snap = TaskSnapshot(task, True, 1, 1.0, 1.0)
        batched.update_running_snaps({0: snap}, [0], 5.0)
        tnew, trem, actual = snap.tnew, snap.trem, snap._actual
    assert hexes(tnew, trem, actual) == hexes(*unbatched(reference, task, 5.0))
    assert estimator_state(batched) == estimator_state(reference)
