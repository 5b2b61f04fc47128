"""Differential property tests for the scheduling indexes and fast choosers.

Random job shapes are driven through random sequences of copy launches,
task finishes and clock advances, exactly the mutations the engine applies
between scheduling rounds.  Three properties are checked after every
``prepare``:

* :class:`OracleSchedulingIndex` equals a from-scratch eager rebuild — the
  eager oracle view construction the index replaced, kept here as the reference
  (:func:`eager_oracle_snapshots`).
* :class:`SchedulingIndex` equals the unbatched estimate walk run on a
  clone of the estimator (:func:`unbatched_estimate_snapshots`), side
  effects included, whichever of its rebuild / re-estimate / retime /
  replay cases ``prepare`` took.
* On views served by either index kind, the index-backed ``_fast_deadline``
  / ``_fast_error`` of GS and RAS pick the same snapshot as the generic
  list-based ``_choose_deadline`` / ``_choose_error``, which now exist only
  as their reference; likewise LATE's ``_fast`` and list-based ``_choose``.
"""

from __future__ import annotations

import copy
from itertools import count
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.late import LatePolicy
from repro.core.bounds import ApproximationBound
from repro.core.estimators import EstimatorConfig, TaskEstimator
from repro.core.job import Job, JobSpec
from repro.core.policies.base import (
    OracleSchedulingIndex,
    SchedulingIndex,
    SchedulingView,
    TaskSnapshot,
)
from repro.core.policies.gs import GreedySpeculative
from repro.core.policies.ras import ResourceAwareSpeculative
from repro.core.task import TaskCopy
from repro.simulator.stragglers import StragglerConfig, StragglerModel
from repro.utils.rng import RngStream
from tests.conftest import make_job_spec
from tests.test_estimator_batching import estimator_state

#: Few distinct works, so equal ``tnew`` keys (and id tie-breaks) are common.
WORKS = (1.0, 2.0, 2.5, 4.0)
#: Machine speed factors a launched copy may land on (the oracle assumes
#: ``SPEED``); a 3.0 machine makes the copy a straggler worth speculating on.
MACHINE_SPEEDS = (0.8, 1.0, 3.0)
SPEED = 1.0
MAX_COPIES = 4

BOUNDS = (
    ApproximationBound.with_deadline(20.0),
    ApproximationBound.with_error(0.25),
    ApproximationBound.exact(),
)

operations = st.lists(
    st.tuples(
        st.sampled_from(("advance", "launch", "launch", "finish")),
        st.integers(min_value=0, max_value=60),
        st.booleans(),  # prepare (and check) after this operation
    ),
    max_size=40,
)


@st.composite
def job_specs(draw) -> JobSpec:
    works = draw(st.lists(st.sampled_from(WORKS), min_size=1, max_size=8))
    intermediate = draw(
        st.lists(st.lists(st.sampled_from(WORKS), min_size=1, max_size=4), max_size=2)
    )
    return make_job_spec(
        works, draw(st.sampled_from(BOUNDS)), job_id=draw(st.integers(0, 3)),
        intermediate=intermediate,
    )


class JobMutator:
    """Applies engine-style mutations to a job and tells an index about them."""

    def __init__(self, spec: JobSpec, seed: int) -> None:
        self.job = Job(spec)
        self.job.start(0.0)
        self.now = 0.0
        self.stragglers = StragglerModel(StragglerConfig(), seed=seed)
        self.copy_ids = count()

    def apply(self, op: str, arg: int, index: SchedulingIndex) -> None:
        job = self.job
        if op == "advance":
            self.now += (0.0, 0.05, 0.4, 1.0, 3.0)[arg % 5]
        elif op == "launch":
            # The engine prepares the index before every launch decision.
            if not index.prepare(self.now):
                return
            tasks = [
                task
                for task in job.schedulable_tasks(self.now)
                if task.running_copy_count < MAX_COPIES
            ]
            if not tasks:
                return
            task = tasks[arg % len(tasks)]
            duration = self.stragglers.copy_duration(
                task.work,
                MACHINE_SPEEDS[arg % len(MACHINE_SPEEDS)],
                job.job_id,
                task.task_id,
                len(task.copies),
            )
            task.add_copy(
                TaskCopy(
                    copy_id=next(self.copy_ids),
                    task_id=task.task_id,
                    machine_id=0,
                    start_time=self.now,
                    duration=duration,
                )
            )
            index.on_copy_launched(task)
        else:
            # Any running task may finish, including a straggler of an
            # earlier phase the index no longer tracks.
            running = [task for task in job.tasks.values() if task.is_running]
            if not running:
                return
            task = running[arg % len(running)]
            winner = min(task.running_copies, key=lambda copy: copy.finish_time)
            task.complete(self.now, winner)
            index.on_task_finished(task)
            if index.estimator is not None:
                index.estimator.observe_completion(task, self.now - winner.start_time)


def eager_oracle_snapshots(
    job: Job, stragglers: StragglerModel, speed: float, now: float
) -> List[TaskSnapshot]:
    """Reference: the eager eager oracle view construction the index replaced."""
    snapshots = []
    for task in job.schedulable_tasks(now):
        running = task.is_running
        tnew = stragglers.copy_duration(
            task.work, speed, job.job_id, task.task_id, task.total_copies_launched
        )
        trem = task.true_remaining(now) if running else tnew
        snapshots.append(
            TaskSnapshot(
                task=task,
                running=running,
                copies=task.running_copy_count,
                trem=trem,
                tnew=tnew,
            )
        )
    return snapshots


def snapshot_fields(snap: TaskSnapshot) -> Tuple:
    # ``float.hex`` makes the comparison bit-exact (it tells 0.0 from -0.0).
    return (snap.task, snap.running, snap.copies, snap.trem.hex(), snap.tnew.hex())


class TestOracleIndexMatchesEagerRebuild:
    @settings(max_examples=150, deadline=None)
    @given(spec=job_specs(), ops=operations, seed=st.integers(0, 50))
    def test_prepare_matches_from_scratch_rebuild(self, spec, ops, seed):
        mutator = JobMutator(spec, seed)
        reference_model = StragglerModel(StragglerConfig(), seed=seed)
        index_model = StragglerModel(StragglerConfig(), seed=seed)
        index = OracleSchedulingIndex(mutator.job, index_model.copy_duration, SPEED)
        for op, arg, check in [("advance", 0, True)] + ops:
            mutator.apply(op, arg, index)
            if not check:
                continue
            now = mutator.now
            expected = eager_oracle_snapshots(mutator.job, reference_model, SPEED, now)
            if not index.prepare(now):
                assert expected == []
                continue
            assert [snapshot_fields(s) for s in index.materialize()] == [
                snapshot_fields(s) for s in expected
            ]
            assert index.pending_sorted == sorted(
                (s.tnew, s.task_id, s.task.work) for s in expected if not s.running
            )
            assert index.running_ids == sorted(s.task_id for s in expected if s.running)


def unbatched_estimate_snapshots(
    job: Job, estimator: TaskEstimator, now: float
) -> List[TaskSnapshot]:
    """Reference: the unbatched estimate walk the estimated index replays.

    Every task of the current phase in id order: ``tnew``, then for a
    running task ``trem`` and one ``record_trem_outcome`` against the true
    remaining time — noise draws and tracker folds included.
    """
    snapshots = []
    for task in job.schedulable_tasks(now):
        running = task.is_running
        tnew = estimator.tnew(task)
        trem = estimator.trem(task, now) if running else tnew
        if running:
            estimator.record_trem_outcome(trem, max(1e-6, task.true_remaining(now)))
        snapshots.append(
            TaskSnapshot(task, running, task.running_copy_count, trem, tnew)
        )
    return snapshots


def clone_estimator(estimator: TaskEstimator) -> TaskEstimator:
    # The noise caches hold immutable keys and values: a shallow copy is a
    # full copy, and far cheaper than deep-copying thousands of tuples.
    caches = (estimator._trem_noise_cache, estimator._tnew_noise_cache)
    return copy.deepcopy(estimator, {id(cache): dict(cache) for cache in caches})


def check_estimated_index(spec: JobSpec, ops, seed: int, noise: float, prefill: int) -> None:
    """Every ``prepare`` case equals the unbatched walk from the same state.

    Before each checked ``prepare`` the estimator is cloned and the
    reference walk runs on the clone: the index's snapshots and selection
    structures, and the estimator's tracker, noise caches, eviction
    generation and RNG state afterwards, must be bit-equal — whichever of
    rebuild, re-estimate, retime or replay ``prepare`` took.  ``prefill``
    dummy trem noise entries bring the cache near its eviction size.
    """
    mutator = JobMutator(spec, seed)
    estimator = TaskEstimator(
        EstimatorConfig(trem_noise=noise, tnew_noise=noise),
        RngStream(seed, "estimator"),
    )
    estimator._trem_noise_cache.update(((-1, i, 0), 1.0) for i in range(prefill))
    index = SchedulingIndex(mutator.job, estimator)
    for op, arg, check in [("advance", 0, True)] + list(ops):
        mutator.apply(op, arg, index)
        if not check:
            continue
        reference = clone_estimator(estimator)
        expected = unbatched_estimate_snapshots(mutator.job, reference, mutator.now)
        if not index.prepare(mutator.now):
            assert expected == []
            continue
        assert [snapshot_fields(s) for s in index.materialize()] == [
            snapshot_fields(s) for s in expected
        ]
        assert index.pending_sorted == sorted(
            (s.tnew, s.task_id, s.task.work) for s in expected if not s.running
        )
        assert index.running_ids == sorted(s.task_id for s in expected if s.running)
        assert estimator_state(estimator) == estimator_state(reference)


#: (task count, operations) sequences that put a noise-cache eviction in
#: different walk positions, depending on how full the cache starts.
EVICTION_SCENARIOS = [
    (
        5,
        [("launch", task, False) for task in range(3)]
        + [
            ("advance", 3, True),
            ("launch", 3, True),
            ("advance", 0, True),
            ("launch", 4, True),
            ("advance", 2, True),
            ("launch", 0, True),
        ],
    ),
    (
        4,
        [("launch", task, False) for task in range(4)]
        + [
            ("advance", 4, True),
            ("launch", 0, True),
            ("advance", 2, True),
            ("launch", 0, True),
            ("launch", 1, True),
            ("advance", 3, True),
            ("launch", 0, True),
        ],
    ),
]


class TestEstimatedIndexMatchesUnbatchedWalk:
    @settings(max_examples=150, deadline=None)
    @given(
        spec=job_specs(),
        ops=operations,
        seed=st.integers(0, 50),
        noise=st.sampled_from((0.0, 0.05, 0.3)),
        prefill=st.sampled_from((0, 4094)),
    )
    def test_prepare_matches_unbatched_walk(self, spec, ops, seed, noise, prefill):
        check_estimated_index(spec, ops, seed, noise, prefill)

    @pytest.mark.parametrize("prefill", range(4088, 4097))
    @pytest.mark.parametrize("tasks, ops", EVICTION_SCENARIOS)
    def test_noise_eviction_mid_walk(self, tasks, ops, prefill):
        """A trem noise-cache eviction inside a walk, then more rounds.

        Tasks run past their first progress report when the clock advances,
        so walks draw fresh trem noise keys (a speculative launch changes a
        task's key too) and the eviction lands at a different point for
        each ``prefill``: inside a retime walk followed by same-instant
        replays, which must re-estimate instead of re-folding values the
        eviction made unreproducible, or inside a replay walk at a
        re-estimated task, after which the remaining running tasks must be
        re-estimated as well.
        """
        spec = make_job_spec([2.0] * tasks, ApproximationBound.exact())
        check_estimated_index(spec, ops, seed=7, noise=0.3, prefill=prefill)


#: LATE variants: the defaults, a budget that grows with every slot and
#: admits brand-new copies, and a strict straggler percentile.
LATE_POLICIES = (
    LatePolicy(),
    LatePolicy(slow_task_percentile=50.0, speculative_cap=1.0,
               min_runtime_before_speculation=0.0),
    LatePolicy(slow_task_percentile=10.0, speculative_cap=0.3),
)
#: Wave widths around LATE's budget steps (``int(cap * width)``).
WAVE_WIDTHS = (0, 1, 3, 7, 10, 20)
#: Clock offsets past the index's ``now``: copies cross the one-second
#: minimum runtime, and far ahead every copy is overdue.
CLOCK_OFFSETS = (0.0, 0.5, 1.0, 4.0, 100.0)


def assert_fast_matches_generic(index: SchedulingIndex, now: float) -> None:
    """Every GS/RAS/LATE fast chooser picks the generic chooser's snapshot.

    Deadlines sweep ``None``, 0 and every snapshot's exact ``tnew``/``trem``
    (the ``tnew <= remaining`` boundaries); required counts sweep the
    "all remaining" sentinel, small windows and more than there are tasks.
    LATE is swept over wave widths (its speculative budget) and clocks
    (its minimum runtime and progress rates).
    """
    job = index.job
    view = SchedulingView(
        now=now,
        job=job,
        tasks=None,
        bound=job.bound,
        remaining_deadline=None,
        remaining_required_tasks=0,
        wave_width=1,
        cluster_utilization=0.5,
        estimator_accuracy=1.0,
        phase_index=index.phase,
        is_input_phase=index.phase == 0,
        sched=index,
    )
    deadlines = [None, 0.0] + sorted(
        {value for snap in index.snaps.values() for value in (snap.tnew, snap.trem)}
    )
    required_counts = (0, 1, 2, 3, len(index.snaps) + 1)
    for max_copies in (1, 2, MAX_COPIES):
        for policy in (
            GreedySpeculative(max_copies_per_task=max_copies),
            ResourceAwareSpeculative(max_copies_per_task=max_copies),
        ):
            for deadline in deadlines:
                view.remaining_deadline = deadline
                fast = policy._fast_deadline(view, index)
                assert fast is policy._choose_deadline(view), (policy.name, deadline)
            for required in required_counts:
                view.remaining_required_tasks = required
                fast = policy._fast_error(view, index)
                assert fast is policy._choose_error(view), (policy.name, required)
    for late in LATE_POLICIES:
        for wave_width in WAVE_WIDTHS:
            view.wave_width = wave_width
            for offset in CLOCK_OFFSETS:
                view.now = now + offset
                fast = late._fast(view, index)
                assert fast is late._choose(view), (wave_width, offset)


class TestFastChoosersMatchGeneric:
    @settings(max_examples=300, deadline=None)
    @given(
        spec=job_specs(),
        ops=operations,
        seed=st.integers(0, 50),
        oracle=st.booleans(),
        noise=st.sampled_from((0.0, 0.05, 0.3)),
    )
    def test_fast_choice_equals_generic_choice(self, spec, ops, seed, oracle, noise):
        mutator = JobMutator(spec, seed)
        if oracle:
            index_model = StragglerModel(StragglerConfig(), seed=seed)
            index = OracleSchedulingIndex(mutator.job, index_model.copy_duration, SPEED)
        else:
            estimator = TaskEstimator(
                EstimatorConfig(trem_noise=noise, tnew_noise=noise),
                RngStream(seed, "estimator"),
            )
            index = SchedulingIndex(mutator.job, estimator)
        for op, arg, check in [("advance", 0, True)] + ops:
            mutator.apply(op, arg, index)
            if check and index.prepare(mutator.now):
                assert_fast_matches_generic(index, mutator.now)
