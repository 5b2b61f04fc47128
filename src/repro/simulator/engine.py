"""The discrete-event simulation engine.

The engine drives a set of jobs (from the workload generator) through a
cluster under one speculation policy.  It owns:

* the event loop (job arrivals, copy completions, deadlines),
* slot accounting and fair-share allocation across concurrent jobs,
* the per-job ``trem`` / ``tnew`` estimators and their accuracy tracking,
* materialising the policy-facing :class:`SchedulingView`,
* job termination semantics for deadline-bound, error-bound and exact jobs.

It deliberately knows nothing about *which* policy it is running; GS, RAS,
GRASS, LATE, Mantri and the oracle all plug into the same
:class:`~repro.core.policies.base.SpeculationPolicy` interface.

Performance
-----------

The event loop is engineered so that processing one event costs O(affected
state), never O(cluster) or O(workload):

* job specs, jobs and task copies are reached through ``dict`` indexes
  (``job_id -> JobSpec``, ``copy_id -> TaskCopy``) instead of linear scans;
* jobs maintain per-phase pending/completed counters and running-copy totals
  incrementally (see :class:`~repro.core.task.TaskObserver`), so scheduling
  queries never rescan every task;
* fair-share allocations are recomputed only when the running-job set or
  some job's schedulable counts actually changed, and then incrementally:
  each job's effective limit and their sum are kept, only jobs a launch,
  copy finish or arrival touched are re-limited, and the max-min loop runs
  only while the limits exceed the shared capacity (below it, every job
  is simply granted its limit);
* ``COPY_FINISH`` events of killed copies and ``JOB_DEADLINE`` events of
  early-finishing jobs are cancelled via :meth:`EventQueue.cancel` rather
  than popped and discarded, keeping the heap small and the simulated
  timeline free of dead wake-ups.

On top of the asymptotics, the hot path is flattened for single-core
constant factors — under the invariant that every optimisation leaves the
metrics digests *byte-identical* (same RNG draw order, same float operation
order; ``scripts/check.sh replay-determinism`` and the digest-pinned tests
enforce this):

* events travel as packed ``(time, priority, seq, ...)`` tuples on a plain
  heap, and all events sharing a timestamp are drained as one cohort per
  loop iteration (:meth:`EventQueue.pop_at_or_before`);
* the cluster keeps flat columns over machines (a ``speed_column`` array, a
  cached ``median_speed``) and a busy-count-bucketed free-list, so
  ``pick_machine`` reads the least-loaded candidate set off a bucket
  instead of rescanning all machines per launch;
* each job carries an incremental :class:`SchedulingIndex` — task snapshots
  plus a ``(tnew, task_id)``-sorted pending list — that is *replayed*
  against estimator feedback instead of rebuilt per scheduling round;
  re-estimates refresh the sorted list lazily and defer snapshot writes
  until a policy actually materialises the view;
* oracle-estimate runs use the same index over true durations
  (:class:`OracleSchedulingIndex`): a task copy's exact duration is drawn
  once per copy index instead of once per task per scheduling view;
* policies whose choice is a pure function of the index state declare
  ``stateless_choose`` (GS, RAS and LATE, which picks from the index
  without materialising snapshots), letting the engine skip the re-ask
  after a ``None`` decision when nothing it reads has changed — an
  allocation change counts, since LATE's budget reads ``wave_width`` (the
  mandated estimator folds still run);
* the estimator walk reads a task's lone running copy directly (the
  common case) and scans copies only for speculated tasks;
* the straggler model reseeds one scratch generator per copy through the
  C-level ``seed`` with a pre-encoded digest prefix, instead of spawning a
  fresh RNG stream per multiplier.

Measured with perfbench (``python3 perfbench/run.py --workload replay-cold
--seed 9173``: one replay CLI process, grass + gs + late over a 300-job
cluster-shape trace, 4 shards, 2 workers; 10 alternating runs of the
previous engine and this one on a 2-core VM), the incremental allocation,
LATE's index path, the single-copy walk and GRASS's indexed sample store
took replay-cold from a median 414 to 515 simulated jobs per second in one
session and from 393 to 477 in another (+21% to +24%, faster in 10 of 10
pairs each; CPU per process about 4.0 s to 3.1-3.3 s), every digest
unchanged.

Memory
------

Resident state is O(max *concurrent* jobs), never O(workload) — the only
per-job residues are plain ints (the duplicate-id check's id set) and the
metrics' per-job results, never specs, tasks or estimators:

* ``job_specs`` may be a lazy ``Iterable[JobSpec]`` (any non-``Sequence``
  iterable, e.g. a generator) sorted by ``(arrival_time, job_id)``.  The
  engine holds a one-spec lookahead and injects each ``JOB_ARRIVAL`` only
  when the previous arrival has been handled, so specs materialise one at a
  time, interleaved correctly with in-flight copy-finish/deadline events.
  A ``Sequence`` is sorted and validated up front exactly as before — the
  two ingestion paths produce byte-identical event streams (same RNG spawn
  order, same ``(arrival_time, job_id)`` tie-breaking), which
  ``tests/test_lazy_ingestion.py`` locks in with a pickled-metrics property
  test.  Trace replay always takes the iterator path.
* ``_finish_job`` evicts the job's ``Job``, ``TaskEstimator`` and spec the
  moment its :class:`~repro.core.job.JobResult` is recorded (outstanding
  event handles were already cancelled), so finished jobs never accumulate.
  ``peak_resident_jobs`` reports the high-water mark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.core.estimators import EstimatorConfig, TaskEstimator
from repro.core.job import Job, JobSpec
from repro.core.policies.base import (
    OracleSchedulingIndex,
    SchedulingIndex,
    SchedulingView,
    SpeculationPolicy,
)
from repro.core.task import Task, TaskCopy
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.events import Event, EventKind, EventQueue
from repro.simulator.metrics import MetricsCollector
from repro.simulator.sinks import ResultSink, RetainAllSink
from repro.simulator.stragglers import StragglerConfig, StragglerModel
from repro.utils.rng import RngStream


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to run one simulation besides the jobs and the policy."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    stragglers: StragglerConfig = field(default_factory=StragglerConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    seed: int = 0
    background_utilization: float = 0.0
    max_simulated_time: float = 10_000_000.0
    oracle_estimates: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.background_utilization < 1.0:
            raise ValueError("background_utilization must be in [0, 1)")
        if self.max_simulated_time <= 0:
            raise ValueError("max_simulated_time must be positive")


class Simulation:
    """Runs a workload under one speculation policy and collects metrics."""

    def __init__(
        self,
        config: SimulationConfig,
        policy: SpeculationPolicy,
        job_specs: Union[Sequence[JobSpec], Iterable[JobSpec]],
        sink: Optional[ResultSink] = None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.cluster = Cluster(config.cluster)
        self.stragglers = StragglerModel(config.stragglers, seed=config.seed)
        # Where per-job results go: retained (default), folded into streaming
        # aggregates, or spilled to disk — see ``repro.simulator.sinks``.
        # With a non-retaining sink the collector holds zero JobResults, so
        # a streaming replay's memory is independent of trace length.
        self.metrics = MetricsCollector(sink=sink if sink is not None else RetainAllSink())
        self._events = EventQueue()
        self._now = 0.0
        self._rng = RngStream(config.seed, "engine")
        if isinstance(job_specs, Sequence):
            # Materialised path: sort and validate up front, as always.
            ordered = sorted(
                job_specs, key=lambda spec: (spec.arrival_time, spec.job_id)
            )
            if len({spec.job_id for spec in ordered}) != len(ordered):
                raise ValueError("job ids must be unique within a workload")
            self._spec_stream: Iterator[JobSpec] = iter(ordered)
            self._seen_job_ids: Optional[set] = None  # validated above
        else:
            # Lazy path: specs materialise one at a time; ordering and id
            # uniqueness are enforced as they are consumed by
            # ``_push_next_arrival``.  The dedup set holds job *ids* only
            # (ints, never specs) — the same bounded bookkeeping
            # ``traces.iter_trace`` keeps, and no more than the results list
            # already grows.
            self._spec_stream = iter(job_specs)
            self._seen_job_ids = set()
        self._next_spec: Optional[JobSpec] = next(self._spec_stream, None)
        if self._next_spec is None:
            raise ValueError("a simulation needs at least one job")
        self._last_arrival_key: Optional[Tuple[float, int]] = None
        # Specs whose arrival event is scheduled but has not fired yet (at
        # most one at a time); evicted again the moment the job finishes.
        self._spec_by_id: Dict[int, JobSpec] = {}
        self._jobs: Dict[int, Job] = {}
        self._estimators: Dict[int, TaskEstimator] = {}
        # Per-job incremental scheduling indexes: live snapshots plus sorted
        # selection structures, kept consistent with the estimators' noise
        # caches — see ``SchedulingIndex``.  Oracle-estimate runs index true
        # durations instead (``OracleSchedulingIndex``); the cached values
        # live on the per-job index, so they are evicted with the job.
        self._sched_index: Dict[int, SchedulingIndex] = {}
        if config.oracle_estimates:
            copy_duration = self.stragglers.copy_duration
            speed = self.cluster.median_speed
            self._new_index = lambda job, _estimator: OracleSchedulingIndex(
                job, copy_duration, speed
            )
        else:
            self._new_index = SchedulingIndex
        # Insertion-ordered job-id set (dict keys): O(1) removal on job
        # finish with the same deterministic iteration order the old list
        # gave the fair-share and dispatch loops.
        self._running_job_ids: Dict[int, None] = {}
        self._copy_counter = 0
        self.peak_resident_jobs = 0
        self._total_slots = self.cluster.total_slots
        self._reserved_slots = int(
            round(config.background_utilization * self._total_slots)
        )
        # Outstanding event handles, used to cancel events that can no longer
        # matter (killed copies, jobs that finished before their deadline).
        self._deadline_events: Dict[int, Event] = {}
        self._copy_finish_events: Dict[int, Event] = {}
        # Fair-share allocations are recomputed lazily.  Each running job's
        # effective limit (demand capped by ``max_slots``) is kept in
        # ``_running_job_ids`` order with their sum; a launch, a copy finish
        # or an arrival marks its job in ``_alloc_touched`` (its limit is
        # recomputed), and a job finishing raises ``_alloc_dirty`` (the
        # others' shares may change).
        self._alloc_dirty = False
        self._alloc_touched: Dict[int, None] = {}
        self._limits: Dict[int, int] = {}
        self._limit_sum = 0
        self._congested = False
        # Stateless-choice policies (GS/RAS/LATE) let the dispatch loop cache a
        # None decision per index state instead of re-asking; see
        # ``SpeculationPolicy.stateless_choose``.
        self._stateless_choice = bool(getattr(policy, "stateless_choose", False))
        self.events_processed = 0

    # ------------------------------------------------------------------ lifecycle

    @property
    def now(self) -> float:
        return self._now

    def run(self) -> MetricsCollector:
        """Execute the simulation to completion and return the metrics."""
        self._push_next_arrival()
        truncated = False
        while True:
            event = self._events.pop()
            if event is None:
                break
            if event.time > self.config.max_simulated_time:
                truncated = True
                break
            self._now = max(self._now, event.time)
            self._process_event(event)
            # Apply every other event scheduled for the same instant before
            # making new scheduling decisions, so simultaneous completions
            # free their slots together (and deadlines see them as finished).
            # ``pop_at_or_before`` drains the cohort in one heap inspection
            # per event instead of a peek/pop pair.
            while True:
                cohort_event = self._events.pop_at_or_before(self._now)
                if cohort_event is None:
                    break
                self._process_event(cohort_event)
            self._recompute_allocations()
            self._dispatch()
        if truncated:
            self.metrics.truncated_jobs = self._count_truncated_jobs()
        # Force-finish anything still running (jobs in flight when the clock
        # ran out, or — the safety net — workloads a policy refused to
        # schedule); their partial results are still recorded.
        for job_id in list(self._running_job_ids):
            self._finish_job(self._jobs[job_id])
        self.metrics.simulated_time = self._now
        self.metrics.peak_resident_jobs = self.peak_resident_jobs
        self.metrics.events_processed = self.events_processed
        # Let the sink finalise (a spill sink flushes and closes its file);
        # results recorded after this point would be a bug, not a feature.
        self.metrics.sink.finish()
        return self.metrics

    def _count_truncated_jobs(self) -> int:
        """Jobs cut off by ``max_simulated_time``: in flight or never arrived.

        In-flight jobs are force-finished with partial results; jobs whose
        arrivals lie beyond the horizon produce no result at all.  Counting
        the latter drains the spec stream (O(trace) time, O(1) memory) —
        acceptable on the truncation path, which is the exceptional exit.
        The count is identical for the lazy and materialised ingestion paths.
        """
        never_arrived = len(self._spec_by_id) - len(self._jobs)
        if self._next_spec is not None:
            never_arrived += 1
        never_arrived += sum(1 for _ in self._spec_stream)
        return len(self._running_job_ids) + never_arrived

    # ------------------------------------------------------------------ event handlers

    def _process_event(self, event) -> None:
        """Apply one event's state changes (no scheduling decisions here)."""
        self.events_processed += 1
        if event.kind is EventKind.JOB_ARRIVAL:
            self._handle_arrival(event.payload["job_id"])
        elif event.kind is EventKind.COPY_FINISH:
            self._handle_copy_finish(
                event.payload["job_id"],
                event.payload["task_id"],
                event.payload["copy_id"],
            )
        elif event.kind is EventKind.JOB_DEADLINE:
            self._handle_deadline(event.payload["job_id"])

    def _push_next_arrival(self) -> None:
        """Schedule the lookahead spec's arrival and advance the lookahead.

        Exactly one not-yet-arrived spec has an event in the queue at any
        time.  Because specs are consumed in ``(arrival_time, job_id)`` order
        — sorted up front for sequences, enforced here for lazy iterables —
        the pop order of the queue is byte-identical to the old
        push-everything-up-front scheme: arrival/arrival ties are injected in
        key order, and arrival ties against other kinds are resolved by the
        kind priority, never by push order.
        """
        spec = self._next_spec
        if spec is None:
            return
        key = (spec.arrival_time, spec.job_id)
        if self._last_arrival_key is not None and key <= self._last_arrival_key:
            raise ValueError(
                "lazy job specs must be sorted by (arrival_time, job_id) with "
                f"unique ids (job {spec.job_id} at t={spec.arrival_time} after "
                f"key {self._last_arrival_key})"
            )
        if self._seen_job_ids is not None:
            if spec.job_id in self._seen_job_ids:
                raise ValueError("job ids must be unique within a workload")
            self._seen_job_ids.add(spec.job_id)
        self._last_arrival_key = key
        self._spec_by_id[spec.job_id] = spec
        self._events.push(spec.arrival_time, EventKind.JOB_ARRIVAL, job_id=spec.job_id)
        self._next_spec = next(self._spec_stream, None)

    def _handle_arrival(self, job_id: int) -> None:
        spec = self._spec_by_id[job_id]
        job = Job(spec)
        job.start(self._now)
        self._jobs[job_id] = job
        if len(self._jobs) > self.peak_resident_jobs:
            self.peak_resident_jobs = len(self._jobs)
        self._estimators[job_id] = TaskEstimator(
            self.config.estimator, self._rng.spawn(f"estimator/{job_id}")
        )
        self._running_job_ids[job_id] = None
        self._limits[job_id] = 0
        self._alloc_touched[job_id] = None
        self._recompute_allocations()
        self._set_input_deadline(job)
        if spec.bound.is_deadline:
            assert spec.bound.deadline is not None
            effective = job.input_deadline
            if effective is None:
                effective = spec.bound.deadline
            self._deadline_events[job_id] = self._events.push(
                self._now + effective, EventKind.JOB_DEADLINE, job_id=job_id
            )
        self.policy.on_job_start(job, self._now)
        # This arrival is done; stage the next one (same or later instant, so
        # the same-instant drain in ``run`` still sees it before dispatching).
        self._push_next_arrival()

    def _handle_copy_finish(self, job_id: int, task_id: int, copy_id: int) -> None:
        job = self._jobs[job_id]
        # Killed copies and finished jobs cancel their outstanding events, so
        # a fired COPY_FINISH always refers to a live copy of a running job.
        assert job.is_running, "COPY_FINISH fired for a finished job"
        task = job.tasks[task_id]
        copy = task.copy_by_id(copy_id)
        assert copy is not None and copy.is_running(), (
            "COPY_FINISH fired for a killed copy (its event should have been "
            "cancelled)"
        )
        self._copy_finish_events.pop(copy_id, None)
        estimator = self._estimators[job_id]
        killed = task.complete(self._now, copy)
        index = self._sched_index.get(job_id)
        if index is not None:
            index.on_task_finished(task)
        self._release_copy(job, copy)
        for victim in killed:
            self._cancel_copy_event(victim.copy_id)
            self._release_copy(job, victim)
            self.metrics.record_wasted_work(victim.end_time - victim.start_time)
        self._alloc_touched[job_id] = None
        actual_duration = copy.end_time - copy.start_time
        estimator.observe_completion(task, actual_duration)
        if job.all_required_work_done():
            self._finish_job(job)

    def _handle_deadline(self, job_id: int) -> None:
        self._deadline_events.pop(job_id, None)
        job = self._jobs.get(job_id)
        if job is None or not job.is_running:
            return
        self._finish_job(job)

    def _cancel_copy_event(self, copy_id: int) -> None:
        """Drop the pending COPY_FINISH event of a killed copy, if any."""
        event = self._copy_finish_events.pop(copy_id, None)
        if event is not None:
            self._events.cancel(event)

    # ------------------------------------------------------------------ job management

    def _set_input_deadline(self, job: Job) -> None:
        """Apportion a deadline-bound job's deadline to its input phase (§5.2).

        The time the intermediate phases will need is estimated from their
        task counts, the job's allocation and the median intermediate task
        work, and subtracted from the overall deadline.  The remainder is the
        input-phase deadline the policies see.  Only the input phase is then
        simulated for deadline-bound jobs; the accuracy metric depends only
        on input tasks (§5.2).
        """
        if not job.bound.is_deadline:
            return
        assert job.bound.deadline is not None
        intermediate_estimate = 0.0
        allocation = max(1, job.allocation)
        for phase in job.spec.intermediate_phases:
            # ``median_work`` is cached on the spec: re-sorting the phase's
            # works on every deadline-bound arrival was pure waste.
            waves = math.ceil(phase.task_count / allocation)
            intermediate_estimate += waves * phase.median_work
        job.input_deadline = max(
            1e-3, job.bound.deadline - intermediate_estimate
        )

    def _finish_job(self, job: Job) -> None:
        deadline_event = self._deadline_events.pop(job.job_id, None)
        if deadline_event is not None:
            self._events.cancel(deadline_event)
        killed = job.abandon_incomplete_tasks(self._now)
        for victim in killed:
            self._cancel_copy_event(victim.copy_id)
            self._release_copy(job, victim)
            self.metrics.record_wasted_work(victim.end_time - victim.start_time)
        job.finish(self._now)
        self._running_job_ids.pop(job.job_id, None)
        self._limit_sum -= self._limits.pop(job.job_id)
        self._alloc_dirty = True
        # Evict the finished job's state the moment its result is recorded:
        # without this, resident jobs/estimators/specs grow with trace length
        # even though only the results are ever read again.  Every pending
        # event handle was cancelled above, so nothing can reach the job.
        estimator = self._estimators.pop(job.job_id)
        self._sched_index.pop(job.job_id, None)
        self._jobs.pop(job.job_id, None)
        self._spec_by_id.pop(job.job_id, None)
        result = job.to_result(
            policy_label=self.policy.label(),
            estimator_accuracy=estimator.combined_accuracy,
        )
        self.metrics.add_result(result)
        self.policy.on_job_finish(job, result, self._now)

    def _recompute_allocations(self) -> None:
        """Bring every running job's fair-share allocation up to date.

        Max-min fair share hands every job its full limit whenever the
        limits sum to at most the shared capacity, so an uncongested pass
        only writes the touched jobs' limits (every job's on the step out of
        congestion).  A congested pass runs ``fair_share_limits`` over all
        limits, in ``_running_job_ids`` order, exactly as a full recompute.
        A job whose allocation changes has its cached None decision dropped:
        stateless policies may read ``wave_width``.
        """
        if not self._alloc_dirty and not self._alloc_touched:
            return
        self._alloc_dirty = False
        jobs = self._jobs
        limits = self._limits
        limit_sum = self._limit_sum
        touched = self._alloc_touched
        for job_id in touched:
            if job_id not in limits:
                continue  # finished since it was touched
            job = jobs[job_id]
            # ``schedulable_counts`` inlined: pending tasks plus one extra
            # speculative copy per running task is the job's demand.
            phase = job.current_phase()
            if phase >= job.dag_length:
                demand = 1
            else:
                pending = job._pending_by_phase[phase]
                running = len(job._unfinished_by_phase[phase]) - pending
                demand = pending + 2 * running
                if demand < 1:
                    demand = 1
            cap = job.spec.max_slots
            limit = demand if cap is None else min(cap, demand)
            limit_sum += limit - limits[job_id]
            limits[job_id] = limit
        self._limit_sum = limit_sum
        capacity = self._total_slots - self._reserved_slots
        if limit_sum > capacity:
            self._congested = True
            allocations = self.cluster.fair_share_limits(limits, capacity=capacity)
            job_ids: Iterable[int] = allocations
        else:
            allocations = limits
            job_ids = limits if self._congested else touched
            self._congested = False
        sched_index = self._sched_index
        for job_id in job_ids:
            allocation = allocations.get(job_id)
            if allocation is None:
                continue  # finished since it was touched
            job = jobs[job_id]
            if job.allocation != allocation:
                job.allocation = allocation
                index = sched_index.get(job_id)
                if index is not None:
                    index.choice_void = False
        touched.clear()

    # ------------------------------------------------------------------ dispatch

    def _dispatch(self) -> None:
        """Give every running job a chance to fill its allocation."""
        # Nothing below mutates the running-job set (jobs finish in event
        # handlers, never mid-dispatch), so the id dict is iterated directly
        # and every job in it is running; slot capacity is likewise
        # loop-invariant.  ``busy + reserved >= total`` subsumes the old
        # ``has_free_slot`` check since reserved slots cannot be negative.
        cluster = self.cluster
        jobs = self._jobs
        choose_task = self.policy.choose_task
        total = self._total_slots
        reserved = self._reserved_slots
        stateless = self._stateless_choice
        sched_index = self._sched_index
        estimators = self._estimators
        now = self._now
        progress = True
        while progress:
            progress = False
            for job_id in self._running_job_ids:
                job = jobs[job_id]
                if job._running_copy_total >= job.allocation:
                    continue
                if cluster._busy_count + reserved >= total:
                    return
                if stateless:
                    # A stateless policy that said None for this exact index
                    # state will say None again: skip the re-ask, but emit
                    # the accuracy-tracker fold the replayed walk owes.
                    index = sched_index.get(job_id)
                    if (
                        index is not None
                        and index.choice_void
                        and not index.dirty
                        and index.now == now
                    ):
                        estimator = estimators[job_id]
                        if (
                            index.epoch == estimator.completed_samples
                            and index.gen == estimator.noise_generation
                        ):
                            index._replay()
                            continue
                view = self._build_view(job)
                if view is None:
                    continue
                decision = choose_task(view)
                if decision is None:
                    if stateless:
                        index = sched_index.get(job_id)
                        if index is not None:
                            index.choice_void = True
                    continue
                self._launch_copy(job, decision.task, speculative=decision.speculative)
                progress = True
        self.metrics.record_utilization(self._effective_utilization())

    def _effective_utilization(self) -> float:
        total = self.cluster.total_slots
        if total == 0:
            return 0.0
        return min(1.0, (self.cluster.busy_slots + self._reserved_slots) / total)

    def _build_view(self, job: Job) -> Optional[SchedulingView]:
        job_id = job.spec.job_id
        estimator = self._estimators[job_id]
        index = self._sched_index.get(job_id)
        if index is None:
            index = self._new_index(job, estimator)
            self._sched_index[job_id] = index
        # ``prepare`` performs (or replays) the per-task estimation walk the
        # eager builder used to do, including its accuracy-tracker feedback,
        # so the view fields below read post-walk estimator state exactly as
        # before.
        if not index.prepare(self._now):
            return None
        phase_index = index.phase
        is_input = phase_index == 0
        if is_input:
            remaining_deadline = job.remaining_deadline(self._now)
            remaining_required = job.remaining_required_tasks()
        else:
            remaining_deadline = None
            # Schedulable tasks are unfinished by construction, so the old
            # ``sum(1 for task if not task.is_finished)`` is just the count.
            remaining_required = len(index.snaps)
        # ``_effective_utilization`` and ``combined_accuracy``, inlined (same
        # float expressions, minus the property/descriptor hops).
        utilization = (self.cluster._busy_count + self._reserved_slots) / self._total_slots
        if utilization > 1.0:
            utilization = 1.0
        trem_mean = estimator.trem_tracker._accuracy
        tnew_mean = estimator.tnew_tracker._accuracy
        accuracy = 0.5 * (
            (trem_mean.value if trem_mean.count else 1.0)
            + (tnew_mean.value if tnew_mean.count else 1.0)
        )
        allocation = job.allocation
        view = index.view
        if view is None:
            view = index.view = SchedulingView(
                now=self._now,
                job=job,
                tasks=None,
                bound=job.bound,
                remaining_deadline=remaining_deadline,
                remaining_required_tasks=remaining_required,
                wave_width=allocation if allocation > 1 else 1,
                cluster_utilization=utilization,
                estimator_accuracy=accuracy,
                phase_index=phase_index,
                is_input_phase=is_input,
                sched=index,
            )
        else:
            # One view per index, mutated per round: no policy retains views
            # across ``choose_task`` calls, and the lazy snapshot-list cache
            # is reset so ``view.tasks`` re-materialises from the live index.
            view.now = self._now
            view._tasks = None
            view.remaining_deadline = remaining_deadline
            view.remaining_required_tasks = remaining_required
            view.wave_width = allocation if allocation > 1 else 1
            view.cluster_utilization = utilization
            view.estimator_accuracy = accuracy
            view.phase_index = phase_index
            view.is_input_phase = is_input
        return view

    # ------------------------------------------------------------------ copy management

    def _launch_copy(self, job: Job, task: Task, speculative: bool) -> None:
        machine = self.cluster.pick_machine()
        if machine is None:
            return
        spec = task.spec
        job_id = spec.job_id
        task_id = spec.task_id
        copy_index = len(task.copies)
        duration = self.stragglers.copy_duration(
            spec.work, machine.speed_factor, job_id, task_id, copy_index
        )
        copy_id = self._copy_counter
        self._copy_counter = copy_id + 1
        copy = TaskCopy(
            copy_id=copy_id,
            task_id=task_id,
            machine_id=machine.machine_id,
            start_time=self._now,
            duration=duration,
        )
        task.add_copy(copy)
        index = self._sched_index.get(job_id)
        if index is not None:
            index.on_copy_launched(task)
        self.cluster.occupy(machine.machine_id, job_id, task_id, copy_id)
        if speculative:
            job.speculative_copies_launched += 1
        self.metrics.record_copy_launch(speculative)
        self._alloc_touched[job_id] = None
        self._copy_finish_events[copy_id] = self._events.push(
            self._now + duration,
            EventKind.COPY_FINISH,
            job_id=job_id,
            task_id=task_id,
            copy_id=copy_id,
        )

    def _release_copy(self, job: Job, copy: TaskCopy) -> None:
        self.cluster.release(copy.machine_id, job.job_id, copy.task_id, copy.copy_id)


def run_simulation(
    job_specs: Union[Sequence[JobSpec], Iterable[JobSpec]],
    policy: SpeculationPolicy,
    config: Optional[SimulationConfig] = None,
    sink: Optional[ResultSink] = None,
) -> MetricsCollector:
    """Convenience wrapper: run a workload under a policy and return metrics."""
    return Simulation(config or SimulationConfig(), policy, job_specs, sink=sink).run()
