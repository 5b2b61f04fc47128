"""Policy interface shared by GS, RAS, GRASS and the baseline schedulers.

The simulator asks the job's policy for a decision each time the job has a
free slot.  The policy only sees a :class:`SchedulingView`: estimated
``trem`` / ``tnew`` per unfinished task of the current phase, the remaining
approximation bound, the job's wave width, cluster utilisation and the
realised estimator accuracy.  It never sees true durations — only the oracle
baseline is given those, through :class:`OracleSchedulingIndex`.
"""

from __future__ import annotations

import abc
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.bounds import ApproximationBound
from repro.core.estimators import TaskEstimator
from repro.core.job import Job, JobResult
from repro.core.task import Task


class TaskSnapshot:
    """A policy-facing view of one unfinished task.

    ``saving`` is RAS's resource-savings criterion from Pseudocode 1:
    ``c * trem - (c + 1) * tnew`` where ``c`` is the number of running
    copies.  For a pending task (``c == 0``) speculation is meaningless and
    ``saving`` is defined as 0 so pending tasks act as the neutral default.

    A ``__slots__`` class rather than a dataclass: the engine's scheduling
    index (:class:`SchedulingIndex`) keeps one snapshot per unfinished task
    alive across scheduling rounds and mutates it in place, so construction
    and attribute access sit on the simulator's hottest path.  The two
    private fields are index bookkeeping: ``_actual`` is the true remaining
    time recorded alongside ``trem`` and ``_acc`` is the accuracy sample the
    estimator folded into its tracker for that record — a replayed
    scheduling round re-folds the cached sample instead of recomputing the
    estimate.
    """

    __slots__ = ("task", "running", "copies", "trem", "tnew", "_actual", "_acc")

    def __init__(
        self, task: Task, running: bool, copies: int, trem: float, tnew: float
    ) -> None:
        if tnew <= 0:
            raise ValueError("tnew must be positive")
        if running and trem <= 0:
            trem = 1e-6
        self.task = task
        self.running = running
        self.copies = copies
        self.trem = trem
        self.tnew = tnew
        self._actual = 0.0
        self._acc = 0.0

    def __repr__(self) -> str:
        return (
            f"TaskSnapshot(task_id={self.task.task_id}, running={self.running}, "
            f"copies={self.copies}, trem={self.trem}, tnew={self.tnew})"
        )

    @property
    def task_id(self) -> int:
        return self.task.task_id

    @property
    def saving(self) -> float:
        """Resource savings of launching one more copy (0 for pending tasks)."""
        if not self.running:
            return 0.0
        return self.copies * self.trem - (self.copies + 1) * self.tnew

    @property
    def effective_duration(self) -> float:
        """min(trem, tnew): the soonest this task could plausibly finish."""
        if not self.running:
            return self.tnew
        return min(self.trem, self.tnew)

    @property
    def speculation_beneficial(self) -> bool:
        """GS's speculation test: a new copy is expected to beat the running one."""
        return self.running and self.tnew < self.trem


class SchedulingIndex:
    """Incrementally maintained scheduling state for one job.

    The engine keeps one index per running job and calls :meth:`prepare`
    before every ``choose_task`` round.  The index holds a live
    :class:`TaskSnapshot` per unfinished task of the current phase plus two
    flat selection structures — the pending tasks sorted by
    ``(tnew, task_id)`` and the running task ids sorted ascending — which is
    what lets GS/RAS pick a task in O(running + log pending) instead of
    rescanning and re-sorting every snapshot per launched copy.

    Exactness contract: the unbatched engine rebuilt every snapshot on every
    scheduling round, and each rebuild had side effects — noise draws keyed
    by ``(task_id, copies, progress bucket)`` and one
    ``record_trem_outcome`` per running task.  Draws and records only ever
    happen at *running* tasks (pending estimates are pure arithmetic on the
    epoch factor), and the unbatched walk visited tasks in ascending id
    order, so any walk that touches the running tasks in ascending id order
    with the same per-task inputs reproduces the side-effect stream
    byte-for-byte.  ``prepare`` distinguishes four cases:

    * *rebuild* — the phase changed (or this is the first round): walk
      ``schedulable_tasks`` in id order exactly like the unbatched code
      (the epoch's shared ``tnew`` factor is fetched first, which performs
      the same draw the first per-task ``tnew`` call used to).
    * *re-estimate* — the estimator's sample epoch or noise generation
      changed: re-estimate the running tasks in id order, then recompute the
      pending ``tnew`` values from the new epoch factor.  The pending set
      itself is maintained incrementally by the launch/finish hooks, so no
      full task walk is needed; the new keys are produced in old sorted
      order — a monotone-ish transform of an already sorted list — which
      keeps the resort nearly free.
    * *retime* — only the clock moved: pending snapshots are bit-identical
      (``tnew`` is epoch-keyed), so only running tasks are re-estimated, in
      id order.
    * *replay* — same instant, same epoch: a cache hit.  Unchanged running
      tasks re-fold their cached accuracy sample — the exact value the
      tracker's ``record`` computed from the cached ``(trem, actual)`` pair
      — and only tasks that launched a copy since the last walk (the
      ``dirty`` set) are re-estimated for real.
    * a noise-cache eviction (``estimator.noise_generation``) at any point
      poisons the cache: values drawn before the eviction can no longer be
      reproduced, so the next ``prepare`` falls back to a re-estimate, and
      a mid-replay eviction forces the rest of that walk to re-estimate.

    Oracle-estimate runs use :class:`OracleSchedulingIndex` instead, which
    keeps the same selection structures over *true* durations and never
    touches the estimator.
    """

    __slots__ = (
        "job",
        "estimator",
        "phase",
        "now",
        "epoch",
        "gen",
        "dirty",
        "snaps",
        "pending_sorted",
        "running_ids",
        "view",
        "p_rate",
        "p_noise",
        "p_stale",
        "choice_void",
    )

    def __init__(self, job: Job, estimator: TaskEstimator) -> None:
        self.job = job
        self.estimator = estimator
        self.phase = -1
        self.now = -1.0
        self.epoch = -1
        self.gen = -1
        self.dirty: set = set()
        self.snaps: Dict[int, TaskSnapshot] = {}
        # The one SchedulingView handed to policies for this job, mutated in
        # place per scheduling round (no policy retains a view across calls).
        self.view: Optional["SchedulingView"] = None
        # Pending entries are ``(tnew, task_id, work)``: the trailing work
        # lets the per-epoch re-estimate recompute every entry without a
        # snapshot lookup, and it never participates in comparisons because
        # ``(tnew, task_id)`` is already unique.
        self.pending_sorted: List[Tuple[float, int, float]] = []
        self.running_ids: List[int] = []
        # The epoch factor behind the current pending keys (``tnew = clamp(
        # (p_rate * work) * p_noise)``).  ``p_stale`` marks pending *snapshots*
        # whose ``tnew``/``trem`` fields lag the sorted list: the per-epoch
        # re-estimate refreshes only the list (what the fast selection paths
        # read) and defers the snapshot writes to :meth:`materialize`, the one
        # consumer that reads pending snapshot fields.
        self.p_rate = 0.0
        self.p_noise = 1.0
        self.p_stale = False
        # True while the last ``choose_task`` on this exact index state
        # returned None.  A *stateless* policy (see
        # ``SpeculationPolicy.stateless_choose``) is a pure function of that
        # state, so the engine can skip the repeat ask — performing only the
        # replay fold the walk is contractually required to emit — until the
        # state mutates again or the engine changes the job's allocation.
        self.choice_void = False

    def prepare(self, now: float) -> bool:
        """Bring the index up to date for a scheduling round at ``now``.

        Returns False when the job has no schedulable tasks.
        """
        job = self.job
        phase = job.current_phase()
        if phase >= job.dag_length:
            return False
        estimator = self.estimator
        if phase != self.phase:
            self._rebuild(now, phase)
        elif (
            estimator.completed_samples != self.epoch
            or estimator.noise_generation != self.gen
        ):
            self._reestimate(now)
        elif now != self.now:
            self._retime(now)
        else:
            self._replay()
        return True

    def _rebuild(self, now: float, phase: int) -> None:
        estimator = self.estimator
        tasks = self.job.schedulable_tasks(now)
        # The epoch factor is fetched before the walk: its noise draw sits
        # exactly where the unbatched walk's first ``tnew`` query drew.
        samples, _, rate, noise = estimator.tnew_epoch_factor()
        # Generation is captured after the factor fetch: any eviction during
        # the walk below leaves it behind the live counter, so the next
        # ``prepare`` re-estimates instead of replaying half-poisoned values.
        gen = estimator.noise_generation
        snapshot_running = estimator.snapshot_running
        snaps: Dict[int, TaskSnapshot] = {}
        pending: List[Tuple[float, int]] = []
        running_ids: List[int] = []
        for task in tasks:
            task_id = task.task_id
            if task.is_running:
                tnew, trem, actual, acc = snapshot_running(task, now)
                snap = TaskSnapshot(task, True, task.running_copy_count, trem, tnew)
                snap._actual = actual
                snap._acc = acc
                running_ids.append(task_id)
            else:
                work = task.spec.work
                tnew = max(1e-6, (rate * work) * noise)
                snap = TaskSnapshot(task, False, 0, tnew, tnew)
                pending.append((tnew, task_id, work))
            snaps[task_id] = snap
        pending.sort()
        self.phase = phase
        self.now = now
        self.epoch = samples
        self.gen = gen
        self.snaps = snaps
        self.pending_sorted = pending
        self.running_ids = running_ids
        self.p_rate = rate
        self.p_noise = noise
        self.p_stale = False
        self.choice_void = False
        self.dirty.clear()

    def _reestimate(self, now: float) -> None:
        # The sample epoch (or noise generation) moved: every estimate is
        # stale, but the *membership* of the pending/running structures is
        # maintained by the launch/finish hooks and stays valid.  The
        # unbatched walk interleaved pending and running tasks in id order;
        # since pending estimates make no draws and no records, re-running
        # the running tasks in id order first and the pending arithmetic
        # second emits the identical side-effect stream.
        snaps = self.snaps
        samples, gen, rate, noise = self.estimator.update_running_snaps(
            snaps, self.running_ids, now
        )
        # New pending keys are produced in old key order: the transform
        # ``work -> (rate * work) * noise`` is monotone, so the list comes
        # out nearly sorted and timsort's run detection makes the sort
        # ~linear (float rounding can still create fresh ties whose id
        # tie-break lands out of order, hence the sort stays).  Pending
        # *snapshots* are left stale on purpose: the fast selection paths
        # read only the sorted list, and ``materialize`` refreshes the
        # snapshot fields on demand for the policies that do read them.
        pending = [
            ((tnew if (tnew := (rate * work) * noise) >= 1e-6 else 1e-6), task_id, work)
            for _, task_id, work in self.pending_sorted
        ]
        pending.sort()
        self.now = now
        self.epoch = samples
        self.gen = gen
        self.pending_sorted = pending
        self.p_rate = rate
        self.p_noise = noise
        self.p_stale = True
        self.choice_void = False
        self.dirty.clear()

    def _retime(self, now: float) -> None:
        # Pending snapshots are untouched: within one sample epoch their
        # ``tnew`` (and hence ``trem``) cannot change, so re-estimating them
        # would produce bit-identical values with no draws or records.  The
        # batch walk's epoch-factor fetch is a pure cache hit here.
        self.estimator.update_running_snaps(self.snaps, self.running_ids, now)
        self.now = now
        self.choice_void = False
        self.dirty.clear()

    def _replay(self) -> None:
        estimator = self.estimator
        snaps = self.snaps
        dirty = self.dirty
        tracker_mean = estimator.trem_tracker._accuracy
        if not dirty:
            # Pure cache hit — the common case.  Fold each running task's
            # cached accuracy sample straight into the tracker's running
            # mean: identical floats fold identically, and the tracker's
            # ``record`` would compute exactly this sample from the cached
            # ``(trem, actual)`` pair.
            count = tracker_mean.count
            value = tracker_mean.value
            for task_id in self.running_ids:
                count += 1
                value += (snaps[task_id]._acc - value) / count
            tracker_mean.count = count
            tracker_mean.value = value
            return
        gen = self.gen
        now = self.now
        snapshot_running = estimator.snapshot_running
        forced = False
        for task_id in self.running_ids:
            snap = snaps[task_id]
            if forced or task_id in dirty:
                # The task launched a copy since the last walk (or a noise
                # eviction earlier in this walk poisoned the cache):
                # re-estimate for real, with the same draws the unbatched
                # walk would perform here.
                task = snap.task
                tnew, trem, actual, acc = snapshot_running(task, now)
                snap.running = True
                snap.copies = task.running_copy_count
                snap.trem = trem
                snap.tnew = tnew
                snap._actual = actual
                snap._acc = acc
                if estimator.noise_generation != gen:
                    forced = True
            else:
                acc = snap._acc
                count = tracker_mean.count + 1
                tracker_mean.count = count
                tracker_mean.value += (acc - tracker_mean.value) / count
        dirty.clear()

    def on_copy_launched(self, task: Task) -> None:
        """Maintain the selection structures after a copy launch."""
        task_id = task.task_id
        snap = self.snaps.get(task_id)
        if snap is None:
            return
        self.dirty.add(task_id)
        self.choice_void = False
        if not snap.running:
            # The list key is recomputed from the stored epoch factor (the
            # snapshot's ``tnew`` may be stale while ``p_stale`` is set).
            tnew = (self.p_rate * task.spec.work) * self.p_noise
            if tnew < 1e-6:
                tnew = 1e-6
            index = bisect_left(self.pending_sorted, (tnew, task_id))
            del self.pending_sorted[index]
            insort(self.running_ids, task_id)

    def on_task_finished(self, task: Task) -> None:
        """Drop a completed task from the selection structures.

        Tolerates unknown ids: a straggler copy of an earlier phase can
        finish while the index already tracks the next phase.
        """
        task_id = task.task_id
        snap = self.snaps.pop(task_id, None)
        if snap is None:
            return
        self.choice_void = False
        if snap.running or task_id in self.dirty:
            ids = self.running_ids
            index = bisect_left(ids, task_id)
            if index < len(ids) and ids[index] == task_id:
                del ids[index]
            self.dirty.discard(task_id)
        else:
            pending = self.pending_sorted
            tnew = (self.p_rate * task.spec.work) * self.p_noise
            if tnew < 1e-6:
                tnew = 1e-6
            index = bisect_left(pending, (tnew, task_id))
            if index < len(pending):
                entry = pending[index]
                if entry[0] == tnew and entry[1] == task_id:
                    del pending[index]

    def materialize(self) -> List[TaskSnapshot]:
        """The snapshot list in walk (task id) order, for generic policies."""
        snaps = self.snaps
        if self.p_stale:
            # Flush the deferred per-epoch pending values into the snapshots
            # (the sorted list is authoritative; see ``_reestimate``).
            for tnew, task_id, _ in self.pending_sorted:
                snap = snaps[task_id]
                snap.tnew = tnew
                snap.trem = tnew
            self.p_stale = False
        return [snaps[task.task_id] for task in self.job.schedulable_tasks(self.now)]


class OracleSchedulingIndex(SchedulingIndex):
    """:class:`SchedulingIndex` over true durations, for oracle-estimate runs.

    The oracle sees ``tnew`` as the exact duration the task's *next* copy
    would have on a median-speed machine and ``trem`` as the true remaining
    time of its best running copy.  Contract:

    * **No estimator side effects.** The index holds no estimator: no noise
      draws, no ``trem``/``tnew`` tracker records, no replay folds.  Its
      ``epoch`` stays -1, so the engine's stateless-choice shortcut (which
      must replay estimator folds) never applies and a ``None`` decision is
      simply asked again.
    * **One multiplier call per task copy index.** ``copy_duration`` reseeds
      the straggler model's scratch generator before every draw, so a
      copy's duration is a pure function of its copy index.  ``tnew`` is
      therefore computed once per (task, copy index) — for every task at a
      phase rebuild and for a task's next copy when one launches — stored
      on the snapshot, and used verbatim as the ``pending_sorted`` key, so
      the launch/finish hooks bisect with the stored value.
    * **Exact ``trem``.** Running tasks' ``trem`` is ``task.true_remaining(
      now)`` with :class:`TaskSnapshot`'s ``<= 0 -> 1e-6`` clamp, recomputed
      for every running task when the clock moves and for a task when it
      launches a copy (launches follow ``prepare`` at the same instant).
    """

    __slots__ = ("copy_duration", "speed")

    def __init__(
        self,
        job: Job,
        copy_duration: Callable[[float, float, int, int, int], float],
        speed: float,
    ) -> None:
        super().__init__(job, None)
        # ``StragglerModel.copy_duration`` and the machine speed the oracle
        # assumes (it cannot know where the copy lands: the cluster median).
        self.copy_duration = copy_duration
        self.speed = speed

    def _exact_tnew(self, task: Task) -> float:
        spec = task.spec
        return self.copy_duration(
            spec.work, self.speed, spec.job_id, spec.task_id, len(task.copies)
        )

    def prepare(self, now: float) -> bool:
        job = self.job
        phase = job.current_phase()
        if phase >= job.dag_length:
            return False
        if phase != self.phase:
            self._rebuild(now, phase)
        elif now != self.now:
            snaps = self.snaps
            for task_id in self.running_ids:
                snap = snaps[task_id]
                trem = snap.task.true_remaining(now)
                snap.trem = trem if trem > 0 else 1e-6
            self.now = now
        return True

    def _rebuild(self, now: float, phase: int) -> None:
        snaps: Dict[int, TaskSnapshot] = {}
        pending: List[Tuple[float, int, float]] = []
        running_ids: List[int] = []
        for task in self.job.schedulable_tasks(now):
            task_id = task.task_id
            tnew = self._exact_tnew(task)
            if task.is_running:
                snap = TaskSnapshot(
                    task, True, task.running_copy_count, task.true_remaining(now), tnew
                )
                running_ids.append(task_id)
            else:
                snap = TaskSnapshot(task, False, 0, tnew, tnew)
                pending.append((tnew, task_id, task.spec.work))
            snaps[task_id] = snap
        pending.sort()
        self.phase = phase
        self.now = now
        self.snaps = snaps
        self.pending_sorted = pending
        self.running_ids = running_ids

    def on_copy_launched(self, task: Task) -> None:
        task_id = task.task_id
        snap = self.snaps.get(task_id)
        if snap is None:
            return
        if not snap.running:
            pending = self.pending_sorted
            del pending[bisect_left(pending, (snap.tnew, task_id))]
            insort(self.running_ids, task_id)
            snap.running = True
        snap.copies = task.running_copy_count
        snap.tnew = self._exact_tnew(task)
        trem = task.true_remaining(self.now)
        snap.trem = trem if trem > 0 else 1e-6

    def on_task_finished(self, task: Task) -> None:
        # Only running tasks finish, and every running task of the indexed
        # phase is in ``running_ids``; unknown ids are earlier-phase copies.
        task_id = task.task_id
        if self.snaps.pop(task_id, None) is None:
            return
        ids = self.running_ids
        del ids[bisect_left(ids, task_id)]


class SchedulingView:
    """Everything a policy may look at when choosing the next task to launch.

    ``tasks`` is materialised lazily when the view was built from a
    :class:`SchedulingIndex` (``sched``): GS/RAS/GRASS pick straight from
    the index's flat structures and never touch the snapshot list, while
    baseline policies and the switch deciders still see the exact list an
    eager walk would produce.  The engine always sets ``sched`` (an
    :class:`OracleSchedulingIndex` for oracle runs); a view built from an
    explicit ``tasks`` list without one sends GS/RAS to their generic
    list-based choosers, the reference their fast paths are tested against.
    """

    __slots__ = (
        "now",
        "job",
        "_tasks",
        "bound",
        "remaining_deadline",
        "remaining_required_tasks",
        "wave_width",
        "cluster_utilization",
        "estimator_accuracy",
        "phase_index",
        "is_input_phase",
        "sched",
    )

    def __init__(
        self,
        now: float,
        job: Job,
        tasks: Optional[List[TaskSnapshot]],
        bound: ApproximationBound,
        remaining_deadline: Optional[float],
        remaining_required_tasks: int,
        wave_width: int,
        cluster_utilization: float,
        estimator_accuracy: float,
        phase_index: int = 0,
        is_input_phase: bool = True,
        sched: Optional[SchedulingIndex] = None,
    ) -> None:
        self.now = now
        self.job = job
        self._tasks = tasks
        self.bound = bound
        self.remaining_deadline = remaining_deadline
        self.remaining_required_tasks = remaining_required_tasks
        self.wave_width = wave_width
        self.cluster_utilization = cluster_utilization
        self.estimator_accuracy = estimator_accuracy
        self.phase_index = phase_index
        self.is_input_phase = is_input_phase
        self.sched = sched

    @property
    def tasks(self) -> List[TaskSnapshot]:
        tasks = self._tasks
        if tasks is None:
            tasks = self._tasks = self.sched.materialize()
        return tasks

    def pending(self) -> List[TaskSnapshot]:
        return [snap for snap in self.tasks if not snap.running]

    def running(self) -> List[TaskSnapshot]:
        return [snap for snap in self.tasks if snap.running]

    def elapsed(self) -> float:
        return self.job.elapsed(self.now)


@dataclass
class SchedulingDecision:
    """The policy's answer: launch a copy of ``snapshot.task``.

    ``speculative`` is True when the task already has a running copy, i.e.
    the launch is a speculative duplicate rather than an original.
    """

    snapshot: TaskSnapshot

    @property
    def task(self) -> Task:
        return self.snapshot.task

    @property
    def speculative(self) -> bool:
        return self.snapshot.running


class SpeculationPolicy(abc.ABC):
    """Base class for all speculation policies.

    A policy instance is shared across the jobs of one simulation so it can
    carry state between jobs (GRASS's sample store does exactly that); the
    per-job hooks tell it when jobs start and finish.

    Policies that *learn* across jobs set ``learns_across_jobs`` and implement
    the :meth:`state_snapshot` / :meth:`restore_state` pair, which is what
    lets the experiment harness warm a policy once and ship the warmed state
    to worker processes instead of re-simulating the warm-up workload inside
    every run (see ``repro.experiments.warmup``).
    """

    name: str = "policy"

    #: True for policies whose decisions depend on state accumulated from
    #: previously finished jobs.  Stateless policies never need a warm-up
    #: pass: a warm-up simulation shares nothing with the real one except the
    #: policy object, so skipping it cannot change their results.
    learns_across_jobs: bool = False

    #: True when ``choose_task`` is a pure function of the scheduling index
    #: state, the clock and the bound/deadline/required/``wave_width`` view
    #: fields — no policy-side mutation, no dependence on cluster
    #: utilisation or accuracy.  The engine then caches a None decision for
    #: the current index state (``SchedulingIndex.choice_void``) and skips
    #: the repeat ask, emitting only the replay fold the estimation walk is
    #: required to produce; a change of the job's allocation (its
    #: ``wave_width``) drops the cached decision.  GRASS must stay False:
    #: its ``choose_task`` updates per-job switching state from the view's
    #: utilisation on every call.
    stateless_choose: bool = False

    def on_job_start(self, job: Job, now: float) -> None:
        """Called when a job is admitted; default is stateless."""

    def on_job_finish(self, job: Job, result: JobResult, now: float) -> None:
        """Called when a job finishes (bound met or deadline hit)."""

    def state_snapshot(self) -> Optional[object]:
        """Picklable snapshot of the cross-job state, or None if stateless.

        The contract: ``restore_state(state_snapshot())`` on a *fresh*
        instance built with the same configuration must yield a policy that
        makes exactly the decisions this instance would make from now on.
        """
        return None

    def restore_state(self, snapshot: Optional[object]) -> None:
        """Restore a snapshot captured by :meth:`state_snapshot`.

        ``None`` (a stateless policy's snapshot) is accepted as a no-op so
        callers can round-trip any policy uniformly; anything else on a
        stateless policy is a usage error.

        Implementations must treat ``snapshot`` as **shared read-only
        data** and deep-copy anything mutable they adopt from it: the
        experiment harness restores many policy instances from one snapshot
        object when running in-process (``workers=1``), and an aliased store
        would leak one run's learning into the next — diverging from the
        worker-process path, where pickling isolates the copies.
        """
        if snapshot is not None:
            raise ValueError(
                f"policy {self.name!r} is stateless and cannot restore {type(snapshot).__name__}"
            )

    @abc.abstractmethod
    def choose_task(self, view: SchedulingView) -> Optional[SchedulingDecision]:
        """Pick the next task copy to launch, or None to leave the slot idle."""

    def label(self) -> str:
        """Label used in experiment reports."""
        return self.name


def make_decision(snapshot: Optional[TaskSnapshot]) -> Optional[SchedulingDecision]:
    """Helper: wrap a snapshot (or None) into a decision."""
    if snapshot is None:
        return None
    return SchedulingDecision(snapshot=snapshot)


def deadline_candidates(
    view: SchedulingView, resource_aware: bool
) -> List[TaskSnapshot]:
    """Pruning stage of Pseudocode 1 (deadline-bound jobs).

    Tasks whose fresh copy cannot finish within the remaining deadline are
    dropped.  Running tasks are kept only when speculation passes the
    policy's test: ``tnew < trem`` for GS, positive resource savings for RAS.
    Pending tasks are always kept (they do not involve speculation).
    """
    remaining = view.remaining_deadline
    candidates: List[TaskSnapshot] = []
    for snap in view.tasks:
        if remaining is not None and snap.tnew > remaining:
            continue
        if snap.running:
            if resource_aware:
                if snap.saving > 0:
                    candidates.append(snap)
            else:
                if snap.speculation_beneficial:
                    candidates.append(snap)
        else:
            candidates.append(snap)
    return candidates


def deadline_fallback(
    view: SchedulingView, max_copies_per_task: int = 4
) -> Optional[TaskSnapshot]:
    """Last-resort choice when every task is pruned by the deadline filter.

    The pruning stage drops tasks whose *expected* fresh-copy duration
    exceeds the remaining deadline, but durations are stochastic: leaving the
    slot idle guarantees zero completions from it, whereas launching the
    shortest pending task still has a chance of beating the deadline.  Both
    GS and RAS therefore fall back to the pending task with the lowest
    ``tnew`` (and, failing that, to a beneficial duplicate) rather than
    idling — the slot has nothing better to do.
    """
    pending = view.pending()
    if pending:
        return min(pending, key=lambda snap: (snap.tnew, snap.task_id))
    beneficial = [
        snap
        for snap in view.running()
        if snap.speculation_beneficial and snap.copies < max_copies_per_task
    ]
    if beneficial:
        return min(beneficial, key=lambda snap: (snap.tnew, snap.task_id))
    return None


def error_candidates(
    view: SchedulingView, resource_aware: bool
) -> List[TaskSnapshot]:
    """Pruning stage of Pseudocode 2 (error-bound jobs).

    Only the tasks that are the earliest to contribute to the error bound are
    considered: tasks are sorted by effective duration (min of ``trem`` and
    ``tnew``) and the first ``(1 - error) * count`` are kept, counting tasks
    that already completed towards the requirement.
    """
    needed = view.remaining_required_tasks
    if needed <= 0:
        # The input-phase bound is met (or this is an intermediate phase where
        # every remaining task is required): all unfinished tasks qualify.
        needed = len(view.tasks)
    ordered = sorted(view.tasks, key=lambda snap: (snap.effective_duration, snap.task_id))
    earliest = ordered[:needed]
    candidates: List[TaskSnapshot] = []
    for snap in earliest:
        if snap.running:
            if resource_aware:
                if snap.saving > 0:
                    candidates.append(snap)
            else:
                if snap.speculation_beneficial:
                    candidates.append(snap)
        else:
            candidates.append(snap)
    return candidates


def index_error_window(
    sched: SchedulingIndex, needed: int
) -> Tuple[int, List[int]]:
    """The earliest-``needed`` window of :func:`error_candidates`, from the index.

    Returns ``(k_p, included_running_ids)``: how many pending tasks fall in
    the window (always its ``k_p`` cheapest, i.e. a prefix of
    ``pending_sorted``) and which running tasks do.  A running task with
    effective-duration key ``k`` has merged rank ``#pending keys < k`` (one
    bisect) plus ``#running keys < k``; ranks are strictly increasing along
    the sorted running keys, so the scan stops at the first exclusion.  A
    window at least as wide as the phase holds every task (the included ids
    then come in id order; callers pick by unique keys, so order is free).
    """
    pending = sched.pending_sorted
    running_ids = sched.running_ids
    if needed >= len(pending) + len(running_ids):
        return len(pending), running_ids
    snaps = sched.snaps
    keys: List[Tuple[float, int]] = []
    append = keys.append
    for task_id in running_ids:
        snap = snaps[task_id]
        trem = snap.trem
        tnew = snap.tnew
        append((tnew if tnew < trem else trem, task_id))
    keys.sort()
    included: List[int] = []
    # Keys ascend, so each bisect can resume from the previous result.
    lo = 0
    offset = 0
    for key in keys:
        lo = bisect_left(pending, key, lo)
        if lo + offset < needed:
            included.append(key[1])
            offset += 1
        else:
            break
    k_p = needed - offset
    if k_p > len(pending):
        k_p = len(pending)
    return k_p, included


def index_pending_tail(
    sched: SchedulingIndex, k_p: int
) -> Optional[Tuple[float, int, float]]:
    """Longest pending task in the error window, ties broken to lowest id.

    The window's pending part is ``pending_sorted[:k_p]`` (ascending
    ``(tnew, task_id)``), so the maximal ``tnew`` is at index ``k_p - 1``
    and the lowest id among equal-``tnew`` entries is the first entry of
    that run — found by bisecting for the bare ``(tnew,)`` prefix, which
    compares below every ``(tnew, id)`` tuple.
    """
    if k_p <= 0:
        return None
    pending = sched.pending_sorted
    longest = pending[k_p - 1][0]
    return pending[bisect_left(pending, (longest,))]


def index_deadline_fallback(
    sched: SchedulingIndex, max_copies_per_task: int
) -> Optional[TaskSnapshot]:
    """:func:`deadline_fallback`, served from the index structures."""
    pending = sched.pending_sorted
    snaps = sched.snaps
    if pending:
        return snaps[pending[0][1]]
    best: Optional[TaskSnapshot] = None
    best_key: Optional[Tuple[float, int]] = None
    for task_id in sched.running_ids:
        snap = snaps[task_id]
        if snap.copies >= max_copies_per_task or not snap.tnew < snap.trem:
            continue
        key = (snap.tnew, task_id)
        if best_key is None or key < best_key:
            best = snap
            best_key = key
    return best
