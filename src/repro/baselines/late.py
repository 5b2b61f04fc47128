"""LATE: Longest Approximate Time to End (Zaharia et al., OSDI 2008).

LATE is the straggler mitigation deployed in the Facebook cluster the paper
traces come from, and the primary baseline of the evaluation.  Its behaviour,
as modelled here:

* New (pending) tasks always take priority over speculation.
* Once a job has no pending tasks in the current phase, LATE considers
  speculating on running tasks whose *progress rate* is below the
  ``slow_task_percentile`` of the job's running tasks.
* Among those, it duplicates the task with the longest estimated time to end
  (the largest ``trem``), at most one speculative copy per task, and never
  more than ``speculative_cap`` of the job's slots running speculative copies.
* A task must have run for ``min_runtime_before_speculation`` seconds before
  it can be speculated on, so brand-new copies are not immediately flagged.

Crucially — and this is the gap GRASS exploits — LATE is oblivious to the
approximation bound: it neither prunes tasks that cannot meet the deadline
nor prioritises the tasks that contribute earliest to the error bound.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Optional, Tuple

from repro.core.policies.base import (
    SchedulingDecision,
    SchedulingIndex,
    SchedulingView,
    SpeculationPolicy,
    TaskSnapshot,
    make_decision,
)
from repro.utils.stats import percentile

#: The task id of a ``SchedulingIndex.pending_sorted`` entry.
_TASK_ID = itemgetter(1)


class LatePolicy(SpeculationPolicy):
    """The LATE baseline."""

    name = "late"
    # A pure function of the index, the clock and the wave width.
    stateless_choose = True

    def __init__(
        self,
        slow_task_percentile: float = 25.0,
        speculative_cap: float = 0.1,
        min_runtime_before_speculation: float = 1.0,
    ) -> None:
        if not 0.0 < slow_task_percentile < 100.0:
            raise ValueError("slow_task_percentile must be in (0, 100)")
        if not 0.0 < speculative_cap <= 1.0:
            raise ValueError("speculative_cap must be in (0, 1]")
        if min_runtime_before_speculation < 0:
            raise ValueError("min_runtime_before_speculation must be non-negative")
        self.slow_task_percentile = slow_task_percentile
        self.speculative_cap = speculative_cap
        self.min_runtime_before_speculation = min_runtime_before_speculation

    # -- helpers -----------------------------------------------------------------

    def _speculative_budget(self, view: SchedulingView) -> int:
        """Maximum number of simultaneously running speculative copies."""
        return max(1, int(self.speculative_cap * max(1, view.wave_width)))

    @staticmethod
    def _running_speculative_copies(view: SchedulingView) -> int:
        """Copies beyond the first per running task — LATE's current spend."""
        return sum(max(0, snap.copies - 1) for snap in view.running())

    def _slow_candidates(self, view: SchedulingView) -> List[TaskSnapshot]:
        running = [snap for snap in view.running() if snap.copies == 1]
        if not running:
            return []
        rates = []
        eligible = []
        for snap in running:
            copies = snap.task.running_copies
            if not copies:
                continue
            best = min(copies, key=lambda c: c.remaining(view.now))
            if best.elapsed(view.now) < self.min_runtime_before_speculation:
                continue
            rates.append(best.progress_rate(view.now))
            eligible.append((snap, best.progress_rate(view.now)))
        if not eligible:
            return []
        threshold = percentile(rates, self.slow_task_percentile)
        return [snap for snap, rate in eligible if rate <= threshold]

    def _choose(self, view: SchedulingView) -> Optional[TaskSnapshot]:
        pending = view.pending()
        if pending:
            # Bound-oblivious: plain input order, no pruning, no SJF/LJF.
            return min(pending, key=lambda snap: snap.task_id)
        if self._running_speculative_copies(view) >= self._speculative_budget(view):
            return None
        slow = self._slow_candidates(view)
        if not slow:
            return None
        # Longest approximate time to end: largest estimated remaining time.
        return min(slow, key=lambda snap: (-snap.trem, snap.task_id))

    # -- index-backed selection ---------------------------------------------------
    #
    # ``_fast`` makes the list-based choice above without materialising the
    # snapshot list: the index's pending entries carry their task ids and
    # ``running_ids`` lists the running tasks in ascending id order, the
    # order ``view.running()`` yields them.  The list-based path serves
    # index-less views and is the reference ``_fast`` is tested against.

    def _fast(self, view: SchedulingView, sched: SchedulingIndex) -> Optional[TaskSnapshot]:
        snaps = sched.snaps
        pending = sched.pending_sorted
        if pending:
            return snaps[min(pending, key=_TASK_ID)[1]]
        running_ids = sched.running_ids
        spent = 0
        for task_id in running_ids:
            copies = snaps[task_id].copies
            if copies > 1:
                spent += copies - 1
        if spent >= self._speculative_budget(view):
            return None
        # ``_slow_candidates`` with ``TaskCopy.elapsed``/``progress_rate``
        # inlined: a task with one running copy has that copy as its best.
        now = view.now
        min_runtime = self.min_runtime_before_speculation
        eligible: List[Tuple[TaskSnapshot, float]] = []
        for task_id in running_ids:
            snap = snaps[task_id]
            if snap.copies != 1:
                continue
            best = snap.task._running[0]
            elapsed = now - best.start_time
            if elapsed < 0.0:
                elapsed = 0.0
            if elapsed < min_runtime:
                continue
            if elapsed <= 0:
                rate = float("inf")
            else:
                progress = elapsed / best.duration
                if progress > 1.0:
                    progress = 1.0
                rate = progress / elapsed
            eligible.append((snap, rate))
        if not eligible:
            return None
        threshold = percentile([rate for _, rate in eligible], self.slow_task_percentile)
        chosen: Optional[TaskSnapshot] = None
        for snap, rate in eligible:
            # Ascending ids: a strictly larger ``trem`` wins, ties keep the
            # lower id, as ``min`` over ``(-trem, task_id)`` does.
            if rate <= threshold and (chosen is None or snap.trem > chosen.trem):
                chosen = snap
        return chosen

    # -- policy ------------------------------------------------------------------

    def choose_task(self, view: SchedulingView) -> Optional[SchedulingDecision]:
        sched = view.sched
        if sched is not None:
            return make_decision(self._fast(view, sched))
        return make_decision(self._choose(view))
