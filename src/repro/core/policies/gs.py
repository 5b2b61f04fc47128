"""Greedy Speculative (GS) scheduling — Pseudocode 1 & 2 with ``OC = 0``.

GS greedily picks the task (original or speculative copy) that improves the
approximation goal the earliest *right now*:

* Deadline-bound jobs: Shortest Job First over the pruned candidates — the
  task with the smallest ``tnew`` that still fits within the deadline.
* Error-bound jobs: Longest Job First over the earliest-contributing tasks —
  the task with the largest ``trem``, so that the straggler holding back the
  error bound gets a fresh copy.

Speculative copies are admitted whenever the new copy is expected to beat the
running one (``tnew < trem``); the opportunity cost of burning a slot on the
duplicate is ignored, which is exactly what RAS fixes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.policies.base import (
    SchedulingDecision,
    SchedulingIndex,
    SchedulingView,
    SpeculationPolicy,
    TaskSnapshot,
    deadline_candidates,
    deadline_fallback,
    error_candidates,
    index_deadline_fallback,
    index_error_window,
    index_pending_tail,
    make_decision,
)


class GreedySpeculative(SpeculationPolicy):
    """The GS policy of §3.1."""

    name = "gs"
    stateless_choose = True

    def __init__(self, max_copies_per_task: int = 4) -> None:
        if max_copies_per_task < 1:
            raise ValueError("max_copies_per_task must be at least 1")
        self.max_copies_per_task = max_copies_per_task

    # -- selection ----------------------------------------------------------------

    def _admissible(self, candidates: List[TaskSnapshot]) -> List[TaskSnapshot]:
        """Drop running tasks that already hit the per-task copy cap."""
        return [
            snap
            for snap in candidates
            if not snap.running or snap.copies < self.max_copies_per_task
        ]

    def _choose_deadline(self, view: SchedulingView) -> Optional[TaskSnapshot]:
        candidates = self._admissible(deadline_candidates(view, resource_aware=False))
        if not candidates:
            # Nothing is expected to fit in the remaining time: fill the slot
            # anyway rather than idling (durations are stochastic).
            return deadline_fallback(view, self.max_copies_per_task)
        # Selection stage: lowest tnew first.  Ties favour originals over
        # speculative duplicates (a duplicate can never beat an equally fast
        # original), then break deterministically on task id.
        return min(candidates, key=lambda snap: (snap.tnew, snap.running, snap.task_id))

    def _choose_error(self, view: SchedulingView) -> Optional[TaskSnapshot]:
        candidates = self._admissible(error_candidates(view, resource_aware=False))
        if not candidates:
            return None
        # Selection stage: highest trem first (pending tasks use tnew as trem);
        # ties favour originals over speculative duplicates.
        def sort_key(snap: TaskSnapshot):
            remaining = snap.trem if snap.running else snap.tnew
            return (-remaining, snap.running, snap.task_id)

        return min(candidates, key=sort_key)

    # -- index-backed selection ---------------------------------------------------
    #
    # The fast paths below compute the same minima as the list-based stages
    # above without materialising or sorting snapshots: pending tasks come
    # pre-sorted by ``(tnew, task_id)`` in the index, so the pending minimum
    # (or the error window's pending maximum) is a list head (or a bisect),
    # and only the running tasks — bounded by the job's allocation — are
    # scanned.  Tie-breaking keys are identical to the list-based stages,
    # which serve index-less views and are the fast paths' test reference.

    def _fast_deadline(
        self, view: SchedulingView, sched: SchedulingIndex
    ) -> Optional[TaskSnapshot]:
        remaining = view.remaining_deadline
        cap = self.max_copies_per_task
        snaps = sched.snaps
        pending = sched.pending_sorted
        best: Optional[TaskSnapshot] = None
        best_key = None
        if pending:
            tnew, task_id = pending[0][:2]
            if remaining is None or tnew <= remaining:
                best = snaps[task_id]
                best_key = (tnew, False, task_id)
        for task_id in sched.running_ids:
            snap = snaps[task_id]
            tnew = snap.tnew
            if snap.copies >= cap or not tnew < snap.trem:
                continue
            if remaining is not None and tnew > remaining:
                continue
            key = (tnew, True, task_id)
            if best_key is None or key < best_key:
                best = snap
                best_key = key
        if best is not None:
            return best
        return index_deadline_fallback(sched, cap)

    def _fast_error(
        self, view: SchedulingView, sched: SchedulingIndex
    ) -> Optional[TaskSnapshot]:
        needed = view.remaining_required_tasks
        if needed <= 0:
            needed = len(sched.snaps)
        k_p, included = index_error_window(sched, needed)
        snaps = sched.snaps
        best: Optional[TaskSnapshot] = None
        best_key = None
        tail = index_pending_tail(sched, k_p)
        if tail is not None:
            tnew, task_id = tail[:2]
            best = snaps[task_id]
            best_key = (-tnew, False, task_id)
        cap = self.max_copies_per_task
        for task_id in included:
            snap = snaps[task_id]
            if snap.copies >= cap or not snap.tnew < snap.trem:
                continue
            key = (-snap.trem, True, task_id)
            if best_key is None or key < best_key:
                best = snap
                best_key = key
        return best

    def choose_task(self, view: SchedulingView) -> Optional[SchedulingDecision]:
        sched = view.sched
        if sched is not None:
            if view.bound.is_deadline:
                return make_decision(self._fast_deadline(view, sched))
            return make_decision(self._fast_error(view, sched))
        if view.bound.is_deadline:
            return make_decision(self._choose_deadline(view))
        return make_decision(self._choose_error(view))
