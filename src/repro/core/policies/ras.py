"""Resource Aware Speculative (RAS) scheduling — Pseudocode 1 & 2 with ``OC = 1``.

RAS accounts for the opportunity cost of speculation: a duplicate is launched
only when it saves both time *and* resources, i.e. when the total slot-time
spent with the duplicate is smaller than letting the running copies finish:

    saving = c * trem - (c + 1) * tnew > 0

Among speculation candidates RAS picks the one with the highest saving.  When
no speculation passes the savings test RAS falls back to the same default as
GS: the pending task with the lowest ``tnew`` within the deadline for
deadline-bound jobs, or the pending earliest-contributing task with the
highest expected duration for error-bound jobs.
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


class ResourceAwareSpeculative(SpeculationPolicy):
    """The RAS policy of §3.1."""

    name = "ras"
    stateless_choose = True

    def __init__(self, max_copies_per_task: int = 4) -> None:
        if max_copies_per_task < 1:
            raise ValueError("max_copies_per_task must be at least 1")
        self.max_copies_per_task = max_copies_per_task

    def _admissible(self, candidates: List[TaskSnapshot]) -> List[TaskSnapshot]:
        return [
            snap
            for snap in candidates
            if not snap.running or snap.copies < self.max_copies_per_task
        ]

    @staticmethod
    def _split(candidates: List[TaskSnapshot]):
        speculative = [snap for snap in candidates if snap.running]
        pending = [snap for snap in candidates if not snap.running]
        return speculative, pending

    def _choose_deadline(self, view: SchedulingView) -> Optional[TaskSnapshot]:
        candidates = self._admissible(deadline_candidates(view, resource_aware=True))
        if not candidates:
            # Nothing is expected to fit in the remaining time: fill the slot
            # anyway rather than idling (durations are stochastic).
            return deadline_fallback(view, self.max_copies_per_task)
        speculative, pending = self._split(candidates)
        if speculative:
            # Selection stage: highest resource saving first.
            return min(speculative, key=lambda snap: (-snap.saving, snap.task_id))
        # Default: lowest tnew within the deadline, same as GS.
        return min(pending, key=lambda snap: (snap.tnew, snap.task_id))

    def _choose_error(self, view: SchedulingView) -> Optional[TaskSnapshot]:
        candidates = self._admissible(error_candidates(view, resource_aware=True))
        if not candidates:
            return None
        speculative, pending = self._split(candidates)
        if speculative:
            return min(speculative, key=lambda snap: (-snap.saving, snap.task_id))
        # Default: highest expected duration among the earliest contributors.
        return min(pending, key=lambda snap: (-snap.tnew, snap.task_id))

    # -- index-backed selection ---------------------------------------------------
    #
    # Same minima as the list-based stages (which serve index-less views and
    # are the fast paths' test reference), served from the index: the
    # savings scan touches only running tasks (bounded by the allocation)
    # and the pending default is the sorted list's head (deadline) or the
    # error window's bisected tail.

    def _fast_deadline(
        self, view: SchedulingView, sched: SchedulingIndex
    ) -> Optional[TaskSnapshot]:
        remaining = view.remaining_deadline
        cap = self.max_copies_per_task
        snaps = sched.snaps
        best: Optional[TaskSnapshot] = None
        best_key = None
        for task_id in sched.running_ids:
            snap = snaps[task_id]
            if snap.copies >= cap:
                continue
            saving = snap.copies * snap.trem - (snap.copies + 1) * snap.tnew
            if saving <= 0:
                continue
            if remaining is not None and snap.tnew > remaining:
                continue
            key = (-saving, task_id)
            if best_key is None or key < best_key:
                best = snap
                best_key = key
        if best is not None:
            return best
        pending = sched.pending_sorted
        if pending:
            tnew, task_id = pending[0][:2]
            if remaining is None or tnew <= remaining:
                return snaps[task_id]
        return index_deadline_fallback(sched, cap)

    def _fast_error(
        self, view: SchedulingView, sched: SchedulingIndex
    ) -> Optional[TaskSnapshot]:
        needed = view.remaining_required_tasks
        if needed <= 0:
            needed = len(sched.snaps)
        k_p, included = index_error_window(sched, needed)
        snaps = sched.snaps
        cap = self.max_copies_per_task
        best: Optional[TaskSnapshot] = None
        best_key = None
        for task_id in included:
            snap = snaps[task_id]
            if snap.copies >= cap:
                continue
            saving = snap.copies * snap.trem - (snap.copies + 1) * snap.tnew
            if saving <= 0:
                continue
            key = (-saving, task_id)
            if best_key is None or key < best_key:
                best = snap
                best_key = key
        if best is not None:
            return best
        tail = index_pending_tail(sched, k_p)
        if tail is None:
            return None
        return snaps[tail[1]]

    def choose_task(self, view: SchedulingView) -> Optional[SchedulingDecision]:
        sched = view.sched
        if sched is not None:
            if view.bound.is_deadline:
                return make_decision(self._fast_deadline(view, sched))
            return make_decision(self._fast_error(view, sched))
        if view.bound.is_deadline:
            return make_decision(self._choose_deadline(view))
        return make_decision(self._choose_error(view))
