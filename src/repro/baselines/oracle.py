"""Oracle scheduler: the near-optimal reference of §6.2.3.

The paper compares GRASS against "an optimal scheduler that knows task
durations and slot availabilities in advance".  Exact optimality is NP-hard
(§2.2), and the paper's own optimal is a simulator-level bound; we provide an
informed greedy oracle with the same spirit:

* It is run with ``SimulationConfig.oracle_estimates = True``, so the engine
  serves its views from an
  :class:`~repro.core.policies.base.OracleSchedulingIndex` and every
  ``trem`` / ``tnew`` it sees is the *true* value.  The straggler model
  derives copy durations deterministically, so the duration a
  not-yet-launched copy would have (on a median-speed machine) is knowable;
  the index computes it once per task copy index and never touches the
  job's estimator.  The GS/RAS fast selection paths apply unchanged.
* With perfect information the RAS-vs-GS trade-off collapses to the wave
  guideline of §3.2, which the oracle applies exactly: resource-aware
  speculation while more than ``switch_waves`` waves of required work remain,
  greedy speculation afterwards.

This gives a strong upper reference that GRASS should approach (Figure 8)
without claiming provable optimality — the same caveat the paper carries.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.policies.base import (
    SchedulingDecision,
    SchedulingView,
    SpeculationPolicy,
)
from repro.core.policies.gs import GreedySpeculative
from repro.core.policies.ras import ResourceAwareSpeculative


class OraclePolicy(SpeculationPolicy):
    """Near-optimal reference scheduler with perfect duration knowledge."""

    name = "oracle"

    def __init__(self, switch_waves: float = 2.0, max_copies_per_task: int = 4) -> None:
        if switch_waves <= 0:
            raise ValueError("switch_waves must be positive")
        self.switch_waves = switch_waves
        self._gs = GreedySpeculative(max_copies_per_task=max_copies_per_task)
        self._ras = ResourceAwareSpeculative(max_copies_per_task=max_copies_per_task)

    def _remaining_waves(self, view: SchedulingView) -> float:
        """How many waves of required work remain, using true durations."""
        wave_width = max(1, view.wave_width)
        if view.bound.is_deadline:
            remaining = view.remaining_deadline
            if remaining is None or remaining <= 0:
                return 0.0
            durations = sorted(snap.tnew for snap in view.tasks)
            if not durations:
                return 0.0
            median_duration = durations[len(durations) // 2]
            if median_duration <= 0:
                return 0.0
            return remaining / median_duration
        needed = view.remaining_required_tasks
        if needed <= 0:
            return 0.0
        return needed / wave_width

    def choose_task(self, view: SchedulingView) -> Optional[SchedulingDecision]:
        if self._remaining_waves(view) > self.switch_waves:
            return self._ras.choose_task(view)
        return self._gs.choose_task(view)


def oracle_remaining_waves(view: SchedulingView, switch_waves: float = 2.0) -> float:
    """Expose the oracle's wave computation for tests and ablations."""
    return OraclePolicy(switch_waves=switch_waves)._remaining_waves(view)


def ceil_waves(task_count: int, wave_width: int) -> int:
    """Integral number of waves needed to run ``task_count`` tasks."""
    if wave_width <= 0:
        raise ValueError("wave_width must be positive")
    if task_count <= 0:
        return 0
    return math.ceil(task_count / wave_width)
