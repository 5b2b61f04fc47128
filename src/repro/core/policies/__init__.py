"""Speculation policies: the paper's primary contribution.

* :mod:`repro.core.policies.base` — the policy interface and the scheduling
  view (estimated ``trem`` / ``tnew`` / resource savings per task).
* :mod:`repro.core.policies.gs` — Greedy Speculative scheduling (Pseudocode 1
  and 2 with ``OC = 0``).
* :mod:`repro.core.policies.ras` — Resource Aware Speculative scheduling
  (``OC = 1``).
* :mod:`repro.core.policies.samples` — the sample store GRASS learns from.
* :mod:`repro.core.policies.switching` — switch-point evaluation (learned and
  the two-wave strawman of §6.3.2).
* :mod:`repro.core.policies.grass` — GRASS itself (§4).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.policies.base": (
            "SchedulingDecision",
            "SchedulingView",
            "SpeculationPolicy",
            "TaskSnapshot",
        ),
        "repro.core.policies.gs": ("GreedySpeculative",),
        "repro.core.policies.grass": ("Grass", "GrassConfig"),
        "repro.core.policies.ras": ("ResourceAwareSpeculative",),
        "repro.core.policies.samples": ("JobSample", "SampleStore"),
        "repro.core.policies.switching": (
            "LearnedSwitchDecider",
            "StrawmanSwitchDecider",
            "SwitchDecider",
        ),
    },
)

__all__ = [
    "SchedulingDecision",
    "SchedulingView",
    "SpeculationPolicy",
    "TaskSnapshot",
    "GreedySpeculative",
    "ResourceAwareSpeculative",
    "Grass",
    "GrassConfig",
    "JobSample",
    "SampleStore",
    "SwitchDecider",
    "LearnedSwitchDecider",
    "StrawmanSwitchDecider",
]
