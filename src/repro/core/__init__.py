"""Core task/job model and the GRASS speculation policies.

This package holds the paper's primary contribution:

* :mod:`repro.core.task` / :mod:`repro.core.job` — the task, copy and job
  abstractions shared by every scheduler.
* :mod:`repro.core.estimators` — the ``trem`` / ``tnew`` estimators of §5.1.
* :mod:`repro.core.policies` — GS, RAS and GRASS (Pseudocode 1 & 2, §4).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.bounds": ("ApproximationBound", "BoundType"),
        "repro.core.job": ("Job", "JobPhaseSpec", "JobSpec"),
        "repro.core.task": ("CopyState", "Task", "TaskCopy", "TaskSpec", "TaskState"),
    },
)

__all__ = [
    "ApproximationBound",
    "BoundType",
    "Job",
    "JobSpec",
    "JobPhaseSpec",
    "Task",
    "TaskCopy",
    "TaskSpec",
    "TaskState",
    "CopyState",
]
