"""Workload and framework profiles.

Two orthogonal axes mirror the paper's evaluation matrix:

* :class:`WorkloadProfile` — whose trace the job mix resembles.  ``facebook``
  (Hadoop cluster: very many small interactive Hive jobs, some large ones)
  versus ``bing`` (Dryad cluster: fewer but larger Scope jobs).
* :class:`FrameworkProfile` — which prototype executes the jobs.  ``hadoop``
  (disk-backed, longer tasks) versus ``spark`` (in-memory RDDs, much shorter
  tasks, so stragglers hurt relatively more — §6.2.1).

The numbers here are calibrated to the qualitative statements in the paper
(task-duration Pareto tail β ≈ 1.259, slowest ≈ 8× median, Spark tasks much
shorter than Hadoop's), not to the raw traces, which are proprietary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.estimators import EstimatorConfig
from repro.simulator.stragglers import StragglerConfig


@dataclass(frozen=True)
class WorkloadProfile:
    """Job-mix parameters for one trace."""

    name: str
    #: probability of a job falling in the small / medium / large bin
    bin_probabilities: Tuple[float, float, float]
    #: inclusive task-count ranges per bin
    small_tasks: Tuple[int, int]
    medium_tasks: Tuple[int, int]
    large_tasks: Tuple[int, int]
    #: mean inter-arrival time between jobs, seconds
    mean_interarrival: float
    #: sigma of the log-normal per-task data-size jitter.  Input tasks read
    #: roughly equal splits, so this is small; the heavy Pareto tail of task
    #: *durations* (Figure 3) comes from the runtime straggler model instead.
    work_jitter_sigma: float = 0.20

    def __post_init__(self) -> None:
        if abs(sum(self.bin_probabilities) - 1.0) > 1e-9:
            raise ValueError("bin probabilities must sum to 1")
        for low, high in (self.small_tasks, self.medium_tasks, self.large_tasks):
            if low <= 0 or high < low:
                raise ValueError("task-count ranges must be positive and ordered")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if self.work_jitter_sigma < 0:
            raise ValueError("work_jitter_sigma must be non-negative")


@dataclass(frozen=True)
class FrameworkProfile:
    """Execution-framework parameters for one prototype."""

    name: str
    #: median task work in seconds on the reference machine
    median_task_work: float
    #: straggler behaviour of the framework's executors
    stragglers: StragglerConfig
    #: estimator accuracy the prototype achieves (§5.1)
    estimator: EstimatorConfig

    def __post_init__(self) -> None:
        if self.median_task_work <= 0:
            raise ValueError("median_task_work must be positive")


_WORKLOADS: Dict[str, WorkloadProfile] = {
    "facebook": WorkloadProfile(
        name="facebook",
        bin_probabilities=(0.60, 0.30, 0.10),
        small_tasks=(5, 50),
        medium_tasks=(51, 500),
        large_tasks=(501, 1500),
        mean_interarrival=25.0,
    ),
    "bing": WorkloadProfile(
        name="bing",
        bin_probabilities=(0.45, 0.35, 0.20),
        small_tasks=(10, 50),
        medium_tasks=(51, 500),
        large_tasks=(501, 2000),
        mean_interarrival=40.0,
    ),
}

#: Mirrored by ``repro.experiments.plan.PLAN_FRAMEWORKS`` (test-locked).
_FRAMEWORKS: Dict[str, FrameworkProfile] = {
    "hadoop": FrameworkProfile(
        name="hadoop",
        median_task_work=24.0,
        stragglers=StragglerConfig(shape=1.259, cap=12.0, median=1.0, jitter=0.05),
        estimator=EstimatorConfig(trem_noise=0.05, tnew_noise=0.05),
    ),
    "spark": FrameworkProfile(
        name="spark",
        median_task_work=4.0,
        stragglers=StragglerConfig(shape=1.2, cap=14.0, median=1.0, jitter=0.06),
        estimator=EstimatorConfig(trem_noise=0.08, tnew_noise=0.06),
    ),
}


def workload_profile(name: str) -> WorkloadProfile:
    """Look up a workload profile by name ('facebook' or 'bing')."""
    try:
        return _WORKLOADS[name.lower()]
    except KeyError as exc:
        raise ValueError(
            f"unknown workload profile {name!r}; expected one of {sorted(_WORKLOADS)}"
        ) from exc


def framework_profile(name: str) -> FrameworkProfile:
    """Look up a framework profile by name ('hadoop' or 'spark')."""
    try:
        return _FRAMEWORKS[name.lower()]
    except KeyError as exc:
        raise ValueError(
            f"unknown framework profile {name!r}; expected one of {sorted(_FRAMEWORKS)}"
        ) from exc


def available_workloads() -> Tuple[str, ...]:
    return tuple(sorted(_WORKLOADS))


def available_frameworks() -> Tuple[str, ...]:
    return tuple(sorted(_FRAMEWORKS))
