"""Synthetic workload generation calibrated to the paper's trace statistics.

The generator produces :class:`~repro.core.job.JobSpec` lists plus per-job
metadata (deadline slack factor, error bound, intended wave count) that the
experiment harness needs for the Figure 6 style breakdowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.bounds import ApproximationBound
from repro.core.job import JobPhaseSpec, JobSpec
from repro.utils.rng import RngStream
from repro.workload.profiles import (
    FrameworkProfile,
    WorkloadProfile,
    framework_profile,
    workload_profile,
)

#: Supported bound mixes (mirrored by ``repro.experiments.plan.PLAN_BOUND_KINDS``,
#: test-locked).
BOUND_DEADLINE = "deadline"
BOUND_ERROR = "error"
BOUND_EXACT = "exact"
BOUND_MIXED = "mixed"

#: Supported arrival processes.
ARRIVAL_POISSON = "poisson"
ARRIVAL_SEQUENTIAL = "sequential"


def validate_workload_knobs(
    bound_kind: str,
    dag_length: int,
    intermediate_task_fraction: float,
    deadline_slack_range: Tuple[float, float],
    error_range: Tuple[float, float],
) -> None:
    """Validate the knobs shared by synthetic generation and trace replay.

    One definition keeps :class:`WorkloadConfig` and
    :class:`~repro.workload.trace_replay.TraceReplayConfig` from drifting:
    a config accepted by one pipeline is accepted by the other.
    """
    if bound_kind not in (BOUND_DEADLINE, BOUND_ERROR, BOUND_EXACT, BOUND_MIXED):
        raise ValueError(f"unknown bound_kind {bound_kind!r}")
    if dag_length < 1:
        raise ValueError("dag_length must be at least 1")
    if not 0.0 < intermediate_task_fraction <= 1.0:
        raise ValueError("intermediate_task_fraction must be in (0, 1]")
    low, high = deadline_slack_range
    if not 0.0 < low <= high:
        raise ValueError("deadline_slack_range must be positive and ordered")
    low, high = error_range
    if not 0.0 <= low <= high < 1.0:
        raise ValueError("error_range must lie in [0, 1) and be ordered")


def target_waves(rng: RngStream, size_bin: str) -> int:
    """Intended wave count per job size (§2.1): small jobs fit in one or two
    waves, large jobs in many.  Shared by the synthetic generator and trace
    replay so both assign identical slot caps for a given size bin."""
    if size_bin == "small":
        return rng.randint(1, 2)
    if size_bin == "medium":
        return rng.randint(2, 4)
    return rng.randint(3, 6)


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of one synthetic workload.

    ``size_scale`` shrinks task counts uniformly (useful to keep benchmark
    runtimes reasonable while preserving the small/medium/large mix), and
    ``max_tasks_per_job`` caps the largest jobs for the same reason.
    """

    workload: str = "facebook"
    framework: str = "hadoop"
    num_jobs: int = 100
    bound_kind: str = BOUND_MIXED
    deadline_slack_range: Tuple[float, float] = (0.02, 0.20)
    error_range: Tuple[float, float] = (0.05, 0.30)
    dag_length: int = 2
    intermediate_task_fraction: float = 0.10
    size_scale: float = 1.0
    max_tasks_per_job: Optional[int] = None
    arrival_mode: str = ARRIVAL_POISSON
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_jobs <= 0:
            raise ValueError("num_jobs must be positive")
        validate_workload_knobs(
            self.bound_kind,
            self.dag_length,
            self.intermediate_task_fraction,
            self.deadline_slack_range,
            self.error_range,
        )
        if self.size_scale <= 0:
            raise ValueError("size_scale must be positive")
        if self.arrival_mode not in (ARRIVAL_POISSON, ARRIVAL_SEQUENTIAL):
            raise ValueError(f"unknown arrival_mode {self.arrival_mode!r}")

    @property
    def workload_profile(self) -> WorkloadProfile:
        return workload_profile(self.workload)

    @property
    def framework_profile(self) -> FrameworkProfile:
        return framework_profile(self.framework)


@dataclass
class JobMetadata:
    """Per-job synthesis metadata the experiment harness bins on."""

    job_id: int
    size_bin: str
    num_input_tasks: int
    target_waves: int
    deadline_slack_percent: Optional[float] = None
    error_percent: Optional[float] = None
    ideal_duration: float = 0.0


@dataclass
class GeneratedWorkload:
    """A workload: job specs plus the metadata used for figure breakdowns."""

    config: WorkloadConfig
    job_specs: List[JobSpec] = field(default_factory=list)
    metadata: Dict[int, JobMetadata] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.job_specs)

    def specs(self) -> List[JobSpec]:
        return list(self.job_specs)

    def metadata_for(self, job_id: int) -> JobMetadata:
        return self.metadata[job_id]


class SyntheticWorkloadGenerator:
    """Generates workloads matching the published trace characteristics."""

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config
        self._workload = config.workload_profile
        self._framework = config.framework_profile
        self._rng = RngStream(config.seed, f"workload/{config.workload}/{config.framework}")

    # -- job sizing ----------------------------------------------------------------

    def _pick_bin(self, rng: RngStream) -> Tuple[str, Tuple[int, int]]:
        profile = self._workload
        labels = ("small", "medium", "large")
        ranges = (profile.small_tasks, profile.medium_tasks, profile.large_tasks)
        label = rng.weighted_choice(labels, profile.bin_probabilities)
        return label, ranges[labels.index(label)]

    def _task_count(self, rng: RngStream, task_range: Tuple[int, int]) -> int:
        low, high = task_range
        count = rng.randint(low, high)
        count = max(3, int(round(count * self.config.size_scale)))
        if self.config.max_tasks_per_job is not None:
            count = min(count, self.config.max_tasks_per_job)
        return count

    def _target_waves(self, rng: RngStream, size_bin: str) -> int:
        return target_waves(rng, size_bin)

    # -- task works ------------------------------------------------------------------

    def _input_task_works(self, rng: RngStream, count: int) -> List[float]:
        """Input task works: near-equal data splits with mild log-normal jitter.

        The paper normalises task durations by input size (§2.2, footnote 2),
        i.e. input tasks read roughly equal splits; the heavy-tailed
        *duration* skew of Figure 3 comes from runtime straggling, which the
        simulator's straggler model supplies per copy.
        """
        profile = self._workload
        median_work = self._framework.median_task_work
        sigma = profile.work_jitter_sigma
        works = []
        for _ in range(count):
            multiplier = rng.lognormal(0.0, sigma) if sigma > 0 else 1.0
            works.append(median_work * multiplier)
        return works

    def _intermediate_task_works(self, rng: RngStream, input_count: int) -> List[float]:
        count = max(1, int(round(self.config.intermediate_task_fraction * input_count)))
        median_work = self._framework.median_task_work
        return [median_work * rng.uniform(0.5, 1.5) for _ in range(count)]

    # -- bounds -----------------------------------------------------------------------

    def _bound_kind_for_job(self, rng: RngStream) -> str:
        kind = self.config.bound_kind
        if kind != BOUND_MIXED:
            return kind
        return BOUND_DEADLINE if rng.bernoulli(0.5) else BOUND_ERROR

    def _make_bound(
        self, rng: RngStream, kind: str, ideal_duration: float, metadata: JobMetadata
    ) -> ApproximationBound:
        if kind == BOUND_DEADLINE:
            low, high = self.config.deadline_slack_range
            slack = rng.uniform(low, high)
            metadata.deadline_slack_percent = slack * 100.0
            return ApproximationBound.with_deadline(ideal_duration * (1.0 + slack))
        if kind == BOUND_EXACT:
            metadata.error_percent = 0.0
            return ApproximationBound.exact()
        low, high = self.config.error_range
        error = rng.uniform(low, high)
        metadata.error_percent = error * 100.0
        return ApproximationBound.with_error(error)

    # -- generation --------------------------------------------------------------------

    @staticmethod
    def _ideal_duration(phases: List[JobPhaseSpec], slots: int) -> float:
        """Ideal duration per §6.1: every task at the phase's median work."""
        total = 0.0
        for phase in phases:
            works = sorted(phase.task_works)
            mid = len(works) // 2
            median_work = works[mid] if len(works) % 2 == 1 else 0.5 * (
                works[mid - 1] + works[mid]
            )
            total += math.ceil(phase.task_count / slots) * median_work
        return total

    def generate(self) -> GeneratedWorkload:
        """Generate the configured number of jobs."""
        result = GeneratedWorkload(config=self.config)
        arrival_time = 0.0
        for job_id in range(self.config.num_jobs):
            job_rng = self._rng.spawn(f"job/{job_id}")
            size_bin, task_range = self._pick_bin(job_rng)
            input_count = self._task_count(job_rng, task_range)
            waves = self._target_waves(job_rng, size_bin)
            max_slots = max(1, math.ceil(input_count / waves))

            phases = [
                JobPhaseSpec(
                    phase_index=0,
                    task_works=tuple(self._input_task_works(job_rng, input_count)),
                )
            ]
            for phase_index in range(1, self.config.dag_length):
                phases.append(
                    JobPhaseSpec(
                        phase_index=phase_index,
                        task_works=tuple(
                            self._intermediate_task_works(job_rng, input_count)
                        ),
                    )
                )

            ideal = self._ideal_duration(phases, max_slots)
            metadata = JobMetadata(
                job_id=job_id,
                size_bin=size_bin,
                num_input_tasks=input_count,
                target_waves=waves,
                ideal_duration=ideal,
            )
            kind = self._bound_kind_for_job(job_rng)
            bound = self._make_bound(job_rng, kind, ideal, metadata)

            spec = JobSpec(
                job_id=job_id,
                arrival_time=arrival_time,
                phases=tuple(phases),
                bound=bound,
                name=f"{self.config.workload}-{self.config.framework}-{size_bin}-{job_id}",
                max_slots=max_slots,
            )
            result.job_specs.append(spec)
            result.metadata[job_id] = metadata

            if self.config.arrival_mode == ARRIVAL_POISSON:
                arrival_time += job_rng.expovariate(
                    1.0 / self._workload.mean_interarrival
                )
            else:
                # Sequential: leave generous room so jobs do not overlap.
                arrival_time += ideal * 4.0 + 10.0
        return result


def generate_workload(config: WorkloadConfig) -> GeneratedWorkload:
    """Convenience wrapper used throughout the experiment harness."""
    return SyntheticWorkloadGenerator(config).generate()
