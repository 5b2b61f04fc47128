"""Trace-driven replay: adapt JSONL traces into engine-ready workloads.

The paper's evaluation (§5, §6) replays Facebook and Bing production traces
through the prototype; this module is the reproduction's equivalent.  A
:class:`~repro.workload.traces.TraceJob` records *observed* per-task
durations, so replay has to answer three questions the synthetic generator
answers by construction:

* **Bounds** — traces do not record deadlines or error bounds.  Replay
  assigns them with the §6.1 recipe (deadline = ideal duration plus a small
  slack; error bound drawn from a range), using a per-job RNG stream derived
  only from ``(seed, job_id)`` so the assignment is independent of how the
  trace is sharded or which policy replays it.
* **Stragglers** — observed durations already include straggling.  Replay
  treats them as task *works* and re-draws runtime multipliers from the
  framework's straggler model, with the Pareto truncation cap set to the
  trace's observed mean slowest-to-median ratio (the §2.2 statistic), so the
  replayed severity matches the trace rather than the profile's default.
* **Scale-out** — a full-length trace is split into arrival-window shards
  (:func:`slice_trace`); each (policy, shard) pair is an independent
  simulation that :func:`repro.experiments.runner.replay` fans over the
  :class:`~repro.experiments.executor.ParallelExecutor`.

Because per-job seeding depends only on the job id, a job gets the same
bound, slot cap and intermediate phases whether it is replayed in the full
trace or inside any shard — which is what makes the sharded merge
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.bounds import ApproximationBound
from repro.core.job import JobPhaseSpec, JobSpec
from repro.simulator.stragglers import StragglerConfig, StragglerModel
from repro.utils.rng import RngStream
from repro.utils.stats import mean
from repro.workload.synthetic import (
    BOUND_DEADLINE,
    BOUND_ERROR,
    BOUND_EXACT,
    BOUND_MIXED,
    GeneratedWorkload,
    JobMetadata,
    WorkloadConfig,
    generate_workload,
    target_waves,
    validate_workload_knobs,
)
from repro.workload.traces import (
    ClusterTierConfig,
    TraceJob,
    TraceSummary,
    iter_trace,
    save_trace,
    summarize_trace,
    trace_from_specs,
)


@dataclass(frozen=True)
class TraceReplayConfig:
    """How a trace is turned into an engine workload.

    ``framework`` picks the execution profile (straggler shape, estimator
    noise, machine speeds); bounds are assigned per job from the given
    ranges, exactly like the synthetic generator's §6.1 recipe.  ``seed``
    drives every stochastic choice through per-job streams, so two replays
    of the same trace with the same config are identical.
    """

    framework: str = "hadoop"
    bound_kind: str = BOUND_MIXED
    deadline_slack_range: Tuple[float, float] = (0.02, 0.20)
    error_range: Tuple[float, float] = (0.05, 0.30)
    dag_length: int = 2
    intermediate_task_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self) -> None:
        validate_workload_knobs(
            self.bound_kind,
            self.dag_length,
            self.intermediate_task_fraction,
            self.deadline_slack_range,
            self.error_range,
        )


@dataclass
class TraceWorkload:
    """A trace adapted for the engine, with its replay provenance.

    ``workload`` plugs into everything downstream of the synthetic generator
    (``RunRequest``, ``build_simulation_config``, the metrics harness);
    ``stragglers`` is the trace-calibrated straggler model replay runs under;
    ``summary`` keeps the Table 1 statistics of the source records.
    """

    workload: GeneratedWorkload
    stragglers: StragglerConfig
    summary: TraceSummary
    shard_index: int = 0
    num_shards: int = 1

    def __len__(self) -> int:
        return len(self.workload)


def straggler_cap_from_ratio(mean_ratio: float) -> float:
    """Straggler truncation cap for an observed mean slowest/median ratio.

    The cap must exceed the multiplier's median (1.0), so traces with no
    observed straggling still yield a valid — nearly degenerate — model.
    Shared by the batch path (:func:`observed_straggler_cap`) and the
    streaming calibration pre-pass (``TraceScan``), so both derive the same
    cap from the same statistic.
    """
    return max(1.05, mean_ratio)


def observed_straggler_cap(trace: Sequence[TraceJob]) -> float:
    """Straggler truncation cap matching the trace's slowest/median ratio.

    Raises a clear ``ValueError`` on an empty trace (mirroring
    ``traces.scan_trace``) instead of leaking ``stats.mean``'s bare
    "mean of an empty sequence is undefined".
    """
    if not trace:
        raise ValueError("cannot calibrate stragglers for an empty trace")
    return straggler_cap_from_ratio(mean([job.slowest_to_median_ratio for job in trace]))


def replay_straggler_config(
    trace: Sequence[TraceJob], base: StragglerConfig
) -> StragglerConfig:
    """The framework's straggler model, truncated at the observed severity."""
    return replace(base, cap=observed_straggler_cap(trace))


def _job_spec_from_trace(
    job: TraceJob, config: TraceReplayConfig, arrival_time: float
) -> Tuple[JobSpec, JobMetadata]:
    """Adapt one trace record into a JobSpec plus harness metadata.

    The RNG stream is derived from ``(config.seed, job.job_id)`` alone — not
    from the job's position in the trace — so sharding never changes a job's
    bound, slot cap or intermediate phases.
    """
    rng = RngStream(config.seed, "trace-replay").spawn(f"job/{job.job_id}")
    waves = target_waves(rng, job.size_bin)
    max_slots = max(1, math.ceil(job.num_tasks / waves))

    phases = [JobPhaseSpec(phase_index=0, task_works=tuple(job.task_durations))]
    median_duration = job.median_duration
    for phase_index in range(1, config.dag_length):
        count = max(1, int(round(config.intermediate_task_fraction * job.num_tasks)))
        phases.append(
            JobPhaseSpec(
                phase_index=phase_index,
                task_works=tuple(
                    median_duration * rng.uniform(0.5, 1.5) for _ in range(count)
                ),
            )
        )

    spec = JobSpec(
        job_id=job.job_id,
        arrival_time=arrival_time,
        phases=tuple(phases),
        bound=ApproximationBound.exact(),  # replaced below once ideal is known
        name=f"trace-{job.size_bin}-{job.job_id}",
        max_slots=max_slots,
    )
    ideal = spec.ideal_duration(max_slots)
    metadata = JobMetadata(
        job_id=job.job_id,
        size_bin=job.size_bin,
        num_input_tasks=job.num_tasks,
        target_waves=waves,
        ideal_duration=ideal,
    )

    kind = config.bound_kind
    if kind == BOUND_MIXED:
        kind = BOUND_DEADLINE if rng.bernoulli(0.5) else BOUND_ERROR
    if kind == BOUND_DEADLINE:
        low, high = config.deadline_slack_range
        slack = rng.uniform(low, high)
        metadata.deadline_slack_percent = slack * 100.0
        bound = ApproximationBound.with_deadline(ideal * (1.0 + slack))
    elif kind == BOUND_EXACT:
        metadata.error_percent = 0.0
        bound = ApproximationBound.exact()
    else:
        low, high = config.error_range
        error = rng.uniform(low, high)
        metadata.error_percent = error * 100.0
        bound = ApproximationBound.with_error(error)

    return replace(spec, bound=bound), metadata


def trace_to_workload(
    trace: Sequence[TraceJob],
    config: Optional[TraceReplayConfig] = None,
    *,
    name: str = "trace",
    shard_index: int = 0,
    num_shards: int = 1,
    stragglers: Optional[StragglerConfig] = None,
) -> TraceWorkload:
    """Adapt trace records into the JobSpec stream the engine consumes.

    Arrivals are rebased so the shard's first job arrives at time zero
    (shards replay concurrently, each as its own simulation).  Pass
    ``stragglers`` to pin the straggler model — the sharded path does this so
    every shard replays under the *full* trace's observed severity rather
    than its own slice's.
    """
    config = config or TraceReplayConfig()
    if not trace:
        raise ValueError("cannot replay an empty trace")
    seen_ids = set()
    for job in trace:
        if job.job_id in seen_ids:
            raise ValueError(f"duplicate job_id {job.job_id} in trace")
        seen_ids.add(job.job_id)

    ordered = sorted(trace, key=lambda job: (job.arrival_time, job.job_id))
    # Provenance stand-in: ``workload`` records the trace name, which is not
    # a profile name — ``framework_profile`` (the only profile downstream
    # code reads for replay) stays valid, but ``workload_profile`` would not
    # resolve, which is correct: a replayed trace has no synthetic profile.
    stand_in = WorkloadConfig(
        workload=name,
        framework=config.framework,
        num_jobs=len(ordered),
        bound_kind=config.bound_kind,
        seed=config.seed,
        dag_length=config.dag_length,
        intermediate_task_fraction=config.intermediate_task_fraction,
        deadline_slack_range=config.deadline_slack_range,
        error_range=config.error_range,
    )
    workload = GeneratedWorkload(config=stand_in)
    # Materialise through the streaming adapter so the batch and lazy paths
    # cannot drift: byte-identical specs are structural, not a convention.
    workload.job_specs.extend(
        iter_job_specs(ordered, config, metadata=workload.metadata)
    )

    if stragglers is None:
        stragglers = replay_straggler_config(
            trace, stand_in.framework_profile.stragglers
        )
    return TraceWorkload(
        workload=workload,
        stragglers=stragglers,
        summary=summarize_trace(ordered, name=name),
        shard_index=shard_index,
        num_shards=num_shards,
    )


def iter_job_specs(
    jobs: Iterable[TraceJob],
    config: Optional[TraceReplayConfig] = None,
    *,
    metadata: Optional[dict] = None,
) -> Iterator[JobSpec]:
    """Lazily adapt arrival-ordered trace records into engine ``JobSpec``\\ s.

    The streaming twin of :func:`trace_to_workload`'s spec loop: one
    ``TraceJob`` in, one ``JobSpec`` out, so a million-job trace never has to
    exist as a spec list.  Specs are byte-identical to the materialised
    path's — the per-job RNG stream is derived from ``(config.seed, job_id)``
    alone, and arrivals are rebased so the stream's first job arrives at
    time zero, exactly as :func:`trace_to_workload` rebases to its ordered
    first job (callers must therefore feed jobs in ``(arrival_time, job_id)``
    order; the engine validates the resulting spec order).

    Pass a ``metadata`` dict to also collect each job's
    :class:`~repro.workload.synthetic.JobMetadata` (O(#jobs) small records,
    never task payloads) for figure-style breakdowns.
    """
    config = config or TraceReplayConfig()
    base_arrival: Optional[float] = None
    for job in jobs:
        if base_arrival is None:
            base_arrival = job.arrival_time
        spec, job_metadata = _job_spec_from_trace(
            job, config, arrival_time=job.arrival_time - base_arrival
        )
        if metadata is not None:
            metadata[spec.job_id] = job_metadata
        yield spec


@dataclass(frozen=True)
class TraceSpecSource:
    """A lazy, picklable description of one arrival-window shard's specs.

    Executor run requests carry this instead of a materialised spec list:
    plain data (a path plus replay coordinates), it crosses the process
    boundary for free and the *worker* re-opens the trace, skips to its
    window and feeds :func:`iter_job_specs` straight into the engine's lazy
    ingestion — no process ever holds the shard's specs at once.

    ``num_shards == 1`` describes the whole trace (the unsharded million-job
    replay this source exists for).  The trace file must be sorted by
    ``(arrival_time, job_id)`` — the caller (``runner.replay_stream``)
    verifies that with the calibration scan before building sources.
    """

    trace_path: str
    replay_config: TraceReplayConfig
    shard_index: int
    num_shards: int
    total_jobs: int

    def __post_init__(self) -> None:
        if not 0 <= self.shard_index < self.num_shards:
            raise ValueError("shard_index must lie in [0, num_shards)")
        if self.total_jobs < self.num_shards:
            raise ValueError("cannot cut more shards than the trace has jobs")

    @property
    def num_jobs(self) -> int:
        """Job count of this shard (same boundaries as :func:`slice_trace`)."""
        return shard_sizes(self.total_jobs, self.num_shards)[self.shard_index]

    def iter_specs(self) -> Iterator[JobSpec]:
        """Lazily parse this shard's window and adapt it spec by spec."""
        sizes = shard_sizes(self.total_jobs, self.num_shards)
        start = sum(sizes[: self.shard_index])
        window = islice(iter_trace(self.trace_path), start, start + sizes[self.shard_index])
        return iter_job_specs(window, self.replay_config)

    def __str__(self) -> str:
        return (
            f"trace-shard[{self.shard_index + 1}/{self.num_shards}] "
            f"of {Path(self.trace_path).name} ({self.num_jobs} jobs)"
        )


def shard_sizes(total_jobs: int, num_shards: int) -> List[int]:
    """Job counts of each arrival-window shard for a trace of ``total_jobs``.

    The single definition of shard boundaries: :func:`slice_trace` (batch)
    and :func:`iter_trace_shards` (streaming) both cut windows of these
    sizes, which is what makes a streamed replay's shard split — and hence
    its metrics digest — identical to the batch path's at the same shard
    count.  Shard counts larger than the trace collapse to one job per
    shard; no shard is ever empty.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if total_jobs < 1:
        raise ValueError("cannot shard an empty trace")
    num_shards = min(num_shards, total_jobs)
    base, extra = divmod(total_jobs, num_shards)
    return [base + (1 if index < extra else 0) for index in range(num_shards)]


def slice_trace(trace: Sequence[TraceJob], num_shards: int) -> List[List[TraceJob]]:
    """Split a trace into arrival-contiguous windows of near-equal job count.

    Jobs are ordered by arrival time and cut into ``num_shards`` contiguous
    windows, so each shard covers one span of the trace's arrival timeline.
    """
    if not trace:
        raise ValueError("cannot slice an empty trace")
    ordered = sorted(trace, key=lambda job: (job.arrival_time, job.job_id))
    shards: List[List[TraceJob]] = []
    start = 0
    for size in shard_sizes(len(ordered), num_shards):
        shards.append(ordered[start : start + size])
        start += size
    return shards


def iter_trace_shards(
    jobs: Iterable[TraceJob], num_shards: int, total_jobs: int
) -> Iterator[List[TraceJob]]:
    """Lazily cut an arrival-ordered job stream into batch-identical shards.

    The streaming twin of :func:`slice_trace`: given the trace's total job
    count (from the calibration pre-pass, ``traces.scan_trace``) the shard
    boundaries are known up front, so shards can be materialised one at a
    time — shard ``k+1`` is only parsed once the consumer asks for it, which
    is what lets shard ``k`` simulate while ``k+1`` is still on disk.

    The stream must be sorted by ``(arrival_time, job_id)`` — the order
    :func:`slice_trace` sorts into — or the cut windows would differ from
    the batch path's; an out-of-order record raises ``ValueError``.  The
    stream must also contain exactly ``total_jobs`` jobs.
    """
    iterator = iter(jobs)
    previous_key = None
    produced = 0
    for size in shard_sizes(total_jobs, num_shards):
        shard: List[TraceJob] = []
        for _ in range(size):
            job = next(iterator, None)
            if job is None:
                raise ValueError(
                    f"trace stream ended after {produced} jobs; expected {total_jobs}"
                )
            key = (job.arrival_time, job.job_id)
            if previous_key is not None and key < previous_key:
                raise ValueError(
                    "streaming shards require an arrival-sorted trace "
                    f"(job {job.job_id} arrives at {job.arrival_time} after a later key)"
                )
            previous_key = key
            shard.append(job)
            produced += 1
        yield shard
    if next(iterator, None) is not None:
        raise ValueError(f"trace stream has more than the expected {total_jobs} jobs")


# ---------------------------------------------------------- cluster-scale tier
#
# The tier's config, :class:`~repro.workload.traces.ClusterTierConfig`, lives
# with the trace records so the replay cache can fingerprint a tier without
# importing the generator.


def cluster_trace_job(config: ClusterTierConfig, index: int) -> TraceJob:
    """Generate job ``index`` of the cluster tier — random access, no state.

    The per-job RNG stream is derived from ``(config.seed, index)`` alone, so
    any slice of the tier regenerates byte-identically in any process.
    """
    if not 0 <= index < config.num_jobs:
        raise ValueError(f"job index {index} outside [0, {config.num_jobs})")
    rng = RngStream(config.seed, "cluster-tier").spawn(f"job/{index}")
    arrival = index * config.mean_interarrival + rng.uniform(
        0.0, 0.9 * config.mean_interarrival
    )
    num_tasks = min(
        config.max_tasks_per_job,
        max(1, int(round(rng.lognormal(math.log(config.median_tasks), config.tasks_sigma)))),
    )
    durations = []
    for _ in range(num_tasks):
        duration = config.median_task_duration * rng.lognormal(
            0.0, config.duration_sigma
        )
        if rng.random() < config.straggler_fraction:
            duration *= rng.uniform(2.0, 8.0)
        durations.append(round(duration, 4))
    return TraceJob(job_id=index, arrival_time=arrival, task_durations=durations)


def iter_cluster_trace(
    config: ClusterTierConfig, start: int = 0, stop: Optional[int] = None
) -> Iterator[TraceJob]:
    """Lazily yield the cluster tier's jobs for ``[start, stop)``.

    O(1) memory: each job is generated, yielded, and dropped.  Arrivals are
    strictly increasing in the index (the jitter never spans an interarrival
    gap), so the stream satisfies the ``(arrival_time, job_id)`` sort every
    streaming consumer requires, and duplicate ids are impossible by
    construction — no seen-id set is needed, unlike :func:`iter_trace`.
    """
    stop = config.num_jobs if stop is None else min(stop, config.num_jobs)
    for index in range(start, stop):
        yield cluster_trace_job(config, index)


@dataclass(frozen=True)
class ClusterSpecSource:
    """A lazy, picklable description of one cluster-tier shard's specs.

    The generated-trace twin of :class:`TraceSpecSource`: instead of a path
    plus a window, it carries the tier config plus shard coordinates, and
    the executing worker regenerates exactly its own window (random-access
    generation — no predecessor jobs are ever produced) straight into the
    engine's lazy spec ingestion.
    """

    tier: ClusterTierConfig
    replay_config: TraceReplayConfig
    shard_index: int
    num_shards: int

    def __post_init__(self) -> None:
        if not 0 <= self.shard_index < self.num_shards:
            raise ValueError("shard_index must lie in [0, num_shards)")
        if self.tier.num_jobs < self.num_shards:
            raise ValueError("cannot cut more shards than the tier has jobs")

    @property
    def num_jobs(self) -> int:
        """Job count of this shard (same boundaries as :func:`slice_trace`)."""
        return shard_sizes(self.tier.num_jobs, self.num_shards)[self.shard_index]

    def iter_specs(self) -> Iterator[JobSpec]:
        """Regenerate this shard's window and adapt it spec by spec."""
        sizes = shard_sizes(self.tier.num_jobs, self.num_shards)
        start = sum(sizes[: self.shard_index])
        window = iter_cluster_trace(
            self.tier, start=start, stop=start + sizes[self.shard_index]
        )
        return iter_job_specs(window, self.replay_config)

    def __str__(self) -> str:
        return (
            f"cluster-shard[{self.shard_index + 1}/{self.num_shards}] "
            f"of {self.tier} ({self.num_jobs} jobs)"
        )


# --------------------------------------------------------------- synthesizer


def synthesize_trace(
    workload: str = "facebook",
    framework: str = "hadoop",
    num_jobs: int = 100,
    size_scale: float = 0.25,
    max_tasks_per_job: Optional[int] = 400,
    seed: int = 7,
) -> List[TraceJob]:
    """Synthesize a paper-shaped trace (observed durations, not raw works).

    The real Facebook/Bing traces are proprietary, so the repo ships
    synthetic look-alikes instead: a calibrated workload is generated and
    each task's duration is inflated by the framework's straggler multiplier
    for its first copy — the same "observed duration" construction Table 1
    uses.  Durations are rounded to 4 decimals to keep JSONL fixtures small;
    the precision is far below anything the simulator is sensitive to.
    """
    config = WorkloadConfig(
        workload=workload,
        framework=framework,
        num_jobs=num_jobs,
        size_scale=size_scale,
        max_tasks_per_job=max_tasks_per_job,
        seed=seed,
    )
    generated = generate_workload(config)
    straggler = StragglerModel(config.framework_profile.stragglers, seed=seed)
    trace = trace_from_specs(generated.specs())
    for job in trace:
        job.task_durations = [
            round(duration * straggler.multiplier(job.job_id, index, 0), 4)
            for index, duration in enumerate(job.task_durations)
        ]
    return trace


def export_trace(
    path: Union[str, Path],
    workload: str = "facebook",
    framework: str = "hadoop",
    num_jobs: int = 100,
    size_scale: float = 0.25,
    max_tasks_per_job: Optional[int] = 400,
    seed: int = 7,
) -> TraceSummary:
    """Synthesize a trace, write it as JSONL, and return its summary."""
    trace = synthesize_trace(
        workload=workload,
        framework=framework,
        num_jobs=num_jobs,
        size_scale=size_scale,
        max_tasks_per_job=max_tasks_per_job,
        seed=seed,
    )
    save_trace(trace, path)
    return summarize_trace(trace, name=f"{workload}-like")
