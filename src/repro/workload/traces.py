"""Trace records and summaries (the Table 1 stand-in).

Real production traces are proprietary, so the "traces" this module handles
are either (a) summaries of synthetic workloads, used to verify the synthetic
mix matches the published statistics, or (b) user-supplied JSON-lines files
in the simple schema below, should someone want to replay their own cluster:

    {"job_id": 1, "arrival_time": 0.0, "task_durations": [12.5, 9.1, ...]}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Union

from repro.core.job import JobSpec, job_bin_label
from repro.utils.stats import mean, median, percentile


class TraceFormatError(ValueError):
    """Raised when a JSONL trace file is malformed (bad JSON, bad fields)."""


@dataclass
class TraceJob:
    """One job of a trace: arrival time and its task durations."""

    job_id: int
    arrival_time: float
    task_durations: List[float]

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_time) or self.arrival_time < 0:
            raise ValueError("arrival_time must be finite and non-negative")
        if not self.task_durations:
            raise ValueError("a trace job needs at least one task")
        if any(
            not math.isfinite(duration) or duration <= 0
            for duration in self.task_durations
        ):
            raise ValueError("task durations must be finite and positive")

    @property
    def num_tasks(self) -> int:
        return len(self.task_durations)

    @property
    def size_bin(self) -> str:
        return job_bin_label(self.num_tasks)

    @property
    def median_duration(self) -> float:
        return median(self.task_durations)

    @property
    def slowest_to_median_ratio(self) -> float:
        """The straggler severity statistic the paper quotes (~8x, §2.2)."""
        med = self.median_duration
        if med <= 0:
            return 1.0
        return max(self.task_durations) / med


@dataclass
class TraceSummary:
    """Aggregate trace statistics in the spirit of Table 1."""

    name: str
    num_jobs: int
    num_tasks: int
    bin_counts: Dict[str, int]
    median_task_duration: float
    p95_task_duration: float
    mean_slowest_to_median: float
    mean_tasks_per_job: float

    def rows(self) -> List[Sequence[Union[str, float, int]]]:
        """Rows suitable for printing as a small table."""
        return [
            ("trace", self.name),
            ("jobs", self.num_jobs),
            ("tasks", self.num_tasks),
            ("small jobs (<50 tasks)", self.bin_counts.get("small", 0)),
            ("medium jobs (51-500)", self.bin_counts.get("medium", 0)),
            ("large jobs (>500)", self.bin_counts.get("large", 0)),
            ("mean tasks per job", round(self.mean_tasks_per_job, 1)),
            ("median task duration (s)", round(self.median_task_duration, 2)),
            ("p95 task duration (s)", round(self.p95_task_duration, 2)),
            ("mean slowest/median task", round(self.mean_slowest_to_median, 2)),
        ]


def trace_from_specs(job_specs: Iterable[JobSpec]) -> List[TraceJob]:
    """Build trace records from generated job specs (input-phase works)."""
    trace = []
    for spec in job_specs:
        trace.append(
            TraceJob(
                job_id=spec.job_id,
                arrival_time=spec.arrival_time,
                task_durations=list(spec.input_phase.task_works),
            )
        )
    return trace


def summarize_trace(trace: Sequence[TraceJob], name: str = "synthetic") -> TraceSummary:
    """Compute Table 1 style statistics for a trace."""
    if not trace:
        raise ValueError("cannot summarise an empty trace")
    bin_counts: Dict[str, int] = {"small": 0, "medium": 0, "large": 0}
    all_durations: List[float] = []
    ratios: List[float] = []
    for job in trace:
        bin_counts[job.size_bin] += 1
        all_durations.extend(job.task_durations)
        ratios.append(job.slowest_to_median_ratio)
    return TraceSummary(
        name=name,
        num_jobs=len(trace),
        num_tasks=len(all_durations),
        bin_counts=bin_counts,
        median_task_duration=median(all_durations),
        p95_task_duration=percentile(all_durations, 95.0),
        mean_slowest_to_median=mean(ratios),
        mean_tasks_per_job=mean([float(job.num_tasks) for job in trace]),
    )


def save_trace(trace: Sequence[TraceJob], path: Union[str, Path]) -> None:
    """Write a trace as JSON-lines."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for job in trace:
            record = {
                "job_id": job.job_id,
                "arrival_time": job.arrival_time,
                "task_durations": job.task_durations,
            }
            handle.write(json.dumps(record) + "\n")


def iter_trace(path: Union[str, Path]) -> Iterator[TraceJob]:
    """Lazily parse a JSON-lines trace, one :class:`TraceJob` at a time.

    The streaming twin of :func:`load_trace`: jobs are yielded as their lines
    are read, so a trace never has to fit in memory at once.  The streaming
    parse enforces the same duplicate-job-id guard ``load_trace`` enforces —
    ``--stream``/``--stream-specs`` replay must reject the same malformed
    traces batch replay rejects.  The guard's seen-id set is the only state
    that grows with the file: O(#jobs) integers, never task payloads (a
    1M-job trace costs ~30 MB of ids — bounded-by-ids, not O(1); generated
    sources whose ids are sequential by construction skip it entirely).
    Blank lines are skipped.
    Anything else that is not a well-formed record — invalid JSON, a
    non-object line, missing or non-numeric fields, values :class:`TraceJob`
    rejects, duplicated job ids — raises :class:`TraceFormatError` naming
    the file and line.
    """
    path = Path(path)
    seen_ids: set = set()
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise TraceFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise TraceFormatError(
                    f"{path}:{lineno}: expected a JSON object, got {type(record).__name__}"
                )
            try:
                job = TraceJob(
                    job_id=int(record["job_id"]),
                    arrival_time=float(record["arrival_time"]),
                    task_durations=[float(d) for d in record["task_durations"]],
                )
            except KeyError as exc:
                raise TraceFormatError(
                    f"{path}:{lineno}: missing field {exc.args[0]!r}"
                ) from exc
            except (TypeError, ValueError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
            if job.job_id in seen_ids:
                raise TraceFormatError(
                    f"{path}:{lineno}: duplicate job_id {job.job_id}"
                )
            seen_ids.add(job.job_id)
            yield job


def load_trace(path: Union[str, Path]) -> List[TraceJob]:
    """Read a JSON-lines trace written by :func:`save_trace` (or by users).

    Materialises :func:`iter_trace`; same validation, same errors.
    """
    return list(iter_trace(path))


@dataclass(frozen=True)
class TraceScan:
    """Bounded-memory statistics from one streaming pass over a trace file.

    This is the calibration pre-pass of streaming replay: sharded replay
    needs the trace's *total* job count (to cut the same arrival windows the
    batch path cuts) and its *mean* slowest-to-median ratio (every shard
    replays under the full trace's observed straggler severity) before the
    first shard simulates.  The statistics themselves accumulate in O(1)
    memory; the pass as a whole retains only the duplicate-id check's set of
    job ids (O(#jobs) ints — never task payloads).  The ratio sum folds
    left-to-right exactly like ``stats.mean`` over the full list, so the
    derived straggler cap is float-identical to the batch path's.
    """

    num_jobs: int
    mean_slowest_to_median: float
    #: True when (arrival_time, job_id) is non-decreasing in file order —
    #: the precondition for lazily cutting the same shards batch replay cuts
    #: after sorting.
    arrival_sorted: bool


def scan_jobs(jobs: Iterable[TraceJob], source: str = "trace") -> TraceScan:
    """Fold the calibration statistics over any stream of trace jobs.

    The single definition of the streaming calibration pass: O(1) memory, the
    ratio sum folds left-to-right exactly like ``stats.mean`` over a full
    list.  :func:`scan_trace` applies it to a JSONL file; streaming replay of
    a *generated* trace (the cluster tier) applies it to the generator
    directly — same statistics, same floats, no file required.  ``source``
    only names the stream in the empty-input error.
    """
    num_jobs = 0
    ratio_sum = 0.0
    arrival_sorted = True
    previous_key = None
    for job in jobs:
        num_jobs += 1
        ratio_sum += job.slowest_to_median_ratio
        key = (job.arrival_time, job.job_id)
        if previous_key is not None and key < previous_key:
            arrival_sorted = False
        previous_key = key
    if num_jobs == 0:
        raise ValueError(f"cannot scan an empty trace: {source}")
    return TraceScan(
        num_jobs=num_jobs,
        mean_slowest_to_median=ratio_sum / num_jobs,
        arrival_sorted=arrival_sorted,
    )


def scan_trace(path: Union[str, Path]) -> TraceScan:
    """One streaming pass over a JSONL trace: count, severity, sortedness.

    Raises :class:`TraceFormatError` for malformed records (the pass shares
    :func:`iter_trace`'s validation — including the duplicate-id guard, so
    ``--stream``/``--stream-specs`` replay rejects the same malformed traces
    batch replay rejects before any simulation starts) and ``ValueError``
    for an empty trace.
    """
    return scan_jobs(iter_trace(path), source=str(path))


@dataclass(frozen=True)
class ClusterTierConfig:
    """The ``scale=cluster`` synthetic tier: ~a million jobs, generated lazily.

    The fixture traces in ``traces/`` are 40 jobs; the paper's own traces are
    575K/500K (§Table 1).  This tier closes the *scale* gap: a seeded
    generator (:func:`repro.workload.trace_replay.iter_cluster_trace`) that
    yields :class:`TraceJob` records one at a time, byte-reproducible for a given config, so an
    ``iter_trace``-shaped source can feed ``--stream-specs --sink aggregate``
    replay at six orders of magnitude without any file or list ever holding
    the trace.

    Every job is generated **independently** from ``(seed, job index)``
    (:func:`~repro.workload.trace_replay.cluster_trace_job` is random-access), which is what lets a shard
    regenerate exactly its own window without generating its predecessors —
    the same property the per-job bound RNG gives replay.

    The size model is a log-normal over task counts, binned by the same
    small/medium/large thresholds as the Facebook/Bing fixtures: with the
    defaults the mix is roughly 94% small, 6% medium and a 0.1% large tail
    (cluster traces are dominated by small jobs), keeping a million-job
    replay's event count tolerable.  Durations get log-normal jitter around
    ``median_task_duration`` plus an occasional straggler inflation so the
    calibration pre-pass derives a meaningful straggler cap, exactly as it
    would from a real trace.
    """

    num_jobs: int = 1_000_000
    seed: int = 0
    #: Mean seconds between consecutive arrivals.  Arrivals are strictly
    #: increasing by construction: job ``i`` arrives at ``i * mean`` plus a
    #: jitter drawn from ``[0, 0.9 * mean)``.
    mean_interarrival: float = 5.0
    #: Median of the log-normal task-count distribution.
    median_tasks: float = 4.0
    #: Sigma of the log-normal task-count distribution.
    tasks_sigma: float = 1.6
    max_tasks_per_job: int = 2000
    #: Median observed task duration (seconds) before jitter/straggling.
    median_task_duration: float = 12.0
    duration_sigma: float = 0.35
    #: Fraction of tasks inflated by a straggler multiplier in [2, 8).
    straggler_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.num_jobs < 1:
            raise ValueError("num_jobs must be at least 1")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if self.median_tasks < 1 or self.max_tasks_per_job < 1:
            raise ValueError("task-count knobs must be at least 1")
        if self.tasks_sigma < 0 or self.duration_sigma < 0:
            raise ValueError("sigmas must be non-negative")
        if not 0.0 <= self.straggler_fraction <= 1.0:
            raise ValueError("straggler_fraction must lie in [0, 1]")

    def __str__(self) -> str:
        return f"cluster:{self.num_jobs} (seed {self.seed})"
