"""Macro-benchmark: the generated ``cluster`` tier, replayed end to end.

Replays a :class:`~repro.workload.trace_replay.ClusterTierConfig` slice —
the lazily generated stand-in for a real cluster trace, a million jobs at
full size — through ``replay_source`` with the aggregate sink: no process
ever materialises the trace, a shard spec list, or a per-job result row.

Records under the ``cluster-scale`` kind in ``BENCH_engine.json``:
events/second (summed engine events over wall-clock), wall time, peak
concurrently-resident jobs, and the residency ratio (peak resident jobs over
trace length) — the number the scheduled CI leg asserts stays under 1% at
100 K+ jobs.

Environment knobs (on top of the usual ``GRASS_BENCH_SCALE``):

* ``GRASS_CLUSTER_JOBS`` — tier length; defaults to a per-scale count
  (quick: 1200) sized so ``make bench-smoke`` stays fast.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import bench_scale, bench_scale_name, record_benchmark
from repro.experiments.runner import replay_source
from repro.simulator.sinks import parse_sink_spec
from repro.workload.trace_replay import ClusterTierConfig, TraceReplayConfig

#: Default tier length per bench scale (overridden by GRASS_CLUSTER_JOBS).
_DEFAULT_JOBS = {"quick": 1200, "default": 20_000, "paper": 100_000}

#: Residency bound asserted at every scale; the scheduled CI leg re-asserts
#: the tighter 1% bound at 100 K jobs, where concurrency is a smaller slice.
_RESIDENCY_BOUND = 0.10


def _cluster_jobs() -> int:
    raw = os.environ.get("GRASS_CLUSTER_JOBS")
    if raw is None:
        return _DEFAULT_JOBS[bench_scale_name()]
    try:
        jobs = int(raw)
    except ValueError:
        raise pytest.UsageError(
            f"GRASS_CLUSTER_JOBS must be an integer >= 1, got {raw!r}"
        ) from None
    if jobs < 1:
        raise pytest.UsageError(f"GRASS_CLUSTER_JOBS must be >= 1, got {jobs}")
    return jobs


def test_cluster_tier_replay(benchmark):
    scale = bench_scale()
    num_jobs = _cluster_jobs()
    tier = ClusterTierConfig(num_jobs=num_jobs, seed=0)
    replay_config = TraceReplayConfig(seed=0)
    shards = max(1, min(8, num_jobs // 100))

    def run_replay():
        return replay_source(
            ["gs"], tier, replay_config=replay_config, scale=scale,
            shards=shards, workers=scale.workers,
            sink=parse_sink_spec("aggregate"),
        )

    started = time.perf_counter()
    comparison = benchmark.pedantic(run_replay, rounds=1, iterations=1)
    wall_seconds = time.perf_counter() - started

    metrics_list = [m for run in comparison.runs.values() for m in run.metrics]
    events = sum(metrics.events_processed for metrics in metrics_list)
    events_per_second = events / wall_seconds if wall_seconds > 0 else 0.0
    peak_resident_jobs = max(metrics.peak_resident_jobs for metrics in metrics_list)
    residency_ratio = peak_resident_jobs / num_jobs
    record_benchmark(
        "cluster-scale",
        "gs",
        trace_jobs=num_jobs,
        events=events,
        wall_time_seconds=round(wall_seconds, 3),
        events_per_second=round(events_per_second, 1),
        peak_resident_jobs=peak_resident_jobs,
        residency_ratio=round(residency_ratio, 5),
        scale=bench_scale_name(),
        workers=scale.workers,
    )
    print(
        f"\ncluster-scale/gs: {num_jobs} jobs, {events} events in "
        f"{wall_seconds:.2f}s -> {events_per_second:,.0f} events/s, "
        f"peak resident jobs {peak_resident_jobs} "
        f"({residency_ratio:.2%})"
    )
    assert events > 0
    assert comparison.workload.config.num_jobs == num_jobs
    assert peak_resident_jobs >= 1
    # The bound the tier exists to demonstrate: resident jobs track
    # concurrency, not trace length.
    assert residency_ratio < _RESIDENCY_BOUND, (
        f"peak resident jobs {peak_resident_jobs} is "
        f"{residency_ratio:.1%} of the {num_jobs}-job tier"
    )
