"""The materialised reference the replay pipeline is checked against.

Replay streams every shard's specs lazily from its source; this helper does
the same experiment the slow, obvious way: load the whole trace, adapt it
with ``trace_to_workload`` + ``slice_trace`` and run each (policy, seed,
shard) slice over its materialised workload, in merge order.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.experiments.executor import RunRequest
from repro.experiments.policies import needs_oracle_estimates
from repro.experiments.runner import (
    ComparisonResult,
    ExperimentScale,
    PolicyRun,
    build_simulation_config,
    replay_source,
)
from repro.simulator.sinks import SinkFactory
from repro.workload.trace_replay import TraceReplayConfig, slice_trace, trace_to_workload
from repro.workload.traces import save_trace


def reference_replay(policy_names, trace, replay_config=None, scale=None, shards=1, sink=None):
    """``ComparisonResult`` of the trace records ``trace``, materialised."""
    replay_config = replay_config or TraceReplayConfig()
    scale = scale or ExperimentScale()
    sink = sink or SinkFactory()
    full = trace_to_workload(trace, replay_config)
    shard_traces = slice_trace(trace, shards)
    workloads = [
        trace_to_workload(shard, replay_config, stragglers=full.stragglers).workload
        for shard in shard_traces
    ]
    comparison = ComparisonResult(workload=full.workload)
    for name in policy_names:
        run = comparison.runs[name] = PolicyRun(policy_name=name)
        for seed in scale.seeds:
            base = build_simulation_config(full.workload, scale, seed, needs_oracle_estimates(name))
            for index, workload in enumerate(workloads):
                metrics = RunRequest(
                    workload=workload,
                    config=replace(base, stragglers=full.stragglers),
                    policy_name=name,
                    sink_factory=sink.with_tag(f"{name}-seed{seed}-shard{index}"),
                ).execute()
                if metrics.retains_results:
                    run.results.extend(metrics.results)
                run.metrics.append(metrics)
    return comparison


def pipeline_replay(policy_names, trace, directory, **kwargs):
    """``replay_source`` over the records ``trace``, saved under ``directory``."""
    path = Path(directory) / "trace.jsonl"
    save_trace(trace, path)
    return replay_source(policy_names, path, **kwargs)
