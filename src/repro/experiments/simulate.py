"""The simulating half of replay and comparison: everything a cache miss runs.

:mod:`repro.experiments.runner` keeps what a fully cached replay needs —
plan resolution, the cache session, the fold and the digest — and imports
this module only when at least one (policy, seed, shard) slice must be
simulated.  Here live the executor fan-out, trace-to-spec adaptation (batch
shards, the streaming pipeline and lazy spec sources), the simulation
configs, warm-up and :func:`compare_policies`.

Importing this module loads the engine (through the executor), so every
worker pool the executor forks inherits an engine that is already imported.
Its source is part of the replay cache's engine fingerprint: it decides how
each slice is configured and simulated.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.core.policies.base import SpeculationPolicy
from repro.experiments.cache import (
    StaleEntryError,
    source_fingerprint,
    source_from_descriptor,
)
from repro.experiments.executor import ParallelExecutor, RunRequest
from repro.experiments.plan import PlanError, ReplayPlan
from repro.experiments.policies import needs_oracle_estimates
from repro.experiments.runner import (
    WARMUP_SEED_OFFSET,
    ComparisonResult,
    ExecutedPlan,
    ExperimentScale,
    MetricsHook,
    PolicyRun,
    StreamedReplay,
    TraceSource,
    _CacheSession,
    _calibration_scan,
    _scan_source,
)
from repro.experiments.warmup import (
    WarmupCache,
    check_warmup_seed_collision,
    policy_learns,
)
from repro.simulator.cluster import ClusterConfig
from repro.simulator.engine import SimulationConfig
from repro.simulator.metrics import MetricsCollector
from repro.simulator.sinks import SinkFactory, parse_sink_spec
from repro.workload.profiles import framework_profile
from repro.workload.synthetic import GeneratedWorkload, WorkloadConfig, generate_workload
from repro.workload.trace_replay import (
    ClusterSpecSource,
    ClusterTierConfig,
    TraceReplayConfig,
    TraceSpecSource,
    TraceWorkload,
    iter_cluster_trace,
    iter_job_specs,
    iter_trace_shards,
    slice_trace,
    straggler_cap_from_ratio,
    trace_to_workload,
)
from repro.workload.traces import TraceJob, TraceScan, iter_trace, load_trace


def replay_config_for(plan: ReplayPlan) -> TraceReplayConfig:
    """The trace-adaptation knobs a plan sets."""
    return TraceReplayConfig(
        framework=plan.framework, bound_kind=plan.bound_kind, seed=plan.seed
    )


def stand_in_workload(
    replay_config: TraceReplayConfig, num_jobs: int
) -> GeneratedWorkload:
    """The spec-less workload a streamed or cache-restored comparison carries:
    the replay's config, no job specs (materialising them is what those
    paths avoid)."""
    return GeneratedWorkload(
        config=WorkloadConfig(
            workload="trace",
            framework=replay_config.framework,
            num_jobs=num_jobs,
            bound_kind=replay_config.bound_kind,
            seed=replay_config.seed,
            dag_length=replay_config.dag_length,
            intermediate_task_fraction=replay_config.intermediate_task_fraction,
            deadline_slack_range=replay_config.deadline_slack_range,
            error_range=replay_config.error_range,
        )
    )


def build_simulation_config(
    workload: GeneratedWorkload,
    scale: ExperimentScale,
    seed: int,
    oracle_estimates: bool,
) -> SimulationConfig:
    """Simulation config matching a generated workload's framework profile."""
    framework = workload.config.framework_profile
    return SimulationConfig(
        cluster=ClusterConfig(num_machines=scale.num_machines, seed=seed),
        stragglers=framework.stragglers,
        estimator=framework.estimator,
        seed=seed,
        oracle_estimates=oracle_estimates,
    )


def run_policy(
    workload: GeneratedWorkload,
    policy: SpeculationPolicy,
    scale: ExperimentScale,
    seed: int,
    oracle_estimates: bool = False,
    warmup: Optional[GeneratedWorkload] = None,
) -> MetricsCollector:
    """Run one policy instance over one workload (optionally warmed up first).

    The instance may carry state (a warm-started GRASS learner), so the run
    executes in-process; use :func:`compare_policies` with ``workers`` to fan
    registry-named policies out over processes.
    """
    request = RunRequest(
        workload=workload,
        config=build_simulation_config(workload, scale, seed, oracle_estimates),
        policy=policy,
        warmup=warmup,
    )
    return ParallelExecutor(workers=1).run([request])[0]


def _execute_replay(
    policy_names: Sequence[str],
    trace: Sequence[TraceJob],
    replay_config: Optional[TraceReplayConfig] = None,
    scale: Optional[ExperimentScale] = None,
    shards: int = 1,
    workers: Optional[int] = None,
    sink: Optional[SinkFactory] = None,
    on_metrics: Optional[MetricsHook] = None,
    cache: Optional[_CacheSession] = None,
) -> ComparisonResult:
    """Replay a trace under the named policies and collect their results.

    The engine-facing twin of :func:`compare_policies` for trace-driven
    evaluation (§5/§6 methodology): the trace is adapted into the same
    ``JobSpec`` stream the synthetic generator emits, split into ``shards``
    arrival-window shards, and every (policy, seed, shard) triple fans out
    over the :class:`ParallelExecutor` as an independent simulation.

    Determinism mirrors ``compare_policies``: per-job bounds are seeded from
    ``(replay_config.seed, job_id)`` alone, every shard replays under the
    *full* trace's observed straggler severity, requests carry explicit
    seeds, and the merge happens in fixed (policy, seed, shard) order — so
    the result is byte-identical for any ``workers`` value.

    ``scale`` contributes the cluster size, seeds and default worker count;
    its workload-synthesis knobs (``num_jobs``, ``size_scale``, ...) are
    ignored because the trace decides the workload.

    ``sink`` picks where each simulation's per-job results go (default:
    retain them all).  With a non-retaining sink the merged comparison
    carries aggregates only — ``runs[name].aggregates`` — and its
    ``results`` lists stay empty; the digest and the summary statistics are
    identical either way.
    """
    scale = scale or ExperimentScale()
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if workers is None:
        workers = scale.workers
    replay_config = replay_config or TraceReplayConfig()
    sink = sink or SinkFactory()

    full = trace_to_workload(trace, replay_config)
    if shards == 1:
        shard_workloads: List[TraceWorkload] = [full]
    else:
        shard_traces = slice_trace(trace, shards)
        shard_workloads = [
            trace_to_workload(
                shard,
                replay_config,
                shard_index=index,
                num_shards=len(shard_traces),
                stragglers=full.stragglers,
            )
            for index, shard in enumerate(shard_traces)
        ]

    def shard_config(seed: int, oracle: bool) -> SimulationConfig:
        base = build_simulation_config(full.workload, scale, seed, oracle)
        return replace(base, stragglers=full.stragglers)

    # Cache partition: coordinates already restored by the session's probe
    # never become requests; everything else fans out exactly as before, and
    # the merge below interleaves restored and fresh metrics back into the
    # same deterministic (policy, seed, shard) order — so the digest is
    # byte-identical whether 0%, some or 100% of the grid was cached.
    requests = [
        RunRequest(
            workload=shard_workloads[shard_index].workload,
            config=shard_config(seed, needs_oracle_estimates(name)),
            policy_name=name,
            sink_factory=sink.with_tag(f"{name}-seed{seed}-shard{shard_index}"),
        )
        for name in policy_names
        for seed in scale.seeds
        for shard_index in range(len(shard_workloads))
        if cache is None or cache.hit(name, seed, shard_index) is None
    ]
    fresh = iter(ParallelExecutor(workers=workers).run(requests))

    comparison = ComparisonResult(workload=full.workload)
    for name in policy_names:
        run = PolicyRun(policy_name=name)
        for seed in scale.seeds:
            for shard_index in range(len(shard_workloads)):
                metrics = (
                    cache.hit(name, seed, shard_index) if cache is not None else None
                )
                if metrics is None:
                    metrics = next(fresh)
                    if cache is not None:
                        cache.store(name, seed, shard_index, metrics)
                if metrics.retains_results:
                    run.results.extend(metrics.results)
                run.metrics.append(metrics)
                if on_metrics is not None:
                    on_metrics(name, seed, shard_index, metrics)
        comparison.runs[name] = run
    return comparison


def replay(
    policy_names: Sequence[str],
    trace: Sequence[TraceJob],
    replay_config: Optional[TraceReplayConfig] = None,
    scale: Optional[ExperimentScale] = None,
    shards: int = 1,
    workers: Optional[int] = None,
    sink: Optional[SinkFactory] = None,
) -> ComparisonResult:
    """Deprecated: build a :class:`ReplayPlan` and call :func:`execute`.

    Thin shim over the batch replay internals, kept for one release so
    existing callers keep working; it is byte-identical to
    ``execute(plan)`` with ``stream=stream_specs=False`` over the same
    trace.  See :mod:`repro.experiments.plan` for the replacement API.
    """
    warnings.warn(
        "runner.replay() is deprecated and will be removed in the next "
        "release; build a ReplayPlan and call runner.execute(plan)",
        DeprecationWarning,
        stacklevel=2,
    )
    return _execute_replay(
        policy_names,
        trace,
        replay_config=replay_config,
        scale=scale,
        shards=shards,
        workers=workers,
        sink=sink,
    )


class _ResidencyTracker:
    """Counts trace shards alive in this process (built, not yet merged).

    Streaming replay's request generator calls :meth:`built` when it
    materialises a shard's workload and the merge loop calls :meth:`freed`
    when the shard's last result lands; both run on the same thread (the
    executor pulls requests from the merge loop's thread), so plain counters
    suffice.  ``peak`` is the number the ``--max-resident-shards`` contract
    is checked against.
    """

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def built(self) -> None:
        self.current += 1
        self.peak = max(self.peak, self.current)

    def freed(self) -> None:
        self.current -= 1


def _source_jobs(source: TraceSource):
    """The lazy job stream of a replay source (file parse or generation)."""
    if isinstance(source, ClusterTierConfig):
        return iter_cluster_trace(source)
    return iter_trace(source)


def _execute_replay_stream(
    policy_names: Sequence[str],
    trace_path: TraceSource,
    replay_config: Optional[TraceReplayConfig] = None,
    scale: Optional[ExperimentScale] = None,
    shards: int = 1,
    workers: Optional[int] = None,
    max_resident_shards: int = 2,
    stream_specs: bool = False,
    sink: Optional[SinkFactory] = None,
    on_metrics: Optional[MetricsHook] = None,
    cache: Optional[_CacheSession] = None,
    scan=None,
) -> StreamedReplay:
    """Replay a JSONL trace as a bounded-memory streaming pipeline.

    The streaming twin of :func:`replay` for traces too large to hold in
    memory.  ``trace_path`` may also be a
    :class:`~repro.workload.trace_replay.ClusterTierConfig` — the generated
    million-job tier — in which case every pass below runs over the lazy
    generator instead of a file (with ``stream_specs`` the requests carry a
    :class:`~repro.workload.trace_replay.ClusterSpecSource` and each worker
    regenerates exactly its shard's window, random-access, so no process
    ever holds any slice of the trace).  Two passes over the file:

    1. **Calibration scan** (``traces.scan_trace``): bounded memory (it
       retains job *ids* for duplicate detection, never task payloads);
       yields the job count (shard boundaries need it) and the mean
       slowest-to-median ratio (every shard replays under the *full*
       trace's observed straggler severity — the same pinning the batch
       path does).
    2. **Streamed replay**: shards are parsed lazily
       (:func:`~repro.workload.trace_replay.iter_trace_shards`), adapted to
       workloads one at a time, and their (policy, seed) requests fed to
       :meth:`ParallelExecutor.run_stream` — shard ``k+1`` parses while
       shard ``k`` simulates.

    At most ``max_resident_shards`` shard workloads exist in this process at
    once (the executor's in-flight window is sized to
    ``(max_resident_shards - 1) * requests_per_shard + 1``, which provably
    bounds the span of unmerged requests to that many shards).
    ``max_resident_shards=1`` disables pipelining entirely; 2 (the default)
    overlaps parsing with simulation; larger values admit more parallelism
    across shards at proportional memory cost.  Worker processes briefly
    hold a pickled copy of the shard they are simulating on top of this
    parent-side bound.

    ``stream_specs`` pushes the bound *inside* each simulation: requests
    carry a lazy :class:`~repro.workload.trace_replay.TraceSpecSource`
    (a path plus shard coordinates) instead of a materialised shard
    workload, and the executing process feeds specs one at a time into the
    engine's lazy ingestion — no process ever holds a shard's spec list, so
    even an *unsharded* million-job replay runs with O(max concurrent jobs)
    resident state.  ``peak_resident_jobs`` on the result reports the
    engine's high-water mark; ``peak_resident_shards`` stays 0 because the
    parent never materialises a shard at all, and ``max_resident_shards``
    is accordingly ignored (with nothing to bound, the executor's default
    in-flight window keeps every worker busy instead).  (The parent still collects
    the per-job metadata the figure breakdowns need with one extra
    spec-construction pass — small records only, never task payloads.)

    Determinism: the requests are value-identical to :func:`replay`'s for
    the same ``shards`` count and the merge is reassembled in the batch
    path's (policy, seed, shard) order, so the metrics digest is identical
    to batch replay at the same shard split for any ``workers``, any
    ``max_resident_shards`` and either ``stream_specs`` setting —
    spec-streaming produces byte-identical specs (same per-job RNG streams)
    and a byte-identical engine event order (``tests/test_stream_specs.py``
    locks this in).  (Different shard *counts* are different experiments —
    jobs sharing a simulation contend for the cluster — which is exactly as
    true of the batch path.)

    The returned comparison's ``workload`` carries the merged per-job
    metadata but no job specs: materialising them is what this function
    exists to avoid.  With a non-retaining sink even the metadata merge is
    skipped (its only consumers slice raw results by job), leaving nothing
    in the parent that grows with the trace.

    ``sink`` picks the per-simulation result sink (see :func:`replay`).
    ``stream_specs`` + a non-retaining sink is the fully streaming
    configuration: O(1) in specs, shards *and* results — no process ever
    holds a spec list, a shard workload or a JobResult, so resident memory
    is independent of trace length end to end.

    Streaming requires the trace file to be sorted by
    ``(arrival_time, job_id)`` — the order batch replay sorts into — and
    raises ``ValueError`` otherwise.
    """
    scale = scale or ExperimentScale()
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if max_resident_shards < 1:
        raise ValueError("max_resident_shards must be at least 1")
    if workers is None:
        workers = scale.workers
    replay_config = replay_config or TraceReplayConfig()
    sink = sink or SinkFactory()

    if scan is None:
        scan = _scan_source(trace_path)
    if not scan.arrival_sorted:
        raise ValueError(
            f"streaming replay requires a trace sorted by (arrival_time, job_id); "
            f"{trace_path} is not — sort it or use batch replay"
        )
    num_shards = min(shards, scan.num_jobs)
    framework = framework_profile(replay_config.framework)
    stragglers = replace(
        framework.stragglers,
        cap=straggler_cap_from_ratio(scan.mean_slowest_to_median),
    )
    configs = {
        (name, seed): SimulationConfig(
            cluster=ClusterConfig(num_machines=scale.num_machines, seed=seed),
            stragglers=stragglers,
            estimator=framework.estimator,
            seed=seed,
            oracle_estimates=needs_oracle_estimates(name),
        )
        for name in policy_names
        for seed in scale.seeds
    }

    residency = _ResidencyTracker()
    # Per-job metadata only serves consumers that slice *raw results* by job
    # (the figure breakdowns); with a non-retaining sink there is nothing to
    # slice, and skipping the merge removes the last parent-side O(trace)
    # structure — resident memory becomes independent of trace length.
    collect_metadata = sink.retains_results
    merged_metadata: Dict[int, object] = {}

    # Cache partition in the exact shard-major order the request generator
    # yields: the merge loop maps completion index -> miss_coords[index], so
    # the pipeline never assumes a full (policy, seed, shard) grid.  Without
    # a cache session every coordinate is a miss and behaviour is unchanged.
    miss_coords: List[tuple] = []
    shard_misses: Dict[int, int] = {}
    for shard_index in range(num_shards):
        for name in policy_names:
            for seed in scale.seeds:
                if cache is not None and cache.hit(name, seed, shard_index) is not None:
                    continue
                miss_coords.append((name, seed, shard_index))
                shard_misses[shard_index] = shard_misses.get(shard_index, 0) + 1
    miss_lookup = dict.fromkeys(miss_coords)

    if cache is not None and on_metrics is not None and cache.restored:
        # Restored chunks stream out before any simulation completes, in the
        # same shard-major order fresh completions use; delta consumers (the
        # service's clients) refold chunks by coordinate, so early hits never
        # perturb the reassembled digest.
        for shard_index in range(num_shards):
            for name in policy_names:
                for seed in scale.seeds:
                    metrics = cache.hit(name, seed, shard_index)
                    if metrics is not None:
                        on_metrics(name, seed, shard_index, metrics)

    def request_stream():
        if stream_specs:
            # Lazy-spec requests: a picklable description per shard, nothing
            # materialised in this process; the executing side streams the
            # shard's specs straight into the engine.
            for shard_index in range(num_shards):
                if shard_misses.get(shard_index, 0) == 0:
                    continue  # every coordinate of this shard was cached
                if isinstance(trace_path, ClusterTierConfig):
                    source = ClusterSpecSource(
                        tier=trace_path,
                        replay_config=replay_config,
                        shard_index=shard_index,
                        num_shards=num_shards,
                    )
                else:
                    source = TraceSpecSource(
                        trace_path=str(trace_path),
                        replay_config=replay_config,
                        shard_index=shard_index,
                        num_shards=num_shards,
                        total_jobs=scan.num_jobs,
                    )
                for name in policy_names:
                    for seed in scale.seeds:
                        if (name, seed, shard_index) not in miss_lookup:
                            continue
                        yield RunRequest(
                            spec_source=source,
                            config=configs[(name, seed)],
                            policy_name=name,
                            sink_factory=sink.with_tag(
                                f"{name}-seed{seed}-shard{shard_index}"
                            ),
                        )
            return
        shard_stream = iter_trace_shards(
            _source_jobs(trace_path), num_shards, scan.num_jobs
        )
        for shard_index in range(num_shards):
            shard_jobs = next(shard_stream)
            if shard_misses.get(shard_index, 0) == 0:
                # Every coordinate of this shard was restored from the cache:
                # parse past its jobs without adapting them into a workload
                # (the expensive per-job spec/bound derivation).
                del shard_jobs
                continue
            shard = trace_to_workload(
                shard_jobs,
                replay_config,
                shard_index=shard_index,
                num_shards=num_shards,
                stragglers=stragglers,
            )
            del shard_jobs
            residency.built()
            if collect_metadata:
                merged_metadata.update(shard.workload.metadata)
            for name in policy_names:
                for seed in scale.seeds:
                    if (name, seed, shard_index) not in miss_lookup:
                        continue
                    yield RunRequest(
                        workload=shard.workload,
                        config=configs[(name, seed)],
                        policy_name=name,
                        sink_factory=sink.with_tag(
                            f"{name}-seed{seed}-shard{shard_index}"
                        ),
                    )
            # Drop our reference before the consumer pulls the next shard's
            # first request, so "resident" counts real objects, not leaks.
            del shard

    per_shard = len(policy_names) * len(scale.seeds)
    if stream_specs:
        # No shard workload is ever resident here, so the residency window
        # has nothing to bound — spec-source requests are tiny descriptions;
        # let the executor keep every worker busy (its 2*workers default).
        window = None
    else:
        window = max(1, (max_resident_shards - 1) * per_shard + 1)
    executor = ParallelExecutor(workers=workers)
    collected: Dict[tuple, MetricsCollector] = {}
    peak_resident_jobs = 0
    remaining_misses = dict(shard_misses)
    for index, metrics in enumerate(
        executor.run_stream(request_stream(), max_in_flight=window)
    ):
        name, seed, shard_index = miss_coords[index]
        collected[(name, seed, shard_index)] = metrics
        if cache is not None:
            cache.store(name, seed, shard_index, metrics)
        if on_metrics is not None:
            # Completion order here is request order — shard-major — so a
            # streaming consumer (the replay service's delta emitter) sees
            # shard k's chunks before any of shard k+1's.
            on_metrics(name, seed, shard_index, metrics)
        if not stream_specs:
            remaining_misses[shard_index] -= 1
            if remaining_misses[shard_index] == 0:
                residency.freed()
    if stream_specs and collect_metadata:
        # The workers never ship metadata home, so collect it here with one
        # streaming spec-construction pass: O(#jobs) small metadata records,
        # never a spec list (each constructed spec is discarded immediately).
        for _ in iter_job_specs(
            _source_jobs(trace_path), replay_config, metadata=merged_metadata
        ):
            pass

    # Reassemble in the batch path's (policy, seed, shard) order so the
    # merged results — and hence the metrics digest — are byte-identical.
    workload = stand_in_workload(replay_config, scan.num_jobs)
    workload.metadata.update(merged_metadata)
    comparison = ComparisonResult(workload=workload)
    for name in policy_names:
        run = PolicyRun(policy_name=name)
        for seed in scale.seeds:
            for shard_index in range(num_shards):
                metrics = collected.get((name, seed, shard_index))
                if metrics is None:
                    assert cache is not None
                    metrics = cache.hit(name, seed, shard_index)
                peak_resident_jobs = max(
                    peak_resident_jobs, metrics.peak_resident_jobs
                )
                if metrics.retains_results:
                    run.results.extend(metrics.results)
                run.metrics.append(metrics)
        comparison.runs[name] = run
    return StreamedReplay(
        comparison=comparison,
        num_jobs=scan.num_jobs,
        num_shards=num_shards,
        max_resident_shards=max_resident_shards,
        peak_resident_shards=residency.peak,
        stream_specs=stream_specs,
        peak_resident_jobs=peak_resident_jobs,
    )


def replay_stream(
    policy_names: Sequence[str],
    trace_path: TraceSource,
    replay_config: Optional[TraceReplayConfig] = None,
    scale: Optional[ExperimentScale] = None,
    shards: int = 1,
    workers: Optional[int] = None,
    max_resident_shards: int = 2,
    stream_specs: bool = False,
    sink: Optional[SinkFactory] = None,
) -> StreamedReplay:
    """Deprecated: build a :class:`ReplayPlan` and call :func:`execute`.

    Thin shim over the streaming replay internals, kept for one release so
    existing callers keep working; ``execute(plan)`` with ``stream=True``
    (or ``stream_specs=True``) is byte-identical.  See
    :mod:`repro.experiments.plan` for the replacement API.
    """
    warnings.warn(
        "runner.replay_stream() is deprecated and will be removed in the "
        "next release; build a ReplayPlan and call runner.execute(plan)",
        DeprecationWarning,
        stacklevel=2,
    )
    return _execute_replay_stream(
        policy_names,
        trace_path,
        replay_config=replay_config,
        scale=scale,
        shards=shards,
        workers=workers,
        max_resident_shards=max_resident_shards,
        stream_specs=stream_specs,
        sink=sink,
    )


def resimulate_cached_entry(payload: Dict[str, object]) -> str:
    """Re-run the simulation a cache entry memoizes; fresh chunk digest (hex).

    The ``cache verify`` backend: an entry's slice fields plus its source
    descriptor fully determine one (policy, seed, shard) simulation, so a
    digest mismatch against the stored chunk means the cache lied.  The
    re-run uses the lazy spec-source path — byte-identical specs and engine
    event order to every other mode (the stream-specs determinism contract).

    Raises :class:`~repro.experiments.cache.StaleEntryError` when the
    recorded source has moved or its content changed since the entry was
    written — there is nothing honest to compare against.
    """
    slice_wire = payload.get("slice")
    descriptor = payload.get("source")
    if not isinstance(slice_wire, dict) or not isinstance(descriptor, dict):
        raise StaleEntryError("entry has no slice/source fields")
    source = source_from_descriptor(descriptor)
    try:
        fingerprint = source_fingerprint(source)
    except OSError as exc:
        raise StaleEntryError(f"source unavailable: {exc}") from None
    if fingerprint != slice_wire.get("source"):
        raise StaleEntryError("source content changed since the entry was written")
    scan = _calibration_scan(source, fingerprint)
    try:
        policy = str(slice_wire["policy"])
        sim_seed = int(slice_wire["sim_seed"])
        shard_index = int(slice_wire["shard"])
        num_shards = int(slice_wire["num_shards"])
        num_machines = int(slice_wire["num_machines"])
        replay_config = TraceReplayConfig(
            framework=str(slice_wire["framework"]),
            bound_kind=str(slice_wire["bound_kind"]),
            seed=int(slice_wire["assignment_seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StaleEntryError(f"unreadable slice fields: {exc}") from None
    framework = framework_profile(replay_config.framework)
    stragglers = replace(
        framework.stragglers,
        cap=straggler_cap_from_ratio(scan.mean_slowest_to_median),
    )
    config = SimulationConfig(
        cluster=ClusterConfig(num_machines=num_machines, seed=sim_seed),
        stragglers=stragglers,
        estimator=framework.estimator,
        seed=sim_seed,
        oracle_estimates=needs_oracle_estimates(policy),
    )
    if isinstance(source, ClusterTierConfig):
        spec_source = ClusterSpecSource(
            tier=source,
            replay_config=replay_config,
            shard_index=shard_index,
            num_shards=num_shards,
        )
    else:
        spec_source = TraceSpecSource(
            trace_path=str(source),
            replay_config=replay_config,
            shard_index=shard_index,
            num_shards=num_shards,
            total_jobs=scan.num_jobs,
        )
    request = RunRequest(
        spec_source=spec_source,
        config=config,
        policy_name=policy,
        sink_factory=SinkFactory(kind="aggregate").with_tag(
            f"{policy}-seed{sim_seed}-shard{shard_index}"
        ),
    )
    metrics = ParallelExecutor(workers=1).run([request])[0]
    return metrics.aggregates.chunks[0].digest.hex()


def execute_misses(
    plan: ReplayPlan,
    scale: ExperimentScale,
    source: TraceSource,
    session: Optional[_CacheSession],
    scan: Optional[TraceScan],
    on_metrics: Optional[MetricsHook] = None,
) -> ExecutedPlan:
    """The simulating part of :func:`repro.experiments.runner.execute`.

    Runs every coordinate the cache ``session`` did not restore (all of them
    without a session) in the plan's mode and folds restored and fresh
    slices in the deterministic merge order.  ``scan`` is the session's
    calibration scan, or ``None`` without a cache.
    """
    replay_config = replay_config_for(plan)
    sink = parse_sink_spec(plan.sink)
    cache_stats = session.cache.counters if session is not None else None
    if plan.streaming:
        streamed = _execute_replay_stream(
            plan.policies,
            source,
            replay_config=replay_config,
            scale=scale,
            shards=plan.shards,
            workers=plan.workers,
            max_resident_shards=plan.max_resident_shards,
            stream_specs=plan.stream_specs,
            sink=sink,
            on_metrics=on_metrics,
            cache=session,
            scan=scan,
        )
        return ExecutedPlan(
            plan=plan,
            comparison=streamed.comparison,
            num_jobs=streamed.num_jobs,
            num_shards=streamed.num_shards,
            streamed=streamed,
            cache_stats=cache_stats,
        )
    if isinstance(source, ClusterTierConfig):
        # Batch replay of the generated tier materialises it — fine for
        # digest-parity checks at small N; million-job runs belong on
        # ``stream_specs``.
        trace = list(iter_cluster_trace(source))
    else:
        trace = load_trace(source)
    if not trace:
        raise PlanError(f"trace is empty: {plan.source_label}")
    comparison = _execute_replay(
        plan.policies,
        trace,
        replay_config=replay_config,
        scale=scale,
        shards=plan.shards,
        workers=plan.workers,
        sink=sink,
        on_metrics=on_metrics,
        cache=session,
    )
    return ExecutedPlan(
        plan=plan,
        comparison=comparison,
        num_jobs=len(trace),
        num_shards=min(plan.shards, len(trace)),
        streamed=None,
        cache_stats=cache_stats,
    )


def compare_policies(
    policy_names: Sequence[str],
    workload_config: WorkloadConfig,
    scale: Optional[ExperimentScale] = None,
    warmup: bool = True,
    workers: Optional[int] = None,
    warm_cache: bool = True,
    sink: Optional[SinkFactory] = None,
) -> ComparisonResult:
    """Run the named policies over one workload and collect their results.

    Every policy sees exactly the same jobs, the same cluster and the same
    straggler draws (the straggler model keys durations on the job, task and
    copy index, not on the policy's decisions), so differences are entirely
    due to scheduling.

    ``workers`` fans the independent (policy, seed) simulations out over
    that many processes (0 = auto, default = ``scale.workers``).  Each run is
    explicitly seeded and the merge happens in a fixed (policy, seed) order,
    so the result is byte-identical to the serial path.

    Warm-up semantics: learning policies (GRASS) first process a separate
    warm-up workload whose generation *and* simulation are seeded by
    ``workload seed + WARMUP_SEED_OFFSET`` — independent of the run seed, so
    one warmed state serves every seed.  With ``warm_cache`` (the default)
    each learning policy is warmed exactly once and its state snapshot is
    shipped to the workers; with ``warm_cache=False`` every request
    re-simulates the warm-up.  Both paths produce byte-identical metrics —
    the cache is purely a wall-clock optimisation.  Stateless policies are
    never warmed: warm-up cannot affect a policy without cross-job state.

    ``sink`` picks the per-simulation result sink (see :func:`replay`);
    figure producers that slice raw results by workload metadata need the
    retaining default.
    """
    scale = scale or ExperimentScale()
    if workers is None:
        workers = scale.workers
    sink = sink or SinkFactory()
    generator_config = replace(
        workload_config,
        num_jobs=scale.num_jobs,
        size_scale=scale.size_scale,
        max_tasks_per_job=scale.max_tasks_per_job,
    )
    workload = generate_workload(generator_config)
    warmup_workload: Optional[GeneratedWorkload] = None
    warmup_sim_config: Optional[SimulationConfig] = None
    cache: Optional[WarmupCache] = None
    if warmup and scale.warmup_jobs > 0:
        warm_seed = generator_config.seed + WARMUP_SEED_OFFSET
        # A measured seed equal to the warm-up seed would silently measure
        # the very simulation the policy warmed up on; refuse it whether or
        # not the cache path is taken (the cache re-checks defensively).
        check_warmup_seed_collision(warm_seed, scale.seeds)
        warmup_generator_config = replace(
            generator_config,
            num_jobs=scale.warmup_jobs,
            seed=warm_seed,
        )
        warmup_workload = generate_workload(warmup_generator_config)
        warmup_sim_config = build_simulation_config(
            workload, scale, warm_seed, oracle_estimates=False
        )
        if warm_cache:
            cache = WarmupCache(
                warmup_workload, warmup_sim_config, measured_seeds=scale.seeds
            )
            cache.prewarm(
                policy_names, workers=ParallelExecutor(workers=workers).workers
            )

    def warm_fields(name: str) -> dict:
        if warmup_workload is None or not policy_learns(name):
            return {}
        if cache is not None:
            return {"warm_state": cache.snapshot_for(name)}
        return {"warmup": warmup_workload, "warmup_config": warmup_sim_config}

    requests = [
        RunRequest(
            workload=workload,
            config=build_simulation_config(
                workload, scale, seed, needs_oracle_estimates(name)
            ),
            policy_name=name,
            sink_factory=sink.with_tag(f"{name}-seed{seed}"),
            **warm_fields(name),
        )
        for name in policy_names
        for seed in scale.seeds
    ]
    all_metrics = ParallelExecutor(workers=workers).run(requests)

    comparison = ComparisonResult(workload=workload)
    index = 0
    for name in policy_names:
        run = PolicyRun(policy_name=name)
        for _seed in scale.seeds:
            metrics = all_metrics[index]
            index += 1
            if metrics.retains_results:
                run.results.extend(metrics.results)
            run.metrics.append(metrics)
        comparison.runs[name] = run
    return comparison
