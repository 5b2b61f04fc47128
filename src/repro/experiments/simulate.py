"""The simulating half of replay and comparison: everything a cache miss runs.

:mod:`repro.experiments.runner` keeps what a fully cached replay needs —
plan resolution, the cache session, the fold and the digest — and imports
this module only when at least one (policy, seed, shard) slice must be
simulated.  Here live the replay pipeline (:func:`replay_source`: one
calibration scan, lazy spec-source requests, one executor fan-out, one
merge), the simulation configs, warm-up and :func:`compare_policies`.

Importing this module loads the engine (through the executor), so every
worker pool the executor forks inherits an engine that is already imported.
Its source is part of the replay cache's engine fingerprint: it decides how
each slice is configured and simulated.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

from repro.core.policies.base import SpeculationPolicy
from repro.experiments.cache import (
    StaleEntryError,
    source_fingerprint,
    source_from_descriptor,
)
from repro.experiments.executor import ParallelExecutor, RunRequest
from repro.experiments.plan import ReplayPlan
from repro.experiments.policies import needs_oracle_estimates
from repro.experiments.runner import (
    WARMUP_SEED_OFFSET,
    ComparisonResult,
    ExecutedPlan,
    ExperimentScale,
    MetricsHook,
    TraceSource,
    _CacheSession,
    _calibration_scan,
    merge_runs,
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
    straggler_cap_from_ratio,
)
from repro.workload.traces import TraceScan


def replay_config_for(plan: ReplayPlan) -> TraceReplayConfig:
    """The trace-adaptation knobs a plan sets."""
    return TraceReplayConfig(
        framework=plan.framework, bound_kind=plan.bound_kind, seed=plan.seed
    )


def stand_in_workload(
    replay_config: TraceReplayConfig, num_jobs: int
) -> GeneratedWorkload:
    """The spec-less workload a replayed comparison carries: the replay's
    config, no job specs (materialising them is what replay avoids)."""
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


def _spec_source(
    source: TraceSource,
    replay_config: TraceReplayConfig,
    shard_index: int,
    num_shards: int,
    total_jobs: int,
):
    """The lazy spec source of one arrival-window shard of a replay source."""
    if isinstance(source, ClusterTierConfig):
        return ClusterSpecSource(
            tier=source,
            replay_config=replay_config,
            shard_index=shard_index,
            num_shards=num_shards,
        )
    return TraceSpecSource(
        trace_path=str(source),
        replay_config=replay_config,
        shard_index=shard_index,
        num_shards=num_shards,
        total_jobs=total_jobs,
    )


def _slice_config(
    replay_config: TraceReplayConfig,
    scan: TraceScan,
    num_machines: int,
    seed: int,
    policy_name: str,
) -> SimulationConfig:
    """The simulation config of one (policy, seed) replay slice.

    Every shard replays under the *whole* source's observed straggler
    severity (the scan's mean slowest-to-median ratio), not its own window's.
    """
    framework = framework_profile(replay_config.framework)
    return SimulationConfig(
        cluster=ClusterConfig(num_machines=num_machines, seed=seed),
        stragglers=replace(
            framework.stragglers,
            cap=straggler_cap_from_ratio(scan.mean_slowest_to_median),
        ),
        estimator=framework.estimator,
        seed=seed,
        oracle_estimates=needs_oracle_estimates(policy_name),
    )


def replay_source(
    policy_names: Sequence[str],
    source: TraceSource,
    replay_config: Optional[TraceReplayConfig] = None,
    scale: Optional[ExperimentScale] = None,
    shards: int = 1,
    workers: Optional[int] = None,
    sink: Optional[SinkFactory] = None,
    on_metrics: Optional[MetricsHook] = None,
    cache: Optional[_CacheSession] = None,
    scan: Optional[TraceScan] = None,
) -> ComparisonResult:
    """Replay a trace file or generated tier under the named policies.

    The one replay pipeline (§5/§6 methodology).  ``source`` is scanned once
    (``scan``, when the caller already holds it, e.g. from the cache's scan
    record): the scan yields the job count that fixes the arrival-window
    shard boundaries, the straggler cap every shard replays under, and
    whether the source is sorted by ``(arrival_time, job_id)`` — an unsorted
    trace raises :class:`~repro.workload.traces.TraceFormatError` before any
    simulation.  Every (policy, seed, shard) slice the ``cache`` session did
    not restore then becomes a :class:`RunRequest` carrying a lazy spec
    source (a path or tier config plus shard coordinates), so this process
    never loads or adapts the trace body; the executing process — a worker,
    or this one at ``workers=1`` — streams the shard's specs straight into
    the engine, which evicts finished jobs.  Resident state is therefore
    O(max concurrent jobs) in every process.

    Restored and fresh slices fold in the fixed (policy, seed, shard) order,
    and cache stores and ``on_metrics`` follow that same order, so the
    result is byte-identical for any ``workers`` and any sink.  (Different
    shard *counts* are different experiments: jobs sharing a simulation
    contend for the cluster.)

    ``scale`` contributes the cluster size, seeds and default worker count;
    its workload-synthesis knobs are ignored because the source decides the
    workload.  ``sink`` picks where each simulation's per-job results go
    (default: retain them all).  With a retaining sink the comparison's
    workload also carries every job's metadata (for the figure breakdowns),
    collected with one extra spec-construction pass — small records only,
    never task payloads; its ``job_specs`` stay empty either way.
    """
    scale = scale or ExperimentScale()
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if workers is None:
        workers = scale.workers
    replay_config = replay_config or TraceReplayConfig()
    sink = sink or SinkFactory()
    if scan is None:
        scan = _calibration_scan(source)
    num_shards = min(shards, scan.num_jobs)

    coordinates = [
        (name, seed, shard_index)
        for name in policy_names
        for seed in scale.seeds
        for shard_index in range(num_shards)
    ]
    misses = [c for c in coordinates if cache is None or cache.hit(*c) is None]
    requests = [
        RunRequest(
            spec_source=_spec_source(
                source, replay_config, shard_index, num_shards, scan.num_jobs
            ),
            config=_slice_config(
                replay_config, scan, scale.num_machines, seed, name
            ),
            policy_name=name,
            sink_factory=sink.with_tag(f"{name}-seed{seed}-shard{shard_index}"),
        )
        for name, seed, shard_index in misses
    ]
    fresh = dict(zip(misses, ParallelExecutor(workers=workers).run(requests)))

    def slice_metrics(name: str, seed: int, shard_index: int) -> MetricsCollector:
        metrics = fresh.get((name, seed, shard_index))
        if metrics is None:
            return cache.hit(name, seed, shard_index)
        if cache is not None:
            cache.store(name, seed, shard_index, metrics)
        return metrics

    workload = stand_in_workload(replay_config, scan.num_jobs)
    if sink.retains_results:
        whole = _spec_source(source, replay_config, 0, 1, scan.num_jobs)
        for _ in whole.iter_specs(metadata=workload.metadata):
            pass
    return merge_runs(
        ComparisonResult(workload=workload),
        policy_names,
        scale.seeds,
        num_shards,
        slice_metrics,
        on_metrics,
    )


def resimulate_cached_entry(payload: Dict[str, object]) -> str:
    """Re-run the simulation a cache entry memoizes; fresh chunk digest (hex).

    The ``cache verify`` backend: an entry's slice fields plus its source
    descriptor fully determine one (policy, seed, shard) simulation, so a
    digest mismatch against the stored chunk means the cache lied.  The
    re-run builds the same lazy spec-source request a replay builds.

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
    request = RunRequest(
        spec_source=_spec_source(
            source, replay_config, shard_index, num_shards, scan.num_jobs
        ),
        config=_slice_config(replay_config, scan, num_machines, sim_seed, policy),
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
    scan: TraceScan,
    on_metrics: Optional[MetricsHook] = None,
) -> ExecutedPlan:
    """The simulating part of :func:`repro.experiments.runner.execute`.

    Runs every coordinate the cache ``session`` did not restore (all of them
    without a session) through :func:`replay_source` and folds restored and
    fresh slices in the deterministic merge order.
    """
    comparison = replay_source(
        plan.policies,
        source,
        replay_config=replay_config_for(plan),
        scale=scale,
        shards=plan.shards,
        workers=plan.workers,
        sink=parse_sink_spec(plan.sink),
        on_metrics=on_metrics,
        cache=session,
        scan=scan,
    )
    return ExecutedPlan(
        plan=plan,
        comparison=comparison,
        num_jobs=scan.num_jobs,
        num_shards=min(plan.shards, scan.num_jobs),
        cache_stats=session.cache.counters if session is not None else None,
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

    ``sink`` picks the per-simulation result sink (see :func:`replay_source`);
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
    all_metrics = iter(ParallelExecutor(workers=workers).run(requests))
    return merge_runs(
        ComparisonResult(workload=workload),
        policy_names,
        scale.seeds,
        1,
        lambda _name, _seed, _shard: next(all_metrics),
    )
