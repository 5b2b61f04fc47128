"""Runs workloads under speculation policies and computes the paper's metrics.

The central object is :class:`ComparisonResult`: per-policy job results over
the *same* workload (same jobs, same straggler draws), from which the paper's
improvement percentages — accuracy gains for deadline-bound jobs, speedups
for error-bound jobs — are derived overall, per job bin, per deadline bin and
per error bin.

This module holds only what a fully cached replay runs: plan resolution,
the replay-cache session, the fold of restored slices and the digest.
Everything that simulates — the executor fan-out, the engine, trace-to-spec
adaptation, warm-up and :func:`compare_policies` — lives in
:mod:`repro.experiments.simulate`, which :func:`execute` imports only when a
slice misses.  Those names are still importable from here (resolved lazily
on first access).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro._lazy import lazy_exports
from repro.core.bounds import BoundType
from repro.core.job import JobResult
from repro.experiments.cache import (
    CacheCounters,
    CachedSlice,
    ReplayCache,
    source_descriptor,
    source_fingerprint,
)
from repro.experiments.plan import PlanError, ReplayPlan
from repro.simulator.metrics import MetricsCollector
from repro.simulator.sinks import (
    StreamingAggregates,
    fold_run_digests,
    results_with_bound,
)
from repro.utils.stats import mean
from repro.workload.bins import deadline_bin_label, error_bin_label
from repro.workload.traces import ClusterTierConfig, TraceScan, scan_trace

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.workload.synthetic import GeneratedWorkload

#: The miss path's public names, served from :mod:`repro.experiments.simulate`.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.simulate": (
            "build_simulation_config",
            "compare_policies",
            "replay",
            "replay_stream",
            "resimulate_cached_entry",
            "run_policy",
        ),
    },
)

#: Hook invoked as each (policy, seed, shard) simulation's metrics land, in
#: the deterministic merge order: ``(policy_name, seed, shard_index, metrics)``.
#: The replay service uses it to stream per-tenant aggregate deltas while the
#: plan is still executing.
MetricsHook = Callable[[str, int, int, MetricsCollector], None]

#: Offset added to a workload's seed to derive its warm-up seed.  The
#: warm-up workload *and* the warm-up simulation share this seed, so warmed
#: policy state depends only on (policy, warm-up seed) — never on the
#: measured run's seed — which is what lets one warm-up serve every seed of
#: a multi-seed comparison (see ``repro.experiments.warmup``).
WARMUP_SEED_OFFSET = 7919


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade experiment fidelity for runtime.

    The defaults match the benchmark harness (laptop-scale, a couple of
    minutes per figure); ``paper()`` gives a larger setting for overnight
    runs closer to the trace-driven simulations of §6.
    """

    num_jobs: int = 60
    size_scale: float = 0.25
    max_tasks_per_job: int = 400
    num_machines: int = 150
    seeds: Sequence[int] = (1,)
    warmup_jobs: int = 40
    #: Worker processes used to fan (policy, seed) runs out; 1 = serial,
    #: 0 = auto-size to the machine.  Results are merged deterministically,
    #: so this knob never changes the numbers — only the wall-clock time.
    workers: int = 1

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """A very small scale for unit tests and smoke benchmarks."""
        return cls(
            num_jobs=16,
            size_scale=0.12,
            max_tasks_per_job=120,
            num_machines=80,
            seeds=(1,),
            warmup_jobs=10,
        )

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """A heavier scale approximating the paper's trace-driven simulator."""
        return cls(
            num_jobs=300,
            size_scale=1.0,
            max_tasks_per_job=2000,
            num_machines=200,
            seeds=(1, 2, 3),
            warmup_jobs=150,
        )


#: Experiment-scale factories keyed by the names a :class:`ReplayPlan` (and
#: the CLI's ``--scale`` flag) may reference.
SCALE_FACTORIES = {
    "quick": ExperimentScale.quick,
    "default": ExperimentScale,
    "paper": ExperimentScale.paper,
}


@dataclass
class PolicyRun:
    """One policy's results over one workload (possibly several seeds).

    ``results`` holds the merged raw records when the runs recorded into a
    retaining sink and stays empty under ``--sink aggregate``;
    :attr:`aggregates` is populated either way (both paths fold the same
    per-simulation chunks in the same merge order), so aggregate consumers
    — the CLI table, the digest, the overall/per-bin improvements — never
    need the raw list.
    """

    policy_name: str
    results: List[JobResult] = field(default_factory=list)
    metrics: List[MetricsCollector] = field(default_factory=list)

    @property
    def aggregates(self) -> StreamingAggregates:
        """Mergeable aggregate view over this run's per-simulation metrics."""
        if self.metrics:
            return StreamingAggregates.merged(m.aggregates for m in self.metrics)
        return StreamingAggregates.from_results(self.results)

    def deadline_results(self) -> List[JobResult]:
        return results_with_bound(self.results, BoundType.DEADLINE)

    def error_results(self) -> List[JobResult]:
        return results_with_bound(self.results, BoundType.ERROR)

    def average_accuracy(self, results: Optional[Iterable[JobResult]] = None) -> float:
        if results is None and not self.results:
            return self.aggregates.average_accuracy
        pool = list(results) if results is not None else self.deadline_results()
        if not pool:
            return 0.0
        return mean([r.accuracy for r in pool])

    def average_duration(self, results: Optional[Iterable[JobResult]] = None) -> float:
        if results is None and not self.results:
            return self.aggregates.average_duration
        pool = list(results) if results is not None else self.error_results()
        if not pool:
            return 0.0
        return mean([r.duration for r in pool])


def improvement_in_accuracy(baseline: float, improved: float) -> float:
    """Percentage improvement in average accuracy (larger accuracy is better)."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (improved - baseline) / baseline


def improvement_in_duration(baseline: float, improved: float) -> float:
    """Percentage reduction in average duration (smaller duration is better)."""
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline


@dataclass
class ComparisonResult:
    """Per-policy results over the same workload, plus the workload metadata."""

    workload: GeneratedWorkload
    runs: Dict[str, PolicyRun] = field(default_factory=dict)

    def run(self, policy_name: str) -> PolicyRun:
        return self.runs[policy_name]

    # -- overall improvements --------------------------------------------------------

    def accuracy_improvement(self, policy: str, baseline: str) -> float:
        """Figure 5 style: % improvement in average accuracy of deadline jobs.

        Answered from the runs' aggregates (as is every aggregate-only
        query on this class), so the comparison works — and reports the
        same numbers — under any result sink.
        """
        return improvement_in_accuracy(
            self.runs[baseline].aggregates.average_accuracy,
            self.runs[policy].aggregates.average_accuracy,
        )

    def duration_improvement(self, policy: str, baseline: str) -> float:
        """Figure 7 style: % reduction in average duration of error jobs."""
        return improvement_in_duration(
            self.runs[baseline].aggregates.average_duration,
            self.runs[policy].aggregates.average_duration,
        )

    # -- grouped improvements ----------------------------------------------------------

    def _grouped(self, results: Iterable[JobResult], group_fn) -> Dict[str, List[JobResult]]:
        grouped: Dict[str, List[JobResult]] = {}
        for result in results:
            grouped.setdefault(group_fn(result), []).append(result)
        return grouped

    def accuracy_improvement_by_bin(self, policy: str, baseline: str) -> Dict[str, float]:
        """Improvement per job-size bin (small / medium / large).

        Answered from the runs' :class:`StreamingAggregates` (per-bin
        accuracy stats of deadline-bound jobs), so the breakdown works under
        any result sink — raw results are never touched.
        """
        improvements: Dict[str, float] = {}
        base_bins = self.runs[baseline].aggregates.accuracy_by_bin()
        pol_bins = self.runs[policy].aggregates.accuracy_by_bin()
        for bin_name in ("small", "medium", "large"):
            base = base_bins.get(bin_name)
            pol = pol_bins.get(bin_name)
            if base is None or pol is None or not base.count or not pol.count:
                continue
            improvements[bin_name] = improvement_in_accuracy(base.mean, pol.mean)
        return improvements

    def duration_improvement_by_bin(self, policy: str, baseline: str) -> Dict[str, float]:
        improvements: Dict[str, float] = {}
        base_bins = self.runs[baseline].aggregates.duration_by_bin()
        pol_bins = self.runs[policy].aggregates.duration_by_bin()
        for bin_name in ("small", "medium", "large"):
            base = base_bins.get(bin_name)
            pol = pol_bins.get(bin_name)
            if base is None or pol is None or not base.count or not pol.count:
                continue
            improvements[bin_name] = improvement_in_duration(base.mean, pol.mean)
        return improvements

    def accuracy_improvement_by_deadline_bin(
        self, policy: str, baseline: str
    ) -> Dict[str, float]:
        """Figure 6a: improvement grouped by the deadline slack-factor bin."""

        def group(result: JobResult) -> str:
            metadata = self.workload.metadata_for(result.job_id)
            slack = metadata.deadline_slack_percent or 0.0
            return deadline_bin_label(slack)

        improvements: Dict[str, float] = {}
        base_groups = self._grouped(self.runs[baseline].deadline_results(), group)
        pol_groups = self._grouped(self.runs[policy].deadline_results(), group)
        for bin_name in base_groups:
            base = base_groups.get(bin_name, [])
            pol = pol_groups.get(bin_name, [])
            if not base or not pol:
                continue
            improvements[bin_name] = improvement_in_accuracy(
                self.runs[baseline].average_accuracy(base),
                self.runs[policy].average_accuracy(pol),
            )
        return improvements

    def duration_improvement_by_error_bin(
        self, policy: str, baseline: str
    ) -> Dict[str, float]:
        """Figure 6b: improvement grouped by the error-bound bin."""

        def group(result: JobResult) -> str:
            error = (result.bound.error or 0.0) * 100.0
            return error_bin_label(error)

        improvements: Dict[str, float] = {}
        base_groups = self._grouped(self.runs[baseline].error_results(), group)
        pol_groups = self._grouped(self.runs[policy].error_results(), group)
        for bin_name in base_groups:
            base = base_groups.get(bin_name, [])
            pol = pol_groups.get(bin_name, [])
            if not base or not pol:
                continue
            improvements[bin_name] = improvement_in_duration(
                self.runs[baseline].average_duration(base),
                self.runs[policy].average_duration(pol),
            )
        return improvements


#: A replay source: a JSONL trace path, or a generated trace tier whose jobs
#: are produced lazily (no file involved).
TraceSource = Union[str, Path, ClusterTierConfig]


def _scan_source(source: TraceSource) -> TraceScan:
    """The calibration scan of a replay source.

    Files go through :func:`scan_trace` (which also enforces the streaming
    parse's format and duplicate-id guards); generated tiers fold the same
    statistics over the generator — identical semantics, no file.
    """
    if isinstance(source, ClusterTierConfig):
        from repro.workload.trace_replay import iter_cluster_trace
        from repro.workload.traces import scan_jobs

        return scan_jobs(iter_cluster_trace(source), source=str(source))
    return scan_trace(source)


def _calibration_scan(
    source: TraceSource, fingerprint: str, cache: Optional[ReplayCache] = None
) -> TraceScan:
    """The source's calibration scan: the cache's scan record when there is
    one, else a real scan, which then becomes the record.

    A replay whose slices all hit therefore reads the trace only to hash it,
    in any process.  A scan that raises (malformed or empty trace) leaves no
    record, so the error repeats on every run.
    """
    scan = cache.lookup_scan(fingerprint) if cache is not None else None
    if scan is None:
        scan = _scan_source(source)
        if cache is not None:
            cache.store_scan(fingerprint, scan)
    return scan


@dataclass
class _CacheSession:
    """One plan execution's view of the replay cache.

    Carries the slice-key fields shared by every (policy, seed, shard)
    coordinate of the plan plus the coordinates already restored from the
    cache, so the batch and streaming paths can partition the request grid
    into hits and misses without re-deriving keys.  The restored collectors
    are sealed around their cached chunks — byte-identical digest parts,
    no raw per-job results (aggregate consumers only).
    """

    cache: ReplayCache
    base: Dict[str, object]
    descriptor: Dict[str, object]
    restored: Dict[tuple, MetricsCollector] = field(default_factory=dict)

    def slice_wire(
        self, policy: str, seed: int, shard_index: int
    ) -> Dict[str, object]:
        wire = dict(self.base)
        wire.update({"policy": policy, "sim_seed": seed, "shard": shard_index})
        return wire

    def probe(
        self, policy_names: Sequence[str], seeds: Sequence[int], num_shards: int
    ) -> None:
        for name in policy_names:
            for seed in seeds:
                for shard_index in range(num_shards):
                    cached = self.cache.lookup(
                        self.slice_wire(name, seed, shard_index)
                    )
                    if cached is not None:
                        self.restored[(name, seed, shard_index)] = cached.restore()

    def hit(
        self, name: str, seed: int, shard_index: int
    ) -> Optional[MetricsCollector]:
        return self.restored.get((name, seed, shard_index))

    def complete(
        self, policy_names: Sequence[str], seeds: Sequence[int], num_shards: int
    ) -> bool:
        return len(self.restored) == len(policy_names) * len(seeds) * num_shards

    def store(
        self, name: str, seed: int, shard_index: int, metrics: MetricsCollector
    ) -> None:
        self.cache.store(
            self.slice_wire(name, seed, shard_index),
            CachedSlice.from_metrics(metrics),
            self.descriptor,
        )


def _open_cache_session(
    plan: ReplayPlan,
    scale: ExperimentScale,
    source: TraceSource,
    cache: Optional[ReplayCache] = None,
):
    """Build a plan's cache session: ``(session, calibration scan)``.

    The slice key holds exactly the plan fields that can change a slice's
    digest — and none that cannot (``workers``, streaming mode, sink and
    ``max_resident_shards`` are wall-clock/memory knobs whose
    digest-invariance the replay-determinism matrix locks), so one cached
    execution serves every mode/worker/sink combination of the same
    experiment.
    """
    if cache is None:
        try:
            cache = ReplayCache(plan.cache)
        except OSError as exc:
            raise PlanError(
                f"cannot open replay cache at {plan.cache}: {exc}"
            ) from None
    fingerprint = source_fingerprint(source)
    scan = _calibration_scan(source, fingerprint, cache)
    if scan.num_jobs < 1:
        raise PlanError(f"trace is empty: {plan.source_label}")
    base = {
        "source": fingerprint,
        "num_shards": min(plan.shards, scan.num_jobs),
        "scale": plan.scale,
        "num_machines": scale.num_machines,
        "framework": plan.framework,
        "bound_kind": plan.bound_kind,
        "assignment_seed": plan.seed,
    }
    session = _CacheSession(
        cache=cache, base=base, descriptor=source_descriptor(source)
    )
    return session, scan


@dataclass
class StreamedReplay:
    """Result of :func:`replay_stream`, with its pipeline provenance."""

    comparison: ComparisonResult
    num_jobs: int
    num_shards: int
    max_resident_shards: int
    peak_resident_shards: int
    #: With ``stream_specs``: True — requests carried lazy spec sources, not
    #: materialised shard workloads.
    stream_specs: bool = False
    #: Engine high-water mark of concurrently resident jobs, maximised over
    #: every (policy, seed, shard) simulation.  The bounded-memory gauge of
    #: spec streaming: O(max concurrent jobs), not O(trace).
    peak_resident_jobs: int = 0


def metrics_digest(comparison: ComparisonResult) -> str:
    """SHA-256 over the merged per-job results, canonically serialised.

    Two replays that produce byte-identical metrics — the determinism
    contract of ``workers`` — share the same digest, so scripts (and the
    replay service's clients) can compare runs without parsing tables.  The
    digest is the policy-tagged fold of each run's per-simulation chunk
    digests in the deterministic (policy, seed, shard) merge order
    (:func:`repro.simulator.sinks.fold_run_digests`); every sink maintains
    those chunk digests identically, so the value is byte-identical across
    ``--sink``, ``--stream``/``--stream-specs`` and ``--workers`` at the
    same shard count.
    """
    return fold_run_digests(
        (name, run.aggregates.digest_parts()) for name, run in comparison.runs.items()
    )


@dataclass
class ExecutedPlan:
    """Result of :func:`execute`: the comparison plus the plan's provenance."""

    plan: ReplayPlan
    comparison: ComparisonResult
    #: Jobs in the replayed source (the trace's job count, not results rows).
    num_jobs: int
    #: Arrival-window shards the source was actually split into.
    num_shards: int
    #: Streaming pipeline gauges; ``None`` when the plan ran in batch mode.
    streamed: Optional[StreamedReplay] = None
    #: Replay-cache session counters (hits/misses/stores/bytes/evictions);
    #: ``None`` when the plan executed without a cache.
    cache_stats: Optional[CacheCounters] = None

    @property
    def digest(self) -> str:
        """The policy-tagged metrics digest (see :func:`metrics_digest`)."""
        return metrics_digest(self.comparison)

    @property
    def truncated_jobs(self) -> int:
        """Job runs cut off by ``max_simulated_time``, summed over all runs."""
        return sum(
            metrics.truncated_jobs
            for run in self.comparison.runs.values()
            for metrics in run.metrics
        )


def plan_scale(plan: ReplayPlan) -> ExperimentScale:
    """The :class:`ExperimentScale` a plan executes under.

    The named scale contributes cluster size and default seeds; the plan's
    ``workers`` (and explicit ``seeds``, when given) override it.
    """
    scale = SCALE_FACTORIES[plan.scale]()
    overrides = {"workers": plan.workers}
    if plan.seeds is not None:
        overrides["seeds"] = tuple(plan.seeds)
    return replace(scale, **overrides)


def plan_source(plan: ReplayPlan) -> TraceSource:
    """The replay source a plan names: a trace path or a generated tier."""
    if plan.cluster_jobs is not None:
        return ClusterTierConfig(num_jobs=plan.cluster_jobs, seed=plan.seed)
    return plan.trace


class _RestoredComparison(ComparisonResult):
    """A comparison folded entirely from cache-restored slices.

    It carries aggregates only, never raw per-job results or metadata, and
    its workload is the streaming path's spec-less stand-in, built on first
    access so a full cache hit never imports the workload generator.
    """

    def __init__(self, plan: ReplayPlan, num_jobs: int) -> None:
        self.runs: Dict[str, PolicyRun] = {}
        self._plan = plan
        self._num_jobs = num_jobs
        self._workload: Optional[GeneratedWorkload] = None

    @property
    def workload(self) -> GeneratedWorkload:
        if self._workload is None:
            from repro.experiments.simulate import replay_config_for, stand_in_workload

            self._workload = stand_in_workload(
                replay_config_for(self._plan), self._num_jobs
            )
        return self._workload


def _executed_from_cache(
    plan: ReplayPlan,
    scale: ExperimentScale,
    scan: TraceScan,
    num_shards: int,
    session: _CacheSession,
    on_metrics: Optional[MetricsHook] = None,
) -> ExecutedPlan:
    """Assemble an :class:`ExecutedPlan` entirely from restored chunks.

    The all-hits fast path: no simulation runs and the trace body is never
    loaded — the restored collectors fold in the deterministic (policy,
    seed, shard) merge order, so the digest is byte-identical to a real
    execution.
    """
    if on_metrics is not None:
        # Mirror each mode's live emission order: shard-major under
        # streaming (completion order), merge order in batch.
        if plan.streaming:
            for shard_index in range(num_shards):
                for name in plan.policies:
                    for seed in scale.seeds:
                        on_metrics(
                            name, seed, shard_index,
                            session.hit(name, seed, shard_index),
                        )
        else:
            for name in plan.policies:
                for seed in scale.seeds:
                    for shard_index in range(num_shards):
                        on_metrics(
                            name, seed, shard_index,
                            session.hit(name, seed, shard_index),
                        )
    comparison = _RestoredComparison(plan, scan.num_jobs)
    peak_resident_jobs = 0
    for name in plan.policies:
        run = PolicyRun(policy_name=name)
        for seed in scale.seeds:
            for shard_index in range(num_shards):
                metrics = session.hit(name, seed, shard_index)
                peak_resident_jobs = max(
                    peak_resident_jobs, metrics.peak_resident_jobs
                )
                run.metrics.append(metrics)
        comparison.runs[name] = run
    streamed = None
    if plan.streaming:
        streamed = StreamedReplay(
            comparison=comparison,
            num_jobs=scan.num_jobs,
            num_shards=num_shards,
            max_resident_shards=plan.max_resident_shards,
            peak_resident_shards=0,
            stream_specs=plan.stream_specs,
            peak_resident_jobs=peak_resident_jobs,
        )
    return ExecutedPlan(
        plan=plan,
        comparison=comparison,
        num_jobs=scan.num_jobs,
        num_shards=num_shards,
        streamed=streamed,
        cache_stats=session.cache.counters,
    )


def probe_plan_cache(
    plan: ReplayPlan,
    cache: Optional[ReplayCache] = None,
    on_metrics: Optional[MetricsHook] = None,
) -> Optional[ExecutedPlan]:
    """Serve a plan entirely from its replay cache, or return ``None``.

    Never simulates and never loads the trace body: the only O(trace) work
    is the source fingerprint (memoized per file identity) and, on first
    sight of a source, the calibration scan (persisted as the cache's scan
    record) — which is what lets the replay service answer a repeated
    tenant plan before any admission debit.  ``None`` means at least one
    (policy, seed, shard) coordinate is uncached and the plan needs a real
    execution.
    """
    plan.validate()
    if plan.cache is None and cache is None:
        return None
    scale = plan_scale(plan)
    source = plan_source(plan)
    session, scan = _open_cache_session(plan, scale, source, cache)
    num_shards = min(plan.shards, scan.num_jobs)
    session.probe(plan.policies, scale.seeds, num_shards)
    if not session.complete(plan.policies, scale.seeds, num_shards):
        return None
    return _executed_from_cache(plan, scale, scan, num_shards, session, on_metrics)


def execute(
    plan: ReplayPlan,
    on_metrics: Optional[MetricsHook] = None,
    cache: Optional[ReplayCache] = None,
) -> ExecutedPlan:
    """Execute a :class:`ReplayPlan` — the single entry point for replay.

    Everything the deprecated ``replay()`` / ``replay_stream()`` pair (and
    their ``stream_specs=`` / ``sink=`` knobs) could express is one plan
    field here, and the plan round-trips through JSON, so the offline CLI,
    the test matrix and the always-on replay service all execute the *same*
    object.  Determinism carries over unchanged: for a given plan the
    metrics digest is byte-identical across ``workers``, modes and sinks at
    the same shard count.

    With ``plan.cache`` set (or an explicit ``cache`` instance), every
    (policy, seed, shard) coordinate is looked up before simulating: hits
    restore their chunks from disk and fold into the same deterministic
    merge order, misses fan out to the executor as usual and are stored on
    completion.  An all-hits plan skips simulation, the trace load and the
    import of :mod:`repro.experiments.simulate` (and with it the engine)
    entirely.  The digest is byte-identical with and without the cache;
    ``cache_stats`` on the result reports the session's counters.  (With a
    retaining sink, raw per-job results are only present for recomputed
    slices — cached entries carry aggregates only; every aggregate/digest
    surface is complete and exact either way.)

    ``on_metrics`` is invoked as each (policy, seed, shard) simulation's
    metrics land — shard-major completion order under streaming modes, merge
    order in batch mode; cache hits are emitted up front in the same order —
    which is the hook the service's per-tenant delta streaming builds on.

    Raises :class:`~repro.experiments.plan.PlanError` on an invalid plan,
    ``FileNotFoundError`` / ``OSError`` when a trace path cannot be read and
    ``TraceFormatError`` on malformed traces.
    """
    plan.validate()
    scale = plan_scale(plan)
    source = plan_source(plan)

    session: Optional[_CacheSession] = None
    scan: Optional[TraceScan] = None
    if cache is not None or plan.cache is not None:
        session, scan = _open_cache_session(plan, scale, source, cache)
        if plan.streaming and not scan.arrival_sorted:
            raise ValueError(
                f"streaming replay requires a trace sorted by "
                f"(arrival_time, job_id); {source} is not — sort it or use "
                "batch replay"
            )
        num_shards = min(plan.shards, scan.num_jobs)
        session.probe(plan.policies, scale.seeds, num_shards)
        if session.complete(plan.policies, scale.seeds, num_shards):
            return _executed_from_cache(
                plan, scale, scan, num_shards, session, on_metrics
            )

    # At least one slice misses: the one boundary where replay imports the
    # engine side (executor, engine, policies, spec generation).
    from repro.experiments.simulate import execute_misses

    return execute_misses(plan, scale, source, session, scan, on_metrics)
