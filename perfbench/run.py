"""The repository benchmark: end-to-end workloads and a traced layer breakdown.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload service-mixed --seed 1 --seconds 15 --trace 1

``--trace 0`` times the workload through the program's public surfaces and
prints every end-to-end metric; ``--trace 1`` runs the same inputs
in-process under the layer tracer and prints every per-layer metric.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any output that differs from
its reference makes ``correct`` false and the exit code 1.  A benchmark
that cannot run at all (no program sources, a load generator that fell
behind) exits 2 or 3 without a result line.  Workloads and metric
definitions are documented in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    WORK,
    BenchError,
    InvalidRun,
    Spawner,
    fresh_dir,
    median,
    percentile,
    require_program,
)

_perf = time.perf_counter

#: End-to-end metrics, printed by ``--trace 0`` for every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("sim_jobs_per_s", "jobs/s"),
    ("op_p50_s", "s"),
    ("cpu_per_op_s", "s"),
    ("peak_rss_mb", "MB"),
)

_POLICY_METRICS = tuple(
    (f"policies.{policy}.{metric}", unit)
    for policy in ("grass", "gs", "late", "oracle")
    for metric, unit in (("choose_calls", "count"), ("choose_s", "s"), ("useful_ratio", "ratio"))
)

_IMPORT_METRICS = tuple(
    item
    for part in ("service", "analysis", "experiments.figures", "experiments.cache")
    for item in ((f"cli.import.{part}_s", "s"), (f"cli.modules.{part}", "count"))
)

#: Per-layer metrics, printed by ``--trace 1`` for every workload.
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.modules_loaded", "count"), *_IMPORT_METRICS,
    ("traces.scan_s", "s"), ("traces.load_s", "s"), ("traces.jobs", "count"),
    ("trace_replay.specgen_s", "s"), ("synthetic.generate_s", "s"),
    ("cache.fingerprint_s", "s"), ("cache.lookups", "count"), ("cache.lookup_s", "s"),
    ("cache.hit_ratio", "ratio"), ("cache.bytes_read", "bytes"), ("cache.stores", "count"),
    ("cache.store_s", "s"), ("cache.bytes_written", "bytes"),
    ("executor.run_s", "s"), ("executor.serial_s", "s"), ("executor.parallel_eff", "ratio"),
    ("executor.request_bytes", "bytes"), ("executor.result_bytes", "bytes"),
    ("warmup.prewarm_s", "s"), ("warmup.snapshot_bytes", "bytes"), ("warmup.restore_s", "s"),
    ("engine.run_s", "s"), ("engine.self_s", "s"), ("engine.simulations", "count"),
    ("engine.events", "count"), ("engine.events_per_s", "1/s"),
    ("engine.peak_resident_jobs", "count"), ("engine.copies", "count"),
    ("engine.spec_copies", "count"), ("engine.wasted_slot_s", "slot-s"),
    ("events.pushes", "count"), ("events.pops", "count"), ("events.cancels", "count"),
    ("cluster.fair_share_calls", "count"), ("cluster.fair_share_s", "s"),
    ("stragglers.draws", "count"), ("stragglers.draw_s", "s"),
    *_POLICY_METRICS,
    ("index.prepare_calls", "count"), ("index.prepare_s", "s"),
    ("estimators.snaps_calls", "count"), ("estimators.snaps_s", "s"),
    ("estimators.tnew_calls", "count"), ("estimators.trem_calls", "count"),
    ("sinks.fold_s", "s"), ("sinks.wire_s", "s"), ("sinks.chunks", "count"),
    ("runner.execute_s", "s"), ("runner.self_s", "s"),
    ("service.accept_p50_s", "s"), ("service.queue_wait_p50_s", "s"),
    ("service.exec_p50_s", "s"), ("service.cache_answered", "count"),
    ("service.rejected_429", "count"), ("service.rejected_400", "count"),
    ("service.frames_per_plan", "count"), ("service.bytes_per_plan", "bytes"),
    ("admission.submit_s", "s"), ("admission.next_s", "s"),
    ("loadgen.lag_p95_s", "s"), ("loadgen.sent", "count"),
    ("trace.overhead_s", "s"),
)


def _print_metrics(metrics: Dict[str, float], units: Dict[str, str],
                   notes: Dict[str, str]) -> None:
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {value:>14.6g} {units[name]}{note}")


# -- --trace 0 -------------------------------------------------------------------------


def measure(workload, ctx) -> Tuple[Dict[str, float], int, int]:
    from workloads import SETUP_REPEATS, run_setups

    state, setup_times = run_setups(workload, ctx, 1 if ctx.tiny else SETUP_REPEATS)
    try:
        outcome = workload.measure(ctx, state)
    finally:
        workload.close(state)
    metrics = {"setup_s": median(setup_times)}
    metrics.update(outcome.e2e)
    units = dict(END_TO_END)
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups: "
        + ", ".join(f"{t:.2f}" for t in setup_times),
        "op_p50_s": f"one op = {workload.op_label}; {outcome.attempted} samples",
    }
    print(f"== {workload.name} (seed {ctx.seed}, {ctx.seconds:g} s): {workload.why}")
    _print_metrics(metrics, units, notes)
    report = dict(outcome.report)
    report["failed_frac"] = (outcome.failed / outcome.attempted, "ratio",
                             f"{outcome.failed} of {outcome.attempted} operations")
    for name, (value, unit, note) in report.items():
        print(f"  {name:<34} {value:>14.6g} {unit}  ({note})")
    return {name: metrics[name] for name, _ in END_TO_END}, outcome.attempted, outcome.failed


# -- --trace 1 -------------------------------------------------------------------------


def _service_layer(subs) -> Dict[str, float]:
    done = [sub for sub in subs if sub.outcome == "done"]
    return {
        "service.accept_p50_s": median([s.accepted_at - s.due_at for s in subs if s.accepted_at]),
        "service.queue_wait_p50_s": median([s.latency - s.elapsed_ms / 1000.0 for s in done]),
        "service.exec_p50_s": median([s.elapsed_ms / 1000.0 for s in done]),
        "service.cache_answered": sum(
            1 for s in done if s.cache and s.cache.get("misses") == 0 and s.cache.get("hits")
        ),
        "service.rejected_429": sum(s.outcome == "rejected-429" for s in subs),
        "service.rejected_400": sum(s.outcome == "rejected-400" for s in subs),
        "service.frames_per_plan": sum(s.frames for s in subs) / len(subs),
        "service.bytes_per_plan": sum(s.bytes for s in subs) / len(subs),
        "loadgen.lag_p95_s": percentile([s.lag for s in subs], 95),
        "loadgen.sent": len(subs),
    }


def coverage_pass(ctx, tracer) -> Tuple[bool, list]:
    """A small fixed pass through every layer, so each layer reports on
    every workload: a cold then warm replay, figure8 at quick scale and two
    submissions (a miss, then its repeat) to an in-process service."""
    import asyncio
    from dataclasses import replace

    from common import write_cluster_trace
    from loadgen import Submission
    from repro.experiments.figures import run_figure
    from repro.experiments.plan import ReplayPlan
    from repro.experiments.runner import ExperimentScale, execute
    from workloads import plan_reference, service_plan, run_inprocess_service

    tracer.op_id = "coverage"
    trace = ctx.work / "coverage-trace.jsonl"
    write_cluster_trace(trace, 12, ctx.seed)
    plan = ReplayPlan(trace=str(trace), policies=("grass", "gs", "late"), shards=2, workers=1,
                      sink="aggregate", scale="quick", cache=str(fresh_dir(ctx.work, "cov")))
    reference = execute(replace(plan, cache=None)).digest
    ok = execute(plan).digest == execute(plan).digest == reference
    run_figure("figure8", replace(ExperimentScale.quick(), workers=1))
    wire = service_plan(trace, 7)
    digest, jobs = plan_reference(wire)
    subs = [Submission(due=due, tenant="t1", plan=wire, expect=digest, jobs=jobs, kind=kind)
            for due, kind in ((0.0, "new"), (0.5, "repeat"))]
    asyncio.run(run_inprocess_service(fresh_dir(ctx.work, "cov-service"), [], subs, 120.0))
    return ok and all(sub.ok for sub in subs), subs


def _layer(metric: str) -> str:
    """The layer a per-layer metric belongs to (``policies.<name>`` per policy)."""
    parts = metric.split(".")
    return ".".join(parts[:2]) if parts[0] == "policies" else parts[0]


def traced(workload, ctx) -> Tuple[Dict[str, float], int, int]:
    import probes
    from tracing import Tracer, install
    from workloads import run_setups

    state, _ = run_setups(workload, ctx, 1)
    tracer, coverage = Tracer(), Tracer()
    try:
        # The warm-up fills the program's process-wide memos (imports, trace
        # scans, fingerprints) so the untraced and traced passes compare
        # like with like.
        warm = workload.inprocess(ctx, state, warmup=True)
        plain = workload.inprocess(ctx, state)
        install(tracer)
        try:
            outcome = workload.inprocess(ctx, state, tracer)
        finally:
            tracer.uninstall()
        install(coverage)
        try:
            coverage_ok, coverage_subs = coverage_pass(ctx, coverage)
        finally:
            coverage.uninstall()
    finally:
        workload.close(state)
    trace_file = state["trace"] if "trace" in state else ctx.work / "coverage-trace.jsonl"
    repeats = 1 if ctx.tiny else 3
    metrics: Dict[str, float] = {}
    metrics.update(probes.import_probe(repeats))
    metrics.update(probes.fingerprint_probe(trace_file, repeats))
    metrics.update(probes.trace_probe(trace_file, repeats))
    layer_metrics, executor_ok = probes.layer_probe(ctx.seed, repeats)
    metrics.update(layer_metrics)
    # Layers the workload's own operations never reach report the coverage
    # pass's figures instead, so every metric prints on every workload.
    own, covered = _attributed(tracer), _attributed(coverage)
    idle = sorted({_layer(name) for name in own}
                  - {_layer(name) for name, value in own.items() if value})
    metrics.update(own)
    metrics.update({name: value for name, value in covered.items() if _layer(name) in idle})
    if not outcome.subs:
        idle.append("service")
    metrics.update(_service_layer(outcome.subs or coverage_subs))
    metrics["trace.overhead_s"] = outcome.op_time - plain.op_time
    spans = WORK / f"spans-{workload.name}-seed{ctx.seed}.jsonl"
    tracer.write_spans(spans)

    same = outcome.outputs == plain.outputs
    failed = (outcome.failed + plain.failed + warm.failed + (not same) + (not coverage_ok)
              + (not executor_ok))
    print(f"== {workload.name} traced (seed {ctx.seed}): operations took {plain.op_time:.3f} s "
          f"untraced, {outcome.op_time:.3f} s traced; outputs {'equal' if same else 'DIFFER'}; "
          f"{len(tracer.spans)} spans in {spans}")
    print(f"  from the coverage pass (not reached by this workload): {', '.join(idle) or 'none'}")
    _print_metrics({name: metrics[name] for name, _ in PER_LAYER}, dict(PER_LAYER), {})
    attempted = outcome.attempted + plain.attempted + warm.attempted + 3
    return {name: metrics[name] for name, _ in PER_LAYER}, attempted, failed


def _attributed(tracer) -> Dict[str, float]:
    totals = tracer.totals()
    counters = tracer.counters()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def count(name):
        return counters.get(name, 0)

    lookups = calls("cache.lookup")
    metrics = {
        "cache.lookups": lookups,
        "cache.lookup_s": total("cache.lookup"),
        "cache.hit_ratio": count("cache.hits") / lookups if lookups else 0.0,
        "cache.bytes_read": count("cache.bytes_read"),
        "cache.stores": count("cache.stores"),
        "cache.store_s": total("cache.store"),
        "cache.bytes_written": count("cache.bytes_written"),
        "engine.run_s": total("engine"),
        "engine.self_s": own("engine"),
        "engine.simulations": count("engine.simulations"),
        "engine.events": count("engine.events"),
        "engine.events_per_s": count("engine.events") / total("engine") if calls("engine") else 0.0,
        "engine.peak_resident_jobs": count("engine.peak_resident_jobs"),
        "engine.copies": count("engine.copies"),
        "engine.spec_copies": count("engine.spec_copies"),
        "engine.wasted_slot_s": count("engine.wasted_slot_s"),
        "events.pushes": count("events.pushes"),
        "events.pops": count("events.pops"),
        "events.cancels": count("events.cancels"),
        "cluster.fair_share_calls": calls("cluster.fair_share"),
        "cluster.fair_share_s": total("cluster.fair_share"),
        "stragglers.draws": calls("stragglers.draw"),
        "stragglers.draw_s": total("stragglers.draw"),
        "index.prepare_calls": calls("index.prepare"),
        "index.prepare_s": total("index.prepare"),
        "estimators.snaps_calls": calls("estimators.snaps"),
        "estimators.snaps_s": total("estimators.snaps"),
        "estimators.tnew_calls": count("estimators.tnew_calls"),
        "estimators.trem_calls": count("estimators.trem_calls"),
        "sinks.fold_s": total("sinks.fold"),
        "sinks.wire_s": total("sinks.wire"),
        "sinks.chunks": count("sinks.chunks"),
        "runner.execute_s": total("runner"),
        "runner.self_s": own("runner"),
        "admission.submit_s": total("admission.submit"),
        "admission.next_s": total("admission.next"),
    }
    for policy in ("grass", "gs", "late", "oracle"):
        name = f"policies.{policy}.choose"
        asks = calls(name)
        metrics[f"{name}_calls"] = asks
        metrics[f"{name}_s"] = total(name)
        metrics[f"policies.{policy}.useful_ratio"] = (
            count(f"policies.{policy}.useful") / asks if asks else 0.0
        )
    return metrics


# -- entry point -----------------------------------------------------------------------


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs: checks that everything runs, measures nothing")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="replace every reference output by a wrong one (self-test)")
    args = parser.parse_args(argv)
    try:
        require_program()
        from workloads import WORKLOADS, Context

        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        unknown = [name for name in names if name not in WORKLOADS]
        if unknown:
            raise BenchError(f"unknown workload {unknown[0]!r}; one of {sorted(WORKLOADS)} or all")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        results = []
        with Spawner() as spawner:
            for name in names:
                work = fresh_dir(WORK, name)
                ctx = Context(seed=args.seed, seconds=args.seconds, tiny=args.tiny,
                              wrong_reference=args.wrong_reference, work=work, spawner=spawner)
                try:
                    run = traced if args.trace else measure
                    results.append((name, *run(WORKLOADS[name], ctx)))
                finally:
                    shutil.rmtree(work, ignore_errors=True)
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {}
    for name, values, _, _ in results:
        for metric, value in values.items():
            key = metric if len(results) == 1 else f"{name}.{metric}"
            # A metric that could not be measured is null, and the run incorrect.
            finite = math.isfinite(value)
            metrics[key] = {"value": value if finite else None, "unit": units[metric]}
    attempted = sum(r[2] for r in results)
    failed = sum(r[3] for r in results)
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
