"""Command-line entry point: ``grass-experiments <figure>|replay|ingest|serve``.

Examples::

    grass-experiments ingest --format google --input task_events.csv \
        --output google.jsonl --limit-jobs 1000
    grass-experiments ingest --format alibaba --input batch_task.csv \
        --output alibaba.jsonl --window 0 3600
    grass-experiments replay --cluster-jobs 1000000 --sink aggregate \
        --shards 8 --workers 0

    grass-experiments figure5
    grass-experiments figure7 --scale quick
    grass-experiments all --scale default --workers 0
    grass-experiments figure5 --repeat 3
    grass-experiments replay --trace traces/facebook_like.jsonl --policy grass
    grass-experiments replay --trace t.jsonl --workers 4 --shards 8
    grass-experiments replay --trace huge.jsonl --sink aggregate
    grass-experiments replay --trace big.jsonl --sink jsonl:out/rows
    grass-experiments replay --trace big.jsonl --cache ~/.grass-cache
    grass-experiments cache stats --cache ~/.grass-cache
    grass-experiments cache verify --cache ~/.grass-cache --sample 3

The figure verbs print the text table the corresponding
:mod:`repro.experiments.figures` function produces; EXPERIMENTS.md records
one full run.  The ``replay`` verb feeds a JSONL trace (schema documented in
``repro.workload.traces``) through the engine under one or more policies and
prints per-policy metrics plus a digest of the merged results.

``--workers N`` fans the independent simulations out over N worker processes
(``0`` auto-sizes to the machine, ``1`` — the default — stays serial).  The
merge is deterministic, so tables and digests are identical for any worker
count.  ``--repeat K`` regenerates each figure K times and reports
per-repeat wall times — useful for benchmarking the harness itself.

``replay`` never loads the trace: one scan counts its jobs, and each
simulation streams its shard's job specs straight from the file (or the
generated tier) into the engine, which holds a one-spec lookahead and evicts
finished jobs — so even an unsharded million-job replay runs with O(max
concurrent jobs) resident state, printed as ``peak resident jobs``.  The
trace must be sorted by ``(arrival_time, job_id)`` (``ingest`` writes it
that way); an unsorted one is a one-line error.

``--sink`` picks where per-job results go (``repro.simulator.sinks``):
``retain`` keeps every ``JobResult`` (the default), ``aggregate`` folds each
result into constant-size mergeable aggregates the moment it is produced —
which makes resident memory fully independent of trace length — and
``jsonl:DIR`` spills one JSON row per result under ``DIR`` for offline
analysis.  The sink is a memory knob only: table and digest are identical
for every kind.

Every ``replay`` flag is generated from the :class:`ReplayPlan` dataclass's
field metadata (``repro.experiments.plan``), the single description of a
replay shared by this CLI, the library entry point ``runner.execute(plan)``
and the always-on replay service — ``grass-experiments serve`` starts that
service (``repro.service``), whose clients submit the same plans as JSON
and stream back per-shard aggregate deltas plus the same metrics digest.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import List, Optional

from repro.experiments.plan import PlanError, add_plan_arguments, plan_from_args
from repro.experiments.runner import (
    ExperimentScale,
    execute,
    metrics_digest,
    plan_scale,
)
from repro.simulator.sinks import parse_sink_spec
from repro.workload.traces import TraceFormatError

# The figure harness and the ingest converter are imported by the verbs that
# use them: a replay served from the cache loads neither.

__all__ = [
    "build_parser",
    "build_replay_parser",
    "build_ingest_parser",
    "build_cache_parser",
    "cache_main",
    "ingest_main",
    "metrics_digest",  # re-exported from the runner for existing importers
    "replay_main",
    "main",
]

_SCALES = {
    "quick": ExperimentScale.quick,
    "default": ExperimentScale,
    "paper": ExperimentScale.paper,
}


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.figures import FIGURES

    parser = argparse.ArgumentParser(
        prog="grass-experiments",
        description="Regenerate the tables and figures of the GRASS paper "
        "(or use the 'replay' verb to feed a JSONL trace through the engine: "
        "grass-experiments replay --help).",
    )
    parser.add_argument(
        "figure",
        choices=sorted(FIGURES) + ["all"],
        help="which experiment to run ('all' runs every one)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="default",
        help="experiment scale: quick (smoke), default (laptop), paper (overnight)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the (policy, seed) fan-out inside each "
        "figure; 1 = serial (default), 0 = auto-size to the machine; "
        "results are bit-identical for any value",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="K",
        help="regenerate each figure K times and report per-repeat wall "
        "times (default 1)",
    )
    return parser


def build_replay_parser() -> argparse.ArgumentParser:
    """The ``replay`` verb's parser, generated from :class:`ReplayPlan`.

    Every flag comes from the plan's dataclass field metadata
    (:func:`repro.experiments.plan.add_plan_arguments`), so the CLI and the
    service's wire API expose exactly the same surface and cannot drift.
    """
    parser = argparse.ArgumentParser(
        prog="grass-experiments replay",
        description="Replay a JSONL trace through the engine under one or "
        "more speculation policies.",
    )
    add_plan_arguments(parser)
    return parser


def build_ingest_parser() -> argparse.ArgumentParser:
    from repro.workload.ingest import DEFAULT_CLOSE_GAP, INGEST_FORMATS

    parser = argparse.ArgumentParser(
        prog="grass-experiments ingest",
        description="Convert a real cluster trace (Google cluster-traces "
        "task events or Alibaba cluster-trace batch tasks, CSV) into the "
        "replay JSONL schema in one streaming pass: the input is never "
        "materialised, jobs are emitted in arrival order, and the output "
        "replays as is with 'replay --trace'.",
    )
    parser.add_argument(
        "--format",
        required=True,
        choices=INGEST_FORMATS,
        help="source format: 'google' (task_events CSV, sorted by timestamp) "
        "or 'alibaba' (batch_task CSV, sorted by start time)",
    )
    parser.add_argument(
        "--input",
        required=True,
        metavar="CSV",
        help="source CSV file (column mappings documented in "
        "repro.workload.ingest and the README)",
    )
    parser.add_argument(
        "--output",
        required=True,
        metavar="JSONL",
        help="replay JSONL file to write (one job per line, arrival-ordered)",
    )
    parser.add_argument(
        "--limit-jobs",
        type=int,
        default=None,
        metavar="N",
        help="stop after emitting N jobs (the source is not read further, so "
        "converting the head of a multi-gigabyte trace stays cheap)",
    )
    parser.add_argument(
        "--window",
        type=float,
        nargs=2,
        default=None,
        metavar=("START", "END"),
        help="keep only jobs arriving in [START, END) seconds relative to "
        "the trace's first job",
    )
    parser.add_argument(
        "--close-gap",
        type=float,
        default=DEFAULT_CLOSE_GAP,
        metavar="SECONDS",
        help="idle seconds after which a job with no open tasks is considered "
        f"complete (default {DEFAULT_CLOSE_GAP:.0f}); raise it if the "
        "converter reports a job reappearing after close",
    )
    return parser


def ingest_main(argv: List[str]) -> int:
    from repro.workload.ingest import ingest_trace

    args = build_ingest_parser().parse_args(argv)
    if args.limit_jobs is not None and args.limit_jobs < 1:
        print("--limit-jobs must be >= 1", file=sys.stderr)
        return 2
    if args.window is not None:
        start, end = args.window
        if not 0 <= start < end:
            print("--window must satisfy 0 <= START < END", file=sys.stderr)
            return 2
    if args.close_gap < 0:
        print("--close-gap must be >= 0", file=sys.stderr)
        return 2
    started = time.time()  # repro: allow[DET002] wall timing for display only
    try:
        stats = ingest_trace(
            args.format,
            args.input,
            args.output,
            limit_jobs=args.limit_jobs,
            window=tuple(args.window) if args.window is not None else None,
            close_gap=args.close_gap,
        )
    except FileNotFoundError:
        print(f"source file not found: {args.input}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"malformed source: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    elapsed = time.time() - started  # repro: allow[DET002] wall timing for display only
    print(f"Ingested {args.input} ({args.format}) -> {args.output}")
    for label, value in stats.rows():
        print(f"  {label:<24} {value}")
    print(f"(converted in {elapsed:.1f}s; replay with: grass-experiments "
          f"replay --trace {args.output} --sink aggregate)")
    return 0


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grass-experiments cache",
        description="Inspect and maintain a content-addressed replay cache "
        "(repro.experiments.cache): 'stats' scans the store, 'clear' removes "
        "every entry, 'verify' re-simulates sampled entries and compares "
        "their chunk digests (non-zero exit on any mismatch).",
    )
    parser.add_argument(
        "action",
        choices=("stats", "clear", "verify"),
        help="stats: entry count/bytes/staleness; clear: delete every entry; "
        "verify: re-simulate sampled entries and compare digests",
    )
    parser.add_argument(
        "--cache",
        required=True,
        metavar="DIR",
        help="cache directory (the DIR given to replay --cache)",
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=3,
        metavar="N",
        help="verify: re-simulate up to N entries sampled evenly across the "
        "store (default 3)",
    )
    return parser


def cache_main(argv: List[str]) -> int:
    from repro.experiments.cache import (
        CACHE_FORMAT_VERSION,
        ReplayCache,
        StaleEntryError,
    )
    from repro.experiments.runner import resimulate_cached_entry

    args = build_cache_parser().parse_args(argv)
    if args.sample < 1:
        print("--sample must be >= 1", file=sys.stderr)
        return 2
    try:
        cache = ReplayCache(args.cache)
    except OSError as exc:
        print(f"cannot open replay cache at {args.cache}: {exc}", file=sys.stderr)
        return 2
    if args.action == "stats":
        stats = cache.store_stats()
        print(f"replay cache at {cache.root}")
        print(f"  entries              {stats.entries}")
        print(f"  total bytes          {stats.total_bytes}")
        print(f"  stale engine entries {stats.stale_engine_entries}")
        print(f"  invalid files        {stats.invalid_files}")
        print(f"  scan records         {stats.scan_records}")
        print(f"  engine fingerprint   {cache.engine[:16]}...")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        noun = "entry" if removed == 1 else "entries"
        print(f"removed {removed} {noun} from {cache.root}")
        return 0
    # verify: sample current-engine entries evenly across the sorted store
    # and re-simulate each one through the lazy spec-source path; any digest
    # mismatch is a non-zero exit (the smoke tests' tamper-detection hook).
    candidates = [
        (path, payload)
        for path, payload in cache.iter_entries()
        if payload is not None
        and payload.get("version") == CACHE_FORMAT_VERSION
        and payload.get("engine") == cache.engine
    ]
    if not candidates:
        print(
            f"no verifiable entries in {cache.root} "
            "(empty store, stale engine, or invalid files)"
        )
        return 0
    step = max(1, len(candidates) // args.sample)
    selected = candidates[::step][: args.sample]
    failures = 0
    verified = 0
    for path, payload in selected:
        chunk = payload.get("chunk")
        stored = str(chunk.get("digest", "")) if isinstance(chunk, dict) else ""
        try:
            fresh = resimulate_cached_entry(payload)
        except StaleEntryError as exc:
            print(f"skip     {path.name}: {exc}")
            continue
        except (OSError, TraceFormatError, ValueError) as exc:
            print(f"skip     {path.name}: {exc}")
            continue
        if fresh == stored:
            verified += 1
            print(f"ok       {path.name}: digest {fresh[:16]}... matches")
        else:
            failures += 1
            print(
                f"MISMATCH {path.name}: stored {stored[:16]}... "
                f"recomputed {fresh[:16]}...",
                file=sys.stderr,
            )
    noun = "entry" if len(selected) == 1 else "entries"
    print(
        f"verified {verified}/{len(selected)} sampled {noun}, "
        f"{failures} mismatch(es)"
    )
    return 1 if failures else 0


def replay_main(argv: List[str]) -> int:
    args = build_replay_parser().parse_args(argv)
    try:
        plan = plan_from_args(args).validate()
    except PlanError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    sink_factory = parse_sink_spec(plan.sink)
    started = time.time()  # repro: allow[DET002] wall timing for display only
    try:
        executed = execute(plan)
    except PlanError as exc:  # discovered at execution time (empty trace, ...)
        print(str(exc), file=sys.stderr)
        return 2
    except FileNotFoundError:
        print(f"trace file not found: {plan.trace}", file=sys.stderr)
        return 2
    except IsADirectoryError:
        print(f"trace path is a directory, not a JSONL file: {plan.trace}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Satellite fix: any unreadable trace (permissions, I/O, ...) is a
        # one-line named error and a nonzero exit, never a traceback.
        reason = exc.strerror or str(exc)
        print(f"cannot read trace {plan.trace}: {reason}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    elapsed = time.time() - started  # repro: allow[DET002] wall timing for display only
    comparison = executed.comparison
    num_jobs = executed.num_jobs
    scale = plan_scale(plan)
    source_label = plan.source_label

    # Accuracy is the paper's metric for deadline-bound jobs and duration the
    # metric for error-bound jobs; a column shows "-" when the replay assigned
    # no jobs of that class rather than a misleading 0.  "results" counts one
    # row per (job, seed, shard) — with several seeds it exceeds the trace's
    # job count.
    header = (
        f"{'policy':<22} | {'results':>7} | {'avg accuracy (deadline)':>23} | "
        f"{'avg duration (error)':>20} | {'bound met':>9} | {'spec copies':>11}"
    )
    print(
        f"Replayed {source_label}: {num_jobs} jobs, {plan.shards} shard(s), "
        f"{len(scale.seeds)} seed(s), workers={plan.workers}, sink={plan.sink}"
    )
    print(header)
    print("-" * len(header))
    # The table is rendered from each run's StreamingAggregates — identically
    # maintained by every sink — so the rows (like the digest below) are
    # byte-identical whether the raw results were retained, folded away or
    # spilled to disk.
    for name in plan.policies:
        aggregates = comparison.runs[name].aggregates
        accuracy = (
            f"{aggregates.average_accuracy:.4f}" if aggregates.deadline_jobs else "-"
        )
        duration = (
            f"{aggregates.average_duration:.2f}" if aggregates.error_jobs else "-"
        )
        print(
            f"{name:<22} | {aggregates.num_results:>7} | {accuracy:>23} | "
            f"{duration:>20} | {aggregates.bound_met_jobs:>9} | "
            f"{aggregates.speculative_copies:>11}"
        )
    print(f"metrics digest: sha256={metrics_digest(comparison)}")
    if executed.cache_stats is not None:
        print(f"replay cache: {executed.cache_stats.summary()} ({plan.cache})")
    if sink_factory.kind == "jsonl":
        print(
            f"per-job rows spilled to {sink_factory.jsonl_dir}/"
            "results-<policy>-seed<seed>-shard<shard>.jsonl"
        )
    truncated = executed.truncated_jobs
    if truncated:
        print(
            f"warning: {truncated} job run(s) truncated at max_simulated_time "
            "(in flight or never arrived when the clock ran out)",
            file=sys.stderr,
        )
    print(
        f"peak resident jobs: {executed.peak_resident_jobs} "
        f"(of {num_jobs} in the trace)"
    )
    print(f"(replayed in {elapsed:.1f}s)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "replay":
        return replay_main(argv[1:])
    if argv and argv[0] == "ingest":
        return ingest_main(argv[1:])
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])
    if argv and argv[0] == "analyze":
        # Imported lazily: the static analyzer is a dev/CI tool the
        # figure/replay verbs never need.
        from repro.analysis.cli import analyze_main

        return analyze_main(argv[1:])
    if argv and argv[0] == "serve":
        # Imported lazily: the service pulls in asyncio machinery the
        # figure/replay verbs never need.
        from repro.service.server import build_serve_parser, serve_main

        return serve_main(build_serve_parser().parse_args(argv[1:]))
    args = build_parser().parse_args(argv)
    if args.workers < 0:
        print("--workers must be >= 0 (0 means auto)", file=sys.stderr)
        return 2
    if args.repeat < 1:
        print("--repeat must be >= 1", file=sys.stderr)
        return 2
    from repro.experiments.figures import FIGURES, run_figure

    scale = replace(_SCALES[args.scale](), workers=args.workers)
    names = sorted(FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        timings = []
        for _ in range(args.repeat):
            started = time.time()  # repro: allow[DET002] wall timing for display only
            result = run_figure(name, scale)
            timings.append(time.time() - started)  # repro: allow[DET002] wall timing for display only
        print(result.format_table())
        if args.repeat == 1:
            print(f"({name} regenerated in {timings[0]:.1f}s)\n")
        else:
            formatted = ", ".join(f"{elapsed:.1f}s" for elapsed in timings)
            print(
                f"({name} regenerated {args.repeat}x in [{formatted}], "
                f"best {min(timings):.1f}s)\n"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
