"""Direct calls into single layers, timed from the benchmark's own code.

Each probe calls a layer's public functions on the workload's inputs and
reports the median of a few repetitions.  The traced run adds these to the
attributed numbers for layers whose cost the operations themselves hide:
interpreter import, the cache's source fingerprints, trace scan and load
(all memoised in-process), spec generation, synthetic generation, the
executor's process fan-out and the warm-up snapshot path.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

from common import median, program_env

_perf = time.perf_counter

#: Subpackages the import probe breaks the CLI's import cost down by.
IMPORT_PARTS = ("service", "analysis", "experiments.figures", "experiments.cache")

_IMPORT_SCRIPT = """
import sys, time, json
before = set(sys.modules)
t = time.perf_counter()
import repro.experiments.cli
elapsed = time.perf_counter() - t
loaded = len(set(sys.modules) - before)
import repro.service.server, repro.analysis.cli
print(json.dumps({"import_s": elapsed, "modules": loaded}))
"""


def _importtime_parts(stderr: str) -> Dict[str, List[float]]:
    """Cumulative seconds and module count per subpackage from -X importtime.

    A subpackage's cost is the cumulative time of each of its top-most
    modules' first import, and its module count is the number of modules
    those imports loaded (their subtrees in the import-time listing).
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative) / 1e6, name.strip()))
    parts = {part: [0.0, 0.0] for part in IMPORT_PARTS}
    for index, (depth, cumulative, name) in enumerate(rows):
        for part in IMPORT_PARTS:
            prefix = f"repro.{part}"
            if name != prefix and not name.startswith(prefix + "."):
                continue
            # Skip modules imported while a module of the same part was
            # already importing: the outer one's cumulative covers them.
            later_parent = next(
                (r for r in rows[index + 1:] if r[0] < depth), None
            )
            if later_parent is not None and (
                later_parent[2] == prefix or later_parent[2].startswith(prefix + ".")
            ):
                continue
            subtree = 1
            for prior in reversed(rows[:index]):
                if prior[0] <= depth:
                    break
                subtree += 1
            parts[part][0] += cumulative
            parts[part][1] += subtree
    return parts


def import_probe(repeats: int = 3) -> Dict[str, float]:
    """``cli.*``: import of ``repro.experiments.cli`` in fresh interpreters,
    then the service and analyzer verbs' imports, broken down by part."""
    plain, modules, breakdown = [], [], []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_SCRIPT], env=program_env(),
            capture_output=True, text=True, check=True, timeout=60,
        )
        row = json.loads(out.stdout.strip().splitlines()[-1])
        plain.append(row["import_s"])
        modules.append(row["modules"])
        timed = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _IMPORT_SCRIPT], env=program_env(),
            capture_output=True, text=True, check=True, timeout=60,
        )
        breakdown.append(_importtime_parts(timed.stderr))
    metrics = {"cli.import_s": median(plain), "cli.modules_loaded": median(modules)}
    for part in IMPORT_PARTS:
        metrics[f"cli.import.{part}_s"] = median([b[part][0] for b in breakdown])
        metrics[f"cli.modules.{part}"] = median([b[part][1] for b in breakdown])
    return metrics


_FINGERPRINT_SCRIPT = """
import sys, time, json
from repro.experiments.cache import engine_fingerprint, source_fingerprint
t = time.perf_counter()
engine_fingerprint()
source_fingerprint(sys.argv[1])
print(json.dumps({"fingerprint_s": time.perf_counter() - t}))
"""


def fingerprint_probe(trace: Path, repeats: int = 3) -> Dict[str, float]:
    """``cache.fingerprint_s``: the engine-source hash plus the trace's
    content hash, in fresh interpreters, as every replay process pays them
    on its cache path (in-process they are memoised after the first call)."""
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _FINGERPRINT_SCRIPT, str(trace)], env=program_env(),
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["fingerprint_s"])
    return {"cache.fingerprint_s": median(times)}


def trace_probe(trace: Path, repeats: int = 3) -> Dict[str, float]:
    """``traces.*`` and ``trace_replay.specgen_s`` on the workload's trace."""
    from repro.workload.trace_replay import TraceReplayConfig, slice_trace, trace_to_workload
    from repro.workload.traces import load_trace, scan_trace

    scan_s, load_s, spec_s = [], [], []
    jobs = 0
    for _ in range(repeats):
        start = _perf()
        jobs = scan_trace(trace).num_jobs
        scan_s.append(_perf() - start)
        start = _perf()
        loaded = load_trace(trace)
        load_s.append(_perf() - start)
        start = _perf()
        config = TraceReplayConfig()
        full = trace_to_workload(loaded, config)
        shards = slice_trace(loaded, 4)
        for index, shard in enumerate(shards):
            trace_to_workload(shard, config, shard_index=index, num_shards=len(shards),
                              stragglers=full.stragglers)
        spec_s.append(_perf() - start)
    return {
        "traces.scan_s": median(scan_s),
        "traces.load_s": median(load_s),
        "traces.jobs": jobs,
        "trace_replay.specgen_s": median(spec_s),
    }


def _quick_requests(seed: int):
    from repro.experiments.executor import RunRequest
    from repro.experiments.runner import ExperimentScale, build_simulation_config
    from repro.workload.synthetic import WorkloadConfig, generate_workload

    scale = ExperimentScale.quick()
    workload = generate_workload(WorkloadConfig(
        workload="facebook", framework="hadoop", num_jobs=scale.num_jobs,
        size_scale=scale.size_scale, max_tasks_per_job=scale.max_tasks_per_job,
        seed=seed,
    ))
    return [
        RunRequest(
            workload=workload,
            config=build_simulation_config(workload, scale, sim_seed, False),
            policy_name=policy,
        )
        for policy in ("gs", "late")
        for sim_seed in (seed + 1, seed + 2)
    ]


def layer_probe(seed: int, repeats: int = 3) -> Tuple[Dict[str, float], bool]:
    """``synthetic``, ``executor`` and ``warmup`` probes, and whether the
    executor's parallel results equal its serial ones."""
    from repro.experiments.executor import ParallelExecutor
    from repro.experiments.policies import make_policy
    from repro.experiments.runner import (
        WARMUP_SEED_OFFSET,
        ExperimentScale,
        build_simulation_config,
    )
    from repro.experiments.warmup import WarmupCache
    from repro.workload.synthetic import WorkloadConfig, generate_workload

    scale = ExperimentScale()
    config = WorkloadConfig(workload="facebook", framework="spark", num_jobs=scale.num_jobs,
                            size_scale=scale.size_scale,
                            max_tasks_per_job=scale.max_tasks_per_job, seed=seed)
    generate_s = []
    for _ in range(repeats):
        start = _perf()
        generate_workload(config)
        generate_s.append(_perf() - start)

    requests = _quick_requests(seed)
    start = _perf()
    serial = [request.execute() for request in requests]
    serial_s = _perf() - start
    run_s = []
    for _ in range(repeats):
        start = _perf()
        parallel = ParallelExecutor(workers=2).run(requests)
        run_s.append(_perf() - start)
    same = [m.aggregates.digest_parts() for m in parallel] == [
        m.aggregates.digest_parts() for m in serial
    ]

    quick = ExperimentScale.quick()
    warm_config = replace(config, num_jobs=quick.warmup_jobs, size_scale=quick.size_scale,
                          max_tasks_per_job=quick.max_tasks_per_job,
                          seed=seed + WARMUP_SEED_OFFSET)
    warm_workload = generate_workload(warm_config)
    sim_config = build_simulation_config(warm_workload, quick, warm_config.seed, False)
    prewarm_s, restore_s = [], []
    snapshot = None
    for _ in range(repeats):
        cache = WarmupCache(warm_workload, sim_config)
        start = _perf()
        cache.prewarm(["grass"], workers=1)
        prewarm_s.append(_perf() - start)
        snapshot = cache.snapshot_for("grass")
        policy = make_policy("grass")
        start = _perf()
        policy.restore_state(snapshot)
        restore_s.append(_perf() - start)
    run_median = median(run_s)
    return {
        "synthetic.generate_s": median(generate_s),
        "executor.run_s": run_median,
        "executor.serial_s": serial_s,
        "executor.parallel_eff": serial_s / (2.0 * run_median),
        "executor.request_bytes": len(pickle.dumps(requests)),
        "executor.result_bytes": len(pickle.dumps(parallel)),
        "warmup.prewarm_s": median(prewarm_s),
        "warmup.snapshot_bytes": len(pickle.dumps(snapshot)),
        "warmup.restore_s": median(restore_s),
    }, same

