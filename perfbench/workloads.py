"""The four benchmark workloads: set-up, timed phase and in-process passes.

Every workload builds its inputs from the workload seed at set-up, computes
reference outputs by a different path than the one it times (in-process,
no cache, one worker), and then times the program through a public
surface: ``grass-experiments`` CLI processes, or a ``serve`` process driven
over its JSONL protocol.  Each operation's output is checked against its
reference; a mismatch is a failed operation.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import subprocess
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    BenchError,
    InvalidRun,
    cli_command,
    digest_line,
    fresh_dir,
    median,
    percentile,
    proc_cpu_s,
    proc_peak_rss_mb,
    program_env,
    stop_process,
    table_lines,
    tail,
    write_cluster_trace,
    ROOT,
    Spawner,
)
from loadgen import Submission, drive, ping

_perf = time.perf_counter

#: Replay plan shared by replay-cold and replay-warm.
REPLAY_POLICIES = ("grass", "gs", "late")
REPLAY_SHARDS = 4
REPLAY_WORKERS = 2
REPLAY_JOBS = {"full": 300, "tiny": 12}

#: service-mixed traffic.  No measured traffic exists for this service, so
#: the mix copies the repository's own service examples: the top-level
#: README's ``serve`` quickstart weights one tenant 2 and leaves the others at the
#: default 1, and ``repro.service.load``'s default drive (8 tenant sessions,
#: one plan each, cycling through 4 distinct plans) sends every tenant the
#: same number of plans and every plan twice, so half the submissions repeat
#: a plan the service has already answered.
TENANTS = {"t0": 2.0, "t1": 1.0, "t2": 1.0, "t3": 1.0}
SERVICE_REPEAT_SHARE = 0.5
#: Offered load and latency limit (perfbench/README.md has the capacity sweep).
SERVICE_RATE = 6.0
SERVICE_LIMIT_S = 2.0
#: The generator opens at most one connection per core.
SERVICE_CONNECTIONS = min(2, os.cpu_count() or 1)
SERVICE_TRACES = 4
SERVICE_JOBS = {"full": 20, "tiny": 6}
SERVICE_POLICIES = ["grass", "late"]
#: A run whose generator sent later than this (p95) is invalid, not slow.
MAX_LAG_P95_S = 0.1

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass
class Context:
    seed: int
    seconds: float
    tiny: bool
    wrong_reference: bool
    work: Path
    spawner: Spawner

    @property
    def size(self) -> str:
        return "tiny" if self.tiny else "full"


@dataclass
class Outcome:
    """What a timed phase or in-process pass observed."""

    attempted: int = 0
    failed: int = 0
    e2e: Dict[str, float] = field(default_factory=dict)
    #: Printed with the end-to-end metrics but not part of the result line.
    report: Dict[str, tuple] = field(default_factory=dict)
    #: Output identities (digests or tables) for the traced-vs-untraced check.
    outputs: List[object] = field(default_factory=list)
    #: Seconds the in-process pass spent on its operations: its wall time for
    #: back-to-back operations, the summed due-to-done latency for the
    #: service, whose wall time is set by its schedule.
    op_time: float = 0.0
    subs: List[Submission] = field(default_factory=list)


def _replay_reference(trace: Path) -> str:
    from repro.experiments.plan import ReplayPlan
    from repro.experiments.runner import execute

    plan = ReplayPlan(trace=str(trace), policies=REPLAY_POLICIES, shards=REPLAY_SHARDS, workers=1)
    return execute(plan).digest


def _replay_args(trace: Path, cache: Path) -> List[str]:
    args = ["replay", "--trace", str(trace)]
    for policy in REPLAY_POLICIES:
        args += ["--policy", policy]
    return args + ["--shards", str(REPLAY_SHARDS), "--workers", str(REPLAY_WORKERS),
                   "--sink", "aggregate", "--cache", str(cache)]


def _closed_loop(ctx: Context, op) -> Outcome:
    """Run ``op`` back to back for ``ctx.seconds`` (at least 3 operations)."""
    walls, cpus, rss, jobs_done = [], [], [], 0
    failed = 0
    minimum = 1 if ctx.tiny else 3
    started = _perf()
    while len(walls) < minimum or _perf() - started < ctx.seconds:
        result, ok, jobs = op()
        walls.append(result.wall_s)
        cpus.append(result.cpu_s)
        rss.append(result.maxrss_mb)
        if ok:
            jobs_done += jobs
        else:
            failed += 1
    outcome = Outcome(attempted=len(walls), failed=failed)
    outcome.e2e = {
        "sim_jobs_per_s": jobs_done / sum(walls),
        "op_p50_s": median(walls),
        "cpu_per_op_s": median(cpus),
        "peak_rss_mb": max(rss),
    }
    outcome.report["op_tail_s"] = _tail_report(walls)
    return outcome


def _tail_report(values: List[float]) -> tuple:
    found = tail(values)
    if found is None:
        return float("nan"), "s", f"undefined: {len(values)} samples, needs 11"
    return found[1], "s", f"p{found[0]:.0f} of {len(values)} samples"


# -- replay-cold / replay-warm ------------------------------------------------------


class ReplayCold:
    name = "replay-cold"
    why = ("one op = one replay CLI process (grass+gs+late, 4 shards, 2 workers) over a "
           "cluster-shape trace into a fresh cache; times the simulation-bound path: engine, "
           "policies, fan-out, cache writes")
    op_label = "replay process, cold cache"

    def setup(self, ctx: Context, rep: Path) -> dict:
        trace = rep / "trace.jsonl"
        write_cluster_trace(trace, REPLAY_JOBS[ctx.size], ctx.seed)
        reference = _replay_reference(trace)
        jobs = REPLAY_JOBS[ctx.size] * len(REPLAY_POLICIES)
        state = {"trace": trace, "reference": reference, "jobs": jobs}
        self._fill(ctx, state, rep)
        if ctx.wrong_reference:
            state["reference"] = "0" * 64
        return state

    def _fill(self, ctx: Context, state: dict, rep: Path) -> None:
        """Workload-specific set-up after the reference exists."""

    def close(self, state: dict) -> None:
        pass

    def _cache_for_op(self, ctx: Context, state: dict) -> Path:
        return fresh_dir(ctx.work, "cold-cache")

    def measure(self, ctx: Context, state: dict) -> Outcome:
        def op():
            cache = self._cache_for_op(ctx, state)
            result = ctx.spawner.run(cli_command(*_replay_args(state["trace"], cache)), ctx.work)
            ok = result.returncode == 0 and digest_line(result.stdout) == state["reference"]
            return result, ok, state["jobs"]

        return _closed_loop(ctx, op)

    def inprocess_ops(self, ctx: Context) -> int:
        return 1

    def inprocess(self, ctx: Context, state: dict, tracer=None, warmup=False) -> Outcome:
        """The operations in-process; ``warmup`` runs a short version that
        only fills the program's process-wide memos before the timed passes."""
        from repro.experiments.plan import ReplayPlan
        from repro.experiments.runner import execute

        outcome = Outcome()
        started = _perf()
        for k in range(1 if warmup else self.inprocess_ops(ctx)):
            if tracer is not None:
                tracer.op_id = f"{self.name}-{k}"
            plan = ReplayPlan(
                trace=str(state["trace"]), policies=REPLAY_POLICIES, shards=REPLAY_SHARDS,
                workers=1, sink="aggregate", cache=str(self._cache_for_op(ctx, state)),
            )
            digest = execute(plan).digest
            outcome.attempted += 1
            outcome.failed += digest != state["reference"]
            outcome.outputs.append(digest)
        outcome.op_time = _perf() - started
        return outcome


class ReplayWarm(ReplayCold):
    name = "replay-warm"
    why = ("one op = one replay CLI process of the replay-cold plan against a cache filled "
           "at set-up; simulation is skipped, so it times start-up, import, fingerprint scan "
           "and cache reads")
    op_label = "replay process, warm cache"

    def _fill(self, ctx: Context, state: dict, rep: Path) -> None:
        cache = rep / "cache"
        result = ctx.spawner.run(cli_command(*_replay_args(state["trace"], cache)), rep)
        if result.returncode != 0 or digest_line(result.stdout) != state["reference"]:
            raise BenchError(f"{self.name}: cache population failed:\n{result.stderr[-2000:]}")
        state["cache"] = cache

    def _cache_for_op(self, ctx: Context, state: dict) -> Path:
        return state["cache"]

    def inprocess_ops(self, ctx: Context) -> int:
        return 2 if ctx.tiny else 50


# -- figure-warmup ------------------------------------------------------------------


def _figure_scale():
    from repro.experiments.runner import ExperimentScale

    return ExperimentScale.quick()


class FigureWarmup:
    name = "figure-warmup"
    why = ("one op = one figure8 CLI process (quick scale, 2 workers); the only path through "
           "synthetic generation, GRASS warm-up snapshots and compare_policies")
    op_label = "figure8 process"

    def setup(self, ctx: Context, rep: Path) -> dict:
        from repro.experiments.figures import run_figure

        table = run_figure("figure8", replace(_figure_scale(), workers=1)).format_table()
        reference = table_lines(table)
        if ctx.wrong_reference:
            reference = reference + ["a row the program never prints"]
        scale = _figure_scale()
        # figure8 compares three policies on two workloads (deadline, error).
        jobs = 2 * 3 * scale.num_jobs * len(scale.seeds)
        return {"reference": reference, "jobs": jobs}

    def close(self, state: dict) -> None:
        pass

    def measure(self, ctx: Context, state: dict) -> Outcome:
        def op():
            result = ctx.spawner.run(
                cli_command("figure8", "--scale", "quick", "--workers", "2"), ctx.work
            )
            ok = result.returncode == 0 and table_lines(result.stdout) == state["reference"]
            return result, ok, state["jobs"]

        return _closed_loop(ctx, op)

    def inprocess(self, ctx: Context, state: dict, tracer=None, warmup=False) -> Outcome:
        from repro.experiments.figures import run_figure

        outcome = Outcome()
        started = _perf()
        for k in range(1 if ctx.tiny or warmup else 2):
            if tracer is not None:
                tracer.op_id = f"{self.name}-{k}"
            table = run_figure("figure8", replace(_figure_scale(), workers=1)).format_table()
            outcome.attempted += 1
            outcome.failed += table_lines(table) != state["reference"]
            outcome.outputs.append(table)
        outcome.op_time = _perf() - started
        return outcome


# -- service-mixed ------------------------------------------------------------------


def service_plan(trace: Path, seed: int) -> Dict[str, object]:
    """Minimal wire plan: names only the fields it sets."""
    return {"trace": str(trace), "policies": SERVICE_POLICIES, "shards": 2,
            "scale": "quick", "sink": "aggregate", "seed": seed}


def plan_reference(wire: Dict[str, object]):
    from repro.experiments.plan import ReplayPlan
    from repro.experiments.runner import execute

    executed = execute(ReplayPlan.from_wire(dict(wire, workers=1)))
    jobs = sum(run.aggregates.num_results for run in executed.comparison.runs.values())
    return executed.digest, jobs


def _service_schedule(ctx: Context, traces: List[Path]):
    """``(repeat plans, timed schedule)`` from the workload seed.

    The offered rate and the repeat share are fixed and tenants take turns;
    the seed picks the order of repeats and never-seen plans and which
    repeat plan repeats.  Every never-seen plan is a distinct (trace,
    assignment seed) pair.
    """
    rng = random.Random(ctx.seed)
    count = 4 if ctx.tiny else max(4, round(SERVICE_RATE * ctx.seconds))
    repeats = round(count * SERVICE_REPEAT_SHARE)
    kinds = ["repeat"] * repeats + ["new"] * (count - repeats)
    rng.shuffle(kinds)
    repeat_plans = [service_plan(trace, 0) for trace in traces]
    tenants = sorted(TENANTS)
    schedule = []
    for index, kind in enumerate(kinds):
        if kind == "repeat":
            plan = repeat_plans[rng.randrange(len(repeat_plans))]
        else:
            plan = service_plan(traces[index % len(traces)], 1000 + index)
        schedule.append((index / SERVICE_RATE, tenants[index % len(tenants)], plan, kind))
    return repeat_plans, schedule


def _submissions(entries, references) -> List[Submission]:
    subs = []
    for due, tenant, plan, kind in entries:
        digest, jobs = references[id(plan)]
        subs.append(Submission(due=due, tenant=tenant, plan=plan, expect=digest,
                               jobs=jobs, kind=kind))
    return subs


def _check_populated(subs: List[Submission], what: str) -> None:
    bad = [sub for sub in subs if not sub.ok]
    if bad:
        raise BenchError(f"{what}: {len(bad)} repeat plan(s) failed at set-up ({bad[0].outcome})")


def _kind_p50(subs: List[Submission], kind: str) -> float:
    values = [sub.latency for sub in subs if sub.kind == kind and sub.latency is not None]
    return median(values) if values else float("nan")


def _service_outcome(subs: List[Submission], window: float) -> Outcome:
    """End-to-end figures of one service pass.

    ``op_p50_s`` is the geometric mean of the two halves' median latencies
    (repeats answered from the cache, never-seen plans simulated), so a
    change that makes either path k times slower moves it by sqrt(k),
    whichever half it hits.  ``sim_jobs_per_s`` is the median over verified
    never-seen plans of job results per second of the plan's execution time
    in the server (the ``elapsed_ms`` of its ``done`` frame), since the
    offered rate fixes the schedule's window; repeats simulate nothing.
    """
    outcome = Outcome(attempted=len(subs), subs=subs)
    outcome.failed = sum(not sub.ok for sub in subs)
    latencies = [sub.latency for sub in subs if sub.latency is not None]
    first = [sub.first_delta_at - sub.due_at for sub in subs if sub.first_delta_at is not None]
    good = [sub for sub in subs if sub.ok and sub.latency <= SERVICE_LIMIT_S]
    lags = [sub.lag for sub in subs]
    simulated = [sub.jobs / (sub.elapsed_ms / 1000.0) for sub in subs
                 if sub.ok and sub.kind == "new"]
    outcome.e2e = {
        "sim_jobs_per_s": median(simulated) if simulated else float("nan"),
        "op_p50_s": math.sqrt(_kind_p50(subs, "repeat") * _kind_p50(subs, "new")),
    }
    outcome.report = {
        "first_delta_p50_s": (median(first) if first else float("nan"), "s",
                              f"{len(first)} samples"),
        "plan_tail_s": _tail_report(latencies),
        "goodput_plans_per_s": (len(good) / window, "plans/s",
                                f"verified and under {SERVICE_LIMIT_S:.1f} s"),
        "loadgen.lag_p95_s": (percentile(lags, 95), "s", f"{len(lags)} sends"),
        "loadgen.sent": (len(subs), "count", f"offered {SERVICE_RATE:g} plans/s"),
    }
    for kind in ("repeat", "new"):
        count = sum(sub.kind == kind and sub.latency is not None for sub in subs)
        outcome.report[f"{kind}_p50_s"] = (_kind_p50(subs, kind), "s", f"{count} samples")
    return outcome


def _window(subs: List[Submission]) -> float:
    """Seconds from the first due time to the last final frame."""
    ends = [sub.done_at for sub in subs if sub.done_at is not None]
    if not ends:
        return float("nan")
    return max(ends) - min(sub.due_at for sub in subs if sub.due_at is not None)


class ServiceMixed:
    name = "service-mixed"
    why = ("one op = one plan sent open-loop at 6 plans/s by 4 weighted tenants to a serve "
           "process, half of them cached repeats; times framing, admission, the cache-hit path "
           "and the thread bridge")
    op_label = "plan, due to done"

    def setup(self, ctx: Context, rep: Path) -> dict:
        traces = []
        for index in range(SERVICE_TRACES):
            path = rep / f"plan-trace-{index}.jsonl"
            write_cluster_trace(path, SERVICE_JOBS[ctx.size], ctx.seed * 101 + index)
            traces.append(path)
        repeat_plans, schedule = _service_schedule(ctx, traces)
        references = {}
        for plan in repeat_plans + [entry[2] for entry in schedule]:
            if id(plan) not in references:
                references[id(plan)] = plan_reference(plan)
        cache = rep / "cache"
        cmd = cli_command("serve", "--port", "0", "--max-inflight", "2", "--cache", str(cache))
        for tenant, weight in sorted(TENANTS.items()):
            cmd += ["--weight", f"{tenant}={weight:g}"]
        err = open(rep / "serve.err", "wb")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=program_env(),
                                cwd=ROOT)
        state = {"proc": proc, "err": err, "schedule": schedule, "references": references,
                 "repeat_plans": repeat_plans, "trace": traces[0]}
        try:
            line = proc.stdout.readline().decode("utf-8", "replace")
            if not line.startswith("listening on "):
                raise BenchError(f"serve did not start: {line!r}")
            host, port = line.split()[-1].rsplit(":", 1)
            state["address"] = (host, int(port))
            asyncio.run(ping(host, int(port)))
            populate = _submissions([(0.0, "t0", plan, "repeat") for plan in repeat_plans],
                                    references)
            asyncio.run(drive(host, int(port), populate, 1, timeout=120))
            _check_populated(populate, self.name)
        except BaseException:
            self.close(state)
            raise
        if ctx.wrong_reference:
            for key, (_, jobs) in list(references.items()):
                references[key] = ("0" * 64, jobs)
        return state

    def close(self, state: dict) -> None:
        proc = state["proc"]
        stop_process(proc)
        proc.stdout.close()
        state["err"].close()

    def measure(self, ctx: Context, state: dict) -> Outcome:
        host, port = state["address"]
        proc = state["proc"]
        subs = _submissions(state["schedule"], state["references"])
        cpu_before = proc_cpu_s(proc.pid)
        asyncio.run(drive(host, port, subs, SERVICE_CONNECTIONS, timeout=ctx.seconds + 120))
        cpu = proc_cpu_s(proc.pid) - cpu_before
        outcome = _service_outcome(subs, _window(subs))
        outcome.e2e["cpu_per_op_s"] = cpu / len(subs)
        outcome.e2e["peak_rss_mb"] = proc_peak_rss_mb(proc.pid)
        lag = outcome.report["loadgen.lag_p95_s"][0]
        if lag > MAX_LAG_P95_S:
            raise InvalidRun(f"load generator fell behind: p95 lag {lag:.3f}s")
        return outcome

    def inprocess(self, ctx: Context, state: dict, tracer=None, warmup=False) -> Outcome:
        if tracer is not None:
            tracer.op_id = self.name
        # Set-up's repeat plans already touch every trace, so a warm-up
        # needs only the start of the schedule.
        schedule = state["schedule"][:8] if warmup else state["schedule"]
        subs = _submissions(schedule, state["references"])
        populate = _submissions([(0.0, "t0", p, "repeat") for p in state["repeat_plans"]],
                                state["references"])
        cache = fresh_dir(ctx.work, "service-cache")
        asyncio.run(run_inprocess_service(cache, populate, subs, ctx.seconds + 120))
        outcome = _service_outcome(subs, _window(subs))
        outcome.outputs = [(sub.server_digest, sub.client_digest) for sub in subs]
        outcome.op_time = sum(sub.latency for sub in subs if sub.latency is not None)
        return outcome


async def run_inprocess_service(cache: Path, populate: List[Submission],
                                subs: List[Submission], timeout: float) -> None:
    """An in-process ``ReplayService`` driven by the same generator."""
    from repro.service.server import ReplayService, ServiceConfig

    service = ReplayService(ServiceConfig(max_inflight_plans=2, tenant_weights=dict(TENANTS),
                                          cache_dir=str(cache)))
    host, port = await service.start()
    try:
        if populate:
            await drive(host, port, populate, 1, timeout)
            _check_populated(populate, "in-process service")
        await drive(host, port, subs, SERVICE_CONNECTIONS, timeout)
    finally:
        await service.stop()


WORKLOADS = {w.name: w for w in (ReplayCold(), ReplayWarm(), ServiceMixed(), FigureWarmup())}


def run_setups(workload, ctx: Context, repeats: int):
    """Set up ``repeats`` times (closing all but the last); ``(state, times)``."""
    times: List[float] = []
    state: Optional[dict] = None
    for _ in range(repeats):
        if state is not None:
            workload.close(state)
        rep = fresh_dir(ctx.work, "setup")
        started = _perf()
        state = workload.setup(ctx, rep)
        times.append(_perf() - started)
    return state, times
