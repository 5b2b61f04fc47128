"""Load driver for the replay service: parity, throughput and overload.

``python -m repro.service.load`` drives N concurrent tenant sessions
against a replay service — an in-process one by default, or an external
server via ``--host``/``--port`` (as the CI service smoke does after
launching ``grass-experiments serve``).  Three properties are checked, and
the exit status reflects all of them:

* **parity** — every streamed plan's server digest, the client's refold of
  its deltas and an offline ``execute(plan)`` of the identical plan all
  agree byte-for-byte;
* **throughput/latency** — sustained completed plans/second and the
  p50/p99 of the client-observed submission→first-delta latency, the
  interactivity number an approximation-analytics service lives on;
* **overload** — an optional burst of rapid-fire submissions must draw at
  least one explicit 429-style rejection (admission control sheds load;
  it never buffers unboundedly or stalls silently).

The ``service-load`` benchmark imports :func:`run_load` directly and
records the same report into ``BENCH_engine.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.plan import ReplayPlan
from repro.experiments.runner import execute
from repro.service.client import PlanRejected, ReplayServiceClient
from repro.service.server import ReplayService, ServiceConfig
from repro.utils.stats import percentile

#: Plan used by the overload burst: the smallest valid replay.
_BURST_PLAN = ReplayPlan(
    cluster_jobs=4,
    policies=("grass",),
    scale="quick",
    seeds=(1,),
    shards=1,
    sink="aggregate",
)


def build_plans(
    distinct_plans: int,
    cluster_jobs: int,
    shards: int,
    policies: Sequence[str],
    workers: int = 1,
) -> List[ReplayPlan]:
    """The distinct plans tenants cycle through (varied by tier seed)."""
    return [
        ReplayPlan(
            cluster_jobs=cluster_jobs,
            policies=tuple(policies),
            scale="quick",
            seeds=(1,),
            workers=workers,
            shards=shards,
            sink="aggregate",
            seed=index,
        ).validate()
        for index in range(distinct_plans)
    ]


def offline_digests(plans: Sequence[ReplayPlan]) -> List[str]:
    """The ground-truth digest of each plan, via offline ``execute``."""
    return [execute(plan).digest for plan in plans]


async def _tenant_session(
    host: str,
    port: int,
    tenant: str,
    plans: Sequence[Tuple[ReplayPlan, str]],
) -> List[Dict[str, Any]]:
    """Run this tenant's plans sequentially over one connection."""
    results: List[Dict[str, Any]] = []
    async with ReplayServiceClient(host, port) as client:
        for plan, expected_digest in plans:
            record: Dict[str, Any] = {"tenant": tenant}
            try:
                outcome = await client.run_plan(plan, tenant)
                outcome.verify()
                record["completed"] = True
                record["digest_ok"] = outcome.digest == expected_digest
                record["first_delta_seconds"] = outcome.first_delta_seconds
                record["total_seconds"] = outcome.total_seconds
            except PlanRejected as exc:
                record["completed"] = False
                record["rejected"] = True
                record["reason"] = exc.reason
            except Exception as exc:  # noqa: BLE001 - report, don't crash the drive
                record["completed"] = False
                record["rejected"] = False
                record["reason"] = f"{type(exc).__name__}: {exc}"
            results.append(record)
    return results


async def _burst_session(host: str, port: int, tenant: str) -> Dict[str, Any]:
    """Submit one tiny plan; classify the response (overload phase)."""
    try:
        async with ReplayServiceClient(host, port) as client:
            outcome = await client.run_plan(_BURST_PLAN, tenant)
            outcome.verify()
            return {"tenant": tenant, "completed": True, "rejected": False}
    except PlanRejected as exc:
        return {"tenant": tenant, "completed": False, "rejected": True, "code": exc.code}
    except Exception as exc:  # noqa: BLE001
        return {
            "tenant": tenant,
            "completed": False,
            "rejected": False,
            "reason": f"{type(exc).__name__}: {exc}",
        }


async def _drive(
    host: Optional[str],
    port: Optional[int],
    tenants: int,
    plans_per_tenant: int,
    plan_table: Sequence[Tuple[ReplayPlan, str]],
    overload_burst: int,
    max_inflight: int,
) -> Dict[str, Any]:
    service: Optional[ReplayService] = None
    if port is None:
        # Self-hosted: size admission so the steady-state drive never 429s
        # (rejections there would mean the driver, not the service, failed).
        service = ReplayService(
            ServiceConfig(
                max_inflight_plans=max_inflight,
                max_pending_per_tenant=plans_per_tenant + 2,
                max_pending_total=tenants * plans_per_tenant + 8,
            )
        )
        host, port = await service.start()
    assert host is not None and port is not None

    try:
        started = time.perf_counter()
        sessions = await asyncio.gather(
            *(
                _tenant_session(
                    host,
                    port,
                    f"tenant-{index}",
                    [
                        plan_table[(index + turn) % len(plan_table)]
                        for turn in range(plans_per_tenant)
                    ],
                )
                for index in range(tenants)
            )
        )
        elapsed = time.perf_counter() - started

        records = [record for session in sessions for record in session]
        completed = [r for r in records if r.get("completed")]
        first_deltas = [
            r["first_delta_seconds"]
            for r in completed
            if r.get("first_delta_seconds") is not None
        ]
        report: Dict[str, Any] = {
            "tenants": tenants,
            "plans": len(records),
            "completed": len(completed),
            "failed": len(records) - len(completed),
            "digest_mismatches": sum(1 for r in completed if not r["digest_ok"]),
            "elapsed_seconds": elapsed,
            "plans_per_second": len(completed) / elapsed if elapsed > 0 else 0.0,
            "first_delta_p50_seconds": percentile(first_deltas, 50) if first_deltas else None,
            "first_delta_p99_seconds": percentile(first_deltas, 99) if first_deltas else None,
            "total_p99_seconds": percentile(
                [r["total_seconds"] for r in completed], 99
            )
            if completed
            else None,
            "failures": [r for r in records if not r.get("completed")],
        }

        if overload_burst > 0:
            burst_host, burst_port = host, port
            tight: Optional[ReplayService] = None
            if service is not None:
                # Self-hosted: overload a deliberately tight second instance
                # so the steady-state server's sizing stays honest.
                tight = ReplayService(
                    ServiceConfig(
                        max_inflight_plans=1,
                        max_pending_per_tenant=1,
                        max_pending_total=2,
                    )
                )
                burst_host, burst_port = await tight.start()
            try:
                burst = await asyncio.gather(
                    *(
                        _burst_session(burst_host, burst_port, f"burst-{index}")
                        for index in range(overload_burst)
                    )
                )
            finally:
                if tight is not None:
                    await tight.stop()
            report["overload"] = {
                "submitted": overload_burst,
                "rejected": sum(1 for r in burst if r["rejected"]),
                "completed": sum(1 for r in burst if r["completed"]),
                "errors": [r for r in burst if not r["rejected"] and not r["completed"]],
            }
        else:
            report["overload"] = None
    finally:
        if service is not None:
            await service.stop()

    overload_ok = (
        report["overload"] is None
        or (
            report["overload"]["rejected"] >= 1
            and not report["overload"]["errors"]
        )
    )
    report["ok"] = (
        report["failed"] == 0 and report["digest_mismatches"] == 0 and overload_ok
    )
    return report


def run_load(
    tenants: int = 8,
    plans_per_tenant: int = 1,
    distinct_plans: int = 4,
    cluster_jobs: int = 12,
    shards: int = 2,
    policies: Sequence[str] = ("grass",),
    overload_burst: int = 0,
    host: Optional[str] = None,
    port: Optional[int] = None,
    max_inflight: int = 2,
) -> Dict[str, Any]:
    """Run the full drive (offline ground truth, then the service) and report.

    Synchronous on purpose: offline digests are computed before the event
    loop starts, then the async drive runs under ``asyncio.run``.
    """
    distinct_plans = max(1, min(distinct_plans, tenants * plans_per_tenant))
    plans = build_plans(distinct_plans, cluster_jobs, shards, policies)
    digests = offline_digests(plans)
    plan_table = list(zip(plans, digests))
    return asyncio.run(
        _drive(
            host,
            port,
            tenants,
            plans_per_tenant,
            plan_table,
            overload_burst,
            max_inflight,
        )
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="drive a replay service with concurrent tenants and "
        "verify digest parity, latency and overload shedding"
    )
    parser.add_argument("--tenants", type=int, default=8, metavar="N")
    parser.add_argument("--plans-per-tenant", type=int, default=1, metavar="N")
    parser.add_argument(
        "--distinct-plans", type=int, default=4, metavar="N",
        help="distinct plans tenants cycle through (default 4)",
    )
    parser.add_argument("--cluster-jobs", type=int, default=12, metavar="N")
    parser.add_argument("--shards", type=int, default=2, metavar="K")
    parser.add_argument(
        "--policy", action="append", default=None, metavar="NAME", dest="policies"
    )
    parser.add_argument(
        "--overload-burst", type=int, default=0, metavar="B",
        help="also rapid-fire B submissions and require explicit rejections",
    )
    parser.add_argument(
        "--host", default=None, help="drive an external server (with --port)"
    )
    parser.add_argument(
        "--port", type=int, default=None,
        help="external server port; omit to self-host in-process",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=2, metavar="N",
        help="self-hosted server's concurrent-plan slots (default 2)",
    )
    parser.add_argument("--json", default=None, metavar="PATH", help="write the report as JSON")
    args = parser.parse_args(argv)

    if args.host is not None and args.port is None:
        parser.error("--host needs --port")

    report = run_load(
        tenants=args.tenants,
        plans_per_tenant=args.plans_per_tenant,
        distinct_plans=args.distinct_plans,
        cluster_jobs=args.cluster_jobs,
        shards=args.shards,
        policies=tuple(args.policies) if args.policies else ("grass",),
        overload_burst=args.overload_burst,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
    )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")

    p99 = report["first_delta_p99_seconds"]
    print(
        f"service-load: {report['completed']}/{report['plans']} plans from "
        f"{report['tenants']} tenants in {report['elapsed_seconds']:.2f}s "
        f"({report['plans_per_second']:.2f} plans/s, p99 first delta "
        f"{p99:.3f}s)" if p99 is not None else "service-load: no plans completed"
    )
    print(f"digest parity: {report['plans'] - report['digest_mismatches']}/{report['plans']} ok")
    if report["overload"] is not None:
        overload = report["overload"]
        print(
            f"overload: {overload['rejected']}/{overload['submitted']} rejected, "
            f"{overload['completed']} completed"
        )
    if not report["ok"]:
        print("service-load: FAILED")
        for failure in report["failures"]:
            print(f"  {failure}")
        return 1
    print("service-load: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
