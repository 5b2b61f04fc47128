"""Open-loop load generator for the replay service's JSONL protocol.

One process, a fixed number of connections.  Each submission is sent when it
falls due, whether or not earlier ones have finished, and is timed from its
due time, so a stall shows up as latency on every submission it delays.
How late the generator itself ran is recorded per submission (``lag``).

Admission answers a submit synchronously and in order, so ``accepted`` and
``rejected`` frames on a connection are matched to that connection's
submits first-in first-out; every later frame carries the request ``id``.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

_perf = time.perf_counter


@dataclass
class Submission:
    """One planned submission and everything observed about it."""

    due: float
    tenant: str
    #: Minimal wire plan: only the fields this submission sets.
    plan: Dict[str, object]
    #: Reference digest computed offline at set-up.
    expect: str
    #: Job results the plan delivers (jobs x policies x seeds).
    jobs: int
    kind: str
    sent_at: Optional[float] = None
    due_at: Optional[float] = None
    accepted_at: Optional[float] = None
    first_delta_at: Optional[float] = None
    done_at: Optional[float] = None
    request_id: Optional[int] = None
    outcome: Optional[str] = None
    server_digest: Optional[str] = None
    client_digest: Optional[str] = None
    elapsed_ms: float = 0.0
    frames: int = 0
    bytes: int = 0
    cache: Optional[Dict[str, int]] = None
    deltas: Dict[Tuple[str, int, int], bytes] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.outcome == "done"
            and self.server_digest == self.expect
            and self.client_digest == self.expect
        )

    @property
    def latency(self) -> Optional[float]:
        if self.done_at is None or self.due_at is None:
            return None
        return self.done_at - self.due_at

    @property
    def lag(self) -> float:
        return (self.sent_at or 0.0) - (self.due_at or 0.0)


def _refold(sub: Submission, done: Dict[str, object]) -> Optional[str]:
    """The client's own fold of the received deltas, in merge order."""
    from repro.simulator.sinks import fold_run_digests

    policies = [str(p) for p in done["policies"]]
    seeds = [int(s) for s in done["seeds"]]
    shards = int(done["num_shards"])
    expected = {(p, s, k) for p in policies for s in seeds for k in range(shards)}
    if set(sub.deltas) != expected:
        return None
    return fold_run_digests(
        (p, [sub.deltas[(p, s, k)] for s in seeds for k in range(shards)]) for p in policies
    )


async def _connection(host: str, port: int, subs: List[Submission], t0: float) -> None:
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 22)
    awaiting_ack: Deque[Submission] = deque()
    by_id: Dict[int, Submission] = {}
    remaining = len(subs)

    async def send() -> None:
        for sub in subs:
            sub.due_at = t0 + sub.due
            delay = sub.due_at - _perf()
            if delay > 0:
                await asyncio.sleep(delay)
            frame = json.dumps(
                {"op": "submit", "tenant": sub.tenant, "plan": sub.plan},
                separators=(",", ":"),
            ).encode("utf-8") + b"\n"
            awaiting_ack.append(sub)
            sub.sent_at = _perf()
            writer.write(frame)
            await writer.drain()

    sender = asyncio.ensure_future(send())
    try:
        while remaining:
            line = await reader.readline()
            now = _perf()
            if not line:
                raise ConnectionError("service closed the connection")
            message = json.loads(line)
            event = message.get("event")
            if event in ("accepted", "rejected"):
                sub = awaiting_ack.popleft()
                sub.frames += 1
                sub.bytes += len(line)
                sub.accepted_at = now
                if event == "rejected":
                    sub.outcome = f"rejected-{message.get('code')}"
                    sub.done_at = now
                    remaining -= 1
                else:
                    sub.request_id = int(message["id"])
                    by_id[sub.request_id] = sub
                continue
            if event == "pong":
                continue
            sub = by_id[int(message["id"])]
            sub.frames += 1
            sub.bytes += len(line)
            if event == "delta":
                if sub.first_delta_at is None:
                    sub.first_delta_at = now
                key = (str(message["policy"]), int(message["seed"]), int(message["shard"]))
                sub.deltas[key] = bytes.fromhex(message["chunk"]["digest"])
            elif event in ("done", "error"):
                sub.done_at = now
                sub.outcome = event
                remaining -= 1
                if event == "done":
                    sub.server_digest = str(message["digest"])
                    sub.elapsed_ms = float(message["elapsed_ms"])
                    sub.cache = message.get("cache")
                    sub.client_digest = _refold(sub, message)
        await sender
    finally:
        if not sender.done():
            sender.cancel()
            try:
                await sender
            except asyncio.CancelledError:
                pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def drive(host: str, port: int, subs: List[Submission], connections: int,
                timeout: float) -> None:
    """Send every submission at its due time over ``connections`` sockets
    (round-robin) and collect each one's frames through its final frame.

    Submissions still unanswered after ``timeout`` seconds, or when the
    service drops a connection, keep no outcome, which counts them as failed.
    """
    t0 = _perf() + 0.05
    groups = [subs[i::connections] for i in range(connections)]
    try:
        await asyncio.wait_for(
            asyncio.gather(*(_connection(host, port, group, t0) for group in groups if group)),
            timeout,
        )
    except (asyncio.TimeoutError, ConnectionError):
        pass


async def ping(host: str, port: int) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(b'{"op":"ping"}\n')
        await writer.drain()
        reply = json.loads(await reader.readline())
        if reply.get("event") != "pong":
            raise ConnectionError(f"expected pong, got {reply!r}")
    finally:
        writer.close()
        await writer.wait_closed()
