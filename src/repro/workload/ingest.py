"""Streaming ingestion of real cluster traces into the replay JSONL schema.

The paper's own evaluation (§Table 1) replays Facebook and Bing *production*
traces; the closest publicly downloadable equivalents are the Google
cluster-traces (task-events tables) and the Alibaba cluster-trace (batch-task
tables).  This module converts either CSV format into the repo's replay
schema — one ``{"job_id", "arrival_time", "task_durations"}`` object per line
(see :mod:`repro.workload.traces`) — in **one streaming pass**: source rows
are read once, tasks are grouped into jobs with bounded per-job buffering,
and finished jobs are emitted in arrival order the moment no still-open job
could precede them.  The input is never materialised; resident state is
O(concurrently open jobs), never O(trace).

Column mappings (also tabulated in the README):

**Google cluster-traces task events** (``task_events/part-*.csv``; columns by
position, per the format v2 schema):

====== ======================= ==========================================
column field                   use here
====== ======================= ==========================================
0      timestamp (microsecs)   watermark; SCHEDULE = task start,
                               FINISH = task end
2      job ID                  grouping key
3      task index              identifies the task within the job
5      event type              1 = SCHEDULE, 4 = FINISH (produce a
                               duration); 2/3/5/6 = EVICT/FAIL/KILL/LOST
                               (close the attempt, no duration);
                               everything else is skipped
====== ======================= ==========================================

A task duration is ``(FINISH − SCHEDULE) / 1e6`` seconds; a job's arrival is
its first task's SCHEDULE time.  Rows must be sorted by timestamp — the
published trace files are — because the watermark that closes jobs and
orders emissions is the row timestamp.

**Alibaba cluster-trace batch tasks** (``batch_task.csv``, v2018 schema):

====== ============== ====================================================
column field          use here
====== ============== ====================================================
0      task name      identifies the task within the job
1      instance num   the task's duration is emitted once per instance
2      job name       grouping key
4      status         only ``Terminated`` rows produce durations
5      start time (s) watermark; the job's arrival is its earliest start
6      end time (s)   duration = end − start
====== ============== ====================================================

Rows must be sorted by start time (``sort -t, -k6 -n`` the published file
first).  Rows whose status is not ``Terminated``, or whose duration is not
positive, are *skipped* (and counted in :class:`IngestStats`) — real trace
dumps contain such rows and they carry no replayable duration.  Rows that
are structurally malformed — wrong column count, non-numeric fields — raise
:class:`~repro.workload.traces.TraceFormatError` naming ``file:line``,
exactly like the JSONL parser.

Emitted jobs are renumbered ``0, 1, 2, ...`` in arrival order (source job
keys are 64-bit integers in one format and strings in the other; sequential
ids keep the output uniform and collision-free) and arrivals are rebased so
the trace starts at zero.  Because emission is arrival-ordered, the output
satisfies the ``(arrival_time, job_id)`` sort that replay requires —
converted traces replay as they are, with O(concurrent jobs) memory.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, TextIO, Tuple, Union

from repro.workload.traces import TraceFormatError, TraceJob

#: Supported source formats (the ``--format`` choices of the CLI verb).
INGEST_FORMATS = ("google", "alibaba")

#: Google task-event types that matter here (format v2, column 5).
_GOOGLE_SCHEDULE = 1
#: Terminal event types: FINISH produces a duration, the rest close the
#: attempt without one (evicted/failed/killed work has no useful duration).
_GOOGLE_FINISH = 4
_GOOGLE_TERMINAL = frozenset({2, 3, 4, 5, 6})

#: Default idle gap (seconds) after which a job with no open tasks is closed.
DEFAULT_CLOSE_GAP = 300.0


@dataclass
class IngestStats:
    """Counters from one conversion pass (printed by the CLI verb)."""

    rows_read: int = 0
    #: Rows skipped by policy (non-Terminated status, unknown event type,
    #: non-positive duration) — not errors, but worth surfacing.
    rows_skipped: int = 0
    #: Task starts that never saw a terminal event (trace window cut them off).
    tasks_unfinished: int = 0
    #: Jobs dropped because no task produced a duration.
    jobs_empty: int = 0
    jobs_emitted: int = 0
    tasks_emitted: int = 0

    def rows(self) -> List[Tuple[str, int]]:
        return [
            ("rows read", self.rows_read),
            ("rows skipped", self.rows_skipped),
            ("unfinished task starts", self.tasks_unfinished),
            ("jobs without durations", self.jobs_empty),
            ("jobs emitted", self.jobs_emitted),
            ("tasks emitted", self.tasks_emitted),
        ]


@dataclass
class _OpenJob:
    """Bounded per-job buffer: arrival, completed durations, open starts."""

    arrival: float
    #: Insertion sequence — tie-breaks equal arrivals deterministically.
    seq: int
    durations: List[float] = field(default_factory=list)
    #: Google: task index → SCHEDULE time of the currently open attempt.
    open_starts: Dict[int, float] = field(default_factory=dict)
    last_event: float = 0.0


class _ArrivalOrderEmitter:
    """Groups per-task observations into jobs and emits them in arrival order.

    The streaming core shared by both formats.  Callers push observations
    with a non-decreasing watermark (the source row's timestamp); the
    emitter keeps jobs open while they may still receive tasks, closes a
    job once it has no open task attempts and the watermark has moved
    ``close_gap`` seconds past its last event, and releases closed jobs the
    moment no open job has an earlier ``(arrival, seq)`` key.  Resident
    state is the open jobs (each bounded by its own task count) plus the
    closed-but-blocked heap (bounded by the arrival overlap of the trace).
    """

    def __init__(self, close_gap: float, stats: IngestStats) -> None:
        if close_gap < 0:
            raise ValueError("close_gap must be non-negative")
        self.close_gap = close_gap
        self.stats = stats
        self._open: Dict[object, _OpenJob] = {}
        #: Closed jobs not yet emittable: heap of (arrival, seq, durations).
        self._ready: List[Tuple[float, int, List[float]]] = []
        self._next_seq = 0

    def job(self, key: object, arrival: float) -> _OpenJob:
        """The open buffer for ``key``, created at ``arrival`` if new."""
        entry = self._open.get(key)
        if entry is None:
            entry = _OpenJob(arrival=arrival, seq=self._next_seq)
            self._next_seq += 1
            self._open[key] = entry
        return entry

    def has_job(self, key: object) -> bool:
        return key in self._open

    def _close(self, key: object) -> None:
        entry = self._open.pop(key)
        self.stats.tasks_unfinished += len(entry.open_starts)
        if not entry.durations:
            self.stats.jobs_empty += 1
            return
        heapq.heappush(self._ready, (entry.arrival, entry.seq, entry.durations))

    def advance(self, watermark: float) -> Iterator[Tuple[float, List[float]]]:
        """Close idle jobs and yield every emission the watermark unblocks."""
        closable = [
            key
            for key, entry in self._open.items()
            if not entry.open_starts
            and watermark - entry.last_event >= self.close_gap
        ]
        for key in closable:
            self._close(key)
        yield from self._drain_ready()

    def _drain_ready(self) -> Iterator[Tuple[float, List[float]]]:
        # A closed job may only be emitted once no open job precedes it in
        # (arrival, seq) order — otherwise a still-open earlier job would be
        # emitted out of order later.
        if not self._ready:
            return
        if self._open:
            horizon = min((entry.arrival, entry.seq) for entry in self._open.values())
        else:
            horizon = None
        while self._ready and (horizon is None or self._ready[0][:2] < horizon):
            arrival, _seq, durations = heapq.heappop(self._ready)
            yield arrival, durations

    def finish(self) -> Iterator[Tuple[float, List[float]]]:
        """Close every remaining job (end of input) and drain the heap."""
        for key in list(self._open):
            self._close(key)
        yield from self._drain_ready()


def _split_csv_row(
    path: Path, lineno: int, line: str, min_columns: int
) -> Optional[List[str]]:
    """Split one CSV line, or None for a blank line.

    The cluster-trace CSVs are plain comma-separated (no quoting in the
    columns used here), so a raw split both avoids ``csv`` module state and
    keeps the file:line error attribution exact.
    """
    line = line.strip()
    if not line:
        return None
    columns = line.split(",")
    if len(columns) < min_columns:
        raise TraceFormatError(
            f"{path}:{lineno}: expected at least {min_columns} comma-separated "
            f"columns, got {len(columns)}"
        )
    return columns


def _parse_number(path: Path, lineno: int, name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise TraceFormatError(
            f"{path}:{lineno}: {name} must be numeric, got {raw!r}"
        ) from None


def _require_sorted(
    path: Path, lineno: int, name: str, previous: float, current: float
) -> None:
    if current < previous:
        raise TraceFormatError(
            f"{path}:{lineno}: {name} went backwards ({current} after {previous}); "
            "the converter streams in one pass and needs a time-sorted file — "
            "sort the CSV by that column first"
        )


def iter_google_jobs(
    path: Union[str, Path],
    close_gap: float = DEFAULT_CLOSE_GAP,
    stats: Optional[IngestStats] = None,
) -> Iterator[Tuple[float, List[float]]]:
    """Stream (arrival_seconds, task_durations) jobs from Google task events.

    One pass, rows required sorted by timestamp (column 0).  A task attempt
    opens at SCHEDULE and produces a duration at FINISH; other terminal
    events close the attempt without one.  A job closes once it has no open
    attempts and the watermark is ``close_gap`` seconds past its last event;
    if a closed job's id reappears the file needs a larger ``close_gap`` and
    the converter says so rather than silently splitting the job.
    """
    path = Path(path)
    stats = stats if stats is not None else IngestStats()
    emitter = _ArrivalOrderEmitter(close_gap, stats)
    seen_keys: set = set()  # O(#jobs) ids, mirroring iter_trace's duplicate guard
    previous_time = float("-inf")
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            columns = _split_csv_row(path, lineno, line, min_columns=6)
            if columns is None:
                continue
            stats.rows_read += 1
            time_us = _parse_number(path, lineno, "timestamp", columns[0])
            _require_sorted(path, lineno, "timestamp", previous_time, time_us)
            previous_time = time_us
            event_type = int(_parse_number(path, lineno, "event type", columns[5]))
            time_s = time_us / 1e6
            if event_type != _GOOGLE_SCHEDULE and event_type not in _GOOGLE_TERMINAL:
                stats.rows_skipped += 1
                yield from emitter.advance(time_s)
                continue
            job_key = columns[2]
            if not job_key:
                raise TraceFormatError(f"{path}:{lineno}: empty job ID")
            task_index = int(_parse_number(path, lineno, "task index", columns[3]))
            if job_key in seen_keys and not emitter.has_job(job_key):
                raise TraceFormatError(
                    f"{path}:{lineno}: job {job_key} reappeared after being "
                    f"closed by the {close_gap:.0f}s idle gap; rerun with a "
                    "larger --close-gap"
                )
            entry = emitter.job(job_key, arrival=time_s)
            entry.last_event = time_s
            if event_type == _GOOGLE_SCHEDULE:
                # A re-schedule of the same index replaces the open attempt
                # (the trace re-schedules evicted work under the same index).
                if task_index in entry.open_starts:
                    stats.tasks_unfinished += 1
                entry.open_starts[task_index] = time_s
            else:
                started = entry.open_starts.pop(task_index, None)
                if started is None:
                    stats.rows_skipped += 1  # terminal event without a start
                elif event_type == _GOOGLE_FINISH:
                    duration = time_s - started
                    if duration > 0:
                        entry.durations.append(round(duration, 4))
                    else:
                        stats.rows_skipped += 1
                else:
                    stats.tasks_unfinished += 1
            seen_keys.add(job_key)
            yield from emitter.advance(time_s)
    yield from emitter.finish()


def iter_alibaba_jobs(
    path: Union[str, Path],
    close_gap: float = DEFAULT_CLOSE_GAP,
    stats: Optional[IngestStats] = None,
) -> Iterator[Tuple[float, List[float]]]:
    """Stream (arrival_seconds, task_durations) jobs from Alibaba batch tasks.

    One pass, rows required sorted by start time (column 5).  Each
    ``Terminated`` row contributes its ``end − start`` duration once per
    instance; a job closes once the start-time watermark moves ``close_gap``
    seconds past the job's last row.
    """
    path = Path(path)
    stats = stats if stats is not None else IngestStats()
    emitter = _ArrivalOrderEmitter(close_gap, stats)
    seen_keys: set = set()  # O(#jobs) ids, mirroring iter_trace's duplicate guard
    previous_start = float("-inf")
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            columns = _split_csv_row(path, lineno, line, min_columns=7)
            if columns is None:
                continue
            stats.rows_read += 1
            start = _parse_number(path, lineno, "start time", columns[5])
            _require_sorted(path, lineno, "start time", previous_start, start)
            previous_start = start
            job_key = columns[2]
            if not job_key:
                raise TraceFormatError(f"{path}:{lineno}: empty job name")
            if job_key in seen_keys and not emitter.has_job(job_key):
                raise TraceFormatError(
                    f"{path}:{lineno}: job {job_key} reappeared after being "
                    f"closed by the {close_gap:.0f}s idle gap; rerun with a "
                    "larger --close-gap"
                )
            status = columns[4]
            instances = int(_parse_number(path, lineno, "instance num", columns[1]))
            end = _parse_number(path, lineno, "end time", columns[6])
            entry = emitter.job(job_key, arrival=start)
            entry.last_event = start
            seen_keys.add(job_key)
            duration = end - start
            if status != "Terminated" or duration <= 0 or instances < 1:
                stats.rows_skipped += 1
            else:
                entry.durations.extend([round(duration, 4)] * instances)
            yield from emitter.advance(start)
    yield from emitter.finish()


_FORMAT_READERS = {
    "google": iter_google_jobs,
    "alibaba": iter_alibaba_jobs,
}


def iter_ingested_trace(
    source_format: str,
    path: Union[str, Path],
    limit_jobs: Optional[int] = None,
    window: Optional[Tuple[float, float]] = None,
    close_gap: float = DEFAULT_CLOSE_GAP,
    stats: Optional[IngestStats] = None,
) -> Iterator[TraceJob]:
    """Stream :class:`TraceJob` records converted from a source CSV.

    Jobs come out renumbered sequentially in arrival order with arrivals
    rebased to the trace's first job.  ``window=(start, end)`` keeps only
    jobs whose rebased arrival falls in ``[start, end)``; ``limit_jobs``
    stops after that many emitted jobs (the source file is not read further
    — combined with the streaming grouping, converting the first thousand
    jobs of a multi-gigabyte trace reads only its head).  Counters accumulate
    into ``stats`` when given.
    """
    if source_format not in _FORMAT_READERS:
        raise ValueError(
            f"unknown ingest format {source_format!r}; "
            f"expected one of {', '.join(INGEST_FORMATS)}"
        )
    if limit_jobs is not None and limit_jobs < 1:
        raise ValueError("limit_jobs must be at least 1")
    if window is not None:
        start, end = window
        if not 0 <= start < end:
            raise ValueError("window must satisfy 0 <= start < end")
    stats = stats if stats is not None else IngestStats()
    reader = _FORMAT_READERS[source_format]
    base_arrival: Optional[float] = None
    next_id = 0
    for arrival, durations in reader(path, close_gap=close_gap, stats=stats):
        if base_arrival is None:
            base_arrival = arrival
        rebased = arrival - base_arrival
        if window is not None:
            if rebased < window[0]:
                continue
            if rebased >= window[1]:
                break
        job = TraceJob(
            job_id=next_id, arrival_time=rebased, task_durations=durations
        )
        next_id += 1
        stats.jobs_emitted += 1
        stats.tasks_emitted += len(durations)
        yield job
        if limit_jobs is not None and next_id >= limit_jobs:
            break


def _write_job(handle: TextIO, job: TraceJob) -> None:
    record = {
        "job_id": job.job_id,
        "arrival_time": job.arrival_time,
        "task_durations": job.task_durations,
    }
    handle.write(json.dumps(record) + "\n")


def ingest_trace(
    source_format: str,
    input_path: Union[str, Path],
    output_path: Union[str, Path],
    limit_jobs: Optional[int] = None,
    window: Optional[Tuple[float, float]] = None,
    close_gap: float = DEFAULT_CLOSE_GAP,
) -> IngestStats:
    """Convert a source CSV to replay JSONL, streaming end to end.

    Each converted job is written the moment it is emitted, so neither the
    input rows nor the output jobs are ever materialised.  Returns the
    conversion counters.  Raises :class:`TraceFormatError` (naming
    ``file:line``) on malformed rows and ``ValueError`` when the conversion
    produced no jobs at all — an empty output would only fail later, in
    replay, with a less actionable message.
    """
    stats = IngestStats()
    output_path = Path(output_path)
    jobs = iter_ingested_trace(
        source_format,
        input_path,
        limit_jobs=limit_jobs,
        window=window,
        close_gap=close_gap,
        stats=stats,
    )
    with output_path.open("w", encoding="utf-8") as handle:
        for job in jobs:
            _write_job(handle, job)
    if stats.jobs_emitted == 0:
        output_path.unlink(missing_ok=True)
        raise ValueError(
            f"no replayable jobs found in {input_path} "
            f"({stats.rows_read} rows read, {stats.rows_skipped} skipped); "
            "check the --format, --window and --close-gap choices"
        )
    return stats
