"""In-memory tracer that times the program's layers from the outside.

:func:`install` wraps public functions and methods of the ``repro`` layers
(the list is in :func:`install`) with timing or counting wrappers; nothing
under ``src/`` is edited.  A function imported by name into another module
(``from repro.workload.traces import load_trace``) is replaced there too.

Coarse layers (runner entry points, the executor, one engine run) record a
span each: name, start, end, parent span and operation id.  Hot inner layers
(event queue, fair share, straggler draws, policy choice, index refresh,
estimator snaps, sink folds) would produce millions of spans, so each keeps
a per-thread aggregate of calls, total time and self time instead.  Self
time is a call's duration minus the time its timed callees took, whichever
kind they are.  Spans stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter

#: Policies whose ``choose_task`` is attributed separately.
POLICIES = ("grass", "gs", "late", "oracle")


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[list] = []
        self.totals: Optional[Dict[str, list]] = None
        self.counters: Optional[Dict[str, float]] = None


class Tracer:
    """Spans, per-layer timing aggregates and counters for one traced run."""

    def __init__(self) -> None:
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._all_totals: List[Dict[str, list]] = []
        self._all_counters: List[Dict[str, float]] = []
        self.spans: List[Tuple[str, float, float, Optional[int], str, int]] = []
        self._next_span = 0
        self.op_id = "-"
        self._peaks: set = set()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- per-thread state --------------------------------------------------------

    def _state(self):
        local = self._local
        if local.totals is None:
            local.totals = defaultdict(lambda: [0, 0.0, 0.0])
            local.counters = defaultdict(float)
            with self._lock:
                self._all_totals.append(local.totals)
                self._all_counters.append(local.counters)
        return local

    def count(self, name: str, amount: float = 1) -> None:
        self._state().counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        """Record a high-water mark; threads merge by maximum, not sum."""
        self._peaks.add(name)
        counters = self._state().counters
        counters[name] = max(counters[name], value)

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)`` over all threads."""
        merged: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for per_thread in self._all_totals:
            for name, (calls, total, own) in list(per_thread.items()):
                entry = merged[name]
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return {name: tuple(values) for name, values in merged.items()}

    def counters(self) -> Dict[str, float]:
        merged: Dict[str, float] = defaultdict(float)
        for per_thread in self._all_counters:
            for name, value in list(per_thread.items()):
                if name in self._peaks:
                    merged[name] = max(merged[name], value)
                else:
                    merged[name] += value
        return dict(merged)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id, span_id in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )

    # -- wrappers ---------------------------------------------------------------

    def timed(self, name: str, fn: Callable, span: bool = False,
              after: Optional[Callable[..., None]] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent_span = None
            for frame in reversed(stack):
                if frame[1] is not None:
                    parent_span = frame[1]
                    break
            span_id = None
            if span:
                with tracer._lock:
                    span_id = tracer._next_span
                    tracer._next_span += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                stack.pop()
                entry = state.totals[name]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    tracer.spans.append(
                        (name, start, start + elapsed, parent_span, tracer.op_id, span_id)
                    )
            if after is not None:
                after(tracer, result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable, only_results: bool = False) -> Callable:
        """Count calls (with ``only_results``, calls returning non-None)."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result is not None or not only_results:
                tracer._state().counters[name] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_function(self, module: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap ``module.attr`` and every ``repro`` module's import of it."""
        import sys

        original = getattr(module, attr)
        wrapped = make(original)
        for name, loaded in sorted(sys.modules.items()):
            if not name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self.patch(loaded, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# -- what gets wrapped ---------------------------------------------------------------


def _after_engine_run(tracer: Tracer, metrics, _args) -> None:
    tracer.count("engine.simulations")
    tracer.count("engine.events", metrics.events_processed)
    tracer.count("engine.copies", metrics.total_copies_launched)
    tracer.count("engine.spec_copies", metrics.speculative_copies_launched)
    tracer.count("engine.wasted_slot_s", metrics.wasted_slot_seconds)
    tracer.peak("engine.peak_resident_jobs", metrics.peak_resident_jobs)


def _choose_after(policy: str):
    def after(tracer: Tracer, decision, _args) -> None:
        if decision is not None:
            tracer.count(f"policies.{policy}.useful")

    return after


def install(tracer: Tracer) -> None:
    """Wrap every traced layer; undo with ``tracer.uninstall()``."""
    from repro.core.estimators import TaskEstimator
    from repro.core.policies.base import SchedulingIndex
    from repro.experiments import cache as cache_mod
    from repro.experiments import runner, warmup
    from repro.experiments.executor import ParallelExecutor
    from repro.experiments.policies import make_policy
    from repro.service.admission import FairShareAdmission
    from repro.simulator import sinks
    from repro.simulator.cluster import Cluster
    from repro.simulator.engine import Simulation
    from repro.simulator.events import EventQueue
    from repro.simulator.stragglers import StragglerModel
    from repro.workload import synthetic, trace_replay, traces

    t = tracer
    for module, attr, name, span in (
        (runner, "execute", "runner", True),
        (runner, "compare_policies", "runner", True),
        (traces, "load_trace", "traces.load", False),
        (traces, "scan_trace", "traces.scan", False),
        (trace_replay, "trace_to_workload", "trace_replay.specgen", False),
        (trace_replay, "slice_trace", "trace_replay.specgen", False),
        (synthetic, "generate_workload", "synthetic.generate", False),
        (cache_mod, "source_fingerprint", "cache.fingerprint", False),
        (cache_mod, "engine_fingerprint", "cache.fingerprint", False),
        (sinks, "chunk_to_wire", "sinks.wire", False),
        (sinks, "chunk_from_wire", "sinks.wire", False),
    ):
        t.patch_function(module, attr, lambda fn, n=name, s=span: t.timed(n, fn, span=s))

    def fold_run_digests(original):
        def counting(named_parts):
            materialised = [(policy, list(parts)) for policy, parts in named_parts]
            t.count("sinks.chunks", sum(len(parts) for _, parts in materialised))
            return original(materialised)

        return t.timed("sinks.fold", counting)

    t.patch_function(sinks, "fold_run_digests", fold_run_digests)

    def cache_counting(method, fields):
        """Count what one ReplayCache call added to the cache's own counters."""

        def call(self, *args, **kwargs):
            before = [getattr(self.counters, field) for field in fields]
            result = method(self, *args, **kwargs)
            for field, old in zip(fields, before):
                t.count(f"cache.{field}", getattr(self.counters, field) - old)
            return result

        return call

    cache_cls = cache_mod.ReplayCache
    lookup = cache_counting(cache_cls.lookup, ("hits", "misses", "bytes_read"))
    store = cache_counting(cache_cls.store, ("stores", "bytes_written"))
    t.patch(cache_cls, "lookup", t.timed("cache.lookup", lookup))
    t.patch(cache_cls, "store", t.timed("cache.store", store))

    t.patch(ParallelExecutor, "run", t.timed("executor", ParallelExecutor.run, span=True))
    t.patch(warmup.WarmupCache, "prewarm", t.timed("warmup.prewarm", warmup.WarmupCache.prewarm))
    t.patch(Simulation, "run", t.timed("engine", Simulation.run, span=True, after=_after_engine_run))
    t.patch(EventQueue, "push", t.counted("events.pushes", EventQueue.push))
    t.patch(EventQueue, "pop", t.counted("events.pops", EventQueue.pop, True))
    t.patch(EventQueue, "pop_at_or_before", t.counted("events.pops", EventQueue.pop_at_or_before, True))
    t.patch(EventQueue, "cancel", t.counted("events.cancels", EventQueue.cancel))
    for attr in ("fair_share", "fair_share_limits"):
        t.patch(Cluster, attr, t.timed("cluster.fair_share", getattr(Cluster, attr)))
    t.patch(StragglerModel, "copy_duration", t.timed("stragglers.draw", StragglerModel.copy_duration))
    for policy in POLICIES:
        cls = type(make_policy(policy))
        t.patch(cls, "choose_task", t.timed(
            f"policies.{policy}.choose", cls.choose_task, after=_choose_after(policy)
        ))
    t.patch(SchedulingIndex, "prepare", t.timed("index.prepare", SchedulingIndex.prepare))
    t.patch(TaskEstimator, "update_running_snaps",
            t.timed("estimators.snaps", TaskEstimator.update_running_snaps))
    t.patch(TaskEstimator, "tnew", t.counted("estimators.tnew_calls", TaskEstimator.tnew))
    t.patch(TaskEstimator, "trem", t.counted("estimators.trem_calls", TaskEstimator.trem))
    t.patch(sinks.ResultSink, "record", t.timed("sinks.fold", sinks.ResultSink.record))
    t.patch(FairShareAdmission, "submit", t.timed("admission.submit", FairShareAdmission.submit))
    t.patch(FairShareAdmission, "next", t.timed("admission.next", FairShareAdmission.next))
