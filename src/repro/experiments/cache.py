"""Content-addressed replay result cache: never simulate the same slice twice.

Five PRs made every (policy, seed, shard) unit of replay work
bit-deterministic, gave its result a constant-size wire encoding
(:func:`repro.simulator.sinks.chunk_to_wire`) and made the merge an
associative fold.  That is exactly the precondition for *memoizing* results
instead of recomputing them — the efficiency-over-exactness trade at the
heart of GRASS, applied one level up: repeated load (CI determinism
matrices, figure reruns, multi-tenant serving) becomes O(cache lookup)
instead of O(simulation).

Keying — content-addressed, three ingredients
---------------------------------------------

An entry's key is the sha256 over the canonical JSON of:

* the **plan slice**: every plan field that can change the slice's digest
  (policy, simulation seed, shard coordinates, cluster size, framework,
  bound kind, bound-assignment seed) — and *none* that cannot (``workers``
  and the sink are wall-clock/memory knobs whose digest-invariance the
  replay-determinism matrix locks);
* the **source fingerprint**: sha256 of the trace file's bytes, or the
  canonical dict of a generated tier's config — edit one row of a trace and
  every key under it changes;
* the **engine fingerprint**: sha256 over the digest-relevant sources —
  ``repro.{baselines,core,simulator,utils,workload}`` plus the experiments
  modules that configure and run a slice (:data:`ENGINE_MODULES`) — and the
  interpreter's major.minor version, so editing the simulator silently
  invalidates every entry computed by the old engine (the entries become
  unreachable keys, reclaimed by eviction or ``cache clear``).  It is plain
  file hashing: a hit pays about a millisecond for it.

The value is the slice's sealed :class:`~repro.simulator.sinks.AggregateChunk`
in its existing wire encoding plus the collector's scalar counters — enough
to restore a :class:`~repro.simulator.metrics.MetricsCollector` whose
aggregates (and digest part) are byte-identical to the simulation's.

Store layout and concurrency
----------------------------

``<root>/<key[:2]>/<key>.json`` — one JSON file per entry, fanned out over
256 prefix directories.  Writes go to a unique temp file in the same
directory and land with ``os.replace``, so readers never observe a partial
entry and concurrent multi-process writers of the *same* key (which, being
content-addressed, write the same bytes) simply race to an identical
result.  A small in-memory LRU fronts the store; the on-disk store is
bounded by ``max_bytes`` with least-recently-*used* eviction (hits refresh
the entry file's mtime).

Corrupt, truncated or wrong-version entries are treated as misses with a
one-line :class:`CacheIntegrityWarning` and are deleted (the next store
rewrites them); they never crash a replay.

Scan records
------------

``<root>/scans/<key>.json`` persists a source's calibration scan
(:class:`~repro.workload.traces.TraceScan`: job count, mean
slowest-to-median ratio, arrival-sortedness), keyed by the source's content
fingerprint and the engine fingerprint.  A record is written only after a
scan succeeds and is read back under the same integrity checks as slice
entries, so a replay whose slices all hit reads the trace only to hash it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import sys
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import repro
from repro.simulator.metrics import MetricsCollector
from repro.simulator.sinks import (
    AggregateChunk,
    SealedChunkSink,
    chunk_from_wire,
    chunk_to_wire,
)
from repro.utils.stats import OnlineStats
from repro.workload.traces import ClusterTierConfig, TraceScan

#: Bump when the entry payload layout changes; older files become warned
#: misses (satellite contract: never crash, never silently misread).
CACHE_FORMAT_VERSION = 1

#: ``repro`` subpackages whose sources can change a replay digest.
ENGINE_PACKAGES = ("baselines", "core", "simulator", "utils", "workload")

#: ``repro.experiments`` modules that change how a slice simulates: the policy
#: registry, the slice's simulation config and spec wiring, request
#: execution, and warm-up.  The rest of the package decides *what* to
#: simulate (already keyed by the plan slice), folds slices, or caches them.
#: tests/test_replay_cache.py simulates every registered policy and fails if
#: a loaded ``repro`` module is neither fingerprinted nor allowlisted there.
ENGINE_MODULES = (
    "experiments/executor.py",
    "experiments/policies.py",
    "experiments/simulate.py",
    "experiments/warmup.py",
)

#: Subdirectory of the cache root holding calibration scan records.
SCAN_DIR = "scans"


class CacheIntegrityWarning(UserWarning):
    """A cache entry was corrupt/truncated/wrong-version; treated as a miss."""


class StaleEntryError(RuntimeError):
    """A cache entry cannot be re-verified (source moved or changed)."""


def canonical_json_bytes(payload: object) -> bytes:
    """The one canonical encoding every fingerprint in this module hashes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


# -- fingerprints ------------------------------------------------------------------

#: Engine fingerprints memoized per package root (stable for the process:
#: source files do not change under a running replay).
_ENGINE_FINGERPRINTS: Dict[str, str] = {}

#: Trace-file fingerprints memoized by (path, size, mtime_ns, inode) so the
#: service's repeated-tenant probes pay one file read, then O(stat).
_SOURCE_FINGERPRINTS: Dict[Tuple[str, int, int, int], str] = {}


def engine_source_files(base: Path) -> List[Path]:
    """The source files :func:`engine_fingerprint` hashes under ``base``, in
    hashing order (sorted by relative path).  A listed module missing from
    ``base`` is skipped; the closure test guards against that in the
    installed package."""
    files = [path for package in ENGINE_PACKAGES for path in (base / package).rglob("*.py")]
    files += [base / module for module in ENGINE_MODULES if (base / module).is_file()]
    return sorted(files, key=lambda path: path.relative_to(base).as_posix())


def engine_fingerprint(root: Optional[Union[str, Path]] = None) -> str:
    """sha256 over the digest-relevant engine sources (see module docs).

    ``root`` is the directory holding the ``repro`` package's subpackages;
    it defaults to the installed package and exists as a parameter so the
    invalidation tests can fingerprint an edited copy.  Files are folded in
    sorted relative-path order with their paths mixed in, so renames — not
    just edits — change the fingerprint.  The interpreter's major.minor
    version is folded in too: ``random``'s internals and float formatting
    belong to the interpreter.
    """
    base = Path(root) if root is not None else Path(repro.__file__).resolve().parent
    memo_key = str(base)
    cached = _ENGINE_FINGERPRINTS.get(memo_key)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    hasher.update("python {}.{}".format(*sys.version_info[:2]).encode("utf-8"))
    hasher.update(b"\x00")
    for path in engine_source_files(base):
        hasher.update(path.relative_to(base).as_posix().encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(path.read_bytes())
        hasher.update(b"\x00")
    digest = hasher.hexdigest()
    _ENGINE_FINGERPRINTS[memo_key] = digest
    return digest


def source_fingerprint(source: Union[str, Path, ClusterTierConfig]) -> str:
    """Content fingerprint of a replay source.

    Trace files are hashed by *content* (streamed sha256 — edit one row and
    every cached slice under the trace misses); generated tiers are hashed
    by the canonical dict of every :class:`ClusterTierConfig` field, which
    fully determines the generated jobs.  File fingerprints are memoized by
    ``(path, size, mtime_ns, inode)``.
    """
    if isinstance(source, ClusterTierConfig):
        payload = {"kind": "cluster"}
        payload.update(dataclasses.asdict(source))
        digest = hashlib.sha256(canonical_json_bytes(payload)).hexdigest()
        return f"cluster:sha256:{digest}"
    path = Path(source)
    stat = path.stat()
    memo_key = (str(path.resolve()), stat.st_size, stat.st_mtime_ns, stat.st_ino)
    cached = _SOURCE_FINGERPRINTS.get(memo_key)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(block)
    digest = f"trace:sha256:{hasher.hexdigest()}"
    if len(_SOURCE_FINGERPRINTS) >= 64:
        _SOURCE_FINGERPRINTS.clear()
    _SOURCE_FINGERPRINTS[memo_key] = digest
    return digest


def source_descriptor(source: Union[str, Path, ClusterTierConfig]) -> Dict[str, object]:
    """A re-runnable description of a source, stored beside each entry.

    The fingerprint alone cannot be *executed*; ``cache verify`` needs to
    re-simulate a sampled entry, so entries also carry this descriptor
    (absolute trace path, or the full tier config).
    """
    if isinstance(source, ClusterTierConfig):
        descriptor = {"kind": "cluster"}
        descriptor.update(dataclasses.asdict(source))
        return descriptor
    return {"kind": "trace", "path": str(Path(source).resolve())}


def source_from_descriptor(
    descriptor: Dict[str, object]
) -> Union[str, ClusterTierConfig]:
    """Inverse of :func:`source_descriptor`; raises :class:`StaleEntryError`."""
    kind = descriptor.get("kind")
    if kind == "trace":
        return str(descriptor["path"])
    if kind == "cluster":
        fields = {
            key: value for key, value in descriptor.items() if key != "kind"
        }
        try:
            return ClusterTierConfig(**fields)
        except TypeError as exc:
            raise StaleEntryError(f"unreadable cluster descriptor: {exc}") from None
    raise StaleEntryError(f"unknown source descriptor kind {kind!r}")


# -- cached slices -----------------------------------------------------------------


@dataclass(frozen=True)
class CachedSlice:
    """One (policy, seed, shard) simulation's cacheable result.

    The sealed aggregate chunk plus the collector's scalar gauges — exactly
    what :meth:`restore` needs to rebuild a collector whose aggregate view
    (and digest part) is byte-identical to the original simulation's.  Raw
    per-job results are deliberately *not* cached: GRASS's evaluation is
    aggregate-only, and retaining them would make entries O(trace).
    """

    chunk: AggregateChunk
    truncated_jobs: int = 0
    peak_resident_jobs: int = 0
    events_processed: int = 0
    total_copies_launched: int = 0
    speculative_copies_launched: int = 0
    wasted_slot_seconds: float = 0.0
    simulated_time: float = 0.0
    utilization_stats: OnlineStats = field(default_factory=OnlineStats)

    @classmethod
    def from_metrics(cls, metrics: MetricsCollector) -> "CachedSlice":
        chunks = metrics.aggregates.chunks
        if len(chunks) != 1:
            raise ValueError(
                f"a cacheable slice has exactly one aggregate chunk, got {len(chunks)}"
            )
        return cls(
            chunk=chunks[0],
            truncated_jobs=metrics.truncated_jobs,
            peak_resident_jobs=metrics.peak_resident_jobs,
            events_processed=metrics.events_processed,
            total_copies_launched=metrics.total_copies_launched,
            speculative_copies_launched=metrics.speculative_copies_launched,
            wasted_slot_seconds=metrics.wasted_slot_seconds,
            simulated_time=metrics.simulated_time,
            utilization_stats=metrics.utilization_stats,
        )

    def restore(self) -> MetricsCollector:
        """A collector indistinguishable from the original for aggregate
        consumers: same chunk, same digest part, same gauges; recording into
        it raises and ``retains_results`` is False."""
        return MetricsCollector(
            sink=SealedChunkSink(self.chunk),
            truncated_jobs=self.truncated_jobs,
            peak_resident_jobs=self.peak_resident_jobs,
            events_processed=self.events_processed,
            total_copies_launched=self.total_copies_launched,
            speculative_copies_launched=self.speculative_copies_launched,
            wasted_slot_seconds=self.wasted_slot_seconds,
            simulated_time=self.simulated_time,
            utilization_stats=self.utilization_stats,
        )

    def counters_wire(self) -> Dict[str, object]:
        return {
            "truncated_jobs": self.truncated_jobs,
            "peak_resident_jobs": self.peak_resident_jobs,
            "events_processed": self.events_processed,
            "total_copies_launched": self.total_copies_launched,
            "speculative_copies_launched": self.speculative_copies_launched,
            "wasted_slot_seconds": self.wasted_slot_seconds,
            "simulated_time": self.simulated_time,
            "utilization_stats": self.utilization_stats.to_wire(),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CachedSlice":
        counters = payload["counters"]
        return cls(
            chunk=chunk_from_wire(payload["chunk"]),
            truncated_jobs=int(counters["truncated_jobs"]),
            peak_resident_jobs=int(counters["peak_resident_jobs"]),
            events_processed=int(counters["events_processed"]),
            total_copies_launched=int(counters["total_copies_launched"]),
            speculative_copies_launched=int(counters["speculative_copies_launched"]),
            wasted_slot_seconds=float(counters["wasted_slot_seconds"]),
            simulated_time=float(counters["simulated_time"]),
            utilization_stats=OnlineStats.from_wire(counters["utilization_stats"]),
        )


def _scan_from_wire(wire: Dict[str, object]) -> TraceScan:
    """Decode a scan record's ``scan`` field, strictly typed."""
    num_jobs = wire["num_jobs"]
    ratio = wire["mean_slowest_to_median"]
    arrival_sorted = wire["arrival_sorted"]
    if type(num_jobs) is not int or num_jobs < 1:
        raise ValueError(f"bad num_jobs {num_jobs!r}")
    if type(ratio) is not float:
        raise ValueError(f"bad mean_slowest_to_median {ratio!r}")
    if type(arrival_sorted) is not bool:
        raise ValueError(f"bad arrival_sorted {arrival_sorted!r}")
    return TraceScan(
        num_jobs=num_jobs, mean_slowest_to_median=ratio, arrival_sorted=arrival_sorted
    )


# -- counters ----------------------------------------------------------------------


@dataclass
class CacheCounters:
    """One cache's session counters, surfaced in replay output and service
    frames (the ISSUE's hit/miss/bytes/evictions contract)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Corrupt/truncated/wrong-version entries encountered (each also a miss).
    invalid: int = 0
    #: On-disk entries removed by the ``max_bytes`` budget.
    evictions: int = 0
    #: In-memory LRU entries dropped (the disk copy survives).
    memory_evictions: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def summary(self) -> str:
        parts = [
            f"{self.hits} hit{'s' if self.hits != 1 else ''}",
            f"{self.misses} miss{'es' if self.misses != 1 else ''}",
            f"{self.stores} stored",
        ]
        if self.invalid:
            parts.append(f"{self.invalid} invalid")
        if self.evictions:
            parts.append(f"{self.evictions} evicted")
        parts.append(f"{self.bytes_read}B read, {self.bytes_written}B written")
        return ", ".join(parts)


@dataclass(frozen=True)
class StoreStats:
    """One scan of the on-disk store (the ``cache stats`` verb's payload)."""

    entries: int = 0
    total_bytes: int = 0
    #: Entries written by a different engine fingerprint — unreachable by
    #: current lookups, reclaimed by eviction or ``cache clear``.
    stale_engine_entries: int = 0
    #: Files that do not parse as current-version entries.
    invalid_files: int = 0
    #: Calibration scan records (one per source and engine fingerprint).
    scan_records: int = 0


# -- the cache ---------------------------------------------------------------------


class ReplayCache:
    """Content-addressed, shard-granular result store (see module docs).

    One instance per process/plan is fine — correctness comes from the
    content-addressed keys and atomic writes, not from sharing the object.
    The replay service holds one long-lived instance so its in-memory LRU
    persists across tenant submissions.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: Optional[int] = None,
        memory_entries: int = 1024,
        engine: Optional[str] = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None for unbounded)")
        if memory_entries < 0:
            raise ValueError("memory_entries must be >= 0")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.memory_entries = memory_entries
        self.engine = engine if engine is not None else engine_fingerprint()
        self.counters = CacheCounters()
        self._memory: "OrderedDict[str, CachedSlice]" = OrderedDict()
        self._tmp_sequence = itertools.count()

    # -- keying ----------------------------------------------------------------

    def key_for(self, slice_wire: Dict[str, object]) -> str:
        """The entry key: sha256 over (format version, engine, slice)."""
        material = canonical_json_bytes(
            {
                "version": CACHE_FORMAT_VERSION,
                "engine": self.engine,
                "slice": slice_wire,
            }
        )
        return hashlib.sha256(material).hexdigest()

    def entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- lookup ----------------------------------------------------------------

    def lookup(self, slice_wire: Dict[str, object]) -> Optional[CachedSlice]:
        """The cached slice for this key, or ``None`` (a miss).

        Misses include absent entries and entries that fail validation
        (corrupt JSON, truncated file, wrong format version, key/engine
        mismatch) — the latter warn once, are deleted, and never raise.
        """
        key = self.key_for(slice_wire)
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.counters.hits += 1
            self._touch(self.entry_path(key))
            return cached
        path = self.entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.counters.misses += 1
            return None
        cached, reason = self._decode_entry(raw, key)
        if cached is None:
            self.counters.invalid += 1
            self.counters.misses += 1
            self._discard(path, reason)
            return None
        self.counters.hits += 1
        self.counters.bytes_read += len(raw)
        self._touch(path)
        self._remember(key, cached)
        return cached

    def _decode_entry(
        self, raw: bytes, key: str
    ) -> Tuple[Optional[CachedSlice], str]:
        payload, reason = self._decode_payload(raw, key)
        if payload is None:
            return None, reason
        try:
            return CachedSlice.from_payload(payload), ""
        except (KeyError, TypeError, ValueError) as exc:
            return None, f"corrupt entry: {exc}"

    def _decode_payload(
        self, raw: bytes, key: str
    ) -> Tuple[Optional[Dict[str, object]], str]:
        """The checks every stored file passes: JSON object, format version,
        engine and content-addressed key."""
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            return None, f"corrupt entry: {exc}"
        if not isinstance(payload, dict):
            return None, "corrupt entry: not a JSON object"
        version = payload.get("version")
        if version != CACHE_FORMAT_VERSION:
            return None, (
                f"format version {version!r}, expected {CACHE_FORMAT_VERSION}"
            )
        if payload.get("engine") != self.engine or payload.get("key") != key:
            # The key hashes (engine, slice); a mismatch inside a matching
            # file means the file's content does not belong to its name.
            return None, "entry does not match its content-addressed key"
        return payload, ""

    @staticmethod
    def _discard(path: Path, reason: str) -> None:
        """Warn about and delete a file that failed validation."""
        warnings.warn(
            f"replay cache: treating {path} as a miss ({reason}); "
            "the entry will be recomputed and overwritten",
            CacheIntegrityWarning,
            stacklevel=3,
        )
        try:
            path.unlink()
        except OSError:
            pass

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh the entry's mtime — the disk store's LRU recency signal."""
        try:
            os.utime(path, None)
        except OSError:
            pass

    # -- store -----------------------------------------------------------------

    def store(
        self,
        slice_wire: Dict[str, object],
        cached: CachedSlice,
        descriptor: Optional[Dict[str, object]] = None,
    ) -> None:
        """Write one entry atomically (tmp + ``os.replace``) and remember it.

        Concurrent writers of the same key write byte-identical payloads
        (the key is content-addressed over everything that determines them),
        so whichever ``os.replace`` lands last changes nothing.
        """
        key = self.key_for(slice_wire)
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "engine": self.engine,
            "key": key,
            "slice": slice_wire,
            "source": descriptor or {},
            "chunk": chunk_to_wire(cached.chunk),
            "counters": cached.counters_wire(),
        }
        raw = canonical_json_bytes(payload)
        self._write_atomic(self.entry_path(key), raw)
        self.counters.stores += 1
        self.counters.bytes_written += len(raw)
        self._remember(key, cached)
        if self.max_bytes is not None:
            self._evict_to_budget(keep=key)

    def _write_atomic(self, path: Path, raw: bytes) -> None:
        """Land ``raw`` at ``path`` via a unique temp file and ``os.replace``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.stem}.{os.getpid()}.{next(self._tmp_sequence)}.tmp"
        tmp.write_bytes(raw)
        os.replace(tmp, path)

    def _remember(self, key: str, cached: CachedSlice) -> None:
        self._memory[key] = cached
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            self.counters.memory_evictions += 1

    def _evict_to_budget(self, keep: Optional[str] = None) -> None:
        """Delete least-recently-used entry files until under ``max_bytes``.

        Recency is the entry file's mtime (hits refresh it); ties break on
        path for determinism.  ``keep`` protects the entry just written —
        a store must never evict its own result.
        """
        entries = []
        total = 0
        for path in sorted(self.root.glob("??/*.json")):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, str(path), path, stat.st_size))
            total += stat.st_size
        if self.max_bytes is None or total <= self.max_bytes:
            return
        entries.sort()
        for _mtime, _name, path, size in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and path.stem == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.counters.evictions += 1
            self._memory.pop(path.stem, None)

    # -- calibration scan records ---------------------------------------------

    def scan_key(self, source: str) -> str:
        """The scan record key for a source content fingerprint."""
        material = canonical_json_bytes(
            {"version": CACHE_FORMAT_VERSION, "engine": self.engine, "scan": source}
        )
        return hashlib.sha256(material).hexdigest()

    def scan_path(self, key: str) -> Path:
        return self.root / SCAN_DIR / f"{key}.json"

    def lookup_scan(self, source: str) -> Optional[TraceScan]:
        """The recorded calibration scan of a source, or ``None``.

        A record that fails validation warns (:class:`CacheIntegrityWarning`),
        is deleted and reads as absent, so the caller rescans and rewrites it.
        """
        key = self.scan_key(source)
        path = self.scan_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        payload, reason = self._decode_payload(raw, key)
        scan = None
        if payload is not None:
            try:
                scan = _scan_from_wire(payload["scan"])
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"corrupt entry: {exc}"
        if scan is None:
            self._discard(path, reason)
        return scan

    def store_scan(self, source: str, scan: TraceScan) -> None:
        """Record a successful calibration scan of a source (atomic write)."""
        key = self.scan_key(source)
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "engine": self.engine,
            "key": key,
            "source": source,
            "scan": dataclasses.asdict(scan),
        }
        self._write_atomic(self.scan_path(key), canonical_json_bytes(payload))

    # -- maintenance (the ``cache`` CLI verb's backend) ------------------------

    def iter_entries(self) -> Iterator[Tuple[Path, Optional[Dict[str, object]]]]:
        """Every entry file in sorted order with its parsed payload.

        Unparseable files yield ``(path, None)`` so callers can count them
        without this iterator ever raising mid-scan.
        """
        for path in sorted(self.root.glob("??/*.json")):
            try:
                payload = json.loads(path.read_bytes().decode("utf-8"))
            except (OSError, UnicodeDecodeError, ValueError):
                yield path, None
                continue
            yield path, payload if isinstance(payload, dict) else None

    def store_stats(self) -> StoreStats:
        entries = 0
        total_bytes = 0
        stale = 0
        invalid = 0
        for path, payload in self.iter_entries():
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            if payload is None or payload.get("version") != CACHE_FORMAT_VERSION:
                invalid += 1
                continue
            entries += 1
            if payload.get("engine") != self.engine:
                stale += 1
        return StoreStats(
            entries=entries,
            total_bytes=total_bytes,
            stale_engine_entries=stale,
            invalid_files=invalid,
            scan_records=len(list(self.root.glob(f"{SCAN_DIR}/*.json"))),
        )

    def clear(self) -> int:
        """Remove every entry file and scan record; returns how many entries
        were deleted."""
        removed = 0
        for path in sorted(self.root.glob("??/*.json")):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        for pattern in (f"{SCAN_DIR}/*.json", "??/.*.tmp", f"{SCAN_DIR}/.*.tmp"):
            for path in sorted(self.root.glob(pattern)):
                try:
                    path.unlink()
                except OSError:
                    pass
        self._memory.clear()
        return removed
