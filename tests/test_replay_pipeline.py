"""Tests for the replay pipeline: calibration scan, lazy slices, one merge.

The load-bearing property: for any shard split and any worker count,
``replay_source`` — which never loads the trace in the submitting process
and streams every shard's specs from the file — produces byte-identical
merged metrics (the CLI's sha256 digest, and every per-slice collector) to
the materialised reference in ``tests/reference_replay.py``.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import simulate
from repro.experiments.cli import metrics_digest
from repro.experiments.plan import ReplayPlan
from repro.experiments.runner import ExperimentScale, _CacheSession, execute, replay_source
from repro.workload import trace_replay, traces
from repro.workload.trace_replay import (
    ClusterTierConfig,
    TraceReplayConfig,
    TraceSpecSource,
    iter_cluster_trace,
    shard_sizes,
    slice_trace,
    synthesize_trace,
)
from repro.workload.traces import (
    TraceFormatError,
    TraceJob,
    iter_trace,
    save_trace,
    scan_trace,
)

from tests.reference_replay import pipeline_replay, reference_replay

TINY = ExperimentScale(
    num_jobs=8, size_scale=0.1, max_tasks_per_job=60, num_machines=40,
    seeds=(1,), warmup_jobs=0,
)

UNSORTED = (
    '{"job_id": 1, "arrival_time": 5.0, "task_durations": [1.0]}\n'
    '{"job_id": 2, "arrival_time": 1.0, "task_durations": [1.0]}\n'
)


def small_trace(num_jobs: int = 18, seed: int = 7):
    return synthesize_trace(
        num_jobs=num_jobs, size_scale=0.1, max_tasks_per_job=60, seed=seed
    )


@pytest.fixture
def trace_file(tmp_path):
    trace = small_trace()
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    return path, trace


class TestIterTrace:
    def test_matches_load_trace(self, trace_file):
        path, trace = trace_file
        streamed = list(iter_trace(path))
        assert [j.job_id for j in streamed] == [j.job_id for j in trace]
        assert [j.task_durations for j in streamed] == [
            j.task_durations for j in trace
        ]

    def test_is_lazy(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"job_id": 1, "arrival_time": 0.0, "task_durations": [1.0]}\nnot json\n')
        iterator = iter_trace(path)
        assert next(iterator).job_id == 1  # first line parses before line 2 explodes
        with pytest.raises(TraceFormatError, match="bad.jsonl:2"):
            next(iterator)

    def test_duplicate_ids_rejected_mid_stream(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = '{"job_id": 5, "arrival_time": 0.0, "task_durations": [1.0]}\n'
        path.write_text(line + line)
        with pytest.raises(TraceFormatError, match="duplicate job_id 5"):
            list(iter_trace(path))


class TestScanTrace:
    def test_scan_matches_batch_statistics(self, trace_file):
        path, trace = trace_file
        scan = scan_trace(path)
        assert scan.num_jobs == len(trace)
        from repro.utils.stats import mean

        assert scan.mean_slowest_to_median == mean(
            [job.slowest_to_median_ratio for job in trace]
        )
        assert scan.arrival_sorted

    def test_scan_detects_unsorted(self, tmp_path):
        path = tmp_path / "unsorted.jsonl"
        path.write_text(UNSORTED)
        assert not scan_trace(path).arrival_sorted

    def test_scan_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            scan_trace(path)

    def test_shard_sizes_never_empty(self):
        for total in (1, 2, 7, 100):
            for shards in (1, 3, total, total + 5):
                sizes = shard_sizes(total, shards)
                assert sum(sizes) == total
                assert all(size >= 1 for size in sizes)


class TestPipelineMatchesReference:
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_every_slice_matches_the_reference(self, trace_file, shards, workers):
        path, trace = trace_file
        config = TraceReplayConfig(seed=0)
        reference = reference_replay(
            ["late", "grass"], trace, replay_config=config, scale=TINY, shards=shards
        )
        replayed = replay_source(
            ["late", "grass"], path, replay_config=config, scale=TINY,
            shards=shards, workers=workers,
        )
        assert metrics_digest(replayed) == metrics_digest(reference)
        for name in reference.runs:
            pairs = zip(replayed.runs[name].metrics, reference.runs[name].metrics)
            for ours, theirs in pairs:
                assert pickle.dumps(ours) == pickle.dumps(theirs)

    def test_metadata_matches_the_reference(self, trace_file):
        path, trace = trace_file
        replayed = replay_source(["late"], path, scale=TINY, shards=3)
        reference = reference_replay(["late"], trace, scale=TINY, shards=3)
        assert pickle.dumps(replayed.workload.metadata) == pickle.dumps(
            reference.workload.metadata
        )
        # Replay never materialises the merged spec list — that is the point.
        assert replayed.workload.job_specs == []

    def test_miss_plan_never_loads_or_adapts_the_trace(self, trace_file, monkeypatch):
        path, _ = trace_file

        def boom(*args, **kwargs):
            raise AssertionError("replay materialised the trace")

        for module in (traces, trace_replay, simulate):
            for name in ("load_trace", "trace_to_workload", "slice_trace"):
                monkeypatch.setattr(module, name, boom, raising=False)
        plan = ReplayPlan(
            trace=str(path), policies=("late", "grass"), scale="quick", shards=2,
            workers=1,
        )
        executed = execute(plan)
        assert executed.num_jobs == 18
        assert executed.comparison.runs["late"].aggregates.num_results == 18
        assert 1 <= executed.peak_resident_jobs <= 18

    def test_unsorted_trace_rejected_before_simulating(self, tmp_path, monkeypatch):
        path = tmp_path / "unsorted.jsonl"
        path.write_text(UNSORTED)
        monkeypatch.setattr(
            simulate.ParallelExecutor, "run",
            lambda self, requests: pytest.fail("simulated an unsorted trace"),
        )
        with pytest.raises(TraceFormatError, match=r"unsorted.jsonl.*\(arrival_time, job_id\)"):
            replay_source(["late"], path, scale=TINY)
        with pytest.raises(TraceFormatError, match="sorted by"):
            execute(ReplayPlan(trace=str(path), scale="quick"))

    def test_bad_arguments_rejected(self, trace_file):
        path, _ = trace_file
        with pytest.raises(ValueError):
            replay_source(["late"], path, scale=TINY, shards=0)


class TestShardWindows:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 11, 20])
    def test_boundaries_match_slice_trace(self, tmp_path, num_shards):
        """Each lazy shard streams exactly the jobs of the materialised
        shard; splits finer than the trace collapse to one job per shard,
        as ``replay_source`` cuts them."""
        trace = small_trace(num_jobs=11)
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        cut = min(num_shards, len(trace))
        lazy = [
            [
                spec.job_id
                for spec in TraceSpecSource(
                    trace_path=str(path), replay_config=TraceReplayConfig(),
                    shard_index=index, num_shards=cut, total_jobs=len(trace),
                ).iter_specs()
            ]
            for index in range(cut)
        ]
        eager = [[job.job_id for job in shard] for shard in slice_trace(trace, num_shards)]
        assert lazy == eager

    @pytest.mark.parametrize("shards", [1, 3, 6])
    def test_peak_resident_jobs_never_exceed_a_shard(self, trace_file, shards):
        path, trace = trace_file
        executed = execute(ReplayPlan(
            trace=str(path), policies=("late",), scale="quick", seeds=(1,),
            shards=shards, workers=2, sink="aggregate",
        ))
        assert executed.num_shards == shards
        assert 1 <= executed.peak_resident_jobs <= max(shard_sizes(len(trace), shards))

    def test_more_shards_than_jobs_collapse_to_one_job_each(self, trace_file):
        path, trace = trace_file
        replayed = replay_source(["late"], path, scale=TINY, shards=len(trace) + 5)
        assert len(replayed.runs["late"].metrics) == len(trace)
        reference = reference_replay(["late"], trace, scale=TINY, shards=len(trace))
        assert metrics_digest(replayed) == metrics_digest(reference)


class TestClusterTierPipeline:
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_tier_matches_the_reference(self, workers, shards):
        tier = ClusterTierConfig(num_jobs=40, seed=5)
        config = TraceReplayConfig(seed=2)
        replayed = replay_source(
            ["late", "grass"], tier, replay_config=config, scale=TINY,
            shards=shards, workers=workers,
        )
        reference = reference_replay(
            ["late", "grass"], list(iter_cluster_trace(tier)), replay_config=config,
            scale=TINY, shards=shards,
        )
        assert metrics_digest(replayed) == metrics_digest(reference)
        assert pickle.dumps(replayed.workload.metadata) == pickle.dumps(
            reference.workload.metadata
        )


class TestOneFanOut:
    """Misses go to the executor in one call; stores follow the merge order."""

    def _partially_cached(self, path, cache_dir):
        # Prime the middle policy only, so misses sit on both sides of it.
        fields = dict(
            trace=str(path), scale="quick", seeds=(1,), shards=2, workers=2,
            cache=str(cache_dir),
        )
        execute(ReplayPlan(policies=("grass",), **fields))
        return ReplayPlan(policies=("late", "grass", "no-spec"), **fields)

    def test_every_miss_goes_to_one_executor_call(self, trace_file, tmp_path, monkeypatch):
        path, _ = trace_file
        plan = self._partially_cached(path, tmp_path / "cache")
        calls = []
        run = simulate.ParallelExecutor.run

        def recording_run(self, requests):
            calls.append([(r.policy_name, r.config.seed, r.spec_source.shard_index)
                          for r in requests])
            return run(self, requests)

        monkeypatch.setattr(simulate.ParallelExecutor, "run", recording_run)
        executed = execute(plan)
        assert calls == [[("late", 1, 0), ("late", 1, 1), ("no-spec", 1, 0), ("no-spec", 1, 1)]]
        assert executed.cache_stats.hits == 2

    def test_cache_stores_follow_the_merge_order(self, trace_file, tmp_path, monkeypatch):
        path, _ = trace_file
        plan = self._partially_cached(path, tmp_path / "cache")
        stored = []
        store = _CacheSession.store

        def recording_store(self, name, seed, shard_index, metrics):
            stored.append((name, seed, shard_index))
            return store(self, name, seed, shard_index, metrics)

        monkeypatch.setattr(_CacheSession, "store", recording_store)
        execute(plan)
        assert stored == [("late", 1, 0), ("late", 1, 1), ("no-spec", 1, 0), ("no-spec", 1, 1)]

    def test_arrival_ties_must_be_ordered_by_job_id(self, tmp_path, monkeypatch):
        path = tmp_path / "ties.jsonl"
        path.write_text(
            '{"job_id": 2, "arrival_time": 1.0, "task_durations": [1.0]}\n'
            '{"job_id": 1, "arrival_time": 1.0, "task_durations": [1.0]}\n'
        )
        monkeypatch.setattr(
            simulate.ParallelExecutor, "run",
            lambda self, requests: pytest.fail("simulated an unsorted trace"),
        )
        with pytest.raises(TraceFormatError, match=r"ties.jsonl.*\(arrival_time, job_id\)"):
            replay_source(["late"], path, scale=TINY)


#: Hypothesis strategy for a tiny arrival-sorted trace: a few jobs with a
#: handful of positive task durations each.
_jobs_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),  # inter-arrival gap
        st.lists(
            st.floats(min_value=0.5, max_value=30.0), min_size=1, max_size=6
        ),
    ),
    min_size=2,
    max_size=8,
)


class TestPipelineProperty:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(jobs=_jobs_strategy, num_shards=st.integers(min_value=1, max_value=5))
    def test_any_shard_split_streams_to_the_reference_digest(
        self, tmp_path_factory, jobs, num_shards
    ):
        """Replaying a generated trace == the materialised reference, for
        any shard split; only the shard count itself (a simulation
        decomposition knob) changes the numbers, never the lazy parse,
        the lazy spec sources or the merge."""
        trace = []
        arrival = 0.0
        for index, (gap, durations) in enumerate(jobs):
            arrival += gap
            trace.append(
                TraceJob(
                    job_id=index + 1,
                    arrival_time=arrival,
                    task_durations=list(durations),
                )
            )
        directory = tmp_path_factory.mktemp("prop")
        config = TraceReplayConfig(seed=3)
        scale = ExperimentScale(
            num_jobs=len(trace), size_scale=1.0, max_tasks_per_job=None,
            num_machines=20, seeds=(1,), warmup_jobs=0,
        )
        for shards in sorted({num_shards, 1}):
            replayed = pipeline_replay(
                ["late"], trace, directory, replay_config=config, scale=scale,
                shards=shards,
            )
            reference = reference_replay(
                ["late"], trace, replay_config=config, scale=scale, shards=shards
            )
            assert metrics_digest(replayed) == metrics_digest(reference)


class TestClusterTierProperty:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_jobs=st.integers(min_value=1, max_value=25),
        tier_seed=st.integers(min_value=0, max_value=2**16),
        num_shards=st.integers(min_value=1, max_value=6),
    )
    def test_any_tier_and_split_streams_to_the_reference_digest(
        self, num_jobs, tier_seed, num_shards
    ):
        """A generated tier regenerates each shard's window from its own job
        indices; the merged result equals the materialised tier's."""
        tier = ClusterTierConfig(num_jobs=num_jobs, seed=tier_seed)
        replayed = replay_source(["late"], tier, scale=TINY, shards=num_shards)
        reference = reference_replay(
            ["late"], list(iter_cluster_trace(tier)), scale=TINY, shards=num_shards
        )
        assert metrics_digest(replayed) == metrics_digest(reference)
