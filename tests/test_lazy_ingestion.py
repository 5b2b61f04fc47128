"""Tests for lazy job-spec ingestion and finished-job eviction.

The load-bearing properties:

* **Lazy == materialised** — feeding the engine an arrival-ordered spec
  *iterator* produces byte-identical metrics to handing it the full list,
  for arbitrary arrival orders, and a lazy spec source yields exactly the
  specs of the materialised shard workload it describes.
* **Eviction** — ``_finish_job`` drops the job's ``Job``, estimator and
  spec the moment its result is recorded, so resident state tracks
  *concurrency*, never trace length.
* **Error paths** — empty traces and warm-up seed collisions fail loudly
  with actionable messages instead of leaking internals or biased results.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import NoSpeculationPolicy
from repro.core.bounds import ApproximationBound
from repro.experiments.executor import RunRequest
from repro.experiments.runner import (
    WARMUP_SEED_OFFSET,
    ExperimentScale,
    compare_policies,
)
from repro.experiments.warmup import WarmupCache, check_warmup_seed_collision
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.stragglers import StragglerConfig
from repro.workload.synthetic import WorkloadConfig, generate_workload
from repro.workload.trace_replay import (
    TraceReplayConfig,
    TraceSpecSource,
    iter_job_specs,
    observed_straggler_cap,
    replay_straggler_config,
    slice_trace,
    synthesize_trace,
    trace_to_workload,
)
from repro.workload.traces import save_trace

from tests.conftest import make_job_spec, make_simulation_config


def small_trace(num_jobs: int = 15, seed: int = 9):
    return synthesize_trace(
        num_jobs=num_jobs, size_scale=0.1, max_tasks_per_job=60, seed=seed
    )


def sorted_specs(specs):
    return sorted(specs, key=lambda spec: (spec.arrival_time, spec.job_id))


class TestLazyIngestion:
    def test_generator_matches_list_byte_for_byte(self):
        workload = generate_workload(
            WorkloadConfig(num_jobs=25, seed=4, size_scale=0.15, max_tasks_per_job=80)
        )
        config = make_simulation_config(machines=30, stragglers=StragglerConfig(), seed=2)
        eager = Simulation(config, NoSpeculationPolicy(), workload.specs()).run()
        lazy = Simulation(
            config, NoSpeculationPolicy(), iter(sorted_specs(workload.specs()))
        ).run()
        assert pickle.dumps(eager) == pickle.dumps(lazy)

    def test_empty_iterator_rejected(self):
        with pytest.raises(ValueError, match="at least one job"):
            Simulation(make_simulation_config(), NoSpeculationPolicy(), iter([]))

    def test_unsorted_iterator_rejected(self):
        specs = [
            make_job_spec([1.0], ApproximationBound.exact(), job_id=0, arrival=5.0),
            make_job_spec([1.0], ApproximationBound.exact(), job_id=1, arrival=1.0),
        ]
        simulation = Simulation(make_simulation_config(), NoSpeculationPolicy(), iter(specs))
        with pytest.raises(ValueError, match="sorted by"):
            simulation.run()

    def test_duplicate_id_at_same_arrival_rejected(self):
        specs = [
            make_job_spec([1.0], ApproximationBound.exact(), job_id=0, arrival=0.0),
            make_job_spec([1.0], ApproximationBound.exact(), job_id=0, arrival=0.0),
        ]
        simulation = Simulation(make_simulation_config(), NoSpeculationPolicy(), iter(specs))
        with pytest.raises(ValueError):
            simulation.run()

    def test_duplicate_id_after_first_finished_rejected(self):
        # The first id-0 job finishes (and is evicted) long before the
        # duplicate arrives; the lazy path must still reject it, exactly as
        # the materialised path's up-front validation would.
        specs = [
            make_job_spec([1.0], ApproximationBound.exact(), job_id=0, arrival=0.0),
            make_job_spec([1.0], ApproximationBound.exact(), job_id=1, arrival=50.0),
            make_job_spec([1.0], ApproximationBound.exact(), job_id=0, arrival=100.0),
        ]
        simulation = Simulation(make_simulation_config(), NoSpeculationPolicy(), iter(specs))
        with pytest.raises(ValueError, match="unique"):
            simulation.run()


class TestFinishedJobEviction:
    def test_500_jobs_leave_no_resident_state(self):
        # 500 sequential one-task jobs: the leak this guards against held all
        # 500 Job/TaskEstimator/JobSpec triples until the end of the run.
        specs = [
            make_job_spec(
                [1.0], ApproximationBound.exact(), job_id=index, arrival=2.0 * index,
                max_slots=1,
            )
            for index in range(500)
        ]
        simulation = Simulation(
            make_simulation_config(machines=4), NoSpeculationPolicy(), specs
        )
        metrics = simulation.run()
        assert len(metrics.results) == 500
        assert simulation._jobs == {}
        assert simulation._estimators == {}
        assert simulation._spec_by_id == {}
        assert simulation._running_job_ids == {}
        # Arrivals are spaced past each job's runtime, so residency is O(1).
        assert simulation.peak_resident_jobs <= 3
        assert metrics.peak_resident_jobs == simulation.peak_resident_jobs

    def test_peak_resident_tracks_concurrency(self):
        # All jobs arrive at once: every one of them must be resident.
        specs = [
            make_job_spec([5.0], ApproximationBound.exact(), job_id=index)
            for index in range(7)
        ]
        simulation = Simulation(
            make_simulation_config(machines=8), NoSpeculationPolicy(), specs
        )
        simulation.run()
        assert simulation.peak_resident_jobs == 7


class TestTruncation:
    def _specs(self):
        return [
            make_job_spec([5.0] * 4, ApproximationBound.exact(), job_id=0, max_slots=2),
            make_job_spec([5.0] * 4, ApproximationBound.exact(), job_id=1, arrival=2.0,
                          max_slots=2),
            make_job_spec([5.0], ApproximationBound.exact(), job_id=2, arrival=500.0),
        ]

    def test_truncated_jobs_counted(self):
        config = SimulationConfig(
            cluster=make_simulation_config(machines=4).cluster,
            stragglers=StragglerConfig.none(),
            seed=0,
            max_simulated_time=6.0,
        )
        metrics = Simulation(config, NoSpeculationPolicy(), self._specs()).run()
        # Jobs 0 and 1 are in flight at t=6 (force-finished, partial
        # results); job 2 arrives at t=500 and never runs at all.
        assert metrics.truncated_jobs == 3
        assert len(metrics.results) == 2
        assert metrics.summary()["truncated_jobs"] == 3.0

    def test_truncated_count_identical_for_lazy_path(self):
        config = SimulationConfig(
            cluster=make_simulation_config(machines=4).cluster,
            stragglers=StragglerConfig.none(),
            seed=0,
            max_simulated_time=6.0,
        )
        eager = Simulation(config, NoSpeculationPolicy(), self._specs()).run()
        lazy = Simulation(
            config, NoSpeculationPolicy(), iter(sorted_specs(self._specs()))
        ).run()
        assert pickle.dumps(eager) == pickle.dumps(lazy)

    def test_untruncated_run_counts_zero(self):
        metrics = Simulation(
            make_simulation_config(machines=4), NoSpeculationPolicy(), self._specs()
        ).run()
        assert metrics.truncated_jobs == 0


class TestSpecSource:
    def test_windows_match_sliced_batch_workloads(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.jsonl"
        save_trace(sorted(trace, key=lambda j: (j.arrival_time, j.job_id)), path)
        config = TraceReplayConfig(seed=1)
        full = trace_to_workload(trace, config)
        for num_shards in (1, 2, 4):
            shards = slice_trace(trace, num_shards)
            for index, shard in enumerate(shards):
                expected = trace_to_workload(
                    shard, config, shard_index=index, num_shards=num_shards,
                    stragglers=full.stragglers,
                ).workload.job_specs
                source = TraceSpecSource(
                    trace_path=str(path), replay_config=config,
                    shard_index=index, num_shards=num_shards, total_jobs=len(trace),
                )
                assert pickle.dumps(list(source.iter_specs())) == pickle.dumps(expected)
                assert source.num_jobs == len(shard)

    def test_source_is_picklable_and_lazy(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        source = TraceSpecSource(
            trace_path=str(path), replay_config=TraceReplayConfig(),
            shard_index=0, num_shards=1, total_jobs=3,
        )
        restored = pickle.loads(pickle.dumps(source))
        # Construction never touches the file; only iteration does.
        with pytest.raises(FileNotFoundError):
            list(restored.iter_specs())

    def test_bad_coordinates_rejected(self):
        with pytest.raises(ValueError, match="shard_index"):
            TraceSpecSource("t.jsonl", TraceReplayConfig(), 2, 2, 10)
        with pytest.raises(ValueError, match="more shards"):
            TraceSpecSource("t.jsonl", TraceReplayConfig(), 0, 5, 3)

    def test_run_request_accepts_exactly_one_job_source(self, tmp_path):
        workload = generate_workload(WorkloadConfig(num_jobs=2, seed=0, size_scale=0.1))
        config = make_simulation_config()
        source = TraceSpecSource("t.jsonl", TraceReplayConfig(), 0, 1, 2)
        with pytest.raises(ValueError, match="exactly one of workload or spec_source"):
            RunRequest(workload=workload, spec_source=source, config=config,
                       policy_name="late")
        with pytest.raises(ValueError, match="exactly one of workload or spec_source"):
            RunRequest(config=config, policy_name="late")
        request = RunRequest(spec_source=source, config=config, policy_name="late")
        assert request.parallel_safe
        assert "trace-shard[1/1]" in repr(request)


class TestIterJobSpecs:
    def test_matches_trace_to_workload(self):
        trace = small_trace()
        config = TraceReplayConfig(seed=5)
        batch = trace_to_workload(trace, config)
        ordered = sorted(trace, key=lambda j: (j.arrival_time, j.job_id))
        metadata = {}
        lazy = list(iter_job_specs(iter(ordered), config, metadata=metadata))
        assert pickle.dumps(lazy) == pickle.dumps(batch.workload.job_specs)
        assert pickle.dumps(metadata) == pickle.dumps(batch.workload.metadata)


class TestEmptyTraceErrors:
    def test_observed_straggler_cap_names_the_problem(self):
        with pytest.raises(ValueError, match="empty trace"):
            observed_straggler_cap([])

    def test_replay_straggler_config_names_the_problem(self):
        with pytest.raises(ValueError, match="empty trace"):
            replay_straggler_config([], StragglerConfig())


class TestWarmupSeedCollision:
    def test_helper_raises_on_collision(self):
        with pytest.raises(ValueError, match="warm-up seed collision"):
            check_warmup_seed_collision(7919, (1, 7919, 3))
        check_warmup_seed_collision(7919, (1, 2, 3))  # no collision: fine

    def test_compare_policies_refuses_colliding_seed(self):
        scale = ExperimentScale(
            num_jobs=4, size_scale=0.1, max_tasks_per_job=40, num_machines=20,
            seeds=(WARMUP_SEED_OFFSET,), warmup_jobs=2,
        )
        with pytest.raises(ValueError, match="warm-up seed collision"):
            compare_policies(["grass"], WorkloadConfig(seed=0), scale=scale)
        # Same seeds without warm-up are unambiguous and must keep working.
        compare_policies(
            ["grass"], WorkloadConfig(seed=0), scale=scale, warmup=False
        )

    def test_warmup_cache_refuses_colliding_seed(self):
        workload = generate_workload(
            WorkloadConfig(num_jobs=2, seed=0, size_scale=0.1)
        )
        config = make_simulation_config(seed=7919)
        with pytest.raises(ValueError, match="warm-up seed collision"):
            WarmupCache(workload, config, measured_seeds=(7919,))
        WarmupCache(workload, config, measured_seeds=(1, 2))  # fine


#: Strategy for a list of job "shapes": (arrival time, task works, bound pick).
_spec_shapes = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=40.0),
        st.lists(st.floats(min_value=0.5, max_value=12.0), min_size=1, max_size=5),
        st.sampled_from(["exact", "error", "deadline"]),
    ),
    min_size=1,
    max_size=8,
)


class TestLazyIngestionProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(shapes=_spec_shapes, seed=st.integers(min_value=0, max_value=5))
    def test_lazy_equals_materialised_for_any_arrival_order(self, shapes, seed):
        """Engine property: iterator ingestion == list ingestion.

        Arrival times are drawn unordered on purpose: the materialised path
        sorts internally, the lazy path is fed the same specs pre-sorted by
        ``(arrival_time, job_id)``, and the two runs must be byte-identical
        — results, counters, truncation and residency gauges alike.
        """
        specs = []
        for index, (arrival, works, kind) in enumerate(shapes):
            if kind == "error":
                bound = ApproximationBound.with_error(0.25)
            elif kind == "deadline":
                bound = ApproximationBound.with_deadline(sum(works) + 1.0)
            else:
                bound = ApproximationBound.exact()
            specs.append(
                make_job_spec(works, bound, job_id=index, arrival=arrival)
            )
        config = make_simulation_config(
            machines=10, stragglers=StragglerConfig(), seed=seed
        )
        eager = Simulation(config, NoSpeculationPolicy(), specs).run()
        lazy = Simulation(
            config, NoSpeculationPolicy(), iter(sorted_specs(specs))
        ).run()
        assert pickle.dumps(eager) == pickle.dumps(lazy)
