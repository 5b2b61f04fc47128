"""Tests for the parallel experiment executor.

The load-bearing property is *determinism*: fanning (policy, seed) runs out
over worker processes must produce byte-identical per-run metrics to the
serial path, so ``--workers`` is purely a wall-clock knob and never a
correctness knob.
"""

import pickle

import pytest

from repro.baselines import NoSpeculationPolicy
from repro.experiments import executor as executor_module
from repro.experiments.executor import (
    ParallelExecutor,
    RequestExecutionError,
    RunRequest,
    default_worker_count,
    pool_map,
)
from repro.experiments.runner import (
    ExperimentScale,
    build_simulation_config,
    compare_policies,
)
from repro.workload.synthetic import WorkloadConfig, generate_workload
from repro.workload.trace_replay import (
    TraceReplayConfig,
    TraceSpecSource,
    slice_trace,
    synthesize_trace,
    trace_to_workload,
)
from repro.workload.traces import save_trace

TINY = ExperimentScale(
    num_jobs=8, size_scale=0.1, max_tasks_per_job=60, num_machines=40,
    seeds=(1, 2), warmup_jobs=4,
)


def _tiny_workload(seed: int = 42):
    return generate_workload(
        WorkloadConfig(
            num_jobs=TINY.num_jobs,
            size_scale=TINY.size_scale,
            max_tasks_per_job=TINY.max_tasks_per_job,
            seed=seed,
        )
    )


class TestRunRequest:
    def test_requires_exactly_one_policy_source(self):
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1, oracle_estimates=False)
        with pytest.raises(ValueError):
            RunRequest(workload=workload, config=config)
        with pytest.raises(ValueError):
            RunRequest(
                workload=workload,
                config=config,
                policy_name="late",
                policy=NoSpeculationPolicy(),
            )

    def test_instance_requests_are_not_parallel_safe(self):
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1, oracle_estimates=False)
        named = RunRequest(workload=workload, config=config, policy_name="late")
        pinned = RunRequest(workload=workload, config=config, policy=NoSpeculationPolicy())
        assert named.parallel_safe
        assert not pinned.parallel_safe

    def test_execute_returns_metrics(self):
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1, oracle_estimates=False)
        metrics = RunRequest(workload=workload, config=config, policy_name="late").execute()
        assert len(metrics.results) == TINY.num_jobs


class TestParallelExecutor:
    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=-1)

    def test_zero_workers_auto_sizes(self):
        assert ParallelExecutor(workers=0).workers == default_worker_count()
        assert default_worker_count() >= 1

    def test_empty_batch(self):
        assert ParallelExecutor(workers=4).run([]) == []

    def test_mixed_batch_runs_pinned_requests_in_process(self):
        # A batch mixing named (parallel-safe) and instance (pinned)
        # requests must still return everything, in order, with the same
        # bytes as the fully serial path.
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1, oracle_estimates=False)
        requests = [
            RunRequest(workload=workload, config=config, policy_name="late"),
            RunRequest(workload=workload, config=config, policy=NoSpeculationPolicy()),
            RunRequest(workload=workload, config=config, policy_name="no-spec"),
        ]
        serial = ParallelExecutor(workers=1).run(requests)
        mixed = ParallelExecutor(workers=4).run(requests)
        assert len(mixed) == 3
        for serial_metrics, mixed_metrics in zip(serial, mixed):
            assert pickle.dumps(serial_metrics) == pickle.dumps(mixed_metrics)

    def test_results_come_back_in_request_order(self):
        workload = _tiny_workload()
        requests = [
            RunRequest(
                workload=workload,
                config=build_simulation_config(workload, TINY, seed, False),
                policy_name=name,
            )
            for name in ("late", "no-spec")
            for seed in (1, 2)
        ]
        serial = ParallelExecutor(workers=1).run(requests)
        parallel = ParallelExecutor(workers=4).run(requests)
        assert len(serial) == len(parallel) == 4
        for serial_metrics, parallel_metrics in zip(serial, parallel):
            assert pickle.dumps(serial_metrics) == pickle.dumps(parallel_metrics)


class TestSingleSafeRequestFallback:
    def test_single_safe_request_in_mixed_batch_runs_in_process(self):
        """One parallel-safe request among pinned ones stays in-process.

        Deliberate: forking a pool for a single simulation costs more than
        the simulation.  The batch must still return correct, ordered
        results identical to the serial path.
        """
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1, oracle_estimates=False)
        requests = [
            RunRequest(workload=workload, config=config, policy=NoSpeculationPolicy()),
            RunRequest(workload=workload, config=config, policy_name="late"),
        ]
        serial = ParallelExecutor(workers=1).run(requests)
        mixed = ParallelExecutor(workers=4).run(requests)
        assert len(mixed) == 2
        for serial_metrics, mixed_metrics in zip(serial, mixed):
            assert pickle.dumps(serial_metrics) == pickle.dumps(mixed_metrics)


class TestWorkerErrorSurfacing:
    def _failing_request(self):
        # An empty workload makes Simulation's constructor raise inside the
        # worker — the cheapest deterministic failure available.
        from repro.workload.synthetic import GeneratedWorkload, WorkloadConfig

        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1, oracle_estimates=False)
        empty = GeneratedWorkload(config=WorkloadConfig())
        return RunRequest(workload=empty, config=config, policy_name="late")

    def test_worker_failure_names_the_request(self):
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1, oracle_estimates=False)
        good = RunRequest(workload=workload, config=config, policy_name="late")
        with pytest.raises(RequestExecutionError) as excinfo:
            ParallelExecutor(workers=2).run([good, self._failing_request()])
        message = str(excinfo.value)
        assert "RunRequest(policy=late" in message
        assert "jobs=0" in message  # the failing request, not the good one
        assert "worker traceback" in message

    def test_request_repr_is_concise(self):
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=3, oracle_estimates=False)
        request = RunRequest(workload=workload, config=config, policy_name="late")
        text = repr(request)
        assert text == f"RunRequest(policy=late, jobs={len(workload.job_specs)}, seed=3, warm=none)"


class TestSpecSourceRequests:
    """Requests carrying a lazy spec source fan out like materialised ones."""

    def _requests(self, tmp_path, lazy: bool):
        trace = synthesize_trace(num_jobs=9, size_scale=0.1, max_tasks_per_job=40, seed=4)
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        replay_config = TraceReplayConfig(seed=1)
        full = trace_to_workload(trace, replay_config)
        requests = []
        for index, shard in enumerate(slice_trace(trace, 3)):
            if lazy:
                job_source = {"spec_source": TraceSpecSource(
                    trace_path=str(path), replay_config=replay_config,
                    shard_index=index, num_shards=3, total_jobs=len(trace),
                )}
            else:
                job_source = {"workload": trace_to_workload(
                    shard, replay_config, stragglers=full.stragglers
                ).workload}
            for name in ("late", "gs"):
                requests.append(RunRequest(
                    config=build_simulation_config(full.workload, TINY, 1, False),
                    policy_name=name, **job_source,
                ))
        return requests

    @pytest.mark.parametrize("workers", [1, 4])
    def test_lazy_requests_match_materialised_requests(self, tmp_path, workers):
        lazy = ParallelExecutor(workers=workers).run(self._requests(tmp_path, lazy=True))
        eager = ParallelExecutor(workers=1).run(self._requests(tmp_path, lazy=False))
        assert len(lazy) == len(eager) == 6
        for lazy_metrics, eager_metrics in zip(lazy, eager):
            assert pickle.dumps(lazy_metrics) == pickle.dumps(eager_metrics)

    def test_worker_failure_names_the_shard(self, tmp_path):
        requests = self._requests(tmp_path, lazy=True)
        (tmp_path / "trace.jsonl").unlink()
        with pytest.raises(RequestExecutionError, match=r"trace-shard\[1/3\] of trace.jsonl"):
            ParallelExecutor(workers=2).run(requests)


class TestPoolDispatch:
    def test_pool_map_dispatches_one_request_at_a_time(self, monkeypatch):
        """Each request is a whole simulation: no pre-assigned batches."""
        calls = []

        class RecordingPool:
            def __init__(self, processes):
                self.processes = processes

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, func, items, chunksize=None):
                calls.append((self.processes, chunksize))
                return [func(item) for item in items]

        monkeypatch.setattr(executor_module.multiprocessing, "Pool", RecordingPool)
        assert pool_map(abs, [-3, -1, 2, -4], workers=2) == [3, 1, 2, 4]
        assert calls == [(2, 1)]


class TestWarmFieldValidation:
    def test_warm_state_and_warmup_are_exclusive(self):
        workload = _tiny_workload()
        config = build_simulation_config(workload, TINY, seed=1, oracle_estimates=False)
        with pytest.raises(ValueError, match="at most one"):
            RunRequest(
                workload=workload,
                config=config,
                policy_name="grass",
                warmup=workload,
                warm_state={"store": None},
            )


class TestCompareDeterminism:
    def test_workers_produce_byte_identical_runs(self):
        """compare_policies(workers=4) == compare_policies(workers=1), byte for byte.

        Each (policy, seed) run's MetricsCollector — per-job results included
        — must pickle to the same bytes whether it executed serially or in a
        worker process.
        """
        config = WorkloadConfig(bound_kind="mixed", seed=42)
        serial = compare_policies(["late", "gs"], config, scale=TINY, workers=1)
        parallel = compare_policies(["late", "gs"], config, scale=TINY, workers=4)
        assert set(serial.runs) == set(parallel.runs)
        for name in serial.runs:
            serial_run = serial.runs[name]
            parallel_run = parallel.runs[name]
            assert len(serial_run.metrics) == len(TINY.seeds)
            for ms, mp in zip(serial_run.metrics, parallel_run.metrics):
                assert pickle.dumps(ms) == pickle.dumps(mp)
            assert serial_run.results == parallel_run.results

    def test_scale_workers_is_the_default(self):
        from dataclasses import replace

        config = WorkloadConfig(bound_kind="error", seed=9)
        scaled = replace(TINY, workers=4)
        via_scale = compare_policies(["late"], config, scale=scaled)
        via_arg = compare_policies(["late"], config, scale=TINY, workers=4)
        serial = compare_policies(["late"], config, scale=TINY)
        assert via_scale.runs["late"].results == serial.runs["late"].results
        assert via_arg.runs["late"].results == serial.runs["late"].results
