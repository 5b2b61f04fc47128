"""Tests for the trace-driven replay pipeline (adapter, runner, CLI).

The load-bearing properties are (a) round-tripping: a synthesized trace
survives save/load exactly and replays identically to its in-memory twin,
(b) determinism: per-policy replay metrics are byte-identical across worker
counts, and (c) malformed JSONL traces fail loudly with the file and line.
"""

import pickle

import pytest

from repro.experiments.cli import main, metrics_digest
from repro.experiments.figures import FIGURES
from repro.experiments.runner import ExperimentScale
from repro.workload.trace_replay import (
    TraceReplayConfig,
    export_trace,
    observed_straggler_cap,
    slice_trace,
    synthesize_trace,
    trace_to_workload,
)
from repro.workload.traces import (
    TraceFormatError,
    TraceJob,
    load_trace,
    save_trace,
)

from tests.reference_replay import pipeline_replay, reference_replay

#: Small cluster scale so replay tests stay fast; the trace supplies the jobs.
TINY = ExperimentScale(
    num_jobs=8, size_scale=0.1, max_tasks_per_job=60, num_machines=40,
    seeds=(1,), warmup_jobs=0,
)


def tiny_trace(num_jobs: int = 10, seed: int = 7):
    return synthesize_trace(
        num_jobs=num_jobs, size_scale=0.1, max_tasks_per_job=60, seed=seed
    )


# ---------------------------------------------------------------- load_trace


class TestLoadTraceErrors:
    def write(self, tmp_path, text: str):
        path = tmp_path / "trace.jsonl"
        path.write_text(text)
        return path

    def test_blank_lines_are_skipped(self, tmp_path):
        path = self.write(
            tmp_path,
            '\n{"job_id": 1, "arrival_time": 0.0, "task_durations": [1.0]}\n\n',
        )
        trace = load_trace(path)
        assert [job.job_id for job in trace] == [1]

    def test_invalid_json_names_file_and_line(self, tmp_path):
        path = self.write(
            tmp_path,
            '{"job_id": 1, "arrival_time": 0.0, "task_durations": [1.0]}\n{broken\n',
        )
        with pytest.raises(TraceFormatError, match=r"trace\.jsonl:2.*invalid JSON"):
            load_trace(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = self.write(tmp_path, "[1, 2, 3]\n")
        with pytest.raises(TraceFormatError, match="expected a JSON object"):
            load_trace(path)

    def test_missing_field_rejected(self, tmp_path):
        path = self.write(tmp_path, '{"job_id": 1, "arrival_time": 0.0}\n')
        with pytest.raises(TraceFormatError, match="missing field 'task_durations'"):
            load_trace(path)

    def test_non_numeric_durations_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            '{"job_id": 1, "arrival_time": 0.0, "task_durations": ["x"]}\n',
        )
        with pytest.raises(TraceFormatError, match=r"trace\.jsonl:1"):
            load_trace(path)

    def test_negative_duration_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            '{"job_id": 1, "arrival_time": 0.0, "task_durations": [-1.0]}\n',
        )
        with pytest.raises(TraceFormatError, match="positive"):
            load_trace(path)

    def test_non_finite_values_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            '{"job_id": 1, "arrival_time": 0.0, "task_durations": [Infinity, NaN]}\n',
        )
        with pytest.raises(TraceFormatError, match="finite"):
            load_trace(path)
        path = self.write(
            tmp_path,
            '{"job_id": 1, "arrival_time": NaN, "task_durations": [1.0]}\n',
        )
        with pytest.raises(TraceFormatError, match="finite"):
            load_trace(path)

    def test_duplicate_job_id_rejected(self, tmp_path):
        record = '{"job_id": 1, "arrival_time": 0.0, "task_durations": [1.0]}\n'
        path = self.write(tmp_path, record + record)
        with pytest.raises(TraceFormatError, match="duplicate job_id 1"):
            load_trace(path)


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        trace = tiny_trace()
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert [job.job_id for job in loaded] == [job.job_id for job in trace]
        assert [job.arrival_time for job in loaded] == [
            job.arrival_time for job in trace
        ]
        assert [job.task_durations for job in loaded] == [
            job.task_durations for job in trace
        ]

    def test_export_trace_writes_loadable_fixture(self, tmp_path):
        path = tmp_path / "fb.jsonl"
        summary = export_trace(path, num_jobs=6, size_scale=0.1, seed=3)
        assert summary.num_jobs == 6
        assert len(load_trace(path)) == 6


# ------------------------------------------------------------------- adapter


class TestTraceToWorkload:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            trace_to_workload([])

    def test_duplicate_job_ids_rejected(self):
        jobs = [
            TraceJob(job_id=1, arrival_time=0.0, task_durations=[1.0]),
            TraceJob(job_id=1, arrival_time=1.0, task_durations=[1.0]),
        ]
        with pytest.raises(ValueError, match="duplicate job_id"):
            trace_to_workload(jobs)

    def test_arrivals_rebased_and_ordered(self):
        jobs = [
            TraceJob(job_id=0, arrival_time=50.0, task_durations=[1.0]),
            TraceJob(job_id=1, arrival_time=10.0, task_durations=[1.0]),
        ]
        adapted = trace_to_workload(jobs)
        specs = adapted.workload.specs()
        assert [spec.job_id for spec in specs] == [1, 0]
        assert specs[0].arrival_time == 0.0
        assert specs[1].arrival_time == 40.0

    def test_bounds_independent_of_sharding(self):
        trace = tiny_trace()
        config = TraceReplayConfig(seed=5)
        full = trace_to_workload(trace, config)
        shard = trace_to_workload(slice_trace(trace, 3)[1], config)
        for spec in shard.workload.specs():
            full_spec = next(
                s for s in full.workload.specs() if s.job_id == spec.job_id
            )
            assert spec.bound == full_spec.bound
            assert spec.max_slots == full_spec.max_slots
            assert spec.phases == full_spec.phases

    def test_straggler_cap_tracks_observed_ratio(self):
        flat = [TraceJob(job_id=0, arrival_time=0.0, task_durations=[1.0, 1.0])]
        skewed = [
            TraceJob(job_id=0, arrival_time=0.0, task_durations=[1.0, 1.0, 9.0])
        ]
        assert observed_straggler_cap(flat) == pytest.approx(1.05)
        assert observed_straggler_cap(skewed) == pytest.approx(9.0)
        assert trace_to_workload(skewed).stragglers.cap == pytest.approx(9.0)


class TestSliceTrace:
    def test_partition_preserves_jobs(self):
        trace = tiny_trace()
        shards = slice_trace(trace, 4)
        assert sum(len(shard) for shard in shards) == len(trace)
        all_ids = sorted(job.job_id for shard in shards for job in shard)
        assert all_ids == sorted(job.job_id for job in trace)

    def test_shards_are_arrival_contiguous(self):
        trace = tiny_trace()
        shards = slice_trace(trace, 3)
        previous_max = float("-inf")
        for shard in shards:
            arrivals = [job.arrival_time for job in shard]
            assert arrivals == sorted(arrivals)
            assert arrivals[0] >= previous_max
            previous_max = arrivals[-1]

    def test_more_shards_than_jobs(self):
        trace = tiny_trace(num_jobs=3)
        shards = slice_trace(trace, 10)
        assert len(shards) == 3
        assert all(len(shard) == 1 for shard in shards)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            slice_trace(tiny_trace(num_jobs=2), 0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            slice_trace([], 4)


# -------------------------------------------------------------------- replay


class TestReplayDeterminism:
    def test_workers_1_and_4_byte_identical(self, tmp_path):
        trace = tiny_trace()
        serial = pipeline_replay(["late", "gs"], trace, tmp_path, scale=TINY, workers=1)
        fanned = pipeline_replay(["late", "gs"], trace, tmp_path, scale=TINY, workers=4)
        assert metrics_digest(serial) == metrics_digest(
            reference_replay(["late", "gs"], trace, scale=TINY)
        )
        for name in ("late", "gs"):
            serial_metrics = serial.runs[name].metrics
            fanned_metrics = fanned.runs[name].metrics
            assert len(serial_metrics) == len(fanned_metrics)
            for left, right in zip(serial_metrics, fanned_metrics):
                assert pickle.dumps(left) == pickle.dumps(right)
        assert metrics_digest(serial) == metrics_digest(fanned)

    def test_sharded_replay_covers_every_job(self, tmp_path):
        trace = tiny_trace()
        sharded = pipeline_replay(["late"], trace, tmp_path, scale=TINY, shards=3, workers=2)
        assert sorted(r.job_id for r in sharded.runs["late"].results) == sorted(
            job.job_id for job in trace
        )

    def test_sharded_replay_deterministic_across_workers(self, tmp_path):
        trace = tiny_trace()
        serial = pipeline_replay(["late"], trace, tmp_path, scale=TINY, shards=3, workers=1)
        fanned = pipeline_replay(["late"], trace, tmp_path, scale=TINY, shards=3, workers=4)
        assert metrics_digest(serial) == metrics_digest(fanned)
        assert metrics_digest(serial) == metrics_digest(
            reference_replay(["late"], trace, scale=TINY, shards=3)
        )

    def test_replay_rejects_bad_shards(self, tmp_path):
        with pytest.raises(ValueError):
            pipeline_replay(["late"], tiny_trace(num_jobs=2), tmp_path, scale=TINY, shards=0)

    def test_comparison_supports_bin_breakdowns(self, tmp_path):
        trace = tiny_trace()
        comparison = pipeline_replay(["late", "gs"], trace, tmp_path, scale=TINY)
        # Metadata for every replayed job is available for figure groupings.
        for result in comparison.runs["late"].results:
            metadata = comparison.workload.metadata_for(result.job_id)
            assert metadata.num_input_tasks > 0


# ----------------------------------------------------------------------- CLI


class TestReplayCli:
    def fixture_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(tiny_trace(), path)
        return path

    def run_cli(self, capsys, *argv):
        exit_code = main(list(argv))
        return exit_code, capsys.readouterr()

    def test_replay_verb_runs_and_prints_digest(self, tmp_path, capsys):
        path = self.fixture_path(tmp_path)
        exit_code, captured = self.run_cli(
            capsys, "replay", "--trace", str(path), "--policy", "late",
            "--scale", "quick",
        )
        assert exit_code == 0
        assert "metrics digest: sha256=" in captured.out
        assert "peak resident jobs: " in captured.out

    def test_digest_identical_across_worker_counts(self, tmp_path, capsys):
        path = self.fixture_path(tmp_path)
        digests = []
        for workers in ("1", "2"):
            exit_code, captured = self.run_cli(
                capsys, "replay", "--trace", str(path), "--policy", "late",
                "--scale", "quick", "--workers", workers,
            )
            assert exit_code == 0
            digests.append(
                next(
                    line for line in captured.out.splitlines()
                    if line.startswith("metrics digest:")
                )
            )
        assert digests[0] == digests[1]

    def test_missing_trace_file_is_a_usage_error(self, capsys):
        exit_code, captured = self.run_cli(
            capsys, "replay", "--trace", "/nonexistent/trace.jsonl"
        )
        assert exit_code == 2
        assert "not found" in captured.err

    def test_malformed_trace_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{nope\n")
        exit_code, captured = self.run_cli(capsys, "replay", "--trace", str(path))
        assert exit_code == 2
        assert "malformed trace" in captured.err

    def test_unsorted_trace_is_a_one_line_usage_error(self, tmp_path, capsys):
        path = tmp_path / "unsorted.jsonl"
        path.write_text(
            '{"job_id": 1, "arrival_time": 5.0, "task_durations": [1.0]}\n'
            '{"job_id": 2, "arrival_time": 1.0, "task_durations": [1.0]}\n'
        )
        exit_code, captured = self.run_cli(capsys, "replay", "--trace", str(path))
        assert exit_code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "unsorted.jsonl" in line
        assert "sorted by (arrival_time, job_id)" in line

    def test_empty_trace_is_a_one_line_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        exit_code, captured = self.run_cli(capsys, "replay", "--trace", str(path))
        assert exit_code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "trace is empty" in line

    def test_bad_worker_and_shard_counts_rejected(self, tmp_path, capsys):
        path = self.fixture_path(tmp_path)
        assert main(["replay", "--trace", str(path), "--workers", "-1"]) == 2
        assert main(["replay", "--trace", str(path), "--shards", "0"]) == 2

    def test_unknown_policy_and_framework_are_usage_errors(self, tmp_path, capsys):
        path = self.fixture_path(tmp_path)
        exit_code, captured = self.run_cli(
            capsys, "replay", "--trace", str(path), "--policy", "nope"
        )
        assert exit_code == 2
        assert "unknown policy nope" in captured.err
        exit_code, captured = self.run_cli(
            capsys, "replay", "--trace", str(path), "--framework", "dryad"
        )
        assert exit_code == 2
        assert "unknown framework" in captured.err

    def test_metric_columns_blank_out_absent_bound_classes(self, tmp_path, capsys):
        path = self.fixture_path(tmp_path)
        exit_code, captured = self.run_cli(
            capsys, "replay", "--trace", str(path), "--policy", "late",
            "--scale", "quick", "--bound-kind", "deadline",
        )
        assert exit_code == 0
        row = next(
            line for line in captured.out.splitlines() if line.startswith("late")
        )
        # No error-bound jobs were replayed, so the duration column must show
        # "-" instead of a misleading 0.00.
        assert "| 0.00 |" not in row
        assert "-" in row.split("|")[3]


def test_trace_replay_figure_leaves_no_temporary_trace(tmp_path, monkeypatch):
    import tempfile

    from repro.experiments.figures import trace_vs_synthetic

    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    result = trace_vs_synthetic(TINY)
    assert len(result.rows) == 4
    assert list(scratch.iterdir()) == []


def test_trace_replay_figure_registered():
    assert "trace-replay" in FIGURES
