"""The unified ReplayPlan API: round-trip, validation, CLI generation, parity.

One dataclass describes one replay end to end.  These tests pin its
contracts:

* a plan survives the JSON wire format byte-for-byte (the service depends
  on this — a submitted plan must be *the same experiment* offline);
* every cross-field conflict raises exactly one :class:`PlanError` whose
  message names both the CLI flags and the plan fields;
* the ``replay`` CLI flags are generated from the plan's field metadata,
  so the parser's surface and defaults cannot drift from the dataclass;
* ``execute(plan)`` is digest-identical to the materialised reference
  replay, across the workers × sink matrix.
"""

import dataclasses

import pytest

from repro.experiments.cli import build_replay_parser
from repro.experiments.plan import (
    PlanError,
    ReplayPlan,
    add_plan_arguments,
    plan_cli_fields,
    plan_from_args,
)
from repro.experiments.runner import execute, metrics_digest, plan_scale
from repro.workload.trace_replay import TraceReplayConfig, export_trace, iter_cluster_trace
from repro.workload.traces import ClusterTierConfig, load_trace

from tests.reference_replay import reference_replay

import argparse


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("plan") / "trace.jsonl"
    export_trace(path, num_jobs=18, size_scale=0.1, max_tasks_per_job=60, seed=7)
    return str(path)


class TestWireRoundTrip:
    def test_default_plan_round_trips_through_json(self):
        plan = ReplayPlan(trace="t.jsonl")
        assert ReplayPlan.from_json(plan.to_json()) == plan

    def test_fully_specified_plan_round_trips(self):
        plan = ReplayPlan(
            cluster_jobs=1000,
            policies=("grass", "late", "gs"),
            scale="paper",
            seeds=(3, 1, 4),
            workers=0,
            shards=16,
            sink="jsonl:out/rows",
            framework="spark",
            bound_kind="deadline",
            seed=42,
        )
        restored = ReplayPlan.from_json(plan.to_json())
        assert restored == plan
        # Tuples (not lists) after the round-trip, so equality is not a fluke
        # of sequence coercion.
        assert isinstance(restored.policies, tuple)
        assert isinstance(restored.seeds, tuple)

    def test_every_field_appears_on_the_wire(self):
        wire = ReplayPlan(trace="t.jsonl").to_wire()
        assert set(wire) == {f.name for f in dataclasses.fields(ReplayPlan)}

    def test_unknown_wire_field_is_rejected(self):
        with pytest.raises(PlanError, match="unknown plan field: bogus"):
            ReplayPlan.from_wire({"trace": "t.jsonl", "bogus": 1})

    def test_wire_plans_with_removed_mode_fields_name_them(self):
        wire = {"trace": "t.jsonl", "stream": True, "stream_specs": False,
                "max_resident_shards": 2}
        with pytest.raises(
            PlanError,
            match="unknown plan fields: max_resident_shards, stream, stream_specs",
        ):
            ReplayPlan.from_wire(wire)

    def test_non_object_payloads_are_rejected(self):
        with pytest.raises(PlanError, match="JSON object"):
            ReplayPlan.from_wire(["not", "a", "dict"])
        with pytest.raises(PlanError, match="not valid JSON"):
            ReplayPlan.from_json("{nope")


class TestValidation:
    def test_valid_plan_returns_itself(self):
        plan = ReplayPlan(trace="t.jsonl")
        assert plan.validate() is plan

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({}, "exactly one of --trace PATH or --cluster-jobs N"),
            ({"trace": "t", "cluster_jobs": 5}, "exactly one of --trace"),
            ({"cluster_jobs": 0}, "--cluster-jobs must be >= 1"),
            ({"trace": "t", "workers": -1}, "--workers must be >= 0"),
            ({"trace": "t", "shards": 0}, "--shards must be >= 1"),
            ({"trace": "t", "policies": ()}, "at least one policy"),
            ({"trace": "t", "policies": ("nope",)}, "unknown policy nope"),
            ({"trace": "t", "scale": "galactic"}, "unknown scale 'galactic'"),
            ({"trace": "t", "seeds": ()}, "--seeds needs at least one seed"),
            ({"trace": "t", "framework": "dryad"}, "unknown framework 'dryad'"),
            ({"trace": "t", "bound_kind": "vibes"}, "unknown bound kind 'vibes'"),
            ({"trace": "t", "sink": "tape"}, "sink"),
        ],
    )
    def test_each_conflict_raises_one_named_error(self, fields, message):
        with pytest.raises(PlanError, match=message):
            ReplayPlan(**fields).validate()


class TestGeneratedCli:
    """The replay parser is generated from the plan — no drift possible."""

    def test_every_cli_field_has_a_flag(self):
        parser = argparse.ArgumentParser()
        add_plan_arguments(parser)
        dests = {action.dest for action in parser._actions}
        for spec in plan_cli_fields():
            assert spec.name in dests

    def test_defaults_match_the_dataclass(self):
        args = build_replay_parser().parse_args([])
        plan = plan_from_args(args)
        assert plan == ReplayPlan()

    def test_parsed_flags_land_in_plan_fields(self):
        args = build_replay_parser().parse_args(
            [
                "--cluster-jobs", "500", "--policy", "late", "--policy", "gs",
                "--scale", "quick", "--seeds", "5", "6", "--workers", "3",
                "--shards", "4", "--sink", "aggregate",
                "--framework", "spark", "--bound-kind", "error", "--seed", "9",
            ]
        )
        plan = plan_from_args(args)
        assert plan == ReplayPlan(
            cluster_jobs=500,
            policies=("late", "gs"),
            scale="quick",
            seeds=(5, 6),
            workers=3,
            shards=4,
            sink="aggregate",
            framework="spark",
            bound_kind="error",
            seed=9,
        )

    def test_removed_mode_flags_are_unknown(self, capsys):
        for flag in ("--stream", "--stream-specs", "--max-resident-shards"):
            with pytest.raises(SystemExit):
                build_replay_parser().parse_args(["--trace", "t", flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_text_comes_from_field_metadata(self):
        parser = build_replay_parser()
        by_dest = {action.dest: action for action in parser._actions}
        for spec in plan_cli_fields():
            assert by_dest[spec.name].help == spec.metadata["cli"]["help"]


def _reference_digest(plan, trace):
    """The digest of the materialised reference replay of the same plan."""
    config = TraceReplayConfig(
        framework=plan.framework, bound_kind=plan.bound_kind, seed=plan.seed
    )
    return metrics_digest(
        reference_replay(
            plan.policies, trace, replay_config=config, scale=plan_scale(plan),
            shards=plan.shards,
        )
    )


class TestExecuteParity:
    """execute(plan) == the materialised reference, digest for digest."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("sink", ["retain", "aggregate"])
    def test_digest_matches_the_reference_across_matrix(self, trace_path, workers, sink):
        plan = ReplayPlan(
            trace=trace_path,
            policies=("late",),
            scale="quick",
            seeds=(1,),
            workers=workers,
            shards=3,
            sink=sink,
        )
        executed = execute(plan)
        assert executed.digest == _reference_digest(plan, load_trace(trace_path))
        assert executed.num_jobs == 18
        assert executed.num_shards == 3
        assert 1 <= executed.peak_resident_jobs <= 18

    @pytest.mark.parametrize("bound_kind", ["deadline", "error", "exact", "mixed"])
    @pytest.mark.parametrize("framework", ["hadoop", "spark"])
    def test_framework_and_bound_reach_every_slice(self, trace_path, framework, bound_kind):
        plan = ReplayPlan(
            trace=trace_path, policies=("grass",), scale="quick", seeds=(1,),
            workers=2, shards=2, framework=framework, bound_kind=bound_kind, seed=4,
        )
        assert execute(plan).digest == _reference_digest(plan, load_trace(trace_path))

    def test_every_seed_matches_the_reference(self, trace_path):
        plan = ReplayPlan(
            trace=trace_path, policies=("late", "gs"), scale="quick", seeds=(2, 1),
            workers=2, shards=2, sink="aggregate",
        )
        seen = []
        executed = execute(plan, on_metrics=lambda *coords: seen.append(coords[:3]))
        assert executed.digest == _reference_digest(plan, load_trace(trace_path))
        assert seen == [
            (policy, seed, shard)
            for policy in ("late", "gs") for seed in (2, 1) for shard in range(2)
        ]

    def test_cluster_tier_plan_matches_the_reference(self):
        plan = ReplayPlan(
            cluster_jobs=30, policies=("late",), scale="quick", seeds=(1,), shards=2,
            sink="aggregate",
        )
        executed = execute(plan)
        tier = list(iter_cluster_trace(ClusterTierConfig(num_jobs=30, seed=0)))
        assert executed.digest == _reference_digest(plan, tier)
        assert executed.num_jobs == 30

    def test_on_metrics_hook_sees_every_simulation_in_merge_order(self, trace_path):
        plan = ReplayPlan(
            trace=trace_path, policies=("late", "gs"), scale="quick",
            seeds=(1,), shards=2, workers=2,
        )
        seen = []
        execute(plan, on_metrics=lambda *coords: seen.append(coords[:3]))
        assert seen == [
            (policy, 1, shard) for policy in ("late", "gs") for shard in range(2)
        ]

    def test_empty_trace_is_a_plan_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(PlanError, match="trace is empty"):
            execute(ReplayPlan(trace=str(empty)))
