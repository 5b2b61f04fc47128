"""Pinned replay outputs: the digests every replay path must keep.

The literal values below lock trace replay to exact outputs, so any change
to how a replay is sharded, fanned out or merged that moves a number fails
here instead of drifting silently:

* the ``scripts/check.sh replay-determinism`` plan (facebook_like, quick
  scale, 2 shards, seed 0, grass + late + oracle);
* a generated cluster-tier plan (``--cluster-jobs 200 --shards 3``, gs +
  grass, default scale);
* the same cluster tier under LATE alone, whose speculation branch (slow
  tasks, speculative budget) the plans above barely reach;
* the ``trace-replay`` figure rows at quick scale (``repr`` of every row,
  so floats are compared bit for bit).

Regenerate only for a deliberate change of replay semantics, with::

    PYTHONPATH=src python -c "from repro.experiments.plan import ReplayPlan; \
from repro.experiments.runner import execute; \
print(execute(ReplayPlan(trace='traces/facebook_like.jsonl', scale='quick', \
shards=2, seed=0, policies=('grass', 'late', 'oracle'))).digest)"

(likewise ``ReplayPlan(cluster_jobs=200, shards=3, policies=('gs',
'grass'))`` and ``policies=('late',)``) and ``[repr(row) for row in
trace_vs_synthetic(ExperimentScale.quick()).rows]`` for the figure rows.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.figures import trace_vs_synthetic
from repro.experiments.plan import ReplayPlan
from repro.experiments.runner import ExperimentScale, execute

TRACE = Path(__file__).resolve().parents[1] / "traces" / "facebook_like.jsonl"

REPLAY_DETERMINISM_DIGEST = (
    "897e5f28018f8651163a032564d5d6aa22a9af3f3beaebfc5a7f59e9cb12dbb6"
)

CLUSTER_TIER_DIGEST = (
    "e42304d301302ca297ec82f5ff69a3bd7bb7202c1842d50636db9b69540f2d7f"
)

LATE_CLUSTER_TIER_DIGEST = (
    "f5b7b1aabb7a693b42108f8321f77a7d3a3989d387b2a491391fae89a9bcdb36"
)

TRACE_REPLAY_QUICK_ROWS = [
    "{'workload': 'facebook', 'source': 'synthetic', 'jobs': 16, "
    "'accuracy gain (%)': -1.652570907684936, 'speedup (%)': 40.28476059885405}",
    "{'workload': 'facebook', 'source': 'trace-replay', 'jobs': 16, "
    "'accuracy gain (%)': 17.33460559796437, 'speedup (%)': 43.95204238854406}",
    "{'workload': 'bing', 'source': 'synthetic', 'jobs': 16, "
    "'accuracy gain (%)': 14.754098360655753, 'speedup (%)': 32.598567612021924}",
    "{'workload': 'bing', 'source': 'trace-replay', 'jobs': 16, "
    "'accuracy gain (%)': 55.92365276280421, 'speedup (%)': 48.55480622623858}",
]


def test_replay_determinism_plan_digest_is_pinned():
    plan = ReplayPlan(
        trace=str(TRACE),
        scale="quick",
        shards=2,
        seed=0,
        policies=("grass", "late", "oracle"),
    )
    assert execute(plan).digest == REPLAY_DETERMINISM_DIGEST


def test_cluster_tier_digest_is_pinned():
    plan = ReplayPlan(cluster_jobs=200, shards=3, policies=("gs", "grass"))
    assert execute(plan).digest == CLUSTER_TIER_DIGEST


def test_late_cluster_tier_digest_is_pinned():
    plan = ReplayPlan(cluster_jobs=200, shards=3, policies=("late",))
    assert execute(plan).digest == LATE_CLUSTER_TIER_DIGEST


def test_trace_replay_figure_rows_are_pinned():
    rows = trace_vs_synthetic(ExperimentScale.quick()).rows
    assert [repr(row) for row in rows] == TRACE_REPLAY_QUICK_ROWS
