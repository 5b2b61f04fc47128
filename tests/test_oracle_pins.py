"""Pinned outputs, draw budget and estimator isolation of oracle runs.

The oracle (Figure 8's informed reference scheduler) sees true durations
through :class:`~repro.core.policies.base.OracleSchedulingIndex`.  The
literal values below were produced by the eager oracle view code the
index replaced, so they lock the index to its exact outputs:

* the metrics digests of an oracle + LATE trace replay for each bound kind;
* the Figure 8 rows at quick scale (``repr`` of every row, so floats are
  compared bit for bit).

Regenerate only for a deliberate change of the oracle's semantics, with::

    PYTHONPATH=src python -c "from repro.experiments.plan import ReplayPlan; \
from repro.experiments.runner import execute; \
print(execute(ReplayPlan(trace='traces/facebook_like.jsonl', \
policies=('oracle', 'late'), scale='quick', bound_kind='mixed', \
workers=1)).digest)"

and ``[repr(row) for row in figure8_optimality(ExperimentScale.quick()).rows]``
for the Figure 8 rows.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.baselines.oracle import OraclePolicy
from repro.core.bounds import ApproximationBound
from repro.core.estimators import TaskEstimator
from repro.experiments.figures import figure8_optimality
from repro.experiments.plan import ReplayPlan
from repro.experiments.runner import ExperimentScale, execute
from repro.simulator.engine import Simulation
from repro.simulator.stragglers import StragglerConfig, StragglerModel
from tests.conftest import make_job_spec, make_simulation_config

TRACE = Path(__file__).resolve().parents[1] / "traces" / "facebook_like.jsonl"

ORACLE_LATE_DIGESTS = {
    "deadline": "ee637136f53ff445ecfdc45201872674ae81c205751647b84ec8fb89060b32a4",
    "error": "6a20654c4d80078b3315368078413f0a03470917f8dbe03ead2e02f30a50e5c2",
    "mixed": "76468bf15347542f5b2b3b92ba621ad4acd4c2ada7b347bfbb4e90454ad8ace1",
}

FIGURE8_QUICK_ROWS = [
    "{'bound': 'deadline', 'policy': 'grass', 'baseline': 'late', "
    "'small (%)': 4.71360724071643, 'medium (%)': -2.8169014084507222, "
    "'large (%)': nan, 'overall (%)': 3.7829659440050283}",
    "{'bound': 'deadline', 'policy': 'oracle', 'baseline': 'late', "
    "'small (%)': 21.620761555525547, 'medium (%)': 28.169014084507033, "
    "'large (%)': nan, 'overall (%)': 22.430012896793112}",
    "{'bound': 'error', 'policy': 'grass', 'baseline': 'late', "
    "'small (%)': 25.17386686970748, 'medium (%)': 44.95799080282814, "
    "'large (%)': nan, 'overall (%)': 29.229485579251673}",
    "{'bound': 'error', 'policy': 'oracle', 'baseline': 'late', "
    "'small (%)': 31.754091692712585, 'medium (%)': 55.83198963923509, "
    "'large (%)': nan, 'overall (%)': 36.68990657784555}",
]


@pytest.mark.parametrize("bound_kind", sorted(ORACLE_LATE_DIGESTS))
def test_oracle_replay_digest_is_pinned(bound_kind):
    plan = ReplayPlan(
        trace=str(TRACE),
        policies=("oracle", "late"),
        scale="quick",
        bound_kind=bound_kind,
        workers=1,
    )
    assert execute(plan).digest == ORACLE_LATE_DIGESTS[bound_kind]


def test_figure8_quick_rows_are_pinned():
    rows = figure8_optimality(ExperimentScale.quick()).rows
    assert [repr(row) for row in rows] == FIGURE8_QUICK_ROWS


def oracle_workload():
    return [
        make_job_spec(
            [3.0, 5.0, 2.0, 8.0, 4.0, 6.0] * 3,
            ApproximationBound.with_error(0.2) if job_id % 2 else ApproximationBound.exact(),
            job_id=job_id,
            arrival=2.0 * job_id,
            max_slots=6,
            intermediate=[[4.0, 4.0, 3.0], [2.0, 2.0]],
        )
        for job_id in range(6)
    ]


def oracle_config():
    return make_simulation_config(
        machines=12, stragglers=StragglerConfig(), seed=5, oracle=True
    )


def test_oracle_draws_one_multiplier_per_task_copy_index(monkeypatch):
    """The oracle index asks for each (task, copy index) duration once.

    Every launch draws its own copy's multiplier in the engine; everything
    else is the index's: one draw per task when its phase is indexed and
    one for a task's next copy after each launch, so at most ``tasks +
    launched copies``.  (The eager view code drew once per task per view.)
    """
    calls = Counter()
    original = StragglerModel.multiplier

    def counting(self, job_id, task_id, copy_index):
        calls[job_id, task_id, copy_index] += 1
        return original(self, job_id, task_id, copy_index)

    monkeypatch.setattr(StragglerModel, "multiplier", counting)
    specs = oracle_workload()
    config = oracle_config()
    metrics = Simulation(config, OraclePolicy(), specs).run()
    launched = metrics.total_copies_launched
    tasks = sum(spec.num_tasks for spec in specs)
    assert launched > tasks  # the oracle speculated
    index_draws = sum(calls.values()) - launched
    assert index_draws <= tasks + launched
    # Each key is drawn at most twice: once by the index, once at launch.
    assert max(calls.values()) <= 2


@pytest.mark.parametrize(
    "method",
    [
        "snapshot_running",
        "update_running_snaps",
        "tnew_epoch_factor",
        "trem",
        "record_trem_outcome",
    ],
)
def test_oracle_scheduling_never_estimates(monkeypatch, method):
    """Scheduling an oracle run draws no estimator noise and records nothing.

    Only the engine's completion hook (``observe_completion``) still feeds
    the per-job estimator, exactly as for estimated runs.
    """

    def forbidden(*args, **kwargs):
        raise AssertionError(f"oracle scheduling called TaskEstimator.{method}")

    monkeypatch.setattr(TaskEstimator, method, forbidden)
    metrics = Simulation(oracle_config(), OraclePolicy(), oracle_workload()).run()
    assert len(metrics.results) == 6
