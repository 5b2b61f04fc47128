"""One reproduction function per table / figure of the paper's evaluation.

Every function returns a :class:`FigureResult` whose ``rows`` are plain
dictionaries (easy to print, assert on, or dump to CSV) and whose
``format_table()`` renders the same rows/series the paper reports.  The
``scale`` argument trades fidelity for runtime; the benchmark harness uses
the default (laptop) scale and records the outputs in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.bounds import ApproximationBound
from repro.core.estimators import EstimatorConfig
from repro.core.job import JobPhaseSpec, JobSpec
from repro.core.policies import GreedySpeculative, ResourceAwareSpeculative
from repro.experiments.policies import make_grass_with_perturbation
from repro.experiments.runner import (
    ComparisonResult,
    ExperimentScale,
    compare_policies,
    improvement_in_accuracy,
    improvement_in_duration,
    replay_source,
    run_policy,
)
from repro.model.hill import estimate_tail_index, hill_estimates
from repro.model.reactive import (
    ReactiveModelConfig,
    gs_omega,
    omega_grid,
    ras_omega,
    response_time_ratio_curve,
)
from repro.simulator.cluster import ClusterConfig
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.stragglers import StragglerConfig, StragglerModel
from repro.utils.stats import mean
from repro.workload.synthetic import WorkloadConfig, generate_workload
from repro.workload.trace_replay import TraceReplayConfig, synthesize_trace
from repro.workload.traces import save_trace, summarize_trace, trace_from_specs


@dataclass
class FigureResult:
    """Rows regenerating one table or figure, plus a text rendering."""

    figure: str
    description: str
    rows: List[Dict] = field(default_factory=list)

    def format_table(self) -> str:
        if not self.rows:
            return f"{self.figure}: (no rows)"
        columns = list(self.rows[0].keys())
        widths = {
            col: max(len(str(col)), *(len(_fmt(row.get(col))) for row in self.rows))
            for col in columns
        }
        lines = [f"== {self.figure}: {self.description}"]
        lines.append(" | ".join(str(col).ljust(widths[col]) for col in columns))
        lines.append("-+-".join("-" * widths[col] for col in columns))
        for row in self.rows:
            lines.append(
                " | ".join(_fmt(row.get(col)).ljust(widths[col]) for col in columns)
            )
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


# --------------------------------------------------------------------------- Table 1


def table1_traces(scale: Optional[ExperimentScale] = None) -> FigureResult:
    """Table 1: properties of the (synthetic stand-ins for the) two traces."""
    scale = scale or ExperimentScale()
    result = FigureResult(
        figure="Table 1",
        description="Facebook and Bing trace stand-ins (synthetic, calibrated to §2/§6.1)",
    )
    for workload, framework in (("facebook", "hadoop"), ("bing", "hadoop")):
        config = WorkloadConfig(
            workload=workload,
            framework=framework,
            num_jobs=scale.num_jobs,
            size_scale=scale.size_scale,
            max_tasks_per_job=scale.max_tasks_per_job,
            seed=11,
        )
        generated = generate_workload(config)
        # Durations include the straggler multiplier of the first copy so the
        # summary reflects observed task durations, not just data sizes.
        straggler = StragglerModel(config.framework_profile.stragglers, seed=11)
        trace = trace_from_specs(generated.specs())
        for job in trace:
            job.task_durations = [
                duration * straggler.multiplier(job.job_id, i, 0)
                for i, duration in enumerate(job.task_durations)
            ]
        summary = summarize_trace(trace, name=workload)
        result.rows.append(
            {
                "trace": workload,
                "jobs": summary.num_jobs,
                "tasks": summary.num_tasks,
                "small": summary.bin_counts.get("small", 0),
                "medium": summary.bin_counts.get("medium", 0),
                "large": summary.bin_counts.get("large", 0),
                "median task (s)": summary.median_task_duration,
                "p95 task (s)": summary.p95_task_duration,
                "slowest/median": summary.mean_slowest_to_median,
            }
        )
    return result


# ---------------------------------------------------------------- Figures 1 and 2 (worked examples)


class _PlantedStragglerModel(StragglerModel):
    """Deterministic straggler model for the worked examples of Figures 1/2.

    The *first* copy of each planted task is inflated by ``factor``; every
    other copy (including speculative re-executions of the planted tasks)
    runs at nominal speed, which is exactly the situation the paper's
    illustrations assume (trem of the straggler exceeds tnew of a re-run).
    """

    def __init__(self, planted: Dict[int, float]) -> None:
        super().__init__(StragglerConfig.none(), seed=0)
        self._planted = dict(planted)

    def multiplier(self, job_id: int, task_id: int, copy_index: int) -> float:
        if copy_index == 0 and task_id in self._planted:
            return self._planted[task_id]
        return 1.0


def _sole_result(metrics, figure: str, scenario: str):
    """The single result of a worked-example run, or a *named* failure.

    A scenario that yields no results (e.g. a zero-job workload, or a policy
    that never finishes the job within the horizon) used to surface as an
    opaque ``IndexError`` on ``metrics.results[0]``; fail with the figure and
    scenario in the message instead.
    """
    results = metrics.results
    if not results:
        raise ValueError(
            f"{figure}: scenario {scenario!r} produced no job results; "
            "the worked example needs exactly one finished job"
        )
    return results[0]


def _worked_example_job(works: Sequence[float], bound: ApproximationBound, slots: int) -> JobSpec:
    return JobSpec(
        job_id=0,
        arrival_time=0.0,
        phases=(JobPhaseSpec(phase_index=0, task_works=tuple(works)),),
        bound=bound,
        max_slots=slots,
    )


def _run_worked_example(
    works: Sequence[float],
    bound: ApproximationBound,
    slots: int,
    policy,
    planted: Dict[int, float],
):
    spec = _worked_example_job(works, bound, slots)
    # The examples use noise-free *reactive* estimates (not the oracle):
    # the straggler is only discovered once its progress reports arrive,
    # exactly as in the paper's illustration.
    config = SimulationConfig(
        cluster=ClusterConfig(num_machines=slots, heterogeneity=0.0, seed=0),
        stragglers=StragglerConfig.none(),
        estimator=EstimatorConfig.perfect(),
        seed=0,
        oracle_estimates=False,
    )
    simulation = Simulation(config, policy, [spec])
    simulation.stragglers = _PlantedStragglerModel(planted)
    return simulation.run()


def figure1_deadline_example() -> FigureResult:
    """Figure 1: GS vs RAS on a small deadline-bound job (9 tasks, 2 slots).

    The exact task sizes of the paper's illustration are not published, so
    the example uses a 9-task job with one straggling task and reports the
    accuracy each policy reaches under a loose and a tight deadline; the
    qualitative conclusion (RAS wins under the loose deadline, GS under the
    tight one) is the figure's point.
    """
    works = [2.0] * 9
    planted = {0: 5.0}  # T1's original copy takes 10 units; a re-run takes 2.
    result = FigureResult(
        figure="Figure 1",
        description="GS vs RAS, deadline-bound worked example (9 tasks, 2 slots, T1 straggles)",
    )
    for deadline_label, deadline in (("tight (~3 units)", 3.2), ("loose (~6 units)", 6.2)):
        for name, policy in (("gs", GreedySpeculative()), ("ras", ResourceAwareSpeculative())):
            metrics = _run_worked_example(
                works, ApproximationBound.with_deadline(deadline), 2, policy, planted
            )
            sole = _sole_result(
                metrics, "Figure 1", f"{name} under {deadline_label} deadline"
            )
            result.rows.append(
                {
                    "deadline": deadline_label,
                    "policy": name,
                    "tasks completed": sole.completed_input_tasks,
                    "accuracy": sole.accuracy,
                }
            )
    return result


def figure2_error_example() -> FigureResult:
    """Figure 2: GS vs RAS on a small error-bound job (6 tasks, 3 slots)."""
    works = [3.0] * 6
    planted = {2: 4.0}  # T3's original copy takes 12 units; a re-run takes 3.
    result = FigureResult(
        figure="Figure 2",
        description="GS vs RAS, error-bound worked example (6 tasks, 3 slots, T3 straggles)",
    )
    for error_label, error in (("40%", 0.40), ("20%", 0.20)):
        for name, policy in (("gs", GreedySpeculative()), ("ras", ResourceAwareSpeculative())):
            metrics = _run_worked_example(
                works, ApproximationBound.with_error(error), 3, policy, planted
            )
            sole = _sole_result(
                metrics, "Figure 2", f"{name} under {error_label} error bound"
            )
            result.rows.append(
                {
                    "error bound": error_label,
                    "policy": name,
                    "duration": sole.duration,
                }
            )
    return result


# --------------------------------------------------------------------------- Figure 3


def figure3_hill_plot(num_samples: int = 20_000, seed: int = 3) -> FigureResult:
    """Figure 3: Hill plot of task durations; the plateau gives β ≈ 1.259."""
    config = WorkloadConfig(
        workload="facebook", framework="hadoop", num_jobs=60, size_scale=0.5, seed=seed
    )
    generated = generate_workload(config)
    straggler = StragglerModel(config.framework_profile.stragglers, seed=seed)
    durations: List[float] = []
    for spec in generated.specs():
        for index, work in enumerate(spec.input_phase.task_works):
            durations.append(work * straggler.multiplier(spec.job_id, index, 0))
            if len(durations) >= num_samples:
                break
        if len(durations) >= num_samples:
            break
    estimates = hill_estimates(durations)
    beta = estimate_tail_index(durations)
    result = FigureResult(
        figure="Figure 3",
        description=f"Hill plot of task durations (estimated beta = {beta:.3f}; paper: 1.259)",
    )
    step = max(1, len(estimates) // 12)
    for k, estimate in estimates[::step]:
        result.rows.append({"order statistics (k)": k, "hill estimate of beta": estimate})
    result.rows.append({"order statistics (k)": "plateau", "hill estimate of beta": beta})
    return result


# --------------------------------------------------------------------------- Figure 4


def figure4_reactive_model(
    waves_list: Sequence[int] = (1, 2, 3, 4, 5),
    trials: int = 120,
    seed: int = 4,
) -> FigureResult:
    """Figure 4: response-time ratio of the ω-policy family vs ω, per wave count."""
    config = ReactiveModelConfig(shape=1.259, scale=1.0, slots=20, trials=trials, seed=seed)
    omegas = omega_grid(config.shape, config.scale, points=9, span=5.0)
    curves = response_time_ratio_curve(omegas, waves_list, config)
    gs_point = gs_omega(config.shape, config.scale)
    ras_point = ras_omega(config.shape, config.scale)
    result = FigureResult(
        figure="Figure 4",
        description=(
            "Processing time / optimal vs speculation delay ω "
            f"(GS at ω={gs_point:.2f}, RAS at ω={ras_point:.2f})"
        ),
    )
    for waves, curve in curves.items():
        for omega, ratio in curve:
            result.rows.append({"waves": waves, "omega": omega, "time/optimal": ratio})
    return result


# ------------------------------------------------------------------ §2.3 potential gains


def sec23_potential_gains(scale: Optional[ExperimentScale] = None) -> FigureResult:
    """§2.3: headroom of an informed (oracle) scheduler over LATE and Mantri."""
    scale = scale or ExperimentScale()
    result = FigureResult(
        figure="Section 2.3",
        description="Potential gains of the oracle over LATE/Mantri (paper: 48%/44% accuracy, 32%/40% speedup)",
    )
    for workload in ("facebook", "bing"):
        for bound_kind, metric in (("deadline", "accuracy"), ("error", "duration")):
            comparison = compare_policies(
                ["late", "mantri", "oracle"],
                WorkloadConfig(workload=workload, framework="hadoop", bound_kind=bound_kind, seed=23),
                scale=scale,
            )
            for baseline in ("late", "mantri"):
                if metric == "accuracy":
                    value = comparison.accuracy_improvement("oracle", baseline)
                else:
                    value = comparison.duration_improvement("oracle", baseline)
                result.rows.append(
                    {
                        "workload": workload,
                        "bound": bound_kind,
                        "baseline": baseline,
                        "oracle improvement (%)": value,
                    }
                )
    return result


# ------------------------------------------------------------------- Figures 5, 6, 7


def _per_bin_rows(
    comparison: ComparisonResult,
    policy: str,
    baselines: Sequence[str],
    metric: str,
    extra: Dict,
) -> List[Dict]:
    rows = []
    for baseline in baselines:
        if metric == "accuracy":
            by_bin = comparison.accuracy_improvement_by_bin(policy, baseline)
            overall = comparison.accuracy_improvement(policy, baseline)
        else:
            by_bin = comparison.duration_improvement_by_bin(policy, baseline)
            overall = comparison.duration_improvement(policy, baseline)
        row = dict(extra)
        row["baseline"] = baseline
        row["small (%)"] = by_bin.get("small", float("nan"))
        row["medium (%)"] = by_bin.get("medium", float("nan"))
        row["large (%)"] = by_bin.get("large", float("nan"))
        row["overall (%)"] = overall
        rows.append(row)
    return rows


def figure5_deadline_gains(
    scale: Optional[ExperimentScale] = None,
    workloads: Sequence[str] = ("facebook", "bing"),
    frameworks: Sequence[str] = ("hadoop", "spark"),
) -> FigureResult:
    """Figure 5: GRASS's accuracy improvement for deadline-bound jobs.

    Panels (a)-(d) of the paper correspond to the (workload, framework)
    combinations; improvements are reported against both LATE and Mantri,
    split by job-size bin.
    """
    scale = scale or ExperimentScale()
    result = FigureResult(
        figure="Figure 5",
        description="Accuracy improvement of GRASS for deadline-bound jobs (vs LATE and Mantri)",
    )
    for workload in workloads:
        for framework in frameworks:
            comparison = compare_policies(
                ["late", "mantri", "grass"],
                WorkloadConfig(workload=workload, framework=framework, bound_kind="deadline", seed=5),
                scale=scale,
            )
            result.rows.extend(
                _per_bin_rows(
                    comparison,
                    "grass",
                    ("late", "mantri"),
                    "accuracy",
                    {"workload": workload, "framework": framework},
                )
            )
    return result


def figure7_error_gains(
    scale: Optional[ExperimentScale] = None,
    workloads: Sequence[str] = ("facebook", "bing"),
    frameworks: Sequence[str] = ("hadoop", "spark"),
) -> FigureResult:
    """Figure 7: GRASS's speedup for error-bound jobs (vs LATE and Mantri)."""
    scale = scale or ExperimentScale()
    result = FigureResult(
        figure="Figure 7",
        description="Speedup of GRASS for error-bound jobs (vs LATE and Mantri)",
    )
    for workload in workloads:
        for framework in frameworks:
            comparison = compare_policies(
                ["late", "mantri", "grass"],
                WorkloadConfig(workload=workload, framework=framework, bound_kind="error", seed=7),
                scale=scale,
            )
            result.rows.extend(
                _per_bin_rows(
                    comparison,
                    "grass",
                    ("late", "mantri"),
                    "duration",
                    {"workload": workload, "framework": framework},
                )
            )
    return result


def figure6_bound_bins(scale: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 6: GRASS's gains binned by deadline slack factor and error bound."""
    scale = scale or ExperimentScale()
    result = FigureResult(
        figure="Figure 6",
        description="GRASS gains (vs LATE) binned by deadline factor and error bound",
    )
    for workload in ("facebook", "bing"):
        comparison = compare_policies(
            ["late", "grass"],
            WorkloadConfig(workload=workload, framework="hadoop", bound_kind="deadline", seed=6),
            scale=scale,
        )
        for bin_name, value in sorted(
            comparison.accuracy_improvement_by_deadline_bin("grass", "late").items()
        ):
            result.rows.append(
                {
                    "workload": workload,
                    "bound": "deadline",
                    "bin (%)": bin_name,
                    "improvement (%)": value,
                }
            )
        comparison = compare_policies(
            ["late", "grass"],
            WorkloadConfig(workload=workload, framework="hadoop", bound_kind="error", seed=6),
            scale=scale,
        )
        for bin_name, value in sorted(
            comparison.duration_improvement_by_error_bin("grass", "late").items()
        ):
            result.rows.append(
                {
                    "workload": workload,
                    "bound": "error",
                    "bin (%)": bin_name,
                    "improvement (%)": value,
                }
            )
    return result


# --------------------------------------------------------------------------- Figure 8


def figure8_optimality(scale: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 8: GRASS approaches the informed oracle (Facebook workload, Spark)."""
    scale = scale or ExperimentScale()
    result = FigureResult(
        figure="Figure 8",
        description="GRASS vs the oracle scheduler (improvements over LATE, Facebook/Spark)",
    )
    for bound_kind, metric in (("deadline", "accuracy"), ("error", "duration")):
        comparison = compare_policies(
            ["late", "grass", "oracle"],
            WorkloadConfig(workload="facebook", framework="spark", bound_kind=bound_kind, seed=8),
            scale=scale,
        )
        for policy in ("grass", "oracle"):
            rows = _per_bin_rows(
                comparison, policy, ("late",), metric, {"bound": bound_kind, "policy": policy}
            )
            result.rows.extend(rows)
    return result


# --------------------------------------------------------------------------- Figure 9


def figure9_dag(
    scale: Optional[ExperimentScale] = None, dag_lengths: Sequence[int] = (2, 3, 4, 5, 6)
) -> FigureResult:
    """Figure 9: GRASS's gains hold as the job DAG grows from 2 to 6 phases."""
    scale = scale or ExperimentScale()
    result = FigureResult(
        figure="Figure 9",
        description="GRASS gains (vs LATE) as a function of DAG length",
    )
    for bound_kind, metric in (("deadline", "accuracy"), ("error", "duration")):
        for dag_length in dag_lengths:
            comparison = compare_policies(
                ["late", "grass"],
                WorkloadConfig(
                    workload="facebook",
                    framework="hadoop",
                    bound_kind=bound_kind,
                    dag_length=dag_length,
                    seed=9,
                ),
                scale=scale,
            )
            if metric == "accuracy":
                value = comparison.accuracy_improvement("grass", "late")
            else:
                value = comparison.duration_improvement("grass", "late")
            result.rows.append(
                {"bound": bound_kind, "dag length": dag_length, "improvement (%)": value}
            )
    return result


# ------------------------------------------------------------------- Figures 10 and 11


def figure10_11_switching(
    scale: Optional[ExperimentScale] = None,
    bound_kind: str = "deadline",
    frameworks: Sequence[str] = ("hadoop", "spark"),
) -> FigureResult:
    """Figures 10/11: GS-only and RAS-only vs GRASS (Facebook workload, vs LATE)."""
    scale = scale or ExperimentScale()
    metric = "accuracy" if bound_kind == "deadline" else "duration"
    figure = "Figure 10" if bound_kind == "deadline" else "Figure 11"
    result = FigureResult(
        figure=figure,
        description=f"GS-only vs RAS-only vs GRASS for {bound_kind}-bound jobs (vs LATE)",
    )
    for framework in frameworks:
        comparison = compare_policies(
            ["late", "gs", "ras", "grass"],
            WorkloadConfig(workload="facebook", framework=framework, bound_kind=bound_kind, seed=10),
            scale=scale,
        )
        for policy in ("gs", "ras", "grass"):
            result.rows.extend(
                _per_bin_rows(
                    comparison,
                    policy,
                    ("late",),
                    metric,
                    {"framework": framework, "policy": policy},
                )
            )
    return result


# --------------------------------------------------------------------------- Figure 12


def figure12_strawman(scale: Optional[ExperimentScale] = None) -> FigureResult:
    """Figure 12: learned switching vs the static two-wave strawman."""
    scale = scale or ExperimentScale()
    result = FigureResult(
        figure="Figure 12",
        description="GRASS's learned switching vs the two-wave strawman (vs LATE)",
    )
    for bound_kind, metric in (("deadline", "accuracy"), ("error", "duration")):
        comparison = compare_policies(
            ["late", "grass-strawman", "grass"],
            WorkloadConfig(workload="facebook", framework="hadoop", bound_kind=bound_kind, seed=12),
            scale=scale,
        )
        for policy in ("grass-strawman", "grass"):
            result.rows.extend(
                _per_bin_rows(
                    comparison, policy, ("late",), metric, {"bound": bound_kind, "policy": policy}
                )
            )
    return result


# ------------------------------------------------------------------- Figures 13 and 14


def figure13_14_factors(
    scale: Optional[ExperimentScale] = None, bound_kind: str = "deadline"
) -> FigureResult:
    """Figures 13/14: one, two or all three switching factors (vs LATE)."""
    scale = scale or ExperimentScale()
    metric = "accuracy" if bound_kind == "deadline" else "duration"
    figure = "Figure 13" if bound_kind == "deadline" else "Figure 14"
    result = FigureResult(
        figure=figure,
        description=f"Best-1 / Best-2 / all-three switching factors for {bound_kind}-bound jobs",
    )
    policies = ("grass-1factor", "grass-2factor", "grass")
    labels = {"grass-1factor": "best-1", "grass-2factor": "best-2", "grass": "all-3"}
    for framework in ("hadoop", "spark"):
        comparison = compare_policies(
            ["late", *policies],
            WorkloadConfig(workload="facebook", framework=framework, bound_kind=bound_kind, seed=13),
            scale=scale,
        )
        for policy in policies:
            result.rows.extend(
                _per_bin_rows(
                    comparison,
                    policy,
                    ("late",),
                    metric,
                    {"framework": framework, "factors": labels[policy]},
                )
            )
    return result


# --------------------------------------------------------------------------- Figure 15


def figure15_perturbation(
    scale: Optional[ExperimentScale] = None,
    perturbations: Sequence[float] = (0.0, 0.05, 0.10, 0.15, 0.20),
) -> FigureResult:
    """Figure 15: sensitivity of GRASS to the perturbation probability ξ."""
    scale = scale or ExperimentScale()
    result = FigureResult(
        figure="Figure 15",
        description="GRASS gains (vs LATE) as a function of the perturbation ξ",
    )
    for bound_kind, metric in (("deadline", "accuracy"), ("error", "duration")):
        for workload in ("facebook", "bing"):
            workload_config = WorkloadConfig(
                workload=workload, framework="hadoop", bound_kind=bound_kind, seed=15
            )
            baseline_comparison = compare_policies(
                ["late"], workload_config, scale=scale
            )
            baseline_run = baseline_comparison.runs["late"]
            workload_generated = baseline_comparison.workload
            for xi in perturbations:
                policy = make_grass_with_perturbation(xi)
                metrics_per_seed = []
                for seed in scale.seeds:
                    metrics_per_seed.append(
                        run_policy(
                            workload_generated,
                            policy,
                            scale,
                            seed=seed,
                        )
                    )
                results = [r for m in metrics_per_seed for r in m.results]
                if metric == "accuracy":
                    value = improvement_in_accuracy(
                        baseline_run.average_accuracy(),
                        mean([r.accuracy for r in results if r.bound.is_deadline])
                        if any(r.bound.is_deadline for r in results)
                        else 0.0,
                    )
                else:
                    error_results = [r for r in results if r.bound.is_error]
                    value = improvement_in_duration(
                        baseline_run.average_duration(),
                        mean([r.duration for r in error_results]) if error_results else 0.0,
                    )
                result.rows.append(
                    {
                        "bound": bound_kind,
                        "workload": workload,
                        "xi (%)": xi * 100.0,
                        "improvement (%)": value,
                    }
                )
    return result


# ----------------------------------------------------------------------- Exact jobs (§6.2.2)


def exact_jobs_speedup(scale: Optional[ExperimentScale] = None) -> FigureResult:
    """§6.2.2: GRASS speeds up exact jobs (error bound of zero) as well."""
    scale = scale or ExperimentScale()
    result = FigureResult(
        figure="Exact jobs",
        description="Speedup of exact (error=0) jobs under GRASS (paper: 34%)",
    )
    for workload in ("facebook", "bing"):
        comparison = compare_policies(
            ["late", "mantri", "grass"],
            WorkloadConfig(workload=workload, framework="hadoop", bound_kind="exact", seed=16),
            scale=scale,
        )
        for baseline in ("late", "mantri"):
            result.rows.append(
                {
                    "workload": workload,
                    "baseline": baseline,
                    "speedup (%)": comparison.duration_improvement("grass", baseline),
                }
            )
    return result


# ------------------------------------------------------------- Trace replay validation


def trace_vs_synthetic(scale: Optional[ExperimentScale] = None) -> FigureResult:
    """Replay methodology check: trace-driven vs synthetic GRASS gains.

    The paper evaluates against replayed production traces; this repo's
    stand-in synthesizes the same mix.  To validate the replay pipeline, the
    synthetic workload is exported as an observed-duration trace, replayed
    through :func:`~repro.experiments.simulate.replay_source`, and GRASS's
    gains over LATE are reported side by side for both sources.  Close
    agreement means the trace adapter (bound assignment, straggler
    calibration, wave targeting) reproduces the synthetic methodology — the
    property that makes user-supplied traces trustworthy inputs.
    """
    scale = scale or ExperimentScale()
    result = FigureResult(
        figure="Trace replay",
        description="GRASS vs LATE: synthetic workload vs its trace-driven replay",
    )
    policies = ["late", "grass"]
    for workload in ("facebook", "bing"):
        synthetic_comparison = compare_policies(
            policies,
            WorkloadConfig(workload=workload, framework="hadoop", seed=21),
            scale=scale,
            warmup=False,
        )
        trace = synthesize_trace(
            workload=workload,
            framework="hadoop",
            num_jobs=scale.num_jobs,
            size_scale=scale.size_scale,
            max_tasks_per_job=scale.max_tasks_per_job,
            seed=21,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{workload}.jsonl"
            save_trace(trace, path)
            replay_comparison = replay_source(
                policies,
                path,
                replay_config=TraceReplayConfig(framework="hadoop", seed=21),
                scale=scale,
            )
        for source, comparison in (
            ("synthetic", synthetic_comparison),
            ("trace-replay", replay_comparison),
        ):
            # Job counts and improvements are read off the aggregates view so
            # the figure works under any result sink, not just the retaining
            # default (the improvements are aggregate-based too).
            result.rows.append(
                {
                    "workload": workload,
                    "source": source,
                    "jobs": comparison.runs["grass"].aggregates.num_results,
                    "accuracy gain (%)": comparison.accuracy_improvement("grass", "late"),
                    "speedup (%)": comparison.duration_improvement("grass", "late"),
                }
            )
    return result


#: Registry used by the CLI and the benchmark harness.  Every entry accepts an
#: optional :class:`ExperimentScale` (ignored by the experiments that do not
#: involve the cluster simulator, e.g. the worked examples and the analytic
#: model).
FIGURES = {
    "table1": table1_traces,
    "figure1": lambda scale=None: figure1_deadline_example(),
    "figure2": lambda scale=None: figure2_error_example(),
    "figure3": lambda scale=None: figure3_hill_plot(),
    "figure4": lambda scale=None: figure4_reactive_model(),
    "sec2.3": sec23_potential_gains,
    "figure5": figure5_deadline_gains,
    "figure6": figure6_bound_bins,
    "figure7": figure7_error_gains,
    "figure8": figure8_optimality,
    "figure9": figure9_dag,
    "figure10": lambda scale=None: figure10_11_switching(scale, bound_kind="deadline"),
    "figure11": lambda scale=None: figure10_11_switching(scale, bound_kind="error"),
    "figure12": figure12_strawman,
    "figure13": lambda scale=None: figure13_14_factors(scale, bound_kind="deadline"),
    "figure14": lambda scale=None: figure13_14_factors(scale, bound_kind="error"),
    "figure15": figure15_perturbation,
    "exact": exact_jobs_speedup,
    "trace-replay": trace_vs_synthetic,
}


def run_figure(name: str, scale: Optional[ExperimentScale] = None) -> FigureResult:
    """Run one named experiment from :data:`FIGURES`."""
    try:
        producer = FIGURES[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown figure {name!r}; expected one of {sorted(FIGURES)}"
        ) from exc
    return producer(scale)
