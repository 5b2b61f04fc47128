"""GRASS reproduction: trimming stragglers in approximation analytics.

A faithful, simulator-backed reproduction of *GRASS: Trimming Stragglers in
Approximation Analytics* (NSDI 2014).  The public API re-exports the pieces a
downstream user typically needs (lazily: each name is imported on first
use, so importing one submodule never loads the rest of the package):

* job/task modelling and approximation bounds (:mod:`repro.core`),
* the GS / RAS / GRASS speculation policies (:mod:`repro.core.policies`),
* the LATE / Mantri / oracle baselines (:mod:`repro.baselines`),
* the discrete-event cluster simulator (:mod:`repro.simulator`),
* synthetic workload generation (:mod:`repro.workload`),
* the analytic model of Appendix A (:mod:`repro.model`),
* the experiment harness regenerating every figure (:mod:`repro.experiments`).

Quick start::

    from repro import (
        ApproximationBound, GrassConfig, Grass, Simulation, SimulationConfig,
        WorkloadConfig, generate_workload,
    )

    workload = generate_workload(WorkloadConfig(num_jobs=50, seed=1))
    metrics = Simulation(SimulationConfig(), Grass(), workload.specs()).run()
    print(metrics.summary())
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.baselines.late": ("LatePolicy",),
        "repro.baselines.mantri": ("MantriPolicy",),
        "repro.baselines.none": ("NoSpeculationPolicy",),
        "repro.baselines.oracle": ("OraclePolicy",),
        "repro.core.bounds": ("ApproximationBound", "BoundType"),
        "repro.core.estimators": ("EstimatorConfig", "TaskEstimator"),
        "repro.core.job": ("Job", "JobPhaseSpec", "JobResult", "JobSpec", "job_bin_label"),
        "repro.core.policies.base": ("SchedulingView", "SpeculationPolicy", "TaskSnapshot"),
        "repro.core.policies.grass": ("Grass", "GrassConfig"),
        "repro.core.policies.gs": ("GreedySpeculative",),
        "repro.core.policies.ras": ("ResourceAwareSpeculative",),
        "repro.core.policies.samples": ("SampleStore",),
        "repro.core.task": ("CopyState", "Task", "TaskCopy", "TaskSpec", "TaskState"),
        "repro.simulator.cluster": ("Cluster", "ClusterConfig"),
        "repro.simulator.engine": ("Simulation", "SimulationConfig"),
        "repro.simulator.metrics": ("MetricsCollector",),
        "repro.simulator.stragglers": ("StragglerConfig", "StragglerModel"),
        "repro.workload.synthetic": (
            "GeneratedWorkload",
            "SyntheticWorkloadGenerator",
            "WorkloadConfig",
            "generate_workload",
        ),
    },
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # bounds and jobs
    "ApproximationBound",
    "BoundType",
    "Job",
    "JobSpec",
    "JobPhaseSpec",
    "JobResult",
    "job_bin_label",
    "Task",
    "TaskSpec",
    "TaskCopy",
    "TaskState",
    "CopyState",
    # estimators
    "EstimatorConfig",
    "TaskEstimator",
    # policies
    "SpeculationPolicy",
    "SchedulingView",
    "TaskSnapshot",
    "GreedySpeculative",
    "ResourceAwareSpeculative",
    "Grass",
    "GrassConfig",
    "SampleStore",
    # baselines
    "LatePolicy",
    "MantriPolicy",
    "NoSpeculationPolicy",
    "OraclePolicy",
    # simulator
    "Cluster",
    "ClusterConfig",
    "Simulation",
    "SimulationConfig",
    "StragglerConfig",
    "StragglerModel",
    "MetricsCollector",
    # workload
    "WorkloadConfig",
    "SyntheticWorkloadGenerator",
    "GeneratedWorkload",
    "generate_workload",
]
