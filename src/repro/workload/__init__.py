"""Workload synthesis: the stand-in for the Facebook and Bing production traces.

The original traces (575 K Facebook Hadoop jobs, 500 K Bing Dryad jobs) are
proprietary; this package generates synthetic workloads calibrated to every
property the paper publishes about them — heavy-tailed (Pareto, β ≈ 1.259)
task durations, slowest-task ≈ 8× median, the small/medium/large job-size
mix, multi-waved execution, and the §6.1 recipe for assigning deadlines
(2–20 % over the ideal duration) and error bounds (5–30 %).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.workload.bins": (
            "DEADLINE_BINS",
            "ERROR_BINS",
            "JOB_SIZE_BINS",
            "deadline_bin_label",
            "error_bin_label",
        ),
        "repro.workload.distributions": (
            "BoundedParetoDistribution",
            "ConstantDistribution",
            "Distribution",
            "EmpiricalDistribution",
            "ExponentialDistribution",
            "LogNormalDistribution",
            "ParetoDistribution",
            "UniformDistribution",
        ),
        "repro.workload.profiles": (
            "FrameworkProfile",
            "WorkloadProfile",
            "framework_profile",
            "workload_profile",
        ),
        "repro.workload.ingest": (
            "INGEST_FORMATS",
            "IngestStats",
            "ingest_trace",
            "iter_ingested_trace",
        ),
        "repro.workload.synthetic": ("SyntheticWorkloadGenerator", "WorkloadConfig"),
        "repro.workload.trace_replay": (
            "ClusterSpecSource",
            "ClusterTierConfig",
            "TraceReplayConfig",
            "TraceWorkload",
            "cluster_trace_job",
            "export_trace",
            "iter_cluster_trace",
            "slice_trace",
            "synthesize_trace",
            "trace_to_workload",
        ),
        "repro.workload.traces": (
            "TraceFormatError",
            "TraceJob",
            "TraceSummary",
            "load_trace",
            "save_trace",
            "scan_jobs",
            "scan_trace",
            "summarize_trace",
            "trace_from_specs",
        ),
    },
)

__all__ = [
    "DEADLINE_BINS",
    "ERROR_BINS",
    "JOB_SIZE_BINS",
    "deadline_bin_label",
    "error_bin_label",
    "Distribution",
    "ConstantDistribution",
    "UniformDistribution",
    "ExponentialDistribution",
    "ParetoDistribution",
    "BoundedParetoDistribution",
    "LogNormalDistribution",
    "EmpiricalDistribution",
    "FrameworkProfile",
    "WorkloadProfile",
    "framework_profile",
    "workload_profile",
    "SyntheticWorkloadGenerator",
    "WorkloadConfig",
    "ClusterSpecSource",
    "ClusterTierConfig",
    "INGEST_FORMATS",
    "IngestStats",
    "TraceFormatError",
    "TraceJob",
    "TraceReplayConfig",
    "TraceSummary",
    "TraceWorkload",
    "cluster_trace_job",
    "export_trace",
    "ingest_trace",
    "iter_cluster_trace",
    "iter_ingested_trace",
    "load_trace",
    "save_trace",
    "scan_jobs",
    "scan_trace",
    "slice_trace",
    "summarize_trace",
    "synthesize_trace",
    "trace_from_specs",
    "trace_to_workload",
]
