"""Discrete-event cluster simulator substrate.

This package replaces the paper's 200-node EC2 deployment: it provides the
machines, slots, straggler behaviour and event loop on which the speculation
policies (GS, RAS, GRASS and the baselines) are exercised.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.simulator.cluster": ("Cluster", "ClusterConfig"),
        "repro.simulator.engine": ("Simulation", "SimulationConfig"),
        "repro.simulator.events": ("Event", "EventKind", "EventQueue"),
        "repro.simulator.machine": ("Machine",),
        "repro.simulator.metrics": ("MetricsCollector",),
        "repro.simulator.sinks": (
            "AggregateSink",
            "JsonlSpillSink",
            "ResultSink",
            "RetainAllSink",
            "SinkFactory",
            "StreamingAggregates",
        ),
        "repro.simulator.stragglers": ("StragglerConfig", "StragglerModel"),
    },
)

__all__ = [
    "AggregateSink",
    "Cluster",
    "ClusterConfig",
    "Event",
    "EventKind",
    "EventQueue",
    "JsonlSpillSink",
    "Machine",
    "MetricsCollector",
    "ResultSink",
    "RetainAllSink",
    "Simulation",
    "SimulationConfig",
    "SinkFactory",
    "StragglerConfig",
    "StragglerModel",
    "StreamingAggregates",
]
