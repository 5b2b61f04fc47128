"""Small shared utilities: deterministic RNG streams and statistics helpers."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.utils.rng": ("RngStream", "spawn_rng"),
        "repro.utils.stats": (
            "OnlineMean",
            "OnlineStats",
            "clamp",
            "mean",
            "median",
            "percentile",
            "weighted_mean",
        ),
    },
)

__all__ = [
    "RngStream",
    "spawn_rng",
    "OnlineMean",
    "OnlineStats",
    "clamp",
    "mean",
    "median",
    "percentile",
    "weighted_mean",
]
