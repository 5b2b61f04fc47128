"""The indexed ``SampleStore`` lookup equals the linear scan it replaced.

``SampleStore.samples_for`` answers each fallback level with one lookup in
a per-``(policy, bound_kind)`` wildcard index.  The scan over every stored
key that it replaced lives here as the reference (:func:`linear_matching`):
the indexed lookup must return the same samples in the same order, since
GRASS's switching folds sum sample fractions and times in that order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies.samples import JobSample, SampleStore

POLICIES = ("gs", "ras")
BOUND_KINDS = ("deadline", "error")
#: Input-task counts in each of the small / medium / large bins.
TOTAL_TASKS = (10, 40, 200, 900)
#: Utilisations in each of the low / medium / high buckets.
UTILIZATIONS = (0.1, 0.5, 0.9)
#: Estimator accuracies in each of the poor / fair / good buckets.
ACCURACIES = (0.5, 0.8, 0.95)

SIZE_QUERIES = (None, "small", "medium", "large")
UTIL_QUERIES = (None, "low", "medium", "high")
ACC_QUERIES = (None, "poor", "fair", "good")


def linear_matching(
    store: SampleStore,
    policy: str,
    bound_kind: str,
    size_bucket: Optional[str],
    utilization: Optional[str],
    accuracy: Optional[str],
) -> List[JobSample]:
    """Reference: scan every stored key, in insertion order, for a match."""
    matches: List[JobSample] = []
    for (pol, bound, size, util, acc), bucket in store._samples.items():
        if pol != policy or bound != bound_kind:
            continue
        if size_bucket is not None and size != size_bucket:
            continue
        if utilization is not None and util != utilization:
            continue
        if accuracy is not None and acc != accuracy:
            continue
        matches.extend(bucket)
    return matches


def linear_samples_for(store: SampleStore, policy, bound_kind, size, util, acc):
    """Reference ``samples_for``: the same fallback chain over the scan."""
    for key in ((size, util, acc), (size, util, None), (size, None, None), (None, None, None)):
        matches = linear_matching(store, policy, bound_kind, *key)
        if matches:
            return matches
    return []


samples = st.builds(
    lambda policy, bound, tasks, util, acc, step: JobSample(
        policy=policy,
        bound_kind=bound,
        total_tasks=tasks,
        completion_times=[step * (i + 1) for i in range(min(tasks, 5))],
        wave_width=4,
        utilization=util,
        estimator_accuracy=acc,
        observed_duration=step * 5,
    ),
    st.sampled_from(POLICIES),
    st.sampled_from(BOUND_KINDS),
    st.sampled_from(TOTAL_TASKS),
    st.sampled_from(UTILIZATIONS),
    st.sampled_from(ACCURACIES),
    st.floats(0.5, 9.0),
)


def assert_every_query_matches(store: SampleStore) -> None:
    for policy in POLICIES + ("none",):
        for bound in BOUND_KINDS:
            for size in SIZE_QUERIES:
                for util in UTIL_QUERIES:
                    for acc in ACC_QUERIES:
                        got = store.samples_for(policy, bound, size, util, acc)
                        want = linear_samples_for(store, policy, bound, size, util, acc)
                        # Identity, in order: the same objects, not equal ones.
                        assert [id(s) for s in got] == [id(s) for s in want], (
                            policy, bound, size, util, acc
                        )


class TestIndexedLookupMatchesScan:
    @settings(max_examples=150, deadline=None)
    @given(added=st.lists(samples, max_size=40), cap=st.sampled_from((1, 2, 3, 64)))
    def test_samples_for_equals_linear_scan(self, added: Sequence[JobSample], cap: int):
        """Every wildcard combination, checked after every add (so before and
        after each bucket reaches ``max_samples_per_key`` and evicts)."""
        store = SampleStore(max_samples_per_key=cap)
        assert_every_query_matches(store)
        for sample in added:
            store.add(sample)
            assert_every_query_matches(store)

    def test_wildcards_concatenate_buckets_in_key_insertion_order(self):
        store = SampleStore(max_samples_per_key=2)
        keys: List[Tuple[int, float, float]] = [
            (900, 0.9, 0.5), (10, 0.1, 0.95), (200, 0.5, 0.8), (10, 0.9, 0.5),
        ]
        added = []
        for round_ in range(3):
            for tasks, util, acc in keys:
                sample = JobSample("gs", "error", tasks, [1.0 + round_], 4, util, acc, 2.0)
                store.add(sample)
                added.append(sample)
        # Two per key survive eviction: rounds 1 and 2, bucket by bucket.
        expected = [s for key in range(4) for s in (added[4 + key], added[8 + key])]
        assert store.samples_for("gs", "error") == expected
        assert store.samples_for("gs", "error", accuracy="poor") == [
            added[4], added[8], added[7], added[11]
        ]
