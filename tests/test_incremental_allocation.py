"""The engine's incremental fair-share allocation equals a full recompute.

``Simulation._recompute_allocations`` keeps every running job's effective
limit and their sum, recomputes only the limits of jobs a launch, copy
finish or arrival touched, and skips the max-min loop while the limits fit
into the shared capacity.  These tests pin it to the from-scratch
computation it replaced, and pin the stateless-choice cache to allocation
changes (LATE's speculative budget reads ``wave_width``).
"""

from __future__ import annotations

from typing import Dict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import LatePolicy, NoSpeculationPolicy
from repro.core.bounds import ApproximationBound
from repro.core.policies import GreedySpeculative
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.stragglers import StragglerConfig
from tests.conftest import make_job_spec, make_simulation_config

BOUNDS = (
    ApproximationBound.with_deadline(15.0),
    ApproximationBound.with_error(0.3),
    ApproximationBound.exact(),
)
POLICIES = {
    "gs": GreedySpeculative,
    "late": LatePolicy,
    "none": NoSpeculationPolicy,
}


def from_scratch_allocations(sim: Simulation) -> Dict[int, int]:
    """Fair share over every running job's demand, built from nothing."""
    job_ids = list(sim._running_job_ids)
    demands = {}
    caps = {}
    for job_id in job_ids:
        job = sim._jobs[job_id]
        pending, running = job.schedulable_counts()
        demands[job_id] = max(1, pending + 2 * running)
        caps[job_id] = job.spec.max_slots
    return sim.cluster.fair_share(
        job_ids, demands, caps, capacity=sim._total_slots - sim._reserved_slots
    )


class CheckedSimulation(Simulation):
    """Checks every allocation pass against :func:`from_scratch_allocations`."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.checks = 0
        self.states = set()

    def _recompute_allocations(self) -> None:
        super()._recompute_allocations()
        actual = {job_id: self._jobs[job_id].allocation for job_id in self._running_job_ids}
        assert actual == from_scratch_allocations(self)
        assert list(self._limits) == list(self._running_job_ids)
        assert self._limit_sum == sum(self._limits.values())
        self.checks += 1
        self.states.add(self._congested)


@st.composite
def workloads(draw):
    count = draw(st.integers(1, 6))
    specs = []
    for job_id in range(count):
        works = draw(st.lists(st.sampled_from((1.0, 3.0, 8.0)), min_size=1, max_size=10))
        intermediate = draw(
            st.lists(st.lists(st.sampled_from((1.0, 3.0)), min_size=1, max_size=3), max_size=1)
        )
        specs.append(
            make_job_spec(
                works,
                draw(st.sampled_from(BOUNDS)),
                job_id=job_id,
                arrival=draw(st.sampled_from((0.0, 0.0, 2.0, 5.0, 11.0))),
                max_slots=draw(st.sampled_from((None, None, 1, 3))),
                intermediate=intermediate,
            )
        )
    return specs


class TestIncrementalFairShare:
    @settings(max_examples=120, deadline=None)
    @given(
        specs=workloads(),
        machines=st.integers(1, 8),
        background=st.sampled_from((0.0, 0.3)),
        policy=st.sampled_from(sorted(POLICIES)),
        seed=st.integers(0, 20),
    )
    def test_allocations_equal_full_recompute(self, specs, machines, background, policy, seed):
        config = SimulationConfig(
            cluster=ClusterConfig(num_machines=machines, heterogeneity=0.0, seed=seed),
            stragglers=StragglerConfig(),
            seed=seed,
            background_utilization=background,
        )
        sim = CheckedSimulation(config, POLICIES[policy](), specs)
        metrics = sim.run()
        assert len(metrics.results) == len(specs)
        assert sim.checks > 0

    def test_congestion_comes_and_goes(self):
        """Both sides of the shortcut, and the step between them, are taken."""
        specs = [
            make_job_spec([4.0] * 6, ApproximationBound.exact(), job_id=0),
            make_job_spec([4.0] * 6, ApproximationBound.exact(), job_id=1, arrival=1.0),
            make_job_spec([1.0], ApproximationBound.exact(), job_id=2, arrival=30.0),
        ]
        sim = CheckedSimulation(make_simulation_config(machines=8), GreedySpeculative(), specs)
        sim.run()
        assert sim.states == {False, True}

    @settings(max_examples=200, deadline=None)
    @given(
        limits=st.lists(st.integers(1, 20), min_size=1, max_size=8),
        spare=st.integers(0, 5),
        slots=st.integers(1, 40),
    )
    def test_uncongested_limits_are_granted_in_full(self, limits, spare, slots):
        """The shortcut's premise: limits that fit are the max-min result."""
        cluster = Cluster(ClusterConfig(num_machines=slots, heterogeneity=0.0))
        by_job = dict(enumerate(limits))
        capacity = sum(limits) + spare
        assert cluster.fair_share_limits(by_job, capacity=capacity) == by_job


class TestAllocationChangeClearsCachedDecision:
    def test_late_is_asked_again_when_its_allocation_rises(self):
        """LATE declines at its speculative budget; a same-instant allocation
        rise raises the budget, so the cached None must not be reused.

        Job 0 runs four tasks (one with three copies), job 1 one fresh task,
        on nine slots: the limits 8 + 2 are congested, job 0 gets 7 slots and
        a budget of int(0.375 * 7) = 2 speculative copies, all spent.  Job 1
        finishes at the same instant, job 0's allocation rises to 8 and its
        budget to 3, and LATE must now speculate on a slow task.
        """
        specs = [
            make_job_spec([100.0] * 4, ApproximationBound.exact(), job_id=0),
            make_job_spec([100.0], ApproximationBound.exact(), job_id=1),
        ]
        policy = LatePolicy(speculative_cap=0.375)
        sim = Simulation(make_simulation_config(machines=9), policy, specs)
        sim._push_next_arrival()
        sim._handle_arrival(0)
        job = sim._jobs[0]
        for task_id in (0, 0, 0, 1, 2, 3):
            sim._launch_copy(job, job.tasks[task_id], speculative=job.tasks[task_id].is_running)
        sim._now = 2.0
        sim._handle_arrival(1)
        other = sim._jobs[1]
        sim._launch_copy(other, other.tasks[0], speculative=False)
        sim._recompute_allocations()
        assert (job.allocation, other.allocation) == (7, 2)

        sim._dispatch()
        assert job._running_copy_total == 6
        assert sim._sched_index[0].choice_void

        sim._finish_job(other)
        sim._recompute_allocations()
        assert job.allocation == 8
        sim._dispatch()
        assert job._running_copy_total == 7
        assert job.speculative_copies_launched == 3
        assert job.tasks[1].running_copy_count == 2
