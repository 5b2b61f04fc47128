"""Start-up cost of a cached replay, the lazy public API and fork safety.

* **Import diet** — a replay served entirely from the replay cache loads
  only plan, cache and fold code: the engine, the policies, the executor,
  the figure harness, workload generation, ingest, ``asyncio`` and
  ``multiprocessing`` stay unimported (checked in a fresh interpreter).
* **Static name tuples** — plan validation reads policy, framework and
  bound-kind names from static tuples; each must equal the registry it
  mirrors.
* **Lazy API** — every package re-exports its ``__all__`` lazily (PEP 562);
  every name still resolves, ``dir()`` lists it, ``import *`` works and the
  quickstart example runs.
* **Fork safety** — every worker pool is created after the engine is
  imported, so forked workers never import it again.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.plan import (
    PLAN_BOUND_KINDS,
    PLAN_FRAMEWORKS,
    PLAN_POLICIES,
    ReplayPlan,
)
from repro.experiments.runner import execute
from repro.workload.trace_replay import synthesize_trace
from repro.workload.traces import save_trace

ROOT = Path(__file__).resolve().parent.parent

#: Modules a fully cached replay must not import (``scripts/check.sh
#: cache-smoke`` enforces the same list on the CLI).  A trailing ``.`` also
#: denies every submodule.
HIT_PATH_DENYLIST = (
    "repro.simulator.engine",
    "repro.core.policies",
    "repro.core.policies.",
    "repro.baselines",
    "repro.baselines.",
    "repro.experiments.executor",
    "repro.experiments.figures",
    "repro.workload.synthetic",
    "repro.workload.ingest",
    "asyncio",
    "multiprocessing",
)

#: Packages whose ``__all__`` is re-exported lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.core.policies",
    "repro.experiments",
    "repro.simulator",
    "repro.utils",
    "repro.workload",
)


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )


def denied(modules) -> list:
    return sorted(
        name
        for name in modules
        for entry in HIT_PATH_DENYLIST
        if (name.startswith(entry) if entry.endswith(".") else name == entry)
    )


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    trace = synthesize_trace(
        workload="facebook",
        framework="hadoop",
        num_jobs=10,
        size_scale=0.05,
        max_tasks_per_job=10,
        seed=5,
    )
    path = tmp_path_factory.mktemp("diet_trace") / "trace.jsonl"
    save_trace(trace, path)
    return path


def replay_argv(trace, cache) -> list:
    return [
        "replay", "--trace", str(trace), "--scale", "quick", "--shards", "2",
        "--policy", "grass", "--policy", "late", "--sink", "aggregate",
        "--workers", "2", "--cache", str(cache),
    ]


_CACHED_REPLAY = """
import json, sys
from repro.experiments.cli import main
status = main(sys.argv[1:])
print(json.dumps({"status": status, "modules": sorted(sys.modules)}))
"""


class TestImportDiet:
    def test_cached_replay_loads_only_plan_cache_and_fold_code(
        self, trace_path, tmp_path
    ):
        cache = tmp_path / "cache"
        plan = ReplayPlan(
            trace=str(trace_path), policies=("grass", "late"), scale="quick",
            shards=2, sink="aggregate", cache=str(cache),
        )
        expected = execute(plan).digest
        proc = run_python("-c", _CACHED_REPLAY, *replay_argv(trace_path, cache))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-1])
        assert report["status"] == 0
        assert f"metrics digest: sha256={expected}" in lines
        assert "replay cache: 4 hits, 0 misses" in proc.stdout
        assert denied(report["modules"]) == []

    def test_importing_the_package_loads_nothing_else(self):
        proc = run_python(
            "-c",
            "import json, sys; import repro; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["repro", "repro._lazy"]


class TestStaticNames:
    def test_plan_policies_mirror_the_policy_registry(self):
        from repro.experiments.policies import available_policies

        assert PLAN_POLICIES == available_policies()

    def test_plan_frameworks_mirror_the_framework_profiles(self):
        from repro.workload.profiles import available_frameworks

        assert PLAN_FRAMEWORKS == available_frameworks()

    def test_plan_bound_kinds_mirror_the_generator_constants(self):
        from repro.workload import synthetic

        assert PLAN_BOUND_KINDS == (
            synthetic.BOUND_DEADLINE,
            synthetic.BOUND_ERROR,
            synthetic.BOUND_EXACT,
            synthetic.BOUND_MIXED,
        )
        assert ReplayPlan().bound_kind == synthetic.BOUND_MIXED


class TestLazyApi:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_exported_name_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        listing = dir(module)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
            assert name in listing, name

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_names_raise_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name  # noqa: B018

    def test_star_import_binds_all(self):
        proc = run_python(
            "-c",
            "import json, repro; namespace = {}; "
            "exec('from repro import *', namespace); "
            "print(json.dumps(sorted(set(repro.__all__) - set(namespace))))",
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_reexports_are_the_defining_objects(self):
        import repro
        from repro.core.policies.grass import Grass
        from repro.simulator.engine import Simulation

        assert repro.Grass is Grass
        assert repro.Simulation is Simulation

    def test_quickstart_example_runs(self):
        proc = run_python(str(ROOT / "examples" / "quickstart.py"))
        assert proc.returncode == 0, proc.stderr
        assert "average accuracy" in proc.stdout


_RECORD_POOLS = """
import json, multiprocessing, sys

real_pool = multiprocessing.Pool
engine_loaded = []


def recording_pool(*args, **kwargs):
    engine_loaded.append("repro.simulator.engine" in sys.modules)
    return real_pool(*args, **kwargs)


multiprocessing.Pool = recording_pool
if sys.argv[1] == "replay":
    from repro.experiments.cli import main

    assert main(sys.argv[2:]) == 0
else:
    from repro.experiments.runner import ExperimentScale, compare_policies
    from repro.workload.synthetic import WorkloadConfig

    scale = ExperimentScale(
        num_jobs=6, size_scale=0.05, max_tasks_per_job=10, num_machines=20,
        seeds=(1,), warmup_jobs=3,
    )
    compare_policies(["grass", "gs"], WorkloadConfig(seed=2), scale=scale, workers=2)
print(json.dumps(engine_loaded))
"""


class TestForkSafety:
    def test_cold_replay_pools_fork_after_the_engine_is_imported(
        self, trace_path, tmp_path
    ):
        proc = run_python(
            "-c", _RECORD_POOLS, "replay", *replay_argv(trace_path, tmp_path / "cache")
        )
        assert proc.returncode == 0, proc.stderr
        engine_loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        assert engine_loaded and all(engine_loaded)

    def test_compare_policies_pools_fork_after_the_engine_is_imported(self):
        proc = run_python("-c", _RECORD_POOLS, "compare")
        assert proc.returncode == 0, proc.stderr
        engine_loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        assert engine_loaded and all(engine_loaded)
