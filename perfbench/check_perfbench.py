"""The benchmark's own tests: ``python3 -m pytest perfbench/check_perfbench.py``.

Each test runs ``perfbench/run.py`` as the benchmark's users do, at tiny
size, so it checks what is printed rather than internals.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Counts that must repeat exactly from one traced run to the next.
EXACT_COUNTS = ("engine.simulations", "engine.events", "engine.copies", "engine.spec_copies",
                "events.pushes", "events.pops", "events.cancels", "stragglers.draws",
                "policies.grass.choose_calls", "index.prepare_calls", "cache.stores",
                "sinks.chunks", "traces.jobs")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "3", "--seconds", "1",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_prints(proc: subprocess.CompletedProcess, metrics) -> None:
    """Every named metric is in the result line with its unit, and printed
    by name with its unit in the report above it."""
    found = result(proc)["metrics"]
    assert sorted(found) == sorted(m["name"] for m in metrics)
    report = proc.stdout.strip().splitlines()[:-1]
    for metric in metrics:
        assert found[metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[2] == metric["unit"]
            for line in report
        ), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    assert result(proc)["correct"] is True
    assert result(proc)["failed"] == 0
    assert_prints(proc, SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_prints_every_layer_metric(workload):
    proc = bench("--workload", workload, "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    assert result(proc)["correct"] is True
    # The traced pass's digests and tables equal the untraced pass's.
    assert "outputs equal" in proc.stdout
    assert_prints(proc, SPEC["per_layer"])


def test_traced_counts_repeat_exactly():
    first = result(bench("--workload", "replay-cold", "--trace", "1", "--tiny"))["metrics"]
    second = result(bench("--workload", "replay-cold", "--trace", "1", "--tiny"))["metrics"]
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_fails_the_command(workload):
    proc = bench("--workload", workload, "--trace", "0", "--tiny", "--wrong-reference")
    assert proc.returncode == 1
    outcome = result(proc)
    assert outcome["correct"] is False
    assert outcome["failed"] == outcome["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_spec_matches_the_code():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    from workloads import WORKLOADS as CODE

    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in CODE.items()
    }
