"""Shared plumbing: checkout paths, process timing, statistics, input traces.

Everything here is benchmark-side code.  The program under test is reached
only through its public surfaces: ``python -m repro.experiments.cli``
processes and the ``repro`` package imported from the checkout's ``src``.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for traces, caches and process output; git-ignored.
WORK = ROOT / ".bench_work"


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, bad arguments, ...)."""


class InvalidRun(RuntimeError):
    """The measurement itself is unusable (e.g. the load generator fell behind)."""


def require_program() -> None:
    """Fail fast when the checkout does not hold the program's sources."""
    if not (SRC / "repro" / "experiments" / "cli.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_command(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.experiments.cli", *args]


@dataclass
class ProcResult:
    """One finished program process, timed from spawn to reap."""

    returncode: int
    wall_s: float
    #: User + system CPU of the process and every child it reaped (pool workers).
    cpu_s: float
    #: Largest resident set of the process or any reaped child.
    maxrss_mb: float
    stdout: str
    stderr: str


class Spawner:
    """Runs program processes through ``spawner.py`` (see its docstring).

    Start it before the benchmark imports the program or builds references,
    so the peak resident set every child inherits is the spawner's own few
    megabytes.  Use as a context manager; leaving it stops the spawner.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def run(self, cmd: Sequence[str], workdir: Path, timeout: float = 170.0) -> "ProcResult":
        """Run ``cmd`` to completion; its wall time and rusage (pool workers
        included, since the program reaps them)."""
        out_path = workdir / "proc.out"
        err_path = workdir / "proc.err"
        request = {"cmd": list(cmd), "out": str(out_path), "err": str(err_path),
                   "cwd": str(ROOT), "env": program_env(), "timeout": timeout}
        self._proc.stdin.write((json.dumps(request) + "\n").encode("utf-8"))
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise BenchError("the process spawner exited")
        reply = json.loads(line)
        if reply["timed_out"]:
            raise BenchError(f"process timed out after {timeout:.0f}s: {cmd}")
        return ProcResult(
            returncode=reply["returncode"],
            wall_s=reply["wall_s"],
            cpu_s=reply["cpu_s"],
            maxrss_mb=reply["maxrss_kb"] / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )


def stop_process(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """Interrupt a long-running program process and reap it (kill after ``grace``)."""
    if proc.poll() is not None:
        return
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, all threads (Linux /proc)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """High-water resident set of a live process (``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# -- statistics ---------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]):
    """``(percentile, value)`` at the highest percentile with >= 10 samples
    beyond it, or ``None`` when there are fewer than 11 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[index]


# -- inputs -------------------------------------------------------------------------


def write_cluster_trace(path: Path, num_jobs: int, seed: int, max_tasks: int = 200) -> None:
    """Write an arrival-sorted JSONL trace with the cluster tier's shape.

    Same shape as the program's generated cluster tier (log-normal task
    counts around 4 with sigma 1.6, 12 s log-normal task durations, 5% of
    tasks straggling 2-8x, one arrival every ~5 s), but the task counts are
    stratified: job ``i`` gets the ``(i + 0.5) / n`` quantile of the count
    distribution and the seed only shuffles them.  Every seed therefore
    yields the same total work in a different arrangement, so run-to-run
    spread measures the program, not the luck of the draw.
    """
    rng = random.Random(seed)
    normal = NormalDist(math.log(4.0), 1.6)
    counts = [
        min(max_tasks, max(1, round(math.exp(normal.inv_cdf((i + 0.5) / num_jobs)))))
        for i in range(num_jobs)
    ]
    rng.shuffle(counts)
    with open(path, "w", encoding="utf-8") as handle:
        for index, count in enumerate(counts):
            arrival = index * 5.0 + rng.uniform(0.0, 4.5)
            durations = []
            for _ in range(count):
                duration = 12.0 * rng.lognormvariate(0.0, 0.35)
                if rng.random() < 0.05:
                    duration *= rng.uniform(2.0, 8.0)
                durations.append(round(duration, 4))
            handle.write(
                json.dumps(
                    {"job_id": index, "arrival_time": round(arrival, 4), "task_durations": durations}
                )
                + "\n"
            )


def fresh_dir(parent: Path, name: str) -> Path:
    """A new, empty directory ``parent/name-<random>``."""
    parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=parent))


def digest_line(stdout: str) -> Optional[str]:
    for line in stdout.splitlines():
        if line.startswith("metrics digest: sha256="):
            return line.split("=", 1)[1].strip()
    return None


def table_lines(text: str) -> List[str]:
    """A figure's table rows, without blank lines or the ``(... regenerated
    in ...s)`` timing footer."""
    return [
        line
        for line in text.splitlines()
        if line.strip() and not (line.startswith("(") and " regenerated " in line)
    ]
