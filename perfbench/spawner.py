"""Launches program processes for the benchmark and reports their rusage.

Linux carries a process's peak resident set across ``fork`` and ``exec``,
so a process forked by the benchmark, which holds the reference outputs and
an imported copy of the program, would report the benchmark's peak as its
own.  The benchmark therefore starts this small process first and has it
fork every timed program process.

Protocol: one JSON request per stdin line (``cmd``, ``out``, ``err``,
``cwd``, ``env``, ``timeout``), one JSON reply per stdout line
(``returncode``, ``wall_s``, ``cpu_s``, ``maxrss_kb``, ``timed_out``).
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request):
    with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], stdout=out, stderr=err, cwd=request["cwd"],
                                env=request["env"])
        timed_out = threading.Event()

        def expire():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(request["timeout"], expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss,
            "timed_out": timed_out.is_set()}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
