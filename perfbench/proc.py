"""Child processes of the program: spawn, time, reap with rusage.

Every child runs with ``src`` on ``PYTHONPATH`` from the repository root,
writes its output to files in the run's work directory, and is reaped
with :func:`os.wait4` so its peak RSS is known.  A run-wide deadline
bounds every wait: a child still running at the deadline is killed and
the run fails.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(RuntimeError):
    """The run cannot produce a valid result."""


@dataclass
class Finished:
    """One reaped child."""

    code: int
    seconds: float
    stdout: str
    stderr: str


class Children:
    """Spawns program children and remembers the largest RSS seen."""

    def __init__(self, workdir: str, deadline: float, trace: bool) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.trace = trace
        self.peak_rss_mb = 0.0
        self.spans: list[str] = []
        self._count = 0
        self.env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")

    def argv(self, command: list[str], rid: str) -> list[str]:
        """The child command line; traced children record spans."""
        if not self.trace:
            return [sys.executable, "-m", "repro", *command]
        spans = os.path.join(self.workdir, f"spans-{self._count}.json")
        self.spans.append(spans)
        return [
            sys.executable, os.path.join(HERE, "traced.py"), spans, rid,
            "--", *command,
        ]

    def spawn(self, argv: list[str]) -> tuple[subprocess.Popen, str, str]:
        self._count += 1
        out = os.path.join(self.workdir, f"child-{self._count}.out")
        err = os.path.join(self.workdir, f"child-{self._count}.err")
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            proc = subprocess.Popen(
                argv, stdout=stdout, stderr=stderr, env=self.env,
                stdin=subprocess.DEVNULL,
            )
        return proc, out, err

    def reap(self, proc: subprocess.Popen, out: str, err: str,
             started: float) -> Finished:
        """Wait for ``proc`` (killing it at the deadline) and collect it."""
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL:
            raise BenchError(f"{' '.join(proc.args)} hit the run deadline")
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        with open(out, encoding="utf-8") as stdout, \
                open(err, encoding="utf-8") as stderr:
            return Finished(proc.returncode, seconds, stdout.read(), stderr.read())

    def run(self, command: list[str], rid: str = "") -> Finished:
        """Run one ``repro`` command to completion."""
        argv = self.argv(command, rid)
        started = time.perf_counter()
        proc, out, err = self.spawn(argv)
        return self.reap(proc, out, err, started)

    def import_seconds(self) -> float:
        """Wall time of a fresh interpreter importing ``repro.cli``."""
        started = time.perf_counter()
        proc, out, err = self.spawn([sys.executable, "-c", "import repro.cli"])
        done = self.reap(proc, out, err, started)
        if done.code != 0:
            raise BenchError(f"import repro.cli failed: {done.stderr.strip()}")
        return done.seconds
