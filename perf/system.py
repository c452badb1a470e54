"""Processes of the system under test: start, pin, meter, stop.

Every process — the driver included — is pinned to **one** core.  A Python
process whose threads spread over two cores hands the interpreter lock
back and forth across them; on the 2-vCPU sandbox that made the very same
index build take anywhere from 1.7 s (one core) to 5.4 s (two), which no
bound survives.  The placement is fixed: the driver on the first allowed
core, the system on the second (shards alternate over both), and at most
two cores are used however many the host has, so numbers from different
hosts mean the same thing.

CPU and memory are read from outside, from ``/proc`` while a process
lives and from ``os.wait4`` when it ends — no psutil.
"""

from __future__ import annotations

import compileall
import json
import os
import select
import signal
import subprocess
import sys
import time
from functools import cached_property
from pathlib import Path

PERF = Path(__file__).resolve().parent
SRC = PERF.parent / "src"
OUT = PERF / "out"
ENTRY = PERF / "entry.py"
_TICK = os.sysconf("SC_CLK_TCK")
_READY_TIMEOUT_S = 120.0
_EXIT_TIMEOUT_S = 30.0


def cores() -> list:
    """The (at most two) cores the benchmark uses, driver's first."""
    return sorted(os.sched_getaffinity(0))[:2]


def prepare_runtime() -> list:
    """Pin the driver, compile the program once, and fix the child env.

    Byte-compiling ``src/`` into ``perf/out/pycache`` is this Python
    program's build step: every later child imports from that cache, so a
    process start costs the same on the first run of a checkout as on the
    hundredth.  Returns the cores in use.
    """
    used = cores()
    os.sched_setaffinity(0, {used[0]})
    OUT.mkdir(exist_ok=True)
    cache = OUT / "pycache"
    sys.pycache_prefix = str(cache)
    sys.dont_write_bytecode = False
    compileall.compile_dir(str(SRC), quiet=2, workers=1)
    os.environ["PYTHONPYCACHEPREFIX"] = str(cache)
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    # One BLAS thread per process: each process owns one core.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    return used


def cpu_seconds(pids) -> float:
    """user + sys CPU seconds consumed so far by live processes ``pids``."""
    total = 0
    for pid in pids:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _TICK


def peak_rss_mb(pids) -> float:
    """Sum of the peak resident set sizes of live processes ``pids``."""
    total_kb = 0
    for pid in pids:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


class Child:
    """One child process started from ``entry.py``."""

    def __init__(self, argv: list, core: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(ENTRY), *argv],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        os.sched_setaffinity(self.proc.pid, {core})
        self.rusage = None

    @cached_property
    def ready(self) -> dict:
        """The child's first JSON line; blocks until it has been printed,
        so children started back to back come up side by side."""
        try:
            return self._read_line()
        except BaseException:
            self.kill()
            raise

    @property
    def pids(self) -> list:
        """The child and, for a cluster, its shard processes."""
        return self.ready.get("pids", [self.proc.pid])

    def _read_line(self) -> dict:
        fd = self.proc.stdout.fileno()
        buffer = b""
        while not buffer.endswith(b"\n"):
            if not select.select([fd], [], [], _READY_TIMEOUT_S)[0]:
                raise RuntimeError("child did not report within the timeout")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(
                    f"child exited before reporting (see its stderr); "
                    f"got {buffer!r}"
                )
            buffer += chunk
        return json.loads(buffer)

    def _reap(self, patience_s: float = _EXIT_TIMEOUT_S) -> None:
        """Wait for the child to end; SIGKILL it if it outstays its welcome."""
        deadline = time.monotonic() + patience_s
        pid = 0
        while pid == 0:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid == 0:
                if time.monotonic() > deadline:
                    os.kill(self.proc.pid, signal.SIGKILL)
                    deadline = float("inf")
                time.sleep(0.01)
        self.rusage = rusage
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdin.close()
        self.proc.stdout.close()

    def wait(self) -> None:
        """Wait for a child that reports and then ends by itself (``build``)."""
        if self.rusage is None:
            self.ready
            self._reap()
            if self.proc.returncode != 0:
                raise RuntimeError(f"child exited with {self.proc.returncode}")

    def stop(self) -> None:
        """Ask a server child to drain and exit, then reap it."""
        if self.rusage is None:
            try:
                self.proc.stdin.write(b"stop\n")
                self.proc.stdin.flush()
            except OSError:
                pass
            self._reap()

    def kill(self) -> None:
        """SIGKILL the child (and any shard it started), then reap it."""
        if self.rusage is None:
            pids = self.__dict__.get("ready", {}).get("pids", [self.proc.pid])
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self._reap()
            # Shards are the child's children, not ours: watch them go.
            deadline = time.monotonic() + _EXIT_TIMEOUT_S
            while any(Path(f"/proc/{pid}").exists() for pid in pids[1:]):
                if time.monotonic() > deadline:
                    raise RuntimeError(f"shard processes {pids[1:]} outlived SIGKILL")
                time.sleep(0.01)

    @property
    def maxrss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0
