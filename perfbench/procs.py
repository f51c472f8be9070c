"""Child processes of the benchmark: CLI builds and ``serve``.

Every child runs the program from the checkout's ``src`` through its
own CLI (``python -m repro.cli ...``).  A server is stopped by SIGTERM,
which drains it; one that does not exit in time is killed.  After a
stop the benchmark checks that the server's port is closed, and at the
end of a run that no shared-memory segment appeared and survived.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from common import SRC

READY = re.compile(r"^serving .* on ([0-9.]+):(\d+) ", re.MULTILINE)
SHM_DIR = Path("/dev/shm")


def child_env() -> dict:
    """The environment of every child: the checkout's sources first, and
    no inherited fault plan or worker-count override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for name in ("REPRO_FAULTS", "REPRO_SIM_WORKERS", "REPRO_SIM_RETRIES"):
        env.pop(name, None)
    return env


def cli(*args) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *map(str, args)]


def _spin_ms() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    return (time.perf_counter() - started) * 1e3


def fastest_cpu() -> tuple[int, dict[int, float]]:
    """The usable CPU that runs a fixed loop fastest now, and the loop's
    median milliseconds on each CPU.

    On a shared virtual machine each virtual CPU drifts on its own
    between a fast and a slow state (a pure-Python loop took 5.3 or
    7.5 ms), each lasting seconds to minutes.
    """
    before = os.sched_getaffinity(0)
    speeds = {}
    try:
        for cpu in sorted(before):
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = sorted(_spin_ms() for _ in range(15))[7]
    finally:
        os.sched_setaffinity(0, before)
    return min(speeds, key=speeds.get), speeds


@contextmanager
def pinned(cpu: int):
    """Run the calling thread on ``cpu`` only, then restore it.

    Server and load generator take turns on one CPU, so each request
    and reply wakes its peer with a context switch.  Across two CPUs
    every hand-off is a cross-CPU wake-up of an idle virtual CPU, whose
    cost on a shared host swings with the host's load: the cache-hit
    read path then varied by a third while a CPU-bound loop on the same
    host varied by 4%.
    """
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def shm_segments() -> set[str]:
    """Names of the shared-memory segments currently linked."""
    if not SHM_DIR.is_dir():
        return set()
    return {path.name for path in SHM_DIR.iterdir()}


def remove_segments(names) -> None:
    for name in names:
        try:
            (SHM_DIR / name).unlink()
        except FileNotFoundError:
            pass


def run_timed(argv, cwd, log_path, timeout_s: float) -> tuple[float, float]:
    """Run one CLI command to completion.

    Returns ``(wall seconds, peak RSS in MB)``; raises ``RuntimeError``
    on a non-zero exit or a timeout (the child is killed first).
    """
    with open(log_path, "ab") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT
        )
        deadline = started + timeout_s
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    elapsed = time.perf_counter() - started
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"timed out after {timeout_s}s: {argv}")
                time.sleep(0.005)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {' '.join(argv)}")
    return elapsed, usage.ru_maxrss / 1024.0


class Server:
    """A ``repro-inflex serve`` child on an ephemeral port.

    Callers stop it in a ``finally``, so it is drained on every exit
    path, a failed gate or an exception included.
    """

    def __init__(self, argv, cwd, log_path) -> None:
        self._argv = argv
        self._cwd = cwd
        self._log_path = Path(log_path)
        self._proc: subprocess.Popen | None = None
        self._log = None
        self.port: int | None = None
        self.problems: list[str] = []

    def start(self, timeout_s: float = 60.0) -> None:
        """Spawn the server and wait until ``/healthz`` answers."""
        self._log = self._log_path.open("wb")
        self._proc = subprocess.Popen(
            self._argv,
            cwd=self._cwd,
            env=child_env(),
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        deadline = time.perf_counter() + timeout_s
        while self.port is None:
            if self._proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self._proc.returncode}: "
                    + self._log_path.read_text(errors="replace")[-2000:]
                )
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not report its port in time")
            match = READY.search(self._log_path.read_text(errors="replace"))
            if match:
                self.port = int(match.group(2))
            else:
                time.sleep(0.01)
        while not self._healthy():
            if time.perf_counter() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)

    def _healthy(self) -> bool:
        try:
            with socket.create_connection(("127.0.0.1", self.port), 1.0) as s:
                s.sendall(
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                    b"Connection: close\r\n\r\n"
                )
                return s.recv(64).startswith(b"HTTP/1.1 200")
        except OSError:
            return False

    def pin(self, cpu: int) -> None:
        """Run every thread of the server on ``cpu`` only; threads it
        starts later inherit that from the thread starting them."""
        for task in Path(f"/proc/{self._proc.pid}/task").iterdir():
            try:
                os.sched_setaffinity(int(task.name), {cpu})
            except ProcessLookupError:
                pass

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``)."""
        status = Path(f"/proc/{self._proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        return int(match.group(1)) / 1024.0

    def stop(self, timeout_s: float = 20.0) -> None:
        """SIGTERM-drain the server (kill it if it hangs), wait for it,
        and check that its port is closed.  Idempotent."""
        proc, self._proc = self._proc, None
        if self._log is not None:
            self._log.close()
            self._log = None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.problems.append("server ignored SIGTERM; killed")
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode not in (0, -signal.SIGTERM):
            self.problems.append(f"server exited with {proc.returncode}")
        if self.port is not None:
            try:
                socket.create_connection(("127.0.0.1", self.port), 0.5).close()
                self.problems.append(f"port {self.port} still open")
            except OSError:
                pass
