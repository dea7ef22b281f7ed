"""Starting the program's processes and measuring their wall time and peak RSS."""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from pathlib import Path

#: How long any one program process may run before the run is abandoned.
PROCESS_TIMEOUT_S = 150.0


class ProgramError(RuntimeError):
    """A program process could not be run to completion."""


def program_env(root: Path, hash_seed: int) -> dict:
    """The environment of a program process: sources from the checkout, pinned hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def cli(*args: str) -> list[str]:
    """The command line of ``repro ARGS`` run from source."""
    return [sys.executable, "-m", "repro.cli", *args]


def start(argv: list[str], env: dict, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
          stdin=subprocess.DEVNULL) -> tuple[subprocess.Popen, float]:
    """Launch a process; returns it with its launch time (``perf_counter``)."""
    launched = time.perf_counter()
    return subprocess.Popen(argv, env=env, stdout=stdout, stderr=stderr, stdin=stdin), launched


def reap(proc: subprocess.Popen) -> tuple[int, float, float]:
    """Wait for ``proc``; returns ``(exit code, exit time, peak RSS in MB)``.

    ``os.wait4`` reports the peak RSS of exactly this child.  A process
    still running after ``PROCESS_TIMEOUT_S`` is killed and reported as a
    :class:`ProgramError`.
    """
    if proc.returncode is not None:  # already killed and waited for
        return proc.returncode, time.perf_counter(), 0.0
    deadline = time.perf_counter() + PROCESS_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            ended = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, ended, usage.ru_maxrss / 1024.0
        if time.perf_counter() > deadline:
            proc.kill()
            proc.wait()
            raise ProgramError(f"{proc.args!r} ran longer than {PROCESS_TIMEOUT_S:.0f} s")
        time.sleep(0.001)


def read_line(proc: subprocess.Popen, stream) -> bytes:
    """The next line a process writes to ``stream`` (a pipe), waiting at most ``PROCESS_TIMEOUT_S``."""
    ready, _, _ = select.select([stream], [], [], PROCESS_TIMEOUT_S)
    if not ready:
        proc.kill()
        proc.wait()
        raise ProgramError(f"{proc.args!r} wrote nothing for {PROCESS_TIMEOUT_S:.0f} s")
    return stream.readline()


def run(argv: list[str], env: dict, out: Path) -> dict:
    """Run one process to completion with stdout/stderr in files under ``out``.

    Returns ``returncode``, ``wall_s`` (launch to exit), ``rss_mb``,
    ``stdout`` and ``stderr``.
    """
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(f"{out}.out", "w+") as stdout, open(f"{out}.err", "w+") as stderr:
        proc, launched = start(argv, env, stdout=stdout, stderr=stderr)
        returncode, ended, rss = reap(proc)
        stdout.seek(0)
        stderr.seek(0)
        return {
            "returncode": returncode,
            "wall_s": ended - launched,
            "rss_mb": rss,
            "stdout": stdout.read(),
            "stderr": stderr.read(),
        }
