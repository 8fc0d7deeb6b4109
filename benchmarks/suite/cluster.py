"""Subprocess harness for ``arb serve`` / ``arb router`` that cannot hang or leak.

Every process gets its own process group, an ephemeral port announced
through ``--ready-file``, a bounded wait for that file, and its stderr in a
file that is attached to whatever failure follows.  ``close()`` kills and
reaps every group on every exit path.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time

__all__ = ["Cluster", "ClusterError", "REPO_ROOT", "child_environment", "copy_base"]

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

READY_TIMEOUT = 30.0


class ClusterError(RuntimeError):
    """A server did not start, died, or did not answer in time."""


def child_environment() -> dict[str, str]:
    """The environment of every process the benchmark starts.

    ``src`` on the path, and none of the knobs that would silently change
    what is measured (kernel, pager mode, fault injection).
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_KERNEL", "REPRO_PAGER_MODE", "REPRO_UPDATE_FAULT")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


class _Process:
    def __init__(self, name: str, popen: subprocess.Popen, stderr_path: str):
        self.name = name
        self.popen = popen
        self.stderr_path = stderr_path
        self.host = ""
        self.port = 0

    def stderr_tail(self) -> str:
        try:
            with open(self.stderr_path, "r", encoding="utf-8", errors="replace") as handle:
                return handle.read()[-2000:]
        except OSError:
            return ""


class Cluster:
    """The server processes of one run, inside one scratch directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.processes: list[_Process] = []

    def start(self, name: str, *cli_args: str) -> _Process:
        """Start ``python -m repro.cli <cli_args> --port 0 --ready-file ...``."""
        ready = os.path.join(self.directory, f"{name}.ready")
        stderr_path = os.path.join(self.directory, f"{name}.stderr")
        with open(stderr_path, "wb") as stderr:
            popen = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *cli_args, "--port", "0", "--ready-file", ready],
                env=child_environment(), stdout=subprocess.DEVNULL, stderr=stderr,
                start_new_session=True,
            )
        process = _Process(name, popen, stderr_path)
        self.processes.append(process)
        deadline = time.monotonic() + READY_TIMEOUT
        while not os.path.exists(ready):
            if popen.poll() is not None:
                raise ClusterError(f"{name} exited with {popen.returncode} before it was ready:\n"
                                   + process.stderr_tail())
            if time.monotonic() > deadline:
                raise ClusterError(f"{name} was not ready within {READY_TIMEOUT}s:\n"
                                   + process.stderr_tail())
            time.sleep(0.01)
        with open(ready, "r", encoding="utf-8") as handle:
            host, port = handle.read().split()
        process.host, process.port = host, int(port)
        return process

    def serve(self, name: str, base_path: str, *options: str) -> _Process:
        return self.start(name, "serve", base_path, *options)

    def route(self, name: str, primary: _Process, replicas: list[_Process]) -> _Process:
        args = ["router", "--primary", f"{primary.host}:{primary.port}"]
        for replica in replicas:
            args += ["--replica", f"{replica.host}:{replica.port}"]
        return self.start(name, *args)

    def failure_report(self) -> str:
        return "\n".join(
            f"--- {p.name} (exit {p.popen.poll()}) stderr ---\n{p.stderr_tail()}"
            for p in self.processes
        )

    def kill(self) -> None:
        """SIGKILL every process group and reap it (the crash the checks assume)."""
        for process in self.processes:
            if process.popen.poll() is None:
                try:
                    os.killpg(process.popen.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        for process in self.processes:
            process.popen.wait(timeout=10)

    def close(self) -> None:
        self.kill()
        self.processes.clear()


def copy_base(source_base: str, target_base: str) -> None:
    """Bootstrap a replica: clone every file of one base path."""
    directory, stem = os.path.split(source_base)
    os.makedirs(os.path.dirname(target_base), exist_ok=True)
    for name in os.listdir(directory):
        if name.startswith(stem + ".") and not name.endswith(".lock"):
            shutil.copy(os.path.join(directory, name), target_base + name[len(stem):])
