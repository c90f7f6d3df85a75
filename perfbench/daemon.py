"""A closed-loop stdio client for one ``repro-cla serve`` daemon."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

BOOTSTRAP = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "bootstrap.py")


class DaemonError(RuntimeError):
    pass


def reset_peak_rss(pid: int | str = "self") -> None:
    """Restart a process's peak-RSS (VmHWM) count from its current RSS."""
    with open(f"/proc/{pid}/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise DaemonError(f"no VmHWM in /proc/{pid}/status")


class Daemon:
    """One daemon process over stdin/stdout JSON lines.

    ``request`` sends one line and waits for its answer, so the client
    never has more than one request outstanding (a closed loop with one
    client over one connection)."""

    def __init__(self, serve_args: list[str], env: dict, log_path: str,
                 spans: str | None = None):
        argv = [sys.executable, BOOTSTRAP]
        if spans is not None:
            argv += ["--spans", spans]
        argv += ["serve"] + serve_args
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, env=env,
        )
        self._seq = 0
        self.hello = self._read()
        if self.hello.get("kind") != "serve.hello":
            raise DaemonError(f"unexpected greeting: {self.hello}")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise DaemonError(
                f"daemon exited (rc={self.proc.poll()}); see {self._log.name}"
            )
        return json.loads(line)

    def request(self, op: str, params: dict | None = None
                ) -> tuple[dict, float]:
        """Send one request; returns ``(response, round_trip_seconds)``."""
        self._seq += 1
        line = json.dumps({"op": op, "params": params or {},
                           "id": self._seq}).encode() + b"\n"
        start = time.perf_counter()
        self.proc.stdin.write(line)
        self.proc.stdin.flush()
        response = self._read()
        return response, time.perf_counter() - start

    def close(self, timeout: float = 30.0) -> None:
        """Shut down and wait; kill if the daemon does not stop."""
        try:
            if self.proc.poll() is None:
                self.request("shutdown")
        except (DaemonError, OSError, ValueError):
            pass
        finally:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self._log.close()
