"""Child-process launcher that stays small.

On Linux a process's peak RSS survives ``fork`` and ``exec``: a child's
``ru_maxrss`` is never below the RSS of the process that started it.
The harness loads and checks large outputs, so it starts every measured
child through this separate small process instead.  The launcher reads
one JSON request per line on stdin and answers each with the child's
exit code, wall seconds and peak RSS in MB, read with ``os.wait4``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def serve(requests, replies) -> None:
    for line in requests:
        req = json.loads(line)
        with open(req["log"], "ab") as log:
            start = perf_counter()
            proc = subprocess.Popen(
                req["argv"], cwd=req["cwd"], env=req["env"],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            )
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        replies.write(json.dumps([proc.returncode, wall, usage.ru_maxrss / 1024.0]) + "\n")
        replies.flush()


class Spawner:
    """Client side: start the launcher, send it commands, stop it."""

    def __init__(self, cwd):
        self.cwd = str(cwd)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.spawner"], cwd=cwd,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, env, log, timeout) -> tuple[int, float, float]:
        """Run a child to completion: (exit code, wall seconds, peak RSS in MB)."""
        req = {"argv": [str(a) for a in argv], "env": env, "cwd": self.cwd,
               "log": str(log), "timeout": max(timeout, 1.0)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("perfbench.spawner exited")
        rc, wall, rss = json.loads(reply)
        return rc, wall, rss

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
