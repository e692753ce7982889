"""Run one benchmark workload for a fixed time and print its metrics.

    python3 -m perfbench.run --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` drives the real CLI in a closed loop: one fresh
single-threaded ``python -m markovpop.cli`` subprocess at a time, one
pass of the workload's commands after another, and prints the
end-to-end metrics.  ``--trace 1`` alternates an untraced and a traced
in-process pass (each in its own fresh interpreter) and prints the
per-layer metrics.  ``--seed`` seeds the Monte Carlo commands; the data
inputs come from fixed generation seeds (see ``inputs.py``).

Every run checks each command's output.  The last line of standard
output is the result object; the line before it is the full record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from . import inputs, layers
from .spawner import Spawner
from .workloads import WORKLOADS

ROOT = inputs.ROOT
END_TO_END = {"cmd_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_ratio": "ratio"}
DEADLINE_S = 170.0  # the whole run must end within 180 s
STARTED = perf_counter()


def _env(*paths) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in paths)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _git(*args):
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine() -> dict:
    import numpy

    cpu = ram = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
        with open("/proc/meminfo") as fh:
            ram = next((int(ln.split()[1]) // 1024 for ln in fh if ln.startswith("MemTotal")), None)
    except OSError:
        pass
    in_repo = _git("rev-parse", "--show-toplevel") == str(ROOT)
    commit = _git("rev-parse", "HEAD") if in_repo else None
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    dirty = None if status is None else bool(status)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ram_mb": ram,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "git_dirty": dirty,
    }


def tail_percentile(samples):
    """The highest percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 11:
        return None
    return {"pct": int(100 * (n - 10) / n), "value": sorted(samples)[n - 11]}


def _median(values):
    return statistics.median(values) if values else 0.0


class Run:
    def __init__(self, args, spawner):
        self.args = args
        self.spawner = spawner
        self.workload = WORKLOADS[args.workload]
        self.out = inputs.WORK / "runs" / f"{args.workload}-{os.getpid()}"
        self.log = self.out / "children.log"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, argv, env):
        remaining = DEADLINE_S - (perf_counter() - STARTED)
        return self.spawner.run(argv, env, self.log, remaining)

    def steps(self):
        return self.workload.steps(inputs.paths(self.workload.world), self.args.seed, self.out)

    def _checked(self, results):
        """Count each invocation; check the output of those that exited 0."""
        for step, rc in results:
            self.attempted += 1
            if rc != 0:
                problems = [f"{step.command}: exit code {rc}"]
            else:
                try:
                    problems = step.check()
                except Exception as exc:  # malformed output fails the check
                    problems = [f"{step.command}: output check raised {exc!r}"]
            if problems:
                self.failed += 1
                self.problems.extend(problems)

    def import_once(self, env):
        """Wall seconds for a fresh interpreter to finish ``import markovpop.cli``."""
        rc, wall, _rss = self.spawn([sys.executable, "-c", "import markovpop.cli"], env)
        if rc != 0:
            raise RuntimeError(f"import markovpop.cli failed; see {self.log}")
        return wall

    def _pass_until(self, deadline, one_pass):
        """Run passes while the next one is expected to end at most half a pass late."""
        durations = []
        while True:
            start = perf_counter()
            one_pass()
            durations.append(perf_counter() - start)
            if perf_counter() + 0.5 * _median(durations) > deadline:
                return

    def end_to_end(self, seconds):
        env = _env(ROOT / "src")
        passes, per_command, setup = [], {}, []
        self.import_once(env)  # writes bytecode caches, untimed

        def one_pass():
            walls, rss, results = [], [], []
            for step in self.steps():
                # set-up samples are spread over the run like the commands
                setup.append(self.import_once(env))
                rc, wall, maxrss = self.spawn([sys.executable, "-m", "markovpop.cli", *step.argv], env)
                walls.append(wall)
                rss.append(maxrss)
                results.append((step, rc))
                per_command.setdefault(step.command, []).append((wall, maxrss))
            self._checked(results)
            passes.append((sum(walls), max(rss)))

        self._pass_until(perf_counter() + seconds, one_pass)
        cmd_s = [p[0] for p in passes]
        metrics = {
            "cmd_s": _median(cmd_s),
            "peak_rss_mb": _median([p[1] for p in passes]),
            "setup_s": _median(setup),
        }
        detail = {
            "setup_s_samples": setup,
            "passes": len(passes),
            "cmd_s_samples": cmd_s,
            "cmd_s_tail": tail_percentile(cmd_s),
            "peak_rss_mb_samples": [p[1] for p in passes],
            "per_command": {
                cmd: {
                    "n": len(v),
                    "median_s": _median([w for w, _ in v]),
                    "tail_s": tail_percentile([w for w, _ in v]),
                    "peak_rss_mb": max(r for _, r in v),
                }
                for cmd, v in per_command.items()
            },
        }
        return metrics, detail

    def _inproc(self, trace, env):
        report = self.out / f"inproc-{trace}.json"
        report.unlink(missing_ok=True)
        argv = [
            sys.executable, "-m", "perfbench.inproc", "--workload", self.args.workload,
            "--seed", str(self.args.seed), "--out", str(self.out), "--trace", str(trace),
            "--report", str(report),
        ]
        rc, _wall, _rss = self.spawn(argv, env)
        steps = self.steps()
        if rc != 0 or not report.exists():
            self.attempted += len(steps)
            self.failed += len(steps)
            self.problems.append(f"in-process pass (trace {trace}) exited {rc}")
            return None
        doc = json.loads(report.read_text())
        self._checked(zip(steps, [inv["rc"] for inv in doc["invocations"]]))
        doc["wall_s"] = sum(inv["wall_s"] for inv in doc["invocations"])
        return doc

    def traced(self, seconds):
        env = _env(ROOT / "src", ROOT)
        samples, absent = [], set()

        def one_pass():
            plain = self._inproc(0, env)
            traced = self._inproc(1, env)
            if plain is None or traced is None:
                return
            values, missing = layers.metrics(traced["summary"], traced["counters"], set(traced["installed"]))
            absent.update(missing, traced["absent"])
            self_sum = sum(row["self_s"] for row in traced["summary"].values())
            if abs(self_sum - traced["wall_s"]) > 1e-3 + 1e-6 * traced["spans"]:
                self.problems.append(
                    f"trace: self times add to {self_sum:.4f} s, traced pass took {traced['wall_s']:.4f} s"
                )
            values.update({
                "trace.untraced_s": plain["wall_s"],
                "trace.traced_s": traced["wall_s"],
                "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
                "trace.self_sum_s": self_sum,
                "trace.spans": float(traced["spans"]),
            })
            samples.append(values)

        self._pass_until(perf_counter() + seconds, one_pass)
        names = [name for name, *_ in layers.PER_LAYER] + [n for n, _ in layers.TRACE_METRICS]
        metrics = {name: _median([s[name] for s in samples]) for name in names} if samples else {}
        return metrics, {"pairs": len(samples), "absent": sorted(absent)}


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench.run", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [ROOT / "src" / "markovpop" / "cli.py", ROOT / "tests" / "panelgen.py",
              inputs.INSTITUTION_CONFIG]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: not a markovpop checkout, missing {missing}", file=sys.stderr)
        return 2
    spawner = Spawner(ROOT)  # before this process grows; see spawner.py
    sys.path.insert(0, str(ROOT / "src"))
    run = Run(args, spawner)
    shutil.rmtree(run.out, ignore_errors=True)
    run.out.mkdir(parents=True)
    try:
        load_before = os.getloadavg()
        facts = machine()
        start = perf_counter()
        digests, mismatched = inputs.prepare(run.workload.world)
        prepare_s = perf_counter() - start
        if mismatched:
            run.problems.append(f"inputs differ from perfbench/digests.json: {mismatched}")
        if args.trace:
            metrics, detail = run.traced(args.seconds)
        else:
            metrics, detail = run.end_to_end(args.seconds)
            metrics["ok_ratio"] = (run.attempted - run.failed) / max(run.attempted, 1)
    finally:
        spawner.close()
        shutil.rmtree(run.out, ignore_errors=True)
    correct = run.failed == 0 and not run.problems and run.attempted > 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "load_avg": {"before": load_before, "after": os.getloadavg()},
        "inputs": {"digests": digests, "mismatched": mismatched, "prepare_s": prepare_s},
        "failed_ratio": run.failed / max(run.attempted, 1),
        "problems": run.problems[:20],
        **detail,
        "metrics": {
            k: {"value": v, "unit": (END_TO_END | layers.UNITS)[k]} for k, v in metrics.items()
        },
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
