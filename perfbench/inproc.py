"""One in-process pass of a workload, untraced or traced.

    python3 -m perfbench.inproc --workload NAME --seed N --out DIR --trace 0|1 --report FILE

Runs each command of the pass through ``markovpop.cli.main`` in this
interpreter, one after another, and writes a JSON report when the pass
ends.  With ``--trace 1`` the layer modules are wrapped first and the
report carries per-span-name totals, counters and RSS high-water marks.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

from . import inputs, layers
from .tracer import Tracer, summarize
from .workloads import WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.inproc")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--report", type=Path, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(inputs.ROOT / "src"))
    from markovpop import cli

    workload = WORKLOADS[args.workload]
    steps = workload.steps(inputs.paths(workload.world), args.seed, args.out)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        layers.install(tracer)
    invocations = []
    for step in steps:
        start = perf_counter()
        try:
            if tracer is None:
                rc = cli.main(step.argv)
            else:
                rc = tracer.call(f"cli.{step.command}", cli.main, step.argv)
        except Exception:  # report the failure and finish the pass
            traceback.print_exc()
            rc = 1
        invocations.append(
            {"command": step.command, "rc": rc, "wall_s": perf_counter() - start}
        )
    report = {"invocations": invocations}
    if tracer is not None:
        report.update(
            summary=summarize(tracer.spans),
            counters={
                **tracer.counters,
                **{f"rss_hwm_mb.{k}": v for k, v in tracer.rss_hwm_mb.items()},
            },
            installed=sorted(tracer.installed),
            absent=tracer.absent,
            spans=len(tracer.spans),
        )
    args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
