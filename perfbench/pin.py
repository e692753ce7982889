"""Regenerate the benchmark's pinned digests and project reference.

    python3 -m perfbench.pin

Run this only in a change that means to alter the benchmark's inputs:
it rewrites ``perfbench/digests.json`` from freshly generated inputs and
``perfbench/reference/project-institution.json`` from a project run of
the current code.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from . import inputs
from .workloads import REFERENCE, WORKLOADS, data_rows


def main() -> int:
    sys.path.insert(0, str(inputs.ROOT / "src"))
    from markovpop import cli

    pinned = {}
    for world in inputs.WORLDS:
        inputs.generate(world)
        pinned[world] = inputs.digests(world)
    inputs.DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")

    workload = WORKLOADS["project-institution"]
    with tempfile.TemporaryDirectory(dir=inputs.WORK) as tmp:
        (step,) = workload.steps(inputs.paths(workload.world), 0, Path(tmp))
        if cli.main(step.argv) != 0:
            return 1
        totals: dict = {}
        for r in data_rows(Path(tmp) / "project.csv"):
            if r["characteristic_tuple"] == "*":
                cats = totals.setdefault(r["year"], {})
                cats[r["category"]] = cats.get(r["category"], 0.0) + float(r["expected_count"])
    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / "project-institution.json").write_text(json.dumps(totals, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
