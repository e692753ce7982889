"""Metamorphic relations of the whole pipeline, run through the command line.

Each test states a relation between two runs on related inputs and checks
it on `demo/` and on a small generated world; neither needs a stored output.
"""

import random
from pathlib import Path

import pytest

from markovpop.cli import main

import panelgen
from conftest import write_world_inputs

DEMO = Path(__file__).resolve().parent.parent / "demo"
# unequal workloads, so the order of a month's weighted sums shows in the bits
WORKLOADS = ("13", "21", "33", "37", "40")


def _demo(tmp_path):
    return {
        "config": DEMO / "config.yaml",
        "records": DEMO / "records.csv",
        "reserve": DEMO / "reserve.csv",
    }


def _mini_world(tmp_path):
    """The mini world's inputs, with workloads cycling over `WORKLOADS`."""
    spec = panelgen.make_mini_world()
    panel = panelgen.generate(spec, start_year=2014, n_years=3, seed=3)
    paths = write_world_inputs(spec, panel, tmp_path)
    header, *rows = paths["records"].read_text().splitlines()
    at = header.split(",").index("workload")
    for k, row in enumerate(rows):
        fields = row.split(",")
        fields[at] = WORKLOADS[k % len(WORKLOADS)]
        rows[k] = ",".join(fields)
    paths["records"].write_text("\n".join([header, *rows]) + "\n")
    return paths


def _fit(paths, records, out) -> bytes:
    rc = main([
        "fit", "--config", str(paths["config"]), "--records", str(records),
        "--reserve", str(paths["reserve"]), "--out", str(out),
    ])
    assert rc == 0
    return out.read_bytes()


@pytest.mark.parametrize("world", [_demo, _mini_world], ids=["demo", "mini-cycled-workloads"])
def test_shuffling_the_records_rows_leaves_the_model_byte_identical(world, tmp_path):
    paths = world(tmp_path)
    header, *rows = paths["records"].read_text().splitlines(keepends=True)
    random.Random(20).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(rows))
    assert _fit(paths, shuffled, tmp_path / "b.json") == _fit(
        paths, paths["records"], tmp_path / "a.json"
    )
