"""Shared fixtures: toy spaces, randomized models, a generated CLI world."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from markovpop.config import build_run_config
from markovpop.model import FittedModel
from markovpop.states import CharacteristicSpace, StateSpaceConfig

import panelgen

SRC = Path(__file__).resolve().parent.parent / "src"


def make_toy_space() -> StateSpaceConfig:
    """3 categories (one out-of-system), 4 ages, 3 seniorities."""
    return StateSpaceConfig(
        categories=("out", "X", "Y"),
        age_min=0,
        age_max=4,
        age_groups=((0, 2), (2, 4)),
        seniority_max=3,
        seniority_groups=((0, 2), (2, 3)),
        working_age_min=0,
    )


def make_wide_space() -> StateSpaceConfig:
    """12 categories, 90 ages, 60 seniorities in 2 x 2 cells: a 2.1 MB model file."""
    return StateSpaceConfig(
        categories=("out", *(f"c{k}" for k in range(1, 12))),
        age_min=0,
        age_max=90,
        age_groups=((0, 45), (45, 90)),
        seniority_max=60,
        seniority_groups=((0, 30), (30, 60)),
        working_age_min=0,
    )


def finance_of(section: dict, chars: CharacteristicSpace):
    """The parsed `finance` of a config holding `section` there and declaring `chars`."""
    entries = [{"name": n, "levels": list(lv)} for n, lv in zip(chars.names, chars.levels)]
    raw = {
        "categories": ["out", "X"], "age_min": 0, "age_max": 1, "age_groups": [[0, 1]],
        "seniority_max": 1, "seniority_groups": [[0, 1]], "working_age_min": 0,
        "characteristics": entries, "finance": section,
    }
    return build_run_config(raw).finance


def make_random_model(
    space: StateSpaceConfig,
    chars: CharacteristicSpace | None = None,
    seed: int = 0,
    i0: float = 1000.0,
    base_year: int = 2016,
    with_r: bool = False,
) -> FittedModel:
    """Fitted-model shaped object with random but valid probabilities."""
    rng = np.random.Generator(np.random.Philox(seed))
    chars = chars if chars is not None else CharacteristicSpace((), ())
    nc = space.n_categories
    n_in = nc - 1

    def stochastic(shape):
        m = rng.random(shape) + 0.05
        return m / m.sum(axis=-1, keepdims=True)

    monthly, annual, entry, q1 = {}, {}, {}, {}
    codes = len(chars.tuples())
    r = np.zeros((nc, space.n_age_groups, space.n_seniority_groups, codes))
    for cell in space.cells():
        monthly[cell] = stochastic((n_in, n_in))
        annual[cell] = stochastic((n_in, n_in))
        entry[cell] = stochastic((n_in,))
        q1[cell] = rng.uniform(0.1, 0.9, size=nc)
        if with_r and chars.names:
            for c in range(1, nc):
                r[(c, *cell)][1:] = stochastic((codes - 1,))
    pi = rng.random((nc, space.n_ages, space.seniority_max))
    pi /= pi.sum()
    return FittedModel(
        space=space,
        characteristics=chars,
        i0=i0,
        base_year=base_year,
        full_time_hours=40.0,
        stopping_time_pmf=tuple([1.0 / 12.0] * 12),
        stopping_time_overrides={},
        pi=pi,
        monthly=monthly,
        annual=annual,
        entry=entry,
        q1=q1,
        r=r,
        diagnostics={},
    )


def write_world_inputs(spec, panel, base, scale=None):
    """Write the CSV/YAML inputs a CLI run needs; returns their paths."""
    paths = {
        "config": base / "config.yaml",
        "records": base / "records.csv",
        "reserve": base / "reserve.csv",
    }
    with open(paths["config"], "w") as fh:
        yaml.safe_dump(spec.config, fh)
    panel.write_records_csv(paths["records"])
    panel.write_reserve_csv(paths["reserve"])
    if scale is not None:
        paths["scale"] = base / "scale.csv"
        panelgen.write_salary_scale_csv(paths["scale"], scale)
    return paths


def run_python(*args, env=None, **kwargs):
    """`python *args` in a subprocess that imports markovpop from `src/`, through subprocess.run.

    `env` holds variables set on top of this process's environment; the
    CLI is `run_python("-m", "markovpop.cli", *argv)`.
    """
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, **(env or {}), "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def demo_inputs(base):
    """The input files of `demo/` by role, as :func:`write_world_inputs` returns them.

    `base` is not used: it is there so that `demo/` takes a world's arguments.
    """
    demo = SRC.parent / "demo"
    return {"config": demo / "config.yaml", "records": demo / "records.csv",
            "reserve": demo / "reserve.csv", "scale": demo / "salary_scale.csv"}


def read_dump(path):
    """The header and the draws of a `simulate --dump-draws` file in layout version 2.

    Returns the five header fields and {year: (iterations, labels) array}.
    """
    raw = Path(path).read_bytes()
    header = np.frombuffer(raw, "<u8", 5).tolist()
    n_years, iterations, labels = header[2:]
    size = 8 + 4 * iterations * labels  # a year: its marker, then its draws label by label
    assert len(raw) == 40 + n_years * size, (len(raw), header)
    draws = {}
    for start in range(40, len(raw), size):
        year = int(np.frombuffer(raw, "<u8", 1, start)[0])
        draws[year] = np.frombuffer(raw, "<i4", labels * iterations, start + 8).reshape(
            labels, iterations).T
    return header, draws


# unequal workloads, so the order of a month's weighted sums shows in the bits
CYCLED_WORKLOADS = ("13", "21", "33", "37", "40")


def cycle_workloads(records, out):
    """Write the records CSV `records` to `out` with workloads cycling over `CYCLED_WORKLOADS`."""
    header, *rows = Path(records).read_text().splitlines()
    at = header.split(",").index("workload")
    for k, row in enumerate(rows):
        fields = row.split(",")
        fields[at] = CYCLED_WORKLOADS[k % len(CYCLED_WORKLOADS)]
        rows[k] = ",".join(fields)
    Path(out).write_text("\n".join([header, *rows]) + "\n")


def write_cycled_mini_world(base):
    """The mini world's inputs and salary scale, with workloads cycling in file order.

    The panel runs from 2014 for 3 years (seed 3); workloads cycle over
    `CYCLED_WORKLOADS`.
    """
    spec = panelgen.make_mini_world()
    panel = panelgen.generate(spec, start_year=2014, n_years=3, seed=3)
    paths = write_world_inputs(spec, panel, base, scale=panelgen.MINI_SALARY_SCALE)
    cycle_workloads(paths["records"], paths["records"])
    return paths


def write_cycled_demo(base):
    """The inputs of `demo/` by role, with the records' workloads cycling in file order."""
    paths = demo_inputs(base)
    cycle_workloads(paths["records"], base / "records.csv")
    return {**paths, "records": base / "records.csv"}


@pytest.fixture(scope="session")
def mini_pipeline(tmp_path_factory):
    """Generated mini world with its inputs written and the model fitted."""
    from markovpop.cli import main

    base = tmp_path_factory.mktemp("mini")
    spec = panelgen.make_mini_world()
    panel = panelgen.generate(spec, start_year=2014, n_years=3, seed=3)
    paths = write_world_inputs(spec, panel, base, scale=panelgen.MINI_SALARY_SCALE)
    paths["model"] = base / "model.json"
    rc = main([
        "fit",
        "--config", str(paths["config"]),
        "--records", str(paths["records"]),
        "--reserve", str(paths["reserve"]),
        "--out", str(paths["model"]),
    ])
    assert rc == 0
    paths["base"] = base
    return paths
