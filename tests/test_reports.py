"""Label-level reports: the bulk writers reproduce the row-by-row ones byte for byte."""

import dataclasses
import pathlib

import numpy as np
import pytest

from markovpop.cli import main
from markovpop.model import FittedModel
from markovpop.montecarlo import simulate_projection
from markovpop.project import projection
from markovpop.reports import RunManifest, write_projection_csv, write_simulation_csv
from markovpop.states import CharacteristicSpace, StateSpaceConfig

from conftest import make_random_model
from reference import write_projection_csv_by_row, write_simulation_csv_by_row

DEMO = pathlib.Path(__file__).resolve().parent.parent / "demo"


def _demo_model(tmp_path):
    path = tmp_path / "model.json"
    rc = main([
        "fit", "--config", str(DEMO / "config.yaml"),
        "--records", str(DEMO / "records.csv"), "--reserve", str(DEMO / "reserve.csv"),
        "--out", str(path),
    ])
    assert rc == 0
    return FittedModel.load(path)


def _quoted_model():
    """Codes and levels csv.writer must quote, with empty cells and near-empty labels.

    Initial mass lies only at ages < 3 and seniorities < 2, so the oldest
    age group and the upper seniority group start empty; one in-system
    cell is unsplit, and one tuple of another takes a 1e-12 share, so no
    draw ever lands on it.
    """
    space = StateSpaceConfig(
        categories=("out", "A,1", 'B"q', " C", "Dé"),
        age_min=0,
        age_max=8,
        age_groups=((0, 2), (2, 5), (5, 8)),
        seniority_max=4,
        seniority_groups=((0, 2), (2, 4)),
        working_age_min=1,
    )
    chars = CharacteristicSpace(
        names=("band", "grade"), levels=(("x,y", '"q"'), (" lead", "ñ", "plain"))
    )
    model = make_random_model(space, chars, seed=4, with_r=True)
    pi = model.pi.copy()
    pi[:, 3:, :] = 0.0
    pi[:, :, 2:] = 0.0
    r = model.r.copy()
    r[2, 0, 0] = 0.0
    r[1, 1, 0, 3] = 1e-12
    r[1, 1, 0] /= r[1, 1, 0].sum()
    return dataclasses.replace(model, pi=pi / pi.sum(), r=r)


@pytest.mark.parametrize("which", ["demo", "quoted"])
def test_bulk_writers_match_the_row_by_row_writers(tmp_path, which):
    model = _demo_model(tmp_path) if which == "demo" else _quoted_model()
    labels, tables = projection(model, 4, "absorb")
    probs = {model.base_year + t.year: t.probs for t in tables[1:]}
    result = simulate_projection(probs, model.i0, 50, seed=3)
    manifest = RunManifest.collect("test", {}, {"years": 4})
    if which == "quoted":
        # both skip rules have something to skip
        assert (tables[0].p == 0.0).any()
        tiny = labels.cell_id[(labels.weight > 0.0) & (labels.weight < 1e-9)]
        assert tiny.size and (tables[1].p.ravel()[tiny] > 0.0).all()
        assert not result.years[model.base_year + 1].draws[:, labels.weight < 1e-9].any()

    for new, old, data in (
        (write_projection_csv, write_projection_csv_by_row, tables),
        (write_simulation_csv, write_simulation_csv_by_row, result),
    ):
        new(tmp_path / "new.csv", manifest, model, labels, data)
        old(tmp_path / "old.csv", manifest, model, labels, data)
        expected = (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_bytes() == expected
        if which == "quoted":
            assert b'"A,1"' in expected and b'"B""q"' in expected
            assert b'"x,y/ lead"' in expected and 'Dé'.encode() in expected
