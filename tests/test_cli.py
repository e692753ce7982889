"""End-to-end command-line runs on a small generated world."""

import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import yaml

from markovpop.cli import main
from markovpop.config import load_run_config
from markovpop.model import FittedModel

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def read_report(path):
    comments, rows = [], []
    with open(path, newline="") as fh:
        data_lines = []
        for line in fh:
            (comments if line.startswith("#") else data_lines).append(line)
    reader = csv.DictReader(data_lines)
    rows = list(reader)
    return comments, reader.fieldnames, rows


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "markovpop" in capsys.readouterr().out


def test_no_command_shows_help(capsys):
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().err


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_flags_reported(capsys):
    assert main(["fit"]) == 1
    err = capsys.readouterr().err
    assert "missing required flag(s)" in err
    assert "--config" in err and "--out" in err


def test_non_integer_years(capsys, mini_pipeline):
    rc = main([
        "project", "--config", str(mini_pipeline["config"]),
        "--model", str(mini_pipeline["model"]), "--years", "soon", "--out", "x.csv",
    ])
    assert rc == 1
    assert "invalid int value" in capsys.readouterr().err


def test_negative_years(capsys, mini_pipeline):
    rc = main([
        "project", "--config", str(mini_pipeline["config"]),
        "--model", str(mini_pipeline["model"]), "--years", "-1",
        "--out", str(mini_pipeline["base"] / "neg.csv"),
    ])
    assert rc == 1
    rc = main([
        "simulate", "--config", str(mini_pipeline["config"]),
        "--model", str(mini_pipeline["model"]), "--years", "0",
        "--out", str(mini_pipeline["base"] / "neg.csv"),
    ])
    assert rc == 1


def test_missing_records_file_is_a_data_error(capsys, mini_pipeline):
    rc = main([
        "fit", "--config", str(mini_pipeline["config"]),
        "--records", "/nonexistent/records.csv",
        "--reserve", str(mini_pipeline["reserve"]),
        "--out", str(mini_pipeline["base"] / "m2.json"),
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_fit_wrote_a_loadable_model(mini_pipeline):
    model = FittedModel.load(mini_pipeline["model"])
    cfg = load_run_config(mini_pipeline["config"])
    model.check_against(cfg.space, cfg.characteristics)
    assert model.base_year == 2016
    assert model.i0 == pytest.approx(150.0)
    assert abs(model.pi.sum() - 1.0) < 1e-9


def test_project_report(mini_pipeline):
    out = mini_pipeline["base"] / "proj.csv"
    rc = main([
        "project", "--config", str(mini_pipeline["config"]),
        "--model", str(mini_pipeline["model"]), "--years", "2", "--out", str(out),
    ])
    assert rc == 0
    comments, header, rows = read_report(out)
    assert comments[0].strip() == "# markovpop-report"
    assert any(c.startswith("# command: project") for c in comments)
    assert any("sha256=" in c for c in comments)
    assert header == [
        "year", "category", "age_group", "seniority_group",
        "characteristic_tuple", "probability", "expected_count",
    ]
    years = sorted({int(r["year"]) for r in rows})
    assert years == [2016, 2017, 2018]
    for year in years:
        total = sum(
            float(r["expected_count"])
            for r in rows
            if int(r["year"]) == year and r["characteristic_tuple"] == "*"
        )
        assert total == pytest.approx(150.0, abs=1e-6)
    # tuple rows of one cell sum to the cell aggregate
    cell_rows = [
        r for r in rows
        if int(r["year"]) == 2017 and r["category"] == "A"
        and r["age_group"] == "18..21" and r["seniority_group"] == "0..4"
    ]
    star = [r for r in cell_rows if r["characteristic_tuple"] == "*"]
    parts = [r for r in cell_rows if r["characteristic_tuple"] != "*"]
    assert star and parts
    assert sum(float(r["probability"]) for r in parts) == pytest.approx(
        float(star[0]["probability"]), abs=1e-12
    )


def test_simulate_report_and_draw_dump(mini_pipeline):
    out = mini_pipeline["base"] / "sim.csv"
    dump = mini_pipeline["base"] / "sim-draws.bin"
    rc = main([
        "simulate", "--config", str(mini_pipeline["config"]),
        "--model", str(mini_pipeline["model"]), "--years", "1",
        "--iterations", "40", "--seed", "7",
        "--out", str(out), "--dump-draws", str(dump),
    ])
    assert rc == 0
    comments, header, rows = read_report(out)
    assert any(c.startswith("# command: simulate") for c in comments)
    assert any(c.strip() == "# seed: 7" for c in comments)
    assert not any(c.startswith("# workers") for c in comments)
    assert header[:5] == ["year", "category", "age_group", "seniority_group",
                          "characteristic_tuple"]
    assert {int(r["year"]) for r in rows} == {2017}

    raw = dump.read_bytes()
    head = np.frombuffer(raw[:40], dtype="<u8").tolist()
    assert head[0] == 0x4D504F50 and head[1] == 1
    n_years, iters, cells = head[2:]
    assert (n_years, iters) == (1, 40)
    year = np.frombuffer(raw[40:48], dtype="<u8")[0]
    assert year == 2017
    draws = np.frombuffer(raw[48:], dtype="<i8").reshape(40, cells)
    assert np.all(draws.sum(axis=1) == 150)


def test_simulate_same_seed_same_bytes(mini_pipeline):
    outs = []
    for name in ("rep1.csv", "rep2.csv"):
        out = mini_pipeline["base"] / name
        rc = main([
            "simulate", "--config", str(mini_pipeline["config"]),
            "--model", str(mini_pipeline["model"]), "--years", "1",
            "--iterations", "20", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cost_report(mini_pipeline):
    out = mini_pipeline["base"] / "cost.csv"
    rc = main([
        "cost-report", "--config", str(mini_pipeline["config"]),
        "--model", str(mini_pipeline["model"]),
        "--salary-scale", str(mini_pipeline["scale"]),
        "--years", "2", "--iterations", "30", "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    _comments, header, rows = read_report(out)
    assert header == [
        "year", "category", "age_group", "seniority_group",
        "expected_cost", "sim_mean_cost", "sim_p05", "sim_p95",
    ]
    for year in (2017, 2018):
        year_rows = [r for r in rows if int(r["year"]) == year]
        star = [r for r in year_rows if r["category"] == "*"]
        cells = [r for r in year_rows if r["category"] != "*"]
        assert len(star) == 1 and cells
        cell_sum = sum(int(r["expected_cost"]) for r in cells)
        assert int(star[0]["expected_cost"]) == pytest.approx(
            cell_sum, abs=len(cells)  # per-cell rounding to whole units
        )
        assert all(int(r["sim_p05"]) <= int(r["sim_p95"]) for r in year_rows)


def test_cost_report_needs_finance_section(capsys, mini_pipeline, tmp_path):
    raw = yaml.safe_load(open(mini_pipeline["config"]))
    del raw["finance"]
    bare = tmp_path / "nofinance.yaml"
    with open(bare, "w") as fh:
        yaml.safe_dump(raw, fh)
    rc = main([
        "cost-report", "--config", str(bare),
        "--model", str(mini_pipeline["model"]),
        "--salary-scale", str(mini_pipeline["scale"]),
        "--years", "1", "--out", str(tmp_path / "c.csv"),
    ])
    assert rc == 1
    assert "finance" in capsys.readouterr().err


def test_model_config_mismatch(capsys, mini_pipeline, tmp_path):
    raw = yaml.safe_load(open(mini_pipeline["config"]))
    raw["categories"] = ["out", "A", "C"]
    other = tmp_path / "renamed.yaml"
    with open(other, "w") as fh:
        yaml.safe_dump(raw, fh)
    rc = main([
        "project", "--config", str(other),
        "--model", str(mini_pipeline["model"]), "--years", "1",
        "--out", str(tmp_path / "p.csv"),
    ])
    assert rc == 1
    assert "model/config mismatch" in capsys.readouterr().err


def _malformed_model(paths, tmp_path):
    doc = json.loads(paths["model"].read_text())
    del doc["annual"]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    return {"model": bad}


def _config_with(edit):
    def make(paths, tmp_path):
        raw = yaml.safe_load(open(paths["config"]))
        edit(raw)
        bad = tmp_path / "config.yaml"
        with open(bad, "w") as fh:
            yaml.safe_dump(raw, fh)
        return {"config": bad}

    return make


def _set(path, value):
    def edit(raw):
        *parents, key = path
        for p in parents:
            raw = raw[p]
        raw[key] = value

    return edit


@pytest.mark.parametrize(
    "damage, code, message",
    [
        (_malformed_model, 2, "missing field 'annual'"),
        (_config_with(_set(["stopping_time_pmf_overrides"], [1])), 1,
         "stopping_time_pmf_overrides must map"),
        (_config_with(_set(["finance", "bindings", "annuity_pct", "levels"], [0.0, 0.12])), 1,
         "levels must map level names"),
        (_config_with(_set(["reserve_age_group"], 5)), 1, "reserve_age_group 5"),
        (_config_with(_set(["finance", "full_time_hours"], "x")), 1,
         "top-level full_time_hours"),
    ],
    ids=["model-missing-annual", "overrides-list", "levels-list", "reserve-marker-int",
         "finance-full-time-hours"],
)
def test_malformed_inputs_are_classified(mini_pipeline, tmp_path, damage, code, message):
    paths = {**mini_pipeline, **damage(mini_pipeline, tmp_path)}
    argv = [
        "cost-report", "--config", str(paths["config"]), "--model", str(paths["model"]),
        "--salary-scale", str(paths["scale"]), "--years", "1", "--iterations", "5",
        "--out", str(tmp_path / "cost.csv"),
    ]
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "markovpop.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
