"""End-to-end command-line runs on a small generated world."""

import csv
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _model_with(edit):
    def make(paths, tmp_path):
        doc = json.loads(paths["model"].read_text())
        edit(doc)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        return {"model": bad}

    return make


def _model_text(pattern, replacement):
    """Copy of the model JSON with `pattern` substituted in its text.

    For tokens json.dumps never writes, such as the out-of-range 1e400.
    """

    def make(paths, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text(re.sub(pattern, replacement, paths["model"].read_text()))
        return {"model": bad}

    return make


def _csv_with(role, row, column, value):
    """Copy of an input CSV with one field of line `row` set to `value`.

    Column None appends `value` as a field beyond the header.
    """

    def make(paths, tmp_path):
        lines = paths[role].read_text().splitlines()
        fields = lines[row].split(",")
        if column is None:
            fields.append(value)
        else:
            fields[column] = value
        lines[row] = ",".join(fields)
        bad = tmp_path / paths[role].name
        bad.write_text("\n".join(lines) + "\n")
        return {role: bad}

    return make


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


def _binary(role):
    """The input named by `role` replaced by bytes that are not UTF-8 text."""

    def make(paths, tmp_path):
        bad = tmp_path / "binary"
        bad.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)) * 12)
        return {role: bad}

    return make


def _directory(role):
    """A directory given where the input file named by `role` belongs."""
    return lambda paths, tmp_path: {role: tmp_path}


def _unwritable(role):
    """An output path inside a directory that does not exist."""
    return lambda paths, tmp_path: {role: tmp_path / "missing" / "output"}


def _argv(command, paths, out):
    """Command line of one CLI command on the input files in `paths`."""
    argv = [command, "--config", str(paths["config"]), "--out", str(paths.get("out", out))]
    if command in ("fit", "backtest"):
        argv += ["--records", str(paths["records"]), "--reserve", str(paths["reserve"])]
    else:
        argv += ["--model", str(paths["model"]), "--years", "1"]
    if command not in ("fit", "project"):
        argv += ["--iterations", "5"]
    if command in ("cost-report", "backtest"):
        argv += ["--salary-scale", str(paths["scale"])]
    if command == "backtest":
        argv += ["--split-year", "2016"]
    if "dump_draws" in paths:
        argv += ["--dump-draws", str(paths["dump_draws"])]
    return argv


NAN = float("nan")


@pytest.mark.parametrize(
    "damage, command, code, message",
    [
        (_model_with(lambda doc: doc.pop("annual")), "cost-report", 2,
         "missing field 'annual'"),
        (_config_with(_set(["stopping_time_pmf_overrides"], [1])), "cost-report", 1,
         "stopping_time_pmf_overrides must map"),
        (_config_with(_set(["finance", "bindings", "annuity_pct", "levels"], [0.0, 0.12])),
         "cost-report", 1, "levels must map level names"),
        (_config_with(_set(["reserve_age_group"], 5)), "cost-report", 1, "reserve_age_group 5"),
        (_config_with(_set(["finance", "full_time_hours"], "x")), "cost-report", 1,
         "top-level full_time_hours"),
        # non-finite numbers, one per input boundary
        (_csv_with("reserve", 3, 1, "nan"), "fit", 2, "row 3: non-numeric entry"),
        (_csv_with("records", 1, 5, "nan"), "fit", 2, "row 1: non-numeric workload 'nan'"),
        (_csv_with("scale", 1, 1, "nan"), "cost-report", 2,
         "row 1: non-numeric base_salary 'nan'"),
        (_csv_with("scale", 1, 1, "inf"), "cost-report", 2,
         "row 1: non-numeric base_salary 'inf'"),
        (_config_with(_set(["finance", "inflation"], NAN)), "cost-report", 1,
         "finance.inflation must be a number (got nan)"),
        (_config_with(_set(["finance", "bindings", "annuity_pct", "levels", "b1"], NAN)),
         "cost-report", 1, "finance.bindings.annuity_pct: level 'b1' must be a finite number"),
        (_config_with(_set(["full_time_hours"], NAN)), "fit", 1,
         "full_time_hours must be a positive number (got nan)"),
        (_config_with(_set(["stopping_time_pmf"], [NAN] + [1 / 11] * 11)), "fit", 1,
         "stopping_time_pmf: entry 1 must be a non-negative number"),
        (_model_with(_set(["q1", "1,0", 1], NAN)), "project", 2,
         "model file: non-finite number NaN"),
        # a row with more fields than the header
        (_csv_with("records", 7, None, "junk"), "fit", 2, "row 7: 1 field(s) beyond the header"),
        # DictReader keeps the last of two same-named columns
        (_csv_with("reserve", 0, None, "total"), "fit", 2, "repeated columns: total"),
        # pi triplets outside the space would wrap around into other states
        (_model_with(_set(["pi", 0, 0], -1)), "project", 2, "does not index the state space"),
        (_model_with(_set(["pi", 0, 1], 15)), "project", 2, "does not index the state space"),
        # finite inputs whose costs or counts leave the number range
        (_csv_with("scale", 1, 1, "1e308"), "cost-report", 2,
         "employer costs for year 2017 are not finite"),
        (_csv_with("scale", 1, 1, "1e306"), "cost-report", 2,
         "error: costs for year 2017 are not finite"),
        (_config_with(_set(["finance", "inflation"], 1.0e308)), "cost-report", 2,
         "employer costs for year 2017 are not finite"),
        (_config_with(_set(["finance", "inflation"], -2)), "cost-report", 1,
         "finance.inflation must be greater than -1 (got -2)"),
        (_csv_with("reserve", 1, 1, "1e19"), "backtest", 2,
         "population size 1e+19 is too large to simulate"),
        (_csv_with("reserve", 1, 1, "1e308"), "fit", 2, "census totals too large"),
        (_model_text(r'"i0": [^,}]+', '"i0": 1e400'), "project", 2,
         "i0 must be a finite number >= 0 (got inf)"),
        (_model_with(_set(["i0"], -5.0)), "project", 2,
         "i0 must be a finite number >= 0 (got -5.0)"),
        # inputs that are not readable text, and outputs that cannot be written
        (_binary("config"), "fit", 1, "cannot be read: 'utf-8' codec can't decode"),
        (_binary("records"), "fit", 2, "cannot be read: 'utf-8' codec can't decode"),
        (_binary("model"), "project", 2, "cannot be read: 'utf-8' codec can't decode"),
        (_directory("config"), "fit", 1, "cannot be read: [Errno 21] Is a directory"),
        (_directory("records"), "fit", 2, "cannot be read: [Errno 21] Is a directory"),
        (_unwritable("out"), "fit", 1, "error: [Errno 2] No such file or directory"),
        (_unwritable("out"), "project", 1, "error: [Errno 2] No such file or directory"),
        (_unwritable("dump_draws"), "simulate", 1,
         "error: [Errno 2] No such file or directory"),
    ],
    ids=["model-missing-annual", "overrides-list", "levels-list", "reserve-marker-int",
         "finance-full-time-hours", "reserve-nan", "workload-nan", "salary-nan",
         "salary-inf", "inflation-nan", "binding-level-nan", "full-time-hours-nan",
         "pmf-nan", "model-nan", "records-extra-field", "reserve-repeated-column",
         "pi-category-negative",
         "pi-age-below-range", "salary-huge", "cost-sum-huge", "inflation-huge",
         "inflation-below-minus-one", "reserve-beyond-int64", "reserve-sum-huge",
         "model-i0-huge", "model-i0-negative", "config-binary", "records-binary",
         "model-binary", "config-directory", "records-directory", "fit-out-unwritable",
         "project-out-unwritable", "dump-draws-unwritable"],
)
def test_malformed_inputs_are_classified(
    mini_pipeline, tmp_path, damage, command, code, message
):
    paths = {**mini_pipeline, **damage(mini_pipeline, tmp_path)}
    argv = _argv(command, paths, tmp_path / "out")
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "markovpop.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert message in proc.stderr


def test_zero_iterations_is_rejected_not_replaced(capsys, mini_pipeline, tmp_path):
    # only an absent --iterations falls back to the config value
    argv = _argv("simulate", mini_pipeline, tmp_path / "out")
    argv[argv.index("--iterations") + 1] = "0"
    assert main(argv) == 1
    assert "iterations must be >= 1 (got 0)" in capsys.readouterr().err


# what a fuzzed config or model entry may become, and a fuzzed CSV field
FUZZ_VALUES = [NAN, float("inf"), -float("inf"), 1.0e308, 1e19, "", [], [0.5], {}, "x", -1, 0,
               None]
FUZZ_FIELDS = ["nan", "inf", "-inf", "1e308", "1e19", "", "x", "-1", "0"]
# the commands that read each input
FUZZ_COMMANDS = {
    "config": ["fit", "cost-report", "backtest"],
    "model": ["project", "simulate", "cost-report"],
    "records": ["fit", "backtest"],
    "reserve": ["fit"],
    "scale": ["cost-report"],
}


def _entries(doc, path=()):
    """Paths to every entry of nested dicts and lists."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield path + (key,)
            yield from _entries(value, path + (key,))


def _fuzz_document(data, text, load, dump):
    """Set one entry of a YAML or JSON document, or add one beyond its schema."""
    doc = load(text)
    path = data.draw(st.sampled_from([(), *_entries(doc)]))
    value = data.draw(st.sampled_from(FUZZ_VALUES))
    *parents, key = path or [None]
    node = doc
    for p in parents:
        node = node[p]
    if path and data.draw(st.booleans()):
        node[key] = value
    else:
        target = node[key] if path else doc
        if isinstance(target, dict):
            target["junk"] = value
        elif isinstance(target, list):
            target.append(value)
        else:
            node[key] = value
    return dump(doc)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data())
def test_fuzzed_inputs_end_in_a_classified_exit_code(mini_pipeline, data):
    role = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    command = data.draw(st.sampled_from(FUZZ_COMMANDS[role]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        bad = tmp / mini_pipeline[role].name
        text = mini_pipeline[role].read_text()
        if role == "config":
            bad.write_text(_fuzz_document(data, text, yaml.safe_load, yaml.safe_dump))
        elif role == "model":
            bad.write_text(_fuzz_document(data, text, json.loads, json.dumps))
        else:
            lines = text.splitlines()
            row = data.draw(st.integers(1, len(lines) - 1))
            column = data.draw(st.sampled_from([None, *range(len(lines[0].split(",")))]))
            value = data.draw(st.sampled_from(FUZZ_FIELDS))
            bad = _csv_with(role, row, column, value)(mini_pipeline, tmp)[role]
        rc = main(_argv(command, {**mini_pipeline, role: bad}, tmp / "out"))
    assert rc in (0, 1, 2)
