"""End-to-end command-line runs on a small generated world."""

import csv
import errno
import json
import os
import pathlib
import re
import signal
import stat
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SRC, read_dump, run_python, write_cycled_mini_world
from markovpop import cli, montecarlo, reports
from markovpop.cli import main
from markovpop.config import load_run_config
from markovpop.errors import DataError
from markovpop.model import FittedModel

DEMO = SRC.parent / "demo"


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
    assert "the following arguments are required" in err
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

    head, draws = read_dump(dump)
    assert head[0] == 0x4D504F50 and head[1] == 2
    assert head[2:4] == [1, 40]
    assert list(draws) == [2017] and draws[2017].shape == (40, head[4])
    assert np.all(draws[2017].sum(axis=1) == 150)


def test_a_space_without_characteristics_prints_no_empty_tuple_row(tmp_path):
    # with nothing to split by, each cell has its '*' row only: an empty tuple would repeat it
    raw = yaml.safe_load((DEMO / "config.yaml").read_text())
    del raw["characteristics"], raw["finance"]["bindings"]
    config, records, model = tmp_path / "config.yaml", tmp_path / "records.csv", tmp_path / "m.json"
    config.write_text(yaml.safe_dump(raw))
    lines = (DEMO / "records.csv").read_text().splitlines()
    records.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
    assert main(["fit", "--config", str(config), "--records", str(records),
                 "--reserve", str(DEMO / "reserve.csv"), "--out", str(model)]) == 0
    common = ["--config", str(config), "--model", str(model), "--years", "2"]
    dump = tmp_path / "draws.bin"
    runs = {"project": [], "simulate": ["--iterations", "20", "--seed", "3",
                                        "--dump-draws", str(dump)]}
    for command, extra in runs.items():
        out = tmp_path / f"{command}.csv"
        assert main([command, *common, *extra, "--out", str(out)]) == 0
        rows = read_report(out)[2]
        assert {int(r["year"]) for r in rows} >= {2017, 2018}, command
        assert {r["characteristic_tuple"] for r in rows} == {"*"}, command
    # one label per cell: 3 categories x 3 age groups x 1 seniority group
    assert read_dump(dump)[0][4] == 9


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


def _config_text(pattern, replacement):
    """Copy of the config file with `pattern` substituted once in its text.

    For documents yaml.safe_dump cannot write, such as 2 000 nested lists.
    """

    def make(paths, tmp_path):
        bad = tmp_path / "config.yaml"
        bad.write_text(re.sub(pattern, replacement, paths["config"].read_text(), count=1))
        return {"config": bad}

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


def _rename(path, new):
    def edit(raw):
        *parents, key = path
        for p in parents:
            raw = raw[p]
        raw[new] = raw.pop(key)

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


def _in_turn(*damages):
    """Several damages, each applied to the inputs the ones before it left."""

    def make(paths, tmp_path):
        changed = {}
        for damage in damages:
            changed.update(damage({**paths, **changed}, tmp_path))
        return changed

    return make


def _demo_split(year):
    """The inputs of `demo/` (2014-2016), backtested from `year`."""
    files = {"config": "config.yaml", "records": "records.csv", "reserve": "reserve.csv",
             "scale": "salary_scale.csv"}
    return lambda paths, tmp_path: {
        **{role: DEMO / name for role, name in files.items()}, "split_year": year
    }


def _demo_records(edit):
    """The inputs of `demo/`, with the records file's bytes passed through `edit`."""

    def make(paths, tmp_path):
        bad = tmp_path / "records.csv"
        bad.write_bytes(edit((DEMO / "records.csv").read_bytes()))
        return {**_demo_split(2016)(paths, tmp_path), "records": bad}

    return make


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
        argv += ["--split-year", str(paths.get("split_year", 2016))]
    if "dump_draws" in paths:
        argv += ["--dump-draws", str(paths["dump_draws"])]
    return argv


NAN = float("nan")
DEEP = "[" * 2000 + "]" * 2000  # nested past the interpreter's recursion limit
LONG = "1" * 5001  # an integer past the digit limit of int(str), where there is one
DIGIT_LIMIT = hasattr(sys, "get_int_max_str_digits")


@pytest.mark.parametrize(
    "damage, command, code, message",
    [
        (_model_with(lambda doc: doc.pop("annual")), "cost-report", 2,
         "missing field 'annual'"),
        (_config_with(_set(["stopping_time_pmf_overrides"], [1])), "cost-report", 1,
         "stopping_time_pmf_overrides must map"),
        (_config_with(_set(["finance", "bindings", "annuity_pct", "levels"], [0.0, 0.12])),
         "cost-report", 1, "levels must map level names"),
        (_config_with(_set(["reserve_age_group"], 5)), "cost-report", 1,
         "unknown key 'reserve_age_group'"),
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
         "finance.inflation must be a number greater than -1 (got nan)"),
        (_config_with(_set(["finance", "bindings", "annuity_pct", "levels", "b1"], NAN)),
         "cost-report", 1, "finance.bindings.annuity_pct.levels[b1] must be a finite number"),
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
         "finance.inflation must be a number greater than -1 (got -2)"),
        # an observed cost beyond the float range: a held-out record at 200 times full time
        (_in_turn(_csv_with("records", -1, 5, "8000"), _csv_with("scale", 1, 1, "6e306"),
                  _csv_with("scale", 2, 1, "6e306")),
         "backtest", 2, "error: costs for year 2016 are not finite"),
        (_csv_with("reserve", 1, 1, "1e19"), "backtest", 2,
         "population size 1e+19 is too large to simulate"),
        (_csv_with("reserve", 1, 1, "1e308"), "fit", 2, "census totals too large"),
        (_model_text(r'"i0": [^,}]+', '"i0": 1e400'), "project", 2,
         "i0 must be a finite number >= 0 (got inf)"),
        (_model_with(_set(["i0"], -5.0)), "project", 2,
         "i0 must be a finite number >= 0 (got -5.0)"),
        # inputs that are not readable text, and outputs that cannot be written
        (_binary("config"), "fit", 1, "cannot be read: 'utf-8' codec can't decode"),
        (_binary("records"), "fit", 2, "cannot be read: 'utf-8' codec can't decode byte 0x80 "
         "in position 136: invalid start byte (line 2)"),
        (_binary("model"), "project", 2, "cannot be read: 'utf-8' codec can't decode"),
        (_directory("config"), "fit", 1, "cannot be read: [Errno 21] Is a directory"),
        (_directory("records"), "fit", 2, "cannot be read: [Errno 21] Is a directory"),
        (_unwritable("out"), "fit", 1, "error: [Errno 2] No such file or directory"),
        (_unwritable("out"), "project", 1, "error: [Errno 2] No such file or directory"),
        (_unwritable("dump_draws"), "simulate", 1,
         "error: [Errno 2] No such file or directory"),
        # a field beyond the csv module's limit
        (_csv_with("records", 1, 1, "x" * 200_000), "fit", 2,
         "cannot be read: field larger than field limit (131072) (line 2)"),
        # a model whose space or characteristics section is invalid
        (_model_with(_set(["space", "age_min"], 99)), "project", 2,
         "model file: invalid state space configuration\n  - age range [99,"),
        (_model_with(_set(["characteristics", "levels", 0], ["b1", "b1"])), "project", 2,
         "model file: invalid characteristic space\n  - characteristic 'band': duplicate"),
        # a split year that leaves one side of the backtest empty
        (_demo_split(2014), "backtest", 2, "error: no records before the split year 2014\n"),
        (_demo_split(2017), "backtest", 2,
         "error: no held-out records at or after the split year 2017\n"),
        # one fit year holds no year boundary to fit the entry probabilities on
        (_demo_split(2015), "backtest", 2,
         "error: no year boundary before the split year 2015: the fit needs a December "
         "and a month of the year after it\n"),
        # split years whose first month is beyond the int32 range of the record months
        (_demo_split(99999999999), "backtest", 2,
         "error: no held-out records at or after the split year 99999999999\n"),
        (_demo_split(-999999999), "backtest", 2,
         "error: no records before the split year -999999999\n"),
        # model numbers of the wrong JSON type
        (_model_with(_set(["i0"], True)), "project", 2,
         "model file: i0 must be a finite number >= 0 (got True)"),
        (_model_with(_set(["i0"], "60")), "project", 2,
         "model file: i0 must be a finite number >= 0 (got '60')"),
        (_model_with(_set(["base_year"], 2016.7)), "project", 2,
         "model file: base_year must be an integer (got 2016.7)"),
        (_model_with(_set(["base_year"], True)), "project", 2,
         "model file: base_year must be an integer (got True)"),
        (_model_with(_set(["full_time_hours"], "40")), "project", 2,
         "model file: full_time_hours must be a number > 0 (got '40')"),
        (_model_with(_set(["full_time_hours"], True)), "project", 2,
         "model file: full_time_hours must be a number > 0 (got True)"),
        # documents nested too deep, or with an integer too long, for the decoders
        (_model_text(r'"diagnostics": \{', '"diagnostics": {"deep": ' + DEEP + ", "), "project",
         2, "cannot be decoded: maximum recursion depth exceeded"),
        (_model_text(r'"i0": [^,}]+', '"i0": ' + LONG), "project", 2,
         "cannot be decoded: Exceeds the limit" if DIGIT_LIMIT
         else "model file: malformed field: int too large to convert to float"),
        (_config_text(r"\Z", "deep: " + DEEP + "\n"), "fit", 1,
         "cannot be decoded: maximum recursion depth exceeded"),
        (_config_text(r"age_max: \d+", "age_max: " + LONG), "fit", 1,
         "cannot be decoded: Exceeds the limit" if DIGIT_LIMIT
         else "ages and seniorities must lie within"),
        # YAML reads this as a date, and the date constructor raises ValueError
        (_config_text(r"\Z", "note: 2020-13-45\n"), "fit", 1,
         "cannot be decoded: month must be in 1..12"),
        # misspelled keys, at the top level and in a section: an error, not a default
        (_config_with(_set(["full_time_hour"], 30)), "fit", 1,
         "unknown key 'full_time_hour' (did you mean 'full_time_hours'?)"),
        (_config_with(_set(["overflow_polcy"], "absorb")), "fit", 1,
         "unknown key 'overflow_polcy' (did you mean 'overflow_policy'?)"),
        (_config_with(_rename(["finance", "inflation"], "inflaton")), "fit", 1,
         "unknown key 'finance.inflaton' (did you mean 'finance.inflation'?)"),
        # a repeated key, which YAML alone would let override the first
        (_config_text(r"\Z", "overflow_policy: strict\n"), "fit", 1,
         "is not valid YAML: repeated key 'overflow_policy'\n  in "),
        (_config_text(r"\n  inflation: [^\n]*", r"\g<0>\g<0>"), "cost-report", 1,
         "is not valid YAML: repeated key 'inflation'\n  in "),
        # a byte that is not UTF-8 past the decoder's first chunk: its offset in the whole file
        (_demo_records(lambda text: text + b"\xff\xfe"), "fit", 2,
         "can't decode byte 0xff in position 33534: invalid start byte (line 1118)"),
        # a panel without one of its latest 12 months names that month
        (_demo_records(lambda text: re.sub(rb"(?m)^2016-06,.*\n", b"", text)), "fit", 2,
         "error: initial distribution needs the 12 latest months; missing months: 2016-06\n"),
    ],
    ids=["model-missing-annual", "overrides-list", "levels-list", "reserve-marker-int",
         "finance-full-time-hours", "reserve-nan", "workload-nan", "salary-nan",
         "salary-inf", "inflation-nan", "binding-level-nan", "full-time-hours-nan",
         "pmf-nan", "model-nan", "records-extra-field", "reserve-repeated-column",
         "pi-category-negative",
         "pi-age-below-range", "salary-huge", "cost-sum-huge", "inflation-huge",
         "inflation-below-minus-one", "observed-cost-huge", "reserve-beyond-int64",
         "reserve-sum-huge", "model-i0-huge", "model-i0-negative", "config-binary", "records-binary",
         "model-binary", "config-directory", "records-directory", "fit-out-unwritable",
         "project-out-unwritable", "dump-draws-unwritable", "records-field-too-large",
         "model-age-range-empty", "model-level-repeated", "split-before-first-year",
         "split-after-last-year", "split-one-fit-year", "split-year-huge",
         "split-year-very-negative",
         "model-i0-bool", "model-i0-string", "model-base-year-fraction", "model-base-year-bool",
         "model-full-time-hours-string", "model-full-time-hours-bool", "model-nested-deep",
         "model-integer-long", "config-nested-deep", "config-integer-long",
         "config-date-invalid", "top-key-misspelled", "policy-key-misspelled",
         "finance-key-misspelled", "top-key-repeated", "finance-key-repeated",
         "records-not-utf8-late", "records-month-missing"],
)
def test_malformed_inputs_are_classified(
    mini_pipeline, tmp_path, damage, command, code, message
):
    paths = {**mini_pipeline, **damage(mini_pipeline, tmp_path)}
    argv = _argv(command, paths, tmp_path / "out")
    proc = run_python("-m", "markovpop.cli", *argv, capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert message in proc.stderr
    assert proc.stderr.count("error:") == 1, proc.stderr
    if message.startswith("model file: invalid state space"):
        # the empty age range is the only problem: no partition check runs on it
        assert "overlap" not in proc.stderr
    # a failed run writes no output, nor a hidden temporary of one
    for flag in {"--out", "--dump-draws"} & set(argv):
        out = pathlib.Path(argv[argv.index(flag) + 1])
        assert not out.exists()
        assert not list(out.parent.glob(f".{out.name}.*.tmp"))


def test_a_model_piped_through_stdin_reports_no_digest_of_input_it_did_not_read(
    mini_pipeline, tmp_path
):
    piped = pathlib.Path(mini_pipeline["model"]).read_bytes()
    bodies = []
    for name, model in (("piped", "/dev/stdin"), ("file", str(mini_pipeline["model"]))):
        out = tmp_path / f"{name}.csv"
        stdin = {"input": piped} if name == "piped" else {"stdin": subprocess.DEVNULL}
        proc = run_python(
            "-m", "markovpop.cli", "project", "--config", str(mini_pipeline["config"]),
            "--model", model, "--years", "2", "--out", str(out), capture_output=True, **stdin,
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines(keepends=True)
        model_lines = [line for line in lines if line.startswith("# input model:")]
        bodies.append([line for line in lines if line not in model_lines])
        if name == "piped":
            assert model_lines == ["# input model: /dev/stdin sha256=unavailable "
                                   "(not a regular file)\n"]
            # the digest of empty input: what a second read of the drained pipe would hash
            assert "e3b0c442" not in out.read_text()
        else:
            assert re.fullmatch(r"# input model: .* sha256=[0-9a-f]{64}\n", model_lines[0])
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("command, role", [
    ("fit", "out"), ("project", "out"), ("simulate", "dump_draws"),
])
def test_a_write_error_names_the_output_as_given(
    mini_pipeline, tmp_path, monkeypatch, capsys, command, role
):
    monkeypatch.chdir(tmp_path)
    given = os.path.join("missing", "output")  # relative, in a directory that does not exist
    argv = _argv(command, {**mini_pipeline, role: given}, "report.csv")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: {given!r}\n"
    assert sorted(os.listdir(tmp_path)) == []  # neither a report nor a hidden temporary


def test_a_write_sweeps_the_temporaries_of_runs_whose_process_is_gone(tmp_path):
    child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True, check=True)
    gone = int(child.stdout)  # run() has reaped it: no process holds this pid
    stale = tmp_path / f".draws.bin.{gone}.tmp"
    kept = [
        tmp_path / f".draws.bin.{os.getpid()}.tmp",  # this test's process is alive
        tmp_path / f".report.csv.{gone}.tmp",  # a temporary of another output
        tmp_path / ".draws.bin.x1.tmp",  # no pid
    ]
    for file in (stale, *kept):
        file.write_text("left behind")
    write = ("import sys\nfrom markovpop.errors import atomic\n"
             "with atomic(sys.argv[1]) as tmp, open(tmp, 'w') as fh: fh.write('draws')\n")
    run_python("-c", write, str(tmp_path / "draws.bin"), check=True)
    assert (tmp_path / "draws.bin").read_text() == "draws"
    assert sorted(tmp_path.iterdir()) == sorted([tmp_path / "draws.bin", *kept])


def test_importing_the_cli_loads_neither_openssl_nor_the_process_pool():
    # measured on top of the dependencies, which may load some of these themselves
    probe = (
        "import sys, numpy, yaml; before = set(sys.modules); import markovpop.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = run_python("-c", probe, capture_output=True, text=True, check=True)
    added = set(proc.stdout.split())
    assert "markovpop.cli" in added
    # difflib only names the nearest key of a misspelled one
    assert not added & {"multiprocessing", "concurrent.futures", "hashlib", "_hashlib", "difflib"}


@pytest.mark.parametrize("world", ["demo", "cycled"])
def test_the_block_width_leaves_every_output_byte_identical(tmp_path, monkeypatch, world):
    if world == "demo":
        inputs = {"config": DEMO / "config.yaml", "records": DEMO / "records.csv",
                  "reserve": DEMO / "reserve.csv", "scale": DEMO / "salary_scale.csv"}
    else:
        inputs = write_cycled_mini_world(tmp_path)
    cfg = ["--config", str(inputs["config"])]
    panel = ["--records", str(inputs["records"]), "--reserve", str(inputs["reserve"])]
    scale = ["--salary-scale", str(inputs["scale"])]
    model = ["--model", str(tmp_path / "model.json")]
    assert main(["fit", *cfg, *panel, "--out", str(tmp_path / "model.json")]) == 0
    sim = ["--years", "3", "--iterations", "30", "--seed", "5"]

    def outputs(width):
        monkeypatch.setattr(montecarlo, "BLOCK_LABELS", width)
        out = tmp_path / f"width-{width}"
        out.mkdir()
        runs = [
            ["simulate", *cfg, *model, *sim, "--out", str(out / "simulation.csv"),
             "--dump-draws", str(out / "draws.bin")],
            ["cost-report", *cfg, *model, *scale, *sim, "--out", str(out / "cost.csv")],
            ["backtest", *cfg, *panel, *scale, "--split-year", "2016", *sim[2:],
             "--out", str(out / "backtest.csv")],
        ]
        for argv in runs:
            assert main(argv) == 0, argv[0]
        return {path.name: path.read_bytes() for path in out.iterdir()}

    whole = outputs(montecarlo.BLOCK_LABELS)  # one block a year on these small worlds
    assert len(whole) == 4
    for width in (2, 3):
        assert outputs(width) == whole, f"block width {width}"


def test_a_failed_draw_leaves_neither_dump_nor_report(
    capsys, monkeypatch, mini_pipeline, tmp_path
):
    draw_blocks, years = montecarlo.draw_blocks, []

    def failing_in_year_2(*args):
        years.append(args)
        blocks = draw_blocks(*args)
        if len(years) == 2:
            yield next(blocks)  # so the second year is part written
            raise DataError("the draw failed")
        yield from blocks

    monkeypatch.setattr(montecarlo, "draw_blocks", failing_in_year_2)
    monkeypatch.setattr(montecarlo, "BLOCK_LABELS", 2)
    out, dump = tmp_path / "sim.csv", tmp_path / "draws.bin"
    argv = _argv("simulate", {**mini_pipeline, "dump_draws": dump}, out)
    argv[argv.index("--years") + 1] = "3"
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: the draw failed\n"
    assert len(years) == 2 and list(tmp_path.iterdir()) == []  # no temporary either

    # the disk fills in the second year, after its marker and first block are written
    monkeypatch.setattr(montecarlo, "draw_blocks", draw_blocks)
    files = []

    def filling(path, mode):
        files.append(_FillingFile(open(path, mode), room=2 if files else None))
        return files[-1]

    monkeypatch.setattr(montecarlo, "open", filling, raising=False)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert [f.room for f in files] == [None, -1] and all(f.fh.closed for f in files)
    assert list(tmp_path.iterdir()) == []


class _FillingFile:
    """An open file whose writes fail with ENOSPC once `room` of them (None: no limit) are spent."""

    def __init__(self, fh, room):
        self.fh, self.room, self.seek = fh, room, fh.seek

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if self.room is not None:
            self.room -= 1
            if self.room < 0:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(data)


_KILLED_IN_YEAR_2 = """
import os, signal, sys
from markovpop import cli, montecarlo, reports

montecarlo.BLOCK_LABELS = 2  # several blocks a year
summaries, years = cli.summaries, []

def killed_in_year_2(bounds, year, blocks):
    years.append(year)
    if len(years) == 2:
        next(blocks)  # so the second year is part written
        os.kill(os.getpid(), signal.SIGKILL)
    return summaries(bounds, year, blocks)

cli.summaries = killed_in_year_2
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("earlier", [None, b"an earlier report\r\n"], ids=["new", "existing"])
def test_a_killed_simulation_leaves_no_file_under_a_final_name(mini_pipeline, tmp_path, earlier):
    out, dump = tmp_path / "sim.csv", tmp_path / "draws.bin"
    if earlier is not None:
        out.write_bytes(earlier)
    argv = _argv("simulate", {**mini_pipeline, "dump_draws": dump}, out)
    argv[argv.index("--years") + 1] = "3"
    proc = run_python("-c", _KILLED_IN_YEAR_2, *argv, capture_output=True)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert not dump.exists()
    assert (out.read_bytes() if out.exists() else None) == earlier
    left = [p.name for p in tmp_path.iterdir() if p != out]
    assert len(left) <= 1 and all(re.fullmatch(r"\.draws\.bin\.\d+\.tmp", n) for n in left), left


def test_a_failed_report_keeps_the_earlier_out(monkeypatch, mini_pipeline, tmp_path):
    projection = cli.projection

    class Failing:
        """A year's table that fails once the writer reads it."""

        @property
        def p(self):
            raise DataError("the report failed")

    def failing_in_its_fourth_year(*args):
        labels, tables = projection(*args)
        tables[3] = Failing()  # after three years of rows are written
        return labels, tables

    monkeypatch.setattr(cli, "projection", failing_in_its_fourth_year)
    out = tmp_path / "project.csv"
    out.write_bytes(b"an earlier report\r\n")
    argv = _argv("project", mini_pipeline, out)
    argv[argv.index("--years") + 1] = "4"
    assert main(argv) == 2
    assert out.read_bytes() == b"an earlier report\r\n"
    assert list(tmp_path.iterdir()) == [out]  # and no temporary


def _project_bytes(mini_pipeline, out) -> bytes:
    """The `project` report of the mini world written to a plain file."""
    assert main(_argv("project", mini_pipeline, out)) == 0
    return out.read_bytes()


def test_a_symlinked_out_stays_a_symlink_to_the_report(mini_pipeline, tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"an earlier report\r\n")
    link.symlink_to(target)
    assert main(_argv("project", mini_pipeline, link)) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == _project_bytes(mini_pipeline, tmp_path / "plain.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "plain.csv", "target.csv"]


def test_a_fifo_out_is_written_in_place(mini_pipeline, tmp_path):
    fifo, read = tmp_path / "report.fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main(_argv("project", mini_pipeline, fifo)) == 0
    finally:
        reader.join(timeout=60)
        if reader.is_alive():  # the report never opened the FIFO: let the reader go
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=60)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert read == [_project_bytes(mini_pipeline, tmp_path / "plain.csv")]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.csv", "report.fifo"]


def test_running_out_of_memory_is_an_error_line_not_a_traceback(tmp_path):
    resource = pytest.importorskip("resource")
    model, out = tmp_path / "model.json", tmp_path / "simulate.csv"
    assert main(["fit", "--config", str(DEMO / "config.yaml"), "--records",
                 str(DEMO / "records.csv"), "--reserve", str(DEMO / "reserve.csv"),
                 "--out", str(model)]) == 0
    limit = 1_500_000_000  # bytes of address space; the first draw buffer alone takes 8 GB

    def cap():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = run_python(
        "-m", "markovpop.cli", "simulate", "--config", str(DEMO / "config.yaml"),
        "--model", str(model), "--years", "1", "--iterations", "1000000000", "--out", str(out),
        env={"OPENBLAS_NUM_THREADS": "1"}, capture_output=True, text=True, preexec_fn=cap,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: simulate ran out of memory; try a lower --iterations\n"
    assert not out.exists()


def test_zero_iterations_is_rejected_not_replaced(capsys, mini_pipeline, tmp_path):
    # only an absent --iterations falls back to the config value
    argv = _argv("simulate", mini_pipeline, tmp_path / "out")
    argv[argv.index("--iterations") + 1] = "0"
    assert main(argv) == 1
    assert "argument --iterations: must be >= 1 (got 0)" in capsys.readouterr().err


def _usage_errors():
    """(command, flag, value, message) for each command line that must fail as a usage error.

    A `value` of None leaves the flag out; `message` is the whole error after the command.
    """
    required = {
        "fit": ["config", "out", "records", "reserve"],
        "project": ["config", "out", "model", "years"],
        "simulate": ["config", "out", "model", "years"],
        "cost-report": ["config", "out", "model", "salary-scale", "years"],
        "backtest": ["config", "out", "records", "reserve", "salary-scale", "split-year"],
    }
    for command, flags in required.items():
        if command in ("simulate", "cost-report", "backtest"):
            for flag in ("iterations", "workers"):
                yield pytest.param(command, flag, "0", f"argument --{flag}: must be >= 1 (got 0)",
                                   id=f"{flag}-{command}")
        for flag in flags:
            yield pytest.param(command, flag, None,
                               f"the following arguments are required: --{flag}",
                               id=f"no-{flag}-{command}")
        if "years" in flags:
            least = 0 if command == "project" else 1
            yield pytest.param(command, "years", str(least - 1),
                               f"argument --years: must be >= {least} (got {least - 1})",
                               id=f"years-low-{command}")
            yield pytest.param(command, "years", "soon",
                               "argument --years: invalid int value: 'soon'",
                               id=f"years-soon-{command}")
    # the dump and the report, one file spelled two ways: each would be renamed onto it
    yield pytest.param("simulate", "dump-draws", os.path.join("missing", ".", "out"),
                       "--dump-draws and --out must name different files", id="dump-draws-is-out")


@pytest.mark.parametrize("command, flag, value, message", _usage_errors())
def test_simulation_flags_are_checked_before_any_input_is_read(
    capsys, monkeypatch, tmp_path, command, flag, value, message
):
    # every input path is missing: a usage error must be found before any is opened
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "missing"
    paths = {role: missing / role for role in ("config", "model", "records", "reserve", "scale")}
    argv = _argv(command, paths, missing / "out")
    i = argv.index(f"--{flag}") if f"--{flag}" in argv else len(argv)
    argv[i:i + 2] = [] if value is None else [f"--{flag}", value]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: markovpop {command}: {message}\n"
    assert not missing.exists()


def test_a_salary_scale_without_an_in_system_category_fails_before_the_panel_is_read(
    capsys, monkeypatch, tmp_path
):
    def unread(*args):
        raise AssertionError("parsed the panel before checking the salary scale")

    monkeypatch.setattr(cli, "parse_records", unread)
    scale = tmp_path / "scale.csv"
    scale.write_text("category,base_salary\nA,400000\n")
    paths = {**_demo_split(2016)({}, tmp_path), "scale": scale}
    out = tmp_path / "backtest.csv"
    assert main(_argv("backtest", paths, out)) == 2
    err = capsys.readouterr().err
    assert f"salary scale {scale} is invalid" in err and "missing categories: B" in err
    assert not out.exists()


@pytest.mark.parametrize("epoch", ["abc", "99999999999999999", "1.5"])
@pytest.mark.parametrize("command", ["project", "simulate"])
def test_a_source_date_epoch_that_is_not_whole_seconds_fails_before_any_draw(
    capsys, monkeypatch, mini_pipeline, tmp_path, command, epoch
):
    def no_draw(*args):
        raise AssertionError("drew before the manifest was collected")

    monkeypatch.setattr(montecarlo, "draw_blocks", no_draw)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    out = tmp_path / "report.csv"
    assert main(_argv(command, mini_pipeline, out)) == 1
    err = capsys.readouterr().err
    assert err == f"error: SOURCE_DATE_EPOCH must be a whole number of seconds (got {epoch!r})\n"
    assert not out.exists()


def test_source_date_epoch_sets_the_timestamp_line(monkeypatch, mini_pipeline, tmp_path):
    out = tmp_path / "project.csv"
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert main(_argv("project", mini_pipeline, out)) == 0
    comments, _, _ = read_report(out)
    assert comments[-1] == "# timestamp: 1970-01-01T00:00:00+00:00\n"
    monkeypatch.delenv("SOURCE_DATE_EPOCH")
    assert main(_argv("project", mini_pipeline, out)) == 0
    assert not any(c.startswith("# timestamp") for c in read_report(out)[0])


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
