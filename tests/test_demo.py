"""The shipped demo dataset stays runnable end to end."""

import csv
import hashlib
import pathlib

import pytest
import yaml

from markovpop.cli import main
from markovpop.config import load_run_config
from markovpop.finance import PensionRegime

DEMO = pathlib.Path(__file__).resolve().parent.parent / "demo"


def test_demo_pipeline(tmp_path):
    model = tmp_path / "model.json"
    rc = main([
        "fit", "--config", str(DEMO / "config.yaml"),
        "--records", str(DEMO / "records.csv"),
        "--reserve", str(DEMO / "reserve.csv"),
        "--out", str(model),
    ])
    assert rc == 0
    rc = main([
        "project", "--config", str(DEMO / "config.yaml"),
        "--model", str(model), "--years", "3",
        "--out", str(tmp_path / "projection.csv"),
    ])
    assert rc == 0
    rc = main([
        "cost-report", "--config", str(DEMO / "config.yaml"),
        "--model", str(model), "--salary-scale", str(DEMO / "salary_scale.csv"),
        "--years", "2", "--iterations", "50", "--seed", "1",
        "--out", str(tmp_path / "cost.csv"),
    ])
    assert rc == 0
    assert (tmp_path / "projection.csv").stat().st_size > 0
    assert (tmp_path / "cost.csv").stat().st_size > 0


# sha256 of the fitted model, the raw draw dump and each demo report's data
# rows (manifest lines dropped), pinned so refactors keep the outputs byte-identical.
# A change that alters the random stream or a formula updates them on purpose.
GOLDEN = {
    "model.json": "735ca2dd2e0c8bf145930a3de5fe2d479e68bd0222401c1d8ff166fa6566beca",
    "projection.csv": "f7515c8992273d9f85b0ddaadcd2f1b112b7e0c1bfe6ce3eb519740747c3c0b6",
    "simulation.csv": "7e75d360605411386317bdd6bc41aebd00545115d71a33d44c3efc7af712a8b4",
    "draws.bin": "63ce3473d071d818d6e4abd3fc959bb2c255592d0a67427811dc1e6cdade61d9",
    "cost.csv": "b3c340819dd4c84c1ca0810b767f6ac6b6cacc45c6dcc7efa53d9e23daced3ef",
    "backtest.csv": "41ba41def3cc7b5d3dcf759cdd170eca5db9d9f5f23abb549ef0ed3bd8e0317c",
}


def _data_digest(path):
    data = path.read_bytes()
    if path.suffix == ".csv":
        lines = data.splitlines(keepends=True)
        data = b"".join(line for line in lines if not line.startswith(b"# "))
    return hashlib.sha256(data).hexdigest()


def demo_outputs(tmp_path):
    cfg = ["--config", str(DEMO / "config.yaml")]
    panel = ["--records", str(DEMO / "records.csv"), "--reserve", str(DEMO / "reserve.csv")]
    scale = ["--salary-scale", str(DEMO / "salary_scale.csv")]
    model = ["--model", str(tmp_path / "model.json")]
    sim = ["--iterations", "200", "--seed", "7"]
    runs = [
        ["fit", *cfg, *panel, "--out", str(tmp_path / "model.json")],
        ["project", *cfg, *model, "--years", "3", "--out", str(tmp_path / "projection.csv")],
        ["simulate", *cfg, *model, "--years", "3", *sim,
         "--out", str(tmp_path / "simulation.csv"),
         "--dump-draws", str(tmp_path / "draws.bin")],
        ["cost-report", *cfg, *model, *scale, "--years", "3", *sim,
         "--out", str(tmp_path / "cost.csv")],
        ["backtest", *cfg, *panel, *scale, "--split-year", "2016", *sim,
         "--out", str(tmp_path / "backtest.csv")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv[0]
    return {name: _data_digest(tmp_path / name) for name in GOLDEN}


def test_demo_outputs_match_golden_digests(tmp_path):
    assert demo_outputs(tmp_path) == GOLDEN


def test_the_reports_and_the_dump_keep_their_bytes_for_any_number_of_workers(tmp_path):
    # each summarizes or writes whole years, whichever process draws them
    cfg = ["--config", str(DEMO / "config.yaml")]
    panel = ["--records", str(DEMO / "records.csv"), "--reserve", str(DEMO / "reserve.csv")]
    scale = ["--salary-scale", str(DEMO / "salary_scale.csv")]
    model = tmp_path / "model.json"
    assert main(["fit", *cfg, *panel, "--out", str(model)]) == 0
    outputs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"workers-{workers}"
        out.mkdir()
        sim = ["--iterations", "200", "--seed", "7", "--workers", workers]
        runs = [
            ["simulate", *cfg, "--model", str(model), "--years", "3", *sim,
             "--out", str(out / "simulation.csv"), "--dump-draws", str(out / "draws.bin")],
            ["cost-report", *cfg, "--model", str(model), *scale, "--years", "3", *sim,
             "--out", str(out / "cost.csv")],
            ["backtest", *cfg, *panel, *scale, "--split-year", "2016", *sim,
             "--out", str(out / "backtest.csv")],
        ]
        for argv in runs:
            assert main(argv) == 0, argv[0]
        outputs[workers] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(outputs["1"]) == 4
    assert outputs["1"] == outputs["2"]


def _backtest_totals(tmp_path, full_time_hours):
    raw = yaml.safe_load((DEMO / "config.yaml").read_text())
    raw["full_time_hours"] = full_time_hours
    config = tmp_path / f"config-{full_time_hours}.yaml"
    config.write_text(yaml.safe_dump(raw))
    out = tmp_path / f"backtest-{full_time_hours}.csv"
    rc = main([
        "backtest", "--config", str(config),
        "--records", str(DEMO / "records.csv"), "--reserve", str(DEMO / "reserve.csv"),
        "--salary-scale", str(DEMO / "salary_scale.csv"),
        "--split-year", "2016", "--iterations", "10", "--seed", "1", "--out", str(out),
    ])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("# "))
        return {r["year"]: r for r in rows if r["category"] == "*"}


def test_backtest_counts_and_prices_observed_fte_at_one_full_time(tmp_path):
    # demo records all work 40 h: at a 48 h full time each is 40/48 of an
    # FTE, which must shrink the observed population and cost alike
    base = _backtest_totals(tmp_path, 40)
    long = _backtest_totals(tmp_path, 48)
    assert base.keys() == long.keys() == {"2016"}
    for year, row in base.items():
        for col in ("observed_population", "observed_cost"):
            want = float(row[col]) * 40 / 48
            assert float(long[year][col]) == pytest.approx(want, rel=1e-5, abs=1.0), col


def test_institution_template_validates():
    cfg = load_run_config(DEMO / "config-institution.yaml")
    assert cfg.space.n_categories == 38
    assert cfg.space.age_min == -7
    assert cfg.space.n_age_groups == 5
    _, profiles = cfg.finance
    code = cfg.characteristics.code(cfg.characteristics.encode(["a10", "ivm"]))
    assert profiles[code] == {"annuity_pct": 0.23, "pension_regime": PensionRegime.IVM}
