"""Metamorphic relations of the whole pipeline, run through the command line.

Each test states a relation between two runs on related inputs and checks
it on `demo/` and on a small generated world; neither needs a stored output.
"""

import csv
import json
import math
import random
import re

import numpy as np
import pytest
import yaml

from markovpop import montecarlo
from markovpop.cli import main
from markovpop.config import load_run_config
from markovpop.finance import full_time_costs
from markovpop.ingest import load_salary_scale
from markovpop.model import FittedModel
from markovpop.project import LabelIndex, projection
from markovpop.reports import _cell_names

from conftest import demo_inputs, read_dump, write_cycled_demo, write_cycled_mini_world

WORLDS = (demo_inputs, write_cycled_mini_world)


def _fit(paths, records, out) -> bytes:
    rc = main([
        "fit", "--config", str(paths["config"]), "--records", str(records),
        "--reserve", str(paths["reserve"]), "--out", str(out),
    ])
    assert rc == 0
    return out.read_bytes()


@pytest.mark.parametrize("world", WORLDS, ids=["demo", "mini-cycled-workloads"])
def test_shuffling_the_records_rows_leaves_the_model_byte_identical(world, tmp_path):
    paths = world(tmp_path)
    header, *rows = paths["records"].read_text().splitlines(keepends=True)
    random.Random(20).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(rows))
    assert _fit(paths, shuffled, tmp_path / "b.json") == _fit(
        paths, paths["records"], tmp_path / "a.json"
    )


def _shifted_by_years(records, out, k):
    """Write `records` to `out` with every month moved on by 12 k months."""
    header, *rows = records.read_text().splitlines()
    at = header.split(",").index("month")
    for i, row in enumerate(rows):
        fields = row.split(",")
        year, month = fields[at].split("-")
        fields[at] = f"{int(year) + k:04d}-{month}"
        rows[i] = ",".join(fields)
    out.write_text("\n".join([header, *rows]) + "\n")


@pytest.mark.parametrize("world", WORLDS, ids=["demo", "mini-cycled-workloads"])
def test_shifting_the_panel_by_whole_years_only_relabels_years(world, tmp_path):
    # nothing in the fit or the projection may depend on where the months sit
    k = 3
    paths = world(tmp_path)
    _shifted_by_years(paths["records"], tmp_path / "shifted.csv", k)
    docs, bodies = [], []
    for side, records in (("a", paths["records"]), ("b", tmp_path / "shifted.csv")):
        model, out = tmp_path / f"{side}.json", tmp_path / f"{side}.csv"
        docs.append(json.loads(_fit(paths, records, model)))
        assert main(["project", "--config", str(paths["config"]), "--model", str(model),
                     "--years", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        bodies.append([line.split(",", 1) for line in lines if not line.startswith("#")])
    plain, shifted = docs
    assert shifted["base_year"] == plain["base_year"] + k
    # the year-valued diagnostics move with the panel
    diag = shifted["diagnostics"]
    for entry in diag["hires_exceeding_reserve"]:
        entry[0] -= k
    diag["warnings"] = [re.sub(r" in (\d+):", lambda m: f" in {int(m[1]) - k}:", w)
                        for w in diag["warnings"]]
    assert {**shifted, "base_year": plain["base_year"]} == plain
    # the projection's year column moves by k, and nothing else
    (head, *rows), shifted_rows = bodies
    assert shifted_rows[0] == head and len(rows) > 10
    assert [[str(int(year) + k), rest] for year, rest in rows] == shifted_rows[1:]


def _fractional_reserve(reserve, out, reverse=False):
    """Write `reserve` to `out` with fractional totals, whose sum moves with their order."""
    header, *rows = reserve.read_text().splitlines()
    totals = [row.split(",") for row in rows]
    rows = [f"{age},{float(total) + int(age) * 13 % 100 / 100:.2f}" for age, total in totals]
    out.write_text("\n".join([header, *(rows[::-1] if reverse else rows)]) + "\n")


def _renamed_and_reversed(records, out):
    """Write `records` to `out` with ids wNNNNNN renamed w(999999 - NNNNNN), rows reversed."""
    header, *rows = records.read_text().splitlines()
    at = header.split(",").index("person_id")
    for k, row in enumerate(rows):
        fields = row.split(",")
        fields[at] = f"w{999_999 - int(fields[at][1:]):06d}"
        rows[k] = ",".join(fields)
    out.write_text("\n".join([header, *rows[::-1]]) + "\n")


def _fit_and_backtest(paths, records, reserve, out):
    """The model file and the backtest report's lines past its `# input` lines."""
    panel = ["--config", str(paths["config"]), "--records", str(records),
             "--reserve", str(reserve)]
    out.mkdir()
    assert main(["fit", *panel, "--out", str(out / "model.json")]) == 0
    assert main(["backtest", *panel, "--salary-scale", str(paths["scale"]), "--split-year",
                 "2016", "--iterations", "50", "--seed", "3", "--out", str(out / "bt.csv")]) == 0
    report = out.joinpath("bt.csv").read_text().splitlines()
    return out.joinpath("model.json").read_bytes(), [r for r in report if "# input" not in r]


@pytest.mark.parametrize("world", [write_cycled_demo, write_cycled_mini_world],
                         ids=["demo-cycled-workloads", "mini-cycled-workloads"])
def test_renaming_ids_and_reordering_rows_leaves_fit_and_backtest_byte_identical(world, tmp_path):
    # the fit and the observed totals depend only on what the rows say: each month's sums
    # must not run in person-id order, nor the census total in reserve file order
    paths = world(tmp_path)
    for reverse in (False, True):
        _fractional_reserve(paths["reserve"], tmp_path / f"reserve-{reverse}.csv", reverse)
    _renamed_and_reversed(paths["records"], tmp_path / "variant.csv")
    runs = [
        _fit_and_backtest(paths, records, tmp_path / f"reserve-{reverse}.csv", tmp_path / side)
        for side, records, reverse in (("a", paths["records"], False),
                                       ("b", tmp_path / "variant.csv", True))
    ]
    assert len(runs[0][1]) > 10
    assert runs[1] == runs[0]


def _unused_category(raw, scale):
    raw["categories"].append("C")
    scale.write_text(scale.read_text() + "C,500000\n")


def _unused_level(raw, scale):
    raw["characteristics"][0]["levels"].append("b2")
    raw["finance"]["bindings"]["annuity_pct"]["levels"]["b2"] = 0.06


def _reports(tmp_path, world, edit) -> dict[str, list[str]]:
    """Data rows of `project`, `simulate` and `cost-report` on a world under a config edit."""
    paths = world(tmp_path)
    raw = yaml.safe_load(paths["config"].read_text())
    scale = tmp_path / "scale.csv"
    scale.write_text(paths["scale"].read_text())
    edit(raw, scale)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw))
    model = tmp_path / "model.json"
    _fit({"config": config, "reserve": paths["reserve"]}, paths["records"], model)
    common = ["--config", str(config), "--model", str(model), "--years", "3"]
    sim = ["--iterations", "200", "--seed", "5"]
    runs = {"project": [], "simulate": sim, "cost-report": ["--salary-scale", str(scale), *sim]}
    rows = {}
    for command, extra in runs.items():
        out = tmp_path / f"{command}.csv"
        assert main([command, *common, *extra, "--out", str(out)]) == 0
        rows[command] = [r for r in out.read_text().splitlines() if not r.startswith("#")]
    return rows


@pytest.mark.parametrize("edit", [_unused_category, _unused_level],
                         ids=["unused-category", "unused-level"])
def test_an_unused_category_or_level_leaves_the_reports_byte_identical(edit, tmp_path):
    # each world in turn, so that the test keeps one id per edit
    for world in WORLDS:
        base = tmp_path / world.__name__
        for side in "ab":
            (base / side).mkdir(parents=True)
        plain = _reports(base / "a", world, lambda raw, scale: None)
        assert all(len(rows) > 1 for rows in plain.values()), world.__name__
        assert _reports(base / "b", world, edit) == plain, world.__name__
        # the edit reached the fitted model's axes
        models = [(base / side / "model.json").read_bytes() for side in "ab"]
        assert models[0] != models[1], world.__name__


def _star_column(path, column) -> dict[tuple, float]:
    """`column` of each '*' row of a label report, by (year, category, age and seniority group)."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    keys = ("year", "category", "age_group", "seniority_group")
    rows = csv.DictReader(lines)
    return {tuple(r[k] for k in keys): float(r[column]) for r in rows
            if r["characteristic_tuple"] == "*"}


def test_simulated_cell_means_lie_within_four_standard_errors_of_the_projection(tmp_path):
    # a cell's count is Binomial(i0, p): its mean over n iterations has sd sqrt(i0 p (1 - p) / n)
    iterations = 2000
    for world in WORLDS:  # each world in turn, so that the test keeps its id
        base = tmp_path / world.__name__
        base.mkdir()
        paths, model = world(base), base / "model.json"
        _fit(paths, paths["records"], model)
        common = ["--config", str(paths["config"]), "--model", str(model), "--years", "1"]
        assert main(["project", *common, "--out", str(base / "project.csv")]) == 0
        assert main(["simulate", *common, "--iterations", str(iterations), "--seed", "11",
                     "--out", str(base / "simulate.csv")]) == 0
        fitted = FittedModel.load(model)
        i0, year = fitted.i0, str(fitted.base_year + 1)
        assert i0 == round(i0)
        cells = {(year, *name) for name in _cell_names(fitted.space)}
        # both reports leave out a cell whose mean (or p) is 0; the projection has the base year
        mean = _star_column(base / "simulate.csv", "mean")
        p = {k: v for k, v in _star_column(base / "project.csv", "probability").items()
             if k[0] == year}
        assert set(mean) <= cells and set(p) < cells, world.__name__  # some cells have p = 0
        for key in cells:
            pk = p.get(key, 0.0)
            bound = 4.0 * math.sqrt(i0 * pk * (1.0 - pk) / iterations)
            assert abs(mean.get(key, 0.0) - i0 * pk) <= bound, (world.__name__, key, pk)


def _column(path, column) -> dict[tuple, float]:
    """`column` of each row of a label report, by (year, category, groups, tuple)."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    keys = ("year", "category", "age_group", "seniority_group", "characteristic_tuple")
    return {tuple(r[k] for k in keys): float(r[column]) for r in csv.DictReader(lines)}


def _each_world_and_block_width(tmp_path, monkeypatch):
    """(directory, world) per world, drawn first in today's blocks, then in blocks of two labels.

    Two-label blocks give every year many blocks, so a block that drew from
    the wrong place in its year's stream would show.
    """
    widths = (montecarlo.BLOCK_LABELS, 2)
    for world in WORLDS:
        for width in widths:
            monkeypatch.setattr(montecarlo, "BLOCK_LABELS", width)
            base = tmp_path / f"{world.__name__}-{width}"
            base.mkdir()
            yield base, world


def test_simulated_counts_follow_their_exact_binomial_laws(tmp_path, monkeypatch):
    # a cell's count, a label's and the in-system total are each Binomial(i0, P); over n
    # draws the empirical CDF leaves the DKW band eps only with probability alpha
    for base, world in _each_world_and_block_width(tmp_path, monkeypatch):
        _check_binomial_laws(base, world)


def _check_binomial_laws(tmp_path, world):
    from scipy.stats import binom

    iterations, years, alpha = 2000, 3, 1e-6
    eps = math.sqrt(math.log(2 / alpha) / (2 * iterations))
    paths, model, dump = world(tmp_path), tmp_path / "model.json", tmp_path / "draws.bin"
    _fit(paths, paths["records"], model)
    common = ["--config", str(paths["config"]), "--model", str(model), "--years", str(years)]
    assert main(["project", *common, "--out", str(tmp_path / "project.csv")]) == 0
    assert main(["simulate", *common, "--iterations", str(iterations), "--seed", "11",
                 "--out", str(tmp_path / "simulate.csv"), "--dump-draws", str(dump)]) == 0
    fitted = FittedModel.load(model)
    trials, labels = round(fitted.i0), LabelIndex.build(fitted)
    assert fitted.i0 == trials
    p = _column(tmp_path / "project.csv", "probability")  # leaves out cells with p = 0
    head, draws = read_dump(dump)
    assert head[2:] == [years, iterations, len(labels.cell_id)]
    assert list(draws) == [fitted.base_year + t for t in range(1, years + 1)]
    support = np.arange(trials + 1)
    for t in range(1, years + 1):
        year = str(fitted.base_year + t)
        cells = np.add.reduceat(draws[fitted.base_year + t], labels.bounds[:-1], 1)
        cell_p = np.array([p.get((year, *name, "*"), 0.0) for name in _cell_names(fitted.space)])
        inside = labels.in_system_cells
        counts = [*cells.T, cells[:, inside].sum(axis=1)]
        for x, pk in zip(counts, [*cell_p, cell_p[inside].sum()], strict=True):
            ecdf = np.searchsorted(np.sort(x), support, side="right") / iterations
            gap = np.abs(ecdf - binom.cdf(support, trials, pk)).max()
            assert gap <= eps, (year, pk, gap)
    # nearest-rank quantiles: within the band, the q quantile lies between the laws' q +- eps
    for q, column in ((0.05, "p05"), (0.50, "p50"), (0.95, "p95")):
        for key, value in _column(tmp_path / "simulate.csv", column).items():
            lo, hi = binom.ppf([max(q - eps, 0.0), min(q + eps, 1.0)], trials, p[key])
            assert lo <= value <= hi, (key, column, value, lo, hi)


def test_simulated_sd_and_mean_cost_lie_within_their_exact_standard_errors(tmp_path, monkeypatch):
    for base, world in _each_world_and_block_width(tmp_path, monkeypatch):
        _check_standard_errors(base, world)


def _check_standard_errors(tmp_path, world):
    # over n draws of a count X ~ Binomial(i0, P), with s = i0 P (1 - P), the printed (ddof 0)
    # variance has mean (n - 1)/n s and, from the fourth central moment
    # m4 = s (1 + 3 (i0 - 2) P (1 - P)), standard error
    # (n - 1)/n sqrt((m4 - s^2 (n - 3)/(n - 1)) / n). A cell's cost sums its labels' counts
    # N_j times their prices g_j: its mean over n draws has mean i0 sum p_j g_j and variance
    # i0 (sum p_j g_j^2 - (sum p_j g_j)^2) / n. Each check is Bonferroni-corrected over its
    # rows at the DKW test's alpha.
    from scipy.stats import norm

    n, years, alpha = 2000, 3, 1e-6
    paths, model = world(tmp_path), tmp_path / "model.json"
    _fit(paths, paths["records"], model)
    common = ["--config", str(paths["config"]), "--model", str(model), "--years", str(years)]
    sim = ["--iterations", str(n), "--seed", "11"]
    assert main(["project", *common, "--out", str(tmp_path / "project.csv")]) == 0
    assert main(["simulate", *common, *sim, "--out", str(tmp_path / "simulate.csv")]) == 0
    assert main(["cost-report", *common, *sim, "--salary-scale", str(paths["scale"]),
                 "--out", str(tmp_path / "cost.csv")]) == 0
    fitted = FittedModel.load(model)
    trials = round(fitted.i0)
    assert fitted.i0 == trials

    # the simulated years' cells with P > 0; the report leaves out a cell whose draws are all 0
    p = {k: v for k, v in _star_column(tmp_path / "project.csv", "probability").items()
         if k[0] != str(fitted.base_year)}
    sd = _star_column(tmp_path / "simulate.csv", "sd")
    assert set(sd) <= set(p) and len(p) > 10
    z = norm.isf(alpha / (2 * len(p)))
    for key, pk in p.items():
        s = trials * pk * (1.0 - pk)
        m4 = s * (1.0 + 3.0 * (trials - 2) * pk * (1.0 - pk))
        se = (n - 1) / n * math.sqrt((m4 - s * s * (n - 3) / (n - 1)) / n)
        assert abs(sd.get(key, 0.0) ** 2 - (n - 1) / n * s) <= z * se, (key, pk, sd.get(key))

    cfg = load_run_config(paths["config"])
    schedule, profiles = cfg.finance
    scale = load_salary_scale(paths["scale"], cfg.space)
    labels, tables = projection(fitted, years, cfg.overflow_policy)
    lines = [r for r in (tmp_path / "cost.csv").read_text().splitlines() if not r.startswith("#")]
    keys = ("year", "category", "age_group", "seniority_group")
    costs = {tuple(r[k] for k in keys): (float(r["expected_cost"]), float(r["sim_mean_cost"]))
             for r in csv.DictReader(lines)}
    z = norm.isf(alpha / (2 * len(costs)))
    checked = 0
    for table in tables[1:]:
        year = table.year
        g = full_time_costs(year, fitted.space.n_categories, scale, profiles, schedule)
        g = g[labels.category, labels.tuple_code]
        # each shown cell's labels, then the '*' row's: those of every shown cell
        groups = {(str(year), *name): np.arange(*labels.bounds[c : c + 2])
                  for c, name in enumerate(_cell_names(fitted.space))
                  if (str(year), *name) in costs}
        groups[(str(year), "*", "*", "*")] = np.concatenate(list(groups.values()))
        for key, at in groups.items():
            mean = table.probs[at] @ g[at]
            var = trials * (table.probs[at] @ g[at] ** 2 - mean**2)
            expected, simulated = costs[key]
            assert abs(expected - trials * mean) <= 0.5 + 1e-9 * expected, key
            bound = z * math.sqrt(var / n) + 0.5  # the report rounds to whole units
            assert abs(simulated - trials * mean) <= bound, (key, simulated, trials * mean, bound)
            checked += 1
    assert checked == len(costs)
