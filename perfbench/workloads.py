"""Workload definitions: the CLI commands of one pass and their output checks.

No check depends on the Monte Carlo stream, so any ``--seed`` passes on
correct code.  A check returns a list of problems; empty means correct.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .inputs import INSTITUTION_I0

REFERENCE = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Step:
    command: str  # span and metric name of the CLI command
    argv: list
    check: Callable[[], list]


@dataclass(frozen=True)
class Workload:
    world: str
    why: str
    steps: Callable[[dict, int, Path], list]


def data_rows(path):
    """Report rows as dicts keyed by the header, skipping the manifest."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = (r for r in csv.reader(fh) if r and not r[0].startswith("#"))
        header = next(rows)
        for r in rows:
            yield dict(zip(header, r))


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_fit(model_path, config_path):
    from markovpop.config import load_run_config
    from markovpop.errors import MarkovPopError
    from markovpop.model import FittedModel

    try:
        model = FittedModel.load(model_path)
        cfg = load_run_config(config_path)
        model.check_against(cfg.space, cfg.characteristics)
    except MarkovPopError as exc:
        return [f"fit: model does not load: {exc}"]
    problems = []
    for kind in ("monthly", "annual"):
        for cell, mat in getattr(model, kind).items():
            worst = float(abs(mat.sum(axis=1) - 1.0).max())
            if worst > 1e-12:
                problems.append(f"fit: {kind}{cell} row sum off by {worst:.3g}")
    total = float(model.pi.sum())
    if abs(total - 1.0) > 1e-9:
        problems.append(f"fit: pi sums to {total!r}")
    return problems


def check_project(path, i0, reference):
    problems = []
    totals = {}
    for r in data_rows(path):
        if r["characteristic_tuple"] != "*":
            continue
        year, p, n = int(r["year"]), float(r["probability"]), float(r["expected_count"])
        if not _close(n, p * i0, 1e-9):
            problems.append(f"project {year} {r['category']}: expected_count {n!r} != p*i0")
        by_cat = totals.setdefault(year, {"p": 0.0, "cats": {}})
        by_cat["p"] += p
        by_cat["cats"][r["category"]] = by_cat["cats"].get(r["category"], 0.0) + n
    for year, t in sorted(totals.items()):
        if abs(t["p"] - 1.0) > 1e-9:
            problems.append(f"project {year}: probabilities sum to {t['p']!r}")
    found = {str(y): t["cats"] for y, t in sorted(totals.items())}
    ref = json.loads(Path(reference).read_text())
    if sorted(found) != sorted(ref):
        problems.append(f"project: years {sorted(found)} != reference {sorted(ref)}")
    for year, cats in ref.items():
        for cat, want in cats.items():
            got = found.get(year, {}).get(cat, 0.0)
            if not _close(got, want, 1e-9):
                problems.append(f"project {year} {cat}: total {got!r} != reference {want!r}")
    return problems[:20]


def check_simulate(path, model_path):
    trials = round(json.loads(Path(model_path).read_text())["i0"])
    sums = {}
    for r in data_rows(path):
        if r["characteristic_tuple"] == "*":
            sums[int(r["year"])] = sums.get(int(r["year"]), 0.0) + float(r["mean"])
    if not sums:
        return ["simulate: no cell rows"]
    return [
        f"simulate {y}: cell means sum to {s!r}, not {trials}"
        for y, s in sorted(sums.items())
        if not _close(s, trials, 1e-9)
    ]


def check_cost(path):
    problems = []
    cells, stars = {}, {}
    for r in data_rows(path):
        year = int(r["year"])
        vals = (float(r["expected_cost"]), float(r["sim_mean_cost"]))
        if r["category"] == "*":
            stars[year] = vals
        else:
            acc = cells.setdefault(year, [0.0, 0.0, 0])
            acc[0] += vals[0]
            acc[1] += vals[1]
            acc[2] += 1
    if not stars or sorted(stars) != sorted(cells):
        return [f"cost-report: '*' rows for {sorted(stars)}, cell rows for {sorted(cells)}"]
    for year, (exp_total, sim_total) in sorted(stars.items()):
        exp_sum, sim_sum, n = cells[year]
        slack = 0.5 * n + 1.0  # each cell and the total are rounded to whole units
        if abs(exp_total - exp_sum) > slack or abs(sim_total - sim_sum) > slack:
            problems.append(f"cost-report {year}: '*' row is not the sum of the cell rows")
        if not _close(sim_total, exp_total, 0.01):
            problems.append(
                f"cost-report {year}: simulated mean {sim_total:.0f} vs expected {exp_total:.0f}"
            )
    return problems


def check_backtest(path, years):
    stars = {int(r["year"]): r for r in data_rows(path) if r["category"] == "*"}
    if sorted(stars) != list(years):
        return [f"backtest: '*' rows for {sorted(stars)}, expected {list(years)}"]
    problems = []
    for year, r in sorted(stars.items()):
        rel = float(r["rel_err_cost"]) if r["rel_err_cost"] else math.inf
        if abs(rel) > 0.02:
            problems.append(f"backtest {year}: |rel_err_cost| = {abs(rel):.4f} > 0.02")
    return problems


def _panel_costed(p, seed, out):
    common = ["--config", str(p["config"])]
    model = out / "model.json"
    sim = ["--iterations", "2000", "--seed", str(seed)]
    return [
        Step("fit", ["fit", *common, "--records", str(p["records"]),
                     "--reserve", str(p["reserve"]), "--out", str(model)],
             lambda: check_fit(model, p["config"])),
        Step("simulate", ["simulate", *common, "--model", str(model), "--years", "2", *sim,
                          "--out", str(out / "simulate.csv")],
             lambda: check_simulate(out / "simulate.csv", model)),
        Step("backtest", ["backtest", *common, "--records", str(p["records"]),
                          "--reserve", str(p["reserve"]), "--salary-scale", str(p["scale"]),
                          "--split-year", "2016", *sim, "--out", str(out / "backtest.csv")],
             lambda: check_backtest(out / "backtest.csv", (2016, 2017))),
    ]


def _project_institution(p, seed, out):
    csv_path = out / "project.csv"
    return [
        Step("project", ["project", "--config", str(p["config"]), "--model", str(p["model"]),
                         "--years", "10", "--out", str(csv_path)],
             lambda: check_project(csv_path, INSTITUTION_I0,
                                   REFERENCE / "project-institution.json")),
    ]


def _cost_institution(p, seed, out):
    csv_path = out / "cost.csv"
    return [
        Step("cost_report", ["cost-report", "--config", str(p["config"]),
                             "--model", str(p["model"]), "--salary-scale", str(p["scale"]),
                             "--years", "3", "--iterations", "100", "--seed", str(seed),
                             "--out", str(csv_path)],
             lambda: check_cost(csv_path)),
    ]


WORKLOADS = {
    "panel-costed": Workload(
        "costed",
        "the only workload that reads a panel: ingest dominates, Monte Carlo runs narrow "
        "(80 labels, many iterations) and backtest prices records one by one",
        _panel_costed,
    ),
    "project-institution": Workload(
        "institution",
        "exact propagation at full label width (8 900 labels): model JSON load and CSV "
        "writing dominate; no ingest and no Monte Carlo",
        _project_institution,
    ),
    "cost-institution": Workload(
        "institution",
        "Monte Carlo in its wide regime: multinomial draws over 8 900 labels, then "
        "per-label pricing",
        _cost_institution,
    ),
}
