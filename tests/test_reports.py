"""Reports: the bulk label writers reproduce the row-by-row ones byte for byte, the
block-wise cost reduction reproduces the whole-matrix one bit for bit, and cost-report
and backtest price a cell alike."""

import csv
import dataclasses
import pathlib
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from markovpop.cli import main
from markovpop.config import load_run_config
from markovpop.estimate import fit_model
from markovpop.ingest import (
    build_counts,
    load_reserve_csv,
    load_salary_scale,
    parse_records,
    split_records,
)
from markovpop import montecarlo, reports
from markovpop.model import FittedModel
from markovpop.montecarlo import simulate_projection
from markovpop.project import projection
from markovpop.reports import (
    RunManifest,
    _cell_costs,
    cell_costs,
    observed_totals,
    summaries,
    write_backtest_csv,
    write_cost_csv,
    write_projection_csv,
    write_simulation_csv,
)
from markovpop.states import CharacteristicSpace, StateSpaceConfig

import panelgen
from conftest import finance_of, make_random_model, write_world_inputs
from reference import (
    cost_rows_by_matrix,
    stacked,
    write_cost_csv_by_matrix,
    write_projection_csv_by_row,
    write_simulation_csv_by_row,
)

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
def test_bulk_writers_match_the_row_by_row_writers(tmp_path, monkeypatch, which):
    model = _demo_model(tmp_path) if which == "demo" else _quoted_model()
    labels, tables = projection(model, 4, "absorb")
    probs = {t.year: t.probs for t in tables[1:]}

    def simulate(reduce):
        return list(simulate_projection(
            probs, model.i0, 50, seed=3, bounds=labels.bounds, reduce=reduce
        ))

    years = simulate(stacked)
    manifest = RunManifest.collect("test", {}, {"years": 4})
    if which == "quoted":
        # both skip rules have something to skip
        assert (tables[0].p == 0.0).any()
        tiny = labels.cell_id[(labels.weight > 0.0) & (labels.weight < 1e-9)]
        assert tiny.size and (tables[1].p.ravel()[tiny] > 0.0).all()
        assert years[0][0] == model.base_year + 1
        assert not years[0][1][:, labels.weight < 1e-9].any()

    # the bulk simulation writer takes each year's block summaries, the row writer its matrix
    summarized = []
    for width in (montecarlo.BLOCK_LABELS, 2):
        monkeypatch.setattr(montecarlo, "BLOCK_LABELS", width)
        summarized.append(simulate(partial(summaries, labels.bounds)))
    for new, old, new_data, old_data in (
        (write_projection_csv, write_projection_csv_by_row, tables, tables),
        (write_simulation_csv, write_simulation_csv_by_row, summarized[0], years),
        (write_simulation_csv, write_simulation_csv_by_row, summarized[1], years),
    ):
        old(tmp_path / "old.csv", manifest, model, labels, old_data)
        expected = (tmp_path / "old.csv").read_bytes()
        for rows in (reports._SLICE_ROWS, 3):  # a year in one slice, and cut into many
            monkeypatch.setattr(reports, "_SLICE_ROWS", rows)
            new(tmp_path / "new.csv", manifest, model, labels, new_data)
            assert (tmp_path / "new.csv").read_bytes() == expected, rows
        if which == "quoted":
            assert b'"A,1"' in expected and b'"B""q"' in expected
            assert b'"x,y/ lead"' in expected and 'Dé'.encode() in expected


def test_the_label_writer_holds_a_slice_of_rows_not_a_year(tmp_path, monkeypatch):
    import tracemalloc

    cfg = load_run_config(DEMO / "config-institution.yaml")  # 8 900 labels, 9 660 rows a year
    model = make_random_model(cfg.space, cfg.characteristics, seed=0, with_r=True)
    labels, tables = projection(model, 1, "absorb")
    manifest = RunManifest.collect("test", {}, {})

    def peak():
        tracemalloc.start()
        try:
            write_projection_csv(tmp_path / "project.csv", manifest, model, labels, tables)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rows = reports._SLICE_ROWS
    monkeypatch.setattr(reports, "_SLICE_ROWS", 1)
    fixed = peak()  # the row keys and the row layout, with one row's text at a time
    monkeypatch.setattr(reports, "_SLICE_ROWS", rows)
    sliced = peak()
    # a slice's row text, its values and their list entries take about 230 bytes a row;
    # a year rendered whole took 2.4 MB beyond `fixed`
    assert sliced <= fixed + 400 * rows, f"{(sliced - fixed) / rows:.0f} bytes a row"


def _pricing(which, model):
    """(salary scale, profiles, schedule) for `demo/` or for `_quoted_model`."""
    if which == "demo":
        cfg = load_run_config(DEMO / "config.yaml")
        schedule, profiles = cfg.finance
        return load_salary_scale(DEMO / "salary_scale.csv", cfg.space), profiles, schedule
    bindings = {"annuity_pct": {"characteristic": "band", "levels": {"x,y": 0.0, '"q"': 0.12}}}
    schedule, profiles = finance_of({"bindings": bindings}, model.characteristics)
    return {1: 400000.0, 2: 650000.0, 3: 512345.5, 4: 333333.0}, profiles, schedule


@pytest.mark.parametrize("which", ["demo", "quoted"])
def test_cost_report_matches_the_whole_matrix_algorithm(tmp_path, monkeypatch, which):
    model = _demo_model(tmp_path) if which == "demo" else _quoted_model()
    labels, tables = projection(model, 4, "absorb")
    probs = {t.year: t.probs for t in tables[1:]}
    pricing = _pricing(which, model)
    manifest = RunManifest.collect("test", {}, {"years": 4})
    # over one iteration a reduction of the cells is one column, which numpy sums pairwise
    for iterations in (1, 2, 50):
        old = list(cost_rows_by_matrix(model, labels, tables, pricing, iterations, 3))
        assert max(len(kept) for _, kept, _ in old) > 3  # enough cells for the order to show
        write_cost_csv_by_matrix(tmp_path / "old.csv", manifest, model, old)
        for width in (montecarlo.BLOCK_LABELS, 2):
            monkeypatch.setattr(montecarlo, "BLOCK_LABELS", width)
            reduce = cell_costs(model, labels, tables, *pricing)
            new = list(simulate_projection(
                probs, model.i0, iterations, 3, bounds=labels.bounds, reduce=reduce
            ))
            for (year, (_, costs, shown)), (old_year, kept, values) in zip(new, old, strict=True):
                assert (year, shown.tolist()) == (old_year, kept.tolist())
                # every bit, not only the whole units the report rounds to
                assert costs[np.append(shown, -1)].tobytes() == values.tobytes(), (year, width)
            write_cost_csv(tmp_path / "new.csv", manifest, model, new)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_costing_a_year_holds_under_its_cell_cost_matrix(tmp_path):
    import tracemalloc

    iterations, n_labels = 2000, 4000
    bounds = np.arange(0, n_labels + 1, 4)  # 4 labels a cell: 1 000 cells
    cells = len(bounds) - 1
    groups = tuple((k, k + 1) for k in range(10))
    space = StateSpaceConfig(
        categories=tuple(f"c{k}" for k in range(10)), age_min=0, age_max=10, age_groups=groups,
        seniority_max=10, seniority_groups=groups, working_age_min=0,
    )
    assert space.n_categories * space.n_age_groups * space.n_seniority_groups == cells
    probs = np.random.default_rng(0).random(n_labels)
    probs /= probs.sum()
    # every cell shown, so the report picks the most rows it can
    priced = np.linspace(1.0, 2.0, n_labels), np.zeros(cells), np.ones(cells, dtype=bool)
    manifest = RunManifest.collect("test", {}, {})
    tracemalloc.start()
    try:
        years = simulate_projection(
            {1: probs}, 100_000, iterations, 1, bounds=bounds,
            reduce=partial(_cell_costs, bounds, {1: priced}),
        )
        write_cost_csv(tmp_path / "cost.csv", manifest, SimpleNamespace(space=space), years)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = cells * iterations * 8  # the year's float64 cost per cell and iteration: 16 MB
    assert peak < matrix, f"costing one year peaked at {peak / matrix:.2f} of its cost matrix"


def _cell_rows(path):
    """Rows of a cell report by (year, category, age group, seniority group), '*' rows left out."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    rows = csv.DictReader(lines)
    keys = ("year", "category", "age_group", "seniority_group")
    return {tuple(r[k] for k in keys): r for r in rows if r["category"] != "*"}


def test_cost_report_and_backtest_price_a_cell_alike(tmp_path):
    # one model, projection, simulation and pricing for both reports, over two held-out years
    spec = panelgen.make_mini_world()
    panel = panelgen.generate(spec, start_year=2014, n_years=5, seed=5)
    paths = write_world_inputs(spec, panel, tmp_path, scale=panelgen.MINI_SALARY_SCALE)
    cfg = load_run_config(paths["config"])
    fit_records, holdout = split_records(parse_records(paths["records"], cfg), 2017)
    census = load_reserve_csv(paths["reserve"], cfg.space)
    model = fit_model(build_counts(fit_records, census, cfg), cfg)
    labels, tables = projection(model, int(holdout.month[-1]) // 12 - model.base_year, "absorb")
    probs = {t.year: t.probs for t in tables[1:]}
    schedule, profiles = cfg.finance
    pricing = load_salary_scale(paths["scale"], cfg.space), profiles, schedule
    manifest = RunManifest.collect("test", {}, {})
    reports = model, labels, tables
    reduce = cell_costs(*reports, *pricing)
    # each writer takes its own stream of the same draws: one seed, drawn twice
    cost_years = simulate_projection(probs, model.i0, 200, 7, bounds=labels.bounds, reduce=reduce)
    write_cost_csv(tmp_path / "cost.csv", manifest, model, cost_years)
    observed = observed_totals(holdout, cfg, *pricing)
    backtest_years = simulate_projection(
        probs, model.i0, 200, 7, bounds=labels.bounds, reduce=reduce
    )
    write_backtest_csv(tmp_path / "backtest.csv", manifest, *reports, backtest_years, observed)

    cost, backtest = _cell_rows(tmp_path / "cost.csv"), _cell_rows(tmp_path / "backtest.csv")
    assert {key[:2] for key in cost} == {(y, c) for y in ("2017", "2018") for c in "AB"}
    assert set(cost) <= set(backtest)
    for key, row in backtest.items():
        # a cell the cost report leaves out has no expected mass and no draws
        want = cost.get(key, {"expected_cost": "0", "sim_mean_cost": "0"})
        assert (row["expected_cost"], row["sim_mean_cost"]) == (
            want["expected_cost"], want["sim_mean_cost"]
        ), key
