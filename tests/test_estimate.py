"""Estimator arithmetic on hand-built counts cubes."""

from dataclasses import replace

import numpy as np
import pytest

from markovpop.config import build_run_config
from markovpop.errors import DataError
from markovpop.estimate import (
    annualize_transitions,
    estimate_characteristic_distribution,
    estimate_entry_categories,
    estimate_entry_probabilities,
    estimate_initial_distribution,
    estimate_monthly_transitions,
    fit_model,
)
from markovpop.ingest import CountsCube, build_counts, parse_records


def small_cfg():
    return build_run_config(
        {
            "categories": ["out", "A", "B"],
            "age_min": 16,
            "age_max": 20,
            "age_groups": [[16, 18], [18, 20]],
            "seniority_max": 2,
            "seniority_groups": [[0, 2]],
            "working_age_min": 18,
            "characteristics": [{"name": "g", "levels": ["x", "y"]}],
        }
    )


def empty_cube(calendar, q_years=(), i0=0.0):
    """A zero cube of small_cfg's shape over the ascending (year, month) pairs `calendar`."""
    months = tuple(y * 12 + mm - 1 for y, mm in calendar)
    flow_months = tuple(m for m in months if m + 1 in months)
    m, f, y = len(months), len(flow_months), len(q_years)
    cells = (2, 1)  # age groups, seniority groups
    return CountsCube(
        months=months,
        flow_months=flow_months,
        q_years=tuple(q_years),
        group_totals=np.zeros((m, *cells, 3)),
        flows=np.zeros((f, *cells, 3, 3)),
        char_counts=np.zeros((m, 3, *cells, 3)),
        stay_exit=np.zeros((y, *cells, 3, 2)),
        hires=np.zeros((y, *cells)),
        entry_cats=np.zeros((y, *cells, 3)),
        latest=np.zeros((12, 3, 4, 2)),
        i0=i0,
    )


def test_monthly_transitions_average_per_month_ratios():
    cfg = small_cfg()
    cube = empty_cube([(2020, 11), (2020, 12), (2021, 1)])
    # cell (1, 0), category A over two month pairs (month indices 0 and 1):
    #   month -2: 10 at risk, 2 exits -> denom 8, flows A->A 4, A->B 4
    #   month -1: 20 at risk, 0 exits, flows A->A 15, A->B 5
    cube.group_totals[0, 1, 0, 1] = 10.0
    cube.flows[0, 1, 0, 1, 0] = 2.0
    cube.flows[0, 1, 0, 1, 1] = 4.0
    cube.flows[0, 1, 0, 1, 2] = 4.0
    cube.group_totals[1, 1, 0, 1] = 20.0
    cube.flows[1, 1, 0, 1, 1] = 15.0
    cube.flows[1, 1, 0, 1, 2] = 5.0
    # category B: only one usable month; the other has denom 0 (all exit)
    cube.group_totals[0, 1, 0, 2] = 5.0
    cube.flows[0, 1, 0, 2, 0] = 5.0
    cube.group_totals[1, 1, 0, 2] = 4.0
    cube.flows[1, 1, 0, 2, 2] = 3.0
    cube.flows[1, 1, 0, 2, 0] = 1.0

    matrices, diag = estimate_monthly_transitions(cube, cfg)
    got = matrices[(1, 0)]
    np.testing.assert_allclose(got[0], [(0.5 + 0.75) / 2, (0.5 + 0.25) / 2])
    np.testing.assert_allclose(got[1], [0.0, 1.0])
    # untouched cell: identity fallback, one flag per row
    np.testing.assert_array_equal(matrices[(0, 0)], np.eye(2))
    assert [0, 0, 1] in diag["unobserved_transition_rows"]
    assert [0, 0, 2] in diag["unobserved_transition_rows"]
    assert diag["renormalized_transition_rows"] == []


def test_monthly_transitions_renormalize_leaky_rows():
    cfg = small_cfg()
    cube = empty_cube([(2020, 12), (2021, 1)])
    # 10 at risk but only 5 accounted for: the row leaks half its mass
    cube.group_totals[0, 1, 0, 1] = 10.0
    cube.flows[0, 1, 0, 1, 1] = 5.0
    matrices, diag = estimate_monthly_transitions(cube, cfg)
    np.testing.assert_allclose(matrices[(1, 0)][0], [1.0, 0.0])
    rows = [entry[:3] for entry in diag["renormalized_transition_rows"]]
    assert [1, 0, 1] in rows


def test_monthly_transitions_need_consecutive_months():
    cfg = small_cfg()
    cube = empty_cube([(2020, 11), (2021, 1)])
    with pytest.raises(DataError, match="consecutive"):
        estimate_monthly_transitions(cube, cfg)


def test_annualize_matches_matrix_powers():
    cfg = small_cfg()
    m = np.array([[0.9, 0.1], [0.2, 0.8]])
    pmf = np.full(12, 1.0 / 12.0)
    annual, diag = annualize_transitions({(1, 0): m}, pmf, {}, cfg)
    want = sum(np.linalg.matrix_power(m, t) for t in range(1, 13)) / 12.0
    np.testing.assert_allclose(annual[(1, 0)], want, atol=1e-15)
    assert diag["renormalized_annual_cells"] == []

    # degenerate pmf picks out a single power
    point = np.zeros(12)
    point[11] = 1.0
    annual, _ = annualize_transitions({(1, 0): m}, point, {}, cfg)
    np.testing.assert_allclose(annual[(1, 0)], np.linalg.matrix_power(m, 12), atol=1e-15)


def test_annualize_override_replaces_column_then_renormalizes():
    cfg = small_cfg()
    m = np.array([[0.9, 0.1], [0.2, 0.8]])
    base = np.zeros(12)
    base[11] = 1.0
    over = np.zeros(12)
    over[0] = 1.0
    annual, diag = annualize_transitions({(1, 0): m}, base, {"B": over}, cfg)
    raw = np.linalg.matrix_power(m, 12).copy()
    raw[:, 1] = m[:, 1]
    want = raw / raw.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(annual[(1, 0)], want, atol=1e-15)
    assert diag["renormalized_annual_cells"][0][:2] == [1, 0]


def test_annualize_rejects_short_pmf():
    cfg = small_cfg()
    with pytest.raises(DataError, match="12 entries"):
        annualize_transitions({(1, 0): np.eye(2)}, np.full(6, 1 / 6), {}, cfg)


def test_entry_probabilities_average_yearly_ratios():
    cfg = small_cfg()
    cube = empty_cube(
        [(2020, 12), (2021, 12), (2022, 1)],
        q_years=(2021, 2022),
    )
    # in-system: stay 3 / exit 1 in 2021, then 1 / 1 in 2022
    cube.stay_exit[0, 1, 0, 1] = [3.0, 1.0]
    cube.stay_exit[1, 1, 0, 1] = [1.0, 1.0]
    # out of system: 2 hires out of a reserve of 10 (December 2020, month
    # index 0), then 8 out of 5 (December 2021, month index 1)
    cube.group_totals[0, 1, 0, 0] = 10.0
    cube.hires[0, 1, 0] = 2.0
    cube.group_totals[1, 1, 0, 0] = 5.0
    cube.hires[1, 1, 0] = 8.0

    q1, diag = estimate_entry_probabilities(cube, cfg)
    vec = q1[(1, 0)]
    assert vec[0] == pytest.approx((2.0 / 10.0 + 8.0 / 8.0) / 2)
    assert vec[1] == pytest.approx((0.75 + 0.5) / 2)
    assert vec[2] == 0.0
    assert [1, 0, 2] in diag["unobserved_q_cells"]
    assert diag["hires_exceeding_reserve"] == [[2022, 1, 0, 8.0, 5.0]]


def test_entry_probabilities_preconditions():
    cfg = small_cfg()
    cube = empty_cube([(2022, 1)], q_years=())
    with pytest.raises(DataError, match="year boundary"):
        estimate_entry_probabilities(cube, cfg)


def test_entry_categories_average_normalized_years():
    cfg = small_cfg()
    cube = empty_cube([(2022, 1)], q_years=(2021, 2022))
    cube.entry_cats[0, 1, 0, 1] = 3.0
    cube.entry_cats[0, 1, 0, 2] = 1.0
    cube.entry_cats[1, 1, 0, 1] = 1.0
    entry, diag = estimate_entry_categories(cube, cfg)
    np.testing.assert_allclose(entry[(1, 0)], [(0.75 + 1.0) / 2, 0.125])
    np.testing.assert_allclose(entry[(0, 0)], [0.5, 0.5])
    assert [0, 0] in diag["unobserved_entry_cells"]


def test_characteristic_distribution_averages_monthly_shares():
    cfg = small_cfg()
    cube = empty_cube([(2021, 12), (2022, 1)])
    x, y = cfg.characteristics.code((0,)), cfg.characteristics.code((1,))
    cube.char_counts[0, 1, 1, 0, x] = 3.0
    cube.char_counts[0, 1, 1, 0, y] = 1.0
    cube.char_counts[1, 1, 1, 0, x] = 1.0
    cube.char_counts[1, 1, 1, 0, y] = 1.0
    r, diag = estimate_characteristic_distribution(cube, cfg)
    assert r.shape == (3, 2, 1, 3)
    assert r[1, 1, 0, x] == pytest.approx((0.75 + 0.5) / 2)
    assert r[1, 1, 0, y] == pytest.approx((0.25 + 0.5) / 2)
    assert r[1, 1, 0, 0] == 0.0  # code 0 is no observed tuple
    assert not r[2, 1, 0].any()  # an unobserved cell cannot be split
    assert [2, 1, 0] in diag["unobserved_r_cells"]


def test_initial_distribution_needs_a_full_year():
    cfg = small_cfg()
    calendar = [(2021, mm) for mm in range(1, 13)]
    cube = empty_cube(calendar, i0=12.0)
    cube.latest[:, 1, 18 - 16, 0] = 6.0
    cube.latest[:, 0, 16 - 16, 0] = 6.0
    pi = estimate_initial_distribution(cube, cfg)
    assert pi.shape == (3, 4, 2)
    assert pi[1, 2, 0] == pytest.approx(0.5)
    assert pi.sum() == pytest.approx(1.0)

    with pytest.raises(DataError, match="census totals and panel disagree"):
        estimate_initial_distribution(replace(cube, i0=13.0), cfg)
    short = empty_cube(calendar[6:], i0=12.0)
    missing = "missing months: 2021-01, 2021-02, 2021-03, 2021-04, 2021-05, 2021-06$"
    with pytest.raises(DataError, match=missing):
        estimate_initial_distribution(short, cfg)


def test_fit_model_assembles_all_parts(tmp_path):
    import panelgen

    spec = panelgen.make_mini_world()
    panel = panelgen.generate(spec, 2014, 2, seed=5)
    path = tmp_path / "records.csv"
    panel.write_records_csv(path)
    cfg = spec.run_config()
    records = parse_records(path, cfg)
    cube = build_counts(records, panel.census(), cfg)
    model = fit_model(cube, cfg)

    assert model.base_year == 2015
    assert model.i0 == sum(panel.census().tolist())  # added in age order
    assert set(model.monthly) == set(cfg.space.cells())
    assert set(model.annual) == set(cfg.space.cells())
    for cell in cfg.space.cells():
        assert model.q1[cell].shape == (3,)
        assert model.entry[cell].shape == (2,)
    for key in (
        "unobserved_transition_rows",
        "renormalized_transition_rows",
        "renormalized_annual_cells",
        "unobserved_q_cells",
        "hires_exceeding_reserve",
        "unobserved_entry_cells",
        "unobserved_r_cells",
        "warnings",
    ):
        assert key in model.diagnostics
