"""Random small worlds through every command.

A Hypothesis strategy draws the shape of a `panelgen.WorldSpec` (how many
categories, age and seniority groups, characteristics and panel years,
and the overflow policy) and its dynamics.  Each world's panel is run
through `fit`, `project`, `simulate`, `cost-report` and `backtest`, and
every report is checked against the invariants that hold on any world.
"""

import contextlib
import csv
import io
import math
from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import panelgen
from conftest import write_world_inputs
from markovpop.cli import main

START_YEAR = 2016  # salary costs are anchored at the December 2015 scale
ITERATIONS = 20


def _cuts(draw, lo, hi, parts):
    """`parts` consecutive [a, b) pairs that partition [lo, hi)."""
    inner = sorted(draw(st.sets(st.integers(lo + 1, hi - 1), min_size=parts - 1,
                                max_size=parts - 1)))
    edges = [lo, *inner, hi]
    return [[a, b] for a, b in zip(edges, edges[1:])]


@st.composite
def worlds(draw):
    """(WorldSpec, panel years, projection years) of a small world `panelgen.generate` runs."""
    n_in = draw(st.integers(1, 3))  # in-system categories; one more is out of system
    n_groups = draw(st.integers(1, 3))
    n_ages = draw(st.integers(max(2, n_groups), 8))
    # the census may stop short of the top age: a strict projection then runs that many years
    n_lived = n_ages - draw(st.integers(0, min(2, n_ages - 2)))
    age_min = 16
    age_groups = _cuts(draw, age_min, age_min + n_ages, n_groups)
    # a stay or a hire adds a year of seniority: n_ages of them fit
    seniority_groups = _cuts(draw, 0, n_ages + 1, draw(st.integers(1, 2)))
    chars = [
        {"name": f"k{i}", "levels": [f"l{i}{j}" for j in range(draw(st.integers(1, 3)))]}
        for i in range(draw(st.integers(0, 2)))
    ]
    finance = {"inflation": 0.04}
    if chars:
        finance["bindings"] = {"annuity_pct": {
            "characteristic": chars[0]["name"],
            "levels": {lv: 0.05 * j for j, lv in enumerate(chars[0]["levels"])},
        }}
    config = {
        "categories": ["out", "A", "B", "C"][: n_in + 1],
        "age_min": age_min,
        "age_max": age_min + n_ages,
        "age_groups": age_groups,
        "seniority_max": n_ages + 1,
        "seniority_groups": seniority_groups,
        "working_age_min": age_min,
        "overflow_policy": draw(st.sampled_from(["absorb", "strict"])),
        "characteristics": chars,
        "finance": finance,
    }

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_groups, len(seniority_groups))

    def stochastic(*dims):
        m = rng.random((*dims, n_in)) + 0.05
        return m / m.sum(axis=-1, keepdims=True)

    # hires come from the youngest age group, and enter a year older
    p_hire = np.zeros(shape)
    p_hire[0] = rng.uniform(0.3, 0.8, size=shape[1])
    r = rng.random((n_in, math.prod(len(c["levels"]) for c in chars))) + 0.05
    lived = range(age_min, age_min + n_lived)
    spec = panelgen.WorldSpec(
        config=config,
        census={e: 15 for e in lived},
        monthly=stochastic(*shape, n_in),
        q_stay=rng.uniform(0.6, 0.95, size=(*shape, n_in)),
        p_hire=p_hire,
        hire_ages=(age_groups[0][0], age_groups[0][1] - 1),
        entry=stochastic(*shape),
        r=r / r.sum(axis=1, keepdims=True),
        seed_per_age={e: 8 for e in lived},
        seed_cat_dist=stochastic(),
    )
    return spec, draw(st.integers(2, 4)), draw(st.integers(1, 3))


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _by_year(rows):
    out = defaultdict(list)
    for row in rows:
        out[int(row["year"])].append(row)
    return out


def _check_label_rows(rows, value, declared):
    """Each cell's '*' row, then label rows that name a declared tuple and add up to it."""
    stars, labels = {}, defaultdict(float)
    for row in rows:
        cell = (row["year"], row["category"], row["age_group"], row["seniority_group"])
        if row["characteristic_tuple"] == "*":
            stars[cell] = float(row[value])
        else:
            # a row without a tuple would only repeat its cell's '*' row
            assert row["characteristic_tuple"] in declared, row
            assert cell in stars, row
            labels[cell] += float(row[value])
    for cell, total in labels.items():
        assert math.isclose(total, stars[cell], rel_tol=1e-9, abs_tol=1e-9), cell
    return stars


def _check_cost_rows(rows):
    """Per year, the '*' cost row is the sum of its cell rows within rounding."""
    for year, block in _by_year(rows).items():
        *cells, star = block
        assert star["category"] == "*" and all(r["category"] != "*" for r in cells), year
        for column in ("expected_cost", "sim_mean_cost"):
            total = sum(float(r[column]) for r in cells)
            # each cell and the total are rounded to whole units
            assert abs(float(star[column]) - total) <= 0.5 * len(cells) + 1.0, (year, column)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(world=worlds())
def test_random_small_worlds_keep_every_report_invariant(tmp_path_factory, world):
    spec, n_years, horizon = world
    base = tmp_path_factory.mktemp("world")
    panel = panelgen.generate(spec, start_year=START_YEAR, n_years=n_years, seed=1)
    scale = {c: 1000.0 * k for k, c in enumerate(spec.config["categories"][1:], 1)}
    paths = write_world_inputs(spec, panel, base, scale=scale)
    cfg = panel.cfg
    declared = {cfg.characteristics.label(t) for t in cfg.characteristics.all_tuples() if t}
    model, out = base / "model.json", {c: base / f"{c}.csv" for c in
                                       ("project", "simulate", "cost-report", "backtest")}
    common = ["--config", str(paths["config"])]
    drawn = ["--iterations", str(ITERATIONS), "--seed", "5"]
    assert main(["fit", *common, "--records", str(paths["records"]),
                 "--reserve", str(paths["reserve"]), "--out", str(model)]) == 0
    trials = round(panel.i0)
    years = ["--years", str(horizon)]
    runs = {
        "project": [*common, "--model", str(model), *years],
        "simulate": [*common, "--model", str(model), *years, *drawn],
        "cost-report": [*common, "--model", str(model), "--salary-scale",
                        str(paths["scale"]), *years, *drawn],
        "backtest": [*common, "--records", str(paths["records"]), "--reserve",
                     str(paths["reserve"]), "--salary-scale", str(paths["scale"]),
                     "--split-year", str(START_YEAR + n_years - 1), *drawn],
    }
    for command, argv in runs.items():
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            rc = main([command, *argv, "--out", str(out[command])])
        err = stderr.getvalue()
        if command == "backtest" and n_years == 2:  # one fit year holds no year boundary
            assert rc == 2, err
            assert f"no year boundary before the split year {START_YEAR + 1}" in err, err
            continue
        # only a strict projection that ages mass past the top may fail, and only so
        if rc != 0:
            assert rc == 1 and cfg.overflow_policy == "strict", err
            assert "overflow" in err and err.count("\n") == 1, err
            assert not out[command].exists()
            continue
        rows = _rows(out[command])
        if command == "project":
            for year, block in _by_year(rows).items():
                stars = _check_label_rows(block, "probability", declared)
                assert math.isclose(sum(stars.values()), 1.0, abs_tol=1e-9), year
        elif command == "simulate":
            for year, block in _by_year(rows).items():
                stars = _check_label_rows(block, "mean", declared)
                assert math.isclose(sum(stars.values()), trials, rel_tol=1e-9), year
        else:
            _check_cost_rows(rows)
