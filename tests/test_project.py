"""Yearly propagation: the one-step law, overflow policies, aggregation."""

import csv
import itertools
import pathlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from markovpop.config import load_run_config
from markovpop.errors import HorizonError
from markovpop.project import (
    LabelIndex,
    _age,
    cell_sums,
    distribution_at_year,
    group_probabilities,
    projection,
    propagate_distribution,
)
from markovpop.reports import RunManifest, write_projection_csv

from conftest import make_random_model, make_toy_space, make_wide_space
from reference import (
    Triple,
    age_by_add_at,
    age_by_shift,
    cell_sums_by_column,
    one_step_triple_probability,
    propagate_by_allocation,
)
from test_model import make_chars

INSTITUTION = pathlib.Path(__file__).resolve().parent.parent / "demo" / "config-institution.yaml"


def test_one_step_law_cases():
    model = make_random_model(make_toy_space(), seed=20)
    q = model.q1[(0, 0)]
    t = model.transition_operator(0, 0)

    frm = Triple(1, 1, 1)
    # in-system target: operator entry times membership probability
    assert one_step_triple_probability(frm, Triple(2, 2, 2), model) == pytest.approx(
        t[1, 2] * q[1]
    )
    assert one_step_triple_probability(frm, Triple(1, 2, 2), model) == pytest.approx(
        t[1, 1] * q[1]
    )
    # leaving keeps seniority
    assert one_step_triple_probability(frm, Triple(0, 2, 1), model) == pytest.approx(
        1.0 - q[1]
    )
    # hires come through the entry row of the operator
    out = Triple(0, 1, 1)
    assert one_step_triple_probability(out, Triple(2, 2, 2), model) == pytest.approx(
        t[0, 2] * q[0]
    )
    assert one_step_triple_probability(out, Triple(0, 2, 1), model) == pytest.approx(
        1.0 - q[0]
    )

    # everything else is zero: wrong age step, wrong seniority step
    assert one_step_triple_probability(frm, Triple(2, 1, 2), model) == 0.0
    assert one_step_triple_probability(frm, Triple(2, 3, 2), model) == 0.0
    assert one_step_triple_probability(frm, Triple(2, 2, 1), model) == 0.0
    assert one_step_triple_probability(frm, Triple(2, 2, 0), model) == 0.0
    assert one_step_triple_probability(frm, Triple(0, 2, 2), model) == 0.0
    assert one_step_triple_probability(frm, Triple(0, 2, 0), model) == 0.0


def test_propagation_conserves_mass_under_absorb():
    model = make_random_model(make_toy_space(), seed=21)
    _, tables = projection(model, 5, policy="absorb")
    for k in range(6):
        d = distribution_at_year(model.pi, model, k, policy="absorb")
        assert tables[k].year == model.base_year + k
        assert d.sum() == pytest.approx(1.0, abs=1e-12)


def test_strict_policy_rejects_age_overflow():
    model = make_random_model(make_toy_space(), seed=22)
    pi = np.zeros_like(model.pi)
    pi[1, 3, 1] = 0.25  # mass at the top age
    pi[2, 3, 0] = 0.5
    with pytest.raises(HorizonError) as err:
        propagate_distribution(pi, model, 2023)
    assert str(err.value) == (
        "age overflow: mass 0.75 at the top age 3 cannot age further (year 2023); "
        "shorten the horizon or set overflow_policy: absorb"
    )

    # the horizon check fires before any stepping
    pi = np.zeros_like(model.pi)
    pi[1, 2, 1] = 1.0
    with pytest.raises(HorizonError) as err:
        distribution_at_year(pi, model, 2)
    assert str(err.value) == (
        "age overflow: initial mass at age 2 cannot be projected 2 years within [0,4); "
        "shorten the horizon or set overflow_policy: absorb"
    )
    assert distribution_at_year(pi, model, 1).sum() == pytest.approx(1.0, abs=1e-12)


def test_strict_policy_rejects_seniority_overflow():
    model = make_random_model(make_toy_space(), seed=23)
    pi = np.zeros_like(model.pi)
    pi[1, 0, 2] = 1.0  # top seniority; entering next year would overflow
    with pytest.raises(HorizonError, match="seniority overflow"):
        propagate_distribution(pi, model, 2016)

    # the message names the cell of the youngest age with such mass
    pi = np.zeros_like(model.pi)
    pi[1, 2, 2] = 0.5  # age group 1
    pi[0, 1, 2] = 0.5  # age group 0: an out-of-system person hired next year
    with pytest.raises(HorizonError) as err:
        propagate_distribution(pi, model, 2020)
    assert str(err.value) == (
        "seniority overflow: in-system mass at the top seniority 2 (cell 0,1, year 2020); "
        "shorten the horizon or set overflow_policy: absorb"
    )


def test_absorb_clamps_top_cell():
    model = make_random_model(make_toy_space(), seed=24)
    pi = np.zeros_like(model.pi)
    pi[1, 3, 2] = 1.0  # top age and top seniority at once
    propagate_distribution(pi, model, 2016, policy="absorb")  # in place
    q = model.q1[(1, 1)][1]
    t = model.transition_operator(1, 1)
    assert pi[0, 3, 2] == pytest.approx(1.0 - q)
    for c in (1, 2):
        assert pi[c, 3, 2] == pytest.approx(q * t[1, c])
    assert pi.sum() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("policy", ["strict", "absorb"])
def test_aging_matches_np_add_at_bit_for_bit(policy):
    rng = np.random.default_rng(31)
    # 97 ages and 72 seniorities: the width of demo/config-institution.yaml
    for n_ages, n_sen in itertools.product((1, 2, 3, 97), (1, 2, 3, 72)):
        shape = (5, n_ages, n_sen)
        moved = rng.random(shape) * 10.0 ** rng.integers(-12, 1, shape)
        if policy == "strict":  # its checks leave the clamped sources no mass
            moved[:, -1] = 0.0
            moved[1:, :, -1] = 0.0
        before = moved.copy()  # _age overwrites its argument
        _age(moved)
        for expected in (age_by_add_at(before), age_by_shift(before)):
            np.testing.assert_array_equal(moved.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("policy", ["strict", "absorb"])
def test_the_in_place_step_matches_the_allocating_step_bit_for_bit(policy):
    space = load_run_config(INSTITUTION).space  # 38 categories, 97 ages, 72 seniorities
    model = make_random_model(space, seed=33)
    if policy == "strict":  # no mass reaches the top age or seniority within 10 years
        model.pi[:, -11:] = 0.0
        model.pi[:, :, -11:] = 0.0
    pi = model.pi.copy()
    labels, tables = projection(model, 10, policy)
    years = [distribution_at_year(model.pi, model, n, policy) for n in range(11)]
    assert model.pi.tobytes() == pi.tobytes()
    for (i, a), (j, b) in itertools.combinations(enumerate(years), 2):
        assert not np.shares_memory(a, b), (i, j)
    expected = pi
    for year, (dist, table) in enumerate(zip(years, tables, strict=True)):
        assert table.year == model.base_year + year
        assert dist.tobytes() == expected.tobytes(), year
        p = group_probabilities(expected, model)
        assert table.p.tobytes() == p.tobytes(), year
        assert table.probs.tobytes() == labels.split(p).tobytes(), year
        expected = propagate_by_allocation(expected, model)


def test_projection_holds_one_year_at_a_time():
    model = make_random_model(make_wide_space(), seed=32)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        projection(model, 10, "absorb")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one working copy of pi is stepped in place; eleven years held would be 11 times pi
    assert peak <= 2 * model.pi.nbytes, f"{peak / model.pi.nbytes:.2f} times pi"


def test_negative_horizon_rejected():
    model = make_random_model(make_toy_space(), seed=25)
    with pytest.raises(HorizonError, match=">= 0"):
        distribution_at_year(model.pi, model, -1)


def test_group_probabilities_aggregate_and_split():
    space = make_toy_space()
    model = make_random_model(space, make_chars(), seed=26, with_r=True)
    labels = LabelIndex.build(model)
    p = group_probabilities(model.pi, model)
    table = SimpleNamespace(p=p, probs=labels.split(p))

    # block sums match direct aggregation
    assert table.p[1, 0, 0] == pytest.approx(model.pi[1, 0:2, 0:2].sum())
    assert table.p[2, 1, 1] == pytest.approx(model.pi[2, 2:4, 2:3].sum())
    assert table.p.sum() == pytest.approx(1.0, abs=1e-12)

    # labels cover every category/cell pair; splits preserve the cell mass
    n_cells = table.p.size
    np.testing.assert_array_equal(np.unique(labels.cell_id), np.arange(n_cells))
    np.testing.assert_allclose(
        np.bincount(labels.cell_id, table.probs), table.p.ravel(), rtol=0, atol=1e-12
    )
    out = labels.category == 0
    assert np.all(labels.tuple_code[out] == 0) and np.all(labels.weight[out] == 1.0)
    assert np.all(labels.tuple_code[~out] > 0)  # every in-system cell splits
    assert len(labels.cell_id) == 4 + 2 * 4 * 6  # 6 tuples per in-system cell
    for j in np.flatnonzero(~out):
        c, ei, ai = np.unravel_index(labels.cell_id[j], table.p.shape)
        assert c == labels.category[j]
        assert table.probs[j] == table.p[c, ei, ai] * model.r[c, ei, ai, labels.tuple_code[j]]


def test_group_probabilities_flag_unsplit_cells():
    model = make_random_model(make_toy_space(), seed=27)  # no r fitted at all
    labels = LabelIndex.build(model)
    p = group_probabilities(model.pi, model)
    table = SimpleNamespace(p=p, probs=labels.split(p))
    # one aggregate label (tuple code 0) per cell, carrying the whole mass
    np.testing.assert_array_equal(labels.tuple_code, 0)
    np.testing.assert_array_equal(labels.cell_id, np.arange(table.p.size))
    np.testing.assert_array_equal(table.probs, table.p.ravel())
    unsplit = (labels.category > 0) & (labels.tuple_code == 0) & (table.probs > 0.0)
    assert unsplit.sum() == 8  # every in-system cell holds mass


def test_label_order_is_year_invariant():
    model = make_random_model(make_toy_space(), make_chars(), seed=28, with_r=True)
    model.r[1, 0, 0] = 0.0  # unobserved cell contributes a lone aggregate label
    labels, tables = projection(model, 2, policy="absorb")
    keys = list(zip(labels.cell_id, labels.tuple_code))
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    cat, eg, sg = np.unravel_index(labels.cell_id, model.r.shape[:-1])
    assert np.array_equal(cat, labels.category)
    lone = np.flatnonzero((cat == 1) & (eg == 0) & (sg == 0))
    assert len(lone) == 1 and labels.tuple_code[lone[0]] == 0
    assert labels.tuples[0] is None
    assert labels.tuples[1:] == tuple(model.characteristics.all_tuples())

    # every year is a probability vector over the same labels
    for table in tables:
        assert table.probs.shape == labels.cell_id.shape
        assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)
    d2 = distribution_at_year(model.pi, model, 2, policy="absorb")
    np.testing.assert_array_equal(labels.split(group_probabilities(d2, model)), tables[2].probs)


def test_cell_sums_add_label_columns_per_cell():
    model = make_random_model(make_toy_space(), make_chars(), seed=30, with_r=True)
    model.r[2, 1, 0] = 0.0
    labels = LabelIndex.build(model)
    draws = np.arange(3 * len(labels.cell_id)).reshape(3, -1)
    sums = cell_sums(draws, labels.bounds)
    assert sums.shape == (3, 12) and sums.dtype == draws.dtype
    for cell in range(12):
        cols = np.flatnonzero(labels.cell_id == cell)
        np.testing.assert_array_equal(sums[:, cell], draws[:, cols].sum(axis=1))
    np.testing.assert_array_equal(labels.in_system_cells, np.arange(12) >= 4)


@pytest.mark.parametrize("shape", [(200, 37), (1, 5), (64,)])
@pytest.mark.parametrize("first", [0, 3])
@pytest.mark.parametrize("seed", range(4))
def test_integer_cell_sums_match_the_column_loop_bit_for_bit(shape, first, seed):
    rng = np.random.default_rng(seed)
    n = shape[-1]
    # cells of 1 to 4 labels, many of them of one label, counted from label `first`
    sizes = rng.choice([1, 1, 2, 3, 4], size=n)
    bounds = first + np.r_[0, np.cumsum(sizes)]
    bounds = bounds[bounds <= first + n]
    # columns past the last cell, if any, are not summed
    values = rng.integers(-2**31, 2**31, size=shape, dtype=np.int32)
    got = cell_sums(values, bounds)
    want = cell_sums_by_column(values, bounds)
    assert got.dtype == np.int32 and got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)


def test_expected_populations_scale_by_i0(tmp_path):
    model = make_random_model(make_toy_space(), make_chars(), seed=29, i0=437.3, with_r=True)
    labels, tables = projection(model, 3, policy="absorb")
    path = tmp_path / "project.csv"
    write_projection_csv(path, RunManifest.collect("test", {}, {}), model, labels, tables)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert {row["year"] for row in rows} == {"2016", "2017", "2018", "2019"}
    for row in rows:  # each count is its probability times i0, bit for bit
        assert float(row["expected_count"]) == float(row["probability"]) * model.i0, row
    for year in ("2016", "2019"):
        counts = [float(r["expected_count"]) for r in rows
                  if r["year"] == year and r["characteristic_tuple"] == "*"]
        assert sum(counts) == pytest.approx(model.i0, abs=1e-9)
