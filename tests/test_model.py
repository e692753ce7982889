"""Fitted model serialization, operators, and compatibility checks."""

import json

import numpy as np
import pytest

from markovpop.errors import ConfigError, DataError
from markovpop.model import FittedModel
from markovpop.states import CharacteristicSpace, StateSpaceConfig

from conftest import make_random_model, make_toy_space


def make_chars():
    return CharacteristicSpace(names=("g", "h"), levels=(("x", "y"), ("u", "v", "w")))


def test_json_round_trip_is_exact(tmp_path):
    model = make_random_model(make_toy_space(), make_chars(), seed=12, with_r=True)
    model.stopping_time_overrides = {"X": tuple(np.eye(12)[3])}
    model.diagnostics = {"warnings": ["w1"], "unobserved_q_cells": [[0, 1, 2]]}
    path = tmp_path / "model.json"
    model.save(path)
    back = FittedModel.load(path)

    assert back.space == model.space
    assert back.characteristics == model.characteristics
    assert back.i0 == model.i0
    assert back.base_year == model.base_year
    assert back.full_time_hours == model.full_time_hours
    assert back.stopping_time_pmf == model.stopping_time_pmf
    assert back.stopping_time_overrides == model.stopping_time_overrides
    assert np.array_equal(back.pi, model.pi)
    for cell in model.space.cells():
        assert np.array_equal(back.monthly[cell], model.monthly[cell])
        assert np.array_equal(back.annual[cell], model.annual[cell])
        assert np.array_equal(back.entry[cell], model.entry[cell])
        assert np.array_equal(back.q1[cell], model.q1[cell])
    np.testing.assert_array_equal(back.r, model.r)
    assert back.diagnostics == model.diagnostics
    # and serializing again produces the same bytes
    assert back.to_json() == model.to_json()


def test_transition_operator_structure():
    model = make_random_model(make_toy_space(), seed=3)
    op = model.transition_operator(1, 0)
    assert op.shape == (3, 3)
    np.testing.assert_array_equal(op[:, 0], 0.0)
    np.testing.assert_array_equal(op[0, 1:], model.entry[(1, 0)])
    np.testing.assert_array_equal(op[1:, 1:], model.annual[(1, 0)])


def test_r_json_holds_nonzero_codes_per_in_system_cell(tmp_path):
    model = make_random_model(make_toy_space(), make_chars(), seed=4, with_r=True)
    model.r[1, 0, 0] = 0.0  # a cell that cannot be split
    model.r[2, 1, 1, model.characteristics.code((1, 2))] = 0.0  # a tuple never observed
    r = model.to_json_dict()["r"]
    assert sorted(r) == [f"{c}|{ei},{ai}" for c in (1, 2) for ei in (0, 1) for ai in (0, 1)]
    assert r["1|0,0"] == {}
    assert "1,2" not in r["2|1,1"] and len(r["2|1,1"]) == 5
    assert r["2|1,1"]["0,1"] == model.r[2, 1, 1, model.characteristics.code((0, 1))]

    # a negative category would wrap around in the array
    path = tmp_path / "model.json"
    for key in ("0|0,0", "-1|0,0", "1|2,0"):
        doc = model.to_json_dict()
        doc["r"][key] = {}
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="not an in-system cell"):
            FittedModel.load(path)


def test_load_rejects_bad_files(tmp_path):
    with pytest.raises(DataError, match="not found"):
        FittedModel.load(tmp_path / "missing.json")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        FittedModel.load(bad)

    model = make_random_model(make_toy_space(), seed=1)
    doc = model.to_json_dict()
    doc["format"] = "something-else"
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="format marker"):
        FittedModel.load(wrong)

    doc = model.to_json_dict()
    doc["version"] = 99
    wrong.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="unsupported version"):
        FittedModel.load(wrong)

    doc = model.to_json_dict()
    doc["annual"]["1,0"] = [[1.0]]
    wrong.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="has shape"):
        FittedModel.load(wrong)

    # schema problems are data errors, not raw Python exceptions
    first = doc["pi"][0]
    for section, damage, match in (
        ("annual", None, "missing field 'annual'"),
        ("pi", [[1, 0]], "malformed field"),
        ("pi", [[-1, *first[1:]]], "does not index the state space"),
        ("pi", [[first[0], -1, *first[2:]]], "does not index the state space"),
        ("pi", [first, first], "twice"),
        ("pi", [[*first[:3], -0.5]], "negative"),
        ("pi", [[*first[:3], 0.5]], "pi sums to 0.5"),
        ("r", {"1|0,0": {"0,7": 1.0}}, "undeclared tuple"),
    ):
        doc = model.to_json_dict()
        if damage is None:
            del doc[section]
        else:
            doc[section] = damage
        wrong.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=match):
            FittedModel.load(wrong)


def test_check_against_flags_mismatches():
    space = make_toy_space()
    chars = make_chars()
    model = make_random_model(space, chars, seed=2, with_r=True)
    model.check_against(space, chars)
    model.check_against(space, chars, 40.0)

    other = StateSpaceConfig(
        categories=space.categories,
        age_min=space.age_min,
        age_max=space.age_max + 1,
        age_groups=((0, 2), (2, 5)),
        seniority_max=space.seniority_max,
        seniority_groups=space.seniority_groups,
        working_age_min=space.working_age_min,
    )
    with pytest.raises(ConfigError, match="different state space"):
        model.check_against(other, chars)
    with pytest.raises(ConfigError, match="characteristic declarations"):
        model.check_against(space, CharacteristicSpace(("g",), (("x", "y"),)))
    with pytest.raises(ConfigError, match="full-time equivalents at 40 hours"):
        model.check_against(space, chars, 48.0)
