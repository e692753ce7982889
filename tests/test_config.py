"""YAML run-configuration loading and its validation messages."""

import pytest
import yaml

from markovpop.config import build_run_config, load_run_config
from markovpop.errors import ConfigError


def base_raw():
    return {
        "categories": ["out", "A", "B"],
        "age_min": 16,
        "age_max": 20,
        "age_groups": [[16, 18], [18, 20]],
        "seniority_max": 2,
        "seniority_groups": [[0, 2]],
        "working_age_min": 18,
    }


def test_defaults():
    cfg = build_run_config(base_raw())
    assert cfg.full_time_hours == 40.0
    assert cfg.stopping_time_pmf == tuple([1.0 / 12.0] * 12)
    assert cfg.stopping_time_overrides == {}
    assert cfg.overflow_policy == "strict"
    assert cfg.iterations == 10_000
    assert cfg.finance_raw == {}
    assert cfg.characteristics.names == ()


def test_explicit_values():
    raw = base_raw()
    raw["full_time_hours"] = 48
    raw["overflow_policy"] = "absorb"
    raw["iterations"] = 500
    raw["stopping_time_pmf"] = [0.5, 0.5] + [0] * 10
    raw["stopping_time_pmf_overrides"] = {"B": [0] * 11 + [1]}
    raw["characteristics"] = [{"name": "g", "levels": ["x", "y"]}]
    cfg = build_run_config(raw)
    assert cfg.full_time_hours == 48.0
    assert cfg.overflow_policy == "absorb"
    assert cfg.iterations == 500
    assert cfg.stopping_time_pmf[:2] == (0.5, 0.5)
    assert cfg.stopping_time_overrides["B"][11] == 1.0
    assert cfg.characteristics.names == ("g",)


@pytest.mark.parametrize(
    "patch,message",
    [
        ({"full_time_hours": 0}, "full_time_hours"),
        ({"full_time_hours": "forty"}, "full_time_hours"),
        ({"overflow_policy": "wrap"}, "overflow_policy"),
        ({"iterations": 0}, "iterations"),
        ({"iterations": 2.5}, "iterations"),
        ({"stopping_time_pmf": [1.0]}, "exactly 12"),
        ({"stopping_time_pmf": [0.5] * 12}, "sum to"),
        ({"stopping_time_pmf": [-1.0] + [2.0 / 11] * 11}, "non-negative"),
        ({"stopping_time_pmf_overrides": {"out": [1.0] + [0] * 11}}, "in-system"),
        ({"stopping_time_pmf_overrides": {"Z": [1.0] + [0] * 11}}, "in-system"),
        ({"characteristics": "gender"}, "characteristics"),
        ({"characteristics": [{"name": "g"}]}, "'name' and 'levels'"),
        ({"characteristics": [{"name": "g", "levels": [1, 2]}]}, "list of strings"),
        ({"finance": ["x"]}, "finance"),
    ],
)
def test_rejections(patch, message):
    raw = {**base_raw(), **patch}
    with pytest.raises(ConfigError, match=message):
        build_run_config(raw)


def test_load_run_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_run_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("categories: [out\n")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_run_config(bad)
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("42\n")
    with pytest.raises(ConfigError, match="top level must be a mapping"):
        load_run_config(scalar)


def test_load_run_config_round_trip(tmp_path):
    path = tmp_path / "config.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(base_raw(), fh)
    cfg = load_run_config(path)
    assert cfg.space.categories == ("out", "A", "B")
    assert cfg.space.n_ages == 4
