"""YAML run-configuration loading, its one schema and its validation messages."""

import contextlib
import io
import pathlib
import re
import string

import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import panelgen
from markovpop import config
from markovpop.cli import main
from markovpop.config import build_run_config, load_run_config
from markovpop.errors import ConfigError
from test_worlds import worlds

DEMO = pathlib.Path(__file__).resolve().parent.parent / "demo"
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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
    assert cfg.finance is None
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
        ({"characteristics": [{"name": "g"}]}, "missing required key 'characteristics[0].levels'"),
        ({"characteristics": [{"name": "g", "levels": [1, 2]}]}, "list of strings"),
        ({"finance": ["x"]}, "finance"),
    ],
)
def test_rejections(patch, message):
    raw = {**base_raw(), **patch}
    with pytest.raises(ConfigError, match=re.escape(message)):
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


def test_every_problem_is_listed_once_by_its_full_path():
    raw = {
        **base_raw(), "full_time_hour": 30, "overflow_polcy": "absorb",
        "characteristics": [{"name": "g", "levles": ["x"]}],
        "finance": {"inflaton": 0.04, "bindings": {"annuity_pt": {}}},
    }
    with pytest.raises(ConfigError) as err:
        build_run_config(raw)
    assert err.value.problems == [
        "unknown key 'full_time_hour' (did you mean 'full_time_hours'?)",
        "unknown key 'overflow_polcy' (did you mean 'overflow_policy'?)",
        "unknown key 'characteristics[0].levles' (did you mean 'characteristics[0].levels'?)",
        "missing required key 'characteristics[0].levels'",
        "unknown key 'finance.inflaton' (did you mean 'finance.inflation'?)",
        "unknown key 'finance.bindings.annuity_pt' (did you mean 'finance.bindings.annuity_pct'?)",
    ]
    assert str(err.value).startswith("invalid configuration\n  - unknown key 'full_time_hour'")


def test_a_key_far_from_every_known_one_gets_no_hint():
    with pytest.raises(ConfigError) as err:
        build_run_config({**base_raw(), "zzz": 1})
    assert err.value.problems == ["unknown key 'zzz'"]


def test_a_check_across_keys_runs_once_its_own_keys_passed():
    # another key's problem does not hide the partition's
    raw = {**base_raw(), "age_groups": [[16, 19], [18, 20]], "iterations": 0}
    with pytest.raises(ConfigError) as err:
        build_run_config(raw)
    assert err.value.problems == [
        "iterations must be a positive integer (got 0)",
        "age_groups: overlap at 18 (previous group ends at 19)",
    ]
    # but a key that failed its own check is not checked against the others
    raw = {**base_raw(), "categories": "out", "age_min": "16",
           "stopping_time_pmf_overrides": {"Z": [1.0] + [0] * 11},
           "finance": {"bindings": {"annuity_pct": {"characteristic": "g", "levels": {}}}},
           "characteristics": [{"name": "g", "levels": "x"}]}
    with pytest.raises(ConfigError) as err:
        build_run_config(raw)
    assert err.value.problems == [
        "categories must be a list of strings (got 'out')",
        "age_min must be an integer (got '16')",
        "characteristics[0].levels must be a list of strings (got 'x')",
    ]


@pytest.mark.parametrize("empty", [None, {}])
def test_an_empty_section_is_an_absent_one(empty):
    raw = {**base_raw(), "stopping_time_pmf_overrides": empty, "characteristics": None}
    assert build_run_config({**raw, "finance": empty}).finance is None
    schedule, profiles = build_run_config({**raw, "finance": {"bindings": empty}}).finance
    assert schedule.inflation == 0.0388 and profiles == [{}, {}]


def test_every_config_the_repository_ships_or_generates_loads():
    for name in ("config.yaml", "config-institution.yaml"):
        load_run_config(DEMO / name)
    for make in (panelgen.make_recovery_world, panelgen.make_costed_world,
                 panelgen.make_mini_world):
        build_run_config(yaml.safe_load(yaml.safe_dump(make().config)))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(worlds())
def test_every_random_small_world_config_loads(world):
    build_run_config(yaml.safe_load(yaml.safe_dump(world[0].config)))


def _schema_paths(node, path=()):
    """The path of every schema key in `node`; a binding's level names are data, not keys."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            if isinstance(node, dict):
                yield (*path, key)
            if key != "levels":
                yield from _schema_paths(value, (*path, key))


def _full(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


DEMO_CONFIG = yaml.safe_load((DEMO / "config.yaml").read_text())
DEMO_PATHS = list(_schema_paths(DEMO_CONFIG))


@st.composite
def misspellings(draw):
    """(path, new key): one schema key of `demo/config.yaml` renamed by one edit."""
    path = draw(st.sampled_from(DEMO_PATHS))
    key, kind = path[-1], draw(st.sampled_from(["insert", "delete", "replace"]))
    at = draw(st.integers(0, len(key) - (kind != "insert")))
    char = draw(st.sampled_from(string.ascii_lowercase + "_"))
    new = key[:at] + (char if kind != "delete" else "") + key[at + (kind != "insert"):]
    return path, new


@settings(derandomize=True, deadline=None, max_examples=60)
@given(misspellings())
@example((("overflow_policy",), "overflow_polcy"))
@example((("finance", "inflation"), "inflaton"))
@example((("characteristics", 0, "levels"), "level"))
def test_a_key_renamed_by_one_edit_is_an_error_that_names_it(tmp_path_factory, misspelling):
    path, new = misspelling
    raw = yaml.safe_load((DEMO / "config.yaml").read_text())
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    assume(new not in parent)
    parent[new] = parent.pop(path[-1])
    cfg = tmp_path_factory.mktemp("config") / "config.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    argv = ["fit", "--config", str(cfg), "--records", str(DEMO / "records.csv"),
            "--reserve", str(DEMO / "reserve.csv"), "--out", str(cfg.with_name("model.json"))]
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        assert main(argv) == 1
    assert f"unknown key {_full((*path[:-1], new))!r}" in stderr.getvalue()


def test_the_readme_lists_every_key_of_the_schema_once():
    section = README.read_text().split("\n## Configuration\n")[1].split("\n## ")[0]
    listed = re.findall(r"^- `([^`]+)`", section, re.M)
    keys = [key for key, _, _ in config.TOP]
    keys += [f"characteristics[].{key}" for key, _, _ in config.CHARACTERISTIC]
    keys += [f"finance.{key}" for key, _, _ in config.FINANCE]
    keys += [f"finance.bindings.{key}" for key, _, _ in config.BINDINGS]
    keys += [f"finance.bindings.<field>.{key}"
             for key, _, _ in config.PERCENT_BINDING + config.REGIME_BINDING]
    assert len(listed) == len(set(listed))
    assert set(listed) == set(keys)
