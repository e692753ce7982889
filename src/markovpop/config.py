"""Run configuration file loading.

The config file is YAML: scalars, lists and one nested mapping per
section.  See README for the full schema.  The state-space section is
validated by :func:`markovpop.states.validate_config`; the finance
section is kept raw here and interpreted by :mod:`markovpop.finance`
only for the commands that need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import yaml

from .errors import ConfigError
from .states import CharacteristicSpace, StateSpaceConfig, validate_config

DEFAULT_ITERATIONS = 10_000
OVERFLOW_POLICIES = ("strict", "absorb")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs apart from the input data files."""

    space: StateSpaceConfig
    characteristics: CharacteristicSpace
    full_time_hours: float = 40.0
    stopping_time_pmf: tuple[float, ...] = tuple([1.0 / 12.0] * 12)
    stopping_time_overrides: dict[str, tuple[float, ...]] = field(default_factory=dict)
    overflow_policy: str = "strict"
    iterations: int = DEFAULT_ITERATIONS
    finance_raw: dict = field(default_factory=dict)


def is_number(value) -> bool:
    """Whether a parsed config value is a finite int or float (bools are not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _parse_pmf(values, where: str) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)) or len(values) != 12:
        raise ConfigError(f"{where}: need exactly 12 monthly probabilities")
    pmf = []
    for i, v in enumerate(values):
        if not is_number(v) or v < 0:
            raise ConfigError(f"{where}: entry {i + 1} must be a non-negative number")
        pmf.append(float(v))
    total = sum(pmf)
    if not abs(total - 1.0) <= 1e-9:
        raise ConfigError(f"{where}: probabilities sum to {total!r}, expected 1")
    return tuple(pmf)


def _parse_characteristics(raw) -> CharacteristicSpace:
    if raw is None:
        return CharacteristicSpace((), ())
    if not isinstance(raw, list):
        raise ConfigError("characteristics must be a list of {name, levels} entries")
    names, levels = [], []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "name" not in entry or "levels" not in entry:
            raise ConfigError(f"characteristics[{i}]: need 'name' and 'levels'")
        lv = entry["levels"]
        if not isinstance(lv, list) or not all(isinstance(x, str) for x in lv):
            raise ConfigError(f"characteristics[{i}]: levels must be a list of strings")
        names.append(str(entry["name"]))
        levels.append(tuple(lv))
    return CharacteristicSpace(tuple(names), tuple(levels))


def load_run_config(path) -> RunConfig:
    """Load and validate a YAML run configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from None
    except yaml.YAMLError as exc:
        # yaml errors carry the offending line/column in their message
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: top level must be a mapping")
    return build_run_config(raw)


def build_run_config(raw: dict) -> RunConfig:
    space = validate_config(raw)
    characteristics = _parse_characteristics(raw.get("characteristics"))

    full_time = raw.get("full_time_hours", 40)
    if not is_number(full_time) or full_time <= 0:
        raise ConfigError(f"full_time_hours must be a positive number (got {full_time!r})")

    pmf = (
        _parse_pmf(raw["stopping_time_pmf"], "stopping_time_pmf")
        if "stopping_time_pmf" in raw
        else tuple([1.0 / 12.0] * 12)
    )
    overrides_raw = raw.get("stopping_time_pmf_overrides") or {}
    if not isinstance(overrides_raw, dict):
        raise ConfigError(
            "stopping_time_pmf_overrides must map category codes to 12 probabilities"
        )
    overrides = {}
    for code, values in overrides_raw.items():
        code = str(code)
        if code not in space.categories or code == space.categories[0]:
            raise ConfigError(
                f"stopping_time_pmf_overrides: {code!r} is not an in-system category"
            )
        overrides[code] = _parse_pmf(values, f"stopping_time_pmf_overrides[{code}]")

    policy = raw.get("overflow_policy", "strict")
    if policy not in OVERFLOW_POLICIES:
        raise ConfigError(
            f"overflow_policy must be one of {OVERFLOW_POLICIES} (got {policy!r})"
        )

    iterations = raw.get("iterations", DEFAULT_ITERATIONS)
    if not isinstance(iterations, int) or isinstance(iterations, bool) or iterations < 1:
        raise ConfigError(f"iterations must be a positive integer (got {iterations!r})")

    finance_raw = raw.get("finance") or {}
    if not isinstance(finance_raw, dict):
        raise ConfigError("finance section must be a mapping")

    return RunConfig(
        space=space,
        characteristics=characteristics,
        full_time_hours=float(full_time),
        stopping_time_pmf=pmf,
        stopping_time_overrides=overrides,
        overflow_policy=policy,
        iterations=iterations,
        finance_raw=finance_raw,
    )
