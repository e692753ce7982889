"""Run configuration: one schema for every key of the config file.

Each mapping of the YAML file is one table of (key, check, default) rows.
One walker checks every level, collects every problem, and names each by
its full path, a key outside its table too.  An absent key takes its
default, written as the file would write it and checked like it.  The
checks that read several keys run once those keys passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import yaml

from .errors import ConfigError, reading
from .finance import PCT_FIELDS, PensionRegime, RateSchedule, bind_profiles
from .states import CharacteristicSpace, StateSpaceConfig

OVERFLOW_POLICIES = ("strict", "absorb")
REGIMES = tuple(regime.value for regime in PensionRegime)
REQUIRED = object()  # the default of a key that must be given

RETIRED = {  # keys that are gone, and what to do instead
    "finance.full_time_hours": "finance.full_time_hours is not a finance key; set the "
    "top-level full_time_hours instead",
    "finance.bindings.workload_hours": "finance.bindings.workload_hours: counts are full-time "
    "equivalents (FTE); workload comes from the records, and every label is priced at full time",
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs apart from the input data files."""

    space: StateSpaceConfig
    characteristics: CharacteristicSpace
    full_time_hours: float
    stopping_time_pmf: tuple[float, ...]
    stopping_time_overrides: dict[str, tuple[float, ...]]
    overflow_policy: str
    iterations: int
    # (rate schedule, bound profile fields per tuple code); None without a finance section
    finance: tuple[RateSchedule, list[dict]] | None


def is_number(value) -> bool:
    """Whether a parsed config value is a finite int or float (bools are not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is(test, what, convert=lambda value: value):
    """A check: a value that passes `test`, converted, else a problem saying it must be `what`."""

    def check(value, where):
        if not test(value):
            raise ConfigError(f"{where} must be {what} (got {value!r})")
        return convert(value)

    return check


def _pmf(values, where) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)) or len(values) != 12:
        raise ConfigError(f"{where}: need exactly 12 monthly probabilities")
    for i, v in enumerate(values):
        if not is_number(v) or v < 0:
            raise ConfigError(f"{where}: entry {i + 1} must be a non-negative number")
    pmf = tuple(map(float, values))
    if not abs(sum(pmf) - 1.0) <= 1e-9:
        raise ConfigError(f"{where}: probabilities sum to {sum(pmf)!r}, expected 1")
    return pmf


def _map(what, check):
    """A check: a map of data keys (such as level names), each to a value that passes `check`."""

    def check_map(value, where):
        if value is not None and not isinstance(value, dict):
            raise ConfigError(f"{where} must map {what} (got {value!r})")
        return {str(key): check(v, f"{where}[{key}]") for key, v in (value or {}).items()}

    return check_map


def _section(table):
    """A check: a mapping walked by `table`; null or {} is no section, None."""

    def check(value, where):
        problems = []
        values = None if value in (None, {}) else _walk(value, table, where, problems)
        if problems:
            raise ConfigError(where, problems)
        return values

    return check


def _characteristics(value, where) -> CharacteristicSpace:
    value = [] if value is None else value
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of {{name, levels}} entries (got {value!r})")
    problems = []
    entries = [_walk(e, CHARACTERISTIC, f"{where}[{i}]", problems) for i, e in enumerate(value)]
    if problems:
        raise ConfigError(where, problems)
    return CharacteristicSpace(*(tuple(e[key] for e in entries) for key in ("name", "levels")))


def _list_of(kind):
    return lambda v: isinstance(v, (list, tuple)) and all(isinstance(x, kind) for x in v)


STRING = _is(lambda v: isinstance(v, str), "a string")
STRINGS = _is(_list_of(str), "a list of strings", tuple)
INTEGER = _is(lambda v: type(v) is int, "an integer")
PAIRS = _is(_list_of((list, tuple)), "a list of [lo, hi) pairs", lambda v: tuple(map(tuple, v)))

SPACE = (
    ("categories", STRINGS, REQUIRED),
    ("age_min", INTEGER, REQUIRED),
    ("age_max", INTEGER, REQUIRED),
    ("age_groups", PAIRS, REQUIRED),
    ("seniority_max", INTEGER, REQUIRED),
    ("seniority_groups", PAIRS, REQUIRED),
    ("working_age_min", INTEGER, REQUIRED),
)
CHARACTERISTIC = (("name", STRING, REQUIRED), ("levels", STRINGS, REQUIRED))
# the table of one finance.bindings.<field>, by the check of the values its levels bind
PERCENT_BINDING, REGIME_BINDING = (
    (("characteristic", STRING, REQUIRED),
     ("levels", _map("level names to values", bound), REQUIRED))
    for bound in (
        _is(is_number, "a finite number", float),
        _is(lambda v: v in REGIMES, f"one of {REGIMES}", PensionRegime),
    )
)
BINDINGS = tuple((field, _section(PERCENT_BINDING), None) for field in PCT_FIELDS) + (
    ("pension_regime", _section(REGIME_BINDING), None),
)
FINANCE = (
    ("inflation", _is(lambda v: is_number(v) and v > -1, "a number greater than -1", float),
     RateSchedule.inflation),
    ("bindings", _section(BINDINGS), None),
)
TOP = SPACE + (
    ("full_time_hours", _is(lambda v: is_number(v) and v > 0, "a positive number", float), 40),
    ("stopping_time_pmf", _pmf, [1.0 / 12.0] * 12),
    ("stopping_time_pmf_overrides", _map("category codes to 12 probabilities", _pmf), {}),
    ("overflow_policy", _is(lambda v: v in OVERFLOW_POLICIES, f"one of {OVERFLOW_POLICIES}"),
     "strict"),
    ("iterations", _is(lambda v: type(v) is int and v >= 1, "a positive integer"), 10_000),
    ("characteristics", _characteristics, []),
    ("finance", _section(FINANCE), None),
)


def _unknown(prefix, key, known) -> str:
    import difflib  # loaded only for a key outside its table

    near = difflib.get_close_matches(key, known, n=1)
    hint = f" (did you mean {prefix + near[0]!r}?)" if near else ""
    return f"unknown key {prefix + key!r}{hint}"


def _walk(raw, table, where, problems) -> dict:
    """Each key of `table`, checked, from mapping `raw` or from its default.

    A key that is missing, fails its check or is unknown adds a problem that
    names its full path; a key that fails is left out of the result.
    """
    if not isinstance(raw, dict):
        problems.append(f"{where or 'top level'} must be a mapping (got {type(raw).__name__})")
        return {}
    prefix = f"{where}." if where else ""
    known = [key for key, _, _ in table]
    for key in map(str, raw):
        if key not in known:
            problems.append(RETIRED.get(prefix + key) or _unknown(prefix, key, known))
    values = {}
    for key, check, default in table:
        if key not in raw and default is REQUIRED:
            problems.append(f"missing required key {prefix + key!r}")
            continue
        try:
            values[key] = check(raw.get(key, default), prefix + key)
        except ConfigError as exc:
            problems.extend(exc.problems or [exc.args[0]])
    return values


def _space(values, problems) -> StateSpaceConfig | None:
    """The state space of checked `values`, once each of its keys passed."""
    if all(key in values for key, _, _ in SPACE):
        try:
            return StateSpaceConfig(**{key: values[key] for key, _, _ in SPACE})
        except ConfigError as exc:
            problems.extend(exc.problems)
    return None


def parse_space(raw) -> StateSpaceConfig:
    """The state space of a model file's ``space``, which holds the :data:`SPACE` keys alone."""
    problems = []
    space = _space(_walk(raw, SPACE, "space", problems), problems)
    if problems:
        raise ConfigError("invalid state space configuration", problems)
    return space


def build_run_config(raw) -> RunConfig:
    """The run configuration of a parsed config file; every problem in it fails at once."""
    problems = []
    values = _walk(raw, TOP, "", problems)
    space = _space(values, problems)
    overrides, chars = values.get("stopping_time_pmf_overrides"), values.get("characteristics")
    for code in overrides or ():
        if "categories" in values and code not in values["categories"][1:]:
            problems.append(f"stopping_time_pmf_overrides: {code!r} is not an in-system category")
    finance = section = values.get("finance")
    if section and chars is not None:
        try:
            finance = RateSchedule(section["inflation"]), bind_profiles(section["bindings"], chars)
        except ConfigError as exc:
            problems.append(exc.args[0])
    if problems:
        raise ConfigError("invalid configuration", problems)
    return RunConfig(
        space=space, characteristics=chars, full_time_hours=values["full_time_hours"],
        stopping_time_pmf=values["stopping_time_pmf"], stopping_time_overrides=overrides,
        overflow_policy=values["overflow_policy"], iterations=values["iterations"],
        finance=finance,
    )


class _UniqueKeyLoader(yaml.SafeLoader):
    """YAML's safe loader, but a key its mapping already has is an error, not an override."""

    def compose_mapping_node(self, anchor):  # the keys as written: a `<<` merge may be overridden
        node, seen = super().compose_mapping_node(anchor), {}
        for k in (key for key, _ in node.value if isinstance(key, yaml.ScalarNode)):
            if seen.setdefault((k.tag, k.value), k) is not k:
                raise yaml.MarkedYAMLError(None, None, f"repeated key {k.value!r}", k.start_mark)
        return node


def load_run_config(path) -> RunConfig:
    """Load and validate a YAML run configuration file."""
    try:
        with reading(path, "config file", ConfigError), open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, _UniqueKeyLoader)
    except yaml.YAMLError as exc:  # its message names the offending line and column
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
    except (RecursionError, ValueError) as exc:  # nested too deep, or an integer too long
        raise ConfigError(f"config file {path} cannot be decoded: {exc}") from None
    return build_run_config(raw)
