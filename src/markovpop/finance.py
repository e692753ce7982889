"""Payroll cost formulas, employer rate schedules and full-time cost tables.

The projected gross salary cost anchors on a December 2015 base salary
scale and inflates it at a fixed yearly rate; the employer total adds
the school-board levy, the pension contribution for the person's regime,
social security, severance accrual, the year-end bonus month and the
occupational insurance premium.  Rate schedules are piecewise constant
in the calendar year.

Characteristic bindings resolve to profile fields once per tuple code,
and :func:`full_time_costs` prices one full-time worker per (category,
tuple code) as one array expression.  Counts are full-time equivalents,
so finance holds no hours and no binding sets the workload.

All currency math stays in double precision; rounding to whole currency
units happens only when reports are written.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .config import is_number
from .errors import ConfigError, DataError
from .ingest import csv_rows, finite_float
from .states import CharacteristicSpace

BASE_YEAR = 2016  # first projectable calendar year; the scale is Dec 2015


class PensionRegime(str, enum.Enum):
    IVM = "IVM"
    JUPEMA_CAPITALIZACION = "JUPEMA_CAPITALIZACION"
    JUPEMA_REPARTO = "JUPEMA_REPARTO"


# School-board levy by calendar year.
ESCOLAR_RATES = ((2015, 0.0819), (2016, 0.0823), (2017, 0.0828), (2018, 0.0833))

# Employer pension contribution for the IVM regime, by calendar year band.
IVM_RATES = (
    (2014, 0.0492),
    (2019, 0.0508),
    (2024, 0.0525),
    (2029, 0.0542),
    (2034, 0.0558),
    (2100, 0.0575),
)

JUPEMA_CAPITALIZACION_RATE = 0.0675
JUPEMA_REPARTO_RATE = 0.05

SOCIAL_SECURITY_RATE = 0.1425
SEVERANCE_RATE = 0.0425
YEAR_END_BONUS_RATE = 0.0833  # one extra month, accrued monthly
INSURANCE_RATE = 0.0025
SUPPLEMENT_COVERAGE = 0.90  # scale salaries cover this share of the true base


@dataclass(frozen=True)
class RateSchedule:
    """Inflation plus the statutory employer rates."""

    inflation: float = 0.0388

    def escolar_rate(self, year: int) -> float:
        """School-board levy for a calendar year (>= 2000)."""
        if year < 2000:
            raise ConfigError(f"school-board levy undefined before 2000 (got {year})")
        for upto, rate in ESCOLAR_RATES[:-1]:
            if year <= upto:
                return rate
        return ESCOLAR_RATES[-1][1]

    def employer_pension_rate(self, regime: PensionRegime, year: int) -> float:
        regime = PensionRegime(regime)
        if regime is PensionRegime.JUPEMA_CAPITALIZACION:
            return JUPEMA_CAPITALIZACION_RATE
        if regime is PensionRegime.JUPEMA_REPARTO:
            return JUPEMA_REPARTO_RATE
        for upto, rate in IVM_RATES:
            if year <= upto:
                return rate
        return IVM_RATES[-1][1]


# -- mapping characteristic tuples to profiles -------------------------

_PCT_FIELDS = (
    "annuity_pct",
    "exclusive_dedication_pct",
    "prohibition_pct",
    "availability_pct",
)


def parse_finance_config(raw: dict, chars: CharacteristicSpace):
    """Parse the finance section into (schedule, profiles).

    Each binding maps the levels of one characteristic to the values of a
    percentage field or the pension regime.  `profiles[k]` holds the bound
    fields of tuple code k; code 0, an unsplit cell, binds none and keeps
    the defaults (percentages 0, regime IVM).  Full-time hours are not a
    finance key: finance prices one full-time worker.
    """
    if "full_time_hours" in raw:
        raise ConfigError(
            "finance.full_time_hours is not a finance key; set the top-level "
            "full_time_hours instead"
        )
    inflation = raw.get("inflation", 0.0388)
    if not is_number(inflation):
        raise ConfigError(f"finance.inflation must be a number (got {inflation!r})")
    if inflation <= -1:
        raise ConfigError(f"finance.inflation must be greater than -1 (got {inflation!r})")
    schedule = RateSchedule(inflation=float(inflation))

    bindings_raw = raw.get("bindings") or {}
    if not isinstance(bindings_raw, dict):
        raise ConfigError("finance.bindings must be a mapping")
    bound = {}
    for fld, spec in bindings_raw.items():
        if fld == "workload_hours":
            raise ConfigError(
                "finance.bindings.workload_hours: counts are full-time equivalents (FTE); "
                "workload comes from the records, and every label is priced at full time"
            )
        if fld not in _PCT_FIELDS and fld != "pension_regime":
            raise ConfigError(f"finance.bindings: unknown profile field {fld!r}")
        if not isinstance(spec, dict) or "characteristic" not in spec or "levels" not in spec:
            raise ConfigError(
                f"finance.bindings.{fld}: need 'characteristic' and 'levels'"
            )
        if not isinstance(spec["levels"], dict):
            raise ConfigError(f"finance.bindings.{fld}.levels must map level names to values")
        ci = chars.index_of(spec["characteristic"])
        levels = chars.levels[ci]
        mapped = {}
        for level_name, value in spec["levels"].items():
            if level_name not in levels:
                raise ConfigError(
                    f"finance.bindings.{fld}: {spec['characteristic']!r} has no "
                    f"level {level_name!r}"
                )
            if fld != "pension_regime" and not is_number(value):
                msg = f"level {level_name!r} must be a finite number"
                raise ConfigError(f"finance.bindings.{fld}: {msg}")
            mapped[levels.index(level_name)] = value
        missing = [lv for i, lv in enumerate(levels) if i not in mapped]
        if missing:
            raise ConfigError(
                f"finance.bindings.{fld}: unmapped levels {missing} of "
                f"{spec['characteristic']!r}"
            )
        convert = float if fld in _PCT_FIELDS else PensionRegime
        try:
            bound[fld] = (ci, {i: convert(v) for i, v in mapped.items()})
        except ValueError as exc:
            raise ConfigError(f"finance.bindings.{fld}: {exc}") from None
    profiles = [{}] + [
        {fld: values[t[ci]] for fld, (ci, values) in bound.items()} for t in chars.all_tuples()
    ]
    return schedule, profiles


def load_salary_scale(path, space) -> dict[int, float]:
    """Load the per-category base salary scale (header: category,base_salary)."""
    problems = []
    scale: dict[int, float] = {}
    for i, row in csv_rows(path, "salary scale", ("category", "base_salary"), problems):
        code = (row["category"] or "").strip()
        if code not in space.categories:
            problems.append(f"row {i}: unknown category code {code!r}")
            continue
        idx = space.categories.index(code)
        if idx == 0:
            problems.append(f"row {i}: the out-of-system category has no salary")
            continue
        try:
            w = finite_float(row["base_salary"])
        except (TypeError, ValueError):
            problems.append(
                f"row {i}: non-numeric base_salary {row['base_salary']!r} (need a finite number)"
            )
            continue
        if w < 0:
            problems.append(f"row {i}: negative base_salary at {code!r}")
            continue
        if idx in scale:
            problems.append(f"row {i}: duplicate category {code!r}")
            continue
        scale[idx] = w
    if problems:
        raise DataError(f"salary scale {path} is invalid", problems)
    return scale


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported below
def full_time_costs(
    year: int,
    n_categories: int,
    scale: dict[int, float],
    profiles: list[dict],
    schedule: RateSchedule,
) -> np.ndarray:
    """Yearly employer cost of one full-time worker per (category, tuple code).

    The gross salary is two six-month blocks of the December 2015 base,
    at mid-year and at full next-year inflation depth, times the
    supplements over the coverage of the scale; the employer charges of
    the module docstring multiply it.  `profiles` holds the bound profile
    fields per tuple code (see :func:`parse_finance_config`).  Row 0, the
    out-of-system category, is zero.  Counts are full-time equivalents,
    so a count times its entry here is its cost; see README.
    """
    if year < BASE_YEAR:
        raise ConfigError(
            f"salary cost is anchored at the December 2015 scale; "
            f"year {year} is before {BASE_YEAR}"
        )
    missing = [c for c in range(1, n_categories) if c not in scale]
    if missing:
        raise ConfigError(f"category index {missing[0]} has no salary scale entry")
    rise = 1.0 + schedule.inflation
    try:
        growth = rise ** (year - 2016 + 0.5) + rise ** (year - 2015)
    except OverflowError:  # float ** raises instead of returning inf
        growth = np.inf
    base = np.array([scale[c] for c in range(1, n_categories)])[:, None]
    pct = {f: np.array([p.get(f, 0.0) for p in profiles]) for f in _PCT_FIELDS}
    supplements = 1.0 + pct["annuity_pct"] + pct["exclusive_dedication_pct"] + (
        pct["prohibition_pct"] + pct["availability_pct"]
    )
    pension = np.array([
        schedule.employer_pension_rate(p.get("pension_regime", PensionRegime.IVM), year)
        for p in profiles
    ])
    g = np.zeros((n_categories, len(profiles)))
    g[1:] = (
        6.0 * base * growth * supplements / SUPPLEMENT_COVERAGE
        * (1.0 + schedule.escolar_rate(year))
        * ((1.0 + pension + SOCIAL_SECURITY_RATE + SEVERANCE_RATE) + YEAR_END_BONUS_RATE)
        * (1.0 + INSURANCE_RATE)
    )
    if not np.isfinite(g).all():
        raise DataError(
            f"employer costs for year {year} are not finite; "
            "check the salary scale and finance.inflation"
        )
    return g
