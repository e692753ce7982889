"""Payroll cost formulas, employer rate schedules and full-time cost tables.

The projected gross salary cost anchors on the base salary scale of
December of `SCALE_YEAR` and inflates it at a fixed yearly rate; the
employer total adds the school-board levy, the pension contribution for
the person's regime, social security, severance accrual, the year-end
bonus month and the occupational insurance premium.  Rate schedules are
piecewise constant in the calendar year.

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

from .errors import ConfigError, DataError
from .states import CharacteristicSpace

SCALE_YEAR = 2015  # the salary scale is December's; the next year is the first priced


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

PCT_FIELDS = (
    "annuity_pct",
    "exclusive_dedication_pct",
    "prohibition_pct",
    "availability_pct",
)


def bind_profiles(bindings: dict, chars: CharacteristicSpace) -> list[dict]:
    """The bound profile fields of each tuple code, from the checked ``finance.bindings``.

    `profiles[k]` holds them for tuple code k; code 0, an unsplit cell,
    binds none and keeps the defaults (percentages 0, regime IVM).
    """
    bound = {}
    for fld, spec in (bindings or {}).items():
        if spec is None:
            continue
        name, values = spec["characteristic"], spec["levels"]
        ci = chars.index_of(name)
        levels = chars.levels[ci]
        for level in values:
            if level not in levels:
                raise ConfigError(f"finance.bindings.{fld}: {name!r} has no level {level!r}")
        missing = [lv for lv in levels if lv not in values]
        if missing:
            raise ConfigError(f"finance.bindings.{fld}: unmapped levels {missing} of {name!r}")
        bound[fld] = (ci, [values[lv] for lv in levels])
    return [{}] + [
        {fld: values[t[ci]] for fld, (ci, values) in bound.items()} for t in chars.all_tuples()
    ]


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported below
def full_time_costs(
    year: int,
    n_categories: int,
    scale: dict[int, float],
    profiles: list[dict],
    schedule: RateSchedule,
) -> np.ndarray:
    """Yearly employer cost of one full-time worker per (category, tuple code).

    The gross salary is two six-month blocks of the December `SCALE_YEAR` base,
    at mid-year and at full next-year inflation depth, times the
    supplements over the coverage of the scale; the employer charges of
    the module docstring multiply it.  `profiles` holds the bound profile
    fields per tuple code (see :func:`bind_profiles`).  Row 0, the
    out-of-system category, is zero.  Counts are full-time equivalents,
    so a count times its entry here is its cost; see README.
    """
    if year <= SCALE_YEAR:
        raise ConfigError(
            f"salary cost is anchored at the December {SCALE_YEAR} scale; "
            f"year {year} is before {SCALE_YEAR + 1}"
        )
    missing = [c for c in range(1, n_categories) if c not in scale]
    if missing:
        raise ConfigError(f"category index {missing[0]} has no salary scale entry")
    rise = 1.0 + schedule.inflation
    try:
        growth = rise ** (year - SCALE_YEAR - 0.5) + rise ** (year - SCALE_YEAR)
    except OverflowError:  # float ** raises instead of returning inf
        growth = np.inf
    base = np.array([scale[c] for c in range(1, n_categories)])[:, None]
    pct = {f: np.array([p.get(f, 0.0) for p in profiles]) for f in PCT_FIELDS}
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
