"""Monthly panel ingestion: record columns, the counts cube and the reserve.

The monthly panel of in-system persons is parsed into :class:`Records`,
one numpy column per field.  :func:`build_counts` sums the columns with
``np.bincount`` into the dense workload-weighted arrays of
:class:`CountsCube`: cell counts, month-to-month flows (including exits)
and the year-boundary events (stay/exit and hires) the entry estimators
use.  :func:`build_reserve` adds the unobserved out-of-system mass from
census-style per-age totals.

Months are normalized so the latest observed month is 0; calendar years
and months are kept alongside because year boundaries and Decembers
matter for the yearly estimators.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .errors import DataError
from .states import StateSpaceConfig

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")

REQUIRED_COLUMNS = ("month", "person_id", "category", "age", "seniority", "workload")


def finite_float(text) -> float:
    """``float(text)``, raising ValueError for NaN and infinities as well."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


@dataclass(frozen=True)
class Records:
    """A validated monthly panel: equal-length columns in (month, person_id) order.

    `month` is normalized (latest observed month == 0); `person` indexes
    `person_ids`, which is sorted; `category` is in-system (>= 1);
    `tuple_code` is the characteristic tuple's
    :meth:`~markovpop.states.CharacteristicSpace.code`.
    """

    month: np.ndarray
    cal_year: np.ndarray
    cal_month: np.ndarray
    person: np.ndarray
    category: np.ndarray
    age: np.ndarray
    seniority: np.ndarray
    workload: np.ndarray
    tuple_code: np.ndarray
    person_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.month)

    @classmethod
    def from_rows(cls, abs_month, person_id, category, age, seniority, workload, tuple_code):
        """Records from unordered columns; `abs_month` is ``year * 12 + month - 1``."""
        person_ids = sorted(set(person_id))
        code = {pid: k for k, pid in enumerate(person_ids)}
        person = np.array([code[pid] for pid in person_id])
        order = np.lexsort((person, abs_month))
        absm = np.asarray(abs_month)[order]
        columns = (person, category, age, seniority, workload, tuple_code)
        return cls(
            absm - absm[-1], absm // 12, absm % 12 + 1,
            *(np.asarray(col)[order] for col in columns), tuple(person_ids),
        )

    def take(self, rows) -> "Records":
        """The rows selected by a mask or an index array, in the same order."""
        return replace(self, **{k: v[rows] for k, v in vars(self).items() if k != "person_ids"})


def csv_rows(path, what: str, header, problems: list):
    """Yield (row number, row) of a CSV file whose header holds `header`, each column once.

    Rows with more fields than the header are reported in `problems`.
    """
    # the guard spans the row loop: the file is decoded as it is read
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            names = reader.fieldnames or []
            got, want = set(names), set(header)
            # DictReader would keep only the last of two columns with one name
            repeated = {c for c in names if names.count(c) > 1}
            if got != want or repeated:
                kinds = (("missing", want - got), ("unexpected", got - want),
                         ("repeated", repeated))
                detail = [f"{kind} columns: {', '.join(sorted(cols))}"
                          for kind, cols in kinds if cols]
                raise DataError(
                    f"{what} {path}: header must be exactly '{','.join(header)}'", detail
                )
            for i, row in enumerate(reader, start=1):
                if None in row:
                    problems.append(f"row {i}: {len(row[None])} field(s) beyond the header")
                else:
                    yield i, row
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{what} {path} cannot be read: {exc}") from None


def parse_records(path, cfg: RunConfig) -> Records:
    """Parse and validate a records CSV.

    Expected header: month,person_id,category,age,seniority,workload plus
    one column per declared characteristic.  Months are YYYY-MM.  Every
    violated constraint is collected with its row number; any violation
    fails the whole parse.
    """
    space = cfg.space
    chars = cfg.characteristics
    problems: list[str] = []
    rows: list[tuple] = []
    seen: set[tuple[str, int]] = set()
    out_code = space.categories[0]
    header = REQUIRED_COLUMNS + chars.names
    for i, row in csv_rows(path, "records file", header, problems):
        errs = []
        m = _MONTH_RE.match((row["month"] or "").strip())
        if not m or not (1 <= int(m.group(2)) <= 12):
            errs.append(f"malformed month {row['month']!r} (expected YYYY-MM)")
        pid = (row["person_id"] or "").strip()
        if not pid:
            errs.append("empty person_id")
        code = (row["category"] or "").strip()
        cat = None
        if code == out_code:
            errs.append(f"category {code!r} is the out-of-system code; records must be in-system")
        elif code in space.categories:
            cat = space.categories.index(code)
        else:
            errs.append(f"unknown category code {code!r}")
        try:
            age = int(row["age"])
            sen = int(row["seniority"])
        except (TypeError, ValueError):
            errs.append(f"non-integer age/seniority {row['age']!r}/{row['seniority']!r}")
            age = sen = None
        if age is not None:
            if not space.in_range(age, sen):
                errs.append(
                    f"age {age} / seniority {sen} outside "
                    f"[{space.age_min},{space.age_max}) x [0,{space.seniority_max})"
                )
            elif not space.feasible(age, sen):
                errs.append(f"infeasible seniority {sen} at age {age}")
        try:
            workload = finite_float(row["workload"])
            if workload <= 0:
                errs.append(f"workload must be positive (got {workload})")
        except (TypeError, ValueError):
            errs.append(f"non-numeric workload {row['workload']!r} (need a finite number)")
        try:
            tup = chars.code(chars.encode([(row[n] or "").strip() for n in chars.names]))
        except Exception as exc:
            errs.append(str(exc))
        key = (pid, int(m.group(1)) * 12 + int(m.group(2)) - 1) if m else None
        if not errs and key in seen:
            errs.append(f"duplicate (person_id={pid!r}, month={row['month']})")
        problems += [f"row {i}: {e}" for e in errs]
        if not errs:
            seen.add(key)
            rows.append((key[1], pid, cat, age, sen, workload, tup))

    if problems:
        raise DataError(f"records file {path}: {len(problems)} invalid row(s)", problems)
    if not rows:
        raise DataError(f"records file {path} contains no data rows")

    return Records.from_rows(*zip(*rows))


def split_records(records: Records, split_year: int) -> tuple[Records, Records]:
    """Split a panel into records before `split_year` and the held-out rest.

    The fitting part is renormalized so its own latest month is 0.
    """
    before = records.cal_year < split_year
    if not before.any():
        raise DataError(f"no records before the split year {split_year}")
    if before.all():
        raise DataError(f"no held-out records at or after the split year {split_year}")
    fit = records.take(before)
    return replace(fit, month=fit.month - fit.month.max()), records.take(~before)


@dataclass(frozen=True)
class ReserveSpec:
    """Census totals per age; the source of the out-of-system mass."""

    age_totals: dict[int, float]

    @property
    def total_population(self) -> float:
        return sum(self.age_totals.values())


def load_reserve_csv(path, space: StateSpaceConfig) -> ReserveSpec:
    """Load per-age population totals (header: age,total)."""
    problems = []
    totals: dict[int, float] = {}
    for i, row in csv_rows(path, "reserve file", ("age", "total"), problems):
        try:
            age = int(row["age"])
            total = finite_float(row["total"])
        except (TypeError, ValueError):
            problems.append(f"row {i}: non-numeric entry {row!r} (need finite numbers)")
            continue
        if not (space.age_min <= age < space.age_max):
            problems.append(f"row {i}: age {age} outside [{space.age_min},{space.age_max})")
            continue
        if total < 0:
            problems.append(f"row {i}: negative total {total} at age {age}")
            continue
        if age in totals:
            problems.append(f"row {i}: duplicate age {age}")
            continue
        totals[age] = total
    missing = [e for e in range(space.age_min, space.age_max) if e not in totals]
    if missing:
        problems.append(f"missing ages: {', '.join(str(e) for e in missing)}")
    if problems:
        raise DataError(f"reserve file {path} is invalid", problems)
    return ReserveSpec(age_totals=totals)


@dataclass(frozen=True)
class CountsCube:
    """Workload-weighted counts, flows and year events of a panel, as dense arrays.

    Axis m runs over `months`, f over `flow_months` (months whose next
    month is observed) and y over `q_years` (years whose previous December
    and at least one month are observed); eg/sg are age/seniority groups,
    c categories, e ages from ``age_min``, a seniorities, k tuple codes.

    group_totals[m, eg, sg, c]: category 0 only after :func:`build_reserve`.
    flows[f, eg, sg, c, to]: weight moving on to category `to` next month;
    to 0 is an exit.
    char_counts[m, c, eg, sg, k].
    stay_exit[y, eg, sg, c, stay 0 | exit 1]: persons observed the previous
    December, at their December cell.
    hires[y, eg, sg], entry_cats[y, eg, sg, c]: entries at the virtual
    source cell (age - 1, max(0, seniority - 1) at the year's first row).
    in_system[m, e]: the weight the reserve tops up to the census.
    latest[12, c, e, a]: cells of normalized months -11..0.
    """

    months: tuple[int, ...]
    calendar: dict[int, tuple[int, int]]
    flow_months: tuple[int, ...]
    q_years: tuple[int, ...]
    group_totals: np.ndarray
    flows: np.ndarray
    char_counts: np.ndarray
    stay_exit: np.ndarray
    hires: np.ndarray
    entry_cats: np.ndarray
    in_system: np.ndarray
    latest: np.ndarray
    has_reserve: bool = False
    warnings: tuple[str, ...] = ()

    @property
    def base_calendar_year(self) -> int:
        """Calendar year of the latest observed month (normalized 0)."""
        return self.calendar[0][0]


def _count(index, weights, shape) -> np.ndarray:
    """Add `weights` into a dense array of `shape` at `index`, in input order."""
    flat = np.ravel_multi_index(index, shape)
    return np.bincount(flat, weights, minlength=math.prod(shape)).reshape(shape)


def build_counts(records: Records, cfg: RunConfig) -> CountsCube:
    """Aggregate validated records into the counts cube.

    Flows are only counted across consecutive observed months; a person
    present at m and absent at the observed month m+1 is an exit flow to
    category 0, weighted like the month-m record.  Year events need the
    previous December observed plus at least one month of the year.
    """
    space, rec = cfg.space, records
    w = rec.workload / cfg.full_time_hours
    eg, sg = space.locate_groups(rec.age, rec.seniority)
    cat, age, sen = rec.category, rec.age - space.age_min, rec.seniority
    months, first_row, m = np.unique(rec.month, return_index=True, return_inverse=True)
    calendar = {
        int(k): (int(rec.cal_year[i]), int(rec.cal_month[i])) for k, i in zip(months, first_row)
    }
    cal = set(calendar.values())
    q_years = tuple(sorted({y for y, _ in cal if (y - 1, 12) in cal}))
    is_flow = np.isin(months + 1, months)
    nm, ny, nc = len(months), len(q_years), space.n_categories
    g = (space.n_age_groups, space.n_seniority_groups)

    # each record's category next month; 0 (an exit) when its person is gone
    chrono = np.lexsort((rec.month, rec.person))  # rows by person, then month
    moves = (np.diff(rec.person[chrono]) == 0) & (np.diff(rec.month[chrono]) == 1)
    to = np.zeros(len(rec), dtype=int)
    to[chrono[:-1][moves]] = cat[chrono[1:][moves]]
    f = is_flow[m]
    flow_month = (np.cumsum(is_flow) - 1)[m[f]]

    # a December row stays when its person has a row in the next year; a hire
    # is a person's first row of a q-year without a row the December before
    span = rec.cal_year.max() - rec.cal_year.min() + 1
    slot = rec.person * span + rec.cal_year - rec.cal_year.min()  # one per (person, year)
    present = np.zeros(len(rec.person_ids) * span, dtype=bool)
    present[slot] = True
    december = np.zeros_like(present)
    december[slot[rec.cal_month == 12]] = True
    dec = (rec.cal_month == 12) & np.isin(rec.cal_year + 1, q_years)
    stays = (np.searchsorted(q_years, rec.cal_year[dec] + 1), eg[dec], sg[dec], cat[dec])
    exits = ~present[slot[dec] + 1]
    first = chrono[np.r_[True, np.diff(slot[chrono]) != 0]]
    # a q-year's previous year is in the panel, so slot - 1 is the same person's
    hire = first[np.isin(rec.cal_year[first], q_years) & ~december[slot[first] - 1]]
    # in year order, then in order of each person's first appearance
    people, first_seen = np.unique(rec.person, return_index=True)
    first_seen = first_seen[np.searchsorted(people, rec.person[hire])]
    hire = hire[np.lexsort((first_seen, rec.cal_year[hire]))]
    src_age = rec.age[hire] - 1
    clamped = src_age < space.age_min
    src = space.locate_groups(np.maximum(src_age, space.age_min), np.maximum(sen[hire] - 1, 0))
    hires = (np.searchsorted(q_years, rec.cal_year[hire]), *src)
    n_codes = len(cfg.characteristics.tuples())
    window = rec.month >= -11
    return CountsCube(
        months=tuple(months.tolist()),
        calendar=calendar,
        flow_months=tuple(months[is_flow].tolist()),
        q_years=q_years,
        group_totals=_count((m, eg, sg, cat), w, (nm, *g, nc)),
        flows=_count((flow_month, eg[f], sg[f], cat[f], to[f]), w[f], (is_flow.sum(), *g, nc, nc)),
        char_counts=_count((m, cat, eg, sg, rec.tuple_code), w, (nm, nc, *g, n_codes)),
        stay_exit=_count((*stays, exits.astype(int)), w[dec], (ny, *g, nc, 2)),
        hires=_count(hires, w[hire], (ny, *g)),
        entry_cats=_count((*hires, cat[hire]), w[hire], (ny, *g, nc)),
        in_system=_count((m, age), w, (nm, space.n_ages)),
        latest=_count(
            (rec.month[window] + 11, cat[window], age[window], sen[window]),
            w[window],
            (12, nc, space.n_ages, space.seniority_max),
        ),
        warnings=tuple(
            f"hire of {rec.person_ids[p]!r} in {y}: source age below the configured "
            f"range, clamped to {space.age_min}"
            for p, y in zip(rec.person[hire][clamped], rec.cal_year[hire][clamped])
        ),
    )


def build_reserve(cube: CountsCube, reserve: ReserveSpec, cfg: RunConfig) -> CountsCube:
    """Add out-of-system (category 0) mass to every month of the cube.

    Per month and age, the reserve mass is the census total minus the
    weighted in-system count at that age, spread equally over the
    feasible seniorities for that age.  A materially negative remainder
    means the census and the panel disagree and is an error.
    """
    space = cfg.space
    ages = range(space.age_min, space.age_max)
    total = np.array([reserve.age_totals[e] for e in ages])
    rest = total - cube.in_system
    problems = [
        f"age {ages[e]}, month {'%d-%02d' % cube.calendar[cube.months[m]]}: in-system weight "
        f"{cube.in_system[m, e]:.6g} exceeds the census total {total[e]:.6g}"
        for m, e in np.argwhere(rest < -1e-9 * np.maximum(1.0, total))
    ]
    if problems:
        raise DataError("reserve construction failed", problems)
    share = np.maximum(rest, 0.0) / [len(space.feasible_seniorities(e)) for e in ages]

    # each share is added once per feasible seniority, in (age, seniority) order
    pairs = np.array([(e, a) for e in ages for a in space.feasible_seniorities(e)])
    n = len(cube.months)
    groups = (np.tile(g, n) for g in space.locate_groups(*pairs.T))
    pe, pa = pairs[:, 0] - space.age_min, pairs[:, 1]
    group_totals = cube.group_totals.copy()
    group_totals[..., 0] += _count(
        (np.repeat(np.arange(n), len(pairs)), *groups), share[:, pe].ravel(), group_totals.shape[:3]
    )
    window = np.arange(-11, 1)
    k = np.flatnonzero(np.isin(window, cube.months))
    latest = cube.latest.copy()
    latest[k[:, None], 0, pe, pa] = share[np.searchsorted(cube.months, window[k])][:, pe]
    return replace(cube, group_totals=group_totals, latest=latest, has_reserve=True)
