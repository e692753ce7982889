"""Monthly panel ingestion: records, counts, flows and the reserve.

The raw input is a monthly panel of in-system persons.  From it we build
workload-weighted cell counts per month, month-to-month transition flows
(including exits), and year-boundary events (stay/exit and hires) that
later feed the entry probability estimators.  The out-of-system rows are
not observed directly; they are reconstructed from census-style per-age
totals by :func:`build_reserve`.

Month indices are normalized so the latest observed month is 0 and
earlier months are negative.  Calendar (year, month) pairs are kept
alongside because year boundaries and Decembers matter for the yearly
estimators.
"""

from __future__ import annotations

import csv
import re
from collections import defaultdict
from dataclasses import dataclass, field, replace

from .config import RunConfig
from .errors import DataError
from .states import StateSpaceConfig

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")

REQUIRED_COLUMNS = ("month", "person_id", "category", "age", "seniority", "workload")


@dataclass(slots=True)
class MonthlyRecord:
    """One person-month observation, already validated and encoded."""

    month: int  # normalized, latest observed month == 0
    cal_year: int
    cal_month: int
    person_id: str
    category: int  # category index (>= 1; in-system only)
    age: int
    seniority: int
    workload: float
    characteristics: tuple[int, ...]
    row: int  # 1-based CSV data row, for error reporting


def _abs_month(year: int, month: int) -> int:
    return year * 12 + (month - 1)


def parse_records(path, cfg: RunConfig) -> list[MonthlyRecord]:
    """Parse and validate a records CSV.

    Expected header: month,person_id,category,age,seniority,workload plus
    one column per declared characteristic.  Months are YYYY-MM.  Every
    violated constraint is collected with its row number; any violation
    fails the whole parse.
    """
    space = cfg.space
    chars = cfg.characteristics
    expected_cols = set(REQUIRED_COLUMNS) | set(chars.names)

    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise DataError(f"records file not found: {path}") from None

    problems: list[str] = []
    rows: list[tuple] = []
    seen: set[tuple[str, int]] = set()
    out_code = space.categories[0]

    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"records file {path} is empty")
        got = set(reader.fieldnames)
        missing = expected_cols - got
        extra = got - expected_cols
        if missing or extra:
            msgs = []
            if missing:
                msgs.append(f"missing columns: {', '.join(sorted(missing))}")
            if extra:
                msgs.append(f"unexpected columns: {', '.join(sorted(extra))}")
            raise DataError(f"records file {path}: bad header", msgs)

        for i, row in enumerate(reader, start=1):
            bad = False

            def fail(msg):
                nonlocal bad
                problems.append(f"row {i}: {msg}")
                bad = True

            m = _MONTH_RE.match((row["month"] or "").strip())
            if not m or not (1 <= int(m.group(2)) <= 12):
                fail(f"malformed month {row['month']!r} (expected YYYY-MM)")
            pid = (row["person_id"] or "").strip()
            if not pid:
                fail("empty person_id")
            code = (row["category"] or "").strip()
            cat = None
            if code == out_code:
                fail(f"category {code!r} is the out-of-system code; records must be in-system")
            elif code in space.categories:
                cat = space.categories.index(code)
            else:
                fail(f"unknown category code {code!r}")
            try:
                age = int(row["age"])
                sen = int(row["seniority"])
            except (TypeError, ValueError):
                fail(f"non-integer age/seniority {row['age']!r}/{row['seniority']!r}")
                age = sen = None
            if age is not None:
                if not space.in_range(age, sen):
                    fail(
                        f"age {age} / seniority {sen} outside "
                        f"[{space.age_min},{space.age_max}) x [0,{space.seniority_max})"
                    )
                elif not space.feasible(age, sen):
                    fail(f"infeasible seniority {sen} at age {age}")
            try:
                workload = float(row["workload"])
                if workload <= 0:
                    fail(f"workload must be positive (got {workload})")
            except (TypeError, ValueError):
                fail(f"non-numeric workload {row['workload']!r}")
                workload = None
            tup = None
            try:
                tup = chars.encode([(row[n] or "").strip() for n in chars.names])
            except Exception as exc:
                fail(str(exc))
            if bad:
                continue

            year, month = int(m.group(1)), int(m.group(2))
            key = (pid, _abs_month(year, month))
            if key in seen:
                fail(f"duplicate (person_id={pid!r}, month={row['month']})")
                continue
            seen.add(key)
            rows.append((key[1], year, month, pid, cat, age, sen, workload, tup, i))

    if problems:
        raise DataError(f"records file {path}: {len(problems)} invalid row(s)", problems)
    if not rows:
        raise DataError(f"records file {path} contains no data rows")

    latest = max(r[0] for r in rows)
    records = [
        MonthlyRecord(
            month=absm - latest,
            cal_year=year,
            cal_month=month,
            person_id=pid,
            category=cat,
            age=age,
            seniority=sen,
            workload=workload,
            characteristics=tup,
            row=rownum,
        )
        for (absm, year, month, pid, cat, age, sen, workload, tup, rownum) in rows
    ]
    records.sort(key=lambda r: (r.month, r.person_id))
    return records


def split_records(records: list[MonthlyRecord], split_year: int):
    """Split a panel into records before `split_year` and the held-out rest.

    The fitting part is renormalized so its own latest month is 0.
    """
    fit = [r for r in records if r.cal_year < split_year]
    if not fit:
        raise DataError(f"no records before the split year {split_year}")
    holdout = [r for r in records if r.cal_year >= split_year]
    if not holdout:
        raise DataError(f"no held-out records at or after the split year {split_year}")
    shift = max(r.month for r in fit)
    return [replace(r, month=r.month - shift) for r in fit], holdout


@dataclass(frozen=True)
class ReserveSpec:
    """Census totals per age; the source of the out-of-system mass."""

    age_totals: dict[int, float]

    @property
    def total_population(self) -> float:
        return sum(self.age_totals.values())


def load_reserve_csv(path, space: StateSpaceConfig) -> ReserveSpec:
    """Load per-age population totals (header: age,total)."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise DataError(f"reserve file not found: {path}") from None
    problems = []
    totals: dict[int, float] = {}
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(reader.fieldnames) != {"age", "total"}:
            raise DataError(f"reserve file {path}: header must be exactly 'age,total'")
        for i, row in enumerate(reader, start=1):
            try:
                age = int(row["age"])
                total = float(row["total"])
            except (TypeError, ValueError):
                problems.append(f"row {i}: non-numeric entry {row!r}")
                continue
            if not (space.age_min <= age < space.age_max):
                problems.append(
                    f"row {i}: age {age} outside [{space.age_min},{space.age_max})"
                )
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


@dataclass
class CountsCube:
    """Workload-weighted counts, flows and year events over the panel.

    cells: (month, category, age, seniority) -> weight.  Category 0 rows
    exist only after :func:`build_reserve`.
    group_totals: (month, age group, seniority group, category) -> weight.
    flows: (month, age group, seniority group, from cat, to cat) -> weight
    for consecutive observed month pairs (m, m+1); to-cat 0 is an exit.
    char_counts: (month, category, age group, seniority group, tuple) -> weight.
    stay_exit: (year, age group, sen group, category) -> [stay, exit] weights
    for persons observed the previous December.
    hires / entry_cats: year-boundary entries keyed at the virtual source
    cell (age - 1, max(0, seniority - 1) at first observation).
    """

    months: tuple[int, ...]
    calendar: dict[int, tuple[int, int]]
    cal_set: set[tuple[int, int]]
    flow_months: tuple[int, ...]
    q_years: tuple[int, ...]
    cells: dict = field(default_factory=dict)
    group_totals: dict = field(default_factory=dict)
    flows: dict = field(default_factory=dict)
    char_counts: dict = field(default_factory=dict)
    stay_exit: dict = field(default_factory=dict)
    hires: dict = field(default_factory=dict)
    entry_cats: dict = field(default_factory=dict)
    full_time_hours: float = 40.0
    has_reserve: bool = False
    warnings: list[str] = field(default_factory=list)

    @property
    def base_calendar_year(self) -> int:
        """Calendar year of the latest observed month (normalized 0)."""
        return self.calendar[0][0]


def build_counts(records: list[MonthlyRecord], cfg: RunConfig) -> CountsCube:
    """Aggregate validated records into the counts cube.

    Flows are only counted across consecutive observed months; a person
    present at m and absent at the observed month m+1 is an exit flow to
    category 0, weighted like the month-m record.  Year events need the
    previous December observed plus at least one month of the year.
    """
    space = cfg.space
    full_time = cfg.full_time_hours

    months = sorted({r.month for r in records})
    observed = set(months)
    calendar = {}
    for r in records:
        calendar[r.month] = (r.cal_year, r.cal_month)
    cal_set = set(calendar.values())
    flow_months = tuple(m for m in months if m + 1 in observed)

    years = sorted({y for (y, _m) in cal_set})
    q_years = tuple(
        y for y in years if (y - 1, 12) in cal_set and any((y, mm) in cal_set for mm in range(1, 13))
    )

    cube = CountsCube(
        months=tuple(months),
        calendar=calendar,
        cal_set=cal_set,
        flow_months=flow_months,
        q_years=q_years,
        full_time_hours=full_time,
    )

    cells = defaultdict(float)
    group_totals = defaultdict(float)
    char_counts = defaultdict(float)
    by_person: dict[str, dict[int, MonthlyRecord]] = defaultdict(dict)
    person_years: dict[str, set[int]] = defaultdict(set)
    dec_index: dict[tuple[str, int], MonthlyRecord] = {}

    for r in records:
        w = r.workload / full_time
        ei, ai = space.locate_groups(r.age, r.seniority)
        cells[(r.month, r.category, r.age, r.seniority)] += w
        group_totals[(r.month, ei, ai, r.category)] += w
        char_counts[(r.month, r.category, ei, ai, r.characteristics)] += w
        by_person[r.person_id][r.month] = r
        person_years[r.person_id].add(r.cal_year)
        if r.cal_month == 12:
            dec_index[(r.person_id, r.cal_year)] = r

    flows = defaultdict(float)
    for pid, mons in by_person.items():
        for m, r in mons.items():
            if m + 1 not in observed:
                continue
            w = r.workload / full_time
            ei, ai = space.locate_groups(r.age, r.seniority)
            nxt = mons.get(m + 1)
            to_cat = nxt.category if nxt is not None else 0
            flows[(m, ei, ai, r.category, to_cat)] += w

    stay_exit: dict = {}
    hires = defaultdict(float)
    entry_cats = defaultdict(float)
    for y in q_years:
        for pid, yrs in person_years.items():
            dec = dec_index.get((pid, y - 1))
            present = y in yrs
            if dec is not None:
                ei, ai = space.locate_groups(dec.age, dec.seniority)
                key = (y, ei, ai, dec.category)
                acc = stay_exit.setdefault(key, [0.0, 0.0])
                acc[0 if present else 1] += dec.workload / full_time
            elif present:
                first = min(
                    (r for r in by_person[pid].values() if r.cal_year == y),
                    key=lambda r: r.cal_month,
                )
                src_age = first.age - 1
                if src_age < space.age_min:
                    src_age = space.age_min
                    cube.warnings.append(
                        f"hire of {pid!r} in {y}: source age below the configured "
                        f"range, clamped to {space.age_min}"
                    )
                src_sen = max(0, first.seniority - 1)
                ei, ai = space.locate_groups(src_age, src_sen)
                w = first.workload / full_time
                hires[(y, ei, ai)] += w
                entry_cats[(y, ei, ai, first.category)] += w

    cube.cells = dict(cells)
    cube.group_totals = dict(group_totals)
    cube.flows = dict(flows)
    cube.char_counts = dict(char_counts)
    cube.stay_exit = stay_exit
    cube.hires = dict(hires)
    cube.entry_cats = dict(entry_cats)
    return cube


def build_reserve(cube: CountsCube, reserve: ReserveSpec, cfg: RunConfig) -> CountsCube:
    """Add out-of-system (category 0) rows to every month of the cube.

    Per month and age, the reserve mass is the census total minus the
    weighted in-system count at that age, spread equally over the
    feasible seniorities for that age.  A materially negative remainder
    means the census and the panel disagree and is an error.
    """
    space = cfg.space
    in_sys_by_age = defaultdict(float)
    for (m, c, e, _a), w in cube.cells.items():
        if c != 0:
            in_sys_by_age[(m, e)] += w

    problems = []
    new_cells = dict(cube.cells)
    new_totals = dict(cube.group_totals)
    for m in cube.months:
        y, mm = cube.calendar[m]
        for e in range(space.age_min, space.age_max):
            total = reserve.age_totals[e]
            used = in_sys_by_age.get((m, e), 0.0)
            rest = total - used
            if rest < -1e-9 * max(1.0, total):
                problems.append(
                    f"age {e}, month {y}-{mm:02d}: in-system weight {used:.6g} "
                    f"exceeds the census total {total:.6g}"
                )
                continue
            rest = max(rest, 0.0)
            if rest == 0.0:
                continue
            feas = space.feasible_seniorities(e)
            share = rest / len(feas)
            ei = space.age_group(e)
            for a in feas:
                new_cells[(m, 0, e, a)] = new_cells.get((m, 0, e, a), 0.0) + share
                ai = space.seniority_group(a)
                key = (m, ei, ai, 0)
                new_totals[key] = new_totals.get(key, 0.0) + share
    if problems:
        raise DataError("reserve construction failed", problems)

    out = CountsCube(
        months=cube.months,
        calendar=cube.calendar,
        cal_set=cube.cal_set,
        flow_months=cube.flow_months,
        q_years=cube.q_years,
        cells=new_cells,
        group_totals=new_totals,
        flows=cube.flows,
        char_counts=cube.char_counts,
        stay_exit=cube.stay_exit,
        hires=cube.hires,
        entry_cats=cube.entry_cats,
        full_time_hours=cube.full_time_hours,
        has_reserve=True,
        warnings=list(cube.warnings),
    )
    return out
