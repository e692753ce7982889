"""Input files and the counts cube: panel records, the census and the salary scale.

The monthly panel of in-system persons is parsed into :class:`Records`,
one numpy column per field.  :func:`build_counts` sums the columns with
``np.bincount`` into the dense workload-weighted arrays of
:class:`CountsCube`: cell counts, month-to-month flows (including exits)
and the year-boundary events (stay/exit and hires) the entry estimators
use.  Its out-of-system category holds the reserve that
:func:`build_reserve` derives from the census totals per age.

A month is the absolute month ``year * 12 + month - 1`` from the parse
to the fit, so any run of months of a parsed panel is itself a panel, and
:func:`month_name` writes one as YYYY-MM.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .errors import ConfigError, DataError
from .states import STATE_BOUND, StateSpaceConfig

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
    """A validated panel: equal-length columns by month, workload, tuple_code, then person_id.

    `month` is ``year * 12 + month - 1``; `person` indexes `person_ids`,
    which is sorted; `category` is in-system (>= 1); `tuple_code` is the
    characteristic tuple's :meth:`~markovpop.states.CharacteristicSpace.code`.
    Every integer column is int32 and `workload` is float64: 32 bytes a row.
    """

    month: np.ndarray
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
    def from_columns(
        cls, month, person, person_ids, category, age, seniority, workload, tuple_code
    ):
        """Records from unordered columns, cast to the dtypes of the layout.

        `person` indexes the sorted `person_ids`; only rows that weigh and
        price alike keep an id-dependent order.  A column that already has
        its dtype is reordered in place and becomes the records' own (a
        parse never holds its columns twice): pass arrays nothing else uses.
        """
        order = np.lexsort((person, tuple_code, workload, month))

        def ordered(column, dtype=np.int32):
            column = np.asarray(column).astype(dtype, copy=False)
            column[:] = column[order]
            return column

        return cls(
            *map(ordered, (month, person, category, age, seniority)),
            ordered(workload, np.float64), ordered(tuple_code), tuple(person_ids),
        )

    def take(self, rows) -> "Records":
        """The rows of a mask, an increasing index array or a slice (as views), in order."""
        return replace(self, **{k: v[rows] for k, v in vars(self).items() if k != "person_ids"})


# Small blocks die young: rows that outlive the garbage collector's young
# generations make its full collections walk them (16 384-row blocks parse
# the costed panel about 1.6x slower).
_BLOCK_ROWS = 512


def _csv_blocks(path, what: str, header):
    """Yield the header of a CSV file, then its rows as lists of fields, in blocks.

    The header must hold `header`, each column once.  Blank lines are not
    rows, as in :class:`csv.DictReader`, and a leading UTF-8 byte-order
    mark is not text.  A byte that is not UTF-8 is reported by its offset
    in the file and its line, and a line the csv module refuses (a field
    beyond :func:`csv.field_size_limit`, or before Python 3.11 a NUL
    character) by its line.
    """
    # the guard spans the row loop: the file is decoded as it is read
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            names = next(reader, [])
            got, want = set(names), set(header)
            # a column named twice would be read once
            repeated = {c for c in names if names.count(c) > 1}
            if got != want or repeated:
                kinds = (("missing", want - got), ("unexpected", got - want),
                         ("repeated", repeated))
                detail = [f"{kind} columns: {', '.join(sorted(cols))}"
                          for kind, cols in kinds if cols]
                raise DataError(
                    f"{what} {path}: header must be exactly '{','.join(header)}'", detail
                )
            yield names
            rows = filter(None, reader)
            while block := list(itertools.islice(rows, _BLOCK_ROWS)):
                yield block
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} cannot be read: {_decode_error(path, exc)}") from None
    except csv.Error as exc:
        raise DataError(f"{what} {path} cannot be read: {exc} (line {reader.line_num})") from None
    except OSError as exc:
        raise DataError(f"{what} {path} cannot be read: {exc}") from None


def _decode_error(path, exc: UnicodeDecodeError) -> str:
    """`exc` restated at its offset in the whole file, with the line it is on.

    The streaming decoder counts offsets from the start of its current chunk.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        line = data.count(b"\n", 0, whole.start) + 1
        return f"{whole} (line {line})"
    except OSError:
        pass
    return str(exc)


def csv_rows(path, what: str, header, problems: list):
    """Yield (row number, row) of a CSV file whose header holds `header`, each column once.

    A row maps each column to its field, or to None when the row is
    short.  Rows with more fields than the header are reported in
    `problems`.
    """
    blocks = _csv_blocks(path, what, header)
    names = next(blocks)
    for i, row in enumerate(itertools.chain.from_iterable(blocks), start=1):
        if len(row) > len(names):
            problems.append(f"row {i}: {len(row) - len(names)} field(s) beyond the header")
        else:
            yield i, dict(itertools.zip_longest(names, row))


def _encode_columns(path, header):
    """Dictionary-encode the columns of a records CSV, block by block.

    Returns, per column of `header`, its distinct fields in code order and
    the int32 code of each row, plus the number of fields of each row
    longer than the header, by row index.  Missing fields read as None,
    as in :class:`csv.DictReader`.
    """
    blocks = _csv_blocks(path, "records file", header)
    names = next(blocks)
    width, at = len(names), [names.index(c) for c in header]
    index = [defaultdict() for _ in header]  # per column: {field: code}
    for seen in index:
        seen.default_factory = seen.__len__  # a new field takes the next code
    # buffers grow and shrink in place; no view of one outlives a block
    codes = [np.zeros(_BLOCK_ROWS, np.int32) for _ in header]
    n, long = 0, {}
    for block in blocks:
        k = len(block)
        if n + k > len(codes[0]):
            for out in codes:
                out.resize(n + k + n // 4, refcheck=False)
        sizes = np.fromiter(map(len, block), np.intp, k)
        for i in np.flatnonzero(sizes != width).tolist():
            if sizes[i] > width:  # a long row is only reported
                long[n + i] = int(sizes[i])
            block[i] = (block[i] + [None] * width)[:width]
        columns = list(zip(*block))
        for seen, out, j in zip(index, codes, at):
            out[n:n + k] = np.fromiter(map(seen.__getitem__, columns[j]), np.int32, k)
        n += k
    for seen, out in zip(index, codes):
        seen.default_factory = None  # it refers to its own dict; free the dict with the last name
        out.resize(n, refcheck=False)
    return [(list(seen), out) for seen, out in zip(index, codes)], long


def _each(check, values, codes, dtype):
    """`check` run once on each distinct field of a column, broadcast to its rows.

    Returns the `dtype` result of each row and the mask of the rows whose
    field `check` rejects, by returning None or raising TypeError or
    ValueError; a rejected field reads 0.
    """
    results = []
    for value in values:
        try:
            results.append(check(value))
        except (TypeError, ValueError):
            results.append(None)
    failed = np.array([r is None for r in results], bool)
    return np.array([0 if r is None else r for r in results], dtype)[codes], failed[codes]


def _abs_month(text):
    """``year * 12 + month - 1`` of a YYYY-MM field, or None."""
    m = _MONTH_RE.match((text or "").strip())
    if m and 1 <= int(m.group(2)) <= 12:
        return int(m.group(1)) * 12 + int(m.group(2)) - 1
    return None


def month_name(month: int) -> str:
    """The YYYY-MM of an absolute month."""
    return "%04d-%02d" % (month // 12, month % 12 + 1)


def boundary_years(months) -> tuple[int, ...]:
    """The years with a month and the previous December among the distinct `months`."""
    months = np.asarray(months).tolist()  # sets: np.intersect1d's code adds 0.4 MB to fit's peak
    return tuple(sorted({m // 12 for m in months} & {m // 12 + 1 for m in months if m % 12 == 11}))


def _clipped(text) -> int:
    """``int(text)``, clipped to the state bound, past which it lies outside every range."""
    return max(-STATE_BOUND, min(int(text), STATE_BOUND))


def _duplicates(person, absm, failed):
    """Mask of the valid rows whose (person, month) key an earlier valid row has."""
    by_key = np.lexsort((absm, person))  # stable: a key's rows in file order
    by_key = by_key[~failed[by_key]]
    again = (np.diff(person[by_key]) == 0) & (np.diff(absm[by_key]) == 0)
    duplicate = np.zeros(len(failed), bool)
    duplicate[by_key[1:][again]] = True
    return duplicate


def parse_records(path, cfg: RunConfig) -> Records:
    """Parse and validate a records CSV.

    Expected header: month,person_id,category,age,seniority,workload plus
    one column per declared characteristic.  Months are YYYY-MM.  Every
    violated constraint is collected with its row number, in row order
    and then in check order; any violation fails the whole parse.  Each
    check runs once per distinct field of its column, and each column's
    codes are dropped once its checks have run.
    """
    space, chars = cfg.space, cfg.characteristics
    header = REQUIRED_COLUMNS + chars.names
    columns, long = _encode_columns(path, header)
    n = len(columns[0][1])
    if not n:
        raise DataError(f"records file {path} contains no data rows")
    month, person_id, category, age, seniority, workload, *levels = columns
    del columns
    # per check, in row order, (row, problem) of the rows that fail it; a long row has one
    found = [[(i, f"{size - len(header)} field(s) beyond the header") for i, size in long.items()]]
    failed = np.zeros(n, bool)
    failed[list(long)] = True

    def check(mask, say):
        found.append([(i, say(i)) for i in np.flatnonzero(mask).tolist() if i not in long])
        np.logical_or(failed, mask, out=failed)

    def field(column, i):
        values, codes = column
        return values[codes[i]]

    absm, bad = _each(_abs_month, *month, np.int32)
    check(bad, lambda i: f"malformed month {field(month, i)!r} (expected YYYY-MM)")
    ids, id_code = person_id
    del person_id
    pid = [(v or "").strip() for v in ids]
    person_ids = sorted(set(pid))
    rank = {s: k for k, s in enumerate(person_ids)}
    person = np.array([rank[s] for s in pid], np.int32)[id_code]
    check(np.array([not s for s in pid])[id_code], lambda i: "empty person_id")
    del ids, id_code, pid, rank

    in_system = {c: k for k, c in enumerate(space.categories) if k}
    cat, bad = _each(lambda v: in_system.get((v or "").strip()), *category, np.int32)

    def category_problem(i):
        code = (field(category, i) or "").strip()
        if code == space.categories[0]:
            return f"category {code!r} is the out-of-system code; records must be in-system"
        return f"unknown category code {code!r}"

    check(bad, category_problem)
    del category

    age_of, bad = _each(_clipped, *age, np.int32)
    sen_of, bad_sen = _each(_clipped, *seniority, np.int32)
    bad |= bad_sen
    check(bad, lambda i: f"non-integer age/seniority {field(age, i)!r}/{field(seniority, i)!r}")
    in_range = (
        (space.age_min <= age_of) & (age_of < space.age_max)
        & (0 <= sen_of) & (sen_of < space.seniority_max)
    )
    check(~bad & ~in_range, lambda i: (
        f"age {int(field(age, i))} / seniority {int(field(seniority, i))} outside "
        f"[{space.age_min},{space.age_max}) x [0,{space.seniority_max})"
    ))
    check(~bad & in_range & ~space.feasible(age_of, sen_of), lambda i: (
        f"infeasible seniority {sen_of[i]} at age {age_of[i]}"
    ))
    del age, seniority, bad_sen, in_range

    hours, bad = _each(finite_float, *workload, np.float64)
    check(bad, lambda i: f"non-numeric workload {field(workload, i)!r} (need a finite number)")
    check(~bad & (hours <= 0), lambda i: f"workload must be positive (got {float(hours[i])})")
    del workload, bad

    coded = [  # per characteristic: each row's level code, and the mask of unknown levels
        _each({name: k for k, name in enumerate(lv)}.get, [(v or "").strip() for v in values],
              codes, np.int32)
        for lv, (values, codes) in zip(chars.levels, levels)
    ]

    def level_problem(i):
        try:
            chars.encode([(field(column, i) or "").strip() for column in levels])
        except ConfigError as exc:
            return str(exc)

    check(np.logical_or.reduce([np.zeros(n, bool), *(mask for _, mask in coded)]), level_problem)
    del levels
    tuple_code = chars.code([k for k, _ in coded]) + np.zeros(n, np.int32)
    del coded

    check(_duplicates(person, absm, failed), lambda i: (
        f"duplicate (person_id={person_ids[person[i]]!r}, month={field(month, i)})"
    ))
    del month, failed
    # a stable sort: a row's problems stay in check order
    by_row = sorted(itertools.chain.from_iterable(found), key=lambda p: p[0])
    problems = [f"row {i + 1}: {say}" for i, say in by_row]
    if problems:
        raise DataError(f"records file {path}: {len(problems)} invalid row(s)", problems)
    return Records.from_columns(absm, person, person_ids, cat, age_of, sen_of, hours, tuple_code)


def split_records(records: Records, split_year: int) -> tuple[Records, Records]:
    """Split a panel into records before `split_year` and the held-out rest.

    Both parts are views of `records` (rows run by month).
    """
    k = int(np.searchsorted(records.month, split_year * 12))
    if k == 0:
        raise DataError(f"no records before the split year {split_year}")
    if k == len(records):
        raise DataError(f"no held-out records at or after the split year {split_year}")
    fit = records.month[:k]
    if not boundary_years(fit[np.r_[True, fit[1:] != fit[:-1]]]):  # rows run by month
        raise DataError(f"no year boundary before the split year {split_year}: the fit needs "
                        "a December and a month of the year after it")
    return records.take(slice(0, k)), records.take(slice(k, None))


def load_reserve_csv(path, space: StateSpaceConfig) -> np.ndarray:
    """Load per-age census totals (header: age,total), as float64 by age from ``age_min``."""
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
    return np.array([totals[e] for e in range(space.age_min, space.age_max)])


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
    missing = [code for i, code in enumerate(space.categories) if i and i not in scale]
    if missing:
        problems.append(f"missing categories: {', '.join(missing)}")
    if problems:
        raise DataError(f"salary scale {path} is invalid", problems)
    return scale


@dataclass(frozen=True)
class CountsCube:
    """Workload-weighted counts, flows and year events of a panel, as dense arrays.

    Axis m runs over the absolute `months`, f over `flow_months` (months
    whose next month is observed) and y over `q_years` (the
    :func:`boundary_years` of `months`); eg/sg are age/seniority groups,
    c categories, e ages from ``age_min``, a seniorities, k tuple codes.

    group_totals[m, eg, sg, c]: category 0 is the reserve.
    flows[f, eg, sg, c, to]: weight moving on to category `to` next month;
    to 0 is an exit.
    char_counts[m, c, eg, sg, k].
    stay_exit[y, eg, sg, c, stay 0 | exit 1]: persons observed the previous
    December, at their December cell.
    hires[y, eg, sg], entry_cats[y, eg, sg, c]: entries at the virtual
    source cell (age - 1, max(0, seniority - 1) at the year's first row).
    latest[12, c, e, a]: cells of the 12 months up to ``months[-1]``, the reserve in c 0.
    i0: the census total, added in age order.
    """

    months: tuple[int, ...]
    flow_months: tuple[int, ...]
    q_years: tuple[int, ...]
    group_totals: np.ndarray
    flows: np.ndarray
    char_counts: np.ndarray
    stay_exit: np.ndarray
    hires: np.ndarray
    entry_cats: np.ndarray
    latest: np.ndarray
    i0: float
    warnings: tuple[str, ...] = ()

    @property
    def base_calendar_year(self) -> int:
        """Calendar year of the latest observed month."""
        return self.months[-1] // 12


def _count(index, weights, shape) -> np.ndarray:
    """Add `weights` into a dense array of `shape` at `index`, in input order."""
    flat = np.ravel_multi_index(index, shape)
    return np.bincount(flat, weights, minlength=math.prod(shape)).reshape(shape)


def build_counts(records: Records, census: np.ndarray, cfg: RunConfig) -> CountsCube:
    """Aggregate validated records and the census totals per age into the counts cube.

    Flows are only counted across consecutive observed months; a person
    present at m and absent at the observed month m+1 is an exit flow to
    category 0, weighted like the month-m record.  Year events need the
    previous December observed plus at least one month of the year.  Sums
    add in row order; per-row temporaries are narrow and short-lived.
    Category 0 of `group_totals` and `latest` holds the reserve (:func:`build_reserve`).
    """
    fields = _panel_counts(records, cfg)  # the per-row temporaries are freed by now
    reserve = build_reserve(fields.pop("in_system"), census, fields["months"], cfg.space)
    fields["group_totals"][..., 0], fields["latest"][:, 0] = reserve
    return CountsCube(**fields, i0=sum(census.tolist()))


def _panel_counts(records: Records, cfg: RunConfig) -> dict:
    """The in-system arrays of the cube by field, and `in_system[m, e]`, the weight by age."""
    space, rec = cfg.space, records
    month, cat, sen = rec.month, rec.category, rec.seniority
    eg, sg = space.locate_groups(rec.age, sen)
    first_row = np.flatnonzero(np.r_[True, month[1:] != month[:-1]])  # rows run by month
    months, latest = month[first_row], int(month[-1])
    q_years = boundary_years(months)
    is_flow = np.isin(months + 1, months)
    nm, nf, ny, nc = len(months), int(is_flow.sum()), len(q_years), space.n_categories
    g = (space.n_age_groups, space.n_seniority_groups)

    # each record's category next month; 0 (an exit) when its person is gone
    chrono = np.argsort(rec.person, kind="stable")  # rows by person, then month
    same = np.diff(rec.person[chrono]) == 0
    moves = same & (np.diff(month[chrono]) == 1)
    to = np.zeros(len(rec), np.int32)
    to[chrono[:-1][moves]] = cat[chrono[1:][moves]]
    # each person's first row of each year, by person, then year
    first = chrono[np.r_[True, ~same | (np.diff(month[chrono] // 12) != 0)]]
    del chrono, same, moves

    # a December row stays when its person has a row in the next year; a hire
    # is a person's first row of a q-year without a row the December before
    y0, span = int(month[0]) // 12, latest // 12 - int(month[0]) // 12 + 1

    def slot(rows):  # one per (person, year), in intp: the product outgrows the int32 columns
        return rec.person[rows].astype(np.intp) * span + (month[rows] // 12 - y0)

    present = np.zeros(len(rec.person_ids) * span, dtype=bool)
    present[slot(first)] = True
    december = np.zeros_like(present)
    dec = np.flatnonzero(month % 12 == 11)
    december[slot(dec)] = True
    dec = dec[np.isin(month[dec] // 12 + 1, q_years)]
    stays = (np.searchsorted(q_years, month[dec] // 12 + 1), eg[dec], sg[dec], cat[dec])
    exits = ~present[slot(dec) + 1]
    # a q-year's previous year is in the panel, so slot - 1 is the same person's
    hire = first[np.isin(month[first] // 12, q_years) & ~december[slot(first) - 1]]
    hire.sort()  # in row order: `first` runs by person
    src_age = rec.age[hire] - 1
    clamped = src_age < space.age_min
    src = space.locate_groups(np.maximum(src_age, space.age_min), np.maximum(sen[hire] - 1, 0))
    hires = (np.searchsorted(q_years, month[hire] // 12), *src)

    w = rec.workload / cfg.full_time_hours
    m = np.repeat(np.arange(nm, dtype=np.int32), np.diff(first_row, append=len(rec)))
    # rows of months without a next month count into a spare last flow month, dropped
    flow_of = np.full(nm, nf, np.int32)
    flow_of[is_flow] = np.arange(nf)
    flows = _count((flow_of[m], eg, sg, cat, to), w, (nf + 1, *g, nc, nc))[:nf]
    del to
    age = rec.age - space.age_min
    window = slice(int(np.searchsorted(month, latest - 11)), None)  # the latest 12 months
    n_codes = len(cfg.characteristics.tuples())
    return dict(
        months=tuple(months.tolist()),
        flow_months=tuple(months[is_flow].tolist()),
        q_years=q_years,
        group_totals=_count((m, eg, sg, cat), w, (nm, *g, nc)),
        flows=flows,
        char_counts=_count((m, cat, eg, sg, rec.tuple_code), w, (nm, nc, *g, n_codes)),
        stay_exit=_count((*stays, exits), w[dec], (ny, *g, nc, 2)),
        hires=_count(hires, w[hire], (ny, *g)),
        entry_cats=_count((*hires, cat[hire]), w[hire], (ny, *g, nc)),
        in_system=_count((m, age), w, (nm, space.n_ages)),
        latest=_count(
            (month[window] - (latest - 11), cat[window], age[window], sen[window]),
            w[window],
            (12, nc, space.n_ages, space.seniority_max),
        ),
        warnings=tuple(
            f"hire of {rec.person_ids[p]!r} in {y}: source age below the configured "
            f"range, clamped to {space.age_min}"
            for p, y in zip(rec.person[hire][clamped], month[hire][clamped] // 12)
        ),
    )


def build_reserve(in_system, census, months, space: StateSpaceConfig):
    """The reserve (category 0) as group totals [m, eg, sg] and latest cells [12, e, a].

    Per month and age, the reserve mass is the census total minus the
    in-system weight `in_system[m, e]`, spread equally over the feasible
    seniorities for that age.  A materially negative remainder means the
    census and the panel disagree and is an error.
    """
    ages = np.arange(space.age_min, space.age_max)
    feasible = space.feasible(ages[:, None], np.arange(space.seniority_max))
    # no np.maximum: its code (64 KiB) would be paged in at the fit's resident peak
    scale = np.where(census > 1.0, census, 1.0)
    share = census - in_system
    problems = [
        f"age {ages[e]}, month {month_name(months[m])}: in-system weight "
        f"{in_system[m, e]:.6g} exceeds the census total {census[e]:.6g}"
        for m, e in np.argwhere(share < -1e-9 * scale)
    ]
    if problems:
        raise DataError("reserve construction failed", problems)
    share[share <= 0.0] = 0.0
    share /= feasible.sum(axis=1, dtype=float)

    # each month's share is added once per feasible seniority, in (age, seniority) order
    pe, pa = np.nonzero(feasible)
    g = (space.n_age_groups, space.n_seniority_groups)
    cell = np.ravel_multi_index(space.locate_groups(ages[pe], pa), g)
    group_totals = np.empty((len(months), *g))
    latest = np.zeros((12, space.n_ages, space.seniority_max))
    for m, month in enumerate(months):
        by_pair = share[m, pe]
        group_totals[m] = np.bincount(cell, by_pair, math.prod(g)).reshape(g)
        if month > months[-1] - 12:
            latest[month - months[-1] + 11, pe, pa] = by_pair
    return group_totals, latest
