"""Reference implementations the array code of markovpop is checked against.

They share no logic with the code they check: the one-step law of a
single (category, age, seniority) state, the ``np.add.at`` aging step
whose bits ``project.propagate_distribution`` must reproduce, the
allocating yearly step (each cell's law into a zeroed array, then four
clamped slice adds into another) whose every year the in-place
``project.propagate_distribution`` must reproduce bit for bit, the
whole-document model decode whose models and errors
``FittedModel.load`` must reproduce, the row-by-row records
parser whose problem list ``ingest.parse_records`` must reproduce, the
sort-based counts cube whose arrays ``ingest.build_counts`` must
reproduce bit for bit, the (month, pair)-indexed reserve whose arrays
``ingest.build_reserve`` must reproduce bit for bit (the sort-based cube
takes its category 0 from it), the column-by-column cell sums whose
integer arrays ``project.cell_sums`` must reproduce bit for bit, the whole-year multinomial draw whose matrix the blocks of
``montecarlo.draw_blocks`` must stack to, and the row-by-row projection and simulation writers
whose bytes the bulk writers of ``markovpop.reports`` must reproduce
(they share only the cell names, the manifest and the header with
them), and the whole-matrix cost reduction whose report
``reports.write_cost_csv`` must reproduce byte for byte (it shares the
pricing, the cell sums, ``summarize`` and the cell-row writer).
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from markovpop.errors import ConfigError, DataError
from markovpop.finance import full_time_costs
from markovpop.ingest import CountsCube, Records, finite_float
from markovpop.model import FittedModel
from markovpop.montecarlo import derive_generator, summarize
from markovpop.project import cell_sums
from markovpop.reports import _CELL_COLUMNS, _cell_names, _report, _units, _write_cell_rows
from panelgen import feasible_seniorities

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")


@dataclass(frozen=True)
class Triple:
    """A single chain state: (category index, age, seniority)."""

    category: int
    age: int
    seniority: int


def one_step_triple_probability(frm: Triple, to: Triple, model: FittedModel) -> float:
    """Probability of one yearly step from `frm` to `to`.

    Implements the four-case law literally: moving (or entering) raises
    seniority by one and cannot target category 0; leaving (or staying
    out) keeps seniority; everyone ages one year; anything else has
    probability zero.  No feasibility gate is applied (see README).
    """
    space = model.space
    if to.age != frm.age + 1:
        return 0.0
    ei, ai = space.locate_groups(frm.age, frm.seniority)
    q = float(model.q1[(ei, ai)][frm.category])
    delta = to.seniority - frm.seniority
    if to.category != 0:
        if delta != 1:
            return 0.0
        t = model.transition_operator(ei, ai)
        return float(t[frm.category, to.category]) * q
    if delta != 0:
        return 0.0
    return 1.0 - q


def age_by_add_at(moved: np.ndarray) -> np.ndarray:
    """One year of aging of a (category, age, seniority) array, clamped at the top.

    Every state moves one age up and, in system (category >= 1), one
    seniority up; ``np.add.at`` adds the mass meeting in a clamped top
    value in source order.
    """
    _, n_ages, n_sen = moved.shape
    older = np.minimum(np.arange(n_ages) + 1, n_ages - 1)
    senior = np.minimum(np.arange(n_sen) + 1, n_sen - 1)
    out = np.zeros_like(moved)
    np.add.at(out, (slice(1, None), older[:, None], senior), moved[1:])
    np.add.at(out[0], (older[:, None], np.arange(n_sen)), moved[0])
    return out


def age_by_shift(moved: np.ndarray) -> np.ndarray:
    """One year of aging into a new array: four clamped slice adds per category block.

    A target adds its sources in (age, seniority) order to a zero, as
    ``np.add.at`` would: the shifted source first, then the source
    already at the top seniority, then the one already at the top age,
    then the corner.
    """
    out = np.zeros_like(moved)
    o, m = out[1:], moved[1:]
    o[:, 1:, 1:] += m[:, :-1, :-1]
    o[:, 1:, -1] += m[:, :-1, -1]
    o[:, -1, 1:] += m[:, -1, :-1]
    o[:, -1, -1] += m[:, -1, -1]
    out[0, 1:] += moved[0, :-1]  # out of the system, seniority is kept
    out[0, -1] += moved[0, -1]
    return out


def propagate_by_allocation(values: np.ndarray, model: FittedModel) -> np.ndarray:
    """One yearly step into new arrays, leaving `values` as it is.

    Each cell's law fills its block of a zeroed array of next year's
    categories, and `age_by_shift` ages that array into another.  The
    step is the same under either overflow policy: "strict" only adds
    checks that raise.
    """
    space = model.space
    moved = np.zeros_like(values)
    for ei, ai in space.cells():
        elo, ehi = space.age_groups[ei]
        ages = slice(elo - space.age_min, ehi - space.age_min)
        sens = slice(*space.seniority_groups[ai])
        sub = values[:, ages, sens]
        if not sub.any():
            continue
        q1 = model.q1[(ei, ai)][:, None, None]
        t = model.transition_operator(ei, ai)
        moved[1:, ages, sens] = np.einsum("cea,cl->lea", sub * q1, t[:, 1:])
        moved[0, ages, sens] = (sub * (1.0 - q1)).sum(axis=0)
    return age_by_shift(moved)


def draw_year(
    trials: int, probs: np.ndarray, iterations: int, gen: np.random.Generator
) -> np.ndarray:
    """`iterations` multinomial vectors, (iterations, labels) int32, from `gen`, in one matrix."""
    probs = np.asarray(probs, dtype=float)
    if trials < 0:
        raise ConfigError(f"multinomial trials must be >= 0 (got {trials})")
    if np.any(probs < 0.0):
        raise ConfigError("multinomial probabilities must be non-negative")
    draws = np.zeros((iterations, probs.shape[0]), dtype=np.int32)
    if trials == 0:
        return draws
    nz = np.flatnonzero(probs > 0.0)
    if nz.size == 0:
        raise ConfigError("multinomial probabilities sum to 0 with trials > 0")
    p = probs[nz]
    cond = np.minimum(p / np.cumsum(p[::-1])[::-1], 1.0)
    # one contiguous row per label, scattered into columns once at the end
    rows = np.empty((nz.size, iterations), dtype=np.int32)
    remaining = np.full(iterations, trials, dtype=np.int64)
    for k, p_cond in enumerate(cond[:-1].tolist()):
        c = gen.binomial(remaining, p_cond)
        rows[k] = c
        remaining -= c
    rows[-1] = remaining
    draws[:, nz] = rows.T
    return draws


def stacked(_year, blocks) -> np.ndarray:
    """A year's whole (iterations, labels) matrix, stacked from its `draw_blocks`."""
    return np.hstack([block for _, _, block in blocks])


def cell_sums_by_column(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Label columns (last axis) summed per cell of `bounds`, one column rank at a time."""
    sizes = np.diff(bounds)
    starts = bounds[:-1] - bounds[0]
    out = np.take(values, starts, axis=-1)
    for k in range(1, sizes.max()):
        has = sizes > k
        out[..., has] += np.take(values, starts[has] + k, axis=-1)
    return out


def _reject_constant(name: str):
    raise DataError(f"model file: non-finite number {name}")


def load_model_whole(path) -> FittedModel:
    """Load a model file by decoding the whole JSON document at once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except FileNotFoundError:
        raise DataError(f"model file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"model file {path} cannot be read: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from None
    return FittedModel.from_json_dict(doc)


def parse_records_by_row(path, cfg) -> Records:
    """Parse and validate a records CSV one row at a time (csv.DictReader).

    Every problem is listed with its row number, in row order and then
    in the order of the checks below.  A row with more fields than the
    header is only reported; the first valid row of a (person, month)
    key is kept and later valid ones are duplicates.
    """
    space = cfg.space
    chars = cfg.characteristics
    problems: list[str] = []
    rows: list[tuple] = []
    seen: set[tuple[str, int]] = set()
    out_code = space.categories[0]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for i, row in enumerate(reader, start=1):
            if None in row:
                problems.append(f"row {i}: {len(row[None])} field(s) beyond the header")
                continue
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
                errs.append(
                    f"category {code!r} is the out-of-system code; records must be in-system"
                )
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
                if not (space.age_min <= age < space.age_max and 0 <= sen < space.seniority_max):
                    errs.append(
                        f"age {age} / seniority {sen} outside "
                        f"[{space.age_min},{space.age_max}) x [0,{space.seniority_max})"
                    )
                elif sen > max(0, age - space.working_age_min):
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

    abs_month, person_id, category, age, seniority, workload, tuple_code = zip(*rows)
    person_ids = sorted(set(person_id))
    code = {pid: k for k, pid in enumerate(person_ids)}
    person = np.array([code[pid] for pid in person_id])
    order = np.lexsort((person, tuple_code, workload, abs_month))
    absm = np.asarray(abs_month, np.int32)[order]
    ints = (np.asarray(col, np.int32)[order] for col in (person, category, age, seniority))
    return Records(
        absm, *ints,
        np.asarray(workload, np.float64)[order], np.asarray(tuple_code, np.int32)[order],
        tuple(person_ids),
    )


def _count(index, weights, shape) -> np.ndarray:
    """Add `weights` into a dense array of `shape` at `index`, in input order."""
    flat = np.ravel_multi_index(index, shape)
    return np.bincount(flat, weights, minlength=math.prod(shape)).reshape(shape)


def build_counts_by_sort(records: Records, census: np.ndarray, cfg) -> CountsCube:
    """Aggregate validated records and the census into the counts cube, reserve included."""
    counts = panel_counts_by_sort(records, cfg)
    in_system = counts.pop("in_system")
    group_totals, latest = build_reserve_by_index(in_system, census, counts["months"], cfg.space)
    counts["group_totals"][..., 0] = group_totals
    counts["latest"][:, 0] = latest
    return CountsCube(**counts, i0=sum(census.tolist()))


def panel_counts_by_sort(records: Records, cfg) -> dict:
    """The in-system arrays of the counts cube by field, and in_system[m, e], by age.

    Flows are only counted across consecutive observed months; a person
    present at m and absent at the observed month m+1 is an exit flow to
    category 0, weighted like the month-m record.  Year events need the
    previous December observed plus at least one month of the year.
    """
    # the calendar year and month columns this reference was written against
    absm = records.month
    records = SimpleNamespace(**vars(records), cal_year=absm // 12, cal_month=absm % 12 + 1)
    space, rec = cfg.space, records
    w = rec.workload / cfg.full_time_hours
    eg, sg = space.locate_groups(rec.age, rec.seniority)
    cat, age, sen = rec.category, rec.age - space.age_min, rec.seniority
    months, first_row, m = np.unique(rec.month, return_index=True, return_inverse=True)
    cal = {(int(rec.cal_year[i]), int(rec.cal_month[i])) for i in first_row}
    q_years = tuple(sorted({y for y, _ in cal if (y - 1, 12) in cal}))
    is_flow = np.isin(months + 1, months)
    nm, ny, nc = len(months), len(q_years), space.n_categories
    g = (space.n_age_groups, space.n_seniority_groups)

    # each record's category next month; 0 (an exit) when its person is gone
    chrono = np.lexsort((rec.month, rec.person))  # rows by person, then month
    moves = (np.diff(rec.person[chrono]) == 0) & (np.diff(rec.month[chrono]) == 1)
    to = np.zeros(len(rec.month), dtype=int)
    to[chrono[:-1][moves]] = cat[chrono[1:][moves]]
    f = is_flow[m]
    flow_month = (np.cumsum(is_flow) - 1)[m[f]]

    # a December row stays when its person has a row in the next year; a hire
    # is a person's first row of a q-year without a row the December before
    span = int(rec.cal_year.max() - rec.cal_year.min()) + 1
    # one per (person, year), in intp: the product outgrows the int32 columns
    slot = rec.person.astype(np.intp) * span + (rec.cal_year - rec.cal_year.min())
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
    hire = np.sort(hire)  # in row order
    src_age = rec.age[hire] - 1
    clamped = src_age < space.age_min
    src = space.locate_groups(np.maximum(src_age, space.age_min), np.maximum(sen[hire] - 1, 0))
    hires = (np.searchsorted(q_years, rec.cal_year[hire]), *src)
    n_codes = len(cfg.characteristics.tuples())
    window = rec.month > months[-1] - 12
    return dict(
        months=tuple(months.tolist()),
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
            (rec.month[window] - (months[-1] - 11), cat[window], age[window], sen[window]),
            w[window],
            (12, nc, space.n_ages, space.seniority_max),
        ),
        warnings=tuple(
            f"hire of {rec.person_ids[p]!r} in {y}: source age below the configured "
            f"range, clamped to {space.age_min}"
            for p, y in zip(rec.person[hire][clamped], rec.cal_year[hire][clamped])
        ),
    )


def build_reserve_by_index(in_system, census, months, space):
    """Out-of-system (category 0) group totals [m, eg, sg] and latest cells [12, e, a].

    Per month and age, the reserve mass is the census total minus the
    weighted in-system count at that age, spread equally over the
    feasible seniorities for that age.  A materially negative remainder
    means the census and the panel disagree and is an error.
    """
    ages = range(space.age_min, space.age_max)
    rest = census - in_system
    problems = [
        f"age {ages[e]}, month {months[m] // 12:04d}-{months[m] % 12 + 1:02d}: in-system weight "
        f"{in_system[m, e]:.6g} exceeds the census total {census[e]:.6g}"
        for m, e in np.argwhere(rest < -1e-9 * np.maximum(1.0, census))
    ]
    if problems:
        raise DataError("reserve construction failed", problems)
    share = np.maximum(rest, 0.0) / [len(feasible_seniorities(space, e)) for e in ages]

    # each share is added once per feasible seniority, in (age, seniority) order
    pairs = np.array([(e, a) for e in ages for a in feasible_seniorities(space, e)])
    n = len(months)
    groups = (np.tile(g, n) for g in space.locate_groups(*pairs.T))
    pe, pa = pairs[:, 0] - space.age_min, pairs[:, 1]
    group_totals = _count(
        (np.repeat(np.arange(n), len(pairs)), *groups), share[:, pe].ravel(),
        (n, space.n_age_groups, space.n_seniority_groups),
    )
    window = np.arange(months[-1] - 11, months[-1] + 1)
    k = np.flatnonzero(np.isin(window, months))
    latest = np.zeros((12, space.n_ages, space.seniority_max))
    latest[k[:, None], pe, pa] = share[np.searchsorted(months, window[k])][:, pe]
    return group_totals, latest


def _fstr(x) -> str:
    return repr(float(x))


def _split_labels(labels, cell: int) -> range:
    """Labels of a cell that carry a characteristic tuple (none if unsplit)."""
    lo, hi = labels.bounds[cell], labels.bounds[cell + 1]
    return range(lo, hi) if labels.tuple_code[lo] else range(0)


def write_projection_csv_by_row(path, manifest, model, labels, tables) -> None:
    """Projection report, one csv.writer row per cell and label."""
    names = _cell_names(model.space)
    tuple_names = [model.characteristics.label(labels.tuples[k]) for k in labels.tuple_code]

    def rows():
        for table in tables:
            year = table.year
            p, label_counts = table.p.ravel(), table.probs * model.i0
            counts = p * model.i0
            for cell in np.flatnonzero(p):
                base = [year, *names[cell]]
                yield base + ["*", _fstr(p[cell]), _fstr(counts[cell])]
                for j in _split_labels(labels, cell):
                    yield base + [tuple_names[j], _fstr(table.probs[j]), _fstr(label_counts[j])]

    header = _CELL_COLUMNS + ["characteristic_tuple", "probability", "expected_count"]
    with _report(path, manifest, header) as fh:
        csv.writer(fh).writerows(rows())


def write_simulation_csv_by_row(path, manifest, model, labels, years) -> None:
    """Simulation report of (year, draws) `years`, one csv.writer row per shown cell and label."""
    names = _cell_names(model.space)
    tuple_names = [model.characteristics.label(labels.tuples[k]) for k in labels.tuple_code]

    def fields(stats, j):
        quantiles = (str(int(stats[k][j])) for k in ("p05", "p50", "p95"))
        return [_fstr(stats["mean"][j]), _fstr(stats["sd"][j]), *quantiles]

    def rows():
        for year, draws in years:
            cells, label_stats = summarize(cell_sums(draws, labels.bounds)), summarize(draws)
            for cell in range(len(names)):
                if cells["mean"][cell] == 0.0 and cells["sd"][cell] == 0.0:
                    continue
                base = [year, *names[cell]]
                yield base + ["*", *fields(cells, cell)]
                for j in _split_labels(labels, cell):
                    if label_stats["mean"][j] != 0.0 or label_stats["sd"][j] != 0.0:
                        yield base + [tuple_names[j], *fields(label_stats, j)]

    header = _CELL_COLUMNS + ["characteristic_tuple", "mean", "sd", "p05", "p50", "p95"]
    with _report(path, manifest, header) as fh:
        csv.writer(fh).writerows(rows())


def cost_rows_by_matrix(model, labels, tables, pricing, iterations, seed):
    """Per year of `tables[1:]`: (year, shown cells, their cost rows, then the '*' row).

    The rows come from the year's whole (cells, 1 + iterations) cost
    matrix: a cell's C-order row holds its expected cost, then its cost
    in each iteration of the year's `draw_year` draws under `seed`.  The
    rows of the populated in-system cells are stacked with their sum, and
    each stacked row is summarized along its iterations.
    """
    for table in tables[1:]:
        year = table.year
        full_time = full_time_costs(year, model.space.n_categories, *pricing)
        prices = full_time[labels.category, labels.tuple_code]
        label_counts = table.probs * model.i0
        gen = derive_generator(seed, year)
        draws = draw_year(int(round(model.i0)), table.probs, iterations, gen)
        costs = np.empty((len(labels.bounds) - 1, 1 + iterations))
        costs[:, 0] = np.bincount(labels.cell_id, label_counts * prices)
        costs[:, 1:] = cell_sums(draws * prices, labels.bounds).T
        populated = np.bincount(labels.cell_id, label_counts != 0.0) > 0.0
        kept = np.flatnonzero(populated & labels.in_system_cells)
        costs = np.vstack([costs[kept], costs[kept].sum(axis=0)])
        sim = summarize(costs[:, 1:].T)
        yield year, kept, np.column_stack([costs[:, 0], sim["mean"], sim["p05"], sim["p95"]])


def write_cost_csv_by_matrix(path, manifest, model, rows) -> None:
    """Cost report of the `cost_rows_by_matrix` stream `rows`."""
    columns = ["expected_cost", "sim_mean_cost", "sim_p05", "sim_p95"]
    _write_cell_rows(path, manifest, model, columns, rows, _units)
