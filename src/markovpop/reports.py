"""Report assembly and emission: CSV writers and the embedded run manifest.

Every report starts with a comment block ('# ' lines) identifying the
command, package version, seed and the SHA-256 of each input file, so a
report can be traced back to exactly what produced it (an input that is
not a regular file, such as a pipe, is not read again: its digest is
unavailable).  A timestamp line is included only when SOURCE_DATE_EPOCH
is set; by default reports are byte-identical across repeated runs.

Probabilities and counts are written with shortest round-trip precision;
currency amounts are rounded to whole units here and nowhere else.
"""

from __future__ import annotations

import csv
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, atomic
from .finance import full_time_costs
from .montecarlo import summarize
from .project import cell_sums


def _sha256(path) -> str:
    """The hex digest of a regular file; "unavailable" for any other input, which is not read."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return "unavailable (not a regular file)"
    import hashlib  # loads OpenSSL: only commands that write a report pay for it

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance block embedded at the top of every report."""

    command: str
    inputs: tuple[tuple[str, str, str], ...]  # (role, path, sha256 or why it is unavailable)
    params: tuple[tuple[str, str], ...]
    timestamp: str | None  # SOURCE_DATE_EPOCH in ISO 8601, if set
    version: str = __version__

    @classmethod
    def collect(cls, command: str, inputs: dict, params: dict) -> "RunManifest":
        epoch, timestamp = os.environ.get("SOURCE_DATE_EPOCH"), None
        if epoch:
            try:
                timestamp = datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
            except (ValueError, OverflowError, OSError):
                msg = f"SOURCE_DATE_EPOCH must be a whole number of seconds (got {epoch!r})"
                raise ConfigError(msg) from None
        resolved = tuple(
            (role, str(path), _sha256(path)) for role, path in sorted(inputs.items())
        )
        rendered = tuple((k, str(v)) for k, v in sorted(params.items()))
        return cls(command=command, inputs=resolved, params=rendered, timestamp=timestamp)

    def comment_lines(self) -> list[str]:
        lines = [
            "# markovpop-report",
            f"# command: {self.command}",
            f"# version: {self.version}",
        ]
        for k, v in self.params:
            lines.append(f"# {k}: {v}")
        for role, path, digest in self.inputs:
            lines.append(f"# input {role}: {path} sha256={digest}")
        if self.timestamp:
            lines.append(f"# timestamp: {self.timestamp}")
        return lines


def _cell_names(space) -> list[list[str]]:
    """[category code, age group, seniority group] per raveled cell id."""
    return [
        [code, space.group_label("age", ei), space.group_label("seniority", ai)]
        for code in space.categories
        for ei, ai in space.cells()
    ]


@contextmanager
def _report(path, manifest: RunManifest, header):
    """An open report file after its manifest lines and its header row."""
    with atomic(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        for line in manifest.comment_lines():
            fh.write(line + "\n")
        csv.writer(fh).writerow(header)
        yield fh


_CELL_COLUMNS = ["year", "category", "age_group", "seniority_group"]
_SLICE_ROWS = 1024  # label rows rendered and written at a time, so a year's text is never held


class _Echo:
    """A file whose write returns its text, so csv.writer hands back one rendered row."""

    def write(self, text):
        return text


def _write_label_rows(path, manifest, model, labels, columns, years) -> None:
    """A report of label-level rows: per year, each shown cell's '*' row, then its shown labels.

    `years` yields (year, shown, values), each indexed by source: the
    raveled cells, then the labels.  A label is written only if its
    cell is shown.  Values are written with repr, which is str for the
    integer quantiles; category, groups and tuple are quoted as
    csv.writer quotes them.
    """
    names = _cell_names(model.space)
    tuple_names = [model.characteristics.label(t) for t in labels.tuples]
    render = csv.writer(_Echo()).writerow
    keys = [render([*name, "*"])[:-2] for name in names]
    pairs = zip(labels.cell_id.tolist(), labels.tuple_code.tolist())
    keys += [render([*names[c], tuple_names[k]])[:-2] for c, k in pairs]
    keys = np.array(keys, dtype=object)
    # the row layout: each cell's '*' row, then the labels that split it (code 0 does not)
    split = np.flatnonzero(labels.tuple_code)
    at = np.searchsorted(split, labels.bounds[:-1])
    cells = np.arange(len(names))
    source = np.insert(len(names) + split, at, cells)
    cell = np.insert(labels.cell_id[split], at, cells)
    header = _CELL_COLUMNS + ["characteristic_tuple", *columns]
    with _report(path, manifest, header) as fh:
        for year, shown, values in years:
            rows = source[shown[cell] & shown[source]]
            fmt = (f"{year},{{}}" + ",{!r}" * len(columns) + "\r\n").format
            for part in np.split(rows, range(_SLICE_ROWS, len(rows), _SLICE_ROWS)):
                texts = map(fmt, keys[part].tolist(), *(v[part].tolist() for v in values))
                fh.write("".join(texts))


def write_projection_csv(path, manifest, model, labels, tables) -> None:
    """Projection report: cell probabilities and expected head counts.

    `tables` holds one GroupProbabilityTable per year over `labels`.  Each
    populated cell gets a '*' aggregate row followed by its characteristic
    tuple rows; never-populated cells are omitted.  An expected count is
    its probability times i0.
    """

    def years():
        for table in tables:
            p = table.p.ravel()
            shown = np.append(p != 0.0, np.ones(len(table.probs), dtype=bool))
            probs = np.append(p, table.probs)
            yield table.year, shown, (probs, probs * model.i0)

    columns = ["probability", "expected_count"]
    _write_label_rows(path, manifest, model, labels, columns, years())


_SIM_STATS = ("mean", "sd", "p05", "p50", "p95")


def summaries(bounds, _year, blocks) -> list[np.ndarray]:
    """A simulated year's `_SIM_STATS`, each over the raveled cells, then the labels.

    Each of the year's `draw_blocks`, over labels whose cell bounds are
    `bounds`, is summarized, and so are its cell sums.
    """
    cells, labels = [], []
    for lo, hi, block in blocks:
        c0, c1 = np.searchsorted(bounds, [lo, hi]).tolist()  # the block's cells
        cells.append(summarize(cell_sums(block, bounds[c0 : c1 + 1])))
        labels.append(summarize(block))
    return [np.concatenate([s[k] for s in cells + labels]) for k in _SIM_STATS]


def write_simulation_csv(path, manifest, model, labels, years) -> None:
    """Simulation report: the (year, `summaries`) list `years`, per cell and tuple.

    Cells and labels whose mean and sd are both 0 are omitted.
    """
    stats = [(year, (v[0] != 0.0) | (v[1] != 0.0), v) for year, v in years]
    _write_label_rows(path, manifest, model, labels, _SIM_STATS, stats)


@np.errstate(over="ignore", invalid="ignore")  # _write_cell_rows reports overflow
def cell_costs(model, labels, tables, scale, profiles, schedule):
    """The `_cell_costs` reduction of the simulated years of `tables[1:]`.

    Each label is priced at full time: counts are full-time equivalents.
    A year shows its populated in-system cells.
    """
    priced = {}
    for table in tables[1:]:
        full_time = full_time_costs(table.year, model.space.n_categories, scale, profiles, schedule)
        prices = full_time[labels.category, labels.tuple_code]
        label_counts = table.probs * model.i0
        shown = labels.in_system_cells & (np.bincount(labels.cell_id, label_counts != 0.0) > 0)
        priced[table.year] = prices, np.bincount(labels.cell_id, label_counts * prices), shown
    return partial(_cell_costs, labels.bounds, priced)


@np.errstate(over="ignore", invalid="ignore")  # _write_cell_rows reports overflow
def _cell_costs(bounds, priced, year, blocks):
    """A simulated year per raveled cell: its mean population, its cost rows, the shown cells.

    `priced[year]` is (label prices, expected cost per cell, shown cells).
    A row per cell, then a last '*' row for the shown cells' total, holds
    the expected cost, then the mean, p05 and p95 over the iterations.
    A cell adds its labels' costs in label order; the total adds cells in order.
    """
    prices, expected, shown = priced[year]
    pops, stats = np.empty(len(bounds) - 1), []
    for lo, hi, block in blocks:
        if lo == 0:  # the first block gives the number of iterations
            total = np.zeros(len(block))
        c0, c1 = np.searchsorted(bounds, [lo, hi]).tolist()  # the block's cells
        pops[c0:c1] = cell_sums(block.sum(axis=0), bounds[c0 : c1 + 1]) / len(block)  # exact
        # a C-order row of iterations per cell, so its mean adds along the row
        costs = cell_sums(block, bounds[c0 : c1 + 1], prices[lo:hi]).T.copy()
        total = sum(costs[shown[c0:c1]], total)  # row by row: numpy sums one column pairwise
        stats.append(summarize(costs.T))
    stats.append(summarize(total[:, None]))
    expected = np.append(expected, np.add.accumulate(np.r_[0.0, expected[shown]])[-1])
    sim = [np.concatenate([s[k] for s in stats]) for k in ("mean", "p05", "p95")]
    return pops, np.column_stack([expected, *sim]), np.flatnonzero(shown)


def _write_cell_rows(path, manifest, model, columns, years, fields) -> None:
    """A report of cell rows: per year, a row per kept cell, then a '*' row.

    `years` yields (year, kept cell ids, values): a row per kept cell and
    a last row for '*', each rendered by `fields`.
    """
    names = _cell_names(model.space)
    with _report(path, manifest, _CELL_COLUMNS + columns) as fh:
        for year, kept, values in years:
            if not np.isfinite(values).all():
                raise DataError(f"costs for year {year} are not finite")
            rows = zip([names[c] for c in kept] + [["*", "*", "*"]], values.tolist())
            csv.writer(fh).writerows([year, *key, *fields(row)] for key, row in rows)


def _units(values):
    return [str(int(round(x))) for x in values]


def write_cost_csv(path, manifest, model, years):
    """Cost report: expected and simulated cost per populated in-system cell, plus a '*' total.

    `years` is a (year, `cell_costs`) list: the report picks each
    year's shown cell rows and its '*' row.  Currency columns are rounded
    to whole units here.
    """
    picked = ((year, shown, costs[np.append(shown, -1)]) for year, (_, costs, shown) in years)
    columns = ["expected_cost", "sim_mean_cost", "sim_p05", "sim_p95"]
    _write_cell_rows(path, manifest, model, columns, picked, _units)


@np.errstate(over="ignore", invalid="ignore")  # write_backtest_csv reports overflow
def observed_totals(records, cfg, scale, profiles, schedule) -> dict[int, tuple]:
    """Each calendar year's observed population and cost per raveled cell, by year.

    Each record counts as a full-time equivalent (workload over
    `cfg.full_time_hours`) averaged over the year's observed months, and
    is priced at the year's full-time label cost, as the projection is.
    """
    space = cfg.space
    shape = (space.n_categories, space.n_age_groups, space.n_seniority_groups)
    year_of = records.month // 12
    starts = np.flatnonzero(np.r_[True, year_of[1:] != year_of[:-1]])  # rows run by month
    totals = {}
    for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), len(records)]):
        year, observed = int(year_of[lo]), records.take(slice(lo, hi))
        m_obs = len(np.unique(observed.month))
        full_time = full_time_costs(year, space.n_categories, scale, profiles, schedule)
        groups = space.locate_groups(observed.age, observed.seniority)
        cell = np.ravel_multi_index((observed.category, *groups), shape)
        fte = observed.workload / cfg.full_time_hours
        price = full_time[observed.category, observed.tuple_code]
        totals[year] = (
            np.bincount(cell, fte / m_obs, math.prod(shape)),
            np.bincount(cell, fte * price / m_obs, math.prod(shape)),
        )
    return totals


@np.errstate(over="ignore", invalid="ignore")  # _write_cell_rows reports overflow
def write_backtest_csv(path, manifest, model, labels, tables, years, observed):
    """Backtest report: observed vs expected vs simulated population and cost, with errors.

    `years` is the (year, `cell_costs`) list of `tables[1:]`.  Rows
    cover the years that `observed` (:func:`observed_totals`) has.  The
    simulated cost is the iteration mean of the cell cost that the cost
    report summarizes.
    """

    def compared():
        for table, (year, (sim_pop, costs, _)) in zip(tables[1:], years, strict=True):
            if year not in observed:
                continue
            obs_pop, obs_cost = observed[year]
            p = table.p.ravel()
            columns = obs_pop, p * model.i0, sim_pop, obs_cost, *costs[:-1, :2].T  # expected, mean
            seen = (obs_pop > 0.0) | (p > 0.0)  # observed or projected
            kept = np.flatnonzero(labels.in_system_cells & seen)
            values = np.column_stack(columns)[kept]
            yield year, kept, np.vstack([values, values.sum(axis=0)])

    def fields(row):
        obs_p, exp_p, sim_p, obs_c, exp_c, sim_c = row
        rel_p = "" if obs_p == 0 else "%.6g" % ((exp_p - obs_p) / obs_p)
        rel_c = "" if obs_c == 0 else "%.6g" % ((exp_c - obs_c) / obs_c)
        return ["%.6g" % x for x in (obs_p, exp_p, sim_p)] + _units(row[3:]) + [rel_p, rel_c]

    columns = ["observed_population", "expected_population", "sim_mean_population",
               "observed_cost", "expected_cost", "sim_mean_cost", "rel_err_population",
               "rel_err_cost"]
    _write_cell_rows(path, manifest, model, columns, compared(), fields)
