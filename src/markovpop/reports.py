"""Report assembly and emission: CSV writers and the embedded run manifest.

Every report starts with a comment block ('# ' lines) identifying the
command, package version, seed and the SHA-256 of each input file, so a
report can be traced back to exactly what produced it.  A timestamp line
is included only when SOURCE_DATE_EPOCH is set; by default reports are
byte-identical across repeated runs.

Probabilities and counts are written with shortest round-trip precision;
currency amounts are rounded to whole units here and nowhere else.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import DataError
from .finance import full_time_costs
from .montecarlo import SimulationResult, summarize
from .project import expected_populations


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance block embedded at the top of every report."""

    command: str
    inputs: tuple[tuple[str, str, str], ...]  # (role, path, sha256)
    params: tuple[tuple[str, str], ...]
    version: str = __version__

    @classmethod
    def collect(cls, command: str, inputs: dict, params: dict) -> "RunManifest":
        resolved = tuple(
            (role, str(path), _sha256(path)) for role, path in sorted(inputs.items())
        )
        rendered = tuple((k, str(v)) for k, v in sorted(params.items()))
        return cls(command=command, inputs=resolved, params=rendered)

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
        epoch = os.environ.get("SOURCE_DATE_EPOCH")
        if epoch:
            stamp = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
            lines.append(f"# timestamp: {stamp.isoformat()}")
        return lines


def _fstr(x) -> str:
    return repr(float(x))


def _cell_names(space) -> list[list[str]]:
    """[category code, age group, seniority group] per raveled cell id."""
    return [
        [code, space.group_label("age", ei), space.group_label("seniority", ai)]
        for code in space.categories
        for ei, ai in space.cells()
    ]


def _write_rows(path, manifest: RunManifest, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in manifest.comment_lines():
            fh.write(line + "\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


_CELL_COLUMNS = ["year", "category", "age_group", "seniority_group"]


def write_projection_csv(path, manifest, model, labels, tables) -> None:
    """Projection report: cell probabilities and expected head counts.

    `tables` holds one GroupProbabilityTable per year over `labels`.  Each
    populated cell gets a '*' aggregate row followed by its characteristic
    tuple rows; never-populated cells are omitted.
    """
    names = _cell_names(model.space)
    tuple_names = [model.characteristics.label(labels.tuples[k]) for k in labels.tuple_code]

    def rows():
        for table in tables:
            year = model.base_year + table.year
            counts, label_counts = expected_populations(table, model.i0)
            p, counts = table.p.ravel(), counts.ravel()
            for cell in np.flatnonzero(p):
                base = [year, *names[cell]]
                yield base + ["*", _fstr(p[cell]), _fstr(counts[cell])]
                for j in labels.split_labels(cell):
                    yield base + [tuple_names[j], _fstr(table.probs[j]), _fstr(label_counts[j])]

    header = _CELL_COLUMNS + ["characteristic_tuple", "probability", "expected_count"]
    _write_rows(path, manifest, header, rows())


def write_simulation_csv(path, manifest, model, labels, result: SimulationResult) -> None:
    """Simulation report: summary statistics per cell and tuple."""
    names = _cell_names(model.space)
    tuple_names = [model.characteristics.label(labels.tuples[k]) for k in labels.tuple_code]

    def fields(stats, j):
        quantiles = (str(int(stats[k][j])) for k in ("p05", "p50", "p95"))
        return [_fstr(stats["mean"][j]), _fstr(stats["sd"][j]), *quantiles]

    def rows():
        for year, sim in sorted(result.years.items()):
            cells, label_stats = summarize(labels.cell_sums(sim.draws)), summarize(sim.draws)
            for cell in range(len(names)):
                if cells["mean"][cell] == 0.0 and cells["sd"][cell] == 0.0:
                    continue
                base = [year, *names[cell]]
                yield base + ["*", *fields(cells, cell)]
                for j in labels.split_labels(cell):
                    if label_stats["mean"][j] != 0.0 or label_stats["sd"][j] != 0.0:
                        yield base + [tuple_names[j], *fields(label_stats, j)]

    header = _CELL_COLUMNS + ["characteristic_tuple", "mean", "sd", "p05", "p50", "p95"]
    _write_rows(path, manifest, header, rows())


def _priced(model, labels, table, scale, profiles, schedule):
    """Full-time cost table, label prices and expected cell and label counts of a year."""
    year = model.base_year + table.year
    full_time = full_time_costs(year, model.space.n_categories, scale, profiles, schedule)
    g = full_time[labels.category, labels.tuple_code]
    return full_time, g, *expected_populations(table, model.i0)


def _cell_rows(year, names, cells, values):
    """A row per cell of `cells`, then a '*' row, each ending in its (finite) `values` row."""
    if not np.isfinite(values).all():
        raise DataError(f"costs for year {year} are not finite")
    keys = [names[c] for c in cells] + [["*", "*", "*"]]
    return [(year, *key, *row) for key, row in zip(keys, values.tolist())]


@np.errstate(over="ignore", invalid="ignore")  # _cell_rows reports overflow
def cost_rows(model, labels, tables, result, scale, profiles, schedule) -> list[tuple]:
    """Expected and simulated cost per populated in-system cell, plus a '*' total.

    Each label is priced at full time: counts are full-time equivalents.
    """
    names = _cell_names(model.space)
    rows = []
    for table in tables[1:]:
        year = model.base_year + table.year
        _, g, _, label_counts = _priced(model, labels, table, scale, profiles, schedule)
        populated = np.bincount(labels.cell_id, label_counts != 0.0) > 0.0
        kept = np.flatnonzero(populated & labels.in_system_cells)
        expected = np.bincount(labels.cell_id, label_counts * g)
        sim_costs = labels.cell_sums(result.years[year].draws * g).T
        # C-order rows, one per kept cell: sums add the cells in order, means add along a row
        costs = np.column_stack([expected, sim_costs])[kept]
        costs = np.vstack([costs, costs.sum(axis=0)])
        sim = summarize(costs[:, 1:].T)
        values = np.column_stack([costs[:, 0], sim["mean"], sim["p05"], sim["p95"]])
        rows += _cell_rows(year, names, kept, values)
    return rows


def write_cost_csv(path, manifest, rows) -> None:
    """Cost report; currency columns are rounded to whole units here."""
    header = _CELL_COLUMNS + ["expected_cost", "sim_mean_cost", "sim_p05", "sim_p95"]
    rounded = ([*row[:4], *(str(int(round(x))) for x in row[4:])] for row in rows)
    _write_rows(path, manifest, header, rounded)


@np.errstate(over="ignore", invalid="ignore")  # _cell_rows reports overflow
def backtest_rows(model, labels, tables, result, records, scale, profiles, schedule):
    """Observed, expected and simulated population and cost per cell and year.

    Rows cover the projected years that have records.  Each record counts
    as a full-time equivalent (workload over `model.full_time_hours`)
    averaged over the year's observed months, and is priced at the same
    full-time label cost as the projection.
    """
    space = model.space
    names = _cell_names(space)
    shape = (space.n_categories, space.n_age_groups, space.n_seniority_groups)
    rows = []
    for table in tables[1:]:
        year = model.base_year + table.year
        observed = records.take(records.cal_year == year)
        if not len(observed):
            continue
        m_obs = len(np.unique(observed.cal_month))
        full_time, g, counts, label_counts = _priced(
            model, labels, table, scale, profiles, schedule
        )
        groups = space.locate_groups(observed.age, observed.seniority)
        cell = np.ravel_multi_index((observed.category, *groups), shape)
        fte = observed.workload / model.full_time_hours
        price = full_time[observed.category, observed.tuple_code]
        obs_pop = np.bincount(cell, fte / m_obs, len(names))
        obs_cost = np.bincount(cell, fte * price / m_obs, len(names))

        draws = result.years[year].draws
        columns = (
            obs_pop,
            counts.ravel(),
            labels.cell_sums(draws).mean(axis=0),
            obs_cost,
            np.bincount(labels.cell_id, label_counts * g),
            np.bincount(labels.cell_id, draws.mean(axis=0) * g),
        )
        keep = labels.in_system_cells & ((obs_pop > 0.0) | (table.p.ravel() > 0.0))
        values = np.column_stack(columns)[keep]
        values = np.vstack([values, values.sum(axis=0)])
        rows += _cell_rows(year, names, np.flatnonzero(keep), values)
    return rows


def write_backtest_csv(path, manifest, rows) -> None:
    """Backtest report: observed vs expected vs simulated, with errors."""

    def fields(row):
        year, cat, eg, ag, obs_p, exp_p, sim_p, obs_c, exp_c, sim_c = row
        rel_p = "" if obs_p == 0 else "%.6g" % ((exp_p - obs_p) / obs_p)
        rel_c = "" if obs_c == 0 else "%.6g" % ((exp_c - obs_c) / obs_c)
        pops = ("%.6g" % x for x in (obs_p, exp_p, sim_p))
        costs = (str(int(round(x))) for x in (obs_c, exp_c, sim_c))
        return [year, cat, eg, ag, *pops, *costs, rel_p, rel_c]

    header = _CELL_COLUMNS + [
        "observed_population",
        "expected_population",
        "sim_mean_population",
        "observed_cost",
        "expected_cost",
        "sim_mean_cost",
        "rel_err_population",
        "rel_err_cost",
    ]
    _write_rows(path, manifest, header, (fields(row) for row in rows))
