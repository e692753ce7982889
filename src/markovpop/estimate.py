"""Estimators that turn the counts cube into a fitted model.

Each estimator averages per-month or per-year ratios of cube arrays over
their month or year axis, adding in index order.  Monthly transition rows
average flow ratios over the months where the denominator (cell
population minus exits) is positive; rows never observed fall back to the
identity and are flagged.  Yearly entry probabilities average stay and
hire ratios, and the characteristic distribution tuple shares, the same
way.  Everything is workload-weighted because the cube is.
"""

from __future__ import annotations

import functools
import logging

import numpy as np

from .config import RunConfig
from .errors import DataError
from .ingest import CountsCube, month_name
from .model import FittedModel

log = logging.getLogger(__name__)

ROW_SUM_TOL = 1e-12


def _ordered_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in index order; ``a.sum(axis=0)`` goes pairwise on 1-element rows."""
    return functools.reduce(np.add, a, np.zeros(a.shape[1:]))


def _mean_ratio(num: np.ndarray, den: np.ndarray, fallback):
    """Mean over axis 0 of num/den, taken over the terms whose den > 0.

    Returns the means, `fallback` where no term counts, and a mask of the
    means that have a term (shaped like `den` without axis 0).
    """
    ok = den > 0.0
    ratio = np.zeros(np.broadcast_shapes(num.shape, den.shape))
    np.divide(num, den, out=ratio, where=ok)
    n = ok.sum(axis=0)
    mean = np.array(np.broadcast_to(fallback, ratio.shape[1:]), dtype=float)
    np.divide(_ordered_sum(ratio), n, out=mean, where=n > 0)
    return mean, n > 0


def estimate_initial_distribution(cube: CountsCube, cfg: RunConfig) -> np.ndarray:
    """Average the latest 12 months of counts, reserve included, and normalize by the census."""
    last = cube.months[-1]
    missing = sorted(set(range(last - 11, last + 1)) - set(cube.months))
    if missing:
        raise DataError(
            "initial distribution needs the 12 latest months; "
            f"missing months: {', '.join(map(month_name, missing))}"
        )
    with np.errstate(over="ignore"):
        sums = _ordered_sum(cube.latest)
    if not np.isfinite(sums).all():
        raise DataError(
            "census totals too large: the latest 12 months do not sum to a finite number"
        )
    pi = sums / 12.0 / cube.i0
    total = float(pi.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise DataError(
            f"initial distribution sums to {total!r}; census totals and panel disagree"
        )
    return pi


def estimate_monthly_transitions(cube: CountsCube, cfg: RunConfig):
    """Per-cell monthly category transition matrices over in-system rows.

    Returns (matrices, diagnostics).  Matrix index i corresponds to
    category index i+1.
    """
    if not cube.flow_months:
        raise DataError("monthly transitions need at least two consecutive observed months")
    flows = cube.flows[..., 1:, :]
    totals = cube.group_totals[np.searchsorted(cube.months, cube.flow_months)][..., 1:]
    # rows [age group, seniority group, category - 1]; never observed rows
    # fall back to the identity
    rows, observed = _mean_ratio(
        flows[..., 1:], (totals - flows[..., 0])[..., None], np.eye(flows.shape[-1] - 1)
    )
    observed = observed[..., 0]
    sums = rows.sum(axis=-1)
    dev = np.abs(sums - 1.0)
    leaky = np.argwhere(observed & (dev > ROW_SUM_TOL))
    for ei, ai, r in leaky:
        if sums[ei, ai, r] <= 0.0:
            raise DataError(
                f"monthly transition row (cell {ei},{ai}, category {r + 1}) sums to 0"
            )
        log.warning(
            "renormalizing monthly transition row (cell %d,%d, category %d): deviation %.3e",
            ei, ai, r + 1, dev[ei, ai, r],
        )
        rows[ei, ai, r] /= sums[ei, ai, r]
    diag = {
        "unobserved_transition_rows": (np.argwhere(~observed) + [0, 0, 1]).tolist(),
        "renormalized_transition_rows": [
            [ei, ai, r + 1, float(dev[ei, ai, r])] for ei, ai, r in leaky.tolist()
        ],
    }
    return {cell: rows[cell] for cell in cfg.space.cells()}, diag


def annualize_transitions(
    monthly: dict,
    pmf,
    overrides: dict,
    cfg: RunConfig,
):
    """Mix monthly matrix powers by the stopping-time pmf.

    P = sum_t pmf[t] * monthly^t for t = 1..12.  Per-category pmf
    overrides replace single columns; when any override is present the
    rows are renormalized (and reported), since mixed columns need not
    leave the rows stochastic.
    """
    space = cfg.space
    pmf = np.asarray(pmf, dtype=float)
    if pmf.shape != (12,):
        raise DataError("stopping-time pmf must have 12 entries")
    override_cols = {}
    for code, values in (overrides or {}).items():
        idx = space.category_index(code)
        override_cols[idx - 1] = np.asarray(values, dtype=float)

    annual = {}
    renormalized = []
    for cell, m in monthly.items():
        powers = []
        p = np.eye(m.shape[0])
        for _t in range(12):
            p = p @ m
            powers.append(p)
        acc = sum(w * powers[t] for t, w in enumerate(pmf))
        for col, colpmf in override_cols.items():
            acc[:, col] = sum(w * powers[t][:, col] for t, w in enumerate(colpmf))
        if override_cols:
            sums = acc.sum(axis=1)
            if np.any(sums <= 0.0):
                raise DataError(f"annualized matrix for cell {cell} has a zero row")
            if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
                renormalized.append([cell[0], cell[1], float(np.max(np.abs(sums - 1.0)))])
                acc = acc / sums[:, None]
        annual[cell] = acc
    diag = {"renormalized_annual_cells": renormalized}
    return annual, diag


def estimate_entry_probabilities(cube: CountsCube, cfg: RunConfig):
    """Probability of belonging to the system next year, per cell and category.

    In-system rows average stay/(stay+exit) over observed year
    boundaries.  The out-of-system row uses the December reserve mass as
    the not-hired pool.  Cells with no observations get 0 and a flag.
    """
    if not cube.q_years:
        raise DataError(
            "entry probabilities need at least one year boundary "
            "(previous December observed plus a month of the next year)"
        )
    decembers = [12 * y - 1 for y in cube.q_years]
    reserve_mass = cube.group_totals[np.searchsorted(cube.months, decembers)][..., 0]
    num, den = cube.stay_exit[..., 0].copy(), cube.stay_exit.sum(axis=-1)
    num[..., 0] = cube.hires
    den[..., 0] = np.maximum(reserve_mass, cube.hires)
    q1, observed = _mean_ratio(num, den, 0.0)
    # over cells, then years
    inconsistent = [
        [cube.q_years[y], ei, ai, float(cube.hires[y, ei, ai]), float(reserve_mass[y, ei, ai])]
        for ei, ai, y in np.argwhere((cube.hires > reserve_mass).transpose(1, 2, 0)).tolist()
    ]
    diag = {
        "unobserved_q_cells": np.argwhere(~observed).tolist(),
        "hires_exceeding_reserve": inconsistent,
    }
    return {cell: q1[cell] for cell in cfg.space.cells()}, diag


def estimate_entry_categories(cube: CountsCube, cfg: RunConfig):
    """Distribution of the category hires enter, per source cell.

    Averaged over years with hires.  Cells without any observed hire get
    a uniform fallback plus a flag; such rows are only reachable when the
    fitted hire probability is zero, so the fallback is inert.
    """
    entry_cats = cube.entry_cats[..., 1:]
    totals = entry_cats.sum(axis=-1, keepdims=True)
    entry, observed = _mean_ratio(entry_cats, totals, 1.0 / entry_cats.shape[-1])
    diag = {"unobserved_entry_cells": np.argwhere(~observed[..., 0]).tolist()}
    return {cell: entry[cell] for cell in cfg.space.cells()}, diag


def estimate_characteristic_distribution(cube: CountsCube, cfg: RunConfig):
    """Per-month tuple shares averaged over months with observations.

    Indexed like ``FittedModel.r``; a cell never observed is all zero.
    """
    counts = cube.char_counts
    r, observed = _mean_ratio(counts, counts.sum(axis=-1, keepdims=True), 0.0)
    unobserved = np.argwhere(~observed[1:, ..., 0]) + [1, 0, 0]
    return r, {"unobserved_r_cells": unobserved.tolist()}


def fit_model(cube: CountsCube, cfg: RunConfig) -> FittedModel:
    """Run every estimator and assemble the fitted model."""
    pi = estimate_initial_distribution(cube, cfg)
    monthly, diag_m = estimate_monthly_transitions(cube, cfg)
    annual, diag_a = annualize_transitions(
        monthly, cfg.stopping_time_pmf, cfg.stopping_time_overrides, cfg
    )
    q1, diag_q = estimate_entry_probabilities(cube, cfg)
    entry, diag_e = estimate_entry_categories(cube, cfg)
    r, diag_r = estimate_characteristic_distribution(cube, cfg)
    diagnostics = {
        **diag_m,
        **diag_a,
        **diag_q,
        **diag_e,
        **diag_r,
        "warnings": list(cube.warnings),
    }
    return FittedModel(
        space=cfg.space,
        characteristics=cfg.characteristics,
        i0=cube.i0,
        base_year=cube.base_calendar_year,
        full_time_hours=cfg.full_time_hours,
        stopping_time_pmf=tuple(cfg.stopping_time_pmf),
        stopping_time_overrides=dict(cfg.stopping_time_overrides),
        pi=pi,
        monthly=monthly,
        annual=annual,
        entry=entry,
        q1=q1,
        r=r,
        diagnostics=diagnostics,
    )
