"""Multinomial population simulation with reproducible streams.

Each simulated year draws `iterations` independent multinomial vectors
over the model's cell/tuple labels (:class:`markovpop.project.LabelIndex`).
A draw is built as a chain of conditional binomials in ascending label
order, so results do not depend on how work is scheduled;
zero-probability labels are skipped without consuming randomness, which
keeps streams aligned when a config edit adds empty cells.

Randomness comes from numpy's counter-based Philox generator.  The
stream for one draw is keyed by (master seed, year, iteration index),
making every draw independent of execution order and of the number of
worker processes.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)


def derive_generator(seed: int, year: int, iteration: int) -> np.random.Generator:
    """Philox stream for one (seed, year, iteration) triple."""
    key = np.array(
        [seed % (1 << 64), ((year % (1 << 32)) << 32) | (iteration % (1 << 32))],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def multinomial_draw(trials: int, probs: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """One multinomial vector via conditional binomials in index order."""
    probs = np.asarray(probs, dtype=float)
    if trials < 0:
        raise ConfigError(f"multinomial trials must be >= 0 (got {trials})")
    if np.any(probs < 0.0):
        raise ConfigError("multinomial probabilities must be non-negative")
    counts = np.zeros(probs.shape[0], dtype=np.int64)
    if trials == 0:
        return counts
    nz = np.flatnonzero(probs > 0.0)
    if nz.size == 0:
        raise ConfigError("multinomial probabilities sum to 0 with trials > 0")
    remaining = int(trials)
    rem_p = float(probs[nz].sum())
    last = nz[-1]
    for i in nz:
        if remaining == 0:
            break
        if i == last:
            counts[i] = remaining
            remaining = 0
            break
        p_cond = probs[i] / rem_p
        if p_cond >= 1.0:
            c = remaining
        else:
            c = int(gen.binomial(remaining, p_cond))
        counts[i] = c
        remaining -= c
        rem_p -= float(probs[i])
    return counts


def nearest_rank(sorted_values: np.ndarray, q: float) -> np.ndarray:
    """Nearest-rank quantile along axis 0; ties resolve to the lower rank."""
    n = sorted_values.shape[0]
    idx = max(int(np.ceil(q * n)) - 1, 0)
    return sorted_values[idx]


def summarize(draws: np.ndarray) -> dict[str, np.ndarray]:
    """Mean, population standard deviation and nearest-rank quantiles."""
    s = np.sort(draws, axis=0)
    return {
        "mean": draws.mean(axis=0),
        "sd": draws.std(axis=0, ddof=0),
        "p05": nearest_rank(s, 0.05),
        "p50": nearest_rank(s, 0.50),
        "p95": nearest_rank(s, 0.95),
    }


def _draw_block(seed: int, year: int, probs: np.ndarray, trials: int, lo: int, hi: int) -> np.ndarray:
    out = np.empty((hi - lo, probs.shape[0]), dtype=np.int64)
    for it in range(lo, hi):
        gen = derive_generator(seed, year, it)
        out[it - lo] = multinomial_draw(trials, probs, gen)
    return out


@dataclass
class YearSimulation:
    """Raw draws and summary statistics for one simulated year."""

    year: int
    draws: np.ndarray  # (iterations, n_labels)
    stats: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class SimulationResult:
    seed: int
    iterations: int
    trials: int
    years: dict[int, YearSimulation]


def simulate_projection(
    v_by_year: dict[int, np.ndarray],
    i0: float,
    iterations: int,
    seed: int,
    workers: int = 1,
) -> SimulationResult:
    """Draw the yearly multinomial ensembles and summarize them.

    `v_by_year` maps a year to its label probabilities, the `probs` of
    :func:`markovpop.project.group_probabilities`.  Results are
    bit-identical for a given seed regardless of `workers`.
    """
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1 (got {iterations})")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1 (got {workers})")
    if not i0 < 2**63:
        raise DataError(f"population size {i0!r} is too large to simulate (needs < 2**63)")
    trials = int(round(i0))
    if abs(i0 - trials) > 1e-9:
        log.warning(
            "population size %r is not an integer; simulating %d trials", i0, trials
        )

    years = {}
    for year, probs in sorted(v_by_year.items()):
        total = float(np.asarray(probs).sum())
        if not abs(total - 1.0) <= 1e-9:
            raise ConfigError(
                f"cell probabilities for year {year} sum to {total!r}, expected 1"
            )
        if workers == 1:
            draws = _draw_block(seed, year, probs, trials, 0, iterations)
        else:
            step = -(-iterations // workers)
            bounds = [(lo, min(lo + step, iterations)) for lo in range(0, iterations, step)]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_draw_block, seed, year, probs, trials, lo, hi)
                    for lo, hi in bounds
                ]
                draws = np.vstack([f.result() for f in futures])
        years[year] = YearSimulation(year=year, draws=draws, stats=summarize(draws))
    return SimulationResult(seed=seed, iterations=iterations, trials=trials, years=years)


def dump_draws(result: SimulationResult, path) -> None:
    """Write raw draws as little-endian int64 in a fixed layout.

    Layout: 5 uint64 header fields (magic 0x4d504f50, layout version 1,
    number of years, iterations, cells per year), then per year in
    ascending order one uint64 (the year) followed by iterations x cells
    int64 values, iteration-major.  All integers little-endian.
    """
    years = sorted(result.years)
    n_cells = {result.years[y].draws.shape[1] for y in years}
    if len(n_cells) > 1:
        raise ConfigError("draw dump requires a uniform cell layout across years")
    cells = n_cells.pop() if n_cells else 0
    with open(path, "wb") as fh:
        header = np.array(
            [0x4D504F50, 1, len(years), result.iterations, cells], dtype="<u8"
        )
        fh.write(header.tobytes())
        for y in years:
            fh.write(np.array([y], dtype="<u8").tobytes())
            fh.write(result.years[y].draws.astype("<i8").tobytes())
