"""Multinomial population simulation with reproducible streams.

Each simulated year draws `iterations` independent multinomial vectors
over the model's cell/tuple labels (:class:`markovpop.project.LabelIndex`).
The year is one chain of conditional binomials in ascending label order:
label i takes `binomial(remaining, p_i / tail_i)` for every iteration
at once, where `tail_i` sums the probabilities of label i and the labels
after it, and the last non-zero label takes what remains.
Zero-probability labels are skipped without consuming randomness, which
keeps streams aligned when a config edit adds empty cells.

Randomness comes from numpy's counter-based Philox generator.  The
stream of one year is keyed by (master seed, year), and worker
processes split the years, so every draw is independent of execution
order and of the number of workers.
"""

from __future__ import annotations

import logging
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

# version of the draw stream, written to report manifests; raise it whenever
# the same seed would draw different numbers
STREAM_VERSION = 2


def derive_generator(seed: int, year: int) -> np.random.Generator:
    """Philox stream for one (seed, year) pair."""
    key = np.array([int(seed) % (1 << 64), int(year) % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_year(
    trials: int, probs: np.ndarray, iterations: int, gen: np.random.Generator
) -> np.ndarray:
    """`iterations` multinomial vectors, (iterations, labels) int32, from `gen`."""
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


def nearest_rank(sorted_values: np.ndarray, q: float) -> np.ndarray:
    """Nearest-rank quantile along axis 0; ties resolve to the lower rank.

    Returns a copy, so the result does not keep `sorted_values` alive.
    """
    n = sorted_values.shape[0]
    idx = max(int(np.ceil(q * n)) - 1, 0)
    return sorted_values[idx].copy()


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


@dataclass
class YearSimulation:
    """Raw draws and summary statistics for one simulated year."""

    year: int
    draws: np.ndarray  # (iterations, n_labels), int32
    stats: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class SimulationResult:
    seed: int
    iterations: int
    trials: int
    years: dict[int, YearSimulation]


def _simulate_year(seed: int, year: int, probs: np.ndarray, trials: int, iterations: int):
    draws = draw_year(trials, probs, iterations, derive_generator(seed, year))
    return YearSimulation(year=year, draws=draws, stats=summarize(draws))


def simulate_projection(
    v_by_year: dict[int, np.ndarray],
    i0: float,
    iterations: int,
    seed: int,
    workers: int = 1,
) -> SimulationResult:
    """Draw the yearly multinomial ensembles and summarize them.

    `v_by_year` maps a year to its label probabilities, the `probs` of
    :func:`markovpop.project.group_probabilities`.  Up to `workers`
    processes draw whole years; results are bit-identical for a given
    seed regardless of `workers`.
    """
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1 (got {iterations})")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1 (got {workers})")
    # draws are int32; round-half-even takes 2**31 - 0.5 to 2**31
    if not i0 < 2**31 - 0.5:
        raise DataError(f"population size {i0!r} is too large to simulate (needs < 2**31)")
    trials = int(round(i0))
    if abs(i0 - trials) > 1e-9:
        log.warning(
            "population size %r is not an integer; simulating %d trials", i0, trials
        )

    args = []
    for year, probs in sorted(v_by_year.items()):
        total = float(np.asarray(probs).sum())
        if not abs(total - 1.0) <= 1e-9:
            raise ConfigError(
                f"cell probabilities for year {year} sum to {total!r}, expected 1"
            )
        args.append((seed, year, probs, trials, iterations))
    processes = min(workers, len(args))
    if processes <= 1:
        sims = [_simulate_year(*a) for a in args]
    else:
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(processes, mp_context=ctx) as pool:
            futures = [pool.submit(_simulate_year, *a) for a in args]
            sims = [f.result() for f in futures]
    years = {sim.year: sim for sim in sims}
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
