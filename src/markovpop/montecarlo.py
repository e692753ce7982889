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
import os
from collections import deque
from itertools import starmap

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


def summarize(draws: np.ndarray) -> dict[str, np.ndarray]:
    """Mean, population sd and nearest-rank p05/p50/p95 over axis 0 (iterations).

    Quantile q is the ceil(q * n)-th smallest of the n draws.
    """
    n = draws.shape[0]
    stats = {"mean": draws.mean(axis=0)}
    part = draws.T.copy()  # rows of iterations: numpy selects one rank far faster than three
    for key, q in (("p05", 0.05), ("p50", 0.50), ("p95", 0.95)):
        k = int(np.ceil(q * n)) - 1
        part.partition(k, axis=1)
        stats[key] = part[:, k].copy()
    del part  # before `std` allocates its temporary
    stats["sd"] = draws.std(axis=0, ddof=0)
    return stats


def simulate_projection(
    v_by_year: dict[int, np.ndarray],
    i0: float,
    iterations: int,
    seed: int,
    workers: int = 1,
):
    """Draw the yearly multinomial ensembles as a stream of (year, draws).

    `v_by_year` maps a year to its label probabilities, the `probs` of
    :func:`markovpop.project.group_probabilities`.  Every input is checked
    here, before the first draw; the years are then drawn in ascending
    order as the stream is consumed.  Up to `workers` processes (at most
    one per year and per CPU) draw whole years, one year in flight each;
    results are bit-identical for a given seed regardless of `workers`.
    """
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1 (got {iterations})")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1 (got {workers})")
    # draws are int32; round-half-even takes 2**31 - 0.5 to 2**31
    if not i0 < 2**31 - 0.5:
        raise DataError(f"population size {i0!r} is too large to simulate (needs < 2**31)")
    trials = int(round(i0))
    if trials < 0:
        raise ConfigError(f"multinomial trials must be >= 0 (got {trials})")
    if abs(i0 - trials) > 1e-9:
        log.warning(
            "population size %r is not an integer; simulating %d trials", i0, trials
        )

    years = sorted(v_by_year)
    for year in years:
        total = float(np.asarray(v_by_year[year]).sum())
        if not abs(total - 1.0) <= 1e-9:
            raise ConfigError(
                f"cell probabilities for year {year} sum to {total!r}, expected 1"
            )
    args = [(trials, v_by_year[y], iterations, derive_generator(seed, y)) for y in years]
    processes = min(workers, len(args), os.cpu_count() or 1)
    draws = starmap(draw_year, args) if processes <= 1 else _pooled(args, processes)
    # fresh pairs: a consumer's own zip would keep this zip's reused pair, and the previous
    # year in it; strict, so the end of the stream also runs `draws` (and a pool) to its end
    return ((year, d) for year, d in zip(years, draws, strict=True))


def _pooled(args, processes):
    """draw_year over `args` in order; at most `processes` years submitted and not yet taken."""
    # imported here: a single-process run never loads the pool machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("spawn"))
    pending = deque()
    try:
        for a in args:
            pending.append(pool.submit(draw_year, *a))
            if len(pending) == processes:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:  # an abandoned stream draws none of the years not yet started
        pool.shutdown(cancel_futures=True)


def dump_draws(years, path, n_years: int, iterations: int, n_labels: int):
    """Pass the (year, draws) stream `years` through, writing each year's raw draws to `path`.

    The file is opened and its header written at the call; each year is
    written as it passes.  Layout: 5 uint64 header fields (magic
    0x4d504f50, layout version 1, number of years, iterations, labels
    per year), then per year in ascending order one uint64 (the year)
    followed by iterations x labels int64 values, iteration-major.  All
    integers little-endian.
    """
    fh = open(path, "wb")
    header = np.array([0x4D504F50, 1, n_years, iterations, n_labels], dtype="<u8")
    fh.write(header.tobytes())
    return _written(years, fh)


def _written(years, fh):
    """Write each (year, draws) of `years` to `fh` as it passes; close `fh` at the end."""
    with fh:
        for year, draws in years:
            fh.write(np.array([year], dtype="<u8").tobytes())
            fh.write(draws.astype("<i8", order="C"))  # its buffer, not a copy
            yield year, draws
