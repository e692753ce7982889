"""Multinomial population simulation with reproducible streams.

Each simulated year draws `iterations` independent multinomial vectors
over the model's cell/tuple labels (:class:`markovpop.project.LabelIndex`).
The year is one chain of conditional binomials in ascending label order:
label i takes `binomial(remaining, p_i / tail_i)` for every iteration
at once, where `tail_i` sums the probabilities of label i and the labels
after it, and the last non-zero label takes what remains.
Zero-probability labels are skipped without consuming randomness, which
keeps streams aligned when a config edit adds empty cells.  The chain
is drawn in blocks of whole cells, each reduced, and dumped if asked, as it
is drawn, so no year's (iterations x labels) matrix is ever held.

Randomness comes from numpy's counter-based Philox generator.  The
stream of one year is keyed by (master seed, year), and worker
processes split the years, so every draw is independent of execution
order and of the number of workers.
"""

from __future__ import annotations

import logging
import os

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


BLOCK_LABELS = 256  # labels per block, at least, but in a year's last block


def draw_blocks(
    trials: int, probs: np.ndarray, iterations: int, gen: np.random.Generator, bounds: np.ndarray
):
    """`iterations` multinomial vectors from `gen`, yielded as (lo, hi, block) as they are drawn.

    `block` holds labels lo:hi, (iterations, hi - lo) int32 in C order,
    and whole cells, cell i being labels bounds[i]:bounds[i + 1]: two or
    more unless it is the only block, as over one column numpy sums the
    iterations pairwise, not row by row.
    """
    probs = np.asarray(probs, dtype=float)
    if trials < 0:
        raise ConfigError(f"multinomial trials must be >= 0 (got {trials})")
    if np.any(probs < 0.0):
        raise ConfigError("multinomial probabilities must be non-negative")
    nz = np.flatnonzero(probs > 0.0) if trials else np.zeros(0, dtype=np.intp)
    if trials and nz.size == 0:
        raise ConfigError("multinomial probabilities sum to 0 with trials > 0")
    p = probs[nz]
    cond = np.minimum(p / np.cumsum(p[::-1])[::-1], 1.0).tolist()
    remaining = np.full(iterations, trials, dtype=np.int64)
    b, starts = bounds.tolist(), [0]  # the first cell of each block
    width = min(BLOCK_LABELS, 2**20 // (4 * iterations))  # or 1 MiB of int32 draws, if fewer
    for cell in range(2, len(b) - 2):  # a cut leaves two cells or more on either side
        if cell - starts[-1] >= 2 and b[cell] - b[starts[-1]] >= width:
            starts.append(cell)
    edges = [b[cell] for cell in starts] + b[-1:]
    k = 0  # the chain's next non-zero label; the last takes what remains
    for lo, hi in zip(edges, edges[1:]):
        block = np.zeros((iterations, hi - lo), dtype=np.int32)
        for j in nz[k : np.searchsorted(nz, hi)].tolist():
            c = remaining if k == len(cond) - 1 else gen.binomial(remaining, cond[k])
            block[:, j - lo] = c
            remaining -= c
            k += 1
        yield lo, hi, block


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
    del part  # before `std` allocates its float64 temporary, for half the columns at a time
    h = draws.shape[1] // 2 if draws.shape[1] >= 4 else draws.shape[1]  # two columns or more
    stats["sd"] = np.concatenate([draws[:, :h].std(axis=0), draws[:, h:].std(axis=0)])
    return stats


def simulate_projection(
    v_by_year: dict[int, np.ndarray],
    i0: float,
    iterations: int,
    seed: int,
    workers: int = 1,
    *,
    bounds: np.ndarray,
    reduce,
):
    """Draw the yearly multinomial ensembles: a list of (year, reduce(year, blocks)).

    `v_by_year` maps a year to its label probabilities (the `probs` of a
    :func:`markovpop.project.projection` table), and `blocks` are its
    `draw_blocks` over `bounds`.  Every input is checked before the first
    draw; the years are then drawn and reduced at the call, and listed in
    ascending order.  Up to `workers` processes (at most one per year and
    per CPU) draw and reduce whole years, so `reduce` must pickle; results
    are bit-identical for a given seed regardless of `workers`.
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
    args = [(reduce, y, trials, v_by_year[y], iterations, derive_generator(seed, y), bounds)
            for y in years]
    processes = min(workers, len(args), os.cpu_count() or 1)
    if processes <= 1:
        return [_reduced(*a) for a in args]
    # imported here: a single-process run never loads the pool machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(_reduced, *zip(*args)))


def _reduced(reduce, year, trials, probs, iterations, gen, bounds):
    return year, reduce(year, draw_blocks(trials, probs, iterations, gen, bounds))


def dump_draws(path, years, iterations: int, n_labels: int) -> None:
    """Write the header of the draw dump `path`; `dumped` writes each year in its place.

    Layout: 5 uint64 header fields (magic 0x4d504f50, layout version 2,
    number of years, iterations, labels per year), then per year of
    `years` one uint64 (the year) followed by labels x iterations int32
    values, label-major, so year k starts at byte
    40 + k * (8 + 4 * iterations * labels).  All integers little-endian.
    """
    np.array([0x4D504F50, 2, len(years), iterations, n_labels], "<u8").tofile(path)


def dumped(reduce, path, years, n_labels, year, blocks):
    """`reduce(year, blocks)`, each block first written to its place in the `dump_draws` file."""

    def written(fh, k=years.index(year)):
        for lo, hi, block in blocks:
            start = 40 + k * (8 + 4 * len(block) * n_labels)  # year k's marker
            if lo == 0:
                fh.seek(start)
                fh.write(year.to_bytes(8, "little"))
            fh.seek(start + 8 + 4 * len(block) * lo)
            fh.write(np.ascontiguousarray(block.T, "<i4"))
            yield lo, hi, block

    with open(path, "r+b") as fh:
        return reduce(year, written(fh))
