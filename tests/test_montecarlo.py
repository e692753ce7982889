"""Simulation streams: keyed generators, conditional binomials in blocks, dumps."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_model, make_toy_space
from markovpop import montecarlo
from markovpop.errors import ConfigError, DataError, atomic
from markovpop.montecarlo import (
    derive_generator,
    draw_blocks,
    dump_draws,
    dumped,
    simulate_projection,
    summarize,
)
from markovpop.project import LabelIndex, cell_sums, distribution_at_year, group_probabilities
from markovpop.reports import _cell_costs, summaries
from markovpop.states import CharacteristicSpace
from reference import draw_year, stacked


def test_derive_generator_keys_streams_independently():
    a = derive_generator(7, 2020).random(5)
    b = derive_generator(7, 2020).random(5)
    np.testing.assert_array_equal(a, b)
    for other in [(8, 2020), (7, 2021)]:
        assert not np.array_equal(a, derive_generator(*other).random(5))


def test_multinomial_draw_basics():
    gen = derive_generator(1, 0)
    probs = np.array([0.2, 0.3, 0.5])
    draws = draw_year(100, probs, 4, gen)
    assert draws.shape == (4, 3)
    assert draws.dtype == np.int32
    assert np.all(draws.sum(axis=1) == 100)
    assert np.all(draws >= 0)

    assert draw_year(0, probs, 2, gen).tolist() == [[0, 0, 0]] * 2
    # a degenerate distribution consumes no randomness at all
    before = derive_generator(1, 0)
    assert draw_year(40, np.array([0.0, 1.0, 0.0]), 2, before).tolist() == [[0, 40, 0]] * 2
    np.testing.assert_array_equal(before.random(3), derive_generator(1, 0).random(3))


def test_multinomial_draw_skips_zero_probability_cells():
    # inserting an empty label must not shift the stream for the others
    dense = draw_year(200, np.array([0.3, 0.7]), 5, derive_generator(2, 0))
    padded = draw_year(200, np.array([0.3, 0.0, 0.7, 0.0]), 5, derive_generator(2, 0))
    assert np.all(padded[:, [1, 3]] == 0)
    np.testing.assert_array_equal(padded[:, [0, 2]], dense)


def test_multinomial_draw_matches_manual_binomial_chain():
    probs = np.array([0.25, 0.0, 0.35, 0.40])
    got = draw_year(60, probs, 7, derive_generator(3, 1))
    gen = derive_generator(3, 1)
    c0 = gen.binomial(np.full(7, 60), 0.25 / (0.40 + 0.35 + 0.25))
    c2 = gen.binomial(60 - c0, 0.35 / (0.40 + 0.35))
    expected = np.stack([c0, np.zeros(7, dtype=int), c2, 60 - c0 - c2], axis=1)
    np.testing.assert_array_equal(got, expected)


def test_the_first_block_of_a_seeded_year_is_pinned():
    # numpy fixes the Philox bits but may change how Generator.binomial turns them into
    # draws between releases (NEP 19), and pyproject.toml accepts numpy >= 1.24
    probs = np.array([0.1, 0.0, 0.25, 0.3, 0.35])
    lo, hi, block = next(draw_blocks(40, probs, 6, derive_generator(7, 2017), np.array([0, 2, 5])))
    assert (lo, hi, block.dtype) == (0, 5, np.int32)
    pinned = [[4, 0, 7, 18, 11], [5, 0, 12, 10, 13], [2, 0, 11, 11, 16],
              [6, 0, 13, 12, 9], [11, 0, 7, 11, 11], [4, 0, 11, 8, 17]]
    assert block.tolist() == pinned, (
        f"numpy {np.__version__} draws another stream for the same seed: its binomial "
        f"sampler changed, so montecarlo.STREAM_VERSION (now {montecarlo.STREAM_VERSION}) "
        "must rise and the golden report digests be pinned again"
    )


def test_multinomial_draw_validation():
    gen = derive_generator(0, 0)
    with pytest.raises(ConfigError, match="trials must be >= 0"):
        draw_year(-1, np.array([1.0]), 3, gen)
    with pytest.raises(ConfigError, match="non-negative"):
        draw_year(5, np.array([0.5, -0.5]), 3, gen)
    with pytest.raises(ConfigError, match="sum to 0"):
        draw_year(5, np.array([0.0, 0.0]), 3, gen)
    # the blocks make every check the whole-year draw makes
    for trials, probs, message in [(-1, [1.0], "trials must be >= 0"),
                                   (5, [0.5, -0.5], "non-negative"), (5, [0.0, 0.0], "sum to 0")]:
        with pytest.raises(ConfigError, match=message):
            list(draw_blocks(trials, np.array(probs), 3, gen, np.arange(len(probs) + 1)))


@st.composite
def _years(draw):
    """(trials, probs, cell bounds, iterations, seed): zero labels, empty years, lone labels."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=10))
    n = sum(sizes)
    weights = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-9, 0.3, 1.0, 7.5]), min_size=n,
                            max_size=n))
    probs = np.array(weights)
    if probs.sum() == 0.0:
        probs[draw(st.integers(0, n - 1))] = 1.0
    trials = draw(st.sampled_from([0, 1, 2, 37, 500]))
    bounds = np.cumsum([0, *sizes])
    return trials, probs, bounds, draw(st.integers(1, 6)), draw(st.integers(0, 2**32))


@given(year=_years(), width=st.sampled_from([2, 3, 5, 256]))
@settings(max_examples=150, deadline=None)
def test_stacked_blocks_are_the_whole_year_draw(year, width):
    trials, probs, bounds, iterations, seed = year
    old = montecarlo.BLOCK_LABELS
    montecarlo.BLOCK_LABELS = width
    try:
        blocks = list(draw_blocks(trials, probs, iterations, derive_generator(seed, 0), bounds))
    finally:
        montecarlo.BLOCK_LABELS = old
    want = draw_year(trials, probs, iterations, derive_generator(seed, 0))
    np.testing.assert_array_equal(np.hstack([b for _, _, b in blocks]), want)
    edges = [lo for lo, _, _ in blocks] + [blocks[-1][1]]
    assert edges[0] == 0 and edges[-1] == len(probs) and set(edges) <= set(bounds.tolist())
    for n, (lo, hi, block) in enumerate(blocks, 1):
        assert block.dtype == np.int32 and block.flags.c_contiguous
        assert block.shape == (iterations, hi - lo)
        if len(blocks) > 1:  # two cells or more, and `width` labels but in the last block
            assert np.searchsorted(bounds, hi) - np.searchsorted(bounds, lo) >= 2
            assert hi - lo >= width or n == len(blocks)


@pytest.mark.parametrize("iterations, labels", [(1024, 260), (4096, 65), (300_000, 10)])
def test_a_block_holds_about_one_mib_of_draws(iterations, labels):
    # cells of five labels: a block is cut once it holds min(256, 2**20 / (4 iterations))
    # labels, and two cells at the least
    bounds = np.arange(0, 1001, 5)
    probs = np.zeros(1000)
    probs[[0, -1]] = 0.5  # two labels draw; the rest are skipped
    blocks = draw_blocks(10, probs, iterations, derive_generator(1, 0), bounds)
    widths = [hi - lo for lo, hi, _ in blocks]
    assert sum(widths) == 1000 and set(widths[:-1]) == {labels} and widths[-1] <= 2 * labels


@given(
    trials=st.integers(min_value=0, max_value=500),
    weights=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
    iterations=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_multinomial_draw_conserves_trials(trials, weights, iterations, seed):
    probs = np.array(weights)
    if probs.sum() == 0.0:
        probs[0] = 1.0
    draws = draw_year(trials, probs, iterations, derive_generator(seed, 0))
    assert np.all(draws.sum(axis=1) == trials)
    assert np.all(draws[:, probs == 0.0] == 0)


def test_nearest_rank_hand_values():
    # quantile q is the ceil(q * n)-th smallest draw, whatever the draw order
    quantiles = ("p05", "p50", "p95")
    stats = summarize(np.array([7, 3, 10, 1, 5, 9, 2, 8, 4, 6], dtype=float)[:, None])
    assert [stats[k].tolist() for k in quantiles] == [[1.0], [5.0], [10.0]]
    one = summarize(np.array([[3.0]]))
    assert [one[k].tolist() for k in quantiles] == [[3.0], [3.0], [3.0]]


def test_summarize_hand_values():
    draws = np.array([[0, 2], [2, 4], [4, 0]], dtype=np.int64)
    stats = summarize(draws)
    np.testing.assert_allclose(stats["mean"], [2.0, 2.0])
    np.testing.assert_allclose(stats["sd"], np.sqrt([8.0 / 3.0, 8.0 / 3.0]))
    np.testing.assert_array_equal(stats["p05"], [0, 0])
    np.testing.assert_array_equal(stats["p50"], [2, 2])
    np.testing.assert_array_equal(stats["p95"], [4, 4])


def test_summarize_quantiles_do_not_hold_the_sorted_draws():
    draws = np.arange(40, dtype=np.int32).reshape(10, 4)
    stats = summarize(draws)
    for k in ("p05", "p50", "p95"):
        assert stats[k].base is None or stats[k].base.size < draws.size


def small_v():
    return {1: np.array([0.4, 0.25, 0.15, 0.2]), 2: np.array([0.1, 0.2, 0.3, 0.4])}


SMALL_BOUNDS = np.array([0, 1, 3, 4])  # three cells over small_v's four labels


def simulate(v, i0, iterations, seed, workers=1, bounds=SMALL_BOUNDS, reduce=stacked):
    """simulate_projection reduced to each year's whole draw matrix."""
    return simulate_projection(v, i0, iterations, seed, workers, bounds=bounds, reduce=reduce)


def test_simulate_projection_draws_and_stats():
    stream = list(simulate(small_v(), i0=50.3, iterations=30, seed=11))
    assert [year for year, _ in stream] == [1, 2]
    for _, draws in stream:
        assert draws.shape == (30, 4)
        assert np.all(draws.sum(axis=1) == 50)  # 50.3 people are 50 trials
        assert draws.dtype == np.int32
        stats = summarize(draws)
        assert set(stats) == {"mean", "sd", "p05", "p50", "p95"}
        np.testing.assert_array_equal(stats["mean"], draws.mean(axis=0))


def test_simulate_projection_is_deterministic_across_workers():
    one = dict(simulate(small_v(), i0=40, iterations=24, seed=5, workers=1))
    two = dict(simulate(small_v(), i0=40, iterations=24, seed=5, workers=3))
    assert sorted(one) == sorted(two) == [1, 2]
    for y in one:
        np.testing.assert_array_equal(one[y], two[y])
    other = dict(simulate(small_v(), i0=40, iterations=24, seed=6))
    assert any(not np.array_equal(other[y], one[y]) for y in one)


class _FakePool:
    """A ProcessPoolExecutor that draws in this process and records how it is used."""

    made = []

    def __init__(self, max_workers, mp_context=None):
        self.max_workers, self.shut_down = max_workers, False
        _FakePool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


@pytest.mark.parametrize(
    "workers, years, cpus, processes",
    [(5, 3, 8, 3), (5, 8, 2, 2), (3, 8, 16, 3), (4, 8, None, 0), (1, 8, 16, 0)],
)
def test_the_pool_is_capped_and_holds_one_year_per_process(
    monkeypatch, workers, years, cpus, processes
):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_FakePool, "made", [])
    v = {y: small_v()[1 + y % 2] for y in range(1, years + 1)}
    got = simulate(v, i0=40, iterations=6, seed=5, workers=workers)
    want = simulate(v, i0=40, iterations=6, seed=5)
    assert [y for y, _ in got] == [y for y, _ in want] == list(range(1, years + 1))
    for (_, a), (_, b) in zip(got, want):
        np.testing.assert_array_equal(a, b)
    if processes == 0:  # one process: no pool at all
        assert _FakePool.made == []
        return
    [pool] = _FakePool.made
    assert pool.max_workers == processes
    assert pool.shut_down


def test_a_failing_year_shuts_its_pool_down(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_FakePool, "made", [])

    def failing_in_year_3(year, blocks):
        if year == 3:
            raise DataError("the reduction failed")
        return stacked(year, blocks)

    v = {y: small_v()[1] for y in range(1, 9)}
    with pytest.raises(DataError, match="the reduction failed"):
        simulate(v, i0=40, iterations=6, seed=5, workers=2, reduce=failing_in_year_3)
    [pool] = _FakePool.made
    assert pool.shut_down


def test_simulation_holds_one_year_at_a_time():
    import tracemalloc

    rng = np.random.default_rng(0)
    probs = rng.random(3000)
    probs /= probs.sum()
    bounds = np.arange(0, 3001, 3)

    def peak(years):
        v = {y: probs for y in range(years)}
        tracemalloc.start()
        try:
            reduced = simulate(v, 500, 200, seed=1, bounds=bounds,
                               reduce=partial(summaries, bounds))
            assert [y for y, _ in reduced] == list(range(years))
            held = sum(stat.nbytes for _, stats in reduced for stat in stats)
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    short, long = peak(2), peak(8)
    assert long <= 1.25 * short, f"8 years peak at {long / short:.2f} times 2 years"


@pytest.mark.parametrize("reduction", ["summaries", "cell_costs"])
def test_reducing_a_year_holds_under_half_its_draw_matrix(reduction):
    import tracemalloc

    iterations, n_labels = 2000, 4000
    bounds = np.r_[np.arange(0, n_labels, 12), n_labels]  # 12 labels a cell, as in institution
    probs = np.random.default_rng(0).random(n_labels)
    probs /= probs.sum()
    if reduction == "summaries":
        reduce = partial(summaries, bounds)
    else:
        cells = len(bounds) - 1
        priced = np.linspace(1.0, 2.0, n_labels), np.zeros(cells), np.ones(cells, dtype=bool)
        reduce = partial(_cell_costs, bounds, {1: priced})
    tracemalloc.start()
    try:
        [(_, reduced)] = simulate_projection(
            {1: probs}, 100_000, iterations, 1, bounds=bounds, reduce=reduce
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = iterations * n_labels * 4  # the year's int32 draws: 32 MB
    assert peak < matrix / 2, f"reducing one year peaked at {peak / matrix:.2f} of its matrix"


def test_a_bad_later_year_raises_at_the_call(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before every year was checked")

    monkeypatch.setattr(montecarlo, "draw_blocks", no_draw)
    v = {**small_v(), 3: small_v()[2] * 0.9}
    with pytest.raises(ConfigError, match="for year 3 sum to"):
        simulate(v, 10, 5, 1)


def test_simulate_projection_validation():
    probs = small_v()[1]
    with pytest.raises(ConfigError, match="iterations must be >= 1"):
        simulate({1: probs}, 10, 0, 1)
    with pytest.raises(ConfigError, match="workers must be >= 1"):
        simulate({1: probs}, 10, 5, 1, workers=0)
    with pytest.raises(ConfigError, match="sum to"):
        simulate({1: probs * 0.9}, 10, 5, 1)
    with pytest.raises(ConfigError, match="trials must be >= 0"):
        simulate({1: probs}, -3, 5, 1)
    # draws are int32: 2**31 - 0.5 already rounds to 2**31 trials
    with pytest.raises(DataError, match="population size .* is too large to simulate"):
        simulate({1: probs}, 2**31 - 0.5, 5, 1)


def test_dump_draws_layout(tmp_path, monkeypatch):
    monkeypatch.setattr(montecarlo, "BLOCK_LABELS", 2)  # two blocks a year, each written alone
    path = tmp_path / "draws.bin"
    reduce = partial(dumped, stacked, path, [1, 2], 4)
    dump_draws(path, [1, 2], 6, 4)
    assert path.stat().st_size == 40  # the header alone: each block sizes the file as it lands
    passed = dict(simulate(small_v(), i0=20, iterations=6, seed=9, reduce=reduce))
    want = dict(simulate(small_v(), i0=20, iterations=6, seed=9))
    raw = path.read_bytes()
    header = np.frombuffer(raw[:40], dtype="<u8")
    assert header.tolist() == [0x4D504F50, 2, 2, 6, 4]
    offset = 40
    for year in (1, 2):
        marker = np.frombuffer(raw[offset : offset + 8], dtype="<u8")[0]
        assert marker == year
        offset += 8
        for label in range(4):  # label-major: a label's 6 iterations are contiguous
            run = np.frombuffer(raw[offset : offset + 6 * 4], dtype="<i4")
            np.testing.assert_array_equal(run, passed[year][:, label])
            offset += 6 * 4
        np.testing.assert_array_equal(passed[year], want[year])  # passed through unchanged
    assert offset == len(raw) == 40 + 2 * (8 + 6 * 4 * 4)  # whole once the draws are done
    assert passed[1].dtype == np.int32


def test_a_dump_is_removed_on_any_error(tmp_path):
    path = tmp_path / "draws.bin"
    with pytest.raises(KeyError):
        with atomic(path) as dump:
            dump_draws(dump, [1, 2], 6, 4)
            reduce = partial(dumped, stacked, dump, [1, 2], 4)
            simulate(small_v(), i0=20, iterations=6, seed=9, reduce=reduce)  # both years written
            raise KeyError("the report failed")
    assert list(tmp_path.iterdir()) == []


def test_draw_frequencies_match_probabilities():
    # chi-square sanity check on pooled counts across the iterations of one year
    from scipy import stats

    probs = np.array([0.2, 0.3, 0.5])
    n_draws, trials = 400, 50
    totals = draw_year(trials, probs, n_draws, derive_generator(123, 0)).sum(axis=0)
    expected = probs * n_draws * trials
    chi2 = ((totals - expected) ** 2 / expected).sum()
    p = stats.chi2.sf(chi2, df=2)
    assert p > 1e-4


def _sd_oracle(i0, p, x, n):
    """Exact sd of a sum over i0 people who each add x[j] with probability p[j],
    and the standard error of its estimate from n draws.

    The sum is Multinomial(i0, p) priced by x (Johnson, Kotz & Balakrishnan
    1997, ch. 35): variance i0 * v and fourth central moment
    i0 * m4 + 3 * i0 * (i0 - 1) * v**2, where v and m4 are one person's.
    """
    dev = x - p @ x
    v, m4 = p @ dev**2, p @ dev**4
    sd = np.sqrt(i0 * v)
    var_of_var = (i0 * m4 + 3 * i0 * (i0 - 1) * v**2 - sd**4) / n
    return sd, np.sqrt(var_of_var) / (2 * sd)


def test_second_moments_match_the_multinomial_oracle():
    from scipy import stats as sps

    i0, n = 1000, 10_000
    chars = CharacteristicSpace(("grade",), (("g1", "g2"),))
    model = make_random_model(make_toy_space(), chars, seed=404, i0=i0, with_r=True)
    labels = LabelIndex.build(model)
    p = labels.split(group_probabilities(distribution_at_year(model.pi, model, 1, "absorb"), model))
    assert p.min() > 0.0 and len(p) > len(labels.bounds) - 1  # split cells, no empty label
    [(_, draws)] = simulate({1: p}, i0, n, seed=2024, bounds=labels.bounds)
    price = np.where(labels.category > 0, np.linspace(1.0, 3.0, len(p)), 0.0)
    onehot_cells = np.eye(len(labels.bounds) - 1)[labels.cell_id]
    checks = [
        (draws, np.eye(len(p))),
        (cell_sums(draws, labels.bounds), onehot_cells),
        ((draws * price).sum(axis=1)[:, None], price[:, None]),
    ]
    for sample, x in checks:
        sd, se = _sd_oracle(i0, p, x, n)
        z = (summarize(sample)["sd"] - sd) / se
        assert np.abs(z).max() < 4.0, z

    cell_p = np.bincount(labels.cell_id, p)
    cells = summarize(cell_sums(draws, labels.bounds))
    for key, q in (("p05", 0.05), ("p50", 0.50), ("p95", 0.95)):
        np.testing.assert_allclose(cells[key], sps.binom.ppf(q, i0, cell_p), atol=1.0)
