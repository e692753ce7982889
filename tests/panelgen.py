"""Deterministic synthetic monthly panels with known generating parameters.

The generated world follows the fitted model's own dynamics so every
estimator is consistent by construction: people move categories once a
month according to the matrix of their current cell, membership is
decided once a year from the December cell, hires appear in January with
one extra year of age and seniority relative to their source cell, and
characteristic tuples are redrawn independently every person-month.

The census is a fixed uniform pyramid over the world's age span: each
January everybody ages one year, people past the top age leave the world
and the same number of fresh reserve people appear at the bottom age.
Members at the top census age leave in December and nobody is hired from
it.  The concrete worlds set membership probabilities to zero in the top
age group so these forced departures never contaminate the yearly
estimates, and zero in the bottom (below-working-age) group so the
projected reserve gap at the youngest ages is inert over short horizons.
All workloads are full time, keeping head counts and workload-weighted
counts identical.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from markovpop.config import RunConfig, build_run_config
from markovpop.ingest import Records


def feasible_seniorities(space, age: int) -> range:
    """All in-range seniorities attainable at `age`: 0 up to the years since working age."""
    top = min(max(0, age - space.working_age_min), space.seniority_max - 1)
    return range(0, top + 1)


@dataclass(frozen=True)
class WorldSpec:
    """Generating parameters: a config dict plus per-cell dynamics."""

    config: dict
    census: dict[int, int]  # per-age totals over the world span
    monthly: np.ndarray  # (age groups, sen groups, nc, nc) row-stochastic
    q_stay: np.ndarray  # (age groups, sen groups, nc) December stay probability
    p_hire: np.ndarray  # (age groups, sen groups) per-person hire probability
    hire_ages: tuple[int, int]  # inclusive source-age window, group-aligned
    entry: np.ndarray  # (age groups, sen groups, nc) hire category distribution
    r: np.ndarray  # (nc, n_tuples) characteristic tuple distribution
    seed_per_age: dict[int, int]  # initial in-system head count per age
    seed_cat_dist: np.ndarray  # (nc,) category mix of the seeded population

    def run_config(self) -> RunConfig:
        return build_run_config(self.config)


@dataclass
class Panel:
    """A generated panel: per-month state snapshots plus bookkeeping."""

    spec: WorldSpec
    cfg: RunConfig
    months: list[tuple[int, int]]  # calendar (year, month)
    snapshots: list[tuple]  # (pid, cat0, age, sen, tuple_index) arrays per month
    start_pi: np.ndarray  # occupancy the first month was seeded from, over I0
    tuple_list: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def i0(self) -> float:
        return float(sum(self.spec.census.values()))

    def census(self) -> np.ndarray:
        """The census totals by age from ``age_min``, as :func:`load_reserve_csv` loads them."""
        space = self.cfg.space
        ages = range(space.age_min, space.age_max)
        return np.array([float(self.spec.census.get(e, 0)) for e in ages])

    def to_records(self) -> Records:
        """Build validated-equivalent record columns directly, bypassing CSV."""
        pid, cat0, age, sen, tup = (np.concatenate(col) for col in zip(*self.snapshots))
        sizes = [len(snapshot[0]) for snapshot in self.snapshots]
        person_ids, person = np.unique([f"w{p:06d}" for p in pid.tolist()], return_inverse=True)
        return Records.from_columns(
            np.repeat([y * 12 + mm - 1 for y, mm in self.months], sizes),
            person,
            person_ids.tolist(),
            cat0 + 1,
            age,
            sen,
            np.full(len(pid), self.cfg.full_time_hours),
            tup + 1,  # tuple_list[j] is the characteristic tuple of code j + 1
        )

    def write_records_csv(self, path) -> None:
        space = self.cfg.space
        chars = self.cfg.characteristics
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["month", "person_id", "category", "age", "seniority", "workload"]
                + list(chars.names)
            )
            for (y, mm), (pid, cat0, age, sen, tup) in zip(self.months, self.snapshots):
                stamp = f"{y:04d}-{mm:02d}"
                for j in range(len(pid)):
                    w.writerow(
                        [
                            stamp,
                            f"w{pid[j]:06d}",
                            space.categories[int(cat0[j]) + 1],
                            int(age[j]),
                            int(sen[j]),
                            f"{self.cfg.full_time_hours:g}",
                        ]
                        + list(chars.decode(self.tuple_list[tup[j]]))
                    )

    def write_reserve_csv(self, path) -> None:
        space = self.cfg.space
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["age", "total"])
            for e in range(space.age_min, space.age_max):
                w.writerow([e, self.spec.census.get(e, 0)])


def _draw_rows(cum_rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of pre-cumsummed probability rows."""
    u = rng.random(cum_rows.shape[0])
    idx = (cum_rows < u[:, None]).sum(axis=1)
    return np.minimum(idx, cum_rows.shape[1] - 1)


def generate(spec: WorldSpec, start_year: int, n_years: int, seed: int) -> Panel:
    cfg = spec.run_config()
    space = cfg.space
    chars = cfg.characteristics
    rng = np.random.Generator(np.random.Philox(seed))

    nc = space.n_categories - 1
    tuple_list = list(chars.all_tuples()) or [()]
    assert spec.r.shape == (nc, len(tuple_list))
    ages, seniorities = np.arange(space.age_min, space.age_max), np.arange(space.seniority_max)
    eg, sg = space.locate_groups(ages, seniorities)
    world_ages = sorted(e for e, n in spec.census.items() if n > 0)
    top_world_age = world_ages[-1]
    lo_h, hi_h = spec.hire_ages
    # the hire window must cover whole age groups: the fitted group-level
    # hire rate would otherwise mix hiring and non-hiring ages
    window_groups = {int(eg[e - space.age_min]) for e in range(lo_h, hi_h + 1)}
    for e in world_ages:
        if int(eg[e - space.age_min]) in window_groups:
            assert lo_h <= e <= hi_h, f"hire window splits the age group at age {e}"
    cum_m = np.cumsum(spec.monthly, axis=-1)
    cum_entry = np.cumsum(spec.entry, axis=-1)
    cum_r = np.cumsum(spec.r, axis=-1)

    # -- seed the first January --------------------------------------
    ages, sens, cats = [], [], []
    for e, n in sorted(spec.seed_per_age.items()):
        if n == 0:
            continue
        assert n <= spec.census.get(e, 0), f"seeded count exceeds census at age {e}"
        hi = max(0, min(e - space.working_age_min - 1, space.seniority_max - 2))
        ages.append(np.full(n, e))
        sens.append(rng.integers(0, hi + 1, size=n))
        cats.append(_draw_rows(np.tile(np.cumsum(spec.seed_cat_dist), (n, 1)), rng))
    age = np.concatenate(ages)
    sen = np.concatenate(sens)
    cat = np.concatenate(cats)
    pid = np.arange(len(age))
    next_pid = len(age)

    # occupancy the panel starts from: seeded members plus the uniform
    # reserve split of the census remainder
    start = np.zeros((space.n_categories, space.n_ages, space.seniority_max))
    for j in range(len(age)):
        start[cat[j] + 1, age[j] - space.age_min, sen[j]] += 1.0
    for e in range(space.age_min, space.age_max):
        rest = spec.census.get(e, 0) - start[1:, e - space.age_min, :].sum()
        assert rest >= 0
        if rest > 0:
            feas = feasible_seniorities(space, e)
            start[0, e - space.age_min, list(feas)] += rest / len(feas)
    i0 = float(sum(spec.census.values()))
    start_pi = start / i0

    months: list[tuple[int, int]] = []
    snapshots: list[tuple] = []

    for y in range(start_year, start_year + n_years):
        for mm in range(1, 13):
            months.append((y, mm))
            tup = _draw_rows(cum_r[cat], rng)
            snapshots.append((pid.copy(), cat.copy(), age.copy(), sen.copy(), tup))

            ei = eg[age - space.age_min]
            ai = sg[sen]
            if mm < 12:
                cat = _draw_rows(cum_m[ei, ai, cat], rng)
                continue

            # December -> January boundary
            stay = (rng.random(len(pid)) < spec.q_stay[ei, ai, cat]) & (age < top_world_age)
            new_cat = _draw_rows(cum_m[ei, ai, cat][stay], rng)
            in_sys_by_age = np.bincount(age - space.age_min, minlength=space.n_ages)
            pid, cat = pid[stay], new_cat
            age, sen = age[stay] + 1, sen[stay] + 1

            hire_rows = []
            for e in world_ages:
                pool = spec.census[e] - int(in_sys_by_age[e - space.age_min])
                assert pool >= 0, f"census exceeded at age {e}, year {y}"
                if pool == 0 or not (lo_h <= e <= hi_h) or e == top_world_age:
                    continue
                feas = feasible_seniorities(space, e)
                lat = rng.integers(0, len(feas), size=pool)
                p = spec.p_hire[eg[e - space.age_min], sg[lat]]
                hired = rng.random(pool) < p
                n_h = int(hired.sum())
                if n_h == 0:
                    continue
                lat_h = lat[hired]
                cat_h = _draw_rows(cum_entry[eg[e - space.age_min], sg[lat_h]], rng)
                hire_rows.append((np.full(n_h, e + 1), lat_h + 1, cat_h))
            if hire_rows:
                h_age = np.concatenate([h[0] for h in hire_rows])
                h_sen = np.concatenate([h[1] for h in hire_rows])
                h_cat = np.concatenate([h[2] for h in hire_rows])
                h_pid = np.arange(next_pid, next_pid + len(h_age))
                next_pid += len(h_age)
                pid = np.concatenate([pid, h_pid])
                age = np.concatenate([age, h_age])
                sen = np.concatenate([sen, h_sen])
                cat = np.concatenate([cat, h_cat])
            assert age.max(initial=0) <= top_world_age, "a member aged past the census"

    return Panel(
        spec=spec,
        cfg=cfg,
        months=months,
        snapshots=snapshots,
        start_pi=start_pi,
        tuple_list=tuple_list,
    )


def true_annual(monthly_cell: np.ndarray, pmf) -> np.ndarray:
    """Stopping-time mixture of monthly matrix powers, straight from truth."""
    acc = np.zeros_like(monthly_cell)
    p = np.eye(monthly_cell.shape[0])
    for t in range(12):
        p = p @ monthly_cell
        acc += pmf[t] * p
    return acc


# -- concrete worlds ---------------------------------------------------


def _stochastic_row(nc: int, diag_boost: float, salt: int) -> np.ndarray:
    w = np.array([1.0 + ((l + salt) % 4) for l in range(nc)])
    w[salt % nc] *= diag_boost
    return w / w.sum()


def make_recovery_world() -> WorldSpec:
    """Small world with cell-varying dynamics, for estimator recovery.

    Every parameter is a hand-set constant so the truth is available
    without running anything.
    """
    config = {
        "categories": ["out", "A", "B", "C"],
        "age_min": 12,
        "age_max": 46,
        "age_groups": [[12, 18], [18, 30], [30, 40], [40, 46]],
        "seniority_max": 28,
        "seniority_groups": [[0, 6], [6, 28]],
        "working_age_min": 18,
        "characteristics": [
            {"name": "grade", "levels": ["g1", "g2", "g3", "g4"]},
        ],
    }
    nc = 3
    n_eg, n_ag = 4, 2
    monthly = np.zeros((n_eg, n_ag, nc, nc))
    q_stay = np.zeros((n_eg, n_ag, nc))
    entry = np.zeros((n_eg, n_ag, nc))
    for i in range(n_eg):
        for k in range(n_ag):
            for r in range(nc):
                row = _stochastic_row(nc, 8.0 + i + k, salt=r + 2 * i + 3 * k)
                # keep the diagonal dominant regardless of the salt
                row = 0.2 * row
                row[r] += 0.8
                monthly[i, k, r] = row
                q_stay[i, k, r] = 0.78 + 0.03 * ((r + i) % 3) + 0.02 * k
            entry[i, k] = _stochastic_row(nc, 2.0, salt=i + k)
    q_stay[0] = 0.0  # below working age: nobody is in-system anyway
    q_stay[3] = 0.0  # top group: forced departures at the census edge
    p_hire = np.zeros((n_eg, n_ag))
    p_hire[1, 0], p_hire[1, 1] = 0.24, 0.18
    p_hire[2, 0], p_hire[2, 1] = 0.50, 0.15
    r = np.zeros((nc, 4))
    for c in range(nc):
        r[c] = _stochastic_row(4, 3.0, salt=1 + 2 * c)
    # a deep hiring pool right below the top group keeps the short-stay
    # cells there populated enough for tight recovery
    census = {e: 85 for e in range(14, 39)}
    census[39] = 1000
    census[40] = 400
    seed_per_age = {e: 38 for e in range(19, 41)}
    return WorldSpec(
        config=config,
        census=census,
        monthly=monthly,
        q_stay=q_stay,
        p_hire=p_hire,
        hire_ages=(18, 39),
        entry=entry,
        r=r,
        seed_per_age=seed_per_age,
        seed_cat_dist=np.array([0.45, 0.35, 0.20]),
    )


def lazy_mixture_matrix(alpha: float, mu: np.ndarray) -> np.ndarray:
    """alpha * I + (1 - alpha) * ones mu^T: stay or redraw from mu."""
    nc = len(mu)
    return alpha * np.eye(nc) + (1.0 - alpha) * np.tile(mu, (nc, 1))


def make_costed_world() -> WorldSpec:
    """Institution-sized world with salary-relevant characteristics.

    The monthly matrix is the same in every cell and has mu as its
    stationary law; hires also enter with category mix mu.  The category
    marginal therefore stays at mu throughout, which keeps the yearly
    chain's category coordinate exact under composition (the stopping
    time mixture and the calendar evolution then agree in expectation).
    """
    config = {
        "categories": ["00", "11", "12", "13"],
        "age_min": 10,
        "age_max": 75,
        "age_groups": [[10, 18], [18, 30], [30, 40], [40, 50], [50, 75]],
        "seniority_max": 48,
        "seniority_groups": [[0, 48]],
        "working_age_min": 18,
        "overflow_policy": "absorb",
        "characteristics": [
            {"name": "annuity_band", "levels": ["a0", "a1", "a2"]},
            {"name": "regime", "levels": ["ivm", "jcap"]},
        ],
        "finance": {
            "inflation": 0.0388,
            "bindings": {
                "annuity_pct": {
                    "characteristic": "annuity_band",
                    "levels": {"a0": 0.0, "a1": 0.15, "a2": 0.30},
                },
                "pension_regime": {
                    "characteristic": "regime",
                    "levels": {"ivm": "IVM", "jcap": "JUPEMA_CAPITALIZACION"},
                },
            },
        },
    }
    nc = 3
    mu = np.array([0.5, 0.3, 0.2])
    n_eg, n_ag = 5, 1
    monthly = np.zeros((n_eg, n_ag, nc, nc))
    monthly[:, :] = lazy_mixture_matrix(0.988, mu)
    entry = np.zeros((n_eg, n_ag, nc))
    entry[:, :] = mu
    q_stay = np.zeros((n_eg, n_ag, nc))
    base = {1: 0.985, 2: 0.980, 3: 0.975}
    for i, b in base.items():
        for c in range(nc):
            q_stay[i, 0, c] = b + 0.005 * (1 - c)
    p_hire = np.zeros((n_eg, n_ag))
    p_hire[1, 0] = 0.05
    p_hire[2, 0] = 0.035
    # tuple order: (annuity_band, regime) in level index order
    r = np.array(
        [
            [0.30, 0.10, 0.25, 0.10, 0.15, 0.10],
            [0.10, 0.10, 0.30, 0.15, 0.20, 0.15],
            [0.05, 0.05, 0.20, 0.20, 0.25, 0.25],
        ]
    )
    census = {e: 120 for e in range(14, 61)}
    seed_per_age = {e: 48 for e in range(19, 51)}
    return WorldSpec(
        config=config,
        census=census,
        monthly=monthly,
        q_stay=q_stay,
        p_hire=p_hire,
        hire_ages=(18, 39),
        entry=entry,
        r=r,
        seed_per_age=seed_per_age,
        seed_cat_dist=mu.copy(),
    )


def make_mini_world() -> WorldSpec:
    """Tiny world for command-line pipeline tests: fast to generate and fit."""
    config = {
        "categories": ["out", "A", "B"],
        "age_min": 16,
        "age_max": 22,
        "age_groups": [[16, 18], [18, 21], [21, 22]],
        "seniority_max": 4,
        "seniority_groups": [[0, 4]],
        "working_age_min": 18,
        "overflow_policy": "absorb",
        "characteristics": [
            {"name": "band", "levels": ["b0", "b1"]},
        ],
        "finance": {
            "inflation": 0.04,
            "bindings": {
                "annuity_pct": {
                    "characteristic": "band",
                    "levels": {"b0": 0.0, "b1": 0.12},
                },
            },
        },
    }
    nc = 2
    n_eg, n_ag = 3, 1
    monthly = np.zeros((n_eg, n_ag, nc, nc))
    monthly[:, :] = np.array([[0.90, 0.10], [0.15, 0.85]])
    entry = np.zeros((n_eg, n_ag, nc))
    entry[:, :] = np.array([0.6, 0.4])
    q_stay = np.zeros((n_eg, n_ag, nc))
    q_stay[1, 0] = np.array([0.80, 0.75])
    p_hire = np.zeros((n_eg, n_ag))
    p_hire[1, 0] = 0.30
    r = np.array([[0.7, 0.3], [0.4, 0.6]])
    return WorldSpec(
        config=config,
        census={e: 25 for e in range(16, 22)},
        monthly=monthly,
        q_stay=q_stay,
        p_hire=p_hire,
        hire_ages=(18, 20),
        entry=entry,
        r=r,
        seed_per_age={19: 10, 20: 10},
        seed_cat_dist=np.array([0.5, 0.5]),
    )


MINI_SALARY_SCALE = {"A": 400000.0, "B": 650000.0}


def write_salary_scale_csv(path, scale: dict[str, float]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["category", "base_salary"])
        for code, salary in scale.items():
            w.writerow([code, f"{salary:g}"])


COSTED_SALARY_SCALE = {"11": 500000.0, "12": 800000.0, "13": 1200000.0}
