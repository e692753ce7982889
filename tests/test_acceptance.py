"""Acceptance harness: one test per shipping criterion.

Each test checks its stated tolerance and prints a single line with the
measured figures (run with -s to see them on success).  Oracles are kept
independent of the code under test: explicit one-step matrices, path
enumeration, high-precision arithmetic, or a generator world with known
parameters.
"""

import csv
import itertools
import math
import time

import numpy as np
import yaml

from markovpop.cli import main as cli_main
from markovpop.config import build_run_config
from markovpop.estimate import annualize_transitions, fit_model
from markovpop.finance import PensionRegime, RateSchedule
from markovpop.ingest import build_counts
from markovpop.montecarlo import simulate_projection
from markovpop.project import LabelIndex, distribution_at_year, group_probabilities

import panelgen
from conftest import make_random_model, make_toy_space
from reference import Triple, one_step_triple_probability, stacked


def report(num, desc, detail):
    print(f"[criterion {num}] {desc}: PASS ({detail})")


def test_01_exact_yearly_propagation():
    """Propagation matches a brute-force one-step matrix and path sums."""
    t0 = time.perf_counter()
    space = make_toy_space()
    model = make_random_model(space, seed=1001)
    n_ages, n_sen = space.n_ages, space.seniority_max
    triples = [
        (c, e, a)
        for c in range(space.n_categories)
        for e in range(n_ages)
        for a in range(n_sen)
    ]
    idx = {t: i for i, t in enumerate(triples)}

    # independent one-step matrix straight from the law, with the absorb
    # clamp applied at the boundary
    m = np.zeros((len(triples), len(triples)))
    for (c, e, a), i in idx.items():
        ei, ai = space.locate_groups(e, a)
        q = float(model.q1[(ei, ai)][c])
        t = model.transition_operator(ei, ai)
        e2 = min(e + 1, n_ages - 1)
        a2 = min(a + 1, n_sen - 1)
        for c2 in range(1, space.n_categories):
            m[i, idx[(c2, e2, a2)]] += t[c, c2] * q
        m[i, idx[(0, e2, a)]] += 1.0 - q

    # interior rows coincide with the scalar law exactly
    law_err = 0.0
    for (c, e, a), i in idx.items():
        if e + 1 >= n_ages or a + 1 >= n_sen:
            continue
        for (c2, e2, a2), j in idx.items():
            p = one_step_triple_probability(
                Triple(c, e, a), Triple(c2, e2, a2), model
            )
            law_err = max(law_err, abs(m[i, j] - p))
    assert law_err <= 1e-15

    pi_flat = model.pi.reshape(-1)
    worst = 0.0
    for n in (1, 2, 3):
        want = pi_flat @ np.linalg.matrix_power(m, n)
        got = distribution_at_year(model.pi, model, n, policy="absorb").reshape(-1)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-12, f"propagation deviates from the path-sum oracle by {worst}"

    # two-step path enumeration over every intermediate state, on sources
    # whose paths never touch the clamped boundary
    path_err = 0.0
    m2 = m @ m
    for c in range(space.n_categories):
        for e in (0, 1):
            src = Triple(c, e, 0)
            for tgt_t, j in idx.items():
                total = math.fsum(
                    one_step_triple_probability(src, Triple(*mid), model)
                    * one_step_triple_probability(Triple(*mid), Triple(*tgt_t), model)
                    for mid in triples
                )
                path_err = max(path_err, abs(total - m2[idx[(c, e, 0)], j]))
    assert path_err <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s, limit 5s"
    report(1, "exact yearly propagation",
           f"max cell err {worst:.2e}, path-sum err {path_err:.2e}, {elapsed:.2f}s")


def test_02_annualization_oracles():
    """Annualized matrices match path enumeration and matrix powers."""
    cfg = build_run_config(
        {
            "categories": ["out", "a", "b", "c"],
            "age_min": 0,
            "age_max": 2,
            "age_groups": [[0, 2]],
            "seniority_max": 1,
            "seniority_groups": [[0, 1]],
            "working_age_min": 0,
        }
    )

    def path_power(mat, t):
        n = mat.shape[0]
        out = np.zeros_like(mat)
        for i in range(n):
            for j in range(n):
                out[i, j] = math.fsum(
                    math.prod(
                        mat[step] for step in zip((i, *mid), (*mid, j))
                    )
                    for mid in itertools.product(range(n), repeat=t - 1)
                )
        return out

    rng = np.random.Generator(np.random.Philox(2))
    pmf4 = np.array([0.25] * 4 + [0.0] * 8)
    pmf12 = np.full(12, 1.0 / 12.0)
    worst4 = worst12 = 0.0
    for _trial in range(5):
        mat = rng.random((3, 3)) + 0.05
        mat /= mat.sum(axis=1, keepdims=True)

        got4 = annualize_transitions({(0, 0): mat}, pmf4, {}, cfg)[0][(0, 0)]
        want4 = 0.25 * sum(path_power(mat, t) for t in range(1, 5))
        worst4 = max(worst4, float(np.max(np.abs(got4 - want4))))

        got12 = annualize_transitions({(0, 0): mat}, pmf12, {}, cfg)[0][(0, 0)]
        want12 = sum(np.linalg.matrix_power(mat, t) for t in range(1, 13)) / 12.0
        worst12 = max(worst12, float(np.max(np.abs(got12 - want12))))
    assert worst4 <= 1e-12, f"path-enumeration deviation {worst4}"
    assert worst12 <= 1e-12, f"matrix-power deviation {worst12}"
    report(2, "annualization against independent oracles",
           f"path err {worst4:.2e} (t<=4), power err {worst12:.2e} (t<=12)")


def test_03_parameter_recovery():
    """Refitting a 1200-month generated panel recovers the true parameters."""
    t0 = time.perf_counter()
    spec = panelgen.make_recovery_world()
    cfg = spec.run_config()
    panel = panelgen.generate(spec, start_year=1900, n_years=100, seed=7)
    records = panel.to_records()
    model = fit_model(build_counts(records, panel.census(), cfg), cfg)

    space = cfg.space
    nc = space.n_categories
    diag = model.diagnostics
    flagged_m = {tuple(x) for x in diag["unobserved_transition_rows"]}
    flagged_q = {tuple(x) for x in diag["unobserved_q_cells"]}
    flagged_e = {tuple(x) for x in diag["unobserved_entry_cells"]}
    flagged_r = {tuple(x) for x in diag["unobserved_r_cells"]}
    # unobserved objects must be confined to the below-working-age band
    # (age group 0), where in-system occupancy is structurally impossible
    assert all(ei == 0 for ei, _ai, _r in flagged_m)
    assert all(ei == 0 for ei, _ai, _c in flagged_q)
    assert all(ei == 0 for _c, ei, _ai in flagged_r)
    assert len(flagged_e) <= len(list(space.cells())) / 2

    worst = {"monthly": 0.0, "q": 0.0, "entry": 0.0, "r": 0.0}
    compared = 0
    for ei, ai in space.cells():
        fit_m = model.monthly[(ei, ai)]
        for r in range(1, nc):
            if (ei, ai, r) in flagged_m:
                continue
            err = float(np.max(np.abs(fit_m[r - 1] - spec.monthly[ei, ai][r - 1])))
            worst["monthly"] = max(worst["monthly"], err)
            compared += 1
        for c in range(nc):
            if (ei, ai, c) in flagged_q:
                continue
            truth = spec.p_hire[ei, ai] if c == 0 else spec.q_stay[ei, ai, c - 1]
            worst["q"] = max(worst["q"], abs(float(model.q1[(ei, ai)][c]) - truth))
            compared += 1
        if (ei, ai) not in flagged_e:
            err = float(np.max(np.abs(model.entry[(ei, ai)] - spec.entry[ei, ai])))
            worst["entry"] = max(worst["entry"], err)
            compared += 1
        for c in range(1, nc):
            if (c, ei, ai) in flagged_r:
                continue
            # tuple code ti + 1 is panel.tuple_list[ti]
            err = np.abs(model.r[c, ei, ai, 1:] - spec.r[c - 1])
            worst["r"] = max(worst["r"], float(err.max()))
            compared += err.size
    assert compared > 100
    pi_err = float(np.max(np.abs(model.pi - panel.start_pi)))

    elapsed = time.perf_counter() - t0
    for kind, err in worst.items():
        assert err < 0.02, f"{kind} recovery error {err:.4f} exceeds 0.02"
    assert pi_err < 0.02, f"initial distribution error {pi_err:.4f} exceeds 0.02"
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s, limit 60s"
    report(3, "parameter recovery from a 100-year panel",
           "max abs err monthly {monthly:.4f}, q {q:.4f}, entry {entry:.4f}, "
           "r {r:.4f}".format(**worst) + f", pi {pi_err:.4f}; {elapsed:.1f}s")


def test_04_simulation_calibration():
    """10,000-draw ensembles track expected counts; draws conserve heads."""
    t0 = time.perf_counter()
    i0 = 1000.0
    model = make_random_model(make_toy_space(), seed=404, i0=i0)
    dist = distribution_at_year(model.pi, model, 1, policy="absorb")
    labels = LabelIndex.build(model)
    probs, bounds = labels.split(group_probabilities(dist, model)), labels.bounds
    [(_, draws)] = simulate_projection(
        {1: probs}, i0, 10_000, seed=2024, bounds=bounds, reduce=stacked
    )

    assert draws.shape == (10_000, len(probs))
    sums = draws.sum(axis=1)
    assert np.all(sums == 1000), "a draw does not conserve the population size"

    means = draws.mean(axis=0)
    worst_z = 0.0
    checked = 0
    for j, v in enumerate(probs):
        if v < 0.01:
            continue
        se = math.sqrt(i0 * v * (1.0 - v) / 10_000)
        z = abs(means[j] - i0 * v) / se
        worst_z = max(worst_z, z)
        checked += 1
        assert z <= 3.0, (
            f"label {j} mean {means[j]:.2f} deviates {z:.2f} standard "
            f"errors from {i0 * v:.2f}"
        )
    assert checked >= 5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s, limit 60s"
    report(4, "Monte Carlo calibration",
           f"{checked} cells with V>=0.01, worst |z| {worst_z:.2f}, {elapsed:.1f}s")


# Reference monthly payroll decomposition for one fully loaded teacher
# position (December 2015 scale, in colones).  Frozen input data for the
# cost-model consistency check below.
PAYROLL_COMPONENTS = (
    ("Salario Base Docente", 644_831),
    ("Porcentaje Categoría Académica", 354_657),
    ("Anualidad", 776_190),
    ("Escalafón Docente", 119_939),
    ("Fondo Consolidado", 18_854),
    ("Pasos Académicos", 59_970),
    ("Reconocimiento por Elección", 279_857),
    ("Magisterio", 176_822),
    ("Seguro de Enfermedad y Maternidad", 225_600),
    ("Banco Popular", 12_195),
    ("Fondo de Capitalización Laboral", 73_168),
    ("Fondo de Pensión Complementaria", 36_584),
    ("Aguinaldo", 203_235),
    ("Salario Escolar", 184_627),
    ("JAFAP", 60_973),
)


def test_05_reference_payroll_decomposition():
    """The reference worker-month decomposition reproduces its totals."""
    person_month = sum(amount for _label, amount in PAYROLL_COMPONENTS)
    rel1 = abs(person_month - 3_227_500) / 3_227_500
    assert rel1 <= 1e-4, f"per-person monthly sum {person_month} off by {rel1:.2e}"
    thirty = 30 * person_month
    rel2 = abs(thirty - 96_824_998) / 96_824_998
    assert rel2 <= 1e-4, f"30-person cost {thirty} off by {rel2:.2e}"
    report(5, "reference payroll decomposition",
           f"monthly {person_month:,} (rel err {rel1:.1e}), "
           f"30 workers {thirty:,} (rel err {rel2:.1e})")


def test_06_rate_schedules():
    """Statutory rate schedules are exact."""
    s = RateSchedule()
    assert s.escolar_rate(2015) == 0.0819
    assert s.escolar_rate(2016) == 0.0823
    assert s.escolar_rate(2017) == 0.0828
    assert s.escolar_rate(2018) == 0.0833
    assert s.escolar_rate(2040) == 0.0833
    ivm = [
        (2014, 0.0492), (2019, 0.0508), (2024, 0.0525),
        (2029, 0.0542), (2034, 0.0558), (2100, 0.0575),
    ]
    for year, rate in ivm:
        assert s.employer_pension_rate(PensionRegime.IVM, year) == rate
        assert s.employer_pension_rate(PensionRegime.IVM, year - 4) == rate
    assert s.employer_pension_rate(PensionRegime.JUPEMA_CAPITALIZACION, 2020) == 0.0675
    assert s.employer_pension_rate(PensionRegime.JUPEMA_REPARTO, 2020) == 0.05
    report(6, "statutory rate schedules", "all published values exact")


def test_07_holdout_backtest(tmp_path):
    """Fit on ten years, price two held-out years within 2% each.

    The production figures this protocol mirrors (total-cost errors of
    0.10% and 1.12% against observed yearly totals of 64,215,040,730 and
    70,044,868,080) come from proprietary source data and are not
    reproducible here; this test replays the same split on a generated
    panel with known dynamics.
    """
    t0 = time.perf_counter()
    spec = panelgen.make_costed_world()
    panel = panelgen.generate(spec, start_year=2006, n_years=12, seed=11)
    panel.write_records_csv(tmp_path / "records.csv")
    panel.write_reserve_csv(tmp_path / "reserve.csv")
    panelgen.write_salary_scale_csv(tmp_path / "scale.csv", panelgen.COSTED_SALARY_SCALE)
    with open(tmp_path / "config.yaml", "w") as fh:
        yaml.safe_dump(dict(spec.config), fh)

    rc = cli_main([
        "backtest",
        "--config", str(tmp_path / "config.yaml"),
        "--records", str(tmp_path / "records.csv"),
        "--reserve", str(tmp_path / "reserve.csv"),
        "--salary-scale", str(tmp_path / "scale.csv"),
        "--split-year", "2016",
        "--iterations", "300",
        "--seed", "5",
        "--out", str(tmp_path / "backtest.csv"),
    ])
    assert rc == 0

    with open(tmp_path / "backtest.csv") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, data = rows[0], rows[1:]
    i_obs = header.index("observed_cost")
    i_exp = header.index("expected_cost")
    totals = {int(r[0]): (float(r[i_obs]), float(r[i_exp]))
              for r in data if r[1] == "*"}
    assert sorted(totals) == [2016, 2017]
    rels = {}
    for year, (obs, exp) in totals.items():
        rels[year] = (exp - obs) / obs
        assert abs(rels[year]) <= 0.02, (
            f"held-out {year}: expected cost {exp:.0f} vs observed {obs:.0f} "
            f"({rels[year]:+.2%})"
        )
    elapsed = time.perf_counter() - t0
    report(7, "two-year held-out cost backtest",
           ", ".join(f"{y}: {r:+.2%}" for y, r in sorted(rels.items()))
           + f"; {elapsed:.1f}s")


def test_08_seed_and_worker_invariance(mini_pipeline, tmp_path):
    """Same seed gives byte-identical output, whatever --workers says."""
    outputs = {}
    for tag, seed, workers in (("a", 42, 1), ("b", 42, 3), ("c", 43, 1)):
        csv_path = tmp_path / f"sim-{tag}.csv"
        bin_path = tmp_path / f"draws-{tag}.bin"
        rc = cli_main([
            "simulate",
            "--config", str(mini_pipeline["config"]),
            "--model", str(mini_pipeline["model"]),
            "--years", "2", "--iterations", "60",
            "--seed", str(seed), "--workers", str(workers),
            "--out", str(csv_path), "--dump-draws", str(bin_path),
        ])
        assert rc == 0
        outputs[tag] = (csv_path.read_bytes(), bin_path.read_bytes())
    assert outputs["a"] == outputs["b"], "worker count changed the output bytes"
    assert outputs["a"][1] != outputs["c"][1], "different seeds produced equal draws"
    report(8, "seed and worker invariance",
           "seed 42: 1 worker == 3 workers byte for byte; seed 43 differs")
