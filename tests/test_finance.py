"""Full-time cost tables against a high-precision oracle, plus schedule goldens."""

import mpmath as mp
import pytest

from markovpop.errors import ConfigError, DataError
from markovpop.finance import PensionRegime, RateSchedule, full_time_costs
from markovpop.ingest import load_salary_scale
from markovpop.states import CharacteristicSpace

from conftest import finance_of, make_toy_space


def test_school_board_levy_schedule():
    s = RateSchedule()
    assert s.escolar_rate(2014) == 0.0819
    assert s.escolar_rate(2015) == 0.0819
    assert s.escolar_rate(2016) == 0.0823
    assert s.escolar_rate(2017) == 0.0828
    assert s.escolar_rate(2018) == 0.0833
    assert s.escolar_rate(2045) == 0.0833
    with pytest.raises(ConfigError, match="before 2000"):
        s.escolar_rate(1999)


def test_employer_pension_schedule():
    s = RateSchedule()
    cases = [
        (2014, 0.0492), (2015, 0.0508), (2019, 0.0508), (2020, 0.0525),
        (2024, 0.0525), (2025, 0.0542), (2029, 0.0542), (2030, 0.0558),
        (2034, 0.0558), (2035, 0.0575), (2100, 0.0575), (2200, 0.0575),
    ]
    for year, rate in cases:
        assert s.employer_pension_rate(PensionRegime.IVM, year) == rate
    # JUPEMA rates are flat, and string codes are accepted
    assert s.employer_pension_rate("JUPEMA_CAPITALIZACION", 2016) == 0.0675
    assert s.employer_pension_rate("JUPEMA_REPARTO", 2040) == 0.05


def mp_total_cost(year, base, supplements, inflation, pension):
    """Employer cost of one full-time worker, in 50-digit arithmetic."""
    mp.mp.dps = 50
    infl = 1 + mp.mpf(str(inflation))
    growth = infl ** (year - 2016 + mp.mpf("0.5")) + infl ** (year - 2015)
    salary = 6 * mp.mpf(base) * growth * mp.mpf(str(supplements)) / mp.mpf("0.90")
    escolar = RateSchedule().escolar_rate(year)
    charges = 1 + mp.mpf(str(pension)) + mp.mpf("0.1425") + mp.mpf("0.0425") + mp.mpf("0.0833")
    return salary * (1 + mp.mpf(str(escolar))) * charges * mp.mpf("1.0025")


def scalar_cost(year, base, fields, schedule):
    """One table entry the long way, in the documented operation order."""
    rise = 1.0 + schedule.inflation
    growth = rise ** (year - 2016 + 0.5) + rise ** (year - 2015)
    supplements = 1.0 + fields.get("annuity_pct", 0.0) + fields.get(
        "exclusive_dedication_pct", 0.0
    ) + (fields.get("prohibition_pct", 0.0) + fields.get("availability_pct", 0.0))
    pension = schedule.employer_pension_rate(fields.get("pension_regime", "IVM"), year)
    return (
        6.0 * base * growth * supplements / 0.90
        * (1.0 + schedule.escolar_rate(year))
        * ((1.0 + pension + 0.1425 + 0.0425) + 0.0833)
        * 1.0025
    )


def test_salary_cost_matches_high_precision_oracle():
    chars = CharacteristicSpace(("band",), (("b0", "b1"),))
    raw = {
        "inflation": 0.0388,
        "bindings": {
            "annuity_pct": {"characteristic": "band", "levels": {"b0": 0.20, "b1": 0.0}},
            "prohibition_pct": {"characteristic": "band", "levels": {"b0": 0.05, "b1": 0.0}},
        },
    }
    schedule, profiles = finance_of(raw, chars)
    k = chars.code((0,))
    assert 1.0 + profiles[k]["annuity_pct"] + profiles[k]["prohibition_pct"] == pytest.approx(1.25)
    for year in (2016, 2018, 2031):
        g = full_time_costs(year, 2, {1: 500000.0}, profiles, schedule)
        pension = schedule.employer_pension_rate(PensionRegime.IVM, year)
        want = mp_total_cost(year, 500000, "1.25", "0.0388", pension)
        assert g[1, k] == pytest.approx(float(want), rel=1e-12)
        # code 0 and the unbound level carry no supplements
        want = mp_total_cost(year, 500000, "1", "0.0388", pension)
        assert g[1, 0] == g[1, chars.code((1,))] == pytest.approx(float(want), rel=1e-12)


def test_salary_cost_rejects_years_before_scale_anchor():
    with pytest.raises(ConfigError, match="before 2016"):
        full_time_costs(2015, 2, {1: 1.0}, [{}], RateSchedule())


def test_total_cost_applies_all_employer_charges():
    chars = CharacteristicSpace(("reg",), (("ivm", "rep"),))
    raw = {
        "inflation": 0.04,
        "bindings": {
            "pension_regime": {
                "characteristic": "reg",
                "levels": {"ivm": "IVM", "rep": "JUPEMA_REPARTO"},
            },
        },
    }
    schedule, profiles = finance_of(raw, chars)
    year = 2017
    g = full_time_costs(year, 2, {1: 650000.0}, profiles, schedule)
    salary = 6.0 * 650000.0 * (1.04 ** 1.5 + 1.04 ** 2) / 0.90
    want = salary * 1.0828 * (1 + 0.0508 + 0.1425 + 0.0425 + 0.0833) * 1.0025
    assert g[1, chars.code((0,))] == pytest.approx(want, rel=1e-14)
    want = salary * 1.0828 * (1 + 0.05 + 0.1425 + 0.0425 + 0.0833) * 1.0025
    assert g[1, chars.code((1,))] == pytest.approx(want, rel=1e-14)


def make_chars():
    return CharacteristicSpace(("band", "reg"), (("b0", "b1"), ("ivm", "jc")))


def finance_raw():
    return {
        "inflation": 0.05,
        "bindings": {
            "annuity_pct": {
                "characteristic": "band",
                "levels": {"b0": 0.0, "b1": 0.30},
            },
            "pension_regime": {
                "characteristic": "reg",
                "levels": {"ivm": "IVM", "jc": "JUPEMA_CAPITALIZACION"},
            },
        },
    }


def test_parse_finance_config_happy_path():
    chars = make_chars()
    schedule, profiles = finance_of(finance_raw(), chars)
    assert schedule == RateSchedule(inflation=0.05)  # finance holds no hours
    # one entry per tuple code; code 0 (an unsplit cell) binds nothing
    assert len(profiles) == len(chars.tuples()) == 5
    assert profiles[0] == {}
    assert profiles[chars.code((0, 0))] == {
        "annuity_pct": 0.0, "pension_regime": PensionRegime.IVM
    }
    assert profiles[chars.code((1, 1))] == {
        "annuity_pct": 0.30, "pension_regime": PensionRegime.JUPEMA_CAPITALIZACION
    }


def test_parse_finance_config_errors():
    chars = make_chars()
    with pytest.raises(ConfigError, match="inflation must be a number greater than -1 .got 'high'"):
        finance_of({"inflation": "high"}, chars)
    with pytest.raises(ConfigError, match="inflation must be a number greater than -1 .got -1"):
        finance_of({"inflation": -1}, chars)
    with pytest.raises(ConfigError, match="bindings must be a mapping"):
        finance_of({"bindings": [1]}, chars)
    with pytest.raises(ConfigError, match="missing required key 'finance.bindings.annuity_pct.char"):
        finance_of({"bindings": {"annuity_pct": {"levels": {}}}}, chars)
    # full-time hours have one source: the top-level key
    with pytest.raises(ConfigError, match="top-level full_time_hours"):
        finance_of({"full_time_hours": 40}, chars)

    raw = finance_raw()
    raw["bindings"]["annuity_pct"]["levels"] = [0.0, 0.30]
    with pytest.raises(ConfigError, match="levels must map level names"):
        finance_of(raw, chars)

    raw = finance_raw()
    raw["bindings"]["annuity_pct"]["levels"] = {"b0": 0.0, "nope": 0.1}
    with pytest.raises(ConfigError, match="no level 'nope'"):
        finance_of(raw, chars)

    raw = finance_raw()
    raw["bindings"]["annuity_pct"]["levels"] = {"b0": 0.0}
    with pytest.raises(ConfigError, match="unmapped levels"):
        finance_of(raw, chars)

    raw = finance_raw()
    raw["bindings"]["pension_regime"]["levels"]["jc"] = "NO_SUCH_REGIME"
    with pytest.raises(ConfigError, match="pension_regime"):
        finance_of(raw, chars)

    raw = finance_raw()
    raw["bindings"]["hat_size"] = {"characteristic": "band", "levels": {"b0": 1, "b1": 2}}
    with pytest.raises(ConfigError, match="unknown key 'finance.bindings.hat_size'"):
        finance_of(raw, chars)

    # counts are full-time equivalents: no binding sets the workload
    raw = finance_raw()
    raw["bindings"]["workload_hours"] = {"characteristic": "band", "levels": {"b0": 20, "b1": 40}}
    with pytest.raises(ConfigError, match=r"workload_hours: counts are full-time equivalents"):
        finance_of(raw, chars)


def test_load_salary_scale(tmp_path):
    space = make_toy_space()
    path = tmp_path / "scale.csv"
    path.write_text("category,base_salary\nX,500000\nY,750000.5\n")
    assert load_salary_scale(path, space) == {1: 500000.0, 2: 750000.5}

    with pytest.raises(DataError, match="not found"):
        load_salary_scale(tmp_path / "missing.csv", space)
    path.write_text("category,salary\nX,1\n")
    with pytest.raises(DataError, match="header must be exactly"):
        load_salary_scale(path, space)
    path.write_text("category,base_salary,category\nX,1,Y\nY,2,X\n")
    with pytest.raises(DataError, match="repeated columns: category"):
        load_salary_scale(path, space)
    path.write_text("category,base_salary\nZ,1\nout,1\nX,abc\nY,-5\nX,2\nX,3\n")
    with pytest.raises(DataError) as err:
        load_salary_scale(path, space)
    msg = str(err.value)
    for part in (
        "row 1: category 'Z' is not an in-system category code",
        "row 2: category 'out' is not an in-system category code",
        "row 3: base_salary 'abc' must be a finite number >= 0",
        "row 4: base_salary '-5' must be a finite number >= 0",
        "row 6: duplicate category 'X'",
    ):
        assert part in msg
    # an in-system category without a row is a problem of the file, named by its code
    path.write_text("category,base_salary\nX,500000\n")
    with pytest.raises(DataError) as err:
        load_salary_scale(path, space)
    assert err.value.problems == ["no row for category Y"]


def test_full_time_costs_price_every_category_and_tuple():
    chars = make_chars()
    schedule, profiles = finance_of(finance_raw(), chars)
    scale = {1: 400000.0, 2: 900000.0}
    g = full_time_costs(2018, 3, scale, profiles, schedule)
    assert g.shape == (3, 5)
    assert not g[0].any()  # the out-of-system category is never priced
    for c in (1, 2):
        for k, fields in enumerate(profiles):
            assert g[c, k] == scalar_cost(2018, scale[c], fields, schedule)
    # code 0 keeps the defaults; the bound fields change the price
    assert g[2, 0] == scalar_cost(2018, 900000.0, {}, schedule)
    jc = {"annuity_pct": 0.30, "pension_regime": PensionRegime.JUPEMA_CAPITALIZACION}
    assert g[2, chars.code((1, 1))] == scalar_cost(2018, 900000.0, jc, schedule)
    assert g[2, chars.code((1, 1))] != g[2, 0]

    with pytest.raises(ConfigError, match="no salary scale entry"):
        full_time_costs(2018, 3, {1: 400000.0}, profiles, schedule)
    # a cost beyond the float range is a data error naming the year
    with pytest.raises(DataError, match="year 2018 are not finite"):
        full_time_costs(2018, 3, {1: 400000.0, 2: 1e308}, profiles, schedule)
    huge, _ = finance_of({"inflation": 1e308}, chars)
    with pytest.raises(DataError, match="year 2018 are not finite"):
        full_time_costs(2018, 3, scale, profiles, huge)
