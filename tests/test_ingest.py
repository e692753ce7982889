"""CSV parsing, validation, and the counts cube arithmetic."""

import csv
import dataclasses
import gc
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovpop.config import build_run_config, load_run_config
from markovpop.errors import DataError
from markovpop.estimate import fit_model
from markovpop.ingest import (
    Records,
    build_counts,
    build_reserve,
    load_reserve_csv,
    load_salary_scale,
    parse_records,
    split_records,
)
from markovpop.reports import observed_totals

import panelgen
from conftest import demo_inputs, write_cycled_mini_world, write_world_inputs
from reference import (
    build_counts_by_sort,
    build_reserve_by_index,
    panel_counts_by_sort,
    parse_records_by_row,
)

DEMO = Path(__file__).resolve().parent.parent / "demo"


def small_cfg():
    return build_run_config(
        {
            "categories": ["out", "A", "B"],
            "age_min": 16,
            "age_max": 20,
            "age_groups": [[16, 18], [18, 20]],
            "seniority_max": 2,
            "seniority_groups": [[0, 2]],
            "working_age_min": 18,
            "characteristics": [{"name": "g", "levels": ["x", "y"]}],
        }
    )


HEADER = "month,person_id,category,age,seniority,workload,g\n"

PANEL = HEADER + textwrap.dedent(
    """\
    2020-11,p1,A,18,0,40,x
    2020-12,p1,A,18,0,40,x
    2021-01,p1,B,19,1,40,y
    2020-11,p2,B,19,1,20,y
    2020-12,p2,B,19,1,20,y
    2021-01,p3,A,19,1,40,x
    """
)

# census totals of ages 16..19, above the in-system weight of every small panel here
SMALL_CENSUS = np.array([3.0, 2.0, 2.0, 2.5])

CLAMPED_HIRE = HEADER + textwrap.dedent(
    """\
    2020-12,p1,A,18,0,40,x
    2021-01,p1,A,19,1,40,x
    2021-01,p9,A,16,0,40,x
    """
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_records_happy_path(tmp_path):
    cfg = small_cfg()
    records = parse_records(write(tmp_path, "r.csv", PANEL), cfg)
    assert len(records) == 6
    # sorted by (month, workload, tuple, person); a month is year * 12 + month - 1
    people = [records.person_ids[p] for p in records.person]
    nov, dec, jan = 2020 * 12 + 10, 2020 * 12 + 11, 2021 * 12
    assert list(zip(records.month.tolist(), people)) == [
        (nov, "p2"), (nov, "p1"), (dec, "p2"), (dec, "p1"), (jan, "p3"), (jan, "p1"),
    ]
    assert records.category.tolist() == [2, 1, 2, 1, 1, 2]  # B, A, ...
    tuples = cfg.characteristics.tuples()
    assert tuples[records.tuple_code[1]] == (0,)  # x
    assert records.workload.tolist() == [20.0, 40.0, 20.0, 40.0, 40.0, 40.0]
    assert tuples[records.tuple_code[4]] == (0,)  # x before y, at equal workloads
    assert tuples[records.tuple_code[5]] == (1,)


def test_records_hold_int32_columns_and_float64_workload_in_32_bytes_a_row():
    parsed = parse_records(DEMO / "records.csv", load_run_config(DEMO / "config.yaml"))
    spec = panelgen.make_mini_world()
    made = panelgen.generate(spec, start_year=2014, n_years=3, seed=3).to_records()
    every_third = parsed.take(np.arange(0, len(parsed), 3))
    for records in (parsed, made, *split_records(parsed, 2016), every_third):
        columns = {k: v for k, v in vars(records).items() if k != "person_ids"}
        for name, column in columns.items():
            assert column.dtype == (np.float64 if name == "workload" else np.int32), name
        assert len(columns) == 7
        assert len(records) and sum(c.nbytes for c in columns.values()) == 32 * len(records)


def test_split_records_returns_views_of_the_parsed_columns():
    parsed = parse_records(DEMO / "records.csv", load_run_config(DEMO / "config.yaml"))
    fit, held_out = split_records(parsed, 2016)
    assert len(fit) + len(held_out) == len(parsed)
    assert set((fit.month // 12).tolist()) == {2014, 2015}
    assert set((held_out.month // 12).tolist()) == {2016}
    for half in (fit, held_out):
        columns = {k: v for k, v in vars(half).items() if k != "person_ids"}
        assert sum(c.nbytes for c in columns.values()) == 32 * len(half)
        assert all(np.shares_memory(v, getattr(parsed, k)) for k, v in columns.items())
    assert (fit.month == parsed.month[:len(fit)]).all()
    assert (held_out.month == parsed.month[len(fit):]).all()


def test_split_records_needs_a_year_boundary_before_the_split_year(tmp_path):
    cfg = small_cfg()
    # November and December 2020, then January 2021: the one boundary is 2020 -> 2021
    records = parse_records(write(tmp_path, "r.csv", PANEL), cfg)
    with pytest.raises(DataError) as err:
        split_records(records, 2021)
    assert str(err.value) == (
        "no year boundary before the split year 2021: the fit needs a December "
        "and a month of the year after it"
    )
    # a December and any month of the next year make a boundary, as they make a q-year
    cases = [
        (PANEL + "2022-03,p1,B,19,1,40,y\n", 2022, (2021,)),  # January
        (HEADER + "2019-12,p1,A,18,0,40,x\n2020-12,p1,A,19,1,40,x\n2022-01,p1,A,19,1,40,x\n",
         2021, (2020,)),  # December
        (HEADER + "2019-12,p1,A,18,0,40,x\n2021-01,p1,A,19,0,40,x\n2022-01,p1,A,19,0,40,x\n",
         2022, ()),  # a year apart: no boundary
    ]
    for k, (text, split_year, q_years) in enumerate(cases):
        records = parse_records(write(tmp_path, f"r{k}.csv", text), cfg)
        fit = records.take(records.month < split_year * 12)
        assert build_counts(fit, SMALL_CENSUS, cfg).q_years == q_years
        if q_years:
            assert len(split_records(records, split_year)[0]) == len(fit)
        else:
            with pytest.raises(DataError, match=f"boundary before the split year {split_year}:"):
                split_records(records, split_year)


def test_csv_loaders_ignore_a_leading_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with one
    cfg = load_run_config(DEMO / "config.yaml")

    def marked(name):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + (DEMO / name).read_bytes())
        return path

    got, want = parse_records(marked("records.csv"), cfg), parse_records(DEMO / "records.csv", cfg)
    for name, column in vars(want).items():
        assert np.array_equal(getattr(got, name), column), name
    for name, load in (("reserve.csv", load_reserve_csv), ("salary_scale.csv", load_salary_scale)):
        np.testing.assert_equal(load(marked(name), cfg.space), load(DEMO / name, cfg.space), name)


def test_parse_records_header_mismatch(tmp_path):
    cfg = small_cfg()
    bad = "month,person_id,category,age,seniority,workload,g,extra\n"
    with pytest.raises(DataError, match="unexpected columns: extra"):
        parse_records(write(tmp_path, "r.csv", bad), cfg)
    bad = "month,person_id,category,age,seniority,g\n"
    with pytest.raises(DataError, match="missing columns: workload"):
        parse_records(write(tmp_path, "r.csv", bad), cfg)


def test_csv_loaders_reject_a_repeated_header_column(tmp_path):
    cfg = small_cfg()
    text = HEADER.rstrip("\n") + ",workload\n2020-11,p1,A,18,0,40,x,10\n"
    with pytest.raises(DataError, match="repeated columns: workload"):
        parse_records(write(tmp_path, "r.csv", text), cfg)
    text = "age,total,total\n16,3,99\n17,2,99\n18,2,99\n19,2.5,99\n"
    with pytest.raises(DataError, match="repeated columns: total"):
        load_reserve_csv(write(tmp_path, "res.csv", text), cfg.space)


def test_parse_records_collects_row_problems(tmp_path):
    cfg = small_cfg()
    text = HEADER + textwrap.dedent(
        """\
        2020/11,p1,A,18,0,40,x
        2020-11,p2,Z,18,0,40,x
        2020-11,p3,A,25,0,40,x
        2020-11,p4,A,18,0,-5,x
        2020-11,p5,A,18,0,40,zzz
        2020-11,p6,out,18,0,40,x
        2020-11,p7,A,18,1,40,x
        2020-11,p8,A,2147483648,0,40,x
        2020-11,p9,A,18,-2147483649,40,x
        """
    )
    with pytest.raises(DataError) as err:
        parse_records(write(tmp_path, "r.csv", text), cfg)
    msg = str(err.value)
    assert "9 invalid row(s)" in msg
    assert "malformed month" in msg
    assert "unknown category code 'Z'" in msg
    assert "age 25" in msg
    assert "workload must be positive" in msg
    assert "unknown level 'zzz'" in msg
    assert "out-of-system code" in msg
    assert "infeasible seniority 1 at age 18" in msg
    # beyond int32, in either direction, with the fields as written
    assert "row 8: age 2147483648 / seniority 0 outside [16,20) x [0,2)" in err.value.problems
    assert "row 9: age 18 / seniority -2147483649 outside [16,20) x [0,2)" in err.value.problems


BAD_PANEL = HEADER + (
    "2020-11,p1,A,18,0,40,x\n"
    "2020/11,p2,Z,abc,0,nan,zzz\n"  # five errors in one row
    "2020-11,p3,A\n"  # short: the missing fields read as None
    "2020-11,p4,A,18,0,40,x,extra,more\n"  # long: reported, not checked
    "\n"  # a blank line is not a row
    " 2020-12 , p1 , A ,18,0,40, y \n"  # padded, valid
    "2020-12,p5,A,18,1,40,x\n"  # invalid, so its key is not taken
    "2020-12,p5,A,18,0,40,x\n"  # the first valid row with that key
    "2020-12,p5,B,19,1,20,y\n"
    " 2020-12,p1 ,B,19,0,40,x\n"  # differs from row 5 only by whitespace
    "2020-12,p5,A,18,0,-1,x\n"  # a repeated key with another error
    "2020-13,p6,A,18,0,40,x\n"
    "2020-11,p7,out,25,0,-5,x\n"
    "2020-11,,A,18,2,0,q\n"
    "2021-01, ,B,16,x,inf,\n"
    "2021-01,p8,A,17,0,1e400,y\n"
    "2021-00,p9,A,-3,-1,30,x\n"
    "2021-01,p9,A,19,1,0.5,x\n"
)


def test_parse_records_lists_every_problem_in_row_then_check_order(tmp_path):
    with pytest.raises(DataError) as err:
        parse_records(write(tmp_path, "r.csv", BAD_PANEL), small_cfg())
    assert str(err.value).splitlines()[0].endswith("r.csv: 28 invalid row(s)")
    assert err.value.problems == [
        "row 2: malformed month '2020/11' (expected YYYY-MM)",
        "row 2: unknown category code 'Z'",
        "row 2: non-integer age/seniority 'abc'/'0'",
        "row 2: non-numeric workload 'nan' (need a finite number)",
        "row 2: characteristic 'g': unknown level 'zzz'",
        "row 3: non-integer age/seniority None/None",
        "row 3: non-numeric workload None (need a finite number)",
        "row 3: characteristic 'g': unknown level ''",
        "row 4: 2 field(s) beyond the header",
        "row 6: infeasible seniority 1 at age 18",
        "row 8: duplicate (person_id='p5', month=2020-12)",
        "row 9: duplicate (person_id='p1', month= 2020-12)",
        "row 10: workload must be positive (got -1.0)",
        "row 11: malformed month '2020-13' (expected YYYY-MM)",
        "row 12: category 'out' is the out-of-system code; records must be in-system",
        "row 12: age 25 / seniority 0 outside [16,20) x [0,2)",
        "row 12: workload must be positive (got -5.0)",
        "row 13: empty person_id",
        "row 13: age 18 / seniority 2 outside [16,20) x [0,2)",
        "row 13: workload must be positive (got 0.0)",
        "row 13: characteristic 'g': unknown level 'q'",
        "row 14: empty person_id",
        "row 14: non-integer age/seniority '16'/'x'",
        "row 14: non-numeric workload 'inf' (need a finite number)",
        "row 14: characteristic 'g': unknown level ''",
        "row 15: non-numeric workload '1e400' (need a finite number)",
        "row 16: malformed month '2021-00' (expected YYYY-MM)",
        "row 16: age -3 / seniority -1 outside [16,20) x [0,2)",
    ]


FIELDS = (
    "", " ", "2020-11", " 2020-12 ", "2021-01", "2020-13", "2020-00", "2020-1", "٢٠٢٠-١١",
    "p1", " p1", "p2 ", "p3", "A", " B ", "out", "Z", "a,b",
    "16", " 18", "19 ", "25", "-1", "0", "1", "2", "1_8", "١٨", "abc", "99999999999999999999",
    "2147483647", "2147483648", "-2147483649",
    "40", "0.5", "-5", "nan", "inf", "1e400", "x", " y ", "zzz",
)
VALID = (  # per column, fields that pass its own check
    ("2019-12", "2020-11", " 2020-12 ", "2021-01"),
    ("p1", " p2", "p4 ", "p5", "p6"),
    ("A", " B "),
    ("18", " 19", "19 "),
    ("0", "0 ", "1"),
    ("40", " 0.5", "1_0", "1e2"),
    ("x", " y "),
)
INDEX = st.integers(0, 99)  # taken modulo the number of rows, fields or choices
EDITS = st.one_of(
    st.tuples(st.just("set"), INDEX, INDEX, st.one_of(INDEX, st.sampled_from(FIELDS))),
    st.tuples(st.just("new"), INDEX, st.lists(INDEX, min_size=7, max_size=7)),
    st.tuples(st.just("cut"), INDEX, st.integers(1, 6)),
    st.tuples(st.just("extend"), INDEX, st.lists(st.sampled_from(FIELDS), min_size=1, max_size=2)),
    st.tuples(st.just("copy"), INDEX, INDEX),
    st.tuples(st.just("blank"), INDEX),
)


def _outcome(parse, path, cfg):
    try:
        return parse(path, cfg)
    except DataError as exc:
        return str(exc), exc.problems


@settings(derandomize=True, deadline=None, max_examples=400)
@given(edits=st.lists(EDITS, max_size=8))
def test_parse_records_matches_the_row_by_row_reference(edits):
    """Fields, rows, row lengths, blank lines and repeated rows of a small panel, mutated."""
    cfg = small_cfg()
    rows = [line.split(",") for line in PANEL.splitlines()[1:]]
    for kind, at, *args in edits:
        at %= len(rows)
        if kind == "set" and rows[at]:
            j, value = args[0] % len(rows[at]), args[1]
            rows[at][j] = VALID[j][value % len(VALID[j])] if isinstance(value, int) else value
        elif kind == "new":
            rows.insert(at, [choices[k % len(choices)] for choices, k in zip(VALID, args[0])])
        elif kind == "cut" and rows[at]:
            rows[at] = rows[at][: args[0]]
        elif kind == "extend" and rows[at]:
            rows[at] = rows[at] + args[0]
        elif kind == "copy":
            rows.insert(args[0] % (len(rows) + 1), list(rows[at]))
        elif kind == "blank":
            rows.insert(at, [])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(HEADER)
            writer = csv.writer(fh, lineterminator="\n")
            for row in rows:
                if row:
                    writer.writerow(row)
                else:
                    fh.write("\n")
        got = _outcome(parse_records, path, cfg)
        want = _outcome(parse_records_by_row, path, cfg)
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.person_ids == want.person_ids
    for name, column in vars(want).items():
        if name != "person_ids":
            assert getattr(got, name).dtype == column.dtype, name
            np.testing.assert_array_equal(getattr(got, name), column, err_msg=name)


def test_parse_records_rejects_duplicates(tmp_path):
    cfg = small_cfg()
    text = HEADER + "2020-11,p1,A,18,0,40,x\n2020-11,p1,B,18,0,40,x\n"
    with pytest.raises(DataError, match="duplicate"):
        parse_records(write(tmp_path, "r.csv", text), cfg)


def test_parse_records_missing_file():
    with pytest.raises(DataError, match="not found"):
        parse_records("/nonexistent/records.csv", small_cfg())


def test_parse_records_leaves_no_reference_cycle():
    # a cycle would hold the parse's field dicts until a full collection
    cfg = load_run_config(DEMO / "config.yaml")
    gc.collect()
    gc.disable()
    try:
        parse_records(DEMO / "records.csv", cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_byte_that_is_not_utf8_is_reported_at_its_offset_and_line(tmp_path):
    cfg = load_run_config(DEMO / "config.yaml")
    data = (DEMO / "records.csv").read_bytes()
    assert len(data) == 33534
    path = tmp_path / "r.csv"
    third = data.index(b"\n", data.index(b"\n") + 1) + 1  # where line 3 starts
    cases = (
        (data + b"\xff\xfe", 33534, 1118),  # after the last row, four 8 KiB chunks in
        (data[:third] + b"\xff" + data[third:], third, 3),
    )
    for bad, at, line in cases:
        path.write_bytes(bad)
        with pytest.raises(DataError) as err:
            parse_records(path, cfg)
        assert str(err.value) == (
            f"records file {path} cannot be read: 'utf-8' codec can't decode byte 0xff "
            f"in position {at}: invalid start byte (line {line})"
        )


def test_a_line_the_csv_module_refuses_is_a_data_error_at_its_line(tmp_path):
    cfg = load_run_config(DEMO / "config.yaml")
    lines = (DEMO / "records.csv").read_text().splitlines(keepends=True)
    path = tmp_path / "r.csv"
    for line in (2, 1001):  # in the first and in a later block of rows
        bad = list(lines)
        bad[line - 1] = bad[line - 1].replace(",b", "," + "x" * 200_000 + "b")
        path.write_text("".join(bad))
        with pytest.raises(DataError) as err:
            parse_records(path, cfg)
        assert str(err.value) == (
            f"records file {path} cannot be read: "
            f"field larger than field limit (131072) (line {line})"
        )
    # before Python 3.11 the csv module refuses a NUL; later ones pass it to the checks
    bad = list(lines)
    bad[5] = bad[5].replace(",40,", ",4\x000,")
    path.write_text("".join(bad))
    with pytest.raises(DataError) as err:
        parse_records(path, cfg)
    if sys.version_info < (3, 11):
        assert str(err.value) == f"records file {path} cannot be read: line contains NUL (line 6)"
    else:
        assert "row 5: non-numeric workload '4\\x000'" in str(err.value)


def test_load_reserve_csv(tmp_path):
    cfg = small_cfg()
    good = "age,total\n16,3\n17,2\n18,2\n19,2.5\n"
    res = load_reserve_csv(write(tmp_path, "res.csv", good), cfg.space)
    assert res.dtype == np.float64 and res.tolist() == [3.0, 2.0, 2.0, 2.5]
    # rows in any order load by age
    shuffled = "age,total\n19,2.5\n17,2\n16,3\n18,2\n"
    assert load_reserve_csv(write(tmp_path, "s.csv", shuffled), cfg.space).tolist() == res.tolist()

    with pytest.raises(DataError, match="header must be exactly"):
        load_reserve_csv(write(tmp_path, "r1.csv", "age,count\n16,3\n"), cfg.space)
    with pytest.raises(DataError, match="missing ages: 19"):
        load_reserve_csv(
            write(tmp_path, "r2.csv", "age,total\n16,3\n17,2\n18,2\n"), cfg.space
        )
    with pytest.raises(DataError, match="duplicate age"):
        load_reserve_csv(
            write(tmp_path, "r3.csv", "age,total\n16,3\n16,4\n17,2\n18,2\n19,1\n"),
            cfg.space,
        )
    with pytest.raises(DataError, match="negative total"):
        load_reserve_csv(
            write(tmp_path, "r4.csv", "age,total\n16,-3\n17,2\n18,2\n19,1\n"),
            cfg.space,
        )
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(DataError, match="row 3: non-numeric entry"):
            load_reserve_csv(
                write(tmp_path, "r5.csv", f"age,total\n16,3\n17,2\n18,{bad}\n19,1\n"),
                cfg.space,
            )


def test_build_counts_flows_and_events(tmp_path):
    cfg = small_cfg()
    records = parse_records(write(tmp_path, "r.csv", PANEL), cfg)
    cube = build_counts(records, SMALL_CENSUS, cfg)

    # absolute months: November 2020, December 2020, January 2021
    assert cube.months == (2020 * 12 + 10, 2020 * 12 + 11, 2021 * 12)
    assert cube.flow_months == (2020 * 12 + 10, 2020 * 12 + 11)
    assert cube.base_calendar_year == 2021
    assert cube.q_years == (2021,)

    # workload-weighted group totals [month, age group, seniority group,
    # category]; month index 0 is November 2020; p2 works half time
    assert cube.group_totals[0, 1, 0, 1] == 1.0
    assert cube.group_totals[0, 1, 0, 2] == 0.5
    assert cube.group_totals[..., 1:].sum() == 5.0

    # flows [flow month, age group, seniority group, from, to]
    # November -> December: both stay in their categories
    assert cube.flows[0, 1, 0, 1, 1] == 1.0
    assert cube.flows[0, 1, 0, 2, 2] == 0.5
    # December -> January: p1 moves A -> B, p2 disappears (exit to 0)
    assert cube.flows[1, 1, 0, 1, 2] == 1.0
    assert cube.flows[1, 1, 0, 2, 0] == 0.5
    assert cube.flows.sum() == 3.0

    # year boundary 2021 (q-year index 0): p1 stays (from the December
    # cell), p2 exits
    assert cube.stay_exit[0, 1, 0, 1].tolist() == [1.0, 0.0]
    assert cube.stay_exit[0, 1, 0, 2].tolist() == [0.0, 0.5]
    assert cube.stay_exit.sum() == 1.5

    # p3 appears in January at (19, 1): source cell is (18, 0)
    assert cube.hires[0, 1, 0] == 1.0
    assert cube.entry_cats[0, 1, 0, 1] == 1.0
    assert cube.hires.sum() == cube.entry_cats.sum() == 1.0

    # characteristic counts [month, category, age group, seniority group,
    # tuple code]: p1 in January, category B, tuple y
    assert cube.char_counts[2, 2, 1, 0, cfg.characteristics.code((1,))] == 1.0


def test_build_counts_skips_gap_months(tmp_path):
    cfg = small_cfg()
    text = HEADER + "2020-11,p1,A,18,0,40,x\n2021-01,p1,A,18,0,40,x\n"
    cube = build_counts(parse_records(write(tmp_path, "r.csv", text), cfg), SMALL_CENSUS, cfg)
    # November and January are not consecutive: no flows, no year boundary
    assert cube.flow_months == ()
    assert cube.flows.size == 0
    assert cube.q_years == ()


def test_build_counts_clamps_hire_below_age_range(tmp_path):
    cfg = small_cfg()
    records = parse_records(write(tmp_path, "r.csv", CLAMPED_HIRE), cfg)
    cube = build_counts(records, SMALL_CENSUS, cfg)
    assert cube.hires[0, 0, 0] == 1.0
    assert cube.warnings == (
        "hire of 'p9' in 2021: source age below the configured range, clamped to 16",
    )


# unequal workloads, so the order of each weighted sum shows in the bits
WORKLOADS = (13.0, 21.0, 33.0, 37.0, 40.0)


# each panel below is (records, census, cfg)


def _demo_panel(tmp_path):
    cfg = load_run_config(DEMO / "config.yaml")
    census = load_reserve_csv(DEMO / "reserve.csv", cfg.space)
    return parse_records(DEMO / "records.csv", cfg), census, cfg


def _mini_panel(tmp_path):
    spec = panelgen.make_mini_world()
    panel = panelgen.generate(spec, start_year=2014, n_years=3, seed=3)
    r = panel.to_records()
    cycled = np.resize(np.array(WORKLOADS), len(r))
    columns = (r.category, r.age, r.seniority, cycled, r.tuple_code)
    records = Records.from_columns(r.month, r.person, r.person_ids, *columns)
    return records, panel.census(), spec.run_config()


def _gap_panel(tmp_path):
    """`demo/` without June and December 2015: two gaps, and 2016 loses its December."""
    records, census, cfg = _demo_panel(tmp_path)
    gone = np.isin(records.month, (2015 * 12 + 5, 2015 * 12 + 11))
    return records.take(~gone), census, cfg


def _person_gap_panel(tmp_path):
    """The cycled mini world without every 7th row: people leave and come back."""
    records, census, cfg = _mini_panel(tmp_path)
    return records.take(np.arange(len(records)) % 7 != 3), census, cfg


def _renamed_panel(tmp_path):
    """The cycled mini world with its person ids renamed so that their order reverses, rows too."""
    r, census, cfg = _mini_panel(tmp_path)
    renamed = sorted(f"w{999_999 - int(pid[1:]):06d}" for pid in r.person_ids)
    columns = (r.category, r.age, r.seniority, r.workload, r.tuple_code)
    records = Records.from_columns(
        r.month[::-1].copy(), (len(renamed) - 1 - r.person)[::-1], renamed,
        *(column[::-1].copy() for column in columns),
    )
    return records, census, cfg


# hires of one year and cell: p2's first row comes a year before its hire row
REHIRE = HEADER + textwrap.dedent(
    """\
    2020-01,p2,A,18,0,21,x
    2020-12,p0,A,19,1,40,x
    2021-01,p0,A,19,1,40,x
    2021-01,p1,A,19,0,13,x
    2021-01,p3,A,19,0,33,x
    2021-02,p2,A,19,0,21,x
    """
)


def _rehire_panel(tmp_path):
    """Hires summed in first-appearance order (21 + 13 + 33 h) and in row order differ in bits."""
    cfg = small_cfg()
    return parse_records(write(tmp_path, "r.csv", REHIRE), cfg), SMALL_CENSUS, cfg


def _clamped_hire_panel(tmp_path):
    cfg = small_cfg()
    return parse_records(write(tmp_path, "r.csv", CLAMPED_HIRE), cfg), SMALL_CENSUS, cfg


def _half(panel, split_year, k):
    """The months before `split_year` (k 0) or the rest (k 1); a part need not hold a q-year."""
    def make(tmp_path):
        records, census, cfg = panel(tmp_path)
        at = int(np.searchsorted(records.month, split_year * 12))
        return records.take(slice(0, at) if k == 0 else slice(at, None)), census, cfg

    return make


@pytest.mark.parametrize(
    "panel",
    [_demo_panel, _mini_panel, _gap_panel, _person_gap_panel, _renamed_panel,
     _clamped_hire_panel, _rehire_panel, _half(_demo_panel, 2016, 0),
     _half(_demo_panel, 2016, 1), _half(_mini_panel, 2015, 0), _half(_mini_panel, 2015, 1)],
    ids=["demo", "mini-cycled-workloads", "demo-gap-months", "mini-person-gaps",
         "mini-renamed-ids", "clamped-hire", "rehire-after-first-appearance", "demo-fit-half",
         "demo-held-out-half", "mini-fit-half", "mini-held-out-half"],
)
def test_build_counts_matches_the_sort_based_reference_bit_for_bit(panel, tmp_path):
    records, census, cfg = panel(tmp_path)
    _assert_same_cube(
        build_counts(records, census, cfg), build_counts_by_sort(records, census, cfg)
    )


def test_renamed_ids_move_no_bit_of_the_cube_or_the_observed_totals(tmp_path):
    # only rows that weigh and price alike keep an order that the ids set
    (records, census, cfg), (renamed, *_) = _mini_panel(tmp_path), _renamed_panel(tmp_path)
    assert renamed.person_ids != records.person_ids
    _assert_same_cube(build_counts(renamed, census, cfg), build_counts(records, census, cfg))
    schedule, profiles = cfg.finance
    scale = {cfg.space.categories.index(c): v for c, v in panelgen.MINI_SALARY_SCALE.items()}
    got, want = (observed_totals(split_records(r, 2016)[1], cfg, scale, profiles, schedule)
                 for r in (renamed, records))
    assert got.keys() == want.keys() == {2016}
    assert [a.tobytes() for a in got[2016]] == [a.tobytes() for a in want[2016]]


def _assert_same_cube(cube, want):
    for field in dataclasses.fields(cube):
        got, expected = getattr(cube, field.name), getattr(want, field.name)
        if isinstance(expected, np.ndarray):
            assert (got.dtype, got.shape) == (expected.dtype, expected.shape), field.name
            assert got.tobytes() == expected.tobytes(), field.name
        else:
            assert got == expected, field.name


def _costed_inputs(tmp_path):
    spec = panelgen.make_costed_world()
    panel = panelgen.generate(spec, start_year=2010, n_years=5, seed=1)
    return write_world_inputs(spec, panel, tmp_path)


@pytest.mark.parametrize(
    "inputs, view",
    [(_costed_inputs, lambda r: r.take(slice(*np.searchsorted(r.month, (2011 * 12, 2014 * 12))))),
     (demo_inputs, lambda r: split_records(r, 2016)[0]),
     (write_cycled_mini_world, lambda r: split_records(r, 2016)[0])],
    ids=["costed-2011-2013", "demo-fit-half", "mini-cycled-fit-half"],
)
def test_any_run_of_months_of_a_panel_fits_like_a_file_of_only_its_rows(inputs, view, tmp_path):
    paths = inputs(tmp_path)
    cfg = load_run_config(paths["config"])
    census = load_reserve_csv(paths["reserve"], cfg.space)
    part = view(parse_records(paths["records"], cfg))
    stamps = {f"{m // 12:04d}-{m % 12 + 1:02d}" for m in part.month.tolist()}
    header, *rows = paths["records"].read_text().splitlines(keepends=True)
    csv_text = header + "".join(row for row in rows if row[:7] in stamps)
    alone = parse_records(write(tmp_path, "part.csv", csv_text), cfg)
    assert len(alone) == len(part) < len(rows)

    def fit(records):
        return fit_model(build_counts(records, census, cfg), cfg).to_json()

    assert fit(part) == fit(alone)


@pytest.mark.parametrize(
    "panel",
    [_demo_panel, _mini_panel, _half(_demo_panel, 2016, 0), _half(_demo_panel, 2016, 1),
     _half(_mini_panel, 2015, 0), _half(_mini_panel, 2015, 1)],
    ids=["demo", "mini-cycled-workloads", "demo-fit-half", "demo-held-out-half",
         "mini-fit-half", "mini-held-out-half"],
)
def test_build_reserve_matches_the_indexed_reference_bit_for_bit(panel, tmp_path):
    records, census, cfg = panel(tmp_path)
    counts = panel_counts_by_sort(records, cfg)
    args = (counts["in_system"], census, counts["months"], cfg.space)
    for got, want in zip(build_reserve(*args), build_reserve_by_index(*args), strict=True):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_build_counts_allocates_at_most_72_bytes_a_row():
    spec = panelgen.make_costed_world()
    panel = panelgen.generate(spec, start_year=2010, n_years=4, seed=1)
    records, census, cfg = panel.to_records(), panel.census(), spec.run_config()
    assert len(records) >= 50_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        build_counts(records, census, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the records themselves hold 32 bytes a row; the cube's arrays are counted in the peak
    assert peak <= 72 * len(records), f"{peak / len(records):.1f} bytes a row"


def test_build_reserve_allocates_at_most_twice_its_result():
    spec = panelgen.make_costed_world()
    panel = panelgen.generate(spec, start_year=2006, n_years=12, seed=1)
    cfg = spec.run_config()
    counts = panel_counts_by_sort(panel.to_records(), cfg)
    args = (counts["in_system"], panel.census(), counts["months"], cfg.space)
    assert len(args[2]) == 144
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = build_reserve(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result's category-0 group totals and latest cells are counted in the peak
    own = sum(a.nbytes for a in result)
    assert peak <= 2 * own, f"{peak / own:.2f} times its result"


def test_build_reserve_splits_equally_over_feasible_seniorities(tmp_path):
    cfg = small_cfg()
    records = parse_records(write(tmp_path, "r.csv", PANEL), cfg)
    cube = build_counts(records, SMALL_CENSUS, cfg)

    # the latest 12 months [month - latest month + 11, category, age - 16, seniority]
    # January: p1 absent at 18, p3 holds weight 1 at age 19
    january, december = cube.latest[11, 0], cube.latest[10, 0]
    assert january[0, 0] == 3.0  # below working age: seniority 0 only
    assert january[2, 0] == 2.0
    # age 19 splits over feasible seniorities {0, 1}
    assert january[3, 0] == pytest.approx(0.25)
    assert january[3, 1] == pytest.approx(0.25)
    # December: ages 18 and 19 carry in-system weight 1 and 0.5
    assert december[2, 0] == 1.0
    assert december[3, 0] == pytest.approx(1.0)
    assert december[3, 1] == pytest.approx(1.0)
    assert january[:3, 1:].sum() == 0.0  # seniority 1 is infeasible below age 19
    # reserve mass lands in the cell totals under category 0
    assert cube.group_totals[1, 0, 0, 0] == pytest.approx(5.0)  # ages 16+17
    assert cube.group_totals[1, 1, 0, 0] == pytest.approx(3.0)


def test_build_reserve_rejects_census_deficit(tmp_path):
    cfg = small_cfg()
    records = parse_records(write(tmp_path, "r.csv", PANEL), cfg)
    census = np.array([3.0, 2.0, 0.5, 2.5])
    with pytest.raises(DataError, match="age 18, month 2020-11"):
        build_counts(records, census, cfg)
