"""Unit tests for the benchmark harness: span arithmetic, names, checks."""

import json
import re
import types
from pathlib import Path

from perfbench import layers, run, workloads
from perfbench.tracer import Tracer, self_times, summarize

NAME_PATTERN = r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"
BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == 10.0


def test_self_time_clips_children_and_counts_overlap_once():
    spans = [
        ("root", 0.0, 4.0, -1),
        ("x", -1.0, 1.0, 0),  # starts before its parent
        ("y", 2.0, 3.0, 0),
        ("z", 2.5, 5.0, 0),  # overlaps y and ends after its parent
    ]
    assert self_times(spans)[0] == 1.0  # 4 - [0,1] - [2,4]


def test_summarize_adds_calls_total_and_self():
    spans = [("f", 0.0, 2.0, -1), ("g", 0.5, 1.0, 0), ("f", 3.0, 4.0, -1)]
    out = summarize(spans)
    assert out["f"] == {"calls": 2, "total_s": 3.0, "self_s": 2.5}
    assert out["g"] == {"calls": 1, "total_s": 0.5, "self_s": 0.5}


def _fake_layer():
    mod = types.ModuleType("fake")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    def _private(x):
        return x

    class Store:
        @classmethod
        def load(cls, x):
            return x

    for fn in (leaf, outer, _private):
        fn.__module__ = "fake"
        setattr(mod, fn.__name__, fn)
    mod.Store = Store
    return mod


def test_install_wraps_public_functions_rebinds_imports_and_reports_absent():
    mod = _fake_layer()
    caller = {"leaf": mod.leaf, "other": len}
    tr = Tracer()

    def bad_hook(tracer, args, kwargs, result):
        raise TypeError("signature changed")

    tr.install(
        {"fake": mod},
        [("fake", "Store", "load"), ("fake", "Store", "gone"), ("missing", "X", "y")],
        {"fake.leaf": bad_hook},
        [caller],
    )
    assert tr.installed == {"fake.leaf", "fake.outer", "fake.Store.load"}
    assert tr.absent == ["fake.Store.gone", "missing.X.y"]
    assert caller["leaf"] is mod.leaf and caller["other"] is len
    assert tr.call("root", mod.outer, 1) == 4
    assert mod.Store.load(7) == 7
    names = [(s[0], s[3]) for s in tr.spans]
    assert names == [("root", -1), ("fake.outer", 0), ("fake.leaf", 1), ("fake.Store.load", -1)]
    assert "fake.leaf (counter)" in tr.absent
    assert set(tr.rss_hwm_mb) == {"root", "fake.Store.load"}


def test_layer_metrics_report_unwrapped_spans_as_absent():
    values, absent = layers.metrics({}, {}, installed=set())
    assert set(values) == {name for name, *_ in layers.PER_LAYER}
    assert all(v == 0.0 for v in values.values())
    assert "project.flatten_v.s" in absent and "cli.fit.self_s" not in absent


def test_metric_names_and_units_follow_the_pattern():
    name = re.compile(NAME_PATTERN + r"\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    for m in metrics:
        assert name.match(m["name"]), m["name"]
        assert unit.match(m["unit"]), m["unit"]
    for w in BENCHMARK["workloads"]:
        assert name.match(w["name"]), w["name"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert not name.match("cost-report self") and not name.match("_x")


def test_benchmark_json_matches_the_harness():
    per_layer = [(n, u) for n, u, *_ in layers.PER_LAYER] + layers.TRACE_METRICS
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == per_layer
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()
    }


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile([float(x) for x in range(20)]) == {"pct": 50, "value": 9.0}


def _report(path, header, rows):
    path.write_text("# markovpop-report\n" + "\n".join([header, *rows]) + "\n")
    return path


def test_cost_check_flags_a_total_that_is_not_the_sum(tmp_path):
    header = "year,category,age_group,seniority_group,expected_cost,sim_mean_cost,sim_p05,sim_p95"
    good = ["2017,A,0..1,0..1,100,101,0,0", "2017,B,0..1,0..1,200,199,0,0",
            "2017,*,*,*,300,300,0,0"]
    assert workloads.check_cost(_report(tmp_path / "c.csv", header, good)) == []
    bad = good[:2] + ["2017,*,*,*,310,300,0,0"]
    assert workloads.check_cost(_report(tmp_path / "c.csv", header, bad))


def test_backtest_check_applies_the_two_percent_bound(tmp_path):
    header = "year,category,rel_err_cost"
    rows = ["2016,*,0.019", "2017,*,-0.021"]
    problems = workloads.check_backtest(_report(tmp_path / "b.csv", header, rows), (2016, 2017))
    assert len(problems) == 1 and "2017" in problems[0]
