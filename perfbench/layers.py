"""Which markovpop layers the traced run wraps, and the per-layer metrics.

Every metric here is listed under ``per_layer`` in BENCHMARK.json with
the same name and unit; ``test_perfbench`` keeps the two in step.
"""

from __future__ import annotations

import importlib
import os

LAYERS = ("ingest", "estimate", "model", "project", "montecarlo", "finance", "reports", "config")
METHODS = (
    ("model", "FittedModel", "load"),
    ("model", "FittedModel", "save"),
    ("reports", "RunManifest", "collect"),
)
COMMANDS = ("fit", "project", "simulate", "cost_report", "backtest")
ESTIMATORS = (
    "estimate_initial_distribution",
    "estimate_monthly_transitions",
    "annualize_transitions",
    "estimate_entry_probabilities",
    "estimate_entry_categories",
    "estimate_characteristic_distribution",
    "fit_model",
)
REPORT_KINDS = ("projection", "simulation", "cost", "backtest")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _rows_parsed(tr, args, kwargs, result):
    tr.count("ingest.rows", len(result))


def _rows_counted(tr, args, kwargs, result):
    tr.count("ingest.build_counts.rows", len(_arg(args, kwargs, 0, "records")))


def _file_size(counter, pos):
    def hook(tr, args, kwargs, result):
        tr.count(counter, os.path.getsize(_arg(args, kwargs, pos, "path")))

    return hook


def _labels(tr, args, kwargs, result):
    masses = [w for dist in result.v.values() for w in dist.values()]
    tr.count("project.labels", len(masses), how="max")
    tr.count("project.nonzero_labels", sum(1 for w in masses if w > 0.0), how="max")


def _simulated(tr, args, kwargs, result):
    years = len(_arg(args, kwargs, 0, "v_by_year"))
    tr.count("montecarlo.iter_years", years * _arg(args, kwargs, 2, "iterations"))
    held = sum(y.draws.nbytes for y in result.years.values())
    tr.count("montecarlo.draw_bytes", held, how="max")


HOOKS = {
    "ingest.parse_records": _rows_parsed,
    "ingest.build_counts": _rows_counted,
    # load is a classmethod and save a method: the path is the second argument
    "model.FittedModel.load": _file_size("model.json_bytes", 1),
    "model.FittedModel.save": _file_size("model.json_bytes", 1),
    "project.group_probabilities": _labels,
    "montecarlo.simulate_projection": _simulated,
    **{f"reports.write_{k}_csv": _file_size("reports.bytes_written", 0) for k in REPORT_KINDS},
}


def install(tracer) -> None:
    """Wrap the layer modules of the imported markovpop package."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"markovpop.{layer}")
        except ImportError:
            tracer.absent.append(f"markovpop.{layer}")
    namespaces = [
        vars(importlib.import_module(f"markovpop.{m}")) for m in ("cli", *modules)
    ]
    tracer.install(modules, METHODS, HOOKS, namespaces)


def _total(span):
    return lambda s, c: s(span, "total_s")


def _calls(span):
    return lambda s, c: s(span, "calls")


def _self(span):
    return lambda s, c: s(span, "self_s")


def _counter(key):
    return lambda s, c: c(key)


def _ratio(span, key, scale):
    return lambda s, c: scale * s(span, "total_s") / c(key) if c(key) else 0.0


# (metric, unit, spans it is computed from, formula over span totals and counters)
PER_LAYER = [
    ("ingest.parse_records.us_per_row", "us", ("ingest.parse_records",),
     _ratio("ingest.parse_records", "ingest.rows", 1e6)),
    ("ingest.build_counts.us_per_row", "us", ("ingest.build_counts",),
     _ratio("ingest.build_counts", "ingest.build_counts.rows", 1e6)),
    ("ingest.build_reserve.s", "s", ("ingest.build_reserve",), _total("ingest.build_reserve")),
    ("ingest.rows", "count", ("ingest.parse_records",), _counter("ingest.rows")),
    *[(f"estimate.{f}.s", "s", (f"estimate.{f}",), _total(f"estimate.{f}")) for f in ESTIMATORS],
    ("model.FittedModel.load.s", "s", ("model.FittedModel.load",),
     _total("model.FittedModel.load")),
    ("model.FittedModel.save.s", "s", ("model.FittedModel.save",),
     _total("model.FittedModel.save")),
    ("model.json_bytes", "bytes", ("model.FittedModel.load", "model.FittedModel.save"),
     _counter("model.json_bytes")),
    ("project.propagate_distribution.ms_per_year", "ms", ("project.propagate_distribution",),
     lambda s, c: 1e3 * s("project.propagate_distribution", "total_s")
     / max(s("project.propagate_distribution", "calls"), 1)),
    ("project.group_probabilities.s", "s", ("project.group_probabilities",),
     _total("project.group_probabilities")),
    ("project.expected_populations.s", "s", ("project.expected_populations",),
     _total("project.expected_populations")),
    ("project.flatten_v.s", "s", ("project.flatten_v",), _total("project.flatten_v")),
    ("project.labels", "count", ("project.group_probabilities",), _counter("project.labels")),
    ("project.nonzero_labels", "count", ("project.group_probabilities",),
     _counter("project.nonzero_labels")),
    ("montecarlo.simulate_projection.ms_per_iter_year", "ms", ("montecarlo.simulate_projection",),
     _ratio("montecarlo.simulate_projection", "montecarlo.iter_years", 1e3)),
    ("montecarlo.multinomial_draw.calls", "count", ("montecarlo.multinomial_draw",),
     _calls("montecarlo.multinomial_draw")),
    ("montecarlo.derive_generator.calls", "count", ("montecarlo.derive_generator",),
     _calls("montecarlo.derive_generator")),
    ("montecarlo.summarize.s", "s", ("montecarlo.summarize",), _total("montecarlo.summarize")),
    ("montecarlo.draw_bytes", "bytes", ("montecarlo.simulate_projection",),
     _counter("montecarlo.draw_bytes")),
    ("finance.profile_for.calls", "count", ("finance.profile_for",), _calls("finance.profile_for")),
    ("finance.total_cost.calls", "count", ("finance.total_cost",), _calls("finance.total_cost")),
    # total_cost runs salary_cost inside its own span; profile_for and
    # total_cost never nest, so their totals add without double counting
    ("finance.pricing.s", "s", ("finance.profile_for", "finance.total_cost"),
     lambda s, c: s("finance.profile_for", "total_s") + s("finance.total_cost", "total_s")),
    *[(f"reports.write_{k}_csv.s", "s", (f"reports.write_{k}_csv",),
       _total(f"reports.write_{k}_csv")) for k in REPORT_KINDS],
    ("reports.RunManifest.collect.s", "s", ("reports.RunManifest.collect",),
     _total("reports.RunManifest.collect")),
    ("reports.bytes_written", "bytes", tuple(f"reports.write_{k}_csv" for k in REPORT_KINDS),
     _counter("reports.bytes_written")),
    ("config.load_run_config.s", "s", ("config.load_run_config",),
     _total("config.load_run_config")),
    *[(f"cli.{cmd}.self_s", "s", (), _self(f"cli.{cmd}")) for cmd in COMMANDS],
    *[(f"rss_hwm_mb.{cmd}", "MB", (), _counter(f"rss_hwm_mb.cli.{cmd}")) for cmd in COMMANDS],
]

# computed by the harness from an untraced and a traced in-process pass
TRACE_METRICS = [
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.spans", "count"),
]


UNITS = {name: unit for name, unit, *_ in PER_LAYER} | dict(TRACE_METRICS)


def metrics(summary, counters, installed):
    """Per-layer metric values, and the metrics whose spans were not wrapped."""

    def span(name, field):
        return summary.get(name, {}).get(field, 0.0)

    def count(key):
        return counters.get(key, 0.0)

    values, absent = {}, []
    for name, _unit, spans, formula in PER_LAYER:
        values[name] = float(formula(span, count))
        if any(s not in installed for s in spans):
            absent.append(name)
    return values, absent
