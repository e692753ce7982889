"""Command-line interface.

Subcommands cover the whole pipeline: `fit` estimates the model from a
monthly panel, `project` and `simulate` roll it forward, `cost-report`
prices the projection, and `backtest` refits on a truncated panel and
compares held-out years.  Exit codes: 0 success, 1 validation error,
2 data error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import __version__
from .config import RunConfig, load_run_config
from .errors import ConfigError, MarkovPopError
from .estimate import fit_model
from .finance import load_salary_scale, parse_finance_config
from .ingest import build_counts, build_reserve, load_reserve_csv, parse_records, split_records
from .model import FittedModel
from .montecarlo import STREAM_VERSION, dump_draws, simulate_projection
from .project import projection
from .reports import (
    RunManifest,
    backtest_rows,
    cost_rows,
    write_backtest_csv,
    write_cost_csv,
    write_projection_csv,
    write_simulation_csv,
)

log = logging.getLogger("markovpop")

class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _require(args, *names):
    missing = ["--" + n.replace("_", "-") for n in names if getattr(args, n, None) is None]
    if missing:
        raise ConfigError(f"missing required flag(s): {', '.join(missing)}")


def _load_model(args, cfg: RunConfig) -> FittedModel:
    model = FittedModel.load(args.model)
    model.check_against(cfg.space, cfg.characteristics, cfg.full_time_hours)
    return model


def _pricing(args, cfg: RunConfig):
    """(salary scale, profile fields per tuple code, rate schedule) for a pricing command."""
    if not cfg.finance_raw:
        raise ConfigError("this command needs a 'finance' section in the config file")
    schedule, profiles = parse_finance_config(cfg.finance_raw, cfg.characteristics)
    return load_salary_scale(args.salary_scale, cfg.space), profiles, schedule


def _fit(records, reserve, cfg: RunConfig) -> FittedModel:
    cube = build_reserve(build_counts(records, cfg), reserve, cfg)
    log.info("fitting %d months (%d person-month records)", len(cube.months), len(records))
    return fit_model(cube, reserve, cfg)


def _simulation(model: FittedModel, cfg: RunConfig, args, years: int):
    labels, tables = projection(model, years, cfg.overflow_policy)
    probs = {model.base_year + t.year: t.probs for t in tables[1:]}
    iterations = cfg.iterations if args.iterations is None else args.iterations
    result = simulate_projection(probs, model.i0, iterations, args.seed, args.workers)
    return labels, tables, result


def _manifest(command, args, roles, params) -> RunManifest:
    """Provenance block over the input files named by `roles` (flag names)."""
    inputs = {role: getattr(args, role.replace("-", "_")) for role in roles}
    return RunManifest.collect(command, inputs, params)


def _sim_params(args, result) -> dict:
    return {"years": args.years, "iterations": result.iterations, "seed": args.seed,
            "stream": STREAM_VERSION}


# -- commands ----------------------------------------------------------


def cmd_fit(args) -> int:
    _require(args, "config", "records", "reserve", "out")
    cfg = load_run_config(args.config)
    records = parse_records(args.records, cfg)
    model = _fit(records, load_reserve_csv(args.reserve, cfg.space), cfg)
    model.save(args.out)
    diag = model.diagnostics
    for w in diag.get("warnings", []):
        log.warning("%s", w)
    flagged = sum(len(v) for k, v in diag.items() if k.startswith("unobserved_"))
    if flagged:
        note = f"{flagged} unobserved objects flagged in diagnostics"
        print(f"fit complete: {args.out} written; {note}", file=sys.stderr)
    return 0


def cmd_project(args) -> int:
    _require(args, "config", "model", "years", "out")
    cfg = load_run_config(args.config)
    model = _load_model(args, cfg)
    if args.years < 0:
        raise ConfigError(f"--years must be >= 0 (got {args.years})")
    labels, tables = projection(model, args.years, cfg.overflow_policy)
    manifest = _manifest("project", args, ("config", "model"), {"years": args.years})
    write_projection_csv(args.out, manifest, model, labels, tables)
    return 0


def cmd_simulate(args) -> int:
    _require(args, "config", "model", "years", "out")
    cfg = load_run_config(args.config)
    model = _load_model(args, cfg)
    if args.years < 1:
        raise ConfigError(f"--years must be >= 1 for simulate (got {args.years})")
    labels, _tables, result = _simulation(model, cfg, args, args.years)
    manifest = _manifest("simulate", args, ("config", "model"), _sim_params(args, result))
    write_simulation_csv(args.out, manifest, model, labels, result)
    if args.dump_draws:
        dump_draws(result, args.dump_draws)
    return 0


def cmd_cost_report(args) -> int:
    _require(args, "config", "model", "salary_scale", "years", "out")
    cfg = load_run_config(args.config)
    model = _load_model(args, cfg)
    if args.years < 1:
        raise ConfigError(f"--years must be >= 1 for cost-report (got {args.years})")
    pricing = _pricing(args, cfg)
    labels, tables, result = _simulation(model, cfg, args, args.years)
    rows = cost_rows(model, labels, tables, result, *pricing)
    roles = ("config", "model", "salary-scale")
    manifest = _manifest("cost-report", args, roles, _sim_params(args, result))
    write_cost_csv(args.out, manifest, rows)
    return 0


def cmd_backtest(args) -> int:
    _require(args, "config", "records", "reserve", "split_year", "salary_scale", "out")
    cfg = load_run_config(args.config)
    pricing = _pricing(args, cfg)
    records = parse_records(args.records, cfg)
    reserve = load_reserve_csv(args.reserve, cfg.space)
    fit_records, holdout = split_records(records, args.split_year)
    model = _fit(fit_records, reserve, cfg)
    horizon = int(holdout.cal_year.max()) - model.base_year
    labels, tables, result = _simulation(model, cfg, args, horizon)
    rows = backtest_rows(model, labels, tables, result, holdout, *pricing)
    roles = ("config", "records", "reserve", "salary-scale")
    params = {"split-year": args.split_year, "iterations": result.iterations, "seed": args.seed,
              "stream": STREAM_VERSION}
    manifest = _manifest("backtest", args, roles, params)
    write_backtest_csv(args.out, manifest, rows)
    return 0


# -- entry point -------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="markovpop", description=__doc__)
    p.add_argument("--version", action="version", version=f"markovpop {__version__}")
    p.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = p.add_subparsers(dest="command")

    def common(sp, *, model=False, records=False, sim=False, scale=False, years=True):
        sp.add_argument("--config", help="run configuration YAML")
        sp.add_argument("--out", help="output file path")
        if model:
            sp.add_argument("--model", help="fitted model JSON")
        if records:
            sp.add_argument("--records", help="monthly records CSV")
            sp.add_argument("--reserve", help="per-age census totals CSV")
        if sim:
            sp.add_argument("--iterations", type=int, default=None,
                            help="simulation draws per year (default from config)")
            sp.add_argument("--seed", type=int, default=0, help="master RNG seed")
            sp.add_argument("--workers", type=int, default=1,
                            help="worker processes (output is identical for any value)")
        if scale:
            sp.add_argument("--salary-scale", dest="salary_scale",
                            help="category base salary CSV")
        if years:
            sp.add_argument("--years", type=int, help="projection horizon in years")

    sp = sub.add_parser("fit", help="estimate the model from a monthly panel")
    common(sp, records=True, years=False)

    sp = sub.add_parser("project", help="expected population by year")
    common(sp, model=True)

    sp = sub.add_parser("simulate", help="Monte Carlo around the projection")
    common(sp, model=True, sim=True)
    sp.add_argument("--dump-draws", dest="dump_draws",
                    help="optional raw draw dump (int64 little-endian)")

    sp = sub.add_parser("cost-report", help="price the projected population")
    common(sp, model=True, sim=True, scale=True)

    sp = sub.add_parser("backtest", help="refit before a split year, compare holdout")
    common(sp, records=True, sim=True, scale=True, years=False)
    sp.add_argument("--split-year", dest="split_year", type=int,
                    help="first held-out calendar year")
    return p


COMMANDS = {
    "fit": cmd_fit,
    "project": cmd_project,
    "simulate": cmd_simulate,
    "cost-report": cmd_cost_report,
    "backtest": cmd_backtest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        if not args.command:
            parser.print_help(sys.stderr)
            return 1
        return COMMANDS[args.command](args)
    except MarkovPopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # loaders classify their read errors: this came from writing
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
