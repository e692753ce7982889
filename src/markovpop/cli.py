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
import os
import sys
from contextlib import nullcontext
from functools import partial

from . import __version__
from .config import RunConfig, load_run_config
from .errors import ConfigError, MarkovPopError, atomic
from .estimate import fit_model
from .ingest import CountsCube, build_counts, load_reserve_csv, load_salary_scale
from .ingest import parse_records, split_records
from .model import FittedModel
from .montecarlo import STREAM_VERSION, dump_draws, dumped, simulate_projection
from .project import projection
from .reports import (
    RunManifest,
    cell_costs,
    observed_totals,
    summaries,
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


def _at_least(low: int):
    """An argparse type: an integer that is at least `low`."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low} (got {value})")
        return value

    parse.__name__ = "int"  # so a non-integer still reads "invalid int value"
    return parse


def _load_model(args, cfg: RunConfig) -> FittedModel:
    model = FittedModel.load(args.model)
    model.check_against(cfg.space, cfg.characteristics, cfg.full_time_hours)
    return model


def _pricing(args, cfg: RunConfig):
    """(salary scale, profile fields per tuple code, rate schedule) for a pricing command."""
    if cfg.finance is None:
        raise ConfigError("this command needs a 'finance' section in the config file")
    schedule, profiles = cfg.finance
    return load_salary_scale(args.salary_scale, cfg.space), profiles, schedule


def _counts(records, census, cfg: RunConfig) -> CountsCube:
    cube = build_counts(records, census, cfg)
    log.info("fitting %d months (%d person-month records)", len(cube.months), len(records))
    return cube


def _simulation(model: FittedModel, args, iterations, labels, tables, reduce):
    """The (year, reduce(year, blocks)) list of `tables[1:]`."""
    probs = {t.year: t.probs for t in tables[1:]}
    return simulate_projection(
        probs, model.i0, iterations, args.seed, args.workers, bounds=labels.bounds, reduce=reduce
    )


def _manifest(command, args, roles, params) -> RunManifest:
    """Provenance block over the input files named by `roles` (flag names)."""
    inputs = {role: getattr(args, role.replace("-", "_")) for role in roles}
    return RunManifest.collect(command, inputs, params)


def _sim_params(args, cfg: RunConfig, params: dict) -> dict:
    """`params` and the simulation's; only an absent --iterations takes the config's."""
    iterations = cfg.iterations if args.iterations is None else args.iterations
    return {**params, "iterations": iterations, "seed": args.seed, "stream": STREAM_VERSION}


# -- commands ----------------------------------------------------------


def cmd_fit(args) -> int:
    cfg = load_run_config(args.config)
    records = parse_records(args.records, cfg)
    census = load_reserve_csv(args.reserve, cfg.space)
    cube = _counts(records, census, cfg)
    del records  # the fit needs only the cube
    model = fit_model(cube, cfg)
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
    cfg = load_run_config(args.config)
    model = _load_model(args, cfg)
    labels, tables = projection(model, args.years, cfg.overflow_policy)
    manifest = _manifest("project", args, ("config", "model"), {"years": args.years})
    write_projection_csv(args.out, manifest, model, labels, tables)
    return 0


def cmd_simulate(args) -> int:
    if args.dump_draws and os.path.realpath(args.dump_draws) == os.path.realpath(args.out):
        raise ConfigError("markovpop simulate: --dump-draws and --out must name different files")
    cfg = load_run_config(args.config)
    model = _load_model(args, cfg)
    labels, tables = projection(model, args.years, cfg.overflow_policy)
    params = _sim_params(args, cfg, {"years": args.years})
    manifest = _manifest("simulate", args, ("config", "model"), params)
    years, n_labels = [t.year for t in tables[1:]], len(labels.cell_id)
    reduce = partial(summaries, labels.bounds)
    with atomic(args.dump_draws) if args.dump_draws else nullcontext() as dump:
        if dump:
            dump_draws(dump, years, params["iterations"], n_labels)
            reduce = partial(dumped, reduce, dump, years, n_labels)
        stats = _simulation(model, args, params["iterations"], labels, tables, reduce)
        write_simulation_csv(args.out, manifest, model, labels, stats)  # a failure writes neither
    return 0


def cmd_cost_report(args) -> int:
    cfg = load_run_config(args.config)
    model = _load_model(args, cfg)
    pricing = _pricing(args, cfg)
    labels, tables = projection(model, args.years, cfg.overflow_policy)
    params = _sim_params(args, cfg, {"years": args.years})
    manifest = _manifest("cost-report", args, ("config", "model", "salary-scale"), params)
    reduce = cell_costs(model, labels, tables, *pricing)
    years = _simulation(model, args, params["iterations"], labels, tables, reduce)
    write_cost_csv(args.out, manifest, model, years)
    return 0


def cmd_backtest(args) -> int:
    cfg = load_run_config(args.config)
    pricing = _pricing(args, cfg)
    records = parse_records(args.records, cfg)
    census = load_reserve_csv(args.reserve, cfg.space)
    fit_records, holdout = split_records(records, args.split_year)
    observed = observed_totals(holdout, cfg, *pricing)
    cube = _counts(fit_records, census, cfg)
    del records, fit_records, holdout  # views of the panel: the fit needs only the cube
    model = fit_model(cube, cfg)
    del cube  # its memory is reused by the simulation
    labels, tables = projection(model, max(observed) - model.base_year, cfg.overflow_policy)
    roles = ("config", "records", "reserve", "salary-scale")
    params = _sim_params(args, cfg, {"split-year": args.split_year})
    manifest = _manifest("backtest", args, roles, params)
    reduce = cell_costs(model, labels, tables, *pricing)
    years = _simulation(model, args, params["iterations"], labels, tables, reduce)
    write_backtest_csv(args.out, manifest, model, labels, tables, years, observed)
    return 0


# -- entry point -------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="markovpop", description=__doc__)
    p.add_argument("--version", action="version", version=f"markovpop {__version__}")
    p.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = p.add_subparsers(dest="command")

    def common(sp, run, *, model=False, records=False, sim=False, scale=False, years=None):
        """Flags of a command that runs `run`; `years` is the least --years, None for none."""
        sp.set_defaults(run=run)
        sp.add_argument("--config", required=True, help="run configuration YAML")
        sp.add_argument("--out", required=True, help="output file path")
        if model:
            sp.add_argument("--model", required=True, help="fitted model JSON")
        if records:
            sp.add_argument("--records", required=True, help="monthly records CSV")
            sp.add_argument("--reserve", required=True, help="per-age census totals CSV")
        if sim:
            sp.add_argument("--iterations", type=_at_least(1), default=None,
                            help="simulation draws per year (default from config)")
            sp.add_argument("--seed", type=int, default=0, help="master RNG seed")
            sp.add_argument("--workers", type=_at_least(1), default=1,
                            help="worker processes (output is identical for any value)")
        if scale:
            sp.add_argument("--salary-scale", dest="salary_scale", required=True,
                            help="category base salary CSV")
        if years is not None:
            sp.add_argument("--years", type=_at_least(years), required=True,
                            help="projection horizon in years")

    sp = sub.add_parser("fit", help="estimate the model from a monthly panel")
    common(sp, cmd_fit, records=True)

    sp = sub.add_parser("project", help="expected population by year")
    common(sp, cmd_project, model=True, years=0)

    sp = sub.add_parser("simulate", help="Monte Carlo around the projection")
    common(sp, cmd_simulate, model=True, sim=True, years=1)
    sp.add_argument("--dump-draws", dest="dump_draws",
                    help="optional raw draw dump (int32 little-endian)")

    sp = sub.add_parser("cost-report", help="price the projected population")
    common(sp, cmd_cost_report, model=True, sim=True, scale=True, years=1)

    sp = sub.add_parser("backtest", help="refit before a split year, compare holdout")
    common(sp, cmd_backtest, records=True, sim=True, scale=True)
    sp.add_argument("--split-year", dest="split_year", type=int, required=True,
                    help="first held-out calendar year")
    return p


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
        return args.run(args)
    except MarkovPopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # loaders classify their read errors: this came from writing
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # numpy's allocation errors subclass it
        hint = "; try a lower --iterations" if hasattr(args, "iterations") else ""
        print(f"error: {args.command} ran out of memory{hint}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
