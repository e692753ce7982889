"""Workforce projection via a category/age/seniority Markov chain.

The package fits the chain from a monthly personnel panel plus census
age totals, propagates the population distribution year by year, runs
multinomial Monte Carlo around the expected path, and prices the
projected population with statutory payroll cost formulas.
"""

__version__ = "0.1.0"

from .config import RunConfig, load_run_config
from .errors import ConfigError, DataError, HorizonError, MarkovPopError
from .estimate import fit_model
from .ingest import build_counts, build_reserve, load_reserve_csv, parse_records
from .model import FittedModel
from .project import distribution_at_year, group_probabilities, propagate_distribution

__all__ = [
    "ConfigError",
    "DataError",
    "FittedModel",
    "HorizonError",
    "MarkovPopError",
    "RunConfig",
    "__version__",
    "build_counts",
    "build_reserve",
    "distribution_at_year",
    "fit_model",
    "group_probabilities",
    "load_reserve_csv",
    "load_run_config",
    "parse_records",
    "propagate_distribution",
]
