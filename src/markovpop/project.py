"""Exact yearly propagation of the triple distribution.

The one-step law, in two parts.  The source state's cell decides next
year's category: membership by the cell's entry probability, and the
category of members by its annual operator.  Then everyone ages one
year, and members gain one year of seniority while non-members keep it.

Age or seniority that would leave the configured ranges is an error
under the default "strict" policy; "absorb" clamps into the top value.

A distribution is an array over (category, age, seniority), and a year
a calendar year.  A projection steps one working copy of the initial
distribution in place, from the model's base year.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonError
from .model import FittedModel

_ADVICE = "shorten the horizon or set overflow_policy: absorb"


def propagate_distribution(d: np.ndarray, model: FittedModel, year: int, policy: str = "strict"):
    """Step the distribution `d` from calendar `year` to the next, in place.

    Each cell's law splits the mass of its (age, seniority) states over
    next year's categories, in the cell's own block (cells partition the
    plane); one clamped shift then ages all of it.  Source categories add
    in index order (the einsum contracts them in that order), and mass
    meeting in a clamped top value adds in source order, age first, then
    seniority, so repeated runs are bit-identical.
    """
    space = model.space
    n_sen = d.shape[2]
    if policy == "strict" and d[:, -1].sum() > 0.0:
        raise HorizonError(
            f"age overflow: mass {d[:, -1].sum():.3g} at the top age {space.age_max - 1} "
            f"cannot age further (year {year}); {_ADVICE}"
        )

    for ei, ai in space.cells():  # d[k, e, a] becomes the mass of (e, a) in k next year
        elo, ehi = space.age_groups[ei]
        ages = slice(elo - space.age_min, ehi - space.age_min)
        sens = slice(*space.seniority_groups[ai])
        sub = d[:, ages, sens]
        if not sub.any():  # zero mass stays zero, and aging adds every value to a zero
            continue
        q1 = model.q1[(ei, ai)][:, None, None]
        t = model.transition_operator(ei, ai)
        members = np.einsum("cea,cl->lea", sub * q1, t[:, 1:])
        sub[0] = (sub * (1.0 - q1)).sum(axis=0)
        sub[1:] = members

    overflow = np.flatnonzero(d[1:, :, -1].sum(axis=0) > 0.0)
    if policy == "strict" and overflow.size:
        ei, ai = space.locate_groups(space.age_min + int(overflow[0]), n_sen - 1)
        raise HorizonError(
            f"seniority overflow: in-system mass at the top seniority {n_sen - 1} "
            f"(cell {ei},{ai}, year {year}); {_ADVICE}"
        )
    # under strict the checks above leave the clamped targets only zero mass
    _age(d)


def _age(d: np.ndarray) -> None:
    """Shift every state one age up, in-system ones one seniority up, clamped at the top, in place.

    Ages are written from the top down, each before the age below it.  A target adds its
    sources in (age, seniority) order to a zero, as ``np.add.at`` would: the shifted source
    first, then the one already at the top seniority, then at the top age, then the corner.
    """
    top = d[:, -1].copy()
    for e in range(d.shape[1] - 1, 0, -1):
        d[:, e] = 0.0
        _add_older(d[:, e - 1], d[:, e])
    d[:, 0] = 0.0
    _add_older(top, d[:, -1])


def _add_older(src: np.ndarray, out: np.ndarray) -> None:
    """Add the (category, seniority) states of one age into `out`, in system one seniority up."""
    out[1:, 1:] += src[1:, :-1]
    out[1:, -1] += src[1:, -1]
    out[0] += src[0]  # out of the system, seniority is kept


def distribution_at_year(
    pi: np.ndarray, model: FittedModel, n: int, policy: str = "strict"
) -> np.ndarray:
    """Propagate the initial distribution n years forward, in one array of its own."""
    for _, d in _years(pi, model, n, policy):
        pass
    return d  # the exhausted generator's working copy of `pi`


def _years(pi: np.ndarray, model: FittedModel, n: int, policy: str):
    """Yield (year, d) for the base year and n more; each step overwrites `d`, a copy of `pi`."""
    if n < 0:
        raise HorizonError(f"projection horizon must be >= 0 (got {n})")
    space = model.space
    ages = np.flatnonzero(pi.sum(axis=(0, 2)) > 0.0) + space.age_min
    if policy == "strict" and ages.size and ages[-1] + n >= space.age_max:
        raise HorizonError(
            f"age overflow: initial mass at age {ages[-1]} cannot be projected "
            f"{n} years within [{space.age_min},{space.age_max}); {_ADVICE}"
        )
    d = np.array(pi, dtype=float)
    yield model.base_year, d
    for year in range(model.base_year, model.base_year + n):
        propagate_distribution(d, model, year, policy)
        yield year + 1, d


@dataclass(frozen=True)
class LabelIndex:
    """The cell x characteristic-tuple label space of one model, as arrays.

    Labels run over categories, age groups and seniority groups ascending,
    then over tuple codes ascending within a cell.  Code 0 is the
    aggregate pseudo-tuple of a cell that cannot be split (category 0, any
    cell of a model without characteristics, or an unobserved in-system
    cell); code k >= 1 is ``tuples[k]``, the characteristic tuples in
    declaration order.  The label set depends only on the model, not the
    year, so simulation streams stay aligned across years and horizons.
    """

    category: np.ndarray
    tuple_code: np.ndarray
    cell_id: np.ndarray  # index into the raveled (category, age group, seniority group) cube
    weight: np.ndarray  # share of the cell's mass; 1.0 for unsplittable cells
    tuples: tuple  # tuple code -> characteristic tuple (None at code 0)
    bounds: np.ndarray  # labels of cell i are bounds[i]:bounds[i + 1]

    @classmethod
    def build(cls, model: FittedModel) -> "LabelIndex":
        # one aggregate label carries the whole of a cell that cannot be split
        weights = model.r.copy() if model.characteristics.names else np.zeros_like(model.r)
        weights[..., 0] = ~weights.any(axis=-1)
        cat, eg, sg, code = np.nonzero(weights)  # C order: cell, then tuple code
        cell_id = np.ravel_multi_index((cat, eg, sg), weights.shape[:-1])
        bounds = np.searchsorted(cell_id, np.arange(cell_id[-1] + 2))
        tuples = model.characteristics.tuples()
        return cls(cat, code, cell_id, weights[cat, eg, sg, code], tuples, bounds)

    @property
    def in_system_cells(self) -> np.ndarray:
        """Per raveled cell id: whether its category is in-system."""
        return self.category[self.bounds[:-1]] > 0

    def split(self, p: np.ndarray) -> np.ndarray:
        """Label probabilities: each cell's mass times its tuple shares."""
        return p.ravel()[self.cell_id] * self.weight


def cell_sums(values: np.ndarray, bounds: np.ndarray, prices=None) -> np.ndarray:
    """Sum label columns (last axis) per cell of `bounds` in label order, from label bounds[0].

    With `prices`, one per label column, each column is priced as it is added.
    Integer sums are exact in any order, so they take one `np.add.reduceat`.
    """
    sizes = np.diff(bounds)
    starts = bounds[:-1] - bounds[0]
    if prices is None and values.dtype.kind in "iu":
        return np.add.reduceat(values[..., : bounds[-1] - bounds[0]], starts, axis=-1,
                               dtype=values.dtype)

    def column(j):  # np.take keeps C order; reductions over iterations depend on the layout
        taken = np.take(values, j, axis=-1)
        return taken if prices is None else taken * prices[j]

    out = column(starts)
    for k in range(1, sizes.max()):
        has = sizes > k
        out[..., has] += column(starts[has] + k)
    return out


@dataclass(frozen=True)
class GroupProbabilityTable:
    """Cell-level probabilities and their label split for one calendar year."""

    year: int
    p: np.ndarray  # (n_categories, n_age_groups, n_seniority_groups)
    probs: np.ndarray  # per label of the model's LabelIndex


def group_probabilities(d: np.ndarray, model: FittedModel) -> np.ndarray:
    """Aggregate a distribution to cells: (n_categories, n_age_groups, n_seniority_groups)."""
    space = model.space
    p = np.zeros((space.n_categories, space.n_age_groups, space.n_seniority_groups))
    for ei, ai in space.cells():
        elo, ehi = space.age_groups[ei]
        alo, ahi = space.seniority_groups[ai]
        p[:, ei, ai] = d[:, elo - space.age_min : ehi - space.age_min, alo:ahi].sum(axis=(1, 2))
    return p


def projection(model: FittedModel, years: int, policy: str = "strict"):
    """The model's label index and its group tables for the base year and `years` more.

    One working distribution is stepped in place while the tables are built.
    """
    labels, tables = LabelIndex.build(model), []
    for year, d in _years(model.pi, model, years, policy):
        p = group_probabilities(d, model)
        tables.append(GroupProbabilityTable(year, p, labels.split(p)))
    return labels, tables
