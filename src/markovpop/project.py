"""Exact yearly propagation of the triple distribution.

The one-step law: membership next year is decided by the cell's entry
probability; members move categories per the cell's annual operator and
gain one year of seniority; non-members keep their seniority.  Everyone
ages one year.  Cell lookup always uses the source state's groups.

Age or seniority that would leave the configured ranges is an error
under the default "strict" policy; the "absorb" policy clamps into the
top value instead (useful for long horizons and the bounded toy spaces
used in tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonError
from .model import FittedModel


@dataclass(frozen=True)
class TripleDistribution:
    """Distribution over (category, age, seniority) at a given year."""

    values: np.ndarray  # (n_categories, n_ages, seniority_max)
    year: int


def propagate_distribution(
    dist: TripleDistribution, model: FittedModel, policy: str = "strict"
) -> TripleDistribution:
    """Apply one yearly step to the whole distribution.

    Accumulation into each target cell runs in ascending source-category
    order (the einsum contracts categories in index order), so repeated
    runs are bit-identical.
    """
    space = model.space
    d = dist.values
    n_cat = space.n_categories
    n_ages = space.n_ages
    n_sen = space.seniority_max
    cats = np.arange(1, n_cat)

    if policy == "strict":
        top_age_mass = d[:, n_ages - 1, :].sum()
        if top_age_mass > 0.0:
            raise HorizonError(
                f"age overflow: mass {top_age_mass:.3g} at the top age "
                f"{space.age_max - 1} cannot age further (year {dist.year}); "
                "shorten the horizon or set overflow_policy: absorb"
            )

    out = np.zeros_like(d)
    for ei, ai in space.cells():
        elo, ehi = space.age_groups[ei]
        alo, ahi = space.seniority_groups[ai]
        eo_lo, eo_hi = elo - space.age_min, ehi - space.age_min
        sub = d[:, eo_lo:eo_hi, alo:ahi]
        if not sub.any():
            continue
        q1 = model.q1[(ei, ai)]
        t = model.transition_operator(ei, ai)

        enter = np.einsum("cea,cl->lea", sub * q1[:, None, None], t[:, 1:])
        stay_out = (sub * (1.0 - q1)[:, None, None]).sum(axis=0)

        e_tgt = np.arange(eo_lo, eo_hi) + 1
        a_src = np.arange(alo, ahi)
        a_tgt = a_src + 1
        if policy == "strict" and ahi == n_sen and enter[:, :, -1].sum() > 0.0:
            raise HorizonError(
                f"seniority overflow: in-system mass at the top seniority "
                f"{n_sen - 1} (cell {ei},{ai}, year {dist.year}); "
                "shorten the horizon or set overflow_policy: absorb"
            )
        # Clamping is safe under strict as well: the overflow checks above
        # guarantee the clamped target rows receive only zero mass.
        e_tgt = np.minimum(e_tgt, n_ages - 1)
        a_tgt = np.minimum(a_tgt, n_sen - 1)

        np.add.at(
            out,
            (cats[:, None, None], e_tgt[None, :, None], a_tgt[None, None, :]),
            enter,
        )
        np.add.at(
            out,
            (np.zeros(1, dtype=int)[:, None, None], e_tgt[None, :, None], a_src[None, None, :]),
            stay_out[None, :, :],
        )
    return TripleDistribution(values=out, year=dist.year + 1)


def distribution_at_year(
    pi: np.ndarray, model: FittedModel, n: int, policy: str = "strict"
) -> TripleDistribution:
    """Propagate the initial distribution n years forward."""
    return trajectory(pi, model, n, policy)[-1]


def trajectory(
    pi: np.ndarray, model: FittedModel, n: int, policy: str = "strict"
) -> list[TripleDistribution]:
    """Distributions for years 0..n (year 0 is the initial distribution)."""
    if n < 0:
        raise HorizonError(f"projection horizon must be >= 0 (got {n})")
    space = model.space
    if policy == "strict" and n > 0:
        with_mass = np.argwhere(pi.sum(axis=(0, 2)) > 0.0)
        if with_mass.size:
            top = int(with_mass.max()) + space.age_min
            if top + n > space.age_max - 1:
                raise HorizonError(
                    f"age overflow: initial mass at age {top} cannot be projected "
                    f"{n} years within [{space.age_min},{space.age_max}); "
                    "shorten the horizon or set overflow_policy: absorb"
                )
    out = [TripleDistribution(values=np.array(pi, dtype=float), year=0)]
    for _ in range(n):
        out.append(propagate_distribution(out[-1], model, policy))
    return out


@dataclass(frozen=True)
class LabelIndex:
    """The cell x characteristic-tuple label space of one model, as arrays.

    Labels run over categories, age groups and seniority groups ascending,
    then over tuple codes ascending within a cell.  Code 0 is the
    aggregate pseudo-tuple of a cell that cannot be split (category 0, or
    an in-system cell whose characteristic distribution was never
    observed); code k >= 1 is ``tuples[k]``, the characteristic tuples in
    declaration order.  The label set depends only on the model, not the
    year, so simulation streams stay aligned across years and horizons.
    """

    category: np.ndarray
    age_group: np.ndarray
    seniority_group: np.ndarray
    tuple_code: np.ndarray
    cell_id: np.ndarray  # index into the raveled (category, age group, seniority group) cube
    weight: np.ndarray  # share of the cell's mass; 1.0 for unsplittable cells
    tuples: tuple  # tuple code -> characteristic tuple (None at code 0)
    bounds: np.ndarray  # labels of cell i are bounds[i]:bounds[i + 1]

    @classmethod
    def build(cls, model: FittedModel) -> "LabelIndex":
        weights = model.r.copy()
        # one aggregate label carries the whole of a cell that cannot be split
        weights[..., 0] = ~weights.any(axis=-1)
        cat, eg, sg, code = np.nonzero(weights)  # C order: cell, then tuple code
        cell_id = np.ravel_multi_index((cat, eg, sg), weights.shape[:-1])
        bounds = np.searchsorted(cell_id, np.arange(cell_id[-1] + 2))
        tuples = model.characteristics.tuples()
        return cls(cat, eg, sg, code, cell_id, weights[cat, eg, sg, code], tuples, bounds)

    @property
    def in_system_cells(self) -> np.ndarray:
        """Per raveled cell id: whether its category is in-system."""
        return self.category[self.bounds[:-1]] > 0

    def split_labels(self, cell: int) -> range:
        """Labels of a cell that carry a characteristic tuple (none if unsplit)."""
        lo, hi = self.bounds[cell], self.bounds[cell + 1]
        return range(lo, hi) if self.tuple_code[lo] else range(0)

    def split(self, p: np.ndarray) -> np.ndarray:
        """Label probabilities: each cell's mass times its tuple shares."""
        return p.ravel()[self.cell_id] * self.weight

    def cell_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum label columns (last axis) per cell, adding in label order."""
        sizes = np.diff(self.bounds)
        starts = self.bounds[:-1]
        # np.take keeps C order; reductions over iterations depend on the layout
        out = np.take(values, starts, axis=-1)
        for k in range(1, sizes.max()):
            has = sizes > k
            out[..., has] += values[..., starts[has] + k]
        return out


@dataclass(frozen=True)
class GroupProbabilityTable:
    """Cell-level probabilities and their label split for one year."""

    year: int
    p: np.ndarray  # (n_categories, n_age_groups, n_seniority_groups)
    probs: np.ndarray  # per label of the model's LabelIndex


def group_probabilities(
    dist: TripleDistribution, model: FittedModel, labels: LabelIndex | None = None
) -> GroupProbabilityTable:
    """Aggregate a triple distribution to cells and split it over labels."""
    space = model.space
    p = np.zeros((space.n_categories, space.n_age_groups, space.n_seniority_groups))
    for ei, ai in space.cells():
        elo, ehi = space.age_groups[ei]
        alo, ahi = space.seniority_groups[ai]
        p[:, ei, ai] = dist.values[
            :, elo - space.age_min : ehi - space.age_min, alo:ahi
        ].sum(axis=(1, 2))
    labels = labels if labels is not None else LabelIndex.build(model)
    return GroupProbabilityTable(year=dist.year, p=p, probs=labels.split(p))


def expected_populations(table: GroupProbabilityTable, i0: float):
    """Expected head counts per cell and per label: the table scaled by i0."""
    return table.p * i0, table.probs * i0


def projection(model: FittedModel, years: int, policy: str = "strict"):
    """The model's label index and its group tables for years 0..years."""
    labels = LabelIndex.build(model)
    dists = trajectory(model.pi, model, years, policy)
    return labels, [group_probabilities(d, model, labels) for d in dists]
