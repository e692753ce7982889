"""Discrete state space of the workforce chain.

A person's yearly state is a triple (category, age, seniority).  Category
index 0 is the out-of-system category; ages live in a half-open integer
range [age_min, age_max) that may start below zero so the youngest reserve
cohorts exist years before they can work; seniorities live in
[0, seniority_max).  Ages and seniorities are bucketed into ordered,
contiguous groups; the first age group is the reserve group that feeds
hires once people reach working age.

Estimated probabilities are constant within a (age group x seniority
group) cell, so group lookup is the hot helper here.  All types are
immutable and safe to share between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

GroupRange = tuple[int, int]  # half-open [lo, hi)

# ages and seniorities are held as int32: two values inside this bound,
# or on it, differ by less than 2**31
STATE_BOUND = 2**30


def _check_partition(groups, lo, hi, what, problems):
    """Verify that `groups` is an ordered partition of [lo, hi)."""
    if not groups:
        problems.append(f"{what}: at least one group is required")
        return
    for g in groups:
        if len(g) != 2 or not all(type(x) is int for x in g):  # a bool is not one
            problems.append(f"{what}: group {g!r} must be a pair of integers")
            return
        if g[0] >= g[1]:
            problems.append(f"{what}: group [{g[0]},{g[1]}) is empty")
    expected = lo
    for g in groups:
        if g[0] != expected:
            if g[0] > expected:
                problems.append(f"{what}: gap at {expected} (next group starts at {g[0]})")
            else:
                problems.append(f"{what}: overlap at {g[0]} (previous group ends at {expected})")
            return
        expected = g[1]
    if expected != hi:
        problems.append(f"{what}: groups end at {expected}, expected {hi}")


@dataclass(frozen=True)
class CharacteristicSpace:
    """Ordered salary-relevant characteristics, each with finite levels.

    A characteristic tuple is a tuple of level indices, one per
    characteristic, in declaration order.
    """

    names: tuple[str, ...] = ()
    levels: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        problems = []
        if len(self.names) != len(self.levels):
            problems.append("characteristics: names and level lists differ in length")
        if len(set(self.names)) != len(self.names):
            problems.append("characteristics: duplicate characteristic names")
        for name, lv in zip(self.names, self.levels):
            if not lv:
                problems.append(f"characteristic {name!r}: needs at least one level")
            if len(set(lv)) != len(lv):
                problems.append(f"characteristic {name!r}: duplicate levels")
        if problems:
            raise ConfigError("invalid characteristic space", problems)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ConfigError(f"unknown characteristic {name!r}") from None

    def encode(self, values: list[str]) -> tuple[int, ...]:
        """Map level names, one per characteristic in declaration order, to a level-index tuple."""
        if len(values) != len(self.names):
            raise ConfigError("characteristic value count does not match declaration")
        out = []
        for name, lv, val in zip(self.names, self.levels, values):
            try:
                out.append(lv.index(val))
            except ValueError:
                raise ConfigError(f"characteristic {name!r}: unknown level {val!r}") from None
        return tuple(out)

    def decode(self, t: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(self.levels[i][j] for i, j in enumerate(t))

    def label(self, t) -> str:
        """Human-readable tuple label, levels joined by '/'; the aggregate pseudo-tuple is '*'."""
        return "*" if t is None else "/".join(self.decode(t))

    def all_tuples(self):
        return itertools.product(*(range(len(lv)) for lv in self.levels))

    def tuples(self) -> tuple:
        """Tuple code k >= 1 -> ``all_tuples()[k - 1]``; code 0 is the aggregate (None)."""
        return (None, *self.all_tuples())

    def code(self, t: tuple[int, ...]) -> int:
        """Tuple code of a level-index tuple (see :meth:`tuples`)."""
        k = 0
        for lv, j in zip(self.levels, t):
            k = k * len(lv) + j
        return k + 1


@dataclass(frozen=True)
class StateSpaceConfig:
    """Category codes plus age/seniority ranges, groupings and feasibility.

    categories[0] is the out-of-system code.  Age group 0 is the reserve
    group.  Derived lookup tables are precomputed once so group location
    is O(1).
    """

    categories: tuple[str, ...]
    age_min: int
    age_max: int
    age_groups: tuple[GroupRange, ...]
    seniority_max: int
    seniority_groups: tuple[GroupRange, ...]
    working_age_min: int
    _age_group_of: np.ndarray = field(repr=False, compare=False, default=None)
    _seniority_group_of: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        problems = []
        if len(self.categories) < 2:
            problems.append("categories: need the out-of-system code plus at least one in-system code")
        if len(set(self.categories)) != len(self.categories):
            problems.append("categories: duplicate codes")
        # an empty range is the only problem reported for its groups (and working age)
        ages = self.age_min < self.age_max
        seniorities = self.seniority_max >= 1
        if not ages:
            problems.append(f"age range [{self.age_min},{self.age_max}) is empty")
        if not seniorities:
            problems.append("seniority_max must be >= 1")
        if max(abs(self.age_min), abs(self.age_max), self.seniority_max) >= STATE_BOUND:
            problems.append(f"ages and seniorities must lie within (-{STATE_BOUND},{STATE_BOUND})")
        if ages and not self.age_min <= self.working_age_min < self.age_max:
            problems.append(
                f"working_age_min {self.working_age_min} outside age range "
                f"[{self.age_min},{self.age_max})"
            )
        if ages:
            _check_partition(self.age_groups, self.age_min, self.age_max, "age_groups", problems)
        if seniorities:
            _check_partition(
                self.seniority_groups, 0, self.seniority_max, "seniority_groups", problems
            )
        if problems:
            raise ConfigError("invalid state space configuration", problems)
        # each validated partition covers its range in order, one narrow group index per value
        for name, groups in (("_age_group_of", self.age_groups),
                             ("_seniority_group_of", self.seniority_groups)):
            of = [i for i, (lo, hi) in enumerate(groups) for _ in range(lo, hi)]
            object.__setattr__(self, name, np.array(of, np.min_scalar_type(-len(groups))))

    # -- sizes ---------------------------------------------------------

    @property
    def n_categories(self) -> int:
        """Total number of categories including the out-of-system one."""
        return len(self.categories)

    @property
    def n_ages(self) -> int:
        return self.age_max - self.age_min

    @property
    def n_age_groups(self) -> int:
        return len(self.age_groups)

    @property
    def n_seniority_groups(self) -> int:
        return len(self.seniority_groups)

    # -- lookups -------------------------------------------------------

    def category_index(self, code: str) -> int:
        try:
            return self.categories.index(code)
        except ValueError:
            raise ConfigError(f"unknown category code {code!r}") from None

    def locate_groups(self, age, seniority):
        """(age group index, seniority group index) of a state, or of arrays of states."""
        ages = np.subtract(age, self.age_min)
        return np.take(self._age_group_of, ages), np.take(self._seniority_group_of, seniority)

    def feasible(self, age, seniority):
        """Whether the (age, seniority) pair, or each pair of two arrays, is attainable.

        Seniority can only accrue from working_age_min on, so it is capped
        at max(0, age - working_age_min).  Ages below working age can only
        carry seniority 0.
        """
        return seniority <= np.maximum(0, age - self.working_age_min)

    def cells(self):
        """All (age group, seniority group) pairs in canonical order."""
        return itertools.product(range(self.n_age_groups), range(self.n_seniority_groups))

    def group_label(self, kind: str, index: int) -> str:
        lo, hi = (self.age_groups if kind == "age" else self.seniority_groups)[index]
        return f"{lo}..{hi}"

