"""Fitted model container and JSON (de)serialization.

A fitted model bundles every probability object the projection and the
simulation need: the initial distribution over triples, monthly and
annualized category transition matrices per (age group, seniority group)
cell, entry probabilities, hire entry-category rows, characteristic
distributions, and the stopping-time pmf, together with the state-space
snapshot they were fitted against.

Serialization is a single JSON document.  The initial distribution is a
sparse triplet list; matrices are dense row-major lists; ``r`` maps each
in-system ``"c|ei,ai"`` cell to its tuples with a non-zero share.  Floats
are written with Python's shortest round-trip repr, so loading recovers
the exact binary values.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .states import CharacteristicSpace, StateSpaceConfig

FORMAT_NAME = "markovpop-model"
FORMAT_VERSION = 1


def _cell_key(ei: int, ai: int) -> str:
    return f"{ei},{ai}"


def _reject_constant(name: str):
    raise DataError(f"model file: non-finite number {name}")


def _parse_cell_key(s: str) -> tuple[int, int]:
    ei, ai = s.split(",")
    return int(ei), int(ai)


def _parse_pi(triplets, space: StateSpaceConfig) -> np.ndarray:
    """The initial distribution from its [category, age, seniority, p] triplets."""
    pi = np.zeros((space.n_categories, space.n_ages, space.seniority_max))
    listed = np.zeros(pi.size, dtype=bool)
    for lo in range(0, len(triplets), 8192):  # in blocks, so the arrays stay small
        block = triplets[lo : lo + 8192]
        if set(map(len, block)) != {4}:
            raise ValueError("pi entries must be [category, age, seniority, p]")
        rows = np.fromiter(itertools.chain.from_iterable(block), float).reshape(-1, 4)
        idx = rows[:, :3] - [0, space.age_min, 0]
        outside = ~((idx >= 0) & (idx < pi.shape) & (idx == np.floor(idx))).all(axis=1)
        if outside.any():
            entry = block[np.argmax(outside)][:3]
            raise DataError(f"model file: pi entry {entry} does not index the state space")
        if not (rows[:, 3] >= 0.0).all():
            raise DataError("model file: pi holds a negative entry")
        flat = np.ravel_multi_index(idx.T.astype(int), pi.shape)
        listed[flat] = True
        pi.flat[flat] = rows[:, 3]
    if np.count_nonzero(listed) != len(triplets):
        raise DataError("model file: pi lists a (category, age, seniority) twice")
    total = float(pi.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise DataError(f"model file: pi sums to {total!r}, expected 1")
    return pi


@dataclass
class FittedModel:
    """All fitted probability objects plus the space they live on."""

    space: StateSpaceConfig
    characteristics: CharacteristicSpace
    i0: float
    base_year: int
    full_time_hours: float
    stopping_time_pmf: tuple[float, ...]
    stopping_time_overrides: dict[str, tuple[float, ...]]
    pi: np.ndarray  # (n_categories, n_ages, seniority_max)
    monthly: dict[tuple[int, int], np.ndarray]  # in-system square per cell
    annual: dict[tuple[int, int], np.ndarray]  # in-system square per cell
    entry: dict[tuple[int, int], np.ndarray]  # hire entry distribution per cell
    q1: dict[tuple[int, int], np.ndarray]  # (n_categories,) per cell
    # (c, ei, ai, tuple code) share of the code in the cell, 0 if never observed;
    # an all-zero row is a cell that cannot be split
    r: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    _operators: dict = field(default_factory=dict, repr=False, compare=False)

    def transition_operator(self, ei: int, ai: int) -> np.ndarray:
        """Square annual operator over all categories for one cell.

        Row 0 is the hire entry-category distribution, rows >= 1 the
        annualized in-system transitions.  Column 0 is structurally zero:
        the operator is applied only to the in-system branch of the
        yearly step, conditioning on membership next year.
        """
        key = (ei, ai)
        op = self._operators.get(key)
        if op is None:
            c = self.space.n_categories
            op = np.zeros((c, c))
            op[0, 1:] = self.entry[key]
            op[1:, 1:] = self.annual[key]
            op.flags.writeable = False
            self._operators[key] = op
        return op

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        sp = self.space
        tuples = self.characteristics.tuples()
        pi_triplets = []
        nz = np.argwhere(self.pi != 0.0)
        for c, eo, a in nz:
            pi_triplets.append(
                [int(c), int(eo) + sp.age_min, int(a), float(self.pi[c, eo, a])]
            )
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "space": {
                "categories": list(sp.categories),
                "age_min": sp.age_min,
                "age_max": sp.age_max,
                "age_groups": [list(g) for g in sp.age_groups],
                "seniority_max": sp.seniority_max,
                "seniority_groups": [list(g) for g in sp.seniority_groups],
                "working_age_min": sp.working_age_min,
            },
            "characteristics": {
                "names": list(self.characteristics.names),
                "levels": [list(lv) for lv in self.characteristics.levels],
            },
            "i0": float(self.i0),
            "base_year": self.base_year,
            "full_time_hours": self.full_time_hours,
            "stopping_time_pmf": list(self.stopping_time_pmf),
            "stopping_time_overrides": {
                k: list(v) for k, v in sorted(self.stopping_time_overrides.items())
            },
            "pi": pi_triplets,
            "monthly": {
                _cell_key(*k): v.tolist() for k, v in sorted(self.monthly.items())
            },
            "annual": {
                _cell_key(*k): v.tolist() for k, v in sorted(self.annual.items())
            },
            "entry": {
                _cell_key(*k): v.tolist() for k, v in sorted(self.entry.items())
            },
            "q1": {_cell_key(*k): v.tolist() for k, v in sorted(self.q1.items())},
            "r": {
                f"{c}|{ei},{ai}": {
                    ",".join(map(str, tuples[k])): float(self.r[c, ei, ai, k])
                    for k in np.flatnonzero(self.r[c, ei, ai])
                }
                for c in range(1, sp.n_categories) for ei, ai in sp.cells()
            },
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ": "))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FittedModel":
        if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
            raise DataError("model file: unrecognized format marker")
        if doc.get("version") != FORMAT_VERSION:
            raise DataError(f"model file: unsupported version {doc.get('version')!r}")
        try:
            return cls._from_doc(doc)
        except KeyError as exc:
            raise DataError(f"model file: missing field {exc}") from None
        except (TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
            raise DataError(f"model file: malformed field: {exc}") from None

    @classmethod
    def _from_doc(cls, doc: dict) -> "FittedModel":
        sp_raw = doc["space"]
        space = StateSpaceConfig(
            categories=tuple(sp_raw["categories"]),
            age_min=sp_raw["age_min"],
            age_max=sp_raw["age_max"],
            age_groups=tuple(tuple(g) for g in sp_raw["age_groups"]),
            seniority_max=sp_raw["seniority_max"],
            seniority_groups=tuple(tuple(g) for g in sp_raw["seniority_groups"]),
            working_age_min=sp_raw["working_age_min"],
        )
        chars = CharacteristicSpace(
            names=tuple(doc["characteristics"]["names"]),
            levels=tuple(tuple(lv) for lv in doc["characteristics"]["levels"]),
        )
        pi = _parse_pi(doc["pi"], space)
        i0 = float(doc["i0"])
        # JSON reads an out-of-range literal such as 1e400 as inf
        if not 0.0 <= i0 < float("inf"):
            raise DataError(f"model file: i0 must be a finite number >= 0 (got {i0!r})")

        def cell_arrays(section, shape):
            out = {}
            for key, rows in doc[section].items():
                arr = np.array(rows, dtype=float)
                if arr.shape != shape:
                    raise DataError(f"model file: {section}[{key}] has shape {arr.shape}")
                out[_parse_cell_key(key)] = arr
            if set(out) != set(space.cells()):
                raise DataError(f"model file: {section} does not hold exactly one entry per cell")
            return out

        nc = space.n_categories - 1
        monthly = cell_arrays("monthly", (nc, nc))
        annual = cell_arrays("annual", (nc, nc))
        entry = cell_arrays("entry", (nc,))
        q1 = cell_arrays("q1", (space.n_categories,))
        declared = set(chars.all_tuples())
        in_system = {(c, *cell) for c in range(1, space.n_categories) for cell in space.cells()}
        shape = (space.n_categories, space.n_age_groups, space.n_seniority_groups)
        r = np.zeros((*shape, len(chars.tuples())))
        for key, dist in doc["r"].items():
            c_str, cell = key.split("|")
            idx = (int(c_str), *_parse_cell_key(cell))
            if idx not in in_system:
                raise DataError(f"model file: r[{key}] is not an in-system cell")
            for tkey, p in dist.items():
                t = tuple(int(x) for x in tkey.split(",")) if tkey else ()
                if t not in declared:
                    raise DataError(f"model file: r[{key}] has undeclared tuple {tkey!r}")
                r[(*idx, chars.code(t))] = float(p)
        return cls(
            space=space,
            characteristics=chars,
            i0=i0,
            base_year=int(doc["base_year"]),
            full_time_hours=float(doc["full_time_hours"]),
            stopping_time_pmf=tuple(doc["stopping_time_pmf"]),
            stopping_time_overrides={
                k: tuple(v) for k, v in doc["stopping_time_overrides"].items()
            },
            pi=pi,
            monthly=monthly,
            annual=annual,
            entry=entry,
            q1=q1,
            r=r,
            diagnostics=doc.get("diagnostics", {}),
        )

    @classmethod
    def load(cls, path) -> "FittedModel":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh, parse_constant=_reject_constant)
        except FileNotFoundError:
            raise DataError(f"model file not found: {path}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"model file {path} cannot be read: {exc}") from None
        except json.JSONDecodeError as exc:
            raise DataError(f"model file {path} is not valid JSON: {exc}") from None
        return cls.from_json_dict(doc)

    def check_against(
        self,
        space: StateSpaceConfig,
        chars: CharacteristicSpace,
        full_time_hours: float | None = None,
    ) -> None:
        """Fail if the model was fitted on a different configuration.

        `full_time_hours`, when given, must equal the value the model's
        full-time equivalents were counted with.
        """
        if self.space != space:
            raise ConfigError(
                "model/config mismatch: the model was fitted on a different state space"
            )
        if self.characteristics != chars:
            raise ConfigError(
                "model/config mismatch: characteristic declarations differ"
            )
        if full_time_hours is not None and self.full_time_hours != full_time_hours:
            raise ConfigError(
                f"model/config mismatch: the model counts full-time equivalents at "
                f"{self.full_time_hours:g} hours, the config says {full_time_hours:g}"
            )
