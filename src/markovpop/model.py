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

Loading holds neither the whole file nor the whole decoded triplet list.
The file is read 64 KiB at a time, and each top-level member, or each
member of a top-level object, is decoded once the buffer holds all of
it; a cell's member of ``monthly``, ``annual``, ``entry`` and ``q1`` is
held only as a float array.  ``pi`` comes before the space it is checked
against, so it is skipped, then read again in spans cut after whole
entries, once ``r`` is built and its decoded dicts are dropped.
Anything this path does not accept (another layout, such as a repeated
key, a key with an escape or ``pi`` not opening with ``[[``, a file that
cannot seek, a member that does not convert, or any fault at all) is
decoded again as one whole document, so a file loads, or fails with its
message, exactly as ``json.loads`` reads it.
"""

from __future__ import annotations

import itertools
import json
import re
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .config import SPACE, is_number, parse_space
from .errors import ConfigError, DataError, atomic
from .states import CharacteristicSpace, StateSpaceConfig

FORMAT_NAME = "markovpop-model"
FORMAT_VERSION = 1
_SPAN = 1 << 16  # characters read, and of pi text decoded, at a time
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # JSON's
_OPEN, _NEXT = re.compile(r"[ \t\n\r]*\{"), re.compile(r"[ \t\n\r]*([,}])")
# a key without escapes, its colon and the whitespace around them, as JSON reads them
_KEY = re.compile(r'[ \t\n\r]*"([^"\\\x00-\x1f]*)"[ \t\n\r]*:[ \t\n\r]*(?=[^ \t\n\r])')
_DELIMITERS = frozenset(",]} \t\n\r")  # what may follow a whole number
_CELL_SECTIONS = frozenset({"monthly", "annual", "entry", "q1"})  # one float array per cell


def _cell_key(ei: int, ai: int) -> str:
    return f"{ei},{ai}"


def _reject_constant(name: str):
    raise DataError(f"model file: non-finite number {name}")


def _parse_cell_key(s: str) -> tuple[int, int]:
    ei, ai = s.split(",")
    return int(ei), int(ai)


def _pi_spans(fh, first: int, end: int):
    """Characters first:end of `fh`, pi's entries, read _SPAN at a time and cut after a "],"."""
    fh.seek(0)
    for left in range(first, 0, -_SPAN):
        fh.read(min(left, _SPAN))
    span = ""
    for left in range(end - first, 0, -_SPAN):
        span += fh.read(min(left, _SPAN))
        if (cut := span.rfind("],")) >= 0:
            head, span = span[: cut + 1], span[cut + 2 :]
            yield head
    yield span


def _decode_stream(fh) -> dict:
    """The top-level object of the model file `fh`, with ``pi`` as an iterator of text spans.

    The ``pi`` array is taken to end at its first "]]"; a span cut in the
    wrong place cannot decode as JSON, so when every span decodes the
    result equals ``json.loads``, but that each member of a `_CELL_SECTIONS` object is a float
    array.  A layout this does not follow raises ValueError or StopIteration, a member that
    does not convert TypeError, ValueError or OverflowError, a NaN token DataError.
    """
    scan = json.JSONDecoder(parse_constant=_reject_constant).scan_once
    buf, dropped = "", 0  # the unconsumed text, and the characters read before it

    def more(n=_SPAN) -> bool:  # append max(n, _SPAN) characters, fewer at the end; False if none
        nonlocal buf
        buf += (chunk := fh.read(max(n, _SPAN)))
        return chunk != ""

    def match(pattern: re.Pattern, i: int) -> re.Match:  # reading on until buf[i:] matches
        while not (m := pattern.match(buf, i)):
            if not more():
                raise ValueError(f"no {pattern.pattern} at {dropped + i}")
        return m

    def value(i: int):  # the value at buf[i] and the index after it, once a delimiter follows
        while True:
            try:
                v, j = scan(buf, i)
                if buf[j : j + 1] in _DELIMITERS:  # else a number may go on
                    return v, j
            except (StopIteration, ValueError):
                pass
            if not more(len(buf) - i):  # as much again: a value's scans add up to O(its length)
                return scan(buf, i)

    def members(i: int, top: bool, arrays=False):  # the object opened at buf[i - 1], index after
        nonlocal buf, dropped
        out, delim = {}, ","
        while delim == ",":
            key, i = (m := match(_KEY, i))[1], m.end()
            if key in out:
                raise ValueError("a repeated key")
            if top and key == "pi":  # skipped: its spans are read again once the space is known
                more()
                if not buf.startswith("[[", i):
                    raise ValueError("pi does not open with [[")
                first = dropped + i + 1
                while (k := buf.find("]]", i)) < 0:  # the last character may be a "]"
                    dropped, buf, i = dropped + len(buf) - 1, buf[-1:], 0
                    if not more():
                        raise ValueError("pi does not close")
                out[key], i = _pi_spans(fh, first, dropped + k + 1), k + 2
            elif top and buf.startswith('{"', i):  # a member at a time
                out[key], i = members(i + 1, False, key in _CELL_SECTIONS)
            else:
                v, i = value(i)  # a cell's member is converted as `cell_arrays` would, at once
                out[key] = np.array(v, dtype=float) if arrays else v
            delim, i = (m := match(_NEXT, i))[1], m.end()
            if top:  # drop what is decoded
                dropped, buf, i = dropped + i, buf[i:], 0
        return out, i

    doc, i = members(match(_OPEN, 0).end(), True)
    while more():
        pass
    if _WHITESPACE.match(buf, i).end() != len(buf):
        raise ValueError("not one object")
    return doc


def _parse_pi(triplets, space: StateSpaceConfig) -> np.ndarray:
    """The initial distribution from its [category, age, seniority, p] triplets.

    `triplets` is the decoded list, or the text spans of `_decode_stream`,
    decoded one at a time so that the whole list is never held.
    """
    if isinstance(triplets, Iterator):
        blocks = (json.loads(f"[{s}]", parse_constant=_reject_constant) for s in triplets)
    else:  # in slices, so the arrays stay small
        blocks = (triplets[lo : lo + 8192] for lo in range(0, len(triplets), 8192))
    pi = np.zeros((space.n_categories, space.n_ages, space.seniority_max))
    listed = np.zeros(pi.size, dtype=bool)
    n_entries = 0
    for block in blocks:
        if set(map(len, block)) != {4}:
            raise ValueError("pi entries must be [category, age, seniority, p]")
        n_entries += len(block)
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
        del block, rows, idx, outside, flat  # freed before the next block is decoded
    if np.count_nonzero(listed) != n_entries:
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

    def transition_operator(self, ei: int, ai: int) -> np.ndarray:
        """Square annual operator over all categories for one cell.

        Row 0 is the hire entry-category distribution, rows >= 1 the
        annualized in-system transitions.  Column 0 is structurally zero:
        the operator is applied only to the in-system branch of the
        yearly step, conditioning on membership next year.
        """
        c = self.space.n_categories
        op = np.zeros((c, c))
        op[0, 1:] = self.entry[(ei, ai)]
        op[1:, 1:] = self.annual[(ei, ai)]
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
            "space": {key: getattr(sp, key) for key, _, _ in SPACE},  # tuples write as lists
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
        with atomic(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FittedModel":
        if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
            raise DataError("model file: unrecognized format marker")
        if doc.get("version") != FORMAT_VERSION:
            raise DataError(f"model file: unsupported version {doc.get('version')!r}")
        doc = dict(doc)  # _from_doc drops what it has read; the caller's dict stays whole
        try:
            return cls._from_doc(doc)
        except ConfigError as exc:  # an invalid space or characteristics section
            raise DataError(f"model file: {exc.args[0].splitlines()[0]}", exc.problems) from None
        except KeyError as exc:
            raise DataError(f"model file: missing field {exc}") from None
        except (TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
            raise DataError(f"model file: malformed field: {exc}") from None

    @classmethod
    def _from_doc(cls, doc: dict) -> "FittedModel":
        space = parse_space(doc["space"])
        chars = CharacteristicSpace(
            names=tuple(doc["characteristics"]["names"]),
            levels=tuple(tuple(lv) for lv in doc["characteristics"]["levels"]),
        )
        declared = set(chars.all_tuples())
        in_system = {(c, *cell) for c in range(1, space.n_categories) for cell in space.cells()}
        shape = (space.n_categories, space.n_age_groups, space.n_seniority_groups)
        r = np.zeros((*shape, len(chars.tuples())))
        for key, dist in doc.pop("r").items():  # popped: its dicts are freed before pi is read
            c_str, cell = key.split("|")
            idx = (int(c_str), *_parse_cell_key(cell))
            if idx not in in_system:
                raise DataError(f"model file: r[{key}] is not an in-system cell")
            for tkey, p in dist.items():
                t = tuple(int(x) for x in tkey.split(",")) if tkey else ()
                if t not in declared:
                    raise DataError(f"model file: r[{key}] has undeclared tuple {tkey!r}")
                r[(*idx, chars.code(t))] = float(p)
        pi = _parse_pi(doc["pi"], space)
        i0, base_year, hours = doc["i0"], doc["base_year"], doc["full_time_hours"]
        # JSON reads an out-of-range literal such as 1e400 as inf; a bool is not a number
        if not (is_number(i0) and i0 >= 0):
            raise DataError(f"model file: i0 must be a finite number >= 0 (got {i0!r})")
        if type(base_year) is not int:
            raise DataError(f"model file: base_year must be an integer (got {base_year!r})")
        if not (is_number(hours) and hours > 0):
            raise DataError(f"model file: full_time_hours must be a number > 0 (got {hours!r})")

        def cell_arrays(section, shape):
            out = {}
            for key, rows in doc[section].items():
                arr = np.asarray(rows, dtype=float)
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
        return cls(
            space=space,
            characteristics=chars,
            i0=float(i0),
            base_year=base_year,
            full_time_hours=float(hours),
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
            with open(path, "r", encoding="utf-8-sig") as fh:
                try:
                    if fh.seekable():  # pi is read again once the space is known
                        return cls.from_json_dict(_decode_stream(fh))
                except (DataError, TypeError, ValueError, OverflowError, StopIteration,
                        RecursionError):
                    fh.seek(0)  # decode the whole document, the only path for any other file
                text = fh.read()
        except FileNotFoundError:
            raise DataError(f"model file not found: {path}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"model file {path} cannot be read: {exc}") from None
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise DataError(f"model file {path} is not valid JSON: {exc}") from None
        except (RecursionError, ValueError) as exc:  # nested too deep, or an integer too long
            raise DataError(f"model file {path} cannot be decoded: {exc}") from None
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
