"""Fitted model serialization, operators, and compatibility checks."""

import json
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovpop import model as model_module
from markovpop.errors import ConfigError, DataError
from markovpop.model import FittedModel
from markovpop.states import CharacteristicSpace, StateSpaceConfig

from conftest import make_random_model, make_toy_space, make_wide_space, run_python
from reference import load_model_whole


def make_chars():
    return CharacteristicSpace(names=("g", "h"), levels=(("x", "y"), ("u", "v", "w")))


def test_json_round_trip_is_exact(tmp_path):
    model = make_random_model(make_toy_space(), make_chars(), seed=12, with_r=True)
    model.stopping_time_overrides = {"X": tuple(np.eye(12)[3])}
    model.diagnostics = {"warnings": ["w1"], "unobserved_q_cells": [[0, 1, 2]]}
    path = tmp_path / "model.json"
    model.save(path)
    back = FittedModel.load(path)

    assert back.space == model.space
    assert back.characteristics == model.characteristics
    assert back.i0 == model.i0
    assert back.base_year == model.base_year
    assert back.full_time_hours == model.full_time_hours
    assert back.stopping_time_pmf == model.stopping_time_pmf
    assert back.stopping_time_overrides == model.stopping_time_overrides
    assert np.array_equal(back.pi, model.pi)
    for cell in model.space.cells():
        assert np.array_equal(back.monthly[cell], model.monthly[cell])
        assert np.array_equal(back.annual[cell], model.annual[cell])
        assert np.array_equal(back.entry[cell], model.entry[cell])
        assert np.array_equal(back.q1[cell], model.q1[cell])
    np.testing.assert_array_equal(back.r, model.r)
    assert back.diagnostics == model.diagnostics
    # and serializing again produces the same bytes
    assert back.to_json() == model.to_json()


def test_from_json_dict_leaves_its_document_unchanged():
    # the loader drops each section once read, from a copy of its own
    text = make_random_model(make_toy_space(), make_chars(), seed=12, with_r=True).to_json()
    doc = json.loads(text)
    assert FittedModel.from_json_dict(doc).to_json() == text
    assert doc == json.loads(text)


def test_transition_operator_structure():
    model = make_random_model(make_toy_space(), seed=3)
    op = model.transition_operator(1, 0)
    assert op.shape == (3, 3)
    np.testing.assert_array_equal(op[:, 0], 0.0)
    np.testing.assert_array_equal(op[0, 1:], model.entry[(1, 0)])
    np.testing.assert_array_equal(op[1:, 1:], model.annual[(1, 0)])


def test_r_json_holds_nonzero_codes_per_in_system_cell(tmp_path):
    model = make_random_model(make_toy_space(), make_chars(), seed=4, with_r=True)
    model.r[1, 0, 0] = 0.0  # a cell that cannot be split
    model.r[2, 1, 1, model.characteristics.code((1, 2))] = 0.0  # a tuple never observed
    r = model.to_json_dict()["r"]
    assert sorted(r) == [f"{c}|{ei},{ai}" for c in (1, 2) for ei in (0, 1) for ai in (0, 1)]
    assert r["1|0,0"] == {}
    assert "1,2" not in r["2|1,1"] and len(r["2|1,1"]) == 5
    assert r["2|1,1"]["0,1"] == model.r[2, 1, 1, model.characteristics.code((0, 1))]

    # a negative category would wrap around in the array
    path = tmp_path / "model.json"
    for key in ("0|0,0", "-1|0,0", "1|2,0"):
        doc = model.to_json_dict()
        doc["r"][key] = {}
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="not an in-system cell"):
            FittedModel.load(path)


def test_load_rejects_bad_files(tmp_path):
    with pytest.raises(DataError, match="not found"):
        FittedModel.load(tmp_path / "missing.json")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        FittedModel.load(bad)

    model = make_random_model(make_toy_space(), seed=1)
    doc = model.to_json_dict()
    doc["format"] = "something-else"
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="format marker"):
        FittedModel.load(wrong)

    doc = model.to_json_dict()
    doc["version"] = 99
    wrong.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="unsupported version"):
        FittedModel.load(wrong)

    doc = model.to_json_dict()
    doc["annual"]["1,0"] = [[1.0]]
    wrong.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="has shape"):
        FittedModel.load(wrong)

    # schema problems are data errors, not raw Python exceptions
    first = doc["pi"][0]
    for section, damage, match in (
        ("annual", None, "missing field 'annual'"),
        ("pi", [[1, 0]], "malformed field"),
        ("pi", [[-1, *first[1:]]], "does not index the state space"),
        ("pi", [[first[0], -1, *first[2:]]], "does not index the state space"),
        ("pi", [first, first], "twice"),
        ("pi", [[*first[:3], -0.5]], "negative"),
        ("pi", [[*first[:3], 0.5]], "pi sums to 0.5"),
        ("r", {"1|0,0": {"0,7": 1.0}}, "undeclared tuple"),
    ):
        doc = model.to_json_dict()
        if damage is None:
            del doc[section]
        else:
            doc[section] = damage
        wrong.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=match):
            FittedModel.load(wrong)


def test_check_against_flags_mismatches():
    space = make_toy_space()
    chars = make_chars()
    model = make_random_model(space, chars, seed=2, with_r=True)
    model.check_against(space, chars)
    model.check_against(space, chars, 40.0)

    other = StateSpaceConfig(
        categories=space.categories,
        age_min=space.age_min,
        age_max=space.age_max + 1,
        age_groups=((0, 2), (2, 5)),
        seniority_max=space.seniority_max,
        seniority_groups=space.seniority_groups,
        working_age_min=space.working_age_min,
    )
    with pytest.raises(ConfigError, match="different state space"):
        model.check_against(other, chars)
    with pytest.raises(ConfigError, match="characteristic declarations"):
        model.check_against(space, CharacteristicSpace(("g",), (("x", "y"),)))
    with pytest.raises(ConfigError, match="full-time equivalents at 40 hours"):
        model.check_against(space, chars, 48.0)


def assert_same_model(a: FittedModel, b: FittedModel) -> None:
    """Every array of the two models equal bit for bit, every other field in type and value."""
    for name in ("space", "characteristics", "i0", "base_year", "full_time_hours",
                 "stopping_time_pmf", "stopping_time_overrides", "diagnostics"):
        assert repr(getattr(a, name)) == repr(getattr(b, name)), name
    pairs = [(a.pi, b.pi), (a.r, b.r)]
    for name in ("monthly", "annual", "entry", "q1"):
        x, y = getattr(a, name), getattr(b, name)
        assert list(x) == list(y), name
        pairs += [(x[k], y[k]) for k in x]
    for x, y in pairs:
        assert x.dtype == y.dtype == np.float64 and x.shape == y.shape
        np.testing.assert_array_equal(x.view(np.int64), y.view(np.int64))


def test_load_ignores_a_utf8_byte_order_mark(tmp_path):
    model = make_random_model(make_toy_space(), make_chars(), seed=13, with_r=True)
    plain, bom = tmp_path / "model.json", tmp_path / "model-bom.json"
    model.save(plain)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert_same_model(FittedModel.load(bom), FittedModel.load(plain))


def test_load_allocates_at_most_once_the_file(tmp_path):
    path = tmp_path / "model.json"
    make_random_model(make_wide_space(), seed=14).save(path)
    size = os.path.getsize(path)
    assert size >= 2_000_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        FittedModel.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file is read a span at a time: its bytes and its text are never held whole.
    # The load reads 0.72 times the file, with a margin of about a tenth (0.74 when the
    # cell sections were held as decoded lists)
    assert peak <= 0.8 * size, f"{peak / size:.2f} times the file"


# the growth of a fresh process's resident high-water mark over its resident set, in kB
_HWM_PROBE = """
import sys
from markovpop.model import FittedModel

def kb(key):
    with open("/proc/self/status") as status:
        return int(next(r for r in status if r.startswith(key)).split()[1])

before = kb("VmRSS:")
FittedModel.load(sys.argv[1])
print(kb("VmHWM:") - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's /proc")
def test_load_raises_the_resident_peak_by_at_most_one_and_a_quarter_times_the_file(tmp_path):
    # tracemalloc sees neither a memory map nor what the allocator keeps resident
    path = tmp_path / "model.json"
    make_random_model(make_wide_space(), seed=14).save(path)
    size = os.path.getsize(path)
    proc = run_python("-c", _HWM_PROBE, str(path), env={"OPENBLAS_NUM_THREADS": "1"},
                      capture_output=True, text=True, check=True)
    growth = int(proc.stdout) * 1024
    assert growth <= 1.25 * size, f"{growth / size:.2f} times the file"


# a number outside any string: after "[", "," or ": ", before ",", "]", "}" or whitespace
_NUMBER = re.compile(r"(?<=[\[,: ])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?=[,\]}\s])")
_WHITESPACE = ["", " ", "\n", "\t", "\r\n  "]
# "1" and 400 zeros is a whole number that no float holds: np.array raises OverflowError
_ODD_VALUES = ["NaN", "Infinity", "1e400", "1" + "0" * 400, "true", "null", '"x"', "[]"]
_BRACKET_STRINGS = ["]]", "],", "a]],[1", "],[0,0,0,", '"]]', "x]]}"]
_JUNK = ["\n", " \t", "x", "}", "{}", ",", "0", "\x0c", "\u2003", "\ufeff"]


def _mutate(data, text: str) -> str:
    """One mutation of a model file's canonical text."""
    doc = json.loads(text)
    start = text.rindex('"pi": ')  # the top level's: "diagnostics" sorts before it
    member = text[start : text.index("]]", start) + 2]
    kind = data.draw(st.sampled_from(
        ["indent", "pi-whitespace", "pi-moved", "pi-twice", "nested", "bracket-string",
         "odd-number", "truncated", "junk"]))
    if kind == "indent":
        return json.dumps(doc, sort_keys=True, indent=data.draw(st.sampled_from([None, 0, 1, "\t"])))
    if kind == "pi-whitespace":
        before, after = data.draw(st.sampled_from(_WHITESPACE)), data.draw(st.sampled_from(_WHITESPACE))
        sep = data.draw(st.sampled_from(["],[", ","]))
        spaced = member.replace(sep, sep.replace(",", f"{before},{after}"))
        return text.replace(member, spaced)
    if kind == "pi-moved":
        pi = doc.pop("pi")
        front = data.draw(st.booleans())
        order = {"pi": pi, **doc} if front else {**doc, "pi": pi}
        return json.dumps(order, separators=(",", ": "))
    if kind == "pi-twice":
        # the other copy is the same, one entry shorter, or not JSON (a comma missing)
        shorter = member[: member.rindex("],[") + 1] + "]"
        other = data.draw(st.sampled_from([member, shorter, member.replace("],[", "][", 1)]))
        pair = [member, other] if data.draw(st.booleans()) else [other, member]
        return text.replace(member, ",".join(pair))
    if kind in ("nested", "bracket-string"):
        pi = doc["pi"]
        k, j = data.draw(st.integers(0, len(pi) - 1)), data.draw(st.integers(0, 3))
        if kind == "bracket-string":
            pi[k][j] = data.draw(st.sampled_from(_BRACKET_STRINGS))
        elif data.draw(st.booleans()):
            pi[k] = [pi[k]]
        else:
            pi[k][j] = [pi[k][j]]
        return json.dumps(doc, sort_keys=True, separators=(",", ": "))
    if kind == "odd-number":
        spots = list(_NUMBER.finditer(text))
        spot = spots[data.draw(st.integers(0, len(spots) - 1))]
        return text[: spot.start()] + data.draw(st.sampled_from(_ODD_VALUES)) + text[spot.end() :]
    if kind == "truncated":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    return text + data.draw(st.sampled_from(_JUNK))


def _outcome(load, path):
    try:
        return load(path), None
    except DataError as exc:
        return None, str(exc)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_load_equals_the_whole_document_decode(tmp_path_factory, data):
    model = make_random_model(make_toy_space(), make_chars(), seed=15, with_r=True)
    model.diagnostics = {"warnings": ["]],", "pi"], "pi": [[0, 1]]}
    path = tmp_path_factory.mktemp("mutated") / "model.json"
    path.write_text(_mutate(data, model.to_json() + "\n"))
    # short spans, so that the 36 entries of this pi are cut in many places
    span = data.draw(st.sampled_from([1, 40, 100, 1 << 17]))
    with mock.patch.object(model_module, "_SPAN", span):
        got, error = _outcome(FittedModel.load, path)
    want, want_error = _outcome(load_model_whole, path)
    assert error == want_error
    if want is not None:
        assert_same_model(got, want)


@pytest.mark.parametrize("section", ["annual", "monthly", "entry", "q1"])
@pytest.mark.parametrize(  # np.array raises ValueError, TypeError and OverflowError on them
    "odd", ['"x"', "{}", "1" + "0" * 400], ids=["string", "object", "huge-integer"]
)
def test_a_cell_member_that_does_not_convert_fails_as_the_whole_document(tmp_path, section, odd):
    text = make_random_model(make_toy_space(), seed=16).to_json()
    head = f'"{section}": {{"0,0": ['
    first = text.index(head) + len(head) + (section in ("annual", "monthly"))  # its first number
    path = tmp_path / "model.json"
    path.write_text(text[:first] + odd + text[text.index(",", first) :])
    error = _outcome(FittedModel.load, path)[1]
    assert error is not None and error == _outcome(load_model_whole, path)[1]
