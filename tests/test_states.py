"""State space: partitions, group lookup, feasibility, characteristics."""

import pytest
from hypothesis import given, strategies as st

from markovpop.config import build_run_config, parse_space
from markovpop.errors import ConfigError
from markovpop.states import CharacteristicSpace, StateSpaceConfig

from panelgen import feasible_seniorities


def space_from(**overrides):
    base = dict(
        categories=("out", "A", "B"),
        age_min=10,
        age_max=20,
        age_groups=((10, 14), (14, 20)),
        seniority_max=6,
        seniority_groups=((0, 3), (3, 6)),
        working_age_min=14,
    )
    base.update(overrides)
    return StateSpaceConfig(**base)


def test_valid_space_basics():
    sp = space_from()
    assert sp.n_categories == 3
    assert sp.n_ages == 10
    assert sp.n_age_groups == 2
    assert sp.n_seniority_groups == 2
    assert list(sp.cells()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert sp.group_label("age", 1) == "14..20"
    assert sp.group_label("seniority", 0) == "0..3"


def test_group_lookup_matches_definition():
    sp = space_from()
    for age in range(sp.age_min, sp.age_max):
        assert sp.locate_groups(age, 0)[0] == (0 if age < 14 else 1)
    for sen in range(sp.seniority_max):
        assert sp.locate_groups(sp.age_min, sen)[1] == (0 if sen < 3 else 1)
    assert sp.locate_groups(15, 4) == (1, 1)


def test_partition_gap_rejected():
    with pytest.raises(ConfigError, match="gap at 13"):
        space_from(age_groups=((10, 13), (14, 20)))


def test_partition_overlap_rejected():
    with pytest.raises(ConfigError, match="overlap"):
        space_from(age_groups=((10, 15), (14, 20)))


def test_partition_wrong_end_rejected():
    with pytest.raises(ConfigError, match="end at 19"):
        space_from(age_groups=((10, 14), (14, 19)))


def test_empty_group_rejected():
    with pytest.raises(ConfigError, match="empty"):
        space_from(seniority_groups=((0, 0), (0, 6)))


def test_an_empty_range_is_the_only_problem_of_its_groups():
    # the groups and the working age still name values of the non-empty ranges
    with pytest.raises(ConfigError) as err:
        space_from(age_min=21)
    assert err.value.problems == ["age range [21,20) is empty"]
    with pytest.raises(ConfigError) as err:
        space_from(seniority_max=0)
    assert err.value.problems == ["seniority_max must be >= 1"]
    with pytest.raises(ConfigError) as err:
        space_from(age_min=21, seniority_max=0, working_age_min=5)
    assert err.value.problems == ["age range [21,20) is empty", "seniority_max must be >= 1"]
    # a range that is not empty keeps its own checks
    with pytest.raises(ConfigError) as err:
        space_from(working_age_min=5, age_groups=((10, 15), (14, 20)))
    assert err.value.problems == [
        "working_age_min 5 outside age range [10,20)",
        "age_groups: overlap at 14 (previous group ends at 15)",
    ]


def test_ages_and_seniorities_lie_inside_the_int32_headroom():
    top = 2**30
    with pytest.raises(ConfigError) as err:
        space_from(age_min=top - 4, age_max=top, age_groups=((top - 4, top),),
                   working_age_min=top - 4)
    assert err.value.problems == [
        "ages and seniorities must lie within (-1073741824,1073741824)"
    ]
    with pytest.raises(ConfigError) as err:
        space_from(seniority_max=top, seniority_groups=((0, top),))
    assert len(err.value.problems) == 1
    space_from(age_min=1 - top, age_max=5 - top, age_groups=((1 - top, 5 - top),),
               working_age_min=1 - top)


def test_category_requirements():
    with pytest.raises(ConfigError, match="out-of-system"):
        space_from(categories=("out",))
    with pytest.raises(ConfigError, match="duplicate"):
        space_from(categories=("out", "A", "A"))


def test_working_age_outside_range_rejected():
    with pytest.raises(ConfigError, match="working_age_min"):
        space_from(working_age_min=25)


def test_negative_ages_allowed():
    sp = space_from(age_min=-5, age_groups=((-5, 14), (14, 20)))
    assert sp.locate_groups(-5, 0) == (0, 0)
    assert sp.feasible(-5, 0)
    assert not sp.feasible(-5, 1)


def test_feasibility_cap():
    sp = space_from()
    # below working age only seniority 0 is attainable
    assert sp.feasible(12, 0)
    assert not sp.feasible(12, 1)
    # from working age on, one seniority year per year of age
    assert sp.feasible(16, 2)
    assert not sp.feasible(16, 3)
    assert list(feasible_seniorities(sp, 13)) == [0]
    assert list(feasible_seniorities(sp, 16)) == [0, 1, 2]
    # the cap also respects the configured seniority range
    assert list(feasible_seniorities(sp, 25)) == list(range(6))


@given(
    age=st.integers(min_value=10, max_value=19),
    sen=st.integers(min_value=0, max_value=5),
)
def test_feasibility_is_downward_closed(age, sen):
    sp = space_from()
    if sp.feasible(age, sen):
        assert all(sp.feasible(age, s) for s in range(sen))
    else:
        assert all(not sp.feasible(age, s) for s in range(sen + 1, sp.seniority_max))


def test_characteristics_encode_decode():
    cs = CharacteristicSpace(("grade", "shift"), (("g1", "g2"), ("day", "night")))
    t = cs.encode(["g1", "night"])
    assert t == (0, 1)
    assert cs.decode(t) == ("g1", "night")
    assert cs.label(t) == "g1/night"
    assert cs.label(None) == "*"
    assert sorted(cs.all_tuples()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(ConfigError, match="unknown level"):
        cs.encode(["g3", "day"])
    with pytest.raises(ConfigError, match="unknown characteristic"):
        cs.index_of("team")


def test_characteristics_validation():
    with pytest.raises(ConfigError, match="duplicate characteristic"):
        CharacteristicSpace(("a", "a"), (("x",), ("y",)))
    with pytest.raises(ConfigError, match="duplicate levels"):
        CharacteristicSpace(("a",), (("x", "x"),))
    with pytest.raises(ConfigError, match="at least one level"):
        CharacteristicSpace(("a",), ((),))


def test_empty_characteristic_space():
    cs = CharacteristicSpace((), ())
    assert cs.names == ()
    assert list(cs.all_tuples()) == [()]
    assert cs.label(()) == ""


def test_validate_config_collects_problems():
    raw = {
        "categories": ["out", "A"],
        "age_min": 0,
        "age_max": 4,
        "age_groups": [[0, 2], [2, 4]],
        "seniority_max": 2,
        "seniority_groups": [[0, 2]],
        "working_age_min": 0,
    }
    sp = build_run_config(raw).space
    assert sp == parse_space(raw) == StateSpaceConfig(
        categories=("out", "A"),
        age_min=0,
        age_max=4,
        age_groups=((0, 2), (2, 4)),
        seniority_max=2,
        seniority_groups=((0, 2),),
        working_age_min=0,
    )

    bad = dict(raw)
    del bad["age_max"]
    del bad["seniority_max"]
    with pytest.raises(ConfigError) as err:
        build_run_config(bad)
    assert err.value.problems == ["missing required key 'age_max'",
                                  "missing required key 'seniority_max'"]
    # a model file's space names its keys below `space`
    with pytest.raises(ConfigError, match="invalid state space configuration") as err:
        parse_space(bad)
    assert err.value.problems == ["missing required key 'space.age_max'",
                                  "missing required key 'space.seniority_max'"]


def test_validate_config_reserve_marker():
    raw = {
        "categories": ["out", "A"],
        "age_min": 0,
        "age_max": 4,
        "age_groups": [[0, 2], [2, 4]],
        "seniority_max": 2,
        "seniority_groups": [[0, 2]],
        "working_age_min": 0,
    }
    # the reserve group is the first age group: no key names it, not even with that value
    assert build_run_config(raw).space.age_groups[0] == (0, 2)
    for marker in ([0, 2], [0, 3], 5):
        with pytest.raises(ConfigError) as err:
            build_run_config({**raw, "reserve_age_group": marker})
        assert err.value.problems[0].startswith("unknown key 'reserve_age_group'")
