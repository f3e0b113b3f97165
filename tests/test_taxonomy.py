"""Verdict decision tree and legacy-label mappings."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from randgen import random_formula, random_schema
from verity import (
    DEFAULT_ASSIGNMENT_LIMIT,
    CatAtom,
    JiLabel,
    NumAtom,
    NumericComparisonOnCategorical,
    LegacyLabels,
    ResourceLimit,
    UnmappableVerdict,
    ValueNotInDomain,
    Verdict,
    checked_classify,
    checked_decide,
    classify,
    entails,
    legacy_labels,
    oracle_entails,
    oracle_is_contradiction,
    oracle_is_tautology,
    oracle_satisfiable,
    parse_formula,
    parse_schema,
    satisfiable,
    Not,
)
from verity.taxonomy import decide

RESTAURANT = parse_schema(
    """
    attr Type : { Restaurant, CoffeeShop, Pub }
    attr Food : { Italian, Norwegian, Japanese }
    attr Price : { Low, Medium, High }
    attr Style : { Vegetarian, Steakhouse, FamilyFriendly }
    """
)
TEMPERATURE = parse_schema("num Temperature")

INPUT = parse_formula(
    "Type(x)=Restaurant & Food(x)=Italian & Price(x)=Low", RESTAURANT
)


@pytest.mark.parametrize(
    "output,expected",
    [
        ("Type(x)=Restaurant & Food(x)=Italian", Verdict.TOO_WEAK),
        ("Food(x)=Italian | !(Food(x)=Italian)", Verdict.TAUTOLOGOUS),
        (
            "Type(x)=Restaurant & Food(x)=Italian & Price(x)=Low & Style(x)=Vegetarian",
            Verdict.TOO_STRONG,
        ),
        (
            "Type(x)=Restaurant & Style(x)=Vegetarian & Style(x)=Steakhouse",
            Verdict.SELF_CONTRADICTORY,
        ),
        ("Type(x)=Restaurant & Style(x)=Vegetarian", Verdict.INDEPENDENT),
        ("Type(x)=Restaurant & Food(x)=Norwegian & Price(x)=Low", Verdict.CONFLICTING),
        ("Type(x)=Restaurant & Food(x)=Italian & Price(x)=Low", Verdict.WELL_MATCHED),
    ],
)
def test_restaurant_verdicts(output, expected):
    assert classify(RESTAURANT, INPUT, parse_formula(output, RESTAURANT)) is expected


def test_inconsistent_input_gets_its_own_verdict():
    bad = parse_formula("Food(x)=Italian & !(Food(x)=Italian)", RESTAURANT)
    for output in ("true", "false", "Food(x)=Italian"):
        assert (
            classify(RESTAURANT, bad, parse_formula(output, RESTAURANT))
            is Verdict.INCONSISTENT_INPUT
        )


@pytest.mark.parametrize(
    "output,expected",
    [
        ("Temperature(d) > 21", Verdict.TOO_WEAK),
        ("Temperature(d) > 23", Verdict.TOO_STRONG),
        ("Temperature(d) < 25", Verdict.INDEPENDENT),
        ("Temperature(d) < 22", Verdict.CONFLICTING),
    ],
)
def test_temperature_quadruple(output, expected):
    input_mr = parse_formula("Temperature(d) > 22", TEMPERATURE)
    assert (
        classify(TEMPERATURE, input_mr, parse_formula(output, TEMPERATURE)) is expected
    )


def test_overlapping_intervals_are_independent():
    a = parse_formula("Temperature(d) >= 20 & Temperature(d) <= 30", TEMPERATURE)
    b = parse_formula("Temperature(d) >= 25 & Temperature(d) <= 35", TEMPERATURE)
    assert classify(TEMPERATURE, a, b) is Verdict.INDEPENDENT


def test_tautologous_input_and_output_is_well_matched():
    # 1b additionally requires that the output not entail the input, so two
    # tautologies land in 0.
    taut = parse_formula("Food(x)=Italian | !(Food(x)=Italian)", RESTAURANT)
    assert classify(RESTAURANT, taut, parse_formula("true", RESTAURANT)) is Verdict.WELL_MATCHED


# The E2E NLG slot inventory (Novikova, Dusek & Rieser 2017): domains of
# 34/3/7/6/6/2/2/19 values, 1,953,504 models over all eight slots.
def _e2e_schema(names=34, landmarks=19):
    return parse_schema(
        "attr Name : { " + ", ".join(f"Venue{i:02d}" for i in range(1, names + 1)) + " }\n"
        "attr EatType : { Restaurant, CoffeeShop, Pub }\n"
        "attr Food : { English, French, Indian, Italian, Japanese, Chinese, FastFood }\n"
        "attr PriceRange : { Cheap, Moderate, High, LessThan20, From20To25, MoreThan30 }\n"
        "attr CustomerRating : { Low, Average, High, OneOfFive, ThreeOfFive, FiveOfFive }\n"
        "attr Area : { CityCentre, Riverside }\n"
        "attr FamilyFriendly : { Yes, No }\n"
        "attr Near : { " + ", ".join(f"Landmark{i:02d}" for i in range(1, landmarks + 1)) + " }\n"
    )


E2E = _e2e_schema()


def test_eight_slot_pair_is_decided_in_a_pinned_number_of_nodes():
    """A seven-slot input whose output adds the eighth slot, every value
    the last of its E2E domain: more models than the default limit, but
    the search decides the pair in 19 nodes and refuses it with 18.  Each
    key tries the one value its atoms mention and its first value, which
    stands for every value no atom mentions: the root, 2 nodes for each
    of the six keys before Near, 2 for Near and 2 for PriceRange under
    each Near value, 1 + 12 + 2 + 4.  So widening Name and Near tenfold
    adds no node."""
    input_text = (
        "Name(x)=Venue34 & EatType(x)=Pub & Food(x)=FastFood & PriceRange(x)=MoreThan30"
        " & CustomerRating(x)=FiveOfFive & Area(x)=Riverside & FamilyFriendly(x)=No"
    )
    for schema in (E2E, _e2e_schema(names=340, landmarks=190)):
        input_mr = parse_formula(input_text, schema)
        output_mr = parse_formula(input_text + " & Near(x)=Landmark19", schema)
        assert classify(schema, input_mr, output_mr) is Verdict.TOO_STRONG
        facts = decide(schema, input_mr, output_mr, limit=19)
        assert (facts.input_satisfiable, facts.forward, facts.backward, facts.conflict) == (
            True, False, True, False,
        )
        with pytest.raises(ResourceLimit) as exc_info:
            classify(schema, input_mr, output_mr, limit=18)
        assert (exc_info.value.required, exc_info.value.limit) == (19, 18)


@pytest.mark.parametrize(
    "input_text, output, error",
    [
        ("Food(x)=Italian & !Food(x)=Italian", CatAtom("Food", "x", "Sushi"), ValueNotInDomain),
        ("Food(x)=Italian", CatAtom("Food", "x", "Sushi"), ValueNotInDomain),
        (
            "Food(x)=Italian & !Food(x)=Italian",
            NumAtom("Food", "x", ">", Fraction(1)),
            NumericComparisonOnCategorical,
        ),
    ],
    ids=["inconsistent-input", "consistent-input", "numeric-on-categorical"],
)
@pytest.mark.parametrize("limit", [0, 3, DEFAULT_ASSIGNMENT_LIMIT])
@pytest.mark.parametrize("fn", [decide, classify, checked_decide, checked_classify])
def test_an_invalid_atom_is_an_error_not_a_refusal(fn, limit, input_text, output, error):
    """Only a ResourceLimit sends classify to its input-alone fallback, so
    the engine and its checked twins raise the same error on an atom
    outside the schema, whatever the input and the limit."""
    with pytest.raises(error):
        fn(RESTAURANT, parse_formula(input_text, RESTAURANT), output, limit=limit)


def test_verdict_serialization_names_sort_ascending():
    names = [v.value for v in Verdict]
    assert names == sorted(names)
    assert names[0] == "0-well-matched"
    assert names[-1] == "inconsistent-input"


# ---------------------------------------------------------------------------
# Legacy labels


@pytest.mark.parametrize(
    "verdict,expected",
    [
        (Verdict.WELL_MATCHED, LegacyLabels(False, False, None)),
        (Verdict.TOO_WEAK, LegacyLabels(False, True, None)),
        (Verdict.TAUTOLOGOUS, LegacyLabels(False, True, None)),
        (Verdict.TOO_STRONG, LegacyLabels(True, False, JiLabel.EXTRINSIC)),
        (Verdict.SELF_CONTRADICTORY, LegacyLabels(True, False, JiLabel.INTRINSIC)),
        (Verdict.INDEPENDENT, LegacyLabels(True, True, JiLabel.EXTRINSIC)),
        (Verdict.CONFLICTING, LegacyLabels(True, True, JiLabel.INTRINSIC)),
    ],
)
def test_legacy_label_table(verdict, expected):
    assert legacy_labels(verdict) == expected


def test_inconsistent_input_is_unmappable():
    with pytest.raises(UnmappableVerdict):
        legacy_labels(Verdict.INCONSISTENT_INPUT)


# ---------------------------------------------------------------------------
# Properties

# The defining conditions of each verdict, stated over independently
# computed facts.  classify must return the single verdict whose condition
# holds.
_DEFINITIONS = {
    Verdict.INCONSISTENT_INPUT: lambda c: not c["sat_i"],
    Verdict.WELL_MATCHED: lambda c: c["sat_i"] and c["fwd"] and c["bwd"],
    Verdict.TOO_WEAK: lambda c: c["sat_i"]
    and c["fwd"] and not c["bwd"] and not c["taut_o"],
    Verdict.TAUTOLOGOUS: lambda c: c["sat_i"]
    and c["fwd"] and not c["bwd"] and c["taut_o"],
    Verdict.TOO_STRONG: lambda c: c["sat_i"]
    and not c["fwd"] and c["bwd"] and not c["contra_o"],
    Verdict.SELF_CONTRADICTORY: lambda c: c["sat_i"]
    and not c["fwd"] and c["bwd"] and c["contra_o"],
    Verdict.INDEPENDENT: lambda c: c["sat_i"]
    and not c["fwd"] and not c["bwd"] and not c["conflict"],
    Verdict.CONFLICTING: lambda c: c["sat_i"]
    and not c["fwd"] and not c["bwd"] and c["conflict"],
}


def _oracle_facts(schema, i, o):
    return {
        "sat_i": oracle_satisfiable(schema, i),
        "fwd": oracle_entails(schema, i, o),
        "bwd": oracle_entails(schema, o, i),
        "taut_o": oracle_is_tautology(schema, o),
        "contra_o": oracle_is_contradiction(schema, o),
        "conflict": oracle_entails(schema, i, Not(o)),
    }


@st.composite
def schema_and_pair(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    schema = random_schema(rng)
    return schema, random_formula(rng, schema), random_formula(rng, schema)


class TestVerdictLaws:
    @settings(max_examples=150)
    @given(schema_and_pair())
    def test_exactly_one_definition_holds(self, case):
        """classify matches the unique verdict whose oracle-checked definition
        holds, and decide's facts are the oracle's."""
        schema, i, o = case
        facts = _oracle_facts(schema, i, o)
        holding = [v for v, defn in _DEFINITIONS.items() if defn(facts)]
        assert holding == [classify(schema, i, o)]
        decided = decide(schema, i, o)
        assert decided.verdict is holding[0]
        assert (
            decided.input_satisfiable,
            decided.forward,
            decided.backward,
            decided.conflict,
        ) == (facts["sat_i"], facts["fwd"], facts["bwd"], facts["conflict"])

    @settings(max_examples=150)
    @given(schema_and_pair())
    def test_swap_duality(self, case):
        """Swapping the pair maps 0, 3a, 3b to themselves and 1x to 2x."""
        schema, a, b = case
        if not satisfiable(schema, a) or not satisfiable(schema, b):
            return
        v_ab = classify(schema, a, b)
        v_ba = classify(schema, b, a)
        assert (v_ab is Verdict.WELL_MATCHED) == (v_ba is Verdict.WELL_MATCHED)
        assert (v_ab is Verdict.INDEPENDENT) == (v_ba is Verdict.INDEPENDENT)
        assert (v_ab is Verdict.CONFLICTING) == (v_ba is Verdict.CONFLICTING)
        ones = {Verdict.TOO_WEAK, Verdict.TAUTOLOGOUS}
        twos = {Verdict.TOO_STRONG, Verdict.SELF_CONTRADICTORY}
        assert (v_ab in ones) == (v_ba in twos)

    @settings(max_examples=150)
    @given(schema_and_pair())
    def test_no_consistent_input_entails_both_sides(self, case):
        """A consistent input never entails both the output and its negation."""
        schema, i, o = case
        if satisfiable(schema, i):
            assert not (entails(schema, i, o) and entails(schema, i, Not(o)))

    @settings(max_examples=150)
    @given(schema_and_pair())
    def test_legacy_labels_match_raw_entailments(self, case):
        """The lookup table equals recomputing the definitions directly."""
        schema, i, o = case
        if not satisfiable(schema, i):
            return
        labels = legacy_labels(classify(schema, i, o))
        fwd = bool(entails(schema, i, o))
        bwd = bool(entails(schema, o, i))
        conflict = bool(entails(schema, i, Not(o)))
        assert labels.dusek_hallucination == (not fwd)
        assert labels.dusek_omission == (not bwd)
        if fwd:
            assert labels.ji is None
        elif conflict:
            assert labels.ji is JiLabel.INTRINSIC
        else:
            assert labels.ji is JiLabel.EXTRINSIC
