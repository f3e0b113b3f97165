"""Misleading-communication detectors and scenario files."""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import pytest

from verity import (
    And,
    FindingKind,
    MisleadingFinding,
    Model,
    MrError,
    Not,
    NumAtom,
    ResourceLimit,
    Scenario,
    ScenarioError,
    default_candidates,
    detect_half_truth,
    detect_withholding,
    load_scenario,
    oracle_entails,
    parse_formula,
    parse_schema,
    scan_misleading,
)
from verity.fixtures import fixture_path

WEATHER = parse_schema(
    """
    attr Hurricane : { Yes, No }
    attr Sky : { Cloudy, Clear, Rainy }
    """
)
EMPLOYMENT = parse_schema(
    """
    attr Position : { Permanent, Temporary }
    attr Solvency : { Healthy, Bankrupt }
    """
)


def _weather(text):
    return parse_formula(text, WEATHER)


def _employment(text):
    return parse_formula(text, EMPLOYMENT)


def hurricane_scenario():
    return Scenario(
        schema=WEATHER,
        communicated=_weather("Sky(today)=Cloudy"),
        hearer_beliefs=_weather("true"),
        world=Model({("Hurricane", "today"): "Yes", ("Sky", "today"): "Cloudy"}, {}),
        expectation_norms=(_weather("Hurricane(today)=Yes"),),
    )


def employment_scenario():
    return Scenario(
        schema=EMPLOYMENT,
        communicated=_employment("Position(s)=Permanent"),
        hearer_beliefs=_employment("Position(s)=Permanent -> Solvency(c)=Healthy"),
        world=Model(
            {("Position", "s"): "Permanent", ("Solvency", "c"): "Bankrupt"}, {}
        ),
    )


# ---------------------------------------------------------------------------
# Detectors


def test_withholding_detected():
    scenario = hurricane_scenario()
    assert detect_withholding(scenario, _weather("Hurricane(today)=Yes"))


def test_withholding_requires_norm_membership():
    # Sky(today)=Cloudy is true in the world but nobody expects it.
    scenario = hurricane_scenario()
    assert not detect_withholding(scenario, _weather("Sky(today)=Cloudy"))


def test_withholding_requires_truth_in_world():
    scenario = dataclasses.replace(
        hurricane_scenario(), expectation_norms=(_weather("Sky(today)=Rainy"),)
    )
    assert not detect_withholding(scenario, _weather("Sky(today)=Rainy"))


def test_withholding_requires_noncommunication():
    scenario = dataclasses.replace(
        hurricane_scenario(),
        communicated=_weather("Sky(today)=Cloudy & Hurricane(today)=Yes"),
    )
    assert not detect_withholding(scenario, _weather("Hurricane(today)=Yes"))


def test_withholding_counts_entailed_facts_as_communicated():
    # Communicating the conjunction is communicating the conjunct.
    scenario = dataclasses.replace(
        hurricane_scenario(),
        communicated=_weather("!(Hurricane(today)=No) & Sky(today)=Cloudy"),
    )
    assert not detect_withholding(scenario, _weather("Hurricane(today)=Yes"))


def test_half_truth_detected():
    scenario = employment_scenario()
    assert detect_half_truth(
        scenario,
        _employment("Position(s)=Permanent"),
        _employment("Solvency(c)=Healthy"),
    )


def test_half_truth_requires_true_premise():
    scenario = employment_scenario()
    assert not detect_half_truth(
        scenario,
        _employment("Position(s)=Temporary"),
        _employment("Solvency(c)=Healthy"),
    )


def test_half_truth_requires_false_conclusion():
    scenario = employment_scenario()
    assert not detect_half_truth(
        scenario,
        _employment("Position(s)=Permanent"),
        _employment("Solvency(c)=Bankrupt"),
    )


def test_half_truth_requires_hearer_belief_in_the_rule():
    scenario = dataclasses.replace(
        employment_scenario(), hearer_beliefs=_employment("true")
    )
    assert not detect_half_truth(
        scenario,
        _employment("Position(s)=Permanent"),
        _employment("Solvency(c)=Healthy"),
    )


def test_half_truth_suppressed_by_communicating_the_conclusion():
    scenario = dataclasses.replace(
        employment_scenario(),
        communicated=_employment("Position(s)=Permanent & Solvency(c)=Healthy"),
    )
    assert not detect_half_truth(
        scenario,
        _employment("Position(s)=Permanent"),
        _employment("Solvency(c)=Healthy"),
    )


def test_half_truth_not_suppressed_by_denying_the_conclusion():
    # The condition is that r go uncommunicated; asserting !r communicates
    # only the negation and the detector still fires.
    scenario = dataclasses.replace(
        employment_scenario(),
        communicated=_employment("Position(s)=Permanent & !(Solvency(c)=Healthy)"),
    )
    assert detect_half_truth(
        scenario,
        _employment("Position(s)=Permanent"),
        _employment("Solvency(c)=Healthy"),
    )


def test_detectors_accept_injected_entailment():
    scenario = hurricane_scenario()
    calls = []

    def fn(a, b):
        calls.append((a, b))
        return oracle_entails(scenario.schema, a, b)

    assert detect_withholding(
        scenario, _weather("Hurricane(today)=Yes"), entails_fn=fn
    )
    assert calls


# ---------------------------------------------------------------------------
# Findings and scans


def test_finding_shape_is_checked():
    q = _weather("Hurricane(today)=Yes")
    with pytest.raises(ValueError):
        MisleadingFinding(FindingKind.WITHHOLDING, q, q)
    with pytest.raises(ValueError):
        MisleadingFinding(FindingKind.HALF_TRUTH, q)


def test_finding_render():
    q = _weather("Hurricane(today)=Yes")
    r = _employment("Solvency(c)=Healthy")
    p = _employment("Position(s)=Permanent")
    assert (
        MisleadingFinding(FindingKind.WITHHOLDING, q).render()
        == "withholding: Hurricane(today)=Yes"
    )
    assert (
        MisleadingFinding(FindingKind.HALF_TRUTH, p, r).render()
        == "half-truth: Position(s)=Permanent => Solvency(c)=Healthy"
    )


def test_scan_hurricane_defaults():
    findings = scan_misleading(hurricane_scenario())
    assert [f.render() for f in findings] == ["withholding: Hurricane(today)=Yes"]


def test_scan_employment_candidates():
    candidates = [
        _employment("Position(s)=Permanent"),
        _employment("Solvency(c)=Healthy"),
    ]
    findings = scan_misleading(employment_scenario(), candidates)
    assert [f.render() for f in findings] == [
        "half-truth: Position(s)=Permanent => Solvency(c)=Healthy"
    ]


def test_scan_findings_reverify():
    for scenario, candidates in (
        (hurricane_scenario(), None),
        (
            employment_scenario(),
            [_employment("Position(s)=Permanent"), _employment("Solvency(c)=Healthy")],
        ),
    ):
        for finding in scan_misleading(scenario, candidates):
            if finding.kind is FindingKind.WITHHOLDING:
                assert detect_withholding(scenario, finding.subject)
            else:
                assert detect_half_truth(scenario, finding.subject, finding.inferred)


def test_scan_orders_findings_and_dedupes_candidates():
    scenario = dataclasses.replace(
        hurricane_scenario(),
        communicated=_weather("true"),
        expectation_norms=(
            _weather("Sky(today)=Cloudy"),
            _weather("Hurricane(today)=Yes"),
        ),
    )
    q = _weather("Hurricane(today)=Yes")
    p = _weather("Sky(today)=Cloudy")
    findings = scan_misleading(scenario, [p, q, p, q, q])
    assert [f.render() for f in findings] == [
        "withholding: Hurricane(today)=Yes",
        "withholding: Sky(today)=Cloudy",
    ]


def test_scan_pair_limit():
    # Default candidate pool for the hurricane world is 5 atoms, 25 pairs.
    with pytest.raises(ResourceLimit) as info:
        scan_misleading(hurricane_scenario(), pair_limit=24)
    assert info.value.required == 25
    assert info.value.limit == 24
    assert str(info.value) == "25 candidate pairs exceeds limit 24"
    assert scan_misleading(hurricane_scenario(), pair_limit=25)


def test_full_disclosure_clears_all_findings():
    scenario = hurricane_scenario()
    told_all = dataclasses.replace(
        scenario,
        communicated=And(scenario.communicated, _weather("Hurricane(today)=Yes")),
    )
    assert scan_misleading(told_all) == []


def test_default_candidates_cover_domains_and_constants():
    schema = parse_schema("attr Hurricane : { Yes, No }\nnum Temperature")
    scenario = Scenario(
        schema=schema,
        communicated=parse_formula("Temperature(d) > 20", schema),
        hearer_beliefs=parse_formula("true", schema),
        world=Model({("Hurricane", "today"): "No"}, {("Temperature", "d"): Fraction(22)}),
    )
    pool = default_candidates(scenario)
    # 2 categorical atoms plus 5 operators for each of the constants {20, 22}.
    assert len(pool) == 2 + 5 * 2
    assert parse_formula("Hurricane(today)=Yes", schema) in pool
    assert NumAtom("Temperature", "d", "=", Fraction(22)) in pool
    assert NumAtom("Temperature", "d", "<=", Fraction(20)) in pool


# ---------------------------------------------------------------------------
# Scenario validation


def test_scenario_rejects_unsatisfiable_beliefs():
    with pytest.raises(ScenarioError, match="unsatisfiable"):
        dataclasses.replace(
            hurricane_scenario(),
            hearer_beliefs=_weather("Sky(today)=Clear & Sky(today)=Rainy"),
        )


def test_scenario_requires_world_coverage():
    with pytest.raises(ScenarioError, match=r"no value to Sky\(tomorrow\)"):
        dataclasses.replace(
            hurricane_scenario(), communicated=_weather("Sky(tomorrow)=Clear")
        )


def test_scenario_validates_world_against_schema():
    with pytest.raises(MrError):
        Scenario(
            schema=WEATHER,
            communicated=_weather("true"),
            hearer_beliefs=_weather("true"),
            world=Model({("Hurricane", "today"): "Maybe"}, {}),
        )


# ---------------------------------------------------------------------------
# Scenario files


def test_load_hurricane_fixture():
    scenario, candidates = load_scenario(fixture_path("hurricane.scenario.json"))
    assert candidates is None
    assert scenario.communicated == _weather("Sky(today)=Cloudy")
    assert scenario.expectation_norms == (_weather("Hurricane(today)=Yes"),)
    assert scenario.world.categorical[("Hurricane", "today")] == "Yes"
    findings = scan_misleading(scenario, candidates)
    assert [f.render() for f in findings] == ["withholding: Hurricane(today)=Yes"]


def test_load_employment_fixture():
    scenario, candidates = load_scenario(fixture_path("employment.scenario.json"))
    assert candidates == [
        _employment("Position(s)=Permanent"),
        _employment("Solvency(c)=Healthy"),
    ]
    findings = scan_misleading(scenario, candidates)
    assert [f.render() for f in findings] == [
        "half-truth: Position(s)=Permanent => Solvency(c)=Healthy"
    ]


def _write_scenario(tmp_path, doc, schema_text="attr Hurricane : { Yes, No }\n"):
    (tmp_path / "w.schema").write_text(schema_text, encoding="utf-8")
    path = tmp_path / "s.json"
    body = json.dumps(doc) if isinstance(doc, dict) else doc
    path.write_text(body, encoding="utf-8")
    return path


GOOD_DOC = {
    "schema": "w.schema",
    "communicated": "true",
    "hearer_beliefs": "true",
    "world": {"Hurricane(today)": "Yes"},
    "norms": ["Hurricane(today)=Yes"],
}


def test_load_scenario_roundtrip(tmp_path):
    scenario, candidates = load_scenario(_write_scenario(tmp_path, GOOD_DOC))
    assert candidates is None
    assert detect_withholding(scenario, parse_formula("Hurricane(today)=Yes", scenario.schema))


def test_load_scenario_numeric_world_values(tmp_path):
    doc = dict(GOOD_DOC, world={"Hurricane(today)": "Yes", "Temperature(d)": 22.5})
    path = _write_scenario(
        tmp_path, doc, schema_text="attr Hurricane : { Yes, No }\nnum Temperature\n"
    )
    scenario, _ = load_scenario(path)
    assert scenario.world.numeric[("Temperature", "d")] == Fraction(45, 2)


@pytest.mark.parametrize(
    "doc,message",
    [
        ("[1, 2]", "expected a JSON object"),
        ("{not json", "not valid JSON"),
        ({k: v for k, v in GOOD_DOC.items() if k != "communicated"}, "missing field 'communicated'"),
        (dict(GOOD_DOC, norms="Hurricane(today)=Yes"), "field 'norms' must be a list"),
        (dict(GOOD_DOC, communicated="Hurricane(today)="), "in communicated:"),
        (dict(GOOD_DOC, world={"Hurricane": "Yes"}), "bad world key"),
        (dict(GOOD_DOC, world={"Hurricane(today)": 3}), "must be a value name"),
        (dict(GOOD_DOC, world={"Storm(today)": "Yes"}), "unknown attribute 'Storm'"),
        (dict(GOOD_DOC, world={}), r"no value to Hurricane\(today\)"),
    ],
)
def test_load_scenario_errors(tmp_path, doc, message):
    with pytest.raises(ScenarioError, match=message):
        load_scenario(_write_scenario(tmp_path, doc))


def test_load_scenario_rejects_boolean_numeric_value(tmp_path):
    doc = dict(GOOD_DOC, world={"Hurricane(today)": "Yes", "Temperature(d)": True})
    path = _write_scenario(
        tmp_path, doc, schema_text="attr Hurricane : { Yes, No }\nnum Temperature\n"
    )
    with pytest.raises(ScenarioError, match="must be a number"):
        load_scenario(path)


def test_load_scenario_validates_candidate_keys(tmp_path):
    doc = dict(GOOD_DOC, candidates=["Hurricane(tomorrow)=Yes"])
    with pytest.raises(ScenarioError, match=r"no value to Hurricane\(tomorrow\)"):
        load_scenario(_write_scenario(tmp_path, doc))


def test_negated_norms_are_distinct_formulas():
    # Norm membership is structural; a logically equivalent but distinct
    # formula is not the same norm.
    scenario = hurricane_scenario()
    equivalent = Not(_weather("Hurricane(today)=No"))
    assert not detect_withholding(scenario, equivalent)
