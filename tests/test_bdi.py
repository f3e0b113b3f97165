"""Misleading-communication scans and scenario files.

``detect_withholding`` and ``detect_half_truth`` below state the two
definitions directly; the scan is checked against them.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

import verity.bdi
import verity.cli
import verity.entail
import verity.oracle
from randgen import ENTITY, NUM_ATTR, random_atom, random_formula, random_schema
from verity import (
    FALSE,
    And,
    EntailmentResult,
    FindingKind,
    Implies,
    MisleadingFinding,
    Model,
    MrError,
    Not,
    NumAtom,
    ResourceLimit,
    Scenario,
    ScenarioError,
    Schema,
    default_candidates,
    entails,
    evaluate,
    load_scenario,
    oracle_entails,
    parse_formula,
    parse_schema,
    print_formula,
    satisfiable,
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
# Reference definitions


def detect_withholding(scenario, q, *, entails_fn=None):
    """True iff q is expected, true in the world, and not communicated."""
    if q not in scenario.expectation_norms:
        return False
    if not evaluate(scenario.world, q):
        return False
    fn = entails_fn or partial(entails, scenario.schema)
    return not fn(scenario.communicated, q)


def detect_half_truth(scenario, p, r, *, entails_fn=None):
    """True iff communicating p leads the hearer to the false conclusion r.

    Checked conditions, exactly these five: K entails p; K does not entail
    r; the hearer believes p -> r; p is true in the world; r is false in
    the world.  The hearer's beliefs are taken to be satisfiable, which
    ``scan_misleading`` checks.
    """
    if not evaluate(scenario.world, p) or evaluate(scenario.world, r):
        return False
    fn = entails_fn or partial(entails, scenario.schema)
    return (
        bool(fn(scenario.communicated, p))
        and not fn(scenario.communicated, r)
        and bool(fn(scenario.hearer_beliefs, Implies(p, r)))
    )


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


def test_scan_pair_limit(monkeypatch):
    # Default candidate pool for the hurricane world is 5 atoms, 25 pairs.
    monkeypatch.setattr(verity.bdi, "DEFAULT_PAIR_LIMIT", 24)
    with pytest.raises(ResourceLimit) as info:
        scan_misleading(hurricane_scenario())
    assert info.value.required == 25
    assert info.value.limit == 24
    assert str(info.value) == "25 candidate pairs exceeds limit 24"
    monkeypatch.setattr(verity.bdi, "DEFAULT_PAIR_LIMIT", 25)
    assert scan_misleading(hurricane_scenario())


def _brute_force_scan(scenario, candidates, entails_fn=None):
    """The scan as the definitions state it: every detector on every
    candidate and ordered pair, each asking its own questions."""
    pool = list(dict.fromkeys(candidates)) if candidates else default_candidates(scenario)
    findings = [
        MisleadingFinding(FindingKind.WITHHOLDING, q)
        for q in pool
        if detect_withholding(scenario, q, entails_fn=entails_fn)
    ]
    findings += [
        MisleadingFinding(FindingKind.HALF_TRUTH, p, r)
        for p in pool
        for r in pool
        if detect_half_truth(scenario, p, r, entails_fn=entails_fn)
    ]
    return sorted(findings, key=MisleadingFinding.render)


def _random_scenario(rng):
    """A randgen scenario whose schema always has the numeric attribute, so
    the world, the norms and the default candidates have numeric atoms."""
    while True:
        schema = random_schema(rng)
        schema = Schema(schema.categorical, frozenset({NUM_ATTR}))
        world = Model(
            {(attr, ENTITY): rng.choice(domain) for attr, domain in schema.categorical.items()},
            {(NUM_ATTR, ENTITY): Fraction(rng.randrange(-1, 12), 2)},
        )

        def rule():
            return Implies(random_atom(rng, schema), random_atom(rng, schema))

        communicated = random_formula(rng, schema, 3) if rng.random() < 0.3 else And(
            random_atom(rng, schema), random_atom(rng, schema)
        )
        beliefs = random_formula(rng, schema, 3) if rng.random() < 0.3 else And(rule(), rule())
        norms = [random_atom(rng, schema) for _ in range(rng.randint(0, 3))]
        norms += [random_formula(rng, schema, 2) for _ in range(rng.randint(0, 1))]
        if not satisfiable(schema, beliefs):
            continue
        scenario = Scenario(schema, communicated, beliefs, world, tuple(norms))
        candidates = None
        if rng.random() < 0.4:
            candidates = [random_formula(rng, schema, 2) for _ in range(rng.randint(1, 10))]
            candidates += rng.sample(norms, min(len(norms), 2))
        return scenario, candidates


def storm_scenario():
    """The world satisfies neither K nor H.  K entails Sky(today)=Cloudy
    only by ruling out the other two values, and the first H |= p -> r for
    p = Sky(today)=Cloudy is answered "no" before the half truth's r."""
    schema = parse_schema(
        "attr Hurricane : { Yes, No }\n"
        "attr Sky : { Cloudy, Clear, Rainy }\n"
        "attr Wind : { Calm, Strong }\n"
    )
    scenario = Scenario(
        schema=schema,
        communicated=parse_formula(
            "Wind(today)=Strong & !(Sky(today)=Clear) & !(Sky(today)=Rainy)", schema
        ),
        hearer_beliefs=parse_formula("Sky(today)=Cloudy -> Hurricane(today)=No", schema),
        world=Model(
            {("Hurricane", "today"): "Yes", ("Sky", "today"): "Cloudy", ("Wind", "today"): "Calm"},
            {},
        ),
        expectation_norms=(parse_formula("Hurricane(today)=Yes", schema),),
    )
    candidates = [
        parse_formula(text, schema)
        for text in ("Sky(today)=Cloudy", "Sky(today)=Clear", "Hurricane(today)=No", "Hurricane(today)=Yes")
    ]
    return scenario, candidates


def _scan_cases():
    yield "hurricane", hurricane_scenario(), None
    yield "employment", employment_scenario(), None
    yield "storm", *storm_scenario()
    for name in ("hurricane.scenario.json", "employment.scenario.json", "lying.scenario.json"):
        yield (name, *load_scenario(fixture_path(name)))
    rng = random.Random(2024)
    for n in range(60):
        yield (f"randgen-{n}", *_random_scenario(rng))


@pytest.mark.parametrize("injected", [False, True], ids=["engine", "oracle"])
def test_scan_returns_exactly_the_brute_force_findings(injected):
    kinds = Counter()
    for name, scenario, candidates in _scan_cases():
        fn = None
        if injected:
            def fn(a, b, schema=scenario.schema):
                return oracle_entails(schema, a, b)
        findings = scan_misleading(scenario, candidates, entails_fn=fn)
        assert findings == _brute_force_scan(scenario, candidates, fn), name
        kinds.update(f.kind for f in findings)
    # The property is not vacuous: both kinds of finding occur.
    assert kinds[FindingKind.WITHHOLDING] > 5
    assert kinds[FindingKind.HALF_TRUTH] > 5


def _bogus_witness(kind, schema, world, a, b):
    """A witness an injected entails_fn might attach to its answer to
    a |= b: no model, or one the scan must not use."""
    if kind == "none":
        return None
    if kind == "not-a-model":
        return dict(world.categorical)
    if kind == "falsifies-left":
        # A model of !a: it falsifies K, or H.
        return satisfiable(schema, Not(a)).witness
    if kind == "falsifies-premise":
        # For H |= p -> r, a model of H & !p: a model of H but not of H & p.
        if type(b) is Implies:
            return satisfiable(schema, And(a, Not(b.antecedent))).witness
        return satisfiable(schema, Not(a)).witness
    if kind == "value-outside-domain":
        # The countermodel with every categorical value that a can spare
        # replaced by a name outside the key's domain.
        model = entails(schema, a, b).witness
        for key in model.categorical if model is not None else ():
            bogus = Model({**model.categorical, key: "Bogus"}, model.numeric)
            if evaluate(bogus, a):
                model = bogus
        return model if model and "Bogus" in model.categorical.values() else None
    if kind == "unhashable-value":
        # The countermodel with its first categorical value put in a list.
        model = entails(schema, a, b).witness
        if model is None or not model.categorical:
            return model
        key, value = next(iter(model.categorical.items()))
        return Model({**model.categorical, key: [value]}, model.numeric)
    if kind == "fields-not-mappings":
        # The countermodel with its fields as lists of (key, value) pairs.
        model = entails(schema, a, b).witness
        return model and Model(list(model.categorical.items()), list(model.numeric.items()))
    assert kind == "nan-number"
    # NaN compares false with every constant, so it satisfies !(x < c) &
    # !(x >= c), which no number does.
    return Model({}, {key: float("nan") for key in world.numeric})


@pytest.mark.parametrize(
    "witness",
    [
        "none",
        "not-a-model",
        "falsifies-left",
        "falsifies-premise",
        "value-outside-domain",
        "unhashable-value",
        "fields-not-mappings",
        "nan-number",
    ],
)
def test_scan_uses_no_witness_it_cannot_confirm(witness):
    # Every answer is the engine's; only the attached witness is wrong, so a
    # scan that trusted it would skip a question whose answer is "yes".
    for name, scenario, candidates in _scan_cases():
        schema, world = scenario.schema, scenario.world

        def fn(a, b):
            holds = entails(schema, a, b).holds
            return EntailmentResult(holds, _bogus_witness(witness, schema, world, a, b))

        findings = scan_misleading(scenario, candidates, entails_fn=fn)
        assert findings == _brute_force_scan(scenario, candidates), name


def test_a_float_in_the_world_does_not_stop_countermodel_reuse():
    # A world built through the API may hold a float such as 5.0.  It is the
    # world's own value, so a countermodel completed with it is still used,
    # and the scan asks the same questions as with the world's Fractions.
    floats = 0
    for name, scenario, candidates in _scan_cases():
        candidates = candidates or default_candidates(scenario)
        world = scenario.world
        floated = dataclasses.replace(
            scenario,
            world=Model(world.categorical, {key: float(v) for key, v in world.numeric.items()}),
        )
        if not world.numeric:
            continue
        floats += 1
        asked = []
        for s in (scenario, floated):
            counted, calls = _counting(partial(entails, s.schema))
            findings = scan_misleading(s, candidates, entails_fn=counted)
            asked.append(calls)
        assert asked[1] == asked[0], name
        assert findings == _brute_force_scan(scenario, candidates), name
    assert floats > 50


def test_lying_speaker_scan_reuses_countermodels_unlike_the_world():
    scenario, candidates = load_scenario(fixture_path("lying.scenario.json"))
    k, h, world = scenario.communicated, scenario.hearer_beliefs, scenario.world
    # The speaker says something false, and the hearer believes something
    # false, so the world is a model of neither K nor H.
    assert not evaluate(world, k)
    assert not evaluate(world, h)
    answers = []

    def fn(a, b):
        result = entails(scenario.schema, a, b)
        answers.append((a, b, result))
        return result

    findings = scan_misleading(scenario, candidates, entails_fn=fn)
    assert findings == _brute_force_scan(scenario, candidates)
    assert [f.render() for f in findings] == [
        "half-truth: Temperature(today) > 20 => Hurricane(today)=No",
        "half-truth: Temperature(today) >= 22 => Hurricane(today)=No",
        "withholding: Hurricane(today)=Yes",
        "withholding: Temperature(today) = 22",
    ]
    # The first K |= c answered "no" puts the temperature at a sample point
    # above 25, not at the world's 22; the numeric candidates it falsifies
    # are not asked about.
    first = next(result.witness for a, _, result in answers if a == k and not result)
    temperature = ("Temperature", "today")
    assert first.numeric[temperature] == 26 != world.numeric[temperature]
    asked = [b for a, b, _ in answers if a == k]
    for r in default_candidates(scenario):
        if not evaluate(world, r) and not evaluate(first, r):
            assert r not in asked
    # 18 questions where asking every needed one takes 36.
    assert len(answers) == 18


def _counting(fn):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return counted, calls


@pytest.mark.parametrize(
    "scenario, candidates, asked",
    [
        (
            hurricane_scenario(),
            None,
            [
                "true |= false",
                "Sky(today)=Cloudy |= Hurricane(today)=Yes",
                "Sky(today)=Cloudy |= Sky(today)=Cloudy",
            ],
        ),
        (
            dataclasses.replace(hurricane_scenario(), communicated=_weather("true")),
            None,
            ["true |= false", "true |= Hurricane(today)=Yes", "true |= Sky(today)=Cloudy"],
        ),
        (
            employment_scenario(),
            None,
            [
                "Position(s)=Permanent -> Solvency(c)=Healthy |= false",
                "Position(s)=Permanent |= Position(s)=Permanent",
                "Position(s)=Permanent |= Solvency(c)=Bankrupt",
                "Position(s)=Permanent -> Solvency(c)=Healthy"
                " |= Position(s)=Permanent -> Position(s)=Temporary",
                "Position(s)=Permanent -> Solvency(c)=Healthy"
                " |= Position(s)=Permanent -> Solvency(c)=Healthy",
            ],
        ),
        (
            dataclasses.replace(
                employment_scenario(),
                expectation_norms=(_employment("Solvency(c)=Bankrupt"),),
            ),
            None,
            [
                "Position(s)=Permanent -> Solvency(c)=Healthy |= false",
                "Position(s)=Permanent |= Solvency(c)=Bankrupt",
                "Position(s)=Permanent |= Position(s)=Permanent",
                "Position(s)=Permanent -> Solvency(c)=Healthy"
                " |= Position(s)=Permanent -> Position(s)=Temporary",
                "Position(s)=Permanent -> Solvency(c)=Healthy"
                " |= Position(s)=Permanent -> Solvency(c)=Healthy",
            ],
        ),
        (
            *load_scenario(fixture_path("employment.scenario.json")),
            [
                "Position(s)=Permanent -> Solvency(c)=Healthy |= false",
                "Position(s)=Permanent |= Position(s)=Permanent",
                "Position(s)=Permanent -> Solvency(c)=Healthy"
                " |= Position(s)=Permanent -> Solvency(c)=Healthy",
            ],
        ),
    ],
    ids=["hurricane", "hurricane-silent", "employment", "employment-norm", "employment-fixture"],
)
def test_scan_asks_each_question_once_and_only_the_needed_ones(scenario, candidates, asked):
    schema = scenario.schema
    fn, calls = _counting(lambda a, b: entails(schema, a, b))
    findings = scan_misleading(scenario, candidates, entails_fn=fn)
    assert findings == scan_misleading(scenario, candidates)
    assert len(set(calls)) == len(calls)
    pool = list(dict.fromkeys(candidates)) if candidates else default_candidates(scenario)
    k, h = scenario.communicated, scenario.hearer_beliefs
    truths = [c for c in pool if evaluate(scenario.world, c)]
    falsehoods = [c for c in pool if not evaluate(scenario.world, c)]
    told_truths = [p for p in truths if entails(schema, k, p)]
    n = len(pool)
    assert len(calls) <= 1 + n + len(told_truths) * n
    # The questions a finding can need: H |= false, first; K |= c for every
    # true c, and, once some true p is communicated, for every false r;
    # then H |= p -> r for the pairs whose other four conditions hold.
    assert calls[0] == (h, FALSE)
    needed = {(h, FALSE)} | {(k, c) for c in truths}
    if told_truths:
        needed |= {(k, r) for r in falsehoods}
    needed |= {
        (h, Implies(p, r))
        for p in told_truths
        for r in falsehoods
        if not entails(schema, k, r)
    }
    assert set(calls) <= needed
    # Of those, the ones a model in hand does not already answer "no": each
    # world here satisfies K, so no K |= r is asked for a false r, and the
    # employment world falsifies H, so the first H |= p -> r is asked; its
    # countermodel makes Solvency(c)=Healthy true, so that r is asked too.
    assert [f"{print_formula(a)} |= {print_formula(b)}" for a, b in calls] == asked


@pytest.mark.parametrize("name", ["hurricane.scenario.json", "employment.scenario.json"])
def test_bdi_oracle_checks_every_question_the_engine_scan_asks(name, capsys, monkeypatch):
    path = str(fixture_path(name))
    counted, engine_calls = _counting(verity.cli.entails)
    monkeypatch.setattr(verity.cli, "entails", counted)
    assert verity.cli.main(["bdi", path]) == 0
    engine_out = capsys.readouterr().out
    monkeypatch.undo()
    counted, checked_calls = _counting(verity.cli.checked_entails)
    monkeypatch.setattr(verity.cli, "checked_entails", counted)
    assert verity.cli.main(["bdi", "--oracle", path]) == 0
    assert capsys.readouterr().out == engine_out
    assert engine_calls
    assert [args[1:] for args in checked_calls] == [args[1:] for args in engine_calls]
    beliefs = load_scenario(path)[0].hearer_beliefs
    assert [args[1:] for args in engine_calls].count((beliefs, FALSE)) == 1
    assert engine_calls[0][1:] == (beliefs, FALSE)


def test_bdi_oracle_checks_the_beliefs_question(capsys, monkeypatch):
    # The engine answers H |= false wrongly and every other question right.
    path = str(fixture_path("hurricane.scenario.json"))
    engine = verity.oracle.entails

    def wrong_on_beliefs(schema, a, b, **kwargs):
        result = engine(schema, a, b, **kwargs)
        return dataclasses.replace(result, holds=not result.holds) if b == FALSE else result

    monkeypatch.setattr(verity.oracle, "entails", wrong_on_beliefs)
    assert verity.cli.main(["bdi", "--oracle", path]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("oracle divergence: ")


def test_replacing_a_loaded_scenario_runs_no_search(monkeypatch):
    scenario, _ = load_scenario(fixture_path("employment.scenario.json"))
    counted, searches = _counting(verity.entail._search)
    monkeypatch.setattr(verity.entail, "_search", counted)
    replaced = dataclasses.replace(scenario, communicated=_employment("true"))
    assert replaced.communicated == _employment("true")
    assert searches == []


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


def test_default_candidates_end_with_the_norms_they_lack():
    """A compound norm joins the default pool after the atoms, once, so it
    is checked for withholding; an atomic norm is already in the pool."""
    norm = _weather("Hurricane(today)=Yes | Sky(today)=Clear")
    scenario = dataclasses.replace(
        hurricane_scenario(),
        expectation_norms=(_weather("Hurricane(today)=Yes"), norm, norm),
    )
    pool = default_candidates(scenario)
    assert pool == default_candidates(hurricane_scenario()) + [norm]
    assert scan_misleading(scenario) == [
        MisleadingFinding(FindingKind.WITHHOLDING, _weather("Hurricane(today)=Yes")),
        MisleadingFinding(FindingKind.WITHHOLDING, norm),
    ]


# ---------------------------------------------------------------------------
# Scenario validation


def test_scenario_rejects_unsatisfiable_beliefs(monkeypatch):
    # The scan asks H |= false before anything else, the pair limit too.
    monkeypatch.setattr(verity.bdi, "DEFAULT_PAIR_LIMIT", 0)
    scenario = dataclasses.replace(
        hurricane_scenario(),
        hearer_beliefs=_weather("Sky(today)=Clear & Sky(today)=Rainy"),
    )
    for decide in (entails, oracle_entails):
        fn, calls = _counting(partial(decide, WEATHER))
        with pytest.raises(ScenarioError, match="unsatisfiable"):
            scan_misleading(scenario, entails_fn=fn)
        assert calls == [(scenario.hearer_beliefs, FALSE)]


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


@pytest.mark.parametrize("value, expected", [("45/2", Fraction(45, 2)), ("3", 3), (-4, -4), (-0.125, Fraction(-1, 8))])
def test_load_scenario_reads_world_numerals(tmp_path, value, expected):
    doc = dict(GOOD_DOC, world={"Hurricane(today)": "Yes", "Temperature(d)": value})
    path = _write_scenario(
        tmp_path, doc, schema_text="attr Hurricane : { Yes, No }\nnum Temperature\n"
    )
    scenario, _ = load_scenario(path)
    assert scenario.world.numeric[("Temperature", "d")] == expected


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
        (dict(GOOD_DOC, candidates=[]), "field 'candidates' must not be empty"),
        pytest.param(
            '{"world": {"Temperature(d)": %s}}' % ("1" * 5001), "not valid JSON", id="long-int"
        ),
        pytest.param(
            '{"world": {"Temperature(d)": 1e999999999}}', "JSON number 1e999999999 has an exponent",
            id="exponent-number",
        ),
        pytest.param(
            dict(GOOD_DOC, schema=str(fixture_path("temperature.schema")), world={"Temperature(d)": "1e999999999"}),
            "must be a number", id="exponent-string",
        ),
        pytest.param(
            dict(GOOD_DOC, schema=str(fixture_path("temperature.schema")), world={"Temperature(d)": "1/0"}),
            r"world value for Temperature\(d\): Fraction\(1, 0\)", id="zero-denominator",
        ),
        pytest.param(
            dict(GOOD_DOC, norms=[True]), "field 'norms' must be a list of strings", id="norms-bool"
        ),
        pytest.param(
            dict(GOOD_DOC, norms=[3]), "field 'norms' must be a list of strings", id="norms-number"
        ),
        pytest.param(
            dict(GOOD_DOC, candidates=["Hurricane(today)=Yes", None]),
            "field 'candidates' must be a list of strings",
            id="candidates-null",
        ),
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


@pytest.mark.parametrize(
    "field, formula, key",
    [
        ("communicated", "Depth(a) > 1 & Storm(y)=On & (Hurricane(z)=Yes | Hurricane(b)=No)", "Hurricane(b)"),
        ("norms", ["Depth(a) > 1 & Storm(y)=On & (Hurricane(z)=Yes | Hurricane(b)=No)"], "Hurricane(b)"),
        ("communicated", "Depth(b) > 1 & Depth(a) < 1", "Depth(a)"),
    ],
)
def test_missing_world_key_named_is_the_least_categorical_then_numeric(tmp_path, field, formula, key):
    schema_text = "attr Hurricane : { Yes, No }\nattr Storm : { On }\nnum Depth\n"
    doc = dict(GOOD_DOC, **{field: formula})
    with pytest.raises(ScenarioError, match=re.escape(f"world assigns no value to {key}")):
        load_scenario(_write_scenario(tmp_path, doc, schema_text))


def test_negated_norms_are_distinct_formulas():
    # Norm membership is structural; a logically equivalent but distinct
    # formula is not the same norm.
    scenario = hurricane_scenario()
    equivalent = Not(_weather("Hurricane(today)=No"))
    assert not detect_withholding(scenario, equivalent)
