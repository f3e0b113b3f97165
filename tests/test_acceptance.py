"""Acceptance suite: one test per shipped guarantee.

Each test pins a golden example set or a bulk property with a fixed seed
and explicit size, so a pass line here is a statement about the released
behavior, not about the current implementation's internals.
"""

from __future__ import annotations

import random
import time

from randgen import AST_SCHEMA, random_ast, random_formula, random_schema
from verity import (
    FALSE,
    TRUE,
    And,
    JiLabel,
    LegacyLabels,
    Model,
    Not,
    Verdict,
    classify,
    entails,
    ingest_corpus,
    is_contradiction,
    is_tautology,
    legacy_labels,
    load_scenario,
    oracle_cells,
    oracle_entails,
    oracle_satisfiable,
    parse_formula,
    parse_schema,
    print_formula,
    render_report,
    satisfiable,
    scan_misleading,
    tally,
    REPORT_FORMATS,
)
from verity.fixtures import fixture_path


def _replace(record, **changes):
    """``record`` with some fields changed, as ``copy.replace`` makes it on Python 3.13+."""
    return record.__replace__(**changes)


RESTAURANT = parse_schema(fixture_path("restaurant.schema").read_text(encoding="utf-8"))
TEMPERATURE = parse_schema(fixture_path("temperature.schema").read_text(encoding="utf-8"))

INPUT_TEXT = "Type(x)=Restaurant & Food(x)=Italian & Price(x)=Low"

# The four classic comparison outputs.  The first two double as the 1a/2a
# members of the six-way example set below.
WEAKER = "Type(x)=Restaurant & Food(x)=Italian"
STRONGER = "Type(x)=Restaurant & Food(x)=Italian & Price(x)=Low & Style(x)=Vegetarian"
INDEPENDENT = "Type(x)=Restaurant & Style(x)=Vegetarian"
CONFLICTING = "Type(x)=Restaurant & Food(x)=Norwegian & Price(x)=Low"


def test_criterion_1_example_outputs_cover_all_six_defect_classes():
    """The six canonical restaurant outputs classify to 1a, 1b, 2a, 2b, 3a, 3b in under a second."""
    cases = [
        (WEAKER, Verdict.TOO_WEAK),
        ("Food(x)=Italian | !(Food(x)=Italian)", Verdict.TAUTOLOGOUS),
        (STRONGER, Verdict.TOO_STRONG),
        (
            "Type(x)=Restaurant & Style(x)=Vegetarian & Style(x)=Steakhouse",
            Verdict.SELF_CONTRADICTORY,
        ),
        (INDEPENDENT, Verdict.INDEPENDENT),
        (CONFLICTING, Verdict.CONFLICTING),
    ]
    start = time.perf_counter()
    input_mr = parse_formula(INPUT_TEXT, RESTAURANT)
    verdicts = [
        classify(RESTAURANT, input_mr, parse_formula(text, RESTAURANT))
        for text, _ in cases
    ]
    elapsed = time.perf_counter() - start
    assert verdicts == [expected for _, expected in cases]
    assert elapsed < 1.0


def test_criterion_2_legacy_labels_reproduce_the_comparison_table():
    """The four comparison outputs map to omission/none, hallucination/extrinsic, both/extrinsic, both/intrinsic."""
    expected = [
        (WEAKER, LegacyLabels(False, True, None)),
        (STRONGER, LegacyLabels(True, False, JiLabel.EXTRINSIC)),
        (INDEPENDENT, LegacyLabels(True, True, JiLabel.EXTRINSIC)),
        (CONFLICTING, LegacyLabels(True, True, JiLabel.INTRINSIC)),
    ]
    input_mr = parse_formula(INPUT_TEXT, RESTAURANT)
    for text, labels in expected:
        verdict = classify(RESTAURANT, input_mr, parse_formula(text, RESTAURANT))
        assert legacy_labels(verdict) == labels


def test_criterion_3_numeric_thresholds_classify_like_the_categorical_cases():
    """Threshold outputs around 22 degrees yield 1a, 2a, 3a, 3b, and overlapping intervals 3a."""
    input_mr = parse_formula("Temperature(d) > 22", TEMPERATURE)
    quadruple = [
        ("Temperature(d) > 21", Verdict.TOO_WEAK),
        ("Temperature(d) > 23", Verdict.TOO_STRONG),
        ("Temperature(d) < 25", Verdict.INDEPENDENT),
        ("Temperature(d) < 22", Verdict.CONFLICTING),
    ]
    for text, expected in quadruple:
        assert (
            classify(TEMPERATURE, input_mr, parse_formula(text, TEMPERATURE))
            is expected
        )
    low = parse_formula("Temperature(d) >= 20 & Temperature(d) <= 30", TEMPERATURE)
    high = parse_formula("Temperature(d) >= 25 & Temperature(d) <= 35", TEMPERATURE)
    assert classify(TEMPERATURE, low, high) is Verdict.INDEPENDENT


def test_criterion_4_engine_matches_brute_force_oracle_on_1000_instances():
    """All four decision procedures agree with independent enumeration on 1,000 random instances in under 60 s."""
    rng = random.Random(4004)
    mismatches = 0
    start = time.perf_counter()
    for _ in range(1000):
        schema = random_schema(rng)
        a = random_formula(rng, schema)
        b = random_formula(rng, schema)
        checks = (
            (bool(entails(schema, a, b)), oracle_entails(schema, a, b)),
            (bool(satisfiable(schema, a)), oracle_satisfiable(schema, a)),
            (is_tautology(schema, b), not oracle_cells(schema, TRUE, b)[1]),  # true & !b
            (is_contradiction(schema, b), not oracle_cells(schema, b, FALSE)[1]),  # b & !false
        )
        mismatches += sum(engine != oracle for engine, oracle in checks)
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60.0


# Defining conditions of each verdict over primitive entailment facts,
# restated here so the bulk check cannot inherit a classifier bug.
_DEFINITIONS = {
    Verdict.INCONSISTENT_INPUT: lambda c: not c["sat_i"],
    Verdict.WELL_MATCHED: lambda c: c["sat_i"] and c["fwd"] and c["bwd"],
    Verdict.TOO_WEAK: lambda c: c["sat_i"]
    and c["fwd"] and not c["bwd"] and not c["taut_o"],
    Verdict.TAUTOLOGOUS: lambda c: c["sat_i"]
    and c["fwd"] and not c["bwd"] and c["taut_o"],
    Verdict.TOO_STRONG: lambda c: c["sat_i"]
    and not c["fwd"] and c["bwd"] and c["sat_o"],
    Verdict.SELF_CONTRADICTORY: lambda c: c["sat_i"]
    and not c["fwd"] and c["bwd"] and not c["sat_o"],
    Verdict.INDEPENDENT: lambda c: c["sat_i"]
    and not c["fwd"] and not c["bwd"] and not c["conflict"],
    Verdict.CONFLICTING: lambda c: c["sat_i"]
    and not c["fwd"] and not c["bwd"] and c["conflict"],
}

_ONES = {Verdict.TOO_WEAK, Verdict.TAUTOLOGOUS}
_TWOS = {Verdict.TOO_STRONG, Verdict.SELF_CONTRADICTORY}


def test_criterion_5_taxonomy_properties_hold_on_10000_pairs():
    """Totality, exclusive re-derivation, swap duality, and both entailment lemmas: zero counterexamples in 10,000 pairs."""
    rng = random.Random(4005)
    violations = []

    def check(label, condition):
        if not condition:
            violations.append(label)

    for n in range(10_000):
        schema = random_schema(rng, max_cat=2)
        i = random_formula(rng, schema, depth=3)
        o = random_formula(rng, schema, depth=3)

        # Primitive facts, each a single satisfiability question.
        sat_i = bool(satisfiable(schema, i))
        sat_o = bool(satisfiable(schema, o))
        taut_i = not satisfiable(schema, Not(i))
        taut_o = not satisfiable(schema, Not(o))
        fwd = not satisfiable(schema, And(i, Not(o)))
        bwd = not satisfiable(schema, And(o, Not(i)))
        conflict = not satisfiable(schema, And(i, o))

        v_io = classify(schema, i, o)
        v_oi = classify(schema, o, i)
        check(f"{n}: totality", isinstance(v_io, Verdict) and isinstance(v_oi, Verdict))

        facts_io = {
            "sat_i": sat_i, "sat_o": sat_o, "fwd": fwd, "bwd": bwd,
            "taut_o": taut_o, "conflict": conflict,
        }
        facts_oi = {
            "sat_i": sat_o, "sat_o": sat_i, "fwd": bwd, "bwd": fwd,
            "taut_o": taut_i, "conflict": conflict,
        }
        for verdict, facts in ((v_io, facts_io), (v_oi, facts_oi)):
            holding = [v for v, defn in _DEFINITIONS.items() if defn(facts)]
            check(f"{n}: exclusivity", holding == [verdict])

        if sat_i and sat_o:
            check(
                f"{n}: swap duality",
                (v_io is Verdict.WELL_MATCHED) == (v_oi is Verdict.WELL_MATCHED)
                and (v_io is Verdict.INDEPENDENT) == (v_oi is Verdict.INDEPENDENT)
                and (v_io is Verdict.CONFLICTING) == (v_oi is Verdict.CONFLICTING)
                and (v_io in _ONES) == (v_oi in _TWOS),
            )

        # A consistent side that entails the other cannot also refute it.
        if sat_i and fwd:
            check(f"{n}: consistent forward lemma", not conflict)
        if sat_o and bwd:
            check(f"{n}: consistent backward lemma", not conflict)
        # Tautologies follow from everything; contradictions entail everything.
        if taut_o:
            check(f"{n}: tautology lemma", fwd)
        if not sat_o:
            check(f"{n}: contradiction lemma", bwd)

    assert violations == []


def test_criterion_6_misleading_goldens_and_perturbations():
    """Each scenario fixture yields exactly one finding; disclosing the fact or flipping the world yields none."""
    hurricane, h_candidates = load_scenario(fixture_path("hurricane.scenario.json"))
    employment, e_candidates = load_scenario(fixture_path("employment.scenario.json"))
    q = parse_formula("Hurricane(today)=Yes", hurricane.schema)
    r = parse_formula("Solvency(c)=Healthy", employment.schema)

    findings = scan_misleading(hurricane, h_candidates)
    assert [f.render() for f in findings] == ["withholding: Hurricane(today)=Yes"]
    findings = scan_misleading(employment, e_candidates)
    assert [f.render() for f in findings] == [
        "half-truth: Position(s)=Permanent => Solvency(c)=Healthy"
    ]

    told_hurricane = _replace(
        hurricane, communicated=And(hurricane.communicated, q)
    )
    assert scan_misleading(told_hurricane, h_candidates) == []
    no_hurricane = _replace(
        hurricane,
        world=Model(
            {("Hurricane", "today"): "No", ("Sky", "today"): "Cloudy"}, {}
        ),
    )
    assert scan_misleading(no_hurricane, h_candidates) == []

    told_solvency = _replace(
        employment, communicated=And(employment.communicated, r)
    )
    assert scan_misleading(told_solvency, e_candidates) == []
    solvent_world = _replace(
        employment,
        world=Model(
            {("Position", "s"): "Permanent", ("Solvency", "c"): "Healthy"}, {}
        ),
    )
    assert scan_misleading(solvent_world, e_candidates) == []


def test_criterion_7_report_pipeline_is_stable_under_splits():
    """The fixture corpus counts 1a, 2a, 3a, 3b once each; 100 random splits merge to the same byte-identical reports."""
    lines = fixture_path("restaurant-corpus.jsonl").read_text(encoding="utf-8").splitlines()
    records, errors = ingest_corpus(lines, RESTAURANT)
    assert errors == []
    whole = tally(RESTAURANT, records)
    expected = {v: 0 for v in Verdict}
    expected.update(
        {
            Verdict.TOO_WEAK: 1,
            Verdict.TOO_STRONG: 1,
            Verdict.INDEPENDENT: 1,
            Verdict.CONFLICTING: 1,
        }
    )
    assert whole.counts == expected
    assert whole.total == 4

    renders = {fmt: render_report(whole, fmt) for fmt in REPORT_FORMATS}
    rng = random.Random(4007)
    for _ in range(100):
        shuffled = records[:]
        rng.shuffle(shuffled)
        cut = rng.randint(0, len(shuffled))
        left, right = shuffled[:cut], shuffled[cut:]
        merged = tally(RESTAURANT, left).merge(tally(RESTAURANT, right))
        assert merged == whole
        for fmt in REPORT_FORMATS:
            assert render_report(merged, fmt) == renders[fmt]


def test_criterion_8_print_parse_round_trip_on_1000_asts():
    """1,000 random formulas survive printing and reparsing unchanged."""
    rng = random.Random(4008)
    for _ in range(1000):
        ast = random_ast(rng)
        assert parse_formula(print_formula(ast), AST_SCHEMA) == ast
