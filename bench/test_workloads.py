"""Tests of the benchmark's generators and references.

Run from the root of the checkout:  python3 -m pytest bench
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads as W  # noqa: E402
from verity import ingest_corpus, oracle_classify, oracle_satisfiable, parse_formula, parse_schema  # noqa: E402


def snapshot(w: W.Workload) -> tuple:
    return (
        w.schema,
        [c.lines() for c in w.corpus],
        [c.lines() for c in w.oracle_corpus],
        [W.scenario_doc(s, "schema.schema") for s in w.scenarios],
        w.properties(),
    )


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generators_are_deterministic_for_a_seed(name):
    make = W.WORKLOADS[name]
    assert snapshot(make(7)) == snapshot(make(7))
    assert snapshot(make(7)) != snapshot(make(8))


def test_construction_gold_agrees_with_the_oracle_up_to_four_slots():
    schema = parse_schema(W.E2E_SCHEMA)
    pairs = [p for seed in range(3) for p in W.e2e_slots(seed).pairs() if p.slots <= 4]
    assert len({p.gold for p in pairs}) == 5
    for p in pairs:
        i, o = parse_formula(p.input, schema), parse_formula(p.output, schema)
        assert oracle_classify(schema, i, o).value == p.gold, p


def test_every_planted_line_is_isolated_and_no_other():
    w = W.random_mix(3)
    schema = parse_schema(w.schema)
    for chunk in w.corpus + w.oracle_corpus:
        records, errors = ingest_corpus(chunk.lines(), schema)
        assert len(errors) == len(chunk.malformed)
        assert [r.id for r in records] == [p.id for p in chunk.pairs]


def test_scenario_beliefs_are_satisfiable_with_every_told_atom():
    schema = parse_schema(W.E2E_SCHEMA)
    for spec in W.e2e_scenarios(random.Random(0), 2, True) + W.e2e_scenarios(random.Random(1), 1, False):
        for atom in spec.communicated.split(" & "):
            both = parse_formula(f"({spec.hearer_beliefs}) & {atom}", schema)
            assert oracle_satisfiable(schema, both), (spec.hearer_beliefs, atom)
