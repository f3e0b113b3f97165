"""End-to-end behavior of the command-line front end."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import verity
from randgen import random_formula, random_schema
from verity import (
    DEFAULT_ASSIGNMENT_LIMIT,
    EntailmentResult,
    FALSE,
    TRUE,
    And,
    CatAtom,
    CorpusRecord,
    Model,
    OracleDivergence,
    Not,
    ResourceLimit,
    ValueNotInDomain,
    Verdict,
    checked_classify,
    classify,
    entail,
    entails,
    format_model,
    parse_formula,
    parse_schema,
    print_formula,
    satisfiable,
    tally,
)
from verity.cli import ENV_LIMIT, main
from verity.entail import pair_cells
from verity.fixtures import fixture_path
from verity.taxonomy import PairFacts

RESTAURANT = str(fixture_path("restaurant.schema"))
TEMPERATURE = str(fixture_path("temperature.schema"))
CORPUS = str(fixture_path("restaurant-corpus.jsonl"))
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_LIMIT, raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify


def test_classify_plain(capsys):
    code, out, err = run(
        capsys, "classify", "-s", RESTAURANT, "Food(x)=Italian", "Food(x)=Norwegian"
    )
    assert (code, err) == (0, "")
    assert out == "3b-conflicting\n"


def test_classify_legacy(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "--legacy",
        "-s",
        RESTAURANT,
        "Food(x)=Italian",
        "Food(x)=Norwegian",
    )
    assert code == 0
    assert out == "3b-conflicting\ndusek: hallucination+omission\nji: intrinsic\n"


def test_classify_legacy_hallucination_only(capsys):
    code, out, _ = run(
        capsys, "classify", "--legacy", "-s", RESTAURANT, "Food(x)=Italian", "Food(x)=Italian & Price(x)=Low"
    )
    assert code == 0
    assert out == "2a-too-strong\ndusek: hallucination\nji: extrinsic\n"


def test_classify_verbose(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "--verbose",
        "-s",
        RESTAURANT,
        "Food(x)=Italian & Price(x)=Low",
        "Food(x)=Italian",
    )
    assert code == 0
    assert out == (
        "1a-too-weak\n"
        "input satisfiable: yes\n"
        "input |= output: yes\n"
        "output |= input: no\n"
        "input |= !output: no\n"
        "dusek: omission\n"
        "ji: n/a\n"
    )


def test_classify_inconsistent_input_has_no_legacy_labels(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "--legacy",
        "-s",
        RESTAURANT,
        "Food(x)=Italian & !(Food(x)=Italian)",
        "true",
    )
    assert code == 0
    assert out == "inconsistent-input\ndusek: n/a\nji: n/a\n"


def test_classify_oracle_agrees(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "--oracle",
        "-s",
        TEMPERATURE,
        "Temperature(d) > 22",
        "Temperature(d) > 21",
    )
    assert (code, out) == (0, "1a-too-weak\n")


def test_refused_pair_falls_back_to_the_input_alone(capsys):
    """The input's own search (3 nodes: the root, Italian, and Norwegian,
    which stands for the unmentioned Japanese too) fits the limit but the
    pair's joint search (6 nodes) does not: an
    unsatisfiable input is still inconsistent-input, an input over the
    limit is refused by its own search, on the node after the limit, and
    the verbose facts, which need the joint search, are refused.  Only a
    refusal falls back: an output atom outside the schema is an error."""
    schema = parse_schema(fixture_path("restaurant.schema").read_text(encoding="utf-8"))
    input_text = "Food(x)=Italian & !Food(x)=Italian"
    output_text = "Price(x)=Low & Style(x)=Vegetarian"
    input_mr = parse_formula(input_text, schema)
    output_mr = parse_formula(output_text, schema)

    assert pair_cells(schema, input_mr, output_mr, limit=6) == (False, False, True, True)
    with pytest.raises(ResourceLimit) as exc_info:
        pair_cells(schema, input_mr, output_mr, limit=5)
    assert (exc_info.value.required, exc_info.value.limit) == (6, 5)
    assert not satisfiable(schema, input_mr, limit=3)
    assert classify(schema, input_mr, output_mr, limit=3) is Verdict.INCONSISTENT_INPUT
    with pytest.raises(ResourceLimit) as exc_info:
        classify(schema, input_mr, output_mr, limit=2)
    assert (exc_info.value.required, exc_info.value.limit) == (3, 2)
    outside_schema = CatAtom("Food", "x", "Sushi")
    for fn in (classify, checked_classify):
        with pytest.raises(ValueNotInDomain):
            fn(schema, input_mr, outside_schema)

    args = ("-s", RESTAURANT, "--limit", "3", input_text, output_text)
    assert run(capsys, "classify", *args)[:2] == (0, "inconsistent-input\n")
    assert run(capsys, "classify", "-v", *args) == (
        3, "", "error: 4 search nodes exceeds limit 3\n"
    )

    record = CorpusRecord("r", input_mr, output_mr, 1)
    at_3, at_2 = (partial(classify, schema, limit=n) for n in (3, 2))
    assert tally(schema, [record], classify_fn=at_3).counts[Verdict.INCONSISTENT_INPUT] == 1
    assert tally(schema, [record], classify_fn=at_2).resource_limited == 1


def _count_searches(monkeypatch) -> list:
    calls = []
    search = entail._search

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(entail, "_search", counting)
    return calls


QUESTIONS = [
    ("classify", "Food(x)=Italian & Price(x)=Low", "Food(x)=Italian"),
    ("classify", "-v", "Food(x)=Italian & Price(x)=Low", "Food(x)=Italian"),
    ("classify", "-v", "Food(x)=Italian", "Food(x)=Italian | Price(x)=Low"),
    ("check", "entails", "Food(x)=Italian", "Price(x)=Low"),
    ("check", "entails", "-v", "Food(x)=Italian", "Price(x)=Low"),
    ("check", "sat", "Food(x)=Italian"),
    ("check", "sat", "-v", "Food(x)=Italian"),
    ("check", "taut", "-v", "Food(x)=Italian"),
    ("check", "contra", "Food(x)=Italian"),
    ("check", "contra", "-v", "Food(x)=Italian"),
]


# --oracle swaps each engine call for its checked twin; it adds no pass.
@pytest.mark.parametrize("argv", QUESTIONS + [q + ("--oracle",) for q in QUESTIONS])
def test_one_enumeration_per_question(capsys, monkeypatch, argv):
    calls = _count_searches(monkeypatch)
    code, _, err = run(capsys, *argv, "-s", RESTAURANT)
    assert (code, err) == (0, "")
    assert len(calls) == 1


def test_report_oracle_decides_each_record_once(capsys, monkeypatch):
    calls = _count_searches(monkeypatch)
    assert run(capsys, "report", "--oracle", "-s", RESTAURANT, CORPUS) == (0, REPORT_TEXT, "")
    assert len(calls) == 4


@pytest.mark.parametrize(
    "limit, decided, line",
    [((), 4, "gold matches: 4/4\n"), (("--limit", "8"), 3, "resource limited: 1\n")],
)
def test_report_oracle_checks_each_decided_record(capsys, monkeypatch, limit, decided, line):
    """report --oracle decides every record through the CLI's
    checked_classify; the oracle sees each record that got a verdict.  The
    records need 7, 9, 8 and 8 nodes, so --limit 8 refuses one."""
    calls = {"checked": 0, "oracle": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr("verity.cli.checked_classify", counting("checked", verity.cli.checked_classify))
    monkeypatch.setattr("verity.oracle.oracle_classify", counting("oracle", verity.oracle.oracle_classify))
    code, out, err = run(capsys, "report", "--oracle", "-s", RESTAURANT, CORPUS, *limit)
    assert (code, err) == (0, "")
    assert line in out
    assert calls == {"checked": 4, "oracle": decided}


@pytest.mark.parametrize(
    "command, flag",
    [
        ("classify", "--format=json"),
        ("check", "--format=json"),
        ("check", "--legacy"),
        ("report", "--legacy"),
        ("report", "-v"),
        ("bdi", "-s=x.schema"),
        ("bdi", "--format=json"),
        ("bdi", "--legacy"),
        ("bdi", "-v"),
    ],
)
def test_subcommands_reject_flags_they_do_not_read(capsys, command, flag):
    # Left-over arguments are reported by the whole parser, under its own
    # usage line, whichever parser read the command's arguments.
    operands = {
        "classify": ("-s", RESTAURANT, "true", "true"),
        "check": ("sat", "-s", RESTAURANT, "true"),
        "report": ("-s", RESTAURANT, CORPUS),
        "bdi": (str(fixture_path("hurricane.scenario.json")),),
    }[command]
    code, out, err = run(capsys, command, flag, *operands)
    assert (code, out) == (2, "")
    assert err == f"usage: verity [-h] COMMAND ...\nverity: error: unrecognized arguments: {flag}\n"


@pytest.mark.parametrize(
    "args, surplus",
    [
        (("classify", "-s", RESTAURANT, "true", "true", "x"), "x"),
        # FORMULA takes one or more, so only an operand after an option is left over.
        (("check", "sat", "true", "-s", RESTAURANT, "x"), "x"),
        (("report", "-s", RESTAURANT, CORPUS, "x"), "x"),
        (("bdi", "a", "b"), "b"),
    ],
    ids=["classify", "check", "report", "bdi"],
)
def test_subcommands_reject_a_surplus_operand(capsys, args, surplus):
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err == f"usage: verity [-h] COMMAND ...\nverity: error: unrecognized arguments: {surplus}\n"


def test_report_jobs_is_gone(capsys):
    code, _, err = run(capsys, "report", "--jobs", "2", "-s", RESTAURANT, CORPUS)
    assert code == 2
    assert "--jobs" in err


def test_classify_requires_schema(capsys):
    code, _, err = run(capsys, "classify", "Food(x)=Italian", "true")
    assert code == 2
    assert "--schema is required" in err


def test_classify_formula_error(capsys):
    code, _, err = run(capsys, "classify", "-s", RESTAURANT, "Food(x)=Sushi", "true")
    assert code == 2
    assert err.startswith("error: ")
    assert "Sushi" in err


def test_classify_zero_denominator(capsys):
    code, out, err = run(
        capsys, "classify", "-s", TEMPERATURE, "Temperature(d) > 1/0", "true"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert "zero denominator" in err


def test_classify_numeral_with_too_many_digits(capsys):
    code, out, err = run(
        capsys, "classify", "-s", TEMPERATURE, "Temperature(d) > " + "1" * 5000, "true"
    )
    assert (code, out, err) == (2, "", "error: 1:18: numeric constant of 5000 characters has too many digits\n")


def test_check_sat_witness_with_a_denominator_longer_than_str_converts(capsys):
    # Both constants parse; the witness, their midpoint, has a 5000-digit
    # denominator.
    low, high = Fraction(1, int("3" * 2500)), Fraction(1, int("3" * 2499 + "2"))
    code, out, err = run(
        capsys, "check", "sat", "-v", "-s", TEMPERATURE,
        f"Temperature(d) > 1/{low.denominator} & Temperature(d) < 1/{high.denominator}",
    )
    assert (code, err) == (0, "")
    answer, witness = out.splitlines()
    assert answer == "yes"
    p, q = witness.removeprefix("witness: Temperature(d)=").split("/")
    assert Fraction(int(Decimal(p)), int(Decimal(q))) == (low + high) / 2


def test_schema_not_utf8(capsys, tmp_path):
    schema = tmp_path / "bad.schema"
    schema.write_bytes(b"attr Food : { Italian, Caf\xe9 }\n")
    code, out, err = run(capsys, "classify", "-s", str(schema), "true", "true")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert "not valid UTF-8" in err


def test_classify_missing_schema_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "classify", "-s", str(tmp_path / "nope.schema"), "true", "true"
    )
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# check


def test_check_entails_yes(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "entails",
        "-s",
        TEMPERATURE,
        "Temperature(d) > 23",
        "Temperature(d) > 22",
    )
    assert (code, out) == (0, "yes\n")


def test_check_entails_no_with_countermodel(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "entails",
        "--verbose",
        "-s",
        TEMPERATURE,
        "Temperature(d) > 22",
        "Temperature(d) > 23",
    )
    assert code == 0
    assert out == "no\ncountermodel: Temperature(d)=22.5\n"


def test_check_sat_with_witness(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "sat",
        "--verbose",
        "-s",
        RESTAURANT,
        "Food(x)=Italian & Type(x)=Pub",
    )
    assert code == 0
    assert out == "yes\nwitness: Food(x)=Italian, Type(x)=Pub\n"


def test_check_taut(capsys):
    code, out, _ = run(
        capsys, "check", "taut", "-s", RESTAURANT, "Food(x)=Italian | !(Food(x)=Italian)"
    )
    assert (code, out) == (0, "yes\n")


def test_check_taut_no_with_countermodel(capsys):
    code, out, _ = run(
        capsys, "check", "taut", "--verbose", "-s", RESTAURANT, "Food(x)=Italian"
    )
    assert (code, out) == (0, "no\ncountermodel: Food(x)=Norwegian\n")


def test_check_contra(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "contra",
        "-s",
        RESTAURANT,
        "Food(x)=Italian & Food(x)=Norwegian",
    )
    assert (code, out) == (0, "yes\n")


def test_check_contra_no_with_witness(capsys):
    code, out, _ = run(
        capsys, "check", "contra", "--verbose", "-s", RESTAURANT, "Food(x)=Italian"
    )
    assert (code, out) == (0, "no\nwitness: Food(x)=Italian\n")


def test_check_wrong_arity(capsys):
    code, _, err = run(capsys, "check", "entails", "-s", RESTAURANT, "true")
    assert code == 2
    assert "takes exactly 2" in err


def test_check_unknown_kind(capsys):
    code, _, err = run(capsys, "check", "equiv", "-s", RESTAURANT, "true")
    assert code == 2
    assert "invalid choice" in err


def test_no_command(capsys):
    assert main([]) == 2


# Each kind as the (a, b) of the entailment question check asks, and as
# the satisfiability question that decides it too: sat answers yes, and the
# other kinds no, exactly when that question has a model, which is the
# model shown.
CHECK_KINDS = {
    "entails": (lambda f, g: (f, g), lambda f, g: And(f, Not(g)), "countermodel"),
    "sat": (lambda f, g: (f, FALSE), lambda f, g: f, "witness"),
    "taut": (lambda f, g: (TRUE, f), lambda f, g: Not(f), "countermodel"),
    "contra": (lambda f, g: (f, FALSE), lambda f, g: f, "witness"),
}


def _schema_text(schema):
    lines = [f"attr {attr} : {{ {', '.join(vals)} }}" for attr, vals in schema.categorical.items()]
    return "\n".join(lines + [f"num {attr}" for attr in sorted(schema.numeric)]) + "\n"


def _outcome(fn, schema, *formulas, limit):
    try:
        result = fn(schema, *formulas, limit=limit)
    except ResourceLimit as exc:
        return exc.required
    return result.holds, result.witness


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(sorted(CHECK_KINDS)),
    limit=st.sampled_from([1, 2, 3, 5, 8, 13, DEFAULT_ASSIGNMENT_LIMIT]),
    oracle=st.booleans(),
)
def test_check_entailment_equals_the_satisfiability_question(tmp_path_factory, seed, kind, limit, oracle):
    """entails(a, b) gives the answer, witness and refusal size of the
    satisfiability question each kind stands for, and check KIND -v
    prints that answer and witness."""
    rng = random.Random(seed)
    schema = random_schema(rng)
    f, g = random_formula(rng, schema), random_formula(rng, schema)
    ask, question, label = CHECK_KINDS[kind]
    expected = _outcome(satisfiable, schema, question(f, g), limit=limit)
    asked = _outcome(entails, schema, *ask(f, g), limit=limit)
    if isinstance(expected, int):
        assert asked == expected
        stdout, stderr, code = "", f"error: {expected} search nodes exceeds limit {limit}\n", 3
    else:
        has_model, witness = expected
        assert asked == (not has_model, witness)
        stdout = "yes\n" if has_model == (kind == "sat") else "no\n"
        if witness is not None:
            stdout += f"{label}: {format_model(witness)}\n"
        stderr, code = "", 0

    schema_path = tmp_path_factory.getbasetemp() / "check.schema"
    schema_path.write_text(_schema_text(schema), encoding="utf-8")
    texts = [print_formula(x) for x in (f, g)[: 2 if kind == "entails" else 1]]
    argv = ["check", kind, "-v", "-s", str(schema_path), "--limit", str(limit), *texts]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv + ["--oracle"] * oracle) == code
    assert (out.getvalue(), err.getvalue()) == (stdout, stderr)


# ---------------------------------------------------------------------------
# report

REPORT_TEXT = """\
category               count  frequency
0-well-matched             0     0.0000
1a-too-weak                1     0.2500
1b-tautologous             0     0.0000
2a-too-strong              1     0.2500
2b-self-contradictory      0     0.0000
3a-independent             1     0.2500
3b-conflicting             1     0.2500
inconsistent-input         0     0.0000
total                      4
gold matches: 4/4
"""


def test_report_text(capsys):
    code, out, err = run(capsys, "report", "-s", RESTAURANT, CORPUS)
    assert (code, err) == (0, "")
    assert out == REPORT_TEXT


def test_report_csv(capsys):
    code, out, _ = run(capsys, "report", "--format", "csv", "-s", RESTAURANT, CORPUS)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "category,count,frequency"
    assert "1a-too-weak,1,0.2500" in lines
    assert lines[-3:] == ["gold-matches,4,", "gold-total,4,", "total,4,"]


def test_report_json(capsys):
    code, out, _ = run(capsys, "report", "--format", "json", "-s", RESTAURANT, CORPUS)
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 4
    assert doc["categories"]["3b-conflicting"] == {"count": 1, "frequency": "0.2500"}
    assert doc["gold_matches"] == 4


TEMPERATURE_CORPUS = str(fixture_path("temperature-corpus.jsonl"))
TEMPERATURE_REPORT = """\
category               count  frequency
0-well-matched             1     0.1111
1a-too-weak                2     0.2222
1b-tautologous             1     0.1111
2a-too-strong              1     0.1111
2b-self-contradictory      1     0.1111
3a-independent             1     0.1111
3b-conflicting             1     0.1111
inconsistent-input         1     0.1111
total                      9
parse failures: 1
gold matches: 9/9
"""


@pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["engine", "oracle"])
def test_report_on_the_numeric_corpus_matches_gold(capsys, oracle):
    """The numeric demo corpus repeats its atoms across records, with
    fractional constants written two ways, and holds every verdict: each
    of its nine records matches gold, and its one malformed line, a value
    name compared with the numeric attribute, is reported and counted."""
    error = "line 7: field 'input': 1:20: attribute 'Temperature' is numeric; compared against 'Mild'\n"
    code, out, err = run(capsys, "report", *oracle, "-s", TEMPERATURE, TEMPERATURE_CORPUS)
    assert (code, out, err) == (0, TEMPERATURE_REPORT, error)
    code, out, err = run(capsys, "report", *oracle, "--format", "json", "-s", TEMPERATURE, TEMPERATURE_CORPUS)
    doc = json.loads(out)
    assert (code, err) == (0, error)
    assert (doc["total"], doc["parse_failures"], doc["gold_matches"], doc["gold_total"]) == (9, 1, 9, 9)
    assert all(c["count"] == 1 for name, c in doc["categories"].items() if name != "1a-too-weak")


def test_report_is_deterministic(capsys):
    first = run(capsys, "report", "-s", RESTAURANT, CORPUS)
    second = run(capsys, "report", "-s", RESTAURANT, CORPUS)
    assert first == second


def test_report_oracle(capsys):
    code, out, _ = run(capsys, "report", "--oracle", "-s", RESTAURANT, CORPUS)
    assert code == 0
    assert out == REPORT_TEXT


def test_report_bad_lines_go_to_stderr(capsys, tmp_path):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(
        '{"id": "a", "input": "true", "output": "true"}\n'
        "garbage\n"
        '{"id": "b", "input": "true", "output": "Food(x)=Italian"}\n',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "report", "-s", RESTAURANT, str(corpus))
    assert code == 0
    assert err.startswith("line 2: not valid JSON")
    assert "parse failures: 1" in out
    assert "total                      2" in out


def test_report_survives_a_line_that_is_not_utf8(capsys, tmp_path):
    corpus = tmp_path / "c.jsonl"
    corpus.write_bytes(
        b'{"id": "a", "input": "true", "output": "true"}\n'
        b'{"id": "b\xff", "input": "true", "output": "true"}\n'
        b"\xfe\xff\n"
        b'{"id": "c", "input": "true", "output": "Food(x)=Italian"}\n'
        b'{"id": "d", "input": "Temperature(d) > 1/0", "output": "true"}\n'
    )
    code, out, err = run(capsys, "report", "-s", RESTAURANT, str(corpus))
    assert code == 0
    assert err.splitlines()[:2] == ["line 2: not valid UTF-8", "line 3: not valid UTF-8"]
    assert "parse failures: 3" in out
    assert "total                      2" in out


def test_report_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "report", "-s", RESTAURANT, str(tmp_path / "no.jsonl"))
    assert code == 2
    assert "error:" in err


def test_report_unknown_format(capsys):
    code, _, err = run(capsys, "report", "--format", "xml", "-s", RESTAURANT, CORPUS)
    assert code == 4
    assert "unknown report format 'xml'" in err


# ---------------------------------------------------------------------------
# bdi


def test_bdi_hurricane(capsys):
    code, out, err = run(capsys, "bdi", str(fixture_path("hurricane.scenario.json")))
    assert (code, err) == (0, "")
    assert out == "withholding: Hurricane(today)=Yes\n"


def test_bdi_employment(capsys):
    code, out, _ = run(capsys, "bdi", str(fixture_path("employment.scenario.json")))
    assert code == 0
    assert out == "half-truth: Position(s)=Permanent => Solvency(c)=Healthy\n"


def test_bdi_oracle(capsys):
    code, out, _ = run(
        capsys, "bdi", "--oracle", str(fixture_path("hurricane.scenario.json"))
    )
    assert (code, out) == (0, "withholding: Hurricane(today)=Yes\n")


@pytest.mark.parametrize("flags", [(), ("--oracle",)], ids=["engine", "oracle"])
def test_bdi_lying_speaker(capsys, flags):
    # The world satisfies neither what was communicated nor the beliefs.
    path = str(fixture_path("lying.scenario.json"))
    assert run(capsys, "bdi", *flags, path) == (
        0,
        "half-truth: Temperature(today) > 20 => Hurricane(today)=No\n"
        "half-truth: Temperature(today) >= 22 => Hurricane(today)=No\n"
        "withholding: Hurricane(today)=Yes\n"
        "withholding: Temperature(today) = 22\n",
        "",
    )


def test_bdi_no_findings(capsys, tmp_path):
    (tmp_path / "w.schema").write_text(
        "attr Hurricane : { Yes, No }\nattr Sky : { Cloudy, Clear, Rainy }\n",
        encoding="utf-8",
    )
    scenario = tmp_path / "s.json"
    scenario.write_text(
        json.dumps(
            {
                "schema": "w.schema",
                "communicated": "Sky(today)=Cloudy & Hurricane(today)=Yes",
                "hearer_beliefs": "true",
                "world": {"Hurricane(today)": "Yes", "Sky(today)": "Cloudy"},
                "norms": ["Hurricane(today)=Yes"],
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "bdi", str(scenario))
    assert (code, out) == (0, "no findings\n")


@pytest.mark.parametrize("flags", [(), ("--oracle",)], ids=["engine", "oracle"])
def test_bdi_checks_a_compound_norm_without_candidates(capsys, tmp_path, flags):
    doc = json.loads(fixture_path("hurricane.scenario.json").read_text(encoding="utf-8"))
    norm = "Hurricane(today)=Yes | Sky(today)=Clear"
    doc.update(schema=str(fixture_path(doc["schema"])), norms=[norm])
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, "bdi", *flags, str(scenario)) == (0, f"withholding: {norm}\n", "")


@pytest.mark.parametrize("bad", ["scenario", "schema"])
def test_bdi_file_not_utf8(capsys, tmp_path, bad):
    (tmp_path / "w.schema").write_bytes(
        b"attr Sky : { Clear, Caf\xe9 }\n" if bad == "schema" else b"attr Sky : { Clear }\n"
    )
    doc = json.dumps(
        {
            "schema": "w.schema",
            "communicated": "true",
            "hearer_beliefs": "true",
            "world": {"Sky(today)": "Clear"},
            "norms": [],
        }
    ).encode("utf-8")
    scenario = tmp_path / "s.json"
    scenario.write_bytes(doc.replace(b'"true"', b'"\xfftrue"', 1) if bad == "scenario" else doc)
    code, out, err = run(capsys, "bdi", str(scenario))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert "not valid UTF-8" in err


@pytest.mark.parametrize("via", ["flag", "env"])
def test_bdi_limit_caps_the_beliefs_check(capsys, tmp_path, monkeypatch, via):
    # The scan asks no question (its one candidate is false in the world),
    # so only the satisfiability check of the beliefs can refuse: 5 nodes,
    # the root, both Hurricane values, then Sky(today)=Cloudy (standing for
    # the unmentioned Clear too) and Rainy under Hurricane(today)=No.
    (tmp_path / "w.schema").write_text(
        "attr Hurricane : { Yes, No }\nattr Sky : { Cloudy, Clear, Rainy }\n",
        encoding="utf-8",
    )
    scenario = tmp_path / "s.json"
    scenario.write_text(
        json.dumps(
            {
                "schema": "w.schema",
                "communicated": "Sky(today)=Cloudy",
                "hearer_beliefs": "Hurricane(today)=No & Sky(today)=Rainy",
                "world": {"Hurricane(today)": "Yes", "Sky(today)": "Cloudy"},
                "norms": ["Hurricane(today)=Yes"],
                "candidates": ["Hurricane(today)=No"],
            }
        ),
        encoding="utf-8",
    )

    def bdi(limit):
        if via == "env":
            monkeypatch.setenv(ENV_LIMIT, str(limit))
            return run(capsys, "bdi", str(scenario))
        return run(capsys, "bdi", "--limit", str(limit), str(scenario))

    assert bdi(3) == (3, "", "error: 4 search nodes exceeds limit 3\n")
    assert bdi(4) == (3, "", "error: 5 search nodes exceeds limit 4\n")
    assert bdi(5) == (0, "no findings\n", "")


def test_bdi_invalid_scenario(capsys, tmp_path):
    bad = tmp_path / "s.json"
    bad.write_text("{broken", encoding="utf-8")
    code, _, err = run(capsys, "bdi", str(bad))
    assert code == 2
    assert "not valid JSON" in err


# ---------------------------------------------------------------------------
# hostile input: formulas deeper than the interpreter's recursion limit

LONG_AND = " & ".join(("Food(x)=Italian", "Price(x)=Low", "Style(x)=Vegetarian")[i % 3] for i in range(1500))
DEEP_NOT = "!" * 2000 + "Food(x)=Italian"
# 3000 parentheses deep, switching between '&' and '|' at each one
DEEP_PARENS = "Food(x)=Italian & (Price(x)=Low | (" * 1500 + "Style(x)=Vegetarian" + "))" * 1500


@pytest.mark.parametrize(
    "text", [LONG_AND, DEEP_NOT, DEEP_PARENS], ids=["long-and", "deep-not", "deep-parens"]
)
def test_classify_verbose_oracle_on_deep_formulas(capsys, text):
    argv = ("classify", "-v", "-s", RESTAURANT, text, "Food(x)=Italian")
    code, engine_out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert engine_out.split("\n")[0] == ("0-well-matched" if text is DEEP_NOT else "1a-too-weak")
    assert run(capsys, *argv, "--oracle") == (0, engine_out, "")


def test_report_oracle_on_deep_formulas(capsys, tmp_path):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(
        "".join(
            json.dumps({"id": str(n), "input": text, "output": "Food(x)=Italian"}) + "\n"
            for n, text in enumerate([LONG_AND, DEEP_NOT, "!" + DEEP_NOT, DEEP_PARENS])
        ),
        encoding="utf-8",
    )
    code, engine_out, err = run(capsys, "report", "-s", RESTAURANT, str(corpus))
    assert (code, err) == (0, "")
    assert "total                      4\n" in engine_out
    assert run(capsys, "report", "--oracle", "-s", RESTAURANT, str(corpus)) == (0, engine_out, "")


@pytest.mark.parametrize("opener", ["(", "!("])
def test_classify_decides_parentheses_nested_200_deep(capsys, opener):
    text = opener * 200 + "Food(x)=Italian" + ")" * 200
    argv = ("classify", "-s", RESTAURANT, text, "true")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, "1b-tautologous\n", "")
    assert run(capsys, *argv, "--oracle") == (0, out, "")


@pytest.mark.parametrize("flags", [(), ("--oracle",)])
@pytest.mark.parametrize(
    "communicated",
    [
        " & ".join(["Sky(today)=Cloudy"] * 1500),
        "!" * 2000 + "Sky(today)=Cloudy",
        "Sky(today)=Cloudy & (Sky(today)=Clear | (" * 1500 + "Sky(today)=Cloudy" + "))" * 1500,
    ],
    ids=["long-and", "deep-not", "deep-parens"],
)
def test_bdi_on_deep_communicated(capsys, tmp_path, communicated, flags):
    (tmp_path / "w.schema").write_text(
        "attr Hurricane : { Yes, No }\nattr Sky : { Cloudy, Clear }\n", encoding="utf-8"
    )
    scenario = tmp_path / "s.json"
    scenario.write_text(
        json.dumps(
            {
                "schema": "w.schema",
                "communicated": communicated,
                "hearer_beliefs": "true",
                "world": {"Hurricane(today)": "Yes", "Sky(today)": "Cloudy"},
                "norms": ["Hurricane(today)=Yes"],
            }
        ),
        encoding="utf-8",
    )
    assert run(capsys, "bdi", *flags, str(scenario)) == (
        0, "withholding: Hurricane(today)=Yes\n", "",
    )


@pytest.mark.parametrize("flags", [(), ("--oracle",)])
def test_bdi_on_deep_candidates_and_norms(capsys, tmp_path, flags):
    deep = "!" * 2000 + "Hurricane(today)=Yes"
    doc = json.loads(fixture_path("hurricane.scenario.json").read_text(encoding="utf-8"))
    doc.update(schema=str(fixture_path(doc["schema"])), candidates=[deep], norms=[deep])
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    printed = "!(" * 2000 + "Hurricane(today)=Yes" + ")" * 2000
    assert run(capsys, "bdi", *flags, str(scenario)) == (0, f"withholding: {printed}\n", "")


def test_bdi_scenario_nested_past_the_json_decoder(capsys, tmp_path):
    scenario = tmp_path / "s.json"
    scenario.write_text("[" * 100000, encoding="utf-8")
    code, out, err = run(capsys, "bdi", str(scenario))
    assert (code, out) == (2, "")
    assert err == f"error: {scenario}: JSON nested too deeply\n"


# ---------------------------------------------------------------------------
# limits and exit codes


def test_limit_flag_exhausted(capsys):
    code, _, err = run(
        capsys, "classify", "--limit", "1", "-s", RESTAURANT, "Food(x)=Italian", "true"
    )
    assert code == 3
    assert "exceeds limit 1" in err


def test_limit_env_exhausted(capsys, monkeypatch):
    monkeypatch.setenv(ENV_LIMIT, "1")
    code, _, err = run(capsys, "classify", "-s", RESTAURANT, "Food(x)=Italian", "true")
    assert code == 3
    assert "exceeds limit 1" in err


def test_limit_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv(ENV_LIMIT, "1")
    code, out, _ = run(
        capsys, "classify", "--limit", "3", "-s", RESTAURANT, "Food(x)=Italian", "true"
    )
    assert (code, out) == (0, "1b-tautologous\n")


def test_limit_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv(ENV_LIMIT, "plenty")
    code, _, err = run(capsys, "classify", "-s", RESTAURANT, "true", "true")
    assert code == 2
    assert "must be an integer" in err


LIMITED = [
    ("classify", "-s", RESTAURANT, "true", "true"),
    ("check", "sat", "-s", RESTAURANT, "true"),
    ("report", "-s", RESTAURANT, CORPUS),
    ("bdi", str(fixture_path("hurricane.scenario.json"))),
]


@pytest.mark.parametrize("argv", LIMITED, ids=lambda argv: argv[0])
@pytest.mark.parametrize(
    "flag, env, stderr",
    [
        (("--limit", "-3"), None, "--limit must be a non-negative integer, got -3"),
        ((), "-3", f"{ENV_LIMIT} must be a non-negative integer, got '-3'"),
    ],
    ids=["flag", "env"],
)
def test_negative_limit_is_a_usage_error(capsys, monkeypatch, argv, flag, env, stderr):
    if env is not None:
        monkeypatch.setenv(ENV_LIMIT, env)
    assert run(capsys, *argv, *flag) == (2, "", f"error: {stderr}\n")


@pytest.mark.parametrize("argv", LIMITED, ids=lambda argv: argv[0])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_zero_limit_refuses_every_decision(capsys, monkeypatch, argv, via):
    """A budget of 0 nodes is valid; it refuses every decision, and a
    report buckets each record instead of exiting."""
    if via == "env":
        monkeypatch.setenv(ENV_LIMIT, "0")
    else:
        argv += ("--limit", "0")
    code, out, err = run(capsys, *argv)
    if argv[0] == "report":
        assert (code, err) == (0, "")
        assert "resource limited: 4\n" in out
    else:
        assert (code, out, err) == (3, "", "error: 1 search nodes exceeds limit 0\n")


def test_oracle_divergence_exit_code(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise OracleDivergence("classify mismatch on a pair")

    monkeypatch.setattr("verity.cli.checked_classify", explode)
    code, _, err = run(
        capsys, "classify", "--oracle", "-s", RESTAURANT, "true", "true"
    )
    assert code == 5
    assert err.startswith("oracle divergence:")


@pytest.mark.parametrize(
    "argv, wrong, stderr",
    [
        (
            ("classify", "-v", "Food(x)=Italian", "Food(x)=Norwegian"),
            "classify",
            "classify('Food(x)=Italian', 'Food(x)=Norwegian'): "
            "engine says 3b-conflicting, oracle says 0-well-matched",
        ),
        (
            ("check", "entails", "Food(x)=Italian", "Price(x)=Low"),
            "entails",
            "entails('Food(x)=Italian', 'Price(x)=Low'): engine says False, oracle says True",
        ),
        (
            ("check", "taut", "-v", "Food(x)=Italian"),
            "entails",
            "entails('true', 'Food(x)=Italian'): engine says False, oracle says True",
        ),
        (
            ("report", CORPUS),
            "classify",
            "classify('Type(x)=Restaurant & Food(x)=Italian & Price(x)=Low', "
            "'Type(x)=Restaurant & Food(x)=Italian'): engine says 1a-too-weak, oracle says 0-well-matched",
        ),
    ],
    ids=["classify-v", "check-entails", "check-taut-v", "report"],
)
def test_divergence_exits_5_with_empty_stdout(capsys, monkeypatch, argv, wrong, stderr):
    """The oracle is patched to answer wrongly; the engine's answer is never printed."""
    if wrong == "classify":
        monkeypatch.setattr(
            "verity.oracle.oracle_decide",
            lambda *a: PairFacts(True, True, True, False, Verdict.WELL_MATCHED),
        )
    else:
        monkeypatch.setattr(
            "verity.oracle.oracle_entails",
            lambda schema, a, b: not entail.entails(schema, a, b).holds,
        )
    code, out, err = run(capsys, *argv, "--oracle", "-s", RESTAURANT)
    assert (code, out) == (5, "")
    assert err == f"oracle divergence: {stderr}\n"


def test_a_wrong_fact_beside_a_right_verdict_exits_5(capsys, monkeypatch):
    """The engine is patched to find a !input & output model of an
    inconsistent input, which changes only the line output |= input."""
    def flipped(schema, a, b, **kw):
        both, input_only, output_only, neither = pair_cells(schema, a, b, **kw)
        if not (both or input_only):
            output_only = not output_only
        return both, input_only, output_only, neither

    monkeypatch.setattr("verity.taxonomy.pair_cells", flipped)
    argv = ("-s", RESTAURANT, "Food(x)=Italian & !Food(x)=Italian", "Price(x)=Low")
    code, out, err = run(capsys, "classify", "-v", "--oracle", *argv)
    assert (code, out) == (5, "")
    assert err == (
        "oracle divergence: classify('Food(x)=Italian & !(Food(x)=Italian)', 'Price(x)=Low'): "
        "engine says backward=True, oracle says backward=False\n"
    )
    # Unchecked, the engine's wrong line is printed.
    code, out, _ = run(capsys, "classify", "-v", *argv)
    assert code == 0 and "output |= input: yes\n" in out


@pytest.mark.parametrize(
    "argv, question, wrong",
    [
        (
            ("sat", "Food(x)=Italian & Type(x)=Pub"),
            "'Food(x)=Italian & Type(x)=Pub', 'false'",
            {("Food", "x"): "Norwegian", ("Type", "x"): "Restaurant"},
        ),
        (
            ("entails", "Food(x)=Italian", "Price(x)=Low"),
            "'Food(x)=Italian', 'Price(x)=Low'",
            {("Food", "x"): "Norwegian", ("Price", "x"): "Low"},
        ),
        (
            ("taut", "Food(x)=Italian | Price(x)=Low"),
            "'true', 'Food(x)=Italian | Price(x)=Low'",
            {("Food", "x"): "Italian", ("Price", "x"): "High"},
        ),
        (
            # Evaluated, it makes the first true and the second false, but
            # Sushi is outside Food's domain.
            ("taut", "Food(x)=Italian | Price(x)=Low"),
            "'true', 'Food(x)=Italian | Price(x)=Low'",
            {("Food", "x"): "Sushi", ("Price", "x"): "High"},
        ),
        (
            ("entails", "Food(x)=Italian", "Price(x)=Low"),
            "'Food(x)=Italian', 'Price(x)=Low'",
            {},
        ),
    ],
    ids=["sat", "entails", "taut", "outside-domain", "empty"],
)
def test_a_wrong_witness_exits_5_with_empty_stdout(capsys, monkeypatch, argv, question, wrong):
    """The engine's witness is patched to other values, outside the domain,
    or none at all; its answer stays right, so only the witness check can
    catch it."""
    model = Model(wrong, {})
    monkeypatch.setattr(
        "verity.oracle.entails",
        lambda schema, a, b, **kw: EntailmentResult(entails(schema, a, b, **kw).holds, model),
    )
    code, out, err = run(capsys, "check", *argv, "-v", "--oracle", "-s", RESTAURANT)
    assert (code, out) == (5, "")
    assert err == (
        f"oracle divergence: entails({question}): engine's countermodel {format_model(model)} "
        "does not make the first true and the second false\n"
    )


def test_module_entry_point():
    # The child process imports the same verity as this test does.
    src = str(Path(verity.__file__).resolve().parents[1])
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "verity.cli",
            "classify",
            "-s",
            RESTAURANT,
            "Food(x)=Italian",
            "Food(x)=Norwegian",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))},
    )
    assert proc.returncode == 0
    assert proc.stdout == "3b-conflicting\n"


def _run_with_closed(args, unbuffered, closed="stdout"):
    """Run the module entry point with the stream ``closed`` ("stdout",
    "stderr" or None) a pipe whose read end is already closed, as after
    ``verity ... | head`` when head has exited; the others are read."""
    src = str(Path(verity.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    if closed:
        streams[closed] = write_end
    try:
        return subprocess.run(
            [sys.executable, "-m", "verity.cli", *args],
            text=True,
            env=env,
            **streams,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_1_in_silence(unbuffered):
    """Output that finds no reader is exit 1 with nothing on stderr,
    whether it is written at the final flush or print by print."""
    proc = _run_with_closed(
        ["classify", "-v", "-s", TEMPERATURE, "Temperature(d) = 7/3", "Temperature(d) > 2 & Temperature(d) < 12/5"],
        unbuffered,
    )
    assert (proc.returncode, proc.stderr) == (1, "")


def test_an_unreadable_file_is_exit_2_with_stdout_closed(tmp_path):
    proc = _run_with_closed(
        ["classify", "-s", str(tmp_path / "missing.schema"), "A(x)=B", "A(x)=B"], False
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: [Errno 2] No such file or directory: ")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "args, code",
    [
        (["classify", "-s", "missing.schema", "A(x)=B", "A(x)=B"], 2),
        (["classify", "--limit", "1", "-s", RESTAURANT, "Food(x)=Italian", "Food(x)=Norwegian"], 3),
    ],
    ids=["exit-2", "exit-3"],
)
def test_a_closed_stderr_keeps_the_exit_code(tmp_path, args, code, unbuffered):
    """An error message that finds no reader is lost, and nothing else:
    the exit code is the error's, not that of a closed stdout."""
    args = [str(tmp_path / a) if a == "missing.schema" else a for a in args]
    proc = _run_with_closed(args, unbuffered, closed="stderr")
    assert (proc.returncode, proc.stdout) == (code, "")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stderr_keeps_the_report(tmp_path, unbuffered):
    """A corpus line that does not parse is reported on stderr; with no
    reader there, the report is still printed in full, with exit 0."""
    with open(CORPUS, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("\n".join([lines[0], "{not json", *lines[1:]]) + "\n", encoding="utf-8")
    args = ["report", "-s", RESTAURANT, str(corpus)]
    expected = _run_with_closed(args, unbuffered, closed=None)
    assert (expected.returncode, expected.stderr.count("\n")) == (0, 1)
    assert "parse failures: 1" in expected.stdout
    proc = _run_with_closed(args, unbuffered, closed="stderr")
    assert (proc.returncode, proc.stdout) == (0, expected.stdout)


# ---------------------------------------------------------------------------
# README examples


def _readme_examples():
    """Each ``$ verity ...`` command in a README.md ``sh`` block, with the
    stdout lines shown under it."""
    examples = []
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for example in re.split(r"\n(?=\$ )", block.replace("\\\n", " ").strip()):
            command, *stdout = example.rstrip("\n").split("\n")
            if command.startswith("$ verity "):
                examples.append((shlex.split(command[2:]), stdout))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_has_every_example():
    assert [argv[:2] for argv, _ in README_EXAMPLES] == [
        ["verity", "classify"],
        ["verity", "classify"],
        ["verity", "check"],
        ["verity", "report"],
        ["verity", "bdi"],
        ["verity", "bdi"],
        ["verity", "bdi"],
    ]


@pytest.mark.parametrize("argv, stdout", README_EXAMPLES, ids=[" ".join(a[1:3]) for a, _ in README_EXAMPLES])
def test_readme_example_prints_what_the_readme_shows(capsys, monkeypatch, argv, stdout):
    monkeypatch.chdir(ROOT)
    code, out, err = run(capsys, *argv[1:])
    assert (code, err) == (0, "")
    assert out.split("\n") == stdout + [""]
