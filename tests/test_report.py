"""Corpus ingestion, tallying, and report rendering."""

from __future__ import annotations

import json
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from randgen import random_formula, random_schema
from verity import (
    CategoryCounts,
    CorpusRecord,
    LineError,
    OracleDivergence,
    REPORT_FORMATS,
    ResourceLimit,
    UnknownFormat,
    Verdict,
    checked_classify,
    classify,
    ingest_corpus,
    oracle,
    parse_schema,
    render_report,
    tally,
)
from verity import cli
from verity.fixtures import fixture_path

RESTAURANT = parse_schema(
    """
    attr Type : { Restaurant, CoffeeShop, Pub }
    attr Food : { Italian, Norwegian, Japanese }
    attr Price : { Low, Medium, High }
    attr Style : { Vegetarian, Steakhouse, FamilyFriendly }
    """
)


def _fixture_lines():
    return fixture_path("restaurant-corpus.jsonl").read_text(encoding="utf-8").splitlines()


def _fixture_records():
    records, errors = ingest_corpus(_fixture_lines(), RESTAURANT)
    assert errors == []
    return records


FIXTURE_COUNTS = CategoryCounts(
    {
        Verdict.TOO_WEAK: 1,
        Verdict.TOO_STRONG: 1,
        Verdict.INDEPENDENT: 1,
        Verdict.CONFLICTING: 1,
    },
    gold_matches=4,
    gold_total=4,
)


# ---------------------------------------------------------------------------
# Ingestion


def test_ingest_fixture_corpus():
    records = _fixture_records()
    assert [r.id for r in records] == [
        "weaker-output",
        "stronger-output",
        "independent-output",
        "conflicting-output",
    ]
    assert [r.source_line for r in records] == [1, 2, 3, 4]
    assert [r.gold for r in records] == [
        Verdict.TOO_WEAK,
        Verdict.TOO_STRONG,
        Verdict.INDEPENDENT,
        Verdict.CONFLICTING,
    ]


def test_ingest_skips_blank_lines_but_keeps_numbering():
    lines = [
        "",
        '{"id": "a", "input": "true", "output": "true"}',
        "   ",
        "not json",
        '{"id": "b", "input": "true", "output": "true"}',
    ]
    records, errors = ingest_corpus(lines, RESTAURANT)
    assert [(r.id, r.source_line) for r in records] == [("a", 2), ("b", 5)]
    assert len(errors) == 1
    assert errors[0].line_no == 4
    assert "not valid JSON" in errors[0].message


@pytest.mark.parametrize(
    "line,message",
    [
        ("[1, 2]", "expected a JSON object"),
        ('{"input": "true", "output": "true"}', "missing field 'id'"),
        ('{"id": "a", "input": "true"}', "missing field 'output'"),
        ('{"id": 3, "input": "true", "output": "true"}', "field 'id' must be a string"),
        ('{"id": "a", "input": "Food(x)=", "output": "true"}', "field 'input':"),
        (
            '{"id": "a", "input": "true", "output": "true", "gold": "great"}',
            "unknown verdict name 'great'",
        ),
        pytest.param(
            '{"id": %s, "input": "true", "output": "true"}' % ("1" * 5001), "not valid JSON", id="long-int-id"
        ),
    ],
)
def test_ingest_line_errors(line, message):
    records, errors = ingest_corpus([line], RESTAURANT)
    assert records == []
    assert len(errors) == 1
    assert message in errors[0].message


def test_ingest_isolates_a_zero_denominator():
    schema = parse_schema("num Temp")
    lines = [
        '{"id": "a", "input": "Temp(d) > 1", "output": "true"}',
        '{"id": "b", "input": "Temp(d) > 1/0", "output": "true"}',
        '{"id": "c", "input": "true", "output": "Temp(d) < -3/0"}',
        '{"id": "d", "input": "Temp(d) > 1/2", "output": "true"}',
    ]
    records, errors = ingest_corpus(lines, schema)
    assert [r.id for r in records] == ["a", "d"]
    assert errors == [
        LineError(2, "field 'input': 1:11: zero denominator in '1/0'"),
        LineError(3, "field 'output': 1:11: zero denominator in '-3/0'"),
    ]


def test_report_places_a_bad_token_after_blanks(tmp_path, capsys):
    """A formula field's error after spaces, tabs and line breaks is
    placed at the bad token itself in the report's line on stderr."""
    lines = [
        {"id": "a", "input": "Food(x)=Italian &\r\n\t Food(x) =  Sushi", "output": "true"},
        {"id": "b", "input": "true", "output": "(Food(x)=Italian \t$"},
        {"id": "c", "input": "Food(x)=Italian\n  \n   )", "output": "true"},
    ]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    assert cli.main(["report", "-s", str(fixture_path("restaurant.schema")), str(corpus)]) == 0
    assert capsys.readouterr().err == (
        "line 1: field 'input': 2:14: 'Sushi' is not in the domain of 'Food'\n"
        "line 2: field 'output': 1:19: unexpected character '$'\n"
        "line 3: field 'input': 3:4: unexpected ')' after formula\n"
    )


def test_ingest_rejects_lines_that_are_not_utf8():
    """Undecoded bytes arrive as lone surrogates under surrogateescape; the
    line is rejected even when they sit inside a JSON string."""
    raw = (
        b'{"id": "a", "input": "true", "output": "true"}\n'
        b'{"id": "b\xff", "input": "true", "output": "true"}\n'
        b'\xc3{"id": "c", "input": "true", "output": "true"}\n'
        b'{"id": "d", "input": "true", "output": "true"}\n'
    )
    lines = raw.decode("utf-8", errors="surrogateescape").splitlines()
    records, errors = ingest_corpus(lines, RESTAURANT)
    assert [r.id for r in records] == ["a", "d"]
    assert errors == [LineError(2, "not valid UTF-8"), LineError(3, "not valid UTF-8")]


def test_long_chains_pass_through_ingest_and_tally():
    """A 1500-atom conjunction, a run of 2000 '!' and 3000 parentheses
    switching between '&' and '|' are deeper than the interpreter's
    recursion limit; parsing and deciding them walks them in loops, so
    each is an ordinary record with a verdict."""
    atoms = ("Food(x)=Italian", "Price(x)=Low", "Style(x)=Vegetarian")
    parens = f"{atoms[0]} & ({atoms[1]} | (" * 1500 + atoms[2] + "))" * 1500
    lines = [
        json.dumps({"id": "and", "input": " & ".join(atoms[i % 3] for i in range(1500)), "output": atoms[0]}),
        json.dumps({"id": "not", "input": "!" * 2000 + atoms[0], "output": atoms[0]}),
        json.dumps({"id": "odd", "input": "!" * 2001 + atoms[0], "output": atoms[0]}),
        json.dumps({"id": "parens", "input": parens, "output": atoms[0]}),
    ]
    records, errors = ingest_corpus(lines, RESTAURANT)
    assert errors == []
    assert [tally(RESTAURANT, [r]).counts for r in records] == [
        CategoryCounts({Verdict.TOO_WEAK: 1}).counts,
        CategoryCounts({Verdict.WELL_MATCHED: 1}).counts,
        CategoryCounts({Verdict.CONFLICTING: 1}).counts,
        CategoryCounts({Verdict.TOO_WEAK: 1}).counts,
    ]


def test_ingest_reads_deep_parentheses_and_isolates_deep_json():
    """Parentheses nested 200 deep are ordinary records; JSON nested past
    the decoder's recursion limit is an error on its own line."""
    deep = "(" * 200 + "Food(x)=Italian" + ")" * 200
    lines = [
        json.dumps({"id": "parens", "input": deep, "output": "true"}),
        json.dumps({"id": "bangs", "input": "true", "output": "!(" * 200 + "true" + ")" * 200}),
        "[" * 100000,
        '{"id": ' * 100000,
        '{"id": "ok", "input": "true", "output": "true"}',
    ]
    records, errors = ingest_corpus(lines, RESTAURANT)
    assert [r.id for r in records] == ["parens", "bangs", "ok"]
    assert errors == [
        LineError(3, "JSON nested too deeply"),
        LineError(4, "JSON nested too deeply"),
    ]


deep_openers = st.builds(
    lambda opener, depth, tail: opener * depth + tail,
    st.sampled_from(["(", "!(", "["]),
    st.integers(0, 3000),
    st.text(max_size=20),
)


class TestIngestIsTotal:
    @given(st.lists(st.text()))
    def test_arbitrary_lines(self, lines):
        """Every non-blank line becomes a record or a LineError."""
        records, errors = ingest_corpus(lines, RESTAURANT)
        assert len(records) + len(errors) == sum(1 for line in lines if line.strip())

    @settings(max_examples=50, deadline=None)
    @given(st.one_of(st.text(), deep_openers), st.sampled_from(["input", "output", None]))
    def test_arbitrary_formula_fields(self, text, field):
        """A formula field holding any text, or a line that is that text,
        is one record or one LineError."""
        if field is None:
            line = text
        else:
            line = json.dumps({"id": "r", "input": "true", "output": "true", field: text})
        records, errors = ingest_corpus([line], RESTAURANT)
        assert len(records) + len(errors) == (1 if line.strip() else 0)


def test_ingest_duplicate_id_keeps_first():
    lines = [
        '{"id": "a", "input": "true", "output": "true"}',
        '{"id": "a", "input": "false", "output": "true"}',
    ]
    records, errors = ingest_corpus(lines, RESTAURANT)
    assert len(records) == 1
    assert records[0].source_line == 1
    assert errors == [LineError(2, "duplicate id 'a'")]


def test_ingest_empty_stream():
    assert ingest_corpus([], RESTAURANT) == ([], [])


# ---------------------------------------------------------------------------
# Counts


def test_counts_fill_all_categories():
    c = CategoryCounts({Verdict.WELL_MATCHED: 2})
    assert set(c.counts) == set(Verdict)
    assert c.counts[Verdict.CONFLICTING] == 0
    assert c.total == 2


def test_counts_reject_bad_shapes():
    with pytest.raises(TypeError):
        CategoryCounts({"0-well-matched": 1})
    with pytest.raises(ValueError):
        CategoryCounts({Verdict.WELL_MATCHED: -1})
    with pytest.raises(ValueError):
        CategoryCounts({}, parse_failures=-2)
    with pytest.raises(ValueError):
        CategoryCounts({}, gold_matches=3, gold_total=2)


def test_empty_counts():
    c = CategoryCounts.empty()
    assert c.total == 0
    assert c.parse_failures == 0
    assert c.merge(FIXTURE_COUNTS) == FIXTURE_COUNTS


def test_merge_adds_every_bucket():
    a = CategoryCounts({Verdict.TOO_WEAK: 2}, 1, 0, 1, 2)
    b = CategoryCounts({Verdict.TOO_WEAK: 1, Verdict.CONFLICTING: 4}, 0, 3, 0, 1)
    merged = a.merge(b)
    assert merged.counts[Verdict.TOO_WEAK] == 3
    assert merged.counts[Verdict.CONFLICTING] == 4
    assert merged.total == 7
    assert (merged.parse_failures, merged.resource_limited) == (1, 3)
    assert (merged.gold_matches, merged.gold_total) == (1, 3)


# ---------------------------------------------------------------------------
# Tallying


def test_tally_fixture_corpus():
    assert tally(RESTAURANT, _fixture_records()) == FIXTURE_COUNTS


def test_tally_empty():
    assert tally(RESTAURANT, []) == CategoryCounts.empty()


def test_tally_carries_parse_failures():
    c = tally(RESTAURANT, [], parse_failures=3)
    assert c.parse_failures == 3
    assert c.total == 0


def test_tally_repeated_record():
    records = _fixture_records()[:1] * 5
    c = tally(RESTAURANT, records)
    assert c.counts[Verdict.TOO_WEAK] == 5
    assert c.total == 5
    assert (c.gold_matches, c.gold_total) == (5, 5)


def test_tally_resource_limited_bucket():
    c = tally(RESTAURANT, _fixture_records(), classify_fn=partial(classify, RESTAURANT, limit=1))
    assert c.total == 0
    assert c.resource_limited == 4
    assert (c.gold_matches, c.gold_total) == (0, 0)


def _scripted(answers):
    """A classify function that returns, or raises, the next answer and
    records the pair it was asked about."""
    calls = []

    def classify_fn(input_mr, output_mr):
        calls.append((input_mr, output_mr))
        answer = answers[len(calls) - 1]
        if isinstance(answer, Exception):
            raise answer
        return answer

    return classify_fn, calls


def test_tally_asks_classify_fn_once_per_record_in_order():
    records = _fixture_records()
    classify_fn, calls = _scripted(
        [Verdict.TOO_WEAK, ResourceLimit(5, 4), Verdict.CONFLICTING, ResourceLimit(9, 4)]
    )
    c = tally(RESTAURANT, records, parse_failures=2, classify_fn=classify_fn)
    assert calls == [(r.input, r.output) for r in records]
    # Gold: 1a-too-weak matches, 3a-independent does not.
    assert c == CategoryCounts(
        {Verdict.TOO_WEAK: 1, Verdict.CONFLICTING: 1},
        parse_failures=2,
        resource_limited=2,
        gold_matches=1,
        gold_total=2,
    )


def test_tally_lets_a_divergence_from_classify_fn_propagate():
    records = _fixture_records()
    divergence = OracleDivergence("classify(...): engine says 1a, oracle says 0")
    classify_fn, calls = _scripted([Verdict.TOO_WEAK, divergence, Verdict.CONFLICTING])
    with pytest.raises(OracleDivergence) as exc_info:
        tally(RESTAURANT, records, classify_fn=classify_fn)
    assert exc_info.value is divergence
    assert calls == [(r.input, r.output) for r in records[:2]]


def test_tally_is_order_independent():
    records = _fixture_records()
    shuffled = records[:]
    random.Random(7).shuffle(shuffled)
    assert tally(RESTAURANT, shuffled) == tally(RESTAURANT, records)


def test_tally_merge_homomorphism():
    records = _fixture_records()
    whole = tally(RESTAURANT, records)
    for cut in range(len(records) + 1):
        parts = tally(RESTAURANT, records[:cut]).merge(tally(RESTAURANT, records[cut:]))
        assert parts == whole


def test_tally_with_checked_classify_equals_tally(monkeypatch):
    """Through checked_classify the counts are the engine's; the oracle sees
    only the records that got a verdict, never a resource-limited one."""
    rng = random.Random(5)
    reference = oracle.oracle_classify
    calls = []
    monkeypatch.setattr(oracle, "oracle_classify", lambda *a: calls.append(a) or reference(*a))
    limited = 0
    for n in range(30):
        schema = random_schema(rng)
        records = []
        for i in range(8):
            a, b = random_formula(rng, schema, 3), random_formula(rng, schema, 3)
            gold = reference(schema, a, b) if rng.random() < 0.8 else rng.choice(list(Verdict))
            records.append(CorpusRecord(str(i), a, b, i + 1, gold))
        expected = tally(
            schema, records, parse_failures=n % 3, classify_fn=partial(classify, schema, limit=12)
        )
        calls.clear()
        checked = partial(checked_classify, schema, limit=12)
        assert tally(schema, records, parse_failures=n % 3, classify_fn=checked) == expected
        assert len(calls) == expected.total
        limited += expected.resource_limited
    assert 0 < limited < 30 * 8


# ---------------------------------------------------------------------------
# Rendering

TEXT_GOLDEN = """\
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

CSV_GOLDEN = """\
category,count,frequency
0-well-matched,0,0.0000
1a-too-weak,1,0.2500
1b-tautologous,0,0.0000
2a-too-strong,1,0.2500
2b-self-contradictory,0,0.0000
3a-independent,1,0.2500
3b-conflicting,1,0.2500
inconsistent-input,0,0.0000
gold-matches,4,
gold-total,4,
total,4,
"""

JSON_GOLDEN = """\
{
  "categories": {
    "0-well-matched": {
      "count": 0,
      "frequency": "0.0000"
    },
    "1a-too-weak": {
      "count": 1,
      "frequency": "0.2500"
    },
    "1b-tautologous": {
      "count": 0,
      "frequency": "0.0000"
    },
    "2a-too-strong": {
      "count": 1,
      "frequency": "0.2500"
    },
    "2b-self-contradictory": {
      "count": 0,
      "frequency": "0.0000"
    },
    "3a-independent": {
      "count": 1,
      "frequency": "0.2500"
    },
    "3b-conflicting": {
      "count": 1,
      "frequency": "0.2500"
    },
    "inconsistent-input": {
      "count": 0,
      "frequency": "0.0000"
    }
  },
  "total": 4,
  "parse_failures": 0,
  "resource_limited": 0,
  "gold_matches": 4,
  "gold_total": 4
}
"""


@pytest.mark.parametrize(
    "fmt,expected",
    [("text", TEXT_GOLDEN), ("csv", CSV_GOLDEN), ("json", JSON_GOLDEN)],
)
def test_render_goldens(fmt, expected):
    assert render_report(FIXTURE_COUNTS, fmt) == expected


def test_render_is_byte_stable():
    rebuilt = CategoryCounts.empty().merge(FIXTURE_COUNTS)
    for fmt in REPORT_FORMATS:
        assert render_report(FIXTURE_COUNTS, fmt) == render_report(rebuilt, fmt)


def test_render_zero_total_uses_zero_frequency():
    c = CategoryCounts({}, parse_failures=2)
    doc = json.loads(render_report(c, "json"))
    assert set(doc["categories"]) == {v.value for v in Verdict}
    assert all(cat["frequency"] == "0.0000" for cat in doc["categories"].values())
    assert doc["total"] == 0
    assert doc["parse_failures"] == 2
    text = render_report(c, "text")
    assert "parse failures: 2" in text
    assert "gold matches" not in text
    assert "parse-failures,2," in render_report(c, "csv")


def test_render_resource_limited_lines():
    c = CategoryCounts({Verdict.WELL_MATCHED: 1}, resource_limited=3)
    assert "resource limited: 3" in render_report(c, "text")
    assert "resource-limited,3," in render_report(c, "csv")


def test_unknown_format():
    with pytest.raises(UnknownFormat, match="json, csv, text"):
        render_report(FIXTURE_COUNTS, "xml")
    assert UnknownFormat("xml").fmt == "xml"


class TestCountLaws:
    counts_strategy = st.builds(
        CategoryCounts,
        st.dictionaries(st.sampled_from(list(Verdict)), st.integers(0, 50)),
        st.integers(0, 5),
        st.integers(0, 5),
        st.just(0),
        st.integers(0, 5),
    )

    @given(counts_strategy, counts_strategy)
    def test_merge_commutes(self, a, b):
        """Merging is commutative."""
        assert a.merge(b) == b.merge(a)

    @given(counts_strategy, counts_strategy, counts_strategy)
    def test_merge_associates(self, a, b, c):
        """Merging is associative."""
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(counts_strategy)
    def test_empty_is_identity(self, c):
        """The empty tally is the merge identity."""
        assert CategoryCounts.empty().merge(c) == c
        assert c.merge(CategoryCounts.empty()) == c

    @given(counts_strategy)
    def test_render_deterministic(self, c):
        """Rendering the same counts twice gives identical bytes."""
        for fmt in REPORT_FORMATS:
            assert render_report(c, fmt) == render_report(c, fmt)
