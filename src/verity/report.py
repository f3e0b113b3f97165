"""Corpus ingestion, per-category tallying, and report rendering.

A corpus is a UTF-8 stream with one JSON object per line: string fields
``id``, ``input``, ``output``, and optionally ``gold`` (a verdict name used
for agreement scoring).  Malformed lines are collected, not fatal; corpus
evaluation has to degrade gracefully on noisy annotation.

The pipeline operates on MR pairs only.  A front end that turns raw
generated text into an output MR (for example an NLI-based extractor) can
feed the same record shape; nothing here would change.

Tallying is order independent and merge homomorphic: tallying a
concatenation equals merging, with ``CategoryCounts.merge``, the tallies
of the parts.

``tally`` decides every record through one classify function, the engine's
by default.  The caller picks the limit, or the oracle cross-check, by
passing that function: ``partial(checked_classify, schema, limit=N)``.
"""

from __future__ import annotations

import csv
import io
import json
from functools import partial
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .entail import ResourceLimit
from .mr import Formula, MrError, Schema, SourceError, _Record, _set, parse_formula
from .taxonomy import Verdict, classify

REPORT_FORMATS = ("json", "csv", "text")


class UnknownFormat(MrError):
    """The requested report format does not exist."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        super().__init__(
            f"unknown report format {fmt!r}, expected one of: "
            + ", ".join(REPORT_FORMATS)
        )


class LineError(_Record):
    """A corpus line that could not be turned into a record."""

    __slots__ = __match_args__ = _fields = ("line_no", "message")
    line_no: int
    message: str

    def __init__(self, line_no: int, message: str):
        _set(self, "line_no", line_no)
        _set(self, "message", message)


class CorpusRecord(_Record):
    """One (input, output) pair, with its provenance line number."""

    __slots__ = __match_args__ = _fields = ("id", "input", "output", "source_line", "gold")
    id: str
    input: Formula
    output: Formula
    source_line: int
    gold: Optional[Verdict]

    def __init__(
        self,
        id: str,
        input: Formula,
        output: Formula,
        source_line: int,
        gold: Optional[Verdict] = None,
    ):
        _set(self, "id", id)
        _set(self, "input", input)
        _set(self, "output", output)
        _set(self, "source_line", source_line)
        _set(self, "gold", gold)


class CategoryCounts(_Record):
    """Per-verdict counts plus the bookkeeping buckets around them.

    ``total`` covers classified records only; parse failures and records
    that hit the resource limit are separate buckets.  Gold counts cover
    classified records that carried a gold verdict.
    """

    __slots__ = __match_args__ = _fields = (
        "counts", "parse_failures", "resource_limited", "gold_matches", "gold_total"
    )
    counts: Mapping[Verdict, int]
    parse_failures: int
    resource_limited: int
    gold_matches: int
    gold_total: int

    def __init__(
        self,
        counts: Mapping[Verdict, int],
        parse_failures: int = 0,
        resource_limited: int = 0,
        gold_matches: int = 0,
        gold_total: int = 0,
    ):
        full = {v: 0 for v in Verdict}
        for verdict, n in counts.items():
            if not isinstance(verdict, Verdict):
                raise TypeError(f"not a verdict: {verdict!r}")
            if n < 0:
                raise ValueError(f"negative count for {verdict.value}")
            full[verdict] = n
        _set(self, "counts", full)
        for name, n in zip(
            self._fields[1:], (parse_failures, resource_limited, gold_matches, gold_total)
        ):
            if n < 0:
                raise ValueError(f"negative {name}")
            _set(self, name, n)
        if gold_matches > gold_total:
            raise ValueError("gold_matches exceeds gold_total")

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def merge(self, other: "CategoryCounts") -> "CategoryCounts":
        return CategoryCounts(
            {v: self.counts[v] + other.counts[v] for v in Verdict},
            self.parse_failures + other.parse_failures,
            self.resource_limited + other.resource_limited,
            self.gold_matches + other.gold_matches,
            self.gold_total + other.gold_total,
        )

    @classmethod
    def empty(cls) -> "CategoryCounts":
        return cls({})


# ---------------------------------------------------------------------------
# Ingestion


def ingest_corpus(
    stream: Iterable[str], schema: Schema
) -> tuple[list[CorpusRecord], list[LineError]]:
    """Read records line by line, isolating bad lines as LineErrors.

    Blank lines are skipped.  Duplicate ids are errors; the first record
    with an id wins.  A line holding lone surrogates, which is what
    undecodable bytes become under ``errors="surrogateescape"``, is an
    error too.
    """
    records: list[CorpusRecord] = []
    errors: list[LineError] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            errors.append(LineError(line_no, "not valid UTF-8"))
            continue
        try:
            doc = json.loads(line)
        except ValueError as exc:
            # A JSONDecodeError, or an integer longer than int() converts.
            errors.append(LineError(line_no, f"not valid JSON: {exc}"))
            continue
        except RecursionError:
            # The decoder recurses once per nested array or object.
            errors.append(LineError(line_no, "JSON nested too deeply"))
            continue
        try:
            record = _parse_record(doc, schema, line_no)
            if record.id in seen:
                raise ValueError(f"duplicate id {record.id!r}")
        except ValueError as exc:
            errors.append(LineError(line_no, str(exc)))
            continue
        seen.add(record.id)
        records.append(record)
    return records, errors


def _parse_record(doc: object, schema: Schema, line_no: int) -> CorpusRecord:
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")

    def text_field(name: str) -> str:
        if name not in doc:
            raise ValueError(f"missing field {name!r}")
        value = doc[name]
        if not isinstance(value, str):
            raise ValueError(f"field {name!r} must be a string")
        return value

    def formula_field(name: str) -> Formula:
        try:
            return parse_formula(text_field(name), schema)
        except SourceError as exc:
            raise ValueError(f"field {name!r}: {exc}") from exc

    record_id = text_field("id")
    input_mr = formula_field("input")
    output_mr = formula_field("output")
    gold = None
    if "gold" in doc:
        gold_name = text_field("gold")
        try:
            gold = Verdict(gold_name)
        except ValueError:
            raise ValueError(f"unknown verdict name {gold_name!r}") from None
    return CorpusRecord(record_id, input_mr, output_mr, line_no, gold)


# ---------------------------------------------------------------------------
# Tallying


def tally(
    schema: Schema,
    records: Sequence[CorpusRecord],
    *,
    parse_failures: int = 0,
    classify_fn: Callable[[Formula, Formula], Verdict] | None = None,
) -> CategoryCounts:
    """Classify every record, in order, and count verdicts per category.

    Each record is decided by ``classify_fn(input, output)``, by default
    ``classify`` at its default limit.  A record whose decision raises
    ``ResourceLimit`` lands in the resource_limited bucket instead of
    aborting the run; any other error propagates.
    """
    fn = classify_fn or partial(classify, schema)
    counts = {v: 0 for v in Verdict}
    resource_limited = 0
    gold_matches = gold_total = 0
    for record in records:
        try:
            verdict = fn(record.input, record.output)
        except ResourceLimit:
            resource_limited += 1
            continue
        counts[verdict] += 1
        if record.gold is not None:
            gold_total += 1
            if verdict is record.gold:
                gold_matches += 1
    return CategoryCounts(counts, parse_failures, resource_limited, gold_matches, gold_total)


# ---------------------------------------------------------------------------
# Rendering


def render_report(counts: CategoryCounts, fmt: str) -> str:
    """Render counts in the named format, byte stable for equal inputs."""
    if fmt == "json":
        return _render_json(counts)
    if fmt == "csv":
        return _render_csv(counts)
    if fmt == "text":
        return _render_text(counts)
    raise UnknownFormat(fmt)


def _freq(count: int, total: int) -> str:
    return f"{count / total:.4f}" if total else "0.0000"


def _render_json(c: CategoryCounts) -> str:
    doc = {
        "categories": {
            v.value: {"count": c.counts[v], "frequency": _freq(c.counts[v], c.total)}
            for v in Verdict
        },
        "total": c.total,
        "parse_failures": c.parse_failures,
        "resource_limited": c.resource_limited,
        "gold_matches": c.gold_matches,
        "gold_total": c.gold_total,
    }
    return json.dumps(doc, indent=2) + "\n"


def _render_csv(c: CategoryCounts) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["category", "count", "frequency"])
    for v in Verdict:
        writer.writerow([v.value, c.counts[v], _freq(c.counts[v], c.total)])
    if c.parse_failures:
        writer.writerow(["parse-failures", c.parse_failures, ""])
    if c.resource_limited:
        writer.writerow(["resource-limited", c.resource_limited, ""])
    if c.gold_total:
        writer.writerow(["gold-matches", c.gold_matches, ""])
        writer.writerow(["gold-total", c.gold_total, ""])
    writer.writerow(["total", c.total, ""])
    return out.getvalue()


def _render_text(c: CategoryCounts) -> str:
    total = c.total
    rows = [(v.value, str(n), _freq(n, total)) for v, n in c.counts.items()]
    name_w = max(len("category"), len("total"), *(len(r[0]) for r in rows))
    count_w = max(len("count"), len(str(total)), *(len(r[1]) for r in rows))
    freq_w = max(len("frequency"), *(len(r[2]) for r in rows))
    lines = [f"{'category':<{name_w}}  {'count':>{count_w}}  {'frequency':>{freq_w}}"]
    for name, count, freq in rows:
        lines.append(f"{name:<{name_w}}  {count:>{count_w}}  {freq:>{freq_w}}")
    lines.append(f"{'total':<{name_w}}  {str(total):>{count_w}}")
    if c.parse_failures:
        lines.append(f"parse failures: {c.parse_failures}")
    if c.resource_limited:
        lines.append(f"resource limited: {c.resource_limited}")
    if c.gold_total:
        lines.append(f"gold matches: {c.gold_matches}/{c.gold_total}")
    return "\n".join(lines) + "\n"
