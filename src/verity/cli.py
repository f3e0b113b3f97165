"""Command-line front end.

Subcommands: classify, check, report, bdi.  Exit codes: 0 success, 1
standard output closed before all of it was written, 2 parse or
validation error (including unreadable files), 3 resource limit, 4
unknown report format, 5 oracle divergence.  Identical invocations on
identical files produce byte-identical standard output.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, partial
from typing import Optional, Sequence, TextIO

from .bdi import load_scenario, scan_misleading
from .entail import DEFAULT_ASSIGNMENT_LIMIT, ResourceLimit, entails
from .mr import (
    FALSE,
    TRUE,
    MrError,
    ParseError,
    Schema,
    format_model,
    parse_formula,
    parse_schema,
    read_source,
)
from .oracle import OracleDivergence, checked_classify, checked_decide, checked_entails
from .report import (
    REPORT_FORMATS,
    UnknownFormat,
    ingest_corpus,
    render_report,
    tally,
)
from .taxonomy import (
    LegacyLabels,
    UnmappableVerdict,
    classify,
    decide,
    legacy_labels,
)

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_FORMAT = 4
EXIT_DIVERGENCE = 5

ENV_LIMIT = "VERITY_LIMIT"


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing does not change the parser, and each
    # build is a cyclic object graph that only the cyclic collector frees.
    # Each subcommand takes only the flags its handler reads.
    engine, schema, verbose, legacy, fmt = (
        argparse.ArgumentParser(add_help=False) for _ in range(5)
    )
    engine.add_argument(
        "--limit",
        type=int,
        metavar="N",
        help=f"search nodes per decision, 0 or more (default ${ENV_LIMIT} or {DEFAULT_ASSIGNMENT_LIMIT})",
    )
    engine.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check every decision against the truth-table oracle",
    )
    schema.add_argument("-s", "--schema", metavar="PATH", help="schema file")
    verbose.add_argument(
        "-v", "--verbose", action="store_true", help="print supporting facts"
    )
    legacy.add_argument("--legacy", action="store_true", help="also print legacy labels")
    fmt.add_argument(
        "--format",
        default="text",
        metavar="FMT",
        help="report format: " + ", ".join(REPORT_FORMATS),
    )

    parser = argparse.ArgumentParser(
        prog="verity",
        description="Classify data-to-text outputs against their inputs, "
        "report category frequencies, and scan communication scenarios "
        "for misleading.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "classify",
        parents=[engine, schema, verbose, legacy],
        help="classify an (input, output) MR pair",
    )
    p.add_argument("input", metavar="INPUT", help="input formula")
    p.add_argument("output", metavar="OUTPUT", help="output formula")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "check", parents=[engine, schema, verbose], help="decide one entailment question"
    )
    p.add_argument(
        "kind", choices=("entails", "sat", "taut", "contra"), metavar="KIND",
        help="entails, sat, taut, or contra",
    )
    p.add_argument("formulas", nargs="+", metavar="FORMULA")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "report", parents=[engine, schema, fmt], help="tally a corpus of MR pairs"
    )
    p.add_argument("corpus", metavar="CORPUS", help="JSON-lines corpus file")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "bdi", parents=[engine], help="scan a scenario for misleading"
    )
    p.add_argument("scenario", metavar="SCENARIO", help="scenario file")
    p.set_defaults(func=_cmd_bdi)
    return parser


def _resolve_limit(args: argparse.Namespace) -> int:
    if args.limit is not None:
        if args.limit < 0:
            raise ParseError(f"--limit must be a non-negative integer, got {args.limit}")
        return args.limit
    env = os.environ.get(ENV_LIMIT)
    if env is None:
        return DEFAULT_ASSIGNMENT_LIMIT
    try:
        limit = int(env)
    except ValueError:
        raise ParseError(f"{ENV_LIMIT} must be an integer, got {env!r}") from None
    if limit < 0:
        raise ParseError(f"{ENV_LIMIT} must be a non-negative integer, got {env!r}")
    return limit


def _load_schema(args: argparse.Namespace) -> Schema:
    if args.schema is None:
        raise ParseError(f"{args.command}: --schema is required")
    return parse_schema(read_source(args.schema))


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _dusek(labels: LegacyLabels) -> str:
    if labels.dusek_hallucination and labels.dusek_omission:
        return "hallucination+omission"
    if labels.dusek_hallucination:
        return "hallucination"
    if labels.dusek_omission:
        return "omission"
    return "none"


def _cmd_classify(args: argparse.Namespace) -> int:
    schema = _load_schema(args)
    limit = _resolve_limit(args)
    input_mr = parse_formula(args.input, schema)
    output_mr = parse_formula(args.output, schema)
    pair = (schema, input_mr, output_mr)
    if args.verbose:
        facts = (checked_decide if args.oracle else decide)(*pair, limit=limit)
        verdict = facts.verdict
    else:
        facts = None
        verdict = (checked_classify if args.oracle else classify)(*pair, limit=limit)
    lines = [verdict.value]
    if facts is not None:
        lines.append(f"input satisfiable: {_yn(facts.input_satisfiable)}")
        lines.append(f"input |= output: {_yn(facts.forward)}")
        lines.append(f"output |= input: {_yn(facts.backward)}")
        lines.append(f"input |= !output: {_yn(facts.conflict)}")
    if args.verbose or args.legacy:
        try:
            labels = legacy_labels(verdict)
            lines.append(f"dusek: {_dusek(labels)}")
            lines.append(f"ji: {labels.ji.value if labels.ji else 'n/a'}")
        except UnmappableVerdict:
            lines.append("dusek: n/a")
            lines.append("ji: n/a")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    arity = 2 if args.kind == "entails" else 1
    if len(args.formulas) != arity:
        raise ParseError(
            f"check {args.kind} takes exactly {arity} formula(s), "
            f"got {len(args.formulas)}"
        )
    schema = _load_schema(args)
    limit = _resolve_limit(args)
    parsed = [parse_formula(text, schema) for text in args.formulas]
    # Each kind is one question a |= b whose countermodel is the model
    # shown; only sat answers yes when it fails.  A constant side drops out
    # when the question is compiled, so each kind searches f, !f or f & !g.
    f = parsed[0]
    (a, b), label = {
        "entails": ((f, parsed[-1]), "countermodel"),
        "sat": ((f, FALSE), "witness"),
        "taut": ((TRUE, f), "countermodel"),
        "contra": ((f, FALSE), "witness"),
    }[args.kind]
    fn = partial(checked_entails if args.oracle else entails, schema, limit=limit)
    result = fn(a, b)
    print(_yn(result.holds != (args.kind == "sat")))
    if args.verbose and result.witness is not None:
        print(f"{label}: {format_model(result.witness)}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    if args.format not in REPORT_FORMATS:
        raise UnknownFormat(args.format)
    schema = _load_schema(args)
    limit = _resolve_limit(args)
    # Undecodable bytes survive as lone surrogates, which ingest_corpus
    # turns into a LineError for that line alone.
    with open(args.corpus, "r", encoding="utf-8", errors="surrogateescape") as fh:
        records, errors = ingest_corpus(fh, schema)
    for error in errors:
        _error(f"line {error.line_no}: {error.message}")
    classify_fn = partial(checked_classify if args.oracle else classify, schema, limit=limit)
    counts = tally(schema, records, parse_failures=len(errors), classify_fn=classify_fn)
    sys.stdout.write(render_report(counts, args.format))
    return EXIT_OK


def _cmd_bdi(args: argparse.Namespace) -> int:
    limit = _resolve_limit(args)
    scenario, candidates = load_scenario(args.scenario)
    entails_fn = partial(checked_entails if args.oracle else entails, scenario.schema, limit=limit)
    findings = scan_misleading(scenario, candidates, entails_fn=entails_fn)
    if findings:
        for finding in findings:
            print(finding.render())
    else:
        print("no findings")
    return EXIT_OK


def _error(line: str) -> None:
    """Print ``line`` to standard error.  If no one reads it any more, the
    line is lost and nothing else is: the exit code and standard output
    stay as they would be."""
    try:
        print(line, file=sys.stderr, flush=True)
    except BrokenPipeError:
        _to_devnull(sys.stderr)


def _to_devnull(stream: TextIO) -> None:
    """Point ``stream``'s file descriptor, whose reader went away, at
    os.devnull, so that what is still buffered cannot fail again when it
    is flushed, at the latest at exit."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        # Flushed here, so that a reader that went away is met below rather
        # than at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Standard output was closed early (``verity ... | head``).
        _to_devnull(sys.stdout)
        return EXIT_CLOSED_STDOUT
    except UnknownFormat as exc:
        _error(f"error: {exc}")
        return EXIT_FORMAT
    except ResourceLimit as exc:
        _error(f"error: {exc}")
        return EXIT_RESOURCE
    except OracleDivergence as exc:
        _error(f"oracle divergence: {exc}")
        return EXIT_DIVERGENCE
    except (MrError, OSError) as exc:
        _error(f"error: {exc}")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
