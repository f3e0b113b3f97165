"""Brute-force reference implementations used to cross-check the engine.

Everything here re-derives its answer from first principles: models are
enumerated over a fixed rational grid (halves from -1 to 6) refined with
every constant a formula mentions, the constants' midpoints, and one point
beyond each extreme.  No code is shared with the engine's sampling or its
decision tree, which is what makes agreement between the two informative.
Slower than the engine, deliberately so; intended for tests and the CLI's
oracle mode, not production paths.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .entail import DEFAULT_ASSIGNMENT_LIMIT, EntailmentResult, entails, satisfiable
from .mr import (
    Formula,
    Key,
    Model,
    MrError,
    Not,
    NumAtom,
    Schema,
    categorical_keys,
    evaluate,
    iter_atoms,
    numeric_keys,
    print_formula,
    validate_formula,
)
from .report import CategoryCounts, CorpusRecord, tally
from .taxonomy import PairFacts, Verdict, classify, decide

_BASE_GRID = tuple(Fraction(n, 2) for n in range(-2, 13))


class OracleDivergence(MrError):
    """The engine and the reference disagree; one of them is wrong."""


def _grid(constants: set[Fraction]) -> tuple[Fraction, ...]:
    points = set(_BASE_GRID)
    points.update(constants)
    ordered = sorted(constants)
    for lo, hi in zip(ordered, ordered[1:]):
        points.add((lo + hi) / 2)
    if ordered:
        points.add(ordered[0] - 1)
        points.add(ordered[-1] + 1)
    return tuple(sorted(points))


def _models(schema: Schema, formulas: Iterable[Formula]) -> Iterator[Model]:
    formulas = list(formulas)
    for f in formulas:
        validate_formula(schema, f)
    cat_keys = sorted(set().union(*(categorical_keys(f) for f in formulas)))
    num_keys = sorted(set().union(*(numeric_keys(f) for f in formulas)))
    constants: dict[Key, set[Fraction]] = {k: set() for k in num_keys}
    for f in formulas:
        for atom in iter_atoms(f):
            if isinstance(atom, NumAtom):
                constants[atom.attr, atom.entity].add(atom.constant)
    domains = [schema.domain(attr) for attr, _ in cat_keys]
    grids = [_grid(constants[k]) for k in num_keys]
    n_cat = len(cat_keys)
    for choice in itertools.product(*domains, *grids):
        yield Model(dict(zip(cat_keys, choice)), dict(zip(num_keys, choice[n_cat:])))


def oracle_satisfiable(schema: Schema, f: Formula) -> bool:
    return any(evaluate(m, f) for m in _models(schema, [f]))


def oracle_entails(schema: Schema, a: Formula, b: Formula) -> bool:
    return all(not evaluate(m, a) or evaluate(m, b) for m in _models(schema, [a, b]))


def oracle_is_tautology(schema: Schema, f: Formula) -> bool:
    return all(evaluate(m, f) for m in _models(schema, [f]))


def oracle_is_contradiction(schema: Schema, f: Formula) -> bool:
    return not oracle_satisfiable(schema, f)


def oracle_classify(schema: Schema, input_mr: Formula, output_mr: Formula) -> Verdict:
    # The decision tree is repeated here on purpose; sharing it with
    # taxonomy.classify would make the cross-check vacuous.
    if not oracle_satisfiable(schema, input_mr):
        return Verdict.INCONSISTENT_INPUT
    forward = oracle_entails(schema, input_mr, output_mr)
    backward = oracle_entails(schema, output_mr, input_mr)
    if forward and backward:
        return Verdict.WELL_MATCHED
    if forward:
        if oracle_is_tautology(schema, output_mr):
            return Verdict.TAUTOLOGOUS
        return Verdict.TOO_WEAK
    if backward:
        if oracle_is_contradiction(schema, output_mr):
            return Verdict.SELF_CONTRADICTORY
        return Verdict.TOO_STRONG
    if oracle_entails(schema, input_mr, Not(output_mr)):
        return Verdict.CONFLICTING
    return Verdict.INDEPENDENT


def _agree(operation: str, engine: object, reference: object, *formulas: Formula) -> None:
    if engine != reference:
        shown = ", ".join(repr(print_formula(f)) for f in formulas)
        raise OracleDivergence(
            f"{operation}({shown}): engine says {engine}, oracle says {reference}"
        )


def checked_satisfiable(
    schema: Schema, f: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> EntailmentResult:
    engine = satisfiable(schema, f, limit=limit)
    _agree("satisfiable", engine.holds, oracle_satisfiable(schema, f), f)
    return engine


def checked_entails(
    schema: Schema, a: Formula, b: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> EntailmentResult:
    engine = entails(schema, a, b, limit=limit)
    _agree("entails", engine.holds, oracle_entails(schema, a, b), a, b)
    return engine


def checked_decide(
    schema: Schema, input_mr: Formula, output_mr: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> PairFacts:
    engine = decide(schema, input_mr, output_mr, limit=limit)
    reference = oracle_classify(schema, input_mr, output_mr)
    _agree("classify", engine.verdict.value, reference.value, input_mr, output_mr)
    return engine


def checked_classify(
    schema: Schema, input_mr: Formula, output_mr: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> Verdict:
    engine = classify(schema, input_mr, output_mr, limit=limit)
    reference = oracle_classify(schema, input_mr, output_mr)
    _agree("classify", engine.value, reference.value, input_mr, output_mr)
    return engine


def checked_tally(
    schema: Schema,
    records: Sequence[CorpusRecord],
    *,
    parse_failures: int = 0,
    limit: int = DEFAULT_ASSIGNMENT_LIMIT,
) -> CategoryCounts:
    """``tally`` one record at a time, checking each verdict against the
    oracle; a resource-limited record has no verdict and is not checked."""
    total = CategoryCounts({}, parse_failures)
    for record in records:
        counts = tally(schema, [record], limit=limit)
        for verdict, n in counts.counts.items():
            if n:
                reference = oracle_classify(schema, record.input, record.output)
                _agree("classify", verdict.value, reference.value, record.input, record.output)
        total = total.merge(counts)
    return total
