"""Satisfiability and entailment for MR formulas by finite enumeration.

Categorical keys range over their declared domains.  For a numeric key
whose atoms mention the constants c1 < ... < ck, it suffices to test
c1 - 1, every ci, every midpoint (ci + c(i+1)) / 2, and ck + 1: threshold
atoms are constant on the regions those points represent, so the finite
check decides the full rational semantics.  A configurable cap on the
assignment-space size guards against combinatorial blowup.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .mr import (
    And,
    Formula,
    Key,
    Model,
    MrError,
    Not,
    NumAtom,
    Schema,
    evaluate,
    iter_atoms,
    validate_atom,
)

DEFAULT_ASSIGNMENT_LIMIT = 10**6


class ResourceLimit(MrError):
    """The assignment space exceeds the configured limit."""

    def __init__(self, required: int, limit: int):
        self.required = required
        self.limit = limit
        super().__init__(
            f"search space of {required} assignments exceeds limit {limit}"
        )


@dataclass(frozen=True)
class EntailmentResult:
    """A yes/no decision plus the model that witnesses it, when one exists.

    For ``satisfiable`` the witness satisfies the formula; for ``entails``
    it is a countermodel, a model of ``a & !(b)``.
    """

    holds: bool
    witness: Optional[Model]

    def __bool__(self) -> bool:
        return self.holds


def _samples(constants: list[Fraction]) -> list[Fraction]:
    # constants must be sorted and distinct
    points = [constants[0] - 1]
    for lo, hi in zip(constants, constants[1:]):
        points.append(lo)
        points.append((lo + hi) / 2)
    points.append(constants[-1])
    points.append(constants[-1] + 1)
    return points


def _models(schema: Schema, formulas: tuple[Formula, ...], limit: int) -> Iterator[Model]:
    """Every model over the keys of ``formulas``, in sorted-key product order,
    after one walk that validates the atoms and collects keys and constants."""
    cat_set: set[Key] = set()
    constants: dict[Key, set[Fraction]] = {}
    for f in formulas:
        for atom in iter_atoms(f):
            validate_atom(schema, atom)
            if isinstance(atom, NumAtom):
                constants.setdefault((atom.attr, atom.entity), set()).add(atom.constant)
            else:
                cat_set.add((atom.attr, atom.entity))
    cat_keys = sorted(cat_set)
    num_keys = sorted(constants)
    domains = [schema.domain(attr) for attr, _ in cat_keys]
    samples = [_samples(sorted(constants[k])) for k in num_keys]

    required = math.prod(map(len, itertools.chain(domains, samples)))
    if required > limit:
        raise ResourceLimit(required, limit)

    n_cat = len(cat_keys)
    for choice in itertools.product(*domains, *samples):
        yield Model(dict(zip(cat_keys, choice)), dict(zip(num_keys, choice[n_cat:])))


def satisfiable(
    schema: Schema, f: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> EntailmentResult:
    """Decide whether some model over ``f``'s keys satisfies ``f``."""
    for model in _models(schema, (f,), limit):
        if evaluate(model, f):
            return EntailmentResult(True, model)
    return EntailmentResult(False, None)


def pair_cells(
    schema: Schema, a: Formula, b: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> tuple[bool, bool, bool, bool]:
    """Which of ``a & b``, ``a & !b``, ``!a & b`` and ``!a & !b`` have a model.

    One pass over the joint keys.  It stops once the first three are seen,
    so a False fourth cell proves nothing unless one of those is False.
    """
    seen = [False, False, False, False]
    for model in _models(schema, (a, b), limit):
        seen[2 * (not evaluate(model, a)) + (not evaluate(model, b))] = True
        if seen[0] and seen[1] and seen[2]:
            break
    return tuple(seen)


def entails(
    schema: Schema, a: Formula, b: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> EntailmentResult:
    """Decide ``a |= b``; on failure the witness is a countermodel."""
    counter = satisfiable(schema, And(a, Not(b)), limit=limit)
    return EntailmentResult(not counter.holds, counter.witness)


def is_tautology(
    schema: Schema, f: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> bool:
    """True iff ``f`` holds in every model."""
    return not satisfiable(schema, Not(f), limit=limit).holds


def is_contradiction(
    schema: Schema, f: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> bool:
    """True iff ``f`` holds in no model."""
    return not satisfiable(schema, f, limit=limit).holds
