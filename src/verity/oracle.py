"""Reference implementations used to cross-check the engine.

Everything here re-derives its answer from first principles.  Models range
over every value of each categorical key and, for each numeric key, over a
fixed rational grid (halves from -1 to 6) refined with every constant a
formula mentions, the constants' midpoints, and one point beyond each
extreme.  Each key's grid and constants are scaled by 2 * lcm(2, the
constants' denominators), which makes every point an integer, so atoms
compare integers, not Fractions.  Each formula is compiled into its truth
table over that product: a Python int with one bit per model, built from
its atoms' tables with bitwise operations.  The oracle has its own grid,
its own comparisons, its own compiler, which walks each formula once with
a stack of its own, and its own evaluator.  It shares only the parser, the
formula classes and ``validate_atom`` with the engine, which decides
through ``entail``'s own walk; it reads no atom's ``_entry`` and none of
the schema's tables, so agreement between the two is informative.  Its
cost follows the size of the product, not how hard the formula is, so it
is meant for tests and the CLI's ``--oracle`` mode.

There is one question, ``oracle_cells(schema, a, b)``: which of the cells
a & b, a & !b, !a & b and !a & !b have a model, in one pass over the
blocks of the product, stopped after the first block in which every cell
the caller needs has a model.  Every other answer reads it:
``oracle_decide`` needs all four cells, ``oracle_entails(a, b)`` the cell
a & !b and ``oracle_satisfiable(f)`` the cell f & !false, so each of the
latter two stops at the first block that holds its cell and visits every
block only when the cell is empty.

Each ``checked_*`` twin makes its engine call once, asks the oracle the
same question, and raises ``OracleDivergence`` if they disagree on any
fact or witness it returns: ``checked_decide`` compares all four facts,
and ``checked_entails`` confirms a countermodel with ``evaluate``.  A caller
that takes a decision function is checked by passing it one, as the CLI
does: ``partial(checked_entails, schema, limit=N)`` for ``check`` and
``scan_misleading``, ``partial(checked_classify, ...)`` for ``tally``.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Collection, Iterator, Sequence

from .entail import DEFAULT_ASSIGNMENT_LIMIT, EntailmentResult, entails
from .mr import (
    FALSE,
    And,
    CatAtom,
    FalseConst,
    Formula,
    Implies,
    Key,
    Model,
    MrError,
    Not,
    NumAtom,
    Or,
    Schema,
    TrueConst,
    evaluate,
    format_model,
    print_formula,
    validate_atom,
    validate_model,
)
from .taxonomy import PairFacts, Verdict, classify, decide

# The base grid, -1, -1/2, ..., 6, counted in halves.
_BASE_HALVES = range(-2, 13)

_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}

# A truth table spans at most this many models.  The keys beyond it are
# enumerated, and each of their assignments is one block of the product.
_BLOCK_MODELS = 1 << 16

# Code for ``_run``: a non-negative int pushes that atom's table; the rest
# are these operators.
_TRUE, _FALSE, _NOT, _AND, _OR, _IMPLIES = range(-1, -7, -1)
_CONSTANTS = {TrueConst: _TRUE, FalseConst: _FALSE}


class OracleDivergence(MrError):
    """The engine and the reference disagree; one of them is wrong."""


def _grid(constants: Collection[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """The grid for a numeric key whose atoms mention the constants given
    as (numerator, denominator) pairs, scaled to integers.

    Returns the scale, 2 * lcm(2, denominators), and the grid points times
    the scale, ascending: the halves from -1 to 6, the constants, their
    midpoints, and one point below the least and above the greatest.  Every
    scaled constant is even, so its midpoints are integers too."""
    scale = 2 * math.lcm(2, *(q for _, q in constants))
    half = scale // 2
    ordered = sorted({p * (scale // q) for p, q in constants})
    points = {n * half for n in _BASE_HALVES}
    points.update(ordered)
    points.update((lo + hi) // 2 for lo, hi in zip(ordered, ordered[1:]))
    if ordered:
        points.add(ordered[0] - scale)
        points.add(ordered[-1] + scale)
    return scale, tuple(sorted(points))


def _code(
    schema: Schema, formula: Formula, slots: dict[int, int], atoms: list[CatAtom | NumAtom]
) -> list[int]:
    """``formula`` as code, from one walk with an explicit stack: its nodes
    in preorder, reversed, so that every connective follows its operands
    and has its first operand on top of the stack.  Nodes are checked where
    the walk meets them, left to right, as in ``entail``'s walk; each atom
    is validated the first time it is met and gets the next free number,
    its position in ``atoms``.  ``slots`` maps each atom object's ``id`` to
    that number; hashing a NumAtom would hash its Fraction."""
    code: list[int] = []
    stack = [formula]
    while stack:
        f = stack.pop()
        kind = type(f)
        if kind is CatAtom or kind is NumAtom:
            slot = slots.get(id(f))
            if slot is None:
                validate_atom(schema, f)
                slot = slots[id(f)] = len(atoms)
                atoms.append(f)
            code.append(slot)
        elif kind is And or kind is Or:
            code.append(_AND if kind is And else _OR)
            stack += f.right, f.left
        elif kind is Not:
            code.append(_NOT)
            stack.append(f.operand)
        elif kind is Implies:
            code.append(_IMPLIES)
            stack += f.consequent, f.antecedent
        elif kind in _CONSTANTS:
            code.append(_CONSTANTS[kind])
        else:
            raise TypeError(f"not a formula: {f!r}")
    code.reverse()
    return code


def _run(code: list[int], tables: list[int], full: int) -> int:
    stack: list[int] = []
    for op in code:
        if op >= 0:
            stack.append(tables[op])
        elif op == _NOT:
            stack[-1] = full & ~stack[-1]
        elif op == _TRUE:
            stack.append(full)
        elif op == _FALSE:
            stack.append(0)
        else:
            first = stack.pop()
            if op == _AND:
                stack[-1] &= first
            elif op == _OR:
                stack[-1] |= first
            else:  # a -> b is b | !a
                stack[-1] |= full & ~first
    return stack[0]


def _truth_tables(
    schema: Schema, formulas: Sequence[Formula]
) -> Iterator[tuple[int, list[int]]]:
    """One pass over the product of the formulas' joint keys, categorical
    keys sorted and then numeric keys sorted.

    Yields ``(full, tables)`` per block: ``tables`` holds each formula's
    truth table over the block, one bit per model, and ``full`` has a bit
    for every model of the block.  The last keys whose product fits in
    _BLOCK_MODELS make up a table; the keys before them are enumerated, and
    on each block an atom over one of them is ``full`` or 0.
    """
    slots: dict[int, int] = {}
    atoms: list[CatAtom | NumAtom] = []
    codes = [_code(schema, f, slots, atoms) for f in formulas]
    cat_keys: set[Key] = set()
    constants: dict[Key, set[tuple[int, int]]] = {}
    for atom in atoms:
        if type(atom) is NumAtom:
            c = atom.constant
            constants.setdefault((atom.attr, atom.entity), set()).add((c.numerator, c.denominator))
        else:
            cat_keys.add((atom.attr, atom.entity))
    cat, num = sorted(cat_keys), sorted(constants)
    grids = [_grid(constants[k]) for k in num]
    values = [schema.domain(attr) for attr, _ in cat] + [points for _, points in grids]
    index = {k: i for i, k in enumerate(cat + num)}
    sizes = [len(v) for v in values]

    split, span = len(sizes), 1
    while split and span * sizes[split - 1] <= _BLOCK_MODELS:
        split -= 1
        span *= sizes[split]
    full = (1 << span) - 1
    # A table key's value is one digit of a model's bit index: a run of
    # ``stride`` models per value; ``repeat`` copies one period's pattern.
    layout = {}  # key index -> (stride, run, repeat), for each table key
    stride = 1
    for i in reversed(range(split, len(sizes))):
        period = stride * sizes[i]
        layout[i] = stride, (1 << stride) - 1, full // ((1 << period) - 1)
        stride = period

    tables = [0] * len(atoms)
    leading = []  # (slot, key index, truth per value) of atoms over enumerated keys
    for slot, atom in enumerate(atoms):
        i = index[atom.attr, atom.entity]
        if type(atom) is NumAtom:
            scale, c = grids[i - len(cat)][0], atom.constant
            scaled = c.numerator * (scale // c.denominator)
            compare = _COMPARE[atom.cmp]
            truth = [compare(v, scaled) for v in values[i]]
        elif i >= split:  # one value's run
            stride, run, repeat = layout[i]
            tables[slot] = (run << values[i].index(atom.value) * stride) * repeat
            continue
        else:
            truth = [v == atom.value for v in values[i]]
        if i < split:
            leading.append((slot, i, truth))
            continue
        stride, run, repeat = layout[i]
        pattern = 0
        for v, holds in enumerate(truth):
            if holds:
                pattern |= run << (v * stride)
        tables[slot] = pattern * repeat

    for choice in itertools.product(*map(range, sizes[:split])):
        for slot, i, truth in leading:
            tables[slot] = full if truth[choice[i]] else 0
        yield full, [_run(code, tables, full) for code in codes]


def oracle_cells(
    schema: Schema, a: Formula, b: Formula, stop: int = 0b1111
) -> tuple[bool, bool, bool, bool]:
    """Which of ``a & b``, ``a & !b``, ``!a & b`` and ``!a & !b`` have a
    model, in ``entail.pair_cells``' order: one ``_truth_tables`` pass,
    stopped after the first block in which every cell of the mask ``stop``
    (bit i for cell i, as ``_search`` names them) has a model."""
    seen = 0
    for full, (ta, tb) in _truth_tables(schema, (a, b)):
        na, nb = full & ~ta, full & ~tb
        seen |= bool(ta & tb) | bool(ta & nb) << 1 | bool(na & tb) << 2 | bool(na & nb) << 3
        if seen & stop == stop:
            break
    return ((seen & 1) != 0, (seen & 2) != 0, (seen & 4) != 0, (seen & 8) != 0)


def oracle_satisfiable(schema: Schema, f: Formula) -> bool:
    return oracle_cells(schema, f, FALSE, 0b0010)[1]  # f & !false


def oracle_entails(schema: Schema, a: Formula, b: Formula) -> bool:
    return not oracle_cells(schema, a, b, 0b0010)[1]  # a & !b


def oracle_decide(schema: Schema, input_mr: Formula, output_mr: Formula) -> PairFacts:
    # The joint grid refines each formula's own grid, so the facts below
    # are each formula's own.
    i_and_o, i_and_not_o, not_i_and_o, neither = oracle_cells(schema, input_mr, output_mr)
    input_satisfiable = i_and_o or i_and_not_o
    forward = not i_and_not_o  # I |= O
    backward = not not_i_and_o  # O |= I
    output_tautology = not (i_and_not_o or neither)
    output_contradiction = not (i_and_o or not_i_and_o)
    conflict = not i_and_o  # I |= !O

    # The decision tree is repeated here on purpose; sharing it with
    # taxonomy.decide would make the cross-check vacuous.
    if not input_satisfiable:
        verdict = Verdict.INCONSISTENT_INPUT
    elif forward and backward:
        verdict = Verdict.WELL_MATCHED
    elif forward:
        verdict = Verdict.TAUTOLOGOUS if output_tautology else Verdict.TOO_WEAK
    elif backward:
        verdict = Verdict.SELF_CONTRADICTORY if output_contradiction else Verdict.TOO_STRONG
    elif conflict:
        verdict = Verdict.CONFLICTING
    else:
        verdict = Verdict.INDEPENDENT
    return PairFacts(input_satisfiable, forward, backward, conflict, verdict)


def oracle_classify(schema: Schema, input_mr: Formula, output_mr: Formula) -> Verdict:
    return oracle_decide(schema, input_mr, output_mr).verdict


def _shown(formulas: Sequence[Formula]) -> str:
    return ", ".join(repr(print_formula(f)) for f in formulas)


def _agree(operation: str, engine: object, reference: object, *formulas: Formula) -> None:
    if engine != reference:
        raise OracleDivergence(
            f"{operation}({_shown(formulas)}): engine says {engine}, oracle says {reference}"
        )


def checked_entails(
    schema: Schema, a: Formula, b: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> EntailmentResult:
    """``entails``, checked: the answer against ``oracle_entails``, and the
    countermodel by evaluating ``a`` (true) and ``b`` (false) in it."""
    engine = entails(schema, a, b, limit=limit)
    _agree("entails", engine.holds, oracle_entails(schema, a, b), a, b)
    if not engine.holds and not _counters(schema, engine.witness, a, b):
        raise OracleDivergence(
            f"entails({_shown((a, b))}): engine's countermodel {format_model(engine.witness)} "
            "does not make the first true and the second false"
        )
    return engine


def _counters(schema: Schema, model: Model, a: Formula, b: Formula) -> bool:
    """Whether ``model`` is a model of ``schema`` in which ``a`` holds and
    ``b`` does not."""
    try:
        validate_model(schema, model)
        return evaluate(model, a) and not evaluate(model, b)
    except MrError:  # a value outside the schema, or a key the model lacks
        return False


def checked_decide(
    schema: Schema, input_mr: Formula, output_mr: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> PairFacts:
    """``decide``, checked: the verdict, then each fact, against
    ``oracle_decide``."""
    engine = decide(schema, input_mr, output_mr, limit=limit)
    reference = oracle_decide(schema, input_mr, output_mr)
    _agree("classify", engine.verdict.value, reference.verdict.value, input_mr, output_mr)
    for fact in ("input_satisfiable", "forward", "backward", "conflict"):
        _agree(
            "classify",
            f"{fact}={getattr(engine, fact)}",
            f"{fact}={getattr(reference, fact)}",
            input_mr,
            output_mr,
        )
    return engine


def checked_classify(
    schema: Schema, input_mr: Formula, output_mr: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> Verdict:
    engine = classify(schema, input_mr, output_mr, limit=limit)
    reference = oracle_classify(schema, input_mr, output_mr)
    _agree("classify", engine.value, reference.value, input_mr, output_mr)
    return engine

