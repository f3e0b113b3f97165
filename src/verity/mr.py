"""Meaning representations: schemas, formulas, models, parsing, printing.

A meaning representation (MR) is a quantifier-free boolean formula over
atoms that constrain attributes of named entities.  An attribute is either
categorical (it takes exactly one value out of a finite domain) or numeric
(it takes one exact rational value).  A model assigns one value to every
(attribute, entity) key a formula mentions; evaluation is classical.

Text syntax, lowest precedence first::

    formula  :=  formula '->' formula      right associative
              |  formula '|' formula
              |  formula '&' formula
              |  '!' formula
              |  '(' formula ')'
              |  'true' | 'false'
              |  Attr '(' entity ')' '=' Value          categorical atom
              |  Attr '(' entity ')' cmp number         numeric atom, cmp in < <= = >= >

Parentheses nest at most MAX_NESTING deep; every other construct is read
in a loop, so its length is unbounded.

Schemas are line oriented: ``attr Name : { A, B, C }`` declares a
categorical attribute, ``num Name`` a numeric one, ``#`` starts a comment.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Union

# ---------------------------------------------------------------------------
# Errors


class MrError(Exception):
    """Base class for every error this package raises deliberately."""


class SourceError(MrError):
    """An error tied to a position in schema or formula source text."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        prefix = ""
        if line is not None:
            prefix = f"{line}:" if col is None else f"{line}:{col}:"
            prefix += " "
        super().__init__(prefix + message)


class ParseError(SourceError):
    """Malformed schema or formula text."""


class DuplicateAttribute(SourceError):
    """The same attribute name is declared twice in one schema."""


class DuplicateValue(SourceError):
    """The same value appears twice in one categorical domain."""


class UnknownAttribute(SourceError):
    """A formula mentions an attribute the schema does not declare."""


class ValueNotInDomain(SourceError):
    """A categorical atom uses a value outside the attribute's domain."""


class NumericComparisonOnCategorical(SourceError):
    """A categorical attribute is ordered or compared against a number."""


class CategoricalComparisonOnNumeric(SourceError):
    """A numeric attribute is equated with a value name."""


class MissingKey(MrError):
    """A model assigns nothing to a key the formula mentions."""


# ---------------------------------------------------------------------------
# Schema


@dataclass(frozen=True)
class Schema:
    """Declares the attributes formulas may mention.

    ``categorical`` maps each categorical attribute to its domain, in
    declaration order; ``numeric`` names the rational-valued attributes.
    """

    categorical: Mapping[str, tuple[str, ...]]
    numeric: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "categorical", {a: tuple(vs) for a, vs in self.categorical.items()}
        )
        object.__setattr__(self, "numeric", frozenset(self.numeric))
        for attr, values in self.categorical.items():
            if not values:
                raise ValueError(f"attribute {attr!r} has an empty domain")
            if len(set(values)) != len(values):
                raise ValueError(f"attribute {attr!r} repeats a domain value")
            if attr in self.numeric:
                raise ValueError(f"attribute {attr!r} is both categorical and numeric")

    def is_categorical(self, attr: str) -> bool:
        return attr in self.categorical

    def is_numeric(self, attr: str) -> bool:
        return attr in self.numeric

    def domain(self, attr: str) -> tuple[str, ...]:
        try:
            return self.categorical[attr]
        except KeyError:
            raise UnknownAttribute(f"unknown attribute {attr!r}") from None


# ---------------------------------------------------------------------------
# Formulas

_CMP_SYMBOLS = ("<", "<=", "=", ">=", ">")
_CMP_FUNCS = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


# Formula nodes have slots, and the parser interns the names in atoms, so a
# corpus of parsed formulas held in memory takes about a third of the space.


@dataclass(frozen=True, slots=True)
class TrueConst:
    """The formula that holds in every model."""


@dataclass(frozen=True, slots=True)
class FalseConst:
    """The formula that holds in no model."""


@dataclass(frozen=True, slots=True)
class CatAtom:
    """``Attr(entity)=Value``: the attribute takes exactly this value."""

    attr: str
    entity: str
    value: str


@dataclass(frozen=True, slots=True)
class NumAtom:
    """``Attr(entity) cmp constant`` for a rational-valued attribute."""

    attr: str
    entity: str
    cmp: str
    constant: Fraction

    def __post_init__(self) -> None:
        if self.cmp not in _CMP_SYMBOLS:
            raise ValueError(f"bad comparison operator {self.cmp!r}")
        if not isinstance(self.constant, Fraction):
            object.__setattr__(self, "constant", Fraction(self.constant))


@dataclass(frozen=True, slots=True)
class Not:
    operand: Formula


@dataclass(frozen=True, slots=True)
class And:
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or:
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies:
    antecedent: Formula
    consequent: Formula


Formula = Union[TrueConst, FalseConst, CatAtom, NumAtom, Not, And, Or, Implies]

TRUE = TrueConst()
FALSE = FalseConst()

# A key pairs an attribute with the entity it is asserted of.
Key = tuple[str, str]


@dataclass(frozen=True)
class Model:
    """A value for every key in some finite set of keys."""

    categorical: Mapping[Key, str]
    numeric: Mapping[Key, Fraction]


# ---------------------------------------------------------------------------
# Traversal and checking


def iter_atoms(formula: Formula) -> Iterator[CatAtom | NumAtom]:
    """Yield every atom of ``formula`` left to right, duplicates included.

    The walk keeps its own stack, so a formula of any depth can be walked.
    """
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, (CatAtom, NumAtom)):
            yield f
        elif isinstance(f, Not):
            stack.append(f.operand)
        elif isinstance(f, (And, Or)):
            stack.append(f.right)
            stack.append(f.left)
        elif isinstance(f, Implies):
            stack.append(f.consequent)
            stack.append(f.antecedent)
        elif not isinstance(f, (TrueConst, FalseConst)):
            raise TypeError(f"not a formula: {f!r}")


def categorical_keys(formula: Formula) -> frozenset[Key]:
    return frozenset(
        (a.attr, a.entity) for a in iter_atoms(formula) if isinstance(a, CatAtom)
    )


def numeric_keys(formula: Formula) -> frozenset[Key]:
    return frozenset(
        (a.attr, a.entity) for a in iter_atoms(formula) if isinstance(a, NumAtom)
    )


def validate_formula(schema: Schema, formula: Formula) -> None:
    """Raise if any atom of ``formula`` is inconsistent with ``schema``."""
    for atom in iter_atoms(formula):
        validate_atom(schema, atom)


def validate_atom(schema: Schema, atom: CatAtom | NumAtom) -> None:
    """Raise if ``atom`` is inconsistent with ``schema``."""
    if isinstance(atom, CatAtom):
        if schema.is_numeric(atom.attr):
            raise CategoricalComparisonOnNumeric(
                f"attribute {atom.attr!r} is numeric, not categorical"
            )
        if atom.value not in schema.domain(atom.attr):
            raise ValueNotInDomain(
                f"{atom.value!r} is not in the domain of {atom.attr!r}"
            )
    else:
        if schema.is_categorical(atom.attr):
            raise NumericComparisonOnCategorical(
                f"attribute {atom.attr!r} is categorical, not numeric"
            )
        if not schema.is_numeric(atom.attr):
            raise UnknownAttribute(f"unknown attribute {atom.attr!r}")


def validate_model(schema: Schema, model: Model) -> None:
    """Raise if ``model`` assigns outside ``schema``'s attributes or domains."""
    for (attr, _), value in model.categorical.items():
        if schema.is_numeric(attr):
            raise CategoricalComparisonOnNumeric(
                f"attribute {attr!r} is numeric but assigned {value!r}"
            )
        if value not in schema.domain(attr):
            raise ValueNotInDomain(f"{value!r} is not in the domain of {attr!r}")
    for attr, _ in model.numeric:
        if schema.is_categorical(attr):
            raise NumericComparisonOnCategorical(
                f"attribute {attr!r} is categorical but assigned a number"
            )
        if not schema.is_numeric(attr):
            raise UnknownAttribute(f"unknown attribute {attr!r}")


def evaluate(model: Model, formula: Formula) -> bool:
    """Truth value of ``formula`` in ``model``.

    Raises MissingKey when evaluation reaches an atom whose key the model
    does not assign; connectives short-circuit, so keys of unreached
    subformulas are not required.
    """
    if isinstance(formula, TrueConst):
        return True
    if isinstance(formula, FalseConst):
        return False
    if isinstance(formula, CatAtom):
        try:
            actual = model.categorical[formula.attr, formula.entity]
        except KeyError:
            raise MissingKey(
                f"model assigns no value to {formula.attr}({formula.entity})"
            ) from None
        return actual == formula.value
    if isinstance(formula, NumAtom):
        try:
            actual = model.numeric[formula.attr, formula.entity]
        except KeyError:
            raise MissingKey(
                f"model assigns no value to {formula.attr}({formula.entity})"
            ) from None
        return _CMP_FUNCS[formula.cmp](actual, formula.constant)
    if isinstance(formula, Not):
        return not evaluate(model, formula.operand)
    if isinstance(formula, And):
        return evaluate(model, formula.left) and evaluate(model, formula.right)
    if isinstance(formula, Or):
        return evaluate(model, formula.left) or evaluate(model, formula.right)
    if isinstance(formula, Implies):
        return not evaluate(model, formula.antecedent) or evaluate(
            model, formula.consequent
        )
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# Printing


def fraction_str(q: Fraction) -> str:
    """Exact text for a rational: integer, finite decimal, or ``p/q``."""
    if q.denominator == 1:
        return str(q.numerator)
    d = q.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        # The decimal expansion would not terminate.
        return f"{q.numerator}/{q.denominator}"
    exp = max(twos, fives)
    digits = abs(q.numerator) * 10**exp // q.denominator
    whole, frac = divmod(digits, 10**exp)
    sign = "-" if q.numerator < 0 else ""
    return f"{sign}{whole}.{str(frac).zfill(exp)}"


_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_ATOM = 1, 2, 3, 4


def print_formula(formula: Formula) -> str:
    """Render ``formula`` as text that parses back to an equal formula."""
    return _print(formula, _PREC_IMPLIES)


def _print(f: Formula, min_prec: int) -> str:
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, FalseConst):
        return "false"
    if isinstance(f, CatAtom):
        return f"{f.attr}({f.entity})={f.value}"
    if isinstance(f, NumAtom):
        return f"{f.attr}({f.entity}) {f.cmp} {fraction_str(f.constant)}"
    if isinstance(f, Not):
        return f"!({_print(f.operand, _PREC_IMPLIES)})"
    if isinstance(f, And):
        text = f"{_print(f.left, _PREC_AND)} & {_print(f.right, _PREC_ATOM)}"
        prec = _PREC_AND
    elif isinstance(f, Or):
        text = f"{_print(f.left, _PREC_OR)} | {_print(f.right, _PREC_AND)}"
        prec = _PREC_OR
    elif isinstance(f, Implies):
        # Right associative: the consequent may be another implication bare.
        text = f"{_print(f.antecedent, _PREC_OR)} -> {_print(f.consequent, _PREC_IMPLIES)}"
        prec = _PREC_IMPLIES
    else:
        raise TypeError(f"not a formula: {f!r}")
    return f"({text})" if prec < min_prec else text


def format_model(model: Model) -> str:
    """One-line rendering of a model, keys sorted; ``{}`` when empty."""
    entries = [((a, e), v) for (a, e), v in model.categorical.items()]
    entries += [((a, e), fraction_str(v)) for (a, e), v in model.numeric.items()]
    entries.sort(key=lambda kv: kv[0])
    if not entries:
        return "{}"
    return ", ".join(f"{a}({e})={v}" for (a, e), v in entries)


# ---------------------------------------------------------------------------
# Lexing


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r]+)"
    r"|(?P<nl>\n)"
    r"|(?P<number>-?\d+(?:\.\d+|/\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>->|<=|>=|[()=<>{},:|&!])"
)


def _tokenize(text: str, line: int = 1) -> list[Token]:
    tokens: list[Token] = []
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind != "ws":
            tok_text = m.group()
            if kind == "op":
                kind = tok_text
            tokens.append(Token(kind, tok_text, line, pos - line_start + 1))
        pos = m.end()
    tokens.append(Token("end", "", line, pos - line_start + 1))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self.depth = 0  # parentheses open around the current position

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "end":
            self._pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            wanted = what or repr(kind)
            got = "end of input" if tok.kind == "end" else repr(tok.text)
            raise ParseError(f"expected {wanted}, got {got}", tok.line, tok.col)
        return self.advance()


# ---------------------------------------------------------------------------
# Parsing

# Each open parenthesis costs the recursive-descent parser a few stack
# frames, so nesting is capped well inside the interpreter's recursion limit.
MAX_NESTING = 100


def read_source(path: str | Path) -> str:
    """Read a UTF-8 source file; bytes that do not decode are a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from None


def parse_schema(text: str) -> Schema:
    """Parse schema source: one declaration per line, ``#`` comments."""
    categorical: dict[str, tuple[str, ...]] = {}
    numeric: set[str] = set()

    def declare(tok: Token) -> None:
        if tok.text in categorical or tok.text in numeric:
            raise DuplicateAttribute(
                f"duplicate attribute {tok.text!r}", tok.line, tok.col
            )

    for line_no, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        if not code.strip():
            continue
        stream = _TokenStream(_tokenize(code, line=line_no))
        head = stream.expect("ident", what="'attr' or 'num'")
        if head.text == "num":
            name = stream.expect("ident", what="attribute name")
            stream.expect("end", what="end of line")
            declare(name)
            numeric.add(name.text)
        elif head.text == "attr":
            name = stream.expect("ident", what="attribute name")
            stream.expect(":")
            stream.expect("{")
            values: list[str] = []
            while True:
                v = stream.expect("ident", what="domain value")
                if v.text in values:
                    raise DuplicateValue(
                        f"duplicate value {v.text!r} for attribute {name.text!r}",
                        v.line,
                        v.col,
                    )
                values.append(v.text)
                if stream.peek().kind != ",":
                    break
                stream.advance()
            stream.expect("}")
            stream.expect("end", what="end of line")
            declare(name)
            categorical[name.text] = tuple(values)
        else:
            raise ParseError(
                f"expected 'attr' or 'num', got {head.text!r}", head.line, head.col
            )
    return Schema(categorical, frozenset(numeric))


def parse_formula(text: str, schema: Schema) -> Formula:
    """Parse formula text, checking every atom against ``schema``."""
    stream = _TokenStream(_tokenize(text))
    formula = _parse_implies(stream, schema)
    trailing = stream.peek()
    if trailing.kind != "end":
        raise ParseError(
            f"unexpected {trailing.text!r} after formula", trailing.line, trailing.col
        )
    return formula


def _parse_implies(stream: _TokenStream, schema: Schema) -> Formula:
    # '->' is right associative: the chain is read in a loop and folded
    # from the right, so its length is not bounded by the recursion limit.
    operands = [_parse_or(stream, schema)]
    while stream.peek().kind == "->":
        stream.advance()
        operands.append(_parse_or(stream, schema))
    formula = operands.pop()
    while operands:
        formula = Implies(operands.pop(), formula)
    return formula


def _parse_or(stream: _TokenStream, schema: Schema) -> Formula:
    left = _parse_and(stream, schema)
    while stream.peek().kind == "|":
        stream.advance()
        left = Or(left, _parse_and(stream, schema))
    return left


def _parse_and(stream: _TokenStream, schema: Schema) -> Formula:
    left = _parse_unary(stream, schema)
    while stream.peek().kind == "&":
        stream.advance()
        left = And(left, _parse_unary(stream, schema))
    return left


def _parse_unary(stream: _TokenStream, schema: Schema) -> Formula:
    # A run of '!' is read in a loop, so its length is not bounded by the
    # interpreter's recursion limit.
    negations = 0
    while stream.peek().kind == "!":
        stream.advance()
        negations += 1
    formula = _parse_primary(stream, schema)
    for _ in range(negations):
        formula = Not(formula)
    return formula


def _parse_primary(stream: _TokenStream, schema: Schema) -> Formula:
    tok = stream.peek()
    if tok.kind == "(":
        if stream.depth == MAX_NESTING:
            raise ParseError(
                f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.col
            )
        stream.advance()
        stream.depth += 1
        inner = _parse_implies(stream, schema)
        stream.expect(")")
        stream.depth -= 1
        return inner
    if tok.kind == "ident":
        if tok.text == "true":
            stream.advance()
            return TRUE
        if tok.text == "false":
            stream.advance()
            return FALSE
        return _parse_atom(stream, schema)
    got = "end of input" if tok.kind == "end" else repr(tok.text)
    raise ParseError(f"expected a formula, got {got}", tok.line, tok.col)


def _parse_atom(stream: _TokenStream, schema: Schema) -> Formula:
    attr_tok = stream.advance()
    attr = attr_tok.text
    if not schema.is_categorical(attr) and not schema.is_numeric(attr):
        raise UnknownAttribute(
            f"unknown attribute {attr!r}", attr_tok.line, attr_tok.col
        )
    stream.expect("(")
    entity = stream.expect("ident", what="entity name").text
    stream.expect(")")
    op_tok = stream.peek()
    if op_tok.kind not in _CMP_SYMBOLS:
        got = "end of input" if op_tok.kind == "end" else repr(op_tok.text)
        raise ParseError(f"expected comparison operator, got {got}", op_tok.line, op_tok.col)
    stream.advance()
    if schema.is_categorical(attr):
        if op_tok.kind != "=":
            raise NumericComparisonOnCategorical(
                f"attribute {attr!r} is categorical; only '=' applies",
                op_tok.line,
                op_tok.col,
            )
        val_tok = stream.peek()
        if val_tok.kind == "number":
            raise NumericComparisonOnCategorical(
                f"attribute {attr!r} is categorical; compared against a number",
                val_tok.line,
                val_tok.col,
            )
        val_tok = stream.expect("ident", what="domain value")
        if val_tok.text not in schema.domain(attr):
            raise ValueNotInDomain(
                f"{val_tok.text!r} is not in the domain of {attr!r}",
                val_tok.line,
                val_tok.col,
            )
        return CatAtom(sys.intern(attr), sys.intern(entity), sys.intern(val_tok.text))
    val_tok = stream.peek()
    if val_tok.kind == "ident":
        raise CategoricalComparisonOnNumeric(
            f"attribute {attr!r} is numeric; compared against {val_tok.text!r}",
            val_tok.line,
            val_tok.col,
        )
    val_tok = stream.expect("number", what="numeric constant")
    try:
        constant = Fraction(val_tok.text)
    except ZeroDivisionError:
        raise ParseError(
            f"zero denominator in {val_tok.text!r}", val_tok.line, val_tok.col
        ) from None
    return NumAtom(sys.intern(attr), sys.intern(entity), op_tok.kind, constant)
