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

Parsing scans the whole text into tokens with one ``findall`` call of one
regular expression, which reads each whole atom as a single token and each
token together with the blanks before it, and gives each token as a plain
tuple of its groups' texts, without its place.  It then builds the formula
in one precedence-climbing loop with explicit stacks, so neither the
length of a formula nor the depth of its parentheses is bounded.  An atom
token's parts build and check the atom, once per schema; text that starts
like an atom but that the scanner could not read whole is read again token
by token, which finds its error.  Only an error needs a place: it scans the
text again with ``finditer`` of the same expression to find where its token
starts, so a formula that parses pays for no offsets.

One explicit-stack walk, ``_preorder``, lists a formula's nodes; equality,
hashing, ``repr``, ``print_formula``, ``iter_atoms`` and the oracle's
compiler all read that list, so no formula is too deep for them.  Two walks
keep their own stacks, because reading ``_preorder`` was measured to be
slower.  ``evaluate`` short-circuits; read from ``_preorder`` backwards it
gave the same results on 20,000 random cases, but bdi scans, which call it
about 300 times each, ran 29% slower (4-14% with a fast path for atoms).
The other is ``entail._compile``'s, on the decision path, which checks,
keys and tables each atom where it meets it; when that walk was a pass of
its own, reading ``_preorder`` instead saved no lines, ran 1.5 times slower
and made random-mix ``classify`` 4-7% slower.

Schemas are line oriented: ``attr Name : { A, B, C }`` declares a
categorical attribute, ``num Name`` a numeric one, ``#`` starts a comment.
Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, and spaces and tabs are the only
blanks.  One regular expression reads each well-formed line whole; any
other line is read token by token, which words and places its error.
"""

from __future__ import annotations

import decimal
import operator
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Container, Iterable, Iterator, Mapping, Union

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


class InvalidEntity(SourceError):
    """An atom's entity is not a name the formula grammar reads."""


class MissingKey(MrError):
    """A model assigns nothing to a key the formula mentions."""


# ---------------------------------------------------------------------------
# Records


# Binds a record's fields past its own ``__setattr__``, which refuses.
_set = object.__setattr__


def _setters(cls: type) -> tuple:
    """The setter of each of ``cls``'s slots, in ``__slots__`` order: like
    ``_set``, but with no slot to find by name, so about a third faster."""
    return tuple([cls.__dict__[name].__set__ for name in cls.__slots__])


class _Record:
    """The base of this package's immutable value classes.

    A subclass names its value fields in ``_fields``, which are also its
    ``__match_args__``, and sets them in its own ``__init__``: a formula
    class through its slots' setters (see ``_setters``), any other with ``_set``.
    Records compare, hash and ``repr`` by those fields as a frozen dataclass
    would, refuse to have a field assigned or deleted, and copy and pickle by
    calling their class on their fields again.  ``__replace__`` (which
    ``copy.replace`` calls on Python 3.13+) makes a record with some fields
    changed the same way, so it runs every check of the class's
    ``__init__``.  No record is a dataclass: the ``dataclasses`` module and
    what it imports were about a third of ``import verity``, and each
    dataclass cost about half a millisecond more to build.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __replace__(self, **changes: object) -> _Record:
        for name in changes:
            if name not in self._fields:
                raise TypeError(f"{type(self).__qualname__} has no field {name!r}")
        return type(self)(**{name: changes.get(name, getattr(self, name)) for name in self._fields})


# ---------------------------------------------------------------------------
# Schema

# The most atoms a schema's parser cache holds: one more clears it.
_ATOMS_KEPT = 2**16


class Schema(_Record):
    """Declares the attributes formulas may mention.

    ``categorical`` maps each categorical attribute to its domain, in
    declaration order; ``numeric`` names the rational-valued attributes.
    Each domain is indexed once, so no check of a value scans its domain.
    Equality, hashing and ``repr`` read only these two fields.
    """

    __match_args__ = _fields = ("categorical", "numeric")
    # Besides the fields, three caches, each keyed by value:
    # - ``_positions``: each categorical attribute's values, each mapped to
    #   its position in the domain.  An atom's entry starts with the
    #   ``_positions`` of the schema it was checked against (see ``CatAtom``).
    # - ``_atoms``: the schema's own atoms, every atom parsed under it, keyed
    #   by the text of its parts (attribute, entity, operator, value); only
    #   valid atoms are kept, and at most ``_ATOMS_KEPT`` of them.
    # - ``_tables``: for each (attribute, value) of a categorical atom checked
    #   against this schema, a cell every entity's entry shares: empty until
    #   ``entail._compile`` first tables such an atom, then its truth tables.
    __slots__ = (*_fields, "_positions", "_atoms", "_tables")
    categorical: Mapping[str, tuple[str, ...]]
    numeric: frozenset[str]
    _positions: dict[str, dict[str, int]]
    _atoms: dict[tuple[str, str, str, str], CatAtom | NumAtom]
    _tables: dict[tuple[str, str], list]

    def __init__(self, categorical: Mapping[str, tuple[str, ...]], numeric: frozenset[str]):
        categorical = {a: tuple(vs) for a, vs in categorical.items()}
        numeric = frozenset(numeric)
        for attr, values in categorical.items():
            if not values:
                raise ValueError(f"attribute {attr!r} has an empty domain")
            for value in values:
                if not _is_name(value):
                    raise ValueError(f"attribute {attr!r} has value {value!r}, which is not a name")
            if len(set(values)) != len(values):
                raise ValueError(f"attribute {attr!r} repeats a domain value")
            if attr in numeric:
                raise ValueError(f"attribute {attr!r} is both categorical and numeric")
        for attr in (*categorical, *numeric):
            if not _is_name(attr):
                raise ValueError(f"attribute name {attr!r} is not a name")
            if attr in _CONSTANTS:
                raise ValueError(f"attribute name {attr!r} is reserved")
        self._fill(categorical, numeric)

    @classmethod
    def _parsed(cls, categorical: dict[str, tuple[str, ...]], numeric: frozenset[str]) -> Schema:
        """A schema of declarations ``parse_schema`` has read, which need
        none of ``__init__``'s checks: every name and value is a name, no
        name is reserved or declared twice, and no domain is empty or
        repeats a value."""
        schema = cls.__new__(cls)
        schema._fill(categorical, numeric)
        return schema

    def _fill(self, categorical: dict[str, tuple[str, ...]], numeric: frozenset[str]) -> None:
        _set(self, "categorical", categorical)
        _set(self, "numeric", numeric)
        _set(
            self,
            "_positions",
            {a: {v: i for i, v in enumerate(vs)} for a, vs in categorical.items()},
        )
        _set(self, "_atoms", {})
        _set(self, "_tables", {})

    def is_categorical(self, attr: str) -> bool:
        return attr in self.categorical

    def is_numeric(self, attr: str) -> bool:
        return attr in self.numeric

    def domain(self, attr: str) -> tuple[str, ...]:
        try:
            return self.categorical[attr]
        except KeyError:
            raise UnknownAttribute(f"unknown attribute {attr!r}") from None


def _is_name(text: object) -> bool:
    """Whether formula and schema text can spell ``text`` as an attribute
    name or a categorical value: exactly the strings ``_NAME`` matches."""
    return isinstance(text, str) and text.isascii() and text.isidentifier()


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


# Formula nodes have slots, the parser interns the names in atoms, and each
# schema hands out one node per distinct atom text, so a corpus of parsed
# formulas held in memory stays small.


class TrueConst(_Record):
    """The formula that holds in every model."""

    __slots__ = ()


class FalseConst(_Record):
    """The formula that holds in no model."""

    __slots__ = ()


# Atoms compare and hash by hand: bdi scans look them up in dicts and lists
# of norms, and a hand-written test is faster than ``_Record``'s.  Besides
# its fields, an atom has one private slot, ``_entry``, that no comparison,
# hash, ``repr``, copy or pickle reads: None, or what ``_entry_of`` made of
# it under the schema it was last checked against, which a question under
# that schema reads instead of checking the atom again.


class CatAtom(_Record):
    """``Attr(entity)=Value``: the attribute takes exactly this value."""

    __match_args__ = _fields = ("attr", "entity", "value")
    __slots__ = (*_fields, "_entry")
    attr: str
    entity: str
    value: str

    def __init__(self, attr: str, entity: str, value: str):
        _cat_attr(self, attr)
        _cat_entity(self, entity)
        _cat_value(self, value)
        _cat_entry(self, None)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CatAtom:
            return NotImplemented
        return self.value == other.value and self.attr == other.attr and self.entity == other.entity

    def __hash__(self) -> int:
        return hash((self.attr, self.entity, self.value))


class NumAtom(_Record):
    """``Attr(entity) cmp constant`` for a rational-valued attribute."""

    __match_args__ = _fields = ("attr", "entity", "cmp", "constant")
    __slots__ = (*_fields, "_entry")
    attr: str
    entity: str
    cmp: str
    constant: Fraction

    def __init__(self, attr: str, entity: str, cmp: str, constant: Fraction):
        if cmp not in _CMP_SYMBOLS:
            raise ValueError(f"bad comparison operator {cmp!r}")
        _num_attr(self, attr)
        _num_entity(self, entity)
        _num_cmp(self, cmp)
        _num_constant(self, constant if isinstance(constant, Fraction) else Fraction(constant))
        _num_entry(self, None)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not NumAtom:
            return NotImplemented
        return (
            self.cmp == other.cmp
            and self.attr == other.attr
            and self.entity == other.entity
            and self.constant == other.constant
        )

    def __hash__(self) -> int:
        return hash((self.attr, self.entity, self.cmp, self.constant))


_cat_attr, _cat_entity, _cat_value, _cat_entry = _setters(CatAtom)
_num_attr, _num_entity, _num_cmp, _num_constant, _num_entry = _setters(NumAtom)


def _entry_of(schema: Schema, atom: CatAtom | NumAtom) -> tuple:
    """What a question reads of ``atom``, valid under ``schema``: the
    schema's ``_positions``, the atom's key, then its domain's size, value
    position and tables' cell, or its constant's numerator and denominator."""
    key = (atom.attr, atom.entity)
    if type(atom) is NumAtom:
        return schema._positions, key, atom.constant.numerator, atom.constant.denominator
    positions = schema._positions[atom.attr]
    cell = schema._tables.setdefault((atom.attr, atom.value), [None, None])
    return schema._positions, key, len(positions), positions[atom.value], cell


def _preorder(formula: Formula) -> list:
    """``formula`` in preorder: each connective as its class, each atom or
    constant as itself.  Connectives have fixed arity, so two formulas are
    equal exactly when these lists are.  Raises TypeError at a node that
    is a class."""
    out: list = []
    stack = [formula]
    while stack:
        f = stack.pop()
        kind = type(f)
        if kind is Not:
            out.append(Not)
            stack.append(f.operand)
        elif kind is And or kind is Or:
            out.append(kind)
            stack.append(f.right)
            stack.append(f.left)
        elif kind is Implies:
            out.append(Implies)
            stack.append(f.consequent)
            stack.append(f.antecedent)
        elif isinstance(f, type):
            # In the output a class stands for a connective node, so a class
            # given as an operand would read as one.
            raise TypeError(f"not a formula: {f!r}")
        else:
            out.append(f)
    return out


class _Connective(_Record):
    """The connectives' base: they compare, hash and repr through
    ``_preorder`` rather than field by field, which would recurse, so depth
    is no limit."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self is other or _preorder(self) == _preorder(other)

    def __hash__(self) -> int:
        return hash(tuple(_preorder(self)))

    def __repr__(self) -> str:
        """The text ``_Record.__repr__`` would give, without recursing."""
        return _render(self, _REPR, repr, 0)


class Not(_Connective):
    __slots__ = __match_args__ = _fields = ("operand",)
    operand: Formula

    def __init__(self, operand: Formula):
        _not_operand(self, operand)


class And(_Connective):
    __slots__ = __match_args__ = _fields = ("left", "right")
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula):
        _and_left(self, left)
        _and_right(self, right)


class Or(_Connective):
    __slots__ = __match_args__ = _fields = ("left", "right")
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula):
        _or_left(self, left)
        _or_right(self, right)


class Implies(_Connective):
    __slots__ = __match_args__ = _fields = ("antecedent", "consequent")
    antecedent: Formula
    consequent: Formula

    def __init__(self, antecedent: Formula, consequent: Formula):
        _implies_antecedent(self, antecedent)
        _implies_consequent(self, consequent)


(_not_operand,) = _setters(Not)
_and_left, _and_right = _setters(And)
_or_left, _or_right = _setters(Or)
_implies_antecedent, _implies_consequent = _setters(Implies)

Formula = Union[TrueConst, FalseConst, CatAtom, NumAtom, Not, And, Or, Implies]

_CONNECTIVES = (Not, And, Or, Implies)

TRUE = TrueConst()
FALSE = FalseConst()

# A key pairs an attribute with the entity it is asserted of.
Key = tuple[str, str]


class Model(_Record):
    """A value for every key in some finite set of keys."""

    __slots__ = __match_args__ = _fields = ("categorical", "numeric")
    categorical: Mapping[Key, str]
    numeric: Mapping[Key, Fraction]

    def __init__(self, categorical: Mapping[Key, str], numeric: Mapping[Key, Fraction]):
        _set(self, "categorical", categorical)
        _set(self, "numeric", numeric)


# ---------------------------------------------------------------------------
# Traversal and checking


def iter_atoms(formula: Formula) -> Iterator[CatAtom | NumAtom]:
    """Yield every atom of ``formula`` left to right, duplicates included.

    Raises TypeError where the walk meets a node that is no formula.
    """
    for f in _preorder(formula):
        kind = type(f)
        if kind is CatAtom or kind is NumAtom:
            yield f
        elif kind is not TrueConst and kind is not FalseConst and f not in _CONNECTIVES:
            raise TypeError(f"not a formula: {f!r}")


def validate_formula(schema: Schema, formula: Formula) -> None:
    """Raise if any atom of ``formula`` is inconsistent with ``schema``."""
    for atom in iter_atoms(formula):
        validate_atom(schema, atom)


def validate_atom(schema: Schema, atom: CatAtom | NumAtom) -> None:
    """Raise if ``atom`` is inconsistent with ``schema``, or if its entity
    is not a name, which printed text could not spell."""
    positions = schema._positions.get(atom.attr)  # None unless categorical
    if positions is None and atom.attr not in schema.numeric:
        raise UnknownAttribute(f"unknown attribute {atom.attr!r}")
    if not _is_name(atom.entity):
        raise InvalidEntity(f"entity {atom.entity!r} is not a name")
    if isinstance(atom, CatAtom):
        if positions is None:
            raise CategoricalComparisonOnNumeric(
                f"attribute {atom.attr!r} is numeric, not categorical"
            )
        if atom.value not in positions:
            raise ValueNotInDomain(
                f"{atom.value!r} is not in the domain of {atom.attr!r}"
            )
    elif positions is not None:
        raise NumericComparisonOnCategorical(
            f"attribute {atom.attr!r} is categorical, not numeric"
        )


def validate_model(schema: Schema, model: Model) -> None:
    """Raise if ``model`` assigns outside ``schema``'s attributes or domains:
    ``validate_atom`` checks each entry as an atom over its key, and reads
    only the attribute of a numeric one."""
    for (attr, entity), value in model.categorical.items():
        validate_atom(schema, CatAtom(attr, entity, value))
    for attr, entity in model.numeric:
        validate_atom(schema, NumAtom(attr, entity, "=", 0))


def evaluate(model: Model, formula: Formula) -> bool:
    """Truth value of ``formula`` in ``model``.

    Raises MissingKey when evaluation reaches an atom whose key the model
    does not assign; connectives short-circuit, so keys of unreached
    subformulas are not required.  The walk keeps its own stack of the
    negations and of the connectives whose left side is being evaluated.
    """
    stack: list[Formula] = []
    f = formula
    while True:
        kind = type(f)
        if kind is CatAtom:
            try:
                value = model.categorical[f.attr, f.entity] == f.value
            except KeyError:
                raise MissingKey(f"model assigns no value to {f.attr}({f.entity})") from None
        elif kind is NumAtom:
            try:
                actual = model.numeric[f.attr, f.entity]
            except KeyError:
                raise MissingKey(f"model assigns no value to {f.attr}({f.entity})") from None
            value = _CMP_FUNCS[f.cmp](actual, f.constant)
        elif kind is TrueConst or kind is FalseConst:
            value = kind is TrueConst
        elif kind is Not:
            stack.append(f)
            f = f.operand
            continue
        elif kind is And or kind is Or:
            stack.append(f)
            f = f.left
            continue
        elif kind is Implies:
            stack.append(f)
            f = f.antecedent
            continue
        else:
            raise TypeError(f"not a formula: {f!r}")
        # Fold the value up until a connective needs its right side, which
        # then decides that connective's value alone.
        while stack:
            g = stack.pop()
            kind = type(g)
            if kind is Not:
                value = not value
            elif kind is And:
                if value:
                    f = g.right
                    break
            elif kind is Or:
                if not value:
                    f = g.right
                    break
            elif value:  # Implies
                f = g.consequent
                break
            else:
                value = True
        else:
            return value


# ---------------------------------------------------------------------------
# Printing


def _int_str(n: int) -> str:
    try:
        return str(n)
    except ValueError:
        # More digits than sys.get_int_max_str_digits(); decimal converts
        # any int exactly.
        return str(decimal.Decimal(n))


def fraction_str(q: Fraction) -> str:
    """Exact text for a rational: integer, finite decimal, or ``p/q``.

    A finite decimal is written ``p/q`` instead when its integer part or
    its fraction digits number more than ``sys.get_int_max_str_digits()``,
    because ``parse_formula`` converts each of those parts under that limit.
    Every constant ``parse_formula`` reads is thus printed as text it reads
    back.
    """
    if q.denominator == 1:
        return _int_str(q.numerator)
    d = q.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    exp = max(twos, fives)
    max_digits = sys.get_int_max_str_digits()
    # A non-terminating expansion (d != 1) has no decimal form at all.
    if d == 1 and not (max_digits and exp > max_digits):
        whole, frac = divmod(abs(q.numerator) * 10**exp // q.denominator, 10**exp)
        sign = "-" if q.numerator < 0 else ""
        try:
            return f"{sign}{whole}.{str(frac).zfill(exp)}"
        except ValueError:
            pass  # An integer part with more digits than str converts.
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


# How each connective is written: its precedence, the text before its first
# operand, and for each operand the precedence it needs and the text after
# it.  A connective whose precedence is below what its place needs is
# parenthesized.
_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_ATOM = 1, 2, 3, 4
_PRINTED = {
    Not: (_PREC_ATOM, "!(", ((_PREC_IMPLIES, ")"),)),
    And: (_PREC_AND, "", ((_PREC_AND, " & "), (_PREC_ATOM, ""))),
    Or: (_PREC_OR, "", ((_PREC_OR, " | "), (_PREC_AND, ""))),
    # Right associative: the consequent may be another implication bare.
    Implies: (_PREC_IMPLIES, "", ((_PREC_OR, " -> "), (_PREC_IMPLIES, ""))),
}
# The record ``repr``, which never needs parentheses.
_REPR = {
    Not: (0, "Not(operand=", ((0, ")"),)),
    And: (0, "And(left=", ((0, ", right="), (0, ")"))),
    Or: (0, "Or(left=", ((0, ", right="), (0, ")"))),
    Implies: (0, "Implies(antecedent=", ((0, ", consequent="), (0, ")"))),
}


def _render(formula: Formula, table: dict, leaf: Callable[[object], str], min_prec: int) -> str:
    """Text of ``formula`` in one pass over ``_preorder``: each connective
    written as ``table`` says, every other node as ``leaf`` returns it."""
    out: list[str] = []
    # Pending work, last first: the precedence the next node's place needs,
    # or text to write once the operands before it are written.
    todo: list = [min_prec]
    for f in _preorder(formula):
        need = todo.pop()
        # _preorder gives each connective as its class.
        entry = table.get(f) if type(f) is type else None
        if entry is None:
            out.append(leaf(f))
            while todo and type(todo[-1]) is str:
                out.append(todo.pop())
            continue
        prec, before, operands = entry
        if prec < need:
            out.append("(")
            todo.append(")")
        out.append(before)
        for place, after in reversed(operands):
            todo += (after, place)
    return "".join(out)


def _printed_leaf(f: Formula) -> str:
    kind = type(f)
    if kind is CatAtom:
        return f"{f.attr}({f.entity})={f.value}"
    if kind is NumAtom:
        return f"{f.attr}({f.entity}) {f.cmp} {fraction_str(f.constant)}"
    if kind is TrueConst:
        return "true"
    if kind is FalseConst:
        return "false"
    raise TypeError(f"not a formula: {f!r}")


def print_formula(formula: Formula) -> str:
    """Render ``formula`` as text that parses back to an equal formula."""
    return _render(formula, _PRINTED, _printed_leaf, _PREC_IMPLIES)


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

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NUMBER = r"-?\d+(?:\.\d+|/\d+)?"
_GAP = r"[ \t\r\n]*"

# One token per match, its kind the name of the group that matched.
# ``finditer`` skips the whitespace between tokens; any other character that
# starts no token is a ``bad`` token, and the empty match at the end of the
# text is the ``end`` token.  It serves only the readers of text the
# whole-line and whole-atom expressions reject, which are error paths, so it
# is compiled on first use (``re`` keeps the compiled pattern), not at import.
_TOKENS = (
    rf"(?P<number>{_NUMBER})|(?P<ident>{_NAME})"
    r"|(?P<implies>->)|(?P<cmp><=|>=|[=<>])|(?P<and>&)|(?P<or>\|)|(?P<not>!)"
    r"|(?P<lpar>\()|(?P<rpar>\))|(?P<lbrace>\{)|(?P<rbrace>\})|(?P<comma>,)|(?P<colon>:)"
    r"|(?P<bad>[^ \t\r\n])|(?P<end>\Z)"
)

# One ``findall`` reads formula text as tuples of seven groups, each tuple
# one token and each group empty but the token's own: an operator, a whole
# atom's four parts (``true`` and ``false`` are never attributes), any other
# token, or a character that starts no token; ``_END`` follows the last.  A
# match also reads the blanks before its token, so the alternatives are not
# tried at every blank.  Only an error looks for its token's place, by
# ``finditer`` of the same pattern.
_FORMULA_RE = re.compile(
    rf"{_GAP}(?:(?P<op>->|[&|!()])|(?!(?:true|false){_GAP}\()(?P<attr>{_NAME}){_GAP}\({_GAP}"
    rf"(?P<entity>{_NAME}){_GAP}\){_GAP}(?P<cmp><=|>=|[=<>]){_GAP}(?P<value>{_NUMBER}|{_NAME})"
    rf"|(?P<token>{_NUMBER}|{_NAME}|<=|>=|[=<>{{}},:])|(?P<bad>[^ \t\r\n]))"
)
_END = ("",) * 7

# A whole schema line that is blank, a comment, or one well-formed
# declaration with an optional comment: group 1 names an ``attr`` and
# group 2 holds its comma-separated values, or group 3 names a ``num``.
_DECL_RE = re.compile(
    rf"[ \t]*(?:(?:attr[ \t]+({_NAME})[ \t]*:[ \t]*\{{[ \t]*({_NAME}(?:[ \t]*,[ \t]*{_NAME})*)"
    rf"[ \t]*\}}|num[ \t]+({_NAME}))[ \t]*)?(?:#.*)?"
)


def _where(text: str, pos: int, line: int = 1) -> tuple[int, int]:
    """Line and column, both from 1, of offset ``pos`` in ``text``, whose
    first line is ``line``."""
    return line + text.count("\n", 0, pos), pos - text.rfind("\n", 0, pos)


def _got(tok: re.Match) -> str:
    return _got_kind(tok.lastgroup, tok.group())


def _got_kind(kind: str, text: str) -> str:
    """How an error names a token of kind ``kind`` and text ``text``."""
    return "end of input" if kind == "end" else repr(text)


def _check(tok: re.Match, kind: str, what: str, text: str, line: int = 1) -> re.Match:
    got = tok.lastgroup
    if got != kind:
        raise ParseError(f"expected {what}, got {_got(tok)}", *_where(text, tok.start(got), line))
    return tok


def _raise_bad_token(tokens: Iterable[re.Match], text: str, line: int = 1) -> None:
    """Raise a ParseError at the first ``bad`` token, if there is one.

    The parsers call this when they fail, so that a character that starts
    no token wins over any other error in the same text.
    """
    for tok in tokens:
        if tok.lastgroup == "bad":
            raise ParseError(
                f"unexpected character {tok.group('bad')!r}", *_where(text, tok.start("bad"), line)
            ) from None


# ---------------------------------------------------------------------------
# Parsing


def read_source(path: str | Path) -> str:
    """Read a UTF-8 source file; bytes that do not decode are a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from None


def parse_schema(text: str) -> Schema:
    """Parse schema source: one declaration per line, ``#`` comments.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, and only spaces and tabs
    separate tokens.  One regular expression reads each line; a line it
    rejects, or whose declaration uses a reserved name or repeats a value
    or an attribute, is read again by ``_read_decl``, which words and
    places every schema error.
    """
    # Each declared name: its domain, or None for a numeric attribute.
    declared: dict[str, tuple[str, ...] | None] = {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line, raw in enumerate(lines, start=1):
        m = _DECL_RE.fullmatch(raw)
        name = m and (m[1] or m[3])
        # The values are names, which hold no blanks.
        values = m and m[2] and tuple(m[2].replace(" ", "").replace("\t", "").split(","))
        if (
            m is None
            or name in declared
            or name in _CONSTANTS
            or (values and len(set(values)) < len(values))
        ):
            name, values = _read_decl(raw, line, declared)
        if name is not None:
            declared[name] = values
    return Schema._parsed(
        {name: values for name, values in declared.items() if values is not None},
        frozenset(name for name, values in declared.items() if values is None),
    )


def _read_decl(
    raw: str, line: int, declared: Container[str]
) -> tuple[str | None, tuple[str, ...] | None]:
    """Read schema line ``line`` token by token: the name it declares and
    the domain, None for ``num``, or (None, None) for a blank line.

    Raises the line's first error at its place: a character that starts no
    token wins, then syntax in line order, then a reserved name, a repeated
    value, and last a name already in ``declared``.
    """
    code = raw.split("#", 1)[0]
    tokens = list(re.compile(_TOKENS).finditer(code))
    rest = iter(tokens)

    def expect(kind: str, what: str) -> re.Match:
        return _check(next(rest), kind, what, code, line)

    try:
        head = next(rest)
        if head.lastgroup == "end":
            return None, None
        if head.group() not in ("attr", "num"):
            raise ParseError(f"expected 'attr' or 'num', got {_got(head)}", line, head.start() + 1)
        name_tok = expect("ident", "attribute name")
        name = name_tok.group()
        if name in _CONSTANTS:
            raise ParseError(f"attribute name {name!r} is reserved", line, name_tok.start() + 1)
        values = None
        if head.group() == "attr":
            expect("colon", "':'")
            expect("lbrace", "'{'")
            seen: dict[str, None] = {}  # a set that keeps declaration order
            while True:
                v = expect("ident", "domain value")
                if v.group() in seen:
                    raise DuplicateValue(
                        f"duplicate value {v.group()!r} for attribute {name!r}",
                        line,
                        v.start() + 1,
                    )
                seen[v.group()] = None
                sep = next(rest)
                if sep.lastgroup != "comma":
                    break
            _check(sep, "rbrace", "'}'", code, line)
            values = tuple(seen)
        expect("end", "end of line")
        if name in declared:
            raise DuplicateAttribute(f"duplicate attribute {name!r}", line, name_tok.start() + 1)
    except SourceError:
        _raise_bad_token(tokens, code, line)
        raise
    return name, values


_CONSTANTS = {"true": TRUE, "false": FALSE}
# Binary operators: precedence and node class.
_BINARY = {"->": (1, Implies), "|": (2, Or), "&": (3, And)}
# Stack frames that no operator folds: the bottom of the stack and an open
# parenthesis, and a '!' waiting for its operand.
_STOP = (0, None, None)
_NEG = (0, Not, None)


def parse_formula(text: str, schema: Schema) -> Formula:
    """Parse formula text, checking every atom against ``schema``."""
    tokens = _FORMULA_RE.findall(text)
    tokens.append(_END)
    try:
        return _parse(text, tokens, schema)
    except SourceError:
        _raise_bad_token(_FORMULA_RE.finditer(text), text)
        raise


def _parse(text: str, tokens: list[tuple[str, ...]], schema: Schema) -> Formula:
    # Precedence climbing with an explicit stack of frames (precedence,
    # node class, left operand): each binary operator folds the frames of
    # operators at least as tight before it is pushed.
    atoms = schema._atoms
    stack = [_STOP]
    depth = 0  # parentheses open
    i = 0
    while True:
        # An operand: '!'s and '('s, then an atom or a constant.
        tok = tokens[i]
        i += 1
        if tok[1]:
            key = tok[1:5]
            f = atoms.get(key)
            if f is None:
                # The value is a name, which starts with a letter or '_', or a number.
                value = key[3]
                kind = "ident" if value[0] == "_" or value[0].isalpha() else "number"
                # The schema's own node for this text from now on, checked
                # here, so a question reads its entry.  The entry holds no
                # atom, so the two make no cycle.
                if len(atoms) >= _ATOMS_KEPT:
                    atoms.clear()
                f = atoms[key] = _atom(schema, text, *key, kind, i - 1)
                _set(f, "_entry", _entry_of(schema, f))
        elif tok[0] == "!":
            stack.append(_NEG)
            continue
        elif tok[0] == "(":
            depth += 1
            stack.append(_STOP)
            continue
        else:
            f = _CONSTANTS.get(tok[5])
            if f is None:
                if not tok[5][:1].isidentifier():
                    raise _token_error("expected a formula, got {}", tok, text, i - 1)
                # Any other name starts an atom the scanner could not read
                # whole; reading it raises that atom's error.
                f = _read_atom(text, _token_start(text, i - 1), schema)
        # After the operand: apply its '!'s, then close parentheses until a
        # binary operator, or the end, comes.
        while True:
            while stack[-1] is _NEG:
                stack.pop()
                f = Not(f)
            tok = tokens[i]
            i += 1
            op = _BINARY.get(tok[0])
            if op is not None:
                prec, node = op
                # '&' and '|' fold their own kind too; '->' is right associative.
                floor = prec + 1 if node is Implies else prec
                while stack[-1][0] >= floor:
                    _, folded, left = stack.pop()
                    f = folded(left, f)
                stack.append((prec, node, f))
                break
            if tok[0] == ")" and depth:
                depth -= 1
            elif depth:
                raise _token_error("expected ')', got {}", tok, text, i - 1)
            elif tok is not _END:
                raise _token_error("unexpected {} after formula", tok, text, i - 1)
            while stack[-1][0]:
                _, folded, left = stack.pop()
                f = folded(left, f)
            if tok is _END:
                return f
            stack.pop()  # the '('


def _token_start(text: str, n: int, group: str | None = None) -> int:
    """The offset in ``text`` of token ``n``, from 0, or of its ``group``;
    past the last token, the end.  A match is some blanks, then the token."""
    for m in _FORMULA_RE.finditer(text):
        if not n:
            return m.start(group) if group else m.end() - len(m[0].lstrip(" \t\r\n"))
        n -= 1
    return len(text)


def _token_error(message: str, tok: tuple[str, ...], text: str, n: int) -> ParseError:
    """``message`` with ``tok``, token ``n`` of ``text``, named in it (an
    atom by its attribute), placed where the token starts."""
    got = "end of input" if tok is _END else repr(tok[0] or tok[1] or tok[5] or tok[6])
    return ParseError(message.format(got), *_where(text, _token_start(text, n)))


def _read_atom(text: str, pos: int, schema: Schema) -> CatAtom | NumAtom:
    """Read the atom whose attribute starts at ``pos`` token by token.

    For text the scanner could not read as one atom: the walk finds the
    four parts and raises the error that stopped the scanner, after an
    unknown attribute, which wins; ``_atom`` checks the parts it finds.
    """
    tokens = re.compile(_TOKENS).finditer(text, pos)
    attr = next(tokens).group()
    if not schema.is_categorical(attr) and not schema.is_numeric(attr):
        raise UnknownAttribute(f"unknown attribute {attr!r}", *_where(text, pos))
    _check(next(tokens), "lpar", "'('", text)
    entity = _check(next(tokens), "ident", "entity name", text).group()
    _check(next(tokens), "rpar", "')'", text)
    op_tok = _check(next(tokens), "cmp", "comparison operator", text)
    val_tok = next(tokens)
    return _atom(
        schema, text, attr, entity, op_tok.group(), val_tok.group(), val_tok.lastgroup,
        (pos, op_tok.start(), val_tok.start()),
    )


def _part_at(text: str, starts: int | tuple[int, int, int], part: int) -> tuple[int, int]:
    """Line and column of an atom's attribute (part 0), operator (1) or
    value (2): ``starts`` holds their offsets in ``text``, or is the number
    of the scanner's atom token, whose groups hold them."""
    if type(starts) is int:
        return _where(text, _token_start(text, starts, ("attr", "cmp", "value")[part]))
    return _where(text, starts[part])


def _atom(
    schema: Schema,
    text: str,
    attr: str,
    entity: str,
    op: str,
    value: str,
    kind: str,
    starts: int | tuple[int, int, int],
) -> CatAtom | NumAtom:
    """Check an atom's parts against ``schema`` and build the atom.

    ``kind`` is the value's token kind, ``number`` or ``ident`` or the kind
    of whatever token stands in its place.  Errors are placed by ``starts``,
    the number of the scanner's atom token that held the parts, or the
    offsets of the parts that ``_read_atom``'s walk found.
    """
    if attr in schema.categorical:
        if op != "=":
            raise NumericComparisonOnCategorical(
                f"attribute {attr!r} is categorical; only '=' applies", *_part_at(text, starts, 1)
            )
        if kind == "number":
            raise NumericComparisonOnCategorical(
                f"attribute {attr!r} is categorical; compared against a number",
                *_part_at(text, starts, 2),
            )
        if kind != "ident":
            raise ParseError(
                f"expected domain value, got {_got_kind(kind, value)}", *_part_at(text, starts, 2)
            )
        if value not in schema._positions[attr]:
            raise ValueNotInDomain(
                f"{value!r} is not in the domain of {attr!r}", *_part_at(text, starts, 2)
            )
        return CatAtom(sys.intern(attr), sys.intern(entity), sys.intern(value))
    if attr not in schema.numeric:
        raise UnknownAttribute(f"unknown attribute {attr!r}", *_part_at(text, starts, 0))
    if kind == "ident":
        raise CategoricalComparisonOnNumeric(
            f"attribute {attr!r} is numeric; compared against {value!r}",
            *_part_at(text, starts, 2),
        )
    if kind != "number":
        raise ParseError(
            f"expected numeric constant, got {_got_kind(kind, value)}", *_part_at(text, starts, 2)
        )
    try:
        constant = _numeral(value)
    except ValueError as exc:
        raise ParseError(str(exc), *_part_at(text, starts, 2)) from None
    return NumAtom(sys.intern(attr), sys.intern(entity), op, constant)


def _numeral(text: str) -> Fraction:
    """The value of ``text``, which ``_NUMBER`` matches whole; a ValueError
    words why it has none."""
    try:
        # int() reads integers and ratios faster than Fraction(str) does.
        if "/" in text:
            numerator, denominator = text.split("/")
            return Fraction(int(numerator), int(denominator))
        return Fraction(text if "." in text else int(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        # int() refuses more digits than sys.get_int_max_str_digits().
        raise ValueError(f"numeric constant of {len(text)} characters has too many digits") from None
