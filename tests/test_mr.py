"""Schema/formula parsing, printing, and evaluation."""

from __future__ import annotations

import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from verity import (
    And,
    CatAtom,
    CategoricalComparisonOnNumeric,
    DuplicateAttribute,
    DuplicateValue,
    FALSE,
    Implies,
    InvalidEntity,
    MissingKey,
    Model,
    Not,
    NumAtom,
    NumericComparisonOnCategorical,
    Or,
    ParseError,
    Schema,
    SourceError,
    TRUE,
    UnknownAttribute,
    ValueNotInDomain,
    classify,
    evaluate,
    format_model,
    fraction_str,
    iter_atoms,
    oracle_classify,
    parse_formula,
    parse_schema,
    print_formula,
    satisfiable,
    validate_formula,
    validate_model,
)
from verity import entail, mr
from verity.mr import validate_atom
from randgen import random_ast

SCHEMA = Schema(
    {"Food": ("Italian", "Norwegian"), "Type": ("Restaurant", "Pub", "CoffeeShop")},
    frozenset({"Temp"}),
)


# ---------------------------------------------------------------------------
# Schemas


def test_parse_schema_declarations():
    schema = parse_schema(
        """
        # header comment
        attr Food : { Italian, Norwegian }   # trailing comment
        num Temperature

        attr Price : { Low }
        """
    )
    assert schema.categorical == {
        "Food": ("Italian", "Norwegian"),
        "Price": ("Low",),
    }
    assert schema.numeric == frozenset({"Temperature"})
    assert schema.is_categorical("Food")
    assert schema.is_numeric("Temperature")
    assert schema.domain("Food") == ("Italian", "Norwegian")


def test_parse_schema_duplicate_value():
    with pytest.raises(DuplicateValue):
        parse_schema("attr Food : { Italian, Italian }")


@pytest.mark.parametrize(
    "text",
    [
        "attr Food : { Italian }\nattr Food : { Norwegian }",
        "num Temp\nattr Temp : { Low }",
        "attr Temp : { Low }\nnum Temp",
    ],
)
def test_parse_schema_duplicate_attribute(text):
    with pytest.raises(DuplicateAttribute):
        parse_schema(text)


@pytest.mark.parametrize(
    "text",
    [
        "attr Food { Italian }",  # missing colon
        "attr Food : { }",  # empty domain
        "attr Food : { Italian } extra",
        "num",
        "food Food : { Italian }",
        "attr Food : { Italian, }",
    ],
)
def test_parse_schema_syntax_errors(text):
    with pytest.raises(ParseError):
        parse_schema(text)


def test_parse_schema_error_carries_position():
    with pytest.raises(DuplicateValue) as exc_info:
        parse_schema("# one\nattr Food : { Italian, Italian }")
    err = exc_info.value
    assert err.line == 2
    assert str(err).startswith("2:")


def test_schema_constructor_invariants():
    with pytest.raises(ValueError):
        Schema({"Food": ()}, frozenset())
    with pytest.raises(ValueError):
        Schema({"Food": ("A", "A")}, frozenset())
    with pytest.raises(ValueError):
        Schema({"Food": ("A",)}, frozenset({"Food"}))
    with pytest.raises(ValueError, match="attribute name 'true' is reserved"):
        Schema({"true": ("A",)}, frozenset())
    with pytest.raises(ValueError, match="attribute name 'false' is reserved"):
        Schema({}, frozenset({"false"}))
    with pytest.raises(UnknownAttribute):
        SCHEMA.domain("Missing")


@pytest.mark.parametrize(
    "categorical, numeric, message",
    [
        ({"City": ("New York",)}, (), "attribute 'City' has value 'New York', which is not a name"),
        ({"City": ("Oslo", "")}, (), "attribute 'City' has value '', which is not a name"),
        ({"Food": (1,)}, (), "attribute 'Food' has value 1, which is not a name"),
        ({"Ci ty": ("Oslo",)}, (), "attribute name 'Ci ty' is not a name"),
        ({}, ("2nd",), "attribute name '2nd' is not a name"),
        ({"City": ("Oslo", "New\nYork")}, (), "attribute 'City' has value 'New\\nYork', which is not a name"),
        ({"City": ("Oslo", "Bergen\n")}, (), "attribute 'City' has value 'Bergen\\n', which is not a name"),
        ({"Food": ("Italian", b"Sushi")}, (), "attribute 'Food' has value b'Sushi', which is not a name"),
    ],
)
def test_schema_rejects_names_the_grammar_cannot_read(categorical, numeric, message):
    with pytest.raises(ValueError) as exc_info:
        Schema(categorical, frozenset(numeric))
    assert str(exc_info.value) == message


NAMEISH = st.one_of(st.text(max_size=4), st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True))


@given(st.one_of(st.text(), NAMEISH, st.text(alphabet="aZ_09\u0301é٣ﬁ", max_size=4)))
@settings(max_examples=500)
def test_is_name_is_the_name_pattern(text):
    """The str-method name check accepts exactly what the grammar's name
    pattern reads."""
    assert mr._is_name(text) == (re.fullmatch(mr._NAME, text) is not None)


# Letters, a combining mark, a ligature and a digit outside ASCII, each of
# which ``str.isidentifier`` alone accepts somewhere in a name.
@pytest.mark.parametrize(
    "text, expected",
    [("é", False), ("ǅ", False), ("x\u0301", False), ("ﬁ", False), ("x٣", False), ("٣", False),
     ("_", True), ("a_1", True), ("9a", False), ("", False)],
)
def test_is_name_fixed_cases(text, expected):
    assert mr._is_name(text) is expected
    assert (re.fullmatch(mr._NAME, text) is not None) is expected


@given(NAMEISH, NAMEISH)
def test_every_schema_atom_prints_back_to_itself(attr, value):
    """An atom over any schema the constructor accepts parses back from
    its printed text."""
    try:
        schema = Schema({attr: (value,)}, frozenset())
    except ValueError:
        return
    atom = CatAtom(attr, "x", value)
    assert parse_formula(print_formula(atom), schema) == atom


# ---------------------------------------------------------------------------
# Formula parsing


def test_parse_conjunction_is_left_associative():
    f = parse_formula("Food(x)=Italian & Type(x)=Pub & Food(y)=Norwegian", SCHEMA)
    assert f == And(
        And(CatAtom("Food", "x", "Italian"), CatAtom("Type", "x", "Pub")),
        CatAtom("Food", "y", "Norwegian"),
    )


def test_parse_precedence():
    a, b, c = (
        CatAtom("Food", "x", "Italian"),
        CatAtom("Type", "x", "Pub"),
        CatAtom("Food", "y", "Norwegian"),
    )
    assert parse_formula(
        "Food(x)=Italian | Type(x)=Pub & Food(y)=Norwegian", SCHEMA
    ) == Or(a, And(b, c))
    assert parse_formula(
        "!Food(x)=Italian | Type(x)=Pub", SCHEMA
    ) == Or(Not(a), b)
    assert parse_formula(
        "(Food(x)=Italian | Type(x)=Pub) & Food(y)=Norwegian", SCHEMA
    ) == And(Or(a, b), c)


def test_parse_implication_is_right_associative():
    a, b, c = (
        CatAtom("Food", "x", "Italian"),
        CatAtom("Type", "x", "Pub"),
        CatAtom("Food", "y", "Norwegian"),
    )
    assert parse_formula(
        "Food(x)=Italian -> Type(x)=Pub -> Food(y)=Norwegian", SCHEMA
    ) == Implies(a, Implies(b, c))


def test_parse_constants_and_negation():
    assert parse_formula("true", SCHEMA) == TRUE
    assert parse_formula("false", SCHEMA) == FALSE
    assert parse_formula("!!true", SCHEMA) == Not(Not(TRUE))


@pytest.mark.parametrize(
    "text,constant",
    [
        ("Temp(d) > 22", Fraction(22)),
        ("Temp(d) <= 22.5", Fraction(45, 2)),
        ("Temp(d) = -3", Fraction(-3)),
        ("Temp(d) >= 1/3", Fraction(1, 3)),
        ("Temp(d)<0.125", Fraction(1, 8)),
    ],
)
def test_parse_numeric_constants_are_exact(text, constant):
    atom = parse_formula(text, SCHEMA)
    assert isinstance(atom, NumAtom)
    assert atom.constant == constant


@pytest.mark.parametrize(
    "text,error",
    [
        ("Price(x)=Low", UnknownAttribute),
        ("Food(x)=Sushi", ValueNotInDomain),
        ("Food(x) > 2", NumericComparisonOnCategorical),
        ("Food(x) = 2", NumericComparisonOnCategorical),
        ("Temp(d) = Italian", CategoricalComparisonOnNumeric),
        ("Food(x)=Italian &", ParseError),
        ("(Food(x)=Italian", ParseError),
        ("Food(x)=Italian extra", ParseError),
        ("", ParseError),
        ("Food(x) @ Italian", ParseError),
        ("Food(x)", ParseError),
    ],
)
def test_parse_formula_errors(text, error):
    with pytest.raises(error):
        parse_formula(text, SCHEMA)


@pytest.mark.parametrize("text", ["Temp(d) > 1/0", "Temp(d) < -3/0"])
def test_zero_denominator_is_a_parse_error(text):
    with pytest.raises(ParseError) as exc_info:
        parse_formula(text, SCHEMA)
    assert (exc_info.value.line, exc_info.value.col) == (1, 11)
    assert "zero denominator" in str(exc_info.value)


def test_parse_error_position_points_at_offender():
    with pytest.raises(ValueNotInDomain) as exc_info:
        parse_formula("Food(x)=Sushi", SCHEMA)
    assert exc_info.value.col == 9
    assert str(exc_info.value).startswith("1:9:")


# Every error path of the formula and schema parsers, pinned by exception
# class and full message, position included.
ERR_SCHEMA = Schema({"Alpha": ("V1", "V2"), "Beta": ("V1", "V2", "V3")}, frozenset({"Level"}))

FORMULA_ERRORS = [
    # a lexical error anywhere wins over a parse or semantic error before it
    ("lex-after-unknown", "Delta(e)=V1 & $", ParseError, "1:15: unexpected character '$'"),
    ("lex-after-domain", "Alpha(e)=V9 & Level(e) < 1.", ParseError, "1:27: unexpected character '.'"),
    ("lex-formfeed", "Alpha(e)=V1\x0c", ParseError, "1:12: unexpected character '\\x0c'"),
    ("lex-non-ascii", "Alpha(e)=V1 & Level(e) < 2 -> é", ParseError, "1:31: unexpected character 'é'"),
    # true and false are never attributes
    ("true-call", "true(e)=V1", ParseError, "1:5: unexpected '(' after formula"),
    ("false-true-call", "false & true(", ParseError, "1:13: unexpected '(' after formula"),
    # atoms spread over lines
    ("multi-line-atom", "Alpha (e)\n = V3", ValueNotInDomain, "2:4: 'V3' is not in the domain of 'Alpha'"),
    ("second-line", "Beta(e)=V1 &\n  Delta(e)=V1", UnknownAttribute, "2:3: unknown attribute 'Delta'"),
    ("crlf-tab", "Alpha(e)=V1 &\r\n\tDelta(e)=V1", UnknownAttribute, "2:2: unknown attribute 'Delta'"),
    # each step of an atom
    ("unknown-attribute", "Delta(e)=V1", UnknownAttribute, "1:1: unknown attribute 'Delta'"),
    ("open-paren", "Alpha e)=V1", ParseError, "1:7: expected '(', got 'e'"),
    ("open-paren-end", "Alpha", ParseError, "1:6: expected '(', got end of input"),
    ("entity-op", "Alpha(=V1", ParseError, "1:7: expected entity name, got '='"),
    ("entity-number", "Alpha(1)=V1", ParseError, "1:7: expected entity name, got '1'"),
    ("close-paren", "Alpha(e=V1", ParseError, "1:8: expected ')', got '='"),
    ("close-paren-atom", "Alpha(Beta(e)=V1", ParseError, "1:11: expected ')', got '('"),
    ("operator-paren", "Alpha(e)(e)=V1", ParseError, "1:9: expected comparison operator, got '('"),
    ("operator-name", "Alpha(e) V1", ParseError, "1:10: expected comparison operator, got 'V1'"),
    ("operator-end", "Alpha(e)", ParseError, "1:9: expected comparison operator, got end of input"),
    ("operator-arrow", "Alpha(e) -> Beta(e)=V1", ParseError, "1:10: expected comparison operator, got '->'"),
    ("only-eq", "Alpha(e) < V1", NumericComparisonOnCategorical, "1:10: attribute 'Alpha' is categorical; only '=' applies"),
    ("only-eq-number", "Alpha(e) >= 2", NumericComparisonOnCategorical, "1:10: attribute 'Alpha' is categorical; only '=' applies"),
    ("cat-number", "Alpha(e)=2", NumericComparisonOnCategorical, "1:10: attribute 'Alpha' is categorical; compared against a number"),
    ("cat-fraction", "Alpha(e)=-1/2", NumericComparisonOnCategorical, "1:10: attribute 'Alpha' is categorical; compared against a number"),
    ("num-name", "Level(e)=V1", CategoricalComparisonOnNumeric, "1:10: attribute 'Level' is numeric; compared against 'V1'"),
    ("num-true", "Level(e) <= true", CategoricalComparisonOnNumeric, "1:13: attribute 'Level' is numeric; compared against 'true'"),
    ("domain-value-op", "Alpha(e)=>V1", ParseError, "1:10: expected domain value, got '>'"),
    ("domain-value-paren", "Alpha(e)=(", ParseError, "1:10: expected domain value, got '('"),
    ("domain-value-end", "Alpha(e)=", ParseError, "1:10: expected domain value, got end of input"),
    ("not-in-domain", "Alpha(e)=V3", ValueNotInDomain, "1:10: 'V3' is not in the domain of 'Alpha'"),
    ("constant-paren", "Level(e) < (", ParseError, "1:12: expected numeric constant, got '('"),
    ("constant-end", "Level(e) <", ParseError, "1:11: expected numeric constant, got end of input"),
    ("constant-op", "Level(e)=>3", ParseError, "1:10: expected numeric constant, got '>'"),
    ("zero-denominator", "Level(e) < 1/0", ParseError, "1:12: zero denominator in '1/0'"),
    ("zero-denominator-neg", "Level(e) > -3/0", ParseError, "1:12: zero denominator in '-3/0'"),
    ("long-numeral", "Level(e) > " + "1" * 5000, ParseError, "1:12: numeric constant of 5000 characters has too many digits"),
    # a token after a whole formula
    ("trailing-atom", "Alpha(e)=V1 Beta(e)=V1", ParseError, "1:13: unexpected 'Beta' after formula"),
    ("trailing-paren", "Alpha(e)=V1)", ParseError, "1:12: unexpected ')' after formula"),
    ("trailing-constant", "true false", ParseError, "1:6: unexpected 'false' after formula"),
    ("trailing-number", "Level(e) < 3-4", ParseError, "1:13: unexpected '-4' after formula"),
    ("trailing-integer", "Alpha(e)=V1 55", ParseError, "1:13: unexpected '55' after formula"),
    ("trailing-brace", "Alpha(e)=V1 }", ParseError, "1:13: unexpected '}' after formula"),
    ("unknown-before-trailing", "A(x)=V1 55", UnknownAttribute, "1:1: unknown attribute 'A'"),
    # an unclosed parenthesis
    ("close-end", "(Alpha(e)=V1", ParseError, "1:13: expected ')', got end of input"),
    ("close-atom", "(Alpha(e)=V1 Beta(e)=V2)", ParseError, "1:14: expected ')', got 'Beta'"),
    ("close-nested", "((true)", ParseError, "1:8: expected ')', got end of input"),
    # no formula where one must start
    ("empty", "", ParseError, "1:1: expected a formula, got end of input"),
    ("blank-lines", "   \n  ", ParseError, "2:3: expected a formula, got end of input"),
    ("after-and", "Alpha(e)=V1 &", ParseError, "1:14: expected a formula, got end of input"),
    ("after-or", "Alpha(e)=V1 | -> true", ParseError, "1:15: expected a formula, got '->'"),
    ("leading-and", "& true", ParseError, "1:1: expected a formula, got '&'"),
    ("lone-close", ")", ParseError, "1:1: expected a formula, got ')'"),
    ("lone-not", "!", ParseError, "1:2: expected a formula, got end of input"),
    ("empty-parens", "()", ParseError, "1:2: expected a formula, got ')'"),
    ("after-implies", "Alpha(e)=V1 -> ", ParseError, "1:16: expected a formula, got end of input"),
    # tokens that are neither operators nor atoms, where a formula must start
    ("leading-integer", "55", ParseError, "1:1: expected a formula, got '55'"),
    ("leading-brace", "{", ParseError, "1:1: expected a formula, got '{'"),
    ("leading-colon", ":", ParseError, "1:1: expected a formula, got ':'"),
    ("leading-cmp", "<=", ParseError, "1:1: expected a formula, got '<='"),
    ("not-cmp", "!<=", ParseError, "1:2: expected a formula, got '<='"),
    ("paren-colon", "(:", ParseError, "1:2: expected a formula, got ':'"),
    ("after-and-integer", "Alpha(e)=V1 & 55", ParseError, "1:15: expected a formula, got '55'"),
]


@pytest.mark.parametrize("text, error, message", [row[1:] for row in FORMULA_ERRORS], ids=[row[0] for row in FORMULA_ERRORS])
def test_formula_error_table(text, error, message):
    with pytest.raises(SourceError) as exc_info:
        parse_formula(text, ERR_SCHEMA)
    assert (type(exc_info.value), str(exc_info.value)) == (error, message)


# Each error of the formula parser with blanks before the offending token,
# which the scanner reads as part of that token's match: the position is
# the token's own.  Blanks: two spaces, a tab, a newline then two spaces,
# and a CRLF then a tab; one line:col per blank, in that order.
BLANKS = ("  ", "\t", " \n  ", "\r\n\t")
BLANK_ERRORS = [
    ("bad-character", "Alpha(e)=V1 &{}$", ParseError, "unexpected character '$'", ("1:16", "1:15", "2:3", "2:2")),
    ("bad-character-in-atom", "Alpha(e){}é", ParseError, "unexpected character 'é'", ("1:11", "1:10", "2:3", "2:2")),
    ("close-paren", "(Alpha(e)=V1{}Beta(e)=V2)", ParseError, "expected ')', got 'Beta'", ("1:15", "1:14", "2:3", "2:2")),
    ("close-paren-end", "(Alpha(e)=V1{}", ParseError, "expected ')', got end of input", ("1:15", "1:14", "2:3", "2:2")),
    ("after-formula", "Alpha(e)=V1{})", ParseError, "unexpected ')' after formula", ("1:14", "1:13", "2:3", "2:2")),
    ("after-formula-constant", "true{}false", ParseError, "unexpected 'false' after formula", ("1:7", "1:6", "2:3", "2:2")),
    ("true-call", "true{}(e)=V1", ParseError, "unexpected '(' after formula", ("1:7", "1:6", "2:3", "2:2")),
    ("formula-operator", "Alpha(e)=V1 |{}->", ParseError, "expected a formula, got '->'", ("1:16", "1:15", "2:3", "2:2")),
    ("formula-end", "!{}", ParseError, "expected a formula, got end of input", ("1:4", "1:3", "2:3", "2:2")),
    ("unknown-attribute", "true &{}Delta(e)=V1", UnknownAttribute, "unknown attribute 'Delta'", ("1:9", "1:8", "2:3", "2:2")),
    ("open-paren", "Alpha{}e)=V1", ParseError, "expected '(', got 'e'", ("1:8", "1:7", "2:3", "2:2")),
    ("entity", "Alpha({}=V1", ParseError, "expected entity name, got '='", ("1:9", "1:8", "2:3", "2:2")),
    ("operator", "Alpha(e){}V1", ParseError, "expected comparison operator, got 'V1'", ("1:11", "1:10", "2:3", "2:2")),
    ("only-eq", "Alpha(e){}< V1", NumericComparisonOnCategorical, "attribute 'Alpha' is categorical; only '=' applies", ("1:11", "1:10", "2:3", "2:2")),
    ("domain-value", "Alpha(e)={}(", ParseError, "expected domain value, got '('", ("1:12", "1:11", "2:3", "2:2")),
    ("not-in-domain", "Alpha(e) ={}V3", ValueNotInDomain, "'V3' is not in the domain of 'Alpha'", ("1:13", "1:12", "2:3", "2:2")),
    ("cat-number", "Alpha(e) ={}2", NumericComparisonOnCategorical, "attribute 'Alpha' is categorical; compared against a number", ("1:13", "1:12", "2:3", "2:2")),
    ("num-name", "Level(e) <{}V1", CategoricalComparisonOnNumeric, "attribute 'Level' is numeric; compared against 'V1'", ("1:13", "1:12", "2:3", "2:2")),
    ("constant-end", "Level(e) <{}", ParseError, "expected numeric constant, got end of input", ("1:13", "1:12", "2:3", "2:2")),
    ("zero-denominator", "Level(e) <{}1/0", ParseError, "zero denominator in '1/0'", ("1:13", "1:12", "2:3", "2:2")),
]


@pytest.mark.parametrize("blank", range(len(BLANKS)), ids=["spaces", "tab", "newline", "crlf"])
@pytest.mark.parametrize("template, error, message, places", [row[1:] for row in BLANK_ERRORS], ids=[row[0] for row in BLANK_ERRORS])
def test_formula_errors_after_blanks_point_at_the_token(template, error, message, places, blank):
    with pytest.raises(SourceError) as exc_info:
        parse_formula(template.format(BLANKS[blank]), ERR_SCHEMA)
    assert (type(exc_info.value), str(exc_info.value)) == (error, f"{places[blank]}: {message}")


SCHEMA_ERRORS = [
    ("colon", "attr Food { Italian }", ParseError, "1:11: expected ':', got '{'"),
    ("empty-domain", "attr Food : { }", ParseError, "1:15: expected domain value, got '}'"),
    ("trailing-attr", "attr Food : { Italian } extra", ParseError, "1:25: expected end of line, got 'extra'"),
    ("num-name", "num", ParseError, "1:4: expected attribute name, got end of input"),
    ("num-name-comment", "num   # comment", ParseError, "1:7: expected attribute name, got end of input"),
    ("keyword", "food Food : { Italian }", ParseError, "1:1: expected 'attr' or 'num', got 'food'"),
    ("keyword-number", "123", ParseError, "1:1: expected 'attr' or 'num', got '123'"),
    ("trailing-comma", "attr Food : { Italian, }", ParseError, "1:24: expected domain value, got '}'"),
    ("trailing-num", "num Temp extra", ParseError, "1:10: expected end of line, got 'extra'"),
    ("open-brace", "attr Food : Italian", ParseError, "1:13: expected '{', got 'Italian'"),
    ("close-brace", "attr Food : { Italian Norwegian }", ParseError, "1:23: expected '}', got 'Norwegian'"),
    ("duplicate-value", "attr Food : { Italian, Italian }", DuplicateValue, "1:24: duplicate value 'Italian' for attribute 'Food'"),
    ("duplicate-attribute", "attr Food : { Italian }\nattr Food : { Norwegian }", DuplicateAttribute, "2:6: duplicate attribute 'Food'"),
    ("duplicate-after-cr", "num A\rnum A", DuplicateAttribute, "2:5: duplicate attribute 'A'"),
    ("syntax-before-duplicate", "num Temp\nnum Temp extra", ParseError, "2:10: expected end of line, got 'extra'"),
    ("value-before-duplicate", "attr Food : { A }\nattr Food : { B, B }", DuplicateValue, "2:18: duplicate value 'B' for attribute 'Food'"),
    ("lex", "# one\n\nattr Food : { A } $", ParseError, "3:19: unexpected character '$'"),
    ("lex-later-line", "food Food\n$", ParseError, "1:1: expected 'attr' or 'num', got 'food'"),
    ("atom-shaped-name", "attr F(x)=A", ParseError, "1:7: expected ':', got '('"),
    ("atom-shaped-num", "num Temp(x)", ParseError, "1:9: expected end of line, got '('"),
    ("atom-shaped-value", "attr Food : { A, B(c)=D }", ParseError, "1:19: expected '}', got '('"),
    ("reserved-attr", "attr true : { A }", ParseError, "1:6: attribute name 'true' is reserved"),
    ("reserved-num", "num false", ParseError, "1:5: attribute name 'false' is reserved"),
    ("reserved-before-syntax", "attr false { A }", ParseError, "1:6: attribute name 'false' is reserved"),
    # only \n, \r\n and \r end a line
    ("formfeed-is-no-line-break", "attr A : { x }\x0cattr B : { y }", ParseError, "1:15: unexpected character '\\x0c'"),
    ("line-separator-is-no-line-break", "num A\u2028num A", ParseError, "1:6: unexpected character '\\u2028'"),
]


@pytest.mark.parametrize("text, error, message", [row[1:] for row in SCHEMA_ERRORS], ids=[row[0] for row in SCHEMA_ERRORS])
def test_schema_error_table(text, error, message):
    with pytest.raises(SourceError) as exc_info:
        parse_schema(text)
    assert (type(exc_info.value), str(exc_info.value)) == (error, message)


def test_a_long_domain_parses_in_linear_time():
    values = [f"V{i}" for i in range(100_000)]
    start = time.perf_counter()
    schema = parse_schema("attr A : { " + ", ".join(values) + " }")
    assert time.perf_counter() - start < 5
    assert schema.domain("A") == tuple(values)
    # The token walk, which reads a line with a repeated value, is linear
    # too and places the repeat at its own column.
    text = "attr A : { " + ", ".join(values) + ", V99999 }"
    start = time.perf_counter()
    with pytest.raises(DuplicateValue) as exc_info:
        parse_schema(text)
    assert time.perf_counter() - start < 5
    assert str(exc_info.value) == f"1:{len(text) - 7}: duplicate value 'V99999' for attribute 'A'"


def test_a_long_domain_is_not_scanned_for_each_atom():
    # 1,000 distinct atoms whose values sit at the end of a 100,000-value
    # domain; a scan of the domain per atom takes seconds.
    values = [f"V{i}" for i in range(100_000)]
    schema = Schema({"A": values}, frozenset())
    text = " | ".join(f"A(x)={v}" for v in values[-1000:])
    start = time.perf_counter()
    formula = parse_formula(text, schema)
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    validate_formula(schema, formula)
    assert time.perf_counter() - start < 0.5
    atoms = list(iter_atoms(formula))
    assert [a.value for a in atoms] == values[-1000:]
    assert atoms[900].value == "V99900" and atoms[900]._entry[3] == 99900  # its position


_blanks = st.text(alphabet=" \t", max_size=3)
_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True) | st.sampled_from(
    ["true", "false", "attr", "num"]
)
_comments = st.sampled_from(["", "#", "# a, b } {", "#attr X : { Y }"])


@st.composite
def _schema_line(draw, name, values):
    """``name``'s declaration with ``values`` as its domain, or as ``num``
    when None, spaced at random."""

    def blank():
        return draw(_blanks)

    after_keyword = draw(_blanks.map(lambda b: b or " "))
    if values is None:
        decl = "num" + after_keyword + name
    else:
        items = values[0] + "".join(blank() + "," + blank() + v for v in values[1:])
        decl = "attr" + after_keyword + name + blank() + ":" + blank()
        decl += "{" + blank() + items + blank() + "}"
    return blank() + decl + blank() + draw(_comments)


@st.composite
def _schema_texts(draw):
    """Schema text with the declarations it makes, in order."""
    names = draw(st.lists(_names.filter(lambda n: n not in ("true", "false")), unique=True, max_size=5))
    decls = [
        (name, draw(st.none() | st.lists(_names, min_size=1, max_size=4, unique=True).map(tuple)))
        for name in names
    ]
    lines = []
    for name, values in decls:
        lines += draw(st.lists(st.tuples(_blanks, _comments).map("".join), max_size=2))
        lines.append(draw(_schema_line(name, values)))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends)), decls


class TestSchemaReader:
    @given(st.text() | st.text(alphabet="attrnum AB_1:{},#-$\t\r\n\x0c\u2028"))
    def test_any_text_is_a_schema_or_a_source_error(self, text):
        try:
            schema = parse_schema(text)
        except SourceError:
            return
        assert isinstance(schema, Schema)

    @given(_schema_texts())
    def test_spaced_declarations_parse_to_their_domains(self, case):
        text, decls = case
        schema = parse_schema(text)
        assert list(schema.categorical.items()) == [(n, vs) for n, vs in decls if vs is not None]
        assert schema.numeric == {n for n, vs in decls if vs is None}

    @settings(max_examples=500)
    @given(
        st.tuples(_names, st.none() | st.lists(_names, min_size=1, max_size=4).map(tuple)).flatmap(
            lambda decl: _schema_line(*decl)
        )
        | _blanks.map(lambda b: b + "#")
        | st.lists(
            st.tuples(_blanks, st.sampled_from(["attr", "num", "A", "true", "1", ":", "{", "}", ",", "#", "$"])),
            max_size=8,
        ).map(lambda parts: "".join(b + t for b, t in parts))
    )
    def test_the_line_regex_reads_lines_as_the_token_walk_does(self, line):
        """Every line the regex accepts is read, through ``parse_schema``,
        to the declaration or the error ``_read_decl`` gives."""
        if mr._DECL_RE.fullmatch(line) is None:
            return
        try:
            name, values = mr._read_decl(line, 1, ())
        except SourceError as exc:
            with pytest.raises(type(exc)) as exc_info:
                parse_schema(line)
            assert str(exc_info.value) == str(exc)
            return
        schema = parse_schema(line)
        if name is None:
            assert schema == Schema({}, frozenset())
        elif values is None:
            assert schema == Schema({}, frozenset({name}))
        else:
            assert list(schema.categorical.items()) == [(name, values)]
            assert schema.numeric == frozenset()


def test_atom_cache_hands_out_one_node_per_atom():
    schema = Schema(SCHEMA.categorical, SCHEMA.numeric)
    f = parse_formula("Food(x)=Italian & Food(x)=Italian", schema)
    assert f.left is f.right
    # The key is the atom's parts, so spacing does not matter.
    assert parse_formula("Food( x )\n= Italian", schema) is f.left
    halves = parse_formula("Temp(d) < 0.5 | Temp(d) < 1/2", schema)
    assert halves.left == halves.right
    # The cache is not part of the schema's value.
    assert schema == SCHEMA
    assert "_atoms" not in repr(schema)


def test_atom_cache_keeps_no_error():
    schema = Schema(SCHEMA.categorical, SCHEMA.numeric)
    narrow = Schema({"Food": ("Japanese",), "Type": ("Pub",)}, frozenset({"Temp"}))
    assert parse_formula("Food(x)=Italian", schema) == CatAtom("Food", "x", "Italian")
    for _ in range(2):
        with pytest.raises(ValueNotInDomain, match="^1:9: 'Italian' is not in the domain of 'Food'$"):
            parse_formula("Food(x)=Italian", narrow)
        with pytest.raises(ValueNotInDomain, match="^1:9: 'Sushi' is not in the domain of 'Food'$"):
            parse_formula("Food(x)=Sushi", schema)
    assert narrow._atoms == {}
    assert list(schema._atoms) == [("Food", "x", "=", "Italian")]


def test_atom_cache_is_bounded(monkeypatch):
    """Parsing 10**5 distinct numeric atoms under one schema keeps at most
    2**16 of them in its cache, which is cleared when full.  An atom parsed
    before the clear is still the schema's own node, which a question does
    not validate again, and sampled questions over atoms from before and
    after the clear get the verdicts they get under a fresh schema."""
    schema = Schema(SCHEMA.categorical, SCHEMA.numeric)
    first = parse_formula("Temp(d) < 0 & Food(x)=Italian", schema)
    most = 0
    for i in range(1, 10**5):
        parse_formula(f"Temp(d) < {i}", schema)
        most = max(most, len(schema._atoms))
    assert most == 2**16
    # 10**5 + 1 atoms were made; the 2**16 + 1st found the cache full.
    assert len(schema._atoms) == 10**5 + 1 - 2**16
    assert ("Temp", "d", "<", "0") not in schema._atoms
    validated = []

    def spy(schema, atom):
        validated.append(atom)
        validate_atom(schema, atom)

    monkeypatch.setattr(entail, "validate_atom", spy)
    assert satisfiable(schema, first)
    assert validated == []
    rng = random.Random(5)
    for _ in range(200):
        texts = [f"Temp(d) {rng.choice(['<', '>=', '='])} {rng.randrange(10**5)}" for _ in range(2)]
        a, b = (parse_formula(t, schema) for t in texts)
        fresh = Schema(SCHEMA.categorical, SCHEMA.numeric)
        fa, fb, f_first = (parse_formula(t, fresh) for t in (*texts, print_formula(first)))
        assert classify(schema, a, b) == classify(fresh, fa, fb)
        assert classify(schema, Or(first, a), b) == classify(fresh, Or(f_first, fa), fb)


@st.composite
def _atom_texts(draw):
    """An atom's text, valid or not: each part a fitting or a wrong token,
    with spaces, tabs and line breaks between the parts."""

    def gap():
        return draw(st.sampled_from(["", " ", "  ", "\t", "\n", "\r\n", " \n "]))

    attr = draw(st.sampled_from(["Alpha", "Beta", "Level", "Delta"]))
    entity = draw(st.sampled_from(["e", "x1", "_", "1", "=", ""]))
    op = draw(st.sampled_from(["=", "<", "<=", ">=", ">", "->", "(", ""]))
    value = draw(
        st.sampled_from(["V1", "V2", "V3", "true", "_v", "0", "-3", "22.5", "1/3", "1/0", "-3/0", "(", "&", ""])
        | st.just("9" * 5000)
    )
    return attr + gap() + "(" + gap() + entity + gap() + ")" + gap() + op + gap() + value


def _outcome(read):
    try:
        return read()
    except SourceError as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(_atom_texts())
def test_atoms_read_alike_on_a_cache_miss_a_hit_and_the_token_walk(text):
    """The scanner's parts (a miss), the schema's cached node (a hit) and
    ``_read_atom``'s token walk give the same atom or the same error."""
    fresh = Schema(ERR_SCHEMA.categorical, ERR_SCHEMA.numeric)
    warm = Schema(ERR_SCHEMA.categorical, ERR_SCHEMA.numeric)
    _outcome(lambda: parse_formula(text, warm))
    miss = _outcome(lambda: parse_formula(text, fresh))
    hit = _outcome(lambda: parse_formula(text, warm))
    walked = _outcome(lambda: mr._read_atom(text, 0, Schema(ERR_SCHEMA.categorical, ERR_SCHEMA.numeric)))
    assert miss == hit == walked
    if not isinstance(miss, tuple):
        assert parse_formula(text, warm) is hit


# The formula scanner as it was when it gave one match object per token,
# the token's kind the name of its group, kept as the reference for
# ``mr._FORMULA_RE``.  Each reference kind maps to the group of the new
# pattern that holds the token: ``atom`` (groups 2-5), ``op`` (group 1),
# ``token`` (group 6) or ``bad`` (group 7).
_REF_GAP, _REF_NAME, _REF_NUMBER = r"[ \t\r\n]*", r"[A-Za-z_][A-Za-z0-9_]*", r"-?\d+(?:\.\d+|/\d+)?"
REFERENCE_SCANNER = re.compile(
    rf"{_REF_GAP}(?:(?P<atom>(?!(?:true|false){_REF_GAP}\()({_REF_NAME}){_REF_GAP}\({_REF_GAP}"
    rf"({_REF_NAME}){_REF_GAP}\){_REF_GAP}(<=|>=|[=<>]){_REF_GAP}({_REF_NUMBER}|{_REF_NAME}))"
    rf"|(?P<number>{_REF_NUMBER})|(?P<ident>{_REF_NAME})"
    r"|(?P<implies>->)|(?P<cmp><=|>=|[=<>])|(?P<and>&)|(?P<or>\|)|(?P<not>!)"
    r"|(?P<lpar>\()|(?P<rpar>\))|(?P<lbrace>\{)|(?P<rbrace>\})|(?P<comma>,)|(?P<colon>:)"
    r"|(?P<bad>[^ \t\r\n])|(?P<end>\Z))"
)
REFERENCE_GROUP = {
    "atom": "atom", "bad": "bad",
    **dict.fromkeys(("implies", "and", "or", "not", "lpar", "rpar"), "op"),
    **dict.fromkeys(("number", "ident", "cmp", "lbrace", "rbrace", "comma", "colon"), "token"),
}
SCANNER_PIECES = [
    "Alpha", "Level", "e", "_", "x1", "true", "false", "true(", "V1", "7", "22.5", "1/3", "-5", "-x",
    "->", "-", "&", "|", "!", "(", ")", "<", "<=", ">", ">=", "=", "{", "}", ",", ":", ".", "/",
    " ", "\t", "\n", "\r", "\x0c", "é", "٣", "$", "Alpha(e)=V1", "Level (e)\n<= ٣/٤",
]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(SCANNER_PIECES), max_size=14).map("".join))
def test_the_scanner_splits_text_as_the_reference_does(text):
    """``findall`` gives the reference's tokens, kind by kind and text by
    text, and the error path's re-scan finds each one where the reference
    match put it, the end included, and an atom's operator and value too."""
    want = []
    for m in REFERENCE_SCANNER.finditer(text):
        kind = m.lastgroup
        if kind == "end":
            assert m.start("end") == len(text)
            break
        if kind == "atom":
            want.append(("atom", m.group(2, 3, 4, 5), (m.start(2), m.start(4), m.start(5))))
        else:
            want.append((REFERENCE_GROUP[kind], m.group(kind), m.start(kind)))
    got = []
    for n, tok in enumerate(mr._FORMULA_RE.findall(text)):
        if tok[1]:
            starts = tuple(mr._token_start(text, n, group) for group in ("attr", "cmp", "value"))
            got.append(("atom", tok[1:5], starts))
        else:
            kind = "op" if tok[0] else "token" if tok[5] else "bad"
            got.append((kind, tok[0] or tok[5] or tok[6], mr._token_start(text, n)))
    assert got == want
    assert mr._token_start(text, len(got)) == len(text)


@pytest.mark.parametrize("numeral", ["42", "-7", "3/6", "-3/4", "2.50", "٣", "٣/٤"])
def test_numerals_read_alike_on_a_cache_miss_and_a_hit(numeral):
    schema = Schema(ERR_SCHEMA.categorical, ERR_SCHEMA.numeric)
    miss = parse_formula(f"Level(e) = {numeral}", schema)
    assert miss.constant == Fraction(numeral)
    assert type(miss.constant) is Fraction
    assert parse_formula(f"Level(e)={numeral}", schema) is miss


LONG = sys.get_int_max_str_digits() + 1


@pytest.mark.parametrize(
    "numeral, message",
    [
        ("1/0", "1:12: zero denominator in '1/0'"),
        ("٣/0", "1:12: zero denominator in '٣/0'"),
        ("7" * LONG, f"1:12: numeric constant of {LONG} characters has too many digits"),
        ("-" + "7" * LONG, f"1:12: numeric constant of {LONG + 1} characters has too many digits"),
        ("1/" + "7" * LONG, f"1:12: numeric constant of {LONG + 2} characters has too many digits"),
        ("7" * LONG + "/3", f"1:12: numeric constant of {LONG + 2} characters has too many digits"),
    ],
    ids=["zero", "zero-arabic-indic", "long", "long-negative", "long-denominator", "long-numerator"],
)
def test_numerals_fail_alike_on_every_read(numeral, message):
    """An error is never cached, so each read is a miss; the same text
    raises the same error each time, and so does its token walk."""
    schema = Schema(ERR_SCHEMA.categorical, ERR_SCHEMA.numeric)
    for read in (
        lambda: parse_formula(f"Level(e) = {numeral}", schema),
        lambda: parse_formula(f"Level(e) = {numeral}", schema),
        lambda: mr._read_atom(f"Level(e) = {numeral}", 0, schema),
    ):
        assert _outcome(read) == (ParseError, message)
    assert schema._atoms == {}


def test_num_atom_coerces_int_constant():
    assert NumAtom("Temp", "d", "<", 22).constant == Fraction(22)
    with pytest.raises(ValueError):
        NumAtom("Temp", "d", "!=", 22)


def test_validate_formula_checks_atoms():
    with pytest.raises(ValueNotInDomain):
        validate_formula(SCHEMA, CatAtom("Food", "x", "Sushi"))
    with pytest.raises(NumericComparisonOnCategorical):
        validate_formula(SCHEMA, NumAtom("Food", "x", "<", 2))
    with pytest.raises(CategoricalComparisonOnNumeric):
        validate_formula(SCHEMA, CatAtom("Temp", "x", "Italian"))
    with pytest.raises(UnknownAttribute):
        validate_formula(SCHEMA, NumAtom("Pressure", "x", "<", 2))


@pytest.mark.parametrize("entity", ["new york", "", "2nd", "x\ny", 7])
@pytest.mark.parametrize("make", [lambda e: CatAtom("Food", e, "Italian"), lambda e: NumAtom("Temp", e, "<", 2)])
@pytest.mark.parametrize(
    "ask",
    [
        lambda atom: validate_atom(SCHEMA, atom),
        lambda atom: satisfiable(SCHEMA, atom),
        lambda atom: classify(SCHEMA, CatAtom("Food", "x", "Italian"), atom),
        lambda atom: oracle_classify(SCHEMA, atom, CatAtom("Food", "x", "Italian")),
    ],
    ids=["validate_atom", "satisfiable", "classify", "oracle_classify"],
)
def test_an_entity_that_is_no_name_is_refused(make, entity, ask):
    """An atom whose entity printed text could not spell is refused where
    atoms are validated, with a SourceError like every other bad atom;
    before, it was decided and printed as text that does not parse."""
    with pytest.raises(InvalidEntity, match="^entity .* is not a name$"):
        ask(make(entity))
    assert issubclass(InvalidEntity, SourceError)


def test_validate_model_checks_assignments():
    with pytest.raises(ValueNotInDomain):
        validate_model(SCHEMA, Model({("Food", "x"): "Sushi"}, {}))
    with pytest.raises(UnknownAttribute):
        validate_model(SCHEMA, Model({}, {("Pressure", "x"): Fraction(1)}))
    with pytest.raises(NumericComparisonOnCategorical):
        validate_model(SCHEMA, Model({}, {("Food", "x"): Fraction(1)}))
    with pytest.raises(CategoricalComparisonOnNumeric):
        validate_model(SCHEMA, Model({("Temp", "d"): "Italian"}, {}))


# ---------------------------------------------------------------------------
# Printing


def test_fraction_str():
    assert fraction_str(Fraction(22)) == "22"
    assert fraction_str(Fraction(-7)) == "-7"
    assert fraction_str(Fraction(45, 2)) == "22.5"
    assert fraction_str(Fraction(1, 8)) == "0.125"
    assert fraction_str(Fraction(-1, 2)) == "-0.5"
    assert fraction_str(Fraction(3, 20)) == "0.15"
    assert fraction_str(Fraction(1, 3)) == "1/3"
    assert fraction_str(Fraction(-5, 3)) == "-5/3"


def test_fraction_str_writes_ints_longer_than_str_converts():
    assert fraction_str(Fraction(10**5000)) == "1" + "0" * 5000
    assert fraction_str(Fraction(-(10**5000), 3)) == "-1" + "0" * 5000 + "/3"
    # A terminating decimal whose integer part has 5000 digits.
    assert fraction_str(Fraction(10**5000 + 1, 2)) == "1" + "0" * 4999 + "1/2"


@pytest.mark.parametrize(
    "power, printed_as_ratio",
    [(4300, False), (4301, True), (5000, True), (14000, True)],
)
def test_print_formula_writes_a_too_long_decimal_as_a_ratio(power, printed_as_ratio):
    # 1/2**n is 5**n/10**n: a decimal with n fraction digits, which the
    # parser reads only up to sys.get_int_max_str_digits() of them.
    schema = parse_schema("num T")
    ratio = f"T(d) = 1/{2**power}"
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        formula = parse_formula(ratio, schema)
        printed = print_formula(formula)
        assert parse_formula(printed, schema) == formula
    finally:
        sys.set_int_max_str_digits(saved)
    if printed_as_ratio:
        assert printed == ratio
    else:
        assert printed == f"T(d) = 0.{5**power:0{power}d}"


def test_print_formula_spacing_and_parens():
    a, b, c = (
        CatAtom("Food", "x", "Italian"),
        CatAtom("Type", "x", "Pub"),
        CatAtom("Food", "y", "Norwegian"),
    )
    assert print_formula(And(a, b)) == "Food(x)=Italian & Type(x)=Pub"
    assert print_formula(Not(a)) == "!(Food(x)=Italian)"
    assert (
        print_formula(Or(And(a, b), c))
        == "Food(x)=Italian & Type(x)=Pub | Food(y)=Norwegian"
    )
    assert (
        print_formula(And(Or(a, b), c))
        == "(Food(x)=Italian | Type(x)=Pub) & Food(y)=Norwegian"
    )
    assert (
        print_formula(Implies(a, Implies(b, c)))
        == "Food(x)=Italian -> Type(x)=Pub -> Food(y)=Norwegian"
    )
    assert (
        print_formula(Implies(Implies(a, b), c))
        == "(Food(x)=Italian -> Type(x)=Pub) -> Food(y)=Norwegian"
    )
    assert print_formula(NumAtom("Temp", "d", "<=", Fraction(45, 2))) == "Temp(d) <= 22.5"
    assert print_formula(TRUE) == "true"
    assert print_formula(FALSE) == "false"


# Every connective as parent, each operand place, every kind of child: the
# child is parenthesized exactly when it binds looser than its place needs.
A, B, C = (CatAtom(attr, "x", "T") for attr in "ABC")
CHILDREN = {
    "not": Not(B),
    "and": And(B, C),
    "or": Or(B, C),
    "implies": Implies(B, C),
    "atom": B,
    "true": TRUE,
}
PARENS = {
    ("not", 0): ["!(!(B(x)=T))", "!(B(x)=T & C(x)=T)", "!(B(x)=T | C(x)=T)", "!(B(x)=T -> C(x)=T)", "!(B(x)=T)", "!(true)"],
    ("and", 0): ["!(B(x)=T) & A(x)=T", "B(x)=T & C(x)=T & A(x)=T", "(B(x)=T | C(x)=T) & A(x)=T", "(B(x)=T -> C(x)=T) & A(x)=T", "B(x)=T & A(x)=T", "true & A(x)=T"],
    ("and", 1): ["A(x)=T & !(B(x)=T)", "A(x)=T & (B(x)=T & C(x)=T)", "A(x)=T & (B(x)=T | C(x)=T)", "A(x)=T & (B(x)=T -> C(x)=T)", "A(x)=T & B(x)=T", "A(x)=T & true"],
    ("or", 0): ["!(B(x)=T) | A(x)=T", "B(x)=T & C(x)=T | A(x)=T", "B(x)=T | C(x)=T | A(x)=T", "(B(x)=T -> C(x)=T) | A(x)=T", "B(x)=T | A(x)=T", "true | A(x)=T"],
    ("or", 1): ["A(x)=T | !(B(x)=T)", "A(x)=T | B(x)=T & C(x)=T", "A(x)=T | (B(x)=T | C(x)=T)", "A(x)=T | (B(x)=T -> C(x)=T)", "A(x)=T | B(x)=T", "A(x)=T | true"],
    ("implies", 0): ["!(B(x)=T) -> A(x)=T", "B(x)=T & C(x)=T -> A(x)=T", "B(x)=T | C(x)=T -> A(x)=T", "(B(x)=T -> C(x)=T) -> A(x)=T", "B(x)=T -> A(x)=T", "true -> A(x)=T"],
    ("implies", 1): ["A(x)=T -> !(B(x)=T)", "A(x)=T -> B(x)=T & C(x)=T", "A(x)=T -> B(x)=T | C(x)=T", "A(x)=T -> B(x)=T -> C(x)=T", "A(x)=T -> B(x)=T", "A(x)=T -> true"],
}


@pytest.mark.parametrize(
    "parent, place, child, text",
    [
        (parent, place, child, text)
        for (parent, place), texts in PARENS.items()
        for child, text in zip(CHILDREN, texts)
    ],
)
def test_print_formula_parenthesizes_each_child_in_each_place(parent, place, child, text):
    c = CHILDREN[child]
    if parent == "not":
        f = Not(c)
    else:
        node = {"and": And, "or": Or, "implies": Implies}[parent]
        f = node(c, A) if place == 0 else node(A, c)
    assert print_formula(f) == text
    assert parse_formula(text, Schema({"A": ("T",), "B": ("T",), "C": ("T",)}, frozenset())) == f


def test_format_model():
    model = Model(
        {("Food", "x"): "Italian", ("Type", "x"): "Pub"},
        {("Temp", "d"): Fraction(45, 2)},
    )
    assert format_model(model) == "Food(x)=Italian, Temp(d)=22.5, Type(x)=Pub"
    assert format_model(Model({}, {})) == "{}"


# ---------------------------------------------------------------------------
# Evaluation


def _model(**num):
    return Model(
        {("Food", "x"): "Italian", ("Food", "y"): "Norwegian"},
        {("Temp", "d"): Fraction(num.get("temp", 23))},
    )


def test_evaluate_categorical():
    assert evaluate(_model(), CatAtom("Food", "x", "Italian"))
    assert not evaluate(_model(), CatAtom("Food", "x", "Norwegian"))


@pytest.mark.parametrize(
    "op,constant,expected",
    [
        ("<", 24, True),
        ("<", 23, False),
        ("<=", 23, True),
        ("=", 23, True),
        ("=", 22, False),
        (">=", 23, True),
        (">", 23, False),
        (">", 22, True),
    ],
)
def test_evaluate_numeric(op, constant, expected):
    assert evaluate(_model(), NumAtom("Temp", "d", op, constant)) is expected


def test_evaluate_missing_key():
    with pytest.raises(MissingKey):
        evaluate(Model({}, {}), CatAtom("Food", "x", "Italian"))
    with pytest.raises(MissingKey):
        evaluate(Model({}, {}), NumAtom("Temp", "d", "<", 2))


def test_evaluate_short_circuits_past_missing_keys():
    model = Model({("Food", "x"): "Norwegian"}, {})
    italian, missing = CatAtom("Food", "x", "Italian"), NumAtom("Temp", "d", "<", 2)
    assert evaluate(model, And(italian, missing)) is False
    assert evaluate(model, Or(Not(italian), missing)) is True
    assert evaluate(model, Implies(italian, missing)) is True
    with pytest.raises(MissingKey):
        evaluate(model, Implies(Not(italian), missing))


def test_iter_atoms_left_to_right_with_duplicates():
    a = CatAtom("Food", "x", "Italian")
    b = NumAtom("Temp", "d", "<", 2)
    assert list(iter_atoms(Implies(And(a, b), Or(Not(a), TRUE)))) == [a, b, a]


# ---------------------------------------------------------------------------
# Properties

_cat_atoms = st.builds(
    CatAtom,
    st.just("Food"),
    st.sampled_from(("x", "y")),
    st.sampled_from(("Italian", "Norwegian")),
) | st.builds(
    CatAtom,
    st.just("Type"),
    st.sampled_from(("x", "y")),
    st.sampled_from(("Restaurant", "Pub", "CoffeeShop")),
)

_num_atoms = st.builds(
    NumAtom,
    st.just("Temp"),
    st.sampled_from(("x", "d")),
    st.sampled_from(("<", "<=", "=", ">=", ">")),
    st.sampled_from(
        (Fraction(0), Fraction(22), Fraction(-3, 2), Fraction(1, 3), Fraction(7))
    ),
)

formulas = st.recursive(
    st.just(TRUE) | st.just(FALSE) | _cat_atoms | _num_atoms,
    lambda sub: st.builds(Not, sub)
    | st.builds(And, sub, sub)
    | st.builds(Or, sub, sub)
    | st.builds(Implies, sub, sub),
    max_leaves=8,
)


@st.composite
def models(draw):
    cat = {}
    for attr, domain in SCHEMA.categorical.items():
        for entity in ("x", "y"):
            cat[attr, entity] = draw(st.sampled_from(domain))
    num = {}
    for entity in ("x", "d"):
        num["Temp", entity] = draw(
            st.sampled_from([Fraction(n, 2) for n in range(-4, 47)])
        )
    return Model(cat, num)


class TestFormulaLaws:
    @given(formulas)
    def test_round_trip(self, f):
        """parse(print(f)) reproduces f exactly, hash included."""
        g = parse_formula(print_formula(f), SCHEMA)
        assert g == f
        assert hash(g) == hash(f)

    @given(models(), formulas)
    def test_negation(self, m, f):
        """eval(m, !f) is the boolean complement of eval(m, f)."""
        assert evaluate(m, Not(f)) == (not evaluate(m, f))

    @given(models(), formulas, formulas)
    def test_connectives(self, m, f, g):
        """And/Or/Implies agree with the boolean connectives."""
        assert evaluate(m, And(f, g)) == (evaluate(m, f) and evaluate(m, g))
        assert evaluate(m, Or(f, g)) == (evaluate(m, f) or evaluate(m, g))
        assert evaluate(m, Implies(f, g)) == evaluate(m, Or(Not(f), g))

    @given(models())
    def test_functional_keys(self, m):
        """One key cannot hold two distinct values at once."""
        clash = And(CatAtom("Food", "x", "Italian"), CatAtom("Food", "x", "Norwegian"))
        assert not evaluate(m, clash)


# ---------------------------------------------------------------------------
# Depth: no input reaches the interpreter's recursion limit


@pytest.mark.parametrize("opener", ["(", "!(", " ( "])
@pytest.mark.parametrize("depth", [101, 200, 3000])
def test_parentheses_nest_to_any_depth(opener, depth):
    text = opener * depth + "Food(x)=Italian" + ")" * depth
    expected = CatAtom("Food", "x", "Italian")
    for _ in range(depth if "!" in opener else 0):
        expected = Not(expected)
    f = parse_formula(text, SCHEMA)
    assert f == expected
    assert parse_formula(print_formula(f), SCHEMA) == f


def test_long_implication_chain_is_right_associative():
    text = " -> ".join(f"Temp(x) < {n}" for n in range(3000))
    f = parse_formula(text, SCHEMA)
    for n in range(2999):
        assert f.antecedent == NumAtom("Temp", "x", "<", n)
        f = f.consequent
    assert f == NumAtom("Temp", "x", "<", 2999)


# Both are deeper than the interpreter's recursion limit.
LONG_AND = " & ".join(
    ("Food(x)=Italian", "Temp(d) < 3", "Type(y)=Pub")[i % 3] for i in range(1500)
)
DEEP_NOT = "!" * 2000 + "(Temp(d) >= 1/2 | Food(y)=Norwegian)"


@pytest.mark.parametrize(
    "text, atoms",
    [
        (LONG_AND, [CatAtom("Food", "x", "Italian"), NumAtom("Temp", "d", "<", 3), CatAtom("Type", "y", "Pub")] * 500),
        (DEEP_NOT, [NumAtom("Temp", "d", ">=", Fraction(1, 2)), CatAtom("Food", "y", "Norwegian")]),
    ],
    ids=["long-and", "deep-not"],
)
def test_traversals_walk_formulas_of_any_depth(text, atoms):
    f = parse_formula(text, SCHEMA)
    assert list(iter_atoms(f)) == atoms
    validate_formula(SCHEMA, f)
    with pytest.raises(ValueNotInDomain):
        validate_formula(Schema({"Food": ("Japanese",), "Type": ("Pub",)}, frozenset({"Temp"})), f)


LONG_OR = " | ".join(("Food(x)=Norwegian", "Temp(d) > 3", "Type(y)=Pub")[i % 3] for i in range(1500))
LONG_IMPLIES = " -> ".join(("Food(x)=Italian", "Temp(d) < 3", "Type(y)=Pub")[i % 3] for i in range(1500))


@pytest.mark.parametrize(
    "text, printed, value",
    [
        (LONG_AND, LONG_AND, True),
        (DEEP_NOT, "!(" * 2000 + "Temp(d) >= 0.5 | Food(y)=Norwegian" + ")" * 2000, True),
        (LONG_OR, LONG_OR, True),
        (LONG_IMPLIES, LONG_IMPLIES, True),
    ],
    ids=["long-and", "deep-not", "long-or", "long-implies"],
)
def test_deep_formulas_compare_hash_evaluate_and_print(text, printed, value):
    f = parse_formula(text, SCHEMA)
    # A second schema has its own atom cache, so no node is shared.
    g = parse_formula(text, Schema(SCHEMA.categorical, SCHEMA.numeric))
    assert f is not g
    assert f == g
    assert not f != g
    assert hash(f) == hash(g)
    assert len({f, g}) == 1
    assert f != Not(g)
    assert Not(f) == Not(g)
    model = Model(
        {("Food", "x"): "Italian", ("Food", "y"): "Norwegian", ("Type", "y"): "Pub"},
        {("Temp", "d"): Fraction(1)},
    )
    assert evaluate(model, f) is value
    assert evaluate(model, Not(g)) is not value
    assert print_formula(f) == printed
    assert repr(f) == repr(g)
    assert repr(Not(f)) == "Not(operand=" + repr(g) + ")"


@pytest.mark.parametrize(
    "formula, text",
    [
        (
            Not(CatAtom("Food", "x", "Italian")),
            "Not(operand=CatAtom(attr='Food', entity='x', value='Italian'))",
        ),
        (
            And(CatAtom("Type", "y", "Pub"), NumAtom("Temp", "d", "<", Fraction(1, 2))),
            "And(left=CatAtom(attr='Type', entity='y', value='Pub'), "
            "right=NumAtom(attr='Temp', entity='d', cmp='<', constant=Fraction(1, 2)))",
        ),
        (
            Implies(Or(TRUE, FALSE), Not(Not(NumAtom("Temp", "x", ">=", 3)))),
            "Implies(antecedent=Or(left=TrueConst(), right=FalseConst()), "
            "consequent=Not(operand=Not(operand="
            "NumAtom(attr='Temp', entity='x', cmp='>=', constant=Fraction(3, 1)))))",
        ),
        (Not("junk"), "Not(operand='junk')"),
    ],
)
def test_connective_repr_is_the_dataclass_text(formula, text):
    assert repr(formula) == text


def test_connective_repr_round_trips():
    names = {c.__name__: c for c in (And, CatAtom, Implies, Not, NumAtom, Or)}
    names.update(TrueConst=type(TRUE), FalseConst=type(FALSE), Fraction=Fraction)
    rng = random.Random(11)
    for _ in range(2000):
        f = random_ast(rng, rng.randint(0, 6))
        assert eval(repr(f), names) == f


def test_connectives_compare_by_class_and_shape():
    a, b = CatAtom("Food", "x", "Italian"), CatAtom("Type", "x", "Pub")
    assert And(a, b) == And(a, b)
    assert And(a, b) != Or(a, b)
    assert And(a, b) != And(b, a)
    assert Implies(a, b) != Or(Not(a), b)
    assert And(Not(a), b) != And(a, Not(b))
    assert Not(a) != a
    assert And(a, b) != (a, b)


def test_iter_atoms_rejects_a_non_formula_where_it_meets_it():
    walk = iter_atoms(And(CatAtom("Food", "x", "Italian"), Not("junk")))
    assert next(walk) == CatAtom("Food", "x", "Italian")
    with pytest.raises(TypeError, match="not a formula: 'junk'"):
        next(walk)


@pytest.mark.parametrize(
    "use",
    [print_formula, lambda f: evaluate(Model({}, {}), f)],
    ids=["print_formula", "evaluate"],
)
def test_a_non_formula_leaf_is_refused_where_it_is_reached(use):
    with pytest.raises(TypeError, match="^not a formula: 'junk'$"):
        use(And(TRUE, "junk"))


@pytest.mark.parametrize("operand", [Not, And, Or, Implies, CatAtom])
@pytest.mark.parametrize(
    "use",
    [
        print_formula,
        lambda f: list(iter_atoms(f)),
        lambda f: validate_formula(SCHEMA, f),
        lambda f: oracle_classify(SCHEMA, f, TRUE),
        lambda f: satisfiable(SCHEMA, f),
    ],
    ids=["print_formula", "iter_atoms", "validate_formula", "oracle_classify", "satisfiable"],
)
def test_a_class_as_an_operand_is_not_a_formula(use, operand):
    # Preorder lists stand for a connective node by its class, so a class
    # passed as an operand must not read as one.
    f = And(operand, CatAtom("Food", "x", "Italian"))
    with pytest.raises(TypeError, match=f"^not a formula: {operand!r}$"):
        use(f)


@st.composite
def nested_text(draw):
    """Runs of '(' and '!(' openers, up to 3000 deep in all, around an atom
    or a fragment, closed fully, partly or not at all."""
    runs = draw(
        st.lists(
            st.tuples(st.sampled_from(["(", "!(", " ( ", "!!("]), st.integers(1, 1000)),
            min_size=1,
            max_size=3,
        )
    )
    depth = sum(n for _, n in runs)
    inner = draw(
        st.sampled_from(["Food(x)=Italian", "Temp(d) < 1/2", "true ->", "", "Food(x)"])
    )
    closers = draw(st.sampled_from([depth, depth - 1, 0, depth + 1]))
    tail = draw(st.text(max_size=10))
    return "".join(opener * n for opener, n in runs) + inner + ")" * closers + tail


class TestParseIsTotal:
    @given(st.text())
    def test_arbitrary_text(self, text):
        """Any text parses to a formula or raises a SourceError."""
        try:
            f = parse_formula(text, SCHEMA)
        except SourceError:
            return
        assert parse_formula(print_formula(f), SCHEMA) == f

    @settings(max_examples=60, deadline=None)
    @given(nested_text())
    def test_nested_openers(self, text):
        """Deep nesting parses when it is balanced, and is a SourceError
        otherwise; never a RecursionError."""
        try:
            parse_formula(text, SCHEMA)
        except SourceError:
            pass
