"""The value classes: records that behave as frozen dataclasses did.

Every public value class is a plain class with slots on ``mr._Record``;
these tests pin what each one kept of its dataclass behaviour, and that
no class of the package is a dataclass any more.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import verity
from verity import (
    FALSE,
    TRUE,
    And,
    CatAtom,
    CategoryCounts,
    CorpusRecord,
    EntailmentResult,
    FalseConst,
    FindingKind,
    Implies,
    JiLabel,
    LegacyLabels,
    LineError,
    MisleadingFinding,
    Model,
    Not,
    NumAtom,
    Or,
    PairFacts,
    Scenario,
    ScenarioError,
    Schema,
    TrueConst,
    Verdict,
    parse_formula,
    parse_schema,
    satisfiable,
)
from verity import entail, mr

FOOD = CatAtom("Food", "x", "Italian")
HALF = NumAtom("Temp", "d", "<", Fraction(1, 2))
FOOD_SCHEMA = Schema({"Food": ("Italian", "Pub")}, frozenset({"Temp"}))
WORLD = Model({("Food", "x"): "Italian"}, {("Temp", "d"): Fraction(1, 3)})
SCENARIO = Scenario(FOOD_SCHEMA, FOOD, Implies(FOOD, HALF), WORLD, [Not(FOOD)])


def _own_atoms() -> tuple[CatAtom, NumAtom]:
    """FOOD and HALF as a schema's own nodes, after a question has filled
    their entries."""
    schema = Schema(FOOD_SCHEMA.categorical, FOOD_SCHEMA.numeric)
    f = parse_formula("Food(x)=Italian & Temp(d) < 1/2", schema)
    assert satisfiable(schema, f) and type(f.left._entry) is type(f.right._entry) is tuple
    return f.left, f.right


OWN_FOOD, OWN_HALF = _own_atoms()

# One instance of each record class, its repr as the dataclass gave it, and
# whether that text evaluates back to an equal record.
RECORDS = [
    (
        FOOD_SCHEMA,
        "Schema(categorical={'Food': ('Italian', 'Pub')}, numeric=frozenset({'Temp'}))",
        True,
    ),
    (TRUE, "TrueConst()", True),
    (FALSE, "FalseConst()", True),
    (FOOD, "CatAtom(attr='Food', entity='x', value='Italian')", True),
    (HALF, "NumAtom(attr='Temp', entity='d', cmp='<', constant=Fraction(1, 2))", True),
    (Not(FOOD), "Not(operand=CatAtom(attr='Food', entity='x', value='Italian'))", True),
    (And(TRUE, FALSE), "And(left=TrueConst(), right=FalseConst())", True),
    (Or(TRUE, FALSE), "Or(left=TrueConst(), right=FalseConst())", True),
    (Implies(TRUE, FALSE), "Implies(antecedent=TrueConst(), consequent=FalseConst())", True),
    (
        WORLD,
        "Model(categorical={('Food', 'x'): 'Italian'}, numeric={('Temp', 'd'): Fraction(1, 3)})",
        True,
    ),
    (
        LegacyLabels(True, False, JiLabel.EXTRINSIC),
        "LegacyLabels(dusek_hallucination=True, dusek_omission=False, "
        "ji=<JiLabel.EXTRINSIC: 'extrinsic'>)",
        False,
    ),
    (
        PairFacts(True, True, False, False, Verdict.TOO_WEAK),
        "PairFacts(input_satisfiable=True, forward=True, backward=False, conflict=False, "
        "verdict=<Verdict.TOO_WEAK: '1a-too-weak'>)",
        False,
    ),
    (LineError(3, "bad"), "LineError(line_no=3, message='bad')", True),
    (
        CorpusRecord("r1", TRUE, FALSE, 2),
        "CorpusRecord(id='r1', input=TrueConst(), output=FalseConst(), source_line=2, gold=None)",
        True,
    ),
    (
        CategoryCounts({Verdict.TOO_WEAK: 2}, 1),
        "CategoryCounts(counts={"
        + ", ".join(f"{v!r}: {2 if v is Verdict.TOO_WEAK else 0}" for v in Verdict)
        + "}, parse_failures=1, resource_limited=0, gold_matches=0, gold_total=0)",
        False,
    ),
    (
        MisleadingFinding(FindingKind.WITHHOLDING, TRUE),
        "MisleadingFinding(kind=<FindingKind.WITHHOLDING: 'withholding'>, subject=TrueConst(), "
        "inferred=None)",
        False,
    ),
    (
        MisleadingFinding(FindingKind.HALF_TRUTH, FOOD, Not(FOOD)),
        "MisleadingFinding(kind=<FindingKind.HALF_TRUTH: 'half-truth'>, "
        "subject=CatAtom(attr='Food', entity='x', value='Italian'), "
        "inferred=Not(operand=CatAtom(attr='Food', entity='x', value='Italian')))",
        False,
    ),
    (
        EntailmentResult(False, Model({}, {})),
        "EntailmentResult(holds=False, witness=Model(categorical={}, numeric={}))",
        True,
    ),
    (
        SCENARIO,
        "Scenario(schema=Schema(categorical={'Food': ('Italian', 'Pub')}, numeric=frozenset({'Temp'})), "
        "communicated=CatAtom(attr='Food', entity='x', value='Italian'), "
        "hearer_beliefs=Implies(antecedent=CatAtom(attr='Food', entity='x', value='Italian'), "
        "consequent=NumAtom(attr='Temp', entity='d', cmp='<', constant=Fraction(1, 2))), "
        "world=Model(categorical={('Food', 'x'): 'Italian'}, numeric={('Temp', 'd'): Fraction(1, 3)}), "
        "expectation_norms=(Not(operand=CatAtom(attr='Food', entity='x', value='Italian')),))",
        True,
    ),
    # An atom's entry is no field: an own atom is a record like any other.
    (OWN_FOOD, "CatAtom(attr='Food', entity='x', value='Italian')", True),
    (OWN_HALF, "NumAtom(attr='Temp', entity='d', cmp='<', constant=Fraction(1, 2))", True),
]
UNHASHABLE = (Schema, Model, CategoryCounts, EntailmentResult, Scenario)
NAMES = {
    c.__name__: c
    for c in (
        And, CatAtom, CorpusRecord, EntailmentResult, FalseConst, Implies, LineError, Model, Not,
        NumAtom, Or, Scenario, Schema, TrueConst,
    )
} | {"Fraction": Fraction}
IDS = [f"{type(r).__name__}-{i}" for i, (r, _, _) in enumerate(RECORDS)]


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def _twin(record):
    """An equal record built from ``record``'s fields, no object shared at
    the top."""
    return type(record)(*_fields(record))


def test_the_table_covers_every_record_class():
    assert {type(r) for r, _, _ in RECORDS} == set(_record_classes())


@pytest.mark.parametrize("record, text, evaluates", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_text(record, text, evaluates):
    assert repr(record) == text
    if evaluates:
        assert eval(text, NAMES) == record


@pytest.mark.parametrize("record, text, evaluates", RECORDS, ids=IDS)
def test_equality_and_hashing_go_by_class_and_fields(record, text, evaluates):
    twin = _twin(record)
    assert twin == record and not twin != record
    assert record != _fields(record)
    if type(record) in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(twin) == hash(record)
        if not isinstance(record, mr._Connective):
            # The hash a frozen dataclass gave: that of its field tuple.
            assert hash(record) == hash(_fields(record))


def test_records_of_different_classes_or_fields_differ():
    assert And(TRUE, FALSE) != Or(TRUE, FALSE)
    assert TRUE != FALSE
    assert FOOD != CatAtom("Food", "y", "Italian")
    assert HALF != NumAtom("Temp", "d", "<=", Fraction(1, 2))
    assert HALF != NumAtom("Temp", "d", "<", Fraction(1, 3))
    assert LineError(3, "bad") != LineError(4, "bad")
    assert CategoryCounts({}) != CategoryCounts({}, gold_total=1)
    assert Model({}, {}) != Model({("Food", "x"): "Italian"}, {})
    assert EntailmentResult(True, None) != EntailmentResult(False, None)
    assert hash(EntailmentResult(True, None)) == hash((True, None))
    assert len({FOOD, CatAtom("Food", "x", "Italian"), HALF, NumAtom("Temp", "d", "<", 0.5)}) == 2


@pytest.mark.parametrize("record, text, evaluates", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(record, text, evaluates):
    for name in (*type(record).__match_args__, "other"):
        before = repr(record)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert repr(record) == before


@pytest.mark.parametrize("record, text, evaluates", RECORDS, ids=IDS)
def test_keyword_construction_and_match_args(record, text, evaluates):
    names = type(record).__match_args__
    assert type(record)(**dict(zip(names, _fields(record)))) == record
    assert not hasattr(record, "__dict__")


def test_match_statements_read_the_fields():
    def shape(f) -> str:
        match f:
            case And(left, Or(a, b)):
                return f"and-or {left.value} {a.value} {b.value}"
            case Not(CatAtom(attr, entity, value)):
                return f"not {attr} {entity} {value}"
            case NumAtom(_, _, "<", constant):
                return f"below {constant}"
            case Implies(antecedent=TrueConst()):
                return "from true"
            case Model(categorical, numeric):
                return f"model {len(categorical)} {len(numeric)}"
        return "other"

    a, b = CatAtom("Food", "x", "Pub"), CatAtom("Food", "x", "Japanese")
    assert shape(And(FOOD, Or(a, b))) == "and-or Italian Pub Japanese"
    assert shape(Not(FOOD)) == "not Food x Italian"
    assert shape(HALF) == "below 1/2"
    assert shape(Implies(TRUE, FOOD)) == "from true"
    assert shape(Model({}, {("Temp", "d"): Fraction(0)})) == "model 0 1"
    assert shape(Or(a, b)) == "other"


def test_defaults():
    assert CorpusRecord("r", TRUE, FALSE, 1).gold is None
    assert CorpusRecord("r", TRUE, FALSE, 1, Verdict.TOO_WEAK).gold is Verdict.TOO_WEAK
    counts = CategoryCounts({})
    assert counts.counts == dict.fromkeys(Verdict, 0)
    assert (counts.parse_failures, counts.resource_limited, counts.gold_matches, counts.gold_total) == (
        0, 0, 0, 0
    )
    assert MisleadingFinding(FindingKind.WITHHOLDING, FOOD).inferred is None


def test_num_atom_checks_its_operator_and_makes_its_constant_a_fraction():
    with pytest.raises(ValueError, match="bad comparison operator '=='"):
        NumAtom("Temp", "d", "==", 1)
    assert NumAtom("Temp", "d", ">=", 3).constant == Fraction(3)
    assert type(NumAtom("Temp", "d", ">=", 3).constant) is Fraction
    assert NumAtom("Temp", "d", ">", "7/3") == NumAtom("Temp", "d", ">", Fraction(7, 3))
    assert NumAtom("Temp", "d", "=", 0.5).constant == Fraction(1, 2)
    with pytest.raises(ValueError):
        NumAtom("Temp", "d", "<", "seven")


@pytest.mark.parametrize(
    "categorical, numeric, message",
    [
        ({"Food": ()}, (), "attribute 'Food' has an empty domain"),
        ({"Food": ("A", "1B")}, (), "attribute 'Food' has value '1B', which is not a name"),
        ({"Food": ("A", ["B"])}, (), r"attribute 'Food' has value \['B'\], which is not a name"),
        ({"Food": ("A", "A")}, (), "attribute 'Food' repeats a domain value"),
        ({"Food": ("A",)}, ("Food",), "attribute 'Food' is both categorical and numeric"),
        ({"Fo od": ("A",)}, (), "attribute name 'Fo od' is not a name"),
        ({}, ("Tempé",), "attribute name 'Tempé' is not a name"),
        ({"true": ("A",)}, (), "attribute name 'true' is reserved"),
        ({}, ("false",), "attribute name 'false' is reserved"),
        # The first error in declaration order wins.
        ({"Food": ("A", "A"), "Type": ()}, (), "attribute 'Food' repeats a domain value"),
        ({"true": ("A",), "Type": ()}, (), "attribute 'Type' has an empty domain"),
    ],
)
def test_schema_checks_every_name(categorical, numeric, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Schema(categorical, frozenset(numeric))


def test_category_counts_check_their_counts():
    with pytest.raises(TypeError, match="not a verdict: '1a-too-weak'"):
        CategoryCounts({"1a-too-weak": 1})
    with pytest.raises(ValueError, match="negative count for 1a-too-weak"):
        CategoryCounts({Verdict.TOO_WEAK: -1})
    for name in ("parse_failures", "resource_limited", "gold_matches", "gold_total"):
        with pytest.raises(ValueError, match=f"negative {name}"):
            CategoryCounts({}, **{name: -1})
    with pytest.raises(ValueError, match="gold_matches exceeds gold_total"):
        CategoryCounts({}, gold_matches=2, gold_total=1)
    assert CategoryCounts({Verdict.TOO_WEAK: 2}).total == 2


def test_misleading_findings_need_an_inference_exactly_for_half_truths():
    with pytest.raises(ValueError, match="inferred is required exactly for half truths"):
        MisleadingFinding(FindingKind.WITHHOLDING, FOOD, FOOD)
    with pytest.raises(ValueError, match="inferred is required exactly for half truths"):
        MisleadingFinding(FindingKind.HALF_TRUTH, FOOD)


@pytest.mark.parametrize("record, text, evaluates", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal(record, text, evaluates):
    for other in (
        copy.copy(record),
        copy.deepcopy(record),
        *(pickle.loads(pickle.dumps(record, protocol)) for protocol in (2, pickle.HIGHEST_PROTOCOL)),
    ):
        assert type(other) is type(record)
        assert other == record
        assert repr(other) == text


def test_a_copy_of_an_own_atom_or_its_schema_is_another(monkeypatch):
    """A copy, deep copy, unpickled atom or one made by ``__replace__`` (or
    ``copy.replace``) of a schema's own node is equal to it, hashes and
    prints alike, and has no entry, so the next question validates it, and
    no later one does, as none validates the node.  A question validates
    the node whenever the schema asked is not the one it was last checked
    against, such as a copy of its schema, equal but not the same."""
    validated = []

    def spy(schema, atom):
        validated.append(atom)
        mr.validate_atom(schema, atom)

    monkeypatch.setattr(entail, "validate_atom", spy)
    schema = Schema(FOOD_SCHEMA.categorical, FOOD_SCHEMA.numeric)
    for atom in parse_formula("Food(x)=Italian", schema), parse_formula("Temp(d) < 1/2", schema):
        twin = copy.copy(schema)
        assert twin == schema and twin._positions == schema._positions
        assert twin._positions is not schema._positions
        for asked, checked in ((schema, False), (twin, True), (twin, False), (schema, True), (schema, False)):
            validated.clear()
            assert satisfiable(asked, atom)
            assert validated == ([atom] if checked else []) and atom._entry[0] is asked._positions
        copies = [
            copy.copy(atom),
            copy.deepcopy(atom),
            *(pickle.loads(pickle.dumps(atom, protocol)) for protocol in (2, pickle.HIGHEST_PROTOCOL)),
            atom.__replace__(),
        ]
        if sys.version_info >= (3, 13):
            copies.append(copy.replace(atom))
        for other in copies:
            assert other == atom and other is not atom and hash(other) == hash(atom)
            assert repr(other) == repr(atom) and other._entry is None
            validated.clear()
            for _ in range(2):
                assert satisfiable(schema, other)
            assert validated == [other] and validated[0] is other


def test_a_copied_schema_parses_with_caches_of_its_own():
    schema = parse_schema("attr Food : { Italian, Pub }\nnum Temp\n")
    parse_formula("Food(x)=Italian", schema)
    twin = pickle.loads(pickle.dumps(schema))
    assert twin._atoms == {} and twin._positions == schema._positions
    assert parse_formula("Food(x)=Italian & Temp(d) < 1/2", twin) == And(FOOD, HALF)


def test_schema_equality_and_repr_ignore_its_caches():
    text = "attr Food : { Italian, Pub }\nnum Temp\n"
    warm, cold = parse_schema(text), parse_schema(text)
    parse_formula("Food(x)=Italian & Temp(d) < 1/2", warm)
    verity.classify(warm, FOOD, Not(FOOD))
    assert warm._atoms and warm._tables and not cold._atoms
    assert warm == cold == Schema(cold.categorical, cold.numeric)
    assert repr(warm) == repr(cold)
    assert "_atoms" not in repr(warm) and "_tables" not in repr(warm)


def test_parse_schema_checks_each_name_once(monkeypatch):
    """``parse_schema``'s own reading checks every name; the schema it
    builds does not check them again."""
    text = "attr Food : { Italian, Pub }\nattr Type : { Pub }\nnum Temp\n"
    built = Schema({"Food": ("Italian", "Pub"), "Type": ("Pub",)}, frozenset({"Temp"}))

    def refuse(text: object) -> bool:
        raise AssertionError(f"{text!r} checked again")

    monkeypatch.setattr(mr, "_is_name", refuse)
    parsed = parse_schema(text)
    assert parsed == built
    assert parsed._positions == built._positions == {"Food": {"Italian": 0, "Pub": 1}, "Type": {"Pub": 0}}
    with pytest.raises(AssertionError, match="checked again"):
        Schema(built.categorical, built.numeric)


def _record_classes() -> list[type]:
    """Every class on ``mr._Record`` that ``verity`` exports."""
    return [
        obj
        for obj in vars(verity).values()
        if isinstance(obj, type) and issubclass(obj, mr._Record)
    ]


def test_no_class_in_the_package_is_a_dataclass():
    """The ``dataclasses`` module and what it imports cost ``import verity``
    about a third of its time, and each dataclass about half a millisecond
    more to build."""
    assert len(_record_classes()) == 18
    defined = {
        obj
        for info in pkgutil.iter_modules(verity.__path__, "verity.")
        for _, obj in inspect.getmembers(import_module(info.name), inspect.isclass)
        if obj.__module__ == info.name
    }
    assert set(_record_classes()) <= defined
    assert not [c for c in defined if dataclasses.is_dataclass(c)]


def test_import_loads_none_of_the_modules_only_some_calls_need():
    """``dataclasses`` with the modules it imports, and ``csv``, which only
    ``report --format csv`` reads; a fresh interpreter, as each ``verity``
    command starts, loads none of them with the package."""
    src = Path(verity.__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import verity; "
        "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'csv'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert done.stdout == "\n"


def test_valid_input_compiles_no_pattern_only_errors_read():
    """The token pattern, which only the readers of rejected schema lines
    and atoms use, and the scenario file's two patterns are compiled on
    first use: a fresh interpreter that imports ``verity`` and parses a
    valid schema and formula compiles none of them.  A schema line that
    the line pattern rejects compiles the token pattern."""
    src = Path(verity.__file__).resolve().parent.parent
    code = "\n".join(
        [
            "import re, sys",
            "sys.path.insert(0, sys.argv[1])",
            "seen, real = set(), re._compile",
            "re._compile = lambda pattern, flags: seen.add(pattern) or real(pattern, flags)",
            "import verity",
            "from verity import bdi, mr",
            "patterns = {'token': mr._TOKENS, 'world key': bdi._WORLD_KEY, 'numeral': bdi._NUMERAL}",
            "schema = verity.parse_schema('attr Food : { Italian, Pub }\\nnum Temp\\n')",
            "verity.parse_formula('Food(x)=Italian & !(Temp(d) < 1/2) | Temp(d) >= 2.5', schema)",
            "print(*sorted(name for name, p in patterns.items() if p in seen))",
            "try:",
            "    verity.parse_schema('attr Food { Italian }')",
            "except verity.ParseError:",
            "    print(*sorted(name for name, p in patterns.items() if p in seen))",
        ]
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert done.stdout == "\ntoken\n"


@pytest.mark.parametrize("record, text, evaluates", RECORDS, ids=IDS)
def test_replace_changes_only_the_fields_it_names(record, text, evaluates):
    names = type(record).__match_args__
    assert record.__replace__() == record
    assert record.__replace__() is not record
    for name in names:
        assert record.__replace__(**{name: getattr(record, name)}) == record
    with pytest.raises(TypeError, match=f"{type(record).__name__} has no field 'other'"):
        record.__replace__(other=None)


def test_replace_builds_the_record_again():
    told = SCENARIO.__replace__(communicated=TRUE, expectation_norms=[FOOD])
    assert told.communicated == TRUE and told.expectation_norms == (FOOD,)
    assert told.world == WORLD and told.hearer_beliefs == SCENARIO.hearer_beliefs
    assert EntailmentResult(False, None).__replace__(holds=True) == EntailmentResult(True, None)
    assert FOOD.__replace__(value="Pub") == CatAtom("Food", "x", "Pub")
    assert HALF.__replace__(constant=2).constant == Fraction(2)
    # Each class's own checks run on the new fields.
    with pytest.raises(ScenarioError, match=r"world assigns no value to Temp\(d\)"):
        SCENARIO.__replace__(world=Model({("Food", "x"): "Italian"}, {}))
    with pytest.raises(ValueError, match="bad comparison operator '=='"):
        HALF.__replace__(cmp="==")
    with pytest.raises(ValueError, match="inferred is required exactly for half truths"):
        MisleadingFinding(FindingKind.WITHHOLDING, TRUE).__replace__(kind=FindingKind.HALF_TRUTH)


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace_calls_replace():
    for record, _, _ in RECORDS:
        assert copy.replace(record) == record
    assert copy.replace(SCENARIO, communicated=TRUE) == SCENARIO.__replace__(communicated=TRUE)
    with pytest.raises(ScenarioError, match=r"world assigns no value to Temp\(d\)"):
        copy.replace(SCENARIO, world=Model({("Food", "x"): "Italian"}, {}))
    with pytest.raises(TypeError, match="CatAtom has no field 'other'"):
        copy.replace(FOOD, other=None)
