"""The value classes: records that behave as frozen dataclasses did.

Every public class but ``Scenario`` and ``EntailmentResult`` is a plain
class with slots on ``mr._Record``; these tests pin what each one kept of
its dataclass behaviour, and which classes are still dataclasses.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import pkgutil
from fractions import Fraction
from importlib import import_module

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
    Schema,
    TrueConst,
    Verdict,
    load_scenario,
    parse_formula,
    parse_schema,
)
from verity import mr
from verity.fixtures import fixture_path

FOOD = CatAtom("Food", "x", "Italian")
HALF = NumAtom("Temp", "d", "<", Fraction(1, 2))

# One instance of each record class, its repr as the dataclass gave it, and
# whether that text evaluates back to an equal record.
RECORDS = [
    (
        Schema({"Food": ("Italian", "Pub")}, frozenset({"Temp"})),
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
        Model({("Food", "x"): "Italian"}, {("Temp", "d"): Fraction(1, 3)}),
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
]
UNHASHABLE = (Schema, Model, CategoryCounts)
NAMES = {
    c.__name__: c
    for c in (
        And, CatAtom, CorpusRecord, FalseConst, Implies, LineError, Model, Not, NumAtom, Or,
        Schema, TrueConst,
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


def test_only_scenario_and_entailment_result_are_dataclasses():
    """Each dataclass costs ``import verity`` about half a millisecond to
    build.  A new one changes this test, and says why it is worth that."""
    exported = [obj for obj in vars(verity).values() if isinstance(obj, type)]
    assert {c for c in exported if dataclasses.is_dataclass(c)} == {Scenario, EntailmentResult}
    assert len(_record_classes()) == 16
    # Nor does any module of the package define another one.
    defined = {
        obj
        for info in pkgutil.iter_modules(verity.__path__, "verity.")
        for _, obj in inspect.getmembers(import_module(info.name), inspect.isclass)
        if obj.__module__ == info.name
    }
    assert {c for c in defined if dataclasses.is_dataclass(c)} == {Scenario, EntailmentResult}


def test_replace_still_works_on_the_dataclasses():
    scenario, _ = load_scenario(fixture_path("hurricane.scenario.json"))
    told = dataclasses.replace(scenario, communicated=TRUE)
    assert told.communicated == TRUE and told.world == scenario.world
    result = EntailmentResult(False, Model({}, {}))
    assert dataclasses.replace(result, holds=True) == EntailmentResult(True, Model({}, {}))
    with pytest.raises(TypeError):
        dataclasses.replace(FOOD, value="Pub")
