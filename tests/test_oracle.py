"""The truth-table oracle against a plain enumeration of the same models."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from randgen import random_formula, random_schema
from test_taxonomy import E2E
from verity import (
    And,
    CatAtom,
    FALSE,
    Implies,
    Model,
    Not,
    NumAtom,
    NumericComparisonOnCategorical,
    Or,
    Schema,
    TRUE,
    UnknownAttribute,
    ValueNotInDomain,
    Verdict,
    evaluate,
    iter_atoms,
    oracle,
    parse_formula,
)
from verity.cli import main

# ---------------------------------------------------------------------------
# The reference: every model of the product, evaluated one at a time


def _grid(constants):
    """A numeric key's grid in Fractions: the halves from -1 to 6, the
    constants, their midpoints, and one point beyond each extreme."""
    points = {Fraction(n, 2) for n in range(-2, 13)}
    points.update(constants)
    ordered = sorted(constants)
    for lo, hi in zip(ordered, ordered[1:]):
        points.add((lo + hi) / 2)
    if ordered:
        points.add(ordered[0] - 1)
        points.add(ordered[-1] + 1)
    return sorted(points)


# Mixed denominators, negatives, and numerators past 2**53.
CONSTANTS = st.lists(
    st.one_of(
        st.sampled_from(
            [Fraction(1, 3), Fraction(2, 7), Fraction(5, 2), Fraction(10**20), Fraction(10**20 + 1), Fraction(-1, 3)]
        ),
        st.builds(Fraction, st.integers(-(10**21), 10**21), st.integers(1, 10**6)),
        st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    ),
    max_size=8,
)


@given(CONSTANTS)
def test_scaled_grid_is_the_fraction_grid(constants):
    """The oracle's integer grid, divided by its scale, is the Fraction
    grid point for point."""
    scale, points = oracle._grid({(c.numerator, c.denominator) for c in constants})
    assert all(type(p) is int for p in points)
    assert [Fraction(p, scale) for p in points] == _grid(set(constants))


def _product(schema, formulas):
    cat_set, constants = set(), {}
    for f in formulas:
        for atom in iter_atoms(f):
            if isinstance(atom, NumAtom):
                constants.setdefault((atom.attr, atom.entity), set()).add(atom.constant)
            else:
                cat_set.add((atom.attr, atom.entity))
    cat, num = sorted(cat_set), sorted(constants)
    domains = [schema.domain(attr) for attr, _ in cat]
    domains += [_grid(constants[k]) for k in num]
    for choice in itertools.product(*domains):
        yield Model(dict(zip(cat, choice)), dict(zip(num, choice[len(cat):])))


def _satisfiable(schema, f):
    return any(evaluate(m, f) for m in _product(schema, [f]))


def _entails(schema, a, b):
    return all(not evaluate(m, a) or evaluate(m, b) for m in _product(schema, [a, b]))


def _tautology(schema, f):
    return all(evaluate(m, f) for m in _product(schema, [f]))


def _cells(schema, a, b):
    cells = [False] * 4
    for m in _product(schema, [a, b]):
        cells[2 * (not evaluate(m, a)) + (not evaluate(m, b))] = True
    return tuple(cells)


def _classify(schema, i, o):
    if not _satisfiable(schema, i):
        return Verdict.INCONSISTENT_INPUT
    forward, backward = _entails(schema, i, o), _entails(schema, o, i)
    if forward and backward:
        return Verdict.WELL_MATCHED
    if forward:
        return Verdict.TAUTOLOGOUS if _tautology(schema, o) else Verdict.TOO_WEAK
    if backward:
        return Verdict.SELF_CONTRADICTORY if not _satisfiable(schema, o) else Verdict.TOO_STRONG
    return Verdict.CONFLICTING if _entails(schema, i, Not(o)) else Verdict.INDEPENDENT


@st.composite
def schema_and_pair(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    schema = random_schema(rng)
    return schema, random_formula(rng, schema), random_formula(rng, schema)


@settings(max_examples=200, deadline=None)
@given(schema_and_pair())
def test_every_oracle_function_equals_the_enumeration(case):
    schema, a, b = case
    assert oracle.oracle_satisfiable(schema, a) == _satisfiable(schema, a)
    assert oracle.oracle_entails(schema, a, b) == _entails(schema, a, b)
    # b is a tautology iff the cell true & !b is empty, and a contradiction
    # iff the cell b & !false is.
    assert (not oracle.oracle_cells(schema, TRUE, b)[1]) == _tautology(schema, b)
    assert (not oracle.oracle_cells(schema, b, FALSE)[1]) == (not _satisfiable(schema, b))
    assert oracle.oracle_cells(schema, a, b) == _cells(schema, a, b)
    assert oracle.oracle_classify(schema, a, b) is _classify(schema, a, b)


# ---------------------------------------------------------------------------
# One pass per question, in bounded blocks


def _count_passes(monkeypatch):
    """Count the truth-table passes, and the blocks each one yields."""
    passes = []
    real = oracle._truth_tables

    def counted(schema, formulas):
        passes.append(0)
        for block in real(schema, formulas):
            passes[-1] += 1
            yield block

    monkeypatch.setattr(oracle, "_truth_tables", counted)
    return passes


def test_each_oracle_question_is_one_truth_table_pass(monkeypatch):
    passes = _count_passes(monkeypatch)
    rng = random.Random(11)
    for _ in range(50):
        schema = random_schema(rng)
        a, b = random_formula(rng, schema), random_formula(rng, schema)
        for question in (
            lambda: oracle.oracle_classify(schema, a, b),
            lambda: oracle.oracle_satisfiable(schema, a),
            lambda: oracle.oracle_entails(schema, a, b),
            lambda: oracle.oracle_cells(schema, a, b),
            lambda: oracle.oracle_cells(schema, TRUE, a),
            lambda: oracle.oracle_cells(schema, a, FALSE),
        ):
            passes.clear()
            question()
            assert len(passes) == 1


def _flags(n):
    schema = Schema({f"B{k:02d}": ("Yes", "No") for k in range(n)}, frozenset())
    return schema, [CatAtom(f"B{k:02d}", "x", "Yes") for k in range(n)]


def _conjunction(atoms):
    f = atoms[0]
    for atom in atoms[1:]:
        f = And(f, atom)
    return f


@pytest.mark.parametrize("n_keys, blocks", [(15, 1), (16, 1), (17, 2), (19, 8)])
def test_products_past_the_block_size_are_split(n_keys, blocks):
    schema, atoms = _flags(n_keys)
    passes = list(oracle._truth_tables(schema, [_conjunction(atoms)]))
    assert len(passes) == blocks
    span = 2 ** min(n_keys, 16)
    assert all(full == (1 << span) - 1 for full, _ in passes)
    # The conjunction holds in one model, the first: every key at "Yes".
    assert [bin(t).count("1") for _, (t,) in passes] == [1] + [0] * (blocks - 1)


EIGHT_SLOT_INPUT = (
    "Name(x)=Venue34 & EatType(x)=Pub & Food(x)=FastFood & PriceRange(x)=MoreThan30"
    " & CustomerRating(x)=FiveOfFive & Area(x)=Riverside & FamilyFriendly(x)=No"
)
EIGHT_SLOT_OUTPUT = EIGHT_SLOT_INPUT + " & Near(x)=Landmark19"


def test_eight_slot_pair(monkeypatch):
    """1,953,504 joint models: the last five keys (54,264 models) make a
    table, and the first three are enumerated in 36 blocks."""
    passes = _count_passes(monkeypatch)
    input_mr = parse_formula(EIGHT_SLOT_INPUT, E2E)
    output_mr = parse_formula(EIGHT_SLOT_OUTPUT, E2E)
    assert oracle.oracle_classify(E2E, input_mr, output_mr) is Verdict.TOO_STRONG
    assert passes == [36]
    for full, _ in oracle._truth_tables(E2E, [output_mr]):
        assert full.bit_length() == 54264


def test_classify_stops_once_every_cell_has_a_model(monkeypatch):
    passes = _count_passes(monkeypatch)
    schema, atoms = _flags(18)
    independent = (_conjunction(atoms[:9]), _conjunction(atoms[9:]))
    assert oracle.oracle_classify(schema, *independent) is Verdict.INDEPENDENT
    assert passes == [1]
    assert len(list(oracle._truth_tables(schema, independent))) == 4


def test_entails_and_satisfiable_stop_at_the_first_block_holding_their_cell(monkeypatch):
    """Over 19 flags, B00-B02 are enumerated in 8 blocks, (Yes, Yes, Yes)
    first and (No, No, No) last.  A question whose cell first has a model
    in block k visits k blocks; one whose cell is empty visits all 8."""
    passes = _count_passes(monkeypatch)
    schema, atoms = _flags(19)
    first = _conjunction(atoms)  # a model in block 1 only
    third = And(Not(atoms[1]), _conjunction(atoms[:1] + atoms[2:]))  # B01=No: block 3 only
    cases = [
        (lambda: oracle.oracle_satisfiable(schema, first), True, 1),
        (lambda: oracle.oracle_satisfiable(schema, third), True, 3),
        (lambda: oracle.oracle_satisfiable(schema, And(first, Not(atoms[0]))), False, 8),
        (lambda: oracle.oracle_entails(schema, first, Not(first)), False, 1),
        (lambda: oracle.oracle_entails(schema, third, atoms[1]), False, 3),
        (lambda: oracle.oracle_entails(schema, first, atoms[18]), True, 8),
    ]
    for question, answer, blocks in cases:
        passes.clear()
        assert question() is answer
        assert passes == [blocks]


def test_classify_oracle_on_the_eight_slot_pair(capsys, tmp_path):
    schema = tmp_path / "e2e.schema"
    schema.write_text(
        "".join(f"attr {a} : {{ {', '.join(vs)} }}\n" for a, vs in E2E.categorical.items()),
        encoding="utf-8",
    )
    argv = ["classify", "--oracle", "-s", str(schema), EIGHT_SLOT_INPUT, EIGHT_SLOT_OUTPUT]
    assert main(argv) == 0
    assert capsys.readouterr() == ("2a-too-strong\n", "")


# ---------------------------------------------------------------------------
# Errors are those of the first bad atom, left to right


SCHEMA = Schema({"Food": ("Italian", "Norwegian")}, frozenset({"Temp"}))


def test_atoms_are_validated_left_to_right():
    good = CatAtom("Food", "x", "Italian")
    not_in_domain = CatAtom("Food", "x", "Sushi")
    ordered = NumAtom("Food", "x", "<", 1)
    unknown = NumAtom("Pressure", "x", "<", 1)
    with pytest.raises(ValueNotInDomain):
        oracle.oracle_entails(SCHEMA, And(good, not_in_domain), ordered)
    with pytest.raises(NumericComparisonOnCategorical):
        oracle.oracle_entails(SCHEMA, good, And(ordered, not_in_domain))
    with pytest.raises(TypeError, match="not a formula"):
        oracle.oracle_satisfiable(SCHEMA, Not("junk"))
    # A bad node in each formula: the left formula's error is raised.
    for left, right, error in [
        (not_in_domain, ordered, ValueNotInDomain),
        (ordered, not_in_domain, NumericComparisonOnCategorical),
        (unknown, not_in_domain, UnknownAttribute),
        (not_in_domain, Not("junk"), ValueNotInDomain),
        (Not("junk"), unknown, TypeError),
    ]:
        for ask in (oracle.oracle_entails, oracle.oracle_classify):
            with pytest.raises(error):
                ask(SCHEMA, Implies(good, Or(good, left)), And(right, good))
    # A node that is no formula, under '!' or on either side of '&', '|'
    # and '->'.
    for junk in ("junk", None, 3, ["list"], Fraction(1)):
        for f in (
            Not(junk),
            And(junk, good),
            And(good, junk),
            Or(junk, good),
            Or(good, junk),
            Implies(junk, good),
            Implies(good, junk),
        ):
            with pytest.raises(TypeError, match="^not a formula: "):
                oracle.oracle_satisfiable(SCHEMA, f)
