"""Satisfiability/entailment engine against hand checks and the oracle."""

from __future__ import annotations

import inspect
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from randgen import random_formula, random_schema
from verity import (
    FALSE,
    TRUE,
    CatAtom,
    Model,
    NumAtom,
    DEFAULT_ASSIGNMENT_LIMIT,
    And,
    Implies,
    Not,
    Or,
    ResourceLimit,
    Schema,
    checked_classify,
    classify,
    entails,
    evaluate,
    is_contradiction,
    is_tautology,
    iter_atoms,
    oracle_classify,
    oracle_entails,
    oracle_is_contradiction,
    oracle_is_tautology,
    oracle_satisfiable,
    parse_formula,
    parse_schema,
    satisfiable,
)
from verity import entail
from verity.entail import _compile, _samples, _search, _witness, pair_cells
from verity.taxonomy import decide

RESTAURANT = parse_schema(
    """
    attr Food : { Italian, Norwegian }
    attr Style : { Vegetarian, Steakhouse, FamilyFriendly }
    """
)
TEMPERATURE = parse_schema("num Temperature")


def _f(text, schema=RESTAURANT):
    return parse_formula(text, schema)


def test_functional_clash_is_unsatisfiable():
    assert not satisfiable(RESTAURANT, _f("Style(x)=Vegetarian & Style(x)=Steakhouse"))


def test_true_is_satisfiable_with_empty_witness():
    result = satisfiable(RESTAURANT, _f("true"))
    assert result.holds
    assert result.witness.categorical == {}
    assert result.witness.numeric == {}


def test_numeric_interval_witness_is_the_midpoint():
    f = _f("Temperature(d) > 22 & Temperature(d) < 25", TEMPERATURE)
    result = satisfiable(TEMPERATURE, f)
    assert result.holds
    assert result.witness.numeric[("Temperature", "d")] == Fraction(47, 2)
    assert evaluate(result.witness, f)


def test_entails_numeric_weakening():
    assert entails(
        TEMPERATURE,
        _f("Temperature(d) > 22", TEMPERATURE),
        _f("Temperature(d) > 21", TEMPERATURE),
    )
    assert not entails(
        TEMPERATURE,
        _f("Temperature(d) > 21", TEMPERATURE),
        _f("Temperature(d) > 22", TEMPERATURE),
    )


def test_entails_reflexive_on_examples():
    for text in ("Food(x)=Italian", "Style(x)=Vegetarian | Food(x)=Norwegian", "false"):
        f = _f(text)
        assert entails(RESTAURANT, f, f)


def test_entails_functional_exclusion():
    assert entails(RESTAURANT, _f("Food(x)=Italian"), _f("!(Food(x)=Norwegian)"))


def test_countermodel_satisfies_a_and_not_b():
    a = _f("Food(x)=Italian")
    b = _f("Style(x)=Vegetarian")
    result = entails(RESTAURANT, a, b)
    assert not result.holds
    assert evaluate(result.witness, And(a, Not(b)))


def test_tautology_by_excluded_middle():
    assert is_tautology(RESTAURANT, _f("Food(x)=Italian | !(Food(x)=Italian)"))
    assert not is_tautology(RESTAURANT, _f("Food(x)=Italian"))


def test_tautology_by_domain_exhaustion():
    assert is_tautology(RESTAURANT, _f("Food(x)=Italian | Food(x)=Norwegian"))


def test_contradiction():
    assert is_contradiction(RESTAURANT, _f("false"))
    assert is_contradiction(RESTAURANT, _f("Style(x)=Vegetarian & Style(x)=Steakhouse"))
    assert not is_contradiction(RESTAURANT, _f("Style(x)=Vegetarian"))


def test_entailment_result_is_truthy_on_holds():
    assert bool(satisfiable(RESTAURANT, _f("true")))
    assert not bool(satisfiable(RESTAURANT, _f("false")))


def test_unmentioned_keys_do_not_enter_the_search_space():
    # Style (domain 3) is not mentioned, so a limit of 2 suffices for Food.
    assert satisfiable(RESTAURANT, _f("Food(x)=Italian"), limit=2)


def test_resource_limit_counts_numeric_samples():
    """One node for the root, then one per sample tried: 21 and 22 are
    false, 23 is the witness.  The node after the limit raises."""
    f = _f("Temperature(d) > 22", TEMPERATURE)
    assert satisfiable(TEMPERATURE, f, limit=4).witness.numeric == {
        ("Temperature", "d"): Fraction(23)
    }
    with pytest.raises(ResourceLimit) as exc_info:
        satisfiable(TEMPERATURE, f, limit=3)
    assert (exc_info.value.required, exc_info.value.limit) == (4, 3)
    assert str(exc_info.value) == "4 search nodes exceeds limit 3"


def _iff(p, q):
    return And(Implies(p, q), Implies(q, p))


def test_resource_limit_multiplies_keys():
    """A formula that stays unknown until every key is assigned, and is
    false on each full assignment, makes the search visit the whole tree:
    1 + 2 + 2 * 2 + 2 * 2 * 2 = 15 nodes, since Style(x) tries Vegetarian
    and Steakhouse, which stands for the unmentioned FamilyFriendly too."""
    parity = _iff(_iff(_f("Food(x)=Italian"), _f("Food(y)=Norwegian")), _f("Style(x)=Vegetarian"))
    f = And(parity, Not(parity))
    with pytest.raises(ResourceLimit) as exc_info:
        satisfiable(RESTAURANT, f, limit=14)
    assert exc_info.value.required == 15
    assert not satisfiable(RESTAURANT, f, limit=15)
    # A satisfiable conjunction is decided down one path: the root, two
    # values of Food(y) under Food(x)=Italian, then Style(x)=Vegetarian.
    g = _f("Food(x)=Italian & Food(y)=Norwegian & Style(x)=Vegetarian")
    with pytest.raises(ResourceLimit):
        satisfiable(RESTAURANT, g, limit=4)
    assert satisfiable(RESTAURANT, g, limit=5)


def test_default_limit_is_a_fixed_node_budget():
    """Every entry point defaults to the same budget of 10**6 nodes, and
    under it the whole-tree search above is decided, not refused."""
    assert DEFAULT_ASSIGNMENT_LIMIT == 10**6
    for fn in (satisfiable, entails, is_tautology, is_contradiction, pair_cells):
        assert inspect.signature(fn).parameters["limit"].default == DEFAULT_ASSIGNMENT_LIMIT
    parity = _iff(_iff(_f("Food(x)=Italian"), _f("Food(y)=Norwegian")), _f("Style(x)=Vegetarian"))
    assert not satisfiable(RESTAURANT, And(parity, Not(parity)))


# ---------------------------------------------------------------------------
# Properties against the oracle


@st.composite
def schema_and_formulas(draw, count=1):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    schema = random_schema(rng)
    return schema, [random_formula(rng, schema) for _ in range(count)]


class TestOracleAgreement:
    @given(schema_and_formulas())
    def test_satisfiable(self, case):
        """Engine and grid oracle agree on satisfiability."""
        schema, (f,) = case
        assert bool(satisfiable(schema, f)) == oracle_satisfiable(schema, f)

    @given(schema_and_formulas(count=2))
    def test_entails(self, case):
        """Engine and grid oracle agree on entailment."""
        schema, (f, g) = case
        assert bool(entails(schema, f, g)) == oracle_entails(schema, f, g)

    @given(schema_and_formulas())
    def test_tautology_and_contradiction(self, case):
        """Engine and grid oracle agree on both constant checks."""
        schema, (f,) = case
        assert is_tautology(schema, f) == oracle_is_tautology(schema, f)
        assert is_contradiction(schema, f) == oracle_is_contradiction(schema, f)


class TestEntailmentLaws:
    @given(schema_and_formulas())
    def test_witnesses_are_sound(self, case):
        """Any returned satisfying model really satisfies the formula."""
        schema, (f,) = case
        result = satisfiable(schema, f)
        if result.holds:
            assert evaluate(result.witness, f)

    @given(schema_and_formulas(count=2))
    def test_countermodels_are_sound(self, case):
        """A failed entailment's witness satisfies a and falsifies b."""
        schema, (f, g) = case
        result = entails(schema, f, g)
        if not result.holds:
            assert evaluate(result.witness, f)
            assert not evaluate(result.witness, g)

    @given(schema_and_formulas())
    def test_reflexivity(self, case):
        """Every formula entails itself."""
        schema, (f,) = case
        assert entails(schema, f, f)

    @settings(max_examples=50)
    @given(schema_and_formulas(count=3))
    def test_transitivity(self, case):
        """a |= b and b |= c imply a |= c."""
        schema, (f, g, h) = case
        if entails(schema, f, g) and entails(schema, g, h):
            assert entails(schema, f, h)

    @given(schema_and_formulas(count=2))
    def test_tautologies_follow_from_anything_satisfiable(self, case):
        """If f is satisfiable and t is a tautology then f |= t."""
        schema, (f, t) = case
        if satisfiable(schema, f) and is_tautology(schema, t):
            assert entails(schema, f, t)

    @given(schema_and_formulas(count=2))
    def test_everything_follows_from_a_contradiction(self, case):
        """If g is a contradiction then g |= f for every f."""
        schema, (g, f) = case
        if is_contradiction(schema, g):
            assert entails(schema, g, f)


# ---------------------------------------------------------------------------
# The search against a full product enumeration


def _grid(schema, formulas):
    """The formulas' categorical and numeric keys, each sorted, and every
    key's values on the engine's sample grid, in the search's order."""
    cat_keys, constants = set(), {}
    for f in formulas:
        for atom in iter_atoms(f):
            if isinstance(atom, NumAtom):
                constants.setdefault((atom.attr, atom.entity), set()).add(atom.constant)
            else:
                cat_keys.add((atom.attr, atom.entity))
    cat_keys, num_keys = sorted(cat_keys), sorted(constants)
    domains = [schema.domain(attr) for attr, _ in cat_keys]
    domains += [_samples(sorted(constants[k])) for k in num_keys]
    return cat_keys, num_keys, domains


def _model(cat_keys, num_keys, choice):
    return Model(dict(zip(cat_keys, choice)), dict(zip(num_keys, choice[len(cat_keys):])))


def _product_models(schema, formulas):
    """Every model over the formulas' keys in sorted-key product order, on
    the engine's sample grid: the enumeration the search must agree with,
    first witness included."""
    cat_keys, num_keys, domains = _grid(schema, formulas)
    for choice in itertools.product(*domains):
        yield _model(cat_keys, num_keys, choice)


def _cell(m, a, b):
    """The cell of the pair a, b that ``m`` lies in: bit 0 to 3 for a & b,
    a & !b, !a & b, !a & !b."""
    return 2 * (not evaluate(m, a)) + (not evaluate(m, b))


# Every (explore, stop) pair of cell masks with stop a subset of explore.
CELL_MASKS = [(explore, stop) for explore in range(16) for stop in range(16) if not stop & ~explore]


class TestSearchMatchesProduct:
    @given(schema_and_formulas())
    def test_witness_is_the_first_model_in_product_order(self, case):
        """The search finds the model a full enumeration finds first."""
        schema, (f,) = case
        first = next((m for m in _product_models(schema, [f]) if evaluate(m, f)), None)
        assert satisfiable(schema, f).witness == first

    @given(schema_and_formulas(count=2))
    def test_pair_cells_match_the_product(self, case):
        """The cells decide reads: all four when the search ran to the end,
        the first three when it stopped because all three were seen."""
        schema, (a, b) = case
        cells = [False] * 4
        for m in _product_models(schema, [a, b]):
            cells[_cell(m, a, b)] = True
        got = pair_cells(schema, a, b)
        assert got[:3] == tuple(cells[:3])
        if not all(got[:3]):
            assert got[3] == cells[3]

    @given(schema_and_formulas(count=2), st.sampled_from(CELL_MASKS))
    def test_search_marks_the_cells_of_the_product(self, case, masks):
        """The search marks only nonempty cells it was asked to explore,
        all of them when it runs to the end; a model it stops at lies in a
        marked cell of ``stop``, and is the first model of that cell in
        product order when ``stop`` names one cell."""
        schema, (a, b) = case
        explore, stop = masks
        cells, first = 0, {}
        for m in _product_models(schema, [a, b]):
            bit = 1 << _cell(m, a, b)
            cells |= bit
            first.setdefault(bit, m)
        seen, stopped = _search(schema, a, b, DEFAULT_ASSIGNMENT_LIMIT, explore, stop)
        model = _witness(schema, stopped)
        assert not seen & ~(explore & cells)
        if model is None:
            assert seen == explore & cells
        else:
            assert seen & stop & 1 << _cell(model, a, b)
        if stop in (1, 2, 4, 8):
            assert model == first.get(stop)


# ---------------------------------------------------------------------------
# Values no atom mentions are tried once per key


def _widened(schema, formulas, extra):
    """``schema`` with ``extra`` new values at the end of each domain that
    already holds a value no atom of ``formulas`` mentions, so each key's
    first unmentioned value stays the same."""
    mentioned = {(atom.attr, atom.value) for f in formulas for atom in iter_atoms(f) if type(atom) is CatAtom}
    return Schema(
        {
            attr: values + tuple(f"W{i}" for i in range(extra))
            if any((attr, v) not in mentioned for v in values)
            else values
            for attr, values in schema.categorical.items()
        },
        schema.numeric,
    )


def _budget(ask):
    """The fewest search nodes under which ``ask(limit)`` is decided."""
    hi = 1
    while True:
        try:
            ask(hi)
            break
        except ResourceLimit:
            hi *= 2
    lo = hi // 2  # refused at lo, unless lo is 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            ask(mid)
            hi = mid
        except ResourceLimit:
            lo = mid
    return hi


@given(schema_and_formulas(count=2), st.integers(1, 20))
def test_unmentioned_values_cost_no_nodes(case, extra):
    """Widening domains with values no atom mentions changes no cell, no
    witness and no question's node budget."""
    schema, (a, b) = case
    wide = _widened(schema, (a, b), extra)
    questions = (
        lambda s, limit: pair_cells(s, a, b, limit=limit),
        lambda s, limit: satisfiable(s, a, limit=limit),
        lambda s, limit: entails(s, a, b, limit=limit),
    )
    for ask in questions:
        assert ask(wide, DEFAULT_ASSIGNMENT_LIMIT) == ask(schema, DEFAULT_ASSIGNMENT_LIMIT)
        budget = _budget(lambda limit: ask(schema, limit))
        ask(wide, budget)
        with pytest.raises(ResourceLimit) as exc_info:
            ask(wide, budget - 1)
        assert exc_info.value.required == budget


# ---------------------------------------------------------------------------
# Numeric keys are decided on constant ranks; sample points are made only
# for a witness

COMPARE = {"<": operator.lt, "<=": operator.le, "=": operator.eq, ">=": operator.ge, ">": operator.gt}

# Mixed denominators, negatives, and numerators past 2**53, where a float
# would round.
CONSTANTS = st.lists(
    st.one_of(
        st.sampled_from(
            [Fraction(1, 3), Fraction(2, 7), Fraction(5, 2), Fraction(10**20), Fraction(10**20 + 1), Fraction(-1, 3)]
        ),
        st.builds(Fraction, st.integers(-(10**21), 10**21), st.integers(1, 10**6)),
        st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    ),
    min_size=1,
    max_size=8,
)


@given(CONSTANTS, st.lists(st.tuples(st.sampled_from(sorted(COMPARE)), st.booleans()), min_size=8, max_size=8))
def test_numeric_tables_are_comparisons_on_the_sample_points(constants, literals):
    """Each atom's table, cut at its constant's rank, holds the truth of
    the atom (or of its negation) at every sample point, then None for
    the unassigned key."""
    atoms = [NumAtom("Temperature", "d", op, c) for c, (op, _) in zip(constants, literals)]
    f = None
    for atom, (_, neg) in zip(atoms, literals):
        literal = Not(atom) if neg else atom
        f = literal if f is None else And(f, literal)
    _, num_keys, ordered, sizes, masks, program, _ = _compile(TEMPERATURE, (f,))
    points = _samples(sorted(set(constants)))
    assert (num_keys, ordered, sizes) == ([("Temperature", "d")], [sorted(set(constants))], [len(points)])
    assert masks == [2 ** len(points) - 1]  # every sample is tried
    ((_, _, tables, _),) = program  # one & node holding every literal
    assert len(tables) == len(atoms)
    for atom, (_, neg), (key, table) in zip(atoms, literals, tables):
        assert key == 0
        assert table == [COMPARE[atom.cmp](p, atom.constant) != neg for p in points] + [None]


def test_classify_and_pair_cells_make_no_sample_points(monkeypatch):
    """A question that returns no witness never turns value indices into
    sample points, so it does no Fraction arithmetic."""

    def refuse(constants):
        raise AssertionError("sample points made")

    monkeypatch.setattr(entail, "_samples", refuse)
    rng = random.Random(18)
    numeric = 0
    for _ in range(300):
        schema = random_schema(rng)
        a, b = random_formula(rng, schema), random_formula(rng, schema)
        numeric += any(type(atom) is NumAtom for atom in iter_atoms(And(a, b)))
        pair_cells(schema, a, b)
        decide(schema, a, b)
        assert classify(schema, a, b) is oracle_classify(schema, a, b)
        is_tautology(schema, a)
    assert numeric > 100


@pytest.mark.parametrize(
    "ask, text, expected",
    [
        (satisfiable, ("Temperature(d) > 1/3 & Temperature(d) < 2/5",), Fraction(11, 30)),
        (satisfiable, ("Temperature(d) >= 100000000000000000001 & Temperature(d) < 100000000000000000001",), None),
        (
            entails,
            ("Temperature(d) > -1/3", "Temperature(d) > 100000000000000000001/10"),
            Fraction(299999999999999999993, 60),
        ),
        (entails, ("Temperature(d) = 7/3", "Temperature(d) > 2 & Temperature(d) < 12/5"), None),
        (
            entails,
            ("Temperature(d) < -5/2", "Temperature(d) <= -5/2 & Temperature(d) > -100000000000000000001"),
            Fraction(-100000000000000000002),
        ),
    ],
)
def test_numeric_witnesses_are_exact_sample_points(ask, text, expected):
    """Witnesses and countermodels are the same exact rationals as when
    the search compared Fractions."""
    result = ask(TEMPERATURE, *(_f(t, TEMPERATURE) for t in text))
    if expected is None:
        assert result.witness is None
    else:
        assert result.witness.numeric == {("Temperature", "d"): expected}


# ---------------------------------------------------------------------------
# An independent decision procedure: sympy's SAT solver


def _sympy_encoding(schema, f):
    """``f`` as a propositional formula: one boolean per categorical value
    with exactly one true per key, and per numeric key the booleans
    x < c and x <= c for each constant c, ordered by implication; every
    assignment respecting the order picks one nonempty region of the
    rationals.  No sampling is involved."""
    logic = pytest.importorskip("sympy.logic.boolalg")
    from sympy import Symbol

    def lt(key, c, strict):
        return Symbol(f"{key[0]}({key[1]}) {'<' if strict else '<='} {c}")

    def encode(g):
        if g is TRUE or g is FALSE:
            return logic.true if g is TRUE else logic.false
        if isinstance(g, CatAtom):
            return Symbol(f"{g.attr}({g.entity})={g.value}")
        if isinstance(g, NumAtom):
            key, c = (g.attr, g.entity), g.constant
            return {
                "<": lt(key, c, True),
                "<=": lt(key, c, False),
                "=": logic.And(lt(key, c, False), logic.Not(lt(key, c, True))),
                ">=": logic.Not(lt(key, c, True)),
                ">": logic.Not(lt(key, c, False)),
            }[g.cmp]
        if isinstance(g, Not):
            return logic.Not(encode(g.operand))
        if isinstance(g, Implies):
            return logic.Implies(encode(g.antecedent), encode(g.consequent))
        return (logic.And if isinstance(g, And) else logic.Or)(encode(g.left), encode(g.right))

    constraints = []
    cat_keys, constants = set(), {}
    for atom in iter_atoms(f):
        key = (atom.attr, atom.entity)
        if isinstance(atom, NumAtom):
            constants.setdefault(key, set()).add(atom.constant)
        else:
            cat_keys.add(key)
    for key in cat_keys:
        values = [Symbol(f"{key[0]}({key[1]})={v}") for v in schema.domain(key[0])]
        constraints.append(logic.Or(*values))
        constraints += [logic.Not(logic.And(p, q)) for p, q in itertools.combinations(values, 2)]
    for key, cs in constants.items():
        chain = [lt(key, c, strict) for c in sorted(cs) for strict in (True, False)]
        constraints += [logic.Implies(p, q) for p, q in zip(chain, chain[1:])]
    return logic.And(encode(f), *constraints)


class TestSympyDifferential:
    @settings(deadline=None)
    @given(schema_and_formulas(count=2))
    def test_satisfiable_and_entails_agree_with_sympy(self, case):
        """The engine and sympy's DPLL solver agree on satisfiability and
        on entailment, over an encoding that shares nothing with the
        engine's sample grid."""
        inference = pytest.importorskip("sympy.logic.inference")
        schema, (f, g) = case
        for question in (f, And(f, Not(g))):
            expected = bool(inference.satisfiable(_sympy_encoding(schema, question)))
            assert satisfiable(schema, question).holds == expected


# ---------------------------------------------------------------------------
# Depth: compiled formulas are evaluated in a loop, not by recursion


def test_deep_alternations_are_decided():
    """Formulas that switch between & and | 3000 times, built with the
    constructors, are decided by every entry point, as the oracle decides
    them."""
    atoms = [
        _f(text)
        for text in ("Food(x)=Italian", "Style(x)=Vegetarian", "Food(x)=Norwegian", "Style(x)=Steakhouse")
    ]
    f, g = atoms[0], atoms[1]
    for i in range(3000):
        f = (And, Or)[i % 2](atoms[i % 4], f)
        g = (Or, And)[i % 2](atoms[(i + 1) % 4], g)
    assert satisfiable(RESTAURANT, f).holds == oracle_satisfiable(RESTAURANT, f)
    assert entails(RESTAURANT, f, g).holds == oracle_entails(RESTAURANT, f, g)
    cells = pair_cells(RESTAURANT, f, g)
    for cell, question in zip(cells[:3], (And(f, g), And(f, Not(g)), And(Not(f), g))):
        assert cell == oracle_satisfiable(RESTAURANT, question)
    verdict = oracle_classify(RESTAURANT, f, g)
    assert decide(RESTAURANT, f, g).verdict is verdict
    assert classify(RESTAURANT, f, g) is verdict
    assert checked_classify(RESTAURANT, f, g) is verdict
