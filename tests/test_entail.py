"""Satisfiability/entailment engine against hand checks and the oracle."""

from __future__ import annotations

import copy
import inspect
import itertools
import operator
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from randgen import AST_SCHEMA, random_ast, random_formula, random_schema
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
    oracle_cells,
    oracle_decide,
    oracle_entails,
    oracle_satisfiable,
    parse_formula,
    parse_schema,
    print_formula,
    satisfiable,
)
from verity import entail
from verity.mr import (
    CategoricalComparisonOnNumeric,
    NumericComparisonOnCategorical,
    UnknownAttribute,
    ValueNotInDomain,
    validate_atom,
)
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
        assert is_tautology(schema, f) == (not oracle_cells(schema, TRUE, f)[1])  # true & !f
        assert is_contradiction(schema, f) == (not oracle_cells(schema, f, FALSE)[1])  # f & !false

    @given(schema_and_formulas(count=2))
    def test_pair_cells(self, case):
        """The engine's cells are the oracle's: the first three always, the
        fourth whenever one of the first three is empty."""
        schema, (a, b) = case
        got, want = pair_cells(schema, a, b), oracle_cells(schema, a, b)
        assert got[:3] == want[:3]
        if not all(got[:3]):
            assert got[3] == want[3]


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
# A schema keeps the compiled form of the categorical atoms decided under it

# One schema per distinct random schema, kept for the whole session, so its
# questions meet atoms that earlier examples compiled.
_WARM: dict = {}


@given(schema_and_formulas(count=2))
def test_a_long_lived_schema_answers_as_a_fresh_one(case):
    """Cells, facts, witnesses and minimum node budgets are the same under
    a schema that has decided many questions before as under a fresh equal
    one.  Under the long-lived schema the formulas are also read back from
    their text, so their atoms are its own parsed nodes, which it does not
    validate again."""
    schema, (a, b) = case
    key = (tuple(schema.categorical.items()), schema.numeric)
    warm = _WARM.setdefault(key, Schema(schema.categorical, schema.numeric))
    parsed = [parse_formula(print_formula(f), warm) for f in (a, b)]
    assert parsed == [a, b]

    def fresh():
        return Schema(schema.categorical, schema.numeric)

    questions = (
        lambda s, a, b, limit: pair_cells(s, a, b, limit=limit),
        lambda s, a, b, limit: decide(s, a, b, limit=limit),
        lambda s, a, b, limit: satisfiable(s, a, limit=limit),
        lambda s, a, b, limit: entails(s, a, b, limit=limit),
    )
    for ask in questions:
        expected = ask(fresh(), a, b, DEFAULT_ASSIGNMENT_LIMIT)
        expected_budget = _budget(lambda limit: ask(fresh(), a, b, limit))
        for x, y in ((a, b), parsed):
            assert ask(warm, x, y, DEFAULT_ASSIGNMENT_LIMIT) == expected
            assert _budget(lambda limit: ask(warm, x, y, limit)) == expected_budget


@given(schema_and_formulas(count=2))
def test_own_and_foreign_atoms_compile_alike(case):
    """The formulas read back from their text, whose atoms are the schema's
    own nodes, compile to what the API-built formulas compile to: keys,
    order, sizes, masks, program, roots and uses.  That holds the first
    time, when the walk fills the atoms' entries, and after, when it reads
    them.  The first pair's constants decide nodes, so the walk meets some
    atoms under no node first, and others in a node that a constant then
    takes out of the program."""
    schema, (a, b) = case
    for x, y in ((Or(TRUE, a), And(b, FALSE)), (a, TRUE), (FALSE, b), (a, b)):
        expected = _compile(schema, (x, y))
        parsed = tuple(parse_formula(print_formula(f), schema) for f in (x, y))
        assert parsed == (x, y)
        for _ in range(2):
            assert _compile(schema, parsed) == expected
        assert _compile(schema, (x, y)) == expected


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_every_atom_is_checked_once_per_schema_that_asks_it(seed, ast):
    """Each pair, the true/false pairs first, is asked twice over as parsed,
    as a deep copy, whose atoms are no schema's, and as parsed under an
    equal second schema, and gets the cells, answers and witnesses that a
    fresh schema gives.  The schema asked never validates its own atoms,
    and any other atom once, unless it asked it before; an atom asked
    under another schema is validated once there, and once again when the
    first asks it next."""
    rng = random.Random(seed)
    base = AST_SCHEMA if ast else random_schema(rng)
    a, b = (random_ast(rng) if ast else random_formula(rng, base) for _ in range(2))
    home, other = (Schema(base.categorical, base.numeric) for _ in range(2))
    validated = Counter()

    def spy(schema, atom):
        validated[id(atom), id(schema)] += 1
        validate_atom(schema, atom)

    def answers(schema, x, y):
        return pair_cells(schema, x, y), satisfiable(schema, x), entails(schema, x, y)

    def asked_twice(schema, pair, expected):
        validated.clear()
        for _ in range(2):
            assert answers(schema, *pair) == expected
        return {atom_id for atom_id, schema_id in validated if schema_id == id(schema)}

    earlier = set()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entail, "validate_atom", spy)
        for x, y in ((Or(TRUE, a), And(b, FALSE)), (a, TRUE), (FALSE, b), (a, b)):
            expected = answers(Schema(base.categorical, base.numeric), x, y)
            parsed = tuple(parse_formula(print_formula(f), home) for f in (x, y))
            copied = copy.deepcopy(parsed)
            foreign = tuple(parse_formula(print_formula(f), other) for f in (x, y))
            assert parsed == copied == foreign == (x, y)
            own, fresh, theirs = ({id(atom) for f in pair for atom in iter_atoms(f)} for pair in (parsed, copied, foreign))
            assert asked_twice(home, parsed, expected) == set()
            assert asked_twice(home, copied, expected) == fresh
            # Atoms the second schema parsed for an earlier pair were asked then.
            assert asked_twice(home, foreign, expected) == theirs - earlier
            earlier |= theirs
            assert set(validated.values()) <= {1}
            for schema in (other, home):
                assert asked_twice(schema, parsed, expected) == own
                assert set(validated.values()) <= {1}


def test_categorical_tables_are_shared_by_every_entity():
    """Each (attribute, value) has one pair of truth tables per schema,
    whatever the number of entities its atoms are about, and the tables
    are tuples, which no question can change."""
    schema = Schema({"Food": ("Italian", "Norwegian", "Japanese")}, frozenset())
    f = TRUE
    for i in range(50):
        f = And(f, And(CatAtom("Food", f"e{i}", "Italian"), Not(CatAtom("Food", f"e{i}", "Japanese"))))
    for _ in range(2):
        program = _compile(schema, (f,))[4]
        tables = [table for _, _, atoms, _ in program for _, table in atoms]
        assert len(tables) == 100
        assert {id(table) for table in tables} == {id(tables[0]), id(tables[1])}
        assert tables[:2] == [(True, False, False, None), (True, True, False, None)]


def test_a_constant_costs_the_same_after_many_questions():
    """A question where a constant decides a node after an atom under it
    was compiled costs no more under a schema that has cached 20,000
    categorical atoms than under a fresh one: the values left to try are
    found without a pass over the schema's cache.  (2,000 attributes of 10
    values, since one attribute of 20,000 values would cache 40,000 tables
    of 20,001 entries.)"""
    domains = {f"A{i}": tuple(f"V{j}" for j in range(10)) for i in range(2000)}

    def best(schema):
        a = parse_formula("A0(x)=V0 & false", schema)
        b = parse_formula("A0(x)=V1", schema)
        times = []
        for _ in range(50):
            start = time.perf_counter()
            classify(schema, a, b)
            times.append(time.perf_counter() - start)
        return min(times)

    warm = Schema(domains, frozenset())
    for attr, values in domains.items():
        for value in values:
            assert satisfiable(warm, CatAtom(attr, "x", value))
    assert best(warm) < 20 * best(Schema(domains, frozenset()))


def test_an_api_built_atom_is_validated_on_its_first_question_only(monkeypatch):
    """An atom equal to one the schema parsed, but not its node, is
    validated by the first question that reads it, categorical or numeric,
    and never again; the parsed nodes, which the parser checked, never
    are."""
    schema = parse_schema("attr Food : { Italian, Norwegian }\nnum Temperature")
    parsed = parse_formula("Food(x)=Italian & Temperature(d) > 1/2", schema)

    def built():
        return And(CatAtom("Food", "x", "Italian"), NumAtom("Temperature", "d", ">", Fraction(1, 2)))

    assert built() == parsed
    validated = []

    def spy(schema, atom):
        validated.append(id(atom))
        validate_atom(schema, atom)

    def twice(f, holds):
        runs = []
        for _ in range(2):
            validated.clear()
            assert satisfiable(schema, f).holds is holds
            runs.append(validated[:])
        return runs

    monkeypatch.setattr(entail, "validate_atom", spy)
    api = built()
    assert twice(parsed, True) == [[], []]
    assert twice(api, True) == [[id(api.left), id(api.right)], []]
    # The same holds for atoms read after a constant decided their node.
    decided = parse_formula("false & Food(x)=Italian & Temperature(d) > 1/2", schema)
    assert decided.left.right is parsed.left and decided.right is parsed.right
    api = built()
    assert twice(decided, False) == [[], []]
    assert twice(And(And(FALSE, api.left), api.right), False) == [[id(api.left), id(api.right)], []]


@pytest.mark.parametrize(
    "ask", [satisfiable, oracle_satisfiable, lambda s, f: classify(s, TRUE, f)], ids=["engine", "oracle", "classify"]
)
def test_api_built_atoms_are_validated_left_to_right(ask):
    """Of two invalid atoms, the leftmost raises, even where the other sits
    nearer the root or the leftmost sits under a node that a constant
    decides: the engine validates as the oracle does."""
    unknown = CatAtom("Colour", "x", "Red")
    outside = CatAtom("Food", "x", "Sushi")
    ok = CatAtom("Food", "x", "Italian")
    for f, error in (
        (And(Or(unknown, ok), outside), UnknownAttribute),
        (And(Or(outside, ok), unknown), ValueNotInDomain),
        (Implies(Not(unknown), outside), UnknownAttribute),
        # under a node that a constant decides
        (And(Or(TRUE, unknown), outside), UnknownAttribute),
        (And(And(FALSE, outside), unknown), ValueNotInDomain),
    ):
        with pytest.raises(error):
            ask(RESTAURANT, f)


@pytest.mark.parametrize(
    "ask",
    [
        lambda s, f: satisfiable(s, f),
        lambda s, f: pair_cells(s, f, TRUE),
        lambda s, f: oracle_cells(s, TRUE, f),
    ],
    ids=["satisfiable", "pair_cells", "oracle_cells"],
)
def test_an_atom_parsed_under_another_schema_is_checked_against_the_asking_one(ask, monkeypatch):
    """An atom that another schema parsed is validated against the schema
    asked, on every question that it fails, even after that schema parsed
    and asked the same texts that are valid under it, and it keeps the
    entry of the schema that parsed it.  An atom valid under both takes the
    entry of each schema that asks it in turn, so the next question under
    the schema that parsed it validates it once again, and later ones do
    not."""
    home = parse_schema("attr Food : { Italian, Sushi }\nattr Sky : { Clear }\nnum Temp\nnum Level")
    asked = parse_schema("attr Food : { Italian }\nattr Temp : { Hot }\nnum Sky")
    ok = parse_formula("Food(x)=Italian", home)
    assert ok._entry[0] is home._positions
    assert satisfiable(asked, parse_formula("Food(x)=Italian & Sky(t) > 1/2", asked))
    ask(asked, ok)  # valid under both
    for text, error in (
        ("Food(x)=Sushi", ValueNotInDomain),
        ("Temp(d) > 1/2", NumericComparisonOnCategorical),
        ("Sky(t)=Clear", CategoricalComparisonOnNumeric),
        ("Level(d) < 3", UnknownAttribute),
    ):
        atom = parse_formula(text, home)
        assert satisfiable(home, atom)
        for f in (atom, And(ok, atom)):
            for _ in range(2):
                with pytest.raises(error):
                    ask(asked, f)
        assert atom._entry[0] is home._positions
    assert satisfiable(asked, ok)
    assert ok._entry[0] is asked._positions
    validated = []

    def spy(schema, atom):
        validated.append((schema, atom))
        validate_atom(schema, atom)

    monkeypatch.setattr(entail, "validate_atom", spy)
    for _ in range(2):
        assert satisfiable(home, ok)
    assert len(validated) == 1 and validated[0][0] is home and validated[0][1] is ok
    assert ok._entry[0] is home._positions


@pytest.mark.parametrize("constant_first", [False, True])
def test_a_node_decided_by_a_constant_names_no_values(constant_first):
    """Nothing under a node that a constant decides, its own atoms or a
    subtree, stays in the program or names a value to try, whether it
    comes before the constant or after it: Food(x) tries Japanese, which an
    atom that is read mentions, and Italian, the first value none mentions.
    Its atoms keep their keys, and a numeric atom its constant, so the
    witness is still the first model in product order: Temp(d) takes its
    first sample, 5 - 1."""
    schema = Schema({"Food": ("Italian", "Norwegian", "Japanese")}, frozenset({"Temp"}))
    italian, norwegian, japanese = (CatAtom("Food", "x", v) for v in ("Italian", "Norwegian", "Japanese"))
    under = And(italian, Or(norwegian, Not(NumAtom("Temp", "d", ">", 5))))
    decided = And(FALSE, under) if constant_first else And(under, FALSE)
    f = Or(decided, japanese)
    (keys, num_keys, constants), _, sizes, masks, program, _, _ = _compile(schema, (f,))
    assert (keys, num_keys, constants) == ([("Food", "x")], [("Temp", "d")], [[5]])
    assert (sizes, masks) == ([3, 3], [0b101, 0b111])
    # the root, the '|' node, and the decided '&' node, which holds nothing
    assert len(program) == 3 and (False, False, (), ()) in program
    assert satisfiable(schema, f).witness == Model({("Food", "x"): "Japanese"}, {("Temp", "d"): Fraction(4)})


def test_a_constant_after_a_subtree_takes_its_values_out():
    """A constant that decides a node after atoms under it were compiled
    takes their values out of the masks, and only theirs.  In the first
    case Food(x) tries Italian, which b mentions, and Norwegian, the first
    value nothing left in the program mentions, but not Japanese.  In the
    second the constant decides b's root, which cuts only what was read
    under that root: Japanese, which a mentions, stays, and Italian is the
    first value nothing left mentions."""
    schema = Schema({"Food": ("Italian", "Norwegian", "Japanese")}, frozenset())
    for a, b, mask in [
        ("(Food(x)=Japanese | Food(x)=Norwegian) & false", "Food(x)=Italian", 0b011),
        ("Food(x)=Japanese", "Food(x)=Norwegian & false", 0b101),
    ]:
        a, b = parse_formula(a, schema), parse_formula(b, schema)
        _, _, _, masks, program, _, uses = _compile(schema, (a, b))
        assert masks == [mask]
        assert uses == [1]  # nor do they count as uses of Food(x)
        assert len(program) == 2  # a decided root and the other formula's


def test_a_decided_operand_is_validated_as_a_live_one():
    """An operand that a constant leaves unread is walked like any other,
    so its invalid atom raises the error it raises undecided, even where a
    node that is no formula sits to its right.  (The oracle reads a
    formula's whole preorder before its atoms, so it raises TypeError for
    both.)"""
    g = And(CatAtom("Food", "x", "Sushi"), Not)
    for f in (g, And(FALSE, g)):
        with pytest.raises(ValueNotInDomain):
            satisfiable(RESTAURANT, f)


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
    (_, num_keys, ordered), order, sizes, masks, program, _, _ = _compile(TEMPERATURE, (f,))
    points = _samples(sorted(set(constants)))
    assert (num_keys, ordered, order, sizes) == ([("Temperature", "d")], [sorted(set(constants))], [0], [len(points)])
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
        is_contradiction(schema, b)
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
# Cell questions branch on the most-read keys first; witness questions keep
# product order

ALPHA_GAMMA = parse_schema("attr Alpha : { A0, A1, A2, A3 }\nattr Gamma : { G0, G1, G2, G3 }")


def test_a_cell_search_branches_first_on_the_key_read_most():
    """Gamma(e) is read twice and Alpha(e) once, so Gamma goes first though
    it sorts last: the root; Gamma(e)=G0, the first value no atom mentions,
    where both sides are false; and under Gamma(e)=G2 Alpha(e)=A0 and
    Alpha(e)=A1, which mark !a & b and a & b.  That is 1 + 2 + 2 nodes, where
    product order takes 7: Alpha(e)=A0 and A1 each branch on Gamma."""
    a = _f("Alpha(e)=A1 & Gamma(e)=G2", ALPHA_GAMMA)
    b = _f("Gamma(e)=G2", ALPHA_GAMMA)
    facts = decide(ALPHA_GAMMA, a, b, limit=5)
    assert (facts.input_satisfiable, facts.forward, facts.backward, facts.conflict) == (
        True, True, False, False,
    )
    with pytest.raises(ResourceLimit) as exc_info:
        decide(ALPHA_GAMMA, a, b, limit=4)
    assert (exc_info.value.required, exc_info.value.limit) == (5, 4)
    assert _budget(lambda limit: _search(ALPHA_GAMMA, a, b, limit, 0b1111, 0b0111)) == 7


def test_tautology_and_contradiction_are_cell_questions():
    """Neither question returns a witness, so each branches on Gamma(e),
    read twice, before Alpha(e), read once: the root; Gamma(e)=G0, the
    first value no atom mentions, where the sought cell is out of reach;
    and Gamma(e)=G2, where it is out of reach too.  That is 3 nodes, where
    product order takes 5: it branches on Alpha(e) first."""
    f = _f("Alpha(e)=A1 & Gamma(e)=G2 -> Gamma(e)=G2", ALPHA_GAMMA)
    assert is_tautology(ALPHA_GAMMA, f)
    assert _budget(lambda limit: is_tautology(ALPHA_GAMMA, f, limit=limit)) == 3
    g = _f("Alpha(e)=A1 & Gamma(e)=G2 & !(Gamma(e)=G2)", ALPHA_GAMMA)
    assert is_contradiction(ALPHA_GAMMA, g)
    assert _budget(lambda limit: is_contradiction(ALPHA_GAMMA, g, limit=limit)) == 3
    assert _budget(lambda limit: _search(ALPHA_GAMMA, TRUE, f, limit, 0b0010, 0b0010)) == 5
    assert _budget(lambda limit: _search(ALPHA_GAMMA, g, FALSE, limit, 0b0010, 0b0010)) == 5


def test_witnesses_keep_product_order_where_the_most_read_key_finds_another():
    """Branching first on Gamma(e), read three times, would stop at
    Gamma(e)=G0, Alpha(e)=A1.  The first model in product order has
    Alpha(e)=A0, and that is the witness and the countermodel."""
    f = _f("Alpha(e)=A1 & Gamma(e)=G0 | Gamma(e)=G2 | Gamma(e)=G3 & Alpha(e)=A2", ALPHA_GAMMA)
    first = next(m for m in _product_models(ALPHA_GAMMA, [f]) if evaluate(m, f))
    assert first == Model({("Alpha", "e"): "A0", ("Gamma", "e"): "G2"}, {})
    assert satisfiable(ALPHA_GAMMA, f).witness == first
    assert entails(ALPHA_GAMMA, f, FALSE).witness == first
    _, stopped = _search(ALPHA_GAMMA, f, FALSE, DEFAULT_ASSIGNMENT_LIMIT, 0b0010, 0b0010, True)
    assert _witness(ALPHA_GAMMA, stopped) == Model({("Alpha", "e"): "A1", ("Gamma", "e"): "G0"}, {})


def test_decide_matches_the_oracle_where_keys_are_read_unequally():
    """On random pairs whose keys are read by different numbers of atoms,
    so the search leaves product order, ``decide`` gives the oracle's
    facts."""
    rng = random.Random(28)
    reordered = 0
    for _ in range(600):
        schema = random_schema(rng)
        a, b = random_formula(rng, schema), random_formula(rng, schema)
        _, order, *_, uses = _compile(schema, (a, b))
        read = [uses[k] for k in order]
        if read == sorted(read, reverse=True):
            continue
        reordered += 1
        assert decide(schema, a, b) == oracle_decide(schema, a, b)
    assert reordered > 150


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
