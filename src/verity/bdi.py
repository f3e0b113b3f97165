"""Detection of misleading communication: withholding and half truths.

A scenario fixes four things: what the speaker actually communicated (one
formula, K), the hearer's background beliefs (one formula, H), the actual
world (a model), and the disclosure expectations (formulas the hearer
expects to be told whenever they are true).  Belief and communication
operators are deliberately flattened into these explicit parts rather than
interpreted over possible worlds; ``scan_misleading`` then checks the
defining conditions directly.

Withholding a fact q:    q is expected, q is true in the world, and K does
                         not entail q.
Half truth (p, r):       K entails p but not r, the hearer believes p -> r,
                         and the world makes p true but r false.  The hearer
                         is led from a truth to a falsehood.

"Communicated" always means entailed by K, not literally uttered; otherwise
any rephrasing would defeat detection.

A scan asks one entailment function (the engine, or an injected
``entails_fn``) three kinds of question: H |= false, once and first; K |= c,
at most once per candidate c; and H |= p -> r, at most once per ordered
pair and only for a pair whose other four half-truth conditions hold.  A
question whose answer is "no" by a model already in hand is not asked.
For K |= c the model is one of K: the world when it satisfies K, otherwise
the countermodel of the first K |= c answered "no", once ``evaluate``
confirms it.  It answers "no" when it falsifies c, or when c is an atom
over a key K never mentions: a satisfiable formula does not depend on such
a key (Lang, Liberatore & Marquis 2003), so moving the key to a value that
falsifies the atom keeps a model of K.  For H |= p -> r the model is one
of H & p: the world when it satisfies H, which answers every pair "no",
otherwise the countermodel of the first H |= p -> r answered "no" for that
p; it answers "no" when it falsifies r.  Every such r is false in the
world, and the countermodel differs from the world only on the keys it
moved, so only the conclusions that read a moved key are evaluated in it.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from fractions import Fraction
from functools import partial
from numbers import Rational
from pathlib import Path
from typing import Callable, Optional, Sequence

from .entail import ResourceLimit, entails
from .mr import (
    _CMP_SYMBOLS,
    _NAME,
    _NUMBER,
    _Record,
    _numeral,
    _set,
    FALSE,
    CatAtom,
    Formula,
    Implies,
    Key,
    Model,
    MrError,
    NumAtom,
    Schema,
    SourceError,
    evaluate,
    iter_atoms,
    parse_formula,
    parse_schema,
    print_formula,
    read_source,
    validate_formula,
    validate_model,
)

# Called as fn(a, b); the truth of its result answers a |= b.  When that is
# "no", the result's ``witness`` attribute, if any, may be a countermodel
# (as in ``EntailmentResult``); a scan reuses it only after ``evaluate``
# confirms it, so a missing or wrong witness costs questions, not findings.
EntailsFn = Callable[[Formula, Formula], object]


class ScenarioError(MrError):
    """The scenario file or its parts fail validation."""


class FindingKind(Enum):
    WITHHOLDING = "withholding"
    HALF_TRUTH = "half-truth"


class MisleadingFinding(_Record):
    """One detected act of misleading.

    For withholding, ``subject`` is the withheld fact q.  For a half truth,
    ``subject`` is the communicated truth p and ``inferred`` the false
    conclusion r the hearer draws from it.
    """

    __slots__ = __match_args__ = _fields = ("kind", "subject", "inferred")
    kind: FindingKind
    subject: Formula
    inferred: Optional[Formula]

    def __init__(self, kind: FindingKind, subject: Formula, inferred: Optional[Formula] = None):
        if (inferred is None) != (kind is FindingKind.WITHHOLDING):
            raise ValueError("inferred is required exactly for half truths")
        _set(self, "kind", kind)
        _set(self, "subject", subject)
        _set(self, "inferred", inferred)

    def render(self) -> str:
        if self.kind is FindingKind.WITHHOLDING:
            return f"withholding: {print_formula(self.subject)}"
        return (
            f"half-truth: {print_formula(self.subject)}"
            f" => {print_formula(self.inferred)}"
        )


class Scenario(_Record):
    """A communication act against a known world.

    ``expectation_norms`` lists the formulas the hearer expects to be
    communicated whenever they are true.  The world must satisfy the schema
    and cover every key the formulas mention.  ``scan_misleading`` checks
    that the hearer's beliefs are satisfiable.
    """

    __slots__ = __match_args__ = _fields = (
        "schema",
        "communicated",
        "hearer_beliefs",
        "world",
        "expectation_norms",
    )
    schema: Schema
    communicated: Formula
    hearer_beliefs: Formula
    world: Model
    expectation_norms: tuple[Formula, ...]

    def __init__(
        self,
        schema: Schema,
        communicated: Formula,
        hearer_beliefs: Formula,
        world: Model,
        expectation_norms: Sequence[Formula] = (),
    ):
        expectation_norms = tuple(expectation_norms)
        validate_model(schema, world)
        for f in (communicated, hearer_beliefs, *expectation_norms):
            _require_world_keys(world, f)
        _set(self, "schema", schema)
        _set(self, "communicated", communicated)
        _set(self, "hearer_beliefs", hearer_beliefs)
        _set(self, "world", world)
        _set(self, "expectation_norms", expectation_norms)


def _require_world_keys(world: Model, f: Formula) -> None:
    missing = [
        a
        for a in iter_atoms(f)
        if (a.attr, a.entity) not in (world.numeric if type(a) is NumAtom else world.categorical)
    ]
    if missing:
        # The least missing key: categorical keys before numeric ones, each
        # in sorted order.
        a = min(missing, key=lambda a: (type(a) is NumAtom, a.attr, a.entity))
        raise ScenarioError(f"world assigns no value to {a.attr}({a.entity})")


DEFAULT_PAIR_LIMIT = 10**4


def default_candidates(scenario: Scenario) -> list[Formula]:
    """All atoms over the keys the scenario's world covers, then every
    expectation norm that is not one of them.

    Categorical keys contribute one atom per domain value.  Numeric keys
    contribute one atom per comparison operator and constant, where the
    constants are those the scenario's formulas mention for that key plus
    the world's own value (so a withheld numeric fact is expressible even
    when no formula names a constant).  The norms come last, so that a
    compound norm is checked for withholding too.
    """
    schema = scenario.schema
    atoms = schema._atoms
    candidates: list[Formula] = []
    for attr, entity in sorted(scenario.world.categorical):
        for value in schema.domain(attr):
            # The schema's parsed node for this text, if any, else a new atom.
            candidates.append(atoms.get((attr, entity, "=", value)) or CatAtom(attr, entity, value))
    constants: dict[Key, set[Fraction]] = {
        key: {value} for key, value in scenario.world.numeric.items()
    }
    for f in (
        scenario.communicated,
        scenario.hearer_beliefs,
        *scenario.expectation_norms,
    ):
        for atom in iter_atoms(f):
            if isinstance(atom, NumAtom):
                constants[atom.attr, atom.entity].add(atom.constant)
    for attr, entity in sorted(scenario.world.numeric):
        for constant in sorted(constants[attr, entity]):
            for op in _CMP_SYMBOLS:
                candidates.append(NumAtom(attr, entity, op, constant))
    # A norm parsed under the schema is mostly the candidate itself, so
    # identity settles it before any comparison by value.
    ids = {id(c) for c in candidates}
    candidates += [
        n
        for n in dict.fromkeys(scenario.expectation_norms)
        if id(n) not in ids and n not in candidates
    ]
    return candidates


def scan_misleading(
    scenario: Scenario,
    candidates: Sequence[Formula] | None = None,
    *,
    entails_fn: EntailsFn | None = None,
) -> list[MisleadingFinding]:
    """Check every candidate for withholding and every ordered candidate
    pair for a half truth, exhaustively.

    An empty candidate set defaults to ``default_candidates``.  Returns
    deduplicated findings ordered by their rendered form.  H |= false is
    asked first: a hearer who believes everything can be led to anything,
    so unsatisfiable beliefs raise ``ScenarioError``.  Next, a pool of more
    than ``DEFAULT_PAIR_LIMIT`` ordered pairs raises ``ResourceLimit``.

    Then K, every expectation norm and each candidate the caller passed
    are checked against the schema once, so a formula outside it raises
    whether or not its question is asked.  (The default candidates are
    atoms of the schema's domains over the world's keys.)

    Each candidate is evaluated in the world once.  K |= c is asked at most
    once per candidate, and only when a finding can need the answer: for an
    expected q that is true, for a p that is true, and, once some true p is
    communicated, for an r that is false.  H |= p -> r is asked only for a
    p that is true and communicated and an r that is false and not.

    Of those, a question is skipped, as answered "no", when a model in hand
    answers it, as the module docstring describes; for an atom c over a key
    K never mentions, see ``_refutes``.  A countermodel is the result's
    ``witness`` completed with the world's values for the keys it leaves
    out, and is used only if it is a ``Model`` within the schema that
    ``evaluate`` finds satisfies K, or H & p.  Every "yes" still comes from
    ``entails_fn``; only a ``ResourceLimit`` that a skipped question's
    search would have hit is not raised.
    """
    schema = scenario.schema
    fn = entails_fn or partial(entails, schema)
    k, h, world = scenario.communicated, scenario.hearer_beliefs, scenario.world
    if fn(h, FALSE):
        raise ScenarioError("hearer_beliefs is unsatisfiable")
    if not candidates:
        pool = default_candidates(scenario)
    else:
        pool = list(dict.fromkeys(candidates))
    if len(pool) ** 2 > DEFAULT_PAIR_LIMIT:
        raise ResourceLimit(len(pool) ** 2, DEFAULT_PAIR_LIMIT, "candidate pairs")
    for f in (k, *scenario.expectation_norms, *(pool if candidates else ())):
        validate_formula(schema, f)
    cat = world.categorical
    # A categorical atom over a key the world assigns is read by its key;
    # anything else, a key the world lacks included, is evaluated.
    true = [
        cat[c.attr, c.entity] == c.value
        if type(c) is CatAtom and (c.attr, c.entity) in cat
        else evaluate(world, c)
        for c in pool
    ]
    k_model = world if evaluate(world, k) else None
    # A world that satisfies K falsifies every false candidate.
    told: list[Optional[bool]] = (
        [None] * len(pool) if k_model is None else [None if t else False for t in true]
    )
    k_keys = _keys(k)

    def communicated(i: int) -> bool:
        nonlocal k_model
        if told[i] is None:
            c = pool[i]
            if k_model is not None and (
                not evaluate(k_model, c) or _refutes(schema, k_model, k_keys, c, k)
            ):
                told[i] = False
                return False
            result = fn(k, c)
            told[i] = bool(result)
            if not told[i] and k_model is None:
                k_model = _model_of(scenario, result, k)
        return told[i]

    findings = []
    for i, q in enumerate(pool):
        if true[i] and q in scenario.expectation_norms and not communicated(i):
            findings.append(MisleadingFinding(FindingKind.WITHHOLDING, q))
    # A half truth leads from a communicated truth p to an uncommunicated
    # falsehood r; without such a p no r needs asking about.  Nor does one
    # when the world satisfies H: it is then a model of H & p for every
    # premise p, and falsifies every false r.
    premises = [p for i, p in enumerate(pool) if true[i] and communicated(i)]
    conclusions = (
        [r for i, r in enumerate(pool) if not true[i] and not communicated(i)]
        if premises and not evaluate(world, h)
        else []
    )
    # Each conclusion is false in the world, and so in any model that agrees
    # with the world on the keys it reads.
    reads = [
        ((r.attr, r.entity),) if type(r) is CatAtom or type(r) is NumAtom else _keys(r)
        for r in conclusions
    ]
    for p in premises:
        model = moved = None
        for r, keys in zip(conclusions, reads):
            if model is not None and (moved.isdisjoint(keys) or not evaluate(model, r)):
                continue
            result = fn(h, Implies(p, r))
            if result:
                findings.append(MisleadingFinding(FindingKind.HALF_TRUTH, p, r))
            elif model is None:
                model = _model_of(scenario, result, h, p)
                if model is not None:
                    moved = _moved(world, model)
    findings.sort(key=MisleadingFinding.render)
    return findings


def _keys(f: Formula) -> set[Key]:
    return {(a.attr, a.entity) for a in iter_atoms(f)}


def _moved(world: Model, model: Model) -> set[Key]:
    """The keys on which ``model`` does not hold the world's value."""
    return {
        key
        for part, own in ((model.categorical, world.categorical), (model.numeric, world.numeric))
        for key, value in part.items()
        if key not in own or own[key] != value
    }


def _refutes(schema: Schema, model: Model, keys: set[Key], c: Formula, left: Formula) -> bool:
    """Whether ``c`` is an atom over a key not in ``keys`` such that
    ``model``, a model of ``left``, with that key moved to a value that
    falsifies ``c`` is still a model of ``left`` and falsifies ``c``, as
    ``evaluate`` confirms: then ``left`` does not entail ``c``.  A
    categorical key moves to the first other value of its domain, if it has
    one; a numeric key to the constant + 1 for <, <= and =, and the
    constant - 1 for > and >=.  ``c`` must lie within the schema."""
    kind = type(c)
    if kind is not CatAtom and kind is not NumAtom:
        return False
    key = (c.attr, c.entity)
    if key in keys:
        return False
    if kind is CatAtom:
        domain = schema.categorical[c.attr]
        if len(domain) == 1:
            return False
        other = domain[1] if domain[0] == c.value else domain[0]
        moved = Model({**model.categorical, key: other}, model.numeric)
    else:
        value = c.constant - 1 if c.cmp[0] == ">" else c.constant + 1
        moved = Model(model.categorical, {**model.numeric, key: value})
    return evaluate(moved, left) and not evaluate(moved, c)


def _model_of(scenario: Scenario, result: object, *formulas: Formula) -> Optional[Model]:
    """The witness of an entailment ``result``, completed with the world's
    values for the keys it leaves out, if that is a model of every formula
    in ``formulas``; None otherwise.  The witness must be a ``Model`` whose
    categorical values lie in the schema's domains and whose numeric values
    are rational; the world's own values are trusted as they are."""
    witness = getattr(result, "witness", None)
    if not isinstance(witness, Model):
        return None
    world = scenario.world
    try:
        model = Model(
            {**world.categorical, **witness.categorical},
            {**world.numeric, **witness.numeric},
        )
        validate_model(scenario.schema, witness)
        if not all(isinstance(v, Rational) for v in witness.numeric.values()):
            return None
    except (MrError, TypeError, ValueError):
        # A field that is no mapping, a key that is no pair, a value that
        # cannot be hashed, or one outside the schema.
        return None
    return model if all(evaluate(model, f) for f in formulas) else None


# ---------------------------------------------------------------------------
# Scenario files

# Only ``load_scenario`` reads these, so they are compiled on first use
# (``re`` keeps the compiled patterns), not at import.
_WORLD_KEY = rf"({_NAME})\(({_NAME})\)\Z"
_NUMERAL = _NUMBER + r"\Z"


def load_scenario(path: str | Path) -> tuple[Scenario, Optional[list[Formula]]]:
    """Read a scenario file; returns the scenario and its candidate list.

    The file is a JSON object with fields ``schema`` (path, relative to the
    file), ``communicated``, ``hearer_beliefs`` (formula strings), ``world``
    (map from ``Attr(entity)`` to value), ``norms`` (list of formula
    strings), and optional ``candidates`` (a non-empty list of formula
    strings).  Candidates are None when the field is absent, which makes
    scans fall back to ``default_candidates``.  A numeric world value is a
    JSON number or string written as a formula numeral (``3``, ``22.5``,
    ``"45/2"``); no JSON number may have an exponent.
    """
    path = Path(path)
    is_numeral = re.compile(_NUMERAL).match

    def numeral(text: str) -> tuple[str]:
        # Fraction("1e999999999") would not finish; numerals have no exponent.
        if not is_numeral(text):
            raise ScenarioError(f"{path}: JSON number {text} has an exponent")
        return (text,)  # a world value reads it as a string numeral; no other field takes it

    try:
        doc = json.loads(read_source(path), parse_float=numeral)
    except ValueError as exc:
        # A JSONDecodeError, or an integer longer than int() converts.
        raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError:
        # The decoder recurses once per nested array or object.
        raise ScenarioError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: expected a JSON object")

    def field(name: str, kind: type) -> object:
        if name not in doc:
            raise ScenarioError(f"{path}: missing field {name!r}")
        value = doc[name]
        if not isinstance(value, kind):
            raise ScenarioError(f"{path}: field {name!r} must be a {kind.__name__}")
        return value

    schema = parse_schema(read_source(path.parent / str(field("schema", str))))

    def formula(name: str, text: str) -> Formula:
        try:
            return parse_formula(text, schema)
        except SourceError as exc:
            raise ScenarioError(f"{path}: in {name}: {exc}") from exc

    communicated = formula("communicated", str(field("communicated", str)))
    hearer_beliefs = formula("hearer_beliefs", str(field("hearer_beliefs", str)))

    world_cat: dict[Key, str] = {}
    world_num: dict[Key, Fraction] = {}
    world_key = re.compile(_WORLD_KEY).match
    for raw_key, value in field("world", dict).items():
        m = world_key(str(raw_key))
        if m is None:
            raise ScenarioError(f"{path}: bad world key {raw_key!r}, want Attr(entity)")
        attr, entity = m.group(1), m.group(2)
        if schema.is_categorical(attr):
            if not isinstance(value, str):
                raise ScenarioError(
                    f"{path}: world value for {raw_key} must be a value name"
                )
            world_cat[attr, entity] = value
        elif schema.is_numeric(attr):
            value = value[0] if type(value) is tuple else value  # a JSON decimal's text
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, str))
                or (isinstance(value, str) and not is_numeral(value))
            ):
                raise ScenarioError(
                    f"{path}: world value for {raw_key} must be a number"
                    " written like 3, 22.5 or \"45/2\""
                )
            try:
                world_num[attr, entity] = _numeral(value) if isinstance(value, str) else Fraction(value)
            except ValueError as exc:
                raise ScenarioError(
                    f"{path}: world value for {raw_key}: {exc}"
                ) from exc
        else:
            raise ScenarioError(f"{path}: unknown attribute {attr!r} in world")
    world = Model(world_cat, world_num)

    def formulas(name: str) -> list[Formula]:
        texts = field(name, list)
        if not all(isinstance(t, str) for t in texts):
            raise ScenarioError(f"{path}: field {name!r} must be a list of strings")
        return [formula(name, t) for t in texts]

    norms = formulas("norms")
    candidates: Optional[list[Formula]] = None
    if "candidates" in doc:
        candidates = formulas("candidates")
        if not candidates:
            # An empty list would make a scan fall back to every default atom.
            raise ScenarioError(f"{path}: field 'candidates' must not be empty")

    scenario = Scenario(schema, communicated, hearer_beliefs, world, tuple(norms))
    for c in candidates or ():
        _require_world_keys(world, c)
    return scenario, candidates
