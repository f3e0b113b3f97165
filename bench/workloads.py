"""Seeded input generators for the benchmark's three workloads.

Every generator is a pure function of the seed and produces only text:
a schema, JSON-lines corpora and scenario files.  The program under test
sees nothing else.  Formulas are printed by this module, fully
parenthesized, so generation shares no code with the package's parser or
printer.

A workload has a pair corpus (for ``verity report`` and per-pair
``classify``), a smaller corpus for ``verity report --oracle``, and
scenarios for ``verity bdi``.  Corpora come in chunks, one file each, so
that operations can take turns in short units of work (see run.py).
Every run measures all four kinds of operation on every workload; the
workload decides which one its inputs stress.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional

# ---------------------------------------------------------------------------
# Schemas

RANDOM_ATTRS = ("Alpha", "Beta", "Gamma")
RANDOM_VALUES = ("V1", "V2", "V3")
RANDOM_NUM = "Level"
RANDOM_ENTITY = "e"
RANDOM_DOMAINS = {a: RANDOM_VALUES for a in RANDOM_ATTRS}
RANDOM_SCHEMA = "".join(
    f"attr {a} : {{ {', '.join(vs)} }}\n" for a, vs in RANDOM_DOMAINS.items()
) + f"num {RANDOM_NUM}\n"

# The slot inventory of the E2E NLG dataset (Novikova, Dusek & Rieser 2017),
# domain sizes 34/3/7/6/6/2/2/19.  Venue and landmark names are synthetic.
E2E_ENTITY = "x"
E2E_DOMAINS: dict[str, tuple[str, ...]] = {
    "Name": tuple(f"Venue{i:02d}" for i in range(1, 35)),
    "EatType": ("Restaurant", "CoffeeShop", "Pub"),
    "Food": ("English", "French", "Indian", "Italian", "Japanese", "Chinese", "FastFood"),
    "PriceRange": ("Cheap", "Moderate", "High", "LessThan20", "From20To25", "MoreThan30"),
    "CustomerRating": ("Low", "Average", "High", "OneOfFive", "ThreeOfFive", "FiveOfFive"),
    "Area": ("CityCentre", "Riverside"),
    "FamilyFriendly": ("Yes", "No"),
    "Near": tuple(f"Landmark{i:02d}" for i in range(1, 20)),
}
E2E_SCHEMA = "".join(f"attr {a} : {{ {', '.join(vs)} }}\n" for a, vs in E2E_DOMAINS.items())

# Verdict names, spelled out so the construction gold does not come from
# the package under test.
WELL_MATCHED = "0-well-matched"
TOO_WEAK = "1a-too-weak"
TOO_STRONG = "2a-too-strong"
INDEPENDENT = "3a-independent"
CONFLICTING = "3b-conflicting"


@dataclass(frozen=True)
class Pair:
    """One corpus record.  ``slots`` counts the keys input and output
    mention together; ``gold`` is the reference verdict."""

    id: str
    input: str
    output: str
    slots: int
    gold: Optional[str] = None


@dataclass
class Chunk:
    """Pairs of one corpus file, with malformed lines to insert before the
    pair at each listed index."""

    pairs: list[Pair]
    malformed: list[tuple[int, str]] = field(default_factory=list)

    def lines(self) -> list[str]:
        bad: dict[int, list[str]] = {}
        for i, line in self.malformed:
            bad.setdefault(i, []).append(line)
        out = []
        for i, pair in enumerate(self.pairs):
            out.extend(bad.get(i, ()))
            out.append(record_line(pair))
        return out


@dataclass
class ScenarioSpec:
    communicated: str
    hearer_beliefs: str
    world: dict[str, str]
    norms: list[str]
    planted: list[str]  # findings present by construction, as verity bdi prints them


@dataclass
class Workload:
    name: str
    seed: int
    schema: str
    corpus: list[Chunk]
    oracle_corpus: list[Chunk]
    scenarios: list[ScenarioSpec]
    outputs_per_input: float = 1.0

    def pairs(self) -> list[Pair]:
        return [p for c in self.corpus for p in c.pairs]

    def properties(self) -> dict:
        """The generated properties the benchmark documents and prints."""
        pairs = self.pairs()
        lines = sum(len(c.pairs) + len(c.malformed) for c in self.corpus)
        malformed = sum(len(c.malformed) for c in self.corpus)
        return {
            "seed": self.seed,
            "pairs": len(pairs),
            "oracle_pairs": sum(len(c.pairs) for c in self.oracle_corpus),
            "scans": len(self.scenarios),
            "malformed_lines": malformed,
            "malformed_share": round(malformed / lines, 4),
            "outputs_per_input": self.outputs_per_input,
            "joint_slots": dict(sorted(Counter(p.slots for p in pairs).items())),
            "verdicts": dict(sorted(Counter(p.gold for p in pairs if p.gold).items())),
        }


def chunked(pairs: list[Pair], size: int) -> list[Chunk]:
    return [Chunk(pairs[i:i + size]) for i in range(0, len(pairs), size)]


# ---------------------------------------------------------------------------
# Printing


def cat_atom(attr: str, entity: str, value: str) -> str:
    return f"{attr}({entity})={value}"


def conjunction(slots: dict[str, str]) -> str:
    return " & ".join(cat_atom(a, E2E_ENTITY, v) for a, v in slots.items())


def record_line(pair: Pair) -> str:
    doc = {"id": pair.id, "input": pair.input, "output": pair.output}
    if pair.gold is not None:
        doc["gold"] = pair.gold
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# random-mix: the test suite's random-formula grammar over one small schema
# (depth <= 4, constants 0-5, 5% true and 5% false leaves)


def random_atom(rng: random.Random) -> tuple[str, frozenset]:
    if rng.random() < 0.4:
        op = rng.choice(("<", "<=", "=", ">=", ">"))
        return f"{RANDOM_NUM}({RANDOM_ENTITY}) {op} {rng.randrange(6)}", frozenset({RANDOM_NUM})
    attr = rng.choice(RANDOM_ATTRS)
    return cat_atom(attr, RANDOM_ENTITY, rng.choice(RANDOM_VALUES)), frozenset({attr})


def random_formula(rng: random.Random, depth: int = 4) -> tuple[str, frozenset]:
    """Formula text of nesting depth at most ``depth``, with its attributes."""
    if depth == 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.05:
            return "true", frozenset()
        if roll < 0.10:
            return "false", frozenset()
        return random_atom(rng)
    kind = rng.randrange(4)
    if kind == 0:
        text, attrs = random_formula(rng, depth - 1)
        return f"!({text})", attrs
    left, la = random_formula(rng, depth - 1)
    right, ra = random_formula(rng, depth - 1)
    return f"({left} {('&', '|', '->')[kind - 1]} {right})", la | ra


def random_pairs(rng: random.Random, n: int, prefix: str) -> list[Pair]:
    pairs = []
    for i in range(n):
        inp, ia = random_formula(rng)
        out, oa = random_formula(rng)
        pairs.append(Pair(f"{prefix}{i:05d}", inp, out, len(ia | oa)))
    return pairs


# The ways a corpus line can be malformed that ingest_corpus isolates.
MALFORMED_KINDS = (
    "bad-json",
    "missing-field",
    "unknown-attribute",
    "value-outside-domain",
    "duplicate-id",
    "unknown-gold",
)


def malformed_line(kind: str, rng: random.Random, pair: Pair, earlier_id: str) -> str:
    doc = {"id": f"{pair.id}-bad", "input": pair.input, "output": pair.output}
    if kind == "bad-json":
        return json.dumps(doc)[: -rng.randint(2, 10)]
    if kind == "missing-field":
        del doc[rng.choice(("id", "input", "output"))]
    elif kind == "unknown-attribute":
        doc["input"] = f"Delta({RANDOM_ENTITY})=V1 & ({pair.input})"
    elif kind == "value-outside-domain":
        doc["output"] = f"({pair.output}) | {cat_atom(rng.choice(RANDOM_ATTRS), RANDOM_ENTITY, 'V9')}"
    elif kind == "duplicate-id":
        doc["id"] = earlier_id
    elif kind == "unknown-gold":
        doc["gold"] = "4-unknown"
    return json.dumps(doc)


def plant(chunks: list[Chunk], rng: random.Random, count: int) -> None:
    """Insert ``count`` malformed lines into random chunks, cycling through
    MALFORMED_KINDS so each kind appears about equally often.  A duplicate
    id repeats an earlier record of the same chunk."""
    for n in range(count):
        chunk = rng.choice(chunks)
        i = rng.randrange(1, len(chunk.pairs))
        kind = MALFORMED_KINDS[n % len(MALFORMED_KINDS)]
        chunk.malformed.append((i, malformed_line(kind, rng, chunk.pairs[i], rng.choice(chunk.pairs[:i]).id)))
    for chunk in chunks:
        chunk.malformed.sort(key=lambda m: m[0])


def stratified(rng: random.Random, domain: tuple[str, ...], n: int) -> list[str]:
    """``n`` values of ``domain`` in random order, the k-th drawn from the
    k-th of n equal slices of the domain.

    The engine enumerates domains in declaration order and stops at the
    first model it needs, so a decision's cost depends on where its values
    sit in their domains.  Spreading them evenly makes the total cost of a
    corpus nearly the same for every seed.
    """
    values = [domain[int((k + rng.random()) * len(domain) / n)] for k in range(n)]
    rng.shuffle(values)
    return values


# ---------------------------------------------------------------------------
# e2e-slots: conjunctive MRs with outputs whose verdict is known by construction

EDITS = ("reorder", "drop", "add", "change", "drop-add")
EDIT_GOLD = {
    "reorder": WELL_MATCHED,
    "drop": TOO_WEAK,
    "add": TOO_STRONG,
    "change": CONFLICTING,
    "drop-add": INDEPENDENT,
}


def edit(rng: random.Random, slots: dict[str, str], kind: str, added: Optional[str]) -> dict[str, str]:
    """An output MR made from the input ``slots`` by one edit.

    reorder keeps every slot, drop removes one, add puts in the absent slot
    ``added``, change swaps one value for another of its domain, and
    drop-add does both drop and add.  EDIT_GOLD gives each edit's verdict.
    """
    items = list(slots.items())
    if kind == "reorder":
        while [a for a, _ in items] == list(slots):
            rng.shuffle(items)
        return dict(items)
    if kind in ("drop", "drop-add"):
        del items[rng.randrange(len(items))]
    if kind == "change":
        i = rng.randrange(len(items))
        attr, value = items[i]
        items[i] = (attr, rng.choice([v for v in E2E_DOMAINS[attr] if v != value]))
    if kind in ("add", "drop-add"):
        items.append((added, rng.choice(E2E_DOMAINS[added])))
    rng.shuffle(items)
    return dict(items)


# Input templates for e2e-slots: (input slots, slot an "add" edit puts in,
# or None for inputs that get no add or drop-add edit).  The templates are
# fixed so that every seed has the same decision cost profile; the seed
# picks values, slot order, the edits' targets and ids.  Joint domain
# products stay at or below 3024 models, so a report is many similar-cost
# decisions rather than a few dominant ones: on the exhaustive engine one
# pair over seven slots (at least 57456 models) costs 0.5-5 s, and how much
# depends on where its values sit in the enumeration order, so a few such
# pairs would make the figure a function of the seed.  Eight-slot inputs
# have no absent slot; the default limit refuses them before enumerating.
E2E_TEMPLATES: tuple[tuple[tuple[str, ...], Optional[str]], ...] = (
    (("Name", "EatType", "Area"), "FamilyFriendly"),
    (("Name", "Food", "Area"), "EatType"),
    (("Name", "PriceRange", "FamilyFriendly"), "Area"),
    (("Name", "CustomerRating", "EatType"), "Area"),
    (("Name", "Near", "Area"), "FamilyFriendly"),
    (("EatType", "Food", "PriceRange"), "Area"),
    (("Name", "EatType", "Area", "FamilyFriendly"), "PriceRange"),
    (("Name", "Food", "Area", "FamilyFriendly"), "EatType"),
    (("EatType", "Food", "CustomerRating", "Area"), "FamilyFriendly"),
    (("EatType", "Food", "Area", "FamilyFriendly", "PriceRange"), "CustomerRating"),
    (("EatType", "PriceRange", "CustomerRating", "Area", "FamilyFriendly"), "Food"),
    (("EatType", "Food", "PriceRange", "CustomerRating", "Area", "FamilyFriendly"), None),
    (tuple(E2E_DOMAINS), None),
    (tuple(E2E_DOMAINS), None),
)
THREE_SLOT_TEMPLATES = E2E_TEMPLATES[:6]


def e2e_pairs(rng: random.Random, templates, prefix: str, inputs: int) -> list[Pair]:
    """``inputs`` distinct input MRs per template, one output per edit each."""
    pairs = []
    for t, (attrs, added) in enumerate(templates):
        kinds = [k for k in EDITS if added is not None or k not in ("add", "drop-add")]
        values = {a: stratified(rng, E2E_DOMAINS[a], inputs) for a in attrs}
        for j in range(inputs):
            order = list(attrs)
            rng.shuffle(order)
            slots = {a: values[a][j] for a in order}
            for k in kinds:
                out = edit(rng, slots, k, added)
                pairs.append(Pair(
                    f"{prefix}{t:02d}-{j}-{k}", conjunction(slots), conjunction(out),
                    len(set(slots) | set(out)), EDIT_GOLD[k],
                ))
    rng.shuffle(pairs)
    return pairs


def outputs_per_input(templates) -> float:
    per = [5 if added is not None else 3 for _, added in templates]
    return sum(per) / len(per)


# ---------------------------------------------------------------------------
# Scenarios


def scenario(
    rng: random.Random,
    domains: dict[str, tuple[str, ...]],
    entity: str,
    world: dict[str, str],
    told: tuple[str, ...],
    beliefs: tuple[tuple[str, str], ...],
) -> ScenarioSpec:
    """A scenario over the keys of ``world`` with two findings planted.

    K states the world's values of the keys ``told``.  The hearer believes
    one implication per (antecedent key, consequent key) in ``beliefs``.
    Antecedent keys are distinct and no consequent key is an antecedent
    key, so the beliefs stay satisfiable together with any one atom of K.
    The first implication leads from K's first atom to an atom false in the
    world, a half truth.  Of the two norms, the first is a true fact K does
    not state, a withholding; the second is any atom.
    """
    world_attrs = list(world)
    atoms = [cat_atom(a, entity, v) for a in world_attrs for v in domains[a]]
    (first, cons), *rest = beliefs
    p = cat_atom(first, entity, world[first])
    r = cat_atom(cons, entity, rng.choice([v for v in domains[cons] if v != world[cons]]))
    implications = [(p, r)] + [
        (cat_atom(a, entity, rng.choice(domains[a])), cat_atom(c, entity, rng.choice(domains[c])))
        for a, c in rest
    ]
    withheld = rng.choice([cat_atom(a, entity, world[a]) for a in world_attrs if a not in told])
    return ScenarioSpec(
        " & ".join(cat_atom(a, entity, world[a]) for a in told),
        " & ".join(f"({a} -> {c})" for a, c in implications),
        {f"{a}({entity})": v for a, v in world.items()},
        [withheld, rng.choice(atoms)],
        [f"half-truth: {p} => {r}", f"withholding: {withheld}"],
    )


# Scenario shapes for random-mix, as BDI_SHAPES below: (keys K states,
# belief implications as (antecedent key, consequent key)).
RANDOM_SHAPES: tuple[tuple[tuple[str, ...], tuple[tuple[str, str], ...]], ...] = (
    (("Alpha",), (("Alpha", "Beta"),)),
    (("Beta", "Gamma"), (("Beta", "Alpha"),)),
    (("Gamma",), (("Gamma", "Alpha"), ("Beta", "Alpha"))),
    (("Alpha", "Beta"), (("Alpha", "Gamma"), ("Beta", "Gamma"))),
    (("Beta",), (("Beta", "Gamma"), ("Alpha", "Gamma"))),
    (("Gamma", "Alpha"), (("Gamma", "Beta"),)),
)


def random_scenarios(rng: random.Random, per_shape: int) -> list[ScenarioSpec]:
    """``per_shape`` scenarios per shape over the random-mix keys, world
    values stratified, each with a numeric norm on Level."""
    specs = []
    for told, beliefs in RANDOM_SHAPES:
        values = {a: stratified(rng, RANDOM_VALUES, per_shape) for a in RANDOM_ATTRS}
        for j in range(per_shape):
            world = {a: values[a][j] for a in RANDOM_ATTRS}
            spec = scenario(rng, RANDOM_DOMAINS, RANDOM_ENTITY, world, told, beliefs)
            spec.world[f"{RANDOM_NUM}({RANDOM_ENTITY})"] = str(rng.randrange(6))
            spec.norms[1] = f"{RANDOM_NUM}({RANDOM_ENTITY}) {rng.choice(('<', '<=', '>=', '>'))} {rng.randrange(6)}"
            specs.append(spec)
    return specs


# Scenario shapes for bdi-scan and e2e-slots: (keys K states, belief
# implications as (antecedent key, consequent key)).  K has 1-3 atoms and the
# beliefs 1-3 implications.  As with E2E_TEMPLATES the shapes are fixed and
# the seed picks the values.  A scan asks, for each atom of K, about each
# atom false in the world (71 when it covers all eight keys), over the
# beliefs' keys plus that atom's key; beliefs over the small-domain keys
# keep a scan near 0.1-1 s on the exhaustive engine, where beliefs over
# Food, Name or Near made single scans take more than 5 s.
BDI_SHAPES: tuple[tuple[tuple[str, ...], tuple[tuple[str, str], ...]], ...] = (
    (("EatType",), (("EatType", "FamilyFriendly"),)),
    (("Area", "FamilyFriendly"), (("Area", "EatType"), ("FamilyFriendly", "EatType"))),
    (("Area", "Food", "FamilyFriendly"), (("Area", "EatType"),)),
    (("EatType", "Area"), (("EatType", "FamilyFriendly"), ("Area", "FamilyFriendly"))),
    (("FamilyFriendly",), (("FamilyFriendly", "Area"), ("EatType", "Area"))),
    (("PriceRange", "EatType"), (("PriceRange", "Area"),)),
    (("Area", "EatType", "FamilyFriendly"), (("Area", "PriceRange"), ("EatType", "FamilyFriendly"))),
    (("EatType",), (("EatType", "Area"), ("FamilyFriendly", "Area"))),
)


def e2e_scenarios(rng: random.Random, per_shape: int, whole_world: bool) -> list[ScenarioSpec]:
    """``per_shape`` scenarios per shape, their world values stratified.

    The world covers all eight keys, or only the keys the shape mentions.
    """
    specs = []
    for told, beliefs in BDI_SHAPES:
        keys = set(told).union(*beliefs)
        attrs = [a for a in E2E_DOMAINS if whole_world or a in keys]
        values = {a: stratified(rng, E2E_DOMAINS[a], per_shape) for a in attrs}
        for j in range(per_shape):
            world = {a: values[a][j] for a in attrs}
            specs.append(scenario(rng, E2E_DOMAINS, E2E_ENTITY, world, told, beliefs))
    return specs


def scenario_doc(spec: ScenarioSpec, schema_file: str) -> str:
    doc = {
        "schema": schema_file,
        "communicated": spec.communicated,
        "hearer_beliefs": spec.hearer_beliefs,
        "world": spec.world,
        "norms": spec.norms,
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Workloads


def random_mix(seed: int) -> Workload:
    """3000 independent random pairs in 100 files, 2% of lines malformed,
    600 more for the oracle-checked report, and 24 scenarios.

    Gold is left empty here: run.py fills it in from the oracle.
    """
    rng = random.Random(f"random-mix/{seed}")
    corpus = chunked(random_pairs(rng, 3000, "r"), 30)
    plant(corpus, rng, 60)
    oracle_corpus = chunked(random_pairs(rng, 600, "o"), 15)
    plant(oracle_corpus, rng, 12)
    scenarios = random_scenarios(rng, 4)
    return Workload("random-mix", seed, RANDOM_SCHEMA, corpus, oracle_corpus, scenarios)


def e2e_slots(seed: int) -> Workload:
    """Four input MRs per template, 256 pairs in 32 files."""
    rng = random.Random(f"e2e-slots/{seed}")
    corpus = chunked(e2e_pairs(rng, E2E_TEMPLATES, "e", 4), 8)
    oracle_corpus = chunked(e2e_pairs(rng, THREE_SLOT_TEMPLATES, "o", 2), 5)
    return Workload(
        "e2e-slots", seed, E2E_SCHEMA, corpus, oracle_corpus, e2e_scenarios(rng, 2, False),
        outputs_per_input(E2E_TEMPLATES),
    )


def bdi_scan(seed: int) -> Workload:
    """Two scenarios per shape whose world covers all eight E2E keys: 79
    candidate atoms, 6241 ordered candidate pairs per scan."""
    rng = random.Random(f"bdi-scan/{seed}")
    scenarios = e2e_scenarios(rng, 2, True)
    corpus = chunked(e2e_pairs(rng, THREE_SLOT_TEMPLATES, "b", 8), 10)
    oracle_corpus = chunked(e2e_pairs(rng, THREE_SLOT_TEMPLATES, "o", 2), 5)
    return Workload(
        "bdi-scan", seed, E2E_SCHEMA, corpus, oracle_corpus, scenarios,
        outputs_per_input(THREE_SLOT_TEMPLATES),
    )


WORKLOADS = {"random-mix": random_mix, "e2e-slots": e2e_slots, "bdi-scan": bdi_scan}


def with_gold(chunks: list[Chunk], gold: dict[str, str]) -> None:
    """Attach reference verdicts, keyed by pair id, in place."""
    for chunk in chunks:
        chunk.pairs = [replace(p, gold=gold[p.id]) for p in chunk.pairs]
