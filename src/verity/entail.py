"""Satisfiability and entailment for MR formulas by depth-first search.

Categorical keys range over their declared domains.  For a numeric key
whose atoms mention the constants c1 < ... < ck, it suffices to test
c1 - 1, every ci, every midpoint (ci + c(i+1)) / 2, and ck + 1: threshold
atoms are constant on the regions those points represent, so the finite
check decides the full rational semantics.  The search works on the
points' indices: with c1 - 1 as point 0, constant ci is point 2i - 1, so a
threshold atom's truth table is cut at its constant's rank, and the
constants are ranked by integer keys over their common denominator.  No
``Fraction`` is hashed, compared or computed with on the way to a verdict;
the points themselves are made only for a witness.

Every question is a search (Davis, Logemann & Loveland 1962, over keys
instead of boolean variables) for cells of one pair a, b: a & b, a & !b,
!a & b, !a & !b.  It assigns the joint keys one at a time, categorical
then numeric, each sorted, trying values in domain or sample order.  A
categorical key tries the values its atoms mention and the first value
they do not: every atom over the key is false on each unmentioned value,
so that value stands for all of them.  The formulas' three-valued
(Kleene) values under the partial assignment bound the cells a node can
reach: a node where both are decided marks its cell, one that can reach
no cell still sought is pruned, any other branches.  The node where the
search stops is completed with every remaining key's first value, so a
one-cell witness is that cell's first model in product order, while the
cost follows how soon the formulas are decided rather than the size of
the product or of a key's domain.  A budget of search nodes bounds the
cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .mr import (
    FALSE,
    TRUE,
    And,
    CatAtom,
    FalseConst,
    Formula,
    Implies,
    Key,
    Model,
    MrError,
    Not,
    NumAtom,
    Or,
    Schema,
    TrueConst,
    validate_atom,
)

DEFAULT_ASSIGNMENT_LIMIT = 10**6

# A node's truth value under a partial assignment: True, False, or None
# for unknown.
Truth = Optional[bool]


class ResourceLimit(MrError):
    """A decision visited more search nodes than the configured limit
    allows (or, with another ``unit``, some other count went over its
    limit)."""

    def __init__(self, required: int, limit: int, unit: str = "search nodes"):
        self.required = required
        self.limit = limit
        super().__init__(f"{required} {unit} exceeds limit {limit}")


@dataclass(frozen=True)
class EntailmentResult:
    """A yes/no decision plus the model that witnesses it, when one exists.

    For ``satisfiable`` the witness satisfies the formula; for ``entails``
    it is a countermodel, a model of ``a & !(b)``.
    """

    holds: bool
    witness: Optional[Model]

    def __bool__(self) -> bool:
        return self.holds


def _samples(constants: list[Fraction]) -> list[Fraction]:
    # constants must be sorted and distinct
    points = [constants[0] - 1]
    for lo, hi in zip(constants, constants[1:]):
        points.append(lo)
        points.append((lo + hi) / 2)
    points.append(constants[-1])
    points.append(constants[-1] + 1)
    return points


# An ordering atom whose constant is sample s holds on the samples before
# s + shift when ``below`` is set, else on that sample and those after it.
_SPLITS = {"<": (0, True), "<=": (1, True), ">=": (0, False), ">": (1, False)}


# ---------------------------------------------------------------------------
# Compilation: negation normal form with n-ary connectives
#
# An NNF node is [is_and, atoms, children, dominated]: ``atoms`` holds
# (atom, negated) pairs, ``children`` the preorder positions of the nodes
# of the other connective under it, and ``dominated`` is set by a constant
# that decides the node outright (false under &, true under |).  Compiling
# turns the nodes into a program that the search runs in one loop, so
# nothing recurses on a formula's depth.


def _nnf(formula: Formula, nodes: list[list]) -> int:
    """Push negations to the atoms and flatten runs of one connective,
    walking with an explicit stack; every node made is appended to
    ``nodes`` in preorder.  Returns the root's position."""
    root = len(nodes)
    nodes.append([True, [], [], False])
    stack = [(formula, False, nodes[root])]
    while stack:
        f, neg, node = stack.pop()
        while type(f) is Not:
            f = f.operand
            neg = not neg
        kind = type(f)
        if kind is CatAtom or kind is NumAtom:
            node[1].append((f, neg))
        elif kind is TrueConst or kind is FalseConst:
            # the constant's value is (kind is TrueConst) != neg
            if ((kind is TrueConst) != neg) != node[0]:
                node[3] = True
        elif kind is And or kind is Or or kind is Implies:
            is_and = (kind is And) != neg
            if is_and != node[0]:
                node[2].append(len(nodes))
                node = [is_and, [], [], False]
                nodes.append(node)
            if kind is Implies:
                # a -> b is !a | b
                stack.append((f.consequent, neg, node))
                stack.append((f.antecedent, not neg, node))
            else:
                stack.append((f.right, neg, node))
                stack.append((f.left, neg, node))
        else:
            raise TypeError(f"not a formula: {f!r}")
    return root


def _compile(schema: Schema, formulas: Sequence[Formula]):
    """Validate the atoms, order the keys and compile ``formulas`` into a
    program that gives their Kleene values under a partial assignment.

    An assignment is a list of value indices, one per key; the index
    ``sizes[k]`` means key k is unassigned.  A categorical key's values
    are its domain.  A numeric key's are its sample points (see
    ``_samples``), which are never built here: the constant of rank r
    (from 0) is sample 2r + 1, so an atom's table is cut there.  The
    program has one tuple (decisive value, default value, (key index,
    truth table) pairs, child positions) per node, every child before its
    parent.  A node has its decisive value when an atom or child has it,
    else None when one is unknown, else its default.  Returns the
    categorical and numeric keys, each numeric key's constants in
    ascending order, the keys' sizes, the values to try, the program and
    each formula's position in it.  The values to try are a bit mask per
    key: every sample of a numeric key; the values the program's atoms
    over a categorical key mention, plus the first one they do not, if
    any.
    """
    nodes: list[list] = []
    roots = [_nnf(f, nodes) for f in formulas]
    # Each distinct atom object is validated once, in order of occurrence;
    # keyed by identity, since hashing a NumAtom hashes its Fraction.
    atoms = {id(atom): atom for node in nodes for atom, _ in node[1]}
    cat_set: set[Key] = set()
    constants: dict[Key, dict[tuple[int, int], Fraction]] = {}
    for atom in atoms.values():
        validate_atom(schema, atom)
        if type(atom) is NumAtom:
            c = atom.constant
            constants.setdefault((atom.attr, atom.entity), {})[c.numerator, c.denominator] = c
        else:
            cat_set.add((atom.attr, atom.entity))
    cat_keys = sorted(cat_set)
    num_keys = sorted(constants)
    sizes = [len(schema.categorical[attr]) for attr, _ in cat_keys]
    ordered = []  # each numeric key's constants, ascending
    ranks = []  # each numeric key's (numerator, denominator) -> rank
    for k in num_keys:
        cs = constants[k]
        common = math.lcm(*(d for _, d in cs))
        pairs = sorted(cs, key=lambda nd: nd[0] * (common // nd[1]))
        ordered.append([cs[nd] for nd in pairs])
        ranks.append({nd: r for r, nd in enumerate(pairs)})
        sizes.append(2 * len(pairs) + 1)
    index = {k: i for i, k in enumerate(cat_keys + num_keys)}
    n_cat = len(cat_keys)

    # In reversed preorder, children come first: preorder p runs at last - p.
    last = len(nodes) - 1
    masks = [0] * n_cat + [-1] * len(num_keys)  # numeric keys try every sample
    program = []
    for is_and, node_atoms, children, dominated in reversed(nodes):
        decisive = not is_and  # the value of an atom or child that decides the node
        if dominated:
            program.append((decisive, decisive, (), ()))
            continue
        tables = []
        for atom, neg in node_atoms:
            i = index[atom.attr, atom.entity]
            n = sizes[i]
            if type(atom) is NumAtom:
                c = atom.constant
                sample = 2 * ranks[i - n_cat][c.numerator, c.denominator] + 1
                if atom.cmp == "=":
                    table = [neg] * n
                    table[sample] = not neg
                else:
                    shift, below = _SPLITS[atom.cmp]
                    cut = sample + shift
                    table = [below != neg] * cut + [below == neg] * (n - cut)
            else:
                pos = schema._positions[atom.attr][atom.value]
                masks[i] |= 1 << pos
                table = [neg] * n
                table[pos] = not neg
            table.append(None)  # the key is unassigned
            tables.append((i, table))
        program.append((decisive, is_and, tables, [last - c for c in children]))
    # Every atom over a key is false on each value it does not mention, so
    # those values give identical subtrees and the first stands for all.
    masks = [(m | m + 1) & (1 << n) - 1 for m, n in zip(masks, sizes)]
    return cat_keys, num_keys, ordered, sizes, masks, program, [last - r for r in roots]


# ---------------------------------------------------------------------------
# Search
#
# A pair of formulas a, b splits the models into four cells, named by bit
# masks: a & b, a & !b, !a & b and !a & !b are bits 0 to 3.  For each
# value of a and of b, the cells a node can still reach:
_A_CELLS = {True: 0b0011, False: 0b1100, None: 0b1111}
_B_CELLS = {True: 0b0101, False: 0b1010, None: 0b1111}
_A_NOT_B = 0b0010


def _search(
    schema: Schema, a: Formula, b: Formula, limit: int, explore: int, stop: int
) -> tuple[int, Optional[tuple]]:
    """Depth-first search over the joint keys of ``a`` and ``b`` for the
    cells in the mask ``explore``.  Each key runs through the values in
    its mask from ``_compile``, in domain or sample order.

    A node where both formulas are decided marks its cell; a node whose
    reachable cells in ``explore`` are all marked is pruned, and so is the
    rest of a parent's subtree, checked before each further sibling.  The
    search stops once every cell of ``stop`` (a subset of ``explore``) is
    marked.  Returns the marked cells and, where it stopped, the keys, each
    numeric key's constants and the value indices of the node's first
    completion (see ``_witness``), or None when it ran to the end; raises
    ResourceLimit on the node after the ``limit``-th.
    """
    cat_keys, num_keys, constants, sizes, masks, program, (root_a, root_b) = _compile(schema, (a, b))
    at = sizes[:]  # each key's value index; every key unassigned
    path: list[int] = []  # the cells each node being branched can still reach
    seen = 0
    nodes = 0
    while True:
        nodes += 1
        if nodes > limit:
            raise ResourceLimit(nodes, limit)
        known: list[Truth] = []  # each program node's value, in program order
        for decisive, value, atoms, children in program:
            for i, table in atoms:
                t = table[at[i]]
                if t is decisive:
                    value = decisive
                    break
                if t is None:
                    value = None
            else:
                for c in children:
                    t = known[c]
                    if t is decisive:
                        value = decisive
                        break
                    if t is None:
                        value = None
            known.append(value)
        ta, tb = known[root_a], known[root_b]
        reach = _A_CELLS[ta] & _B_CELLS[tb] & explore & ~seen
        if reach:
            if ta is None or tb is None:
                at[len(path)] = 0
                path.append(reach)
                continue
            seen |= reach
            if stop and seen & stop == stop:
                first = [i if i < n else 0 for i, n in zip(at, sizes)]
                return seen, (cat_keys, num_keys, constants, first)
        # Next sibling, or back up a level once the key's values run out or
        # the parent's subtree holds nothing more; a key backed out of is
        # unassigned again.
        while path:
            k = len(path) - 1
            rest = masks[k] >> at[k] + 1  # the values still to try
            if rest and path[-1] & ~seen:
                at[k] += (rest & -rest).bit_length()
                break
            at[k] = sizes[k]
            path.pop()
        else:
            return seen, None


def _witness(schema: Schema, stopped: Optional[tuple]) -> Optional[Model]:
    """The model at which ``_search`` stopped, or None when it ran to the
    end.  Only here are a numeric key's sample points made."""
    if stopped is None:
        return None
    cat_keys, num_keys, constants, at = stopped
    return Model(
        {k: schema.categorical[k[0]][i] for k, i in zip(cat_keys, at)},
        {k: _samples(cs)[i] for k, cs, i in zip(num_keys, constants, at[len(cat_keys):])},
    )


def satisfiable(
    schema: Schema, f: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> EntailmentResult:
    """Decide whether some model over ``f``'s keys satisfies ``f`` (the
    cell ``f & !false``); the witness is the first such model in
    sorted-key product order."""
    model = _witness(schema, _search(schema, f, FALSE, limit, _A_NOT_B, _A_NOT_B)[1])
    return EntailmentResult(model is not None, model)


def pair_cells(
    schema: Schema, a: Formula, b: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> tuple[bool, bool, bool, bool]:
    """Which of ``a & b``, ``a & !b``, ``!a & b`` and ``!a & !b`` have a model.

    One search of all four cells, stopped once the first three are
    marked, so a False fourth cell proves nothing unless one of those is
    False.
    """
    seen, _ = _search(schema, a, b, limit, 0b1111, 0b0111)
    return tuple(bool(seen >> cell & 1) for cell in range(4))


def entails(
    schema: Schema, a: Formula, b: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> EntailmentResult:
    """Decide ``a |= b`` by a search of the pair's cell ``a & !b``; on
    failure the witness is a countermodel, that cell's first model."""
    counter = _witness(schema, _search(schema, a, b, limit, _A_NOT_B, _A_NOT_B)[1])
    return EntailmentResult(counter is None, counter)


def is_tautology(
    schema: Schema, f: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> bool:
    """True iff ``f`` holds in every model: the cell ``true & !f`` is empty."""
    return _search(schema, TRUE, f, limit, _A_NOT_B, _A_NOT_B)[1] is None


def is_contradiction(
    schema: Schema, f: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> bool:
    """True iff ``f`` holds in no model."""
    return not satisfiable(schema, f, limit=limit).holds
