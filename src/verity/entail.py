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
!a & b, !a & !b.  It assigns the joint keys one at a time, trying values
in domain or sample order.  A question that returns a witness takes the
keys in product order, categorical then numeric, each sorted.  A cell
question, which returns none, takes first the keys that the most atoms
read, then those with fewer values to try, and keeps product order among
the rest: branching first on the variables that occur most often, the
standard DPLL rule (Jeroslow & Wang 1990; Marques-Silva 1999), usually
decides the formulas in fewer nodes.  A categorical key tries the values
its atoms mention and the first value they do not: every atom over the
key is false on each unmentioned value, so that value stands for all of
them.  The formulas' three-valued (Kleene) values under the
partial assignment bound the cells a node can reach: a node where both
are decided marks its cell, one that can reach no cell still sought is
pruned, any other branches.  The node where the search stops is
completed with every remaining key's first value, so a one-cell witness
is that cell's first model in product order, while the cost follows how
soon the formulas are decided rather than the size of the product or of
a key's domain.  A budget of search nodes bounds the cost.

Each question is compiled in one walk.  An atom is checked against a
schema once, by the schema's parser when it made the atom, else by the
first walk under that schema that meets it; the check stores the atom's
entry (see ``mr.CatAtom``), from which every later walk reads its key
and constant, or its domain's size, value position and truth tables.  The
truth tables of categorical atoms are made once per schema and
(attribute, value), by the first decision that tables such an atom, and
shared by every entity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .mr import (
    _Record,
    _entry_of,
    _set,
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


class EntailmentResult(_Record):
    """A yes/no decision plus the model that witnesses it, when one exists.

    For ``satisfiable`` the witness satisfies the formula; for ``entails``
    it is a countermodel, a model of ``a & !(b)``.
    """

    __slots__ = __match_args__ = _fields = ("holds", "witness")
    holds: bool
    witness: Optional[Model]

    def __init__(self, holds: bool, witness: Optional[Model]):
        _set(self, "holds", holds)
        _set(self, "witness", witness)

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
# Compilation: one walk to a program of n-ary nodes
#
# Negations are pushed to the atoms and runs of one connective are
# flattened into one node, so nothing recurses on a formula's depth.  A
# node is [decisive, default, (key slot, truth table) pairs, child offsets];
# a constant that decides a node outright (false under &, true under |)
# puts (decisive, decisive, (), ()) in its place, and nothing under that
# node stays in the program.  Its operands still unread are walked under
# no node (None): their atoms are checked and keyed as anywhere else, so a
# witness names every key the formulas mention, but they add no table.


def _compile(schema: Schema, formulas: Sequence[Formula]):
    """Compile ``formulas`` in one walk, with an explicit stack, into a
    program that gives their Kleene values under a partial assignment.
    Each atom is checked, keyed and tabled where the walk meets it, left
    to right.  An atom whose entry was made under another schema, or that
    has none, is validated here, and its entry is made and stored; every
    atom's key and constant, or domain size, value position and truth tables,
    are then read from its entry.  A categorical atom's tables are made in
    its entry's cell, which every entity shares, the first time a node
    tables an atom over that (attribute, value); a numeric atom's table
    depends on the question's constants, so it is tabled on every call.  A
    node that a constant decides holds no atom or child: what the walk made
    under it leaves the program, and its operands still unread are read
    under no node, where an atom is checked and keyed as anywhere else but
    adds no table to the program and names no value to try.  Each node,
    roots too, marks how many atoms had been read in nodes when it was
    made, and a constant cuts the atoms read since its node's mark.

    Keys take slots in the order they are first met.  An assignment is a
    list of value indices, one per slot; the index ``sizes[k]`` means
    slot k is unassigned.  A categorical key's values are its domain.  A
    numeric key's are its sample points (see ``_samples``), which are
    never built here: the constant of rank r (from 0) is sample 2r + 1, so
    an atom's table is cut there once the walk has seen every constant of
    its key.  The program lists its nodes children first, and a node
    names each child by the child's offset back from the end of the values
    known when the node runs.  A node has its decisive value when an atom
    or child has it, else None when one is unknown, else its default.

    Returns the categorical and numeric keys, sorted, with each numeric
    key's constants in ascending order (what a witness needs); the slots in
    those keys' order, which is product order; the slots' sizes; the values
    to try; the program; where each formula's value is among the values one
    run of the program yields, counted from the end; and each slot's uses,
    the number of the program's atoms over its key.  The values to try are
    a bit mask per slot: every sample of a numeric key; the values the
    program's atoms over a categorical key mention, plus the first one they
    do not, if any.  Both are counted once, after the walk, from the atoms
    left in the program, so neither counts one that a constant took out.
    """
    positions = schema._positions  # starts each entry made under the schema
    cat_slots: dict[Key, int] = {}
    num_slots: dict[Key, tuple[int, dict[tuple[int, int], Fraction]]] = {}  # slot, constants
    sizes: list[int] = []
    numeric = []  # (tables, position, slot, (numerator, denominator), cmp, negated)
    cats = []  # (slot, value position) of each categorical atom in a node
    program: list = []  # in preorder until the end
    marks = []  # each program node's (len(cats), len(numeric)) when it was made
    roots = []
    for formula in formulas:
        node = [False, True, [], []]  # every root is an & node
        pos = len(program)
        roots.append(-1 - pos)  # where the reversed program puts it
        program.append(node)
        marks.append((len(cats), len(numeric)))
        f, neg = formula, False
        stack = []  # the right operands still to read, each with its node
        while True:
            while type(f) is Not:
                f = f.operand
                neg = not neg
            kind = type(f)
            if kind is CatAtom or kind is NumAtom:
                entry = f._entry
                if entry is None or entry[0] is not positions:
                    validate_atom(schema, f)
                    entry = _entry_of(schema, f)
                    _set(f, "_entry", entry)
            if kind is CatAtom:
                _, key, size, index, cell = entry
                slot = cat_slots.get(key)
                if slot is None:
                    slot = cat_slots[key] = len(sizes)
                    sizes.append(size)
                if node is not None:
                    if cell[0] is None:
                        # Tuples, which every entity shares and no question changes.
                        plain = [False] * size + [None]  # the last entry: the key is unassigned
                        negated = [True] * size + [None]
                        plain[index], negated[index] = True, False
                        cell[:] = tuple(plain), tuple(negated)
                    cats.append((slot, index))
                    node[2].append((slot, cell[neg]))
            elif kind is NumAtom:
                _, key, n, d = entry
                got = num_slots.get(key)
                if got is None:
                    got = num_slots[key] = (len(sizes), {})
                    sizes.append(0)
                nd = (n, d)
                got[1][nd] = f.constant
                if node is not None:
                    numeric.append((node[2], len(node[2]), got[0], nd, f.cmp, neg))
                    node[2].append(None)
            elif kind is And or kind is Or or kind is Implies:
                is_and = (kind is And) != neg
                if node is not None and is_and is not node[1]:
                    node[3].append(pos - len(program))
                    pos = len(program)
                    node = [not is_and, is_and, [], []]
                    program.append(node)
                    marks.append((len(cats), len(numeric)))
                # The left operand is read next, the right one later.
                if kind is Implies:
                    # a -> b is !a | b
                    stack.append((f.consequent, neg, node, pos))
                    f, neg = f.antecedent, not neg
                else:
                    stack.append((f.right, neg, node, pos))
                    f = f.left
                continue
            elif kind is TrueConst or kind is FalseConst:
                # the constant's value is (kind is TrueConst) != neg
                if node is not None and ((kind is TrueConst) != neg) is node[0]:
                    # What was made under this node since it was made leaves
                    # the program, and its operands still on the stack,
                    # which are on top, are read under no node.
                    c, n = marks[pos]
                    del program[pos + 1:], marks[pos + 1:], cats[c:], numeric[n:]
                    program[pos] = (node[0], node[0], (), ())
                    i = len(stack)
                    while i and stack[i - 1][2] is node:
                        i -= 1
                    stack[i:] = [(g, n, None, pos) for g, n, _, _ in stack[i:]]
            else:
                raise TypeError(f"not a formula: {f!r}")
            if not stack:
                break
            f, neg, node, pos = stack.pop()

    cat_keys = sorted(cat_slots)
    num_keys = sorted(num_slots)
    order = [cat_slots[k] for k in cat_keys]
    masks = [0] * len(sizes)
    uses = [0] * len(sizes)
    constants = []  # each numeric key's constants, ascending
    ranks = {}  # each numeric slot's (numerator, denominator) -> rank
    for k in num_keys:
        slot, cs = num_slots[k]
        common = math.lcm(*(d for _, d in cs))
        pairs = sorted(cs, key=lambda nd: nd[0] * (common // nd[1]))
        order.append(slot)
        constants.append([cs[nd] for nd in pairs])
        ranks[slot] = {nd: r for r, nd in enumerate(pairs)}
        sizes[slot] = 2 * len(pairs) + 1
        masks[slot] = -1  # every sample is tried
    for slot, index in cats:
        masks[slot] |= 1 << index
        uses[slot] += 1
    for tables, i, slot, nd, cmp, neg in numeric:
        uses[slot] += 1
        n = sizes[slot]
        sample = 2 * ranks[slot][nd] + 1
        if cmp == "=":
            table = [neg] * n
            table[sample] = not neg
        else:
            shift, below = _SPLITS[cmp]
            cut = sample + shift
            table = [below != neg] * cut + [below == neg] * (n - cut)
        table.append(None)  # the key is unassigned
        tables[i] = (slot, table)
    # Every atom over a key is false on each value it does not mention, so
    # those values give identical subtrees and the first stands for all.
    masks = [(m | m + 1) & (1 << n) - 1 for m, n in zip(masks, sizes)]
    program.reverse()
    return (cat_keys, num_keys, constants), order, sizes, masks, program, roots, uses


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
    schema: Schema, a: Formula, b: Formula, limit: int, explore: int, stop: int, by_use: bool = False
) -> tuple[int, Optional[tuple]]:
    """Depth-first search over the joint keys of ``a`` and ``b`` for the
    cells in the mask ``explore``.  The keys are assigned in ``_compile``'s
    product order, categorical then numeric, each sorted; with ``by_use``,
    the slots are sorted once, by most uses, then fewest values to try,
    then that order.  Each key runs through the values in its mask, in
    domain or sample order.

    A node where both formulas are decided marks its cell; a node whose
    reachable cells in ``explore`` are all marked is pruned, and so is the
    rest of a parent's subtree, checked before each further sibling.  The
    search stops once every cell of ``stop`` (a subset of ``explore``) is
    marked.  Returns the marked cells and, where it stopped, the keys, each
    numeric key's constants and the value indices of the node's first
    completion in product order (see ``_witness``), or None when it ran to
    the end; raises ResourceLimit on the node after the ``limit``-th.
    Only without ``by_use`` is that completion the first model of its cell
    in product order.
    """
    keys, order, sizes, masks, program, (root_a, root_b), uses = _compile(schema, (a, b))
    branch = order
    if by_use:
        rank = [(-u, m.bit_count()) for u, m in zip(uses, masks)]
        branch = sorted(order, key=rank.__getitem__)  # stable: ties keep product order
    at = sizes[:]  # each slot's value index; every key unassigned
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
                at[branch[len(path)]] = 0
                path.append(reach)
                continue
            seen |= reach
            if stop and seen & stop == stop:
                return seen, (keys, [at[k] if at[k] < sizes[k] else 0 for k in order])
        # Next sibling, or back up a level once the key's values run out or
        # the parent's subtree holds nothing more; a key backed out of is
        # unassigned again.
        while path:
            k = branch[len(path) - 1]
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
    (cat_keys, num_keys, constants), at = stopped
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

    One search of all four cells, branching first on the keys the most
    atoms read, stopped once the first three are marked, so a False fourth
    cell proves nothing unless one of those is False.  (Which cells such an
    early stop has marked depends on the branching order.)
    """
    seen, _ = _search(schema, a, b, limit, 0b1111, 0b0111, True)
    return ((seen & 1) != 0, (seen & 2) != 0, (seen & 4) != 0, (seen & 8) != 0)


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
    return not _search(schema, TRUE, f, limit, _A_NOT_B, _A_NOT_B, True)[0]


def is_contradiction(
    schema: Schema, f: Formula, *, limit: int = DEFAULT_ASSIGNMENT_LIMIT
) -> bool:
    """True iff ``f`` holds in no model: the cell ``f & !false`` is empty."""
    return not _search(schema, f, FALSE, limit, _A_NOT_B, _A_NOT_B, True)[0]
