"""Eight-way classification of (input, output) MR pairs and legacy labels.

The verdict is decided purely by entailment facts, which are fixed by which
of the cells input & output, input & !output, !input & output and
!input & !output have a model; ``decide`` finds the cells in one search.
With f = input |= output and b = output |= input:

    f and b          0-well-matched
    f and not b      1b-tautologous when the output is a tautology, else 1a-too-weak
    not f and b      2b-self-contradictory when the output is a contradiction, else 2a-too-strong
    not f and not b  3b-conflicting when input |= !(output), else 3a-independent

An unsatisfiable input gets its own verdict instead of a forced category:
every entailment from it holds vacuously, so the seven categories above are
only meaningful for consistent inputs.  One consequence worth spelling out:
a tautologous input paired with a tautologous output is 0, not 1b, because
1b additionally requires that the output not entail the input.

``legacy_labels`` restates a verdict in two older vocabularies: hallucination
(output not entailed by input) and omission (input not entailed by output)
as one pair of booleans, and intrinsic (source contradicts output) versus
extrinsic (source neither supports nor contradicts output) hallucination.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Optional

from .entail import DEFAULT_ASSIGNMENT_LIMIT, ResourceLimit, pair_cells, satisfiable
from .mr import Formula, MrError, Schema, _Record, _set


class Verdict(Enum):
    """Classification of an output MR against its input MR.

    The values are the stable serialization names used in reports; their
    ascending sort order matches declaration order.
    """

    WELL_MATCHED = "0-well-matched"
    TOO_WEAK = "1a-too-weak"
    TAUTOLOGOUS = "1b-tautologous"
    TOO_STRONG = "2a-too-strong"
    SELF_CONTRADICTORY = "2b-self-contradictory"
    INDEPENDENT = "3a-independent"
    CONFLICTING = "3b-conflicting"
    INCONSISTENT_INPUT = "inconsistent-input"


class JiLabel(Enum):
    INTRINSIC = "intrinsic"
    EXTRINSIC = "extrinsic"


class LegacyLabels(_Record):
    """The same verdict in two earlier vocabularies.

    ``ji`` is None where the intrinsic/extrinsic split does not apply
    (nothing was hallucinated).
    """

    __slots__ = __match_args__ = _fields = ("dusek_hallucination", "dusek_omission", "ji")
    dusek_hallucination: bool
    dusek_omission: bool
    ji: Optional[JiLabel]

    def __init__(self, dusek_hallucination: bool, dusek_omission: bool, ji: Optional[JiLabel]):
        _set(self, "dusek_hallucination", dusek_hallucination)
        _set(self, "dusek_omission", dusek_omission)
        _set(self, "ji", ji)


class UnmappableVerdict(MrError):
    """The verdict has no legacy-label counterpart."""


class PairFacts(_Record):
    """The entailment facts that define a pair's verdict, and the verdict."""

    __slots__ = __match_args__ = _fields = (
        "input_satisfiable", "forward", "backward", "conflict", "verdict"
    )
    input_satisfiable: bool
    forward: bool  # input |= output
    backward: bool  # output |= input
    conflict: bool  # input |= !output
    verdict: Verdict

    def __init__(
        self, input_satisfiable: bool, forward: bool, backward: bool, conflict: bool, verdict: Verdict
    ):
        _set(self, "input_satisfiable", input_satisfiable)
        _set(self, "forward", forward)
        _set(self, "backward", backward)
        _set(self, "conflict", conflict)
        _set(self, "verdict", verdict)


def _facts(both: bool, input_only: bool, output_only: bool, neither: bool) -> PairFacts:
    """The facts and verdict of a pair whose cells input & output, input &
    !output, !input & output and !input & !output are as given."""
    consistent = both or input_only
    forward = not input_only
    backward = not output_only
    if not consistent:
        verdict = Verdict.INCONSISTENT_INPUT
    elif forward and backward:
        verdict = Verdict.WELL_MATCHED
    elif forward:
        verdict = Verdict.TOO_WEAK if neither else Verdict.TAUTOLOGOUS
    elif backward:
        verdict = Verdict.TOO_STRONG if both else Verdict.SELF_CONTRADICTORY
    elif both:
        verdict = Verdict.INDEPENDENT
    else:
        verdict = Verdict.CONFLICTING
    return PairFacts(consistent, forward, backward, not both, verdict)


# Every pattern of cells has its facts made once, here.
_FACTS = {cells: _facts(*cells) for cells in itertools.product((False, True), repeat=4)}


def decide(
    schema: Schema,
    input_mr: Formula,
    output_mr: Formula,
    *,
    limit: int = DEFAULT_ASSIGNMENT_LIMIT,
) -> PairFacts:
    """The pair's facts and verdict, looked up in a table of the 16 cell
    patterns by the cells one search over the pair's joint keys finds;
    raises ResourceLimit when that search needs more than ``limit`` nodes."""
    return _FACTS[pair_cells(schema, input_mr, output_mr, limit=limit)]


def classify(
    schema: Schema,
    input_mr: Formula,
    output_mr: Formula,
    *,
    limit: int = DEFAULT_ASSIGNMENT_LIMIT,
) -> Verdict:
    """Assign the unique verdict for this (input, output) pair.

    A pair whose joint search goes over ``limit`` falls back to the
    input's own, smaller search: an unsatisfiable input is still
    inconsistent-input; otherwise ResourceLimit is raised."""
    try:
        return decide(schema, input_mr, output_mr, limit=limit).verdict
    except ResourceLimit:
        if satisfiable(schema, input_mr, limit=limit):
            raise
        return Verdict.INCONSISTENT_INPUT


# Each row is a theorem of the legacy definitions given the verdict's
# defining entailment facts, so no solver call is needed here.
_LEGACY = {
    Verdict.WELL_MATCHED: LegacyLabels(False, False, None),
    Verdict.TOO_WEAK: LegacyLabels(False, True, None),
    Verdict.TAUTOLOGOUS: LegacyLabels(False, True, None),
    Verdict.TOO_STRONG: LegacyLabels(True, False, JiLabel.EXTRINSIC),
    Verdict.SELF_CONTRADICTORY: LegacyLabels(True, False, JiLabel.INTRINSIC),
    Verdict.INDEPENDENT: LegacyLabels(True, True, JiLabel.EXTRINSIC),
    Verdict.CONFLICTING: LegacyLabels(True, True, JiLabel.INTRINSIC),
}


def legacy_labels(verdict: Verdict) -> LegacyLabels:
    """Map a verdict to hallucination/omission flags and the Ji split."""
    try:
        return _LEGACY[verdict]
    except KeyError:
        raise UnmappableVerdict(
            f"no legacy labels for {verdict.value}: the older schemes assume a consistent input"
        ) from None
