"""Neighborhood systems, the elimination operator T - N(x), and the
three-way classification of questions.

Removing the neighborhood system of a point from a topology leaves the
opens that avoid the point.  Three outcomes are possible: the remainder is
a topology on a smaller carrier (a sub-question), it is exactly {empty}
(a definite answer), or the point was never in the space at all and the
remainder is empty (an irrelevant question).
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from .core import Frozen, GroundSet, GroundSetError, Subset, SubsetFamily, Topology

__all__ = [
    "QuestionType",
    "ResolutionOutcome",
    "ResolutionStep",
    "classify_question",
    "neighborhood_system",
    "open_sets_containing",
    "resolve_issue",
    "resolve_sequence",
    "subspace_topology",
]


class QuestionType(enum.Enum):
    TYPE_I = "type-1"
    TYPE_II = "type-2"
    TYPE_III = "type-3"


class ResolutionOutcome(Frozen):
    """Classified result of eliminating one point from a question.

    ``carrier`` is present only for TYPE_I: the union of all opens that
    avoid the point, on which ``result_family`` is a subspace topology.
    """

    __slots__ = _fields = ("kind", "result_family", "carrier")
    _defaults = {"carrier": None}


class ResolutionStep(Frozen):
    """One step of an iterated elimination chain: a point and its outcome."""

    __slots__ = _fields = ("point", "outcome")


def open_sets_containing(t: Topology, x: str) -> SubsetFamily:
    """The open members of the neighborhood system of ``x``."""
    bit = t.ground.mask_of((x,))
    # A filter of an ascending tuple is ascending: nothing to check.
    return SubsetFamily._trusted(tuple(m for m in t.masks if m & bit), t.ground)


def neighborhood_system(t: Topology, x: str) -> SubsetFamily:
    """All supersets of some open set containing ``x`` (not necessarily open)."""
    # Every neighborhood of x is a superset of U_x, the smallest open
    # containing x; it lies inside every other such open, so it is also
    # the numerically smallest.
    base = open_sets_containing(t, x).masks[0]
    full = t.ground.full_mask
    # Every superset of base, ascending: the next is the least mask
    # above m that keeps base's bits.
    found = [m := base]
    while m != full:
        m = (m + 1) | base
        found.append(m)
    return SubsetFamily._trusted(tuple(found), t.ground)


def resolve_issue(t: Topology, x: str) -> SubsetFamily:
    """The family T - N(x): every open that does not contain ``x``.

    A point outside the ground set yields the empty family (the question
    was irrelevant to this space).
    """
    if x not in t.ground:
        return SubsetFamily._trusted((), t.ground)
    bit = t.ground.mask_of((x,))
    return SubsetFamily._trusted(tuple(m for m in t.masks if not m & bit), t.ground)


def classify_question(t: Topology, x: str) -> ResolutionOutcome:
    """Classify the elimination of ``x``: sub-question, definite answer,
    or irrelevant."""
    result = resolve_issue(t, x)
    # Every topology holds the empty set (C1), so only a point outside
    # the ground leaves nothing.
    if not result.masks:
        return ResolutionOutcome(QuestionType.TYPE_III, result)
    # The union of the opens that avoid x is open (C2), so it is the
    # largest of them.
    carrier = result.masks[-1]
    if not carrier:
        return ResolutionOutcome(QuestionType.TYPE_II, result)
    return ResolutionOutcome(QuestionType.TYPE_I, result, Subset(carrier, t.ground))


def subspace_topology(t: Topology, a: int) -> Topology:
    """Restrict ``t`` to the points of the mask ``a``: intersect every open
    with ``a`` and re-pack its bits onto the smaller ground set, bit by
    bit (labels and their relative order are inherited)."""
    sub_ground = GroundSet(t.ground.labels_of(a))  # refuses a mask outside the width
    kept = [i for i in range(t.ground.size) if a >> i & 1]
    repacked = {sum(1 << j for j, i in enumerate(kept) if m >> i & 1) for m in t.masks}
    return Topology._trusted(tuple(sorted(repacked)), sub_ground)


def resolve_sequence(t: Topology, order: Iterable[str]) -> list[ResolutionStep]:
    """Eliminate points in the given order, descending into the subspace
    after every TYPE_I step; stops at the first TYPE_II or TYPE_III.

    Only text names a point, so only text points must be distinct: any
    other value is absent, and the sequence ends there, type-3."""
    order = list(order)
    labels = [x for x in order if isinstance(x, str)]
    if len(set(labels)) != len(labels):
        raise GroundSetError("points to resolve must be distinct")
    steps: list[ResolutionStep] = []
    current = t
    for x in order:
        outcome = classify_question(current, x)
        steps.append(ResolutionStep(x, outcome))
        if outcome.carrier is None:
            break
        current = subspace_topology(current, outcome.carrier.mask)
    return steps
