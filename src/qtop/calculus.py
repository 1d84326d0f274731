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

from .core import Frozen, GroundSet, GroundSetError, Subset, SubsetFamily, Topology


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
    bit = 1 << t.ground.index(x)
    # A filter of an ascending tuple is ascending: nothing to check.
    return SubsetFamily._trusted(tuple(m for m in t.masks if m & bit), t.ground)


def neighborhood_system(t: Topology, x: str) -> SubsetFamily:
    """All supersets of some open set containing ``x`` (not necessarily open)."""
    # Every neighborhood of x is a superset of U_x, the smallest open
    # containing x; it lies inside every other such open, so it is also
    # the numerically smallest.
    base = open_sets_containing(t, x).masks[0]
    rest = t.ground.full_mask & ~base
    found = []
    # iterate all supersets of base, descending: base | (submask of rest)
    sub = rest
    while True:
        found.append(base | sub)
        if sub == 0:
            break
        sub = (sub - 1) & rest
    return SubsetFamily._trusted(tuple(reversed(found)), t.ground)


def resolve_issue(t: Topology, x: str) -> SubsetFamily:
    """The family T - N(x): every open that does not contain ``x``.

    A point outside the ground set yields the empty family (the question
    was irrelevant to this space).
    """
    if x not in t.ground:
        return SubsetFamily._trusted((), t.ground)
    bit = 1 << t.ground.index(x)
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


def subspace_topology(t: Topology, a: Subset) -> Topology:
    """Restrict ``t`` to the subset ``a``: intersect every open with ``a``
    and re-pack bits onto the smaller ground set (labels and their relative
    order are inherited)."""
    if a.ground != t.ground:
        raise ValueError("carrier lies over a different ground set")
    sub_ground = GroundSet(a.labels())
    repacked = {sub_ground.mask_of(t.ground.labels_of(m & a.mask)) for m in t.masks}
    return Topology._trusted(tuple(sorted(repacked)), sub_ground)


def resolve_sequence(t: Topology, order: list[str]) -> list[ResolutionStep]:
    """Eliminate points in the given order, descending into the subspace
    after every TYPE_I step; stops at the first TYPE_II or TYPE_III."""
    if len(set(order)) != len(order):
        raise GroundSetError("points to resolve must be distinct")
    steps: list[ResolutionStep] = []
    current = t
    for x in order:
        outcome = classify_question(current, x)
        steps.append(ResolutionStep(x, outcome))
        if outcome.kind is not QuestionType.TYPE_I:
            break
        assert outcome.carrier is not None
        current = subspace_topology(current, outcome.carrier)
    return steps
