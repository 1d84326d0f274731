"""Enumeration of the full question space on small ground sets, question
efficiency, and parent questions on supersets."""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from . import kernel
from .calculus import QuestionType, classify_question
from .core import (
    Frozen,
    GroundSet,
    SizeLimitError,
    SubsetFamily,
    Topology,
    UnknownLabelError,
    _set,
    minimal_opens,
)
from .negation import _symmetric

ENUMERATION_LIMIT = kernel.MAX_N


def _check_size(n: int) -> None:
    if n > ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"enumeration limited to ground sets of at most {ENUMERATION_LIMIT} "
            f"elements, got {n}"
        )


class EnumerationReport(Frozen):
    """Summary of the question space on one ground set.

    ``census`` maps each label to its tally of type-1 and type-2 outcomes
    across all topologies; the two always sum to ``count``.
    """

    __slots__ = _fields = ("n", "count", "census", "self_dual_count")

    def __init__(
        self,
        n: int,
        count: int,
        census: dict[str, dict[str, int]],
        self_dual_count: int,
    ) -> None:
        _set(self, "n", n)
        _set(self, "count", count)
        _set(self, "census", census)
        _set(self, "self_dual_count", self_dual_count)


def enumerate_topologies(ground: GroundSet) -> Iterator[Topology]:
    """Every topology on ``ground`` exactly once, in ascending canonical
    order of the family encoding."""
    _check_size(ground.size)
    # Kernel tuples are strictly ascending and in range: no re-sort.
    for masks in kernel.topology_masks(ground.size):
        yield Topology(SubsetFamily(masks, ground))


def count_topologies(n: int) -> int:
    _check_size(n)
    return kernel.count_topology_masks(n)


def enumeration_report(ground: GroundSet) -> EnumerationReport:
    """Tally every topology on ``ground`` from its n minimal opens ``U_x``
    alone, with no per-topology objects.

    A point x is type-2 iff it lies in every ``U_y``, for then every
    non-empty open, a union of minimal opens, contains x; every other
    point is type-1.  A topology is self-dual (equal to its negation)
    iff every point y of each ``U_x`` has ``U_y == U_x``.
    """
    n = ground.size
    _check_size(n)
    all_masks = kernel.topology_masks(n)
    self_dual = 0
    # Topologies per meet of their minimal opens, spread over the points
    # once at the end.
    meets: dict[int, int] = {}
    for masks in all_masks:
        us = minimal_opens(masks, n)
        self_dual += _symmetric(us)
        meet = ground.full_mask
        for u in us:
            meet &= u
        meets[meet] = meets.get(meet, 0) + 1
    count = len(all_masks)
    census = {}
    for i, label in enumerate(ground.labels):
        definite = sum(k for meet, k in meets.items() if (meet >> i) & 1)
        census[label] = {
            QuestionType.TYPE_I.value: count - definite,
            QuestionType.TYPE_II.value: definite,
        }
    return EnumerationReport(n, count, census, self_dual)


def find_definite_questions(ground: GroundSet, x: str) -> Iterator[Topology]:
    """Topologies whose every non-empty open contains ``x``: asking them
    resolves the whole space in one step."""
    _check_size(ground.size)
    bit = 1 << ground.index(x)
    forbidden = sum(1 << m for m in range(1, ground.full_mask + 1) if not m & bit)
    for masks in kernel.topology_masks(ground.size, forbidden=forbidden):
        yield Topology(SubsetFamily(masks, ground))


def elimination_efficiency(t: Topology, x: str) -> int:
    """Assertions eliminated by resolving ``x`` once: the whole space for a
    definite answer, nothing for an irrelevant point."""
    outcome = classify_question(t, x)
    if outcome.kind is QuestionType.TYPE_II:
        return t.ground.size
    if outcome.kind is QuestionType.TYPE_III:
        return 0
    assert outcome.carrier is not None
    return t.ground.size - len(outcome.carrier)


def parent_questions(
    t: Topology, superset_ground: GroundSet, limit: int | None = None
) -> Iterator[Topology]:
    """Topologies on the larger ground set containing every open of ``t``
    (re-embedded by label identity)."""
    _check_size(superset_ground.size)
    missing = [l for l in t.ground.labels if l not in superset_ground]
    if missing:
        raise UnknownLabelError(
            f"labels {missing} of the sub-question are not in the superset ground"
        )
    required = sum(
        1 << superset_ground.mask_of(t.ground.labels_of(m)) for m in t.masks
    )
    found = (
        Topology(SubsetFamily(masks, superset_ground))
        for masks in kernel.topology_masks(superset_ground.size, required=required)
    )
    yield from itertools.islice(found, limit)
