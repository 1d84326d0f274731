"""Enumeration of the full question space on small ground sets, question
efficiency, and parent questions on supersets."""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterator

from . import kernel
from .calculus import QuestionType, resolve_issue
from .core import Frozen, GroundSet, SizeLimitError, Topology

__all__ = [
    "ENUMERATION_LIMIT",
    "EnumerationReport",
    "count_topologies",
    "elimination_efficiency",
    "enumerate_topologies",
    "enumeration_report",
    "find_definite_questions",
    "parent_questions",
]

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
    across all topologies; the two always sum to ``count``.  Every label
    has the same tally: relabeling the points permutes the topologies
    and keeps each point's type.  ``self_dual_count`` is the Bell number
    B(n): the preorder of a self-dual topology is an equivalence relation.
    """

    __slots__ = _fields = ("n", "count", "census", "self_dual_count")


def enumerate_topologies(ground: GroundSet) -> Iterator[Topology]:
    """Every topology on ``ground`` exactly once, in ascending canonical
    order of the family encoding."""
    _check_size(ground.size)
    # Kernel tuples are strictly ascending and in range: no checks.
    for masks in kernel.topology_masks(ground.size):
        yield Topology._trusted(masks, ground)


def count_topologies(n: int) -> int:
    _check_size(n)
    return kernel.count_topology_masks(n)


def enumeration_report(ground: GroundSet) -> EnumerationReport:
    """Census of every topology on ``ground`` from A000798, one
    constrained kernel search and a Bell number, with no per-topology
    work.

    - The count is A000798(n), read from the kernel's table.
    - Every point has the same tally.  A permutation of the points maps
      the topologies on ``ground`` one-to-one onto themselves and carries
      the type of x to the type of its image, so one point's tally serves
      them all.
    - x is type-2 iff every non-empty open contains x, so the type-2
      tally is the length of the search whose every non-empty open
      holds x (the one ``find_definite_questions`` runs); every other
      topology leaves x type-1.
    - A topology equals its negation iff its specialization preorder
      ``y in U_x`` is symmetric (Alexandroff, 1937: a finite topology is
      its preorder).  A symmetric preorder is an equivalence relation,
      and every equivalence relation is the preorder of the topology its
      classes generate, so the self-dual topologies are counted by the
      set partitions: B(n).
    """
    n = ground.size
    count = count_topologies(n)
    # Point 0 stands for every point; on the empty ground it goes unused.
    definite = len(kernel.topology_masks(n, point=1))
    census = {
        label: {
            QuestionType.TYPE_I.value: count - definite,
            QuestionType.TYPE_II.value: definite,
        }
        for label in ground.labels
    }
    return EnumerationReport(n, count, census, _bell(n))


def _bell(n: int) -> int:
    """B(n) by the Bell triangle: each row opens with the last entry of
    the row above, and each further entry adds the entry above its left
    neighbour to that neighbour."""
    row = [1]
    for _ in range(n):
        below = [row[-1]]
        for v in row:
            below.append(below[-1] + v)
        row = below
    return row[0]


def find_definite_questions(ground: GroundSet, x: str) -> Iterator[Topology]:
    """Topologies whose every non-empty open contains ``x``: asking them
    resolves the whole space in one step."""
    _check_size(ground.size)
    for masks in kernel.topology_masks(ground.size, point=ground.mask_of((x,))):
        yield Topology._trusted(masks, ground)


def elimination_efficiency(t: Topology, x: str) -> int:
    """Assertions eliminated by resolving ``x`` once: the points outside
    the largest open left, so the whole space for a definite answer, and
    nothing for an irrelevant point, which leaves no open."""
    left = resolve_issue(t, x).masks
    return t.ground.size - left[-1].bit_count() if left else 0


def parent_questions(
    t: Topology, superset_ground: GroundSet, limit: int | None = None
) -> Iterator[Topology]:
    """Topologies on the larger ground set containing every open of ``t``
    (re-embedded by label identity)."""
    _check_size(superset_ground.size)
    required = sum(
        1 << superset_ground.mask_of(t.ground.labels_of(m)) for m in t.masks
    )
    found = (
        Topology._trusted(masks, superset_ground)
        for masks in kernel.topology_masks(superset_ground.size, required=required)
    )
    if limit is not None:
        limit = min(limit, sys.maxsize)  # islice refuses more; no stream comes near it
    yield from itertools.islice(found, limit)
