"""Enumeration of the full question space on small ground sets, question
efficiency, and parent questions on supersets."""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterator

from . import kernel
from .calculus import QuestionType, resolve_issue
from .core import Frozen, GroundSet, Topology

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

# B(n), the number of set partitions of n points (OEIS A000110), for
# every n that ``count_topologies`` accepts.
A000110 = (1, 1, 2, 5, 15, 52)


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
    # Kernel tuples are strictly ascending and in range: no checks.
    for masks in kernel.topology_masks(ground.size):
        yield Topology._trusted(masks, ground)


def count_topologies(n: int) -> int:
    return kernel.count_topology_masks(n)


def enumeration_report(ground: GroundSet) -> EnumerationReport:
    """Census of every topology on ``ground`` from the published tables
    A000798 and A000110 and arithmetic: no kernel search and no
    per-topology work.

    - The count is A000798(n), read from the kernel's table.
    - Every point has the same tally.  A permutation of the points maps
      the topologies on ``ground`` one-to-one onto themselves and carries
      the type of x to the type of its image, so one point's tally serves
      them all.
    - x is type-2 iff x lies in every non-empty open, so iff x is in U_y
      for every y: x is a least point of the specialization preorder.
      Such a preorder is fixed by two choices: the class B of x, that is
      the j other points y with y <= x, in C(n-1, j) ways, and any
      preorder on the n-1-j points outside B, which all lie above B, in
      A000798(n-1-j) ways.  The two choices together are a bijection, so
      the type-2 tally is the sum over j of C(n-1, j) A000798(n-1-j):
      1, 2, 7, 45, 500 for n = 1 .. 5, the lengths of the searches
      ``find_definite_questions`` runs.  Every other topology leaves x
      type-1.
    - A topology equals its negation iff its specialization preorder
      ``y in U_x`` is symmetric (Alexandroff, 1937: a finite topology is
      its preorder).  A symmetric preorder is an equivalence relation,
      and every equivalence relation is the preorder of the topology its
      classes generate, so the self-dual topologies are counted by the
      set partitions: the Bell number B(n), read from OEIS A000110.
    """
    n = ground.size
    count = count_topologies(n)
    # One point stands for every point; on the empty ground the sum is
    # empty and no label uses it.
    definite = sum(math.comb(n - 1, j) * kernel.A000798[n - 1 - j] for j in range(n))
    census = {
        label: {
            QuestionType.TYPE_I.value: count - definite,
            QuestionType.TYPE_II.value: definite,
        }
        for label in ground.labels
    }
    return EnumerationReport(n, count, census, A000110[n])


def find_definite_questions(ground: GroundSet, x: str) -> Iterator[Topology]:
    """Topologies whose every non-empty open contains ``x``: asking them
    resolves the whole space in one step."""
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
    (re-embedded by label identity), in ascending order: the superset's
    full search, filtered by each open of ``t`` but the empty one, which
    every family holds."""
    # The search is the size check: it runs before any label is looked
    # up, so a superset both too large and missing a label reports its size.
    families = kernel.topology_masks(superset_ground.size)
    for m in t.masks[1:]:
        s = superset_ground.mask_of(t.ground.labels_of(m))
        families = [f for f in families if s in f]
    found = (Topology._trusted(masks, superset_ground) for masks in families)
    if limit is not None:
        limit = min(limit, sys.maxsize)  # islice refuses more; no stream comes near it
    yield from itertools.islice(found, limit)
