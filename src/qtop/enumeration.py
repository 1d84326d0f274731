"""Enumeration of the full question space on small ground sets, question
efficiency, and parent questions on supersets."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from . import kernel
from .calculus import QuestionType, classify_question
from .core import GroundSet, SizeLimitError, SubsetFamily, Topology, UnknownLabelError
from .negation import machines_agree

ENUMERATION_LIMIT = kernel.MAX_N


def _check_size(n: int) -> None:
    if n > ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"enumeration limited to ground sets of at most {ENUMERATION_LIMIT} "
            f"elements, got {n}"
        )


@dataclass(frozen=True)
class EnumerationReport:
    """Summary of the question space on one ground set.

    ``census`` maps each label to its tally of type-1 and type-2 outcomes
    across all topologies; the two always sum to ``count``.
    """

    n: int
    count: int
    census: dict[str, dict[str, int]]
    self_dual_count: int


def enumerate_topologies(ground: GroundSet) -> Iterator[Topology]:
    """Every topology on ``ground`` exactly once, in ascending canonical
    order of the family encoding."""
    _check_size(ground.size)
    for masks in kernel.topology_masks(ground.size):
        yield Topology(SubsetFamily.from_masks(masks, ground))


def count_topologies(n: int) -> int:
    _check_size(n)
    return kernel.count_topology_masks(n)


def enumeration_report(ground: GroundSet) -> EnumerationReport:
    _check_size(ground.size)
    census = {
        label: {QuestionType.TYPE_I.value: 0, QuestionType.TYPE_II.value: 0}
        for label in ground.labels
    }
    count = 0
    self_dual = 0
    for t in enumerate_topologies(ground):
        count += 1
        if machines_agree(t):
            self_dual += 1
        for label in ground.labels:
            kind = classify_question(t, label).kind
            census[label][kind.value] += 1
    return EnumerationReport(ground.size, count, census, self_dual)


def find_definite_questions(ground: GroundSet, x: str) -> Iterator[Topology]:
    """Topologies whose every non-empty open contains ``x``: asking them
    resolves the whole space in one step."""
    _check_size(ground.size)
    bit = 1 << ground.index(x)
    forbidden = sum(1 << m for m in range(1, ground.full_mask + 1) if not m & bit)
    for masks in kernel.topology_masks(ground.size, forbidden=forbidden):
        yield Topology(SubsetFamily.from_masks(masks, ground))


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
    index = [superset_ground.index(l) for l in t.ground.labels]

    def embed(m: int) -> int:
        out = 0
        for i, j in enumerate(index):
            if (m >> i) & 1:
                out |= 1 << j
        return out

    required = sum(1 << embed(m) for m in t.masks)
    found = (
        Topology(SubsetFamily.from_masks(masks, superset_ground))
        for masks in kernel.topology_masks(superset_ground.size, required=required)
    )
    yield from itertools.islice(found, limit)
