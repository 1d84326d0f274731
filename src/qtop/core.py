"""Ground sets, bit-vector subsets, subset families, and topology axioms.

Every set of assertions is a bitmask over a fixed, ordered ground set:
label i is bit i, and ``GroundSet.mask_of`` and ``labels_of`` translate
between the two.  All values are immutable.  A family is its ascending
tuple of masks, so equality is structural; ``Subset`` objects are made
only at the API edge.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

MAX_GROUND_SIZE = 16


class GroundSetError(ValueError):
    """Invalid ground-set construction (duplicate, empty, or too many labels)."""


class UnknownLabelError(ValueError):
    """A label that does not belong to the ground set."""


class SizeLimitError(ValueError):
    """A size cap (ground width or enumeration limit) was exceeded."""


@dataclass(frozen=True)
class GroundSet:
    """Ordered finite set of irreducible assertions; order fixes bit indices."""

    labels: tuple[str, ...]
    _bits: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_bits", {l: 1 << i for i, l in enumerate(self.labels)}
        )

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def __contains__(self, label: str) -> bool:
        return isinstance(label, str) and label in self._bits

    def index(self, label: str) -> int:
        try:
            return self._bits[label].bit_length() - 1
        except (KeyError, TypeError):
            raise self._unknown(label) from None

    def mask_of(self, labels: Iterable[str]) -> int:
        bits = self._bits
        labels = iter(labels)  # a non-iterable raises here, not as a label
        mask = 0
        try:
            for label in labels:
                mask |= bits[label]
        except (KeyError, TypeError):
            raise self._unknown(label) from None
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        """The labels of ``mask``'s set bits, in bit order."""
        labels = self.labels
        if mask >> len(labels):  # a negative mask shifts to -1
            raise _outside_width(mask, self)
        out = []
        while mask:
            low = mask & -mask
            out.append(labels[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def _unknown(self, label: object) -> UnknownLabelError:
        return UnknownLabelError(
            f"label {label!r} is not in ground set {list(self.labels)}"
        )

    def subset(self, labels: Iterable[str] = ()) -> "Subset":
        return Subset(self.mask_of(labels), self)

    def empty(self) -> "Subset":
        return Subset(0, self)

    def full(self) -> "Subset":
        return Subset(self.full_mask, self)


def make_ground_set(labels: Iterable[str]) -> GroundSet:
    labels = tuple(labels)
    if len(labels) > MAX_GROUND_SIZE:
        raise GroundSetError(
            f"too many elements: {len(labels)} (limit {MAX_GROUND_SIZE})"
        )
    seen = set()
    for label in labels:
        if not isinstance(label, str) or not label:
            raise GroundSetError(f"empty or non-text label: {label!r}")
        if label in seen:
            raise GroundSetError(f"duplicate label: {label!r}")
        seen.add(label)
    return GroundSet(labels)


def _outside_width(mask: int, ground: GroundSet) -> ValueError:
    return ValueError(f"mask {mask:#x} has bits outside ground width {ground.size}")


@dataclass(frozen=True)
class Subset:
    """One subset of a ground set, encoded as a bitmask of its width."""

    mask: int
    ground: GroundSet

    def __post_init__(self) -> None:
        if self.mask & ~self.ground.full_mask:
            raise _outside_width(self.mask, self.ground)

    def labels(self) -> tuple[str, ...]:
        return self.ground.labels_of(self.mask)

    def __contains__(self, label: str) -> bool:
        return label in self.ground and (self.mask >> self.ground.index(label)) & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __or__(self, other: "Subset") -> "Subset":
        self._check_ground(other)
        return Subset(self.mask | other.mask, self.ground)

    def __and__(self, other: "Subset") -> "Subset":
        self._check_ground(other)
        return Subset(self.mask & other.mask, self.ground)

    def __sub__(self, other: "Subset") -> "Subset":
        self._check_ground(other)
        return Subset(self.mask & ~other.mask, self.ground)

    def __le__(self, other: "Subset") -> bool:
        self._check_ground(other)
        return self.mask & ~other.mask == 0

    def complement(self) -> "Subset":
        return Subset(self.ground.full_mask & ~self.mask, self.ground)

    def _check_ground(self, other: "Subset") -> None:
        if other.ground != self.ground:
            raise ValueError("subsets lie over different ground sets")

    def __repr__(self) -> str:
        return f"Subset({{{','.join(self.labels())}}})"


def complement(s: Subset) -> Subset:
    return s.complement()


@dataclass(frozen=True)
class SubsetFamily:
    """Duplicate-free collection of subsets, stored as the strictly
    ascending tuple of their masks; ``Subset`` objects are made only when
    the family is iterated, at the API edge.

    The direct constructor demands canonical input; use ``from_masks`` or
    ``of`` to canonicalize an arbitrary iterable.
    """

    masks: tuple[int, ...]
    ground: GroundSet

    def __post_init__(self) -> None:
        masks = self.masks
        if not all(map(operator.lt, masks, masks[1:])):
            raise ValueError("family members must be strictly ascending by mask")
        if masks and (masks[0] < 0 or masks[-1] > self.ground.full_mask):
            raise _outside_width(masks[0] if masks[0] < 0 else masks[-1], self.ground)

    @classmethod
    def of(cls, subsets: Iterable[Subset], ground: GroundSet) -> "SubsetFamily":
        return cls.from_masks((s.mask for s in subsets), ground)

    @classmethod
    def from_masks(cls, masks: Iterable[int], ground: GroundSet) -> "SubsetFamily":
        return cls(tuple(sorted(set(masks))), ground)

    def __iter__(self) -> Iterator[Subset]:
        return (Subset(m, self.ground) for m in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, s: Subset) -> bool:
        return s.ground == self.ground and s.mask in self.masks


@dataclass(frozen=True)
class AxiomViolation:
    """First failed topology axiom, with the sets that witness the failure."""

    axiom: str  # "C1", "C2" or "C3"
    message: str
    witnesses: tuple[Subset, ...] = ()


class TopologyError(ValueError):
    def __init__(self, violation: AxiomViolation):
        super().__init__(f"{violation.axiom} violated: {violation.message}")
        self.violation = violation


def is_topology(family: SubsetFamily) -> tuple[bool, AxiomViolation | None]:
    """Check axioms C1-C3; on failure report the first violation found.

    A family holding the empty and full sets is a topology iff it equals
    the topology it generates, an O(k*n) test that stops as soon as the
    generated opens outnumber the family's k.  Only a family that fails
    it is scanned pairwise, to name the first pair (in
    ``itertools.combinations`` order, union before intersection) whose
    union (C2) or intersection (C3) is missing.
    """
    ground = family.ground
    masks = family.masks
    present = set(masks)
    if 0 not in present:
        return False, AxiomViolation("C1", "the empty set is missing")
    if ground.full_mask not in present:
        return False, AxiomViolation("C1", "the full ground set is missing")
    if _union_closure(family, len(masks)) == present:
        return True, None
    for a, b in combinations(masks, 2):
        for axiom, name, m in (("C2", "union", a | b), ("C3", "intersection", a & b)):
            if m not in present:
                wa, wb = Subset(a, ground), Subset(b, ground)
                return False, AxiomViolation(
                    axiom, f"{name} of {wa!r} and {wb!r} is not in the family", (wa, wb)
                )
    raise AssertionError("C1 and pairwise closure hold, yet the family is no topology")


@dataclass(frozen=True)
class Topology:
    """A subset family satisfying C1-C3: a question, its opens the answers.

    The direct constructor trusts its input; ``make_topology`` validates.
    Results of negation and subspace restriction are topologies by
    construction and are built trusted.
    """

    family: SubsetFamily

    @property
    def ground(self) -> GroundSet:
        return self.family.ground

    @property
    def masks(self) -> tuple[int, ...]:
        return self.family.masks

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.family)

    def __len__(self) -> int:
        return len(self.family)

    @classmethod
    def discrete(cls, ground: GroundSet) -> "Topology":
        return cls(SubsetFamily.from_masks(range(ground.full_mask + 1), ground))

    @classmethod
    def indiscrete(cls, ground: GroundSet) -> "Topology":
        return cls(SubsetFamily.from_masks({0, ground.full_mask}, ground))


def make_topology(family: SubsetFamily) -> Topology:
    ok, violation = is_topology(family)
    if not ok:
        assert violation is not None
        raise TopologyError(violation)
    return Topology(family)


def minimal_opens(masks: tuple[int, ...], n: int) -> list[int]:
    """``U_x`` for every point x of an n-point ground, in bit order: the
    meet of the masks that contain x, or the full set if none does.  In
    a topology it is the smallest open containing x, and the n of them
    fix the topology (Alexandroff, 1937).  O(k*n) for k masks."""
    full = (1 << n) - 1
    out = []
    for i in range(n):
        bit = 1 << i
        u = full
        for m in masks:
            if m & bit:
                u &= m
        out.append(u)
    return out


def generated_topology(family: SubsetFamily) -> Topology:
    """Smallest topology containing every member of ``family``.

    Its opens are the unions of the minimal opens ``U_x`` (Alexandroff,
    1937), built in O(k*n) for k opens on n points.
    """
    # No family on n points generates more than 2^n opens, so this cap
    # never stops the closure early.
    opens = _union_closure(family, family.ground.full_mask + 1)
    return Topology(SubsetFamily.from_masks(opens, family.ground))


def _union_closure(family: SubsetFamily, cap: int) -> set[int]:
    """The unions of the minimal opens of ``family``, added point by
    point.  Stops as soon as they number more than ``cap``: the set only
    grows, so the generated topology then has more than ``cap`` opens."""
    opens = {0}
    for u in minimal_opens(family.masks, family.ground.size):
        opens |= {o | u for o in opens}
        if len(opens) > cap:
            break
    return opens
