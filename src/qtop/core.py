"""Ground sets, bit-vector subsets, subset families, and topology axioms.

Every set of assertions is a bitmask over a fixed, ordered ground set:
label i is bit i, and ``GroundSet.mask_of`` and ``labels_of`` translate
between the two where labels enter or leave: the wire, a point a caller
names, and the parent embedding.  All values are immutable.  A family
is its ascending tuple of masks, so equality is structural, and all set
algebra is done on the masks.  A ``Subset`` is only a record the library
writes and no function takes: a type-1 carrier or an axiom-violation
witness.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Iterable

__all__ = [
    "MAX_GROUND_SIZE",
    "AxiomViolation",
    "GroundSet",
    "GroundSetError",
    "SizeLimitError",
    "Subset",
    "SubsetFamily",
    "Topology",
    "TopologyError",
    "UnknownLabelError",
    "generated_topology",
    "is_topology",
    "make_ground_set",
    "make_topology",
]

MAX_GROUND_SIZE = 16


class GroundSetError(ValueError):
    """Invalid ground-set construction (duplicate, empty, or too many labels)."""


class UnknownLabelError(ValueError):
    """A label that does not belong to the ground set."""

    label: object = None  # the offending label, when one label is at fault


class SizeLimitError(ValueError):
    """The enumeration size limit was exceeded."""


_set = object.__setattr__


class Frozen:
    """Immutable slotted value.  ``==`` (same class only), ``hash``,
    ``repr``, pickling and the constructor read ``_fields``, the
    constructor's arguments in order; slots are filled with ``_set``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        # The fields in one C call: the value of one, a tuple of several.
        cls._key = staticmethod(operator.attrgetter(*cls._fields))

    def __init__(self, *args: object, **kwargs: object) -> None:
        """Bind the arguments to ``_fields`` as a ``def`` with those
        parameters would; a field not given takes its ``_defaults`` value."""
        fields = self._fields
        name = self.__class__.__qualname__
        if len(args) > len(fields) or kwargs.keys() - fields[len(args):]:
            raise TypeError(
                f"{name}{fields} got {len(args)} positional arguments and the "
                f"keywords {sorted(kwargs)}: too many, unknown or repeated"
            )
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if len(values) < len(fields):
            missing = [f for f in fields if f not in values]
            raise TypeError(f"{name}{fields} is missing {missing}")
        for f in fields:
            _set(self, f, values[f])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Rebuild through ``__init__``: the default protocol would set
        # the slots through the raising ``__setattr__``.
        return self.__class__, tuple([getattr(self, f) for f in self._fields])


class GroundSet(Frozen):
    """Ordered finite set of irreducible assertions; order fixes bit indices.

    The constructor checks everything a ground set promises: a tuple of
    at most ``MAX_GROUND_SIZE`` distinct, non-empty text labels.  Every
    public constructor in this module checks its type's promises; only
    results the code builds itself skip them, through ``_trusted``."""

    __slots__ = ("labels", "_bits", "_json")
    _fields = ("labels",)

    def __init__(self, labels: tuple[str, ...]) -> None:
        if not isinstance(labels, tuple):
            raise TypeError(f"ground labels must be a tuple, got {type(labels).__name__}")
        if len(labels) > MAX_GROUND_SIZE:
            raise GroundSetError(
                f"too many elements: {len(labels)} (limit {MAX_GROUND_SIZE})"
            )
        bits: dict[str, int] = {}
        for label in labels:
            if not isinstance(label, str) or not label:
                raise GroundSetError(f"empty or non-text label: {label!r}")
            if label in bits:
                raise GroundSetError(f"duplicate label: {label!r}")
            bits[label] = 1 << len(bits)
        _set(self, "labels", labels)
        _set(self, "_bits", bits)
        # The JSON text of each byte value's labels: the low byte's from
        # labels[:8], the high byte's from labels[8:] (just [""] on 8
        # points or fewer), each non-empty high entry led by its comma.
        high = [f",{t}" if t else t for t in _json_table(labels[8:])]
        _set(self, "_json", (_json_table(labels[:8]), high))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def __contains__(self, label: str) -> bool:
        return isinstance(label, str) and label in self._bits

    def mask_of(self, labels: Iterable[str]) -> int:
        bits = self._bits
        mask = 0
        for label in labels:  # the iterable's own failure passes through
            try:
                mask |= bits[label]
            except (KeyError, TypeError):
                raise self._unknown(label) from None
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        """The labels of ``mask``'s set bits, in bit order."""
        if mask >> len(self.labels):  # a negative mask shifts to -1
            raise _outside_width(mask, self)
        return tuple([label for i, label in enumerate(self.labels) if mask >> i & 1])

    def _json_items(self, masks: Iterable[int]) -> list[str]:
        """Each mask's labels as the items of a compact JSON array, the
        text between its brackets: ``json.dumps`` of each label,
        comma-joined, in bit order.  The masks must lie within the
        width.  Two lookups per mask in the ``_json`` tables the
        constructor built: the low byte's entry, then the high byte's,
        whose leading comma is dropped after an empty low entry."""
        low, high = self._json
        return [lo + high[m >> 8] if (lo := low[m & 255]) else high[m >> 8][1:] for m in masks]

    def _json_array(self, mask: int) -> str:
        """``mask``'s labels as a compact JSON array."""
        return f"[{self._json_items((mask,))[0]}]"

    def _unknown(self, label: object) -> UnknownLabelError:
        error = UnknownLabelError(f"label {label!r} is not in ground set {list(self.labels)}")
        error.label = label
        return error


def _json_table(labels: tuple[str, ...]) -> list[str]:
    """For at most 8 labels: entry m holds the ``json.dumps`` of the
    labels of m's set bits, comma-joined in bit order.  Each label
    doubles the table."""
    table = [""]
    for text in map(json.dumps, labels):
        table += [f"{t},{text}" if t else text for t in table]
    return table


def make_ground_set(labels: Iterable[str]) -> GroundSet:
    """A ``GroundSet`` on any iterable of labels.  The checks are the
    constructor's, as for every public way in: only results the code
    builds itself skip them."""
    return GroundSet(tuple(labels))


def _outside_width(mask: int, ground: GroundSet) -> ValueError:
    return ValueError(f"mask {mask:#x} has bits outside ground width {ground.size}")


class Subset(Frozen):
    """One subset of a ground set, encoded as a bitmask of its width: a
    record the library writes and no function takes, printed as its
    labels."""

    __slots__ = _fields = ("mask", "ground")

    def __init__(self, mask: int, ground: GroundSet) -> None:
        if mask & ~ground.full_mask:
            raise _outside_width(mask, ground)
        _set(self, "mask", mask)
        _set(self, "ground", ground)

    def __repr__(self) -> str:
        return f"Subset({self.ground._json_array(self.mask)})"


class SubsetFamily(Frozen):
    """Duplicate-free collection of subsets, stored as the strictly
    ascending tuple of their integer masks.

    The direct constructor demands canonical input; use ``from_masks`` to
    canonicalize an arbitrary iterable of masks.
    """

    __slots__ = _fields = ("masks", "ground")

    def __init__(self, masks: tuple[int, ...], ground: GroundSet) -> None:
        if not isinstance(masks, tuple):
            raise TypeError(f"family masks must be a tuple, got {type(masks).__name__}")
        masks = tuple(map(operator.index, masks))  # TypeError on any non-integer mask
        if not all(map(operator.lt, masks, masks[1:])):
            raise ValueError("family members must be strictly ascending by mask")
        if masks and (masks[0] < 0 or masks[-1] > ground.full_mask):
            raise _outside_width(masks[0] if masks[0] < 0 else masks[-1], ground)
        _set(self, "masks", masks)
        _set(self, "ground", ground)

    @classmethod
    def _trusted(cls, masks: tuple[int, ...], ground: GroundSet) -> "SubsetFamily":
        """A ``cls`` on ``masks`` without the constructor's checks: the
        one way in that skips them, for results the code built itself.
        The caller guarantees what ``cls`` promises: a tuple that is
        strictly ascending and within ``ground``'s width, and for a
        ``Topology`` also C1-C3."""
        family = object.__new__(cls)
        _set_masks(family, masks)
        _set_ground(family, ground)
        return family

    @classmethod
    def from_masks(cls, masks: Iterable[int], ground: GroundSet) -> "SubsetFamily":
        return cls(tuple(sorted(set(masks))), ground)

    def __len__(self) -> int:
        return len(self.masks)


# The slot descriptors' setters, bound once: ``_trusted`` fills a family
# without looking up ``object.__setattr__`` and the slot by name.
_set_masks = SubsetFamily.masks.__set__
_set_ground = SubsetFamily.ground.__set__


class AxiomViolation(Frozen):
    """First failed topology axiom ("C1", "C2" or "C3"), with the sets
    that witness the failure."""

    __slots__ = _fields = ("axiom", "message", "witnesses")
    _defaults = {"witnesses": ()}


class TopologyError(ValueError):
    """A family that fails C1-C3."""

    violation: AxiomViolation | None = None  # the first violation found


def is_topology(family: SubsetFamily) -> tuple[bool, AxiomViolation | None]:
    """Check axioms C1-C3; on failure report the first violation found.

    Past C1, let ``V_x`` be the first member, in ascending order, that
    holds the point x.  The family is a topology iff the ``V_x`` are
    transitive (y in ``V_x`` implies ``V_y`` within ``V_x``) and their
    unions are exactly the family.  In a topology ``V_x`` is the minimal
    open ``U_x``, which lies inside every open holding x and so is the
    numerically smallest.  Conversely, the unions of transitive ``V_x``
    are closed under intersection as well as union: every point z of
    A & B has ``V_z`` within A & B.  Finding the ``V_x`` is one scan of
    the k members, and the union closure stops as soon as it outnumbers
    them.

    Only a family that fails is scanned pairwise, to name the first pair
    (a, b), a < b, union before intersection, whose union (C2) or
    intersection (C3) is missing.  Only the rows a = ``V_x`` are
    scanned, at most n rows of k pairs, since the first violation always
    lies in one.  Suppose a is no ``V_x``.  Every ``V_x`` with x in a
    then comes before a, and so does every pair that holds it, so those
    pairs pass.  For a member c holding such an x, ``V_x & c`` is then a
    member holding x, and no member before ``V_x`` holds x, so ``V_x``
    lies in c.  So a & b is the union of the ``V_z`` with z in a & b,
    and a | b is b joined with every ``V_x`` with x in a.  Each join is
    a pair in an earlier row (or, once a partial union reaches a, a lies
    in b), so both are members.
    """
    ground = family.ground
    masks = family.masks
    present = set(masks)
    if 0 not in present:
        return False, AxiomViolation("C1", "the empty set is missing")
    if ground.full_mask not in present:
        return False, AxiomViolation("C1", "the full ground set is missing")
    least = [0] * ground.size
    unseen = ground.full_mask
    for m in masks:
        new = m & unseen
        unseen ^= new
        while new:  # n steps over the whole scan: each point once
            low = new & -new
            least[low.bit_length() - 1] = m
            new ^= low
    transitive = all(
        not vy & ~vx for vx in least for i, vy in enumerate(least) if vx >> i & 1
    )
    if transitive and _union_closure(least, len(masks)) == present:
        return True, None
    rows = set(least)
    a, b, axiom, name = next(
        (a, b, axiom, name)
        for i, a in enumerate(masks)
        if a in rows
        for b in masks[i + 1 :]
        for axiom, name, m in (("C2", "union", a | b), ("C3", "intersection", a & b))
        if m not in present
    )
    # Labels as in documents: escaped, so the message is one line and
    # a label "a,b" reads apart from the labels "a" and "b".
    wa, wb = ground._json_array(a), ground._json_array(b)
    message = f"{name} of {wa} and {wb} is not in the family"
    return False, AxiomViolation(axiom, message, (Subset(a, ground), Subset(b, ground)))


class Topology(SubsetFamily):
    """A subset family that satisfied C1-C3: a question, its opens the
    answers.  Equal only to another ``Topology`` with the same masks.

    Like every public constructor, this one (and so ``from_masks``)
    checks all its type promises: the canonical form, then the axioms,
    raising ``make_topology``'s ``TopologyError``.  Only results the code
    builds itself skip the checks, through ``_trusted``.
    """

    __slots__ = ()

    def __init__(self, masks: tuple[int, ...], ground: GroundSet) -> None:
        super().__init__(masks, ground)
        make_topology(self)  # the axiom check and its one raise

    @property
    def family(self) -> SubsetFamily:
        """The same masks and ground as a plain ``SubsetFamily``."""
        return SubsetFamily._trusted(self.masks, self.ground)

    @classmethod
    def discrete(cls, ground: GroundSet) -> "Topology":
        return cls._trusted(tuple(range(ground.full_mask + 1)), ground)

    @classmethod
    def indiscrete(cls, ground: GroundSet) -> "Topology":
        # On the empty ground the two masks coincide: the set dedupes.
        return cls._trusted(tuple(sorted({0, ground.full_mask})), ground)


def make_topology(family: SubsetFamily) -> Topology:
    """``family`` as a ``Topology`` if it satisfies C1-C3; otherwise the
    ``TopologyError`` of its first violation, raised here alone."""
    _, violation = is_topology(family)
    if violation is not None:
        error = TopologyError(f"{violation.axiom} violated: {violation.message}")
        error.violation = violation
        raise error
    return Topology._trusted(family.masks, family.ground)


def minimal_opens(masks: tuple[int, ...], n: int) -> list[int]:
    """``U_x`` for every point x of an n-point ground, in bit order: the
    meet of the masks that contain x, or the full set if none does.  In
    a topology it is the smallest open containing x, and the n of them
    fix the topology (Alexandroff, 1937).  O(k*n) for k masks; only
    ``generated_topology`` needs it, since its family is arbitrary."""
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
    ground = family.ground
    opens = _union_closure(minimal_opens(family.masks, ground.size), ground.full_mask + 1)
    return Topology._trusted(tuple(sorted(opens)), ground)


def _union_closure(generators: Iterable[int], cap: int) -> set[int]:
    """Every union of ``generators``, the empty one included, added
    generator by generator.  Stops as soon as they number more than
    ``cap``: the set only grows, so the closure then has more than
    ``cap`` members.  Given the minimal opens ``U_x`` of a family, it is
    the topology the family generates; given the least members ``V_x``,
    it is what ``is_topology`` compares with the family."""
    opens = {0}
    for u in generators:
        opens |= {o | u for o in opens}
        if len(opens) > cap:
            break
    return opens
