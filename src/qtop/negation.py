"""Negation questions, clopen communication, and machine pairing.

The negation of a question replaces every open with its complement; the
result is always a topology again.  A machine asking a question and the
anti-machine asking its negation share exactly the clopen sets, and they
coincide precisely when every open is clopen, that is when the question's
family is a sigma-field.
"""

from __future__ import annotations

from collections.abc import Iterable

from .core import Frozen, SubsetFamily, Topology, is_topology

__all__ = [
    "MachinePair",
    "atomic_machine_census",
    "clopen_sets",
    "is_sigma_field",
    "machines_agree",
    "make_machine_pair",
    "negation_question",
]


class MachinePair(Frozen):
    """A question, its negation, and the clopen channel between them."""

    __slots__ = _fields = ("question", "negation", "shared", "self_dual")


def _complements(f: SubsetFamily) -> tuple[int, ...]:
    """The complements of ``f``'s masks, ascending.  Complement strictly
    reverses the order of masks within a ground, so ``f`` is closed
    under complement iff this tuple equals its masks."""
    full = f.ground.full_mask
    return tuple(full & ~m for m in reversed(f.masks))


def negation_question(t: Topology) -> Topology:
    """The topology of complements of every open of ``t``."""
    return Topology._trusted(_complements(t), t.ground)


def clopen_sets(t: Topology) -> SubsetFamily:
    """Opens whose complement is also open: the shared information."""
    complements = set(_complements(t))
    # A filter of an ascending tuple is ascending: nothing to check.
    return SubsetFamily._trusted(tuple(m for m in t.masks if m in complements), t.ground)


def machines_agree(t: SubsetFamily) -> bool:
    """True iff the question equals its negation: every member clopen.
    O(k): the reversed complements against the masks, no negation built."""
    return _complements(t) == t.masks


def is_sigma_field(f: SubsetFamily) -> bool:
    """True iff ``f`` contains the empty set and is closed under complement
    and pairwise union (countable union degenerates to finite here).

    Under complement closure the empty set brings the full set and union
    closure brings intersection closure, so the rest is the axiom check."""
    return machines_agree(f) and is_topology(f)[0]


def make_machine_pair(t: Topology) -> MachinePair:
    negation = negation_question(t)
    return MachinePair(t, negation, clopen_sets(t), negation == t)


def atomic_machine_census(topologies: Iterable[Topology]) -> list[MachinePair]:
    """Pair each question with its negation and flag the self-dual ones."""
    topologies = list(topologies)
    if len({t.ground for t in topologies}) > 1:
        raise ValueError("census requires one common ground set")
    return [make_machine_pair(t) for t in topologies]
