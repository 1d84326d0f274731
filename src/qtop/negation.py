"""Negation questions, clopen communication, and machine pairing.

The negation of a question replaces every open with its complement; the
result is always a topology again.  A machine asking a question and the
anti-machine asking its negation share exactly the clopen sets, and they
coincide precisely when every open is clopen, that is when the question's
family is a sigma-field.
"""

from __future__ import annotations

from .core import Frozen, SubsetFamily, Topology, _set, is_topology


class MachinePair(Frozen):
    """A question, its negation, and the clopen channel between them."""

    __slots__ = _fields = ("question", "negation", "shared", "self_dual")

    def __init__(
        self,
        question: Topology,
        negation: Topology,
        shared: SubsetFamily,
        self_dual: bool,
    ) -> None:
        _set(self, "question", question)
        _set(self, "negation", negation)
        _set(self, "shared", shared)
        _set(self, "self_dual", self_dual)


def negation_question(t: Topology) -> Topology:
    """The topology of complements of every open of ``t``."""
    full = t.ground.full_mask
    # Complement reverses the order of masks, so the reversed tuple of
    # complements is ascending.
    return Topology(SubsetFamily(tuple(full & ~m for m in reversed(t.masks)), t.ground))


def clopen_sets(t: Topology) -> SubsetFamily:
    """Opens whose complement is also open: the shared information."""
    full = t.ground.full_mask
    present = set(t.masks)
    # A filter of an ascending tuple is ascending: no re-sort needed.
    return SubsetFamily(tuple(m for m in t.masks if full & ~m in present), t.ground)


def machines_agree(t: Topology) -> bool:
    """True iff the question equals its negation: every member clopen.
    O(k), no negation built."""
    return len(clopen_sets(t)) == len(t)


def is_sigma_field(f: SubsetFamily) -> bool:
    """True iff ``f`` contains the empty set and is closed under complement
    and pairwise union (countable union degenerates to finite here).

    Under complement closure the empty set brings the full set and union
    closure brings intersection closure, so the rest is the axiom check."""
    full = f.ground.full_mask
    present = set(f.masks)
    return all(full & ~m in present for m in f.masks) and is_topology(f)[0]


def make_machine_pair(t: Topology) -> MachinePair:
    shared = clopen_sets(t)
    return MachinePair(
        question=t,
        negation=negation_question(t),
        shared=shared,
        self_dual=len(shared) == len(t),
    )


def atomic_machine_census(
    topologies: list[Topology],
) -> list[tuple[Topology, Topology, bool]]:
    """Pair each question with its negation and flag the self-dual ones."""
    if topologies:
        ground = topologies[0].ground
        for t in topologies:
            if t.ground != ground:
                raise ValueError("census requires one common ground set")
    out = []
    for t in topologies:
        out.append((t, negation_question(t), machines_agree(t)))
    return out
