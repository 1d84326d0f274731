"""Independent bitmask reference for checking qtop's outputs.

Nothing here imports qtop.  A topology is a set of int masks over an
ordered label tuple (label i is bit i).  Finite topologies are built from
preorders: if ``down[x]`` is the smallest open containing point x, the
opens are exactly the unions of the ``down`` sets.
"""

from __future__ import annotations

import itertools
import json
import random

# OEIS A000798: number of topologies on n labelled points.
A000798 = (1, 1, 4, 29, 355, 6942)


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def labels_of(mask: int, labels) -> list[str]:
    return [label for i, label in enumerate(labels) if (mask >> i) & 1]


def opens_list(masks, labels) -> list[list[str]]:
    return [labels_of(m, labels) for m in sorted(masks)]


def family_doc(labels, masks) -> str:
    """Canonical wire document: opens ascending by mask, labels in order."""
    return dumps({"elements": list(labels), "opens": opens_list(masks, labels)})


def unions_of(basis, limit: int | None = None) -> set[int]:
    """Every union of members of ``basis``, the empty union included.
    With ``limit``, stops early once there are more than ``limit``."""
    opens = {0}
    for b in basis:
        opens |= {o | b for o in opens}
        if limit is not None and len(opens) > limit:
            break
    return opens


def random_down_sets(rng: random.Random, n: int, p: float) -> list[int]:
    """Down-sets of a random partial order: x < y for i < j in a random
    linear order with probability ``p``, closed transitively."""
    order = list(range(n))
    rng.shuffle(order)
    down = [1 << x for x in range(n)]
    for j, y in enumerate(order):
        for x in order[:j]:
            if rng.random() < p:
                down[y] |= down[x]
    return down


def all_topologies(n: int) -> list[tuple[int, ...]]:
    """Every topology on n points (n <= 4) as a sorted mask tuple, in
    ascending lexicographic order, from the bijection with preorders."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    out = set()
    for bits in range(1 << len(pairs)):
        below = [1 << x for x in range(n)]
        for k, (x, y) in enumerate(pairs):
            if (bits >> k) & 1:
                below[y] |= 1 << x
        # transitive iff every down-set is closed under taking down-sets
        if all(
            below[x] & below[y] == below[x]
            for y in range(n)
            for x in range(n)
            if (below[y] >> x) & 1
        ):
            out.add(tuple(sorted(unions_of(below))))
    return sorted(out)


def classify(masks, x_bit: int):
    """(kind, carrier mask or None, remaining opens) of eliminating a point."""
    if x_bit == 0:
        return "type-3", None, []
    rest = sorted(m for m in masks if not m & x_bit)
    if rest == [0]:
        return "type-2", None, rest
    carrier = 0
    for m in rest:
        carrier |= m
    return "type-1", carrier, rest


def outcome_doc(labels, masks, point: str) -> str:
    x_bit = 1 << labels.index(point) if point in labels else 0
    kind, carrier, rest = classify(masks, x_bit)
    obj = {"kind": kind}
    if carrier is not None:
        obj["carrier"] = labels_of(carrier, labels)
    obj["opens"] = opens_list(rest, labels)
    return dumps(obj)


def subspace(labels, masks, carrier: int):
    """Restriction to ``carrier``, re-packed onto the carrier's labels."""
    positions = [i for i in range(len(labels)) if (carrier >> i) & 1]
    packed = set()
    for m in masks:
        packed.add(sum(1 << j for j, i in enumerate(positions) if (m >> i) & 1))
    return [labels[i] for i in positions], packed


def steps_doc(labels, masks, points) -> str:
    steps = []
    for point in points:
        x_bit = 1 << labels.index(point) if point in labels else 0
        kind, carrier, rest = classify(masks, x_bit)
        step = {"point": point, "kind": kind}
        if carrier is not None:
            step["carrier"] = labels_of(carrier, labels)
        step["opens"] = opens_list(rest, labels)
        steps.append(step)
        if kind != "type-1":
            break
        labels, masks = subspace(labels, masks, carrier)
    return dumps({"steps": steps})


def complements(masks, full: int) -> set[int]:
    return {full & ~m for m in masks}


def is_sigma_field(masks, full: int) -> bool:
    present = set(masks)
    return (
        0 in present
        and all(full & ~a in present for a in present)
        and all(a | b in present for a, b in itertools.combinations(present, 2))
    )


def census(n: int, labels) -> dict:
    """Reference for ``qtop enumerate --census`` on n <= 4 points."""
    tops = all_topologies(n)
    full = (1 << n) - 1
    tally = {label: {"type-1": 0, "type-2": 0} for label in labels}
    self_dual = 0
    for masks in tops:
        if complements(masks, full) == set(masks):
            self_dual += 1
        for i, label in enumerate(labels):
            tally[label][classify(masks, 1 << i)[0]] += 1
    return {"n": n, "count": len(tops), "census": tally, "self_dual_count": self_dual}


def violates(axiom: str, witnesses, masks, full: int) -> bool:
    """True iff the reported witnesses really break the named axiom."""
    present = set(masks)
    if axiom == "C1":
        return 0 not in present or full not in present
    if len(witnesses) != 2 or not all(w in present for w in witnesses):
        return False
    a, b = witnesses
    return (a | b if axiom == "C2" else a & b) not in present
