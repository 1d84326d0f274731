"""Independent brute-force oracles.

These scan candidate structures exhaustively and share no code with the
library's enumeration kernel; they are the ground truth the fast paths
are checked against.
"""

from __future__ import annotations

from itertools import combinations


def axioms_hold(masks: list[int], full: int) -> bool:
    """C1-C3 on a family of masks, unions checked over every sub-collection."""
    present = set(masks)
    if 0 not in present or full not in present:
        return False
    for r in range(1, len(masks) + 1):
        for combo in combinations(masks, r):
            u = 0
            for m in combo:
                u |= m
            if u not in present:
                return False
    for a, b in combinations(masks, 2):
        if a & b not in present:
            return False
    return True


def first_violation(masks: list[int], full: int) -> tuple[str, tuple[int, ...]] | None:
    """The pairwise axiom scan on ascending masks: None if C1-C3 hold,
    else the first failed axiom and its witness masks.  Pairs are taken
    in ``combinations`` order, union checked before intersection."""
    present = set(masks)
    if 0 not in present or full not in present:
        return "C1", ()
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if a | b not in present:
                return "C2", (a, b)
            if a & b not in present:
                return "C3", (a, b)
    return None


def sigma_field_holds(masks: list[int], full: int) -> bool:
    """Contains the empty set, closed under complement, and closed under
    the union of every sub-collection."""
    present = set(masks)
    if 0 not in present:
        return False
    if any(full & ~m not in present for m in masks):
        return False
    for r in range(1, len(masks) + 1):
        for combo in combinations(masks, r):
            u = 0
            for m in combo:
                u |= m
            if u not in present:
                return False
    return True


def _pairwise_closed(fam: list[int], present: set[int]) -> bool:
    for i, a in enumerate(fam):
        for b in fam[i + 1 :]:
            if a | b not in present or a & b not in present:
                return False
    return True


def brute_force_topologies(n: int) -> list[tuple[int, ...]]:
    """Every topology on n points by scanning all 2^(2^n) subset families."""
    full = (1 << n) - 1
    top_bit = 1 << full
    result = []
    for code in range(1 << (full + 1)):
        if not code & 1 or not code & top_bit:
            continue  # C1 fails fast
        fam = [m for m in range(full + 1) if (code >> m) & 1]
        if _pairwise_closed(fam, set(fam)):
            result.append(tuple(fam))
    result.sort()
    return result


def census_tallies(n: int) -> tuple[int, list[int], int]:
    """Over every topology on n points: their number, the number in which
    each point (by bit) lies in every non-empty open, and the number
    closed under complement."""
    full = (1 << n) - 1
    families = brute_force_topologies(n)
    definite = [0] * n
    self_dual = 0
    for fam in families:
        for i in range(n):
            if all(m >> i & 1 for m in fam if m):
                definite[i] += 1
        present = set(fam)
        if all(full & ~m in present for m in fam):
            self_dual += 1
    return len(families), definite, self_dual
