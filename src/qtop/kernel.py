"""Enumeration kernel.

Depth-first search over families of bitmasks, candidates taken in
ascending order, include-branch first.  Two prune rules keep every leaf a
topology: adding a mask whose union/intersection with an earlier member
was already excluded is a contradiction, and a union demanded by earlier
members forces inclusion when its turn comes.  Include-first emission
yields families in ascending lexicographic order of their sorted masks.
"""

from __future__ import annotations

MAX_N = 5


def topology_masks(n: int) -> list[tuple[int, ...]]:
    """All topologies on n points, each as its sorted tuple of open masks."""
    if not 0 <= n <= MAX_N:
        raise ValueError(f"enumeration supports 0 <= n <= {MAX_N}, got {n}")
    full = (1 << n) - 1
    if full == 0:
        return [(0,)]
    out: list[tuple[int, ...]] = []

    def rec(s: int, chosen: tuple[int, ...], chosen_bits: int, required: int) -> None:
        if s == full:
            out.append((0, *chosen, full))
            return
        req = required
        ok = True
        for u in chosen:
            w = s | u
            if w != s and w != full:
                req |= 1 << w
            w = s & u
            if w and w != u and not (chosen_bits >> w) & 1:
                ok = False
                break
        if ok:
            rec(s + 1, chosen + (s,), chosen_bits | (1 << s), req & ~(1 << s))
        if not (required >> s) & 1:
            rec(s + 1, chosen, chosen_bits, required)

    rec(1, (), 1, 0)
    return out


def count_topology_masks(n: int) -> int:
    """Number of topologies on n points."""
    return len(topology_masks(n))
