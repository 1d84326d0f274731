"""Enumeration kernel.

Depth-first search over families of bitmasks, candidates taken in
ascending order, include-branch first.  Two prune rules keep every leaf a
topology: adding a mask whose union/intersection with an earlier member
was already excluded is a contradiction, and a union demanded by earlier
members forces inclusion when its turn comes.  Include-first emission
yields families in ascending lexicographic order of their sorted masks.

A search can be constrained by two bitsets indexed by mask value.
``required`` seeds the set of forced masks, so the exclude branch is
refused at each required mask's turn; ``forbidden`` refuses the include
branch at each forbidden mask's turn.  Either only cuts subtrees, so the
result is exactly the subsequence of the full stream that holds every
required mask and no forbidden one, in the same order.  The search for
the questions with a definite answer at x forbids every non-empty mask
that lacks x.  That prune leads into no dead end: the union and the
intersection of two masks containing x contain x too, so no closure
demand ever falls on a forbidden mask.
"""

from __future__ import annotations

MAX_N = 5


def topology_masks(
    n: int, required: int = 0, forbidden: int = 0
) -> list[tuple[int, ...]]:
    """All topologies on n points, each as its sorted tuple of open masks,
    that hold every mask whose bit is set in ``required`` and none whose
    bit is set in ``forbidden``.  Bits of the empty and the full mask are
    ignored: every topology holds both."""
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
        if not (forbidden >> s) & 1:
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

    rec(1, (), 1, required)
    del rec  # rec holds itself through its closure cell: free it now, not at a GC
    return out


def count_topology_masks(n: int) -> int:
    """Number of topologies on n points."""
    return len(topology_masks(n))
