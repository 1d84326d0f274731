"""Enumeration kernel.

Depth-first search over families of bitmasks, candidates taken in
ascending order, include-branch first.  Two prune rules keep every leaf a
topology: adding a mask whose intersection with an earlier member was
already excluded is a contradiction, and a union demanded by earlier
members forces inclusion when its turn comes.  Only an intersection can
already have been excluded: it lies below the new mask, whose turn it
is, while a union is never below it.  Include-first emission
yields families in ascending lexicographic order of their sorted masks.

Only an include recurses, since only an include makes a new family: a
frame loops over the remaining candidates, excluding one is the next turn
of its loop, and the family is a leaf when the loop runs out.  The
intersection rule is tested first, so an include it refuses computes no
union demands.

A search can be constrained two ways.  ``required`` is a bitset indexed
by mask value that seeds the set of forced masks, so the exclude branch
is refused at each required mask's turn.  A non-zero ``point`` mask must
lie in every non-empty open: the candidates are the masks that contain
it, and a search that requires a mask lacking it is empty.  The union and
the intersection of two masks containing ``point`` contain it too, so no
closure demand ever falls outside the candidates.  Either constraint
only cuts subtrees, so the result is exactly the subsequence of the full
stream that holds every required mask and whose every non-empty open
contains ``point``, in the same order.  The search for the questions
with a definite answer at x passes x's mask as ``point``.
"""

from __future__ import annotations

MAX_N = 5


def topology_masks(n: int, required: int = 0, point: int = 0) -> list[tuple[int, ...]]:
    """All topologies on n points, each as its sorted tuple of open masks,
    that hold every mask whose bit is set in ``required`` and whose every
    non-empty open contains the mask ``point`` (0: no constraint).  Bits
    of the empty and the full mask are ignored: every topology holds
    both."""
    if not 0 <= n <= MAX_N:
        raise ValueError(f"enumeration supports 0 <= n <= {MAX_N}, got {n}")
    full = (1 << n) - 1
    if full == 0:
        return [(0,)]
    if point & ~full or any(required >> s & 1 for s in range(1, full) if s & point != point):
        return []
    candidates = [s for s in range(1, full) if s & point == point]
    last = len(candidates)
    out: list[tuple[int, ...]] = []

    def rec(i: int, chosen: tuple[int, ...], chosen_bits: int, required: int) -> None:
        # One turn per node: s is included by the recursive call and
        # excluded by the next turn, which holds the same family; a
        # required s ends the frame instead.
        while i < last:
            s = candidates[i]
            i += 1
            # The guards w and w != u, and w != s and w != full below, are
            # for speed, not correctness: the empty mask and u are chosen,
            # s's own demand is cleared on inclusion, and the full mask is
            # no candidate.
            for u in chosen:
                w = s & u
                if w and w != u and not (chosen_bits >> w) & 1:
                    break
            else:
                req = required
                for u in chosen:
                    w = s | u
                    if w != s and w != full:
                        req |= 1 << w
                rec(i, chosen + (s,), chosen_bits | (1 << s), req & ~(1 << s))
            if (required >> s) & 1:
                return
        out.append((0, *chosen, full))

    rec(0, (), 1, required)
    del rec  # rec holds itself through its closure cell: free it now, not at a GC
    return out


def count_topology_masks(n: int) -> int:
    """Number of topologies on n points."""
    return len(topology_masks(n))
