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
is refused at each required mask's turn; a required mask that is no set
on n points makes the search empty.  A non-zero ``point`` mask must lie
in every non-empty open, so a search that requires a mask lacking it is
empty, and otherwise it walks one tree: its candidates are the masks
strictly above ``point``.  ``U -> U - point`` maps them, with ``point``
as their bottom and the full mask as their top, isomorphically onto the
lattice of the other n - |point| points, so this tree is the
unconstrained search on those points: for one point at n = 5, the 1580
nodes of the 4-point search, where a subtree with ``point`` and one
without it took 2190.  Each leaf is a family of opens that, with
``point`` added, is a topology, emitted as such.  The same family without
``point`` is a topology too unless two of its opens meet in ``point``,
that is, unless the meet of all of them is ``point``; the rec carries
that meet, and a leaf whose meet lies strictly above ``point`` emits the
family without ``point`` into a second list as well.  In the full stream ``point`` is the least
candidate and is tried included first, so every family that holds it
comes before every family that lacks it; within each list the tree's
include-first order is the same ascending order, so the first list
followed by the second is the full stream filtered by ``point``, in
order.  ``required`` only cuts subtrees of either tree, and a required
``point`` the second list, so the result is exactly the subsequence of
the full stream that holds every required mask and whose every
non-empty open contains ``point``.  The search for the questions with a
definite answer at x passes x's mask as ``point``.
"""

from __future__ import annotations

from .core import SizeLimitError

MAX_N = 5
# The number of topologies on n points for n = 0 .. MAX_N: OEIS A000798,
# first computed by Evans, Harary and Lynn (CACM 1967).  The tests named
# in count_topology_masks hold it to the search and to the oracle.
A000798 = (1, 1, 4, 29, 355, 6942)


def check_size(n: int) -> None:
    """The one size check of every enumeration entry, library or CLI."""
    if not 0 <= n <= MAX_N:
        raise SizeLimitError(
            f"enumeration limited to ground sets of at most {MAX_N} elements, got {n}"
        )


def topology_masks(n: int, required: int = 0, point: int = 0) -> list[tuple[int, ...]]:
    """All topologies on n points, each as its sorted tuple of open masks,
    that hold every mask whose bit is set in ``required`` and whose every
    non-empty open contains the mask ``point`` (0: no constraint).  Bits
    of the empty and the full mask are ignored: every topology holds
    both.  A bit above the full mask names no set on n points, so no
    topology holds it."""
    check_size(n)
    full = (1 << n) - 1
    if required >> full + 1:
        return []
    if full == 0:
        return [(0,)]
    if point & ~full or any(required >> s & 1 for s in range(1, full) if s & point != point):
        return []
    if point == full:
        return [(0, full)]
    candidates = [s for s in range(point + 1, full) if s & point == point]
    last = len(candidates)
    head = (0, point) if point else (0,)
    # Families without point as an open, unless point is required.
    lean = point != 0 and not required >> point & 1
    out: list[tuple[int, ...]] = []
    without: list[tuple[int, ...]] = []

    def rec(i: int, chosen: tuple[int, ...], chosen_bits: int, required: int, meet: int) -> None:
        # One turn per node: s is included by the recursive call and
        # excluded by the next turn, which holds the same family; a
        # required s ends the frame instead.
        while i < last:
            s = candidates[i]
            i += 1
            # The guards w and w != u, and w != s and w != full below, are
            # for speed, not correctness: the bottom (point, or the empty
            # mask) and u are chosen, s's own demand is cleared on
            # inclusion, and the full mask is no candidate.
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
                bit = 1 << s
                rec(i, chosen + (s,), chosen_bits | bit, req & ~bit, meet & s)
            if (required >> s) & 1:
                return
        out.append((*head, *chosen, full))
        if lean and meet != point:
            without.append((0, *chosen, full))

    rec(0, (), 1 << point, required, full)
    del rec  # rec holds itself through its closure cell: free it now, not at a GC
    out += without
    return out


def count_topology_masks(n: int) -> int:
    """Number of topologies on n points, read from OEIS A000798 rather
    than searched.  ``test_kernel_count_is_the_length_of_its_search``
    holds each entry to ``len(topology_masks(n))`` and
    ``test_kernel_count_matches_the_brute_force_oracle`` to the
    brute-force families for n <= 4.  The range check comes first, so a
    negative n never indexes the table from its end."""
    check_size(n)
    return A000798[n]
