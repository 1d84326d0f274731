"""Enumeration kernel.

The topologies on n points are built from those on the first n - 1, one
point at a time: the classical one-point extension of preorders (Erne
and Stege, "Counting finite posets and topologies", Order 8, 1991;
Brinkmann and McKay, "Posets on up to 16 points", Order 19, 2002).  Let
x be the new point, ``1 << n - 1``.  A topology T on n points is fixed
by the topology T' it induces on the other points and two sets of T':
the open d = U_x - x, where U_x is x's least open, and the closed set U
of the points u whose least open U_u holds x.  U's complement c is the
union of the opens of T that lack x, so c is an open of T'.  The opens
of T are the opens of T' that avoid U, then the opens of T' that hold
d, each with x added.  Conversely, T', an open c and an open d of T'
give a topology this way iff d lies in every open of T' that meets U,
as it must: such an open holds some U_u with u in U, and U_u holds U_x.
So the map is a bijection, and a level lists every topology on n points
exactly once.  Each family ascends, since its opens with x lie above
those without, and one sort per level puts the families in ascending
lexicographic order.

The levels are memoised: each is built once per process, from the one
below, and every search copies, filters or lifts it, so the caller owns
its list.  By tracemalloc they hold about 32 KB up to n = 4, and 842 KB
more for n = 5.

A search can be constrained two ways.  A non-zero ``point`` mask must
lie in every non-empty open.  The families that hold ``point`` as an
open are the topologies on the m = n - |point| other points, lifted
through a table of 2^m masks: ``spread[v]`` lays v's bits onto the
points outside ``point`` and adds ``point``.  A family whose non-empty
opens all hold ``point`` but which lacks it is one of these without
``point``, and one of these without ``point`` is a topology iff no two of
its opens meet in ``point``, that is, iff the meet of its non-empty opens
is not ``point``.  The search emits them in order with no sort: the
families with ``point``, then those without, each list in the level's
order.  ``spread`` is strictly increasing, so the lift keeps the level's
ascending lexicographic order within each list; and the second entry of
every family with ``point`` is ``point``, while that of every family
without it is a strict superset of ``point``, so each family of the
first list sorts before each of the second.  ``required`` is a bitset
indexed by mask value: the result keeps only the families that hold
every required mask.  The search for the questions with a definite
answer at x passes x's mask as ``point``.
"""

from __future__ import annotations

import functools

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


@functools.cache
def _level(n: int) -> tuple[tuple[int, ...], ...]:
    """Every topology on n points, ascending, each extended from one on
    the first n - 1 points as the module docstring sets out."""
    if n == 0:
        return ((0,),)
    x = 1 << n - 1
    out = []
    for t in _level(n - 1):
        for c in t:
            u = (x - 1) & ~c
            below = [o for o in t if not o & u]
            meet = functools.reduce(int.__and__, [o for o in t if o & u], x - 1)
            for d in t:
                if d & meet == d:
                    out.append((*below, *[o | x for o in t if o & d == d]))
    out.sort()
    return tuple(out)


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
    if point & ~full:
        return []
    if point:
        spread = [point]
        for i in range(n):
            if not point >> i & 1:
                spread += [s | 1 << i for s in spread]
        lift = spread.__getitem__
        held = []
        bare = []
        for t in _level(n - point.bit_count()):
            opens = (0, *map(lift, t))
            held.append(opens)
            meet = full
            for o in opens[2:]:
                meet &= o
            if meet != point:
                bare.append((0, *opens[2:]))
        out = held + bare
    else:
        out = list(_level(n))
    for s in range(1, full):
        if required >> s & 1:
            out = [f for f in out if s in f]
    return out


def count_topology_masks(n: int) -> int:
    """Number of topologies on n points, read from OEIS A000798.
    ``test_kernel_count_is_the_length_of_its_search``
    holds each entry to ``len(topology_masks(n))`` and
    ``test_kernel_count_matches_the_brute_force_oracle`` to the
    brute-force families for n <= 4.  The range check comes first, so a
    negative n never indexes the table from its end."""
    check_size(n)
    return A000798[n]
