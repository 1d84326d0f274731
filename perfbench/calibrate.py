"""Machine-speed calibration for the end-to-end timings.

On a shared 2-core machine the speed of pure-Python code swings by a
quarter or more within seconds, between runs and between sets of runs;
process CPU time swings with it.  A fixed probe of pure-Python work in
qtop's style (small ints in sets and tuples, comprehensions, sorting,
and a pairwise union/intersection membership scan like the axiom check)
slows by the same factor: over 20-op chunks of a 60-second run of one
wide document, raw op times spread 18% (IQR/median) and probe-scaled
ones 2%.  So the
benchmark times a probe between consecutive ops and reports each timing
scaled to a machine on which one probe takes ``NOMINAL_S``.

The probe runs the benchmark's own ``reference`` code on fixed inputs,
never qtop.  Changing the probe, its inputs or that code re-bases every
timing of the benchmark.

A ``cli`` op is mostly process creation and interpreter start-up, whose
speed the pure-Python probe does not follow: in one set of ten cli runs,
three ran in a phase in which ops slowed by 15% at p50 and 35% at p90
while the probe read as usual.  So ``cli`` ops are scaled by a second
probe, the start of a bare interpreter, to a machine on which it takes
``SPAWN_NOMINAL_S``.
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
from time import perf_counter

import reference as ref

NOMINAL_S = 0.0012

_BASES = [ref.random_down_sets(random.Random(i), 9, 0.2) for i in range(4)]
_FAMILY = sorted(ref.unions_of(ref.random_down_sets(random.Random(99), 9, 0.1)))[:120]
_PRESENT = set(_FAMILY)


def probe() -> float:
    """Seconds taken by one fixed unit of pure-Python work.

    The probe runs in the process that runs the ops, so it runs with the
    garbage collector off: a collection of garbage the ops left behind is
    charged to the ops, not to the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for basis in _BASES:
            ref.unions_of(basis)
        ref.all_topologies(3)
        for i, a in enumerate(_FAMILY):
            for b in _FAMILY[i + 1 :]:
                if a | b not in _PRESENT or a & b not in _PRESENT:
                    pass
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


SPAWN_NOMINAL_S = 0.060


def spawn_probe() -> float:
    """Seconds taken to start and end a bare interpreter (``-c pass``):
    fork, exec, dynamic loading and the site import, but not qtop."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "pass"],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        check=True,
        timeout=60,
    )
    return perf_counter() - start


# Each probe by name, with the time it is scaled to.
PROBES = {"cpu": (probe, NOMINAL_S), "spawn": (spawn_probe, SPAWN_NOMINAL_S)}


def factors(probes: list[float], nominal_s: float) -> list[float]:
    """Scale factor of each op from the probes taken just before and just
    after it (``probes`` has one more entry than there are ops).  Speed
    changes within a second or two, so nearer probes follow it better
    than a smoothed window; that matters most for the latency tail."""
    return [nominal_s / statistics.fmean(probes[i : i + 2]) for i in range(len(probes) - 1)]
