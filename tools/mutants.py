"""Run tier-1 against mutated copies of src/; fail if any mutant survives.

Each entry of MUTANTS names a file of src/qtop, a text that occurs in it
exactly once, and the text that replaces it.  Every mutant is applied to
a fresh temporary copy of src/, and tier-1 runs against that copy with
-x and a fixed Hypothesis seed, so a result repeats.  The unmutated copy
runs first and must pass: a broken run would read as a kill.

Usage: python tools/mutants.py
Exit status: 0 if every mutant was killed, 1 if any survived, 2 if an old
text does not occur exactly once or the unmutated copy fails.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
TIMEOUT_S = 600  # a mutant that never ends counts as killed

# (file under src/qtop, old text, new text)
MUTANTS = [
    # No set to dedupe the two masks: the empty ground gets (0, 0).
    ("core.py", "tuple(sorted({0, ground.full_mask}))", "(0, ground.full_mask)"),
    # Ground sizes in place of grounds: ("a", "b") passes for ("a", "c").
    ("negation.py", "{t.ground for t in topologies}", "{t.ground.size for t in topologies}"),
    # A generator consumed by the ground check leaves an empty census.
    ("negation.py", "    topologies = list(topologies)\n", ""),
    # Every open counted clopen.
    ("negation.py", "set(_complements(t))", "set(t.masks)"),
    # Complement closure alone taken for a sigma-field.
    ("negation.py", "machines_agree(f) and is_topology(f)[0]", "machines_agree(f)"),
    # The smallest open left (always the empty set) in place of the largest.
    ("enumeration.py", "left[-1].bit_count()", "left[0].bit_count()"),
    # The point search returns only the families that hold the point.
    ("kernel.py", "    out += without\n", ""),
    # The families without the point kept exactly where two opens meet in it.
    ("kernel.py", "meet != point", "meet == point"),
    # A required point ignored: the families without it emitted all the same.
    ("kernel.py", "lean = point != 0 and not required >> point & 1", "lean = point != 0"),
    # A required mask off the ground ignored, as if never asked for.
    ("kernel.py", "    if required >> full + 1:\n        return []\n", ""),
    # The least members' containment check skipped: a missing intersection passes.
    ("core.py", "if transitive and _union_closure", "if _union_closure"),
    # Duplicate labels let through, the later one taking a new bit.
    ("core.py", "if label in bits:", "if False:"),
    # A repeated document key never remembered: the last value wins.
    ("wire.py", "        seen.add(name)\n", ""),
    # Fields beyond "elements" and "opens" accepted.
    ("wire.py", "    if extra:\n", "    if False:\n"),
    # A malformed document reported as a domain failure.
    ("cli.py", 'print(f"error: {e}", file=sys.stderr)\n            return 2', 'print(f"error: {e}", file=sys.stderr)\n            return 1'),
    # --n -1 and --limit -1 accepted.
    ("cli.py", "if value < 0:", "if value < -1:"),
    # The smallest open left (always the empty set) as the carrier.
    ("calculus.py", "carrier = result.masks[-1]", "carrier = result.masks[0]"),
    # Each Bell-triangle entry copied from the row above, not summed.
    ("enumeration.py", "below.append(below[-1] + v)", "below.append(v)"),
    # A point resolved twice in one sequence.
    ("calculus.py", "    if len(set(order)) != len(order):\n", "    if False:\n"),
    # Labels read from the highest bit down.
    ("core.py", "for i, label in enumerate(self.labels) if mask >> i & 1])", "for i, label in enumerate(self.labels) if mask >> i & 1][::-1])"),
    # Negative sizes let through the one size check.
    ("kernel.py", "if not 0 <= n <= MAX_N:", "if not n <= MAX_N:"),
    # parent_questions looks up the superset's labels before its size.
    ("enumeration.py", "    kernel.check_size(superset_ground.size)\n", ""),
]


def run_copy(mutant: tuple[str, str, str] | None) -> tuple[bool, str]:
    """Tier-1 against a temporary copy of src/ with ``mutant`` applied:
    whether it passed, and its first failure."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant:
            name, old, new = mutant
            path = src / "qtop" / name
            path.write_text(path.read_text().replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(src)}
        try:
            run = subprocess.run(PYTEST, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
    failures = [line for line in run.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return run.returncode == 0, (failures or [f"exit {run.returncode}"])[0]


def main() -> int:
    unmatched = [
        f"{name}: {old!r} occurs {count} times"
        for name, old, _ in MUTANTS
        if (count := (SRC / "qtop" / name).read_text().count(old)) != 1
    ]
    if unmatched:
        print("\n".join(unmatched))
        return 2
    start = time.perf_counter()
    passed, failure = run_copy(None)
    if not passed:
        print(f"tier-1 fails on the unmutated copy: {failure}")
        return 2
    print(f"unmutated copy passes ({time.perf_counter() - start:.1f} s)")
    survivors = 0
    for mutant in MUTANTS:
        begun = time.perf_counter()
        survived, failure = run_copy(mutant)
        survivors += survived
        name, old, new = mutant
        verdict = "SURVIVED" if survived else f"killed by {failure}"
        print(f"{name}: {old.strip()!r} -> {new.strip()!r}: {verdict} ({time.perf_counter() - begun:.1f} s)")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
