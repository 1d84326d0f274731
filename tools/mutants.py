"""Run tier-1 against mutated copies of src/; fail if any mutant survives.

Each entry of MUTANTS names a file of src/qtop, a text that occurs in it
exactly once, and the text that replaces it.  Every mutant is applied to
a fresh temporary copy of src/, and tier-1 runs against that copy with
-x and a fixed Hypothesis seed, so a result repeats.  The unmutated copy
runs first and alone, and must pass: a broken run would read as a kill.
The mutants then run on a few worker threads, each waiting on its own
pytest process, and their results print in table order.  Each run keeps
its pytest temporary directories and its Hypothesis example database in
its own temporary directory, so concurrent runs share no writable state.

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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
TIMEOUT_S = 600  # a mutant that never ends counts as killed
WORKERS = min(4, os.cpu_count() or 1)

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
    # An extension's d must hold the meet, not lie in it.
    ("kernel.py", "if d & meet == d:", "if d & meet == meet:"),
    # Every open of T' kept below x, those that meet U included.
    ("kernel.py", "below = [o for o in t if not o & u]", "below = list(t)"),
    # A level left in the order its extensions came out.
    ("kernel.py", "    out.sort()\n    return tuple(out)", "    return tuple(out)"),
    # The lift keeps the families without the point exactly where two opens meet in it.
    ("kernel.py", "meet != point", "meet == point"),
    # The point search's families without the point emitted first.
    ("kernel.py", "out = held + bare", "out = bare + held"),
    # The point search's families without the point dropped.
    ("kernel.py", "out = held + bare", "out = held"),
    # Each family without the point built with the point still in it.
    ("kernel.py", "bare.append((0, *opens[2:]))", "bare.append((0, *opens[1:]))"),
    # The memoised level itself handed out, not a copy the caller owns.
    ("kernel.py", "out = list(_level(n))", "out = _level(n)"),
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
    # One self-dual topology missing from the table's last entry.
    ("enumeration.py", "A000110 = (1, 1, 2, 5, 15, 52)", "A000110 = (1, 1, 2, 5, 15, 51)"),
    # A point resolved twice in one sequence.
    ("calculus.py", "    if len(set(labels)) != len(labels):\n", "    if False:\n"),
    # Labels read from the highest bit down.
    ("core.py", "for i, label in enumerate(self.labels) if mask >> i & 1])", "for i, label in enumerate(self.labels) if mask >> i & 1][::-1])"),
    # Negative sizes let through the one size check.
    ("kernel.py", "if not 0 <= n <= MAX_N:", "if not n <= MAX_N:"),
    # parent_questions looks up the superset's labels before its size.
    ("enumeration.py", "    kernel.check_size(superset_ground.size)\n", ""),
    # An unhashable label escapes mask_of as a TypeError.
    ("core.py", "except (KeyError, TypeError):", "except KeyError:"),
    # Two distinct grounds let through the census.
    ("negation.py", "if len({t.ground for t in topologies}) > 1:", "if len({t.ground for t in topologies}) > 2:"),
    # The union closure built to the end, however far past the family.
    ("core.py", "        if len(opens) > cap:\n            break\n", ""),
    # A failing family scanned pairwise in every row, not only the V_x rows.
    ("core.py", "        if a in rows\n", ""),
    # A missing full set no longer reported as C1.
    ("core.py", '    if ground.full_mask not in present:\n        return False, AxiomViolation("C1", "the full ground set is missing")\n', ""),
    # The least open holding x dropped from its neighborhood.
    ("calculus.py", "tuple(m for m in t.masks if m & bit)", "tuple(m for m in t.masks if m & bit)[1:]"),
    # An opens entry that is no array passed on as if it were one.
    ("wire.py", "if not isinstance(entry, list):", "if False:"),
    # No flush inside main: a closed pipe fails at the exit flush instead.
    ("cli.py", "sys.stdout.flush()  # a closed pipe", "pass  # a closed pipe"),
    # One label past the limit let through.
    ("core.py", "if len(labels) > MAX_GROUND_SIZE:", "if len(labels) > MAX_GROUND_SIZE + 1:"),
    # A negative mask taken for one within the width.
    ("core.py", "if mask >> len(self.labels):", "if mask > self.full_mask:"),
    # A repeated mask let through the canonical-form check.
    ("core.py", "operator.lt, masks, masks[1:]", "operator.le, masks, masks[1:]"),
    # A subspace's points numbered from the carrier's highest bit down.
    ("calculus.py", "if a >> i & 1]", "if a >> i & 1][::-1]"),
    # A TopologyError raised without the violation it reports.
    ("core.py", "        error.violation = violation\n", ""),
    # An unhashable point looked up in the label dict: a TypeError.
    ("core.py", "return isinstance(label, str) and label in self._bits", "return label in self._bits"),
    # A subclass's value taken as equal to its base's.
    ("core.py", "if other.__class__ is self.__class__:", "if isinstance(other, self.__class__):"),
    # An open with labels only in its high byte keeps their leading comma.
    ("core.py", "else high[m >> 8][1:] for m in masks]", "else high[m >> 8] for m in masks]"),
    # A negative mask let through the range check.
    ("core.py", "(masks[0] < 0 or masks[-1] > ground.full_mask)", "(masks[-1] > ground.full_mask)"),
    # A minimal open taken as the join of the opens holding the point.
    ("core.py", "                u &= m\n", "                u |= m\n"),
    # The lookup's guard widened to the whole loop: the iterable's own failure reported as a label.
    (
        "core.py",
        "        for label in labels:  # the iterable's own failure passes through\n"
        "            try:\n"
        "                mask |= bits[label]\n"
        "            except (KeyError, TypeError):\n"
        "                raise self._unknown(label) from None\n",
        "        try:\n"
        "            for label in labels:\n"
        "                mask |= bits[label]\n"
        "        except (KeyError, TypeError):\n"
        "            raise self._unknown(label) from None\n",
    ),
    # A deeply nested document escapes as a RecursionError.
    ("wire.py", '    except RecursionError:\n        raise DocumentError("document is nested too deeply") from None\n', ""),
    # A family with no opens written as holding the empty set.
    ("wire.py", "if items else '\"opens\":[]'", "if items else '\"opens\":[[]]'"),
    # An empty point in --points passed on as a label.
    ("cli.py", 'points = [p for p in raw.split(",") if p]', 'points = raw.split(",")'),
    # Labels naming too few points let through.
    ("cli.py", "if len(names) != args.n:", "if len(names) > args.n:"),
    # The decoder's whole message in place of its reason.
    ("cli.py", "not UTF-8 ({e.reason})", "not UTF-8 ({e})"),
    # Only the very object counted as its own negation.
    ("negation.py", "negation == t)", "negation is t)"),
    # The empty ground searched like any other.
    ("kernel.py", "    if full == 0:\n        return [(0,)]\n", ""),
    # The type-1 tally counts the type-2 topologies too.
    ("enumeration.py", "QuestionType.TYPE_I.value: count - definite,", "QuestionType.TYPE_I.value: count,"),
    # An iterator of points consumed by the repeat check.
    ("calculus.py", "    order = list(order)\n", ""),
    # Every point, not only text, hashed by the repeat check.
    ("calculus.py", "labels = [x for x in order if isinstance(x, str)]", "labels = order"),
]


def run_copy(mutant: tuple[str, str, str] | None) -> tuple[bool, str, float]:
    """Tier-1 against a temporary copy of src/ with ``mutant`` applied:
    whether it passed, its first failure, and its wall time."""
    begun = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant:
            name, old, new = mutant
            path = src / "qtop" / name
            path.write_text(path.read_text().replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(src), "HYPOTHESIS_STORAGE_DIRECTORY": str(Path(tmp) / "hypothesis")}
        pytest = [*PYTEST, f"--basetemp={Path(tmp) / 'pytest'}"]
        try:
            run = subprocess.run(pytest, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s", time.perf_counter() - begun
    failures = [line for line in run.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return run.returncode == 0, (failures or [f"exit {run.returncode}"])[0], time.perf_counter() - begun


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
    passed, failure, seconds = run_copy(None)
    if not passed:
        print(f"tier-1 fails on the unmutated copy: {failure}")
        return 2
    print(f"unmutated copy passes ({seconds:.1f} s); {len(MUTANTS)} mutants on {WORKERS} workers", flush=True)
    survivors = 0
    with ThreadPoolExecutor(WORKERS) as pool:
        for (name, old, new), (survived, failure, seconds) in zip(MUTANTS, pool.map(run_copy, MUTANTS)):
            survivors += survived
            verdict = "SURVIVED" if survived else f"killed by {failure}"
            print(f"{name}: {old.strip()!r} -> {new.strip()!r}: {verdict} ({seconds:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
