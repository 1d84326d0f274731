"""Run tier-1 under a sys.settrace line tracer; fail on any line of
src/qtop that no test reached.  Usage: python tools/linetrace.py"""

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = {str(p): p.read_text().splitlines() for p in sorted((SRC / "qtop").glob("*.py"))}
reached = set()
unseen = {}  # code object -> its lines yet to run; empty outside src/qtop


def own_lines(code):
    lines = {(code.co_filename, i) for _, _, i in code.co_lines() if i}
    if code.co_name != "<module>":
        lines.discard((code.co_filename, code.co_firstlineno))  # the def line runs in its parent
    return lines


def all_lines(code):
    return own_lines(code).union(*(all_lines(c) for c in code.co_consts if hasattr(c, "co_lines")))


def trace(frame, event, arg):
    code = frame.f_code
    if code not in unseen:
        unseen[code] = own_lines(code) if code.co_filename in SOURCES else set()
    if not unseen[code]:
        return None  # outside src/qtop, or every line has run: stop tracing the frame
    reached.add((code.co_filename, frame.f_lineno))
    unseen[code].discard((code.co_filename, frame.f_lineno))
    return trace


class NoDeadline:
    """Tracing slows every example; Hypothesis's per-example deadline is not under test."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("traced", deadline=None)
        settings.load_profile("traced")


sys.path.insert(0, str(SRC))
sys.settrace(trace)
status = pytest.main(["-q", "-p", "no:cacheprovider"], plugins=[NoDeadline])
sys.settrace(None)
executable = set().union(*(all_lines(compile("\n".join(t), f, "exec")) for f, t in SOURCES.items()))
report = [
    f"{Path(f).relative_to(SRC.parent)}:{i}: {SOURCES[f][i - 1].strip()}"
    for f, i in sorted(executable - reached)
]
print("\n".join(report) or "every line of src/qtop was reached")
sys.exit(status or bool(report))
