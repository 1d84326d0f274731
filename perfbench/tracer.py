"""In-memory span tracer that wraps qtop's public functions from outside.

``Tracer.install`` replaces each traced function wherever a qtop module
holds a reference to it (``from .core import make_topology`` copies the
name into the importing module), so calls between layers are seen as
well as the benchmark's own calls.  ``uninstall`` puts the originals
back.  Spans carry name, start, end and the index of the parent span;
a span's self time is its duration minus the time of its child spans.
Generator functions get one span per resumption, so a consumer's work
between items is not charged to the generator.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("kernel", "core", "calculus", "negation", "enumeration", "wire", "cli")

PATCHED_MODULES = (
    "qtop",
    "qtop.kernel",
    "qtop.core",
    "qtop.calculus",
    "qtop.negation",
    "qtop.enumeration",
    "qtop.wire",
    "qtop.cli",
)


def _n_results(args, result):
    return len(result)


def _n_opens(args, result):
    return len(args[0])


def _bytes_in(args, result):
    return len(args[0].encode("utf-8"))


def _bytes_out(args, result):
    return len(result.encode("utf-8"))


# (module holding the public name, attribute, span name, unit counter)
FUNCTIONS = (
    ("qtop.kernel", "topology_masks", "kernel.topology_masks", _n_results),
    ("qtop.kernel", "count_topology_masks", "kernel.count_topology_masks", None),
    ("qtop.core", "is_topology", "core.is_topology", _n_opens),
    ("qtop.core", "make_topology", "core.make_topology", None),
    ("qtop.calculus", "classify_question", "calculus.classify_question", None),
    ("qtop.calculus", "resolve_issue", "calculus.resolve_issue", None),
    ("qtop.calculus", "resolve_sequence", "calculus.resolve_sequence", None),
    ("qtop.calculus", "subspace_topology", "calculus.subspace_topology", None),
    ("qtop.negation", "negation_question", "negation.negation_question", None),
    ("qtop.negation", "clopen_sets", "negation.clopen_sets", None),
    ("qtop.negation", "is_sigma_field", "negation.is_sigma_field", None),
    ("qtop.negation", "machines_agree", "negation.machines_agree", None),
    ("qtop.enumeration", "enumeration_report", "enumeration.enumeration_report", None),
    ("qtop.enumeration", "count_topologies", "enumeration.count_topologies", None),
    ("qtop.enumeration", "elimination_efficiency", "enumeration.elimination_efficiency", None),
    ("qtop.wire", "parse_question", "wire.parse_question", _bytes_in),
    ("qtop.wire", "question_document", "wire.serialize", _bytes_out),
    ("qtop.wire", "family_document", "wire.serialize", _bytes_out),
    ("qtop.wire", "outcome_document", "wire.serialize", _bytes_out),
    ("qtop.wire", "steps_document", "wire.serialize", _bytes_out),
)

GENERATORS = (
    ("qtop.enumeration", "enumerate_topologies", "enumeration.enumerate_topologies"),
    ("qtop.enumeration", "find_definite_questions", "enumeration.find_definite_questions"),
    ("qtop.enumeration", "parent_questions", "enumeration.parent_questions"),
)


# Spans reported per layer: (span name, report calls, (counter name, unit)).
TRACED_METRICS = (
    ("kernel.topology_masks", True, ("masks_out", "count/op")),
    ("core.materialize", True, None),
    ("core.is_topology", True, ("opens_in", "count/op")),
    ("calculus.classify_question", True, None),
    ("negation.negation_question", True, None),
    ("wire.parse_question", False, ("bytes_in", "bytes/op")),
    ("wire.serialize", False, ("bytes_out", "bytes/op")),
)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


# The spans of this many first ops are kept for writing out; later ops
# only add to the totals, which keeps memory bounded.
KEPT_OPS = 2


class Tracer:
    """Records spans of one op at a time and folds them into totals."""

    def __init__(self):
        self.kept: list[list[tuple]] = []
        self.calls: Counter = Counter()
        self.busy_s: defaultdict = defaultdict(float)
        self.units: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.failed: Counter = Counter()
        self.ops = 0
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self.begin_op()

    # -- spans ---------------------------------------------------------
    def begin_op(self) -> None:
        self.spans: list = []
        self._roots_s = 0.0
        self._raised_layer: str | None = None
        self._last_root_layer: str | None = None

    def enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self._stack.append([name, perf_counter(), 0.0, len(self.spans), parent])
        self.spans.append(None)

    def exit(self, raised: bool = False, units: int = 0, count: bool = True) -> None:
        end = perf_counter()
        name, start, child_s, index, parent = self._stack.pop()
        duration = end - start
        self.spans[index] = (name, start, end, parent)
        layer = layer_of(name)
        self.calls[name] += count
        self.busy_s[name] += duration
        self.units[name] += units
        self.self_s[layer] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self._roots_s += duration
            self._last_root_layer = layer
        if raised and self._raised_layer is None:
            self._raised_layer = layer

    def end_op(self, op_s: float, ok: bool) -> None:
        """Close one op of ``op_s`` seconds.  A failed op is charged to the
        deepest layer that raised, else to the last layer called."""
        self.self_s["other"] += op_s - self._roots_s
        if not ok:
            self.failed[self._raised_layer or self._last_root_layer or "other"] += 1
        if len(self.kept) < KEPT_OPS:
            self.kept.append(self.spans)
        self.ops += 1
        self.begin_op()

    # -- totals from another process -----------------------------------
    def summary(self) -> dict:
        """Totals of the current op, for a child process to hand back."""
        return {
            "calls": dict(self.calls),
            "busy_s": dict(self.busy_s),
            "units": dict(self.units),
            "self_s": dict(self.self_s),
            "roots_s": self._roots_s,
            "raised_layer": self._raised_layer,
            "last_root_layer": self._last_root_layer,
            "spans": self.spans,
        }

    def merge(self, child: dict) -> None:
        """Add a child process's op totals to the current op."""
        for key in ("calls", "units"):
            getattr(self, key).update(child[key])
        for key in ("busy_s", "self_s"):
            for name, value in child[key].items():
                getattr(self, key)[name] += value
        self._roots_s += child["roots_s"]
        self._raised_layer = self._raised_layer or child["raised_layer"]
        self._last_root_layer = child["last_root_layer"] or self._last_root_layer
        offset = len(self.spans)
        self.spans.extend(
            (name, start, end, parent + offset if parent >= 0 else -1)
            for name, start, end, parent in child["spans"]
        )

    # -- patching ------------------------------------------------------
    def _wrap(self, fn, name, counter):
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:  # e.g. family_document -> question_document
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(raised=True)
                raise
            self.exit(units=counter(args, result) if counter else 0)
            return result

        return traced

    def _wrap_generator(self, fn, name):
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            first = True
            while True:
                self.enter(name)
                try:
                    item = next(items)
                except StopIteration:
                    self.exit(count=first)
                    return
                except BaseException:
                    self.exit(raised=True, count=first)
                    raise
                self.exit(count=first)
                first = False
                yield item

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[m] for m in PATCHED_MODULES if m in sys.modules]
        replace = {}
        for module, attr, name, counter in FUNCTIONS:
            fn = getattr(importlib.import_module(module), attr)
            replace[fn] = self._wrap(fn, name, counter)
        for module, attr, name in GENERATORS:
            fn = getattr(importlib.import_module(module), attr)
            replace[fn] = self._wrap_generator(fn, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in replace:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replace[value])
        # Materializing a family is a classmethod, reached through the class.
        core = importlib.import_module("qtop.core")
        original = core.SubsetFamily.__dict__["from_masks"]
        self._patches.append((core.SubsetFamily, "from_masks", original))
        core.SubsetFamily.from_masks = classmethod(
            self._wrap(original.__func__, "core.materialize", None)
        )

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results -------------------------------------------------------
    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-op means of every per-layer metric, as (value, unit)."""
        ops = max(self.ops, 1)
        out: dict[str, tuple[float, str]] = {}
        for span, calls, counter in TRACED_METRICS:
            if calls:
                out[f"{span}.calls"] = (self.calls[span] / ops, "count/op")
            out[f"{span}.busy_ms"] = (1e3 * self.busy_s[span] / ops, "ms/op")
            if counter:
                name, unit = counter
                out[f"{span}.{name}"] = (self.units[span] / ops, unit)
        for layer in LAYERS + ("other",):
            out[f"{layer}.self_ms"] = (1e3 * self.self_s[layer] / ops, "ms/op")
        for layer in LAYERS:
            out[f"{layer}.failed"] = (self.failed[layer] / ops, "count/op")
        return out
