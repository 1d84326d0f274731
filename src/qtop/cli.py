"""Command-line surface.  Exit codes: 0 success, 1 domain/validation
failure, 2 parse/usage error."""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .calculus import classify_question, resolve_issue, resolve_sequence
from .core import (
    GroundSetError,
    SizeLimitError,
    Topology,
    TopologyError,
    UnknownLabelError,
    is_topology,
    make_ground_set,
    make_topology,
)
from .enumeration import (
    _check_size,
    count_topologies,
    enumerate_topologies,
    enumeration_report,
    elimination_efficiency,
    find_definite_questions,
    parent_questions,
)
from .negation import clopen_sets, is_sigma_field, machines_agree, negation_question
from .wire import (
    DocumentError,
    dumps,
    family_document,
    outcome_document,
    parse_question,
    question_document,
    steps_document,
    subset_labels,
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise DocumentError(f"cannot read {path}: not UTF-8 ({e.reason})") from None


def _load_topology(path: str) -> Topology:
    ground, family = parse_question(_read(path))
    return make_topology(family)


def _non_negative(raw: str) -> int:
    """argparse type of ``--n`` and ``--limit``."""
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {raw!r}")
    return value


def _points(raw: str) -> list[str]:
    return [p for p in raw.split(",") if p]


def _ground_for(n: int, labels: str | None):
    _check_size(n)  # before any label is made: n may be huge
    if labels is not None:
        names = _points(labels)
        if len(names) != n:
            raise GroundSetError(f"--labels names {len(names)} elements, --n is {n}")
        return make_ground_set(names)
    return make_ground_set([f"x{i}" for i in range(n)])


def cmd_validate(args) -> int:
    ground, family = parse_question(_read(args.file))
    ok, violation = is_topology(family)
    if ok:
        print(dumps({"valid": True}))
        return 0
    print(
        dumps(
            {
                "valid": False,
                "axiom": violation.axiom,
                "message": violation.message,
                "witness": [subset_labels(w) for w in violation.witnesses],
            }
        )
    )
    return 1


def cmd_classify(args) -> int:
    t = _load_topology(args.file)
    print(outcome_document(classify_question(t, args.point)))
    return 0


def cmd_resolve(args) -> int:
    t = _load_topology(args.file)
    print(family_document(resolve_issue(t, args.point)))
    return 0


def cmd_sequence(args) -> int:
    t = _load_topology(args.file)
    print(steps_document(resolve_sequence(t, _points(args.points))))
    return 0


def cmd_negate(args) -> int:
    t = _load_topology(args.file)
    print(family_document(negation_question(t).family))
    return 0


def cmd_clopen(args) -> int:
    t = _load_topology(args.file)
    print(family_document(clopen_sets(t)))
    return 0


def cmd_agree(args) -> int:
    t = _load_topology(args.file)
    print(
        dumps(
            {
                "machines_agree": machines_agree(t),
                "sigma_field": is_sigma_field(t.family),
            }
        )
    )
    return 0


def cmd_sigma(args) -> int:
    ground, family = parse_question(_read(args.file))
    print(dumps({"sigma_field": is_sigma_field(family)}))
    return 0


def cmd_enumerate(args) -> int:
    ground = _ground_for(args.n, args.labels)
    if args.count_only:
        print(dumps({"n": args.n, "count": count_topologies(args.n)}))
        return 0
    if args.census:
        report = enumeration_report(ground)
        print(
            dumps(
                {
                    "n": report.n,
                    "count": report.count,
                    "census": report.census,
                    "self_dual_count": report.self_dual_count,
                }
            )
        )
        return 0
    for t in enumerate_topologies(ground):
        print(question_document(ground, t.family))
    return 0


def cmd_definite(args) -> int:
    ground = _ground_for(args.n, args.labels)
    for t in find_definite_questions(ground, args.point):
        print(question_document(ground, t.family))
    return 0


def cmd_parents(args) -> int:
    t = _load_topology(args.file)
    superset = make_ground_set(_points(args.superset))
    for parent in parent_questions(t, superset, args.limit):
        print(question_document(superset, parent.family))
    return 0


def cmd_efficiency(args) -> int:
    t = _load_topology(args.file)
    print(dumps({"eliminated": elimination_efficiency(t, args.point)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtop",
        description="Question calculus on finite topologies",
    )
    parser.add_argument("--version", action="version", version=f"qtop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate, "check the topology axioms of a document")
    p.add_argument("file")

    p = add("classify", cmd_classify, "three-way classification of a question")
    p.add_argument("file")
    p.add_argument("--point", required=True)

    p = add("resolve", cmd_resolve, "raw elimination family T - N(x)")
    p.add_argument("file")
    p.add_argument("--point", required=True)

    p = add("sequence", cmd_sequence, "iterated elimination chain")
    p.add_argument("file")
    p.add_argument("--points", required=True, metavar="L1,L2,...")

    p = add("negate", cmd_negate, "negation question document")
    p.add_argument("file")

    p = add("clopen", cmd_clopen, "clopen family of a question")
    p.add_argument("file")

    p = add("agree", cmd_agree, "machine/anti-machine agreement and sigma-field verdict")
    p.add_argument("file")

    p = add("sigma", cmd_sigma, "sigma-field predicate on the raw family")
    p.add_argument("file")

    p = add("enumerate", cmd_enumerate, "stream all questions on n points")
    p.add_argument("--n", type=_non_negative, required=True)
    p.add_argument("--labels", metavar="L1,L2,...")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--census", action="store_true")

    p = add("definite", cmd_definite, "questions with a definite answer for a point")
    p.add_argument("--n", type=_non_negative, required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--labels", metavar="L1,L2,...")

    p = add("parents", cmd_parents, "questions on a superset containing this one")
    p.add_argument("file")
    p.add_argument("--superset", required=True, metavar="L1,L2,...")
    p.add_argument("--limit", type=_non_negative)

    p = add("efficiency", cmd_efficiency, "assertions eliminated by one resolution")
    p.add_argument("file")
    p.add_argument("--point", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TopologyError, GroundSetError, UnknownLabelError, SizeLimitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
