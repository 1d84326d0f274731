"""Command-line surface.  Each ``cmd_*`` handler maps its parsed
arguments to the documents it outputs; ``main`` runs the handler its
subcommand names, writes the documents, one ``print`` each, and owns the
exit status: 0 success, 1 domain/validation failure, 2 parse/usage
error, 141 stdout closed by its reader."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Iterable

from . import __version__, kernel
from .calculus import classify_question, resolve_issue, resolve_sequence
from .core import (
    GroundSet,
    GroundSetError,
    SizeLimitError,
    SubsetFamily,
    Topology,
    TopologyError,
    UnknownLabelError,
    is_topology,
    make_ground_set,
    make_topology,
)
from .enumeration import (
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
    steps_document,
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise DocumentError(f"cannot read {path!r}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise DocumentError(f"cannot read {path!r}: not UTF-8 ({e.reason})") from None
    except ValueError as e:  # a path no file can have: a null byte, a lone surrogate
        raise DocumentError(f"cannot read {path!r}: {e}") from None


def _family(args) -> SubsetFamily:
    """The family of the document ``args.file`` names, axioms unchecked."""
    return parse_question(_read(args.file))[1]


def _topology(args) -> Topology:
    return make_topology(_family(args))


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
    """argparse type of ``--points``, ``--labels`` and ``--superset``:
    the comma-separated labels, empty segments skipped."""
    points = [p for p in raw.split(",") if p]
    if not points:
        raise argparse.ArgumentTypeError(f"must name at least one label, got {raw!r}")
    return points


def _ground(args) -> GroundSet:
    kernel.check_size(args.n)  # before any label is made: n may be huge
    names = args.labels or [f"x{i}" for i in range(args.n)]
    if len(names) != args.n:
        raise GroundSetError(f"--labels names {len(names)} elements, --n is {args.n}")
    return make_ground_set(names)


class _Invalid(Exception):
    """``validate``'s verdict on a family that fails an axiom: ``main``
    writes the document it holds and exits 1."""


def cmd_validate(args) -> list[str]:
    ok, violation = is_topology(_family(args))
    if ok:
        return [dumps({"valid": True})]
    raise _Invalid(
        dumps(
            {
                "valid": False,
                "axiom": violation.axiom,
                "message": violation.message,
                "witness": [w.ground.labels_of(w.mask) for w in violation.witnesses],
            }
        )
    )


def cmd_classify(args) -> list[str]:
    return [outcome_document(classify_question(_topology(args), args.point))]


def cmd_resolve(args) -> list[str]:
    return [family_document(resolve_issue(_topology(args), args.point))]


def cmd_sequence(args) -> list[str]:
    return [steps_document(resolve_sequence(_topology(args), args.points))]


def cmd_negate(args) -> list[str]:
    return [family_document(negation_question(_topology(args)))]


def cmd_clopen(args) -> list[str]:
    return [family_document(clopen_sets(_topology(args)))]


def cmd_agree(args) -> list[str]:
    # A validated topology is a sigma-field iff it is closed under
    # complement, which is exactly what machines_agree counts.
    agree = machines_agree(_topology(args))
    return [dumps({"machines_agree": agree, "sigma_field": agree})]


def cmd_sigma(args) -> list[str]:
    return [dumps({"sigma_field": is_sigma_field(_family(args))})]


def cmd_enumerate(args) -> Iterable[str]:
    ground = _ground(args)
    if args.count_only:
        return [dumps({"n": args.n, "count": count_topologies(args.n)})]
    if args.census:
        report = enumeration_report(ground)
        return [
            dumps(
                {
                    "n": report.n,
                    "count": report.count,
                    "census": report.census,
                    "self_dual_count": report.self_dual_count,
                }
            )
        ]
    return map(family_document, enumerate_topologies(ground))


def cmd_definite(args) -> Iterable[str]:
    return map(family_document, find_definite_questions(_ground(args), args.point))


def cmd_parents(args) -> Iterable[str]:
    t = _topology(args)
    superset = make_ground_set(args.superset)
    return map(family_document, parent_questions(t, superset, args.limit))


def cmd_efficiency(args) -> list[str]:
    return [dumps({"eliminated": elimination_efficiency(_topology(args), args.point)})]


@functools.cache  # built once per process: building it takes about 2 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtop",
        description="Question calculus on finite topologies",
    )
    parser.add_argument("--version", action="version", version=f"qtop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # Arguments shared by several subcommands, each declared once.
    file = argparse.ArgumentParser(add_help=False)
    file.add_argument("file")
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--point", required=True)
    n = argparse.ArgumentParser(add_help=False)
    n.add_argument("--n", type=_non_negative, required=True)

    def add(name, help, *shared):
        return sub.add_parser(name, help=help, parents=shared)

    add("validate", "check the topology axioms of a document", file)
    add("classify", "three-way classification of a question", file, point)
    add("resolve", "raw elimination family T - N(x)", file, point)

    p = add("sequence", "iterated elimination chain", file)
    p.add_argument("--points", type=_points, required=True, metavar="L1,L2,...")

    add("negate", "negation question document", file)
    add("clopen", "clopen family of a question", file)
    add("agree", "machine/anti-machine agreement and sigma-field verdict", file)
    add("sigma", "sigma-field predicate on the raw family", file)

    p = add("enumerate", "stream all questions on n points", n)
    p.add_argument("--labels", type=_points, metavar="L1,L2,...")
    report = p.add_mutually_exclusive_group()
    report.add_argument("--count-only", action="store_true")
    report.add_argument("--census", action="store_true")

    p = add("definite", "questions with a definite answer for a point", n, point)
    p.add_argument("--labels", type=_points, metavar="L1,L2,...")

    p = add("parents", "questions on a superset containing this one", file)
    p.add_argument("--superset", type=_points, required=True, metavar="L1,L2,...")
    p.add_argument("--limit", type=_non_negative)

    add("efficiency", "assertions eliminated by one resolution", file, point)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)  # --help and --version exit here
            handler = globals()[f"cmd_{args.command}"]  # looked up at call time
            # One print per document, not one joined write: on an unbuffered
            # stdout a large write that a closed pipe cuts short is dropped
            # without an error, and only print's own "\n" write raises.
            for document in handler(args):
                print(document)
            return 0
        except _Invalid as e:
            print(e)  # the failing family's document
            return 1
        except DocumentError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        except (TopologyError, GroundSetError, UnknownLabelError, SizeLimitError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        finally:
            sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # Quiet the flush at exit, and report the status a shell gives a
        # writer killed by SIGPIPE (128 + 13).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
