"""The CLI contract as a law over in-process ``cli.main``, on argv drawn
over the 12 subcommands and documents drawn as canonical ones mutated.

``main`` returns 0, 1 or 2, or exits through argparse's ``SystemExit``
with 0 or 2, and raises nothing else, with stdout and stderr strict
UTF-8 ``TextIOWrapper``s.  On exit 1 or 2 stdout is empty, except for
``validate``'s document on exit 1; on exit 0 stderr is empty; on exit 1
or 2 stderr is one ``error:`` line or an argparse usage message.  Every
family document written on exit 0 parses back and re-writes to the same
bytes.  ``validate`` is held to the pairwise scan of ``tests/oracle.py``
and ``enumerate --n`` up to 3 to the brute-force topologies.

The law checks the contract's shape, not any command's answer: the
exact outputs are pinned in ``test_wire_cli.py``.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from qtop import SubsetFamily, generated_topology, make_ground_set, parse_question
from qtop.cli import main
from qtop.wire import family_document

from conftest import oracle_families
from oracle import first_violation

# Labels that JSON escapes or that read as several: a newline, a comma,
# a quote, a lone surrogate, besides plain and non-ASCII ones.
# ``x0`` and ``x1`` are labels ``enumerate`` and ``definite`` name.
LABELS = ["\n", "a,b", '"', "\ud800", "é", "\U0001f600", "a", "b", "c", "x0", "x1"]
# Integer arguments: in range, negative, non-ASCII digits (``int`` reads
# "٣" as 3), not integers, and past every limit.
INTEGER = st.sampled_from(
    ["0", "1", "2", "3", "4"] * 3 + ["-1", "٣", "2.0", "", "x", str(2**63), str(10**20)]
)

# The commands whose every document on exit 0 is a family document.
FAMILY_COMMANDS = {"resolve", "negate", "clopen", "enumerate", "definite", "parents"}


@st.composite
def documents(draw) -> tuple[bytes, list[str]]:
    """A canonical document of a family on up to 4 labels, a topology or
    not, as ``qtop`` writes it, then perhaps mutated; and its labels."""
    g = make_ground_set(draw(st.lists(st.sampled_from(LABELS), max_size=4, unique=True)))
    full = g.full_mask
    generators = SubsetFamily.from_masks(draw(st.sets(st.integers(0, full))), g)
    masks = set(generated_topology(generators).masks)
    # A topology with one open dropped, other than the empty and the full
    # set, which often leaves C2 or C3 failing; a topology; or one that
    # fails C1.
    kind = draw(st.sampled_from(["open dropped", "topology", "no empty set"]))
    inner = sorted(masks - {0, full})
    if kind == "open dropped" and inner:
        masks.remove(draw(st.sampled_from(inner)))
    elif kind == "no empty set":
        masks.remove(0)
    family = SubsetFamily.from_masks(masks, g)
    text = family_document(family)
    doc = {"elements": list(g.labels), "opens": [list(g.labels_of(m)) for m in family.masks]}
    field = draw(st.sampled_from(["elements", "opens"]))
    odd = st.sampled_from([1, "a", None, {}, [1], [""], ["a", "a"], [[]]])
    mutations = {
        "canonical": lambda: text,
        "field dropped": lambda: json.dumps({k: v for k, v in doc.items() if k != field}),
        "field added": lambda: json.dumps({**doc, "extra": []}),
        "field repeated": lambda: f'{{"{field}":[],{text[1:]}',
        "wrong type": lambda: json.dumps({**doc, field: draw(odd)}),
        "odd open": lambda: json.dumps({**doc, "opens": doc["opens"] + [draw(odd)]}),
        "odd label": lambda: json.dumps({**doc, "elements": doc["elements"] + [draw(odd)]}),
        "unknown label": lambda: json.dumps({**doc, "opens": doc["opens"] + [["?"]]}),
        "too many labels": lambda: json.dumps({**doc, "elements": [f"y{i}" for i in range(17)]}),
        "truncated": lambda: text[: draw(st.integers(0, len(text) - 1))],
        "not an object": lambda: json.dumps([doc]),
        "deep nesting": lambda: '{"elements":' + "[" * 2000 + "]" * 2000 + ',"opens":[]}',
    }
    # Most documents are canonical, so most runs get past the parser.
    mutation = draw(st.sampled_from(["canonical"] * 2 * len(mutations) + sorted(mutations)))
    raw = mutations[mutation]().encode("utf-8")
    encoding = draw(st.sampled_from(["utf-8"] * 8 + ["BOM", "not UTF-8"]))
    if encoding == "BOM":
        raw = b"\xef\xbb\xbf" + raw
    elif encoding == "not UTF-8":
        cut = draw(st.integers(0, len(raw)))
        raw = raw[:cut] + b"\xff" + raw[cut:]
    return raw, list(g.labels)


@st.composite
def invocations(draw, directory, labels):
    """An argv over the 12 subcommands and their options, each option
    now and then left out; its file argument most often names ``q.json``
    in ``directory``, and its labels are often the document's ``labels``."""
    label = st.sampled_from(labels + LABELS)
    # A comma-separated label list, empty segments and all.
    label_list = st.lists(label | st.just(""), min_size=1, max_size=4).map(",".join)
    # The document's labels and up to two more: the ground of a parent.
    superset = st.lists(st.sampled_from(LABELS), max_size=2).map(lambda more: labels + more)
    superset = superset.map(",".join) | label_list
    doc = str(directory / "q.json")
    odd_paths = [str(directory / "missing.json"), str(directory), "a\x00b", "\ud800"]
    path = draw(st.sampled_from([doc] * 12 + odd_paths))

    def option(name, value, required=True):
        present = draw(st.integers(0, 7)) > 0 if required else draw(st.booleans())
        return [name, draw(value)] if present else []

    n = lambda: option("--n", INTEGER)
    point = lambda: option("--point", label)
    names = lambda: option("--labels", label_list, required=False)
    report = st.sampled_from([[], [], ["--count-only"], ["--census"], ["--count-only", "--census"]])
    shapes = {
        "validate": lambda: [path],
        "classify": lambda: [path, *point()],
        "resolve": lambda: [path, *point()],
        "sequence": lambda: [path, *option("--points", label_list)],
        "negate": lambda: [path],
        "clopen": lambda: [path],
        "agree": lambda: [path],
        "sigma": lambda: [path],
        "enumerate": lambda: [*n(), *names(), *draw(report)],
        "definite": lambda: [*n(), *option("--point", st.just("x0") | label), *names()],
        "parents": lambda: [
            path,
            *option("--superset", superset),
            *option("--limit", INTEGER, required=False),
        ],
        "efficiency": lambda: [path, *point()],
    }
    command = draw(st.sampled_from(list(shapes)))
    argv = [command, *shapes[command]()]
    return draw(st.sampled_from([argv] * 30 + [argv + ["--help"], ["--version"]]))


def run(argv):
    """``main(argv)``'s status, or ``("exit", code)`` for a ``SystemExit``,
    with what it wrote to stdout and to stderr."""
    out, err = io.BytesIO(), io.BytesIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", errors="strict", newline="\n")
    stderr = io.TextIOWrapper(err, encoding="utf-8", errors="strict", newline="\n")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            status = main(argv)
        except SystemExit as e:
            status = ("exit", e.code)
        stdout.flush()
        stderr.flush()
    return status, out.getvalue().decode("utf-8"), err.getvalue().decode("utf-8")


ERROR_LINE = re.compile(r"error: [^\n]*\n")
USAGE = re.compile(r"usage: qtop.*\nqtop[^\n]*: error: [^\n]*\n", re.DOTALL)


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def bit_walk(labels, mask):
    return [label for i, label in enumerate(labels) if mask >> i & 1]


@settings(derandomize=True, max_examples=250, deadline=None)
@given(documents(), st.data())
def test_main_keeps_the_cli_contract(directory, document, data):
    raw, labels = document
    (directory / "q.json").write_bytes(raw)
    argv = data.draw(invocations(directory, labels), label="argv")
    status, out, err = run(argv)
    if isinstance(status, tuple):  # argparse's own exit: --help, --version, usage
        if status[1] == 0:
            assert out and err == ""
        else:
            assert status[1] == 2 and out == ""
            assert USAGE.fullmatch(err)
        return
    command = argv[0]
    assert status in (0, 1, 2)
    lines = out.split("\n")
    assert lines.pop() == ""  # each document ends with its newline
    if status == 0:
        assert err == ""
        docs = [json.loads(line) for line in lines]
    elif status == 1 and command == "validate":
        assert (len(lines), err) == (1, "")
        docs = [json.loads(lines[0])]
    else:
        assert out == ""
        assert ERROR_LINE.fullmatch(err)
    flags = set(argv)
    if status == 0 and command in FAMILY_COMMANDS and not flags & {"--count-only", "--census"}:
        for line in lines:
            assert family_document(parse_question(line)[1]) == line
    if command == "validate" and status in (0, 1):
        g, family = parse_question(raw.decode("utf-8"))
        verdict = first_violation(list(family.masks), g.full_mask)
        if verdict is None:
            assert docs == [{"valid": True}]
        else:
            axiom, witnesses = verdict
            assert docs[0]["valid"] is False
            assert docs[0]["axiom"] == axiom
            assert docs[0]["witness"] == [bit_walk(g.labels, w) for w in witnesses]
    if command == "enumerate" and status == 0:
        n = int(argv[argv.index("--n") + 1])
        if n <= 3 and "--census" not in flags:
            expected = oracle_families(n)
            if "--count-only" in flags:
                assert docs == [{"n": n, "count": len(expected)}]
            else:
                assert sorted(parse_question(line)[1].masks for line in lines) == expected
