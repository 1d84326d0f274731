import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from qtop import DocumentError, cli, parse_question
from qtop.cli import main
from qtop.wire import question_document

# The first opens list is a topology on {a,b} other than the second.
REPEATED_OPENS_DOC = (
    '{"elements":["a","b"],"opens":[[],["a"],["a","b"]],"opens":[[],["a","b"]]}'
)


def write_doc(tmp_path, elements, opens, name="q.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"elements": elements, "opens": opens}))
    return str(path)


def opens_of(labels, masks):
    return [[x for i, x in enumerate(labels) if m >> i & 1] for m in masks]


# 16 labels (the ground size cap), not in name order: the last eight
# are named through the high byte of the label codec.
L16 = list("nckamhblejdgpfio")


@pytest.fixture(scope="module")
def discrete_16(tmp_path_factory):
    """The discrete topology on ``L16`` in canonical form, as ``qtop``
    writes it: 65536 opens, 2.2 MB."""
    path = tmp_path_factory.mktemp("discrete") / "discrete.json"
    doc = {"elements": L16, "opens": opens_of(L16, range(1 << 16))}
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return str(path)


class TestParseQuestion:
    def test_t1_document(self):
        ground, family = parse_question(
            '{"elements":["m","s"],"opens":[[],["m"],["s"],["m","s"]]}'
        )
        assert ground.labels == ("m", "s")
        assert family.masks == (0, 1, 2, 3)

    def test_singleton_document(self):
        ground, family = parse_question('{"elements":["m"],"opens":[[],["m"]]}')
        assert family.masks == (0, 1)

    def test_duplicate_element(self):
        with pytest.raises(DocumentError, match="duplicate"):
            parse_question('{"elements":["m","m"],"opens":[]}')

    def test_unknown_label_names_the_field(self):
        with pytest.raises(DocumentError, match=r"opens\[1\]"):
            parse_question('{"elements":["m"],"opens":[[],["z"]]}')

    @pytest.mark.parametrize(
        "opens, message",
        [
            ([[], [1]], "opens[1]: unknown label 1"),
            ([[], [["s"]]], "opens[1]: unknown label ['s']"),
            ([[], [{}]], "opens[1]: unknown label {}"),
            # The first bad entry is named, and within it the first bad label.
            ([[], ["m"], ["s", "z", "q"], ["y"]], "opens[2]: unknown label 'z'"),
        ],
    )
    def test_unknown_label_message(self, opens, message):
        text = json.dumps({"elements": ["m", "s"], "opens": opens})
        with pytest.raises(DocumentError) as e:
            parse_question(text)
        assert str(e.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "document must be an object"),
            ('"elements"', "document must be an object"),
            ('{"elements":"ms","opens":[]}', "field 'elements' must be a list"),
            ('{"elements":[],"opens":{}}', "field 'opens' must be a list"),
            ('{"elements":["m"],"opens":[[],"m"]}', "opens[1]: must be a list of labels"),
            # ``json.loads`` alone would keep the last copy of a field.
            (REPEATED_OPENS_DOC, "duplicate field: opens"),
            (
                '{"elements":["a"],"opens":[[],["a"]],"elements":["b"]}',
                "duplicate field: elements",
            ),
            # The first key that repeats is named, not the first key.
            (
                '{"opens":[],"elements":[],"elements":[],"opens":[]}',
                "duplicate field: elements",
            ),
        ],
    )
    def test_shape_error_message(self, text, message, tmp_path, capsys):
        """The message names what is malformed, and ``main`` reports it
        as a parse error: exit 2, one line on stderr."""
        with pytest.raises(DocumentError) as e:
            parse_question(text)
        assert str(e.value) == message
        path = tmp_path / "shape.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_syntax_error_reports_position(self):
        with pytest.raises(DocumentError, match="line 1"):
            parse_question("{nope")

    def test_missing_field(self):
        with pytest.raises(DocumentError, match="missing field: opens"):
            parse_question('{"elements":["m"]}')

    def test_unexpected_field(self):
        with pytest.raises(DocumentError, match="unexpected"):
            parse_question('{"elements":[],"opens":[],"extra":1}')

    def test_round_trip_is_canonicalization(self):
        text = '{"elements":["m","s"],"opens":[["s","m"],["m"],[],["m"]]}'
        ground, family = parse_question(text)
        canonical = question_document(family)
        assert canonical == '{"elements":["m","s"],"opens":[[],["m"],["m","s"]]}'
        ground2, family2 = parse_question(canonical)
        assert question_document(family2) == canonical


class TestCliCommands:
    def test_validate_ok(self, t_x_file, capsys):
        assert main(["validate", t_x_file]) == 0
        assert capsys.readouterr().out == '{"valid":true}\n'

    def test_validate_failure_exits_one(self, tmp_path, capsys):
        path = write_doc(tmp_path, ["m", "s"], [[], ["m"]])
        assert main(["validate", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is False
        assert out["axiom"] == "C1"

    @pytest.mark.parametrize(
        "elements, masks, out",
        [
            pytest.param(
                ["a", "b", "c"],
                [0, 1, 2, 7],
                '{"valid":false,"axiom":"C2","message":"union of [\\"a\\"] and '
                '[\\"b\\"] is not in the family","witness":[["a"],["b"]]}\n',
                id="C2",
            ),
            pytest.param(
                ["m", "s", "e"],
                [0, 3, 6, 7],
                '{"valid":false,"axiom":"C3","message":"intersection of [\\"m\\",\\"s\\"] '
                'and [\\"s\\",\\"e\\"] is not in the family",'
                '"witness":[["m","s"],["s","e"]]}\n',
                id="C3",
            ),
            # Two opens that meet only in bit 8, so the witness is named
            # through the high byte of the label codec.  Their unions are
            # the family, but the least opens are not transitive.
            pytest.param(
                L16,
                [0, 0x1FF, 0xFF00, 0xFFFF],
                '{"valid":false,"axiom":"C3","message":"intersection of '
                '[\\"n\\",\\"c\\",\\"k\\",\\"a\\",\\"m\\",\\"h\\",\\"b\\",\\"l\\",\\"e\\"] and '
                '[\\"e\\",\\"j\\",\\"d\\",\\"g\\",\\"p\\",\\"f\\",\\"i\\",\\"o\\"] is not '
                'in the family","witness":[["n","c","k","a","m","h","b","l","e"],'
                '["e","j","d","g","p","f","i","o"]]}\n',
                id="C3-high-byte",
            ),
            # 57344 opens: every subset without o, o joined with any subset
            # that meets n or c, and the full set.  {n,o} & {c,o} is
            # missing; validation finds that first pair along the rows of
            # the least opens alone, where a scan over every pair would
            # take minutes.
            pytest.param(
                L16,
                [*range(1 << 15), *(1 << 15 | m for m in range(1 << 15) if m & 3)],
                '{"valid":false,"axiom":"C3","message":"intersection of [\\"n\\",\\"o\\"] '
                'and [\\"c\\",\\"o\\"] is not in the family","witness":[["n","o"],["c","o"]]}\n',
                id="C3-57344-opens",
            ),
        ],
    )
    def test_validate_failure_names_its_witnesses(
        self, elements, masks, out, tmp_path, capsys
    ):
        """The message writes each witness as a compact JSON array, the
        witness field as a list of labels."""
        path = write_doc(tmp_path, elements, opens_of(elements, masks))
        assert main(["validate", path]) == 1
        assert capsys.readouterr() == (out, "")

    def test_classify_type_one(self, t_x_file, capsys):
        assert main(["classify", t_x_file, "--point", "e"]) == 0
        assert (
            capsys.readouterr().out
            == '{"kind":"type-1","carrier":["m","s"],"opens":[[],["m"],["m","s"]]}\n'
        )

    def test_resolve(self, t_x_file, capsys):
        assert main(["resolve", t_x_file, "--point", "e"]) == 0
        assert (
            capsys.readouterr().out
            == '{"elements":["m","s","e"],"opens":[[],["m"],["m","s"]]}\n'
        )

    def test_sequence(self, t_x_file, capsys):
        assert main(["sequence", t_x_file, "--points", "e,s"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert [step["kind"] for step in doc["steps"]] == ["type-1", "type-1"]
        assert doc["steps"][0]["carrier"] == ["m", "s"]
        # An empty segment names no point.
        assert main(["sequence", t_x_file, "--points", "e,,s"]) == 0
        assert capsys.readouterr() == (out, "")

    def test_negate(self, tmp_path, discrete_16, capsys):
        path = write_doc(tmp_path, ["m", "s"], [[], ["m"], ["m", "s"]])
        assert main(["negate", path]) == 0
        assert (
            capsys.readouterr().out
            == '{"elements":["m","s"],"opens":[[],["s"],["m","s"]]}\n'
        )
        # The discrete topology is its own negation: two round trips
        # through the wire give back the canonical input byte for byte.
        once = tmp_path / "once.json"
        assert main(["negate", discrete_16]) == 0
        once.write_text(capsys.readouterr().out)
        assert main(["negate", str(once)]) == 0
        doc = Path(discrete_16).read_text()
        assert once.read_text() == doc == capsys.readouterr().out

    def test_clopen(self, t_x_file, capsys):
        assert main(["clopen", t_x_file]) == 0
        assert (
            capsys.readouterr().out
            == '{"elements":["m","s","e"],"opens":[[],["m","s","e"]]}\n'
        )

    def test_agree_and_sigma(self, t_x_file, discrete_16, tmp_path, capsys):
        assert main(["agree", t_x_file]) == 0
        assert (
            capsys.readouterr().out
            == '{"machines_agree":false,"sigma_field":false}\n'
        )
        discrete = write_doc(
            tmp_path, ["m", "s"], [[], ["m"], ["s"], ["m", "s"]], "d.json"
        )
        assert main(["agree", discrete]) == 0
        assert (
            capsys.readouterr().out == '{"machines_agree":true,"sigma_field":true}\n'
        )
        # sigma works on raw, non-topology families
        raw = write_doc(tmp_path, ["m", "s"], [[], ["m"], ["s"]], "raw.json")
        assert main(["sigma", raw]) == 0
        assert capsys.readouterr().out == '{"sigma_field":false}\n'
        # Closed under complement, but the union {a,b} is missing (C2):
        # sigma passes the complement test and fails in the axiom check.
        c2 = write_doc(
            tmp_path, ["a", "b", "c"], opens_of("abc", [0, 1, 2, 5, 6, 7]), "c2.json"
        )
        assert main(["sigma", c2]) == 0
        assert capsys.readouterr().out == '{"sigma_field":false}\n'
        # Every one of the 65536 opens is clopen.  agree reads the verdict
        # off the clopen count; sigma runs the raw-family check on them all.
        assert main(["agree", discrete_16]) == 0
        assert capsys.readouterr().out == '{"machines_agree":true,"sigma_field":true}\n'
        assert main(["sigma", discrete_16]) == 0
        assert capsys.readouterr().out == '{"sigma_field":true}\n'

    def test_enumerate_stream(self, capsys):
        assert main(["enumerate", "--n", "2", "--labels", "m,s"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[0] == '{"elements":["m","s"],"opens":[[],["m"],["s"],["m","s"]]}'
        assert lines[3] == '{"elements":["m","s"],"opens":[[],["m","s"]]}'

    def test_enumerate_count_only_and_census(self, capsys):
        assert main(["enumerate", "--n", "3", "--count-only"]) == 0
        assert capsys.readouterr().out == '{"n":3,"count":29}\n'
        assert main(["enumerate", "--n", "3", "--census"]) == 0
        assert capsys.readouterr().out == (
            '{"n":3,"count":29,"census":{"x0":{"type-1":22,"type-2":7},'
            '"x1":{"type-1":22,"type-2":7},"x2":{"type-1":22,"type-2":7}},'
            '"self_dual_count":5}\n'
        )
        assert main(["enumerate", "--n", "2", "--census"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 4
        assert doc["self_dual_count"] == 2
        assert doc["census"]["x0"]["type-1"] + doc["census"]["x0"]["type-2"] == 4

    def test_definite(self, capsys):
        assert main(["definite", "--n", "2", "--point", "m", "--labels", "m,s"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            '{"elements":["m","s"],"opens":[[],["m"],["m","s"]]}',
            '{"elements":["m","s"],"opens":[[],["m","s"]]}',
        ]

    def test_parents(self, tmp_path, capsys):
        path = write_doc(tmp_path, ["m"], [[], ["m"]])
        assert main(["parents", path, "--superset", "m,s"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 2
        assert main(["parents", path, "--superset", "m,s", "--limit", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1
        # A limit past sys.maxsize, which itertools.islice refuses: every parent.
        assert main(["parents", path, "--superset", "m,s", "--limit", str(2**63)]) == 0
        assert capsys.readouterr() == (out, "")

    def test_efficiency(self, t_x_file, capsys):
        assert main(["efficiency", t_x_file, "--point", "m"]) == 0
        assert capsys.readouterr().out == '{"eliminated":3}\n'
        # Type-1: the carrier {m,s} is left, so one assertion goes.
        assert main(["efficiency", t_x_file, "--point", "e"]) == 0
        assert capsys.readouterr().out == '{"eliminated":1}\n'

    def test_output_is_stable_across_runs(self, capsys):
        main(["enumerate", "--n", "3"])
        first = capsys.readouterr().out
        main(["enumerate", "--n", "3"])
        assert capsys.readouterr().out == first


class TestCliExitCodes:
    @pytest.mark.filterwarnings("ignore:'qtop.cli' found in sys.modules")
    def test_module_run_as_a_script_exits_with_mains_status(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["qtop", "enumerate", "--n", "2", "--count-only"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("qtop.cli", run_name="__main__")
        assert exc.value.code == 0
        assert capsys.readouterr().out == '{"n":2,"count":4}\n'

    @staticmethod
    def closed_early(argv, unbuffered, read):
        """Run ``qtop argv`` with ``PYTHONUNBUFFERED`` unset or set to 1,
        let ``read`` take what it wants of stdout, close the pipe, and
        give the exit status and stderr."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "qtop.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**env, "PYTHONPATH": src},
        )
        head = read(proc.stdout)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return head, proc.wait(), err

    def test_closed_stdout_exits_141_quietly(self):
        """``qtop enumerate --n 5 | head -n 1``: the reader goes away while
        the writer still holds far more than a pipe buffer."""
        argv = ["enumerate", "--n", "5"]
        for unbuffered in (False, True):
            head, code, err = self.closed_early(argv, unbuffered, lambda out: out.readline())
            assert head.startswith(b'{"elements":["x0"')
            assert (code, err) == (141, b"")

    def test_one_document_larger_than_the_pipe_exits_141_quietly(self, discrete_16):
        """``qtop negate discrete.json | head -c 10`` on the 16-point
        discrete topology: one 2.2 MB document.  Unbuffered, a single
        write of it all would be cut short at the pipe without an error."""
        argv = ["negate", discrete_16]
        for unbuffered in (False, True):
            head, code, err = self.closed_early(argv, unbuffered, lambda out: out.read(10))
            assert head == b'{"elements'
            assert (code, err) == (141, b"")

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_on_a_closed_pipe_exit_141_quietly(self, flag):
        """``qtop --version | (exec 0<&-)``: the reader is gone before the
        block-buffered text is flushed, which argparse leaves to exit."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qtop.cli", flag],
                stdout=write,
                stderr=subprocess.PIPE,
                env={**env, "PYTHONPATH": src},
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")

    @pytest.mark.parametrize(
        "argv",
        [["enumerate", "--n", "4"], ["enumerate", "--n", "2", "--count-only"]],
        ids=["overflows-the-buffer", "fits-in-the-buffer"],
    )
    def test_closed_stdout_is_pointed_at_devnull(self, argv, monkeypatch, capsys):
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as closed, monkeypatch.context() as m:
            m.setattr(sys, "stdout", closed)
            assert main(argv) == 141
            assert os.path.samestat(os.fstat(write), os.stat(os.devnull))
        # Closing flushed the rest of the buffer into the null device.
        assert capsys.readouterr() == ("", "")

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["validate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["classify", "/no/such/file", "--point", "m"]) == 2
        assert capsys.readouterr() == (
            "",
            "error: cannot read '/no/such/file': No such file or directory\n",
        )
        # A name holding the byte 0xff, which a strict UTF-8 stderr cannot
        # print raw; then paths open() refuses with a ValueError, which no
        # shell argv can carry.
        for path in ("\udcff", "a\x00b", "\ud800"):
            assert main(["validate", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: cannot read {path!r}: ")

    def test_invalid_topology_for_classify_exits_one(self, tmp_path, capsys):
        path = write_doc(tmp_path, ["m", "s"], [[], ["m"]])
        assert main(["classify", path, "--point", "m"]) == 1

    def test_unknown_point_for_definite_exits_one(self, capsys):
        assert main(["definite", "--n", "2", "--point", "z"]) == 1
        assert capsys.readouterr() == (
            "",
            "error: label 'z' is not in ground set ['x0', 'x1']\n",
        )

    def test_size_limit_exits_one(self, capsys):
        assert main(["enumerate", "--n", "6"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--n", "17", "--count-only"],
            ["definite", "--n", "17", "--point", "x0"],
            ["enumerate", "--n", str(10**30), "--count-only"],
        ],
    )
    def test_oversized_n_is_refused_before_labels_are_made(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: enumeration limited to ground sets of at most 5 elements, "
            f"got {argv[2]}\n"
        )

    @pytest.mark.parametrize("superset", ["m,s,a,b,c,d", "s,a,b,c,d,e"])
    def test_parents_over_the_size_limit_exits_one(self, superset, tmp_path, capsys):
        """Whether or not the superset holds the question's label ``m``,
        its size is what is refused."""
        path = write_doc(tmp_path, ["m"], [[], ["m"]])
        assert main(["parents", path, "--superset", superset]) == 1
        assert capsys.readouterr() == (
            "",
            "error: enumeration limited to ground sets of at most 5 elements, got 6\n",
        )

    @pytest.mark.parametrize(
        "flags", [["--count-only", "--census"], ["--census", "--count-only"]]
    )
    def test_count_only_and_census_are_a_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "3", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    def test_deeply_nested_document_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 5000 + "]" * 5000)
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: document is nested too deeply\n"

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr() == ("qtop 0.1.0\n", "")

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify"])  # missing file and --point
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, usage, required",
        [
            ("validate", "[-h] file", "file"),
            ("classify", "[-h] --point POINT file", "file, --point"),
            ("resolve", "[-h] --point POINT file", "file, --point"),
            ("sequence", "[-h] --points L1,L2,... file", "file, --points"),
            ("negate", "[-h] file", "file"),
            ("clopen", "[-h] file", "file"),
            ("agree", "[-h] file", "file"),
            ("sigma", "[-h] file", "file"),
            (
                "enumerate",
                "[-h] --n N [--labels L1,L2,...]\n"
                "                      [--count-only | --census]",
                "--n",
            ),
            ("definite", "[-h] --n N --point POINT [--labels L1,L2,...]", "--n, --point"),
            (
                "parents",
                "[-h] --superset L1,L2,... [--limit LIMIT] file",
                "file, --superset",
            ),
            ("efficiency", "[-h] --point POINT file", "file, --point"),
        ],
    )
    def test_bare_subcommand_prints_usage_and_what_is_required(
        self, command, usage, required, monkeypatch, capsys
    ):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert capsys.readouterr() == (
            "",
            f"usage: qtop {command} {usage}\n"
            f"qtop {command}: error: the following arguments are required: {required}\n",
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--n", "-1"],
            ["enumerate", "--n", "-1", "--census"],
            ["definite", "--n", "-1", "--point", "x0"],
            ["parents", "{doc}", "--superset", "m,s,e", "--limit", "-1"],
            ["enumerate", "--n", "abc"],
        ],
    )
    def test_negative_count_is_a_usage_error(self, argv, t_x_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([a.format(doc=t_x_file) for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        raw = argv[argv.index("--limit" if "--limit" in argv else "--n") + 1]
        assert f"must be a non-negative integer, got {raw!r}" in captured.err

    def test_repeated_field_exits_two(self, tmp_path, capsys):
        path = tmp_path / "repeated.json"
        path.write_text(REPEATED_OPENS_DOC)
        assert main(["negate", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: duplicate field: opens\n")

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"elements":["\xe9"],"opens":[[],["\xe9"]]}'.encode("latin-1"))
        assert main(["negate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # The reason alone: the decoder's full message names the codec, byte and offset.
        assert captured.err == (
            f"error: cannot read {str(path)!r}: not UTF-8 (invalid continuation byte)\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["sequence", "{doc}", "--points", "m,m"],
            ["parents", "{doc}", "--superset", "m,s"],
        ],
    )
    def test_domain_error_is_one_line_exit_one(self, argv, t_x_file, capsys):
        assert main([a.format(doc=t_x_file) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "elements, opens, err",
        [
            pytest.param(
                ["\n", "a", "b"],
                [[], ["\n"], ["a"], ["\n", "a", "b"]],
                'error: C2 violated: union of ["\\n"] and ["a"] is not in the family\n',
                id="newline",
            ),
            pytest.param(
                ["a,b", "a", "b", "c"],
                [[], ["a,b"], ["a", "b"], ["a,b", "a", "b", "c"]],
                'error: C2 violated: union of ["a,b"] and ["a","b"] is not in the family\n',
                id="comma",
            ),
            pytest.param(
                ["\ud800", "a", "b"],
                [[], ["\ud800"], ["a"], ["\ud800", "a", "b"]],
                'error: C2 violated: union of ["\\ud800"] and ["a"] is not in the family\n',
                id="lone-surrogate",
            ),
        ],
    )
    def test_axiom_message_escapes_its_labels(self, elements, opens, err, tmp_path, capsys):
        """Witness labels are written as in documents: a newline cannot
        split the one error line, ``a,b`` reads apart from ``a`` and
        ``b``, and a lone surrogate reaches capsys's strict UTF-8 stderr."""
        path = write_doc(tmp_path, elements, opens)
        assert main(["classify", path, "--point", "a"]) == 1
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize(
        "argv, option, raw",
        [
            (["sequence", "{doc}", "--points", ","], "--points", ","),
            (["sequence", "{doc}", "--points", ""], "--points", ""),
            (["parents", "{doc}", "--superset", ","], "--superset", ","),
            (["enumerate", "--n", "0", "--labels", ","], "--labels", ","),
        ],
    )
    def test_label_list_naming_no_label_is_a_usage_error(
        self, argv, option, raw, t_x_file, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([a.format(doc=t_x_file) for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument {option}: must name at least one label, got {raw!r}\n"
        )

    def test_labels_naming_too_few_points_exit_one(self, capsys):
        assert main(["enumerate", "--n", "3", "--labels", "a,b"]) == 1
        assert capsys.readouterr() == ("", "error: --labels names 2 elements, --n is 3\n")

    def test_library_bug_escapes_main(self, t_x_file, monkeypatch):
        def broken(args):
            raise ValueError("not a domain failure")

        monkeypatch.setattr(cli, "cmd_negate", broken)
        with pytest.raises(ValueError, match="not a domain failure"):
            main(["negate", t_x_file])


# 14 labels, not in name order.  The opens are every subset of the nine
# labels in ``WIDE_LOW`` and the full set, so the negation differs from
# the question.
WIDE_ELEMENTS = ["n", "c", "k", "a", "m", "h", "b", "l", "e", "j", "d", "g", "f", "i"]
WIDE_LOW = ["k", "a", "h", "b", "e", "j", "d", "f", "i"]
WIDE_DOC = json.dumps(
    {
        "elements": WIDE_ELEMENTS,
        "opens": [[l for i, l in enumerate(WIDE_LOW) if m >> i & 1] for m in range(512)]
        + [WIDE_ELEMENTS],
    }
)


def pinned(number, argv, lines, digest):
    """A pinned case whose test id is fixed by its own number, in the form
    pytest gave it when the ids were positional, so that a case inserted
    anywhere renames no other test.  A new case takes the next number."""
    return pytest.param(argv, lines, digest, id=f"argv{number}-{lines}-{digest}")


class TestPinnedOutput:
    """Stdout pinned by sha256: the constrained searches to the bytes the
    unconstrained filter-after-enumerate search printed, the census,
    negation and agreement to the bytes of the per-topology calculus, and
    the calculus commands, on grounds whose labels are not in name order,
    to the bytes printed before the label-bit codec moved onto
    ``GroundSet``; the full 5-point enumeration, and one on labels that
    JSON must escape, to the bytes ``json.dumps`` wrote before documents
    were joined from per-ground fragment tables; ``sequence`` through
    every point of the 16-point discrete topology, whose sub-grounds
    cross the 8-label byte boundary of those tables, to the bytes printed
    while subspaces were still repacked through labels."""

    @pytest.mark.parametrize(
        "argv, lines, digest",
        [
            pinned(
                0,
                ["definite", "--n", "5", "--point", "x2"],
                500,
                "90bff8baa6588e965cf4f7e13784e122959a3ed1af78fb78a1f655aa563b92ab",
            ),
            pinned(
                1,
                ["definite", "--n", "4", "--point", "x0"],
                45,
                "b9e5331a08b71e0ad04e0ea6cfb711637a9c49800cfb8b69d271a66f5a3c16b5",
            ),
            pinned(
                2,
                ["parents", "{doc}", "--superset", "m,s,e,a,b"],
                340,
                "18ee99da8040c88ec604835f785a5d517005cce2509481498deec7a529465f74",
            ),
            pinned(
                3,
                ["parents", "{doc}", "--superset", "m,s,e,a,b", "--limit", "1"],
                1,
                "d90fc7250fc87b4d6e1f827d08f7055cdff8352d706dabe22e28177a9b096c67",
            ),
            pinned(
                4,
                ["parents", "{doc}", "--superset", "m,s,e,a,b", "--limit", "0"],
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            pinned(
                5,
                ["enumerate", "--n", "5", "--census"],
                1,
                "a221d85ec0570821fa370737ca58daea4673df48c4db9708de35bb5ab28b5ee6",
            ),
            pinned(
                6,
                ["enumerate", "--n", "4", "--census", "--labels", "d,b,a,c"],
                1,
                "9690ed94b47fdcf6c8187c80adf752e831d9acffe2450ea1c0be7fca6dddd91b",
            ),
            pinned(
                7,
                ["negate", "{doc}"],
                1,
                "0c46188abf38a45e498d1b27964f6f24286e2669fcddd964d71901a54e583305",
            ),
            pinned(
                8,
                ["agree", "{doc}"],
                1,
                "016ad64f58b98cc35d70acb40e0df53ddba3b9b7470cd4acbff2f1d3abb5d1a1",
            ),
            pinned(
                9,
                ["classify", "{doc}", "--point", "e"],
                1,
                "f507f46ad41190ced349a5b39a112d943f9e2f24c2caa4a79d75a0d4d51e03b5",
            ),
            pinned(
                10,
                ["classify", "{doc}", "--point", "m"],
                1,
                "1ee6c244392bae561c4afa34241573f0fe83692f8b192eadc7fb74e6541c2d22",
            ),
            pinned(
                11,
                ["resolve", "{doc}", "--point", "e"],
                1,
                "b004dc2cb5e02cc7a561ecdac9dbb05b46a2447712cb6d4688e41d4a14cd3395",
            ),
            pinned(
                12,
                ["sequence", "{doc}", "--points", "e,s"],
                1,
                "58fd62bcc33834484622b26d96b4062f39b7feecb799037aca3dd03dbdfb47da",
            ),
            pinned(
                13,
                ["clopen", "{doc}"],
                1,
                "3d791b4aed7ef58a8a2413fbf938e223058f2d7005511eea47587952497b9d50",
            ),
            pinned(
                14,
                ["negate", "{wide}"],
                1,
                "be65618090d44199fa6b221f6cad5b6e8374edca519a0c48f2dd35238517311c",
            ),
            pinned(
                15,
                ["sequence", "{wide}", "--points", "g,k,a,n"],
                1,
                "bb23bf381125236a86e99a013e8cd27a11e20c4faaf45d4899ce1d53b1f7ea15",
            ),
            pinned(
                16,
                ["parents", "{doc}", "--superset", "b,e,a,s,m"],
                340,
                "ff0cef29e443cdea016e777847b2506fe0d55fe987ff505f6e5b14831eb4c3fe",
            ),
            pinned(
                17,
                ["enumerate", "--n", "5"],
                6942,
                "beaf9b853e5daedc9ac871052b64f56c26b0b3f557627591916aadd87103f2fb",
            ),
            pinned(
                18,
                ["enumerate", "--n", "3", "--labels", 'q"uote,back\\slash,\u00e9'],
                29,
                "d8665d5c2dba0f9b3541086dca3c818b4a480eb90c783fe19b3cb1f23a01302b",
            ),
            pinned(
                19,
                ["sequence", "{discrete_16}", "--points", ",".join(L16)],
                1,
                "97c270a44a537ffe520d9edf415ae7495e561497a212c5e689202a4992869e8c",
            ),
        ],
    )
    def test_stdout_digest(self, argv, lines, digest, t_x_file, discrete_16, tmp_path, capsys):
        wide = tmp_path / "wide.json"
        wide.write_text(WIDE_DOC)
        argv = [a.format(doc=t_x_file, wide=wide, discrete_16=discrete_16) for a in argv]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
