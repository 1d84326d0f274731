import hashlib
import json

import pytest

from qtop import DocumentError, cli, parse_question
from qtop.cli import main
from qtop.wire import question_document

T_X_DOC = json.dumps(
    {
        "elements": ["m", "s", "e"],
        "opens": [[], ["m"], ["m", "s"], ["m", "e"], ["m", "s", "e"]],
    }
)


@pytest.fixture
def t_x_file(tmp_path):
    path = tmp_path / "t_x.json"
    path.write_text(T_X_DOC)
    return str(path)


def write_doc(tmp_path, elements, opens, name="q.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"elements": elements, "opens": opens}))
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
        canonical = question_document(ground, family)
        assert canonical == '{"elements":["m","s"],"opens":[[],["m"],["m","s"]]}'
        ground2, family2 = parse_question(canonical)
        assert question_document(ground2, family2) == canonical


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
        doc = json.loads(capsys.readouterr().out)
        assert [step["kind"] for step in doc["steps"]] == ["type-1", "type-1"]
        assert doc["steps"][0]["carrier"] == ["m", "s"]

    def test_negate(self, tmp_path, capsys):
        path = write_doc(tmp_path, ["m", "s"], [[], ["m"], ["m", "s"]])
        assert main(["negate", path]) == 0
        assert (
            capsys.readouterr().out
            == '{"elements":["m","s"],"opens":[[],["s"],["m","s"]]}\n'
        )

    def test_clopen(self, t_x_file, capsys):
        assert main(["clopen", t_x_file]) == 0
        assert (
            capsys.readouterr().out
            == '{"elements":["m","s","e"],"opens":[[],["m","s","e"]]}\n'
        )

    def test_agree_and_sigma(self, t_x_file, tmp_path, capsys):
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

    def test_enumerate_stream(self, capsys):
        assert main(["enumerate", "--n", "2", "--labels", "m,s"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[0] == '{"elements":["m","s"],"opens":[[],["m"],["s"],["m","s"]]}'
        assert lines[3] == '{"elements":["m","s"],"opens":[[],["m","s"]]}'

    def test_enumerate_count_only_and_census(self, capsys):
        assert main(["enumerate", "--n", "3", "--count-only"]) == 0
        assert capsys.readouterr().out == '{"n":3,"count":29}\n'
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
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert main(["parents", path, "--superset", "m,s", "--limit", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_efficiency(self, t_x_file, capsys):
        assert main(["efficiency", t_x_file, "--point", "m"]) == 0
        assert capsys.readouterr().out == '{"eliminated":3}\n'

    def test_output_is_stable_across_runs(self, capsys):
        main(["enumerate", "--n", "3"])
        first = capsys.readouterr().out
        main(["enumerate", "--n", "3"])
        assert capsys.readouterr().out == first


class TestCliExitCodes:
    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["validate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["classify", "/no/such/file", "--point", "m"]) == 2

    def test_invalid_topology_for_classify_exits_one(self, tmp_path, capsys):
        path = write_doc(tmp_path, ["m", "s"], [[], ["m"]])
        assert main(["classify", path, "--point", "m"]) == 1

    def test_unknown_point_for_definite_exits_one(self, capsys):
        assert main(["definite", "--n", "2", "--point", "z"]) == 1

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

    def test_non_utf8_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"elements":["\xe9"],"opens":[[],["\xe9"]]}'.encode("latin-1"))
        assert main(["negate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: not UTF-8")
        assert captured.err.count("\n") == 1

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


class TestPinnedOutput:
    """Stdout pinned by sha256: the constrained searches to the bytes the
    unconstrained filter-after-enumerate search printed, the census,
    negation and agreement to the bytes of the per-topology calculus, and
    the calculus commands, on grounds whose labels are not in name order,
    to the bytes printed before the label-bit codec moved onto
    ``GroundSet``."""

    @pytest.mark.parametrize(
        "argv, lines, digest",
        [
            (
                ["definite", "--n", "5", "--point", "x2"],
                500,
                "90bff8baa6588e965cf4f7e13784e122959a3ed1af78fb78a1f655aa563b92ab",
            ),
            (
                ["definite", "--n", "4", "--point", "x0"],
                45,
                "b9e5331a08b71e0ad04e0ea6cfb711637a9c49800cfb8b69d271a66f5a3c16b5",
            ),
            (
                ["parents", "{doc}", "--superset", "m,s,e,a,b"],
                340,
                "18ee99da8040c88ec604835f785a5d517005cce2509481498deec7a529465f74",
            ),
            (
                ["parents", "{doc}", "--superset", "m,s,e,a,b", "--limit", "1"],
                1,
                "d90fc7250fc87b4d6e1f827d08f7055cdff8352d706dabe22e28177a9b096c67",
            ),
            (
                ["parents", "{doc}", "--superset", "m,s,e,a,b", "--limit", "0"],
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                ["enumerate", "--n", "5", "--census"],
                1,
                "a221d85ec0570821fa370737ca58daea4673df48c4db9708de35bb5ab28b5ee6",
            ),
            (
                ["enumerate", "--n", "4", "--census", "--labels", "d,b,a,c"],
                1,
                "9690ed94b47fdcf6c8187c80adf752e831d9acffe2450ea1c0be7fca6dddd91b",
            ),
            (
                ["negate", "{doc}"],
                1,
                "0c46188abf38a45e498d1b27964f6f24286e2669fcddd964d71901a54e583305",
            ),
            (
                ["agree", "{doc}"],
                1,
                "016ad64f58b98cc35d70acb40e0df53ddba3b9b7470cd4acbff2f1d3abb5d1a1",
            ),
            (
                ["classify", "{doc}", "--point", "e"],
                1,
                "f507f46ad41190ced349a5b39a112d943f9e2f24c2caa4a79d75a0d4d51e03b5",
            ),
            (
                ["classify", "{doc}", "--point", "m"],
                1,
                "1ee6c244392bae561c4afa34241573f0fe83692f8b192eadc7fb74e6541c2d22",
            ),
            (
                ["resolve", "{doc}", "--point", "e"],
                1,
                "b004dc2cb5e02cc7a561ecdac9dbb05b46a2447712cb6d4688e41d4a14cd3395",
            ),
            (
                ["sequence", "{doc}", "--points", "e,s"],
                1,
                "58fd62bcc33834484622b26d96b4062f39b7feecb799037aca3dd03dbdfb47da",
            ),
            (
                ["clopen", "{doc}"],
                1,
                "3d791b4aed7ef58a8a2413fbf938e223058f2d7005511eea47587952497b9d50",
            ),
            (
                ["negate", "{wide}"],
                1,
                "be65618090d44199fa6b221f6cad5b6e8374edca519a0c48f2dd35238517311c",
            ),
            (
                ["sequence", "{wide}", "--points", "g,k,a,n"],
                1,
                "bb23bf381125236a86e99a013e8cd27a11e20c4faaf45d4899ce1d53b1f7ea15",
            ),
            (
                ["parents", "{doc}", "--superset", "b,e,a,s,m"],
                340,
                "ff0cef29e443cdea016e777847b2506fe0d55fe987ff505f6e5b14831eb4c3fe",
            ),
        ],
    )
    def test_stdout_digest(self, argv, lines, digest, t_x_file, tmp_path, capsys):
        wide = tmp_path / "wide.json"
        wide.write_text(WIDE_DOC)
        argv = [a.format(doc=t_x_file, wide=wide) for a in argv]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
