"""Value semantics of qtop's nine immutable types, and the CLI's import
footprint.

Every type compares equal only to an instance of its own class with
equal fields, hashes over those fields, has a fixed ``repr``, refuses
assignment and deletion, and survives pickle, ``copy`` and
``deepcopy``.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import qtop
from qtop import (
    AxiomViolation,
    EnumerationReport,
    GroundSet,
    MachinePair,
    QuestionType,
    ResolutionOutcome,
    ResolutionStep,
    Subset,
    SubsetFamily,
    Topology,
    classify_question,
    enumeration_report,
    is_topology,
    make_ground_set,
    make_machine_pair,
    resolve_sequence,
)


def ab():
    return make_ground_set(["a", "b"])


def t_ab():
    return Topology(SubsetFamily((0, 1, 3), ab()))


def c2_violation():
    ok, violation = is_topology(SubsetFamily((0, 1, 2, 7), make_ground_set("abc")))
    assert not ok
    return violation


AB = "GroundSet(labels=('a', 'b'))"
FAMILY = f"SubsetFamily(masks=(0, 1, 3), ground={AB})"
TOPOLOGY = f"Topology(family={FAMILY})"

# (build a fresh instance, its repr, its constructor's field names)
VALUES = {
    "GroundSet": (ab, AB, ("labels",)),
    "Subset": (lambda: Subset(1, ab()), "Subset({a})", ("mask", "ground")),
    "SubsetFamily": (lambda: SubsetFamily((0, 1, 3), ab()), FAMILY, ("masks", "ground")),
    "AxiomViolation": (
        c2_violation,
        "AxiomViolation(axiom='C2', message='union of Subset({a}) and Subset({b}) "
        "is not in the family', witnesses=(Subset({a}), Subset({b})))",
        ("axiom", "message", "witnesses"),
    ),
    "Topology": (t_ab, TOPOLOGY, ("family",)),
    "ResolutionOutcome": (
        lambda: classify_question(t_ab(), "b"),
        "ResolutionOutcome(kind=<QuestionType.TYPE_I: 'type-1'>, "
        f"result_family=SubsetFamily(masks=(0, 1), ground={AB}), carrier=Subset({{a}}))",
        ("kind", "result_family", "carrier"),
    ),
    "ResolutionStep": (
        lambda: resolve_sequence(t_ab(), ["b"])[0],
        "ResolutionStep(point='b', kind=<QuestionType.TYPE_I: 'type-1'>, "
        f"carrier=Subset({{a}}), family=SubsetFamily(masks=(0, 1), ground={AB}))",
        ("point", "kind", "carrier", "family"),
    ),
    "MachinePair": (
        lambda: make_machine_pair(t_ab()),
        f"MachinePair(question={TOPOLOGY}, negation=Topology(family="
        f"SubsetFamily(masks=(0, 2, 3), ground={AB})), shared=SubsetFamily("
        f"masks=(0, 3), ground={AB}), self_dual=False)",
        ("question", "negation", "shared", "self_dual"),
    ),
    "EnumerationReport": (
        lambda: enumeration_report(ab()),
        "EnumerationReport(n=2, count=4, census={'a': {'type-1': 2, 'type-2': 2}, "
        "'b': {'type-1': 2, 'type-2': 2}}, self_dual_count=2)",
        ("n", "count", "census", "self_dual_count"),
    ),
}

NAMES = sorted(VALUES)


@pytest.fixture(params=NAMES)
def value(request):
    build, text, fields = VALUES[request.param]
    return build, text, fields


def test_every_type_is_covered():
    assert {build().__class__.__name__ for build, _, _ in VALUES.values()} == set(
        VALUES
    )


def test_repr(value):
    build, text, _ = value
    assert repr(build()) == text


def test_equal_to_a_fresh_instance(value):
    build, _, _ = value
    a, b = build(), build()
    assert a is not b
    assert a == b
    assert not a != b


def test_hash_over_the_fields(value):
    build, _, _ = value
    a, b = build(), build()
    if isinstance(a, EnumerationReport):
        # Its census is a dict, which has no hash.
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_unequal_across_classes():
    samples = [VALUES[name][0]() for name in NAMES]
    for i, a in enumerate(samples):
        for j, b in enumerate(samples):
            assert (a == b) is (i == j)


def test_equality_needs_the_same_class():
    class Marked(Subset):
        __slots__ = ()

    g = ab()
    assert Marked(1, g) != Subset(1, g)
    assert Subset(1, g) != Marked(1, g)
    assert Marked(1, g) == Marked(1, g)


def test_unequal_fields_are_unequal():
    g = ab()
    assert Subset(1, g) != Subset(2, g)
    assert Subset(1, g) != Subset(1, make_ground_set(["a", "c"]))
    assert AxiomViolation("C1", "m") != AxiomViolation("C1", "m", (Subset(0, g),))


def test_assignment_and_deletion_raise(value):
    build, _, fields = value
    obj = build()
    for name in fields + ("other",):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(obj, name, None)
    for name in fields:
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(obj, name)
    assert build() == obj


@pytest.mark.parametrize(
    "round_trip",
    [
        lambda obj: pickle.loads(pickle.dumps(obj)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "copy", "deepcopy"],
)
def test_round_trips(value, round_trip):
    build, text, _ = value
    obj = round_trip(build())
    assert obj == build()
    assert repr(obj) == text


def test_ground_set_codec_survives_pickle():
    g = pickle.loads(pickle.dumps(make_ground_set(["p", "q", "r"])))
    assert g.index("r") == 2
    assert g.mask_of(["r", "p"]) == 0b101
    assert g.labels_of(0b110) == ("q", "r")
    assert g._bits == {"p": 1, "q": 2, "r": 4}


def test_ground_set_codec_is_out_of_equality_hash_and_repr():
    g = ab()
    assert g._bits == {"a": 1, "b": 2}
    assert "_bits" not in repr(g)
    assert hash(g) == hash(GroundSet(("a", "b")))


def test_keyword_construction(value):
    build, _, fields = value
    obj = build()
    assert type(obj)(**{name: getattr(obj, name) for name in fields}) == obj


def test_defaults():
    assert AxiomViolation("C1", "m").witnesses == ()
    g = ab()
    outcome = ResolutionOutcome(QuestionType.TYPE_II, SubsetFamily((0,), g))
    assert outcome.carrier is None
    assert outcome == classify_question(t_ab(), "a")


def test_cli_imports_no_dataclasses_inspect_or_typing():
    """A fresh interpreter without ``site`` loads none of these modules
    for the CLI: each costs milliseconds on every ``qtop`` command."""
    src = str(Path(qtop.__file__).resolve().parents[1])
    code = (
        "import sys; import qtop.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
