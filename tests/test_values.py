"""Value semantics of qtop's nine immutable types, and the CLI's import
footprint.

Every type compares equal only to an instance of its own class with
equal fields, hashes over those fields, has a fixed ``repr``, refuses
assignment and deletion, and survives pickle, ``copy`` and
``deepcopy``.  So do qtop's errors that carry their cause.
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
    make_topology,
    resolve_sequence,
)
from qtop.core import Frozen
from qtop.wire import family_document


def ab():
    return make_ground_set(["a", "b"])


def t_ab():
    return Topology((0, 1, 3), ab())


def c2_violation():
    ok, violation = is_topology(SubsetFamily((0, 1, 2, 7), make_ground_set("abc")))
    assert not ok
    return violation


AB = "GroundSet(labels=('a', 'b'))"
FAMILY = f"SubsetFamily(masks=(0, 1, 3), ground={AB})"
TOPOLOGY = f"Topology(masks=(0, 1, 3), ground={AB})"

# (build a fresh instance, its repr, its constructor's field names)
VALUES = {
    "GroundSet": (ab, AB, ("labels",)),
    "Subset": (lambda: Subset(1, ab()), 'Subset(["a"])', ("mask", "ground")),
    "SubsetFamily": (lambda: SubsetFamily((0, 1, 3), ab()), FAMILY, ("masks", "ground")),
    "AxiomViolation": (
        c2_violation,
        "AxiomViolation(axiom='C2', message='union of [\"a\"] and [\"b\"] is not "
        "in the family', witnesses=(Subset([\"a\"]), Subset([\"b\"])))",
        ("axiom", "message", "witnesses"),
    ),
    "Topology": (t_ab, TOPOLOGY, ("masks", "ground")),
    "ResolutionOutcome": (
        lambda: classify_question(t_ab(), "b"),
        "ResolutionOutcome(kind=<QuestionType.TYPE_I: 'type-1'>, "
        f'result_family=SubsetFamily(masks=(0, 1), ground={AB}), carrier=Subset(["a"]))',
        ("kind", "result_family", "carrier"),
    ),
    "ResolutionStep": (
        lambda: resolve_sequence(t_ab(), ["b"])[0],
        "ResolutionStep(point='b', outcome=ResolutionOutcome(kind=<QuestionType.TYPE_I: "
        f"'type-1'>, result_family=SubsetFamily(masks=(0, 1), ground={AB}), "
        'carrier=Subset(["a"])))',
        ("point", "outcome"),
    ),
    "MachinePair": (
        lambda: make_machine_pair(t_ab()),
        f"MachinePair(question={TOPOLOGY}, negation=Topology("
        f"masks=(0, 2, 3), ground={AB}), shared=SubsetFamily("
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


def test_a_topology_is_its_family():
    """A topology is the family that passed C1-C3: a ``SubsetFamily``
    with the same fields, equal only to another ``Topology``."""
    t = t_ab()
    plain = SubsetFamily(t.masks, t.ground)
    assert isinstance(t, SubsetFamily)
    assert t != plain and plain != t
    assert t.family == plain
    assert family_document(t) == family_document(t.family)
    assert type(pickle.loads(pickle.dumps(t))) is Topology


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


ROUND_TRIPS = pytest.mark.parametrize(
    "round_trip",
    [
        lambda obj: pickle.loads(pickle.dumps(obj)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "copy", "deepcopy"],
)


@ROUND_TRIPS
def test_round_trips(value, round_trip):
    build, text, _ = value
    obj = round_trip(build())
    assert obj == build()
    assert repr(obj) == text


# (raise the error, the attribute that carries its cause)
ERRORS = {
    "TopologyError": (
        lambda: make_topology(SubsetFamily((0, 1, 2, 7), make_ground_set("abc"))),
        "violation",
    ),
    "UnknownLabelError": (lambda: ab().mask_of(["a", "z"]), "label"),
}


@ROUND_TRIPS
@pytest.mark.parametrize("name", sorted(ERRORS))
def test_errors_round_trip(name, round_trip):
    """Each error is a plain ``ValueError`` with its cause as an
    attribute, so the exception protocol, which rebuilds it from
    ``args``, keeps its message, repr and cause."""
    call, cause = ERRORS[name]
    with pytest.raises(ValueError) as e:
        call()
    error = e.value
    assert type(error).__name__ == name and getattr(error, cause) is not None
    copied = round_trip(error)
    assert type(copied) is type(error)
    assert str(copied) == str(error)
    assert repr(copied) == repr(error)
    assert getattr(copied, cause) == getattr(error, cause)


def test_ground_set_codec_survives_pickle():
    """Ten labels, so a mask reads both the low and the high JSON table."""
    labels = "pqrstuvwxy"
    for round_trip in (lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy):
        g = round_trip(make_ground_set(labels))
        assert g.mask_of(("r",)) == 1 << 2
        assert g.mask_of(["r", "p"]) == 0b101
        assert g.labels_of(0b1100000110) == ("q", "r", "x", "y")
        assert g._bits == {label: 1 << i for i, label in enumerate(labels)}
        assert len(g._json[0]) == 256
        assert g._json[1] == ["", ',"x"', ',"y"', ',"x","y"']
        assert g._json_items([0b1100000110]) == ['"q","r","x","y"']


def test_ground_set_codec_is_out_of_equality_hash_and_repr():
    g, blanked = ab(), ab()
    assert g._bits == {"a": 1, "b": 2}
    assert g._json == (["", '"a"', '"b"', '"a","b"'], [""])
    for slot in ("_bits", "_json"):
        object.__setattr__(blanked, slot, None)
    assert blanked == g
    assert hash(blanked) == hash(g) == hash(GroundSet(("a", "b")))
    assert repr(blanked) == repr(g) == AB


@pytest.mark.parametrize("n", [0, 8, 9, 16])
def test_ground_set_is_complete_when_its_constructor_returns(n):
    """Every slot is set by ``__init__``, and using the codec sets none:
    the JSON tables exist before the first document is written."""
    g = make_ground_set(f"x{i}" for i in range(n))
    slots = {slot: getattr(g, slot) for slot in GroundSet.__slots__}
    assert [len(table) for table in g._json] == [1 << min(n, 8), 1 << max(n - 8, 0)]
    g.labels_of(g.full_mask)
    family_document(SubsetFamily.from_masks((0, g.full_mask), g))
    assert all(getattr(g, slot) is value for slot, value in slots.items())


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


RECORDS = [
    "AxiomViolation",
    "EnumerationReport",
    "MachinePair",
    "ResolutionOutcome",
    "ResolutionStep",
]


# What a ``def`` with the fields as parameters would refuse.
BAD_CALLS = {
    "too_many": lambda cls, fields, args: cls(*args, None),
    "unknown_keyword": lambda cls, fields, args: cls(*args, other=None),
    "given_twice": lambda cls, fields, args: cls(*args, **{fields[0]: args[0]}),
    "missing": lambda cls, fields, args: cls(**dict(zip(fields[1:], args[1:]))),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_built_by_frozen(name):
    """The plain records have no constructor of their own: ``Frozen``
    binds positional and keyword arguments to ``_fields``."""
    build, _, fields = VALUES[name]
    obj = build()
    cls, args = type(obj), [getattr(obj, f) for f in fields]
    assert "__init__" not in vars(cls) and cls.__init__ is Frozen.__init__
    assert cls(*args[:1], **dict(zip(fields[1:], args[1:]))) == obj


@pytest.mark.parametrize("case", sorted(BAD_CALLS))
@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_what_a_def_would(name, case):
    build, _, fields = VALUES[name]
    obj = build()
    args = [getattr(obj, f) for f in fields]
    with pytest.raises(TypeError, match=name):
        BAD_CALLS[case](type(obj), fields, args)


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
