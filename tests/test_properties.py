"""Laws on 6-16 points, where the exhaustive oracle cannot reach, and
the label<->bit codec on 0-16 points; the sigma-field verdict of
``qtop agree`` on 0-16 points, against the oracle up to 4.

Families have at most four members, so the topology they generate has at
most 168 opens (the free distributive lattice on four generators, with
the empty and the full set) however wide the ground.  Closing a family
under complement first gives at most eight members and a self-dual
topology.
"""

import contextlib
import hashlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from qtop import (
    QuestionType,
    SubsetFamily,
    Topology,
    UnknownLabelError,
    classify_question,
    clopen_sets,
    generated_topology,
    is_sigma_field,
    is_topology,
    machines_agree,
    make_ground_set,
    make_topology,
    negation_question,
    neighborhood_system,
    open_sets_containing,
    parse_question,
    resolve_issue,
    resolve_sequence,
    subspace_topology,
)
from qtop.cli import main
from qtop.core import minimal_opens
from qtop.wire import dumps, family_document

from conftest import all_topologies
from oracle import sigma_field_holds


@st.composite
def family_pairs(draw, max_n=16):
    """A family on 6-``max_n`` points and a sub-family of it.  The labels
    are either ``x0, x1, ...`` or letters in shuffled order, so that bit
    order and name order disagree."""
    n = draw(st.integers(6, max_n))
    labels = [f"x{i}" for i in range(n)]
    if draw(st.booleans()):
        labels = draw(st.permutations("abcdefghijklmnop"[:n]))
    g = make_ground_set(labels)
    masks = draw(st.sets(st.integers(0, g.full_mask), max_size=4))
    sub = draw(st.sets(st.sampled_from(sorted(masks)))) if masks else set()
    return SubsetFamily.from_masks(sub, g), SubsetFamily.from_masks(masks, g)


@given(family_pairs())
def test_generated_topology_is_a_topology(pair):
    for f in pair:
        assert is_topology(generated_topology(f).family) == (True, None)


@given(family_pairs())
def test_generated_topology_is_idempotent(pair):
    for f in pair:
        t = generated_topology(f)
        assert generated_topology(t.family) == t


@given(family_pairs())
def test_generated_topology_is_monotone(pair):
    sub, family = pair
    assert set(generated_topology(sub).masks) <= set(generated_topology(family).masks)


@given(family_pairs())
def test_negation_is_an_involution(pair):
    t = generated_topology(pair[1])
    neg = negation_question(t)
    assert is_topology(neg.family) == (True, None)
    assert negation_question(neg) == t


@st.composite
def families(draw, max_n=16):
    """A family on 6-``max_n`` points, closed under complement half the
    time."""
    family = draw(family_pairs(max_n))[1]
    if draw(st.booleans()):
        full = family.ground.full_mask
        family = SubsetFamily.from_masks(
            {*family.masks, *(full & ~m for m in family.masks)}, family.ground
        )
    return family


@st.composite
def topology_points(draw, max_n=16):
    """A generated topology on 6-``max_n`` points, self-dual if its family
    was first closed under complement, and one of its points."""
    t = generated_topology(draw(families(max_n)))
    return t, draw(st.sampled_from(t.ground.labels))


def sigma_field_by_membership(f):
    """The definition: the empty set, and every complement and pairwise
    union of members, are members.  ``a | a`` is ``a``, so the unions of
    unordered pairs of distinct members suffice."""
    full, present = f.ground.full_mask, set(f.masks)
    members = sorted(present)
    return (
        0 in present
        and all(full & ~a in present for a in members)
        and all(
            present.issuperset([a | b for b in members[i + 1 :]])
            for i, a in enumerate(members)
        )
    )


# The deadline would time the quadratic reference, not qtop: on a
# 2048-open sigma-field its pairwise unions alone take about 300 ms.
@settings(deadline=None)
@given(families())
def test_is_sigma_field_is_the_membership_definition(family):
    # A raw family is rarely a sigma-field, even once closed under
    # complement; the topology generated from a closed one always is.
    for f in (family, generated_topology(family).family):
        assert is_sigma_field(f) == sigma_field_by_membership(f)


@given(topology_points())
def test_machines_agree_iff_negation_is_the_question(tx):
    t = tx[0]
    assert machines_agree(t) == (negation_question(t).masks == t.masks)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("agree") / "q.json"


def assert_agree_prints(t, verdict, path):
    """``qtop agree`` on ``t``'s document prints ``verdict`` under both
    keys: a topology is a sigma-field iff its machines agree."""
    assert machines_agree(t) == is_sigma_field(t.family) == verdict
    path.write_text(family_document(t.family))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["agree", str(path)]) == 0
    assert out.getvalue() == dumps({"machines_agree": verdict, "sigma_field": verdict}) + "\n"


@pytest.mark.parametrize("n", range(5))
def test_agree_is_the_oracle_sigma_field_verdict(n, doc_path):
    for t in all_topologies(n):
        assert_agree_prints(t, sigma_field_holds(list(t.masks), t.ground.full_mask), doc_path)


@given(topology_points())
def test_agree_is_the_sigma_field_verdict(doc_path, tx):
    t = tx[0]
    assert_agree_prints(t, is_sigma_field(t.family), doc_path)


@given(topology_points())
def test_classify_carrier_is_the_union_of_the_opens_avoiding_the_point(tx):
    t, x = tx
    outcome = classify_question(t, x)
    union = 0
    for m in resolve_issue(t, x).masks:
        union |= m
    if outcome.kind is QuestionType.TYPE_II:
        assert union == 0
    else:
        assert outcome.kind is QuestionType.TYPE_I
        assert outcome.carrier.mask == union != 0


@given(topology_points(), st.data())
def test_each_step_holds_the_outcome_on_its_subspace(tx, data):
    t = tx[0]
    order = data.draw(st.permutations(t.ground.labels))
    steps = resolve_sequence(t, order)
    assert [s.point for s in steps] == order[: len(steps)]
    current = t
    for s in steps:
        assert s.outcome == classify_question(current, s.point)
        if s.outcome.kind is QuestionType.TYPE_I:
            current = subspace_topology(current, s.outcome.carrier)
        else:
            assert s is steps[-1]
    assert len(steps) == len(order) or steps[-1].outcome.kind is not QuestionType.TYPE_I


@given(topology_points(max_n=10))
def test_neighborhood_base_is_the_minimal_open(tx):
    t, x = tx
    u = minimal_opens(t.masks, t.ground.size)[t.ground.index(x)]
    assert neighborhood_system(t, x).masks[0] == u


@given(topology_points())
def test_unchecked_results_equal_their_checked_rebuild(tx):
    """Each result built without the constructor's checks is canonical:
    rebuilt through the checking constructor, it is the same value."""
    t, x = tx
    for r in (
        negation_question(t),
        clopen_sets(t),
        open_sets_containing(t, x),
        resolve_issue(t, x),
        resolve_issue(t, "?"),
        neighborhood_system(t, x),
        make_topology(t.family),
        t.family,
        Topology.discrete(t.ground),
    ):
        assert type(r)(r.masks, r.ground) == r


@given(family_pairs())
def test_parse_inverts_serialize(pair):
    for f in (*pair, generated_topology(pair[1]).family):
        assert parse_question(family_document(f)) == (f.ground, f)


@st.composite
def grounds_and_masks(draw):
    """A ground of 0-16 letters in shuffled order and a mask on it."""
    letters = draw(st.permutations("abcdefghijklmnop"))
    g = make_ground_set(letters[: draw(st.integers(0, 16))])
    return g, draw(st.integers(0, g.full_mask))


@given(grounds_and_masks())
def test_labels_of_lists_the_set_bits_in_bit_order(pair):
    g, m = pair
    labels = g.labels_of(m)
    assert labels == tuple(l for i, l in enumerate(g.labels) if (m >> i) & 1)
    assert g.mask_of(labels) == m


@given(grounds_and_masks(), st.data())
def test_mask_of_ignores_order_and_duplicates(pair, data):
    g, m = pair
    labels = list(g.labels_of(m))
    if labels:
        labels += data.draw(st.lists(st.sampled_from(labels), max_size=16))
    assert g.mask_of(data.draw(st.permutations(labels))) == m


@pytest.mark.parametrize(
    "labels, bad, text",
    [
        (["b", "z", "y"], "z", "'z'"),
        (["a", ["b"]], ["b"], "['b']"),
        ([1], 1, "1"),
        (["b", {}], {}, "{}"),
    ],
)
def test_unknown_label_message(labels, bad, text):
    """``mask_of`` names the first bad label, as ``index`` names it."""
    g = make_ground_set(["a", "b"])
    message = f"label {text} is not in ground set ['a', 'b']"
    with pytest.raises(UnknownLabelError) as exc:
        g.mask_of(labels)
    assert str(exc.value) == message
    with pytest.raises(UnknownLabelError) as exc:
        g.index(bad)
    assert str(exc.value) == message


def test_mask_of_a_non_iterable_is_a_type_error():
    with pytest.raises(TypeError, match="not iterable"):
        make_ground_set(["a"]).mask_of(1)


def test_discrete_document_on_sixteen_shuffled_labels():
    # Every one of the 65536 masks, so bit 15 and every popcount are
    # written; the digest was taken before labels_of walked set bits.
    g = make_ground_set("nckamhblejdgpfio")
    doc = family_document(SubsetFamily(tuple(range(1 << 16)), g))
    assert (
        hashlib.sha256(doc.encode("utf-8")).hexdigest()
        == "51ef7e2911d68014f21df2037861385f90fa0a643df030d9525370f256e2c725"
    )
