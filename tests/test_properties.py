"""Laws on 6-16 points, where the exhaustive oracle cannot reach.

Families have at most four members, so the topology they generate has at
most 168 opens (the free distributive lattice on four generators, with
the empty and the full set) however wide the ground.
"""

from hypothesis import given, strategies as st

from qtop import (
    SubsetFamily,
    generated_topology,
    is_topology,
    make_ground_set,
    negation_question,
    parse_question,
)
from qtop.wire import family_document


@st.composite
def family_pairs(draw):
    """A family on 6-16 points and a sub-family of it.  The labels are
    either ``x0, x1, ...`` or letters in shuffled order, so that bit order
    and name order disagree."""
    n = draw(st.integers(6, 16))
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


@given(family_pairs())
def test_parse_inverts_serialize(pair):
    for f in (*pair, generated_topology(pair[1]).family):
        assert parse_question(family_document(f)) == (f.ground, f)
