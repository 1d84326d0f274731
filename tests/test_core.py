import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from qtop import (
    GroundSet,
    GroundSetError,
    Subset,
    SubsetFamily,
    Topology,
    TopologyError,
    enumerate_topologies,
    find_definite_questions,
    generated_topology,
    is_sigma_field,
    is_topology,
    make_ground_set,
    make_machine_pair,
    make_topology,
    negation_question,
    parent_questions,
    resolve_sequence,
    subspace_topology,
)

from qtop.core import minimal_opens

from conftest import all_topologies, ground_of, oracle_families
from oracle import first_violation


LETTERS = "abcdefghijklmnop"


def every_family(n: int):
    """Every family of subsets of ``ground_of(n)``, as ascending masks."""
    full = (1 << n) - 1
    for code in range(1 << (full + 1)):
        yield [m for m in range(full + 1) if (code >> m) & 1]


def reported(family: SubsetFamily):
    """``is_topology``'s verdict in the shape ``first_violation`` returns."""
    ok, violation = is_topology(family)
    if ok:
        return None
    return violation.axiom, tuple(w.mask for w in violation.witnesses)


@st.composite
def families_on_4_to_8_points(draw):
    g = make_ground_set([f"x{i}" for i in range(draw(st.integers(4, 8)))])
    masks = draw(st.sets(st.integers(0, g.full_mask), max_size=10))
    if draw(st.booleans()):
        # One open short of a topology: the failure may come late in the scan.
        opens = generated_topology(SubsetFamily.from_masks(masks, g)).masks
        masks = set(opens) - {draw(st.sampled_from(opens))}
    else:
        masks |= {0, g.full_mask}  # past C1, on to the pairs
    return SubsetFamily.from_masks(masks, g)


@st.composite
def large_families_on_6_to_16_points(draw):
    """A topology on 6-16 points with up to 512 opens: as it is, short of
    one open other than the empty and full sets, or with one non-open
    added.  Each point is drawn the generating masks, of 6, it lies in;
    the last generator is dropped while they generate more than 512
    opens, which keeps the pairwise oracle fast."""
    g = make_ground_set(LETTERS[: draw(st.integers(6, 16))])
    member_of = draw(st.lists(st.integers(0, 63), min_size=g.size, max_size=g.size))
    generators = [
        sum(1 << x for x, s in enumerate(member_of) if s >> j & 1) for j in range(6)
    ]
    while True:
        opens = generated_topology(SubsetFamily.from_masks(generators, g)).masks
        if len(opens) <= 512:
            break
        generators.pop()
    masks = set(opens)
    change = draw(st.sampled_from(["none", "drop", "add"]))
    if change == "drop" and len(opens) > 2:
        masks.remove(draw(st.sampled_from(opens[1:-1])))
    elif change == "add" and len(opens) <= g.full_mask:
        m = draw(st.integers(0, g.full_mask))
        while m in masks:
            m = (m + 1) & g.full_mask
        masks.add(m)
    return SubsetFamily.from_masks(masks, g)


class TestGroundSet:
    def test_labels_map_to_bit_indices(self):
        g = make_ground_set(["m", "s"])
        assert g.size == 2
        assert g.mask_of(["m"]) == 1 << 0
        assert g.mask_of(["s"]) == 1 << 1

    def test_a_failing_iterable_raises_its_own_error(self):
        """Only the label lookup is guarded: what the caller's iterable
        raises, on its first item or after a known label, passes through
        unchanged, never as an unknown label."""
        g = make_ground_set(["a", "b"])

        def labels(head, failure):
            yield from head
            raise failure

        for failure in (TypeError("no more labels"), KeyError("no more labels")):
            for head in ((), ("a",), ("a", "b")):
                with pytest.raises(type(failure)) as e:
                    g.mask_of(labels(head, failure))
                assert e.value is failure

    def test_foreign_labels_are_not_members(self):
        g = make_ground_set(["a", "b"])
        assert "a" in g
        for foreign in ("z", "", 0, None, ["a"], {}):
            assert foreign not in g

    def test_empty_ground_set_is_admitted(self):
        g = make_ground_set([])
        assert g.size == 0
        assert g.full_mask == 0

    def test_duplicate_label_rejected(self):
        with pytest.raises(GroundSetError, match="duplicate"):
            make_ground_set(["m", "m"])

    def test_empty_label_rejected(self):
        with pytest.raises(GroundSetError, match="empty"):
            make_ground_set(["m", ""])

    def test_direct_construction_needs_a_tuple(self):
        # A list would compare unequal to the tuple and could not be hashed.
        for labels in (["a", "b"], "ab"):
            with pytest.raises(TypeError, match="ground labels must be a tuple"):
                GroundSet(labels)
        assert hash(GroundSet(("a", "b"))) == hash(make_ground_set(["a", "b"]))

    def test_too_many_elements_rejected(self):
        with pytest.raises(GroundSetError, match="too many"):
            make_ground_set([f"x{i}" for i in range(17)])

    def test_sixteen_elements_allowed(self):
        assert make_ground_set([f"x{i}" for i in range(16)]).size == 16

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16])
    def test_labels_of_matches_a_bit_walk(self, n):
        """Every mask up to 9 points; on 16, a stride through both bytes."""
        g = make_ground_set(LETTERS[:n][::-1])
        masks = range(0, 1 << n, 1 if n < 16 else 37)
        for m in (*masks, g.full_mask):
            assert g.labels_of(m) == tuple(l for i, l in enumerate(g.labels) if m >> i & 1)

    @pytest.mark.parametrize(
        "n, mask, text",
        [
            pytest.param(2, -1, "-0x1", id="-1--0x1"),
            pytest.param(2, 0b100, "0x4", id="4-0x4"),
            pytest.param(2, 0b111, "0x7", id="7-0x7"),
            # On 8 points the high table is [()]: these must not reach it.
            (8, 1 << 8, "0x100"),
            (8, 0x1FF, "0x1ff"),
            (8, -1, "-0x1"),
            (9, 1 << 9, "0x200"),
            (9, -1, "-0x1"),
            (16, 1 << 16, "0x10000"),
            (16, -1, "-0x1"),
        ],
    )
    def test_labels_of_rejects_masks_outside_the_width(self, n, mask, text):
        g = make_ground_set(LETTERS[:n])
        with pytest.raises(ValueError) as exc:
            g.labels_of(mask)
        assert str(exc.value) == f"mask {text} has bits outside ground width {n}"


class TestSubset:
    def test_mask_outside_width_rejected(self):
        g = make_ground_set(["m"])
        with pytest.raises(ValueError):
            Subset(2, g)


class TestSubsetFamily:
    def test_canonicalization_sorts_and_dedups(self):
        g = make_ground_set(["m", "s"])
        s, m = g.mask_of(["s"]), g.mask_of(["m"])
        fam = SubsetFamily.from_masks([s, m, s, 0], g)
        assert fam.masks == (0, 1, 2)

    @given(st.sets(st.integers(min_value=0, max_value=15)))
    def test_recanonicalizing_is_a_noop(self, masks):
        g = ground_of(4)
        fam = SubsetFamily.from_masks(masks, g)
        assert SubsetFamily.from_masks(reversed(fam.masks), g) == fam

    def test_non_canonical_direct_construction_rejected(self):
        g = make_ground_set(["m", "s"])
        with pytest.raises(ValueError):
            SubsetFamily((2, 1), g)
        with pytest.raises(ValueError):
            SubsetFamily((1, 1), g)
        # A list would compare unequal to the tuple and could not be hashed.
        for masks in ([0, 1], range(2)):
            with pytest.raises(TypeError, match="family masks must be a tuple"):
                SubsetFamily(masks, g)

    @pytest.mark.parametrize("masks", [(-1, 0), (0, 4)])
    def test_mask_outside_width_rejected(self, masks):
        g = make_ground_set(["m", "s"])
        with pytest.raises(ValueError, match="outside ground width"):
            SubsetFamily(masks, g)
        with pytest.raises(ValueError, match="outside ground width"):
            SubsetFamily.from_masks(masks, g)


class TestIsTopology:
    def test_paper_question_t1_is_a_topology(self, ms_ground):
        fam = SubsetFamily.from_masks([0, 1, 2, 3], ms_ground)
        ok, violation = is_topology(fam)
        assert ok and violation is None

    def test_missing_full_set_is_c1(self, ms_ground):
        ok, violation = is_topology(SubsetFamily.from_masks([0, 1], ms_ground))
        assert not ok
        assert violation.axiom == "C1"

    def test_missing_union_is_c2_with_witness(self, mse_ground):
        fam = SubsetFamily.from_masks([0, 7, 1, 2], mse_ground)
        ok, violation = is_topology(fam)
        assert not ok
        assert violation.axiom == "C2"
        assert {w.mask for w in violation.witnesses} == {1, 2}

    def test_missing_intersection_is_c3(self, mse_ground):
        fam = SubsetFamily.from_masks([0, 7, 3, 5], mse_ground)
        ok, violation = is_topology(fam)
        assert not ok
        assert violation.axiom == "C3"

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_subcollection_oracle_exhaustively(self, n):
        # oracle checks every sub-collection's union, not just pairs
        from oracle import axioms_hold

        g = ground_of(n)
        for masks in every_family(n):
            ok, _ = is_topology(SubsetFamily.from_masks(masks, g))
            assert ok == axioms_hold(masks, g.full_mask)

    def test_intransitive_least_opens_are_c3(self, mse_ground):
        """{m,s}, {s,e}: their unions are the family, but s lies in the
        least open {s,e} of e, and the least open {m,s} of s is not
        inside it, so the meet {s} is missing."""
        fam = SubsetFamily.from_masks([0, 0b011, 0b110, 0b111], mse_ground)
        ok, violation = is_topology(fam)
        assert not ok
        assert violation.axiom == "C3"
        assert [w.mask for w in violation.witnesses] == [0b011, 0b110]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_report_matches_pairwise_scan_exhaustively(self, n):
        """Every family on up to 3 points; on 4, the 2^14 past C1."""
        g = ground_of(n)
        for masks in every_family(n):
            if n == 4 and masks[:1] + masks[-1:] != [0, g.full_mask]:
                continue
            fam = SubsetFamily.from_masks(masks, g)
            assert reported(fam) == first_violation(masks, g.full_mask)

    @given(families_on_4_to_8_points())
    def test_report_matches_pairwise_scan_on_larger_grounds(self, fam):
        assert reported(fam) == first_violation(list(fam.masks), fam.ground.full_mask)

    @given(large_families_on_6_to_16_points())
    def test_report_matches_pairwise_scan_on_large_families(self, fam):
        assert reported(fam) == first_violation(list(fam.masks), fam.ground.full_mask)

    @given(st.one_of(families_on_4_to_8_points(), large_families_on_6_to_16_points()))
    def test_first_violation_is_in_the_row_of_a_least_member(self, fam):
        """The first witness of the pairwise scan is the least member that
        holds one of its points: why ``is_topology`` scans only those rows."""
        masks = list(fam.masks)
        found = first_violation(masks, fam.ground.full_mask)
        if found is not None and found[1]:
            a = found[1][0]
            points = [x for x in range(fam.ground.size) if a >> x & 1]
            assert any(a == next(m for m in masks if m >> x & 1) for x in points)

    def test_failing_family_on_13_points_is_scanned_along_rows(self):
        """Every subset without the top point, the top point joined with
        any subset that meets bit 0 or bit 1, and the full set: 7168
        opens.  {0, top} and {1, top} meet in {top}, which is missing.
        A scan over every pair passes 21 million before it reaches
        that one, which takes seconds."""
        g = make_ground_set(LETTERS[:13])
        top = 1 << 12
        fam = SubsetFamily((*range(top), *(top | s for s in range(top) if s & 3)), g)
        assert len(fam) == 7168
        start = time.perf_counter()
        assert reported(fam) == ("C3", (top + 1, top + 2))
        assert time.perf_counter() - start < 1.0


class TestMakeTopology:
    def test_paper_question_t2(self, ms_ground):
        t = make_topology(SubsetFamily.from_masks([0, 1, 3], ms_ground))
        assert t.masks == (0, 1, 3)

    def test_indiscrete_always_valid(self, mse_ground):
        t = make_topology(SubsetFamily.from_masks([0, 7], mse_ground))
        assert t.masks == (0, 7)

    def test_indiscrete_on_the_empty_ground_is_the_one_enumerated(self):
        # On no points the empty set is the full set: one open, not two.
        g = ground_of(0)
        assert Topology.indiscrete(g).masks == (0,)
        assert list(enumerate_topologies(g)) == [Topology.indiscrete(g)]

    def test_violation_carries_report(self, ms_ground):
        with pytest.raises(TopologyError) as exc:
            make_topology(SubsetFamily.from_masks([1, 2], ms_ground))
        assert exc.value.violation.axiom == "C1"


# The public ways to build a topology from masks: the constructor and
# from_masks, each fed the family's masks in a different shape.
PUBLIC_TOPOLOGY_DOORS = (
    lambda fam: Topology(fam.masks, fam.ground),
    lambda fam: Topology.from_masks(reversed(fam.masks), fam.ground),
)


def assert_checked_like_make_topology(fam: SubsetFamily) -> None:
    """Every public door refuses ``fam`` with ``is_topology``'s violation
    exactly when that check fails, and otherwise builds what
    ``make_topology`` builds."""
    ok, violation = is_topology(fam)
    for build in PUBLIC_TOPOLOGY_DOORS:
        if ok:
            assert build(fam) == make_topology(fam)
        else:
            with pytest.raises(TopologyError) as exc:
                build(fam)
            assert exc.value.violation == violation


class TestConstructionRule:
    """Every public constructor checks what its type promises; only the
    code's own results skip the checks."""

    def test_topology_doors_check_every_family_on_3_points(self):
        g = ground_of(3)
        families = list(every_family(3))
        assert len(families) == 256
        for masks in families:
            assert_checked_like_make_topology(SubsetFamily.from_masks(masks, g))

    @given(families_on_4_to_8_points())
    def test_topology_doors_check_families_on_larger_grounds(self, fam):
        assert_checked_like_make_topology(fam)

    def test_family_without_empty_or_full_set_is_no_topology(self):
        """{a}, {b} on {a, b, c} lacks the empty and the full set (C1),
        so no ``classify_question`` can answer for it."""
        abc = make_ground_set("abc")
        with pytest.raises(TopologyError) as exc:
            Topology.from_masks([1, 2], abc)
        assert exc.value.violation == is_topology(SubsetFamily((1, 2), abc))[1]
        assert str(exc.value) == "C1 violated: the empty set is missing"

    @pytest.mark.parametrize("cls", [SubsetFamily, Topology])
    @pytest.mark.parametrize(
        "masks", [(0, 0.5, 7), (0, 2.5), (0, 7.0)], ids=["0.5", "2.5", "7.0"]
    )
    def test_family_doors_refuse_non_integer_masks(self, masks, cls):
        """A float mask is refused at the door, not later by the writer
        or the axiom check."""
        g = ground_of(3)
        for build in (cls, cls.from_masks):
            with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
                build(masks, g)

    def test_bool_masks_read_as_ints(self):
        family = SubsetFamily((False, True), ground_of(1))
        assert family.masks == (0, 1) and type(family.masks[1]) is int

    @pytest.mark.parametrize(
        "labels",
        [
            pytest.param(("a", "a"), id="duplicate"),
            pytest.param(("a", ""), id="empty"),
            pytest.param(("a", 1), id="non-text"),
            pytest.param(tuple(f"x{i}" for i in range(17)), id="17-labels"),
        ],
    )
    def test_ground_set_refuses_what_make_ground_set_refuses(self, labels):
        with pytest.raises(GroundSetError) as expected:
            make_ground_set(labels)
        with pytest.raises(GroundSetError) as exc:
            GroundSet(labels)
        assert str(exc.value) == str(expected.value)

    def test_own_results_never_run_the_axiom_check(self, monkeypatch, t_x, mse_ground):
        """With ``is_topology`` refusing every call, every producer of a
        topology still returns: none goes through a checked door."""
        g3 = ground_of(3)
        on_two = make_topology(SubsetFamily.from_masks([0, 1, 3], ground_of(2)))
        generators = SubsetFamily.from_masks([1, 6], mse_ground)

        def refuse(family):
            raise AssertionError("the axiom check ran on the code's own result")

        monkeypatch.setattr("qtop.core.is_topology", refuse)
        assert len(list(enumerate_topologies(g3))) == 29
        assert len(list(find_definite_questions(g3, "a"))) == 7
        assert len(list(parent_questions(on_two, g3))) > 0
        assert negation_question(t_x).masks == (0, 2, 4, 6, 7)
        assert generated_topology(generators).masks == (0, 1, 6, 7)
        assert subspace_topology(t_x, mse_ground.mask_of("ms")).masks == (0, 1, 3)
        assert len(resolve_sequence(t_x, ["e", "s"])) == 2
        assert len(Topology.discrete(g3)) == 8
        assert Topology.indiscrete(g3).masks == (0, 7)
        assert make_machine_pair(t_x).negation == negation_question(t_x)


class TestMinimalOpens:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_smallest_open_containing_each_point(self, n):
        for opens in oracle_families(n):
            us = minimal_opens(opens, n)
            assert len(us) == n
            for i, u in enumerate(us):
                containing = [m for m in opens if m >> i & 1]
                assert u in opens and u >> i & 1
                assert all(u & ~m == 0 for m in containing)

    def test_point_in_no_member_gets_the_full_set(self):
        assert minimal_opens((0b001, 0b011), 3) == [0b001, 0b011, 0b111]


class TestGeneratedTopology:
    def test_single_open_generates_t2(self, ms_ground):
        fam = SubsetFamily.from_masks([1], ms_ground)
        assert generated_topology(fam).masks == (0, 1, 3)

    def test_empty_family_generates_indiscrete(self, ms_ground):
        fam = SubsetFamily.from_masks([], ms_ground)
        assert generated_topology(fam).masks == (0, 3)

    def test_two_singletons_generate_discrete(self, ms_ground):
        fam = SubsetFamily.from_masks([1, 2], ms_ground)
        assert generated_topology(fam).masks == (0, 1, 2, 3)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_idempotent_on_topologies(self, n):
        for t in all_topologies(n):
            assert generated_topology(t.family).masks == t.masks

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_is_the_smallest_containing_topology(self, n):
        g = ground_of(n)
        for masks in every_family(n):
            smallest = set(range(g.full_mask + 1))
            for opens in oracle_families(n):
                if set(masks) <= set(opens):
                    smallest &= set(opens)
            fam = SubsetFamily.from_masks(masks, g)
            assert generated_topology(fam).masks == tuple(sorted(smallest))


class TestSixteenPoints:
    g = make_ground_set([f"x{i}" for i in range(16)])

    def test_discrete_and_chain_validate(self):
        chain = SubsetFamily.from_masks([(1 << i) - 1 for i in range(17)], self.g)
        assert is_topology(Topology.discrete(self.g).family) == (True, None)
        assert is_topology(chain) == (True, None)

    def test_singletons_generate_the_discrete_topology(self):
        singletons = SubsetFamily.from_masks([1 << i for i in range(16)], self.g)
        assert generated_topology(singletons) == Topology.discrete(self.g)

    def test_discrete_topology_is_a_sigma_field(self):
        assert is_sigma_field(Topology.discrete(self.g).family)

    def test_failing_family_does_not_build_its_whole_closure(self):
        """The 18 opens generate 2^16; the check gives up after a few points."""
        singletons = [1 << i for i in range(16)]
        family = SubsetFamily.from_masks([0, self.g.full_mask, *singletons], self.g)
        tracemalloc.start()
        try:
            ok, violation = is_topology(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not ok
        assert violation.axiom == "C2"
        assert [w.mask for w in violation.witnesses] == [1, 2]
        assert peak < 100_000
