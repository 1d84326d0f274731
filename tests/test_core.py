import tracemalloc

import pytest
from hypothesis import given, strategies as st

from qtop import (
    GroundSetError,
    Subset,
    SubsetFamily,
    Topology,
    TopologyError,
    complement,
    generated_topology,
    is_sigma_field,
    is_topology,
    make_ground_set,
    make_topology,
)

from qtop.core import minimal_opens

from conftest import all_topologies, ground_of, oracle_families, topology_from_masks
from oracle import first_violation


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


class TestGroundSet:
    def test_labels_map_to_bit_indices(self):
        g = make_ground_set(["m", "s"])
        assert g.size == 2
        assert g.index("m") == 0
        assert g.index("s") == 1

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

    def test_too_many_elements_rejected(self):
        with pytest.raises(GroundSetError, match="too many"):
            make_ground_set([f"x{i}" for i in range(17)])

    def test_sixteen_elements_allowed(self):
        assert make_ground_set([f"x{i}" for i in range(16)]).size == 16

    @pytest.mark.parametrize("mask, text", [(-1, "-0x1"), (0b100, "0x4"), (0b111, "0x7")])
    def test_labels_of_rejects_masks_outside_the_width(self, mask, text):
        g = make_ground_set(["a", "b"])
        with pytest.raises(ValueError) as exc:
            g.labels_of(mask)
        assert str(exc.value) == f"mask {text} has bits outside ground width 2"


class TestSubset:
    def test_complement(self):
        g = make_ground_set(["m", "s", "e"])
        assert complement(g.subset(["m", "e"])).labels() == ("s",)
        assert complement(g.full()) == g.empty()
        assert complement(g.empty()) == g.full()

    def test_mask_outside_width_rejected(self):
        g = make_ground_set(["m"])
        with pytest.raises(ValueError):
            Subset(2, g)

    def test_foreign_labels_are_not_members(self):
        s = make_ground_set(["a", "b"]).subset(["a"])
        assert "a" in s
        assert "b" not in s
        for foreign in ("z", "", 0, None, ["a"], {}):
            assert foreign not in s

    @given(st.integers(min_value=0, max_value=31))
    def test_complement_involution(self, mask):
        g = ground_of(5)
        s = Subset(mask, g)
        assert complement(complement(s)) == s

    def test_set_operations(self):
        g = make_ground_set(["m", "s", "e"])
        a, b = g.subset(["m", "s"]), g.subset(["s", "e"])
        assert (a & b).labels() == ("s",)
        assert (a | b) == g.full()
        assert (a - b).labels() == ("m",)
        assert g.subset(["s"]) <= a

    @pytest.mark.parametrize("op", ["__or__", "__and__", "__sub__", "__le__"])
    def test_operands_over_different_grounds_rejected(self, op):
        a = make_ground_set(["m", "s"]).subset(["m"])
        b = make_ground_set(["m", "e"]).subset(["m"])
        with pytest.raises(ValueError) as e:
            getattr(a, op)(b)
        assert str(e.value) == "subsets lie over different ground sets"


class TestSubsetFamily:
    def test_canonicalization_sorts_and_dedups(self):
        g = make_ground_set(["m", "s"])
        fam = SubsetFamily.of(
            [g.subset(["s"]), g.subset(["m"]), g.subset(["s"]), g.empty()], g
        )
        assert fam.masks == (0, 1, 2)

    @given(st.sets(st.integers(min_value=0, max_value=15)))
    def test_recanonicalizing_is_a_noop(self, masks):
        g = ground_of(4)
        fam = SubsetFamily.from_masks(masks, g)
        assert SubsetFamily.of(list(fam), g) == fam

    def test_non_canonical_direct_construction_rejected(self):
        g = make_ground_set(["m", "s"])
        with pytest.raises(ValueError):
            SubsetFamily((2, 1), g)
        with pytest.raises(ValueError):
            SubsetFamily((1, 1), g)

    def test_membership_needs_the_mask_and_the_ground(self):
        g, other = make_ground_set(["m", "s"]), make_ground_set(["a", "b"])
        fam = SubsetFamily.from_masks([0, 1], g)
        assert g.subset(["m"]) in fam
        assert g.subset(["s"]) not in fam
        assert other.subset(["a"]) not in fam

    def test_non_subsets_are_not_members(self):
        fam = SubsetFamily.from_masks([0, 1], make_ground_set(["a", "b"]))
        for foreign in ("a", 3, 0, None, ["a"], {}, (0,)):
            assert foreign not in fam

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

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_report_matches_pairwise_scan_exhaustively(self, n):
        g = ground_of(n)
        for masks in every_family(n):
            fam = SubsetFamily.from_masks(masks, g)
            assert reported(fam) == first_violation(masks, g.full_mask)

    @given(families_on_4_to_8_points())
    def test_report_matches_pairwise_scan_on_larger_grounds(self, fam):
        assert reported(fam) == first_violation(list(fam.masks), fam.ground.full_mask)


class TestMakeTopology:
    def test_paper_question_t2(self, ms_ground):
        t = make_topology(SubsetFamily.from_masks([0, 1, 3], ms_ground))
        assert t.masks == (0, 1, 3)

    def test_indiscrete_always_valid(self, mse_ground):
        t = make_topology(SubsetFamily.from_masks([0, 7], mse_ground))
        assert t.masks == (0, 7)

    def test_violation_carries_report(self, ms_ground):
        with pytest.raises(TopologyError) as exc:
            make_topology(SubsetFamily.from_masks([1, 2], ms_ground))
        assert exc.value.violation.axiom == "C1"


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
