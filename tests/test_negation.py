import pytest

from qtop import (
    Topology,
    atomic_machine_census,
    clopen_sets,
    enumerate_topologies,
    is_sigma_field,
    is_topology,
    machines_agree,
    make_ground_set,
    make_machine_pair,
    negation_question,
)
from qtop.core import SubsetFamily

from conftest import all_topologies, ground_of


class TestNegationQuestion:
    def test_t2_negates_to_t3(self, ms_ground):
        t2 = Topology.from_masks([0, 1, 3], ms_ground)
        assert negation_question(t2).masks == (0, 2, 3)

    def test_discrete_is_self_dual(self, ms_ground):
        t = Topology.discrete(ms_ground)
        assert negation_question(t).masks == t.masks

    def test_indiscrete_is_self_dual(self, mse_ground):
        t = Topology.indiscrete(mse_ground)
        assert negation_question(t).masks == t.masks

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_equals_canonicalized_complements(self, n):
        for t in all_topologies(n):
            full = t.ground.full_mask
            expected = SubsetFamily.from_masks((full & ~m for m in t.masks), t.ground)
            assert negation_question(t).family == expected

    def test_sixteen_point_discrete_negates_to_itself(self):
        t = Topology.discrete(make_ground_set([f"p{i}" for i in range(16)]))
        assert negation_question(t).masks == tuple(range(1 << 16))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_negation_is_a_topology_and_an_involution(self, n):
        for t in all_topologies(n):
            neg = negation_question(t)
            ok, _ = is_topology(neg.family)
            assert ok
            assert negation_question(neg).masks == t.masks


class TestClopenSets:
    def test_t2_shares_only_trivial_sets(self, ms_ground):
        t2 = Topology.from_masks([0, 1, 3], ms_ground)
        assert clopen_sets(t2).masks == (0, 3)

    def test_discrete_shares_everything(self, ms_ground):
        t = Topology.discrete(ms_ground)
        assert clopen_sets(t).masks == (0, 1, 2, 3)

    def test_worked_example_topology(self, t_x):
        assert clopen_sets(t_x).masks == (0, 7)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trivial_sets_always_clopen_and_negation_symmetric(self, n):
        g = ground_of(n)
        for t in all_topologies(n):
            shared = clopen_sets(t)
            assert 0 in shared.masks and g.full_mask in shared.masks
            assert clopen_sets(negation_question(t)).masks == shared.masks


class TestSigmaField:
    def test_power_set_is_sigma_field(self, ms_ground):
        fam = SubsetFamily.from_masks(range(4), ms_ground)
        assert is_sigma_field(fam)

    def test_missing_complement_fails(self, ms_ground):
        fam = SubsetFamily.from_masks([0, 1, 3], ms_ground)
        assert not is_sigma_field(fam)

    def test_hand_checked_four_member_field(self, mse_ground):
        # {phi, X, {m}, {s,e}}
        fam = SubsetFamily.from_masks([0, 7, 1, 6], mse_ground)
        assert is_sigma_field(fam)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_brute_force_definition_on_every_family(self, n):
        from oracle import sigma_field_holds

        g = ground_of(n)
        full = g.full_mask
        for code in range(1 << (full + 1)):
            masks = [m for m in range(full + 1) if (code >> m) & 1]
            fam = SubsetFamily.from_masks(masks, g)
            assert is_sigma_field(fam) == sigma_field_holds(masks, full)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_correspondence_with_agreement_and_clopenness(self, n):
        for t in all_topologies(n):
            agree = machines_agree(t)
            assert agree == is_sigma_field(t.family)
            assert agree == (clopen_sets(t).masks == t.masks)


class TestMachinesAgree:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_equals_negation_equality(self, n):
        for t in all_topologies(n):
            assert machines_agree(t) == (negation_question(t).masks == t.masks)

    def test_builds_no_negation(self, monkeypatch, mse_ground):
        import qtop.negation

        def refuse(t):
            raise AssertionError("machines_agree must not negate")

        monkeypatch.setattr(qtop.negation, "negation_question", refuse)
        assert machines_agree(Topology.discrete(mse_ground))
        assert not machines_agree(Topology.from_masks([0, 1, 3, 7], mse_ground))


class TestMachinePair:
    def test_t2_pair(self, ms_ground):
        pair = make_machine_pair(Topology.from_masks([0, 1, 3], ms_ground))
        assert pair.negation.masks == (0, 2, 3)
        assert pair.shared.masks == (0, 3)
        assert not pair.self_dual

    def test_discrete_pair(self, ms_ground):
        pair = make_machine_pair(Topology.discrete(ms_ground))
        assert pair.self_dual
        assert pair.shared.masks == (0, 1, 2, 3)

    def test_indiscrete_pair(self, mse_ground):
        pair = make_machine_pair(Topology.indiscrete(mse_ground))
        assert pair.self_dual
        assert pair.shared.masks == (0, 7)


class TestAtomicMachineCensus:
    def test_two_point_space(self):
        census = atomic_machine_census(all_topologies(2))
        self_dual = [p.question.masks for p in census if p.self_dual]
        assert self_dual == [(0, 1, 2, 3), (0, 3)]
        pairs = {p.question.masks: p.negation.masks for p in census}
        assert pairs[(0, 1, 3)] == (0, 2, 3)
        assert pairs[(0, 2, 3)] == (0, 1, 3)

    def test_one_point_space(self):
        census = atomic_machine_census(all_topologies(1))
        assert len(census) == 1 and census[0].self_dual

    def test_no_questions_give_an_empty_census(self):
        assert atomic_machine_census([]) == []

    def test_negation_is_involution_on_question_space(self):
        topologies = all_topologies(3)
        listed = {t.masks for t in topologies}
        for pair in atomic_machine_census(topologies):
            assert pair.negation.masks in listed

    def test_mixed_grounds_rejected(self, ms_ground, mse_ground):
        with pytest.raises(ValueError, match="common ground"):
            atomic_machine_census(
                [Topology.indiscrete(ms_ground), Topology.indiscrete(mse_ground)]
            )

    def test_same_size_grounds_with_other_labels_rejected(self):
        ab, ac = make_ground_set(("a", "b")), make_ground_set(("a", "c"))
        with pytest.raises(ValueError, match="common ground"):
            atomic_machine_census([Topology.indiscrete(ab), Topology.indiscrete(ac)])

    def test_takes_a_generator_whole(self):
        g = ground_of(3)
        census = atomic_machine_census(enumerate_topologies(g))
        assert [p.question for p in census] == list(enumerate_topologies(g))
