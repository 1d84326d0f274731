import pytest

from qtop import (
    QuestionType,
    Subset,
    Topology,
    UnknownLabelError,
    classify_question,
    is_topology,
    neighborhood_system,
    open_sets_containing,
    resolve_issue,
    resolve_sequence,
    subspace_topology,
)

from conftest import all_topologies, ground_of, topology_from_masks


class TestOpenSetsContaining:
    def test_worked_example_point_e(self, t_x):
        assert open_sets_containing(t_x, "e").masks == (5, 7)

    def test_worked_example_point_m(self, t_x):
        assert open_sets_containing(t_x, "m").masks == (1, 3, 5, 7)

    def test_indiscrete(self, ms_ground):
        t = Topology.indiscrete(ms_ground)
        assert open_sets_containing(t, "m").masks == (3,)

    def test_unknown_label_raises(self, t_x):
        with pytest.raises(UnknownLabelError):
            open_sets_containing(t_x, "q")


class TestNeighborhoodSystem:
    def test_worked_example_point_e(self, t_x):
        assert neighborhood_system(t_x, "e").masks == (5, 7)

    def test_t2_point_m(self, ms_ground):
        t = topology_from_masks([0, 1, 3], ms_ground)
        assert neighborhood_system(t, "m").masks == (1, 3)

    def test_indiscrete_point_s(self, mse_ground):
        t = Topology.indiscrete(mse_ground)
        assert neighborhood_system(t, "s").masks == (7,)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_neighborhood_laws(self, n):
        # non-empty, closed under pairwise intersection, closed under supersets
        g = ground_of(n)
        for t in all_topologies(n):
            for x in g.labels:
                nbhds = set(neighborhood_system(t, x).masks)
                assert nbhds
                for a in nbhds:
                    for b in nbhds:
                        assert a & b in nbhds
                    for w in range(g.full_mask + 1):
                        if a & ~w == 0:
                            assert w in nbhds

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_supersets_of_opens_containing_the_point(self, n):
        g = ground_of(n)
        for t in all_topologies(n):
            for x in g.labels:
                bit = 1 << g.index(x)
                expected = tuple(
                    w
                    for w in range(g.full_mask + 1)
                    if any(o & bit and o & ~w == 0 for o in t.masks)
                )
                assert neighborhood_system(t, x).masks == expected


class TestResolveIssue:
    def test_worked_example_point_e(self, t_x):
        assert resolve_issue(t_x, "e").masks == (0, 1, 3)

    def test_worked_example_point_m(self, t_x):
        assert resolve_issue(t_x, "m").masks == (0,)

    def test_absent_point_gives_empty_family(self, t_x):
        assert resolve_issue(t_x, "q").masks == ()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_difference_form_equals_filter_form(self, n):
        g = ground_of(n)
        for t in all_topologies(n):
            for x in g.labels:
                nbhds = set(neighborhood_system(t, x).masks)
                difference = sorted(m for m in t.masks if m not in nbhds)
                assert list(resolve_issue(t, x).masks) == difference


class TestClassifyQuestion:
    def test_type_one_worked_example(self, t_x, mse_ground):
        outcome = classify_question(t_x, "e")
        assert outcome.kind is QuestionType.TYPE_I
        assert outcome.carrier.labels() == ("m", "s")
        assert outcome.result_family.masks == (0, 1, 3)

    def test_type_two_worked_example(self, t_x):
        outcome = classify_question(t_x, "m")
        assert outcome.kind is QuestionType.TYPE_II
        assert outcome.result_family.masks == (0,)
        assert outcome.carrier is None

    def test_type_three_for_absent_point(self, t_x):
        outcome = classify_question(t_x, "q")
        assert outcome.kind is QuestionType.TYPE_III
        assert outcome.result_family.masks == ()

    def test_unhashable_point_is_absent(self, t_x):
        # Membership and lookup stay total on values a label dict cannot hash.
        x = ["m"]
        assert x not in t_x.ground
        with pytest.raises(UnknownLabelError):
            t_x.ground.index(x)
        outcome = classify_question(t_x, x)
        assert outcome.kind is QuestionType.TYPE_III
        assert outcome.result_family.masks == ()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_trichotomy_and_type_one_subspace_law(self, n):
        g = ground_of(n)
        for t in all_topologies(n):
            for x in list(g.labels) + ["absent"]:
                outcome = classify_question(t, x)
                if x not in g.labels:
                    assert outcome.kind is QuestionType.TYPE_III
                    continue
                assert outcome.kind in (QuestionType.TYPE_I, QuestionType.TYPE_II)
                if outcome.kind is QuestionType.TYPE_II:
                    assert outcome.result_family.masks == (0,)
                    bit = 1 << g.index(x)
                    assert all(m == 0 or m & bit for m in t.masks)
                else:
                    carrier = outcome.carrier
                    assert x not in carrier
                    union = 0
                    for m in outcome.result_family.masks:
                        union |= m
                    assert union == carrier.mask
                    sub = subspace_topology(t, carrier)
                    relabeled = {
                        frozenset(s.labels()) for s in outcome.result_family
                    }
                    assert {frozenset(s.labels()) for s in sub} == relabeled


class TestSubspaceTopology:
    def test_worked_example_carrier(self, t_x, mse_ground):
        sub = subspace_topology(t_x, mse_ground.subset(["m", "s"]))
        assert sub.ground.labels == ("m", "s")
        assert sub.masks == (0, 1, 3)

    def test_full_carrier_is_identity(self, t_x, mse_ground):
        sub = subspace_topology(t_x, mse_ground.full())
        assert sub.masks == t_x.masks

    def test_empty_carrier(self, t_x, mse_ground):
        sub = subspace_topology(t_x, mse_ground.empty())
        assert sub.ground.size == 0
        assert sub.masks == (0,)

    def test_carrier_over_another_ground_rejected(self, t_x, ms_ground):
        with pytest.raises(ValueError) as e:
            subspace_topology(t_x, ms_ground.subset(["m"]))
        assert str(e.value) == "carrier lies over a different ground set"

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_every_subspace_is_a_topology(self, n):
        g = ground_of(n)
        for t in all_topologies(n):
            for mask in range(g.full_mask + 1):
                sub = subspace_topology(t, Subset(mask, g))
                ok, violation = is_topology(sub.family)
                assert ok, violation


class TestResolveSequence:
    def test_discrete_one_step(self, mse_ground):
        t = Topology.discrete(mse_ground)
        steps = resolve_sequence(t, ["m"])
        assert len(steps) == 1
        assert steps[0].kind is QuestionType.TYPE_I
        assert steps[0].carrier.labels() == ("s", "e")
        assert len(steps[0].family) == 4  # discrete on 2 points

    def test_discrete_two_steps(self, mse_ground):
        t = Topology.discrete(mse_ground)
        steps = resolve_sequence(t, ["m", "s"])
        assert [s.kind for s in steps] == [QuestionType.TYPE_I, QuestionType.TYPE_I]
        assert steps[1].carrier.labels() == ("e",)
        assert len(steps[1].family) == 2

    def test_stops_at_type_two(self, t_x):
        steps = resolve_sequence(t_x, ["m", "s"])
        assert len(steps) == 1
        assert steps[0].kind is QuestionType.TYPE_II

    def test_eliminated_label_is_type_three(self, mse_ground):
        # resolving s on {phi,{m},X} drops both s and e; asking e then
        # hits a space that no longer contains it
        t = topology_from_masks([0, 1, 7], mse_ground)
        steps = resolve_sequence(t, ["s", "e"])
        assert [s.kind for s in steps] == [QuestionType.TYPE_I, QuestionType.TYPE_III]

    def test_duplicate_points_rejected(self, t_x):
        with pytest.raises(ValueError, match="distinct"):
            resolve_sequence(t_x, ["m", "m"])
