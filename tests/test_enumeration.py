import gc
import random
from itertools import combinations
from math import comb

import pytest

from qtop import (
    SizeLimitError,
    Topology,
    UnknownLabelError,
    count_topologies,
    elimination_efficiency,
    enumerate_topologies,
    enumeration_report,
    find_definite_questions,
    machines_agree,
    make_ground_set,
    parent_questions,
)
from qtop import kernel

from conftest import all_topologies, ground_of, oracle_families
from oracle import first_violation

KNOWN_COUNTS = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}
LIMIT_MESSAGE = "enumeration limited to ground sets of at most 5 elements, got {}"
# Bell numbers, OEIS A000110: the set partitions of n points.
BELL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52}


class TestEnumerate:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_brute_force_oracle(self, n):
        enumerated = [t.masks for t in enumerate_topologies(ground_of(n))]
        assert sorted(enumerated) == oracle_families(n)
        assert len(enumerated) == KNOWN_COUNTS[n]

    def test_stream_is_in_ascending_canonical_order(self):
        masks = [t.masks for t in enumerate_topologies(ground_of(4))]
        assert masks == sorted(masks)

    def test_two_point_space_is_the_four_paper_questions(self, ms_ground):
        assert [t.masks for t in enumerate_topologies(ms_ground)] == [
            (0, 1, 2, 3),
            (0, 1, 3),
            (0, 2, 3),
            (0, 3),
        ]

    def test_five_point_stream_is_every_topology_once(self):
        """Beyond the oracle's reach: the published count, strictly
        ascending (hence distinct), and each family passes the oracle's
        pairwise axiom scan, which shares no code with the library."""
        stream = list(enumerate_topologies(ground_of(5)))
        assert len(stream) == KNOWN_COUNTS[5]
        masks = [t.masks for t in stream]
        assert all(a < b for a, b in zip(masks, masks[1:]))
        assert all(first_violation(list(t.masks), 31) is None for t in stream)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_streams_equal_their_checked_rebuild(self, n):
        """The three streams build their topologies without the
        constructor's checks: each equals its rebuild through it."""
        g = ground_of(n)
        streams = [enumerate_topologies(g)]
        streams += [find_definite_questions(g, x) for x in g.labels]
        sub = make_ground_set(g.labels[:2])
        streams += [parent_questions(t, g) for t in enumerate_topologies(sub)]
        for stream in streams:
            for t in stream:
                assert type(t)(t.masks, t.ground) == t

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            list(enumerate_topologies(make_ground_set(list("abcdef"))))

    @pytest.mark.parametrize("n", KNOWN_COUNTS)
    def test_counts(self, n):
        assert count_topologies(n) == KNOWN_COUNTS[n]

    def test_count_size_limit(self):
        with pytest.raises(SizeLimitError):
            count_topologies(6)

    def test_count_of_a_negative_size_raises(self):
        with pytest.raises(SizeLimitError) as e:
            count_topologies(-1)
        assert str(e.value) == LIMIT_MESSAGE.format(-1)

    @pytest.mark.parametrize("n", KNOWN_COUNTS)
    def test_kernel_count_is_the_length_of_its_search(self, n):
        assert kernel.count_topology_masks(n) == len(kernel.topology_masks(n))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_kernel_count_matches_the_brute_force_oracle(self, n):
        assert kernel.count_topology_masks(n) == len(oracle_families(n))

    @pytest.mark.parametrize("n", [-1, 6])
    def test_kernel_count_outside_the_kernel_range(self, n):
        with pytest.raises(SizeLimitError) as e:
            kernel.count_topology_masks(n)
        assert str(e.value) == LIMIT_MESSAGE.format(n)


class TestConstrainedKernel:
    """A constrained search returns exactly the full stream filtered by
    its constraint, in the same order."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_forbidding_the_masks_without_a_point(self, n):
        full = kernel.topology_masks(n)
        for i in range(n):
            expected = [f for f in full if all(m & (1 << i) for m in f[1:])]
            assert kernel.topology_masks(n, point=1 << i) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_point_search_length_by_the_least_class(self, n):
        """x lies in every non-empty open iff x's class is the least class
        of the specialization preorder.  So choose which j other points
        share x's class, then take any preorder on the rest."""
        expected = sum(comb(n - 1, j) * KNOWN_COUNTS[n - 1 - j] for j in range(n))
        assert expected == [1, 2, 7, 45, 500][n - 1]
        for i in range(n):
            assert len(kernel.topology_masks(n, point=1 << i)) == expected

    @pytest.mark.parametrize("n, pairs", [(2, 100), (3, 200), (4, 200), (5, 8)])
    def test_requiring_and_forbidding_at_once(self, n, pairs):
        """Seeded sparse sets of masks required the way
        ``parent_questions`` requires them, by filtering the search, each
        on the search with no point and with every point, which forbids
        the masks without it.  Then the corners: a required mask that
        lacks the point, the full mask as the point, and a point off the
        ground."""
        full = (1 << n) - 1
        stream = kernel.topology_masks(n)
        stream_bits = [sum(1 << m for m in f) for f in stream]
        rng = random.Random(n)
        requireds = [[0, full], [1]]
        for _ in range(pairs):
            sparse = [rng.getrandbits(full + 1) for _ in range(3)]
            drawn = sparse[0] & sparse[1] & sparse[2]
            requireds.append([m for m in range(full + 1) if drawn >> m & 1])
        found = 0
        for point in [0, *(1 << i for i in range(n))]:
            lacking = sum(1 << m for m in range(1, full + 1) if m & point != point)
            for required in requireds:
                inner = sum(1 << m for m in required)
                expected = [
                    f
                    for f, bits in zip(stream, stream_bits)
                    if bits & inner == inner and not bits & lacking
                ]
                got = kernel.topology_masks(n, point)
                for m in required:
                    got = [f for f in got if m in f]
                assert got == expected
                found += bool(expected)
        assert [f for f in kernel.topology_masks(n, point=1 << 1) if 1 in f] == []
        assert kernel.topology_masks(n, point=full) == [(0, full)]
        assert kernel.topology_masks(n, point=1 << n) == []
        assert found > (n + 1) * len(requireds) // 4

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_the_oracle_filtered_by_the_definition(self, n):
        """Each search, with no point and with every point, in order
        against the brute-force families whose every non-empty open
        contains the point."""
        for point in [0, *(1 << i for i in range(n))]:
            expected = [f for f in oracle_families(n) if all(m & point == point for m in f if m)]
            assert kernel.topology_masks(n, point) == expected

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_the_whole_contract_on_small_grounds(self, n):
        """Every point from -1 to one past the full mask, in order against
        the brute-force families filtered by the docstring's one rule: an
        off-ground point or a negative one and the empty ground (where
        any point holds vacuously) are no special cases of it."""
        full = (1 << n) - 1
        for point in range(-1, full + 2):
            expected = [f for f in oracle_families(n) if all(m & point == point for m in f if m)]
            assert kernel.topology_masks(n, point) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_points_of_any_width(self, n):
        """Every point mask for n <= 4 and a seeded few of two or more
        bits at n = 5.  In order against the full stream filtered by the
        point and, for n <= 4, against the brute-force families filtered
        by the definition."""
        full = (1 << n) - 1
        stream = kernel.topology_masks(n)
        rng = random.Random(200 + n)
        if n <= 4:
            points = range(1, full + 1)
        else:
            points = rng.sample([p for p in range(1, full) if p.bit_count() > 1], 6)
        sources = [stream, oracle_families(n)] if n <= 4 else [stream]
        for point in points:
            for families in sources:
                expected = [f for f in families if all(m & point == point for m in f[1:])]
                assert kernel.topology_masks(n, point) == expected

    def test_a_point_on_the_empty_ground_holds_vacuously(self):
        """The empty ground has no non-empty open, so any point lies in
        every one: the one topology, (0,), is the whole result."""
        assert kernel.topology_masks(0, point=1) == [(0,)]

    @pytest.mark.parametrize("n", [-1, 6])
    def test_size_outside_the_kernel_range(self, n):
        with pytest.raises(SizeLimitError) as e:
            kernel.topology_masks(n)
        assert str(e.value) == LIMIT_MESSAGE.format(n)

    def test_the_caller_owns_the_result(self):
        """The levels are kept between calls, but each search hands out a
        list of its own: clearing one leaves the next whole."""
        kernel.topology_masks(3).clear()
        assert len(kernel.topology_masks(3)) == KNOWN_COUNTS[3]
        kernel.topology_masks(3, point=1).clear()
        assert len(kernel.topology_masks(3, point=1)) == 7

    def test_the_search_leaves_no_reference_cycle(self):
        """Its result is freed with its last reference, not at the next
        garbage collection, with and without constraints."""
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernel.topology_masks(3)
            assert gc.collect() == 0
            assert kernel.topology_masks(3, point=0b001)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestEnumerationReport:
    def test_census_tallies_sum_to_count(self):
        for n in range(5):
            report = enumeration_report(ground_of(n))
            assert report.count == KNOWN_COUNTS[n]
            assert len(report.census) == n
            for label, tally in report.census.items():
                assert tally["type-1"] + tally["type-2"] == KNOWN_COUNTS[n]

    def test_self_dual_count_two_points(self):
        assert enumeration_report(ground_of(2)).self_dual_count == 2

    @pytest.mark.parametrize("n", BELL)
    def test_self_dual_count_is_the_bell_number(self, n):
        """The topologies ``machines_agree`` holds for, counted one by one,
        are as many as the set partitions, and the census says so too."""
        g = ground_of(n)
        assert sum(machines_agree(t) for t in enumerate_topologies(g)) == BELL[n]
        assert enumeration_report(g).self_dual_count == BELL[n]

    @pytest.mark.parametrize("labels", ["", "a", "b,a", "c,a,b", "d,b,a,c"])
    def test_matches_oracle_tallies(self, labels):
        """Type-2 iff every non-empty open contains the point, self-dual
        iff the family is closed under complement; the census lists the
        labels in ground order, type-1 before type-2."""
        from oracle import census_tallies

        g = make_ground_set(labels.split(",") if labels else [])
        count, definite, self_dual = census_tallies(g.size)
        report = enumeration_report(g)
        assert (report.n, report.count, report.self_dual_count) == (
            g.size,
            count,
            self_dual,
        )
        expected = {
            label: {"type-1": count - definite[i], "type-2": definite[i]}
            for i, label in enumerate(g.labels)
        }
        assert report.census == expected
        assert list(report.census) == list(g.labels)
        assert all(list(t) == ["type-1", "type-2"] for t in report.census.values())

    def test_five_points_match_per_topology_calculus(self):
        """All 6942 topologies on 5 points: classify every point and test
        self-duality as the negation being the question itself."""
        from qtop import classify_question, negation_question

        g = make_ground_set(["c", "e", "a", "d", "b"])
        census = {label: {"type-1": 0, "type-2": 0} for label in g.labels}
        self_dual = 0
        for t in enumerate_topologies(g):
            self_dual += negation_question(t).masks == t.masks
            for label in g.labels:
                census[label][classify_question(t, label).kind.value] += 1
        report = enumeration_report(g)
        assert report.count == KNOWN_COUNTS[5]
        assert report.self_dual_count == self_dual
        assert report.census == census
        assert list(report.census) == list(g.labels)

    def test_builds_no_per_topology_objects(self, monkeypatch):
        import qtop.calculus
        import qtop.core
        import qtop.enumeration
        import qtop.negation

        def refuse(*args, **kwargs):
            raise AssertionError("the census must not call this")

        monkeypatch.setattr(qtop.calculus, "classify_question", refuse)
        monkeypatch.setattr(qtop.enumeration, "resolve_issue", refuse)
        monkeypatch.setattr(qtop.negation, "negation_question", refuse)
        monkeypatch.setattr(qtop.core.SubsetFamily, "__init__", refuse)
        # The one unchecked builder, a classmethod: Topology finds it here.
        monkeypatch.setattr(qtop.core.SubsetFamily, "_trusted", classmethod(refuse))
        report = enumeration_report(ground_of(4))
        assert report.count == KNOWN_COUNTS[4]

    def test_draws_nothing_from_the_kernel(self, monkeypatch):
        """The count and the census are read from tables and summed: no
        kernel search runs and no level is built."""
        drawn = []

        def record(name):
            real = getattr(kernel, name)

            def call(*args, **kwargs):
                drawn.append(name)
                return real(*args, **kwargs)

            return call

        for name in ("topology_masks", "_level", "_meeting"):
            monkeypatch.setattr(kernel, name, record(name))
        for n in range(6):
            enumeration_report(ground_of(n))
            count_topologies(n)
        assert drawn == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_type_2_tally_is_the_length_of_the_point_search(self, n):
        """Each label's type-2 tally against the search whose every
        non-empty open holds that label's point: the reference at n = 5,
        where the oracle does not reach."""
        g = ground_of(n)
        report = enumeration_report(g)
        for i, label in enumerate(g.labels):
            assert report.census[label]["type-2"] == len(kernel.topology_masks(n, point=1 << i))


class TestFindDefiniteQuestions:
    def test_two_point_space(self, ms_ground):
        found = [t.masks for t in find_definite_questions(ms_ground, "m")]
        assert found == [(0, 1, 3), (0, 3)]  # T2 and T4

    def test_singleton(self):
        g = make_ground_set(["m"])
        assert [t.masks for t in find_definite_questions(g, "m")] == [(0, 1)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_enumerate_then_classify_filter(self, n):
        from qtop import QuestionType, classify_question

        g = ground_of(n)
        for x in g.labels:
            expected = [
                t.masks
                for t in enumerate_topologies(g)
                if classify_question(t, x).kind is QuestionType.TYPE_II
            ]
            assert [t.masks for t in find_definite_questions(g, x)] == expected


class TestEliminationEfficiency:
    def test_type_one_counts_dropped_assertions(self, t_x):
        assert elimination_efficiency(t_x, "e") == 1

    def test_type_two_resolves_everything(self, t_x):
        assert elimination_efficiency(t_x, "m") == 3

    def test_type_three_eliminates_nothing(self, t_x):
        assert elimination_efficiency(t_x, "q") == 0

    def test_discrete_always_one(self, mse_ground):
        t = Topology.discrete(mse_ground)
        for x in mse_ground.labels:
            assert elimination_efficiency(t, x) == 1


class TestParentQuestions:
    def test_singleton_into_two_points(self, ms_ground):
        g1 = make_ground_set(["m"])
        t = Topology.from_masks([0, 1], g1)
        parents = [p.masks for p in parent_questions(t, ms_ground)]
        assert parents == [(0, 1, 2, 3), (0, 1, 3)]  # T1 and T2

    def test_topology_is_its_own_parent(self, t_x, mse_ground):
        assert t_x.masks in [p.masks for p in parent_questions(t_x, mse_ground)]

    def test_discrete_parent_of_discrete(self, ms_ground):
        g1 = make_ground_set(["m"])
        parents = [p.masks for p in parent_questions(Topology.discrete(g1), ms_ground)]
        assert (0, 1, 2, 3) in parents

    def test_limit_truncates(self, ms_ground):
        g1 = make_ground_set(["m"])
        t = Topology.from_masks([0, 1], g1)
        assert len(list(parent_questions(t, ms_ground, limit=1))) == 1
        # Past sys.maxsize, which itertools.islice refuses: every parent.
        every = list(parent_questions(t, ms_ground))
        assert list(parent_questions(t, ms_ground, limit=2**63)) == every

    def test_label_mismatch_rejected(self, ms_ground):
        g = make_ground_set(["q"])
        with pytest.raises(
            UnknownLabelError, match=r"^label 'q' is not in ground set \['m', 's'\]$"
        ):
            list(parent_questions(Topology.indiscrete(g), ms_ground))

    @pytest.mark.parametrize("labels", ["m,s,a,b,c,d", "s,a,b,c,d,e"])
    def test_superset_over_the_size_limit_raises(self, labels):
        """The size is checked before any label is looked up, so a
        superset that also lacks ``m`` reports its size too."""
        t = Topology.discrete(make_ground_set(["m"]))
        with pytest.raises(SizeLimitError) as e:
            list(parent_questions(t, make_ground_set(labels.split(","))))
        assert str(e.value) == LIMIT_MESSAGE.format(6)

    @pytest.mark.parametrize("n", [4, 5])
    def test_requiring_an_embedded_topology(self, n):
        """Every topology on at most 3 points, placed on n points by every
        order-preserving injection and by its reverse: the superset holds
        the topology's labels at the placement's positions and its other
        labels, in order, around them.  In order against the
        ``enumerate_topologies`` stream filtered by the embedded opens.  A
        family placed by ``c[::-1]`` is its reverse placed by ``c``, so
        many placements embed the same opens: each distinct set is checked
        once.  The filtered streams are kept by prefix, largest open
        first, so the sets that share a prefix share its filtering."""
        filtered = {(): [t.masks for t in enumerate_topologies(ground_of(n))]}

        def holding(opens):
            if opens not in filtered:
                filtered[opens] = [f for f in holding(opens[:-1]) if opens[-1] in f]
            return filtered[opens]

        cases = {}
        for k in range(4):
            placements = {p for c in combinations(range(n), k) for p in (c, c[::-1])}
            for t in all_topologies(k):
                for p in placements:
                    embedded = sorted(sum(1 << j for i, j in enumerate(p) if m >> i & 1) for m in t.masks)
                    opens = tuple(embedded[:0:-1])  # the empty set dropped: every family holds it
                    if opens not in cases:
                        placed = dict(zip(p, t.ground.labels))
                        rest = iter(ground_of(n).labels[k:])
                        labels = [placed[j] if j in placed else next(rest) for j in range(n)]
                        cases[opens] = (t, make_ground_set(labels))
        for opens, (t, superset) in cases.items():
            assert [q.masks for q in parent_questions(t, superset)] == holding(opens)
