"""Acceptance suite: exact reproduction of the worked symbolic examples
plus exhaustive property checks against the brute-force oracle.  Each
test prints one pass/fail line (run with -s to see them inline)."""

import json
import time
from contextlib import contextmanager

import pytest

from qtop import (
    QuestionType,
    Topology,
    classify_question,
    clopen_sets,
    enumerate_topologies,
    is_sigma_field,
    is_topology,
    machines_agree,
    make_ground_set,
    neighborhood_system,
    negation_question,
    parent_questions,
    resolve_issue,
    resolve_sequence,
    subspace_topology,
)
from qtop.cli import main

from conftest import all_topologies, ground_of, oracle_families, topology_from_masks
from oracle import brute_force_topologies

T_X_DOC = (
    '{"elements":["m","s","e"],'
    '"opens":[[],["m"],["m","s"],["m","e"],["m","s","e"]]}'
)


@contextmanager
def criterion(num, title):
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} FAIL  {title}")
        raise
    print(f"criterion {num:2d} PASS  {title}")


@pytest.fixture
def t_x_file(tmp_path):
    path = tmp_path / "t_x.json"
    path.write_text(T_X_DOC)
    return str(path)


def test_criterion_01_resolution_worked_example(t_x_file, capsys):
    with criterion(1, "worked example: resolve/classify point e"):
        start = time.perf_counter()
        assert main(["resolve", t_x_file, "--point", "e"]) == 0
        resolve_out = capsys.readouterr().out
        assert main(["classify", t_x_file, "--point", "e"]) == 0
        classify_out = capsys.readouterr().out
        elapsed = time.perf_counter() - start
        assert (
            resolve_out
            == '{"elements":["m","s","e"],"opens":[[],["m"],["m","s"]]}\n'
        )
        assert (
            classify_out
            == '{"kind":"type-1","carrier":["m","s"],"opens":[[],["m"],["m","s"]]}\n'
        )
        assert elapsed < 1.0


def test_criterion_02_definite_answer_worked_example(t_x_file, capsys):
    with criterion(2, "worked example: classify point m is type-2"):
        assert main(["classify", t_x_file, "--point", "m"]) == 0
        assert capsys.readouterr().out == '{"kind":"type-2","opens":[[]]}\n'


def test_criterion_03_irrelevant_question(t_x_file, capsys):
    with criterion(3, "irrelevant point q is type-3 with empty opens"):
        assert main(["classify", t_x_file, "--point", "q"]) == 0
        assert capsys.readouterr().out == '{"kind":"type-3","opens":[]}\n'


def test_criterion_04_enumeration_oracle_equivalence():
    with criterion(4, "enumerator equals brute-force oracle, n = 0..4"):
        expected_counts = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355}
        start = time.perf_counter()
        for n in (0, 1, 2, 3):
            oracle = brute_force_topologies(n)
            fast = [t.masks for t in enumerate_topologies(ground_of(n))]
            assert sorted(fast) == oracle
            assert len(fast) == expected_counts[n]
        assert time.perf_counter() - start < 1.0  # "milliseconds" scale
        start = time.perf_counter()
        oracle4 = brute_force_topologies(4)
        assert time.perf_counter() - start < 60.0
        start = time.perf_counter()
        fast4 = [t.masks for t in enumerate_topologies(ground_of(4))]
        assert time.perf_counter() - start < 1.0
        assert sorted(fast4) == oracle4
        assert len(fast4) == 355


def test_criterion_05_question_space_on_two_points(capsys):
    with criterion(5, "enumerate --n 2 yields exactly the four questions"):
        assert main(["enumerate", "--n", "2", "--labels", "m,s"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            '{"elements":["m","s"],"opens":[[],["m"],["s"],["m","s"]]}',
            '{"elements":["m","s"],"opens":[[],["m"],["m","s"]]}',
            '{"elements":["m","s"],"opens":[[],["s"],["m","s"]]}',
            '{"elements":["m","s"],"opens":[[],["m","s"]]}',
        ]


def test_criterion_06_negation_laws():
    with criterion(6, "negation laws over every topology, n <= 4"):
        for n in range(5):
            for t in all_topologies(n):
                neg = negation_question(t)
                ok, _ = is_topology(neg.family)
                assert ok
                assert negation_question(neg).masks == t.masks
                agree = machines_agree(t)
                assert agree == is_sigma_field(t.family)
                assert agree == (clopen_sets(t).masks == t.masks)


def test_criterion_07_classification_properties():
    with criterion(7, "trichotomy and subspace law over every topology, n <= 4"):
        for n in range(5):
            g = ground_of(n)
            for t in all_topologies(n):
                for x in g.labels:
                    outcome = classify_question(t, x)
                    assert outcome.kind in (
                        QuestionType.TYPE_I,
                        QuestionType.TYPE_II,
                    )
                    if outcome.kind is QuestionType.TYPE_II:
                        assert outcome.result_family.masks == (0,)
                    else:
                        carrier = outcome.carrier
                        sub = subspace_topology(t, carrier)
                        got = {frozenset(s.labels()) for s in outcome.result_family}
                        assert got == {frozenset(s.labels()) for s in sub}
                        ok, _ = is_topology(sub.family)
                        assert ok
                outside = classify_question(t, "zz")
                assert outside.kind is QuestionType.TYPE_III
                assert outside.result_family.masks == ()


def test_criterion_08_neighborhood_laws():
    with criterion(8, "neighborhood system laws over every topology, n <= 4"):
        for n in range(1, 5):
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


def test_criterion_09_hereditary_discreteness():
    with criterion(9, "discrete resolution drops exactly one assertion, n = 2..5"):
        for n in range(2, 6):
            g = make_ground_set([f"x{i}" for i in range(n)])
            t = Topology.discrete(g)
            for x in g.labels:
                outcome = classify_question(t, x)
                assert outcome.kind is QuestionType.TYPE_I
                assert len(outcome.carrier) == n - 1
                sub = subspace_topology(t, outcome.carrier)
                assert len(sub) == 1 << (n - 1)  # discrete again
            steps = resolve_sequence(t, list(g.labels))
            kinds = [s.kind for s in steps]
            assert kinds[: n - 1] == [QuestionType.TYPE_I] * (n - 1)
            assert kinds[n - 1] is QuestionType.TYPE_II
            size = n
            for step in steps[: n - 1]:
                assert len(step.carrier) == size - 1  # one assertion per step
                size -= 1


def test_criterion_10_parent_questions():
    with criterion(10, "parent questions equal the brute-force filter, |Y| <= 4"):
        for ny in range(5):
            y_ground = ground_of(ny)
            y_families = oracle_families(ny)
            for x_mask in range(y_ground.full_mask + 1):
                x_labels = [
                    l for i, l in enumerate(y_ground.labels) if (x_mask >> i) & 1
                ]
                # The superset's label order, and orders that break it.
                orders = {
                    tuple(x_labels),
                    tuple(reversed(x_labels)),
                    tuple(x_labels[1:] + x_labels[:1]),
                }
                for order in sorted(orders):
                    check_parents(order, y_ground, y_families)


def check_parents(x_labels, y_ground, y_families):
    x_ground = make_ground_set(x_labels)
    position = [y_ground.index(l) for l in x_labels]

    def embed(m):
        out = 0
        for i, j in enumerate(position):
            if (m >> i) & 1:
                out |= 1 << j
        return out

    for t_masks in brute_force_topologies(len(x_labels)):
        t = topology_from_masks(t_masks, x_ground)
        wanted = {embed(m) for m in t_masks}
        expected = [fam for fam in y_families if wanted <= set(fam)]
        got = [p.masks for p in parent_questions(t, y_ground)]
        assert sorted(got) == expected
        if len(t_masks) == 1 << len(x_labels):  # t discrete
            assert got
