import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qtop import Topology, make_ground_set

from oracle import brute_force_topologies

_CACHE: dict[int, list[tuple[int, ...]]] = {}


def oracle_families(n: int) -> list[tuple[int, ...]]:
    if n not in _CACHE:
        _CACHE[n] = brute_force_topologies(n)
    return _CACHE[n]


DEFAULT_LABELS = ("a", "b", "c", "d", "e")


def ground_of(n: int):
    return make_ground_set(DEFAULT_LABELS[:n])


def all_topologies(n: int) -> list[Topology]:
    """Every topology on n points, built from the brute-force oracle."""
    ground = ground_of(n)
    return [Topology.from_masks(masks, ground) for masks in oracle_families(n)]


@pytest.fixture(scope="session")
def ms_ground():
    return make_ground_set(["m", "s"])


@pytest.fixture(scope="session")
def mse_ground():
    return make_ground_set(["m", "s", "e"])


@pytest.fixture(scope="session")
def t_x(mse_ground):
    """The worked example: {phi, {m}, {m,s}, {m,e}, X} on {m,s,e}."""
    return Topology.from_masks([0, 1, 3, 5, 7], mse_ground)


# ``t_x`` as a document, in the canonical form ``qtop`` writes.
T_X_DOC = (
    '{"elements":["m","s","e"],'
    '"opens":[[],["m"],["m","s"],["m","e"],["m","s","e"]]}\n'
)


@pytest.fixture
def t_x_file(tmp_path):
    path = tmp_path / "t_x.json"
    path.write_text(T_X_DOC)
    return str(path)
