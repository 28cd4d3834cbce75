import pytest

from lineflags import build_poset, enumerate_orbits
from lineflags.moves import _checked_moves, _result
from helpers import margin_pairs


@pytest.fixture(scope="session")
def poset2():
    return build_poset((1, 1), (1, 1))


@pytest.fixture(scope="session")
def poset3():
    return build_poset((1, 1, 1), (1, 1, 1))


@pytest.fixture(scope="session")
def poset4():
    return build_poset((1, 1, 1, 1), (1, 1, 1, 1))


@pytest.fixture(scope="session")
def checked_to_mass_five():
    """Each orbit of mass <= 5, in enumeration order, with its moves and
    their validated results from the per-orbit ``_checked_moves(dm)``,
    built once for the sweeps that read them all."""
    return {
        dm: [(mv, _result(dm, *raw)) for mv, raw in _checked_moves(dm)]
        for b, c in margin_pairs(1, 5)
        for dm in enumerate_orbits(b, c)
    }
