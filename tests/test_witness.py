"""The exact geometric oracle: configurations, ranks, degenerations."""

import random
from fractions import Fraction

import pytest

from lineflags import (
    Configuration,
    FlagError,
    IntEchelon,
    NotAnOrbitInvariant,
    TransportMatrix,
    ValidationError,
    ZeroEntryPosition,
    applicable_moves,
    apply_basis_change,
    apply_move,
    build_poset,
    configuration_from_obj,
    configuration_to_obj,
    degeneration_family,
    delta_table,
    enumerate_orbits,
    enumerate_transport_matrices,
    from_permutation,
    geometric_rank_tables,
    identify_orbit,
    random_int_invertible,
    rank_table,
    rbar_table,
    standard_configuration,
    uncircling_check,
    verify_move_degeneration,
)
from helpers import margin_pairs


def exact_determinant(rows):
    n = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] * inv
            if f:
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return det


class TestIntEchelon:
    def test_rank_and_membership(self):
        ech = IntEchelon()
        assert ech.add((1, 0, 0))
        assert ech.add((Fraction(1, 2), Fraction(1, 3), 0))
        assert not ech.add((3, 2, 0))
        assert ech.rank == 2
        assert ech.add((0, 0, 5))
        assert ech.rank == 3

    def test_copy_is_independent(self):
        ech = IntEchelon()
        ech.add((1, 1))
        snap = ech.copy()
        ech.add((0, 1))
        assert ech.rank == 2
        assert snap.rank == 1


class TestStandardConfiguration:
    def test_dimensions_match_margins(self):
        tm = TransportMatrix.from_rows([[1, 1], [0, 2]])
        config = standard_configuration(tm, [(1, 1)])
        assert config.n == 4
        assert [len(level) for level in config.b_levels] == [2, 4]
        assert [len(level) for level in config.c_levels] == [1, 4]
        assert len(config.a) == 1

    def test_rejects_marks_on_zero_entries(self):
        tm = TransportMatrix.from_rows([[1, 0], [0, 1]])
        with pytest.raises(ZeroEntryPosition, match=r"\(1,2\)"):
            standard_configuration(tm, [(1, 2)])

    def test_rejects_empty_marks(self):
        tm = TransportMatrix.from_rows([[1]])
        with pytest.raises(ValidationError, match="EmptyInput"):
            standard_configuration(tm, [])


class TestGeometricTables:
    def test_match_combinatorial_tables(self):
        for b, c in (((1, 1, 1), (1, 1, 1)), ((2, 1), (1, 2)), ((1, 2), (2, 1))):
            for dm in enumerate_orbits(b, c):
                config = standard_configuration(dm.matrix, dm.delta)
                geo_rank, geo_rbar = geometric_rank_tables(config)
                assert geo_rank.values == rank_table(dm.matrix).values
                assert geo_rbar.values == rbar_table(dm).values
                assert geo_rbar.delta_values == delta_table(dm)

    def test_identify_orbit_round_trips(self):
        for dm in enumerate_orbits((1, 1, 1), (1, 1, 1)):
            config = standard_configuration(dm.matrix, dm.delta)
            assert identify_orbit(config) == dm

    def test_identify_orbit_rejects_a_plane(self):
        base = standard_configuration(
            TransportMatrix.from_rows([[1, 0], [0, 1]]), [(1, 1)]
        )
        widened = Configuration(
            base.n,
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
            base.b_levels,
            base.c_levels,
        )
        with pytest.raises(NotAnOrbitInvariant):
            identify_orbit(widened)


class TestUncircling:
    def test_exhaustive_on_small_margins(self):
        for b, c in margin_pairs(2, 2):
            for tm in enumerate_transport_matrices(b, c):
                cells = tm.positive_positions()
                for mask in range(1, 1 << len(cells)):
                    marks = [p for k, p in enumerate(cells) if mask >> k & 1]
                    assert uncircling_check(tm, marks)

    def test_non_staircase_marks_collapse_to_their_hull(self):
        tm = TransportMatrix.from_rows([[1, 1], [1, 1]])
        config = standard_configuration(tm, [(1, 1), (2, 2)])
        got = identify_orbit(config)
        assert got.matrix.m == tm.m
        assert got.delta == ((2, 2),)

    def test_rejects_marks_on_zero_entries(self):
        tm = TransportMatrix.from_rows([[1, 0], [0, 1]])
        with pytest.raises(ZeroEntryPosition):
            uncircling_check(tm, [(2, 1)])


class TestBasisInvariance:
    def test_random_matrices_are_unimodular(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            for _ in range(5):
                g = random_int_invertible(n, rng)
                assert exact_determinant(g) in (1, -1)

    def test_identify_orbit_is_basis_invariant(self):
        rng = random.Random(20260817)
        samples = [
            from_permutation((3, 1, 2), (1, 2)),
            enumerate_orbits((2, 1), (1, 2))[0],
            enumerate_orbits((1, 2), (2, 1))[-1],
        ]
        for dm in samples:
            config = standard_configuration(dm.matrix, dm.delta)
            for _ in range(4):
                g = random_int_invertible(dm.n, rng)
                assert identify_orbit(apply_basis_change(config, g)) == dm

    def test_rejects_singular_matrices(self):
        dm = from_permutation((1, 2), (1,))
        config = standard_configuration(dm.matrix, dm.delta)
        with pytest.raises(FlagError, match="singular"):
            apply_basis_change(config, ((1, 1), (1, 1)))


class TestDegenerationFamilies:
    def test_flip_family_hits_target_and_limit(self):
        lo = from_permutation((1, 2), (2,))
        (mv,) = [m for m in applicable_moves(lo) if m.kind == "V"]
        target = apply_move(lo, mv)
        for tau in (1, 2, Fraction(1, 3), -3):
            got = identify_orbit(degeneration_family(lo, mv, tau))
            assert got == target
        limit = identify_orbit(degeneration_family(lo, mv, 0))
        assert limit == lo

    def test_every_small_cover_is_a_degeneration(self, poset2):
        for (a, t), mv in zip(poset2.covers, poset2.cover_moves):
            src, tgt = poset2.elements[a], poset2.elements[t]
            assert apply_move(src, mv) == tgt
            report = verify_move_degeneration(src, mv)
            assert report.passed, report.failures


class TestConfigurationSerialization:
    def test_round_trip_with_fractions(self):
        config = Configuration(
            2,
            ((Fraction(2, 3), Fraction(1)),),
            (((Fraction(1), Fraction(0)),), ((Fraction(0), Fraction(1)),)),
            (((Fraction(0), Fraction(1)),), ((Fraction(1), Fraction(0)),)),
        )
        obj = configuration_to_obj(config)
        assert obj["A"] == [["2/3", "1"]]
        assert configuration_from_obj(obj) == config

    def test_accepts_plain_integers(self):
        obj = {
            "n": 1,
            "A": [[1]],
            "B": [[[2]]],
            "C": [[["1/2"]]],
        }
        config = configuration_from_obj(obj)
        assert config.c_levels[0][0][0] == Fraction(1, 2)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            configuration_from_obj({"n": 2, "A": [[1]], "B": [], "C": []})
        with pytest.raises(ValidationError):
            configuration_from_obj(["not", "a", "dict"])
