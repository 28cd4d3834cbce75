"""Decorated matrices: the delta table, the augmented order, dimensions."""

import operator
import random
from collections import Counter

import pytest

from lineflags import (
    DecoratedMatrix,
    Move,
    NotAnOrbitInvariant,
    TransportMatrix,
    ValidationError,
    applicable_moves,
    apply_basis_change,
    apply_move,
    build_poset,
    decorated_from_tables,
    delta_table,
    dimension_of,
    enumerate_decorations,
    enumerate_orbits,
    enumerate_transport_matrices,
    find_chain,
    from_permutation,
    invariant,
    iter_moves,
    random_int_invertible,
    rank_table,
    rbar_table,
    rk_compare_witness,
    rk_first_difference,
    rk_leq_dec,
    standard_configuration,
    to_permutation,
    verify_move_degeneration,
)
from helpers import (
    GOLDEN_N3_LABELS,
    brute_force_staircases,
    compositions,
    decorated_from_tables_by_zero_set,
    delta_by_definition,
    dimension_by_stabilizer,
    dimension_full_flags,
    first_by_invariant,
    first_entry,
    margin_pairs,
    sort_key,
    prefix_rank_table,
)


class TestDeltaTable:
    def test_golden_small(self):
        dm = from_permutation((2, 1), (1,))
        assert delta_table(dm) == ((0, 0, 1), (1, 1, 1), (1, 1, 1))

    def test_matches_definition_everywhere(self):
        for dm in enumerate_orbits((1, 1, 1), (1, 1, 1)):
            dt = delta_table(dm)
            for i in range(4):
                for j in range(4):
                    expected = int(
                        all(a <= i or b <= j for (a, b) in dm.delta)
                    )
                    assert dt[i][j] == expected

    def test_rbar_is_rank_plus_delta(self):
        for dm in enumerate_orbits((2, 1), (1, 2)):
            rt = rank_table(dm.matrix).values
            dt = delta_table(dm)
            bt = rbar_table(dm)
            assert bt.delta_values == dt
            for i in range(dm.q + 1):
                for j in range(dm.r + 1):
                    assert bt.values[i][j] == rt[i][j] + dt[i][j]


    @pytest.mark.parametrize(
        "delta, code",
        [
            (((5, 1),), "BadPosition(1)"),
            (((0, 1),), "BadPosition(1)"),
            (((1, 3),), "BadPosition(1)"),
            (((1, 2), (3, 1)), "BadPosition(2)"),
            (((1.0, 1),), "NotAnInteger(delta)"),
            (((1, 1, 1),), "BadShape"),
        ],
    )
    def test_a_decorated_cell_outside_the_grid_raises(self, delta, code):
        """A 2x2 orbit decorated at (5, 1) gave a table of 5 rows."""
        dm = DecoratedMatrix(from_permutation((1, 2), (1,)).matrix, delta)
        for table in (delta_table, rbar_table):
            with pytest.raises(ValidationError) as info:
                table(dm)
            assert info.value.code == code


class TestDecoratedOrder:
    def test_is_a_partial_order(self):
        orbits = enumerate_orbits((1, 1, 1), (1, 1, 1))
        for x in orbits:
            assert rk_leq_dec(x, x)
        for x in orbits:
            for y in orbits:
                if x != y and rk_leq_dec(x, y):
                    assert not rk_leq_dec(y, x)
        less = {
            (a, t)
            for a, x in enumerate(orbits)
            for t, y in enumerate(orbits)
            if rk_leq_dec(x, y)
        }
        for (a, t) in less:
            for (t2, u) in less:
                if t == t2:
                    assert (a, u) in less

    def test_refines_the_plain_rank_order(self):
        from lineflags import rk_leq

        orbits = enumerate_orbits((1, 1, 1), (1, 1, 1))
        for x in orbits:
            for y in orbits:
                if rk_leq_dec(x, y):
                    assert rk_leq(x.matrix, y.matrix)

    def test_incomparable_pair_with_witnesses(self):
        x = from_permutation((1, 2, 3), (3,))
        y = from_permutation((3, 2, 1), (1, 2))
        assert not rk_leq_dec(x, y)
        assert not rk_leq_dec(y, x)
        assert rk_compare_witness(x, y) == ("rbar", (2, 0), 0, 1)
        assert rk_compare_witness(y, x) == ("r", (1, 1), 0, 1)

    def test_first_difference_none_means_equal(self):
        orbits = enumerate_orbits((1, 1), (1, 1))
        for x in orbits:
            for y in orbits:
                diff = rk_first_difference(x, y)
                assert (diff is None) == (x == y)


def tables_by_definition(dm):
    """``(r, rbar)`` of an orbit from prefix sums and the delta definition."""
    r = prefix_rank_table(dm.matrix.m, dm.q, dm.r)
    d = delta_by_definition(dm.delta, dm.q, dm.r)
    return r, [[v + dv for v, dv in zip(row, drow)] for row, drow in zip(r, d)]


def check_against_definition(orbits, pairs):
    """Tables and invariant of every orbit, and the three scans on ``pairs``."""
    tables = {}
    for dm in orbits:
        r, rbar = tables[dm] = tables_by_definition(dm)
        d = delta_by_definition(dm.delta, dm.q, dm.r)
        assert delta_table(dm) == tuple(map(tuple, d))
        assert rbar_table(dm).values == tuple(map(tuple, rbar))
        assert invariant(dm) == tuple(
            v for row, brow in zip(r, rbar) for pair in zip(row, brow) for v in pair
        )
    for x, y in pairs:
        witness = first_entry(tables[x], tables[y], operator.lt)
        assert rk_compare_witness(x, y) == witness
        assert rk_leq_dec(x, y) == (witness is None)
        assert rk_first_difference(x, y) == first_entry(tables[x], tables[y], operator.ne)


class TestAgainstDefinition:
    def test_every_orbit_and_sampled_pairs_up_to_mass_four(self):
        rng = random.Random(4)
        for b, c in margin_pairs(1, 4):
            orbits = enumerate_orbits(b, c)
            some = orbits if len(orbits) <= 24 else rng.sample(orbits, 24)
            check_against_definition(orbits, [(x, y) for x in some for y in some])

    def test_worked_witnesses(self):
        x = from_permutation((1, 2, 3), (3,))
        y = from_permutation((3, 2, 1), (1, 2))
        tx, ty = tables_by_definition(x), tables_by_definition(y)
        assert first_entry(tx, ty, operator.lt) == ("rbar", (2, 0), 0, 1)
        assert first_entry(ty, tx, operator.lt) == ("r", (1, 1), 0, 1)
        check_against_definition([x, y], [(x, y), (y, x), (x, x)])

    def test_random_margins_of_mass_five(self):
        rng = random.Random(5)
        wide = [parts for parts in compositions(5) if len(parts) >= 3]
        for _ in range(6):
            b, c = rng.choice(wide), rng.choice(wide)
            orbits = enumerate_orbits(b, c)
            some = rng.sample(orbits, min(len(orbits), 30))
            check_against_definition(some, [(x, y) for x in some for y in some])


class TestScanAgainstInvariant:
    """The ``rk_*`` scans over the flat tables against the scan over the
    interleaved ``invariant`` tuples."""

    @staticmethod
    def check(x, y):
        witness = first_by_invariant(x, y, operator.lt)
        assert rk_compare_witness(x, y) == witness
        assert rk_leq_dec(x, y) == (witness is None)
        assert rk_first_difference(x, y) == first_by_invariant(x, y, operator.ne)

    def test_every_pair_up_to_mass_three(self):
        pairs = 0
        for b, c in margin_pairs(1, 3):
            orbits = enumerate_orbits(b, c)
            for x in orbits:
                for y in orbits:
                    self.check(x, y)
                    pairs += 1
        assert pairs == 1574

    def test_seeded_pairs_at_n5(self):
        orbits = enumerate_orbits((1,) * 5, (1,) * 5)
        rng = random.Random(5)
        for _ in range(300):
            self.check(*rng.sample(orbits, 2))


class TestEnumeration:
    def test_decorations_match_staircase_oracle(self):
        for b, c in margin_pairs(2, 3):
            for tm in enumerate_transport_matrices(b, c):
                got = set(enumerate_decorations(tm))
                expected = set(brute_force_staircases(tm.positive_positions()))
                assert got == expected

    def test_decorations_come_in_lexicographic_order(self):
        lists = 0
        for b, c in margin_pairs(1, 5):
            for tm in enumerate_transport_matrices(b, c):
                got = enumerate_decorations(tm)
                assert got == sorted(got)
                lists += 1
        assert lists == 3281

    def test_enumerations_come_in_canonical_order(self):
        """Neither enumerator sorts: the matrices are filled in the order
        of ``sort_key``, and the decorations of each in lexicographic
        order."""
        pairs = matrices = orbits = 0
        for b, c in margin_pairs(1, 5):
            tms = enumerate_transport_matrices(b, c)
            assert tms == sorted(tms, key=sort_key)
            dms = enumerate_orbits(b, c)
            assert dms == sorted(dms, key=sort_key)
            pairs, matrices, orbits = pairs + 1, matrices + len(tms), orbits + len(dms)
        assert (pairs, matrices, orbits) == (341, 3281, 26643)

    def test_orbits_come_sorted_once_each(self):
        for b, c in margin_pairs(1, 4):
            orbits = enumerate_orbits(b, c)
            keys = [sort_key(dm) for dm in orbits]
            assert keys == sorted(set(keys))
            assert set(orbits) == {
                DecoratedMatrix(tm, delta)
                for tm in enumerate_transport_matrices(b, c)
                for delta in brute_force_staircases(tm.positive_positions())
            }

    def test_orbit_counts(self):
        assert len(enumerate_orbits((1, 1), (1, 1))) == 5
        assert len(enumerate_orbits((1, 1, 1), (1, 1, 1))) == 28

    def test_decoration_counts_per_permutation_matrix(self):
        expected = {
            (1, 2, 3): 3,
            (2, 1, 3): 4,
            (1, 3, 2): 4,
            (2, 3, 1): 5,
            (3, 1, 2): 5,
            (3, 2, 1): 7,
        }
        for w, count in expected.items():
            tm = from_permutation(w, (1,)).matrix
            assert len(enumerate_decorations(tm)) == count


class TestDimensions:
    def test_extremes(self):
        for n in (2, 3, 4):
            ident = tuple(range(1, n + 1))
            rev = tuple(range(n, 0, -1))
            assert dimension_full_flags(ident, (1,)) == n * (n - 1) // 2
            assert dimension_full_flags(rev, ident) == (n - 1) + n * (n - 1)

    def test_graded_by_covers(self, poset3):
        for a, t in poset3.covers:
            assert (
                dimension_of(poset3.elements[t])
                == dimension_of(poset3.elements[a]) + 1
            )

    def test_golden_values(self):
        assert dimension_of(from_permutation((1, 2, 3), (1,))) == 3
        assert dimension_of(from_permutation((3, 2, 1), (1, 2, 3))) == 8
        assert dimension_of(from_permutation((1, 2, 3), (2,))) == 4

    def test_matches_the_inversion_count_on_full_flags(self):
        orbits = 0
        for n in range(1, 6):
            for dm in enumerate_orbits((1,) * n, (1,) * n):
                assert dimension_of(dm) == dimension_full_flags(*to_permutation(dm)), dm
                orbits += 1
        assert orbits == 1 + 5 + 28 + 185 + 1426

    def test_matches_the_stabilizer_on_every_orbit_of_mass_four(self):
        """On a basis-changed standard configuration, so the oracle reads
        neither the slots nor the decoration."""
        rng = random.Random(2002)
        orbits = 0
        for b, c in margin_pairs(1, 4):
            for dm in enumerate_orbits(b, c):
                config = standard_configuration(dm.matrix, dm.delta)
                config = apply_basis_change(config, random_int_invertible(dm.n, rng))
                assert dimension_of(dm) == dimension_by_stabilizer(config), dm
                orbits += 1
        assert orbits == 1694


class TestCoverCodimensions:
    """How far each cover of the order climbs in dimension."""

    @staticmethod
    def codimensions(b, c):
        poset = build_poset(b, c)
        dims = [dimension_of(el) for el in poset.elements]
        return dims, poset.covers, Counter(dims[t] - dims[a] for a, t in poset.covers)

    def test_every_margin_pair_up_to_mass_four(self):
        census = Counter()
        for b, c in margin_pairs(1, 4):
            census += self.codimensions(b, c)[2]
        assert census == {1: 4098, 2: 211, 3: 8}

    @pytest.mark.parametrize("n, covers", [(2, 6), (3, 72), (4, 763), (5, 8329)])
    def test_full_flags_are_graded(self, n, covers):
        assert self.codimensions((1,) * n, (1,) * n)[2] == {1: covers}

    def test_three_points_in_the_plane(self):
        """``b = c = (1, 2)``: "all equal" is covered by each "two equal"
        orbit, two dimensions up."""
        dims, covers, _ = self.codimensions((1, 2), (1, 2))
        (low,) = [a for a, d in enumerate(dims) if d == 2]
        assert sorted(dims[t] for a, t in covers if a == low) == [4, 4, 4]


class TestTableRoundTrip:
    def test_every_orbit_reconstructs(self):
        for b, c in (((1, 1, 1), (1, 1, 1)), ((2, 1), (1, 2)), ((1, 2), (2, 1))):
            for dm in enumerate_orbits(b, c):
                rt = rank_table(dm.matrix).values
                dt = delta_table(dm)
                assert decorated_from_tables(rt, dt) == dm

    def test_corners_match_the_zero_set_on_every_table(self):
        def outcome(fn, rt, dt):
            try:
                return fn(rt, dt)
            except NotAnOrbitInvariant as exc:
                return str(exc)

        rank_tables = {
            rank_table(tm).values
            for b, c in margin_pairs(2, 3)
            if len(b) == len(c) == 2
            for tm in enumerate_transport_matrices(b, c)
        }
        seen = set()
        for rt in sorted(rank_tables):
            for bits in range(1 << 9):
                dt = tuple(tuple(bits >> (3 * i + j) & 1 for j in range(3)) for i in range(3))
                got = outcome(decorated_from_tables, rt, dt)
                assert got == outcome(decorated_from_tables_by_zero_set, rt, dt)
                seen.add(got if isinstance(got, str) else "orbit")
        assert len(rank_tables) == 10
        assert {"orbit", "delta table has no zero", "tables do not round-trip"} <= seen
        assert any(message.startswith("ZeroEntryDecorated") for message in seen)

    def test_rejects_garbage(self):
        with pytest.raises(NotAnOrbitInvariant):
            decorated_from_tables(((0,),), ((0,),))
        with pytest.raises(NotAnOrbitInvariant):
            decorated_from_tables(((0, 0), (0, 1)), ((1, 1), (1, 1)))
        with pytest.raises(NotAnOrbitInvariant, match="^rank table: "):
            decorated_from_tables(((0, 0), (0, -1)), ((1, 1), (1, 1)))
        dm = from_permutation((1, 2), (1,))
        rt = rank_table(dm.matrix).values
        bad_dt = tuple(tuple(0 for _ in row) for row in delta_table(dm))
        with pytest.raises(NotAnOrbitInvariant):
            decorated_from_tables(rt, bad_dt)

    def test_rejects_a_rank_table_with_a_nonzero_border(self):
        """Adding 1 everywhere keeps every second difference, so only the
        border tells the table from the orbit's own."""
        dm = from_permutation((2, 3, 1), (1, 3))
        rt = tuple(tuple(x + 1 for x in row) for row in rank_table(dm.matrix).values)
        for fn in (decorated_from_tables, decorated_from_tables_by_zero_set):
            assert fn(rank_table(dm.matrix).values, delta_table(dm)) == dm
            with pytest.raises(NotAnOrbitInvariant, match="tables do not round-trip"):
                fn(rt, delta_table(dm))

    @pytest.mark.parametrize(
        "rank_values, delta_values",
        [
            (5, 6),
            ([1, 2], [3, 4]),
            (((0, 0), (0, 1)), None),
            (((0, 0, 0), (0, 1)), ((1, 1, 1), (1, 1))),
            (((0, 0, 0), (0, 1, 1), (0, 1)), ((0, 1, 1), (1, 1, 1), (1, 1))),
        ],
        ids=["numbers", "rows-of-numbers", "delta-none", "ragged", "short-last-row"],
    )
    def test_rejects_tables_that_are_not_nested(self, rank_values, delta_values):
        with pytest.raises(NotAnOrbitInvariant, match="table shapes"):
            decorated_from_tables(rank_values, delta_values)

    def test_the_zero_set_oracle_rejects_ragged_tables(self):
        for rank_values, delta_values in (
            (((0, 0, 0), (0, 1)), ((1, 1, 1), (1, 1))),
            (((0, 0, 0), (0, 1, 1), (0, 1)), ((0, 1, 1), (1, 1, 1), (1, 1))),
        ):
            with pytest.raises(NotAnOrbitInvariant, match="table shapes"):
                decorated_from_tables_by_zero_set(rank_values, delta_values)

    @pytest.mark.parametrize(
        "table, cell, value",
        [("rank", (2, 2), 2.9), ("rank", (1, 1), True), ("rank", (2, 2), "2"),
         ("delta", (0, 0), False), ("delta", (2, 2), 1.0)],
        ids=["rank-float", "rank-true", "rank-string", "delta-false", "delta-float"],
    )
    def test_rejects_non_integer_entries(self, table, cell, value):
        dm = from_permutation((1, 2), (1,))
        tables = {"rank": rank_table(dm.matrix).values, "delta": delta_table(dm)}
        rows = [list(row) for row in tables[table]]
        i, j = cell
        assert int(value) == rows[i][j]  # coercing would round-trip
        rows[i][j] = value
        tables[table] = rows
        with pytest.raises(NotAnOrbitInvariant, match="table entries"):
            decorated_from_tables(tables["rank"], tables["delta"])


def test_make_sorts_and_validates():
    tm = TransportMatrix.from_rows([[0, 1], [1, 0]])
    dm = DecoratedMatrix.make(tm, [(2, 1), (1, 2)])
    assert dm.delta == ((1, 2), (2, 1))


ORBIT = from_permutation((1, 2), (1,))
MATRIX = ORBIT.matrix
FIRST = Move("I", ((1, 1),))
CALLS = {
    "apply_move": lambda dm: apply_move(dm, FIRST),
    "iter_moves": iter_moves,
    "applicable_moves": applicable_moves,
    "find_chain(x)": lambda dm: find_chain(dm, ORBIT),
    "find_chain(y)": lambda dm: find_chain(ORBIT, dm),
    "verify_move_degeneration": lambda dm: verify_move_degeneration(dm, FIRST),
    "rk_leq_dec": lambda dm: rk_leq_dec(dm, ORBIT),
    "rk_compare_witness": lambda dm: rk_compare_witness(ORBIT, dm),
    "rk_first_difference": lambda dm: rk_first_difference(dm, ORBIT),
    "invariant": invariant,
    "delta_table": delta_table,
    "rbar_table": rbar_table,
    "dimension_of": dimension_of,
    "to_permutation": to_permutation,
}


@pytest.mark.parametrize(
    "name, arg, code",
    [(name, arg, "BadShape") for name in CALLS for arg in (None, MATRIX)]
    + [
        ("to_permutation", DecoratedMatrix(MATRIX, ((1, 1), (2, 2))), "NotStaircase(2)"),
        ("dimension_of", DecoratedMatrix(MATRIX, ((1, 1), (2, 2))), "NotStaircase(2)"),
        ("enumerate_decorations", None, "BadShape"),
        ("enumerate_decorations", TransportMatrix(((2, -1), (-1, 2)), (1, 1), (1, 1)),
         "NegativeEntry(1,2)"),
    ],
)
def test_entry_points_reject_what_is_no_valid_orbit(name, arg, code):
    """``None`` and a bare matrix raised ``AttributeError``; a decoration
    that is no staircase, or a negative entry, was read as it stood."""
    call = CALLS.get(name, enumerate_decorations)
    with pytest.raises(ValidationError) as info:
        call(arg)
    assert info.value.code == code
