"""The exact geometric oracle: configurations, ranks, degenerations."""

import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

import lineflags
from lineflags import (
    Configuration,
    DecoratedMatrix,
    FlagError,
    IntEchelon,
    Move,
    NotAnOrbitInvariant,
    TransportMatrix,
    ValidationError,
    ZeroEntryPosition,
    applicable_moves,
    apply_basis_change,
    apply_move,
    build_poset,
    decorated_from_tables,
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
from lineflags import witness
from lineflags.witness import _integral, _saturate_limit
from helpers import (
    basis_change_by_vector,
    det_by_fractions,
    exact_determinant,
    fraction_dependency,
    fraction_rank,
    limit_by_restarts,
    margin_pairs,
    rank_tables_by_definition,
    verify_move_degeneration_by_identification,
)


class TestIntEchelon:
    def test_rank_and_membership(self):
        ech = IntEchelon()
        assert ech.add((1, 0, 0))
        assert ech.add((Fraction(1, 2), Fraction(1, 3), 0))
        assert not ech.add((3, 2, 0))
        assert ech.rank == 2
        assert ech.add((0, 0, 5))
        assert ech.rank == 3

    @pytest.mark.parametrize(
        "first, vec, code",
        [
            ((1, 0, 0), (1,), "BadShape"),
            ((0, 0, 1), (1,), "BadShape"),
            ((0, 0), (1, 0, 0), "BadShape"),
            (None, 5, "BadShape"),
            (None, (1.5, 0), "NotARational(vec)"),
            (None, ("a", 0), "NotARational(vec)"),
            (None, (True, 0), "NotARational(vec)"),
            ((1, 0), (0, False), "NotARational(vec)"),
        ],
        ids=[
            "shorter-after-a-pivot-at-0",
            "shorter-after-a-pivot-at-2",
            "longer-after-a-zero-vector",
            "not-iterable",
            "float",
            "string",
            "true",
            "false-after-a-vector",
        ],
    )
    def test_rejects_bad_vectors(self, first, vec, code):
        ech = IntEchelon()
        if first is not None:
            ech.add(first)
        rank = ech.rank
        with pytest.raises(ValidationError) as info:
            ech.add(vec)
        assert info.value.code == code
        assert ech.rank == rank

    def test_rejects_bad_vectors_under_optimization(self):
        script = textwrap.dedent(
            """
            from lineflags import IntEchelon, ValidationError

            print("debug", __debug__)
            for first, vec in (((0, 0, 1), (1,)), ((1, 0), (True, 0))):
                ech = IntEchelon()
                ech.add(first)
                try:
                    ech.add(vec)
                except ValidationError as exc:
                    print("raised", exc.code)
            """
        )
        src = os.path.dirname(os.path.dirname(lineflags.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "debug False",
            "raised BadShape",
            "raised NotARational(vec)",
        ]


def random_rows(rng):
    """A short list of rows mixing ints and Fractions, often with a
    planted dependency (a combination of earlier rows, or zero)."""

    def entry():
        if rng.random() < 0.5:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))

    width, count = rng.randint(1, 5), rng.randint(1, 6)
    rows = [tuple(entry() for _ in range(width)) for _ in range(count)]
    if rng.random() < 0.6:
        p = rng.randrange(count)
        plant = [sum(entry() * row[col] for row in rows[:p]) for col in range(width)]
        rows[p] = tuple(plant) if p else (0,) * width
    return rows


def oracle_rank(rows):
    kept = []
    for row in rows:
        if fraction_dependency(kept + [row]) is None:
            kept.append(row)
    return len(kept)


class TestIntEchelonRank:
    def test_matches_the_fraction_oracle(self):
        rng = random.Random(20261018)
        dependent = 0
        for _ in range(400):
            rows = random_rows(rng)
            ech = IntEchelon()
            for row in rows:
                ech.add(row)
            assert ech.rank == oracle_rank(rows)
            dependent += fraction_dependency(rows) is not None
        assert dependent > 100


def random_polynomial_rows(rng):
    """Polynomial rows whose values at 0 often depend on the earlier
    rows: a row may be a combination of earlier ones plus a random
    multiple of ``tau`` or ``tau**2``, or such a combination alone."""
    n = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, n + 1)):
        degree = rng.randint(0, 2)
        vec = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(degree + 1))
        if rows and rng.random() < 0.6:
            terms = [witness._v_scale(row, rng.randint(-2, 2)) for row in rows]
            if rng.random() < 0.8:
                terms.append(witness._v_shift(vec, rng.randint(1, 2)))
            vec = witness._v_sum(terms)
        rows.append(vec)
    return rows


def check_limit(rows):
    """``_saturate_limit`` agrees with the restart loop of the oracle:
    equal prefix spans, or both find the rows dependent.  Returns
    whether the rows are independent."""
    want = limit_by_restarts(rows)
    if want is None:
        with pytest.raises(FlagError, match="dependent for all parameter values"):
            _saturate_limit(rows)
        return False
    got = _saturate_limit(rows)
    assert all(type(x) is int for vec in got for x in vec)
    # Both lists are independent, so equal prefix spans mean that each
    # value lies in the span of the oracle's values up to its own.
    assert fraction_rank(got) == len(rows)
    for k in range(len(rows)):
        assert fraction_rank(want[: k + 1] + got[k : k + 1]) == k + 1
    return True


class TestSaturateLimit:
    def test_matches_the_restart_oracle_on_random_rows(self):
        rng = random.Random(20261019)
        outcomes = {"dependent": 0, "divided": 0}
        for _ in range(600):
            rows = random_polynomial_rows(rng)
            if not check_limit(rows):
                outcomes["dependent"] += 1
            elif fraction_rank([vec[0] for vec in rows]) < len(rows):
                outcomes["divided"] += 1
        assert min(outcomes.values()) > 100, outcomes

    def test_matches_the_restart_oracle_on_every_cover_up_to_mass_four(self):
        families = 0
        for dm, mv in cover_moves(1, 4):
            family = witness._family_vectors(dm, mv)
            for slots in (family.by_row, family.by_column):
                assert check_limit([family.vectors[s] for s in slots])
            families += 1
        assert families == 4317

    @pytest.mark.parametrize(
        "rows",
        [
            [((1,), (1,)), ((1,),)],
            [((1, 0), (0, 1)), ((0, 1),), ((1, 0),)],
        ],
        ids=["two-rows-in-a-line", "three-rows-in-a-plane"],
    )
    def test_rows_dependent_for_all_parameters_raise(self, rows):
        assert not check_limit(rows)


class TestCoordinates:
    def test_forward_rows_rebuild_a_multiple_of_the_vector(self):
        rng = random.Random(11)
        for _ in range(400):
            ech = IntEchelon()
            for added in random_rows(rng):
                ech.add(added)
                pivots = list(ech._rows)
                for t, (p, row) in enumerate(ech._rows.items()):
                    # Forward only: zero at the earlier pivots and before
                    # its own, whatever it holds at the later pivots.
                    assert not any(row[k] for k in pivots[:t])
                    assert not any(row[:p])
                    assert gcd(*row) == 1 and row[p] > 0
                n = len(added)
                probe = [rng.choice((0, rng.randint(-3, 3))) for _ in range(n)]
                for x in (_integral(added), probe):
                    y, residual = ech._coordinates(x)
                    assert len(y) == len(pivots)
                    assert not any(residual[p] for p in pivots)
                    rebuilt = [
                        sum(c * row[k] for c, row in zip(y, ech._rows.values())) + residual[k]
                        for k in range(n)
                    ]
                    lead = next((k for k, v in enumerate(x) if v), None)
                    if lead is None:
                        assert not any(rebuilt)
                        continue
                    assert rebuilt[lead] != 0 and rebuilt[lead] * x[lead] > 0
                    assert all(rebuilt[k] * x[lead] == x[k] * rebuilt[lead] for k in range(n))
                assert not any(ech._coordinates(_integral(added))[1])


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

    @pytest.mark.parametrize(
        "marks",
        [[(1.7, 1)], [(1, 1.0)], [(True, 1)], [(1, 1), ("2", 2)]],
        ids=["float-row", "float-column", "bool", "string"],
    )
    def test_rejects_non_integer_positions(self, marks):
        tm = TransportMatrix.from_rows([[1, 0], [0, 1]])
        with pytest.raises(ValidationError, match=r"NotAnInteger\(positions\)"):
            standard_configuration(tm, marks)

    @pytest.mark.parametrize(
        "marks", [[(1, 1, 1)], [5], [5, 6], [(1, 1), (2,)]], ids=["triple", "int", "ints", "single"]
    )
    @pytest.mark.parametrize("check", [standard_configuration, uncircling_check])
    def test_rejects_positions_that_are_not_pairs(self, check, marks):
        tm = TransportMatrix.from_rows([[1, 0], [0, 1]])
        with pytest.raises(ValidationError) as info:
            check(tm, marks)
        assert info.value.code == "BadShape"


def config_with(field, vec, n=2):
    """A valid configuration in ``Q^2`` with ``vec`` put into one field."""
    a, b, c = ((1, 1),), (((1, 0),), ((0, 1),)), (((0, 1),), ((1, 0),))
    if field == "a":
        a = (vec,)
    elif field == "b":
        b = ((vec,),)
    else:
        c = (((0, 1),), (vec,))
    return Configuration(n, a, b, c)


class TestConfigurationChecks:
    def test_accepts_ints_and_fractions(self):
        config = config_with("b", (Fraction(1, 2), 3))
        assert config.b_levels == (((Fraction(1, 2), 3),),)
        assert Configuration(0, (), (), ()).n == 0

    def test_rejects_a_float_line(self):
        with pytest.raises(ValidationError, match=r"NotARational\(config\)"):
            Configuration(1, ((0.5,),), (((1,),),), (((1,),),))

    @pytest.mark.parametrize("field", ["a", "b", "c"])
    @pytest.mark.parametrize("x", [0.5, True, False, "1", None])
    def test_rejects_non_rational_entries(self, field, x):
        with pytest.raises(ValidationError, match=r"NotARational\(config\)"):
            config_with(field, (x, 0))

    @pytest.mark.parametrize("n", [2.0, -1, True, "2", None])
    def test_rejects_bad_dimensions(self, n):
        with pytest.raises(ValidationError, match="BadShape"):
            config_with("a", (1, 0), n=n)

    @pytest.mark.parametrize("field", ["a", "b", "c"])
    @pytest.mark.parametrize("vec", [(1,), (1, 0, 0), ()])
    def test_rejects_vectors_of_another_length(self, field, vec):
        with pytest.raises(ValidationError, match="BadShape"):
            config_with(field, vec)

    @pytest.mark.parametrize(
        "a, b_levels",
        [
            ((1, 0), (((1, 0),),)),
            (((1, 0),), ((1, 0),)),
            (((1, 0),), 1),
            ([(1, 0)], (((1, 0),),)),
            (([1, 0],), (((1, 0),),)),
            (((1, 0),), [[(1, 0)]]),
            (((1, 0),), ([(1, 0)],)),
            (((1, 0),), (([1, 0],),)),
        ],
        ids=[
            "line-of-numbers",
            "level-of-numbers",
            "levels-not-iterable",
            "line-list",
            "line-vector-list",
            "levels-list",
            "level-list",
            "level-vector-list",
        ],
    )
    def test_rejects_unnested_generators(self, a, b_levels):
        with pytest.raises(ValidationError, match="BadShape"):
            Configuration(2, a, b_levels, ())

    @pytest.mark.parametrize("c_levels", [[], [((0, 1),)], ([(0, 1)],), (([0, 1],),)])
    def test_rejects_lists_in_the_second_flag(self, c_levels):
        with pytest.raises(ValidationError, match="BadShape"):
            Configuration(2, ((1, 0),), (((1, 0),),), c_levels)


def random_configuration(rng):
    """A small configuration with ``int`` and ``Fraction`` entries,
    cumulative or incremental levels, repeated, dependent and zero
    generators, and a line given by 0, 1 or 2 generators."""
    n = rng.randint(1, 4)

    def entry():
        if rng.random() < 0.5:
            return rng.randint(-2, 2)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def vector(pool):
        roll = rng.random()
        if pool and roll < 0.2:
            return rng.choice(pool)
        if pool and roll < 0.4:
            picks = [rng.choice(pool) for _ in range(2)]
            return tuple(sum(entry() * v[k] for v in picks) for k in range(n))
        if roll < 0.45:
            return (0,) * n
        return tuple(entry() for _ in range(n))

    def flag():
        pool, levels = [], []
        for _ in range(rng.randint(0, 3)):
            level = [vector(pool) for _ in range(rng.randint(0, 3))]
            pool += level
            levels.append(level)
        cumulative = rng.random() < 0.5
        if cumulative:
            levels = [list(chain(*levels[: k + 1])) for k in range(len(levels))]
        return tuple(tuple(level) for level in levels), pool

    b_levels, b_pool = flag()
    c_levels, c_pool = flag()
    a = tuple(vector(b_pool + c_pool) for _ in range(rng.randint(0, 2)))
    return Configuration(n, a, b_levels, c_levels)


def random_flags_configuration(rng, n):
    """A configuration in ``Q^n`` whose flags meet: the second flag and
    the line reuse vectors, sums of vectors and multiples of vectors of
    the first.  Each flag spans ``Q^n`` about half of the time; levels
    may be empty, and generators repeated, dependent or zero."""

    def entry():
        if rng.random() < 0.6:
            return rng.randint(-2, 2)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def vector(pool):
        roll = rng.random()
        if pool and roll < 0.3:
            return tuple(entry() * x for x in rng.choice(pool))
        if pool and roll < 0.55:
            picks = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
            return tuple(sum(entry() * v[k] for v in picks) for k in range(n))
        if roll < 0.6:
            return (0,) * n
        return tuple(entry() for _ in range(n))

    def flag(shared):
        pool, levels = [], []
        for _ in range(rng.randint(1, n)):
            level = [vector(shared + pool) for _ in range(rng.randint(0, 3))]
            pool += level
            levels.append(level)
        if rng.random() < 0.5:
            levels[-1] += [tuple(entry() for _ in range(n)) for _ in range(n)]
        return tuple(tuple(level) for level in levels), pool

    b_levels, b_pool = flag([])
    c_levels, c_pool = flag(b_pool)
    a = tuple(vector(rng.choice((c_pool, b_pool + c_pool))) for _ in range(rng.randint(0, 2)))
    return Configuration(n, a, b_levels, c_levels)


def count_passes(monkeypatch):
    """Counts, by echelon, the forward passes ``_coordinates`` makes."""
    passes = Counter()
    coordinates = IntEchelon._coordinates

    def counted(self, x):
        passes[self] += 1
        return coordinates(self, x)

    monkeypatch.setattr(IntEchelon, "_coordinates", counted)
    return passes


def random_coordinate_configuration(rng):
    """A configuration whose flag generators each have one nonzero entry,
    a negative ``int`` or a ``Fraction`` as often as not, with zeros
    that are ``0`` or ``Fraction(0)``.  Levels are cumulative or not, a
    level may repeat or be empty, a flag may have no level or not span,
    and the line has 0, 1 or 2 generators, any of them zero."""
    n = rng.randint(1, 5)

    def entry():
        if rng.random() < 0.5:
            return rng.choice((-3, -2, -1, 1, 2, 3))
        return Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(2, 4))

    def zero():
        return rng.choice((0, Fraction(0)))

    def on_axis():
        p = rng.randrange(n)
        return tuple(entry() if k == p else zero() for k in range(n))

    def flag():
        levels = [[on_axis() for _ in range(rng.randint(0, 3))] for _ in range(rng.randint(0, 3))]
        if levels and rng.random() < 0.3:
            k = rng.randrange(len(levels))
            levels.insert(k, levels[k])
        if rng.random() < 0.5:
            levels = [list(chain(*levels[: k + 1])) for k in range(len(levels))]
        return tuple(tuple(level) for level in levels)

    def line_vector():
        if rng.random() < 0.15:
            return (0,) * n
        return tuple(entry() if rng.random() < 0.6 else zero() for _ in range(n))

    a = tuple(line_vector() for _ in range(rng.randint(0, 2)))
    return Configuration(n, a, flag(), flag())


class TestGeometricTables:
    def test_match_the_definition_on_random_configurations(self):
        rng = random.Random(20261018)
        line_sizes, fractions = set(), 0
        for _ in range(300):
            config = random_configuration(rng)
            rank, rbar = geometric_rank_tables(config)
            assert (rank.values, rbar.delta_values) == rank_tables_by_definition(config)
            line_sizes.add(len(config.a))
            fractions += any(
                isinstance(x, Fraction)
                for vec in chain(config.a, *config.b_levels, *config.c_levels)
                for x in vec
            )
        assert line_sizes == {0, 1, 2}
        assert 100 < fractions < 300

    @pytest.mark.parametrize("n, count", [(5, 100), (6, 60)])
    def test_match_the_definition_on_flags_that_meet(self, n, count):
        rng = random.Random(20261018 + n)
        spans = set()
        for _ in range(count):
            config = random_flags_configuration(rng, n)
            rank, rbar = geometric_rank_tables(config)
            assert (rank.values, rbar.delta_values) == rank_tables_by_definition(config)
            spans.add(tuple(
                fraction_rank([v for level in levels for v in level]) == n
                for levels in (config.b_levels, config.c_levels)
            ))
        assert spans == {(False, False), (False, True), (True, False), (True, True)}

    def test_match_the_definition_on_structured_configurations(self):
        rng = random.Random(4)
        poset = build_poset((1,) * 4, (1,) * 4, check_reduction=False)
        configs = []
        for dm in rng.sample(poset.elements, 50):
            config = standard_configuration(dm.matrix, dm.delta)
            configs.append(apply_basis_change(config, random_int_invertible(4, rng)))
        for k in rng.sample(range(len(poset.covers)), 40):
            src = poset.elements[poset.covers[k][0]]
            for tau in (0, 1, 2, Fraction(1, 3)):
                configs.append(degeneration_family(src, poset.cover_moves[k], tau))
        for config in configs:
            rank, rbar = geometric_rank_tables(config)
            assert (rank.values, rbar.delta_values) == rank_tables_by_definition(config)
        assert len(configs) == 210

    def test_match_the_definition_on_family_samples(self):
        """The exact values that :func:`verify_move_degeneration` checks,
        at each of its parameters, on sampled covers of full flags and
        of partial margins of mass 4."""
        rng = random.Random(17)
        full, partial = [], []
        for dm, mv in cover_moves(4, 4):
            (full if dm.matrix.b == dm.matrix.c == (1,) * 4 else partial).append((dm, mv))
        samples = 0
        for dm, mv in rng.sample(full, 25) + rng.sample(partial, 25):
            family = witness._family_vectors(dm, mv)
            for tau in (1, 2, Fraction(1, 3), 0):
                config = witness._family_at(family, tau)
                rank, rbar = geometric_rank_tables(config)
                assert (rank.values, rbar.delta_values) == rank_tables_by_definition(config)
                samples += 1
        assert samples == 200

    def test_match_the_definition_on_coordinate_configurations(self):
        """The reading by axes, on every standard configuration of mass at
        most 3, every marked set of criterion 9 and random configurations
        on the axes."""
        configs = [
            standard_configuration(dm.matrix, dm.delta)
            for b, c in margin_pairs(1, 3)
            for dm in enumerate_orbits(b, c)
        ]
        for b, c in margin_pairs(2, 3):
            for tm in enumerate_transport_matrices(b, c):
                cells = tm.positive_positions()
                for mask in range(1, 1 << len(cells)):
                    marks = [p for k, p in enumerate(cells) if mask >> k & 1]
                    configs.append(standard_configuration(tm, marks))
        rng = random.Random(20261020)
        randoms = [random_coordinate_configuration(rng) for _ in range(400)]
        for config in configs + randoms:
            assert witness._unit_slots(config) is not None
            rank, rbar = geometric_rank_tables(config)
            assert (rank.values, rbar.delta_values) == rank_tables_by_definition(config)
        assert len(configs) == 126 + 206

        seen = Counter()
        for config in randoms:
            b_spans, c_spans = (
                fraction_rank([v for level in levels for v in level]) == config.n
                for levels in (config.b_levels, config.c_levels)
            )
            entries = list(chain(*config.b_levels, *config.c_levels))
            seen["line", len(config.a)] += 1
            seen["zero line"] += any(not any(v) for v in config.a)
            seen["q=0"] += not config.b_levels
            seen["r=0"] += not config.c_levels
            seen["spans"] += b_spans and c_spans
            seen["does not span"] += not b_spans
            seen["fraction"] += any(isinstance(x, Fraction) and x for v in entries for x in v)
            seen["negative"] += any(x < 0 for v in entries for x in v)
            seen["repeated level"] += any(
                x == y for levels in (config.b_levels, config.c_levels)
                for x, y in zip(levels, levels[1:])
            )
        assert all(seen[key] >= 10 for key in (
            ("line", 0), ("line", 1), ("line", 2), "zero line", "q=0", "r=0", "spans",
            "does not span", "fraction", "negative", "repeated level",
        )), seen

    def test_each_generator_is_eliminated_once(self, monkeypatch):
        """One forward pass per generator over the basis adapted to ``B``
        (the generators of ``B`` are reduced, those of ``C`` and of the
        line solved), one more per generator of ``C`` and of the line
        over the rows kept from ``C``, and only these two echelons: no
        inverse of the basis of ``B``, and no probe for a line with one
        generator."""
        dm = from_permutation((4, 3, 2, 1), (1,))
        g = random_int_invertible(4, random.Random(30))
        config = apply_basis_change(standard_configuration(dm.matrix, dm.delta), g)
        assert witness._unit_slots(config) is None
        passes = count_passes(monkeypatch)
        geometric_rank_tables(config)
        assert len(passes) == 2
        over_b, over_c = passes.values()
        assert over_b <= 4 + 4 + 1
        assert over_c <= 4 + 1

    def test_coordinate_configurations_are_read_without_elimination(self, monkeypatch):
        """A standard configuration and a degeneration limit have their
        flags on the axes, so their tables take no elimination pass."""
        dm = from_permutation((1, 2, 3, 4), (2,))
        (mv,) = [m for m in applicable_moves(dm) if m.kind == "V"]
        configs = [
            standard_configuration(dm.matrix, dm.delta),
            witness._family_at(witness._family_vectors(dm, mv), 0),
        ]
        passes = count_passes(monkeypatch)
        assert [identify_orbit(config) for config in configs] == [dm, dm]
        for config in configs:
            geometric_rank_tables(config)
        assert passes == {}

    def test_the_axis_reading_stops_at_the_first_generator_off_an_axis(self):
        """Whether a generator lies on an axis is asked of the first
        generator that does not, and of none after it."""
        asked = []

        class Watched(tuple):
            def count(self, x):
                asked.append(self)
                return super().count(x)

        on_axis, off_axis = Watched((0, 2, 0)), Watched((1, 0, 1))
        b_levels = ((on_axis,), (on_axis, off_axis), (on_axis, off_axis, Watched((0, 0, 1))))
        config = Configuration(3, ((1, 1, 1),), b_levels, ((on_axis,),))
        assert witness._unit_slots(config) is None
        assert asked == [on_axis, off_axis]

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
        for g in (((1, 1), (1, 1)), ((Fraction(1, 2), 1), (1, 2))):
            with pytest.raises(FlagError, match="singular"):
                apply_basis_change(config, g)

    @pytest.mark.parametrize(
        "g",
        [5, [1, 2, 3], [None] * 3, ((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1), (1, 1))],
        ids=["number", "row-of-numbers", "rows-of-none", "too-few-rows", "short-rows"],
    )
    def test_rejects_bad_shapes(self, g):
        dm = from_permutation((1, 2, 3), (1,))
        config = standard_configuration(dm.matrix, dm.delta)
        with pytest.raises(ValidationError, match="BadShape"):
            apply_basis_change(config, g)

    def test_rejects_a_configuration_that_is_not_one(self):
        dm = from_permutation((1, 2), (1,))
        config = standard_configuration(dm.matrix, dm.delta)
        with pytest.raises(ValidationError, match="BadShape"):
            apply_basis_change(tuple(config), ((1, 0), (0, 1)))

    @pytest.mark.parametrize(
        "g",
        [
            ((1.0, 0.5), (0, "1")),
            ((1.0, 0), (0, 1)),
            ((1, 0), (0, "1")),
            ((True, 0), (0, 1)),
            ((1, 0), (False, 1)),
        ],
        ids=["float-and-string", "float", "string", "true", "false"],
    )
    def test_rejects_non_rational_entries(self, g):
        dm = from_permutation((1, 2), (1,))
        config = standard_configuration(dm.matrix, dm.delta)
        with pytest.raises(ValidationError, match=r"NotARational\(g\)"):
            apply_basis_change(config, g)

    @pytest.mark.parametrize("n", [True, -2, 2.5, "3"], ids=["bool", "negative", "float", "str"])
    def test_random_matrices_reject_bad_sizes(self, n):
        with pytest.raises(ValidationError, match="BadShape"):
            random_int_invertible(n, random.Random(4))

    def test_random_matrices_keep_their_draws(self):
        """The seeded draws feed benchmark goldens, so one is pinned."""
        assert random_int_invertible(0, random.Random(4)) == ()
        assert random_int_invertible(4, random.Random(4)) == (
            (61, -178, 29, 178),
            (1, -4, 2, 17),
            (81, -232, 32, 176),
            (35, -101, 15, 87),
        )

    def test_matches_the_change_of_every_occurrence(self):
        """Each generator is transformed once, however many levels repeat
        it: the result, entry types included, is the one of transforming
        every occurrence on its own."""
        rng = random.Random(24)
        orbits = 0
        for b, c in margin_pairs(1, 4):
            for dm in enumerate_orbits(b, c):
                config = standard_configuration(dm.matrix, dm.delta)
                g = random_int_invertible(dm.n, rng)
                assert repr(apply_basis_change(config, g)) == repr(basis_change_by_vector(config, g))
                orbits += 1
        assert orbits == 1694
        dm = from_permutation((3, 1, 2), (1, 2))
        g = ((Fraction(1, 2), 0, Fraction(-2, 3)), (1, Fraction(3, 5), 0), (0, 1, 7))
        config = basis_change_by_vector(standard_configuration(dm.matrix, dm.delta), g)
        assert any(type(x) is Fraction for level in config.b_levels for v in level for x in v)
        changed = apply_basis_change(config, g)
        assert repr(changed) == repr(basis_change_by_vector(config, g))
        assert identify_orbit(changed) == dm

    def test_accepts_fraction_entries(self):
        dm = from_permutation((2, 1), (1,))
        config = standard_configuration(dm.matrix, dm.delta)
        g = ((Fraction(1, 2), Fraction(1, 3)), (0, 3))
        changed = apply_basis_change(config, g)
        assert changed.a == ((Fraction(1, 2), Fraction(1, 3)),)
        assert identify_orbit(changed) == dm


def test_the_oracle_stays_integral():
    def entries(config):
        for group in (config.a, *config.b_levels, *config.c_levels):
            yield from (x for vec in group for x in vec)

    dm = from_permutation((3, 1, 2), (1, 2))
    config = standard_configuration(dm.matrix, dm.delta)
    g = random_int_invertible(3, random.Random(3))
    configs = [config, apply_basis_change(config, g)]
    for mv in applicable_moves(dm):
        configs += [degeneration_family(dm, mv, tau) for tau in (0, 1, 2)]
    assert all(type(x) is int for c in configs for x in entries(c))


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

    @pytest.mark.parametrize("tau", [0.5, "1/3", True])
    def test_rejects_non_rational_parameters(self, tau):
        lo = from_permutation((1, 2), (2,))
        (mv,) = [m for m in applicable_moves(lo) if m.kind == "V"]
        with pytest.raises(ValidationError, match=r"NotARational\(tau\)"):
            degeneration_family(lo, mv, tau)

    def test_public_samples_are_exact_and_unchanged(self):
        """``degeneration_family`` returns a ``Configuration`` of exact
        values, although the oracle checks integer multiples of them.

        Two covers of each kind are taken from full flags at n = 4 and
        from the margins ``(1,1,1,1)|(1,2,1)`` and back, which hold the
        kinds IVb and IVc.  The digest pins their serialized samples, as
        evaluated in exact ``Fraction`` arithmetic.
        """
        picked = {}
        margins = (((1,) * 4, (1,) * 4), ((1, 1, 1, 1), (1, 2, 1)), ((1, 2, 1), (1, 1, 1, 1)))
        for b, c in margins:
            poset = build_poset(b, c, check_reduction=False)
            for (a, _), mv in zip(poset.covers, poset.cover_moves):
                if len(picked.setdefault(mv.kind, [])) < 2:
                    picked[mv.kind].append((poset.elements[a], mv))
        assert sorted(picked) == ["I", "II", "IIIa", "IIIb", "IVa", "IVb", "IVc", "V"]

        def to_obj(config):
            """The configuration as JSON lists, every entry a string."""
            return {
                "n": config.n,
                "A": [[str(x) for x in vec] for vec in config.a],
                "B": [[[str(x) for x in vec] for vec in level] for level in config.b_levels],
                "C": [[[str(x) for x in vec] for vec in level] for level in config.c_levels],
            }

        def exact(vec, tau):
            """The polynomial vector's exact value at ``tau``."""
            return tuple(
                sum(row[k] * tau**p for p, row in enumerate(vec)) for k in range(len(vec[0]))
            )

        objs = []
        for kind in sorted(picked):
            for dm, mv in picked[kind]:
                family = witness._family_vectors(dm, mv)
                for tau in (1, 2, Fraction(1, 3), -3, 0):
                    config = degeneration_family(dm, mv, tau)
                    assert type(config) is Configuration
                    checked = Configuration(config.n, config.a, config.b_levels, config.c_levels)
                    assert checked == config
                    objs.append(to_obj(config))
                    if not tau:
                        continue
                    line = [exact(family.vectors[(i, j, 1)], tau) for (i, j) in family.a_set]
                    assert config.a == (tuple(map(sum, zip(*line))),)
                    for levels, slots in (
                        (config.b_levels, family.by_row),
                        (config.c_levels, family.by_column),
                    ):
                        assert levels[-1] == tuple(exact(family.vectors[s], tau) for s in slots)
                    entries = [x for vec in chain(config.a, *config.b_levels[-1:]) for x in vec]
                    assert all(type(x) in (int, Fraction) for x in entries)
                    if tau == Fraction(1, 3):
                        assert any(type(x) is Fraction and x.denominator > 1 for x in entries)
        digest = hashlib.sha256(json.dumps(objs).encode()).hexdigest()
        assert digest == "c656c55fbfd31b1b3d6475218a5bb2cbfe971e4840a98651538712d34b155399"

    @pytest.mark.parametrize(
        "unit, error",
        [
            (
                lambda n, idx: (tuple(float(k == idx) for k in range(n)),),
                r"NotARational\(config\)",
            ),
            (lambda n, idx: (tuple(int(k == idx) for k in range(n + 1)),), "BadShape"),
        ],
        ids=["float", "long"],
    )
    def test_family_rows_are_checked(self, monkeypatch, unit, error):
        """The samples skip the checks of ``Configuration``, so a family
        whose rows are not integer vectors of length ``n`` is refused
        when it is built."""
        lo = from_permutation((1, 2), (2,))
        (mv,) = [m for m in applicable_moves(lo) if m.kind == "V"]
        monkeypatch.setattr(witness, "_v_unit", unit)
        with pytest.raises(ValidationError, match=error):
            verify_move_degeneration(lo, mv)

    def test_every_small_cover_is_a_degeneration(self, poset2):
        for (a, t), mv in zip(poset2.covers, poset2.cover_moves):
            src, tgt = poset2.elements[a], poset2.elements[t]
            assert apply_move(src, mv) == tgt
            report = verify_move_degeneration(src, mv)
            assert report.passed, report.failures


def cover_moves(lo, hi):
    """``(source, move)`` for every cover of every margin pair of mass
    between ``lo`` and ``hi``."""
    for b, c in margin_pairs(lo, hi):
        poset = build_poset(b, c, check_reduction=False)
        for (a, _), mv in zip(poset.covers, poset.cover_moves):
            yield poset.elements[a], mv


def outcome(verify, dm, mv):
    """The report's failures, or the type and message of what it raised."""
    try:
        return verify(dm, mv).failures
    except FlagError as exc:
        return type(exc).__name__, str(exc)


class TestMoveDegenerationByTables:
    def test_matches_identification_on_every_cover_up_to_mass_four(self):
        covers = 0
        for dm, mv in cover_moves(1, 4):
            report = verify_move_degeneration(dm, mv)
            assert report == verify_move_degeneration_by_identification(dm, mv)
            assert report.passed, (str(mv), report.failures)
            covers += 1
        assert covers == 4317

    @pytest.mark.parametrize("sabotage", ["swap", "repeat"])
    def test_a_sabotaged_family_fails_alike(self, monkeypatch, sabotage):
        """Swapping the first and last slot vectors fails exactly the
        covers that the sampled check by identification fails.  Repeating
        the first in the last slot makes the vectors dependent for every
        ``tau``: the limit raises, where the oracle finds ``tau = 1``
        singular."""

        def sabotaged(dm, move):
            family = family_vectors(dm, move)
            first, last = family.by_row[0], family.by_row[-1]
            vectors = dict(family.vectors)
            vectors[last] = vectors[first]
            if sabotage == "swap":
                vectors[first] = family.vectors[last]
            return family._replace(vectors=vectors)

        family_vectors = witness._family_vectors
        monkeypatch.setattr(witness, "_family_vectors", sabotaged)
        outcomes = Counter()
        for dm, mv in cover_moves(2, 3):
            oracle = outcome(verify_move_degeneration_by_identification, dm, mv)
            got = outcome(verify_move_degeneration, dm, mv)
            assert bool(got) == bool(oracle), (str(mv), got, oracle)
            outcomes[len(got) if sabotage == "swap" else (got, oracle)] += 1
        if sabotage == "swap":
            assert outcomes == {0: 61, 1: 137}
        else:
            raised = ("FlagError", "family rows are dependent for all parameter values")
            assert outcomes == {(raised, ("FlagError", "family is singular at tau=1")): 198}

    def test_builds_the_family_once(self, monkeypatch):
        calls = dict.fromkeys(("apply_move", "_family_vectors", "identify_orbit"), 0)

        def counted(name):
            fn = getattr(witness, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(witness, name, counted(name))
        reports = [verify_move_degeneration(dm, mv) for dm, mv in cover_moves(3, 3)]
        assert all(report.passed for report in reports)
        assert calls == {
            "apply_move": len(reports),
            "_family_vectors": len(reports),
            "identify_orbit": 0,
        }

    def test_passes_when_the_source_rows_are_lists(self):
        """The limit's slot counts are compared with the source's rows as
        tuples, so a source whose rows are lists passes as its twin does."""
        covers = 0
        for n in (3, 4):
            poset = build_poset((1,) * n, (1,) * n, check_reduction=False)
            for (a, _), mv in zip(poset.covers, poset.cover_moves):
                dm = poset.elements[a]
                rows = [list(row) for row in dm.matrix.m]
                listed = DecoratedMatrix(dm.matrix._replace(m=rows), dm.delta)
                report = verify_move_degeneration(listed, mv)
                assert report.passed, (str(mv), report.failures)
                covers += 1
        assert covers == 72 + 763


def identified(identify, config):
    """The orbit ``identify`` finds for ``config``, or the message of the
    :class:`NotAnOrbitInvariant` it raises."""
    try:
        return identify(config)
    except NotAnOrbitInvariant as exc:
        return str(exc)


def identified_by_tables(config):
    rank, rbar = geometric_rank_tables(config)
    return decorated_from_tables(rank.values, rbar.delta_values)


class TestIdentificationParity:
    """``identify_orbit`` reads the orbit off the slot counts; inverting
    the two tables with ``decorated_from_tables`` is its oracle."""

    def test_on_every_orbit_and_cover_up_to_mass_four(self):
        rng = random.Random(27)
        configs = []
        for b, c in margin_pairs(1, 4):
            for dm in enumerate_orbits(b, c):
                config = standard_configuration(dm.matrix, dm.delta)
                configs += [config, apply_basis_change(config, random_int_invertible(dm.n, rng))]
        for dm, mv in cover_moves(1, 4):
            family = witness._family_vectors(dm, mv)
            configs += [witness._family_at(family, 1), witness._family_at(family, 0)]
        for config in configs:
            assert identified(identify_orbit, config) == identified(identified_by_tables, config)
        assert len(configs) == 2 * 1694 + 2 * 4317

    @pytest.mark.parametrize(
        "margins, count",
        [(margin_pairs(1, 4), 1694 + 4317), ([((1,) * 5, (1,) * 5)], 1426 + 8329)],
        ids=["mass-1-to-4", "full-flags-5"],
    )
    def test_elimination_agrees_with_the_axes(self, monkeypatch, margins, count):
        """Every standard configuration and every degeneration limit is
        read by its axes; forced to eliminate instead, the oracle finds
        the same tables and the same orbit."""
        configs = []
        for b, c in margins:
            poset = build_poset(b, c, check_reduction=False)
            configs += [standard_configuration(dm.matrix, dm.delta) for dm in poset.elements]
            for (a, _), mv in zip(poset.covers, poset.cover_moves):
                family = witness._family_vectors(poset.elements[a], mv)
                configs.append(witness._family_at(family, 0))
        assert len(configs) == count
        assert all(witness._unit_slots(config) is not None for config in configs)

        def read():
            return [
                (geometric_rank_tables(config), identified(identify_orbit, config))
                for config in configs
            ]

        by_axes = read()
        monkeypatch.setattr(witness, "_unit_slots", lambda config: None)
        assert read() == by_axes

    def test_on_configurations_in_no_orbit(self, monkeypatch):
        dm = from_permutation((2, 3, 1), (1, 3))
        base = standard_configuration(dm.matrix, dm.delta)
        pair = standard_configuration(TransportMatrix.from_rows([[1, 0], [0, 1]]), [(1, 1)])
        b_levels = base.b_levels
        configs = {
            "plane": pair._replace(a=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))),
            "zero line": base._replace(a=((0, 0, 0),)),
            "B does not span": base._replace(b_levels=b_levels[:-1] + b_levels[-2:-1]),
            "repeated level": base._replace(b_levels=b_levels[:1] + b_levels),
            "q=0": base._replace(b_levels=()),
            "r=0": base._replace(c_levels=()),
        }
        got = {name: identified(identify_orbit, config) for name, config in configs.items()}
        assert got == {name: identified(identified_by_tables, c) for name, c in configs.items()}
        assert got == {
            "plane": "tables do not round-trip",
            "zero line": "BadPosition(1)",
            "B does not span": "rank table: BadPart(3)",
            "repeated level": "rank table: BadPart(2)",
            "q=0": "table shapes",
            "r=0": "table shapes",
        }
        # Each flag generator lies on an axis; elimination reads them alike.
        assert all(witness._unit_slots(config) is not None for config in configs.values())
        monkeypatch.setattr(witness, "_unit_slots", lambda config: None)
        assert got == {name: identified(identify_orbit, c) for name, c in configs.items()}


@pytest.mark.parametrize(
    "move", [("I", ((2, 1),)), None, Move(["I"], ((2, 1),))], ids=["tuple", "none", "list-kind"]
)
@pytest.mark.parametrize(
    "entry",
    [apply_move, verify_move_degeneration, lambda dm, mv: degeneration_family(dm, mv, 1)],
    ids=["apply_move", "verify_move_degeneration", "degeneration_family"],
)
def test_a_move_that_is_not_a_move_is_rejected(entry, move):
    with pytest.raises(ValidationError, match="BadShape"):
        entry(from_permutation((1, 2), (2,)), move)


class TestDeterminantProof:
    """``verify_move_degeneration`` proves a family for every nonzero
    ``tau`` from ``det g(tau)`` and one standard configuration."""

    def test_the_determinant_matches_fractions_on_every_cover_up_to_mass_four(self):
        covers = 0
        for dm, mv in cover_moves(1, 4):
            family = witness._family_vectors(dm, mv)
            det = witness._family_det(family)
            # len(det) + 1 = deg + 2 points, when the top coefficient is not 0.
            for tau in (Fraction(k, 2) - 1 for k in range(len(det) + 1)):
                assert det_by_fractions(family, tau) == sum(c * tau**p for p, c in enumerate(det))
            covers += 1
        assert covers == 4317

    def test_the_determinant_matches_fractions_on_random_sparse_matrices(self):
        """Peeling and the dense branch, on matrices with unit columns,
        dense columns, repeated columns and empty columns."""
        rng = random.Random(11)
        singular = 0
        for _ in range(400):
            n = rng.randint(1, 6)
            columns = []
            for _ in range(n):
                roll = rng.random()
                if columns and roll < 0.08:
                    columns.append(list(rng.choice(columns)))
                    continue
                size = 0 if roll < 0.12 else 1 if roll < 0.6 else rng.randint(1, n)
                entries = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(size)]
                rows = sorted(rng.sample(range(n), size))
                columns.append([(s, p) for s, p in zip(rows, entries) if any(p)])
            det = witness._p_det(columns)
            for tau in (Fraction(k, 2) - 1 for k in range(3 * n + 2)):
                matrix = [[0] * n for _ in range(n)]
                for c, col in enumerate(columns):
                    for s, p in col:
                        matrix[s][c] = sum(x * tau**k for k, x in enumerate(p))
                assert exact_determinant(matrix) == sum(x * tau**k for k, x in enumerate(det))
            singular += not any(det)
        assert 100 < singular < 300

    def test_only_the_limit_is_sampled_on_every_cover_up_to_mass_four(self, monkeypatch):
        taus = []
        family_at = witness._family_at

        def counted(family, tau, *rest):
            taus.append(tau)
            return family_at(family, tau, *rest)

        monkeypatch.setattr(witness, "_family_at", counted)
        covers = 0
        for dm, mv in cover_moves(1, 4):
            assert verify_move_degeneration(dm, mv).passed
            covers += 1
        assert covers == 4317
        assert taus == [0] * covers

    def test_census_at_full_flags_four(self):
        """Kind V alone has determinants that are not monomials, and
        kind V alone puts the line on positions other than the target
        decoration."""
        poset = build_poset((1,) * 4, (1,) * 4, check_reduction=False)
        not_monomial, not_delta = Counter(), Counter()
        for (a, _), mv in zip(poset.covers, poset.cover_moves):
            family = witness._family_vectors(poset.elements[a], mv)
            not_monomial[mv.kind] += sum(map(bool, witness._family_det(family))) > 1
            not_delta[mv.kind] += set(family.a_set) != set(family.target.delta)
        assert len(poset.covers) == 763
        assert +not_monomial == {"V": 18}
        assert +not_delta == {"V": 37}

    def test_a_family_with_its_line_moved_fails_alike(self, monkeypatch):
        """A line on the first position of ``a_set`` alone takes the
        values at nonzero ``tau`` out of the target orbit on some covers,
        which the standard configuration's tables show; most of these
        also take the limit out of the source orbit.  The proof fails
        exactly the covers that the sampled check by identification
        fails."""

        def moved(dm, move):
            family = family_vectors(dm, move)
            return family._replace(a_set=(family.a_set[0],))

        family_vectors = witness._family_vectors
        monkeypatch.setattr(witness, "_family_vectors", moved)
        failed = Counter()
        for dm, mv in cover_moves(2, 3):
            got = verify_move_degeneration(dm, mv).failures
            assert bool(got) == bool(verify_move_degeneration_by_identification(dm, mv).failures)
            failed[tuple(f.split(" lies in ")[0] for f in got)] += 1
        assert failed == {(): 105, ("family",): 23, ("family", "tau=0: limit"): 70}

    @pytest.mark.parametrize(
        "slot, factor, root", [(0, (-5, 1), "5"), (-1, (1, 1), "-1")], ids=["tau-5", "1+tau"]
    )
    def test_a_singular_value_between_the_samples_is_found(self, monkeypatch, slot, factor, root):
        """A slot vector scaled by ``tau - 5`` or ``1 + tau`` is singular
        at the root, which every report names first.  Where the scaled
        vector also moves the line, the oracle fails too; elsewhere the
        samples and the limit stay in their orbits, the sampled check by
        identification passes, and only the determinant finds the root."""

        def sabotaged(dm, move):
            family = family_vectors(dm, move)
            s = family.by_row[slot]
            vec = family.vectors[s]
            low, high = (witness._v_scale(vec, c) for c in factor)
            scaled = witness._v_sum([low, witness._v_shift(high, 1)])
            return family._replace(vectors={**family.vectors, s: scaled})

        family_vectors = witness._family_vectors
        monkeypatch.setattr(witness, "_family_vectors", sabotaged)
        covers = Counter()
        for dm, mv in cover_moves(2, 3):
            got = verify_move_degeneration(dm, mv).failures
            assert got[0] == f"family is singular at tau={root}"
            if verify_move_degeneration_by_identification(dm, mv).passed:
                assert len(got) == 1
                covers["only the root"] += 1
            else:
                covers["oracle fails"] += 1
        assert covers == (
            {"only the root": 176, "oracle fails": 22} if root == "5" else {"only the root": 198}
        )


class TestFullFlagsFive:
    """Seeded samples of the geometric oracle on full flags at n = 5."""

    @pytest.fixture(scope="class")
    def poset5(self):
        return build_poset((1,) * 5, (1,) * 5, check_reduction=False)

    def test_sampled_covers_are_degenerations(self, poset5):
        rng = random.Random(55)
        picks = sorted(rng.sample(range(len(poset5.covers)), 150))
        for k in picks:
            a, t = poset5.covers[k]
            src, mv = poset5.elements[a], poset5.cover_moves[k]
            assert apply_move(src, mv) == poset5.elements[t]
            report = verify_move_degeneration(src, mv)
            assert report.passed, (str(mv), report.failures)

    def test_sampled_orbits_survive_basis_changes(self, poset5):
        rng = random.Random(555)
        for dm in rng.sample(poset5.elements, 60):
            config = standard_configuration(dm.matrix, dm.delta)
            g = random_int_invertible(dm.n, rng)
            assert identify_orbit(apply_basis_change(config, g)) == dm
