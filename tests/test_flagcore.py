"""Core types: matrices, decorations, the position order, serialization."""

import random

import pytest

from lineflags import (
    DecoratedMatrix,
    NotFullFlag,
    TransportMatrix,
    ValidationError,
    element_from_obj,
    element_to_obj,
    enumerate_orbits,
    from_permutation,
    normalize_decoration,
    rank_table,
    render,
    rk_leq,
    simple_moves,
    to_permutation,
    validate,
)
from lineflags.flagcore import _step_code, raise_if_invalid
from helpers import GOLDEN_N3_LABELS, margin_pairs, maximal_positions, sort_key, validate_by_rule


class TestTransportMatrix:
    def test_from_rows_derives_margins(self):
        tm = TransportMatrix.from_rows([[1, 0, 2], [0, 3, 0]])
        assert tm.b == (3, 3)
        assert tm.c == (1, 3, 2)
        assert (tm.q, tm.r, tm.n) == (2, 3, 6)

    def test_entry_is_one_based(self):
        tm = TransportMatrix.from_rows([[1, 2], [3, 4]])
        assert tm.entry(1, 2) == 2
        assert tm.entry(2, 1) == 3

    def test_positive_positions_row_major(self):
        tm = TransportMatrix.from_rows([[0, 2], [1, 0]])
        assert tm.positive_positions() == [(1, 2), (2, 1)]

    def test_from_rows_rejects_negative(self):
        with pytest.raises(ValidationError, match=r"NegativeEntry\(2,1\)"):
            TransportMatrix.from_rows([[2, 0], [-1, 2]])

    @pytest.mark.parametrize("rows", [[[1.7, 0], [0, 1]], [[1.0, 0], [0, 1]], [[True, 0], [0, 1]], [["1", 0], [0, 1]]])
    def test_from_rows_rejects_non_integers(self, rows):
        with pytest.raises(ValidationError) as info:
            TransportMatrix.from_rows(rows)
        assert info.value.code == "NotAnInteger(m)"

    @pytest.mark.parametrize("delta", [[(1.9, True)], [(1, 1.0)], [(True, 1)], [("1", 1)]])
    def test_make_rejects_non_integer_positions(self, delta):
        tm = TransportMatrix.from_rows([[1, 0], [0, 1]])
        with pytest.raises(ValidationError) as info:
            DecoratedMatrix.make(tm, delta)
        assert info.value.code == "NotAnInteger(delta)"

    @pytest.mark.parametrize(
        "delta",
        [[(1, 1, 1)], [(1,)], [5], [(1, 1), 5], 5, [{2: 0, 1: 0}], [range(2, 4)]],
        ids=["triple", "single", "int", "mixed", "not-a-list", "dict", "range"],
    )
    def test_make_rejects_positions_that_are_not_pairs(self, delta):
        tm = TransportMatrix.from_rows([[1, 0], [0, 1]])
        with pytest.raises(ValidationError) as info:
            DecoratedMatrix.make(tm, delta)
        assert info.value.code == "BadShape"


class TestValidate:
    def test_valid_matrix_returns_none(self):
        tm = TransportMatrix(((1, 0), (0, 1)), (1, 1), (1, 1))
        assert validate(tm) is None

    def test_margin_codes(self):
        assert validate(TransportMatrix((), (), ())) == "EmptyComposition"
        assert validate(TransportMatrix(((1,),), (0,), (1,))) == "BadPart(1)"
        assert validate(TransportMatrix(((1,),), (1,), (2,))) == "BadShape"

    def test_sum_codes(self):
        bad_row = TransportMatrix(((1, 0), (0, 1)), (2, 1), (1, 2))
        assert validate(bad_row) == "BadRowSum(1)"
        bad_col = TransportMatrix(((1, 1), (0, 1)), (2, 1), (2, 1))
        assert validate(bad_col) == "BadColSum(1)"

    def test_decoration_codes(self):
        tm = TransportMatrix.from_rows([[1, 0], [0, 1]])
        assert validate(tm, []) == "EmptyDecoration"
        assert validate(tm, [(0, 1)]) == "BadPosition(1)"
        assert validate(tm, [(1, 1), (2, 2)]) == "NotStaircase(2)"
        assert validate(tm, [(1, 2)]) == "ZeroEntryDecorated(1,2)"
        assert validate(tm, [(2, 2)]) is None
        anti = TransportMatrix.from_rows([[0, 1], [1, 0]])
        assert validate(anti, [(1, 2), (2, 1)]) is None

    @pytest.mark.parametrize(
        "delta, code",
        [
            (((1.0, 1),), "BadPosition(1)"),
            ((("1", 1),), "BadPosition(1)"),
            (((True, 1),), "BadPosition(1)"),
            (((1, 1), (2, 2.0)), "BadPosition(2)"),
        ],
    )
    def test_a_coordinate_that_is_not_an_int_is_a_bad_position(self, delta, code):
        tm = TransportMatrix.from_rows([[1, 0], [0, 1]])
        assert validate(tm, delta) == validate_by_rule(tm, delta) == code

    @pytest.mark.parametrize(
        "delta, code",
        [
            (((1, 1, 1),), "BadPosition(1)"),
            (((1,),), "BadPosition(1)"),
            ((5,), "BadPosition(1)"),
            (((1, 1), 5), "BadPosition(2)"),
            (((1, 1), (1, 2, 3)), "BadPosition(2)"),
            (((9, 9), (1,)), "BadPosition(1)"),
            (5, "BadShape"),
            (([1, 1], (2, 2)), "NotStaircase(2)"),
            (({2: 0, 1: 0},), "BadPosition(1)"),
            (((1, 1), range(1, 3)), "BadPosition(2)"),
            (({1, 2},), "BadPosition(1)"),
        ],
        ids=["triple", "single", "int", "int-second", "triple-second", "outside-first",
             "not-iterable", "list-and-tuple", "dict", "range-second", "set"],
    )
    def test_a_decoration_of_the_wrong_shape_gets_a_code(self, delta, code):
        tm = TransportMatrix(((1, 0), (0, 1)), (1, 1), (1, 1))
        assert validate(tm, delta) == validate_by_rule(tm, delta) == code
        with pytest.raises(ValidationError) as info:
            raise_if_invalid(tm, delta)
        assert info.value.code == code

    @pytest.mark.parametrize(
        "m, b, c, delta, code",
        [
            (((True, 0), (0, 1)), (1, 1), (1, 1), None, "NegativeEntry(1,1)"),
            (((1, 0), (0, 1.0)), (1, 1), (1, 1), None, "NegativeEntry(2,2)"),
            (((1, 1), (0, 1)), (1, 2), (1, 2), None, "BadRowSum(1)"),
            (((1, 0), (0, 1)), (1, 1), (1, 1), ((1, 1), (2, 2)), "NotStaircase(2)"),
            (((0, 1), (1, 0)), (1, 1), (1, 1), ((1, 1),), "ZeroEntryDecorated(1,1)"),
        ],
    )
    def test_raise_if_invalid_reports_the_rule_by_rule_code(self, m, b, c, delta, code):
        tm = TransportMatrix(m, b, c)
        assert validate(tm, delta) == code
        with pytest.raises(ValidationError) as info:
            raise_if_invalid(tm, delta)
        assert info.value.code == code

    def test_a_matrix_that_is_not_a_transport_matrix_is_a_bad_shape(self):
        assert validate(None) == "BadShape"
        assert validate(((1, 0), (0, 1)), ((1, 1),)) == "BadShape"

    @pytest.mark.parametrize(
        "entry",
        [
            raise_if_invalid,
            simple_moves,
            rank_table,
            lambda x: rk_leq(x, x),
        ],
        ids=["raise_if_invalid", "simple_moves", "rank_table", "rk_leq"],
    )
    def test_public_entries_reject_a_matrix_that_is_not_one(self, entry):
        with pytest.raises(ValidationError, match="BadShape"):
            entry(None)

    def test_raise_if_invalid_accepts_every_small_orbit(self):
        for dm in enumerate_orbits((2, 1, 1), (1, 2, 1)):
            raise_if_invalid(dm.matrix, dm.delta)
            raise_if_invalid(dm.matrix)


# Values that break a rule, or only look like a valid integer.
ODD_VALUES = (0, -1, True, 1.0, "1", None)


def _perturbed(rng, tm, delta):
    """One or two random edits of a valid orbit: odd values in the
    entries, margins or decoration, a wrong shape, or a decoration that
    is empty, out of the grid, not a staircase, on a zero entry or made
    of positions that are not pairs."""
    m, b, c = [list(row) for row in tm.m], list(tm.b), list(tm.c)
    d = [list(p) for p in delta]
    for _ in range(rng.randint(1, 2)):
        try:
            d = _edit(rng, rng.randrange(11), m, b, c, d)
        except (IndexError, TypeError, ValueError):
            pass  # the first edit left nothing for the second to act on
    positions = None if rng.random() < 0.1 else tuple(map(tuple, d))
    return TransportMatrix(tuple(map(tuple, m)), tuple(b), tuple(c)), positions


def _edit(rng, edit, m, b, c, d):
    """Apply one edit in place; return the (possibly new) decoration."""
    i, j = rng.randrange(len(m)), rng.randrange(len(m[0]))
    if edit == 0:
        m[i][j] = rng.choice(ODD_VALUES)
    elif edit == 1:
        m[i][j] += rng.choice((-1, 1))
    elif edit == 2:
        b[rng.randrange(len(b))] = rng.choice(ODD_VALUES)
    elif edit == 3:
        c[rng.randrange(len(c))] = rng.choice(ODD_VALUES)
    elif edit == 4:
        p = rng.choice(d)
        p[rng.randrange(len(p))] = rng.choice(ODD_VALUES)
    elif edit == 5:
        rng.choice((m, b, c, m[i])).pop()
    elif edit == 6:
        rng.choice((m, b, c)).append([0] * len(m[0]) if rng.random() < 0.5 else [1])
    elif edit == 7:
        d.append(rng.choice(([len(b) + 1, 1], [1, len(c) + 1], [0, 1], [1, 0])))
    elif edit == 8:
        d.append([i + 1, j + 1])
    elif edit == 9:
        d[rng.randrange(len(d))] = rng.choice(([1], [1, 1, 1], []))
    else:
        return []
    return d


def _outcome(check, tm, delta):
    """The code, or the type of the exception raised."""
    try:
        return check(tm, delta)
    except Exception as exc:
        return type(exc)


class TestValidateOracle:
    orbits = [dm for b, c in margin_pairs(1, 4) for dm in enumerate_orbits(b, c)]

    def test_every_small_orbit_is_valid(self):
        for dm in self.orbits:
            assert validate(dm.matrix) is None
            assert validate(dm.matrix, dm.delta) is None

    def test_codes_match_the_rule_by_rule_oracle(self):
        rng = random.Random(7)
        codes = set()
        for _ in range(24000):
            dm = rng.choice(self.orbits)
            tm, delta = _perturbed(rng, dm.matrix, dm.delta)
            got = _outcome(validate, tm, delta)
            assert got == _outcome(validate_by_rule, tm, delta), (tm, delta)
            codes.add(got.split("(")[0] if isinstance(got, str) else got)
        # Every perturbation gets a code, a position that is not a pair too.
        assert codes == {
            None, "EmptyComposition", "BadPart", "BadShape",
            "NegativeEntry", "BadRowSum", "BadColSum", "EmptyDecoration",
            "BadPosition", "NotStaircase", "ZeroEntryDecorated",
        }


def _row_edits(rng, row):
    """New tuples for ``row``: a negative, float or bool entry, a wrong
    length, a unit moved within the row or added to it, and an equal copy."""
    j, k = rng.sample(range(len(row)), 2) if len(row) > 1 else (0, 0)
    edits = [
        row[:j] + (-1,) + row[j + 1 :],
        row[:j] + (float(row[j]),) + row[j + 1 :],
        row[:j] + (bool(row[j]),) + row[j + 1 :],
        row + (0,),
        row[:-1],
        row[:j] + (row[j] + 1,) + row[j + 1 :],
        tuple(list(row)),
    ]
    if row[j] > 0 and j != k:
        moved = list(row)
        moved[j] -= 1
        moved[k] += 1
        edits.append(tuple(moved))
    return edits


def _step_results(rng, m):
    """Rows a step from the rows ``m`` could build: ``m`` itself, one or
    two rows replaced by new tuples (a flip among them), a row missing
    and a row too many; unchanged rows stay the objects of ``m``."""
    q, r = len(m), len(m[0])
    out = [m, m[:-1], m + (m[-1],)]
    i = rng.randrange(q)
    out += [m[:i] + (row,) + m[i + 1 :] for row in _row_edits(rng, m[i])]
    if q > 1:
        i, i2 = sorted(rng.sample(range(q), 2))
        for _ in range(4):
            rows = list(m)
            rows[i] = rng.choice(_row_edits(rng, m[i]))
            rows[i2] = rng.choice(_row_edits(rng, m[i2]))
            out.append(tuple(rows))
        j, k = rng.randrange(r), rng.randrange(r)
        if j != k and m[i][j] > 0 and m[i2][k] > 0:
            rows = [list(m[i]), list(m[i2])]
            rows[0][j], rows[0][k] = rows[0][j] - 1, rows[0][k] + 1
            rows[1][k], rows[1][j] = rows[1][k] - 1, rows[1][j] + 1
            out.append(m[:i] + (tuple(rows[0]),) + m[i + 1 : i2] + (tuple(rows[1]),) + m[i2 + 1 :])
    return out


def _step_decorations(rng, m, delta):
    """``delta`` and decorations that are empty, outside the grid, not a
    staircase, on a zero entry or not made of ints."""
    q, r = len(m), len(m[0])
    i, j = rng.randrange(q) + 1, rng.randrange(r) + 1
    out = [delta, (), ((q + 1, 1),), ((1, r + 1),), ((0, 1),), ((1.0, 1),), ((True, 1),)]
    out.append(tuple(sorted(set(delta) | {(i, j)})))
    out.append(delta + (delta[0],))
    out += [((a, b),) for a in range(1, q + 1) for b in range(1, r + 1) if m[a - 1][b - 1] == 0][:1]
    return out


class TestStepCheck:
    """``_step_code`` reads only the rows a step changed, and gives the
    code that ``validate`` gives the whole result."""

    orbits = TestValidateOracle.orbits + random.Random(19).sample(
        enumerate_orbits((1,) * 5, (1,) * 5), 500
    )

    def test_codes_match_validate_and_the_rule_by_rule_oracle(self):
        rng = random.Random(19)
        codes = set()
        for dm in self.orbits:
            (m, b, c), delta = dm
            for rows in _step_results(rng, m):
                for d in _step_decorations(rng, m, delta):
                    tm = TransportMatrix(rows, b, c)
                    got = _step_code(m, rows, b, d, delta)
                    assert got == validate(tm, d) == validate_by_rule(tm, d), (dm, rows, d)
                    codes.add(got and got.split("(")[0])
        assert codes == {
            None, "BadShape", "NegativeEntry", "BadRowSum", "BadColSum",
            "EmptyDecoration", "BadPosition", "NotStaircase", "ZeroEntryDecorated",
        }

    def test_a_kept_decoration_gives_the_code_of_validate(self):
        """Given the source's own decoration object, ``_step_code`` reads
        only the entries at its cells; the code is still the one
        ``validate`` gives, for a decorated cell that a changed row leaves
        at 0 too."""
        rng = random.Random(23)
        codes = set()
        for dm in self.orbits:
            (m, b, c), delta = dm
            for rows in _step_results(rng, m):
                tm = TransportMatrix(rows, b, c)
                got = _step_code(m, rows, b, delta, delta)
                assert got == validate(tm, delta) == validate_by_rule(tm, delta), (dm, rows)
                codes.add(got and got.split("(")[0])
        assert codes == {
            None, "BadShape", "NegativeEntry", "BadRowSum", "BadColSum", "ZeroEntryDecorated",
        }


class TestPositionOrder:
    def test_normalize_decoration_keeps_maximal_sorted_by_row(self):
        pts = [(2, 2), (1, 1), (1, 3), (3, 1)]
        assert normalize_decoration(pts) == ((1, 3), (2, 2), (3, 1))

    def test_normalize_decoration_idempotent_on_staircases(self):
        stair = ((1, 3), (2, 2), (3, 1))
        assert normalize_decoration(stair) == stair

    def test_normalize_decoration_matches_the_pairwise_maximal_points(self):
        rng = random.Random(125)
        for size in range(1, 16):
            for _ in range(100):
                pts = [(rng.randrange(-1, 7), rng.randrange(-1, 7)) for _ in range(size)]
                assert normalize_decoration(pts) == maximal_positions(pts), pts

    @pytest.mark.parametrize(
        "call",
        [
            lambda: normalize_decoration([("a", "b")]),
            lambda: normalize_decoration([(1.5, 2), (1, 1)]),
            lambda: normalize_decoration([(1, 1), (2, True)]),
        ],
    )
    def test_non_integer_positions_are_rejected(self, call):
        with pytest.raises(ValidationError) as info:
            call()
        assert info.value.code == "NotAnInteger(positions)"

    def test_normalize_decoration_rejects_empty(self):
        with pytest.raises(ValidationError, match="EmptyInput"):
            normalize_decoration([])

    @pytest.mark.parametrize("positions", [[5, 6], [5], [(1, 2), 5], [(1,), (2, 1)], [[1, 2]]])
    def test_normalize_decoration_rejects_positions_that_are_not_pairs(self, positions):
        with pytest.raises(ValidationError) as info:
            normalize_decoration(positions)
        assert info.value.code == "BadShape"


class TestPermutationDictionary:
    def test_cells_sit_at_row_and_image(self):
        for w, rows in GOLDEN_N3_LABELS.values():
            dm = from_permutation(w, rows)
            for k in range(1, 4):
                assert dm.matrix.entry(k, w[k - 1]) == 1
            assert dm.delta == tuple((k, w[k - 1]) for k in sorted(rows))

    def test_round_trip(self):
        for w, rows in GOLDEN_N3_LABELS.values():
            assert to_permutation(from_permutation(w, rows)) == (w, tuple(sorted(rows)))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError, match="NotAPermutation"):
            from_permutation((1, 1), (1,))
        with pytest.raises(ValidationError, match="EmptyDecoration"):
            from_permutation((1, 2), ())
        with pytest.raises(ValidationError, match="NotDescending"):
            from_permutation((1, 2, 3), (1, 2))
        with pytest.raises(ValidationError, match=r"BadPosition\(2\)"):
            from_permutation((2, 1), (1, 3))

    @pytest.mark.parametrize(
        "w, cols, field",
        [((1.0, 2), (1,), "w"), ((True, 2), (1,), "w"), ((1, 2), (1.5,), "delta_cols"), ((1, 2), ("1",), "delta_cols")],
    )
    def test_rejects_non_integers(self, w, cols, field):
        with pytest.raises(ValidationError) as info:
            from_permutation(w, cols)
        assert info.value.code == f"NotAnInteger({field})"

    @pytest.mark.parametrize("w, cols", [(5, (1,)), ((1, 2), 5), ((1, 2), [[1]])])
    def test_rejects_arguments_of_the_wrong_shape(self, w, cols):
        with pytest.raises(ValidationError) as info:
            from_permutation(w, cols)
        assert info.value.code == "BadShape"

    def test_to_permutation_requires_unit_margins(self):
        tm = TransportMatrix.from_rows([[2]])
        with pytest.raises(NotFullFlag):
            to_permutation(DecoratedMatrix.make(tm, [(1, 1)]))


class TestSerialization:
    def test_decorated_round_trip(self):
        dm = from_permutation((2, 1), (1,))
        obj = element_to_obj(dm)
        assert obj == {
            "b": [1, 1],
            "c": [1, 1],
            "m": [[0, 1], [1, 0]],
            "delta": [[1, 2]],
        }
        assert element_from_obj(obj) == dm

    def test_plain_round_trip_with_default_margins(self):
        got = element_from_obj({"m": [[1, 0], [0, 1]]})
        assert got == TransportMatrix.from_rows([[1, 0], [0, 1]])

    def test_rejects_malformed(self):
        with pytest.raises(ValidationError):
            element_from_obj({"m": "bogus"})
        with pytest.raises(ValidationError):
            element_from_obj([1, 2, 3])
        with pytest.raises(ValidationError, match="BadShape"):
            element_from_obj({"m": 5})
        with pytest.raises(ValidationError):
            element_from_obj({"m": [[1, 0], [0, 1]], "delta": [[1, 2]]})

    @pytest.mark.parametrize(
        "obj, field",
        [
            ({"m": [[1.7, 0], [0, 1]], "delta": [[1, 1]]}, "m"),
            ({"m": [[1.0, 0], [0, 1]], "delta": [[1, 1]]}, "m"),
            ({"m": [[True, 0], [0, 1]], "delta": [[1, 1]]}, "m"),
            ({"m": [["1", 0], [0, 1]], "delta": [[1, 1]]}, "m"),
            ({"m": [[1, 0], [0, 1]], "b": [1, True], "delta": [[1, 1]]}, "b"),
            ({"m": [[1, 0], [0, 1]], "c": [1.0, 1], "delta": [[1, 1]]}, "c"),
            ({"m": [[1, 0], [0, 1]], "delta": [[True, 1]]}, "delta"),
            ({"m": [[1, 0], [0, 1]], "delta": [[1, 1.0]]}, "delta"),
        ],
    )
    def test_rejects_non_integers(self, obj, field):
        with pytest.raises(ValidationError) as info:
            element_from_obj(obj)
        assert info.value.code == f"NotAnInteger({field})"


class TestRender:
    def test_single_line_with_row_separator(self):
        assert render(from_permutation((2, 1), (1,))) == ". (1) / 1 ."
        assert render(TransportMatrix.from_rows([[0, 1], [1, 0]])) == ". 1 / 1 ."

    def test_multiplicities(self):
        tm = TransportMatrix.from_rows([[2]])
        assert render(tm) == "2"
        assert render(DecoratedMatrix.make(tm, [(1, 1)])) == "(2)"
        assert render(TransportMatrix.from_rows([[1, 1], [0, 10]])) == "1 1 / . 10"


def test_sort_key_orders_canonical_enumeration():
    orbits = enumerate_orbits((1, 1, 1), (1, 1, 1))
    keys = [sort_key(x) for x in orbits]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(orbits)
