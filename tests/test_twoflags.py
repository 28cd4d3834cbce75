"""Plain transport matrices: rank tables, the rank order, simple moves."""

import pytest

import lineflags.twoflags
from lineflags import (
    Rectangle,
    TransportMatrix,
    ValidationError,
    enumerate_transport_matrices,
    rank_table,
    rk_leq,
    simple_moves,
    verify_two_flag_theorem,
)
from helpers import (
    bruhat_covers,
    brute_force_matrices,
    brute_force_simple_moves,
    margin_pairs,
    prefix_rank_table,
    transitive_reduction,
)


def perm_matrix(w):
    n = len(w)
    return TransportMatrix.from_rows(
        [[1 if w[i] == j + 1 else 0 for j in range(n)] for i in range(n)]
    )


def flip(tm, rect):
    """The corner flip of ``rect``: one unit off its NW and SE corners,
    onto its NE and SW corners."""
    rows = [list(row) for row in tm.m]
    for i, off, on in ((rect.i0, rect.j0, rect.j1), (rect.i1, rect.j1, rect.j0)):
        rows[i - 1][off - 1] -= 1
        rows[i - 1][on - 1] += 1
    return TransportMatrix.from_rows(rows)


class TestRankTable:
    def test_golden_small(self):
        tm = TransportMatrix.from_rows([[0, 1], [1, 0]])
        assert rank_table(tm).values == ((0, 0, 0), (0, 0, 1), (0, 1, 2))

    def test_matches_prefix_sums_everywhere(self):
        for b, c in margin_pairs(2, 3):
            for tm in enumerate_transport_matrices(b, c):
                expected = prefix_rank_table(tm.m, tm.q, tm.r)
                assert [list(row) for row in rank_table(tm).values] == expected

    def test_corner_is_total_mass(self):
        tm = TransportMatrix.from_rows([[1, 2], [0, 1]])
        assert rank_table(tm).values[-1][-1] == tm.n


class TestEnumeration:
    def test_matches_brute_force(self):
        for b, c in margin_pairs(2, 3):
            got = {tm.m for tm in enumerate_transport_matrices(b, c)}
            assert got == set(brute_force_matrices(b, c))

    def test_rejects_non_integer_margins(self):
        for b in ((1.0, 1), (True, 1), ("1", 1)):
            with pytest.raises(ValidationError, match=r"BadPart\(1\)"):
                enumerate_transport_matrices(b, (1, 1))

    def test_full_flag_count_is_factorial(self):
        assert len(enumerate_transport_matrices((1, 1, 1), (1, 1, 1))) == 6
        assert len(enumerate_transport_matrices((1,) * 4, (1,) * 4)) == 24


class TestRankOrder:
    def test_smaller_means_larger_table(self):
        mats = enumerate_transport_matrices((1, 1, 1), (1, 1, 1))
        for x in mats:
            rx = rank_table(x).values
            for y in mats:
                ry = rank_table(y).values
                expected = all(
                    rx[i][j] >= ry[i][j]
                    for i in range(4)
                    for j in range(4)
                )
                assert rk_leq(x, y) == expected

    def test_identity_is_minimum_reversal_is_maximum(self):
        mats = enumerate_transport_matrices((1, 1, 1), (1, 1, 1))
        lo = perm_matrix((1, 2, 3))
        hi = perm_matrix((3, 2, 1))
        assert all(rk_leq(lo, x) and rk_leq(x, hi) for x in mats)

    def test_invalid_arguments_raise(self):
        """``rk_leq`` checks ``x`` first, then ``y``, then that the
        shapes agree."""
        bad = TransportMatrix(((2, -1), (-1, 2)), (1, 1), (1, 1))
        top = perm_matrix((2, 1))
        other = TransportMatrix(((1, 1), (0, 1)), (2, 1), (1, 2))
        bad_other = TransportMatrix(((1, 1), (1, 1)), (2, 1), (1, 2))
        for x, y, code in (
            (bad, top, "NegativeEntry(1,2)"),
            (top, bad, "NegativeEntry(1,2)"),
            (bad, bad_other, "NegativeEntry(1,2)"),
            (bad, other, "NegativeEntry(1,2)"),
            (top, bad_other, "BadRowSum(2)"),
        ):
            with pytest.raises(ValidationError) as info:
                rk_leq(x, y)
            assert info.value.code == code


class TestSimpleMoves:
    def test_moves_strictly_increase(self):
        for b, c in margin_pairs(2, 3):
            for tm in enumerate_transport_matrices(b, c):
                for rect in simple_moves(tm):
                    out = flip(tm, rect)
                    assert rk_leq(tm, out) and out != tm

    def test_moves_are_the_covers_of_the_brute_force_reduction(self):
        """Inversion counts are no grading here: partial margins have
        covers across several levels."""
        covers = 0
        for b, c in margin_pairs(2, 4):
            mats = enumerate_transport_matrices(b, c)
            index = {tm: k for k, tm in enumerate(mats)}
            want = set(transitive_reduction(len(mats), lambda a, t: rk_leq(mats[a], mats[t])))
            got = {(index[tm], index[flip(tm, rect)]) for tm in mats for rect in simple_moves(tm)}
            assert got == want, (b, c)
            covers += len(got)
        assert covers == 355

    def test_match_the_brute_force_rectangle_scan(self):
        for b, c in margin_pairs(1, 5):
            for tm in enumerate_transport_matrices(b, c):
                got = [(x.i0, x.j0, x.i1, x.j1) for x in simple_moves(tm)]
                assert got == brute_force_simple_moves(tm.m), tm

    def test_move_shifts_exactly_four_corners(self):
        tm = perm_matrix((1, 2))
        (rect,) = simple_moves(tm)
        out = flip(tm, rect)
        assert out.m == ((0, 1), (1, 0))
        assert (rect.i0, rect.j0, rect.i1, rect.j1) == (1, 1, 2, 2)

    @pytest.mark.parametrize(
        "m, c, code",
        [
            (((2, -1), (-1, 2)), (1, 1), "NegativeEntry(1,2)"),
            (((1, 0), (0, 1)), (2, 2), "BadShape"),
        ],
        ids=["negative", "column-sums"],
    )
    def test_simple_moves_rejects_an_invalid_matrix(self, m, c, code):
        """Both matrices hold a rectangle that the scan alone accepts."""
        with pytest.raises(ValidationError) as info:
            simple_moves(TransportMatrix(m, (1, 1), c))
        assert info.value.code == code

class TestTwoFlagTheorem:
    def test_report_is_hashable_for_list_margins(self):
        report = verify_two_flag_theorem([1, 1], [1, 1])
        assert (report.b, report.c) == ((1, 1), (1, 1))
        assert hash(report) == hash(verify_two_flag_theorem((1, 1), (1, 1)))

    def test_report_on_unit_margins(self):
        report = verify_two_flag_theorem((1, 1, 1), (1, 1, 1))
        assert report.passed
        assert report.element_count == 6
        assert report.cover_count == 8
        assert report.counterexamples == ()

    def test_report_with_multiplicities(self):
        for b, c in (((2, 1), (1, 2)), ((1, 2, 1), (2, 2))):
            report = verify_two_flag_theorem(b, c)
            assert report.passed, report.counterexamples

    def test_unit_margin_covers_match_transposition_oracle(self):
        for n in (2, 3):
            mats = enumerate_transport_matrices((1,) * n, (1,) * n)
            covers = transitive_reduction(
                len(mats), lambda a, t: rk_leq(mats[a], mats[t])
            )
            got = {(mats[a].m, mats[t].m) for a, t in covers}
            expected = {
                (perm_matrix(w).m, perm_matrix(v).m) for w, v in bruhat_covers(n)
            }
            assert got == expected


class TestSabotagedSimpleMoves:
    def test_withheld_move_breaks_the_closure(self, monkeypatch):
        real = lineflags.twoflags._simple_moves
        identity = perm_matrix((1, 2))
        monkeypatch.setattr(
            lineflags.twoflags,
            "_simple_moves",
            lambda tm: [] if tm == identity else real(tm),
        )
        report = verify_two_flag_theorem((1, 1), (1, 1))
        assert (report.element_count, report.cover_count) == (2, 1)
        assert not report.order_equivalent
        assert report.moves_are_covers
        assert report.counterexamples == ("element 1: moves-only 0b0, rank-only 0b1",)

    def test_non_cover_edge_names_the_lowest_element_between(self, monkeypatch):
        real = lineflags.twoflags._simple_moves
        identity, reversal = perm_matrix((1, 2, 3)), perm_matrix((3, 2, 1))
        monkeypatch.setattr(
            lineflags.twoflags,
            "_simple_moves",
            lambda tm: real(tm) + ([Rectangle(1, 1, 3, 3)] if tm == identity else []),
        )
        report = verify_two_flag_theorem((1, 1, 1), (1, 1, 1))
        mats = enumerate_transport_matrices((1, 1, 1), (1, 1, 1))
        a, t = mats.index(identity), mats.index(reversal)
        via = min(
            z
            for z in range(len(mats))
            if z not in (a, t) and rk_leq(mats[a], mats[z]) and rk_leq(mats[z], mats[t])
        )
        assert (report.element_count, report.cover_count) == (6, 8)
        assert report.order_equivalent
        assert not report.moves_are_covers
        assert report.counterexamples == (f"move {a} -> {t} is not a cover (via {via})",)

    def test_down_move_fails_the_closure_check_only(self, monkeypatch):
        identity, reversal = perm_matrix((1, 2)), perm_matrix((2, 1))
        monkeypatch.setattr(lineflags.twoflags, "_simple_moves", lambda tm: [Rectangle(1, 1, 2, 2)])
        monkeypatch.setattr(
            lineflags.twoflags,
            "_corner_flip",
            lambda tm, rect: reversal if tm == identity else identity,
        )
        report = verify_two_flag_theorem((1, 1), (1, 1))
        assert (report.element_count, report.cover_count) == (2, 1)
        assert not report.order_equivalent
        assert report.moves_are_covers
        assert report.counterexamples == ("element 0: moves-only 0b10, rank-only 0b0",)
