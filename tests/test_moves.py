"""The five move families, their preconditions, and the cover structure."""

import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from itertools import product
from operator import add, sub

import pytest

import lineflags
import lineflags.moves
import lineflags.witness
from lineflags import (
    KIND_ORDER,
    DecoratedMatrix,
    Move,
    OrderCheckFailed,
    PreconditionFailed,
    ShapeMismatch,
    TransportMatrix,
    ValidationError,
    applicable_moves,
    apply_move,
    build_poset,
    delta_table,
    enumerate_orbits,
    enumerate_transport_matrices,
    find_chain,
    from_permutation,
    invariant,
    iter_moves,
    normalize_decoration,
    rank_table,
    rbar_table,
    rk_leq_dec,
    validate,
    verify_equivalence,
    verify_move_degeneration,
)
from lineflags.order import check
from helpers import (
    GOLDEN_N3_COVERS,
    GOLDEN_N3_LABELS,
    REFERENCE_CHECKERS,
    brute_force_staircases,
    candidates_by_scan,
    compositions,
    dominated,
    greedy_chain_by_public_api,
    margin_pairs,
    raw_iva_target,
    se_corners_by_definition,
    transitive_reduction,
)


def raw_flip_target(dm, lo, hi):
    """The decorated matrix a rectangle flip would produce, bypassing
    the move preconditions (decoration kept)."""
    (i0, j0), (i1, j1) = lo, hi
    rows = [list(r) for r in dm.matrix.m]
    rows[i0 - 1][j0 - 1] -= 1
    rows[i1 - 1][j1 - 1] -= 1
    rows[i0 - 1][j1 - 1] += 1
    rows[i1 - 1][j0 - 1] += 1
    tm = TransportMatrix(tuple(tuple(r) for r in rows), dm.matrix.b, dm.matrix.c)
    return DecoratedMatrix.make(tm, dm.delta)


def raw_cascade_target(dm, pivot, chain):
    """The decorated matrix a pivot-and-chain cascade would produce,
    bypassing the move preconditions."""
    rows = [list(r) for r in dm.matrix.m]

    def bump(p, d):
        rows[p[0] - 1][p[1] - 1] += d

    bump(pivot, -1)
    for p in chain:
        bump(p, -1)
    bump((pivot[0], chain[0][1]), +1)
    bump((chain[-1][0], pivot[1]), +1)
    for a, b in zip(chain, chain[1:]):
        bump((a[0], b[1]), +1)
    delta = normalize_decoration(
        (set(dm.delta) - set(chain))
        | {(pivot[0], chain[0][1]), (chain[-1][0], pivot[1])}
    )
    tm = TransportMatrix(tuple(tuple(r) for r in rows), dm.matrix.b, dm.matrix.c)
    return DecoratedMatrix.make(tm, delta)


def assert_skips_a_level(dm, target):
    """The relation dm < target holds but is not a cover."""
    assert rk_leq_dec(dm, target) and dm != target
    orbits = enumerate_orbits(dm.matrix.b, dm.matrix.c)
    assert any(
        z != dm
        and z != target
        and rk_leq_dec(dm, z)
        and rk_leq_dec(z, target)
        for z in orbits
    )


def anchor_tuples(dm):
    """Every anchor tuple of every kind over the whole grid, in canonical
    order."""
    q, r, delta = dm.q, dm.r, dm.delta
    cells = [(i, j) for i in range(1, q + 1) for j in range(1, r + 1)]
    pairs = [(p, s) for p in cells for s in cells if s[0] > p[0] and s[1] > p[1]]
    tuples = [("I", (p,)) for p in cells]
    tuples += [("II", pair) for pair in pairs]
    tuples += [(kind, pair) for kind in ("IIIa", "IIIb") for pair in pairs if pair[0] in delta]
    tuples += [
        ("IVa", (p, s, d))
        for p, s in pairs
        if p in delta
        for d in delta
        if p[0] < d[0] < s[0] and d[1] < p[1]
    ]
    tuples += [
        ("IVb", (p, s, (i2, p[1])))
        for p, s in pairs
        for i2 in range(p[0] + 1, s[0])
        if (i2, p[1]) in delta
    ]
    tuples += [
        ("IVc", (p, s, (p[0], j2)))
        for p, s in pairs
        for j2 in range(p[1] + 1, s[1])
        if (p[0], j2) in delta
    ]
    tuples += [
        ("V", (p,) + delta[start:stop])
        for p in cells
        for start in range(len(delta))
        for stop in range(start + 1, len(delta) + 1)
    ]
    return tuples


def brute_force_moves(dm):
    """The tuples of :func:`anchor_tuples` that the public ``apply_move``
    accepts."""
    out = []
    for kind, anchors in anchor_tuples(dm):
        try:
            apply_move(dm, Move(kind, anchors))
        except PreconditionFailed:
            continue
        out.append(Move(kind, anchors))
    return out


class TestMoveEnumeration:
    def test_structural_candidates_miss_no_move(self):
        for b, c in margin_pairs(1, 4) + [((2, 2, 1), (1, 2, 2))]:
            for dm in enumerate_orbits(b, c):
                expected = brute_force_moves(dm)
                assert list(iter_moves(dm)) == expected
                assert applicable_moves(dm) == expected

    def test_structural_candidates_on_random_margins_of_mass_five(self):
        rng = random.Random(5)
        wide = [parts for parts in compositions(5) if len(parts) >= 3]
        for _ in range(6):
            b, c = rng.choice(wide), rng.choice(wide)
            orbits = enumerate_orbits(b, c)
            for dm in rng.sample(orbits, min(len(orbits), 40)):
                assert applicable_moves(dm) == brute_force_moves(dm)

    def test_every_kind_one_candidate_is_accepted(self):
        tried = 0
        for b, c in margin_pairs(1, 4):
            for dm in enumerate_orbits(b, c):
                orbit = lineflags.moves._Orbit.of(dm)
                for kind, anchors in lineflags.moves._candidates(orbit):
                    if kind == "I":
                        assert not isinstance(lineflags.moves._try_I(orbit, anchors), str)
                        tried += 1
        assert tried == 1806

    def test_moves_are_those_of_the_checked_results(self, checked_to_mass_five):
        for b, c in margin_pairs(1, 4):
            for dm in enumerate_orbits(b, c):
                checked = checked_to_mass_five[dm]
                assert applicable_moves(dm) == [mv for mv, _ in checked]
                assert [apply_move(dm, mv) for mv, _ in checked] == [res for _, res in checked]

    def test_flip_products_match_the_change_maps(self, checked_to_mass_five):
        """IVa and V results are built as products of corner flips; each
        must shift exactly the cells of the move's direct change map."""
        counts = {"IVa": 0, "V": 0}
        for dm, checked in checked_to_mass_five.items():
            for mv, res in checked:
                if mv.kind == "IVa":
                    assert res == raw_iva_target(dm, mv.anchors)
                elif mv.kind == "V":
                    assert res == raw_cascade_target(dm, mv.anchors[0], mv.anchors[1:])
                else:
                    continue
                counts[mv.kind] += 1
        assert counts == {"IVa": 1137, "V": 16948}

    def test_moves_are_listed_without_building_results(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a move result was built")

        monkeypatch.setattr(lineflags.moves, "_result", refuse)
        dm = from_permutation((1, 2, 3), (1,))
        assert len(applicable_moves(dm)) == len(list(iter_moves(dm))) > 0

    def test_canonical_order(self):
        for dm in enumerate_orbits((1, 1, 1), (1, 1, 1)):
            moves = applicable_moves(dm)
            assert moves == sorted(moves, key=Move.sort_index)
            assert set(moves) == set(iter_moves(dm))

    def test_smallest_element_moves(self):
        dm = from_permutation((1, 2), (1,))
        assert [str(mv) for mv in applicable_moves(dm)] == [
            "I (2,2)",
            "IIIa (1,1) (2,2)",
            "IIIb (1,1) (2,2)",
        ]

    def test_maximum_has_no_moves(self):
        assert applicable_moves(from_permutation((2, 1), (1, 2))) == []

    def test_every_move_strictly_increases(self):
        for dm in enumerate_orbits((1, 1, 1), (1, 1, 1)):
            for mv in applicable_moves(dm):
                out = apply_move(dm, mv)
                assert rk_leq_dec(dm, out) and out != dm
                assert mv.kind in KIND_ORDER


class TestOrbitView:
    def test_view_matches_the_definitions(self):
        """The free table, the cells with mass and the far corners of the
        view of every orbit of mass <= 4; both parts of a view hold their
        named slots and nothing else, and a new matrix part keeps nothing
        in its five tables before it is asked."""
        views = 0
        for b, c in margin_pairs(1, 4):
            for dm in enumerate_orbits(b, c):
                m, delta = dm.matrix.m, dm.delta
                orbit = lineflags.moves._Orbit.of(dm)
                mat = orbit.mat
                assert type(mat) is lineflags.moves._Matrix and mat.tm is dm.matrix
                for part, names in (
                    (orbit, {"mat", "delta", "free", "tm", "m", "q", "r"}),
                    (mat, {"tm", "m", "q", "r", "support", "far", "clause", "flip", "interior",
                           "block"}),
                ):
                    assert set(type(part).__slots__) == names and not hasattr(part, "__dict__")
                    assert all(hasattr(part, name) for name in names)
                assert mat.far == mat.clause == mat.flip == mat.interior == mat.block == {}
                for i in range(1, dm.q + 1):
                    for j in range(1, dm.r + 1):
                        assert (not orbit.free[i - 1][j - 1]) == dominated((i, j), delta)
                assert orbit.free == delta_table(dm)
                assert mat.support == dm.matrix.positive_positions()
                for p in mat.support:
                    want = lineflags.twoflags._se_corners(m, *p)
                    assert mat.far[p] == want == se_corners_by_definition(m, *p)
                    assert mat.far[p] is mat.far[p]
                assert mat.far.keys() == set(mat.support)
                views += 1
        assert views == 1694

    def test_kind_II_corner_test_matches_the_scan(self):
        """``_ii_factors_through_corner`` reads two cells of the free
        table.  On every orbit of mass <= 4 and every corner pair in the
        grid it agrees with the scan by the ``dominated`` oracle:
        ``(i1, j1)`` is free, every other cell with mass northwest of it is
        dominated, and so is every cell northwest of it in rows ``<= i0``
        or columns ``<= j0``."""
        outcomes = {True: 0, False: 0}
        for b, c in margin_pairs(1, 4):
            for dm in enumerate_orbits(b, c):
                view = lineflags.moves._Orbit.of(dm)
                q, r, entry = dm.q, dm.r, dm.matrix.entry
                dom = {
                    (i, j): dominated((i, j), dm.delta)
                    for i in range(1, q + 1)
                    for j in range(1, r + 1)
                }
                for i0, i1 in product(range(1, q + 1), repeat=2):
                    for j0, j1 in product(range(1, r + 1), repeat=2):
                        if not (i0 < i1 and j0 < j1):
                            continue
                        northwest = [(i, j) for (i, j) in dom if i <= i1 and j <= j1]
                        want = (
                            not dom[i1, j1]
                            and all(dom[p] for p in northwest if entry(*p) and p != (i1, j1))
                            and all(dom[i, j] for (i, j) in northwest if i <= i0 or j <= j0)
                        )
                        got = lineflags.moves._ii_factors_through_corner(view, i0, j0, i1, j1)
                        assert got == want, (dm, (i0, j0), (i1, j1))
                        outcomes[got] += 1
        assert outcomes[True] > 0 and outcomes[False] > 0

    def test_far_corners_on_random_matrices(self):
        rng = random.Random(15)
        for _ in range(500):
            q, r = rng.randint(1, 6), rng.randint(1, 6)
            m = tuple(tuple(rng.choice((0, 0, 1, 2)) for _ in range(r)) for _ in range(q))
            for i0, j0 in product(range(1, q + 1), range(1, r + 1)):
                assert lineflags.twoflags._se_corners(m, i0, j0) == se_corners_by_definition(
                    m, i0, j0
                )

    def test_the_last_view_serves_only_that_object(self):
        dm = from_permutation((2, 3, 1), (1, 3))
        view = lineflags.moves._Orbit.of(dm)
        assert lineflags.moves._Orbit.of(dm) is view
        copy = DecoratedMatrix(TransportMatrix(*dm.matrix), dm.delta)
        assert copy == dm and lineflags.moves._Orbit.of(copy) is not view

    def test_an_orbit_holding_lists_is_checked_on_every_call(self):
        """A valid orbit with list rows, listed and then made invalid in
        place, is not applied from the view the listing built."""
        base = from_permutation((1, 2), (1,))
        rows = [list(row) for row in base.matrix.m]
        dm = DecoratedMatrix(TransportMatrix(tuple(rows), base.matrix.b, base.matrix.c), base.delta)
        moves = applicable_moves(dm)
        assert [invariant(apply_move(dm, mv)) for mv in moves] == [
            invariant(apply_move(base, mv)) for mv in moves
        ]
        rows[1][0] = 1
        for mv in moves:
            with pytest.raises(ValidationError) as info:
                apply_move(dm, mv)
            assert info.value.code == "BadRowSum(2)"

    def test_an_equal_orbit_of_other_types_is_checked(self):
        x = from_permutation((1, 2), (1,))
        moves = applicable_moves(x)
        y = DecoratedMatrix(TransportMatrix(((True, 0), (0, True)), (1, 1), (1, 1)), x.delta)
        assert y == x
        for call in [lambda: applicable_moves(y)] + [lambda mv=mv: apply_move(y, mv) for mv in moves]:
            with pytest.raises(ValidationError) as info:
                call()
            assert info.value.code == "NegativeEntry(1,1)"

    def test_each_cover_validates_its_source_once(self, poset4, monkeypatch):
        """Listing the moves of a source, applying each and proving the
        cover's degeneration validate the source once, on every full-flag
        n=4 cover."""
        calls = []
        real = lineflags.decorated.raise_if_invalid

        def counted(matrix, delta=None):
            calls.append(matrix)
            return real(matrix, delta)

        monkeypatch.setattr(lineflags.decorated, "raise_if_invalid", counted)
        monkeypatch.setattr(lineflags.witness, "raise_if_invalid", counted)
        els = poset4.elements
        for a, t in poset4.covers:
            source = DecoratedMatrix(TransportMatrix(*els[a].matrix), els[a].delta)
            calls.clear()
            moves = applicable_moves(source)
            (move,) = [mv for mv in moves if apply_move(source, mv) == els[t]]
            assert verify_move_degeneration(source, move).passed
            assert len(calls) == 1 and calls[0] is source.matrix
        assert len(poset4.covers) == 763

    @pytest.mark.parametrize(
        "delta", [((1.0, 1),), ((True, 1),), (("1", 1),), ((1, 1, 1),), ([1, 1],)]
    )
    def test_a_decoration_that_is_not_int_pairs_raises(self, delta):
        """With ``validate``'s code, or ``BadShape`` for a pair that is a
        list, which ``validate`` accepts."""
        dm = DecoratedMatrix(from_permutation((1, 2), (1,)).matrix, delta)
        code = validate(dm.matrix, delta) or "BadShape"
        with pytest.raises(ValidationError) as info:
            applicable_moves(dm)
        assert info.value.code == code
        with pytest.raises(ValidationError) as info:
            apply_move(dm, Move("I", ((2, 2),)))
        assert info.value.code == code


class TestCheckersMatchTheReference:
    def test_inserting_a_cell_gives_the_staircase_of_all_cells(self):
        """On every staircase of the 4x4 grid, the empty one too, and every
        cell of it."""
        grid = list(product(range(1, 5), repeat=2))
        staircases = [()] + brute_force_staircases(grid)
        assert len(staircases) == 70
        for delta in staircases:
            for cell in grid:
                want = lineflags.flagcore._staircase(delta + (cell,))
                assert lineflags.moves._insert(delta, cell) == want, (delta, cell)

    def test_each_checker_gives_the_reference_result_or_clause(self):
        """Every in-grid anchor tuple of kinds I, II, IIIa and IIIb on each
        orbit of mass <= 4.  Kinds IVa, IVb and IVc take every in-grid
        anchor tuple on each orbit of mass <= 3, and on those of mass 4
        every tuple in the order the kind requires.  Kind V takes every
        in-grid pivot with every consecutive run of the decoration, with
        every single cell and with the decoration reversed; and, with the
        runs alone, the orbits of two margin pairs of mass 5 where a
        decorated cell outside the chain blocks 26 cascades.  A kind-I
        result keeps the rows."""
        outcomes = Counter()
        more = [((1, 1, 1, 1, 1), (1, 2, 1, 1)), ((1, 2, 1, 1), (1, 1, 1, 1, 1))]
        for b, c in margin_pairs(1, 4) + more:
            for dm in enumerate_orbits(b, c):
                view, delta = lineflags.moves._Orbit.of(dm), dm.delta
                cells = list(product(range(1, dm.q + 1), range(1, dm.r + 1)))
                pairs = list(product(cells, repeat=2))
                runs = [delta[s:e] for s in range(len(delta)) for e in range(s + 1, len(delta) + 1)]
                if dm.n == 5:
                    tuples = {"V": [(p,) + run for p in cells for run in runs]}
                else:
                    tuples = {"I": [(p,) for p in cells], "II": pairs, "IIIa": pairs, "IIIb": pairs}
                    tuples.update(three_anchor_tuples(cells, pairs, every=dm.n <= 3))
                    chains = runs + [(p,) for p in cells if p not in delta]
                    chains += [delta[::-1]] * (len(delta) > 1)
                    tuples["V"] = [(p,) + chain for p in cells for chain in chains]
                for kind, anchor_list in tuples.items():
                    check, reference = lineflags.moves._TRY[kind], REFERENCE_CHECKERS[kind]
                    for anchors in anchor_list:
                        got = check(view, anchors)
                        assert got == reference(view, anchors), (dm, kind, anchors)
                        accepted = not isinstance(got, str)
                        if kind == "I" and accepted:
                            assert got[0] is view.m
                        outcomes[kind, accepted] += 1
                        if dm.n == 5 and not accepted:
                            outcomes["V blocked at mass 5"] += got.startswith("flipping into")
        assert outcomes == {
            ("I", True): 1806, ("I", False): 14258,
            ("II", True): 744, ("II", False): 172480,
            ("IIIa", True): 475, ("IIIa", False): 172749,
            ("IIIb", True): 475, ("IIIb", False): 172749,
            ("IVa", True): 38, ("IVa", False): 38147,
            ("IVb", True): 31, ("IVb", False): 43269,
            ("IVc", True): 31, ("IVc", False): 43269,
            ("V", True): 1835, ("V", False): 247953,
            "V blocked at mass 5": 26,
        }


def three_anchor_tuples(cells, pairs, every):
    """The anchor tuples of kinds IVa, IVb and IVc over ``cells``: all
    triples if ``every``, else those in the order each kind requires."""
    if every:
        triples = list(product(cells, repeat=3))
        return {"IVa": triples, "IVb": triples, "IVc": triples}
    corners = [(p, s) for p, s in pairs if p[0] < s[0] and p[1] < s[1]]
    return {
        "IVa": [(p, s, u) for p, s in corners for u in cells if p[0] < u[0] < s[0] and u[1] < p[1]],
        "IVb": [(p, s, (i, p[1])) for p, s in corners for i in range(p[0] + 1, s[0])],
        "IVc": [(p, s, (p[0], j)) for p, s in corners for j in range(p[1] + 1, s[1])],
    }


class TestSharedMatrixPart:
    def test_move_edges_match_the_per_orbit_moves(self, checked_to_mass_five):
        """``_move_edges`` shares one matrix part among the orbits of a
        matrix.  Its moves, targets and keys are those of the per-orbit
        view on every margin pair of mass <= 4, on (2,2,1)x(1,2,2) and on
        full flags n=5, and its key is ``r + rbar`` at each position; without
        the moves it returns the same targets and keys."""
        pairs = margin_pairs(1, 4) + [((2, 2, 1), (1, 2, 2)), ((1,) * 5, (1,) * 5)]
        for b, c in pairs:
            elements = tuple(enumerate_orbits(b, c))
            index = {el: k for k, el in enumerate(elements)}
            moves_of, targets_of, keys = lineflags.moves._move_edges(elements)
            lean = lineflags.moves._move_edges(elements, with_moves=False)
            assert lean == (None, targets_of, keys)
            rows = zip(elements, moves_of, targets_of, keys, strict=True)
            for el, moves, targets, key in rows:
                checked = checked_to_mass_five[el]
                assert moves == [mv for mv, _ in checked]
                assert targets == [index[res] for _, res in checked]
                inv = invariant(el)
                assert key == tuple(map(add, inv[::2], inv[1::2]))

    def test_checkers_on_a_shared_matrix_part_match_a_new_one(self):
        """Every anchor tuple of every kind, on every orbit of mass <= 4,
        gets the same outcome from one matrix part shared by the orbits of
        its matrix as from a new part for each check."""
        tried = 0
        for b, c in margin_pairs(1, 4):
            mat = None
            for dm in enumerate_orbits(b, c):
                if mat is None or mat.tm != dm.matrix:
                    mat = lineflags.moves._Matrix(dm.matrix)
                    assert all(getattr(mat, name) is getattr(mat, name) for name in ("support", "far"))
                shared = lineflags.moves._Orbit(mat, dm.delta, delta_table(dm))
                for kind, anchors in anchor_tuples(dm):
                    check = lineflags.moves._TRY[kind]
                    assert check(shared, anchors) == check(lineflags.moves._Orbit.of(dm), anchors)
                    tried += 1
        assert tried == 73769

    def test_verify_equivalence_keeps_no_move_lists(self, monkeypatch):
        real = lineflags.moves._move_edges
        calls = []

        def move_edges(elements, with_moves=True):
            calls.append(with_moves)
            return real(elements, with_moves)

        monkeypatch.setattr(lineflags.moves, "_move_edges", move_edges)
        assert verify_equivalence((1, 1, 1), (1, 1, 1)).passed
        build_poset((1, 1, 1), (1, 1, 1))
        assert calls == [False, True]

    def test_candidates_match_the_scan(self):
        """``_candidates`` reads the order of the staircase; a scan of the
        decoration for every decorated anchor gives the same list in the
        same order on every orbit of mass <= 4, on full flags n=5 and on a
        seeded sample of the orbits of mass 5."""
        orbits = [dm for b, c in margin_pairs(1, 4) for dm in enumerate_orbits(b, c)]
        orbits += enumerate_orbits((1,) * 5, (1,) * 5)
        mass_five = [dm for b, c in margin_pairs(5, 5) for dm in enumerate_orbits(b, c)]
        orbits += random.Random(35).sample(mass_five, 3000)
        kinds = Counter()
        for dm in orbits:
            view = lineflags.moves._Orbit.of(dm)
            got = list(lineflags.moves._candidates(view))
            assert got == candidates_by_scan(view), dm
            kinds.update(kind for kind, _ in got)
        assert set(kinds) == set(KIND_ORDER)

    def test_matrix_tables_match_the_scans(self):
        """On every matrix of mass <= 5, the interior clause of every corner
        pair, with the off corner kind III exempts or with both off corners
        and a cell of the west or north edge as kinds IVb and IVc exempt,
        and the block clause of every pivot and chain cell southeast of it
        are those of a cell-by-cell scan."""

        def interior_by_scan(m, i0, j0, i1, j1, exempt):
            skip = {(i0, j0), (i1, j1), *exempt}
            for i in range(i0, i1 + 1):
                for j in range(j0, j1 + 1):
                    if (i, j) not in skip and m[i - 1][j - 1] != 0:
                        return f"nonzero entry at {(i, j)} strictly between the corners"
            return None

        def block_by_scan(m, i0, j0, cs_i, cs_j):
            for i in range(i0, cs_i):
                for j in range(j0, cs_j):
                    if (i, j) != (i0, j0) and m[i - 1][j - 1] != 0:
                        return f"nonzero entry at ({i},{j}) between the pivot and the chain"
            return None

        matrices, clauses = 0, Counter()
        for b, c in margin_pairs(1, 5):
            for tm in enumerate_transport_matrices(b, c):
                mat, m = lineflags.moves._Matrix(tm), tm.m
                grid = list(product(range(1, tm.q + 1), range(1, tm.r + 1)))
                for (i0, j0), (i1, j1) in product(grid, repeat=2):
                    if not (i0 < i1 and j0 < j1):
                        continue
                    block = mat.block[i0, j0, i1, j1]
                    assert block == block_by_scan(m, i0, j0, i1, j1)
                    edges = [(i, j0) for i in range(i0 + 1, i1)] + [(i0, j) for j in range(j0 + 1, j1)]
                    exempts = [((i0, j1),), ((i1, j0),)] + [((i0, j1), (i1, j0), u) for u in edges]
                    for exempt in exempts:
                        want = interior_by_scan(m, i0, j0, i1, j1, exempt)
                        assert mat.interior[(i0, j0, i1, j1) + exempt] == want
                        clauses[want is None] += 1
                    clauses[block is None] += 1
                matrices += 1
        assert matrices == 3281
        assert clauses[True] > 0 and clauses[False] > 0


class TestOrderKey:
    """``_move_edges`` orders the orbits by ``r + rbar``, one column per
    position; the invariant has two, ``r`` and ``rbar``."""

    def test_rbar_exceeds_r_by_at_most_one(self):
        """The premise of the key, at every bordered position of every
        orbit of mass <= 5: a line raises a dimension by at most one."""
        orbits = 0
        for b, c in margin_pairs(1, 5):
            for dm in enumerate_orbits(b, c):
                inv = invariant(dm)
                assert set(map(sub, inv[1::2], inv[::2])) <= {0, 1}, dm
                orbits += 1
        assert orbits == 26643

    def test_masks_on_the_summed_keys_are_those_on_the_invariants(self):
        """On all 341 margin pairs of mass <= 5 and on full flags n=5."""
        pairs = margin_pairs(1, 5) + [((1,) * 5, (1,) * 5)]
        assert len(pairs) == 342
        for b, c in pairs:
            elements = tuple(enumerate_orbits(b, c))
            keys = lineflags.moves._move_edges(elements, with_moves=False)[2]
            want = check([invariant(el) for el in elements], ())[0]
            assert check(keys, ())[0] == want, (b, c)


# Anchor tuples of each kind on a 2 x 2 orbit that have the wrong count
# or leave the grid, and the clause each gets.
SHAPE_REJECTIONS = [
    ("I", (), "expected a single anchor (i1,j1)"),
    ("I", ((3, 3), (1, 1)), "expected a single anchor (i1,j1)"),
    ("II", ((1, 1),), "expected anchors ((i0,j0), (i1,j1))"),
    ("IIIa", ((1, 1), (2, 2), (2, 2)), "expected anchors ((i0,j0), (i1,j1))"),
    ("IIIb", ((1, 1),), "expected anchors ((i0,j0), (i1,j1))"),
    ("IVa", ((1, 1), (2, 2)), "expected anchors ((i0,j0), (i1,j1), (i2,j2))"),
    ("IVb", ((1, 1), (2, 2)), "expected anchors ((i0,j0), (i1,j1), (i2,j0))"),
    ("IVc", ((1, 1),), "expected anchors ((i0,j0), (i1,j1), (i0,j2))"),
    ("V", ((0, 0),), "expected a pivot followed by a nonempty chain"),
    ("I", ((3, 1),), "anchor outside the grid"),
    ("II", ((1, 1), (3, 3)), "anchor outside the grid"),
    ("IIIa", ((1, 1), (2, 3)), "anchor outside the grid"),
    ("IIIb", ((0, 1), (2, 2)), "anchor outside the grid"),
    ("IVa", ((1, 1), (2, 2), (1, 0)), "anchor outside the grid"),
    ("IVb", ((1, 1), (3, 2), (2, 1)), "anchor outside the grid"),
    ("IVc", ((1, 1), (2, 3), (1, 2)), "anchor outside the grid"),
    ("V", ((1, 1), (2, 2), (3, 3)), "anchor outside the grid"),
]


class TestPreconditions:
    def test_kind_II_fails_the_shared_rectangle_clause(self):
        """On every orbit of mass <= 3 and every corner pair in the grid, a
        rectangle the shared clauses of ``twoflags`` reject is rejected by
        kind II with the same clause."""
        seen = set()
        for b, c in margin_pairs(1, 3):
            for dm in enumerate_orbits(b, c):
                tm = dm.matrix
                for i0, i1 in product(range(1, tm.q + 1), repeat=2):
                    for j0, j1 in product(range(1, tm.r + 1), repeat=2):
                        clause = lineflags.twoflags._rectangle_clause(tm, i0, j0, i1, j1)
                        if clause is None:
                            continue
                        with pytest.raises(PreconditionFailed) as kind_ii:
                            apply_move(dm, Move("II", ((i0, j0), (i1, j1))))
                        assert kind_ii.value.clause == clause
                        seen.add(clause.split(" at (")[0] if clause[0] == "n" else clause)
        assert seen == {
            "corners must satisfy i0 < i1 and j0 < j1",
            "entry at (i0,j0) must be positive",
            "entry at (i1,j1) must be positive",
            "nonzero entry",
        }

    @pytest.mark.parametrize("kind, anchors, clause", SHAPE_REJECTIONS)
    def test_each_kind_rejects_a_wrong_anchor_count_or_grid(self, kind, anchors, clause):
        """On the 2 x 2 orbit ``(1) . / . 1``: the count before the grid,
        and both before the kind's own conditions."""
        with pytest.raises(PreconditionFailed) as info:
            apply_move(from_permutation((1, 2), (1,)), Move(kind, anchors))
        assert (info.value.kind, info.value.clause) == (kind, clause)

    @pytest.mark.parametrize(
        "dm, move, clause",
        [
            (from_permutation((1, 2, 3), (1,)), Move("IVa", ((1, 1), (3, 3), (2, 2))),
             "anchors must satisfy i0 < i2 < i1 and j2 < j0 < j1"),
            (from_permutation((2, 1, 3), (2,)), Move("IVa", ((1, 2), (3, 3), (2, 1))),
             "(i0,j0) must be decorated"),
            (from_permutation((2, 1, 3), (1,)), Move("IVa", ((1, 2), (3, 3), (2, 1))),
             "(i2,j2) must be decorated"),
            (from_permutation((1, 2), (1,)), Move("V", ((1, 1), (2, 2))),
             "chain must consist of decorated positions"),
        ],
        ids=["IVa-order", "IVa-first-decorated", "IVa-second-decorated", "V-chain-decorated"],
    )
    def test_kind_conditions_name_their_clause(self, dm, move, clause):
        with pytest.raises(PreconditionFailed) as info:
            apply_move(dm, move)
        assert info.value.clause == clause

    def test_unknown_kind(self):
        dm = from_permutation((1, 2), (1,))
        with pytest.raises(PreconditionFailed, match="unknown move kind"):
            apply_move(dm, Move("VI", ((1, 1),)))

    def test_clause_and_kind_attributes(self):
        dm = from_permutation((1, 2), (1,))
        with pytest.raises(PreconditionFailed) as info:
            apply_move(dm, Move("I", ((1, 1),)))
        assert info.value.kind == "I"
        assert info.value.clause == (
            "(i1,j1) must not lie weakly northwest of a decorated cell"
        )

    def test_decorated_pivot_needs_two_units(self):
        dm = from_permutation((1, 2), (1,))
        with pytest.raises(PreconditionFailed) as info:
            apply_move(dm, Move("II", ((1, 1), (2, 2))))
        assert str(info.value) == "II: a decorated (i0,j0) needs at least two units"

    def test_rectangle_must_be_nondegenerate(self):
        dm = from_permutation((2, 1), (1,))
        with pytest.raises(
            PreconditionFailed, match="i0 < i1 and j0 < j1"
        ):
            apply_move(dm, Move("II", ((1, 2), (2, 1))))

    def test_rectangle_interior_must_be_empty(self):
        tm = TransportMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        dm = DecoratedMatrix.make(tm, [(1, 1)])
        with pytest.raises(
            PreconditionFailed, match=r"nonzero entry at \(2, 2\)"
        ):
            apply_move(dm, Move("II", ((1, 1), (3, 3))))

    def test_cascade_chain_must_be_consecutive(self):
        dm = from_permutation((3, 4, 2, 1), (2, 3, 4))
        mv = Move("V", ((1, 1), (2, 4), (4, 1)))
        with pytest.raises(PreconditionFailed, match="consecutive run"):
            apply_move(dm, mv)

    def test_a_move_from_an_invalid_source_is_rejected(self):
        """A decorated zero entry: each entry point raises on the call
        rather than list or apply the moves of kind I at (1,2) and (2,1)."""
        dm = DecoratedMatrix(TransportMatrix(((0, 1), (1, 0)), (1, 1), (1, 1)), ((1, 1),))
        for call in (
            lambda: apply_move(dm, Move("I", ((1, 2),))),
            lambda: iter_moves(dm),
            lambda: applicable_moves(dm),
        ):
            with pytest.raises(ValidationError) as info:
                call()
            assert info.value.code == "ZeroEntryDecorated(1,1)"

    def test_result_is_validated(self):
        # Decorating (2,2) supersedes the old (1,1) circle: the
        # decoration stays a staircase, and the result is the cover
        # with the second diagonal cell decorated instead.
        dm = from_permutation((1, 2), (1,))
        out = apply_move(dm, Move("I", ((2, 2),)))
        assert out.delta == ((2, 2),)
        assert out == from_permutation((1, 2), (2,))

    @pytest.mark.parametrize(
        "dm, move, text",
        [
            (from_permutation((1, 2), (1,)), Move("II", ((1, 1, 1), (2, 2))), "II (1,1,1) (2,2)"),
            (from_permutation((1, 2), (1,)), Move("I", (("a", "b"),)), "I (a,b)"),
            (from_permutation((1, 2), (1,)), Move("I", ((2.0, 2.0),)), "I (2.0,2.0)"),
            (from_permutation((2, 1), (2,)), Move("I", ((True, 2),)), "I (True,2)"),
            (
                from_permutation((1, 2), (1,)),
                Move("IIIb", ((1, 1), (2, 2, 2))),
                "IIIb (1,1) (2,2,2)",
            ),
            (from_permutation((1, 2), (1,)), Move("I", (5,)), "I 5"),
            (from_permutation((1, 2), (1,)), Move("II", ((1,),)), "II (1)"),
            (from_permutation((1, 2), (1,)), Move("I", 5), "I 5"),
            (from_permutation((1, 2), (1,)), Move("I", None), "I None"),
            (
                from_permutation((1, 2), (1,)),
                Move("IIIa", [(1, 1), (2, 2)]),
                "IIIa [(1, 1), (2, 2)]",
            ),
        ],
        ids=[
            "three-coordinates", "strings", "floats", "bool", "mirror-kind",
            "not-a-pair", "one-coordinate", "int-anchors", "no-anchors", "list-anchors",
        ],
    )
    def test_malformed_anchors_are_rejected(self, dm, move, text):
        with pytest.raises(PreconditionFailed) as info:
            apply_move(dm, move)
        assert info.value.kind == move.kind
        assert info.value.clause == "anchors must be (i, j) pairs of integers"
        assert str(move) == text


# Sources on which a rectangle flip satisfies every local zero-pattern
# and decoration condition yet skips a level: decorating the far corner
# first gives a strictly intermediate orbit, so the flip is rejected.
FLIP_SKIP_CASES = [
    (((1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)),
     ((2, 4), (4, 2)), ((1, 1), (3, 3))),
    (((1, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)),
     ((2, 3), (4, 1)), ((1, 1), (3, 2))),
    (((1, 0, 0), (0, 0, 1), (1, 1, 0)),
     ((2, 3), (3, 1)), ((1, 1), (3, 2))),
    (((1, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)),
     ((1, 4), (3, 2)), ((1, 1), (2, 3))),
    (((1, 0, 1), (0, 0, 1), (0, 1, 0)),
     ((1, 3), (3, 2)), ((1, 1), (2, 3))),
    (((1, 0, 1), (0, 1, 0), (1, 0, 0)),
     ((1, 3), (3, 1)), ((1, 1), (2, 2))),
    (((1, 1), (0, 1), (1, 0)),
     ((1, 2), (3, 1)), ((1, 1), (2, 2))),
    (((1, 0, 1), (1, 1, 0)),
     ((1, 3), (2, 1)), ((1, 1), (2, 2))),
]

# Sources on which a cascade satisfies every local condition yet skips a
# level: a rectangle flip into a positive cell next to the chain comes
# first, so the cascade is rejected.
CASCADE_SKIP_CASES = [
    (((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 0)),
     ((3, 3), (4, 2)), (1, 1), ((4, 2),)),
    (((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0)),
     ((2, 4), (3, 3)), (1, 1), ((2, 4),)),
    (((1, 0, 0), (0, 1, 1), (0, 1, 0)),
     ((2, 3), (3, 2)), (1, 1), ((2, 3),)),
    (((1, 0, 0), (0, 1, 1), (0, 1, 0)),
     ((2, 3), (3, 2)), (1, 1), ((3, 2),)),
]


class TestMinimalityGuards:
    @pytest.mark.parametrize("rows,delta,rect", FLIP_SKIP_CASES)
    def test_level_skipping_flips_are_rejected(self, rows, delta, rect):
        dm = DecoratedMatrix.make(TransportMatrix.from_rows(rows), delta)
        with pytest.raises(PreconditionFailed) as info:
            apply_move(dm, Move("II", rect))
        assert info.value.clause == (
            "decorating (i1,j1) first gives a strictly intermediate orbit"
        )
        assert_skips_a_level(dm, raw_flip_target(dm, *rect))

    @pytest.mark.parametrize("rows,delta,pivot,chain", CASCADE_SKIP_CASES)
    def test_level_skipping_cascades_are_rejected(self, rows, delta, pivot, chain):
        dm = DecoratedMatrix.make(TransportMatrix.from_rows(rows), delta)
        with pytest.raises(PreconditionFailed) as info:
            apply_move(dm, Move("V", (pivot,) + chain))
        assert info.value.clause == (
            "flipping into (2,2) first gives a strictly intermediate orbit"
        )
        assert_skips_a_level(dm, raw_cascade_target(dm, pivot, chain))


MIRROR_KIND = {"IIIa": "IIIb", "IIIb": "IIIa", "IVb": "IVc", "IVc": "IVb"}


def transpose(dm):
    """The orbit with the two flags swapped."""
    tm = TransportMatrix.from_rows(list(zip(*dm.matrix.m)))
    return DecoratedMatrix.make(tm, [(j, i) for (i, j) in dm.delta])


def mirror(move):
    """The move of ``transpose(dm)`` that mirrors ``move`` of ``dm``."""
    cells = [(j, i) for (i, j) in move.anchors]
    if move.kind == "IVa":  # the two decorated anchors trade roles
        cells.reverse()
    elif move.kind == "V":  # the chain runs the other way
        cells[1:] = cells[:0:-1]
    return Move(MIRROR_KIND.get(move.kind, move.kind), tuple(cells))


# A rejected anchor tuple of a mirror kind and its clause, in the mirror
# kind's own names.
MIRROR_REJECTIONS = [
    (((2,),), ((1, 1),), "IIIb", ((1, 1), (1, 1)),
     "corners must satisfy i0 < i1 and j0 < j1"),
    (((0, 1), (1, 0)), ((1, 2),), "IIIb", ((1, 1), (2, 2)), "(i0,j0) must be decorated"),
    (((1, 0), (1, 1)), ((1, 1),), "IIIb", ((1, 1), (2, 2)),
     "nonzero entry at (2, 1) strictly between the corners"),
    (((0, 1, 0), (1, 0, 1)), ((1, 2),), "IIIb", ((1, 2), (2, 3)),
     "nonzero undominated entry at (2,1) northwest of (i1,j0)"),
    (((1,), (1,)), ((1, 1),), "IVc", ((1, 1), (1, 1), (2, 1)),
     "third anchor must sit in row i0"),
    (((2,),), ((1, 1),), "IVc", ((1, 1), (1, 1), (1, 1)),
     "anchors must satisfy j0 < j2 < j1 and i0 < i1"),
    (((0, 0, 1), (1, 1, 0)), ((1, 3),), "IVc", ((1, 1), (2, 3), (1, 2)),
     "(i0,j2) must be decorated"),
    (((0, 2, 0), (1, 0, 1)), ((1, 2),), "IVc", ((1, 1), (2, 3), (1, 2)),
     "entry at (i0,j2) must be exactly 1"),
    (((1, 1, 0), (1, 0, 1)), ((1, 2), (2, 1)), "IVc", ((1, 1), (2, 3), (1, 2)),
     "(i1,j0) must not lie weakly northwest of a decorated cell"),
    (((1, 1, 0), (0, 1, 1)), ((1, 2),), "IVc", ((1, 1), (2, 3), (1, 2)),
     "nonzero entry at (2, 2) strictly between the corners"),
    (((1, 1), (1, 1)), ((1, 2),), "IVc", ((1, 1), (2, 2)),
     "expected anchors ((i0,j0), (i1,j1), (i0,j2))"),
    # The transposes of the IVc rows, with the IVb clauses.
    (((1, 1),), ((1, 1),), "IVb", ((1, 1), (1, 1), (1, 2)),
     "third anchor must sit in column j0"),
    (((2,),), ((1, 1),), "IVb", ((1, 1), (1, 1), (1, 1)),
     "anchors must satisfy i0 < i2 < i1 and j0 < j1"),
    (((0, 1), (0, 1), (1, 0)), ((3, 1),), "IVb", ((1, 1), (3, 2), (2, 1)),
     "(i2,j0) must be decorated"),
    (((0, 1), (2, 0), (0, 1)), ((2, 1),), "IVb", ((1, 1), (3, 2), (2, 1)),
     "entry at (i2,j0) must be exactly 1"),
    (((1, 1), (1, 0), (0, 1)), ((2, 1), (1, 2)), "IVb", ((1, 1), (3, 2), (2, 1)),
     "(i0,j1) must not lie weakly northwest of a decorated cell"),
    (((1, 0), (1, 1), (0, 1)), ((2, 1),), "IVb", ((1, 1), (3, 2), (2, 1)),
     "nonzero entry at (2, 2) strictly between the corners"),
    (((1, 1), (1, 1)), ((2, 1),), "IVb", ((1, 1), (2, 2)),
     "expected anchors ((i0,j0), (i1,j1), (i2,j0))"),
    # Several cells break the clause; the first in row-major order is named.
    (((1, 0, 0), (0, 1, 0), (1, 0, 1)), ((1, 1),), "IIIb", ((1, 1), (3, 3)),
     "nonzero entry at (2, 2) strictly between the corners"),
    (((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1)), ((1, 3),), "IIIb", ((1, 3), (3, 4)),
     "nonzero undominated entry at (2,2) northwest of (i1,j0)"),
]


def applied(dm, move):
    """``apply_move(dm, move)``, or None if a precondition fails."""
    try:
        return apply_move(dm, move)
    except PreconditionFailed:
        return None


class TestMirrorKinds:
    def test_moves_of_the_transpose_mirror_the_moves(self, checked_to_mass_five):
        checked = checked_to_mass_five
        assert len(checked) == 1694 + 24949
        flipped = {dm: transpose(dm) for dm in checked}
        for dm, pairs in checked.items():
            moves = [mv for mv, _ in pairs]
            assert moves == sorted(moves, key=Move.sort_index)
            image = [(mirror(mv), flipped[res]) for mv, res in pairs]
            assert set(image) == set(checked[flipped[dm]])
            assert sorted(image, key=lambda pair: pair[0].sort_index()) == checked[flipped[dm]]

    @pytest.mark.parametrize("rows, delta, kind, anchors, clause", MIRROR_REJECTIONS)
    def test_rejections_name_the_mirror_clause(self, rows, delta, kind, anchors, clause):
        dm = DecoratedMatrix.make(TransportMatrix.from_rows(rows), delta)
        with pytest.raises(PreconditionFailed) as info:
            apply_move(dm, Move(kind, anchors))
        assert (info.value.kind, info.value.clause) == (kind, clause)

    def test_mirror_kinds_are_the_base_kinds_on_the_transpose(self):
        """On every orbit of mass <= 3, every in-grid anchor pair of kind
        IIIb and triple of kind IVc gives the transpose of what the
        mirrored move of kind IIIa or IVb gives on the transposed orbit,
        or both fail a precondition."""
        tried = accepted = 0
        for b, c in margin_pairs(1, 3):
            for dm in enumerate_orbits(b, c):
                flipped = transpose(dm)
                cells = [(i, j) for i in range(1, dm.q + 1) for j in range(1, dm.r + 1)]
                for kind, size in (("IIIb", 2), ("IVc", 3)):
                    for anchors in product(cells, repeat=size):
                        move = Move(kind, anchors)
                        out, image = applied(dm, move), applied(flipped, mirror(move))
                        assert out == (image and transpose(image)), (dm, move)
                        tried += 1
                        accepted += out is not None
        assert (tried, accepted) == (37462, 24)

    def test_results_keep_the_rows_they_do_not_change(self):
        """The rows of an IIIb or IVc result outside rows ``i0`` and ``i1``
        are the source's row objects, raw and applied, on every orbit of
        mass <= 4."""
        seen = {"IIIb": 0, "IVc": 0}
        for b, c in margin_pairs(1, 4):
            for dm in enumerate_orbits(b, c):
                m = dm.matrix.m
                for kind, anchors, (rows, _) in lineflags.moves._checked_moves(dm):
                    if kind not in seen:
                        continue
                    (i0, _), (i1, _) = anchors[:2]
                    out = apply_move(dm, Move(kind, anchors)).matrix.m
                    for i in range(dm.q):
                        assert (rows[i] is m[i] and out[i] is m[i]) == (i + 1 not in (i0, i1))
                    seen[kind] += 1
        assert seen["IIIb"] > 0 and seen["IVc"] > 0


# Every margin pair of mass <= 4, and full flags n = 5.
UNCHECKED_MARGINS = [*margin_pairs(1, 4), ((1,) * 5, (1,) * 5)]


def margin_id(margin):
    """A margin as its test id part, such as ``2,1``."""
    return ",".join(map(str, margin))


class TestPoset:
    def test_counts(self, poset2, poset3):
        assert (len(poset2.elements), len(poset2.covers)) == (5, 6)
        assert (len(poset3.elements), len(poset3.covers)) == (28, 72)

    def test_cover_kinds_parallel_and_known(self, poset3):
        assert len(poset3.cover_kinds) == len(poset3.covers)
        for kinds in poset3.cover_kinds:
            assert kinds
            assert all(k in KIND_ORDER for k in kinds)

    def test_cover_moves_are_the_first_realizing_moves(self, poset3):
        assert len(poset3.cover_moves) == len(poset3.covers)
        for (a, t), move, kinds in zip(poset3.covers, poset3.cover_moves, poset3.cover_kinds):
            src, tgt = poset3.elements[a], poset3.elements[t]
            realizing = [mv for mv in applicable_moves(src) if apply_move(src, mv) == tgt]
            assert move == realizing[0]
            assert kinds[0] == move.kind

    def test_index_of_round_trips(self, poset3):
        for k, el in enumerate(poset3.elements):
            assert poset3.index_of(el) == k

    def test_covers_match_brute_force_reduction(self, poset3):
        els = poset3.elements
        oracle = transitive_reduction(
            len(els), lambda a, t: a != t and rk_leq_dec(els[a], els[t])
        )
        assert sorted(poset3.covers) == sorted(oracle)

    def test_golden_labels_and_cover_list(self, poset3):
        elements = {
            name: from_permutation(w, rows)
            for name, (w, rows) in GOLDEN_N3_LABELS.items()
        }
        assert len({(x.matrix.m, x.delta) for x in elements.values()}) == 28
        index = {name: poset3.index_of(el) for name, el in elements.items()}
        name_of = {v: k for k, v in index.items()}
        got = {(name_of[a], name_of[t]) for (a, t) in poset3.covers}
        assert got == set(GOLDEN_N3_COVERS)

    def test_transpose_is_an_order_isomorphism(self, poset3):
        def transpose(dm):
            tm = TransportMatrix.from_rows(list(zip(*dm.matrix.m)))
            return DecoratedMatrix.make(tm, [(j, i) for (i, j) in dm.delta])

        covers = {
            (poset3.elements[a], poset3.elements[t]) for (a, t) in poset3.covers
        }
        assert {(transpose(a), transpose(t)) for (a, t) in covers} == covers

    def test_unit_margin_counts_scale(self):
        poset = build_poset((1,) * 5, (1,) * 5, check_reduction=False)
        assert (len(poset.elements), len(poset.covers)) == (1426, 8329)

    @pytest.mark.parametrize("b, c", UNCHECKED_MARGINS, ids=margin_id)
    def test_unchecked_posets_equal_the_checked_one(self, b, c):
        """``build_poset(check_reduction=False)`` and the poset that
        ``verify --witness`` takes from ``_pipeline`` skip the order
        check; on every margin pair of mass <= 4 and on full flags n = 5
        they hold the checked poset's elements, covers and moves, and the
        report counts the checked poset's elements and covers."""
        checked = build_poset(b, c)
        unchecked = build_poset(b, c, check_reduction=False)
        report, verified = lineflags.moves._pipeline(b, c, with_moves=True, with_report=True)
        assert report.passed
        assert (report.element_count, report.cover_count) == (
            len(checked.elements), len(checked.covers)
        )
        for name in ("elements", "covers", "cover_kinds", "cover_moves"):
            want = getattr(checked, name)
            assert getattr(unchecked, name) == want == getattr(verified, name), name


class TestFindChain:
    def test_golden_two_step_chain(self):
        lo = from_permutation((1, 2), (1,))
        hi = from_permutation((2, 1), (1, 2))
        chain = find_chain(lo, hi)
        assert [str(mv) for mv in chain] == ["I (2,2)", "V (1,1) (2,2)"]

    def test_equal_gives_empty_chain(self):
        dm = from_permutation((1, 2, 3), (2,))
        assert find_chain(dm, dm) == []

    def test_incomparable_gives_none(self):
        x = from_permutation((1, 2, 3), (3,))
        y = from_permutation((3, 2, 1), (1, 2))
        assert find_chain(x, y) is None
        assert find_chain(y, x) is None

    def test_mismatched_margins_raise(self):
        x = from_permutation((1, 2), (1,))
        y = from_permutation((1, 2, 3), (1,))
        with pytest.raises(ShapeMismatch):
            find_chain(x, y)

    @pytest.mark.parametrize(
        "rows, delta, code",
        [
            (((2, -1, 0), (-1, 2, 0), (0, 0, 1)), ((1, 1),), "NegativeEntry(1,2)"),
            (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 1), (2, 2)), "NotStaircase(2)"),
        ],
    )
    def test_invalid_arguments_raise(self, rows, delta, code):
        bad = DecoratedMatrix(TransportMatrix(rows, (1, 1, 1), (1, 1, 1)), delta)
        top = from_permutation((3, 2, 1), (1, 2, 3))
        for x, y in ((bad, top), (top, bad), (bad, bad)):
            with pytest.raises(ValidationError) as info:
                find_chain(x, y)
            assert info.value.code == code

    def test_no_progressing_move_fails_the_order_check(self, monkeypatch):
        monkeypatch.setattr(
            lineflags.moves, "_checked_moves", lambda dm, view=None, room=None: iter(())
        )
        with pytest.raises(OrderCheckFailed, match="no progressing move"):
            find_chain(from_permutation((1, 2), (1,)), from_permutation((2, 1), (1, 2)))

    def test_chains_match_the_public_api_greedy_walk(self):
        """On every pair of orbits of mass <= 3, find_chain is the walk
        that takes, at each step, the first applicable move whose result
        lies below the target."""
        comparable = 0
        for b, c in margin_pairs(1, 3):
            orbits = enumerate_orbits(b, c)
            for x in orbits:
                for y in orbits:
                    chain = find_chain(x, y)
                    assert chain == greedy_chain_by_public_api(x, y)
                    comparable += chain is not None
        assert comparable == 559

    def test_chains_match_the_public_api_greedy_walk_at_n5(self):
        orbits = enumerate_orbits((1,) * 5, (1,) * 5)
        rng = random.Random(5)
        pairs = 0
        while pairs < 300:
            x, y = rng.sample(orbits, 2)
            if rk_leq_dec(y, x):
                x, y = y, x
            elif not rk_leq_dec(x, y):
                continue
            assert find_chain(x, y) == greedy_chain_by_public_api(x, y)
            pairs += 1

    def test_each_move_lowers_one_table_at_its_anchor_by_one(self, checked_to_mass_five):
        """What find_chain skips candidates by.  A move of kind I keeps the
        ranks and lowers ``rbar`` by exactly one at the free positions
        strictly northwest of its anchor, and nowhere else.  Call the
        positions ``(a, b)`` with ``i0 <= a < i1`` and ``j0 <= b < j1`` the
        first block of a move whose first two anchors are ``(i0, j0)`` and
        ``(i1, j1)``.  A move of kind II, IIIa, IIIb, IVb or IVc lowers
        ``r`` by exactly one on its first block and nowhere else; one of
        kind IVa or V lowers ``r`` by at least one there and raises no
        rank.  Checked on every orbit of mass <= 4 and of full flags n=5."""
        full5 = ((1,) * 5, (1,) * 5)
        moves = 0
        for dm, checked in checked_to_mass_five.items():
            if dm.n == 5 and dm.matrix[1:] != full5:
                continue
            ranks, rbar, free = rank_table(dm.matrix).values, rbar_table(dm).values, delta_table(dm)
            grid = list(product(range(dm.q + 1), range(dm.r + 1)))
            for mv, z in checked:
                z_ranks = rank_table(z.matrix).values
                lowered = {(a, b): ranks[a][b] - z_ranks[a][b] for a, b in grid}
                if mv.kind == "I":
                    ((i1, j1),) = mv.anchors
                    z_rbar = rbar_table(z).values
                    assert set(lowered.values()) == {0}
                    assert {(a, b): rbar[a][b] - z_rbar[a][b] for a, b in grid} == {
                        (a, b): int(a < i1 and b < j1 and free[a][b] == 1) for a, b in grid
                    }
                else:
                    (i0, j0), (i1, j1) = mv.anchors[:2]
                    block = {(a, b): i0 <= a < i1 and j0 <= b < j1 for a, b in grid}
                    if mv.kind in ("IVa", "V"):
                        assert all(d >= block[p] for p, d in lowered.items())
                    else:
                        assert lowered == {p: int(inside) for p, inside in block.items()}
                moves += 1
        assert moves == 12646

    def test_the_room_rejects_no_move_below_the_target(self, monkeypatch):
        """The room find_chain gives a candidate is a necessary condition:
        on every pair of orbits of mass <= 3, no candidate it rejects is an
        applicable move whose result lies below the target."""
        real = lineflags.moves._checked_moves
        target, rejected = [], []

        def checked(dm, view=None, room=None):
            for kind, anchors in lineflags.moves._candidates(view):
                if not room((kind, anchors)):
                    try:
                        z = apply_move(dm, Move(kind, anchors))
                    except PreconditionFailed:
                        continue
                    assert not rk_leq_dec(z, target[-1])
                    rejected.append(kind)
            return real(dm, view, room)

        monkeypatch.setattr(lineflags.moves, "_checked_moves", checked)
        for b, c in margin_pairs(1, 3):
            orbits = enumerate_orbits(b, c)
            for x in orbits:
                for y in orbits:
                    target.append(y)
                    find_chain(x, y)
        assert Counter(rejected) == {
            "I": 315, "II": 55, "IIIa": 99, "IIIb": 99, "IVa": 12, "IVb": 8, "IVc": 8, "V": 67
        }

    def test_the_first_anchor_test_drops_only_what_the_room_refuses(self, monkeypatch):
        """``room.first`` judges a candidate of kinds II to V at its first
        anchor: on every ordered pair of orbits of mass <= 3 and on 300
        seeded comparable pairs of full-flag orbits at n = 5,
        ``_candidates`` given it yields, in order, the candidates it yields
        without it less those whose first anchor fails, and ``room``
        refuses each candidate dropped."""
        real = lineflags.moves._checked_moves
        counts = Counter()

        def checked(dm, view=None, room=None):
            first = room.first
            every = list(lineflags.moves._candidates(view))
            kept = [(kind, anchors) for kind, anchors in every if kind == "I" or first(anchors[0])]
            assert list(lineflags.moves._candidates(view, first)) == kept
            refused = [candidate for candidate in every if not room(candidate)]
            dropped = [candidate for candidate in every if candidate not in kept]
            assert all(candidate in refused for candidate in dropped)
            counts.update(refused=len(refused), dropped=len(dropped))
            return real(dm, view, room)

        monkeypatch.setattr(lineflags.moves, "_checked_moves", checked)
        for b, c in margin_pairs(1, 3):
            orbits = enumerate_orbits(b, c)
            for x in orbits:
                for y in orbits:
                    find_chain(x, y)
        orbits = enumerate_orbits((1,) * 5, (1,) * 5)
        rng = random.Random(5)
        pairs = 0
        while pairs < 300:
            x, y = rng.sample(orbits, 2)
            if rk_leq_dec(y, x):
                x, y = y, x
            if rk_leq_dec(x, y):
                find_chain(x, y)
                pairs += 1
        assert counts == {"refused": 5349, "dropped": 2340}

    def test_chains_match_the_public_api_greedy_walk_at_n6(self):
        orbits = enumerate_orbits((1,) * 6, (1,) * 6)
        rng = random.Random(6)
        pairs = steps = 0
        while pairs < 60:
            x, y = rng.sample(orbits, 2)
            if rk_leq_dec(y, x):
                x, y = y, x
            elif not rk_leq_dec(x, y):
                continue
            chain = find_chain(x, y)
            assert chain == greedy_chain_by_public_api(x, y)
            pairs, steps = pairs + 1, steps + len(chain)
        assert steps == 407

    def test_every_result_looked_at_is_validated(self, monkeypatch):
        """The first move from LOW is of kind I, and the greedy walk to
        TOP takes it.  With a kind-I checker whose results leave the
        margins, the walk raises; so it does, with the code ``validate``
        gives, when the results have a negative entry, a unit moved to
        another column or a decorated zero."""
        first = applicable_moves(LOW)[0]
        assert first.kind == "I"
        assert find_chain(LOW, TOP)[0] == first
        off_margins(monkeypatch)
        with pytest.raises(ValidationError) as info:
            find_chain(LOW, TOP)
        assert info.value.code == "BadRowSum(1)"
        monkeypatch.undo()
        seen = apply_move(LOW, first)
        for change, code in (
            (lambda rows, delta: (((2, -1),) + rows[1:], delta), "NegativeEntry(1,2)"),
            (lambda rows, delta: ((rows[0][::-1],) + rows[1:], delta), "BadColSum(1)"),
            (lambda rows, delta: (rows, ((1, 2),)), "ZeroEntryDecorated(1,2)"),
        ):
            rows, delta = change(seen.matrix.m, seen.delta)
            assert validate(TransportMatrix(rows, LOW.matrix.b, LOW.matrix.c), delta) == code
            with monkeypatch.context() as patch:
                broken_kind_i(patch, change)
                with pytest.raises(ValidationError) as info:
                    find_chain(LOW, TOP)
            assert info.value.code == code

    def test_a_kind_i_step_keeps_its_matrix_part(self, monkeypatch):
        """On every pair of full flags n=3, each step after a kind-I step
        checks its moves on the same matrix part, with what that part has
        kept, and each step after another kind on a new part of its own
        matrix."""
        real = lineflags.moves._checked_moves
        seen = []

        def checked(dm, view=None, room=None):
            assert view.mat.tm == dm.matrix
            seen.append(view.mat)
            return real(dm, view, room)

        monkeypatch.setattr(lineflags.moves, "_checked_moves", checked)
        kept = {True: 0, False: 0}
        orbits = enumerate_orbits((1, 1, 1), (1, 1, 1))
        for x in orbits:
            for y in orbits:
                seen.clear()
                chain = find_chain(x, y) or []
                assert len(seen) == len(chain)
                for mv, mat, after in zip(chain, seen, seen[1:]):
                    assert (after is mat) == (mv.kind == "I")
                    kept[after is mat] += 1
        assert kept[True] > 0 and kept[False] > 0

    def test_a_walk_validates_each_orbit_once(self, monkeypatch):
        """An ``x`` with list rows is not kept, so its tables are read once
        and its view built from them: a walk validates ``x`` and ``y``
        once each, and the orbits it passes through not at all."""
        calls = []
        real = lineflags.decorated.raise_if_invalid

        def counted(matrix, delta=None):
            calls.append(matrix)
            return real(matrix, delta)

        monkeypatch.setattr(lineflags.decorated, "raise_if_invalid", counted)
        (m, b, c), delta = from_permutation((1, 2, 3), (1,))
        x = DecoratedMatrix(TransportMatrix(tuple(map(list, m)), b, c), delta)
        y = from_permutation((3, 2, 1), (1, 2, 3))
        chain = find_chain(x, y)
        assert len(chain) > 1
        assert calls == [x.matrix, y.matrix]

    def test_every_comparable_pair_gets_a_valid_chain(self, poset3):
        els = poset3.elements
        for x in els:
            for y in els:
                chain = find_chain(x, y)
                if not rk_leq_dec(x, y):
                    assert chain is None
                    continue
                z = x
                for mv in chain:
                    z = apply_move(z, mv)
                assert z == y


def sabotage(monkeypatch, drop=(), extra=None):
    """Break the move generator: ``drop`` holds elements whose moves are
    withheld, ``extra = (source, target)`` adds a fake move between two
    orbits."""
    real = lineflags.moves._checked_moves
    def checked(dm, view=None):
        if dm not in drop:
            yield from real(dm, view)
        if extra and dm == extra[0]:
            yield "V", ((0, 0), (0, 0)), (extra[1].matrix.m, extra[1].delta)

    monkeypatch.setattr(lineflags.moves, "_checked_moves", checked)


# The 5-element order on (1,1) x (1,1); indices as in the Hasse diagram:
# 3 -> 0, 3 -> 2, 3 -> 4 at the bottom, 0 -> 1, 2 -> 1, 4 -> 1 at the top.
LOW = from_permutation((1, 2), (1,))  # index 3, the minimum
MID = from_permutation((2, 1), (1,))  # index 0, covered only by the maximum
TOP = from_permutation((2, 1), (1, 2))  # index 1, the maximum


class TestSabotagedMoves:
    def test_withheld_move_fails_closure_covers_and_chains(self, monkeypatch):
        sabotage(monkeypatch, drop=(MID,))
        report = verify_equivalence((1, 1), (1, 1))
        assert (report.element_count, report.cover_count) == (5, 6)
        assert not report.order_equivalent
        assert report.moves_are_covers
        assert not report.covers_are_moves
        assert not report.chains_ok
        assert report.counterexamples == (
            "element 0: move closure and rank order disagree",
            "cover 0->1 is not realized by a move",
            "no greedy chain from 0 to 1",
        )

    def test_non_cover_edge_fails_moves_are_covers(self, monkeypatch):
        sabotage(monkeypatch, extra=(LOW, TOP))
        report = verify_equivalence((1, 1), (1, 1))
        assert report.order_equivalent
        assert not report.moves_are_covers
        assert report.covers_are_moves
        assert report.chains_ok
        assert report.counterexamples == ("move edge 3->1 is not a cover",)

    def test_a_target_above_a_failing_element_reaches_what_lies_above_it(self, monkeypatch):
        """A fake move down from MID breaks the closure at MID, but MID's
        real move reaches everything above it, so every greedy chain
        arrives."""
        sabotage(monkeypatch, extra=(MID, LOW))
        report = verify_equivalence((1, 1), (1, 1))
        assert not report.order_equivalent
        assert report.chains_ok
        assert report.counterexamples == (
            "element 0: move closure and rank order disagree",
            "move edge 0->3 is not a cover",
        )

    def test_build_poset_raises(self, monkeypatch):
        sabotage(monkeypatch, drop=(MID,))
        with pytest.raises(OrderCheckFailed, match="move closure differs"):
            build_poset((1, 1), (1, 1))
        build_poset((1, 1), (1, 1), check_reduction=False)
        monkeypatch.undo()
        sabotage(monkeypatch, extra=(LOW, TOP))
        with pytest.raises(OrderCheckFailed, match="edge 3->1 is not a cover"):
            build_poset((1, 1), (1, 1))

    @pytest.mark.parametrize(
        "broken, message",
        [
            ({}, None),
            ({"drop": (MID,)}, "move closure differs from the rank order"),
            ({"extra": (LOW, TOP)}, "move edge 3->1 is not a cover"),
            ({"extra": (MID, LOW)}, "move closure differs from the rank order"),
        ],
        ids=["intact moves", "withheld move", "non-cover upward edge", "downward edge"],
    )
    def test_build_poset_raises_iff_the_report_fails(self, monkeypatch, broken, message):
        """``build_poset`` checks through the report of
        ``verify_equivalence``: it raises exactly when the report fails,
        on a failed closure with one message and otherwise with the first
        counterexample; unchecked, it never raises."""
        sabotage(monkeypatch, **broken)
        report = verify_equivalence((1, 1), (1, 1))
        assert report.passed == (message is None)
        if not report.passed and report.order_equivalent:
            assert message == report.counterexamples[0]
        try:
            build_poset((1, 1), (1, 1))
        except OrderCheckFailed as exc:
            raised = str(exc)
        else:
            raised = None
        assert raised == message
        build_poset((1, 1), (1, 1), check_reduction=False)

    def test_build_poset_raises_under_optimization(self):
        script = textwrap.dedent(
            """
            import lineflags.moves as moves
            from lineflags import OrderCheckFailed, build_poset

            real = moves._checked_moves
            moves._checked_moves = lambda dm, view=None: list(real(dm, view))[1:]
            print("debug", __debug__)
            try:
                build_poset((1, 1), (1, 1))
            except OrderCheckFailed as exc:
                print("raised", exc)
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
            "raised move closure differs from the rank order",
        ]


def broken_kind_i(monkeypatch, change):
    """Break the kind-I checker: ``change(rows, delta)`` rewrites each of
    its results."""
    real = lineflags.moves._TRY["I"]

    def broken(dm, anchors):
        result = real(dm, anchors)
        return result if isinstance(result, str) else change(*result)

    monkeypatch.setitem(lineflags.moves._TRY, "I", broken)


def off_margins(monkeypatch):
    """Break the kind-I checker: its rows gain a unit in the first cell."""
    broken_kind_i(
        monkeypatch, lambda rows, delta: (((rows[0][0] + 1,) + rows[0][1:],) + rows[1:], delta)
    )


class TestResultsThatAreNotOrbits:
    @pytest.mark.parametrize("check", [build_poset, verify_equivalence])
    def test_a_result_off_the_margins_names_the_move(self, monkeypatch, check):
        off_margins(monkeypatch)
        with pytest.raises(OrderCheckFailed) as info:
            check((1, 1), (1, 1))
        assert str(info.value) == "move I (2,1) of element 0 gives no orbit: BadRowSum(1)"

    @pytest.mark.parametrize("check", [build_poset, verify_equivalence])
    def test_a_result_missing_from_the_orbits_names_the_move(self, monkeypatch, check):
        real = lineflags.moves.enumerate_orbits
        monkeypatch.setattr(
            lineflags.moves, "enumerate_orbits", lambda b, c: [x for x in real(b, c) if x != TOP]
        )
        with pytest.raises(OrderCheckFailed) as info:
            check((1, 1), (1, 1))
        assert str(info.value) == "move I (2,1) of element 0 gives no enumerated orbit"

    def test_a_result_off_the_margins_raises_under_optimization(self):
        script = textwrap.dedent(
            """
            import lineflags.moves as moves
            from lineflags import (
                DecoratedMatrix, OrderCheckFailed, TransportMatrix, ValidationError, build_poset,
                find_chain, from_permutation, rk_leq_dec, verify_equivalence,
            )

            real = moves._TRY["I"]

            def broken(dm, anchors):
                result = real(dm, anchors)
                if isinstance(result, str):
                    return result
                rows, delta = result
                return ((rows[0][0] + 1,) + rows[0][1:],) + rows[1:], delta

            moves._TRY["I"] = broken
            print("debug", __debug__)
            for check in (build_poset, verify_equivalence):
                try:
                    check((1, 1), (1, 1))
                except OrderCheckFailed as exc:
                    print("raised", exc)
            try:
                find_chain(from_permutation((1, 2), (1,)), from_permutation((2, 1), (1, 2)))
            except ValidationError as exc:
                print("find_chain raised", exc.code)
            bad = DecoratedMatrix(TransportMatrix(((2, -1), (-1, 2)), (1, 1), (1, 1)), ((1, 1),))
            try:
                rk_leq_dec(bad, from_permutation((1, 2), (1,)))
            except ValidationError as exc:
                print("rk_leq_dec raised", exc.code)
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
            "raised move I (2,1) of element 0 gives no orbit: BadRowSum(1)",
            "raised move I (2,1) of element 0 gives no orbit: BadRowSum(1)",
            "find_chain raised BadRowSum(1)",
            "rk_leq_dec raised NegativeEntry(1,2)",
        ]


class TestEquivalenceReport:
    def test_passes_on_margins_with_multiplicities(self):
        for b, c in (((2, 1), (1, 2)), ((1, 2, 1), (1, 2, 1)), ((2, 2), (1, 2, 1))):
            report = verify_equivalence(b, c)
            assert report.passed, report.counterexamples
            assert report.counterexamples == ()

    def test_the_moves_generate_the_order_on_every_margin_pair_of_mass_five(self):
        """The move/rank theorem one size above the mass <= 4 sweep."""
        pairs = covers = 0
        for b, c in margin_pairs(5, 5):
            report = verify_equivalence(b, c)
            assert report.passed, (b, c, report.counterexamples)
            pairs += 1
            covers += report.cover_count
        assert (pairs, covers) == (256, 92775)

    def test_report_counts_match_poset(self, poset2):
        report = verify_equivalence((1, 1), (1, 1))
        assert report.element_count == len(poset2.elements)
        assert report.cover_count == len(poset2.covers)
        assert report.order_equivalent
        assert report.moves_are_covers
        assert report.covers_are_moves
        assert report.chains_ok
