"""End-to-end acceptance gate.

Each test here checks one numbered shipping criterion at its stated
scale and tolerance, and prints a single ``criterion N: PASS`` line
(visible with ``pytest -s`` or in captured output).  Criteria with a
stated time budget assert it via a monotonic clock.
"""

import random
import time
from collections import Counter

from lineflags import (
    apply_basis_change,
    apply_move,
    build_poset,
    dimension_of,
    enumerate_decorations,
    enumerate_orbits,
    enumerate_transport_matrices,
    from_permutation,
    geometric_rank_tables,
    identify_orbit,
    random_int_invertible,
    rank_table,
    rbar_table,
    rk_compare_witness,
    rk_leq,
    rk_leq_dec,
    standard_configuration,
    uncircling_check,
    verify_equivalence,
    verify_move_degeneration,
    verify_two_flag_theorem,
)
from helpers import (
    GOLDEN_N3_LABELS,
    bruhat_covers,
    margin_pairs,
    transitive_reduction,
)


def test_criterion_01_five_orbits_six_covers():
    start = time.monotonic()
    poset = build_poset((1, 1), (1, 1))
    assert len(poset.elements) == 5
    assert len(poset.covers) == 6
    lo = poset.index_of(from_permutation((1, 2), (1,)))
    hi = poset.index_of(from_permutation((2, 1), (1, 2)))
    assert sum(1 for a, _ in poset.covers if a == lo) == 3
    assert sum(1 for _, t in poset.covers if t == hi) == 3
    assert time.monotonic() - start < 1.0
    print("criterion 1: PASS")


def test_criterion_02_twentyeight_orbits_seventytwo_covers():
    start = time.monotonic()
    poset = build_poset((1, 1, 1), (1, 1, 1))
    assert len(poset.elements) == 28
    assert len(poset.covers) == 72
    dims = [dimension_of(el) for el in poset.elements]
    base = min(dims)
    levels = Counter(d - base for d in dims)
    assert [levels[k] for k in range(6)] == [1, 4, 8, 9, 5, 1]
    label = {
        name: poset.index_of(from_permutation(w, rows))
        for name, (w, rows) in GOLDEN_N3_LABELS.items()
    }
    min_covers = {t for a, t in poset.covers if a == label["min"]}
    assert min_covers == {label[x] for x in ("a", "b", "c", "d")}
    max_cocovers = {a for a, t in poset.covers if t == label["max"]}
    next_to_top = {k for k, d in enumerate(dims) if d == base + 4}
    assert len(max_cocovers) == 5
    assert max_cocovers == next_to_top
    assert time.monotonic() - start < 5.0
    print("criterion 2: PASS")


def test_criterion_03_decoration_counts_per_permutation():
    order = ((1, 2, 3), (2, 1, 3), (1, 3, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1))
    counts = tuple(
        len(enumerate_decorations(from_permutation(w, (1,)).matrix))
        for w in order
    )
    assert counts == (3, 4, 4, 5, 5, 7)
    print("criterion 3: PASS")


def test_criterion_04_worked_incomparability_witness():
    x = from_permutation((1, 2, 3), (3,))
    y = from_permutation((3, 2, 1), (1, 2))
    assert not rk_leq_dec(x, y)
    assert not rk_leq_dec(y, x)
    assert rk_compare_witness(x, y) == ("rbar", (2, 0), 0, 1)
    print("criterion 4: PASS")


def test_criterion_05_moves_match_covers_for_all_small_margins():
    start = time.monotonic()
    failures = []
    for b, c in margin_pairs(2, 4):
        report = verify_equivalence(b, c)
        if not report.passed:
            failures.append((b, c, report.counterexamples))
    assert failures == []
    assert time.monotonic() - start < 120.0
    print("criterion 5: PASS")


def test_criterion_06_geometric_tables_and_basis_invariance():
    rng = random.Random(31415926)
    discrepancies = []
    for b, c in margin_pairs(2, 4):
        for dm in enumerate_orbits(b, c):
            config = standard_configuration(dm.matrix, dm.delta)
            geo_rank, geo_rbar = geometric_rank_tables(config)
            if (
                geo_rank.values != rank_table(dm.matrix).values
                or geo_rbar.values != rbar_table(dm).values
            ):
                discrepancies.append(("tables", b, c, dm))
                continue
            for _ in range(3):
                g = random_int_invertible(dm.n, rng)
                if identify_orbit(apply_basis_change(config, g)) != dm:
                    discrepancies.append(("basis", b, c, dm))
    assert discrepancies == []
    print("criterion 6: PASS")


def test_criterion_07_every_cover_edge_is_a_degeneration():
    start = time.monotonic()
    failures = []
    edges = 0
    for margins in (((1, 1), (1, 1)), ((1, 1, 1), (1, 1, 1))):
        poset = build_poset(*margins)
        for (a, t), move in zip(poset.covers, poset.cover_moves):
            src, tgt = poset.elements[a], poset.elements[t]
            assert apply_move(src, move) == tgt
            report = verify_move_degeneration(src, move)
            edges += 1
            if not report.passed:
                failures.append((margins, str(move), report.failures))
    assert edges == 6 + 72
    assert failures == []
    assert time.monotonic() - start < 60.0
    print("criterion 7: PASS")


def test_criterion_08_dimension_grading(poset2, poset3, poset4):
    for n, poset in ((2, poset2), (3, poset3), (4, poset4)):
        choose2 = n * (n - 1) // 2
        lo = from_permutation(tuple(range(1, n + 1)), (1,))
        hi = from_permutation(tuple(range(n, 0, -1)), tuple(range(1, n + 1)))
        assert dimension_of(lo) == choose2
        assert dimension_of(hi) == (n - 1) + 2 * choose2
        dims = [dimension_of(el) for el in poset.elements]
        assert dims.count(choose2) == 1
        assert dims.count((n - 1) + 2 * choose2) == 1
        assert min(dims) == choose2
        assert max(dims) == (n - 1) + 2 * choose2
        for a, t in poset.covers:
            assert dims[t] == dims[a] + 1
    print("criterion 8: PASS")


def test_criterion_09_uncircling_every_position_set():
    checked = 0
    for b, c in margin_pairs(2, 3):
        for tm in enumerate_transport_matrices(b, c):
            cells = tm.positive_positions()
            for mask in range(1, 1 << len(cells)):
                marks = [p for k, p in enumerate(cells) if mask >> k & 1]
                assert uncircling_check(tm, marks), (b, c, tm.m, marks)
                checked += 1
    assert checked > 0
    print("criterion 9: PASS")


def test_criterion_10_two_flag_baseline_and_transposition_oracle():
    failures = []
    for b, c in margin_pairs(2, 4):
        report = verify_two_flag_theorem(b, c)
        if not report.passed:
            failures.append((b, c, report.counterexamples))
    assert failures == []
    for n in (2, 3, 4):
        mats = enumerate_transport_matrices((1,) * n, (1,) * n)
        covers = transitive_reduction(
            len(mats), lambda a, t: rk_leq(mats[a], mats[t])
        )
        perm_of = lambda tm: tuple(row.index(1) + 1 for row in tm.m)
        got = {(perm_of(mats[a]), perm_of(mats[t])) for a, t in covers}
        assert got == bruhat_covers(n)
    print("criterion 10: PASS")
