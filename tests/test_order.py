"""The bitset order kernel against the brute-force oracles."""

import random

import pytest

from lineflags import (
    enumerate_orbits,
    enumerate_transport_matrices,
    invariant,
    rank_table,
    rbar_table,
)
from lineflags.moves import _move_edges
from lineflags.order import bits, closure, covers, dominance_masks
from helpers import margin_pairs, transitive_reduction


def decorated_keys(b, c):
    return [
        tuple(v for row in rank_table(el.matrix).values for v in row)
        + tuple(v for row in rbar_table(el).values for v in row)
        for el in enumerate_orbits(b, c)
    ]


def two_flag_keys(b, c):
    return [
        tuple(v for row in rank_table(tm).values for v in row)
        for tm in enumerate_transport_matrices(b, c)
    ]


def pairwise_masks(keys):
    """The order straight from its definition, one pair at a time."""
    return [
        sum(
            1 << t
            for t in range(len(keys))
            if all(x >= y for x, y in zip(keys[a], keys[t]))
        )
        for a in range(len(keys))
    ]


def reachable(targets, k):
    """Every node reachable from ``k``, by a plain graph search."""
    seen, stack = {k}, [k]
    while stack:
        for t in targets[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return sum(1 << t for t in seen)


MARGINS = margin_pairs(1, 4)


@pytest.mark.parametrize("keys_of", [decorated_keys, two_flag_keys])
def test_masks_and_covers_match_the_oracles(keys_of):
    for b, c in MARGINS:
        keys = keys_of(b, c)
        leq = dominance_masks(keys)
        assert leq == pairwise_masks(keys), (b, c)
        assert cover_pairs(covers(leq)) == reduction_of(leq), (b, c)


def reduction_of(leq):
    return transitive_reduction(len(leq), lambda a, t: (leq[a] >> t) & 1)


def cover_pairs(masks):
    return [(a, t) for a, mask in enumerate(masks) for t in bits(mask)]


def test_covers_from_generating_edges_with_redundancy_and_self_loops():
    rng = random.Random(1972)
    for count in (1, 2, 5, 12, 30):
        for _ in range(20):
            rank = list(range(count))
            rng.shuffle(rank)
            # Edges go up in ``rank``: a DAG, hence a partial order.
            targets = [
                [t for t in range(count) if rank[t] > rank[a] and rng.random() < 0.2]
                for a in range(count)
            ]
            leq = closure(targets)
            for a, ts in enumerate(targets):
                # Redundant edges: a repeat, a self-loop and a reachable non-cover.
                ts += rng.sample(ts, min(len(ts), 1)) + [a] * rng.randrange(2)
                ts += rng.sample(list(bits(leq[a])), 1)
                rng.shuffle(ts)
            assert closure(targets) == leq
            expected = reduction_of(leq)
            assert cover_pairs(covers(leq, targets)) == expected
            assert cover_pairs(covers(leq)) == expected


def test_covers_from_the_move_edges_match_the_oracle():
    for b, c in MARGINS:
        elements = tuple(enumerate_orbits(b, c))
        targets = _move_edges(elements)[1]
        leq = dominance_masks([invariant(el) for el in elements])
        assert closure(targets) == leq, (b, c)
        assert cover_pairs(covers(leq, targets)) == reduction_of(leq), (b, c)


def test_closure_of_a_cover_graph_is_the_order():
    for b, c in MARGINS:
        leq = dominance_masks(decorated_keys(b, c))
        targets = [list(bits(mask)) for mask in covers(leq)]
        assert closure(targets) == leq, (b, c)


def test_closure_matches_graph_search_with_cycles_and_repeats():
    rng = random.Random(20021)
    for count in (1, 2, 5, 12, 30):
        for _ in range(20):
            targets = [
                [rng.randrange(count) for _ in range(rng.randrange(4))]
                for _ in range(count)
            ]
            assert closure(targets) == [reachable(targets, k) for k in range(count)]


def test_bits_lists_set_bits_in_order():
    assert list(bits(0)) == []
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(1 << 200)) == [200]


def test_degenerate_inputs():
    assert dominance_masks([]) == []
    assert dominance_masks([(), ()]) == [0b11, 0b11]
    assert closure([]) == []
    assert covers([0b1]) == [0]
