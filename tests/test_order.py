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
from lineflags.order import bits, check
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


def strict(leq):
    """The up-sets ``leq`` with each element's own bit cleared."""
    return [mask & ~(1 << a) for a, mask in enumerate(leq)]


def up_set_keys(leq):
    """Keys of the order ``leq``: each element's up-set as an indicator
    row, so that ``a <= t`` iff ``key[a] >= key[t]`` entrywise."""
    return [tuple((mask >> x) & 1 for x in range(len(leq))) for mask in leq]


def reachable(targets, k):
    """Every node reachable from ``k``, by a plain graph search."""
    seen, stack = {k}, [k]
    while stack:
        for t in targets[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return sum(1 << t for t in seen)


def reduction_of(leq):
    return transitive_reduction(len(leq), lambda a, t: (leq[a] >> t) & 1)


def cover_pairs(masks):
    return [(a, t) for a, mask in enumerate(masks) for t in bits(mask)]


def covers_of(keys):
    """The kernel's covers of the order of ``keys``: with no edges every
    cover is a cover that is not an edge."""
    return check(keys, [[]] * len(keys))[4]


def reach_of(up, disagree):
    """The right-hand sides of the identity, rebuilt from where it fails."""
    return [disagree.get(a, up[a]) for a in range(len(up))]


MARGINS = margin_pairs(1, 4)


@pytest.mark.parametrize("keys_of", [decorated_keys, two_flag_keys])
def test_masks_and_covers_match_the_oracles(keys_of):
    for b, c in MARGINS:
        keys = keys_of(b, c)
        leq = pairwise_masks(keys)
        expected = reduction_of(leq)
        # With no edges the covers are read off the up-sets; with the
        # order as its own graph, off the targets.
        assert covers_of(keys) == expected, (b, c)
        up, disagree, cover_count, not_covers, not_edges = check(
            keys, [list(bits(m)) for m in leq]
        )
        assert up == strict(leq), (b, c)
        assert (disagree, cover_count, not_edges) == ({}, len(expected), []), (b, c)
        assert sorted(set(cover_pairs(leq)) - set(not_covers)) == expected, (b, c)


def random_order(rng, count):
    """A random partial order on ``count`` elements and a graph generating it."""
    rank = list(range(count))
    rng.shuffle(rank)
    # Edges go up in ``rank``: a DAG, hence a partial order.
    targets = [
        [t for t in range(count) if rank[t] > rank[a] and rng.random() < 0.3]
        for a in range(count)
    ]
    return [reachable(targets, a) for a in range(count)], targets


def perturb(rng, leq, targets, how):
    """Change the generating graph ``targets`` in place, as ``how`` says.

    Returns whether the changed graph still generates ``leq``."""
    count = len(leq)
    below = [(a, t) for a in range(count) for t in bits(leq[a]) if t != a]
    if how == "dropped edge" and below:
        a, t = rng.choice(reduction_of(leq))
        targets[a] = [s for s in targets[a] if s != t]
        return False
    if how == "down edge" and below:
        a, t = rng.choice(below)
        targets[t].append(a)
        return False
    if how == "two-cycle" and count > 1:
        a, t = rng.sample(range(count), 2)
        targets[a].append(t)
        targets[t].append(a)
        return False
    if how == "self-loop":
        a = rng.randrange(count)
        targets[a].append(a)
    if how == "repeated edges":
        for ts in targets:
            ts += rng.sample(ts, min(len(ts), 2))
    # A non-cover edge inside the order changes nothing either.
    if below:
        a, t = rng.choice(below)
        targets[a].append(t)
    for ts in targets:
        rng.shuffle(ts)
    return True


PERTURBATIONS = ["none", "dropped edge", "down edge", "two-cycle", "self-loop", "repeated edges"]


@pytest.mark.parametrize("how", PERTURBATIONS)
def test_generated_matches_graph_search_on_perturbed_orders(how):
    rng = random.Random(f"1972 {how}")
    branches = set()
    for count in (1, 2, 5, 12, 30):
        for _ in range(20):
            leq, targets = random_order(rng, count)
            generates = perturb(rng, leq, targets, how)
            keys = up_set_keys(leq)
            up, disagree, cover_count, not_covers, not_edges = check(keys, targets)
            assert up == strict(leq)
            reach = reach_of(up, disagree)
            assert list(disagree) == [a for a in range(count) if reach[a] != up[a]]
            searched = [reachable(targets, a) for a in range(count)]
            assert (searched == leq) == generates
            assert (reach == up) == generates
            # One element at a time: every other target lies strictly
            # above, and every cover is a target.
            covers = reduction_of(leq)
            for a in range(count):
                local = all((up[a] >> t) & 1 for t in targets[a] if t != a) and all(
                    t in targets[a] for s, t in covers if s == a
                )
                assert (reach[a] == up[a]) == local
                branches.add(local)
            assert covers_of(keys) == covers
            assert cover_count == len(covers)
            edges = {(a, t) for a, ts in enumerate(targets) for t in ts}
            assert not_covers == sorted(edges - set(covers))
            assert not_edges == sorted(set(covers) - edges)
    # A graph that fails somewhere exercises both ways of reading the covers.
    breaks = how in ("dropped edge", "down edge", "two-cycle")
    assert branches == ({True, False} if breaks else {True})


def test_covers_from_the_move_edges_match_the_oracle():
    for b, c in MARGINS:
        elements = tuple(enumerate_orbits(b, c))
        targets = _move_edges(elements)[1]
        keys = [invariant(el) for el in elements]
        up, disagree, cover_count, not_covers, not_edges = check(keys, targets)
        leq = pairwise_masks(keys)
        assert (up, disagree) == (strict(leq), {}), (b, c)
        covers = sorted({(a, t) for a, ts in enumerate(targets) for t in ts})
        assert covers == reduction_of(leq), (b, c)
        assert cover_count == len(covers), (b, c)
        assert not_covers == not_edges == [], (b, c)


def test_closure_of_a_cover_graph_is_the_order():
    for b, c in MARGINS:
        keys = decorated_keys(b, c)
        covers = covers_of(keys)
        targets = [[t for s, t in covers if s == a] for a in range(len(keys))]
        assert check(keys, targets)[1:] == ({}, len(covers), [], []), (b, c)


def test_bits_lists_set_bits_in_order():
    assert list(bits(0)) == []
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(1 << 200)) == [200]


def test_degenerate_inputs():
    assert check([], []) == ([], {}, 0, [], [])
    # Equal keys lie above each other, neither strictly above itself.
    assert check([(), ()], [[], []])[0] == [0b10, 0b01]
    assert check([()], [[0]]) == ([0], {}, 0, [(0, 0)], [])
    # 0 < 1 with no edge: the identity fails at 0, whose right-hand side
    # is empty, and the cover 0 -> 1 is no edge.
    assert check([(1,), (0,)], [[], []]) == ([0b10, 0], {0: 0}, 1, [], [(0, 1)])
