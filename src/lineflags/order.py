"""The order kernel: a dominance order, and a graph checked against it, as bitsets.

Elements are indexed ``0..N-1``; a set of elements is an ``int`` whose
bit ``k`` stands for element ``k``.  An order is the list ``up`` of
strict up-sets: bit ``t`` of ``up[a]`` is set iff ``a < t``.  As the
order is a partial order, a graph generates it iff ``up[a] == (edges |
OR(up[t] for t in targets[a] if t != a)) & ~(1 << a)`` at every ``a``,
where ``edges`` holds the targets of ``a``; where this holds at ``a``,
the covers of ``a`` are the targets above no other target (Aho, Garey and
Ullman, *The transitive reduction of a directed graph*, SIAM J. Comput. 1,
1972).
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_
from typing import Iterable, Iterator, Sequence

__all__ = ["bits", "check"]


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check(
    keys: Sequence[Sequence[int]], targets: Sequence[Iterable[int]]
) -> tuple[list[int], dict[int, int], int, list[tuple[int, int]], list[tuple[int, int]]]:
    """Check the graph ``a -> t`` for ``t`` in ``targets[a]`` against the
    order ``a <= t`` iff ``keys[a][i] >= keys[t][i]`` for all ``i``.

    Returns ``(up, disagree, cover_count, not_covers, not_edges)``: the
    strict up-sets; each element where the identity fails, in increasing
    order, mapped to its right-hand side; the number of covers; and the
    sorted edges ``(a, t)`` that are not covers (self-loops included) and
    covers that are not edges.

    Per coordinate, the elements whose value is at most ``v`` form one
    cumulative bitset, listed by ``v`` minus the column's least value, and
    a column of one value is skipped; ``up[a]`` ANDs those selected by
    ``keys[a]``: ``O(N * len(key))`` bitset operations instead of ``N**2``
    comparisons.
    """
    full = (1 << len(keys)) - 1
    up = [full ^ (1 << a) for a in range(len(keys))]
    for column in zip(*keys):
        low, high = min(column), max(column)
        if low == high:
            continue
        at_most = [0] * (high - low + 1)
        for t, v in enumerate(column):
            at_most[v - low] |= 1 << t
        at_most = list(accumulate(at_most, or_))
        for a, v in enumerate(column):
            up[a] &= at_most[v - low]
    disagree, cover_count, not_covers, not_edges = {}, 0, [], []
    for a, ts in enumerate(targets):
        edges = above = 0
        for t in ts:
            edges |= 1 << t
            if t != a:
                above |= up[t]
        mask = (edges | above) & ~(1 << a)
        if mask == up[a]:
            cover = mask & ~above
        else:
            # The targets do not generate the up-set: read the covers off it.
            disagree[a] = mask
            above = 0
            for z in bits(up[a]):
                above |= up[z]
            cover = up[a] & ~above
        cover_count += cover.bit_count()
        not_covers += [(a, t) for t in bits(edges & ~cover)]
        not_edges += [(a, t) for t in bits(cover & ~edges)]
    return up, disagree, cover_count, not_covers, not_edges
