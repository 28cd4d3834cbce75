"""The order kernel: a dominance order, its closure and its covers as bitsets.

Elements are indexed ``0..N-1``; a set of elements is an ``int`` whose
bit ``k`` stands for element ``k``.  An order is the list ``leq`` of
up-sets: bit ``t`` of ``leq[a]`` is set iff ``a <= t``.  Covers are
``T[a] & ~OR(up[t] for t in T[a])`` over the strict up-sets ``up``, where
``T[a]`` holds the targets of ``a`` in ``up[a]`` in a graph generating
the order, such as the move edges (Aho, Garey and Ullman, *The transitive
reduction of a directed graph*, SIAM J. Comput. 1, 1972).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

__all__ = ["bits", "closure", "covers", "dominance_masks"]


def bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def dominance_masks(keys: Sequence[Sequence[int]]) -> list[int]:
    """Up-sets of the order ``a <= t`` iff ``keys[a][i] >= keys[t][i]`` for all ``i``.

    Per coordinate, the elements whose value is at most ``v`` form one
    cumulative bitset; ``leq[a]`` ANDs those selected by ``keys[a]``:
    ``O(N * len(key))`` bitset operations instead of ``N**2`` comparisons.
    """
    leq = [(1 << len(keys)) - 1] * len(keys)
    for column in zip(*keys):
        by_value: dict[int, int] = {}
        for t, v in enumerate(column):
            by_value[v] = by_value.get(v, 0) | (1 << t)
        if len(by_value) == 1:
            continue
        at_most = {}
        acc = 0
        for v in sorted(by_value):
            acc |= by_value[v]
            at_most[v] = acc
        for a, v in enumerate(column):
            leq[a] &= at_most[v]
    return leq


def closure(targets: Sequence[Sequence[int]]) -> list[int]:
    """Reflexive-transitive closure of the graph ``k -> t`` for ``t`` in ``targets[k]``.

    On an acyclic graph one pass in reverse topological order is exact;
    nodes on cycles are swept until nothing changes.
    """
    count = len(targets)
    indegree = [0] * count
    for ts in targets:
        for t in ts:
            indegree[t] += 1
    order = [k for k in range(count) if indegree[k] == 0]
    for k in order:
        for t in targets[k]:
            indegree[t] -= 1
            if indegree[t] == 0:
                order.append(t)
    acyclic = len(order) == count
    order += [k for k in range(count) if indegree[k] > 0]
    reach = [1 << k for k in range(count)]
    changed = True
    while changed:
        changed = False
        for k in reversed(order):
            mask = reach[k]
            for t in targets[k]:
                mask |= reach[t]
            if mask != reach[k]:
                reach[k] = mask
                changed = not acyclic
    return reach


def covers(leq: Sequence[int], targets: Sequence[Iterable[int]] | None = None) -> list[int]:
    """Bit ``t`` of ``covers(leq, targets)[a]`` iff ``a < t`` with nothing
    strictly between, given ``closure(targets) == leq``; by default the
    order is its own generating graph."""
    up = [mask & ~(1 << a) for a, mask in enumerate(leq)]
    out = []
    for a, mask in enumerate(up):
        near = above = 0
        for t in bits(mask) if targets is None else targets[a]:
            if (mask >> t) & 1:
                near |= 1 << t
                above |= up[t]
        out.append(near & ~above)
    return out
