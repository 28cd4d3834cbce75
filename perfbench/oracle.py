"""The degeneration order from its definition, independent of ``lineflags``.

An orbit is given by its matrix ``m`` (rows of nonnegative integers) and
its decoration ``delta`` (1-based positions).  Its invariant is the pair
of bordered tables ``r[i][j]``, the northwest sum of ``m``, and
``rbar = r + d`` with ``d[i][j] = 1`` iff every decorated ``(a, b)`` has
``a <= i`` or ``b <= j``.  ``x <= y`` iff both tables of ``x`` are
entrywise at least those of ``y``.  The benchmark uses this to make its
chain queries and to check the program's answers.
"""

from __future__ import annotations

from typing import Sequence

Key = tuple[int, ...]


def key(m: Sequence[Sequence[int]], delta: Sequence[Sequence[int]]) -> Key:
    """Both tables of one orbit, flattened row by row."""
    q, r = len(m), len(m[0])
    rank = [[0] * (r + 1) for _ in range(q + 1)]
    for i in range(1, q + 1):
        row_sum = 0
        for j in range(1, r + 1):
            row_sum += m[i - 1][j - 1]
            rank[i][j] = rank[i - 1][j] + row_sum
    flat = [v for row in rank for v in row]
    flat += [
        rank[i][j] + all(a <= i or b <= j for (a, b) in delta)
        for i in range(q + 1)
        for j in range(r + 1)
    ]
    return tuple(flat)


def leq(kx: Key, ky: Key) -> bool:
    return all(a >= b for a, b in zip(kx, ky))


def relation(kx: Key, ky: Key) -> str:
    """``=``, ``<``, ``>`` or ``incomparable``, as ``lineflags compare``
    prints it on its first line."""
    if kx == ky:
        return "="
    if leq(kx, ky):
        return "<"
    if leq(ky, kx):
        return ">"
    return "incomparable"
