"""Rank tables and the degeneration order for pairs of partial flags.

Forgetting the line, an orbit of two partial flags with margins
``(b, c)`` is a transport matrix ``M``.  Its *rank table* is

    ``r[i][j] = sum of m[k][l] for k <= i, l <= j``

over the bordered index range ``0..q`` by ``0..r`` (row/column 0 are
zero).  Geometrically ``r[i][j] = dim(B_i ∩ C_j)``, so degeneration,
which can only grow intersections elsewhere, is the *reverse* entrywise
order: ``M <= M'`` iff ``r[i][j] >= r'[i][j]`` everywhere.  The minimum
of the order is the generic orbit, the maximum the most special one.

Every rank comparison here and in :mod:`decorated` reads the flat
row-major list of one kernel, :func:`_ranks`.  This module also provides
the simple moves on transport matrices (southwest corner flips across a
rectangle empty in between), which generate exactly the cover relations
of the order; :func:`_rectangle_clause` states their conditions, which
are the first clauses of the kind-II move.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, ge
from typing import Iterator, NamedTuple, Sequence

from .flagcore import (
    Position,
    ShapeMismatch,
    TransportMatrix,
    ValidationError,
    raise_if_invalid,
    validate_composition,
)
from .order import bits, dominance_masks, generated

__all__ = [
    "RankTable",
    "rank_table",
    "rk_leq",
    "Rectangle",
    "simple_moves",
    "enumerate_transport_matrices",
    "TwoFlagReport",
    "verify_two_flag_theorem",
]


class RankTable(NamedTuple):
    """Bordered table of running sums, indexed ``values[i][j]`` for
    ``0 <= i <= q``, ``0 <= j <= r``."""

    values: tuple[tuple[int, ...], ...]

    @property
    def q(self) -> int:
        return len(self.values) - 1

    @property
    def r(self) -> int:
        return len(self.values[0]) - 1

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.values[i][j]


def _ranks(m: Sequence[Sequence[int]], r: int, top: list[int] | None = None) -> list[int]:
    """The running northwest sums of the ``r``-column rows ``m``, with a
    zero border, as one flat row-major list of ``len(m) + 1`` rows; with
    ``top``, the sums go on from that rank row, which leads the list."""
    ranks = [0] * (r + 1) if top is None else top
    flat = list(ranks)
    for row in m:
        ranks = list(map(add, ranks, accumulate(row, initial=0)))
        flat += ranks
    return flat


def _rank_table(m: Sequence[Sequence[int]], r: int) -> RankTable:
    """:func:`_ranks` cut into the rows of a :class:`RankTable`."""
    flat = _ranks(m, r)
    return RankTable(tuple(tuple(flat[k : k + r + 1]) for k in range(0, len(flat), r + 1)))


def rank_table(tm: TransportMatrix) -> RankTable:
    """Running northwest sums of the matrix, with a zero border.  An
    invalid ``tm`` raises :class:`ValidationError`."""
    raise_if_invalid(tm)
    return _rank_table(tm.m, tm.r)


def _second_differences(v: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The rows whose running northwest sums are the bordered table ``v``,
    when its border is zero."""
    return tuple(
        tuple(v[i][j] - v[i - 1][j] - v[i][j - 1] + v[i - 1][j - 1] for j in range(1, len(v[0])))
        for i in range(1, len(v))
    )


def _check_same_shape(x: TransportMatrix, y: TransportMatrix) -> None:
    if x.b != y.b or x.c != y.c:
        raise ShapeMismatch(f"margins {x.b} x {x.c} vs {y.b} x {y.c}")


def rk_leq(x: TransportMatrix, y: TransportMatrix) -> bool:
    """Degeneration order: every rank of ``x`` >= the rank of ``y``.
    Invalid ``x`` or ``y`` raise :class:`ValidationError`."""
    raise_if_invalid(x)
    raise_if_invalid(y)
    _check_same_shape(x, y)
    return all(map(ge, _ranks(x.m, x.r), _ranks(y.m, y.r)))


class Rectangle(NamedTuple):
    """Corners of an axis-parallel rectangle, ``i0 <= i1`` and ``j0 <= j1``."""

    i0: int
    j0: int
    i1: int
    j1: int


def _flip(
    m: Sequence[Sequence[int]], i0: int, j0: int, i1: int, j1: int
) -> tuple[tuple[int, ...], ...]:
    """The rows of ``m`` with one unit moved from the NW/SE corners
    ``(i0, j0)``, ``(i1, j1)`` of a rectangle to its NE/SW corners."""
    rows = list(m)
    for i, off, on in ((i0, j0, j1), (i1, j1, j0)):
        row = list(rows[i - 1])
        row[off - 1] -= 1
        row[on - 1] += 1
        rows[i - 1] = tuple(row)
    return tuple(rows)


def _corner_flip(tm: TransportMatrix, rect: Rectangle) -> TransportMatrix:
    return TransportMatrix(_flip(tm.m, rect.i0, rect.j0, rect.i1, rect.j1), tm.b, tm.c)


def _nonzero_in_rect(
    m: Sequence[Sequence[int]], i0: int, j0: int, i1: int, j1: int, exempt: frozenset[Position]
) -> Position | None:
    """First nonzero cell of the closed rectangle outside the diagonal
    corners and ``exempt``, in row-major order; None if all are zero."""
    skip = exempt | {(i0, j0), (i1, j1)}
    for i in range(i0, i1 + 1):
        row = m[i - 1]
        for j in range(j0, j1 + 1):
            if row[j - 1] != 0 and (i, j) not in skip:
                return (i, j)
    return None


def _se_corners(m: Sequence[Sequence[int]], i0: int, j0: int) -> list[Position]:
    """The positive cells strictly southeast of ``(i0, j0)`` whose rectangle
    with it holds no other such cell, by row: the far corners of flips."""
    out, limit = [], len(m[0])
    for i in range(i0, len(m)):  # 0-based rows and columns below
        row = m[i]
        for j in range(j0, limit):
            if row[j]:
                out.append((i + 1, j + 1))
                limit = j
                break
    return out


def _rectangle_clause(tm: TransportMatrix, i0: int, j0: int, i1: int, j1: int) -> str | None:
    """First violated condition of the corner flip from ``(i0, j0)`` and
    ``(i1, j1)``, if any: the simple move's conditions, and the first
    clauses of the kind-II move."""
    if not (1 <= i0 <= tm.q and 1 <= i1 <= tm.q and 1 <= j0 <= tm.r and 1 <= j1 <= tm.r):
        return "anchor outside the grid"
    if not (i0 < i1 and j0 < j1):
        return "corners must satisfy i0 < i1 and j0 < j1"
    if tm.entry(i0, j0) <= 0:
        return "entry at (i0,j0) must be positive"
    if tm.entry(i1, j1) <= 0:
        return "entry at (i1,j1) must be positive"
    bad = _nonzero_in_rect(tm.m, i0, j0, i1, j1, frozenset({(i0, j1), (i1, j0)}))
    if bad is not None:
        return f"nonzero entry at {bad} strictly between the corners"
    return None


def simple_moves(tm: TransportMatrix) -> list[Rectangle]:
    """All rectangles supporting a simple move, in lexicographic order.

    A simple move takes one unit off the NW and SE corners of a
    rectangle and adds it to the NE and SW corners; it requires both
    diagonal corners positive and every other cell of the closed
    rectangle, apart from the four corners, zero.  Each move lowers
    exactly the ranks strictly inside the rectangle's NW quadrant span,
    producing a cover of the degeneration order.  The far corners are
    drawn from :func:`_se_corners`, as for the kind-II moves.  An
    invalid ``tm`` raises :class:`ValidationError`.
    """
    raise_if_invalid(tm)
    return _simple_moves(tm)


def _simple_moves(tm: TransportMatrix) -> list[Rectangle]:
    """:func:`simple_moves` of a matrix known to be valid."""
    m = tm.m
    return [
        Rectangle(i0, j0, i1, j1)
        for (i0, j0) in tm.positive_positions()
        for (i1, j1) in _se_corners(m, i0, j0)
        if _nonzero_in_rect(m, i0, j0, i1, j1, frozenset({(i0, j1), (i1, j0)})) is None
    ]


def enumerate_transport_matrices(
    b: tuple[int, ...], c: tuple[int, ...]
) -> list[TransportMatrix]:
    """All matrices with the given margins, in canonical order: each row
    is filled with its candidates in lexicographic order."""
    b, c = tuple(b), tuple(c)
    code = validate_composition(b) or validate_composition(c)
    if code is not None:
        raise ValidationError(code)
    if sum(b) != sum(c):
        raise ValidationError("BadShape")
    q, r = len(b), len(c)
    out: list[TransportMatrix] = []
    rows: list[tuple[int, ...]] = []

    def fill(i: int, remaining_cols: tuple[int, ...]) -> None:
        if i == q:
            if all(x == 0 for x in remaining_cols):
                m = tuple(rows)
                out.append(TransportMatrix(m, b, c))
            return
        for row in _compositions_bounded(b[i], remaining_cols):
            rows.append(row)
            fill(i + 1, tuple(x - y for x, y in zip(remaining_cols, row)))
            rows.pop()

    fill(0, c)
    return out


def _compositions_bounded(total: int, bounds: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer rows summing to ``total`` with entrywise bounds."""
    if len(bounds) == 1:
        if 0 <= total <= bounds[0]:
            yield (total,)
        return
    for first in range(min(total, bounds[0]) + 1):
        for rest in _compositions_bounded(total - first, bounds[1:]):
            yield (first,) + rest


class TwoFlagReport(NamedTuple):
    """Outcome of the exhaustive two-flag verification for one margin pair."""

    b: tuple[int, ...]
    c: tuple[int, ...]
    element_count: int
    cover_count: int
    order_equivalent: bool
    moves_are_covers: bool
    counterexamples: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.order_equivalent and self.moves_are_covers


def verify_two_flag_theorem(b: tuple[int, ...], c: tuple[int, ...]) -> TwoFlagReport:
    """Check, exhaustively, that simple moves generate the rank order.

    For every matrix with margins ``(b, c)``: the reflexive-transitive
    closure of the simple moves must equal the rank-table order, and
    every simple move must be a cover (no third element strictly
    between its endpoints).
    """
    elements = enumerate_transport_matrices(b, c)
    index = {tm.m: k for k, tm in enumerate(elements)}
    edges = [
        sorted({index[_corner_flip(tm, rect).m] for rect in _simple_moves(tm)})
        for tm in elements
    ]
    leq = dominance_masks([_ranks(tm.m, tm.r) for tm in elements])
    disagree, cover_count, not_covers, _ = generated(leq, edges)
    counterexamples = [
        f"element {a}: moves-only {bin(reach & ~leq[a])}, rank-only {bin(leq[a] & ~reach)}"
        for a, reach in disagree.items()
    ]
    # A move that does not go up fails the closure check, not this one.
    not_cover_moves = []
    for a, t in not_covers:
        if t != a and (leq[a] >> t) & 1:
            via = next(z for z in bits(leq[a]) if z not in (a, t) and (leq[z] >> t) & 1)
            not_cover_moves.append(f"move {a} -> {t} is not a cover (via {via})")
    return TwoFlagReport(
        b=tuple(b),
        c=tuple(c),
        element_count=len(elements),
        cover_count=cover_count,
        order_equivalent=not disagree,
        moves_are_covers=not not_cover_moves,
        counterexamples=tuple(counterexamples + not_cover_moves),
    )
