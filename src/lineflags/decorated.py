"""The degeneration order for a line together with two partial flags.

Adding a line ``A`` to a pair of flags refines each two-flag orbit: the
orbit of ``(A, B, C)`` is a transport matrix plus a decoration, and the
new invariant is the *augmented rank table*

    ``rbar[i][j] = dim(A + (B_i ∩ C_j)) = r[i][j] + delta[i][j]``,

where ``delta[i][j]`` is 1 exactly when the line already lies inside
``B_i + C_j``; in matrix terms, when every decorated position ``(a, b)``
satisfies ``a <= i`` or ``b <= j``.  Degeneration is again the reverse
entrywise order, now on the pair of tables ``(r, rbar)`` jointly.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress, count
from operator import add, itemgetter, lt, ne
from typing import Iterable, NamedTuple, Sequence

from .flagcore import (
    DecoratedMatrix,
    FlagError,
    Position,
    TransportMatrix,
    _delta_code,
    _int_pairs,
    _is_int,
    _require_orbit,
    _require_positions,
    raise_if_invalid,
    validate,
)
from .twoflags import (
    RankTable,
    _check_same_shape,
    _ranks,
    _second_differences,
    enumerate_transport_matrices,
)

__all__ = [
    "NotAnOrbitInvariant",
    "RBarTable",
    "delta_table",
    "rbar_table",
    "invariant",
    "rk_leq_dec",
    "rk_compare_witness",
    "rk_first_difference",
    "enumerate_decorations",
    "enumerate_orbits",
    "decorated_from_tables",
    "dimension_of",
]


class NotAnOrbitInvariant(FlagError):
    """The given tables do not arise from any decorated matrix."""


class RBarTable(NamedTuple):
    """Augmented ranks and their 0/1 increments over the bordered grid.

    ``values[i][j] = r[i][j] + delta_values[i][j]`` for
    ``0 <= i <= q``, ``0 <= j <= r``; ``q``, ``r`` and ``t[i, j]`` read
    ``values`` as those of :class:`RankTable` do.
    """

    values: tuple[tuple[int, ...], ...]
    delta_values: tuple[tuple[int, ...], ...]

    q, r, __getitem__ = RankTable.q, RankTable.r, RankTable.__getitem__


def _threshold_table(
    cells: Iterable[Position], q: int, r: int
) -> tuple[tuple[int, ...], ...]:
    """The bordered 0/1 table that is 1 at ``(i, j)`` unless some cell
    ``(a, b)`` has ``a > i`` and ``b > j``.  Cells may lie one step past
    the grid (``a = q + 1`` or ``b = r + 1``)."""
    # below[i]: the largest column of a cell in a row > i.  Cells come by
    # increasing column, so a later one overwrites a smaller value.  A cell
    # above row 1, in a decoration that is not valid, bounds no row.
    below = [0] * (q + 1)
    for (a, b) in sorted(cells, key=itemgetter(1)):
        below[: max(a, 0)] = [b] * a
    return tuple((0,) * t + (1,) * (r + 1 - t) for t in below)


def delta_table(dm: DecoratedMatrix) -> tuple[tuple[int, ...], ...]:
    """The 0/1 table of line membership, ``delta[i][j]`` over the border.

    ``delta[i][j] = 1`` iff every decorated ``(a, b)`` has ``a <= i`` or
    ``b <= j`` — equivalently, iff ``j`` reaches the largest column of a
    decorated cell in the rows below ``i``.  A decorated cell that is not
    a tuple or list of two raises ``ValidationError("BadShape")``, one with
    a coordinate that is not an int ``NotAnInteger(delta)``, and any other
    invalid ``dm`` the code :func:`validate` gives it: the ``k``-th
    decorated cell outside the grid ``BadPosition(k)``.
    """
    return _valid_tables(dm).free


def rbar_table(dm: DecoratedMatrix) -> RBarTable:
    """Augmented rank table ``r + delta`` of a decorated matrix, which is
    checked as :func:`delta_table` checks it."""
    tables = _valid_tables(dm)
    rbar, w = tables.rbar, dm.r + 1
    rows = tuple(tuple(rbar[k : k + w]) for k in range(0, len(rbar), w))
    return RBarTable(rows, tables.free)


def _valid_tables(dm: DecoratedMatrix) -> _Tables:
    """:meth:`_Tables.of` after the decoration is checked to be made of
    int pairs."""
    _require_orbit(dm)
    _require_positions("delta", dm.delta)
    return _Tables.of(dm)


def _rbar(ranks: list[int], free: Iterable[Iterable[int]]) -> list[int]:
    """The augmented ranks ``r + delta`` as one flat row-major list, from
    the flat ranks of :func:`_ranks` and the threshold table."""
    return list(map(add, ranks, chain.from_iterable(free)))


def _key(ranks: list[int], rbar: list[int]) -> tuple[int, ...]:
    """:func:`invariant` from the flat ranks and augmented ranks."""
    key = [0] * (2 * len(ranks))
    key[::2] = ranks
    key[1::2] = rbar
    return tuple(key)


class _Tables:
    """A valid orbit's threshold table, flat ranks and flat augmented
    ranks, each built on first use, and the view :mod:`moves` reads the
    orbit by, once it is built."""

    # The last two orbits ``of`` looked up that are made of tuples alone,
    # the latest first, each with its tables.
    _kept: list = []

    def __init__(self, dm: DecoratedMatrix):
        self.m, self.r, self.view = dm.matrix.m, dm.r, None
        self.free = _threshold_table(dm.delta, dm.q, dm.r)

    @cached_property
    def ranks(self) -> list[int]:
        return _ranks(self.m, self.r)

    @cached_property
    def rbar(self) -> list[int]:
        return _rbar(self.ranks, self.free)

    @classmethod
    def of(cls, dm: DecoratedMatrix) -> _Tables:
        """The tables of ``dm``, which is validated unless it is one of the
        two orbits kept.  An orbit made of tuples alone cannot change, so
        it is kept by identity, and the one looked up least recently of
        the two kept before it is dropped.  An invalid ``dm`` raises
        :class:`ValidationError`."""
        kept = cls._kept
        for k, (orbit, tables) in enumerate(kept):
            if orbit is dm:
                if k:
                    kept.reverse()
                return tables
        _require_orbit(dm)
        raise_if_invalid(dm.matrix, dm.delta)
        tables = cls(dm)
        (m, b, c), delta = dm
        if (
            type(dm) is DecoratedMatrix
            and type(dm.matrix) is TransportMatrix
            and all(type(x) is tuple for x in (m, b, c, *m))
            and _int_pairs(delta)
        ):
            kept[:] = [(dm, tables), *kept[:1]]
        return tables


def invariant(dm: DecoratedMatrix) -> tuple[int, ...]:
    """The orbit's tables as one flat key: ``(r, rbar)`` at every bordered
    position, row-major, ``r`` before ``rbar``.

    Orbits with the same margins are equal iff their invariants are, and
    ``x <= y`` iff ``invariant(x)`` is entrywise ``>=`` ``invariant(y)``.
    An invalid ``dm`` raises :class:`ValidationError`.
    """
    tables = _Tables.of(dm)
    return _key(tables.ranks, tables.rbar)


def rk_leq_dec(x: DecoratedMatrix, y: DecoratedMatrix) -> bool:
    """Degeneration order: both tables of ``x`` >= those of ``y`` entrywise.
    Invalid ``x`` or ``y`` raise :class:`ValidationError`."""
    return rk_compare_witness(x, y) is None


def _first(x: DecoratedMatrix, y: DecoratedMatrix, differs) -> tuple | None:
    """``(table, (i, j), xval, yval)`` at the first entry of the invariants
    where ``differs(xval, yval)``, read off the flat tables of
    :class:`_Tables`: the first rank that differs, unless an ``rbar``
    entry before it differs."""
    tx, ty = _Tables.of(x), _Tables.of(y)
    _check_same_shape(x.matrix, y.matrix)
    (rx, bx), (ry, by) = (tx.ranks, tx.rbar), (ty.ranks, ty.rbar)
    k = next(compress(count(), map(differs, rx, ry)), len(rx))
    kb = next(compress(count(), map(differs, bx[:k], by)), None)
    if kb is not None:
        return ("rbar", divmod(kb, x.r + 1), bx[kb], by[kb])
    if k < len(rx):
        return ("r", divmod(k, x.r + 1), rx[k], ry[k])
    return None


def rk_compare_witness(
    x: DecoratedMatrix, y: DecoratedMatrix
) -> tuple[str, tuple[int, int], int, int] | None:
    """First witness against ``x <= y``, or None if the comparison holds.

    Scans the bordered grid in row-major order, checking ``r`` before
    ``rbar`` at each position; returns ``(table, (i, j), xval, yval)``
    with ``table`` one of ``"r"``, ``"rbar"`` where ``xval < yval``.
    Invalid ``x`` or ``y`` raise :class:`ValidationError`.
    """
    return _first(x, y, lt)


def rk_first_difference(
    x: DecoratedMatrix, y: DecoratedMatrix
) -> tuple[str, tuple[int, int], int, int] | None:
    """First position where the invariants of ``x`` and ``y`` differ.

    Same scan order as :func:`rk_compare_witness`; None iff ``x`` and
    ``y`` have identical tables (hence are the same orbit).  Invalid
    ``x`` or ``y`` raise :class:`ValidationError`.
    """
    return _first(x, y, ne)


def enumerate_decorations(tm: TransportMatrix) -> list[tuple[Position, ...]]:
    """All NE-to-SW staircases on the positive entries of ``tm``.

    Each staircase is a nonempty antichain, returned sorted by row; the
    list is in lexicographic order of the sorted staircases.  An invalid
    ``tm`` raises :class:`ValidationError`.
    """
    raise_if_invalid(tm)
    return _enumerate_decorations(tm)


def _enumerate_decorations(tm: TransportMatrix) -> list[tuple[Position, ...]]:
    """:func:`enumerate_decorations` of a valid ``tm``, unchecked."""
    pts = tm.positive_positions()
    out: list[tuple[Position, ...]] = []
    prefix: list[Position] = []

    def extend(start: int) -> None:
        for idx in range(start, len(pts)):
            (i, j) = pts[idx]
            if prefix and not (i > prefix[-1][0] and j < prefix[-1][1]):
                continue
            prefix.append((i, j))
            out.append(tuple(prefix))
            extend(idx + 1)
            prefix.pop()

    extend(0)
    return out


def enumerate_orbits(b: tuple[int, ...], c: tuple[int, ...]) -> list[DecoratedMatrix]:
    """All decorated matrices with margins ``(b, c)``, in canonical order:
    the matrices come in that order, and the decorations of each too."""
    return [
        DecoratedMatrix(tm, delta)
        for tm in enumerate_transport_matrices(b, c)
        for delta in _enumerate_decorations(tm)
    ]


def decorated_from_tables(
    rank_values: Sequence[Sequence[int]],
    delta_values: Sequence[Sequence[int]],
) -> DecoratedMatrix:
    """Reconstruct the orbit from its two tables.

    Inverts :func:`rank_table` by second differences and reads the
    decoration off the maximal zeros of the delta table; raises
    :class:`NotAnOrbitInvariant` unless the tables round-trip exactly;
    entries are not coerced, so a float, string or bool raises too.
    """
    try:
        rv = tuple(tuple(row) for row in rank_values)
        dv = tuple(tuple(row) for row in delta_values)
    except TypeError:
        raise NotAnOrbitInvariant("table shapes") from None
    if not all(map(_is_int, chain(*rv, *dv))):
        raise NotAnOrbitInvariant("table entries")
    if len(rv) < 2 or len(rv[0]) < 2 or len(dv) != len(rv) or any(
        len(a) != len(b) or len(b) != len(rv[0]) for a, b in zip(dv, rv)
    ):
        raise NotAnOrbitInvariant("table shapes")
    dm = _orbit_of(_second_differences(rv), dv)
    # Summing the second differences gives the rank table back iff its border is 0.
    if any(rv[0]) or any(row[0] for row in rv):
        raise NotAnOrbitInvariant("tables do not round-trip")
    return dm


def _orbit_of(
    counts: tuple[tuple[int, ...], ...], dv: tuple[tuple[int, ...], ...]
) -> DecoratedMatrix:
    """The orbit whose matrix has the ``int`` rows ``counts``, with the
    margins they sum to, and whose bordered threshold table is ``dv``.
    The matrix is validated once.  Raises :class:`NotAnOrbitInvariant`
    with the code of the first rule the matrix breaks, or when ``dv`` is
    not the threshold table of a valid decoration of it."""
    tm = TransportMatrix(counts, tuple(map(sum, counts)), tuple(map(sum, zip(*counts))))
    code = validate(tm)
    if code is not None:
        raise NotAnOrbitInvariant(f"rank table: {code}")
    # The decoration is the set of maximal zeros, each moved one step
    # southeast.  Only a row's last zero can be maximal, and it is when it
    # lies east of every zero in the rows below.
    corners, east = [], -1
    for i in reversed(range(len(dv))):
        last = max((j for j, x in enumerate(dv[i]) if x == 0), default=-1)
        if last > east:
            corners.append((i + 1, last + 1))
            east = last
    if not corners:
        raise NotAnOrbitInvariant("delta table has no zero")
    delta = tuple(reversed(corners))
    code = _delta_code(tm.m, tm.q, tm.r, delta)
    if code is not None:
        raise NotAnOrbitInvariant(code)
    if _threshold_table(delta, tm.q, tm.r) != dv:
        raise NotAnOrbitInvariant("tables do not round-trip")
    return DecoratedMatrix(tm, delta)


def dimension_of(dm: DecoratedMatrix) -> int:
    """Dimension of the orbit, for any margins: ``Σ_{i<i'} b_i b_i' +
    Σ_{j<j'} c_j c_j' − Σ_{i<i', j<j'} m_ij m_i'j' + mass(↓δ) − 1``, where
    ``↓δ`` holds the cells weakly northwest of a decorated cell.  The first
    three terms are the dimension of the two-flag orbit, the last two that
    of the line's orbit under the pair's stabilizer.  An invalid ``dm``
    raises :class:`ValidationError`."""
    rbar = _Tables.of(dm).rbar
    (m, b, c), n, w = dm.matrix, dm.n, dm.r + 1
    # Mass r[i-1][j-1] lies strictly northwest of the cell (i, j), which is in
    # ↓δ iff delta[i-1][j-1] = 0: the last three terms are n − 1 − Σ m_ij rbar[i-1][j-1].
    dim = (2 * n * n - sum(x * x for x in b + c)) // 2 + n - 1
    return dim - sum(x * rbar[i * w + j] for i, row in enumerate(m) for j, x in enumerate(row))
