"""The simple moves on decorated matrices and the cover structure they span.

Each move rearranges one unit of mass and/or the decoration of a
decorated transport matrix, producing the immediately more generic
orbits: the moves are exactly the covers of the degeneration order.
There are five families:

* ``I`` — decorate an existing positive entry whose northwest region is
  already accounted for.
* ``II`` — flip a unit from the NW/SE corners of an empty rectangle to
  its NE/SW corners, keeping the decoration.
* ``IIIa``/``IIIb`` — the same flip when the NW corner is decorated
  with a bare unit; the decoration slides to the NE (resp. SW) corner.
* ``IVa``/``IVb``/``IVc`` — flips interacting with one or two interior
  decorated cells.
* ``V`` — a cascade: a unit leaves a pivot northwest of a consecutive
  run of decorated cells, shifting each circle one step along the run.

Swapping the two flags transposes the matrix and takes ``IIIa`` and
``IVb`` to ``IIIb`` and ``IVc``.  Each mirror pair shares one checker,
which takes the orientation as a flag and reads the orbit in its own
coordinates.  ``apply_move`` checks every stated condition and raises
:class:`PreconditionFailed` naming the first violated clause: the
number of anchors and their place in the grid for every kind alike,
then the kind's own conditions in its checker.  The pipeline checks
each candidate move once.

The checkers read an orbit in two parts.  The matrix part,
:class:`_Matrix`, holds the rows, which the checkers index directly,
and its cells with mass; it answers what depends on the transport
matrix alone: far corners, and the clause and flipped rows of each
corner pair, each kept once computed.  The orbit part, :class:`_Orbit`,
adds the decoration, read in its staircase order, and the threshold
table that answers whether a cell lies northwest of the decoration.  A
checker that decorates a new cell inserts it into the staircase.
``_Orbit.of`` reads the orbit through :class:`_Tables`, which keeps the
last two orbits made of tuples, validated, with their tables; the view
is built once and kept with them.  So a caller that lists an orbit's
moves and applies each, or compares two orbits and then walks from one
to the other, validates and tables each orbit once.
``_move_edges`` gives the orbits of one matrix one matrix part, and
takes each orbit's order key from the same threshold table.
``find_chain`` runs the checker only on the candidates whose move leaves
the tables at or above the target's on the whole region it lowers, and
drops those of kinds II to V whose first anchor fails that test before
they are drawn.  It finds the rows each result built once, validates
the result on them only, and compares only the ranks those rows can
change and the augmented ranks on them and on the threshold rows that
change; as threshold tables share their equal rows, those are the rows
that are other objects.  It carries the tables and, after a kind-I
step, the matrix part of the move it takes into the next step.
"""

from __future__ import annotations

from functools import partial
from itertools import compress, count
from math import inf
from operator import ge, is_not
from typing import Iterator, NamedTuple, Sequence

from .flagcore import (
    DecoratedMatrix,
    OrderCheckFailed,
    Position,
    PreconditionFailed,
    TransportMatrix,
    ValidationError,
    _changed_rows,
    _int_pairs,
    _step_code,
)
from .decorated import _rbar, _Tables, _threshold_table, enumerate_orbits
from .order import bits, check
from .twoflags import (
    _check_same_shape,
    _flip,
    _interior_clause,
    _nonzero_in_rect,
    _ranks,
    _rectangle_clause,
    _se_corners,
)

__all__ = [
    "KIND_ORDER",
    "Move",
    "applicable_moves",
    "iter_moves",
    "apply_move",
    "Poset",
    "build_poset",
    "find_chain",
    "EquivalenceReport",
    "verify_equivalence",
]

KIND_ORDER = ("I", "II", "IIIa", "IIIb", "IVa", "IVb", "IVc", "V")


class Move(NamedTuple):
    """A move kind together with its anchor positions.

    Anchor layout by kind:  ``I``: ``((i1,j1),)``.  ``II``, ``IIIa``,
    ``IIIb``: ``((i0,j0), (i1,j1))``.  ``IVa``: ``((i0,j0), (i1,j1),
    (i2,j2))``.  ``IVb``: ``((i0,j0), (i1,j1), (i2,j0))``.  ``IVc``:
    ``((i0,j0), (i1,j1), (i0,j2))``.  ``V``: the pivot followed by the
    decorated chain, ``((i0,j0), c_1, ..., c_t)``.
    """

    kind: str
    anchors: tuple[Position, ...]

    def __str__(self) -> str:
        if not isinstance(self.anchors, tuple):
            return f"{self.kind} {self.anchors!r}"
        cells = " ".join(
            "(" + ",".join(map(str, p)) + ")" if isinstance(p, tuple) else repr(p)
            for p in self.anchors
        )
        return f"{self.kind} {cells}"

    def sort_index(self) -> tuple[int, tuple[Position, ...]]:
        return (KIND_ORDER.index(self.kind), self.anchors)


class _Memo(dict):
    """The values ``fn(arg, *key)``, each computed on its first lookup."""

    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        self.fn, self.arg = fn, arg

    def __missing__(self, key):
        value = self[key] = self.fn(self.arg, *key)
        return value


def _block_clause(m, i0: int, j0: int, i1: int, j1: int) -> str | None:
    """The kind-V clause that the first cell with mass of rows ``i0..i1 - 1``
    and columns ``j0..j1 - 1`` other than the pivot ``(i0, j0)``, in
    row-major order, violates; None if there is none."""
    bad = _nonzero_in_rect(m, i0, j0, i1 - 1, j1 - 1, {(i0, j0)})
    return None if bad is None else "nonzero entry at (%d,%d) between the pivot and the chain" % bad


class _Matrix:
    """One transport matrix as the checkers of its orbits read it: its
    rows ``m`` and its cells with mass in row-major order (``support``).
    Kept as they are looked up, by cell or by corner pair: the far corners
    of flips from a cell (``far[i, j]``); the clause and flipped rows of a
    corner pair (``clause[i0, j0, i1, j1]``, ``flip[i0, j0, i1, j1]``);
    the clause of its rectangle's interior outside some cells
    (``interior[i0, j0, i1, j1, *exempt]``); and the kind-V clause of the
    block between a pivot and a chain cell (``block[i0, j0, i, j]``)."""

    __slots__ = ("tm", "m", "q", "r", "support", "far", "clause", "flip", "interior", "block")

    def __init__(self, tm: TransportMatrix):
        self.tm, self.m, self.q, self.r = tm, tm.m, tm.q, tm.r
        self.support = [(i, j) for i, row in enumerate(tm.m, 1) for j, x in enumerate(row, 1) if x]
        self.far = _Memo(_se_corners, tm.m)
        self.clause = _Memo(_rectangle_clause, tm)
        self.flip = _Memo(_flip, tm.m)
        self.interior = _Memo(_interior_clause, tm.m)
        self.block = _Memo(_block_clause, tm.m)


class _Orbit:
    """One orbit as the checkers and :func:`_candidates` read it: its
    matrix part, decoration and free table.

    ``free[i - 1][j - 1]`` is 0 exactly when the cell ``(i, j)`` lies
    weakly northwest of a decorated cell: ``free`` is the orbit's
    threshold table, as :func:`delta_table` reads it.
    """

    __slots__ = ("mat", "delta", "free", "tm", "m", "q", "r")

    def __init__(self, mat: _Matrix, delta: tuple[Position, ...], free):
        self.mat, self.delta, self.free = mat, delta, free
        self.tm, self.m, self.q, self.r = mat.tm, mat.m, mat.q, mat.r

    @classmethod
    def of(cls, dm: DecoratedMatrix, tables: _Tables | None = None) -> _Orbit:
        """The view of ``dm`` on a new matrix part, built once for an orbit
        that :class:`_Tables` keeps and kept with its tables.  An invalid
        ``dm``, or a decoration that is not a tuple of int pairs, raises
        :class:`ValidationError`, so the checkers take the orbit for a
        valid one and every decorated cell for a tuple.  ``tables``, when
        given, are those :meth:`_Tables.of` returned for ``dm``."""
        if tables is None:
            tables = _Tables.of(dm)
        if tables.view is None:
            if not _int_pairs(dm.delta):
                raise ValidationError("BadShape")
            tables.view = cls(_Matrix(dm.matrix), dm.delta, tables.free)
        return tables.view


# ---------------------------------------------------------------------------
# Per-kind condition checks.  Each reads an orbit's :class:`_Orbit` and
# returns (new_rows, new_delta) on success and the first violated clause
# as a string on failure.  The anchors lie in the grid and are as many as
# the kind takes: ``apply_move`` checks both from ``_SHAPE``, and
# ``_candidates`` yields no others.

def _insert(delta: tuple[Position, ...], cell: Position) -> tuple[Position, ...]:
    """The staircase of the cells of the staircase ``delta`` and ``cell``:
    ``delta`` if ``cell`` lies weakly northwest of a decorated cell, and
    otherwise ``delta`` with ``cell`` in its place by row and the run of
    cells weakly northwest of it dropped."""
    (a, b), n, k = cell, len(delta), 0
    while k < n and delta[k][1] > b:  # the cells east of ``cell``
        k += 1
    if k and delta[k - 1][0] >= a:
        return delta
    end = k
    while end < n and delta[end][0] <= a:
        end += 1
    if end < n and delta[end][1] == b:
        return delta
    return delta[:k] + (cell,) + delta[end:]


def _free_mass_northwest(v: _Orbit, corner: Position, skip: Position) -> Position | None:
    """The first cell with mass weakly northwest of ``corner`` other than
    ``skip``, in row-major order, that lies weakly northwest of no
    decorated cell; None if there is none."""
    (i1, j1), free = corner, v.free
    for cell in v.mat.support:
        i, j = cell
        if i > i1:
            return None
        if j <= j1 and free[i - 1][j - 1] and cell != skip:
            return cell
    return None


def _try_I(v: _Orbit, anchors: tuple[Position, ...]):
    cell = anchors[0]
    i1, j1 = cell
    if v.m[i1 - 1][j1 - 1] <= 0:
        return "entry at (i1,j1) must be positive"
    if not v.free[i1 - 1][j1 - 1]:
        return "(i1,j1) must not lie weakly northwest of a decorated cell"
    bad = _free_mass_northwest(v, cell, cell)
    if bad is not None:
        return "nonzero undominated entry at (%d,%d) northwest of (i1,j1)" % bad
    return (v.m, _insert(v.delta, cell))


def _try_II(v: _Orbit, anchors: tuple[Position, ...]):
    (i0, j0), (i1, j1) = anchors
    clause = v.mat.clause[i0, j0, i1, j1]
    if clause is not None:
        return clause
    delta = v.delta
    if anchors[1] in delta:
        return "(i1,j1) must not be decorated"
    if (i0, j1) in delta and (i1, j0) in delta:
        return "(i0,j1) and (i1,j0) must not both be decorated"
    if anchors[0] in delta and v.m[i0 - 1][j0 - 1] < 2:
        return "a decorated (i0,j0) needs at least two units"
    if _ii_factors_through_corner(v, i0, j0, i1, j1):
        return "decorating (i1,j1) first gives a strictly intermediate orbit"
    return (v.mat.flip[i0, j0, i1, j1], delta)


def _ii_factors_through_corner(v: _Orbit, i0: int, j0: int, i1: int, j1: int) -> bool:
    """Whether the flip strictly contains the orbit decorated at (i1,j1).

    When (i1,j1) can itself be decorated (the kind-I conditions hold
    there) and every bordered position northwest of (i1,j1) whose
    line-membership entry is 1 sits inside the rectangle, the decorated
    orbit lies strictly between source and target, so the flip skips a
    level and is rejected.
    """
    free = v.free
    # The table grows weakly southward and eastward, so the positions
    # outside the rectangle peak at (i0 - 1, j1 - 1) and (i1 - 1, j0 - 1).
    if free[i0 - 1][j1 - 1] or free[i1 - 1][j0 - 1] or not free[i1 - 1][j1 - 1]:
        return False
    return _free_mass_northwest(v, (i1, j1), (i1, j1)) is None


def _try_III(v: _Orbit, anchors: tuple[Position, ...], to_ne: bool):
    """Kinds IIIa (``to_ne``) and IIIb: the decoration at ``(i0,j0)``
    slides to the NE corner ``(i0,j1)`` or the SW corner ``(i1,j0)``, and
    the other off corner may carry mass."""
    (i0, j0), (i1, j1) = anchors
    if not (i0 < i1 and j0 < j1):
        return "corners must satisfy i0 < i1 and j0 < j1"
    if anchors[0] not in v.delta:
        return "(i0,j0) must be decorated"
    m = v.m
    if m[i0 - 1][j0 - 1] != 1:
        return "entry at (i0,j0) must be exactly 1"
    if m[i1 - 1][j1 - 1] <= 0:
        return "entry at (i1,j1) must be positive"
    to, other = ((i0, j1), (i1, j0)) if to_ne else ((i1, j0), (i0, j1))
    clause = v.mat.interior[i0, j0, i1, j1, other]
    if clause is not None:
        return clause
    bad = _free_mass_northwest(v, to, anchors[0])
    if bad is not None:
        corner = "(i0,j1)" if to_ne else "(i1,j0)"
        return "nonzero undominated entry at (%d,%d) northwest of " % bad + corner
    return (v.mat.flip[i0, j0, i1, j1], _insert(v.delta, to))


def _try_IVa(v: _Orbit, anchors: tuple[Position, ...]):
    (i0, j0), (i1, j1), (i2, j2) = anchors
    if not (i0 < i2 < i1 and j2 < j0 < j1):
        return "anchors must satisfy i0 < i2 < i1 and j2 < j0 < j1"
    delta, m = v.delta, v.m
    if anchors[0] not in delta:
        return "(i0,j0) must be decorated"
    if m[i0 - 1][j0 - 1] != 1:
        return "entry at (i0,j0) must be exactly 1"
    if anchors[2] not in delta:
        return "(i2,j2) must be decorated"
    if m[i2 - 1][j2 - 1] != 1:
        return "entry at (i2,j2) must be exactly 1"
    if m[i1 - 1][j1 - 1] <= 0:
        return "entry at (i1,j1) must be positive"
    free, corners = v.free, ((i0, j2), (i1, j1), (i0, j1), (i1, j2))
    for cell in v.mat.support:  # the frame's free cells with mass
        i, j = cell
        if i > i1:
            break
        if i >= i0 and j2 <= j <= j1 and free[i - 1][j - 1] and cell not in corners:
            return "nonzero undominated entry at (%d,%d) inside the frame" % cell
    return (_flip(v.mat.flip[i0, j0, i1, j1], i2, j2, i1, j0), _insert(delta, (i2, j0)))


def _try_IVbc(v: _Orbit, anchors: tuple[Position, ...], west: bool):
    """Kinds IVb (``west``) and IVc: the flip of a rectangle past a
    decorated bare unit on its west edge ``(i2,j0)`` or its north edge
    ``(i0,j2)``, keeping the decoration."""
    third, edge, order, off = (
        ("(i2,j0)", "column j0", "i0 < i2 < i1 and j0 < j1", "(i0,j1)")
        if west
        else ("(i0,j2)", "row i0", "j0 < j2 < j1 and i0 < i1", "(i1,j0)")
    )
    (i0, j0), (i1, j1), unit = anchors
    m, delta = v.m, v.delta
    # IVc is IVb with rows and columns trading roles.
    (a0, b0), (a1, b1), (a2, b2) = anchors if west else ((j0, i0), (j1, i1), unit[::-1])
    if b2 != b0:
        return "third anchor must sit in " + edge
    if not (a0 < a2 < a1 and b0 < b1):
        return "anchors must satisfy " + order
    if unit not in delta:
        return third + " must be decorated"
    if m[unit[0] - 1][unit[1] - 1] != 1:
        return f"entry at {third} must be exactly 1"
    if m[i0 - 1][j0 - 1] <= 0:
        return "entry at (i0,j0) must be positive"
    if m[i1 - 1][j1 - 1] <= 0:
        return "entry at (i1,j1) must be positive"
    if not (v.free[i0 - 1][j1 - 1] if west else v.free[i1 - 1][j0 - 1]):
        return off + " must not lie weakly northwest of a decorated cell"
    clause = v.mat.interior[i0, j0, i1, j1, (i0, j1), (i1, j0), unit]
    if clause is not None:
        return clause
    return (v.mat.flip[i0, j0, i1, j1], delta)


def _try_V(v: _Orbit, anchors: tuple[Position, ...]):
    pivot, chain = anchors[0], anchors[1:]
    delta, head = v.delta, anchors[1]
    if head not in delta:
        return "chain must consist of decorated positions"
    start = delta.index(head)
    stop = start + len(chain)
    if delta[start:stop] != chain:
        return "chain must be a consecutive run of the decoration"
    i0, j0 = pivot
    (head_i, head_j), (tail_i, tail_j) = head, anchors[-1]
    if not (i0 < head_i and j0 < tail_j):
        return "pivot must satisfy i0 < i_1 and j0 < j_t"
    m = v.m
    if m[i0 - 1][j0 - 1] <= 0:
        return "entry at (i0,j0) must be positive"
    for cell in chain:
        clause = v.mat.block[pivot + cell]
        if clause is not None:
            return clause
    # The decorated cells before the chain lie northeast of its head, those
    # after it southwest of its tail: only the last before it can block the
    # head's flip, and only the first after it the tail's.
    if start:
        for a in range(i0 + 1, min(head_i, delta[start - 1][0] + 1)):
            if m[a - 1][head_j - 1] > 0:
                return f"flipping into ({a},{head_j}) first gives a strictly intermediate orbit"
    if stop < len(delta):
        row = m[tail_i - 1]
        for b in range(j0 + 1, min(tail_j, delta[stop][1] + 1)):
            if row[b - 1] > 0:
                return f"flipping into ({tail_i},{b}) first gives a strictly intermediate orbit"
    # The cascade is a cycle of corner flips: the unit each flip leaves
    # at (c_k_i, j0) the next one takes away.
    rows = v.mat.flip[i0, j0, head_i, head_j]
    for (c, _), (i, j) in zip(chain, chain[1:]):
        rows = _flip(rows, c, j0, i, j)
    others = delta[:start] + delta[stop:]
    return (rows, _insert(_insert(others, (i0, head_j)), (tail_i, j0)))


_TRY = {
    "I": _try_I,
    "II": _try_II,
    "IIIa": partial(_try_III, to_ne=True),
    "IIIb": partial(_try_III, to_ne=False),
    "IVa": _try_IVa,
    "IVb": partial(_try_IVbc, west=True),
    "IVc": partial(_try_IVbc, west=False),
    "V": _try_V,
}

# The least and the most anchors each kind takes, and the clause that
# rejects any other number.
_SHAPE = {
    "I": (1, 1, "expected a single anchor (i1,j1)"),
    "II": (2, 2, "expected anchors ((i0,j0), (i1,j1))"),
    "IIIa": (2, 2, "expected anchors ((i0,j0), (i1,j1))"),
    "IIIb": (2, 2, "expected anchors ((i0,j0), (i1,j1))"),
    "IVa": (3, 3, "expected anchors ((i0,j0), (i1,j1), (i2,j2))"),
    "IVb": (3, 3, "expected anchors ((i0,j0), (i1,j1), (i2,j0))"),
    "IVc": (3, 3, "expected anchors ((i0,j0), (i1,j1), (i0,j2))"),
    "V": (2, inf, "expected a pivot followed by a nonempty chain"),
}


def _result(dm: DecoratedMatrix, rows, delta) -> DecoratedMatrix:
    """The orbit a checker built from the valid ``dm``, validated against
    it; only the rows the move built are read."""
    (m, b, c), old_delta = dm
    code = _step_code(m, rows, b, delta, old_delta)
    if code is not None:
        raise ValidationError(code)
    return DecoratedMatrix(TransportMatrix(rows, b, c), delta)


def apply_move(dm: DecoratedMatrix, move: Move) -> DecoratedMatrix:
    """Apply ``move`` to ``dm``; raise :class:`PreconditionFailed` if the
    anchors are not a tuple of ``(i, j)`` pairs of ints, are not as many
    as the kind takes, leave the grid, or a stated condition fails.  A
    ``move`` that is not a :class:`Move`, or whose kind cannot be hashed,
    raises ``BadShape``."""
    if not isinstance(move, Move):
        raise ValidationError("BadShape")
    try:
        try_fn = _TRY.get(move.kind)
    except TypeError:
        raise ValidationError("BadShape") from None
    if try_fn is None:
        raise PreconditionFailed(move.kind, "unknown move kind")
    if not _int_pairs(move.anchors):
        raise PreconditionFailed(move.kind, "anchors must be (i, j) pairs of integers")
    anchors, v = move.anchors, _Orbit.of(dm)
    least, most, clause = _SHAPE[move.kind]
    if not least <= len(anchors) <= most:
        raise PreconditionFailed(move.kind, clause)
    if not all(1 <= i <= v.q and 1 <= j <= v.r for (i, j) in anchors):
        raise PreconditionFailed(move.kind, "anchor outside the grid")
    result = try_fn(v, anchors)
    if isinstance(result, str):
        raise PreconditionFailed(move.kind, result)
    return _result(dm, *result)


def _candidates(v: _Orbit, first=None) -> Iterator[tuple[str, tuple[Position, ...]]]:
    """Anchor tuples in canonical order, a superset of those the checkers
    accept: corners that must carry mass come from the cells with mass,
    decorated anchors from the decoration, and far corners of rectangles
    that must be empty inside from ``_Matrix.far``.  Kind ``I`` is
    tried only at the undominated cells with mass with no other such
    cell weakly northwest of them.  Kind ``II`` skips a corner pair whose
    far corner is decorated, or whose near corner is decorated and holds
    a single unit.  With ``first``, a test on cells, kinds ``II`` to ``V``
    start only at cells it holds true, before their far corners are read.

    The decoration is a staircase: its rows increase and its columns
    decrease.  So the decorated cells southwest of one are those after
    it, a row or a column holds at most one, and those southeast of a
    cell are one run, which starts after the cells in rows up to the
    cell's and stops at the first one in a column up to the cell's."""
    delta, support, far, m, free = v.delta, v.mat.support, v.mat.far, v.m, v.free
    limit = v.r + 1
    for cell in support:
        i, j = cell
        if j < limit and free[i - 1][j - 1]:
            yield "I", (cell,)
            limit = j
    starts = support if first is None else list(filter(first, support))  # kinds II to V
    heads = delta if first is None else tuple(filter(first, delta))
    for cell in starts:
        i, j = cell
        if cell in delta and m[i - 1][j - 1] == 1:
            continue
        for s in far[cell]:
            if s not in delta:
                yield "II", (cell, s)
    if not delta:  # every later kind has a decorated anchor
        return
    for kind in ("IIIa", "IIIb"):
        for p in heads:
            for s in far[p]:
                yield kind, (p, s)
    for p in heads:
        i0, j0 = p
        for s in support:
            i1, j1 = s
            if i1 > i0 + 1 and j1 > j0:
                for unit in delta[delta.index(p) + 1 :]:
                    if unit[0] >= i1:
                        break
                    yield "IVa", (p, s, unit)
    row_in = {p[1]: p for p in delta}
    for p in starts:
        unit = row_in.get(p[1])
        if unit is not None and unit[0] > p[0]:
            for s in far[p]:
                if s[0] > unit[0]:
                    yield "IVb", (p, s, unit)
    column_in = {p[0]: p for p in delta}
    for p in starts:
        unit = column_in.get(p[0])
        if unit is not None and unit[1] > p[1]:
            for s in far[p]:
                if s[1] > unit[1]:
                    yield "IVc", (p, s, unit)
    start, n = 0, len(delta)
    for p in starts:  # by row, so the run's start only moves on
        i0, j0 = p
        while start < n and delta[start][0] <= i0:
            start += 1
        stop = start
        while stop < n and delta[stop][1] > j0:
            stop += 1
        for head in range(start, stop):
            for end in range(head + 1, stop + 1):
                yield "V", (p,) + delta[head:end]


def _checked_moves(
    dm: DecoratedMatrix, view: _Orbit | None = None, room=None
) -> Iterator[tuple[str, tuple[Position, ...], tuple]]:
    """Each applicable move as ``(kind, anchors, raw)``, checked once, in
    canonical order; ``_result(dm, *raw)`` is the orbit :func:`apply_move`
    returns for ``Move(kind, anchors)``, which callers build only where
    they keep it.  One :class:`_Orbit` serves every check: ``view``, the
    view of ``dm`` on a shared matrix part, or by default a new one.  With
    ``room``, only the candidates ``(kind, anchors)`` it holds true are
    checked, and its test ``room.first``, if it has one, goes to
    :func:`_candidates`: it may drop only candidates ``room`` refuses."""
    v = _Orbit.of(dm) if view is None else view
    candidates = _candidates(v, getattr(room, "first", None))
    for kind, anchors in candidates if room is None else filter(room, candidates):
        result = _TRY[kind](v, anchors)
        if not isinstance(result, str):
            yield kind, anchors, result


def iter_moves(dm: DecoratedMatrix) -> Iterator[Move]:
    """All applicable moves, lazily, in canonical order.

    Canonical order: kinds in ``KIND_ORDER``, anchors lexicographically
    within each kind.  Candidates are drawn from the structure of ``dm``
    and each is confirmed by the same checker :func:`apply_move` runs;
    the results are not built.  An invalid ``dm`` raises
    :class:`ValidationError` on the call.
    """
    checked = _checked_moves(dm, _Orbit.of(dm))
    return (Move(kind, anchors) for kind, anchors, _ in checked)


def applicable_moves(dm: DecoratedMatrix) -> list[Move]:
    """All applicable moves in canonical order (see :func:`iter_moves`)."""
    return list(iter_moves(dm))


# ---------------------------------------------------------------------------
# The cover poset


class Poset:
    """Elements and cover relations of the degeneration order.

    ``covers`` holds index pairs ``(a, b)`` meaning element ``a`` is
    covered by element ``b`` (``a < b`` with nothing strictly between);
    ``cover_kinds[k]`` lists the kinds of the moves realizing
    ``covers[k]`` and ``cover_moves[k]`` is the first of those moves in
    canonical order.  A poset is read-only and compares by identity.
    """

    __slots__ = ("elements", "covers", "cover_kinds", "cover_moves", "_index")
    elements: tuple[DecoratedMatrix, ...]
    covers: tuple[tuple[int, int], ...]
    cover_kinds: tuple[tuple[str, ...], ...]
    cover_moves: tuple[Move, ...]

    def __init__(self, elements, covers, cover_kinds, cover_moves):
        values = (elements, covers, cover_kinds, cover_moves, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return Poset, (self.elements, self.covers, self.cover_kinds, self.cover_moves)

    def index_of(self, dm: DecoratedMatrix) -> int:
        if self._index is None:  # built on the first call
            index = {(el.matrix.m, el.delta): k for k, el in enumerate(self.elements)}
            object.__setattr__(self, "_index", index)
        return self._index[(dm.matrix.m, dm.delta)]


def _move_edges(
    elements: Sequence[DecoratedMatrix], with_moves: bool = True
) -> tuple[list[list[Move]] | None, list[list[int]], list[tuple[int, ...]]]:
    """The canonical move lists (None unless ``with_moves``), their target
    indices and the order key of each element; a raw result that is no
    enumerated orbit raises :class:`OrderCheckFailed`.

    The key is ``r + rbar`` at every bordered position, row-major: ``2r``
    plus the free table.  As ``rbar - r`` is 0 or 1, ``r_x >= r_y`` and
    ``rbar_x >= rbar_y`` hold together iff ``r_x + rbar_x >= r_y +
    rbar_y``, so ``x <= y`` iff ``x``'s key is entrywise ``>=`` ``y``'s,
    as for :func:`invariant`, with one column per position instead of two.

    The orbits of one transport matrix, which :func:`enumerate_orbits`
    lists together, share one :class:`_Matrix` and ``2r``, and the orbits
    of one decoration one free table, which serves their checkers and
    their keys.  Each result is looked up as it is checked.
    """
    index = {(el.matrix.m, el.delta): k for k, el in enumerate(elements)}
    moves_of: list[list[Move]] | None = [] if with_moves else None
    targets_of: list[list[int]] = []
    keys: list[tuple[int, ...]] = []
    mat = None
    free_of: dict[tuple[Position, ...], tuple[tuple[int, ...], ...]] = {}
    for a, el in enumerate(elements):
        if mat is None or mat.tm != el.matrix:
            mat = _Matrix(el.matrix)
            twice = [2 * x for x in _ranks(mat.m, mat.r)]
        free = free_of.get(el.delta)
        if free is None:
            free = free_of[el.delta] = _threshold_table(el.delta, el.q, el.r)
        keys.append(tuple(_rbar(twice, free)))
        moves, targets = [], []
        for kind, anchors, raw in _checked_moves(el, _Orbit(mat, el.delta, free)):
            t = index.get(raw)
            if t is None:
                mv = Move(kind, anchors)
                try:
                    _result(el, *raw)
                except ValidationError as exc:
                    msg = f"move {mv} of element {a} gives no orbit: {exc.code}"
                    raise OrderCheckFailed(msg) from exc
                raise OrderCheckFailed(f"move {mv} of element {a} gives no enumerated orbit")
            if moves_of is not None:
                moves.append(Move(kind, anchors))
            targets.append(t)
        if moves_of is not None:
            moves_of.append(moves)
        targets_of.append(targets)
    return moves_of, targets_of, keys


def _poset(elements: tuple[DecoratedMatrix, ...], moves_of, targets_of) -> Poset:
    """The poset whose covers are the deduplicated move edges, by source
    and then by target."""
    edges: list[tuple[tuple[int, int], list[Move]]] = []
    for a, (moves, targets) in enumerate(zip(moves_of, targets_of)):
        moves_to: dict[int, list[Move]] = {}
        for mv, t in zip(moves, targets):
            moves_to.setdefault(t, []).append(mv)
        edges += [((a, t), moves_to[t]) for t in sorted(moves_to)]
    cover_kinds = tuple(tuple(dict.fromkeys(mv.kind for mv in mvs)) for _, mvs in edges)
    return Poset(elements, tuple(e for e, _ in edges), cover_kinds, tuple(m[0] for _, m in edges))


def build_poset(
    b: tuple[int, ...], c: tuple[int, ...], check_reduction: bool = True
) -> Poset:
    """Enumerate all orbits with margins ``(b, c)`` and their covers.

    The covers are the deduplicated move edges.  With
    ``check_reduction`` (the default) the construction additionally
    checks, through the report of :func:`verify_equivalence`, that the
    move graph's closure equals the rank order and that every edge is a
    genuine cover, raising :class:`OrderCheckFailed` otherwise.
    """
    report, poset = _pipeline(b, c, with_moves=True, with_report=check_reduction)
    if check_reduction:
        if not report.order_equivalent:
            raise OrderCheckFailed("move closure differs from the rank order")
        if not report.passed:
            # Where the identity holds, every cover is a move and every
            # chain arrives: the first counterexample is a non-cover edge.
            raise OrderCheckFailed(report.counterexamples[0])
    return poset


def find_chain(x: DecoratedMatrix, y: DecoratedMatrix) -> list[Move] | None:
    """A chain of moves from ``x`` up to ``y``.

    Returns ``[]`` when the orbits are equal, ``None`` when ``x <= y``
    fails, and otherwise a list of moves whose successive application
    transforms ``x`` into ``y``.  Deterministic: each step takes the
    canonically first applicable move whose result stays below ``y``.
    Invalid ``x`` or ``y`` raise :class:`ValidationError`; the tables of
    both are read from :class:`_Tables`.  A candidate is checked only
    where ``y`` leaves it room.  A move of kind ``I`` keeps ``r`` and
    lowers ``rbar`` by one at every free position strictly northwest of
    its anchor, to ``r`` there; so it is checked only if ``r`` is at least
    ``y``'s ``rbar`` on those positions, and then its result lies below
    ``y``.  Any other move lowers each rank of the block between its first
    two anchors, so it is checked only if ``r`` exceeds ``y``'s there, and
    not drawn unless it does at the first anchor.  Every result looked at
    is validated against its source, which is valid: only the rows the
    move built are read, and a result that is not an orbit raises with
    the code :func:`validate` gives it.  Those rows keep their column
    sums, so only the ranks between them are compared with ``y``'s, then
    the augmented ranks on the same rows and on the threshold rows that a
    new decoration changes.  The orbit is built only for the move taken.
    The moves generate the order, so such a move exists; if none does,
    the order and the moves disagree and :class:`OrderCheckFailed` is
    raised.
    """
    source = _Tables.of(x)
    view, goal = _Orbit.of(x, source), _Tables.of(y)
    _check_same_shape(x.matrix, y.matrix)
    q, r = x.q, x.r
    w = r + 1
    ranks, free, rbar = source.ranks, source.free, source.rbar
    goal_ranks, goal_rbar = goal.ranks, goal.rbar
    if not (all(map(ge, ranks, goal_ranks)) and all(map(ge, rbar, goal_rbar))):
        return None
    above_goal = [g + 1 for g in goal_ranks]

    def room(candidate) -> bool:
        """Whether ``r`` is at least ``want`` on the region the move lowers."""
        kind, anchors = candidate
        if kind == "I":
            (i0, j0), (i1, j1), want = (0, 0), anchors[0], goal_rbar
        else:
            (i0, j0), (i1, j1), want = anchors[0], anchors[1], above_goal
        width = j1 - j0
        for k in range(i0 * w + j0, i1 * w, w):
            if not all(map(ge, ranks[k : k + width], want[k : k + width])):
                return False
        return True

    # Kinds II to V: ``room`` first reads ``r`` at the first anchor, NW of the block.
    room.first = lambda p: ranks[p[0] * w + p[1]] > goal_ranks[p[0] * w + p[1]]
    chain: list[Move] = []
    z = x
    while ranks != goal_ranks or rbar != goal_rbar:
        (m, b, c), source_delta = z
        for kind, anchors, (rows, delta) in _checked_moves(z, view, room):
            at = _changed_rows(m, rows)
            code = _step_code(m, rows, b, delta, source_delta, at)
            if code is not None:
                raise ValidationError(code)
            # The changed rows keep their column sums, so only the rank rows
            # from the first one's to the last one's can change; a kind-I
            # result changes no row.
            lo, hi = (at[0], at[-1]) if at else (0, 0)
            rank_band = _ranks(rows[lo:hi], r, ranks[lo * w : lo * w + w])
            if not all(map(ge, rank_band, goal_ranks[lo * w : hi * w + w])):
                continue
            step_ranks = ranks[: lo * w] + rank_band + ranks[hi * w + w :]
            step_free = free
            if delta is not source_delta:  # the threshold rows that change join the band
                step_free = _threshold_table(delta, q, r)  # equal rows are one object
                moved = list(compress(count(), map(is_not, step_free, free)))
                if moved:
                    lo, hi = min(lo, moved[0]), max(hi, moved[-1])
            s, e = lo * w, hi * w + w
            rbar_band = _rbar(step_ranks[s:e], step_free[lo : hi + 1])
            if all(map(ge, rbar_band, goal_rbar[s:e])):
                break
        else:
            raise OrderCheckFailed(f"no progressing move below the target from {z}")
        chain.append(Move(kind, anchors))
        z = DecoratedMatrix(TransportMatrix(rows, b, c), delta)
        ranks, free, rbar = step_ranks, step_free, rbar[:s] + rbar_band + rbar[e:]
        # The checkers build each decoration as a tuple of int pairs; a
        # kind-I step keeps the rows, and so the matrix part.
        view = _Orbit(view.mat if rows is m else _Matrix(z.matrix), delta, free)
    return chain


class EquivalenceReport(NamedTuple):
    """Outcome of the exhaustive move/order equivalence check."""

    b: tuple[int, ...]
    c: tuple[int, ...]
    element_count: int
    cover_count: int
    order_equivalent: bool
    moves_are_covers: bool
    covers_are_moves: bool
    chains_ok: bool
    counterexamples: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return (
            self.order_equivalent
            and self.moves_are_covers
            and self.covers_are_moves
            and self.chains_ok
        )


def verify_equivalence(b: tuple[int, ...], c: tuple[int, ...]) -> EquivalenceReport:
    """Check move generation against the rank order on all ``(b, c)`` orbits.

    Verifies four statements over the full orbit list: the
    reflexive-transitive closure of the moves equals the rank order;
    every move edge is a cover; every cover arises from a move; and the
    greedy chain construction reaches every comparable target.
    """
    return _pipeline(b, c, with_moves=False, with_report=True)[0]


def _pipeline(
    b: tuple[int, ...], c: tuple[int, ...], with_moves: bool, with_report: bool
) -> tuple[EquivalenceReport | None, Poset | None]:
    """The report of :func:`verify_equivalence` (None unless
    ``with_report``) and the unchecked poset (None unless ``with_moves``),
    from one enumeration of the orbits and their moves."""
    elements = tuple(enumerate_orbits(b, c))
    moves_of, targets_of, keys = _move_edges(elements, with_moves)
    report = _report(b, c, targets_of, keys) if with_report else None
    return report, _poset(elements, moves_of, targets_of) if with_moves else None


def _report(b, c, targets_of, keys) -> EquivalenceReport:
    """The checks of :func:`verify_equivalence` on a computed move graph
    whose elements have the order keys ``keys``."""
    up, disagree, cover_count, not_covers, not_moves = check(keys, targets_of)
    counterexamples = [f"element {a}: move closure and rank order disagree" for a in disagree]
    counterexamples += [f"move edge {a}->{t} is not a cover" for a, t in not_covers]
    counterexamples += [f"cover {a}->{t} is not realized by a move" for a, t in not_moves]
    # A greedy walk toward t steps from z to the first move target below t.
    # When every target lies strictly above its source, all walks arrive
    # iff each t > z lies above some target of z that is itself above z;
    # that holds wherever the moves of z reach exactly up[z].
    chains_ok = True
    for z in disagree:
        reached = 0
        for t in targets_of[z]:
            if (up[z] >> t) & 1:
                reached |= up[t] | 1 << t
        missed = up[z] & ~reached
        if missed:
            chains_ok = False
            t = next(bits(missed))
            counterexamples.append(f"no greedy chain from {z} to {t}")
    return EquivalenceReport(
        b=tuple(b),
        c=tuple(c),
        element_count=len(keys),
        cover_count=cover_count,
        order_equivalent=not disagree,
        moves_are_covers=not not_covers,
        covers_are_moves=not not_moves,
        chains_ok=chains_ok,
        counterexamples=tuple(counterexamples),
    )
