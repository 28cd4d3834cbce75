"""Core domain types: transport matrices and their decorations.

A configuration of one line and two partial flags in an n-dimensional
space is encoded, up to change of basis, by a *decorated transport
matrix*: a q-by-r matrix of nonnegative integers with prescribed row
sums ``b`` and column sums ``c``, together with a nonempty staircase of
*decorated* positions running from northeast to southwest, each sitting
on a positive entry.

Positions are 1-based pairs ``(i, j)``.  The componentwise order puts
northwest positions low: ``(i, j) <= (i', j')`` iff ``i <= i'`` and
``j <= j'``.  Rank tables carry an explicit 0 border, but a Position is
always inside the grid.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, NamedTuple, Sequence

Position = tuple[int, int]

__all__ = [
    "Position",
    "FlagError",
    "ValidationError",
    "ShapeMismatch",
    "NotFullFlag",
    "PreconditionFailed",
    "OrderCheckFailed",
    "normalize_decoration",
    "TransportMatrix",
    "DecoratedMatrix",
    "validate",
    "from_permutation",
    "to_permutation",
    "element_to_obj",
    "element_from_obj",
    "render",
]


class FlagError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(FlagError, ValueError):
    """A value violates a structural invariant.

    ``code`` names the first violated rule and the offending index,
    e.g. ``"BadRowSum(2)"`` or ``"NotStaircase(3)"``.
    """

    def __init__(self, code: str):
        super().__init__(code)
        self.code = code


class ShapeMismatch(FlagError):
    """Two elements do not share the same margins (b, c)."""


class NotFullFlag(FlagError):
    """Operation is defined only for b = c = (1, ..., 1)."""


class PreconditionFailed(FlagError):
    """A move was applied whose stated conditions do not hold.

    ``kind`` is the move kind, ``clause`` describes the first violated
    condition.
    """

    def __init__(self, kind: str, clause: str):
        super().__init__(f"{kind}: {clause}")
        self.kind = kind
        self.clause = clause


class OrderCheckFailed(FlagError):
    """A consistency check of the order failed (raised under ``python -O`` too)."""


# ---------------------------------------------------------------------------
# Decoration normalization


def normalize_decoration(positions: Iterable[Position]) -> tuple[Position, ...]:
    """Return the componentwise-maximal elements of a nonempty set.

    The result is an antichain, sorted by increasing row (hence, being
    an antichain, by decreasing column).  Idempotent; the identity on
    antichains.  Positions that are not hashable pairs raise
    ``BadShape``, coordinates that are not ints ``NotAnInteger(positions)``.
    """
    try:
        pts = set(positions)
    except TypeError:
        raise ValidationError("BadShape") from None
    maximal = _staircase(_require_positions("positions", pts))
    if not maximal:
        raise ValidationError("EmptyInput")
    return maximal


def _staircase(cells: Iterable[Position]) -> tuple[Position, ...]:
    """The componentwise-maximal ``cells``, sorted by row; the cells are
    taken to be pairs of ints, unchecked."""
    # Scanned from the southeast, a cell is maximal iff it is east of all before it.
    maximal: list[Position] = []
    for p in sorted(cells, reverse=True):
        if not maximal or p[1] > maximal[-1][1]:
            maximal.append(p)
    return tuple(reversed(maximal))


# ---------------------------------------------------------------------------
# Compositions (margins)


def _is_int(x: object) -> bool:
    """True for ``int`` values other than ``bool``."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_pairs(anchors: object) -> bool:
    """True for a tuple of ``(i, j)`` tuples of ints."""
    return isinstance(anchors, tuple) and all(
        isinstance(p, tuple) and len(p) == 2 and all(map(_is_int, p)) for p in anchors
    )


def _sequence(p: object) -> object:
    """``p`` if it is a tuple or a list, else ``()``: a position of any
    other type, such as a dict or a range, unpacks into no pair."""
    return p if isinstance(p, (tuple, list)) else ()


def _require_ints(field: str, values: Iterable[object]) -> None:
    """Raise ``ValidationError("NotAnInteger(field)")`` unless all are ints."""
    if not all(_is_int(x) for x in values):
        raise ValidationError(f"NotAnInteger({field})")


def _require_positions(field: str, positions: Iterable[object]) -> list[Position]:
    """The positions as a list of ``(i, j)`` pairs of ints: raise
    ``ValidationError("BadShape")`` unless each is a tuple or list of two
    and ``NotAnInteger(field)`` unless each coordinate is an int."""
    try:
        pts = [(i, j) for (i, j) in map(_sequence, positions)]
    except (TypeError, ValueError):
        raise ValidationError("BadShape") from None
    _require_ints(field, (x for p in pts for x in p))
    return pts


def validate_composition(parts: tuple[int, ...]) -> str | None:
    """Return an error code unless every part is an integer >= 1."""
    if len(parts) == 0:
        return "EmptyComposition"
    if set(map(type, parts)) == {int} and min(parts) >= 1:
        return None
    bad = (k for k, part in enumerate(parts, start=1) if not _is_int(part) or part < 1)
    return next((f"BadPart({k})" for k in bad), None)


# ---------------------------------------------------------------------------
# Transport matrices and decorations


class TransportMatrix(NamedTuple):
    """A q x r matrix of nonnegative integers with margins b and c.

    ``m`` is stored as a tuple of row tuples; ``b`` and ``c`` are the
    prescribed row and column sums.  Instances are immutable values and
    may be freely shared; use :func:`validate` to check the invariants.
    """

    m: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]
    c: tuple[int, ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "TransportMatrix":
        """Build a matrix whose margins are read off from the rows.

        Entries are not coerced: a float, string or bool raises
        ``ValidationError("NotAnInteger(m)")``.
        """
        m = tuple(tuple(row) for row in rows)
        _require_ints("m", (x for row in m for x in row))
        b = tuple(sum(row) for row in m)
        c = tuple(sum(col) for col in zip(*m)) if m else ()
        tm = cls(m, b, c)
        raise_if_invalid(tm)
        return tm

    @property
    def q(self) -> int:
        return len(self.b)

    @property
    def r(self) -> int:
        return len(self.c)

    @property
    def n(self) -> int:
        return sum(self.b)

    def entry(self, i: int, j: int) -> int:
        """The entry at 1-based position (i, j)."""
        return self.m[i - 1][j - 1]

    def positive_positions(self) -> list[Position]:
        """All positions carrying a positive entry, in row-major order."""
        return [(i, j) for i, row in enumerate(self.m, 1) for j, x in enumerate(row, 1) if x > 0]


class DecoratedMatrix(NamedTuple):
    """A transport matrix with a NE-to-SW staircase of decorated positions.

    ``delta`` is stored sorted by increasing row; every decorated
    position must carry a positive entry.
    """

    matrix: TransportMatrix
    delta: tuple[Position, ...]

    @classmethod
    def make(cls, matrix: TransportMatrix, delta: Iterable[Position]) -> "DecoratedMatrix":
        """Build and validate, sorting the decoration canonically.

        Positions are not coerced: a float, string or bool raises
        ``ValidationError("NotAnInteger(delta)")``, and a position that
        is not an ``(i, j)`` pair raises ``ValidationError("BadShape")``.
        """
        dm = cls(matrix, tuple(sorted(_require_positions("delta", delta))))
        raise_if_invalid(dm.matrix, dm.delta)
        return dm

    @property
    def q(self) -> int:
        return self.matrix.q

    @property
    def r(self) -> int:
        return self.matrix.r

    @property
    def n(self) -> int:
        return self.matrix.n


def validate(matrix: TransportMatrix, delta: Iterable[Position] | None = None) -> str | None:
    """Check all invariants; return the first violated rule's code, or None.

    Matrix codes: ``EmptyComposition``, ``BadPart(k)``, ``BadShape``,
    ``NegativeEntry(i,j)``, ``BadRowSum(i)``, ``BadColSum(j)``.
    Decoration codes: ``BadShape`` (not iterable), ``EmptyDecoration``,
    ``BadPosition(k)`` (not a tuple or list ``(i, j)``, outside the grid,
    or a coordinate that is not an int), ``NotStaircase(k)``,
    ``ZeroEntryDecorated(i,j)``.  A ``matrix`` that is not a
    :class:`TransportMatrix` gives ``BadShape``.  Each rule is tested in
    one bulk pass; the offending index is located only when the rule fails.
    """
    if not isinstance(matrix, TransportMatrix):
        return "BadShape"
    m, b, c = matrix.m, matrix.b, matrix.c
    code = validate_composition(b) or validate_composition(c)
    if code is not None:
        return code
    q, r = len(b), len(c)
    if sum(b) != sum(c) or len(m) != q:
        return "BadShape"
    code = _rows_code(m, range(q), list(b), r) or _col_code(tuple(map(sum, zip(*m))), tuple(c))
    if code is not None or delta is None:
        return code
    return _delta_code(m, q, r, delta)


def _changed_rows(old: Sequence[Sequence[int]], rows: Sequence[Sequence[int]]) -> list[int]:
    """The 0-based indices where ``rows`` holds another object than ``old``."""
    return [] if rows is old else [i for i, (x, y) in enumerate(zip(rows, old)) if x is not y]


def _step_code(
    old: Sequence[Sequence[int]], rows: Sequence[Sequence[int]], b: tuple[int, ...],
    delta: Iterable[Position], old_delta: Iterable[Position],
) -> str | None:
    """The code ``validate(TransportMatrix(rows, b, c), delta)`` gives,
    where ``old`` and ``old_delta`` are the rows and decoration of a valid
    orbit with margins ``(b, c)`` and a row of ``rows`` that is the same
    object as ``old``'s row at its index is unchanged.  Only the other
    rows are read: for their shape, entries and row sums, then for the
    column sums of the same rows of ``old``.  A ``delta`` that is
    ``old_delta`` itself can break no rule but ``ZeroEntryDecorated``."""
    q, r = len(old), len(old[0])
    if len(rows) != q:
        return "BadShape"
    at = _changed_rows(old, rows)
    if at:
        new = [rows[i] for i in at]
        code = _rows_code(new, at, [b[i] for i in at], r) or _col_code(
            tuple(map(sum, zip(*new))), tuple(map(sum, zip(*[old[i] for i in at])))
        )
        if code is not None:
            return code
    if delta is not old_delta:
        return _delta_code(rows, q, r, delta)
    zeros = (f"ZeroEntryDecorated({i},{j})" for i, j in sorted(delta) if rows[i - 1][j - 1] <= 0)
    return next(zeros, None)


def _rows_code(
    rows: Sequence[Sequence[int]], at: Sequence[int], sums: list[int], r: int
) -> str | None:
    """The first violated shape, entry or row-sum rule, in that order, of
    the ``r``-column rows ``rows``; ``rows[k]`` is the matrix's row
    ``at[k]``, 0-based, and must sum to ``sums[k]``."""
    if set(map(len, rows)) != {r}:
        return "BadShape"
    cells = list(chain.from_iterable(rows))
    if set(map(type, cells)) != {int} or min(cells) < 0:
        for k, x in enumerate(cells):
            if not _is_int(x) or x < 0:
                return f"NegativeEntry({at[k // r] + 1},{k % r + 1})"
    got = list(map(sum, rows))
    if got != sums:
        return next(f"BadRowSum({i + 1})" for i, s, w in zip(at, got, sums) if s != w)
    return None


def _col_code(sums: tuple[int, ...], want: tuple[int, ...]) -> str | None:
    """``BadColSum(j)`` at the first column whose sum is not the one wanted."""
    if sums != want:
        return next(f"BadColSum({j})" for j, (s, w) in enumerate(zip(sums, want), 1) if s != w)
    return None


def _delta_code(
    m: Sequence[Sequence[int]], q: int, r: int, delta: Iterable[Position]
) -> str | None:
    """The first violated decoration rule on the valid ``q``-by-``r`` rows ``m``."""
    try:
        pts = list(delta)
    except TypeError:
        return "BadShape"
    if not pts:
        return "EmptyDecoration"
    try:
        ints = set(map(type, chain.from_iterable(pts))) == {int}
    except TypeError:  # a position that is not iterable fails in the loop below
        ints = False
    try:
        for k, p in enumerate(pts, start=1):
            i, j = p if type(p) is tuple else _sequence(p)
            if not (ints or _is_int(i) and _is_int(j)) or not (1 <= i <= q and 1 <= j <= r):
                return f"BadPosition({k})"
    except ValueError:  # ``k`` is bound before its position is unpacked
        return f"BadPosition({k})"
    try:
        pts.sort()
    except TypeError:  # pairs of different sequence types
        pts.sort(key=tuple)
    for k, ((i0, j0), (i1, j1)) in enumerate(zip(pts, pts[1:]), start=2):
        if not (i0 < i1 and j0 > j1):
            return f"NotStaircase({k})"
    for i, j in pts:
        if m[i - 1][j - 1] <= 0:
            return f"ZeroEntryDecorated({i},{j})"
    return None


def raise_if_invalid(matrix: TransportMatrix, delta: Iterable[Position] | None = None) -> None:
    """Raise :class:`ValidationError` with the first violated rule, if any."""
    code = validate(matrix, delta)
    if code is not None:
        raise ValidationError(code)


def _require_orbit(*dms: object) -> None:
    """Raise ``ValidationError("BadShape")`` unless each argument is a
    :class:`DecoratedMatrix`."""
    if not all(isinstance(dm, DecoratedMatrix) for dm in dms):
        raise ValidationError("BadShape")


# ---------------------------------------------------------------------------
# Permutation dictionary (full flags)


def from_permutation(w: Iterable[int], delta_cols: Iterable[int]) -> DecoratedMatrix:
    """Full-flag element for a permutation and a descending index set.

    ``w`` is one-line notation ``(w(1), ..., w(n))``, a permutation of
    ``1..n``.  ``delta_cols`` is a nonempty set of indices ``k``; the
    decorated cells are ``(k, w(k))``, so ``w`` must be strictly
    decreasing along the chosen indices.  The matrix is the permutation
    matrix with ``m[k][w(k)] = 1`` and margins ``b = c = (1, ..., 1)``.
    Values are not coerced: a float, string or bool raises
    ``ValidationError("NotAnInteger(w)")`` or ``"NotAnInteger(delta_cols)"``;
    an argument that is not iterable, or an unhashable index, ``"BadShape"``.
    """
    try:
        wt, cols = tuple(w), set(delta_cols)
    except TypeError:
        raise ValidationError("BadShape") from None
    _require_ints("w", wt)
    n = len(wt)
    if sorted(wt) != list(range(1, n + 1)):
        raise ValidationError("NotAPermutation")
    _require_ints("delta_cols", cols)
    cols = sorted(cols)
    if not cols:
        raise ValidationError("EmptyDecoration")
    for k, col in enumerate(cols, start=1):
        if not 1 <= col <= n:
            raise ValidationError(f"BadPosition({k})")
    for a, b in zip(cols, cols[1:]):
        if wt[a - 1] <= wt[b - 1]:
            raise ValidationError("NotDescending")
    rows = [[int(j == v) for j in range(1, n + 1)] for v in wt]
    delta = tuple((k, wt[k - 1]) for k in cols)
    return DecoratedMatrix.make(TransportMatrix.from_rows(rows), delta)


def to_permutation(dm: DecoratedMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Inverse of :func:`from_permutation`; requires a valid ``dm`` with
    b = c = (1, ..., 1)."""
    _require_orbit(dm)
    raise_if_invalid(dm.matrix, dm.delta)
    tm, n = dm.matrix, dm.n
    if tm.b != (1,) * n or tm.c != (1,) * n:
        raise NotFullFlag(f"margins {tm.b} x {tm.c}")
    return tuple(row.index(1) + 1 for row in tm.m), tuple(i for (i, _) in dm.delta)


# ---------------------------------------------------------------------------
# Serialization and rendering


def element_to_obj(x: TransportMatrix | DecoratedMatrix) -> dict:
    """JSON-ready dict ``{"b", "c", "m"[, "delta"]}`` with 1-based positions."""
    if isinstance(x, DecoratedMatrix):
        obj = element_to_obj(x.matrix)
        obj["delta"] = [[i, j] for (i, j) in x.delta]
        return obj
    return {"b": list(x.b), "c": list(x.c), "m": [list(row) for row in x.m]}


def element_from_obj(obj: object) -> TransportMatrix | DecoratedMatrix:
    """Parse ``{"b","c","m"[,"delta"]}``; the matrix is validated.

    ``b`` and ``c`` default to the margins read off ``m``.  With a
    ``delta`` field the result is a :class:`DecoratedMatrix`, otherwise
    a plain :class:`TransportMatrix`.  Values are not coerced: a float,
    string or bool raises ``ValidationError("NotAnInteger(field)")``.
    """
    if not isinstance(obj, dict) or "m" not in obj:
        raise ValidationError("BadShape")
    try:
        m = tuple(tuple(row) for row in obj["m"])
        b, c = tuple(obj.get("b", ())), tuple(obj.get("c", ()))
        delta_obj = obj.get("delta")
        delta = None if delta_obj is None else tuple((i, j) for (i, j) in delta_obj)
    except (TypeError, ValueError):
        raise ValidationError("BadShape") from None
    for field, values in (("m", sum(m, ())), ("b", b), ("c", c), ("delta", sum(delta or (), ()))):
        _require_ints(field, values)
    if "b" not in obj:
        b = tuple(sum(row) for row in m)
    if "c" not in obj:
        c = tuple(sum(col) for col in zip(*m)) if m else ()
    tm = TransportMatrix(m, b, c)
    if delta is None:
        raise_if_invalid(tm)
        return tm
    delta = tuple(sorted(delta))
    raise_if_invalid(tm, delta)
    return DecoratedMatrix(tm, delta)


def render(x: TransportMatrix | DecoratedMatrix) -> str:
    """Compact one-line form: rows joined by ' / ', '.' for zero entries,
    parentheses around decorated entries, e.g. ``"(1) . . / . . 1 / . 1 ."``.
    """
    if isinstance(x, DecoratedMatrix):
        tm, marked = x.matrix, set(x.delta)
    else:
        tm, marked = x, set()
    return " / ".join(
        " ".join(f"({v})" if (i, j) in marked else str(v or ".") for j, v in enumerate(row, 1))
        for i, row in enumerate(tm.m, 1)
    )
