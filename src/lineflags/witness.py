"""Exact geometric oracle: configurations, rank tables, and degenerations.

Everything combinatorial in this package has a geometric counterpart: a
*configuration* is an actual line ``A`` and two partial flags ``B``,
``C`` in ``Q^n``, given by rational generator vectors.  This module
computes their rank invariants exactly (no floating point, no modular
tricks), recovers the orbit of a configuration, and builds the explicit
one-parameter families that realize each move as a degeneration:
evaluating a family at ``tau != 0`` gives the more generic orbit, and
its limit at ``tau = 0`` — computed exactly by saturating the family's
polynomial rows — lands in the more special one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, product, zip_longest
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

from .flagcore import (
    DecoratedMatrix,
    FlagError,
    Position,
    TransportMatrix,
    ValidationError,
    _is_int,
    _require_positions,
    normalize_decoration,
    raise_if_invalid,
    render,
)
from .twoflags import RankTable, _rank_table
from .decorated import NotAnOrbitInvariant, RBarTable, _orbit_of, _threshold_table
from .moves import Move, apply_move

__all__ = [
    "ZeroEntryPosition",
    "IntEchelon",
    "Configuration",
    "standard_configuration",
    "geometric_rank_tables",
    "identify_orbit",
    "uncircling_check",
    "apply_basis_change",
    "random_int_invertible",
    "degeneration_family",
    "MoveDegenerationReport",
    "verify_move_degeneration",
]


class ZeroEntryPosition(FlagError):
    """A marked position of a standard configuration has a zero entry."""


def _is_rational(x: object) -> bool:
    """True for ``int`` (other than ``bool``) and ``Fraction`` values."""
    return _is_int(x) or isinstance(x, Fraction)


# ---------------------------------------------------------------------------
# Exact incremental rank computation


def _integral(vec: Sequence[Fraction | int]) -> list[int]:
    """``vec`` times the lcm of its denominators: an integer vector."""
    # A sum of ints is an int, and one Fraction entry makes it a Fraction.
    if type(sum(vec)) is int:
        return list(vec)
    den = lcm(*(x.denominator for x in vec))
    return [x.numerator * (den // x.denominator) for x in vec]


class IntEchelon:
    """Incremental fraction-free echelon form over the rationals.

    ``_rows`` maps each pivot to its row, in the order the rows were
    kept.  The rows are forward only: each vanishes at the pivots of the
    rows kept before it, and none is reduced against the rows kept after
    it.  They are integer vectors, gcd-normalized with positive pivots.
    A nonzero combination of them is nonzero at the pivot of the first
    row it uses, so a vector's residual, vanishing at every pivot, is
    unique up to scale.  Input denominators are cleared from
    ``numerator``/``denominator`` and elimination cross-multiplies, as
    in Bareiss's integer-preserving scheme, so no ``Fraction`` is built.
    ``add`` either absorbs a vector already in the span (returning
    False) or extends the span by it (returning True); a vector whose
    length is not the first vector's raises ``BadShape``, and an entry
    that is not an ``int`` or ``Fraction``, or is a ``bool``, raises
    ``NotARational(vec)``.  The oracle's own integer vectors skip the
    checks and the clearing: they go through ``_coordinates`` and
    ``_insert``, the two halves of ``add``.
    """

    def __init__(self) -> None:
        self._rows: dict[int, list[int]] = {}
        self._width: int | None = None

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vec: Sequence[Fraction | int]) -> bool:
        try:
            vec = tuple(vec)
        except TypeError:
            raise ValidationError("BadShape") from None
        if self._width is None:
            self._width = len(vec)
        if len(vec) != self._width:
            raise ValidationError("BadShape")
        if not all(map(_is_rational, vec)):
            raise ValidationError("NotARational(vec)")
        return self._insert(self._coordinates(_integral(vec))[1])

    def _coordinates(self, x: Sequence[int]) -> tuple[list[int], Sequence[int]]:
        """Integer coordinates of ``x`` in the basis of the rows and the
        unit vectors at the positions that are no row's pivot.

        Eliminating ``x`` at the pivots in the order kept finds each
        coefficient once.  Returns ``(y, residual)`` with ``c * x ==
        sum(y[t] * row_t) + residual`` for a positive integer ``c``:
        ``y`` holds the rows' coefficients in order, and the residual,
        zero at every pivot, those of the unit vectors.
        """
        y = []
        for p, row in self._rows.items():
            f = x[p]
            if f:
                lead = row[p]
                x = [a * lead - f * b for a, b in zip(x, row)]
                y = [v * lead for v in y]
            y.append(f)
        return y, x

    def _insert(self, v: Sequence[int]) -> bool:
        """Keep the residual ``v`` at its first nonzero position, unless
        it vanishes."""
        k = next((idx for idx, x in enumerate(v) if x), None)
        if k is None:
            return False
        g = gcd(*v) if v[k] > 0 else -gcd(*v)
        self._rows[k] = [x // g for x in v] if g != 1 else v
        return True


# ---------------------------------------------------------------------------
# Configurations


class _ConfigurationFields(NamedTuple):
    n: int
    a: tuple[tuple[Fraction | int, ...], ...]
    b_levels: tuple[tuple[tuple[Fraction | int, ...], ...], ...]
    c_levels: tuple[tuple[tuple[Fraction | int, ...], ...], ...]


class Configuration(_ConfigurationFields):
    """A line and two partial flags in ``Q^n``, by rational generators.

    ``a`` lists generators of the line.  ``b_levels[i]`` lists vectors
    that, together with all earlier levels, span ``B_{i+1}``; likewise
    ``c_levels`` for the second flag.  An ``n`` that is not a
    non-negative ``int``, a field, level or vector that is not a
    ``tuple``, or a vector whose length is not ``n`` raises
    ``BadShape``; an entry that is not an ``int`` or ``Fraction``, or is
    a ``bool``, raises ``NotARational(config)``.  ``_make`` and
    ``_replace`` check alike.
    """

    __slots__ = ()

    def __new__(cls, n, a, b_levels, c_levels) -> Configuration:
        if not (_is_int(n) and n >= 0):
            raise ValidationError("BadShape")
        try:
            levels = [*b_levels, *c_levels]
            vectors = [*a, *chain.from_iterable(levels)]
        except TypeError:
            raise ValidationError("BadShape") from None
        parts = (a, b_levels, c_levels, *levels, *vectors)
        if not all(isinstance(x, tuple) for x in parts) or set(map(len, vectors)) - {n}:
            raise ValidationError("BadShape")
        kinds = set(map(type, chain.from_iterable(vectors)))
        if any(t is bool or not issubclass(t, (int, Fraction)) for t in kinds):
            raise ValidationError("NotARational(config)")
        return super().__new__(cls, n, a, b_levels, c_levels)

    @classmethod
    def _make(cls, iterable: Iterable) -> Configuration:
        return cls(*iterable)


def _source_slots(tm: TransportMatrix) -> list[tuple[int, int, int]]:
    """Coordinate slots ``(i, j, k)`` of a matrix, in row-major order."""
    return [
        (i, j, k)
        for i in range(1, tm.q + 1)
        for j in range(1, tm.r + 1)
        for k in range(1, tm.entry(i, j) + 1)
    ]


def _column_major(slots: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    return sorted(slots, key=lambda s: (s[1], s[0], s[2]))


def _flag_levels(tm: TransportMatrix, by_row: list, by_column: list) -> tuple[tuple, tuple]:
    """Cumulative levels of the two flags on a matrix's coordinate slots.

    ``by_row`` and ``by_column`` hold the slots' vectors in row-major and
    in column-major order.  ``B_i`` is the prefix of ``by_row`` cut at
    ``b_1 + ... + b_i``, and ``C_j`` the prefix of ``by_column`` cut at
    ``c_1 + ... + c_j``.
    """
    return tuple(
        tuple(tuple(rows[:bound]) for bound in accumulate(sizes))
        for rows, sizes in ((by_row, tm.b), (by_column, tm.c))
    )


def standard_configuration(
    tm: TransportMatrix, positions: Iterable[Position]
) -> Configuration:
    """The coordinate configuration of a matrix with marked positions.

    Coordinates are indexed by slots ``(i, j, k)`` with ``1 <= k <=
    m[i][j]`` in row-major order.  ``B_i`` is spanned by the slots in
    rows ``<= i``, ``C_j`` by the slots in columns ``<= j``, and the
    line by the sum of the ``k = 1`` unit vectors over ``positions``
    (``(i, j)`` pairs, which must be nonempty and sit on positive
    entries, but need not form a staircase).
    """
    raise_if_invalid(tm)
    pts = sorted(set(_require_positions("positions", positions)))
    if not pts:
        raise ValidationError("EmptyInput")
    for k, (i, j) in enumerate(pts, start=1):
        if not (1 <= i <= tm.q and 1 <= j <= tm.r):
            raise ValidationError(f"BadPosition({k})")
        if tm.entry(i, j) <= 0:
            raise ZeroEntryPosition(f"({i},{j})")
    slots = _source_slots(tm)
    return _standard(tm, slots, _column_major(slots), pts)


def _standard(tm: TransportMatrix, by_row: list, by_column: list, positions) -> Configuration:
    """The standard configuration on the matrix's slots, given in
    row-major and in column-major order, with the line the sum of the
    ``k = 1`` unit vectors over ``positions``; built unchecked."""
    n = tm.n
    unit = {s: tuple(int(k == col) for col in range(n)) for k, s in enumerate(by_row)}
    b_levels, c_levels = _flag_levels(tm, list(unit.values()), [unit[s] for s in by_column])
    a_vec = tuple(map(sum, zip(*(unit[(i, j, 1)] for (i, j) in positions))))
    return tuple.__new__(Configuration, (n, (a_vec,), b_levels, c_levels))


def _fresh(levels: Sequence[tuple]) -> Iterable[tuple]:
    """Per level, the generators that do not repeat the previous level:
    cumulative levels start with it, and it spans nothing new.  Lazy, so
    a reader can stop at the first level it rejects."""
    previous = ()
    for level in levels:
        yield level[len(previous) :] if level[: len(previous)] == previous else level
        previous = level


def geometric_rank_tables(config: Configuration) -> tuple[RankTable, RBarTable]:
    """Exact rank invariants of a configuration.

    ``r[i][j] = dim(B_i ∩ C_j)`` and the 0/1 increment ``delta[i][j] =
    dim(A ∩ (B_i + C_j))``, i.e. whether the line lies in ``B_i + C_j``.
    ``r[i][j]`` counts the slots of :func:`_tables_of` northwest of
    ``(i, j)``, and ``delta`` is its threshold table.
    """
    counts, d_values = _tables_of(config)
    rank = _rank_table(counts, len(config.c_levels))
    rbar_values = tuple(tuple(map(add, row, d_row)) for row, d_row in zip(rank.values, d_values))
    return rank, RBarTable(rbar_values, d_values)


def _tables_of(config: Configuration) -> tuple[tuple, tuple]:
    """The configuration's slot counts and its bordered table ``delta``.

    ``counts[i - 1][j - 1]`` is the number of vectors at the slot ``(i,
    j)`` of one basis adapted to both flags, as in the proof that orbits
    are decorated matrices; for a configuration in an orbit they are the
    orbit's matrix.  ``delta[i][j] = dim(A ∩ (B_i + C_j))``.

    The basis and the line's coordinates in it come from
    :func:`_unit_slots` when every flag generator lies on an axis, as in
    standard configurations and degeneration limits, and from
    :func:`_adapted_slots` otherwise.  ``delta[i][j]`` is then
    ``dim(A)`` minus the rank of the line's coordinates on the slots
    outside ``B_i + C_j``.  A line with one generator has that rank 1
    exactly when a slot of its support lies strictly southeast of ``(i,
    j)``, so its ``delta`` is read from per-row thresholds, as
    :func:`delta_table` reads a decoration.
    """
    q, r = len(config.b_levels), len(config.c_levels)
    slots, line = _unit_slots(config) or _adapted_slots(config)
    support = [(slot, column) for slot, *column in zip(slots, *line) if any(column)]

    def outside_rank(i: int, j: int) -> int:
        """Rank of the line's coordinates on the slots outside ``B_i + C_j``,
        taken over its columns there (one per slot of its support)."""
        columns = [column for (bi, cj), column in support if bi > i and cj > j]
        probe = IntEchelon()
        return sum(probe._insert(probe._coordinates(column)[1]) for column in columns)

    if len(line) == 1 and support:
        d_values = _threshold_table([slot for slot, _ in support], q, r)
    else:
        dim_a = outside_rank(0, 0)
        d_values = tuple(
            tuple(dim_a - outside_rank(i, j) for j in range(r + 1)) for i in range(q + 1)
        )
    # The counts are of the vectors at the slots inside the grid.
    counts = [[0] * r for _ in range(q)]
    for bi, cj in slots:
        if bi <= q and cj <= r:
            counts[bi - 1][cj - 1] += 1
    return tuple(map(tuple, counts)), d_values


def _unit_slots(config: Configuration) -> tuple[list, list] | None:
    """The slots of the unit vectors and the line's integral generators
    when every flag generator has exactly one nonzero entry, else None
    from the first generator that has none or several.  Every level is
    then spanned by axes, so the unit vectors are a basis adapted to both
    flags: axis ``p`` sits at the first level of ``B`` with a generator
    on it (``q + 1`` if none), and likewise in ``C``.
    """
    n = config.n
    axes = []
    for levels in (config.b_levels, config.c_levels):
        first = [len(levels) + 1] * n
        for j, level in enumerate(_fresh(levels), 1):
            for g in level:
                if g.count(0) != n - 1:
                    return None
                p = g.index(next(filter(None, g)))
                if j < first[p]:
                    first[p] = j
        axes.append(first)
    return list(zip(*axes)), [_integral(g) for g in config.a]


def _adapted_slots(config: Configuration) -> tuple[list, list]:
    """The slots of a basis adapted to both flags, found by elimination,
    and the line's coordinates in it.

    * The generators of ``B`` are reduced forward, level by level, into
      triangular rows.  With unit vectors at the positions that are no
      row's pivot (level ``q + 1``) they form a basis adapted to ``B``.
      A vector's coordinates in it come from one forward pass over the
      rows.  They are read in reverse, last basis vector first, so that
      a vector's first nonzero coordinate is on the basis vector of the
      lowest level of ``B`` that holds it.
    * The ``C`` generators are reduced in order on these coordinates,
      again forward only, so each kept vector lies in its own level of
      ``C`` and in the level of ``B`` of its pivot.  With unit vectors at
      the other positions (level ``r + 1`` of ``C``) they form the
      adapted basis, each vector at a slot ``(B-level, C-level)``.

    Each generator is made integral once, on entry.  A level that starts
    with the one before it is read from where they differ, so cumulative
    levels eliminate each generator once.
    """
    n, q, r = config.n, len(config.b_levels), len(config.c_levels)
    b_fresh, c_fresh = (
        [[_integral(g) for g in level] for level in _fresh(levels)]
        for levels in (config.b_levels, config.c_levels)
    )
    # Each echelon keeps the generators that leave the span of those
    # before them; the lists give each kept row's level, counted from 1.
    b, c = IntEchelon(), IntEchelon()
    b_kept = [
        j for j, level in enumerate(b_fresh, 1) for g in level if b._insert(b._coordinates(g)[1])
    ]
    b_units = [p for p in range(n) if p not in b._rows][::-1]
    b_level = [q + 1] * len(b_units) + b_kept[::-1]

    def coordinates(vec: list[int]) -> list[int]:
        y, residual = b._coordinates(vec)
        return [residual[p] for p in b_units] + y[::-1]

    c_kept = [
        j
        for j, level in enumerate(c_fresh, 1)
        for g in level
        if c._insert(c._coordinates(coordinates(g))[1])
    ]
    c_units = [p for p in range(n) if p not in c._rows]
    slots = [(b_level[p], j) for p, j in zip(c._rows, c_kept)]
    slots += [(b_level[p], r + 1) for p in c_units]
    line = []
    for g in config.a:
        y, residual = c._coordinates(coordinates(_integral(g)))
        line.append(y + [residual[p] for p in c_units])
    return slots, line


def identify_orbit(config: Configuration) -> DecoratedMatrix:
    """The decorated matrix whose invariants match the configuration.

    Its matrix is the slot counts, validated once.  Raises
    :class:`NotAnOrbitInvariant` when the computed tables do not come
    from any decorated matrix (e.g. the input is not a genuine flag pair
    with a line in general position over the grid).
    """
    counts, d_values = _tables_of(config)
    if not counts or not counts[0]:
        raise NotAnOrbitInvariant("table shapes")
    return _orbit_of(counts, d_values)


def uncircling_check(tm: TransportMatrix, positions: Iterable[Position]) -> bool:
    """Does marking ``positions`` land in the orbit of their staircase hull?

    Builds the standard configuration with an arbitrary set of marked
    positive cells and tests that its orbit is the decorated matrix
    whose decoration is the set of componentwise-maximal marked cells.
    """
    pts = _require_positions("positions", positions)
    hull = normalize_decoration(pts)
    config = standard_configuration(tm, pts)
    try:
        dm = identify_orbit(config)
    except NotAnOrbitInvariant:
        return False
    return dm.matrix.m == tm.m and dm.delta == hull


def apply_basis_change(
    config: Configuration, g: Sequence[Sequence[Fraction | int]]
) -> Configuration:
    """Transform each generator once by the invertible matrix ``g`` (vectors
    are rows; the new vector is ``vec @ g``).  A ``config`` that is not a
    :class:`Configuration` raises ``BadShape``, and an entry of ``g``
    that is not an ``int`` or ``Fraction``, or is a ``bool``,
    ``NotARational(g)``.  The result is built unchecked: ``config`` was
    checked when it was built, and so is ``g`` here."""
    if not isinstance(config, Configuration):
        raise ValidationError("BadShape")
    n = config.n
    try:
        rows = [tuple(row) for row in g]
    except TypeError:
        raise ValidationError("BadShape") from None
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValidationError("BadShape")
    if not all(_is_rational(x) for row in rows for x in row):
        raise ValidationError("NotARational(g)")
    probe = IntEchelon()
    if sum(probe._insert(probe._coordinates(_integral(row))[1]) for row in rows) != n:
        raise FlagError("basis change matrix is singular")
    cols = list(zip(*rows))
    images: dict[int, tuple] = {}  # by id: cumulative levels repeat each generator

    def act(vec: tuple[Fraction | int, ...]) -> tuple[Fraction | int, ...]:
        if id(vec) not in images:
            images[id(vec)] = tuple(sum(map(mul, vec, col)) for col in cols)
        return images[id(vec)]

    b_levels, c_levels = (
        tuple(tuple(map(act, level)) for level in levels)
        for levels in (config.b_levels, config.c_levels)
    )
    return tuple.__new__(Configuration, (n, tuple(map(act, config.a)), b_levels, c_levels))


def random_int_invertible(n: int, rng) -> tuple[tuple[int, ...], ...]:
    """A random integer matrix of determinant ±1 (row operations on the
    identity), for exercising basis invariance.  An ``n`` that is not a
    non-negative ``int`` raises ``BadShape``."""
    if not (_is_int(n) and n >= 0):
        raise ValidationError("BadShape")
    rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    for _ in range(3 * n * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        k = rng.choice((-2, -1, 1, 2))
        rows[b] = [x + k * y for x, y in zip(rows[b], rows[a])]
        if rng.random() < 0.25:
            rows[a], rows[b] = rows[b], rows[a]
    return tuple(tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# Polynomial vectors in the degeneration parameter
#
# A family vector is a tuple of integer coefficient rows: row ``k`` holds
# the coefficients of ``tau**k``.  Every vector has at least one row.

_PolyVec = tuple[tuple[int, ...], ...]


def _v_unit(n: int, idx: int) -> _PolyVec:
    return (tuple(int(k == idx) for k in range(n)),)


def _v_shift(u: _PolyVec, k: int) -> _PolyVec:
    """``tau**k * u``."""
    return ((0,) * len(u[0]),) * k + u


def _v_scale(u: _PolyVec, c: int) -> _PolyVec:
    return tuple(tuple(x * c for x in row) for row in u)


def _v_sum(vectors: Sequence[_PolyVec]) -> _PolyVec:
    zero = (0,) * len(vectors[0][0])
    return tuple(
        tuple(map(sum, zip(*rows))) for rows in zip_longest(*vectors, fillvalue=zero)
    )


def _v_eval(u: _PolyVec, x: Fraction | int) -> tuple[Fraction | int, ...]:
    """The vector's value at ``tau = x``, by Horner's rule over the rows."""
    out = u[-1]
    for row in reversed(u[:-1]):
        out = tuple(a * x + b for a, b in zip(out, row))
    return out


def _saturate_limit(rows: Sequence[_PolyVec]) -> list[tuple[int, ...]]:
    """Exact limit of the row flag as the parameter goes to 0.

    One forward pass.  Each row's coefficient rows, laid end to end, are
    reduced against the rows kept before it; while its value at 0 (the
    first block) vanishes, the row is divided by the parameter (its
    first block dropped) and reduced again.  Neither step changes a
    prefix span at nonzero parameter values, and each division lowers
    the vanishing order of the rows' exterior product, which is at most
    the sum of the rows' degrees, so more divisions than that mean the
    rows are dependent for all parameter values.  The kept rows' values
    at 0 are independent, and their prefix spans are the limit flag.
    """
    n, width = len(rows[0][0]), max(map(len, rows))
    divisions = sum(len(vec) - 1 for vec in rows)
    echelon = IntEchelon()
    values = []
    for vec in rows:
        _, v = echelon._coordinates([*chain.from_iterable(vec), *[0] * (n * (width - len(vec)))])
        while not any(v[:n]):
            if not divisions:
                raise FlagError("family rows are dependent for all parameter values")
            divisions -= 1
            _, v = echelon._coordinates(v[n:] + [0] * n)
        values.append(tuple(v[:n]))
        echelon._insert(v)
    return values


def _p_mul(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The product of integer polynomials, as coefficient lists lowest first."""
    out = [0] * (len(f) + len(g) - 1)
    for a, x in enumerate(f):
        for b, y in enumerate(g):
            out[a + b] += x * y
    return out


def _p_det(columns: list[list[tuple[int, Sequence[int]]]]) -> list[int]:
    """Determinant of a square polynomial matrix given by its columns, as
    ``(row, entry)`` lists of the nonzero entries with rows counted from
    0.  Each pass over the columns peels off as a factor every column
    left with one entry in the rows not yet taken, and that column takes
    the row; rows keep their numbers, and the sign is that of the
    permutation the peeled columns form.  A column with more entries left
    is the sum of its entries, and the determinant is linear in it, so
    only such a dense column branches."""
    n = len(columns)
    perm: list[int | None] = [None] * n  # the row each peeled column takes
    factor, peeled = [1], True
    while peeled:
        peeled, dense = False, []
        for c in range(n):
            if perm[c] is None:
                live = [e for e in columns[c] if e[0] not in perm]
                if len(live) == 1:
                    perm[c], entry = live[0]
                    factor = _p_mul(factor, entry)
                    peeled = True
                else:
                    dense.append((len(live), c))
    if dense:
        c = min(dense)[1]
        det: list[int] = []
        for e in columns[c]:
            if e[0] not in perm:
                term = _p_det(columns[:c] + [[e]] + columns[c + 1 :])
                det = [a + b for a, b in zip_longest(det, term, fillvalue=0)]
        return det
    inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
    return [-x for x in factor] if inversions % 2 else factor


def _rational_root(p: Sequence[int]) -> Fraction | None:
    """A nonzero rational root of the nonzero polynomial ``p``, or None.
    Once ``tau**k`` is divided out, every root is ``±a/b`` with ``a``
    dividing the constant coefficient and ``b`` the leading one."""
    support = [k for k, x in enumerate(p) if x]
    p = p[support[0] : support[-1] + 1]
    d = len(p) - 1
    if not d:
        return None
    divisors = [[a for a in range(1, abs(x) + 1) if not x % a] for x in (p[0], p[-1])]
    for a, b in product(*divisors):
        for x in (a, -a):
            if not sum(c * x**i * b ** (d - i) for i, c in enumerate(p)):
                return Fraction(x, b)
    return None


# ---------------------------------------------------------------------------
# Degeneration families


class _Family(NamedTuple):
    """A move's symbolic family: the target orbit, the polynomial vector
    (in source coordinates) at each target slot, the target's slots in
    row-major and in column-major order, and the positions whose ``k = 1``
    slot vectors sum to the line."""

    target: DecoratedMatrix
    vectors: dict[tuple[int, int, int], _PolyVec]
    by_row: list[tuple[int, int, int]]
    by_column: list[tuple[int, int, int]]
    a_set: tuple[Position, ...]


def _family_vectors(dm: DecoratedMatrix, move: Move) -> _Family:
    """The symbolic family of a move, built once for every ``tau``."""
    target = apply_move(dm, move)
    tm, tgt = dm.matrix, target.matrix
    n = tm.n
    src_index = {s: k for k, s in enumerate(_source_slots(tm))}

    def e(i: int, j: int, k: int) -> _PolyVec:
        return _v_unit(n, src_index[(i, j, k)])

    delta = dm.delta

    def below(i: int, j: int) -> list[_PolyVec]:
        """The ``k = 1`` unit vectors of the decorated cells strictly
        northwest of ``(i, j)``."""
        return [e(d[0], d[1], 1) for d in delta if d[0] <= i and d[1] <= j and d != (i, j)]

    specials: dict[tuple[int, int, int], _PolyVec] = {}
    kind, anchors = move.kind, move.anchors
    if kind == "I":
        ((i1, j1),) = anchors
        specials[(i1, j1, 1)] = _v_sum([_v_shift(e(i1, j1, 1), 1), *below(i1, j1)])
        a_set = target.delta
    elif kind in ("II", "IVb", "IVc"):
        (i0, j0), (i1, j1) = anchors[0], anchors[1]
        nw_top = e(i0, j0, tm.entry(i0, j0))
        specials[(i0, j1, tgt.entry(i0, j1))] = _v_sum(
            [nw_top, _v_shift(e(i1, j1, tm.entry(i1, j1)), 1)]
        )
        specials[(i1, j0, tgt.entry(i1, j0))] = nw_top
        a_set = delta
    elif kind in ("IIIa", "IIIb"):
        (i0, j0), (i1, j1) = anchors
        # IIIa keeps the unit at the SW corner and slides the decoration
        # to the NE corner; IIIb is its mirror image.
        unit, slide = ((i1, j0), (i0, j1)) if kind == "IIIa" else ((i0, j1), (i1, j0))
        specials[(*unit, tgt.entry(*unit))] = e(i0, j0, 1)
        specials[(*slide, 1)] = _v_sum(
            [_v_shift(e(i1, j1, tm.entry(i1, j1)), 1), *below(*slide)]
        )
        a_set = target.delta
    elif kind == "IVa":
        (i0, j0), (i1, j1), (i2, j2) = anchors
        se_top = _v_shift(e(i1, j1, tm.entry(i1, j1)), 1)
        specials[(i1, j2, tgt.entry(i1, j2))] = _v_sum([e(i2, j2, 1), se_top])
        specials[(i0, j1, tgt.entry(i0, j1))] = _v_sum([e(i0, j0, 1), se_top])
        specials[(i2, j0, 1)] = _v_sum(below(i2, j0))
        a_set = target.delta
    else:  # kind V
        (i0, j0), chain = anchors[0], anchors[1:]
        rest = [d for d in delta if d not in chain]
        for d in rest:
            specials[(d[0], d[1], 1)] = _v_shift(e(d[0], d[1], 1), 1)
        for (ci, cj) in chain:
            for k in range(1, tgt.entry(ci, cj) + 1):
                specials[(ci, cj, k)] = e(ci, cj, k + 1)
        pivot_top = e(i0, j0, tm.entry(i0, j0))
        heads = [e(ci, cj, 1) for (ci, cj) in chain]
        j_first = chain[0][1]
        i_last = chain[-1][0]
        specials[(i0, j_first, 1)] = _v_sum(
            [pivot_top] + [_v_shift(h, 1) for h in heads]
        )
        for k in range(2, tgt.entry(i0, j_first) + 1):
            specials[(i0, j_first, k)] = e(i0, j_first, k - 1)
        specials[(i_last, j0, 1)] = _v_scale(pivot_top, -1)
        for k in range(2, tgt.entry(i_last, j0) + 1):
            specials[(i_last, j0, k)] = e(i_last, j0, k - 1)
        for s in range(1, len(chain)):
            pos = (chain[s - 1][0], chain[s][1])
            # Early chain heads fade at second order.  Without the
            # (1 + tau) factor the determinant would vanish at tau = 1;
            # with it, it has no nonzero rational root (checked by
            # verify_move_degeneration), and the limit is untouched.
            terms = [pivot_top]
            for u, h in enumerate(heads, start=1):
                if u <= s:
                    terms.append(_v_sum([_v_shift(h, 2), _v_shift(h, 3)]))
                else:
                    terms.append(_v_shift(h, 1))
            specials[(pos[0], pos[1], tgt.entry(pos[0], pos[1]))] = _v_sum(terms)
        a_set = tuple(rest) + ((i0, j_first), (i_last, j0))
    slots = _source_slots(tgt)
    vmap = {slot: specials[slot] if slot in specials else e(*slot) for slot in slots}
    # The values are built unchecked (see ``_family_at``), so the rows
    # are checked here, once for every ``tau``.
    rows = [row for vec in vmap.values() for row in vec]
    if any(len(row) != n for row in rows):
        raise ValidationError("BadShape")
    if any(type(x) is not int for row in rows for x in row):
        raise ValidationError("NotARational(config)")
    return _Family(target, vmap, slots, _column_major(slots), a_set)


def _family_at(family: _Family, tau: Fraction | int) -> Configuration:
    """The family's configuration at ``tau``, its vectors' exact values
    there, or its exact limit at ``tau = 0``, built without the checks
    that :func:`_family_vectors` made once.  The line is the sum of the
    ``k = 1`` slot vectors over ``a_set``; at ``tau = 0`` it is that
    sum's first nonzero coefficient row.  Whether a nonzero ``tau`` gives
    a basis is not checked; slot vectors that are dependent for every
    ``tau`` raise :class:`FlagError` at ``tau = 0``, before the line,
    which cannot vanish otherwise, is read."""
    orders = (family.by_row, family.by_column)
    line = _v_sum([family.vectors[(i, j, 1)] for (i, j) in family.a_set])
    if tau != 0:
        numeric = {slot: _v_eval(vec, tau) for slot, vec in family.vectors.items()}
        levels = [[numeric[s] for s in slots] for slots in orders]
        a_row = _v_eval(line, tau)
    else:
        levels = [_saturate_limit([family.vectors[s] for s in slots]) for slots in orders]
        a_row = next(row for row in line if any(row))
    tgt = family.target.matrix
    b_levels, c_levels = _flag_levels(tgt, *levels)
    return tuple.__new__(Configuration, (tgt.n, (a_row,), b_levels, c_levels))


def degeneration_family(
    dm: DecoratedMatrix, move: Move, tau: Fraction | int
) -> Configuration:
    """The configuration of the move's one-parameter family at ``tau``.

    For ``tau != 0`` the configuration lies in the orbit of
    ``apply_move(dm, move)``; at ``tau = 0`` it is the exact limit,
    lying in the orbit of ``dm`` itself.  :func:`verify_move_degeneration`
    proves both for every nonzero ``tau``.  A singular evaluation raises
    :class:`FlagError` rather than returning a degenerate flag.  A
    non-rational or ``bool`` ``tau`` raises ``NotARational(tau)``.
    """
    if not _is_rational(tau):
        raise ValidationError("NotARational(tau)")
    config = _family_at(_family_vectors(dm, move), tau)
    probe = IntEchelon()
    if sum(map(probe.add, config.b_levels[-1])) != config.n:
        raise FlagError(f"family is singular at tau={tau}")
    return config


def _family_det(family: _Family) -> list[int]:
    """``det g(tau)``, where the columns of ``g`` are the slot vectors in
    row-major order."""
    columns = (zip(*family.vectors[s]) for s in family.by_row)
    return _p_det([[(r, p) for r, p in enumerate(column) if any(p)] for column in columns])


class MoveDegenerationReport(NamedTuple):
    """Geometric verification of one move as a degeneration."""

    move: Move
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_move_degeneration(dm: DecoratedMatrix, move: Move) -> MoveDegenerationReport:
    """Check that the move's family lies in the target orbit at every
    nonzero ``tau`` and its limit at ``tau = 0`` in the orbit of ``dm``.

    The family is built once.  Its line is the sum of its ``k = 1`` slot
    vectors over ``a_set``, so at each ``tau`` the family is ``g(tau)``,
    the matrix of its slot vectors, applied to the standard configuration
    of the target with the line on ``a_set``.  It therefore lies in the
    target orbit for every nonzero ``tau`` exactly when ``det g(tau)`` has
    no nonzero rational root and that configuration has the target's
    tables.  The limit is computed first, so slot vectors that are
    dependent for every ``tau`` raise :class:`FlagError`.  Each
    configuration is compared with its orbit by the slot counts and the
    threshold table, which fix the two tables.  Each unmet premise is
    one failure, and a configuration is identified only when it fails,
    to name the orbit it lies in.
    """
    family = _family_vectors(dm, move)
    target, _, by_row, by_column, a_set = family
    limit = _family_at(family, 0)
    failures: list[str] = []
    root = _rational_root(_family_det(family))
    if root is not None:
        failures.append(f"family is singular at tau={root}")
    standard = _standard(target.matrix, by_row, by_column, a_set)
    for orbit, config, sample in ((target, standard, "family"), (dm, limit, "tau=0: limit")):
        rows = tuple(map(tuple, orbit.matrix.m))
        if _tables_of(config) != (rows, _threshold_table(orbit.delta, orbit.q, orbit.r)):
            lies_in = render(identify_orbit(config))
            failures.append(f"{sample} lies in [{lies_in}], not [{render(orbit)}]")
    return MoveDegenerationReport(move=move, failures=tuple(failures))
