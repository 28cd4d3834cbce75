"""Brute-force oracles and golden data shared across the test modules.

Everything in this file is deliberately independent of the package
internals: counts come from direct enumeration, order relations from
their definitions, and reductions from cubic-time closures, so the fast
implementations are measured against something honest.  The reference
versions of replaced fast paths use only the package's public functions;
the reference move checkers also read the orbit view they are given.
"""

from fractions import Fraction
from itertools import combinations, permutations, product


def compositions(n):
    """All ordered tuples of positive integers summing to ``n``."""
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in compositions(n - first)]


def margin_pairs(lo, hi):
    """All margin pairs ``(b, c)`` with total mass between ``lo`` and ``hi``."""
    return [
        (b, c)
        for n in range(lo, hi + 1)
        for b in compositions(n)
        for c in compositions(n)
    ]


def brute_force_matrices(b, c):
    """All nonnegative integer matrices with row sums ``b``, column sums ``c``."""
    q, r = len(b), len(c)
    out = []

    def rows_from(done, col_left):
        if len(done) == q:
            if all(x == 0 for x in col_left):
                out.append(tuple(done))
            return
        budget = b[len(done)]

        def cells(row, left):
            k = len(row)
            if k == r:
                if left == 0:
                    rows_from(
                        done + [tuple(row)],
                        [cl - x for cl, x in zip(col_left, row)],
                    )
                return
            for x in range(min(left, col_left[k]) + 1):
                cells(row + [x], left - x)

        cells([], budget)

    rows_from([], list(c))
    return out


def transport_matrices_by_product(b, c):
    """The matrices with row sums ``b`` and column sums ``c``, in the
    lexicographic order of their rows: each row is drawn from the product
    of the ranges its row sum allows, and kept if its sum is right; each
    matrix from the product of the rows, and kept if its column sums are."""
    rows = [[row for row in product(range(t + 1), repeat=len(c)) if sum(row) == t] for t in b]
    return [m for m in product(*rows) if tuple(map(sum, zip(*m))) == tuple(c)]


def brute_force_staircases(points):
    """All nonempty NE-to-SW staircases within ``points``, sorted by row.

    A staircase is a set whose members are pairwise strictly ordered
    one way in rows and the other way in columns.
    """
    pts = sorted(points)
    out = []
    for size in range(1, len(pts) + 1):
        for sub in combinations(pts, size):
            if all(
                p[0] < s[0] and p[1] > s[1]
                for p, s in combinations(sub, 2)
            ):
                out.append(tuple(sub))
    return out


def maximal_positions(points):
    """The componentwise-maximal points, comparing every pair, sorted."""
    pts = set(points)
    return tuple(
        sorted(
            p for p in pts
            if not any(p != d and p[0] <= d[0] and p[1] <= d[1] for d in pts)
        )
    )


def dominated(p, positions):
    """True iff ``p`` lies weakly northwest of some position."""
    return any(p[0] <= d[0] and p[1] <= d[1] for d in positions)


def sort_key(x):
    """The canonical order of the enumerations: the matrix entries row
    by row, then the decoration (none for a plain matrix)."""
    tm, delta = (x.matrix, x.delta) if hasattr(x, "delta") else (x, ())
    return (tuple(v for row in tm.m for v in row), delta)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _composition_code(parts):
    if len(parts) == 0:
        return "EmptyComposition"
    for k, part in enumerate(parts, start=1):
        if not _is_int(part) or part < 1:
            return f"BadPart({k})"
    return None


def validate_by_rule(matrix, delta=None):
    """The first violated invariant's code, checked rule by rule and cell
    by cell in the documented order, or None.  ``matrix`` is anything
    with ``m``, ``b`` and ``c`` fields."""
    code = _composition_code(matrix.b)
    if code is not None:
        return code
    code = _composition_code(matrix.c)
    if code is not None:
        return code
    if sum(matrix.b) != sum(matrix.c):
        return "BadShape"
    q, r = len(matrix.b), len(matrix.c)
    if len(matrix.m) != q or any(len(row) != r for row in matrix.m):
        return "BadShape"
    for i in range(1, q + 1):
        for j in range(1, r + 1):
            x = matrix.m[i - 1][j - 1]
            if not _is_int(x) or x < 0:
                return f"NegativeEntry({i},{j})"
    for i in range(1, q + 1):
        if sum(matrix.m[i - 1]) != matrix.b[i - 1]:
            return f"BadRowSum({i})"
    for j in range(1, r + 1):
        if sum(matrix.m[i][j - 1] for i in range(q)) != matrix.c[j - 1]:
            return f"BadColSum({j})"
    if delta is None:
        return None
    try:
        pts = list(delta)
    except TypeError:
        return "BadShape"
    if not pts:
        return "EmptyDecoration"
    for k, p in enumerate(pts, start=1):
        if not isinstance(p, (tuple, list)):
            return f"BadPosition({k})"
        try:
            i, j = p
        except ValueError:
            return f"BadPosition({k})"
        if not (_is_int(i) and _is_int(j)) or not (1 <= i <= q and 1 <= j <= r):
            return f"BadPosition({k})"
    pts = sorted(tuple(p) for p in pts)
    for k in range(1, len(pts)):
        (i0, j0), (i1, j1) = pts[k - 1], pts[k]
        if not (i0 < i1 and j0 > j1):
            return f"NotStaircase({k + 1})"
    for (i, j) in pts:
        if matrix.m[i - 1][j - 1] <= 0:
            return f"ZeroEntryDecorated({i},{j})"
    return None


def brute_force_simple_moves(m):
    """Corners ``(i0, j0, i1, j1)`` of every rectangle supporting a simple
    move on the rows ``m``, in lexicographic order: both diagonal corners
    positive and every other cell of the closed rectangle, apart from the
    anti-diagonal corners, zero."""
    q, r = len(m), len(m[0])
    out = []
    for i0 in range(q):
        for j0 in range(r):
            for i1 in range(i0 + 1, q):
                for j1 in range(j0 + 1, r):
                    corners = {(i0, j0), (i1, j1), (i0, j1), (i1, j0)}
                    if m[i0][j0] > 0 and m[i1][j1] > 0 and all(
                        m[i][j] == 0
                        for i in range(i0, i1 + 1)
                        for j in range(j0, j1 + 1)
                        if (i, j) not in corners
                    ):
                        out.append((i0 + 1, j0 + 1, i1 + 1, j1 + 1))
    return out


def se_corners_by_definition(m, i0, j0):
    """The positive cells strictly southeast of ``(i0, j0)`` (1-based)
    whose closed rectangle with it holds no other such cell, by row."""
    q, r = len(m), len(m[0])
    below = [
        (i, j)
        for i in range(i0 + 1, q + 1)
        for j in range(j0 + 1, r + 1)
        if m[i - 1][j - 1] > 0
    ]
    return [
        (i, j)
        for (i, j) in below
        if not any((a, b) != (i, j) and a <= i and b <= j for (a, b) in below)
    ]


def candidates_by_scan(view):
    """The candidate anchor tuples of ``view``, an orbit's view in
    :mod:`lineflags.moves`, in canonical order, each found by scanning the
    decoration or the cells with mass for every anchor, without reading
    the order of the staircase.  Far corners come from
    :func:`se_corners_by_definition`."""
    m, delta, free = view.m, view.delta, view.free
    support = [(i, j) for i, row in enumerate(m, 1) for j, x in enumerate(row, 1) if x]
    far = {p: se_corners_by_definition(m, *p) for p in support + list(delta)}
    out = []
    limit = view.r + 1
    for (i, j) in support:
        if j < limit and free[i - 1][j - 1]:
            out.append(("I", ((i, j),)))
            limit = j
    for (i, j) in support:
        if (i, j) in delta and m[i - 1][j - 1] == 1:
            continue
        out += [("II", ((i, j), s)) for s in far[i, j] if s not in delta]
    for kind in ("IIIa", "IIIb"):
        out += [(kind, (p, s)) for p in delta for s in far[p]]
    for (i0, j0) in delta:
        for (i1, j1) in support:
            if i1 > i0 + 1 and j1 > j0:
                for (i2, j2) in delta:
                    if i0 < i2 < i1 and j2 < j0:
                        out.append(("IVa", ((i0, j0), (i1, j1), (i2, j2))))
    for (i0, j0) in support:
        for (i1, j1) in far[i0, j0]:
            for (i2, j2) in delta:
                if j2 == j0 and i0 < i2 < i1:
                    out.append(("IVb", ((i0, j0), (i1, j1), (i2, j0))))
    for (i0, j0) in support:
        for (i1, j1) in far[i0, j0]:
            for (i2, j2) in delta:
                if i2 == i0 and j0 < j2 < j1:
                    out.append(("IVc", ((i0, j0), (i1, j1), (i0, j2))))
    for (i0, j0) in support:
        run = [k for k, (i, j) in enumerate(delta) if i > i0 and j > j0]
        for start in run:
            for stop in range(start + 1, run[-1] + 2):
                out.append(("V", ((i0, j0),) + delta[start:stop]))
    return out


def _undominated_by_scan(view, i0, j0, i1, j1, skip):
    """The first cell of rows ``i0..i1`` and columns ``j0..j1`` outside
    ``skip``, in row-major order, with mass and free in ``view``; None if
    there is none."""
    for i in range(i0, i1 + 1):
        for j in range(j0, j1 + 1):
            if view.tm.entry(i, j) and view.free[i - 1][j - 1] and (i, j) not in skip:
                return (i, j)
    return None


def _flip_rows(rows, i0, j0, i1, j1):
    """``rows`` with one unit moved from ``(i0, j0)`` and ``(i1, j1)`` to
    ``(i0, j1)`` and ``(i1, j0)``."""
    out = [list(row) for row in rows]
    out[i0 - 1][j0 - 1] -= 1
    out[i0 - 1][j1 - 1] += 1
    out[i1 - 1][j1 - 1] -= 1
    out[i1 - 1][j0 - 1] += 1
    return tuple(map(tuple, out))


def _reference_I(v, anchors):
    from lineflags import normalize_decoration

    ((i1, j1),) = anchors
    tm = v.tm
    if tm.entry(i1, j1) <= 0:
        return "entry at (i1,j1) must be positive"
    if not v.free[i1 - 1][j1 - 1]:
        return "(i1,j1) must not lie weakly northwest of a decorated cell"
    bad = _undominated_by_scan(v, 1, 1, i1, j1, anchors)
    if bad is not None:
        return "nonzero undominated entry at (%d,%d) northwest of (i1,j1)" % bad
    return (tm.m, normalize_decoration(v.delta + anchors))


def _reference_II(v, anchors):
    (i0, j0), (i1, j1) = anchors
    tm, delta, dt = v.tm, v.delta, v.free
    clause = v.mat.clause[i0, j0, i1, j1]
    if clause is not None:
        return clause
    if (i1, j1) in delta:
        return "(i1,j1) must not be decorated"
    if (i0, j1) in delta and (i1, j0) in delta:
        return "(i0,j1) and (i1,j0) must not both be decorated"
    if (i0, j0) in delta and tm.entry(i0, j0) < 2:
        return "a decorated (i0,j0) needs at least two units"
    if (
        dt[i1 - 1][j1 - 1]
        and not _undominated_by_scan(v, 1, 1, i1, j1, ((i1, j1),))
        and not (dt[i0 - 1][j1 - 1] or dt[i1 - 1][j0 - 1])
    ):
        return "decorating (i1,j1) first gives a strictly intermediate orbit"
    return (v.mat.flip[i0, j0, i1, j1], delta)


def _reference_III(v, anchors, to_ne):
    from lineflags import normalize_decoration

    (i0, j0), (i1, j1) = anchors
    tm, delta = v.tm, v.delta
    if not (i0 < i1 and j0 < j1):
        return "corners must satisfy i0 < i1 and j0 < j1"
    if (i0, j0) not in delta:
        return "(i0,j0) must be decorated"
    if tm.entry(i0, j0) != 1:
        return "entry at (i0,j0) must be exactly 1"
    if tm.entry(i1, j1) <= 0:
        return "entry at (i1,j1) must be positive"
    to, other = ((i0, j1), (i1, j0)) if to_ne else ((i1, j0), (i0, j1))
    clause = v.mat.interior[i0, j0, i1, j1, other]
    if clause is not None:
        return clause
    bad = _undominated_by_scan(v, 1, 1, *to, ((i0, j0),))
    if bad is not None:
        corner = "(i0,j1)" if to_ne else "(i1,j0)"
        return "nonzero undominated entry at (%d,%d) northwest of " % bad + corner
    return (v.mat.flip[i0, j0, i1, j1], normalize_decoration(delta + (to,)))


def _reference_IVa(v, anchors):
    from lineflags import normalize_decoration

    (i0, j0), (i1, j1), (i2, j2) = anchors
    tm, delta = v.tm, v.delta
    if not (i0 < i2 < i1 and j2 < j0 < j1):
        return "anchors must satisfy i0 < i2 < i1 and j2 < j0 < j1"
    if (i0, j0) not in delta:
        return "(i0,j0) must be decorated"
    if tm.entry(i0, j0) != 1:
        return "entry at (i0,j0) must be exactly 1"
    if (i2, j2) not in delta:
        return "(i2,j2) must be decorated"
    if tm.entry(i2, j2) != 1:
        return "entry at (i2,j2) must be exactly 1"
    if tm.entry(i1, j1) <= 0:
        return "entry at (i1,j1) must be positive"
    frame = ((i0, j2), (i1, j1), (i0, j1), (i1, j2))
    bad = _undominated_by_scan(v, i0, j2, i1, j1, frame)
    if bad is not None:
        return "nonzero undominated entry at (%d,%d) inside the frame" % bad
    rows = _flip_rows(v.mat.flip[i0, j0, i1, j1], i2, j2, i1, j0)
    return (rows, normalize_decoration(delta + ((i2, j0),)))


def _reference_IVbc(v, anchors, west):
    third, edge, order, off = (
        ("(i2,j0)", "column j0", "i0 < i2 < i1 and j0 < j1", "(i0,j1)")
        if west
        else ("(i0,j2)", "row i0", "j0 < j2 < j1 and i0 < i1", "(i1,j0)")
    )
    (i0, j0), (i1, j1), unit = anchors
    tm, delta = v.tm, v.delta
    (a0, b0), (a1, b1), (a2, b2) = anchors if west else ((j0, i0), (j1, i1), unit[::-1])
    if b2 != b0:
        return "third anchor must sit in " + edge
    if not (a0 < a2 < a1 and b0 < b1):
        return "anchors must satisfy " + order
    if unit not in delta:
        return third + " must be decorated"
    if tm.entry(*unit) != 1:
        return f"entry at {third} must be exactly 1"
    if tm.entry(i0, j0) <= 0:
        return "entry at (i0,j0) must be positive"
    if tm.entry(i1, j1) <= 0:
        return "entry at (i1,j1) must be positive"
    if not (v.free[i0 - 1][j1 - 1] if west else v.free[i1 - 1][j0 - 1]):
        return off + " must not lie weakly northwest of a decorated cell"
    clause = v.mat.interior[i0, j0, i1, j1, (i0, j1), (i1, j0), unit]
    if clause is not None:
        return clause
    return (v.mat.flip[i0, j0, i1, j1], delta)


def _reference_V(v, anchors):
    from lineflags import normalize_decoration

    pivot, chain = anchors[0], anchors[1:]
    tm, delta = v.tm, v.delta
    if chain[0] not in delta:
        return "chain must consist of decorated positions"
    start = delta.index(chain[0])
    if delta[start : start + len(chain)] != chain:
        return "chain must be a consecutive run of the decoration"
    i0, j0 = pivot
    if not (i0 < chain[0][0] and j0 < chain[-1][1]):
        return "pivot must satisfy i0 < i_1 and j0 < j_t"
    if tm.entry(i0, j0) <= 0:
        return "entry at (i0,j0) must be positive"
    for cell in chain:
        clause = v.mat.block[pivot + cell]
        if clause is not None:
            return clause
    others = set(delta) - set(chain)
    head_i, head_j = chain[0]
    a = next((i for i in range(i0 + 1, head_i) if tm.entry(i, head_j) > 0), None)
    if a is not None and any(c >= a and d > head_j for (c, d) in others):
        return f"flipping into ({a},{head_j}) first gives a strictly intermediate orbit"
    tail_i, tail_j = chain[-1]
    b = next((j for j in range(j0 + 1, tail_j) if tm.entry(tail_i, j) > 0), None)
    if b is not None and any(c > tail_i and d >= b for (c, d) in others):
        return f"flipping into ({tail_i},{b}) first gives a strictly intermediate orbit"
    rows = v.mat.flip[i0, j0, head_i, head_j]
    for (c, _), (i, j) in zip(chain, chain[1:]):
        rows = _flip_rows(rows, c, j0, i, j)
    return (rows, normalize_decoration((*others, (i0, head_j), (tail_i, j0))))


REFERENCE_CHECKERS = {
    "I": _reference_I,
    "II": _reference_II,
    "IIIa": lambda v, anchors: _reference_III(v, anchors, to_ne=True),
    "IIIb": lambda v, anchors: _reference_III(v, anchors, to_ne=False),
    "IVa": _reference_IVa,
    "IVb": lambda v, anchors: _reference_IVbc(v, anchors, west=True),
    "IVc": lambda v, anchors: _reference_IVbc(v, anchors, west=False),
    "V": _reference_V,
}
"""Reference move checkers by kind, for those of :mod:`lineflags.moves`.
Each takes an orbit's view and in-grid anchors as many as the kind
takes, and returns the same ``(rows, delta)`` or clause: it reads
entries through ``TransportMatrix.entry``, scans rectangles cell by
cell, finds the cells that can block a kind-V flip among all other
decorated cells, and builds a new decoration with
``normalize_decoration`` from all its cells.  The clauses and flips that
depend on the matrix alone it reads from the view's tables."""


def prefix_rank_table(m, q, r):
    """Bordered table of northwest prefix sums, straight from the definition."""
    return [
        [
            sum(m[a][bb] for a in range(i) for bb in range(j))
            for j in range(r + 1)
        ]
        for i in range(q + 1)
    ]


def second_differences(v):
    """The rows whose bordered northwest prefix sums are the table ``v``."""
    return [
        [v[i][j] - v[i - 1][j] - v[i][j - 1] + v[i - 1][j - 1] for j in range(1, len(v[0]))]
        for i in range(1, len(v))
    ]


def delta_by_definition(delta, q, r):
    """Bordered 0/1 table: 1 at ``(i, j)`` iff every decorated ``(a, b)``
    has ``a <= i`` or ``b <= j``."""
    return [
        [int(all(a <= i or b <= j for (a, b) in delta)) for j in range(r + 1)]
        for i in range(q + 1)
    ]


def first_entry(tables_x, tables_y, differs):
    """Scan two ``(r, rbar)`` table pairs row-major, ``r`` before ``rbar``;
    return ``(table, (i, j), xval, yval)`` at the first entry where
    ``differs(xval, yval)``, or None."""
    for i, rows in enumerate(zip(*tables_x, *tables_y)):
        rx, bx, ry, by = rows
        for j in range(len(rx)):
            if differs(rx[j], ry[j]):
                return ("r", (i, j), rx[j], ry[j])
            if differs(bx[j], by[j]):
                return ("rbar", (i, j), bx[j], by[j])
    return None


def first_by_invariant(x, y, differs):
    """The ``rk_*`` scan over the public ``invariant`` tuples: the
    ``(table, (i, j), xval, yval)`` of their first entry where
    ``differs(xval, yval)``, ``r`` at even and ``rbar`` at odd entries."""
    from lineflags import invariant

    ix, iy = invariant(x), invariant(y)
    for k, (u, w) in enumerate(zip(ix, iy)):
        if differs(u, w):
            return ("rbar" if k % 2 else "r", divmod(k // 2, x.r + 1), u, w)
    return None


def transitive_reduction(count, leq):
    """Cover pairs of a finite order given by a ``leq(a, t)`` predicate."""
    covers = []
    for a in range(count):
        for t in range(count):
            if a == t or not leq(a, t):
                continue
            if not any(
                z != a and z != t and leq(a, z) and leq(z, t)
                for z in range(count)
            ):
                covers.append((a, t))
    return covers


def inversions(w):
    """Number of inversions of a permutation in one-line notation."""
    return sum(1 for a, b in combinations(range(len(w)), 2) if w[a] > w[b])


def dimension_full_flags(w, delta_cols):
    """Orbit dimension in the full-flag case ``b = c = (1, ..., 1)``.

    For a permutation ``w`` and descending index set ``K`` this is
    ``C(n,2) + (n-1) + inv(w) - #{j : every k in K has k < j or w(k) < w(j)}``.
    The minimum over a fixed ``n`` is ``C(n,2)`` and the maximum
    ``(n-1) + 2*C(n,2)``.
    """
    n = len(w)
    free = sum(
        1 for j in range(1, n + 1) if all(k < j or w[k - 1] < w[j - 1] for k in delta_cols)
    )
    return n * (n - 1) // 2 + (n - 1) + inversions(w) - free


def dimension_by_stabilizer(config):
    """``n² − dim{X : X B_i ⊆ B_i, X C_j ⊆ C_j, X a ∈ span a}``: the
    dimension of a configuration's orbit, as that of GL_n less that of
    the Lie algebra of its stabilizer.

    Each level of ``config`` and its line must list independent
    generators of the whole subspace, as the levels of a standard
    configuration, basis-changed or not, do.  For a subspace with such
    generators ``u_1..u_d``, ``X U ⊆ U`` says ``X u_k = Σ_t λ_kt u_t`` for
    some ``λ``, which ``X`` fixes.  So the stabilizer is the solution
    space of one linear system in ``X`` and every ``λ``, and the orbit's
    dimension is the system's rank less the number of ``λ``.  A subspace
    of dimension ``n`` is skipped: it constrains nothing.
    """
    from lineflags import IntEchelon

    n = config.n
    spaces = [U for U in (*config.b_levels, *config.c_levels, config.a) if len(U) < n]
    width = n * n + sum(len(U) ** 2 for U in spaces)
    system, offset = IntEchelon(), n * n
    for U in spaces:
        d = len(U)
        for k, u in enumerate(U):
            for p in range(n):  # coordinate p of X u_k − Σ_t λ_kt u_t
                row = [0] * width
                row[p * n : p * n + n] = u
                for t, v in enumerate(U):
                    row[offset + k * d + t] = -v[p]
                system.add(row)
        offset += d * d
    return system.rank - (width - n * n)


def bruhat_covers(n):
    """Covers of the strong order on permutations of ``1..n``.

    ``w`` is covered by ``v`` exactly when ``v`` arises from ``w`` by one
    transposition that raises the inversion count by exactly one.
    """
    out = set()
    for w in permutations(range(1, n + 1)):
        base = inversions(w)
        for a, b in combinations(range(n), 2):
            v = list(w)
            v[a], v[b] = v[b], v[a]
            v = tuple(v)
            if inversions(v) == base + 1:
                out.add((w, v))
    return out


def fraction_dependency(rows):
    """First row lying in the span of the previous ones, over ``Fraction``.

    Plain Gauss-Jordan elimination that tracks each reduced row's
    combination of the input rows.  Returns ``(p, coeffs)`` with
    ``rows[p] = sum(coeffs[k] * rows[k] for k < p)``, or None when the
    rows are independent.
    """
    reduced = []
    count = len(rows)
    for p in range(count):
        vec = [Fraction(x) for x in rows[p]]
        combo = [Fraction(0)] * count
        combo[p] = Fraction(1)
        for pvec, pcol, pcombo in reduced:
            f = vec[pcol]
            if f:
                vec = [a - f * b for a, b in zip(vec, pvec)]
                combo = [a - f * b for a, b in zip(combo, pcombo)]
        pivot = next((k for k, x in enumerate(vec) if x != 0), None)
        if pivot is None:
            return p, [-combo[k] for k in range(p)]
        inv = vec[pivot]
        vec = [x / inv for x in vec]
        combo = [x / inv for x in combo]
        reduced.append((vec, pivot, combo))
    return None


def fraction_rank(vectors):
    """Rank of rational vectors by forward elimination over ``Fraction``."""
    rows = [[Fraction(x) for x in vec] for vec in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for k in range(rank + 1, len(rows)):
            f = rows[k][col] / rows[rank][col]
            if f:
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[rank])]
        rank += 1
    return rank


def limit_by_restarts(rows):
    """Values at ``tau = 0`` of polynomial rows, saturated by restarts.

    ``rows[p][k]`` holds the coefficients of ``tau**k`` in row ``p``.
    While the values at 0 have a first dependency ``rows[p](0) =
    sum(c[k] * rows[k](0) for k < p)``, row ``p`` is replaced by
    ``rows[p] - sum(c[k] * rows[k])`` divided by the largest power of
    ``tau`` dividing it, and the search starts over from the first row.
    The prefix spans of the values returned are the limit flag.  Returns
    None when the rows are dependent for all parameter values: their
    rank is short at the points ``tau = 1, ..., 1 + (sum of degrees)``,
    more points than a nonzero maximal minor has roots.
    """
    width = len(rows[0][0])
    degrees = sum(len(vec) - 1 for vec in rows)
    if fraction_dependency([vec[0] for vec in rows]) is not None and all(
        fraction_rank([[sum(block[col] * tau**k for k, block in enumerate(vec))
                        for col in range(width)] for vec in rows]) < len(rows)
        for tau in range(1, degrees + 2)
    ):
        return None
    zero = [Fraction(0)] * width
    work = [[[Fraction(x) for x in block] for block in vec] for vec in rows]
    while True:
        values = [vec[0] for vec in work]
        relation = fraction_dependency(values)
        if relation is None:
            return values
        p, coeffs = relation
        comb = []
        for k in range(max(len(vec) for vec in work[: p + 1])):
            blocks = [vec[k] if k < len(vec) else zero for vec in work[: p + 1]]
            comb.append([
                blocks[p][col] - sum(c * block[col] for c, block in zip(coeffs, blocks))
                for col in range(width)
            ])
        work[p] = comb[next(k for k, block in enumerate(comb) if any(block)):]


def rank_tables_by_definition(config):
    """Rank and delta tables of a configuration, straight from the definition.

    ``B_i`` is spanned by the generators of levels ``1..i`` and ``C_j``
    likewise, so the levels may be cumulative or incremental.  Every
    entry takes fresh ranks of the concatenated generators:
    ``r[i][j] = dim B_i + dim C_j - rank[B_i | C_j]`` and
    ``delta[i][j] = dim A + rank[B_i | C_j] - rank[A | B_i | C_j]``.
    """
    a = list(config.a)
    b_spans = [[v for level in config.b_levels[:i] for v in level]
               for i in range(len(config.b_levels) + 1)]
    c_spans = [[v for level in config.c_levels[:j] for v in level]
               for j in range(len(config.c_levels) + 1)]
    dim_a, dims_c = fraction_rank(a), [fraction_rank(c) for c in c_spans]
    rank, delta = [], []
    for b in b_spans:
        dim_b = fraction_rank(b)
        rank_row, delta_row = [], []
        for c, dim_c in zip(c_spans, dims_c):
            both = fraction_rank(b + c)
            rank_row.append(dim_b + dim_c - both)
            delta_row.append(dim_a + both - fraction_rank(a + b + c))
        rank.append(tuple(rank_row))
        delta.append(tuple(delta_row))
    return tuple(rank), tuple(delta)


# ---------------------------------------------------------------------------
# Reference versions of fast paths, built from the package's public
# functions the way the fast paths were first written.


def decorated_from_tables_by_zero_set(rank_values, delta_values):
    """``decorated_from_tables`` that hands the whole zero set of the delta
    table, moved one step southeast, to ``normalize_decoration``."""
    from lineflags import (
        DecoratedMatrix,
        FlagError,
        NotAnOrbitInvariant,
        TransportMatrix,
        delta_table,
        normalize_decoration,
        rank_table,
        validate,
    )

    rv = tuple(tuple(row) for row in rank_values)
    dv = tuple(tuple(row) for row in delta_values)
    if not all(_is_int(x) for row in rv + dv for x in row):
        raise NotAnOrbitInvariant("table entries")
    if len(rv) < 2 or len(rv[0]) < 2 or len(dv) != len(rv) or any(
        len(row) != len(rv[0]) for row in rv + dv
    ):
        raise NotAnOrbitInvariant("table shapes")
    try:
        tm = TransportMatrix.from_rows(second_differences(rv))
    except FlagError as exc:
        raise NotAnOrbitInvariant(f"rank table: {exc}") from exc
    candidates = {
        (i + 1, j + 1)
        for i in range(len(dv))
        for j in range(len(dv[0]))
        if dv[i][j] == 0
    }
    if not candidates:
        raise NotAnOrbitInvariant("delta table has no zero")
    delta = normalize_decoration(candidates)
    code = validate(tm, delta)
    if code is not None:
        raise NotAnOrbitInvariant(code)
    dm = DecoratedMatrix(tm, delta)
    if rank_table(tm).values != rv or delta_table(dm) != dv:
        raise NotAnOrbitInvariant("tables do not round-trip")
    return dm


def basis_change_by_vector(config, g):
    """``apply_basis_change`` on checked input that transforms every
    occurrence of a generator on its own, level by level."""
    from lineflags import Configuration

    def act(vec):
        return tuple(sum(x * g[k][col] for k, x in enumerate(vec)) for col in range(config.n))

    return Configuration(
        config.n,
        tuple(act(v) for v in config.a),
        tuple(tuple(act(v) for v in level) for level in config.b_levels),
        tuple(tuple(act(v) for v in level) for level in config.c_levels),
    )


def verify_move_degeneration_by_identification(dm, move):
    """``verify_move_degeneration`` that rebuilds the family for each
    sample with ``degeneration_family`` and identifies its orbit."""
    from lineflags import (
        MoveDegenerationReport,
        apply_move,
        degeneration_family,
        identify_orbit,
        render,
    )

    target = apply_move(dm, move)
    failures = []
    for tau in (1, 2, Fraction(1, 3)):
        got = identify_orbit(degeneration_family(dm, move, tau))
        if got != target:
            failures.append(
                f"tau={tau}: family lies in [{render(got)}], not [{render(target)}]"
            )
    got = identify_orbit(degeneration_family(dm, move, 0))
    if got != dm:
        failures.append(f"tau=0: limit lies in [{render(got)}], not [{render(dm)}]")
    return MoveDegenerationReport(move=move, failures=tuple(failures))


def exact_determinant(rows):
    n = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] * inv
            if f:
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return det


def det_by_fractions(family, tau):
    """``det g(tau)`` for a degeneration family, ``g`` having the slot
    vectors in row-major order as its columns: exact Gaussian
    elimination on the vectors' values at ``tau``."""
    tau = Fraction(tau)

    def value(vec):
        return [sum(row[k] * tau**p for p, row in enumerate(vec)) for k in range(len(vec[0]))]

    return exact_determinant([value(family.vectors[s]) for s in family.by_row])


def greedy_chain_by_public_api(x, y):
    """``find_chain`` from the public functions alone: each step applies
    the first move of ``applicable_moves`` whose result lies below ``y``."""
    from lineflags import applicable_moves, apply_move, rk_leq_dec

    if not rk_leq_dec(x, y):
        return None
    chain, z = [], x
    while z != y:
        mv = next(mv for mv in applicable_moves(z) if rk_leq_dec(apply_move(z, mv), y))
        chain.append(mv)
        z = apply_move(z, mv)
    return chain


def raw_iva_target(dm, anchors):
    """The decorated matrix a kind-IVa move produces, from its six-cell
    change map, bypassing the move preconditions."""
    from lineflags import DecoratedMatrix, TransportMatrix, normalize_decoration

    (i0, j0), (i1, j1), (i2, j2) = anchors
    changes = {
        (i0, j0): -1,
        (i1, j1): -1,
        (i2, j2): -1,
        (i1, j2): +1,
        (i2, j0): +1,
        (i0, j1): +1,
    }
    rows = [list(row) for row in dm.matrix.m]
    for (i, j), d in changes.items():
        rows[i - 1][j - 1] += d
    tm = TransportMatrix(tuple(map(tuple, rows)), dm.matrix.b, dm.matrix.c)
    return DecoratedMatrix.make(tm, normalize_decoration(set(dm.delta) | {(i2, j0)}))


# ---------------------------------------------------------------------------
# Golden data for the 28-element order on decorated permutation matrices
# with margins (1,1,1) x (1,1,1).  Each label names the element built by
# ``from_permutation(w, rows)``; the cover list below was cross-checked
# against an independent construction of the order and is exact.

GOLDEN_N3_LABELS = {
    "min": ((1, 2, 3), (1,)),
    "a": ((1, 2, 3), (2,)),
    "b": ((1, 3, 2), (1,)),
    "c": ((2, 1, 3), (2,)),
    "d": ((2, 1, 3), (1,)),
    "e": ((1, 2, 3), (3,)),
    "f": ((1, 3, 2), (2,)),
    "g": ((1, 3, 2), (3,)),
    "h": ((2, 1, 3), (1, 2)),
    "i": ((3, 1, 2), (2,)),
    "j": ((3, 1, 2), (1,)),
    "k": ((2, 3, 1), (1,)),
    "l": ((2, 3, 1), (3,)),
    "m": ((2, 1, 3), (3,)),
    "n": ((1, 3, 2), (2, 3)),
    "o": ((3, 1, 2), (1, 2)),
    "p": ((2, 3, 1), (1, 3)),
    "q": ((2, 3, 1), (2,)),
    "r": ((3, 1, 2), (3,)),
    "s": ((3, 2, 1), (2,)),
    "t": ((3, 2, 1), (1,)),
    "u": ((3, 2, 1), (3,)),
    "v": ((3, 1, 2), (1, 3)),
    "w": ((2, 3, 1), (2, 3)),
    "x": ((3, 2, 1), (1, 2)),
    "y": ((3, 2, 1), (1, 3)),
    "z": ((3, 2, 1), (2, 3)),
    "max": ((3, 2, 1), (1, 2, 3)),
}

_GOLDEN_N3_COVER_TEXT = """
min a, min b, min c, min d, a e, a f, a g, a h, b f, b g, b i, b j, b k,
b l, c h, c i, c l, d h, d j, d k, e m, e n, f n, f o, f q, g n, g p,
g r, h m, h o, h p, h q, h r, h s, i o, i r, i s, i u, j o, j t, k p,
k q, k s, k t, l p, l u, m v, m w, n v, n w, n y, o v, o x, o y, p w,
p y, p z, q w, q x, r v, r z, s x, s z, t x, t y, u y, u z, v max,
w max, x max, y max, z max
"""

GOLDEN_N3_COVERS = tuple(
    tuple(token.split()) for token in _GOLDEN_N3_COVER_TEXT.replace("\n", " ").split(",")
)
