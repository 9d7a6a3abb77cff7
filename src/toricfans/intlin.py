"""Exact linear algebra over the integers.

Everything in this module works with arbitrary-precision Python ints; there is
no floating point anywhere.  Matrices are immutable and row-major: an IntMatrix
with shape (rows, cols) represents a homomorphism Z^cols -> Z^rows acting on
column vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, NamedTuple, Sequence


class DependentColumns(ValueError):
    """Raised when an operation requires linearly independent columns."""


class NotSaturated(ValueError):
    """Raised when a column lattice is not saturated in its ambient lattice."""


class NotInLattice(ValueError):
    """Raised when a vector has no integer expression in a given basis."""


def _as_int(x) -> int:
    # bools are ints in Python; reject them so shapes of mistakes stay visible
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"entries must be ints, got {x!r}")
    return x


def int_vector(v: Iterable) -> tuple[int, ...]:
    """The entries of v as a tuple, refusing with TypeError any that is not
    an int (bools included), as from_rows does, instead of truncating it."""
    return tuple(_as_int(x) for x in v)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major, mapping Z^cols -> Z^rows.

    from_rows and from_cols refuse entries that are not ints; the
    constructor checks the shape only and trusts its entries.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix entries")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], *, cols: int | None = None) -> "IntMatrix":
        data = tuple(tuple(_as_int(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if cols is not None and cols != width:
                raise ValueError("explicit cols disagrees with row width")
        else:
            if cols is None:
                raise ValueError("empty matrix needs explicit cols")
            width = cols
        return cls(len(data), width, data)

    @classmethod
    def from_cols(cls, cols: Iterable[Sequence[int]], *, rows: int | None = None) -> "IntMatrix":
        data = [tuple(_as_int(x) for x in col) for col in cols]
        if data:
            height = len(data[0])
            if rows is not None and rows != height:
                raise ValueError("explicit rows disagrees with column height")
        else:
            if rows is None:
                raise ValueError("empty matrix needs explicit rows")
            height = rows
        return cls(height, len(data), tuple(tuple(c[i] for c in data) for i in range(height)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(self.col(j) for j in range(self.cols)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = other.transpose().entries
        data = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.entries
        )
        return IntMatrix(self.rows, other.cols, data)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return IntMatrix(
            self.rows,
            self.cols + other.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


class SmithDecomposition(NamedTuple):
    """U @ A @ V == D with U, V unimodular and D diagonal.

    Diagonal entries are nonnegative and each divides the next.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix


class CokernelInvariants(NamedTuple):
    free_rank: int
    torsion: tuple[int, ...]


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _add_row(a, dst, src, q):
    # row_dst += q * row_src
    arow, srow = a[dst], a[src]
    for k in range(len(arow)):
        arow[k] += q * srow[k]


def _swap_cols(a, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_col(a, dst, src, q):
    for row in a:
        row[dst] += q * row[src]


def _negate_row(a, i):
    a[i] = [-x for x in a[i]]


def _find_pivot(a, t, m, n):
    """Smallest nonzero absolute value in a[t:, t:]; ties go to the lowest
    row index, then the lowest column index (row-major scan order)."""
    best = None
    where = None
    for i in range(t, m):
        row = a[i]
        for j in range(t, n):
            v = row[j]
            if v:
                v = -v if v < 0 else v
                if best is None or v < best:
                    best, where = v, (i, j)
    return where


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form by pivot/gcd reduction with a fixed pivot rule.

    Returns (U, D, V) with U @ a @ V == D.  Deterministic: the pivot is always
    the smallest nonzero absolute value of the working submatrix, ties broken
    by lowest row then column index.
    """
    m, n = a.rows, a.cols
    w = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    t = 0
    limit = min(m, n)
    while t < limit:
        where = _find_pivot(w, t, m, n)
        if where is None:
            break
        i, j = where
        if i != t:
            _swap_rows(w, t, i)
            _swap_rows(u, t, i)
        if j != t:
            _swap_cols(w, t, j)
            _swap_cols(v, t, j)
        p = w[t][t]
        dirty = False
        for i in range(t + 1, m):
            if w[i][t]:
                q = w[i][t] // p
                if q:
                    _add_row(w, i, t, -q)
                    _add_row(u, i, t, -q)
                if w[i][t]:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, n):
            if w[t][j]:
                q = w[t][j] // p
                if q:
                    _add_col(w, j, t, -q)
                    _add_col(v, j, t, -q)
                if w[t][j]:
                    dirty = True
        if dirty:
            continue
        # row and column t are clear; force the divisibility chain
        bad = None
        for i in range(t + 1, m):
            row = w[i]
            for j in range(t + 1, n):
                if row[j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            _add_row(w, t, bad, 1)
            _add_row(u, t, bad, 1)
            continue
        if w[t][t] < 0:
            _negate_row(w, t)
            _negate_row(u, t)
        t += 1
    freeze = lambda rows: tuple(tuple(r) for r in rows)
    return SmithDecomposition(
        IntMatrix(m, m, freeze(u)),
        IntMatrix(m, n, freeze(w)),
        IntMatrix(n, n, freeze(v)),
    )


def invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith form, in divisibility order."""
    d = smith_normal_form(a).d
    out = []
    for i in range(min(a.rows, a.cols)):
        if d.entries[i][i]:
            out.append(d.entries[i][i])
    return tuple(out)


def rank(a: IntMatrix) -> int:
    return len(invariant_factors(a))


def cokernel_invariants(a: IntMatrix) -> CokernelInvariants:
    """Invariants of Z^rows / im(a): free rank and torsion factors > 1."""
    factors = invariant_factors(a)
    return CokernelInvariants(
        free_rank=a.rows - len(factors),
        torsion=tuple(f for f in factors if f > 1),
    )


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of ker(a) on Z^cols, as columns of the result.

    The returned columns span a saturated sublattice: they are part of a basis
    of Z^cols (trailing columns of the unimodular V of the Smith form).
    """
    u, d, v = smith_normal_form(a)
    r = sum(1 for i in range(min(a.rows, a.cols)) if d.entries[i][i])
    cols = [v.col(j) for j in range(r, a.cols)]
    return IntMatrix.from_cols(cols, rows=a.cols)


def _row_echelon_transform(a: IntMatrix):
    """Row reduce a to echelon form by unimodular row operations.

    Returns (u, uinv, echelon, pivots) with u @ a == echelon, u @ uinv == I and
    pivots the list of (row, col) pivot positions, pivot values positive.
    Deterministic: within each column the row with the smallest nonzero
    absolute value (lowest index on ties) is reduced against until one
    survivor remains.
    """
    m, n = a.rows, a.cols
    w = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    uinv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pivots = []
    top = 0
    for j in range(n):
        while True:
            live = [i for i in range(top, m) if w[i][j]]
            if not live:
                break
            best = min(live, key=lambda i: (abs(w[i][j]), i))
            if best != top:
                _swap_rows(w, top, best)
                _swap_rows(u, top, best)
                _swap_cols(uinv, top, best)
            done = True
            p = w[top][j]
            for i in range(top + 1, m):
                if w[i][j]:
                    q = w[i][j] // p
                    if q:
                        _add_row(w, i, top, -q)
                        _add_row(u, i, top, -q)
                        _add_col(uinv, top, i, q)
                    if w[i][j]:
                        done = False
            if done:
                if w[top][j] < 0:
                    _negate_row(w, top)
                    _negate_row(u, top)
                    for row in uinv:
                        row[top] = -row[top]
                pivots.append((top, j))
                top += 1
                break
    freeze = lambda rows: tuple(tuple(r) for r in rows)
    return (
        IntMatrix(m, m, freeze(u)),
        IntMatrix(m, m, freeze(uinv)),
        IntMatrix(m, n, freeze(w)),
        pivots,
    )


def saturate(b: IntMatrix) -> IntMatrix:
    """Basis of the saturation (im_Q(b) intersected with Z^rows) as columns.

    The columns of b must be linearly independent.
    """
    _, uinv, _, pivots = _row_echelon_transform(b)
    if len(pivots) != b.cols:
        raise DependentColumns("columns are linearly dependent")
    return IntMatrix.from_cols([uinv.col(i) for i in range(len(pivots))], rows=b.rows)


def complement_summand(b: IntMatrix) -> IntMatrix:
    """Columns spanning a direct complement of the column lattice of b.

    The column lattice S of b must be saturated; then Z^rows = S (+) C for the
    returned C.  The completion comes from the Hermite-style row reduction
    u @ b = [T; 0]: the complement is the trailing columns of u^-1, which
    together with a basis of S form a unimodular matrix.
    """
    _, uinv, ech, pivots = _row_echelon_transform(b)
    r = len(pivots)
    t = IntMatrix.from_rows([ech.row(i) for i in range(r)], cols=b.cols)
    if invariant_factors(t) != tuple([1] * r):
        raise NotSaturated("column lattice is not saturated")
    return IntMatrix.from_cols([uinv.col(i) for i in range(r, b.rows)], rows=b.rows)


def lattice_coordinates(basis: IntMatrix, target: IntMatrix) -> IntMatrix:
    """Solve basis @ X == target exactly over Z.

    basis must have independent columns; raises NotInLattice when some target
    column is not an integer combination of the basis columns.
    """
    if basis.rows != target.rows:
        raise ValueError("row count mismatch")
    u, _, ech, pivots = _row_echelon_transform(basis)
    if len(pivots) != basis.cols:
        raise DependentColumns("columns are linearly dependent")
    rhs = u @ target
    k = basis.cols
    out_cols = []
    for c in range(target.cols):
        col = list(rhs.col(c))
        x = [0] * k
        for idx in range(k - 1, -1, -1):
            i, j = pivots[idx]
            acc = col[i]
            for idx2 in range(idx + 1, k):
                acc -= ech.entries[i][pivots[idx2][1]] * x[idx2]
            p = ech.entries[i][j]
            if acc % p:
                raise NotInLattice("target is not in the column lattice")
            x[idx] = acc // p
        # consistency on the non-pivot rows
        for i in range(basis.rows):
            acc = sum(ech.entries[i][pivots[idx][1]] * x[idx] for idx in range(k))
            if acc != col[i]:
                raise NotInLattice("target is not in the column span")
        out_cols.append(tuple(x))
    return IntMatrix.from_cols(out_cols, rows=k)


def solve_left(rows_matrix: IntMatrix, w: Sequence[int]) -> tuple[int, ...]:
    """Find phi with phi @ rows_matrix == w, exactly over Z.

    rows_matrix must have independent rows spanning a saturated row lattice
    containing w (the callers guarantee this; NotInLattice otherwise).
    """
    x = lattice_coordinates(rows_matrix.transpose(), IntMatrix.from_cols([tuple(w)], rows=rows_matrix.cols))
    return x.col(0)


def primitivize(v: Sequence[int]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        return tuple(v)
    return tuple(x // g for x in v)
