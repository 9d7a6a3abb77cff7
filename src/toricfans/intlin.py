"""Exact linear algebra over the integers.

Everything in this module works with arbitrary-precision Python ints; there is
no floating point anywhere.  Matrices are immutable and row-major: an IntMatrix
with shape (rows, cols) represents a homomorphism Z^cols -> Z^rows acting on
column vectors.

Each public function builds only the transforms its result reads.  Smith
reduction and echelon reduction each have one private core with a fixed
pivot rule, and the transforms ride along on request:

- smith_normal_form builds U and V;
- kernel_basis builds V only;
- invariant_factors, rank and cokernel_invariants build neither;
- reduce_basis builds the echelon transform u, u @ basis == [T; 0], once
  per basis of independent columns; ReducedBasis.coordinates solves through
  T as often as asked, and ReducedBasis.lift lifts functionals off a
  saturated basis;
- complement_summand and saturate build its inverse only.

from_rows checks every entry and the shape of what callers hand in, and
from_cols is from_rows transposed; the matrices built here from results
already computed use the constructor, which trusts its entries.

IntMatrix.identity hands out one instance per size, known by reference
(any other identity by its entries): products with an identity return the
other factor, an identity needs no Smith reduction and its reduce_basis is
shared, and so is not reduced again.  A matrix with no rows or no columns
has no invariant factors and needs no Smith reduction either.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .frozen import Frozen


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
    an int (bools included), as from_rows does, instead of truncating it.
    A tuple of plain ints is returned as it is."""
    t = v if type(v) is tuple else tuple(v)
    for x in t:
        if type(x) is not int:
            return tuple(map(_as_int, t))
    return t


def _is_identity(a: "IntMatrix") -> bool:
    return a.rows == a.cols and (a is (i := IntMatrix.identity(a.cols)) or a.entries == i.entries)


class IntMatrix(Frozen):
    """Immutable integer matrix, row-major, mapping Z^cols -> Z^rows.

    from_rows and from_cols refuse entries that are not ints; the
    constructor checks the shape only and trusts its entries.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        # set directly: Frozen.__init__'s loop takes twice as long, and no class is built more often
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        self.__post_init__()  # a method of its own, so perfbench can wrap every matrix's check

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        if self.rows and {*map(len, self.entries)} != {self.cols}:
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
        """from_rows of the columns, transposed: rows, where given, must be
        the column height, and is needed when there are no columns."""
        return cls.from_rows(cols, cols=rows).transpose()

    @classmethod
    @lru_cache(maxsize=64)
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple([r[j] for r in self.entries])

    def columns(self) -> list[tuple[int, ...]]:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)) if self.rows else ((),) * self.cols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """The product; an identity factor gives back the other factor itself,
        which is safe because matrices are immutable."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if _is_identity(self):
            return other
        if _is_identity(other):
            return self
        ot = tuple(zip(*other.entries)) if other.rows else ((),) * other.cols
        data = tuple(tuple([sum(map(mul, row, col)) for col in ot]) for row in self.entries)
        return IntMatrix(self.rows, other.cols, data)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple([sum(map(mul, row, v)) for row in self.entries])

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
    best = where = None
    for i in range(t, m):
        row = a[i]
        for j in range(t, n):
            v = row[j]
            if v:
                v = -v if v < 0 else v
                if best is None or v < best:
                    best, where = v, (i, j)
    return where


def _eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _freeze(rows, cols):
    return IntMatrix(len(rows), cols, tuple(tuple(r) for r in rows))


def _smith(a: IntMatrix, left: bool, right: bool):
    """Reduce a to Smith form by pivot/gcd steps with a fixed pivot rule.

    Returns (u, w, v) as lists of rows with u @ a @ v == w; u is None unless
    left is asked for, v None unless right is.  The pivot is always the
    smallest nonzero absolute value of the working submatrix, ties broken by
    lowest row then column index; the steps read w alone, so they are the
    same whichever transforms are built.
    """
    m, n = a.rows, a.cols
    w = [list(row) for row in a.entries]
    u = _eye(m) if left else None
    v = _eye(n) if right else None
    by_rows = (w, u) if left else (w,)
    by_cols = (w, v) if right else (w,)
    t = 0
    limit = min(m, n)
    while t < limit:
        where = _find_pivot(w, t, m, n)
        if where is None:
            break
        i, j = where
        if i != t:
            for x in by_rows:
                _swap_rows(x, t, i)
        if j != t:
            for x in by_cols:
                _swap_cols(x, t, j)
        p = w[t][t]
        dirty = False
        for i in range(t + 1, m):
            if w[i][t]:
                q = w[i][t] // p
                if q:
                    for x in by_rows:
                        _add_row(x, i, t, -q)
                if w[i][t]:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, n):
            if w[t][j]:
                q = w[t][j] // p
                if q:
                    for x in by_cols:
                        _add_col(x, j, t, -q)
                if w[t][j]:
                    dirty = True
        if dirty:
            continue
        # row and column t are clear; force the divisibility chain (a unit
        # pivot divides everything)
        bad = None
        if p != 1 and p != -1:
            for i in range(t + 1, m):
                row = w[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
        if bad is not None:
            for x in by_rows:
                _add_row(x, t, bad, 1)
            continue
        if w[t][t] < 0:
            for x in by_rows:
                _negate_row(x, t)
        t += 1
    return u, w, v


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form by pivot/gcd reduction with a fixed pivot rule.

    Returns (U, D, V) with U @ a @ V == D, building both transforms; the
    other public functions run the same reduction and build only what they
    read: kernel_basis builds V alone, and invariant_factors, rank and
    cokernel_invariants build neither.  Deterministic: the pivot is always
    the smallest nonzero absolute value of the working submatrix, ties
    broken by lowest row then column index.
    """
    u, w, v = _smith(a, True, True)
    return SmithDecomposition(_freeze(u, a.rows), _freeze(w, a.cols), _freeze(v, a.cols))


def _diagonal(a: IntMatrix, w) -> tuple[int, ...]:
    """The nonzero diagonal entries of w, a's reduced Smith form."""
    return tuple(x for x in (w[i][i] for i in range(min(a.rows, a.cols))) if x)


def invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith form, in divisibility order."""
    if not (a.rows and a.cols):
        return ()
    if _is_identity(a):
        return (1,) * a.rows
    return _diagonal(a, _smith(a, False, False)[1])


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
    _, w, v = _smith(a, False, True)
    r = len(_diagonal(a, w))
    return IntMatrix(a.cols, a.cols - r, tuple(tuple(row[r:]) for row in v))


def _row_echelon_transform(a: IntMatrix, inverse: bool):
    """Row reduce a to echelon form by unimodular row operations.

    Returns (t, echelon, k) with k the rank, the number of pivots; pivot
    values are positive.  t is the transform u with
    u @ a == echelon, or, when inverse is asked for, the transpose of u^-1
    (its rows are the columns of u^-1); only that one is built.
    Deterministic: within each column the row with the smallest nonzero
    absolute value (lowest index on ties) is reduced against until one
    survivor remains.
    """
    m, n = a.rows, a.cols
    w = [list(row) for row in a.entries]
    t = _eye(m)
    top = 0
    for j in range(n):
        while True:
            live = [i for i in range(top, m) if w[i][j]]
            if not live:
                break
            best = min(live, key=lambda i: (abs(w[i][j]), i))
            if best != top:
                _swap_rows(w, top, best)
                _swap_rows(t, top, best)
            done = True
            p = w[top][j]
            for i in range(top + 1, m):
                if w[i][j]:
                    q = w[i][j] // p
                    if q:
                        _add_row(w, i, top, -q)
                        if inverse:  # u^-1 gains q times its column i in column top
                            _add_row(t, top, i, q)
                        else:
                            _add_row(t, i, top, -q)
                    if w[i][j]:
                        done = False
            if done:
                if w[top][j] < 0:
                    _negate_row(w, top)
                    _negate_row(t, top)
                top += 1
                break
    return _freeze(t, m), _freeze(w, n), top


def saturate(b: IntMatrix) -> IntMatrix:
    """Basis of the saturation (im_Q(b) intersected with Z^rows) as columns.

    The columns of b must be linearly independent.
    """
    uinv_t, _, r = _row_echelon_transform(b, True)
    if r != b.cols:
        raise DependentColumns("columns are linearly dependent")
    return IntMatrix(b.cols, b.rows, uinv_t.entries[:r]).transpose()


def complement_summand(b: IntMatrix) -> IntMatrix:
    """Columns spanning a direct complement of the column lattice of b.

    The column lattice S of b must be saturated; then Z^rows = S (+) C for the
    returned C.  The completion comes from the Hermite-style row reduction
    u @ b = [T; 0]: the complement is the trailing columns of u^-1, which
    together with a basis of S form a unimodular matrix.
    """
    uinv_t, ech, r = _row_echelon_transform(b, True)
    t = IntMatrix(r, b.cols, ech.entries[:r])
    if invariant_factors(t) != tuple([1] * r):
        raise NotSaturated("column lattice is not saturated")
    return IntMatrix(b.rows - r, b.rows, uinv_t.entries[r:]).transpose()


class ReducedBasis(NamedTuple):
    """A basis of k independent columns, row reduced once: u @ basis ==
    echelon == [T; 0], with T k x k upper triangular, its pivots on the
    diagonal and positive, and k == echelon.cols.  coordinates solves
    against it as often as asked; lift extends functionals off it when it
    is saturated."""

    u: IntMatrix
    echelon: IntMatrix

    def lift(self, values: Sequence[int]) -> tuple[int, ...]:
        """The functional on the ambient lattice that takes values on the
        basis columns and vanishes on the complement complement_summand
        picks, the trailing columns of u^-1: y @ u[:k] with y @ T == values.
        Raises NotSaturated unless every pivot is 1, which for independent
        columns is when the basis is saturated (T is unimodular)."""
        ech, k = self.echelon.entries, self.echelon.cols
        if len(values) != k:
            raise ValueError("value count does not match the basis")
        if any(ech[i][i] != 1 for i in range(k)):
            raise NotSaturated("column lattice is not saturated")
        y = []
        for j in range(k):
            y.append(values[j] - sum(y[i] * ech[i][j] for i in range(j)))
        if not k:
            return (0,) * self.u.cols
        return tuple(sum(map(mul, y, col)) for col in zip(*self.u.entries[:k]))

    def coordinates(self, target: IntMatrix) -> IntMatrix:
        """Solve basis @ X == target exactly over Z by back-substitution
        through T; raises NotInLattice when some target column is not an
        integer combination of the basis columns.  The rows below T are
        zero, so a column of u @ target is in the span when it is zero there."""
        if self.u.cols != target.rows:
            raise ValueError("row count mismatch")
        if self.u is self.echelon is IntMatrix.identity(self.u.cols):
            return target
        ech, k = self.echelon.entries, self.echelon.cols
        rhs = self.u @ target
        out_cols = []
        for c in range(target.cols):
            col = [row[c] for row in rhs.entries]
            x = [0] * k
            for i in range(k - 1, -1, -1):
                row = ech[i]
                acc = col[i] - sum(map(mul, row[i + 1 : k], x[i + 1 :]))
                if acc % row[i]:
                    raise NotInLattice("target is not in the column lattice")
                x[i] = acc // row[i]
            if any(col[k:]):
                raise NotInLattice("target is not in the column span")
            out_cols.append(x)
        return IntMatrix(k, target.cols, tuple(tuple(x[i] for x in out_cols) for i in range(k)))


@lru_cache(maxsize=64)
def _reduced_identity(n: int) -> ReducedBasis:
    return ReducedBasis(IntMatrix.identity(n), IntMatrix.identity(n))


def reduce_basis(basis: IntMatrix) -> ReducedBasis:
    """Row reduce basis once, for ReducedBasis.coordinates and lift; raises
    DependentColumns unless its columns are independent.  An identity
    basis gets the one shared ReducedBasis of its size, whose u and
    echelon are the shared identity, so coordinates in it are the target."""
    if _is_identity(basis):
        return _reduced_identity(basis.cols)
    u, ech, k = _row_echelon_transform(basis, False)
    if k != basis.cols:
        raise DependentColumns("columns are linearly dependent")
    return ReducedBasis(u, ech)


def primitivize(v: Sequence[int]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)
