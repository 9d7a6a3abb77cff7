import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import hermite_normal_form as sympy_hermite_normal_form
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from toricfans.intlin import (
    DependentColumns,
    IntMatrix,
    NotInLattice,
    NotSaturated,
    cokernel_invariants,
    complement_summand,
    int_vector,
    invariant_factors,
    kernel_basis,
    primitivize,
    rank,
    reduce_basis,
    saturate,
    smith_normal_form,
    _find_pivot,
    _row_echelon_transform,
)
from oracles import (
    bareiss_det,
    coordinates_by_full_check,
    fraction_free_rank,
    lift_by_complement,
    matrix_product,
    maximal_minor_gcd,
    smallest_pivot,
)


def M(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols)


@pytest.mark.parametrize("bad", [1.5, True, "1"])
def test_boundary_constructors_refuse_non_int_entries(bad):
    # the plain constructor trusts its entries; from_rows and from_cols check them
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1, bad]])
    with pytest.raises(TypeError):
        IntMatrix.from_cols([[1, bad]])


@pytest.mark.parametrize("cols", [[(1,), (2, 3)], [(1, 2), (3,)]])
def test_from_cols_refuses_ragged_columns(cols):
    with pytest.raises(ValueError, match="ragged matrix entries"):
        IntMatrix.from_cols(cols)


def test_smith_pinned_2x2():
    # oracle: d1 = gcd of all entries = 2, d1*d2 = |det| = |2*8 - 4*6| = 8
    a = M([[2, 4], [6, 8]])
    assert invariant_factors(a) == (2, 4)


def test_smith_identity_and_zero():
    assert invariant_factors(IntMatrix.identity(3)) == (1, 1, 1)
    z = IntMatrix.zeros(2, 3)
    u, d, v = smith_normal_form(z)
    assert d.is_zero()
    assert u == IntMatrix.identity(2) and v == IntMatrix.identity(3)


def test_identity_is_one_shared_instance():
    assert IntMatrix.identity(3) is IntMatrix.identity(3)
    assert IntMatrix.identity(0) is IntMatrix.identity(0)


def test_a_fresh_identity_acts_as_the_shared_one():
    shared = IntMatrix.identity(3)
    fresh = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert fresh == shared and fresh is not shared
    a = M([[2, -1, 5], [0, 3, 4]])
    assert invariant_factors(fresh) == invariant_factors(shared) == (1, 1, 1)
    assert a @ fresh == a @ shared == a
    assert fresh @ a.transpose() == shared @ a.transpose() == a.transpose()
    assert fresh @ shared == shared


def test_smith_empty_shapes():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        a = IntMatrix.zeros(*shape)
        u, d, v = smith_normal_form(a)
        assert (u @ a @ v) == d
        assert invariant_factors(a) == ()


def test_an_empty_shape_or_an_identity_needs_no_smith_reduction(monkeypatch):
    # origin edges have matrices with no rows or no columns; identity edges share one reduction per size
    from toricfans import intlin as intlin_module

    def refuse(*args):
        raise AssertionError("_smith called")

    monkeypatch.setattr(intlin_module, "_smith", refuse)
    for shape in [(0, 0), (0, 3), (3, 0)]:
        assert invariant_factors(IntMatrix.zeros(*shape)) == ()
    assert rank(IntMatrix.identity(4)) == 4
    shared = reduce_basis(IntMatrix.identity(3))
    assert shared is reduce_basis(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert shared.u is shared.echelon is IntMatrix.identity(3)
    target = M([[1, 2], [3, 4], [5, 6]])
    assert shared.coordinates(target) is target
    assert shared.lift((4, 5, 6)) == (4, 5, 6)
    with pytest.raises(ValueError):
        shared.coordinates(M([[1, 2]]))


def test_smith_recomposition_example():
    a = M([[4, 7, 2], [0, -3, 6]])
    u, d, v = smith_normal_form(a)
    assert u @ a @ v == d
    # oracle: gcd of entries is 1; gcd of 2x2 minors: det[[4,7],[0,-3]] = -12,
    # det[[4,2],[0,6]] = 24, det[[7,2],[-3,6]] = 48 -> gcd 12 -> factors (1, 12)
    assert invariant_factors(a) == (1, 12)


def test_cokernel_column():
    a = IntMatrix.from_cols([(2, 0)], rows=2)
    assert cokernel_invariants(a) == (1, (2,))


def test_cokernel_diag():
    # Z^2 / <(2,0),(0,3)> is cyclic of order 6: chain forces factors (1, 6)
    a = M([[2, 0], [0, 3]])
    assert cokernel_invariants(a) == (0, (6,))
    assert invariant_factors(a) == (1, 6)


def test_kernel_pinned():
    a = M([[1, 1]])
    k = kernel_basis(a)
    assert k.cols == 1
    assert k.col(0) in [(1, -1), (-1, 1)]


def test_kernel_of_zero_map():
    k = kernel_basis(IntMatrix.zeros(2, 3))
    assert k.cols == 3
    assert maximal_minor_gcd(k.columns()) == 1


def test_saturate_pinned():
    assert saturate(IntMatrix.from_cols([(2, 0)], rows=2)).col(0) == (1, 0)
    assert saturate(IntMatrix.from_cols([(2, 4)], rows=2)).col(0) == (1, 2)
    assert saturate(IntMatrix.identity(3)) == IntMatrix.identity(3)


def test_saturate_rejects_dependent():
    with pytest.raises(DependentColumns):
        saturate(M([[1, 2], [2, 4]]))


def test_complement_pinned_rule():
    # the completion rule itself is under test here: (1,1) completes with (0,1)
    b = IntMatrix.from_cols([(1, 1)], rows=2)
    assert complement_summand(b).col(0) == (0, 1)


def test_complement_rejects_unsaturated():
    with pytest.raises(NotSaturated):
        complement_summand(IntMatrix.from_cols([(2, 0)], rows=2))


def test_complement_of_empty_basis():
    b = IntMatrix.zeros(3, 0)
    c = complement_summand(b)
    assert c.cols == 3
    assert abs(bareiss_det(c.transpose().columns())) == 1


def test_lattice_coordinates_roundtrip():
    b = IntMatrix.from_cols([(1, 0, 2), (0, 3, 1)], rows=3)
    t = IntMatrix.from_cols([(2, 3, 5)], rows=3)
    x = reduce_basis(b).coordinates(t)
    assert b @ x == t
    with pytest.raises(NotInLattice):
        reduce_basis(b).coordinates(IntMatrix.from_cols([(0, 1, 0)], rows=3))
    with pytest.raises(NotInLattice):
        reduce_basis(b).coordinates(IntMatrix.from_cols([(1, 1, 1)], rows=3))


def test_primitivize():
    assert primitivize((2, -4, 6)) == (1, -2, 3)
    assert primitivize((0, 0)) == (0, 0)
    assert primitivize((-3,)) == (-1,)
    v = (3, -5)
    assert primitivize(v) is v  # gcd 1: nothing to divide
    assert primitivize([4, 0]) == (1, 0)


class Count(int):
    pass


def test_int_vector_takes_plain_ints_whole_and_refuses_the_rest():
    v = (1, -2, 2**70)
    assert int_vector(v) is v
    assert int_vector([0, 5]) == (0, 5)
    assert int_vector(x for x in (7,)) == (7,)
    assert int_vector(()) == ()
    # an int subclass that is no bool goes through the checked path and is kept
    w = int_vector((Count(3), 4))
    assert w == (3, 4) and type(w[0]) is Count
    for bad in ((1, True), (False,), (1, 2.0), (0.5,), ("3",), (None,)):
        with pytest.raises(TypeError, match="entries must be ints"):
            int_vector(bad)


matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda m: st.integers(min_value=0, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        ).map(lambda rows: IntMatrix.from_rows(rows, cols=n))
    )
)


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_smith_properties(a):
    u, d, v = smith_normal_form(a)
    assert u @ a @ v == d
    assert abs(bareiss_det(u.entries)) == 1
    assert abs(bareiss_det(v.entries)) == 1
    diag = [d.entries[i][i] for i in range(min(a.rows, a.cols))]
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert d.entries[i][j] == 0
    for i, x in enumerate(diag):
        assert x >= 0
        if i + 1 < len(diag) and x:
            assert diag[i + 1] % x == 0
        if x == 0 and i + 1 < len(diag):
            assert diag[i + 1] == 0


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_rank_against_fraction_free_oracle(a):
    free, torsion = cokernel_invariants(a)
    oracle_rank = fraction_free_rank([list(r) for r in a.entries]) if a.rows else 0
    assert rank(a) == oracle_rank
    assert free == a.rows - oracle_rank
    assert all(t > 1 for t in torsion)


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_kernel_basis_properties(a):
    k = kernel_basis(a)
    assert k.cols == a.cols - rank(a)
    assert (a @ k).is_zero()
    # saturated iff the gcd of maximal minors is 1
    assert maximal_minor_gcd(k.columns()) == 1


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_saturate_and_complement_properties(a):
    cols = a.columns()
    if fraction_free_rank([list(c) for c in cols] or [[]]) != a.cols or a.cols > a.rows:
        return
    s = saturate(a)
    assert s.cols == a.cols
    assert maximal_minor_gcd(s.columns()) == 1
    # same rational span: stacking does not raise the rank
    both = [list(c) for c in s.columns() + cols]
    if a.cols:
        assert fraction_free_rank(both) == a.cols
    # every input column is an integer combination of the saturation basis
    reduce_basis(s).coordinates(a)
    c = complement_summand(s)
    assert c.cols == a.rows - a.cols
    square = s.hstack(c)
    assert abs(bareiss_det(square.entries)) == 1


def _shaped(m, n, entries):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m
    ).map(lambda rows: IntMatrix.from_rows(rows, cols=n))


def test_lift_rejects_unsaturated():
    with pytest.raises(NotSaturated):
        reduce_basis(IntMatrix.from_cols([(2, 0)], rows=2)).lift((1,))


@st.composite
def independent_columns(draw):
    """An n x k matrix with independent columns, 0 <= k <= n <= 5, so no
    column, a full basis of Q^n and everything between."""
    n = draw(st.integers(min_value=0, max_value=5))
    k = draw(st.integers(min_value=0, max_value=n))
    b = draw(_shaped(n, k, st.integers(min_value=-6, max_value=6)))
    assume(rank(b) == k)
    return b


@settings(max_examples=200, deadline=None)
@given(independent_columns(), st.data())
def test_lift_matches_a_complement_solve(b, data):
    values = data.draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=b.cols, max_size=b.cols))
    basis = saturate(b)
    assert reduce_basis(basis).lift(values) == lift_by_complement(basis, values)
    if maximal_minor_gcd(b.columns()) == 1:
        assert reduce_basis(b).lift(values) == lift_by_complement(b, values)
    else:
        with pytest.raises(NotSaturated):
            reduce_basis(b).lift(values)


@st.composite
def coordinate_problems(draw):
    """(basis, target, kind): a basis of independent columns drawn from
    random integer matrices, and a target of up to three columns basis @ X.
    In kind "span" one column is replaced by a vector of the rational span
    off the column lattice (the drawn first column is scaled by d, and the
    vector's first coordinate z[0] / d is not an integer), in kind
    "outside" by a vector off the span."""
    kind = draw(st.sampled_from(("lattice", "span", "outside")))
    b = draw(independent_columns())
    basis, bad = b, None
    if kind == "span":
        assume(b.cols >= 1)
        d = draw(st.integers(2, 4))
        z = draw(st.lists(st.integers(-9, 9), min_size=b.cols, max_size=b.cols).filter(lambda z: z[0] % d))
        cols = b.columns()
        basis = IntMatrix.from_cols([tuple(d * x for x in cols[0]), *cols[1:]], rows=b.rows)
        bad = b.apply(z)
    elif kind == "outside":
        bad = tuple(draw(st.lists(st.integers(-9, 9), min_size=b.rows, max_size=b.rows)))
        assume(rank(b.hstack(IntMatrix.from_cols([bad], rows=b.rows))) > b.cols)
    t = draw(st.integers(0 if bad is None else 1, 3))
    cols = (basis @ draw(_shaped(b.cols, t, st.integers(-9, 9)))).columns()
    if bad is not None:
        cols[draw(st.integers(0, t - 1))] = bad
    return basis, IntMatrix.from_cols(cols, rows=b.rows), kind


@settings(max_examples=300, deadline=None)
@given(coordinate_problems())
def test_coordinates_match_a_full_recheck(problem):
    # only the rows below T are checked after back-substitution; checking
    # every row through a pivot list gives the same answer and message
    basis, target, kind = problem
    reduced = reduce_basis(basis)
    try:
        expected = coordinates_by_full_check(reduced, target)
    except NotInLattice as exc:
        assert kind != "lattice"
        with pytest.raises(NotInLattice) as caught:
            reduced.coordinates(target)
        assert str(caught.value) == str(exc)
    else:
        assert kind == "lattice"
        assert reduced.coordinates(target) == expected


def _sympy_coordinates(basis, target):
    """X with basis @ X == target from sympy's gauss_jordan_solve, column by
    column; None when some column has no solution or no integral one."""
    a = Matrix(basis.rows, basis.cols, [x for r in basis.entries for x in r])
    cols = []
    for col in target.columns():
        try:
            x, params = a.gauss_jordan_solve(Matrix(basis.rows, 1, list(col)))
        except ValueError:  # "Linear system has no solution"
            return None
        assert params.rows == 0  # independent columns: the solution is unique
        if not all(v.is_integer for v in x):
            return None
        cols.append([int(v) for v in x])
    return IntMatrix.from_cols(cols, rows=basis.cols)


@settings(max_examples=300, deadline=None)
@given(coordinate_problems())
def test_coordinates_against_sympy(problem):
    basis, target, kind = problem
    expected = _sympy_coordinates(basis, target)
    if expected is None:
        assert kind != "lattice"
        with pytest.raises(NotInLattice):
            reduce_basis(basis).coordinates(target)
    else:
        assert kind == "lattice"
        assert reduce_basis(basis).coordinates(target) == expected


@st.composite
def factor_pairs(draw):
    """Two composable matrices, 0-row and 0-column shapes included, with an
    identity on the left, on the right, on both sides or on neither."""
    m, k, n = (draw(st.integers(min_value=0, max_value=5)) for _ in range(3))
    left, right = draw(st.booleans()), draw(st.booleans())
    entries = st.integers(min_value=-30, max_value=30)
    a = IntMatrix.identity(k) if left else draw(_shaped(m, k, entries))
    b = IntMatrix.identity(k) if right else draw(_shaped(k, n, entries))
    return a, b


@settings(max_examples=200, deadline=None)
@given(factor_pairs())
def test_product_against_triple_loop_oracle(pair):
    a, b = pair
    p = a @ b
    assert (p.rows, p.cols) == (a.rows, b.cols)
    assert p.entries == matrix_product(a.entries, b.entries, b.cols)


PINNED = [
    M([[2, 4], [6, 8]]),
    IntMatrix.identity(3),
    IntMatrix.zeros(2, 3),
    IntMatrix.zeros(0, 0),
    IntMatrix.zeros(0, 3),
    IntMatrix.zeros(3, 0),
    M([[4, 7, 2], [0, -3, 6]]),
    IntMatrix.from_cols([(2, 0)], rows=2),
    M([[2, 0], [0, 3]]),
    M([[1, 1]]),
    M([[1, 2], [2, 4]]),
    M([[0, -6, 4], [10, 0, -15], [-6, 9, 0]]),
]


def _agrees_with_full_smith(a):
    # every transform-free question reads the same pivot sequence as the full decomposition
    u, d, v = smith_normal_form(a)
    diag = tuple(x for x in (d.entries[i][i] for i in range(min(a.rows, a.cols))) if x)
    r = len(diag)
    assert invariant_factors(a) == diag
    assert rank(a) == r
    assert cokernel_invariants(a) == (a.rows - r, tuple(x for x in diag if x > 1))
    k = kernel_basis(a)
    assert (k.rows, k.cols) == (a.cols, a.cols - r)
    assert k.columns() == [v.col(j) for j in range(r, a.cols)]


@pytest.mark.parametrize("a", PINNED)
def test_pivot_rule_is_shared_pinned(a):
    _agrees_with_full_smith(a)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_pivot_rule_is_shared(a):
    _agrees_with_full_smith(a)


@st.composite
def rows_with_units(draw):
    """A small working matrix as lists of rows, with one to three entries set
    to +-1, and a start index t for the pivot search."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = [draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)) for _ in range(m)]
    for _ in range(draw(st.integers(1, 3))):
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = draw(st.sampled_from((-1, 1)))
    return rows, draw(st.integers(0, min(m, n)))


@settings(max_examples=300, deadline=None)
@given(rows_with_units())
def test_pivot_search_matches_a_full_scan(drawn):
    # the row-major search and a scan of every entry pick the same one
    rows, t = drawn
    assert _find_pivot(rows, t, len(rows), len(rows[0])) == smallest_pivot(rows, t)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_echelon_transform_and_its_inverse_share_one_reduction(a):
    u, ech, k = _row_echelon_transform(a, False)
    uinv_t, ech2, k2 = _row_echelon_transform(a, True)
    assert (ech2, k2) == (ech, k)
    assert u @ a == ech
    assert u @ uinv_t.transpose() == IntMatrix.identity(a.rows)


def _sympy_factors(a):
    # sympy pads with zeros up to min(rows, cols); 1.14 also takes the empty shapes
    theirs = sympy_invariant_factors(Matrix(a.rows, a.cols, [x for r in a.entries for x in r]), domain=ZZ)
    return tuple(int(x) for x in theirs if x)


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_invariant_factors_against_sympy(a):
    assert invariant_factors(a) == _sympy_factors(a)


@pytest.mark.parametrize("a", PINNED)
def test_invariant_factors_against_sympy_pinned(a):
    assert invariant_factors(a) == _sympy_factors(a)


def _sympy_matrix(a):
    return Matrix(a.rows, a.cols, [x for r in a.entries for x in r])


def _smith_matches_sympy(a):
    u, d, v = smith_normal_form(a)
    assert u @ a @ v == d
    theirs = sympy_smith_normal_form(_sympy_matrix(a), domain=ZZ)
    assert theirs.shape == (d.rows, d.cols)
    k = min(a.rows, a.cols)
    assert [d.entries[i][i] for i in range(k)] == [abs(int(theirs[i, i])) for i in range(k)]


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_smith_diagonal_against_sympy(a):
    _smith_matches_sympy(a)


@pytest.mark.parametrize("a", PINNED)
def test_smith_diagonal_against_sympy_pinned(a):
    _smith_matches_sympy(a)


@settings(max_examples=200, deadline=None)
@given(independent_columns())
def test_reduced_basis_spans_the_lattice_of_sympys_hermite_form(b):
    # each basis solves the other's columns over Z, so the two column lattices agree
    h = sympy_hermite_normal_form(_sympy_matrix(b))
    hnf = IntMatrix.from_rows([[int(x) for x in h.row(i)] for i in range(h.rows)], cols=h.cols)
    assert (hnf.rows, hnf.cols) == (b.rows, b.cols)
    assert b @ reduce_basis(b).coordinates(hnf) == hnf
    assert hnf @ reduce_basis(hnf).coordinates(b) == b
