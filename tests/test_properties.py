"""Property tests on random skew shapes, beyond the exhaustive small corpus."""

from collections import Counter
from fractions import Fraction
from itertools import islice
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewtab import exact, excited
from skewtab.bounds import hp_lower, upper_ideal_sizes
from skewtab.exact import _bareiss_det, brute_force_count, jacobi_trudi_count, naive_hlf
from skewtab.excited import (
    border_strip_decomposition,
    nhlf_count,
    xi_count,
    xi_determinant,
    xi_path_count,
)
from skewtab.shapes import (
    Partition,
    SkewShape,
    inverted_thick_hook,
    parse_shape,
    shape_text,
    square_shape,
    subpartitions,
    thick_ribbon,
    zigzag,
)
from skewtab.verify import skew_shapes


@st.composite
def random_skew_shapes(draw, max_cells: int, connected: bool):
    """A random skew shape of at most max_cells cells, built bottom row up.

    Row i spans the columns (lo_i, hi_i].  Going up, lo and hi weakly grow;
    a connected shape keeps every row overlapping the one below it, otherwise
    a row may also start past the end of the row below, or be empty.  Drawing
    the row count first gives tall shapes as often as wide ones.
    """
    nrows = draw(st.integers(1, max_cells))
    step = max(1, max_cells // nrows)
    lo, hi = 0, draw(st.integers(1, step))
    rows = [(lo, hi)]
    cells = hi
    for _ in range(nrows - 1):
        lo = draw(st.integers(lo, hi - 1 if connected else hi + 2))
        hi = draw(st.integers(max(hi, lo + 1 if connected else lo), max(hi, lo + step)))
        if cells + hi - lo > max_cells:
            break
        rows.append((lo, hi))
        cells += hi - lo
    rows.reverse()
    return SkewShape([h for _, h in rows], [l for l, _ in rows])


@st.composite
def random_ribbons(draw, max_cells: int):
    """A random ribbon of at most max_cells cells: each row, going up,
    overlaps the row below in exactly its last column."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=max_cells))
    rows, hi, cells = [], 0, 0
    for length in lengths:
        if cells + length > max_cells:
            break
        lo = max(hi - 1, 0)
        hi = lo + length
        rows.append((lo, hi))
        cells += length
    rows.reverse()
    return SkewShape([h for _, h in rows], [l for l, _ in rows])


@settings(max_examples=150, deadline=None)
@given(random_skew_shapes(20, connected=True))
def test_jacobi_trudi_matches_order_ideal_dp(shape):
    assert jacobi_trudi_count(shape) == brute_force_count(shape)


@settings(max_examples=150, deadline=None)
@given(random_skew_shapes(40, connected=False))
def test_hook_sum_matches_jacobi_trudi(shape):
    # with the test above: JT = NHLF = DP, the hook sum here also on
    # disconnected shapes and beyond the DP's reach
    assert nhlf_count(shape) == jacobi_trudi_count(shape)


@settings(max_examples=100, deadline=None)
@given(random_skew_shapes(40, connected=False))
def test_hook_sum_lattices_agree(shape):
    # the flag and strip lattices, whichever `nhlf_count` would take
    strips = border_strip_decomposition(shape)
    assert excited._strip_count(shape) == len(strips)
    flag = Fraction(*excited._flag_hook_sum(shape))
    assert flag == Fraction(*excited._strip_hook_sum(shape))


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_skew_shapes(40, connected=False), random_ribbons(80)))
def test_xi_paths_match_flag_determinant(shape):
    # ribbons with many rows are where xi_count takes the path count
    assert xi_path_count(shape) == xi_determinant(shape) == xi_count(shape)


@settings(max_examples=100, deadline=None)
@given(random_skew_shapes(40, connected=False))
def test_naive_hook_sandwich(shape):
    # F <= e <= xi * F, exactly
    F, e = naive_hlf(shape), jacobi_trudi_count(shape)
    assert F <= e <= xi_determinant(shape) * F


@settings(max_examples=150, deadline=None)
@given(random_skew_shapes(60, connected=False))
def test_shape_text_round_trip(shape):
    assert parse_shape(shape_text(shape)) == shape


@settings(max_examples=100, deadline=None)
@given(random_skew_shapes(60, connected=False))
def test_jacobi_trudi_symmetries(shape):
    e = jacobi_trudi_count(shape)
    assert e == jacobi_trudi_count(shape.conjugate())
    assert e == jacobi_trudi_count(shape.rotate180())


@settings(max_examples=150, deadline=None)
@given(random_skew_shapes(60, connected=False))
def test_upper_ideal_sizes_definition(shape):
    cells = shape.cells()
    direct = {(i, j): sum(k >= i and m >= j for k, m in cells) for i, j in cells}
    assert upper_ideal_sizes(shape) == direct


# The shape kernels work on row lengths; each test below compares one with
# its per-cell definition.  Disconnected shapes, empty rows and the empty
# shape are all in range.

_partitions = st.lists(st.integers(1, 12), max_size=12).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)
_EDGE_SHAPES = (
    SkewShape(()),  # empty
    SkewShape([3], [3]),  # one empty row
    SkewShape([4, 2, 2], [2, 2]),  # empty middle row, disconnected
    SkewShape([5, 5, 1], [4, 1]),  # rows sharing no column
)


def _with_edge_shapes(test):
    for shape in _EDGE_SHAPES:
        test = example(shape)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(_partitions)
@example(Partition())
def test_hooks_match_hook_per_cell(lam):
    cells = list(lam.cells())  # reading order
    hooks = lam.hooks()
    assert list(hooks) == cells
    assert hooks == {c: lam.hook(*c) for c in cells}
    assert lam.hook_product() == prod(lam.hook(*c) for c in cells)
    columns = range(1, lam.part(1) + 1)
    assert lam.conjugate().parts == tuple(sum(p >= j for p in lam) for j in columns)


@settings(max_examples=150, deadline=None)
@given(_partitions, _partitions)
@example(Partition(), Partition())
@example(Partition([2]), Partition([1, 1]))  # more rows than outer
def test_containment_check_per_row(lam, mu):
    bad = [i for i in range(1, len(mu) + 1) if mu.part(i) > lam.part(i)]
    if bad:
        with pytest.raises(ValueError, match=f"at row {bad[0]}$"):
            SkewShape(lam, mu)
    else:
        shape = SkewShape(lam, mu)
        assert shape.row_bounds() == [(mu.part(i), lam.part(i)) for i in range(1, len(lam) + 1)]


@settings(max_examples=150, deadline=None)
@given(random_skew_shapes(60, connected=False))
@_with_edge_shapes
def test_cells_match_membership(shape):
    rows, width = len(shape.outer), shape.outer.part(1)
    box = [(i, j) for i in range(rows + 2) for j in range(width + 2)]
    assert shape.cells() == [c for c in box if c in shape]


@settings(max_examples=150, deadline=None)
@given(random_skew_shapes(60, connected=False))
@_with_edge_shapes
def test_hook_multiset_per_cell(shape):
    per_cell = Counter(shape.outer.hook(i, j) for i, j in shape.cells())
    multiset = shape.hook_multiset()
    assert multiset == per_cell and list(multiset) == list(per_cell)
    assert shape.hook_product() == prod(per_cell.elements())


@settings(max_examples=150, deadline=None)
@given(random_skew_shapes(60, connected=False))
@_with_edge_shapes
def test_antidiagonal_ranks_per_cell(shape):
    counts = Counter(i + j for i, j in shape.cells())
    span = range(min(counts), max(counts) + 1) if counts else ()
    assert shape.antidiagonal_ranks() == tuple(counts[a] for a in span)  # gaps count 0


@settings(max_examples=150, deadline=None)
@given(random_skew_shapes(60, connected=False))
@_with_edge_shapes
def test_hp_lower_is_the_upper_ideal_product(shape):
    def hp(s):
        return Fraction(factorial(s.size), prod(upper_ideal_sizes(s).values()))

    assert hp_lower(shape) == max(hp(shape), hp(shape.rotate180()))


def _revalidated(shape):
    """The shape rebuilt from its parts by the public, validating constructors."""
    return SkewShape(list(shape.outer.parts), list(shape.inner.parts))


# conjugate(), subpartitions(), canonical(), rotate180() and skew_shapes()
# build their partitions without re-validation; the public constructors must
# accept every one of them unchanged (Partition equality compares the parts
# tuples, so a list, a zero or an unsorted part would show)


@settings(max_examples=150, deadline=None)
@given(random_skew_shapes(40, connected=False))
@_with_edge_shapes
def test_trusted_partitions_revalidate(shape):
    for built in (shape.rotate180(), shape.canonical(), shape.conjugate()):
        assert _revalidated(built) == built
    for mu in islice(subpartitions(shape.outer), 60):
        assert Partition(list(mu.parts)) == mu
        assert shape.outer.contains(mu)


def test_skew_shapes_revalidate():
    for shape in skew_shapes(7, connected_only=False):
        assert _revalidated(shape) == shape


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2, 6), max_size=6))
@example([1, 2])
@example([2, -1])
@example([3, 0, 1])
def test_public_partition_input_is_validated(parts):
    ordered = all(p >= 0 for p in parts) and all(a >= b for a, b in zip(parts, parts[1:]))
    if ordered:
        assert Partition(parts).parts == tuple(p for p in parts if p)
    else:
        with pytest.raises(ValueError):
            Partition(parts)


def _cofactor_det(mat):
    """Determinant by expansion along the first row."""
    if not mat:
        return 1
    return sum(
        (-1) ** j * x * _cofactor_det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j, x in enumerate(mat[0])
        if x
    )


def _fraction_det(mat):
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        r = next((r for r in range(k, n) if a[r][k]), None)
        if r is None:
            return 0
        if r != k:
            a[k], a[r] = a[r], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    assert det.denominator == 1
    return det.numerator


def _eager_bareiss_det(mat):
    """Bareiss elimination updating every entry below and right of each
    pivot at every step: the reference the lazy kernel must agree with."""
    a = [row[:] for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


# mostly zeros, so that pivots vanish: Bareiss must swap rows or stop early
_sparse_entries = st.one_of(st.just(0), st.integers(-9, 9))
_sparse_matrices = st.integers(0, 5).flatmap(lambda n: _square(n, _sparse_entries))


@settings(max_examples=300, deadline=None)
@given(_sparse_matrices)
@example([[0, 1], [1, 0]])  # one row swap
@example([[0, 1, 2], [0, 3, 4], [5, 6, 7]])  # swap from below the next row
@example([[0, 1], [0, 2]])  # zero column: stops at the first pivot
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])  # second pivot vanishes for good
def test_bareiss_matches_cofactor_expansion(mat):
    det = _bareiss_det(mat)
    assert det == _cofactor_det(mat)
    # turning the matrix by 180 degrees keeps the determinant, sign included;
    # jacobi_trudi_count relies on this to start from its small corner
    assert det == _bareiss_det([row[::-1] for row in mat[::-1]])


def _check_bareiss(mat):
    det = _bareiss_det(mat)
    assert det == _fraction_det(mat)
    assert det == _eager_bareiss_det(mat)
    assert det == _bareiss_det([list(col) for col in zip(*mat)])  # transpose


# Structured zero patterns that leave rows and columns of the lazy kernel
# asleep for several steps, up to 8 x 8.


@st.composite
def _late_waking_matrices(draw):
    """Row i is 0 before its lead column and column j is 0 above its top row,
    so each line wakes at a step of its own; the pivots that meet a zero
    force row swaps between sleeping and waking rows."""
    n = draw(st.integers(0, 8))
    lead = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    top = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    mat = draw(_square(n, _sparse_entries))
    return [[x if j >= lead[i] and i >= top[j] else 0 for j, x in enumerate(row)] for i, row in enumerate(mat)]


@settings(max_examples=300, deadline=None)
@given(_late_waking_matrices())
# the last column wakes at step 0, then the second pivot vanishes and the
# sleeping last row is swapped in
@example([[1, 0, 1], [1, 0, 2], [0, 1, 0]])
# triangular after one swap: each row wakes as the pivot row, the last never
@example([[0, 0, 2], [0, 3, 1], [4, 1, 0]])
# a zero pivot swaps two sleeping rows; the third column wakes at step 2
@example([[2, 0, 0, 1], [0, 0, 3, 0], [1, 0, 0, 0], [0, 5, 0, 0]])
# banded: each line wakes one step after the one before
@example([[1, 1, 0, 0], [1, 1, 2, 0], [0, 3, 1, 4], [0, 0, 1, 1]])
def test_bareiss_late_waking_lines(mat):
    _check_bareiss(mat)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: _square(n, st.integers(-9, 9))))
def test_bareiss_hessenberg(mat):
    # zero below the subdiagonal (upper Hessenberg), as a ribbon's matrix is;
    # _check_bareiss also runs the lower Hessenberg transpose
    _check_bareiss([[x if i <= j + 1 else 0 for j, x in enumerate(row)] for i, row in enumerate(mat)])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 30), min_size=n, max_size=n, unique=True),
            st.lists(st.integers(0, 30), min_size=n, max_size=n, unique=True),
        )
    )
)
def test_bareiss_binomial_staircase(ab):
    # the Jacobi-Trudi matrix C(a_i, b_j), zero wherever b_j > a_i
    a, b = sorted(ab[0]), sorted(ab[1])
    _check_bareiss([[comb(x, y) for y in b] for x in a])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: _square(n, _sparse_entries)))
def test_bareiss_matches_fraction_elimination(mat):
    _check_bareiss(mat)


_LARGE_SHAPES = (
    [thick_ribbon(k) for k in (8, 12, 14, 16, 20, 24)]
    + [zigzag(k) for k in (10, 20, 30, 40)]
    + [square_shape(k) for k in (10, 20, 24, 30)]
    + [inverted_thick_hook(k) for k in (5, 10, 12, 15, 20)]
)


def test_bareiss_matches_eager_on_counting_matrices(monkeypatch):
    # every Jacobi-Trudi, flag and path matrix the counts build
    dims = Counter()

    def checked(mat):
        det = _bareiss_det(mat)
        assert det == _eager_bareiss_det(mat)
        dims[len(mat)] += 1
        return det

    monkeypatch.setattr(exact, "_bareiss_det", checked)
    monkeypatch.setattr(excited, "_bareiss_det", checked)
    for shape in skew_shapes(9, connected_only=False):
        jacobi_trudi_count(shape)
        xi_determinant(shape)
        xi_path_count(shape)
        nhlf_count(shape)
    for shape in _LARGE_SHAPES:
        jacobi_trudi_count(shape)
        xi_determinant(shape)
        xi_path_count(shape)
    assert max(dims) == 47  # thick_ribbon(24)'s Jacobi-Trudi matrix
    assert sum(dims.values()) > 5000
