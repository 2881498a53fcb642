"""Property tests on random skew shapes, beyond the exhaustive small corpus."""

from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewtab.bounds import hp_lower, upper_ideal_sizes
from skewtab.exact import _bareiss_det, brute_force_count, jacobi_trudi_count, naive_hlf
from skewtab.excited import nhlf_count, xi_determinant, xi_path_count
from skewtab.shapes import Partition, SkewShape, parse_shape, shape_text


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


def _conjugate(shape):
    return SkewShape(shape.outer.conjugate(), shape.inner.conjugate())


@settings(max_examples=150, deadline=None)
@given(random_skew_shapes(20, connected=True))
def test_jacobi_trudi_matches_order_ideal_dp(shape):
    assert jacobi_trudi_count(shape) == brute_force_count(shape, cap=20)


@settings(max_examples=150, deadline=None)
@given(random_skew_shapes(40, connected=False))
def test_hook_sum_matches_jacobi_trudi(shape):
    # with the test above: JT = NHLF = DP, the hook sum here also on
    # disconnected shapes and beyond the DP's reach
    assert nhlf_count(shape) == jacobi_trudi_count(shape)


@settings(max_examples=150, deadline=None)
@given(random_skew_shapes(40, connected=False))
def test_xi_paths_match_flag_determinant(shape):
    assert xi_path_count(shape) == xi_determinant(shape)


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
    assert e == jacobi_trudi_count(_conjugate(shape))
    assert e == jacobi_trudi_count(shape.rotate180())


@settings(max_examples=150, deadline=None)
@given(random_skew_shapes(60, connected=False))
def test_upper_ideal_sizes_definition(shape):
    cells = shape.cells()
    direct = {c: sum(d.row >= c.row and d.col >= c.col for d in cells) for c in cells}
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

    assert hp_lower(shape, use_dual=False) == hp(shape)
    assert hp_lower(shape) == max(hp(shape), hp(shape.rotate180()))


def _cofactor_det(mat):
    """Determinant by expansion along the first row."""
    if not mat:
        return 1
    return sum(
        (-1) ** j * x * _cofactor_det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j, x in enumerate(mat[0])
        if x
    )


# mostly zeros, so that pivots vanish: Bareiss must swap rows or stop early
_sparse_matrices = st.integers(0, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


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
