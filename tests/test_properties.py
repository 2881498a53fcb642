"""Property tests on random skew shapes, beyond the exhaustive small corpus."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewtab.bounds import upper_ideal_sizes
from skewtab.exact import _bareiss_det, brute_force_count, jacobi_trudi_count, naive_hlf
from skewtab.excited import nhlf_count, xi_determinant, xi_path_count
from skewtab.shapes import SkewShape, parse_shape, shape_text


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
