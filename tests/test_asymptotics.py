import random
from fractions import Fraction
from math import fsum, isnan, log, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewtab import asymptotics
from skewtab.asymptotics import (
    GRID_CAP,
    StableShape,
    _hook_integral_at,
    _log_sum,
    TvkData,
    band_constants,
    corner_constants,
    family_report,
    family_row,
    hook_integral,
    log_factorial_family,
    log_fraction,
    ribbon_rho_terms,
    second_order_constant,
    subpoly_report,
    tvk_constant,
    tvk_skew_shape,
    unit_box_log_integral,
)
from skewtab.errors import CapExceeded
from skewtab.exact import euler_number, jacobi_trudi_count, naive_hlf
from skewtab.excited import proctor_xi
from skewtab.shapes import SkewShape, column_ribbon, square_shape, thick_ribbon


def test_log_factorial_family_basics():
    assert log_factorial_family("factorial", 1).exact == 0.0
    r = log_factorial_family("factorial", 100)
    assert abs(r.gap - 3.2224) < 1e-3  # ~ (1/2) log(2 pi n)
    with pytest.raises(ValueError):
        log_factorial_family("nope", 3)
    with pytest.raises(ValueError, match="n must be >= 1"):
        log_factorial_family("factorial", 0)
    for q in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError, match="positive rational"):
            log_fraction(q)


def test_log_factorial_calibrations():
    # frozen calibrations of the main-term estimates; gaps measured once.
    # the displayed superfactorial third term overshoots (the true lower-order
    # coefficient is ~1 n log n, not 2 n log n), so its gap grows like n log n;
    # at n = 100 the measured gap is -465.95, frozen with a C = 5 band.
    r = log_factorial_family("superfactorial", 100)
    assert abs(r.gap + 465.95) < 0.5
    assert abs(r.gap) <= 5 * 100
    # odd double factorial: O(1) band around (1/2) log 2
    r = log_factorial_family("odd-double-factorial", 50)
    assert abs(r.gap - 0.3457) < 1e-3
    assert abs(r.gap) < 1.0
    r = log_factorial_family("super-doublefactorial", 60)
    assert abs(r.gap - 11.986) < 0.05
    r = log_factorial_family("double-superfactorial", 60)
    assert abs(r.gap + 445.50) < 0.5


def test_second_order_square_trend():
    # frozen exact sequence, monotone toward 1/2 - 2 log 2 ~ -0.8863
    limit = 0.5 - 2 * log(2)
    cs = [second_order_constant(square_shape(k)) for k in range(3, 8)]
    frozen = [-0.683316, -0.755869, -0.794709, -0.818077, -0.833303]
    assert cs == pytest.approx(frozen, abs=1e-6)
    assert all(a > b for a, b in zip(cs, cs[1:]))
    assert all(c > limit for c in cs)
    with pytest.raises(ValueError, match="empty shape"):
        second_order_constant(SkewShape([]))


def test_inverted_thick_hook_constant_regression():
    # frozen second-order constants of the inverted thick hooks, from exact
    # arithmetic; both sequences decrease toward the area-normalized limits
    # -1 + log(3)/2 - (c1 + 2 c2)/3 and -1 + log(3)/2 - (2 c1 + c3)/3
    from skewtab.shapes import inverted_thick_hook

    c1, c2, c3 = corner_constants()
    f_limit = -1 + 0.5 * log(3) - (c1 + 2 * c2) / 3
    e_limit = -1 + 0.5 * log(3) - (2 * c1 + c3) / 3
    f_frozen = {2: -0.697367, 4: -0.806382, 6: -0.832868}
    e_frozen = {2: -0.585909, 4: -0.687953, 6: -0.712597}
    prev_f = prev_e = 0.0
    for k in (2, 4, 6):
        shape = inverted_thick_hook(k)
        n = shape.size
        f_const = (log_fraction(naive_hlf(shape)) - 0.5 * n * log(n)) / n
        e_const = (log(jacobi_trudi_count(shape)) - 0.5 * n * log(n)) / n
        assert f_const == pytest.approx(f_frozen[k], abs=1e-6)
        assert e_const == pytest.approx(e_frozen[k], abs=1e-6)
        assert f_limit < f_const < prev_f
        assert e_limit < e_const < prev_e
        prev_f, prev_e = f_const, e_const


def test_band_constants_numerals():
    band = band_constants("thick-ribbon")
    assert round(band.lower, 4) == -0.3237
    assert round(band.upper, 4) == -0.0621
    band = band_constants("inverted-thick-hook")
    assert round(band.lower, 4) == -1.4095
    assert round(band.upper, 4) == -1.1479
    assert round(band.exact, 4) == -1.2872
    band = band_constants("square")
    assert round(band.exact, 4) == -0.8863
    assert round(band.upper, 4) == -0.1931
    with pytest.raises(ValueError):
        band_constants("zigzag")


def test_corner_constants_closed_forms():
    c1, c2, c3 = corner_constants()
    assert c1 == pytest.approx(2 * log(2) - 1.5)
    assert round(c1, 4) == -0.1137
    assert round(c2, 4) == 0.6712
    assert round(c3, 4) == 1.0891


def _unit_box_midpoint(shift, grid):
    """The midpoint rule for the unit-box integral, each column summed by
    _log_sum: the quadrature the closed form replaced."""
    dx = 1.0 / grid
    return sum(_log_sum(shift + dx * (c + 0.5), dx, grid) for c in range(grid)) * dx * dx


def test_corner_constants_are_unit_box_values():
    assert corner_constants() == tuple(unit_box_log_integral(s) for s in (0, 1, 2))


def test_unit_box_quadrature():
    for shift in (0.0, 0.5, 1.0, 3.7):
        assert abs(unit_box_log_integral(shift) - _unit_box_midpoint(shift, 4096)) < 1e-7


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.floats(0.0, 64.0), st.floats(64.0, 1e300)))
def test_unit_box_closed_form_matches_midpoint_sum(shift):
    # the midpoint rule's error at grid 1,024 is largest at shift 0, about 6e-7
    assert abs(unit_box_log_integral(shift) - _unit_box_midpoint(shift, 1024)) < 1e-6


def test_quadrature_convergence_order():
    c1, _, _ = corner_constants()
    square = StableShape.unit_square()
    errs = [abs(_hook_integral_at(square, g) - c1) for g in (64, 128, 256)]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(2.5 < r < 6 for r in ratios)  # near second-order convergence


@pytest.mark.parametrize("shift", [-0.5, float("nan"), float("inf")])
def test_unit_box_shift_must_be_finite_and_nonnegative(shift):
    with pytest.raises(ValueError, match="shift must be a finite number >= 0"):
        unit_box_log_integral(shift)


def test_hook_integral_shapes():
    c1, c2, c3 = corner_constants()
    sq = StableShape.unit_square()
    assert sq.area() == pytest.approx(1.0)
    assert abs(hook_integral(sq, 512) - c1) < 1e-4
    ith = StableShape.inverted_thick_hook()
    assert ith.area() == pytest.approx(1.0)
    want = -0.5 * log(3) + (c1 + 2 * c2) / 3
    assert abs(hook_integral(ith, 512) - want) < 1e-4
    ell = StableShape.thick_l()
    want_l = -0.5 * log(3) + (2 * c1 + c3) / 3
    assert abs(hook_integral(ell, 512) - want_l) < 1e-4


def test_hook_integral_rotation_coherence():
    # the rotated straight shape gives the exact growth constant; it must lie
    # inside the skew shape's own sandwich band
    c1, c2, c3 = corner_constants()
    lower = -1 + 0.5 * log(3) - (c1 + 2 * c2) / 3
    upper = lower + log(3 * sqrt(3) / 4)
    exact = -1 + 0.5 * log(3) - (2 * c1 + c3) / 3
    assert lower < exact < upper


def test_hook_integral_errors(monkeypatch):
    with pytest.raises(ValueError):
        hook_integral(StableShape.unit_square(), 32)
    with pytest.raises(ValueError):
        StableShape([(0, 1), (1, 2)])  # increasing boundary
    with pytest.raises(ValueError):
        StableShape([(0.0, 1.0), (1.0, 1.0)], [(0.0, 2.0), (1.0, 2.0)])
    monkeypatch.setattr(asymptotics, "REFINE_TOL", 1e-15)
    with pytest.raises(ArithmeticError):  # refinement guard fires on absurd tolerance
        hook_integral(StableShape.unit_square(), 128)


def test_hook_integral_grid_cap_checked_first(monkeypatch):
    def allocate(*args):
        raise AssertionError("quadrature ran past the grid cap")

    monkeypatch.setattr(asymptotics, "_hook_integral_at", allocate)
    with pytest.raises(CapExceeded, match=f"grid must be <= {GRID_CAP}"):
        hook_integral(StableShape.unit_square(), GRID_CAP + 1)
    with pytest.raises(CapExceeded):
        hook_integral(StableShape.unit_square(), 10**20)


def test_containment_is_checked_between_samples():
    outer = [[0, 1], [0.5001, 1], [0.5001, 0.2], [1, 0.2]]
    with pytest.raises(ValueError, match="exceeds outer"):  # a sliver 1e-4 wide
        StableShape(outer, [[0, 0.3], [0.5002, 0.3], [0.5002, 0], [1, 0]])
    with pytest.raises(ValueError, match="exceeds outer"):  # at a knot of the outer only
        StableShape([[0, 1], [0.5, 0.3 - 1e-6], [1, 0]], [[0, 0.6], [1, 0]])
    # touching the outer boundary, jumps included, is allowed
    StableShape(outer, [[0, 0.3], [0.5001, 0.3], [0.5001, 0], [1, 0]])
    StableShape(outer, [[0, 1], [0.5001, 1], [0.5001, 0.2], [1, 0.2]])
    StableShape([[0, 1], [0.5, 0.3], [1, 0]], [[0, 0.6], [1, 0]])
    StableShape(outer, [[0, 0.3], [0.5, 0.3], [0.5, 0], [1, 0]])


# reference quadrature: one column at a time, pieces found by binary search


def _reference_call(b, x):
    if not b._segs:
        return np.full_like(x, b.y_max)
    knots = np.array([s[2] for s in b._segs])
    idx = np.clip(np.searchsorted(knots, x, side="left"), 0, len(b._segs) - 1)
    out = np.empty_like(x)
    for i, (x0, y0, x1, y1) in enumerate(b._segs):
        m = idx == i
        if np.any(m):
            t = (x[m] - x0) / (x1 - x0)
            out[m] = y0 + t * (y1 - y0)
    return out


def _reference_inverse(b, y):
    out = np.full_like(y, b.x_max)
    if not b._inv:
        return out
    idx = np.searchsorted(np.array([s[2] for s in b._inv]), y, side="left")
    below = y <= b._inv[0][0]
    for i, (ylo, xlo, yhi, xhi) in enumerate(b._inv):
        m = (idx == i) & ~below
        if np.any(m):
            t = (y[m] - ylo) / (yhi - ylo)
            out[m] = xlo + t * (xhi - xlo)
    return out


def _reference_hook_integral_at(shape, grid):
    outer, inner = shape.outer, shape.inner
    a0, a1 = outer.x_min, outer.x_max
    dx = (a1 - a0) / grid
    xs = a0 + dx * (np.arange(grid) + 0.5)
    tops = _reference_call(outer, xs)
    bots = _reference_call(inner, xs)
    total = 0.0
    for x, top, bot in zip(xs, tops, bots):
        height = top - bot
        if height <= 0:
            continue
        dy = height / grid
        ys = bot + dy * (np.arange(grid) + 0.5)
        arms = _reference_inverse(outer, ys) - x
        legs = top - ys
        vals = np.log(arms + legs)
        total += float(vals.sum()) * dx * dy
    return total


_REFERENCE_GRIDS = (64, 100, 1000, 2048)


def _zero_height_shape():
    # columns right of x = 0.5 have zero height and contribute nothing
    return StableShape(
        [[0, 1], [0.5, 1], [0.5, 0.2], [1, 0.2]],
        [[0, 0.5], [0.5, 0.5], [0.5, 0.2], [1, 0.2]],
    )


@pytest.mark.parametrize(
    "make",
    [StableShape.unit_square, StableShape.inverted_thick_hook, StableShape.thick_l,
     _zero_height_shape],
)
def test_quadrature_matches_reference_to_rounding(make):
    # the cells of a column come from lgamma in closed form, the reference
    # sums their logs one by one, so the two agree to rounding, not bitwise
    shape = make()
    for grid in _REFERENCE_GRIDS:
        want = _reference_hook_integral_at(shape, grid)
        assert _hook_integral_at(shape, grid) == pytest.approx(want, rel=1e-12, abs=0)


def test_thin_regions_match_reference():
    # arm + leg is far above the cell height, where a bare lgamma difference
    # would cancel most of its digits
    for height in (1e-9, 1e-14):
        shape = StableShape([[0, 1], [1e-9, 1], [1e-9, height], [1, height]])
        want = _reference_hook_integral_at(shape, 512)
        assert _hook_integral_at(shape, 512) == pytest.approx(want, rel=1e-12, abs=0)


def test_log_sum_matches_fsum():
    rng = random.Random(7)
    for _ in range(500):
        count = rng.choice([1, 2, 5, 64, 511])
        u = rng.choice([-1, 1]) * 10 ** rng.uniform(-12, 3)
        z = 10 ** rng.uniform(-3, 17)  # the smallest term, in units of |u|
        w = abs(u) * (z - 0.5) - (u * count if u < 0 else 0)
        logs = [log(w + u * (m + 0.5)) for m in range(count)]
        tol = 1e-13 * (count + fsum(map(abs, logs)))
        assert abs(_log_sum(w, u, count) - fsum(logs)) <= tol, (w, u, count)


def test_log_sum_not_positive_is_nan():
    for w, u, count in [
        (-1.0, 0.5, 3), (0.0, 0.0, 4), (-0.25, 0.5, 1), (1.0, -1.0, 2),
        (1.0, -0.4, 3), (float("nan"), 1.0, 2), (1.0, float("nan"), 2),
    ]:
        assert isnan(_log_sum(w, u, count)), (w, u, count)


def test_zero_height_columns_value():
    assert f"{hook_integral(_zero_height_shape(), 512):.12f}" == "-0.201711802482"


@st.composite
def staircase_shapes(draw):
    """A weakly decreasing staircase on [0, 1], optionally over a lower copy."""
    unit = st.floats(0.05, 0.95)
    k = draw(st.integers(2, 5))
    xs = sorted(draw(st.lists(unit, min_size=k - 1, max_size=k - 1)))
    ys = sorted(draw(st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k)), reverse=True)
    pts = [[0.0, ys[0]]]
    for x, y in zip(xs, ys[1:]):
        pts += [[x, pts[-1][1]], [x, y]]
    pts.append([1.0, ys[-1]])
    scale = draw(st.sampled_from([None, 0.0, 0.3, 0.75]))
    inner = None if scale is None else [[x, scale * y] for x, y in pts]
    return StableShape(pts, inner)


@settings(max_examples=40, deadline=None)
@given(staircase_shapes(), st.lists(st.floats(0.0, 1.0), max_size=20))
def test_boundary_matches_reference_bitwise(shape, extra):
    for b in (shape.outer, shape.inner):
        # the knots of either curve, their neighbours, a grid and random points
        knots = [v for pt in b.points for v in pt]
        near = [np.nextafter(v, d) for v in knots for d in (-1.0, 2.0)]
        pts = np.array(sorted(set(knots + near + extra + list(np.linspace(0, 1, 101)))))
        xs = pts[(b.x_min <= pts) & (pts <= b.x_max)]
        ys = pts[(0.0 <= pts) & (pts <= b.y_max)]
        heights = [b(x) for x in xs.tolist()]
        rows = [b.inverse(y) for y in ys.tolist()]
        assert np.array(heights).tobytes() == _reference_call(b, xs).tobytes()
        assert np.array(rows).tobytes() == _reference_inverse(b, ys).tobytes()


@settings(max_examples=15, deadline=None)
@given(staircase_shapes())
def test_quadrature_matches_reference_on_staircases(shape):
    for grid in _REFERENCE_GRIDS[:3]:
        want = _reference_hook_integral_at(shape, grid)
        assert _hook_integral_at(shape, grid) == pytest.approx(want, rel=1e-12, abs=0)


def test_tvk_constant():
    data = TvkData(alpha=(0.5,), beta=(0.5,), pi=(0.0,), tau=(0.0,))
    assert tvk_constant(data) == pytest.approx(log(2))
    degenerate = TvkData(alpha=(0.3,), beta=(1.0,), pi=(0.3,), tau=(0.0,))
    assert tvk_constant(degenerate) == pytest.approx(0.0)
    a = TvkData(alpha=(0.4, 0.1), beta=(0.3, 0.2), pi=(0.1, 0.0), tau=(0.2, 0.1))
    b = TvkData(alpha=(0.3, 0.2), beta=(0.4, 0.1), pi=(0.2, 0.1), tau=(0.1, 0.0))
    assert tvk_constant(a) == pytest.approx(tvk_constant(b))  # conjugation symmetry
    with pytest.raises(ValueError, match="alpha_i >= pi_i"):
        TvkData(alpha=(0.1,), beta=(0.1,), pi=(0.2,), tau=(0.0,))
    with pytest.raises(ValueError, match="beta_i >= tau_i"):
        TvkData(alpha=(0.1,), beta=(0.1,), pi=(0.0,), tau=(0.2,))
    with pytest.raises(ValueError, match="equal length"):
        TvkData(alpha=(0.2, 0.1), beta=(0.1,), pi=(0.0,), tau=(0.0,))
    with pytest.raises(ValueError, match="excess must be positive"):
        TvkData(alpha=(0.3,), beta=(0.2,), pi=(0.3,), tau=(0.2,))


def test_tvk_limit_trend():
    data = TvkData(alpha=(0.3,), beta=(0.2,), pi=(0.1,), tau=(0.05,))
    c = tvk_constant(data)
    gaps = []
    for n in (100, 200, 400):
        shape = tvk_skew_shape(data, n)
        gaps.append(abs(log_fraction(naive_hlf(shape)) / n - c))
    assert gaps[0] > gaps[1] > gaps[2]


def test_tvk_shape_construction():
    data = TvkData(alpha=(0.3,), beta=(0.2,), pi=(0.1,), tau=(0.05,))
    shape = tvk_skew_shape(data, 100)
    assert shape.outer.frobenius() == ((30,), (20,))
    assert shape.inner.frobenius() == ((10,), (5,))
    # floor(0.35 n) = floor(0.3 n) at n = 10 and 11, so the outer keeps one
    # diagonal while the inner's floors stay strictly decreasing; the inner
    # keeps one too
    data = TvkData(alpha=(0.35, 0.3), beta=(0.5, 0.4), pi=(0.3, 0.1), tau=(0.4, 0.2))
    expected = {
        10: (((3,), (5,)), ((3,), (4,))),
        11: (((3,), (5,)), ((3,), (4,))),
        20: (((7, 6), (10, 8)), ((6, 2), (8, 4))),
        100: (((35, 30), (50, 40)), ((30, 10), (40, 20))),
    }
    for n, (outer, inner) in expected.items():
        shape = tvk_skew_shape(data, n)
        assert (shape.outer.frobenius(), shape.inner.frobenius()) == (outer, inner), n
    # a second diagonal flooring to (0, 0) is dropped from both shapes
    thin = TvkData(alpha=(0.5, 0.05), beta=(0.5, 0.05), pi=(0.1, 0.0), tau=(0.1, 0.0))
    shape = tvk_skew_shape(thin, 10)
    assert shape.outer.frobenius() == ((5,), (5,))
    assert shape.inner.frobenius() == ((1,), (1,))
    assert tvk_skew_shape(thin, 100).outer.frobenius() == ((50, 5), (50, 5))


def test_subpoly_report():
    # single row: hook-log sum is exactly log n!
    from math import lgamma

    row = subpoly_report(SkewShape([12]))
    assert row.sum_log_hooks == pytest.approx(lgamma(13), rel=1e-12)
    assert row.log_naive == pytest.approx(0.0, abs=1e-9)
    assert row.hook_bound_ok
    rep = subpoly_report(column_ribbon(32, 4))
    assert rep.depth == 5
    assert rep.hook_bound_ok
    assert rep.sum_log_hooks <= rep.n * log(7)  # a fortiori with the claimed depth 7


def test_subpoly_thick_ribbon_band():
    shape = thick_ribbon(30, 4)
    n = shape.size
    e = jacobi_trudi_count(shape)
    value = (log(e) - n * log(n) + n * log(4)) / n
    assert value == pytest.approx(-0.577421, abs=1e-5)  # frozen
    assert -log(2) <= value <= 0.0


def test_ribbon_rho_terms():
    triv = ribbon_rho_terms(5, 1)
    assert triv.log_exact == 0.0
    rep = ribbon_rho_terms(4, 3)
    assert rep.n == 12
    assert rep.residual == pytest.approx(2.2237, abs=1e-3)  # frozen
    rep = ribbon_rho_terms(6, 2)
    assert rep.residual == pytest.approx(1.3881, abs=1e-3)  # frozen
    assert jacobi_trudi_count(column_ribbon(6, 2)) == euler_number(12)


def test_family_rows():
    rows = family_report("thick-ribbon", [2, 4, 8])
    assert [r.n for r in rows] == [5, 22, 92]
    # a range is read as it is, a one-shot iterator once, into a list
    for ks in (range(2, 9, 2), iter([2, 4, 6, 8])):
        assert [r.k for r in family_report("thick-ribbon", ks)] == [2, 4, 6, 8]
    with pytest.raises(ValueError, match="^family 'staircase' member k=1 is empty$"):
        family_report("staircase", range(3, 0, -1))
    assert all(r.verdict for r in rows)
    assert rows[2].log_xi == pytest.approx(log(proctor_xi(8)))
    row = family_row("square", 3)
    assert row.n == 9
    assert row.log_e == pytest.approx(log(42))
    assert row.verdict
    row = family_row("ribbon-rho", 4, m=3)
    assert row.n == 12
    # smoke row: three cells, count 2, checked against the brute-force oracle
    row = family_row("inverted-thick-hook", 1)
    from skewtab.exact import brute_force_count
    from skewtab.shapes import inverted_thick_hook

    assert row.n == 3
    assert row.log_e == pytest.approx(log(brute_force_count(inverted_thick_hook(1))))
