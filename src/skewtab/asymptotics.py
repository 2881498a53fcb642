"""Finite-scale asymptotics: log-scale factorial estimates, second-order
constants for the named families, the hook integral over stable shapes, and
the Frobenius-coordinate limit constant.

This is the only module that touches floating point.  Exact inequalities are
always checked in integer/fraction arithmetic first; floats only enter when a
quantity is reported on the log scale.  Quadrature error is controlled by a
half-resolution refinement check; the midpoint rule sums the cells of each
column in closed form with ``math.lgamma``, so it needs no array library.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, inf, isfinite, lgamma, log, log1p, nan, sqrt
from numbers import Real
from typing import NamedTuple

from .errors import CapExceeded
from .exact import factorials, jacobi_trudi_count, naive_hlf
from .excited import xi_count
from .shapes import (
    _FAMILY_SIZES,
    _INT_KEYS,
    Partition,
    ShapeFamily,
    SkewShape,
    _family_params,
    column_ribbon,
)


def log_fraction(q: Fraction) -> float:
    if q <= 0:
        raise ValueError("log_fraction needs a positive rational")
    return log(q.numerator) - log(q.denominator)


# -- factorial families on the log scale ----------------------------------------


class LogEstimate(NamedTuple):
    exact: float
    estimate: float

    @property
    def gap(self) -> float:
        return self.exact - self.estimate


def log_factorial_family(kind: str, n: int) -> LogEstimate:
    """Exact log of a factorial-family value next to its main-term estimate.

    The estimate keeps the displayed leading terms only; the gap is reported,
    not assumed small (the lower-order coefficients are rough).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    exact = log(factorials(kind, n))
    ln, l2 = log(n), log(2)
    if kind == "factorial":
        est = n * ln - n
    elif kind == "odd-double-factorial":
        est = n * ln + (l2 - 1) * n
    elif kind == "superfactorial":
        est = 0.5 * n * n * ln - 0.75 * n * n + 2 * n * ln
    elif kind == "double-superfactorial":
        est = n * n * ln + (l2 - 1.5) * n * n + 2.5 * n * ln
    else:  # super-doublefactorial
        est = 0.5 * n * n * ln + (l2 / 2 - 0.75) * n * n + 0.5 * n * ln
    return LogEstimate(exact=exact, estimate=est)


# -- second-order constants -------------------------------------------------------


def second_order_constant(shape: SkewShape, exact: int | None = None) -> float:
    """(log e - n log n / 2) / n for the exact count e of the shape."""
    n = shape.size
    if n == 0:
        raise ValueError("empty shape has no asymptotic constant")
    if exact is None:
        exact = jacobi_trudi_count(shape)
    return (log(exact) - 0.5 * n * log(n)) / n


class BandConstants(NamedTuple):
    lower: float
    upper: float
    exact: float | None = None


def band_constants(kind: str) -> BandConstants:
    """Closed-form second-term band constants for the supported families.

    The thick-ribbon and square values are on the scale of c_k, the limit of
    (log e - n log n / 2) / n.  The inverted thick hook (2k)^(2k)/k^k, with
    n = 3k^2 cells, is measured against its side k instead: its values are
    limits of (log e - n log k) / n, which is c_k - ln(3)/2, so its c_k tends
    to exact + ln(3)/2 = -0.7379.
    """
    l2, l3 = log(2), log(3)
    if kind == "thick-ribbon":
        lower = 1 / 6 - 1.5 * l2 + 0.5 * l3
        return BandConstants(lower=lower, upper=1 / 6 - 3.5 * l2 + 2 * l3)
    if kind == "inverted-thick-hook":
        c1, c2, c3 = corner_constants()
        lower = -1 - c1 / 3 - 2 * c2 / 3
        return BandConstants(
            lower=lower,
            upper=lower + log(3 * sqrt(3) / 4),
            exact=-1 - 2 * c1 / 3 - c3 / 3,
        )
    if kind == "square":
        return BandConstants(lower=-1.5, upper=0.5 - l2, exact=0.5 - 2 * l2)
    raise ValueError(f"no band constants for family '{kind}'")


def corner_constants() -> tuple[float, float, float]:
    """The three unit-square integrals of log(c + x + y), c = 0, 1, 2:
    2 ln 2 - 3/2, 9/2 ln 3 - 4 ln 2 - 3/2 and 18 ln 2 - 9 ln 3 - 3/2."""
    return tuple(map(unit_box_log_integral, (0, 1, 2)))


def unit_box_log_integral(shift: float) -> float:
    """Integral of log(shift + x + y) over the unit square, for a finite
    shift >= 0: (g(shift + 2) - 2 g(shift + 1) + g(shift)) / 2 - 3/2 with
    g(t) = t^2 ln t, g(0) = 0.  From shift 32 on, where that difference
    cancels digits, the series in t = shift + 1, ln t - sum over m >= 1 of
    t^(-2m) / (m (2m + 1) (2m + 2)), replaces it; its fourth term is < 2e-15."""
    if not 0 <= shift < inf:
        raise ValueError("shift must be a finite number >= 0")
    if shift < 32:
        g = [t * _xlogx(t) for t in (shift, shift + 1, shift + 2)]
        return (g[2] - 2 * g[1] + g[0]) / 2 - 1.5
    r = (shift + 1) ** -2
    return log(shift + 1) - r / 12 - r * r / 60 - r**3 / 168


# -- stable shapes and the hook integral --------------------------------------------


def _piecewise(pieces, v, fill):
    """Linear interpolation over pieces (lo, a, hi, b), piece i covering
    lo < v <= hi with values a at lo and b at hi; fill where none covers v."""
    for lo, a, hi, b in pieces:
        if lo < v <= hi:
            return a + (v - lo) / (hi - lo) * (b - a)
    return fill


class _Boundary:
    """A weakly decreasing piecewise-linear curve given by breakpoints.

    Vertical segments (equal x) and plateaus (equal y) are both allowed; the
    forward evaluation and the generalized inverse use sup semantics at ties.
    """

    def __init__(self, points, name):
        """Read points, a list or tuple of [x, y] pairs of finite real numbers
        (not bools); errors name the boundary and the point."""
        if not isinstance(points, (list, tuple)) or len(points) < 2:
            raise ValueError(f"{name} boundary needs a list of at least two [x, y] points")
        pts = []
        for pos, pt in enumerate(points, start=1):
            if not (
                isinstance(pt, (list, tuple))
                and len(pt) == 2
                and all(isinstance(v, Real) and not isinstance(v, bool) for v in pt)
            ):
                raise ValueError(f"{name} point {pos} must be [x, y], two real numbers")
            try:
                x, y = float(pt[0]), float(pt[1])
            except OverflowError:  # an integer or fraction past the float range
                x = y = inf
            if not (isfinite(x) and isfinite(y)):
                raise ValueError(f"{name} point {pos} must be finite")
            pts.append((x, y))
        pairs = list(zip(pts, pts[1:]))
        for pos, ((x0, y0), (x1, y1)) in enumerate(pairs, start=2):
            if x1 < x0 or y1 > y0:
                raise ValueError(f"{name} point {pos}: boundary must move right and weakly down")
        self.points = pts
        self.x_min = pts[0][0]
        self.x_max = pts[-1][0]
        self.y_max = pts[0][1]
        self._segs = [(x0, y0, x1, y1) for (x0, y0), (x1, y1) in pairs if x1 > x0]
        # the strictly decreasing pieces, ascending in y: the graph of the inverse
        self._inv = [(y1, x1, y0, x0) for (x0, y0), (x1, y1) in reversed(pairs) if y0 > y1]

    def ends(self, u, v):
        """Values at u and v of the linear piece over (u, v), which holds no knot."""
        x0, y0, x1, y1 = next(seg for seg in self._segs if u < seg[2])
        return tuple(y0 + (x - x0) / (x1 - x0) * (y1 - y0) for x in (u, v))

    def __call__(self, x):
        """Height at x; x_min, where it is the sup, and points outside the
        domain get y_max."""
        return _piecewise(self._segs, x, self.y_max)

    def inverse(self, y):
        """Rightmost x at which the curve is still >= y (sup of the row).

        Rows at or below the curve's final height run to the end of the
        domain.  Callers only query heights inside the region.
        """
        return _piecewise(self._inv, y, self.x_max)

    def integral(self) -> float:
        return sum((x1 - x0) * (y0 + y1) / 2 for x0, y0, x1, y1 in self._segs)


class StableShape:
    """A scaled-limit skew region between two piecewise-linear boundaries."""

    def __init__(self, outer_points, inner_points=None):
        self.outer = _Boundary(outer_points, "outer")
        if inner_points is None:
            inner_points = [(self.outer.x_min, 0.0), (self.outer.x_max, 0.0)]
        self.inner = _Boundary(inner_points, "inner")
        if abs(self.inner.x_min - self.outer.x_min) > 1e-12 or abs(
            self.inner.x_max - self.outer.x_max
        ) > 1e-12:
            raise ValueError("inner and outer boundaries need the same x-domain")
        # Both curves are linear between consecutive knots of either, so
        # inner <= outer everywhere iff it holds at both ends of each such
        # interval, taken from inside it (the near side of a vertical jump).
        lo = max(self.inner.x_min, self.outer.x_min)
        hi = min(self.inner.x_max, self.outer.x_max)
        knots = {x for x, _ in self.outer.points + self.inner.points if lo < x < hi}
        knots = sorted(knots | {lo, hi})
        for u, v in zip(knots, knots[1:]):
            (iu, iv), (ou, ov) = self.inner.ends(u, v), self.outer.ends(u, v)
            if iu > ou + 1e-9 or iv > ov + 1e-9:
                raise ValueError("inner boundary exceeds outer boundary")

    def area(self) -> float:
        return self.outer.integral() - self.inner.integral()

    @classmethod
    def unit_square(cls) -> "StableShape":
        return cls([(0.0, 1.0), (1.0, 1.0)])

    @classmethod
    def inverted_thick_hook(cls) -> "StableShape":
        """2x2 square minus its corner unit square, scaled to area 1."""
        s = 1 / sqrt(3)
        return cls(
            [(0.0, 2 * s), (2 * s, 2 * s)],
            [(0.0, s), (s, s), (s, 0.0), (2 * s, 0.0)],
        )

    @classmethod
    def thick_l(cls) -> "StableShape":
        """The 180-degree rotation of the inverted thick hook, as a straight shape."""
        s = 1 / sqrt(3)
        return cls([(0.0, 2 * s), (s, 2 * s), (s, s), (2 * s, s)])


GRID_CAP = 1 << 14  # grid columns, checked before any work
REFINE_TOL = 1e-3  # largest accepted change from half resolution


def _log_sum(w: float, u: float, count: int) -> float:
    """Sum of log(w + u (m + 1/2)) over 0 <= m < count; NaN if a term is not
    positive.  For u > 0 the terms are u z, u (z + 1), ... with z = w/u + 1/2,
    so the sum is count log u + lgamma(z + count) - lgamma(z), or Stirling's
    series for that difference where it would cancel most digits."""
    if u < 0:  # the same terms, summed from the other end
        w, u = w + u * count, -u
    if not w < u * 2**52:  # u = 0, or every term the middle one to rounding
        mid = w + u * count / 2
        return count * log(mid) if mid > 0 else nan
    z = w / u + 0.5
    if not z > 0:
        return nan
    if z < 128:
        return count * log(u) + lgamma(z + count) - lgamma(z)
    e, r, s = z + count, 1 / z, 1 / (z + count)  # the next series term is below 2e-18
    return (count * log(u * z) + (e - 0.5) * log1p(count * r) - count
            + (s - r) / 12 - (s**3 - r**3) / 360 + (s**5 - r**5) / 1260)


def _hook_integral_at(shape: StableShape, grid: int) -> float:
    """Midpoint rule on grid columns, each cut into grid cells of its own
    height.  On each piece of the outer boundary's inverse, and off them where
    it is x_max, arm + leg is linear in the cell index, so _log_sum applies."""
    outer, inner = shape.outer, shape.inner
    a0, a1 = outer.x_min, outer.x_max
    inv, fill = outer._inv, (-inf, a1, inf, a1)
    bands = [(-inf, a1, inv[0][0], a1), *inv, fill] if inv else [fill]
    dx = (a1 - a0) / grid
    total = 0.0
    for c in range(grid):
        x = a0 + dx * (c + 0.5)
        top, bot = outer(x), inner(x)
        dy = (top - bot) / grid
        if not dy > 0:
            continue
        col, done = 0.0, 0
        for lo, a, hi, b in bands:
            # cells m < end have their midpoints bot + dy (m + 1/2) at most hi;
            # min(grid, NaN) is grid, so an infinite dy carries NaN to the total
            end = min(grid, floor(max(-1.0, min(grid, (hi - bot) / dy - 0.5))) + 1)
            if end > done:
                y = bot + dy * (done + 0.5)
                u = dy / (hi - lo) * (b - a) - dy
                col += _log_sum(outer.inverse(y) - x + (top - y) - u / 2, u, end - done)
                done = end
        total += col * dx * dy
    return total


def hook_integral(shape: StableShape, grid: int = 512) -> float:
    """Midpoint quadrature of log(arm + leg) over the region between the curves.

    The integrand has an integrable log singularity along the outer boundary;
    midpoints never sit on it.  The value at half resolution must agree within
    REFINE_TOL, otherwise the quadrature is declared non-convergent.  A
    non-finite difference (inf - inf is NaN) fails the check too.  The grid,
    at least 64, is checked against GRID_CAP before any work.
    """
    if grid < 64:
        raise ValueError("grid must be >= 64")
    if grid > GRID_CAP:
        raise CapExceeded(f"grid must be <= {GRID_CAP}")
    coarse = _hook_integral_at(shape, grid // 2)
    fine = _hook_integral_at(shape, grid)
    if not abs(fine - coarse) <= REFINE_TOL:
        raise ArithmeticError(
            f"quadrature not converged: |{fine} - {coarse}| is not <= {REFINE_TOL}"
        )
    return fine


# -- Frobenius-coordinate limit ------------------------------------------------------


class _TvkFields(NamedTuple):
    # a NamedTuple body may not define __new__, so TvkData validates in a subclass
    alpha: tuple
    beta: tuple
    pi: tuple
    tau: tuple


class TvkData(_TvkFields):
    """Scaled Frobenius coordinates of the outer and inner limit shapes."""

    __slots__ = ()

    def __new__(cls, alpha, beta, pi, tau):
        if not (len(beta) == len(pi) == len(tau) == len(alpha)):
            raise ValueError("all four coordinate vectors need equal length")
        for a, p in zip(alpha, pi):
            if a < p or p < 0:
                raise ValueError("need alpha_i >= pi_i >= 0")
        for b, t in zip(beta, tau):
            if b < t or t < 0:
                raise ValueError("need beta_i >= tau_i >= 0")
        self = super().__new__(cls, alpha, beta, pi, tau)
        if self.gamma <= 0:
            raise ValueError("total coordinate excess must be positive")
        return self

    @property
    def gamma(self) -> float:
        return sum(self.alpha) + sum(self.beta) - sum(self.pi) - sum(self.tau)


def _xlogx(v: float) -> float:
    return 0.0 if v == 0 else v * log(v)


def tvk_constant(data: TvkData) -> float:
    """Growth constant of the log count per unit of the scale parameter."""
    c = _xlogx(data.gamma)
    for a, p in zip(data.alpha, data.pi):
        c -= _xlogx(a - p)
    for b, t in zip(data.beta, data.tau):
        c -= _xlogx(b - t)
    return c


def _floored_coords(firsts, seconds, n):
    arms, legs = [], []
    for a, b in zip(firsts, seconds):
        fa, fb = int(a * n), int(b * n)
        if fa == 0 and fb == 0:
            break  # no diagonal cell survives at this scale
        if arms and not (fa < arms[-1] and fb < legs[-1]):
            break
        arms.append(fa)
        legs.append(fb)
    return arms, legs


def tvk_skew_shape(data: TvkData, n: int) -> SkewShape:
    """The discretized shape at scale n: Frobenius coordinates floor(coord * n).

    Two outer coordinates may floor to one value and drop a diagonal that
    the inner shape keeps, so the inner keeps at most as many diagonals as
    the outer.  Its kept coordinates are at most the outer's, as pi <= alpha
    and tau <= beta, so it lies inside.
    """
    arms, legs = _floored_coords(data.alpha, data.beta, n)
    inner_arms, inner_legs = _floored_coords(data.pi, data.tau, n)
    d = len(arms)
    outer = Partition.from_frobenius(arms, legs)
    inner = Partition.from_frobenius(inner_arms[:d], inner_legs[:d])
    return SkewShape(outer, inner)


# -- depth decompositions ----------------------------------------------------------


class SubpolyReport(NamedTuple):
    n: int
    width: int
    depth: int
    n_log_n: float
    sum_log_hooks: float
    n_log_depth: float
    log_naive: float
    hook_bound_ok: bool


def subpoly_report(shape: SkewShape) -> SubpolyReport:
    """Decompose log F into n log n minus the hook-log sum, with the exact
    check that the hook product is at most depth^n."""
    n = shape.size
    width, depth = shape.width_depth()
    prod = shape.hook_product()
    sum_log_hooks = log(prod)
    return SubpolyReport(
        n=n,
        width=width,
        depth=depth,
        n_log_n=n * log(n) if n else 0.0,
        sum_log_hooks=sum_log_hooks,
        n_log_depth=n * log(depth) if depth else 0.0,
        log_naive=log_fraction(naive_hlf(shape)) if n else 0.0,
        hook_bound_ok=prod <= depth**n if n else True,
    )


class RibbonTermsReport(NamedTuple):
    k: int
    m: int
    n: int
    terms: tuple  # (n log n, -n log m, -n log m / 2m, -n/m)
    estimate: float
    log_exact: float
    residual: float


def ribbon_rho_terms(k: int, m: int) -> RibbonTermsReport:
    """Evaluate the four-term expansion for the all-columns-length-m ribbon and
    report the residual against the exact count."""
    shape = column_ribbon(k, m)
    n = shape.size
    lm = log(m)
    terms = (n * log(n), -n * lm, -n * lm / (2 * m), -n / m)
    estimate = sum(terms)
    exact = jacobi_trudi_count(shape)
    log_exact = log(exact)
    return RibbonTermsReport(
        k=k, m=m, n=n, terms=terms, estimate=estimate, log_exact=log_exact,
        residual=log_exact - estimate,
    )


# -- per-family report rows -----------------------------------------------------------


class FamilyRow(NamedTuple):
    family: str
    k: int
    n: int
    log_e: float
    c_k: float
    log_F: float
    log_xi: float
    verdict: bool


def family_row(kind: str, k: int, **extra) -> FamilyRow:
    """Exact counts and log-scale summary for one family member.

    The verdict is the exact sandwich F <= e <= xi * F, checked in rational
    arithmetic before anything is floated.
    """
    shape = _family_member(kind, k, extra).build()
    n = shape.size
    e = jacobi_trudi_count(shape)
    F = naive_hlf(shape)
    xi = xi_count(shape)
    verdict = F <= e <= xi * F
    return FamilyRow(
        family=kind,
        k=k,
        n=n,
        log_e=log(e),
        c_k=second_order_constant(shape, exact=e),
        log_F=log_fraction(F),
        log_xi=log(xi),
        verdict=verdict,
    )


def _family_member(kind: str, k: int, extra: dict) -> ShapeFamily:
    # a sweep sets the family's first parameter: k, or ell for slim-stripe
    key = _family_params(kind)[1][0]
    if key not in _INT_KEYS:
        raise ValueError(f"family '{kind}' cannot be swept: its first parameter is '{key}'")
    return ShapeFamily(kind, **{key: k}, **extra)


def family_report(kind: str, ks, **extra) -> list[FamilyRow]:
    """family_row over ks.  Every member is checked before the first is
    built: its parameters, its size against shapes.FAMILY_CELL_CAP, and that
    it has a cell.  A range is read twice, never copied into a list."""
    if iter(ks) is ks:  # a one-shot iterator can only be read once
        ks = list(ks)
    key = _family_params(kind)[1][0]
    for k in ks:
        member = _family_member(kind, k, extra)
        if k < 1 or _FAMILY_SIZES[kind](**member.params) < 1:
            member.build()  # a builder refuses a parameter below 1 before building
            raise ValueError(f"family '{kind}' member {key}={k} is empty")
    return [family_row(kind, k, **extra) for k in ks]
