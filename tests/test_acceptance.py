"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with `pytest tests/test_acceptance.py -v -s` to see them).
Tolerances are pinned here and nowhere else."""

import time
from fractions import Fraction
from math import comb

import pytest

from skewtab.asymptotics import (
    band_constants,
    corner_constants,
    second_order_constant,
    unit_box_log_integral,
)
from skewtab.bounds import bounds_report
from skewtab.exact import (
    brute_force_count,
    catalan,
    dual_hook_products,
    euler_number,
    hlf_count,
    jacobi_trudi_count,
    lr_coefficient,
    naive_hlf,
    rv_hook_identity_check,
    schur_principal,
    superfactorial,
)
from skewtab.excited import (
    enumerate_excited,
    macmahon_xi,
    macmahon_xi_superfactorial,
    nhlf_count,
    proctor_xi,
    proctor_xi_superfactorial,
    slim_xi_checks,
    xi_determinant,
)
from skewtab.shapes import (
    Partition,
    SkewShape,
    inverted_thick_hook,
    partitions_of,
    regev_vershik_shape,
    square_shape,
    staircase,
    subpartitions,
    thick_ribbon,
    zigzag,
)
from skewtab.verify import bounds_sweep, oracle_sweep

from math import factorial


class _timer:
    def __init__(self, name, budget):
        self.name, self.budget = name, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.name}: {elapsed:.2f}s over budget"
        return False


def test_golden_example():
    with _timer("paper-example golden values", budget=1.0):
        shape = SkewShape([4, 4, 3, 2], [2, 1])
        report = bounds_report(shape)
        assert report.exact == 3060
        assert naive_hlf(shape) == 1260
        assert report.xi == 5
        assert report.lower["rank-factorial"] == 864
        assert report.upper["chain"] == 16800
        assert report.lower["hp"] == 672
        assert report.upper["skew-lr"] == 241920
        assert (report.lower["naive-hlf"], report.upper["xi-times-F"]) == (1260, 6300)
        assert report.all_verdicts_hold


def test_oracle_equivalence_sweep():
    with _timer("oracle equivalence sweep (|outer| <= 8)", budget=300.0):
        result = oracle_sweep(8)
        assert result.checked == 485
        assert result.failures == []


def test_bound_soundness_sweep():
    with _timer("bound soundness sweep (|outer| <= 8)", budget=300.0):
        result = bounds_sweep(8)
        assert result.checked == 485
        assert result.failures == []


def test_closed_form_xi():
    with _timer("closed-form excited counts", budget=60.0):
        for k in (2, 4):
            assert proctor_xi(k) == len(enumerate_excited(thick_ribbon(k)))
        for k in (1, 2):
            assert macmahon_xi(k) == len(enumerate_excited(inverted_thick_hook(k)))
        for k in (2, 4, 6, 8):
            assert proctor_xi(k) == proctor_xi_superfactorial(k)
        for k in range(1, 9):
            assert macmahon_xi(k) == macmahon_xi_superfactorial(k)


def test_square_formula():
    with _timer("square-shape product formula", budget=30.0):
        for k in range(1, 6):
            n = k * k
            closed = (
                factorial(n) * superfactorial(k - 1) ** 2 // superfactorial(2 * k - 1)
            )
            assert jacobi_trudi_count(square_shape(k)) == closed


def test_zigzag_identities():
    with _timer("zigzag Euler/Catalan identities", budget=60.0):
        for k in range(1, 8):
            shape = zigzag(k)
            assert jacobi_trudi_count(shape) == euler_number(2 * k + 1)
            # Catalan index pinned by enumeration: xi(zigzag(k)) = C_k
            assert xi_determinant(shape) == catalan(k)
            if k <= 5:
                assert len(enumerate_excited(shape)) == catalan(k)


# frozen second-order constants of the thick ribbons, derived from the exact
# counts; they sit strictly inside the closed-form band
_THICK_RIBBON_CK = {
    2: -0.250201,
    4: -0.281653,
    6: -0.267828,
    8: -0.254912,
    10: -0.244959,
    12: -0.237317,
    14: -0.231332,
    16: -0.226538,
    18: -0.222621,
    20: -0.219364,
    22: -0.216614,
    24: -0.214264,
    26: -0.212231,
    28: -0.210457,
    30: -0.208894,
    32: -0.207508,
    34: -0.206269,
    36: -0.205156,
    38: -0.204151,
    40: -0.203238,
    42: -0.202405,
    44: -0.201642,
    46: -0.200941,
    48: -0.200294,
}


def test_thick_ribbon_certification():
    with _timer("thick-ribbon finite certification (k <= 48)", budget=120.0):
        band = band_constants("thick-ribbon")
        assert round(band.lower, 4) == -0.3237
        assert round(band.upper, 4) == -0.0621
        for k in range(2, 49, 2):
            shape = thick_ribbon(k)
            n = shape.size
            assert n == k * (3 * k - 1) // 2
            e = jacobi_trudi_count(shape)
            if k <= 38:  # a second exact route, the hook sum: about 1 s for all these k
                assert nhlf_count(shape) == e
            F = naive_hlf(shape)
            xi = xi_determinant(shape)
            assert F <= e <= xi * F  # exact arithmetic, zero tolerance
            c_k = second_order_constant(shape, exact=e)
            assert c_k == pytest.approx(_THICK_RIBBON_CK[k], abs=1e-6)
            assert band.lower < c_k < band.upper


def test_quadrature():
    with _timer("hook-integral quadrature vs closed forms", budget=10.0):
        c1, c2, c3 = corner_constants()
        assert round(c1, 4) == -0.1137
        assert round(c2, 4) == 0.6712
        assert round(c3, 4) == 1.0891
        for shift, want in ((0.0, c1), (1.0, c2), (2.0, c3)):
            assert abs(unit_box_log_integral(shift) - want) <= 1e-4


def test_slim_shape_suite():
    with _timer("slim-shape suite", budget=30.0):
        assert slim_xi_checks(SkewShape([7, 6, 5], [2, 1])).xi == 8
        for ell in range(2, 9):
            assert schur_principal(staircase(ell), ell) == 2 ** comb(ell, 2)
        lam = Partition([202] * 200)
        report = slim_xi_checks(SkewShape(lam, [2, 1]))
        assert report.ratio == Fraction(39999, 40000)  # frozen exact value
        assert abs(report.ratio - 1) <= Fraction(1, 10)


def test_dual_hooks_and_rv():
    with _timer("dual-hook and rectangle-attachment identities", budget=120.0):
        for m in range(1, 13):
            for parts in partitions_of(m):
                nu = Partition(parts)
                h, hstar = dual_hook_products(nu)
                assert h <= hstar
                assert (h == hstar) == (len(set(nu.parts)) == 1)
        for t in range(1, 12):
            for rows in range(1, t + 1):
                if t % rows:
                    continue
                cols = t // rows
                rect = Partition([cols] * rows)
                for sigma in subpartitions(rect):
                    s = sigma.size
                    if s + t > 12:
                        continue
                    assert rv_hook_identity_check(sigma, rows, cols)
                    shape = regev_vershik_shape(sigma, rows, cols)
                    e = jacobi_trudi_count(shape)
                    floor = comb(s + t, s) * hlf_count(sigma) * hlf_count(rect)
                    assert e >= floor


def test_lr_consistency():
    with _timer("Littlewood-Richardson consistency (|outer| <= 8)", budget=120.0):
        for m in range(1, 9):
            for parts in partitions_of(m):
                lam = Partition(parts)
                for mu in subpartitions(lam):
                    n = lam.size - mu.size
                    if n == 0:
                        continue
                    total = sum(
                        lr_coefficient(lam, mu, Partition(np))
                        * hlf_count(Partition(np))
                        for np in partitions_of(n)
                    )
                    assert total == jacobi_trudi_count(SkewShape(lam, mu))


def test_nhlf_is_part_of_oracle_sweep():
    # spot re-assertion that the hook-sum route is wired into the sweep
    with _timer("hook-sum route equals determinant route (spot)", budget=30.0):
        for shape in (
            SkewShape([4, 4, 3, 2], [2, 1]),
            thick_ribbon(3),
            zigzag(4),
            SkewShape([5, 4, 4, 1], [2, 1]),
        ):
            assert nhlf_count(shape) == jacobi_trudi_count(shape) == brute_force_count(shape)
