from fractions import Fraction
from math import comb, factorial, prod

import pytest

from skewtab import exact
from skewtab.errors import CapExceeded
from skewtab.exact import (
    brute_force_count,
    catalan,
    double_superfactorial,
    dual_hook_products,
    euler_number,
    factorials,
    hlf_count,
    jacobi_trudi_count,
    lr_coefficient,
    naive_hlf,
    odd_double_factorial,
    rv_hook_identity_check,
    schur_principal,
    super_doublefactorial,
    superfactorial,
)
from skewtab.shapes import (
    Partition,
    SkewShape,
    column_ribbon,
    partitions_of,
    subpartitions,
    thick_ribbon,
    zigzag,
)
from skewtab.verify import skew_shapes


def test_factorial_families():
    assert superfactorial(3) == 12
    assert superfactorial(0) == 1
    assert super_doublefactorial(2) == 3
    assert double_superfactorial(2) == 6
    assert odd_double_factorial(3) == 15
    assert [odd_double_factorial(n) for n in range(5)] == [1, 1, 3, 15, 105]
    assert factorials("superfactorial", 4) == 288
    with pytest.raises(ValueError):
        factorials("nope", 1)
    # defining recurrences
    for n in range(1, 12):
        assert superfactorial(n) == superfactorial(n - 1) * factorial(n)
        assert double_superfactorial(n) == double_superfactorial(n - 1) * factorial(2 * n - 1)
        assert super_doublefactorial(n) == super_doublefactorial(n - 1) * odd_double_factorial(n)
    # defining products, whatever order the values are asked for in
    for n in [*range(15, -1, -1), *range(16)]:
        assert superfactorial(n) == prod(factorial(m) for m in range(1, n + 1))
        assert double_superfactorial(n) == prod(factorial(2 * m - 1) for m in range(1, n + 1))
        assert super_doublefactorial(n) == prod(
            prod(range(1, 2 * m, 2)) for m in range(1, n + 1)
        )
    for family in (
        superfactorial, double_superfactorial, super_doublefactorial, odd_double_factorial
    ):
        with pytest.raises(ValueError, match="n must be >= 0"):
            family(-1)


def test_hlf_count():
    assert hlf_count(Partition([2, 2])) == 2
    assert hlf_count(Partition([1])) == 1
    assert hlf_count(Partition()) == 1
    # square closed form: n! * Phi(k-1)^2 / Phi(2k-1)
    for k in range(1, 6):
        lam = Partition([k] * k)
        closed = factorial(k * k) * superfactorial(k - 1) ** 2 // superfactorial(2 * k - 1)
        assert hlf_count(lam) == closed


def test_naive_hlf():
    assert naive_hlf(SkewShape([4, 4, 3, 2], [2, 1])) == 1260
    lam = Partition([3, 2])
    assert naive_hlf(SkewShape(lam)) == hlf_count(lam)
    # hooks of (2,2) at the three skew cells are 2, 2, 1
    assert naive_hlf(SkewShape([2, 2], [1])) == Fraction(3, 2)


def test_jacobi_trudi():
    assert jacobi_trudi_count(SkewShape([4, 4, 3, 2], [2, 1])) == 3060
    assert jacobi_trudi_count(SkewShape([2, 2], [1])) == 2
    assert jacobi_trudi_count(SkewShape([1], [1])) == 1
    for m in range(1, 9):
        for parts in partitions_of(m):
            lam = Partition(parts)
            assert jacobi_trudi_count(SkewShape(lam)) == hlf_count(lam)


def test_brute_force():
    assert brute_force_count(SkewShape([4, 4, 3, 2], [2, 1])) == 3060
    assert brute_force_count(SkewShape([1])) == 1
    assert brute_force_count(SkewShape([])) == 1
    assert brute_force_count(zigzag(2)) == 16
    with pytest.raises(CapExceeded):
        brute_force_count(SkewShape([5] * 5))  # 25 cells


def test_brute_force_state_limit(monkeypatch):
    # k isolated cells reach C(k, k/2) order ideals of size k/2
    monkeypatch.setattr(exact, "BRUTE_STATE_LIMIT", 100)
    assert brute_force_count(thick_ribbon(8, 1)) == factorial(8)  # 70 states
    with pytest.raises(CapExceeded, match="at most 100 order ideals"):
        brute_force_count(thick_ribbon(9, 1))  # 126 states


def test_oracle_agreement_small():
    # every skew shape with |outer| <= 9: 664 of the 1,495 are disconnected
    # and 634 are taller than wide, so take the conjugate-side determinant
    checked = 0
    for shape in skew_shapes(9, connected_only=False):
        assert jacobi_trudi_count(shape) == brute_force_count(shape), shape
        checked += 1
    assert checked == 1495


def test_jacobi_trudi_tall_shapes(monkeypatch):
    # taller than wide, so the determinant is taken on the conjugate side;
    # the 30-cell ribbon needs the brute-force cap raised
    monkeypatch.setattr(exact, "DEFAULT_BRUTE_CAP", 30)
    for k, m in ((3, 4), (4, 5), (3, 8), (5, 6)):
        shape = column_ribbon(k, m)
        assert shape.outer.part(1) < len(shape.outer)
        assert jacobi_trudi_count(shape) == brute_force_count(shape)
    assert jacobi_trudi_count(column_ribbon(8, 2)) == euler_number(16)
    rect = Partition([12] * 40)
    assert jacobi_trudi_count(SkewShape(rect)) == hlf_count(rect)
    for shape in (
        SkewShape([12] * 40, [6] * 20),
        SkewShape([12] * 40, [11, 9, 9, 5, 2, 2, 1]),
        SkewShape([3] * 30 + [2] * 10, [2] * 25 + [1] * 3),
        column_ribbon(6, 7),
    ):
        e = jacobi_trudi_count(shape)
        assert e > 0
        assert e == jacobi_trudi_count(shape.conjugate())
        assert e == jacobi_trudi_count(shape.rotate180())


def test_soundness_checks_raise(monkeypatch):
    # explicit errors, not asserts, so the checks also hold under python -O
    real = exact._bareiss_det
    monkeypatch.setattr(exact, "_bareiss_det", lambda mat: -real(mat))
    with pytest.raises(ArithmeticError, match="negative"):
        jacobi_trudi_count(SkewShape([4, 4, 3, 2], [2, 1]))


def test_euler_numbers(monkeypatch):
    assert [euler_number(n) for n in range(8)] == [1, 1, 1, 2, 5, 16, 61, 272]
    assert euler_number(5) == brute_force_count(zigzag(2))
    assert euler_number(7) == brute_force_count(zigzag(3))
    with pytest.raises(ValueError, match="n must be >= 0"):
        euler_number(-1)
    with pytest.raises(CapExceeded, match="n <= 1000, got 1001"):
        euler_number(1001)
    monkeypatch.setattr(exact, "EULER_CAP", 10)
    assert euler_number(10) == 50521
    with pytest.raises(CapExceeded):
        euler_number(50)


def test_catalan():
    assert [catalan(m) for m in range(6)] == [1, 1, 2, 5, 14, 42]
    with pytest.raises(ValueError, match="m must be >= 0"):
        catalan(-1)


def test_lr_examples():
    assert lr_coefficient([2, 1], [1], [1, 1]) == 1
    assert lr_coefficient([3, 2, 1], [], [3, 2, 1]) == 1
    for parts in partitions_of(5):
        assert lr_coefficient(parts, (), parts) == 1
    assert lr_coefficient([2, 2], [1], [3]) == 0  # column condition unsatisfiable
    with pytest.raises(ValueError):
        lr_coefficient([2, 1], [1], [1])


def test_lr_consistency_identity():
    # sum over nu of c^lam_{mu nu} * f^nu equals the skew count
    for m in range(1, 7):
        for parts in partitions_of(m):
            lam = Partition(parts)
            for mu in subpartitions(lam):
                n = lam.size - mu.size
                if n == 0:
                    continue
                total = sum(
                    lr_coefficient(lam, mu, Partition(np)) * hlf_count(Partition(np))
                    for np in partitions_of(n)
                )
                assert total == jacobi_trudi_count(SkewShape(lam, mu))


def test_schur_principal():
    assert schur_principal(Partition([2, 1]), 3) == 8
    assert schur_principal(Partition([1]), 7) == 7
    assert schur_principal(Partition([2, 1]), 1) == 0
    assert schur_principal(Partition([2, 1, 1]), 2) == 0


def test_dual_hook_products():
    assert dual_hook_products(Partition([2, 1])) == (3, 4)
    assert dual_hook_products(Partition([1])) == (1, 1)
    h, hs = dual_hook_products(Partition([3, 3]))
    assert h == hs
    for m in range(1, 13):
        for parts in partitions_of(m):
            nu = Partition(parts)
            h, hs = dual_hook_products(nu)
            assert h <= hs
            assert (h == hs) == (len(set(nu.parts)) == 1)


def test_hook_length_sum_identity():
    # both hook sums equal n + sum C(nu_i, 2) + sum C(nu'_j, 2)
    for m in range(1, 13):
        for parts in partitions_of(m):
            nu = Partition(parts)
            expect = (
                m
                + sum(comb(p, 2) for p in nu.parts)
                + sum(comb(q, 2) for q in nu.conjugate().parts)
            )
            assert sum(nu.hooks().values()) == expect
            assert sum(i + j - 1 for i, j in nu.cells()) == expect


def test_rv_hook_identity():
    assert rv_hook_identity_check(Partition(), 2, 3)
    assert rv_hook_identity_check(Partition([2, 2]), 2, 2)  # sigma = tau
    assert rv_hook_identity_check(Partition([1]), 2, 2)
    assert rv_hook_identity_check(Partition([3, 1]), 2, 3)
