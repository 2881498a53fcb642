from fractions import Fraction
from math import factorial, prod

import pytest

from skewtab.bounds import (
    ChainDecomposition,
    antidiagonal_chains,
    binom_lemma_check,
    bounds_report,
    chain_upper,
    compare_check,
    hp_lower,
    main_sandwich,
    rank_factorial_lower,
    skew_lr_upper,
    upper_ideal_sizes,
)
from skewtab.exact import naive_hlf
from skewtab.excited import xi_determinant
from skewtab.shapes import SkewShape, square_shape, thick_ribbon, zigzag

GOLDEN = SkewShape([4, 4, 3, 2], [2, 1])


def test_rank_factorial_lower():
    assert rank_factorial_lower(GOLDEN) == 864
    assert rank_factorial_lower(SkewShape([1])) == 1
    assert rank_factorial_lower(SkewShape([2, 2])) == 2  # ranks (1, 2, 1)


def test_chain_decomposition():
    assert antidiagonal_chains(GOLDEN).sizes == (3, 3, 3, 1)
    for k in (2, 3, 4):
        sizes = antidiagonal_chains(square_shape(k)).sizes
        assert sorted(sizes, reverse=True) == list(range(2 * k - 1, 0, -2))
    assert antidiagonal_chains(SkewShape([1])).sizes == (1,)


def test_chain_upper():
    assert chain_upper(GOLDEN) == 16800
    row = SkewShape([4])
    one_chain = ChainDecomposition((tuple(row.cells()),))
    assert chain_upper(row, one_chain) == 1  # a row is one maximal chain
    singletons = ChainDecomposition(tuple((c,) for c in GOLDEN.cells()))
    assert chain_upper(GOLDEN, singletons) == factorial(10)


def test_chain_validation():
    cells = GOLDEN.cells()
    with pytest.raises(ValueError, match="cover"):
        chain_upper(GOLDEN, ChainDecomposition((((1, 3), (1, 4)),)))
    bad = ChainDecomposition((((1, 3), (1, 4)), ((1, 3),)))
    with pytest.raises(ValueError, match="overlap"):
        chain_upper(GOLDEN, bad)
    # as many cells as the shape, one of them outside it: inside the inner
    # shape, in a row past the last, or past the end of its row
    for outside in ((1, 1), (5, 1), (2, 5), (0, 3)):
        stray = ChainDecomposition(((outside,),) + tuple((c,) for c in cells[1:]))
        with pytest.raises(ValueError, match="cover"):
            chain_upper(GOLDEN, stray)
    incomparable = ChainDecomposition((tuple(sorted(cells)),))
    with pytest.raises(ValueError, match="incomparable"):
        chain_upper(GOLDEN, incomparable)


def test_upper_ideals_and_hp():
    sizes = upper_ideal_sizes(GOLDEN)
    prod = 1
    for v in sizes.values():
        prod *= v
    assert prod == 2**2 * 3**2 * 5**2 * 6
    assert hp_lower(GOLDEN) == 672
    assert hp_lower(SkewShape([1])) == 1


def test_hp_equals_naive_on_ribbon_hooks(small_connected_shapes):
    assert hp_lower(zigzag(2)) == naive_hlf(zigzag(2)) == Fraction(40, 3)
    # the single-orientation value n! / prod(upper-ideal sizes) coincides
    # with F on ribbon hooks; taking the better of the two orientations can
    # only improve on it
    for shape in small_connected_shapes:
        if shape.is_ribbon_hook():
            single = Fraction(factorial(shape.size), prod(upper_ideal_sizes(shape).values()))
            assert single == naive_hlf(shape)
            assert hp_lower(shape) >= naive_hlf(shape)


def test_skew_lr_upper():
    assert skew_lr_upper(GOLDEN) == 241920
    assert skew_lr_upper(SkewShape([2, 2], [1])) == 12
    from math import factorial

    from skewtab.exact import hlf_count
    from skewtab.shapes import Partition

    lam = Partition([3, 2, 1])
    # with empty inner the bound is n!/f = the hook product of the outer shape
    assert skew_lr_upper(SkewShape(lam)) == factorial(6) // hlf_count(lam) == 45
    assert skew_lr_upper(SkewShape(lam, lam)) == 1  # tight on empty skew shapes


def test_main_sandwich():
    assert main_sandwich(GOLDEN) == (1260, 6300)
    assert main_sandwich(SkewShape([2, 2], [1])) == (Fraction(3, 2), 3)
    from skewtab.exact import hlf_count
    from skewtab.shapes import Partition

    lam = Partition([4, 2])
    f = hlf_count(lam)
    assert main_sandwich(SkewShape(lam)) == (f, f)


def test_compare_check():
    assert compare_check(zigzag(2)) is True
    assert compare_check(SkewShape([5])) is True
    assert compare_check(thick_ribbon(4)) is True
    # the monotone-rank hypothesis fails in both orientations here
    assert compare_check(SkewShape([3, 3, 2], [1])) is None
    # reversed ranks are monotone but the inequality genuinely fails:
    # the theorem does not extend beyond its stated orientation
    assert compare_check(SkewShape([2, 2], [1])) is False


def test_compare_check_canonical_orientation_sound(small_connected_shapes):
    # with ranks weakly increasing in the reading orientation, the rank
    # factorial never exceeds the naive hook-length value
    for shape in small_connected_shapes:
        ranks = shape.antidiagonal_ranks()
        if all(a <= b for a, b in zip(ranks, ranks[1:])):
            assert rank_factorial_lower(shape) <= naive_hlf(shape)


def test_binom_lemma():
    assert binom_lemma_check(3, 3) is True  # 20 >= 512/27
    assert binom_lemma_check(2, 3) is None
    assert binom_lemma_check(5, 2) is None
    # the displayed inequality is false for small r once t grows:
    # C(7,3) = 35 < (10/3)^3 and C(13,3) = 286 < (22/3)^3
    assert binom_lemma_check(4, 3) is False
    assert binom_lemma_check(10, 3) is False
    # it does hold on the whole swept domain once r >= 6
    for r in range(6, 61):
        for t in range(r, 61):
            assert binom_lemma_check(t, r) is True
    # exceptional small-t windows where it still holds for r in {3, 4, 5}
    assert {t for t in range(4, 61) if binom_lemma_check(t, 4)} == {4, 5, 6, 7}
    assert {t for t in range(5, 61) if binom_lemma_check(t, 5)} == set(range(5, 21))


def test_bounds_report_golden():
    report = bounds_report(GOLDEN)
    assert report.exact == 3060
    assert report.xi == 5
    assert report.lower == {"rank-factorial": 864, "hp": 672, "naive-hlf": 1260}
    assert report.upper == {"chain": 16800, "xi-times-F": 6300, "skew-lr": 241920}
    assert report.all_verdicts_hold
    assert set(report.log_gaps) == set(report.verdicts)
    assert all(g >= 0 for g in report.log_gaps.values())


def test_bounds_report_families():
    for shape in (SkewShape([3, 2]), thick_ribbon(3), zigzag(3), square_shape(3), thick_ribbon(8)):
        report = bounds_report(shape)
        assert report.all_verdicts_hold
        # the report and main_sandwich each take F and xi from the same kernels
        assert report.xi == xi_determinant(shape)
        assert (report.lower["naive-hlf"], report.upper["xi-times-F"]) == main_sandwich(shape)
