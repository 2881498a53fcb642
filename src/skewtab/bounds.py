"""Lower and upper bounds on the number of standard tableaux of a skew shape,
assembled into a verdict report.

All comparisons are exact (integers and fractions); the only floats are the
log-scale gap diagnostics attached to the report, taken with
``asymptotics.log_fraction``.  The sandwich factors F and xi come straight
from ``exact.naive_hlf`` and ``excited.xi_determinant``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, prod

from .asymptotics import log_fraction
from .exact import _exact_quotient, jacobi_trudi_count, naive_hlf
from .excited import xi_determinant
from .shapes import SkewShape


def antidiagonal_chains(shape: SkewShape) -> "ChainDecomposition":
    """Chain partition pairing each even diagonal j - i with the odd one above.

    Within such a pair the cells in reading order are always pairwise
    comparable, so every nonempty pair contributes one chain.  The partition
    is valid for every skew shape; it is not claimed optimal.
    """
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, j in shape.cells():  # reading order, so every group comes out sorted
        groups.setdefault((j - i) // 2, []).append((i, j))
    chains = sorted(map(tuple, groups.values()), key=lambda c: (-len(c), c[0]))
    return ChainDecomposition(tuple(chains))


@dataclass(frozen=True)
class ChainDecomposition:
    chains: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.chains)


def rank_factorial_lower(shape: SkewShape) -> int:
    """Product of factorials of the antidiagonal rank sizes."""
    prod = 1
    for r in shape.antidiagonal_ranks():
        prod *= factorial(r)
    return prod


def chain_upper(shape: SkewShape, decomposition: ChainDecomposition | None = None) -> int:
    """Multinomial bound n!/(l_1! ... l_m!) for a chain partition."""
    if decomposition is None:
        decomposition = antidiagonal_chains(shape)
    _validate_chains(shape, decomposition)
    denom = prod(factorial(size) for size in decomposition.sizes)
    return _exact_quotient(factorial(shape.size), denom, "chain multinomial")


def _validate_chains(shape: SkewShape, decomposition: ChainDecomposition) -> None:
    seen: set[tuple[int, int]] = set()
    for chain in decomposition.chains:
        cells = sorted(chain)
        for (i, j), (k, m) in zip(cells, cells[1:]):
            if not (i <= k and j <= m):
                raise ValueError(f"cells {(i, j)} and {(k, m)} are incomparable within a chain")
        if not seen.isdisjoint(cells):
            raise ValueError("chains overlap")
        seen.update(cells)
    # as many distinct cells as the shape has, each inside a row's interval
    rows = shape.row_bounds()
    if len(seen) != shape.size or not all(
        0 < i <= len(rows) and rows[i - 1][0] < j <= rows[i - 1][1] for i, j in seen
    ):
        raise ValueError("chains do not cover the shape")


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
    on its 180-degree rotation and the larger value is returned.  The sizes
    are multiplied in row by row as `_suffix_sums` produces them.
    """
    n = factorial(shape.size)
    return max(Fraction(n, prod(map(prod, _suffix_sums(s)))) for s in (shape, shape.rotate180()))


def skew_lr_upper(shape: SkewShape) -> Fraction:
    """Hook-product ratio outer/inner; equals |outer|! f^inner / (|inner|! f^outer)."""
    return Fraction(shape.outer.hook_product(), shape.inner.hook_product())


def main_sandwich(shape: SkewShape) -> tuple[Fraction, Fraction]:
    """(F, xi * F): the naive hook-length value and its excited-count multiple."""
    F = naive_hlf(shape)
    return F, xi_determinant(shape) * F


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


@dataclass
class BoundsReport:
    shape: SkewShape
    exact: int
    xi: int
    lower: dict = field(default_factory=dict)
    upper: dict = field(default_factory=dict)
    chains: ChainDecomposition | None = None
    verdicts: dict = field(default_factory=dict)
    log_gaps: dict = field(default_factory=dict)

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
    xi = xi_determinant(shape)
    xi_F = xi * F
    chains = antidiagonal_chains(shape)
    report = BoundsReport(shape=shape, exact=exact, xi=xi, chains=chains)
    report.lower = {
        "rank-factorial": rank_factorial_lower(shape),
        "hp": hp_lower(shape),
        "naive-hlf": F,
    }
    report.upper = {
        "chain": chain_upper(shape, chains),
        "xi-times-F": xi_F,
        "skew-lr": skew_lr_upper(shape),
    }
    for name, bound in report.lower.items():
        report.verdicts[name] = bound <= exact
    for name, bound in report.upper.items():
        report.verdicts[name] = exact <= bound
    if exact > 0:
        for name, bound in report.lower.items():
            if bound > 0:
                report.log_gaps[name] = log_fraction(Fraction(exact) / bound)
        for name, bound in report.upper.items():
            report.log_gaps[name] = log_fraction(Fraction(bound) / exact)
    return report
