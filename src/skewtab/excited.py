"""Excited diagrams: enumeration, their count by the flag determinant and by
non-intersecting paths, the hook-sum count, the lattice-path decomposition,
and the closed product forms.

An excited diagram of outer/inner is any cell set reachable from the inner
diagram by moves (i, j) -> (i+1, j+1), allowed when the three cells to the
right, below, and diagonally below-right are all free cells of the outer
shape.  Diagrams are represented as tuples of cells sorted in reading
order; enumeration output is deterministic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isqrt, lcm, prod

from .errors import CapExceeded
from .exact import (
    _bareiss_det,
    _exact_quotient,
    odd_double_factorial,
    schur_principal,
    superfactorial,
)
from .shapes import Partition, SkewShape, _hook_rows

DEFAULT_CELL_CAP = 10**8

Diagram = tuple[tuple[int, int], ...]


def enumerate_excited(shape: SkewShape, cap: int = DEFAULT_CELL_CAP) -> list[Diagram]:
    """All excited diagrams, breadth-first from the inner shape.

    The same diagram is reachable along many move orders, so states are
    deduplicated by their sorted cell set.  The first element is always the
    inner diagram itself.  The search stores xi * |inner| cells, xi the
    number of diagrams by the flag determinant; that product is checked
    against cap before the search starts, and the number of diagrams found
    against xi after it ends.
    """
    xi = xi_determinant(shape)
    if xi * shape.inner.size > cap:
        raise CapExceeded(
            f"excited enumeration needs xi * |inner| <= {cap} cells, got {xi} * {shape.inner.size}"
        )
    lam = shape.outer
    start = tuple(sorted(shape.inner.cells()))
    seen = {start}
    order = [start]
    for diagram in order:  # breadth-first: the loop reaches what it appends
        occupied = set(diagram)
        for i, j in diagram:
            moved = _excited_move(lam, occupied, i, j)
            if moved is not None and moved not in seen:
                seen.add(moved)
                order.append(moved)
    if len(order) != xi:
        raise ArithmeticError(
            f"excited enumeration found {len(order)} diagrams, the flag determinant {xi}"
        )
    return order


def _excited_move(lam, occupied, i, j):
    for nb in ((i + 1, j), (i, j + 1), (i + 1, j + 1)):
        if nb not in lam or nb in occupied:
            return None
    new = set(occupied)
    new.remove((i, j))
    new.add((i + 1, j + 1))
    return tuple(sorted(new))


def is_excited_diagram(shape: SkewShape, diagram) -> bool:
    """Check the diagonal-count and order-relation characterization: the
    diagram holds as many cells as the inner shape on every diagonal, and
    matching each inner cell to the diagram cell of the same rank down its
    diagonal keeps the inner shape's order between neighbours."""
    lam, mu = shape.outer, shape.inner
    cells = [(i, j) for i, j in diagram]
    if len(cells) != mu.size or any(c not in lam for c in cells):
        return False
    by_diag, inner = _by_content(cells), _by_content(mu.cells())
    if any(len(by_diag.get(d, ())) != len(group) for d, group in inner.items()):
        return False
    image = {c: t for d, group in inner.items() for c, t in zip(group, by_diag[d])}
    return all(
        a <= b
        for i, j in image
        for nb in ((i, j + 1), (i + 1, j))
        if nb in mu
        for a, b in zip(image[i, j], image[nb])
    )


def _by_content(cells) -> dict[int, list[tuple[int, int]]]:
    """Cells grouped by content j - i, each group top down."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, j in sorted(cells):
        groups.setdefault(j - i, []).append((i, j))
    return groups


def row_flags(shape: SkewShape) -> list[int]:
    """Flag of row i: the last row at which the diagonal through the end of
    inner row i is still inside the outer shape.

    Cell (r, mu_i + r - i) lies in the outer shape iff r - lam_r <= i - mu_i,
    and r - lam_r increases strictly with r, so the flag is a count.
    """
    keys = [r - p for r, p in enumerate(shape.outer.parts, start=1)]
    return [bisect_right(keys, i - m) for i, m in enumerate(shape.inner.parts, start=1)]


def xi_determinant(shape: SkewShape) -> int:
    """Number of excited diagrams, by the binomial determinant over flags."""
    mu = shape.inner
    ell = len(mu)
    if ell == 0:
        return 1
    mat = [
        [comb(f + m - i + j - 1, f - 1) for j in range(1, ell + 1)]
        for i, (f, m) in enumerate(zip(row_flags(shape), mu.parts), start=1)
    ]
    return _bareiss_det(mat)


# -- the hook-sum count -------------------------------------------------------


def nhlf_count(shape: SkewShape) -> int:
    """Count standard tableaux as n! times the sum over excited diagrams D of
    prod_{u in outer, u not in D} 1/h(u); must agree with the determinant count.

    The sum is one Lindstrom-Gessel-Viennot determinant, on one of two
    lattices (Kreiman; Morales-Pak-Panova); nothing is enumerated.

    - Flag lattice: the excited diagrams are flagged tableaux of the inner
      shape, one path per inner row, weighted by the hooks of the diagram's
      cells.  The ell(inner) x ell(inner) determinant is the integer
      sum_D prod_{u in D} h(u), and e = n! times it over the outer hook
      product.
    - Strip lattice: the complements of the excited diagrams are path
      families joining each border strip's start to its end.  A cell u
      weighs C / h(u), C the lcm of the outer hooks, so the determinant,
      one row per strip, is C^n times the hook sum.

    The flag lattice is taken when ell(inner) <= 3 * (number of strips).
    Its entries stay small, while the strip lattice's carry C^n, but its
    dimension is the number of inner rows, so a long ribbon (one strip,
    many inner rows) takes the strip lattice.  The factor 3 was measured
    against the factors 1 to 8.  It came within 7% of the least total
    time on thick ribbons delta_{k+r}/delta_k (k <= 32, r <= 8) and on
    random skew shapes of up to 40, 60 and 80 cells, where the factor 2
    took up to 1.8x as long.  On the connected shapes with |outer| <= 11,
    where either lattice takes tens of microseconds, it took 13% less
    time than the strip lattice alone, the factor 4 only 3% less.
    """
    if len(shape.inner) <= 3 * _strip_count(shape):
        det, den = _flag_hook_sum(shape)
    else:
        det, den = _strip_hook_sum(shape)
    if det <= 0:
        raise ArithmeticError("hook-sum determinant is not positive")
    return _exact_quotient(factorial(shape.size) * det, den, "hook-sum count")


def _flag_hook_sum(shape: SkewShape) -> tuple[int, int]:
    """The hook sum as (det, den), det / den = sum_D prod_{u not in D} 1/h(u),
    from the flag lattice: det = sum_D prod_{u in D} h(u), den = H(outer).

    Entry t in inner cell (i, j) puts the excited cell at (t, t + j - i),
    and row i's entries are at most its flag.  Row i of the tableau is a
    path on lattice points (x = content, y = entry) from (-i, 1) to
    (inner_i - i, flag_i).  An east step into (x, y) is the cell
    (y, x + y), weighing its outer hook, or 0 outside the outer shape;
    north steps weigh 1.  The flags never decrease down the rows, so the
    non-intersecting families are the flagged tableaux (Wachs).
    """
    mu = shape.inner.parts
    rows = list(_hook_rows(shape.outer))  # rows[y - 1][j - 1] = h(y, j)
    den = prod(map(prod, rows))
    if not mu:
        return 1, den
    flags = row_flags(shape)
    top = flags[-1]
    sinks: dict[int, list[tuple[int, int]]] = {}
    for k, (m, f) in enumerate(zip(mu, flags)):
        sinks.setdefault(m - k - 1, []).append((k, f))
    # Column x of the lattice: the first entry y with a cell, and the hooks
    # of the cells (y, x + y) down that diagonal, for y up to the top flag.
    # The first entry, max(1, 1 - x), never grows with x, so the entries
    # below it stay 0 as the columns are updated in place.
    diagonals = {}
    for x in range(1 - len(mu), mu[0]):
        first = y = max(1, 1 - x)
        hooks = []
        while y <= top and x + y <= len(rows[y - 1]):
            hooks.append(rows[y - 1][x + y - 1])
            y += 1
        diagonals[x] = (first, hooks)
    mat = []
    for i in range(1, len(mu) + 1):
        # Weighted paths from the source (-i, 1) to (x, y), updated in
        # place column by column.  No east step leaves an entry below i,
        # so those start at 0; a sink in the source column has a flag
        # above i.
        sums = [0] * i + [1] * (top + 1 - i)
        row = [0] * len(mu)
        for x in range(-i, mu[0]):
            if x > -i:
                y, hooks = diagonals[x]
                acc = 0
                for h in hooks:
                    acc += sums[y] * h
                    sums[y] = acc
                    y += 1
                sums[y:] = [acc] * (top + 1 - y)
            for k, f in sinks.get(x, ()):
                row[k] = sums[f]
        mat.append(row)
    return _bareiss_det(mat), den


def _strip_hook_sum(shape: SkewShape) -> tuple[int, int]:
    """The hook sum as (det, den), from the strip lattice: den = C^n."""
    hooks = shape.outer.hooks()
    scale = lcm(*hooks.values())
    weight = {c: scale // h for c, h in hooks.items()}
    det = _path_determinant(shape.outer, border_strip_decomposition(shape), weight)
    return det, scale**shape.size


def xi_path_count(shape: SkewShape) -> int:
    """Number of excited diagrams, as the number of non-intersecting path
    families on the hook sum's strip lattice: its determinant with every
    cell weighing 1.

    Independent of the flag determinant `xi_determinant`.
    """
    strips = border_strip_decomposition(shape)
    return _path_determinant(shape.outer, strips, dict.fromkeys(shape.outer.cells(), 1))


def _path_determinant(lam: Partition, strips, weight) -> int:
    """Lindstrom-Gessel-Viennot: the weighted sum over non-intersecting
    up/right path families in lam joining each strip's start to its end."""
    ends = [strip[-1] for strip in strips]
    return _bareiss_det([_path_sums(lam, weight, strip[0], ends) for strip in strips])


def _path_sums(lam: Partition, weight, start: tuple[int, int], ends) -> list[int]:
    """Weighted number of up/right paths in lam from start to each end."""
    r0, c0 = start
    total = {(r0, c0 - 1): 1}  # a unit source entering the start from the left
    for i in range(r0, 0, -1):
        for j in range(c0, lam.part(i) + 1):
            total[i, j] = weight[i, j] * (total.get((i + 1, j), 0) + total.get((i, j - 1), 0))
    return [total.get(end, 0) for end in ends]


def top_excited_diagram(shape: SkewShape) -> Diagram:
    """The one excited diagram that admits no move.

    Excited diagrams are in bijection with flagged tableaux, a move raising
    one entry by one.  These tableaux form a lattice in which only the top
    element cannot be raised, so exactly one diagram admits no move and any
    run of moves from the inner diagram ends there.
    """
    lam = shape.outer
    diagram = tuple(sorted(shape.inner.cells()))
    while True:
        occupied = set(diagram)
        for i, j in diagram:
            moved = _excited_move(lam, occupied, i, j)
            if moved is not None:
                diagram = moved
                break
        else:
            return diagram


def min_max_term(shape: SkewShape) -> tuple[Fraction, Fraction]:
    """Smallest and largest reciprocal hook product over excited diagrams.

    A move (i, j) -> (i + 1, j + 1) frees the cell (i, j) and covers
    (i + 1, j + 1), whose outer hook is smaller by at least two, so every
    move shrinks the term.  The largest term is therefore the inner
    diagram's and the smallest the top diagram's: two diagrams, no
    enumeration.  The term of a diagram D is prod_{u in D} h(u) / H(outer),
    so both come from one table of outer hooks.
    """
    rows = list(_hook_rows(shape.outer))  # rows[i - 1][j - 1] = h(i, j)
    den = prod(map(prod, rows))
    top = prod(rows[i - 1][j - 1] for i, j in top_excited_diagram(shape))
    inner = prod(prod(row[:m]) for row, m in zip(rows, shape.inner.parts))
    return Fraction(top, den), Fraction(inner, den)


# -- lattice paths ------------------------------------------------------------


@dataclass(frozen=True)
class PathFamily:
    """Non-intersecting monotone paths whose union is the complement of an
    excited diagram inside the outer shape."""

    paths: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def support(self) -> frozenset:
        return frozenset(c for p in self.paths for c in p)

    def endpoints(self) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
        return tuple((p[0], p[-1]) for p in self.paths)


def _diagonals(shape: SkewShape) -> tuple[list[int], list[int]]:
    """The skew cells diagonal by diagonal, from row lengths: for each
    content c from 1 - rows up to outer_1, at index c + rows - 1, the number
    of rows starting on c and the rise in the number of skew cells from
    diagonal c - 1 to diagonal c.

    Row i holds the contents inner_i - i < c <= outer_i - i, and both bounds
    fall strictly down the rows, so diagonal c holds a run of rows: it
    starts at the first row whose inner bound is below c, which is row
    rows + 1 - (the number of rows starting on c or before), and holds as
    many cells as the running sum of the rises.  The rise at c is the number
    of rows starting on c less those ending just before it.
    """
    bounds = shape.row_bounds()
    rows = len(bounds)
    starts = [0] * (rows + shape.outer.part(1))
    rises = starts[:]
    for i, (lo, hi) in enumerate(bounds, start=1):
        starts[lo - i + rows] += 1  # index of content lo - i + 1
        rises[lo - i + rows] += 1
        rises[hi - i + rows] -= 1
    return starts, rises


def border_strip_decomposition(shape: SkewShape) -> list[tuple[tuple[int, int], ...]]:
    """The unique decomposition of the skew cells into border strips, each
    running from the bottom of a column to the end of a row, sorted by start.

    A cell's depth is its place down its diagonal.  Cells of one depth on
    neighbouring diagonals always touch, so the strip of depth d through a
    run of consecutive diagonals holding at least d cells each is the d-th
    cell of every diagonal in the run, in increasing content.
    """
    rows = len(shape.outer)
    top, count = rows + 1, 0  # diagonal c's first row and number of cells
    strips = []
    run: list[list[tuple[int, int]]] = []  # run[d - 1]: the open strip of depth d
    for c, (started, rise) in enumerate(zip(*_diagonals(shape)), start=1 - rows):
        top -= started
        count += rise
        del run[count:]
        while len(run) < count:
            run.append([])
            strips.append(run[-1])
        for i, strip in enumerate(run, start=top):
            strip.append((i, i + c))
    return sorted(map(tuple, strips))


def _strip_count(shape: SkewShape) -> int:
    """Number of strips in `border_strip_decomposition`: a strip starts on
    each diagonal for each cell it holds beyond the diagonal before it."""
    return sum(r for r in _diagonals(shape)[1] if r > 0)


def paths_from_diagram(shape: SkewShape, diagram) -> PathFamily:
    """Decompose the complement of an excited diagram into its path family.

    The complement holds as many cells as the skew shape on every diagonal
    (Morales-Pak-Panova).  Sending each skew cell to the free cell of the
    same rank down its diagonal carries every border strip of
    `border_strip_decomposition` to a path with the same start and end, and
    these paths are the unique non-intersecting family covering the
    complement.
    """
    if not is_excited_diagram(shape, diagram):
        raise ValueError("not an excited diagram of this shape")
    taken = {(i, j) for i, j in diagram}
    free = _by_content(c for c in shape.outer.cells() if c not in taken)
    image = {
        c: f for d, group in _by_content(shape.cells()).items() for c, f in zip(group, free[d])
    }
    strips = border_strip_decomposition(shape)
    return PathFamily(tuple(tuple(image[c] for c in strip) for strip in strips))


def xi_bounds(shape: SkewShape) -> tuple[int, int]:
    """(2^(n-k), n^(2 d^2)): the step-count and Durfee bounds on the number
    of excited diagrams; k is the number of border strips, d the Durfee side
    of the outer shape."""
    n = shape.size
    if n == 0:
        return 1, 1
    k = _strip_count(shape)
    d = shape.outer.durfee()
    return 2 ** (n - k), n ** (2 * d * d)


# -- closed product forms ------------------------------------------------------


def proctor_xi(k: int) -> int:
    """Excited-diagram count of the half staircase delta_{2k}/delta_k for even
    k: reverse plane partitions of staircase shape with bounded entries."""
    if k < 2 or k % 2:
        raise ValueError("the product form needs even k >= 2")
    num = 1
    den = 1
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            num *= k + i + j - 1
            den *= i + j - 1
    return _exact_quotient(num, den, "Proctor product")


def proctor_xi_superfactorial(k: int) -> int:
    """The same count as a square root of a superfactorial ratio."""
    if k < 2 or k % 2:
        raise ValueError("the superfactorial form needs even k >= 2")
    num = (
        superfactorial(3 * k - 1)
        * superfactorial(k - 1) ** 3
        * odd_double_factorial(k)
        * odd_double_factorial(k // 2)
    )
    den = superfactorial(2 * k - 1) ** 3 * odd_double_factorial(3 * k // 2)
    radicand = _exact_quotient(num, den, "Proctor superfactorial ratio")
    root = isqrt(radicand)
    if root * root != radicand:
        raise ArithmeticError("radicand is not a perfect square")
    return root


def macmahon_xi(k: int) -> int:
    """Excited-diagram count of the inverted thick hook (2k)^(2k)/k^k: plane
    partitions in a k-cube."""
    if k < 1:
        raise ValueError("k must be >= 1")
    num = 1
    den = 1
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            num *= k + i + j - 1
            den *= i + j - 1
    return _exact_quotient(num, den, "MacMahon product")


def macmahon_xi_superfactorial(k: int) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    num = superfactorial(k - 1) ** 3 * superfactorial(3 * k - 1)
    den = superfactorial(2 * k - 1) ** 3
    return _exact_quotient(num, den, "MacMahon superfactorial ratio")


# -- slim shapes ---------------------------------------------------------------


@dataclass(frozen=True)
class SlimReport:
    ell: int
    xi: int
    ratio: Fraction  # xi * prod(inner hooks) / ell^|inner|, tends to 1
    staircase_power_ok: bool | None  # xi == 2^C(ell,2) when inner is a staircase


def slim_xi_checks(shape: SkewShape) -> SlimReport:
    """Slim shapes: the excited count depends only on the inner shape and the
    number of outer rows, and equals the principal Schur value."""
    lam, mu = shape.outer, shape.inner
    ell = len(lam)
    if ell == 0 or lam.part(ell) < mu.part(1) + ell:
        raise ValueError("shape is not slim: need last outer part >= inner width + rows")
    xi = xi_determinant(shape)
    if xi != schur_principal(mu, ell):
        raise ArithmeticError("excited count differs from the principal Schur value")
    ratio = Fraction(xi * mu.hook_product(), ell**mu.size)
    staircase_ok = None
    if mu == Partition(range(ell - 1, 0, -1)):
        staircase_ok = xi == 2 ** comb(ell, 2)
    return SlimReport(ell=ell, xi=xi, ratio=ratio, staircase_power_ok=staircase_ok)
