"""Exact counting of standard Young tableaux and friends.

Everything here is integer or Fraction arithmetic; no floats.  Counts are
plain Python ints (arbitrary precision), ratios are fractions.Fraction in
lowest terms.  All functions are pure and the module keeps no state.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, factorial, perm, prod

from .errors import CapExceeded
from .shapes import Partition, SkewShape, regev_vershik_shape

DEFAULT_BRUTE_CAP = 24  # cells of brute_force_count; lr_coefficient's default cap
BRUTE_STATE_LIMIT = 200_000  # order ideals of one size; C(20, 10) = 184,756 fit
EULER_CAP = 1000


def _exact_quotient(num: int, den: int, what: str) -> int:
    """num // den, raising ArithmeticError (not an assert, so it survives
    ``python -O``) when the division leaves a remainder."""
    quotient, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"{what} is not an integer")
    return quotient


# -- factorial families -------------------------------------------------------


def odd_double_factorial(n: int) -> int:
    """1 * 3 * 5 * ... * (2n - 1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return factorial(2 * n) // (2**n * factorial(n))


def superfactorial(n: int) -> int:
    """1! * 2! * ... * n!"""
    if n < 0:
        raise ValueError("n must be >= 0")
    return prod(factorial(m) for m in range(1, n + 1))


def double_superfactorial(n: int) -> int:
    """1! * 3! * 5! * ... * (2n - 1)!"""
    if n < 0:
        raise ValueError("n must be >= 0")
    return prod(factorial(2 * m - 1) for m in range(1, n + 1))


def super_doublefactorial(n: int) -> int:
    """1!! * 3!! * 5!! * ... * (2n - 1)!!"""
    if n < 0:
        raise ValueError("n must be >= 0")
    return prod(odd_double_factorial(m) for m in range(1, n + 1))


FACTORIAL_KINDS = {
    "factorial": factorial,
    "odd-double-factorial": odd_double_factorial,
    "superfactorial": superfactorial,
    "double-superfactorial": double_superfactorial,
    "super-doublefactorial": super_doublefactorial,
}


def factorials(kind: str, n: int) -> int:
    """Dispatch into the factorial family by name."""
    try:
        fn = FACTORIAL_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown factorial kind '{kind}'") from None
    return fn(n)


# -- hook-length counts --------------------------------------------------------


def hlf_count(lam: Partition) -> int:
    """Number of standard tableaux of a straight shape, by the hook-length formula."""
    return _exact_quotient(factorial(lam.size), lam.hook_product(), "hook-length count")


def naive_hlf(shape: SkewShape) -> Fraction:
    """n! over the product of outer-shape hooks of the skew cells (not always integral)."""
    return Fraction(factorial(shape.size), shape.hook_product())


# -- Jacobi-Trudi determinant ---------------------------------------------------


def _bareiss_det(mat: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss elimination).

    All intermediate divisions are exact, so the arithmetic stays in the
    integers and avoids rational blow-up.

    After step k the elimination holds in entry (i, j) the minor on the
    pivot rows and columns 0..k bordered by row i and column j.  If column
    j is 0 in every pivot row so far, or row i is 0 in every pivot column
    so far, Sylvester's identity makes that minor the original entry times
    the last pivot.  Such a line is asleep: no step updates it.  It wakes
    at the first step whose pivot row (for a column) or pivot column (for
    a row) is nonzero in it, and its entries are then multiplied by the
    last pivot once, each entry when the second of its two lines wakes.

    Invariant: entry (i, j) holds the true minor when row i and column j
    are both awake and its original value otherwise, so a stored entry is
    zero exactly when the true one is, and each step updates only awake
    rows and columns.  The pivots, row swaps and determinant are those of
    the eager elimination.  Dimensions up to 2 are expanded directly.
    """
    n = len(mat)
    if n < 2:
        return mat[0][0] if n else 1
    if n == 2:
        (w, x), (y, z) = mat
        return w * z - x * y
    a = [row[:] for row in mat]
    row_awake = [False] * n
    col_awake = [False] * n
    sign = 1
    prev = 1
    last = n - 1
    for k in range(last):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    row_awake[k], row_awake[r] = row_awake[r], row_awake[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = a[k]
        if False not in col_awake:
            cols = range(k + 1, n)
        else:
            # every column before k woke at its own pivot, at the latest
            woken = [j for j in range(k, n) if not col_awake[j] and row_k[j]]
            for j in woken:
                col_awake[j] = True
            if woken and prev != 1:
                for i in range(k, n):
                    if row_awake[i]:
                        row_i = a[i]
                        for j in woken:
                            row_i[j] *= prev
            cols = [j for j in range(k + 1, n) if col_awake[j]]
        if not row_awake[k]:
            row_awake[k] = True
            if prev != 1:
                row_k[k] *= prev
                for j in cols:
                    row_k[j] *= prev
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            if not row_awake[i]:
                if not row_i[k]:
                    continue
                row_awake[i] = True
                if prev != 1:
                    row_i[k] *= prev
                    for j in cols:
                        row_i[j] *= prev
            aik = row_i[k]
            for j in cols:
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
        prev = pivot
    det = a[last][last]
    if not (row_awake[last] and col_awake[last]):
        det *= prev
    return sign * det


def jacobi_trudi_count(shape: SkewShape) -> int:
    """Number of standard tableaux of a skew shape via the Jacobi-Trudi determinant.

    With a_i = outer_i - i + l and b_j = inner_j - j + l, the factorial
    determinant n! det[1/(a_i - b_j)!] equals

        n! * det[C(a_i, b_j)] / prod_i (a_i! / b_i!),

    so the matrix holds plain binomials (C(a, b) = 0 for b > a) and Bareiss
    elimination works on small integers.  Row i's quotient a_i! / b_i! is
    the falling factorial perm(a_i, a_i - b_i), of length outer_i - inner_i
    >= 0.  Since e(outer/inner) equals the count of the conjugate shape, the
    determinant is taken on whichever side has fewer rows: the matrix
    dimension is min(l(outer), outer_1).

    a and b are listed in increasing order (i, j = l, ..., 1), which turns
    the matrix by 180 degrees and leaves its determinant unchanged.  Bareiss
    elimination then starts from the small corner C(a_l, b_l), so its
    leading minors, which it carries as entries, grow gradually instead of
    being large from the first step.
    """
    if shape.outer.part(1) < len(shape.outer):
        shape = shape.conjugate()
    lam, mu = shape.outer, shape.inner
    ell = len(lam)
    if ell == 0:
        return 1
    a = [lam.part(i) - i + ell for i in range(ell, 0, -1)]
    b = [mu.part(j) - j + ell for j in range(ell, 0, -1)]
    det = _bareiss_det([[comb(ai, bj) for bj in b] for ai in a])
    denom = prod(perm(ai, ai - bi) for ai, bi in zip(a, b))
    count = _exact_quotient(factorial(shape.size) * det, denom, "determinant count")
    if count < 0:
        raise ArithmeticError("determinant count is negative")
    return count


# -- brute force: linear extensions of the cell poset ---------------------------


def brute_force_count(shape: SkewShape) -> int:
    """Count standard fillings by dynamic programming over order ideals.

    A state records how many cells of each row are filled; it is a valid
    ideal iff the filled prefix of row i never extends past the filled
    prefix of row i-1 (cells increase downward and to the right).

    Two caps: n <= DEFAULT_BRUTE_CAP cells, checked first, and at most
    BRUTE_STATE_LIMIT ideals of one size, checked as each new one is found,
    before it is stored.  Every shape of at most 20 cells fits the second; 24 isolated
    cells would need C(24, 12) = 2,704,156 states.
    """
    n = shape.size
    if n > DEFAULT_BRUTE_CAP:
        raise CapExceeded(f"brute-force count needs n <= {DEFAULT_BRUTE_CAP}, got {n}")
    bounds = shape.row_bounds()
    rows = len(bounds)
    if rows == 0:
        return 1
    widths = [hi - lo for lo, hi in bounds]
    starts = [lo for lo, _ in bounds]
    counts = {tuple([0] * rows): 1}
    for size in range(1, n + 1):
        nxt: dict[tuple, int] = {}
        for state, ways in counts.items():
            for r in range(rows):
                c = state[r]
                if c >= widths[r]:
                    continue
                if r > 0 and starts[r] + c + 1 > starts[r - 1] + state[r - 1]:
                    continue
                new = state[:r] + (c + 1,) + state[r + 1 :]
                total = nxt.get(new)
                if total is not None:
                    nxt[new] = total + ways
                elif len(nxt) < BRUTE_STATE_LIMIT:
                    nxt[new] = ways
                else:
                    raise CapExceeded(
                        f"brute-force count needs at most {BRUTE_STATE_LIMIT} order ideals "
                        f"of one size; more have {size} cells"
                    )
        counts = nxt
    if len(counts) != 1:
        raise ArithmeticError(f"order-ideal DP ended in {len(counts)} states, not 1")
    return next(iter(counts.values()))


# -- classical sequences ---------------------------------------------------------


def euler_number(n: int) -> int:
    """Number of alternating permutations of n, by the boustrophedon recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > EULER_CAP:
        raise CapExceeded(f"euler number needs n <= {EULER_CAP}, got {n}")
    row = [1]
    for m in range(1, n + 1):
        prev = row
        row = [0]
        for k in range(1, m + 1):
            row.append(row[k - 1] + prev[m - k])
    return row[-1]


def catalan(m: int) -> int:
    if m < 0:
        raise ValueError("m must be >= 0")
    return comb(2 * m, m) // (m + 1)


# -- Littlewood-Richardson coefficients by brute force ----------------------------


def lr_coefficient(lam, mu, nu, cap: int = DEFAULT_BRUTE_CAP) -> int:
    """Multiplicity c^lam_{mu,nu}: skew semistandard fillings of lam/mu with
    content nu whose reverse reading word is a lattice word."""
    lam = Partition(lam)
    mu = Partition(mu)
    nu = Partition(nu)
    if lam.size != mu.size + nu.size:
        raise ValueError("sizes must satisfy |lam| = |mu| + |nu|")
    if lam.size > cap:
        raise CapExceeded(f"LR enumeration needs |lam| <= {cap}, got {lam.size}")
    if not lam.contains(mu):
        return 0
    shape = SkewShape(lam, mu)
    # cells in reverse reading order: rows top to bottom, right to left
    order = []
    for i, (lo, hi) in enumerate(shape.row_bounds(), start=1):
        order.extend((i, j) for j in range(hi, lo, -1))
    nparts = len(nu)
    quota = [nu.part(v) for v in range(1, nparts + 1)]
    filling: dict[tuple[int, int], int] = {}
    seen = [0] * (nparts + 1)

    def entries(i: int, j: int):
        """The values the filled neighbours allow at (i, j): at most the
        entry to its right, more than the entry above."""
        return iter(range(filling.get((i - 1, j), 0) + 1, filling.get((i, j + 1), nparts) + 1))

    if not order:
        return 1
    # depth first with an explicit stack, whose entry d yields the values
    # still to try at order[d], so no Python recursion follows |lam/mu|
    total = 0
    stack = [entries(*order[0])]
    while stack:
        cell = order[len(stack) - 1]
        v = filling.pop(cell, 0)
        if v:
            seen[v] -= 1
        for v in stack[-1]:
            # the content quota and the lattice word condition
            if seen[v] < quota[v - 1] and (v == 1 or seen[v] < seen[v - 1]):
                break
        else:
            stack.pop()
            continue
        if len(stack) == len(order):
            total += 1
            continue
        seen[v] += 1
        filling[cell] = v
        stack.append(entries(*order[len(stack)]))
    return total


# -- principal specialization and hook identities ----------------------------------


def schur_principal(mu, ell: int) -> int:
    """Schur polynomial of mu at ell ones: semistandard fillings with entries <= ell."""
    mu = Partition(mu)
    if ell < len(mu):
        return 0
    num = prod(ell + j - i for i, j in mu.cells())
    return _exact_quotient(num, mu.hook_product(), "principal specialization")


def dual_hook_products(nu) -> tuple[int, int]:
    """Product of hooks and product of the complementary lengths i + j - 1."""
    nu = Partition(nu)
    return nu.hook_product(), prod(i + j - 1 for i, j in nu.cells())


def rv_hook_identity_check(sigma, rows: int, cols: int) -> bool:
    """True iff the rectangle-with-attached-copies shape has the same hook
    multiset as sigma and the rectangle taken together."""
    sigma = Partition(sigma)
    shape = regev_vershik_shape(sigma, rows, cols)
    expected = Counter(sigma.hooks().values())
    expected.update(Partition([cols] * rows).hooks().values())
    return shape.hook_multiset() == expected
