"""Partitions, skew shapes, hooks, and generators for named shape families.

Cells are (row, col) pairs, 1-based, with rows increasing downward, so the
cell poset order is componentwise: (i, j) <= (i', j') iff i <= i' and
j <= j'.  All objects here are immutable values and every function is pure.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import accumulate, chain, zip_longest
from math import comb, prod
from operator import index
from typing import Iterator

from .errors import CapExceeded


class Partition:
    """Integer partition: a weakly decreasing tuple of positive parts.

    Trailing zeros are stripped on construction; the empty partition is
    ``Partition()``.  Indexing is 1-based via :meth:`part`, which returns 0
    beyond the last row (the usual zero padding).
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        if isinstance(parts, Partition):  # immutable and already validated
            self.parts = parts.parts
            return
        checked = []
        for i, p in enumerate(parts, start=1):
            try:
                p = index(p)  # exact: a float is not rounded, a string not read
            except TypeError:
                raise ValueError(f"part at index {i} is not an integer") from None
            if p < 0:
                raise ValueError(f"negative part at index {i}")
            if checked and checked[-1] < p:
                raise ValueError(f"parts not weakly decreasing at index {i}")
            checked.append(p)
        # the parts weakly decrease, so the zeros are the tail
        self.parts = tuple(checked[: len(checked) - checked.count(0)])

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """A partition from parts the library has built itself: a tuple of
        positive, weakly decreasing ints, taken without re-validation."""
        self = object.__new__(cls)
        self.parts = parts
        return self

    # -- basic structure ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, i: int) -> int:
        """1-based part access with zero padding past the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        """Column lengths: part j of the conjugate is #{i : parts[i] >= j}."""
        cols = []
        rows = len(self.parts)
        for j in range(1, self.part(1) + 1):
            while self.parts[rows - 1] < j:
                rows -= 1
            cols.append(rows)
        return Partition._trusted(tuple(cols))

    def contains(self, other: "Partition") -> bool:
        return all(self.part(i) >= other.part(i) for i in range(1, len(other) + 1))

    def cells(self) -> Iterator[tuple[int, int]]:
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield i, j

    def __contains__(self, cell) -> bool:
        i, j = cell
        return 1 <= i <= len(self.parts) and 1 <= j <= self.parts[i - 1]

    # -- hooks and statistics ----------------------------------------------

    def hook(self, i: int, j: int) -> int:
        """Hook length of cell (i, j): arm + leg + 1."""
        if (i, j) not in self:
            raise ValueError(f"cell ({i}, {j}) outside the diagram")
        leg = sum(1 for p in self.parts[i:] if p >= j)
        return self.part(i) - j + leg + 1

    def hooks(self) -> dict[tuple[int, int], int]:
        """Hook lengths of every cell, as a dict in reading order."""
        return {
            (i, j): h
            for i, row in enumerate(_hook_rows(self), start=1)
            for j, h in enumerate(row, start=1)
        }

    def hook_product(self) -> int:
        """Product of all hook lengths; n! over it counts the standard tableaux."""
        return prod(map(prod, _hook_rows(self)))

    def durfee(self) -> int:
        """Side of the largest square fitting in the diagram."""
        d = 0
        for i, p in enumerate(self.parts, start=1):
            if p >= i:
                d = i
        return d

    def frobenius(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Arm and leg lengths along the main diagonal."""
        d = self.durfee()
        conj = self.conjugate()
        arms = tuple(self.part(i) - i for i in range(1, d + 1))
        legs = tuple(conj.part(i) - i for i in range(1, d + 1))
        return arms, legs

    @classmethod
    def from_frobenius(cls, arms, legs) -> "Partition":
        """Rebuild a partition from strictly decreasing arm/leg lengths."""
        arms, legs = tuple(arms), tuple(legs)
        if len(arms) != len(legs):
            raise ValueError("arm and leg sequences must have equal length")
        for seq in (arms, legs):
            if any(seq[i] <= seq[i + 1] for i in range(len(seq) - 1)):
                raise ValueError("Frobenius coordinates must be strictly decreasing")
            if any(a < 0 for a in seq):
                raise ValueError("Frobenius coordinates must be nonnegative")
        d = len(arms)
        rows = tuple(a + i + 1 for i, a in enumerate(arms))
        # rows below the Durfee square are the conjugate of its columns
        cols = Partition._trusted(tuple(b + j + 1 for j, b in enumerate(legs)))
        return cls(rows + cols.conjugate().parts[d:])


def _hook_rows(lam: Partition, inner: tuple[int, ...] = ()) -> Iterator[list[int]]:
    """Per row i of lam, the hooks in lam of its cells inner_i < j <= lam_i.

    h(i, j) = (lam_i - i + 1) + (lam'_j - j) is a row term plus a column
    term, so the conjugate lam' is taken once and no cell is looked up.
    """
    cols = [c - j for j, c in enumerate(lam.conjugate().parts, start=1)]
    for i, (lo, p) in enumerate(zip_longest(inner, lam.parts, fillvalue=0), start=1):
        row = p - i + 1
        yield [row + c for c in cols[lo:p]]


class SkewShape:
    """A skew diagram outer/inner with inner contained in outer."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner=()):
        outer = Partition(outer)
        inner = Partition(inner)
        for i, (m, p) in enumerate(zip_longest(inner.parts, outer.parts, fillvalue=0), start=1):
            if m > p:
                raise ValueError(f"inner not contained in outer at row {i}")
        self.outer = outer
        self.inner = inner

    @classmethod
    def _trusted(cls, outer: Partition, inner: Partition) -> "SkewShape":
        """outer/inner for partitions known to satisfy inner <= outer, taken
        without re-validation."""
        self = object.__new__(cls)
        self.outer = outer
        self.inner = inner
        return self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewShape)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self) -> int:
        return hash((self.outer, self.inner))

    def __repr__(self) -> str:
        return f"SkewShape({list(self.outer.parts)!r}, {list(self.inner.parts)!r})"

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def row_bounds(self) -> list[tuple[int, int]]:
        """Per row i the half-open column interval (inner_i, outer_i]."""
        return list(zip_longest(self.inner.parts, self.outer.parts, fillvalue=0))

    def cells(self) -> list[tuple[int, int]]:
        out = []
        for i, (lo, hi) in enumerate(self.row_bounds(), start=1):
            out.extend((i, j) for j in range(lo + 1, hi + 1))
        return out

    def __contains__(self, cell) -> bool:
        i, j = cell
        return cell in self.outer and j > self.inner.part(i)

    # -- statistics ----------------------------------------------------------

    def hook_multiset(self) -> Counter:
        """Hooks of the skew cells, computed in the outer shape."""
        return Counter(chain.from_iterable(_hook_rows(self.outer, self.inner.parts)))

    def hook_product(self) -> int:
        return prod(map(prod, _hook_rows(self.outer, self.inner.parts)))

    def is_connected(self) -> bool:
        """Edge-connectivity of the cell set; the empty shape counts as connected.

        Rows i and i + 1 share a column iff inner_i < outer_{i+1}, which also
        fails when either row is empty, so the shape is connected iff that
        holds from its first nonempty row up to its last.
        """
        rows = self.row_bounds()
        nonempty = [i for i, (lo, hi) in enumerate(rows) if lo < hi]
        if not nonempty:
            return True
        return all(rows[i][0] < rows[i + 1][1] for i in range(nonempty[0], nonempty[-1]))

    def is_ribbon_hook(self) -> bool:
        """At most one cell on every diagonal j - i.

        A diagonal holds two cells iff some skew cell (i, j) has (i + 1, j + 1)
        below it, which happens iff outer_{i+1} - inner_i >= 2.
        """
        rows = self.row_bounds()
        return all(hi - lo <= 1 for (lo, _), (_, hi) in zip(rows, rows[1:]))

    def antidiagonal_ranks(self) -> tuple[int, ...]:
        """Cell counts per antidiagonal i + j, indexed from the first occupied one.

        Row i covers the antidiagonals i + inner_i + 1 ... i + outer_i, so
        one difference array over those intervals counts every antidiagonal,
        the empty ones between occupied ones included.
        """
        rows = enumerate(self.row_bounds(), start=1)
        spans = [(i + lo + 1, i + hi) for i, (lo, hi) in rows if lo < hi]
        if not spans:
            return ()
        first = min(a for a, _ in spans)
        diff = [0] * (max(b for _, b in spans) - first + 2)
        for a, b in spans:
            diff[a - first] += 1
            diff[b - first + 1] -= 1
        return tuple(accumulate(diff[:-1]))

    def width_depth(self) -> tuple[int, int]:
        """(min of first row/column of the outer shape, max skew hook)."""
        lam = self.outer
        width = min(lam.part(1), len(lam)) if len(lam) else 0
        hooks = self.hook_multiset()
        depth = max(hooks) if hooks else 0
        return width, depth

    def conjugate(self) -> "SkewShape":
        """The transposed diagram outer'/inner'."""
        return SkewShape._trusted(self.outer.conjugate(), self.inner.conjugate())

    def canonical(self) -> "SkewShape":
        """Drop empty border rows and shift left so the diagram touches column 1."""
        outer = self.outer.parts
        return _canonical(outer, [self.inner.part(i) for i in range(1, len(outer) + 1)])

    def rotate180(self) -> "SkewShape":
        """The dual shape: the diagram rotated 180 degrees, canonicalized."""
        lam, mu = self.outer, self.inner
        ell = len(lam)
        w = lam.part(1)
        new_outer = [w - mu.part(ell + 1 - i) for i in range(1, ell + 1)]
        new_inner = [w - lam.part(ell + 1 - i) for i in range(1, ell + 1)]
        return _canonical(new_outer, new_inner)


def _canonical(outer, inner) -> SkewShape:
    """The canonical form of outer/inner, given as row lengths of equal
    count of a valid skew shape: empty border rows dropped, then shifted left
    by the last inner row, so both parts come out valid and are taken
    without re-validation."""
    lo, hi = 0, len(outer)
    while lo < hi and outer[lo] == inner[lo]:
        lo += 1
    while lo < hi and outer[hi - 1] == inner[hi - 1]:
        hi -= 1
    shift = inner[hi - 1] if lo < hi else 0
    return SkewShape._trusted(
        Partition._trusted(tuple(p - shift for p in outer[lo:hi])),
        Partition._trusted(tuple(p - shift for p in inner[lo:hi] if p > shift)),
    )


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


# -- text notation ----------------------------------------------------------
#
# "4,4,3,2/2,1" denotes outer/inner; the inner part is omitted when empty,
# and "-" stands for the empty partition.  Families are "name:key=value:..."
# and are parsed by parse_shape into a ShapeFamily.


class ShapeParseError(ValueError):
    pass


def parse_int(text: str, what: str) -> int:
    """Read CLI text as an integer: ASCII digits with an optional sign, at
    most 4300 of them (reading more takes quadratic time, and `cli.main`
    lifts Python's own limit).  Errors name `what`, never the text."""
    text = text.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ShapeParseError(f"{what} must be an integer")
    if len(digits) > 4300:
        raise ShapeParseError(f"{what} has more than 4300 digits")
    return int(text)


def quote_prefix(text: str) -> str:
    """Text quoted for an error message: its first 20 characters, and '...'
    if there is more, so that no message grows with the input.  Fewer are
    kept where repr escapes them (a control character's escape is up to ten
    wide), so the quote is at most 42 characters plus the '...'."""
    head = text[:20]
    while len(repr(head)) > 42:
        head = head[:-1]
    return repr(head) + ("..." if len(text) > len(head) else "")


def _parse_parts(text: str, what: str) -> Partition:
    text = text.strip()
    if text in ("", "-"):
        return Partition()
    parts = []
    for pos, token in enumerate(text.split(","), start=1):
        part = parse_int(token, f"{what}: part {pos}")
        if part < 1:
            raise ShapeParseError(f"{what}: part {pos} must be positive")
        if parts and parts[-1] < part:
            raise ShapeParseError(f"{what}: parts not weakly decreasing at index {pos}")
        parts.append(part)
    return Partition._trusted(tuple(parts))


def parse_partition(text: str) -> Partition:
    """Parse a bare comma-separated partition; '-' or '' give the empty one."""
    return _parse_parts(text, "partition")


def parse_shape(text: str):
    """Parse shape notation into a SkewShape, or a family spec into a ShapeFamily."""
    text = text.strip()
    if ":" in text:
        return parse_family(text)
    head, sep, tail = text.partition("/")
    outer = _parse_parts(head, "outer")
    inner = _parse_parts(tail, "inner") if sep else Partition()
    try:
        return SkewShape(outer, inner)
    except ValueError as exc:
        raise ShapeParseError(str(exc)) from None


def shape_text(shape: SkewShape) -> str:
    """Canonical text form; round-trips with parse_shape."""
    outer = ",".join(str(p) for p in shape.outer) or "-"
    if shape.inner.size == 0:
        return outer
    return outer + "/" + ",".join(str(p) for p in shape.inner)


# -- shape families ----------------------------------------------------------


def staircase(k: int) -> Partition:
    """The staircase with k - 1 rows: (k-1, k-2, ..., 1)."""
    if k < 1:
        raise ValueError("staircase parameter must be >= 1")
    return Partition(range(k - 1, 0, -1))


def square_shape(k: int) -> SkewShape:
    if k < 1:
        raise ValueError("square parameter must be >= 1")
    return SkewShape([k] * k)


def thick_ribbon(k: int, r: int | None = None) -> SkewShape:
    """Staircase difference delta_{k+r}/delta_k; r defaults to k."""
    if r is None:
        r = k
    if k < 1 or r < 1:
        raise ValueError("thick ribbon parameters must be >= 1")
    return SkewShape(staircase(k + r), staircase(k))


def zigzag(k: int) -> SkewShape:
    """The odd zigzag ribbon delta_{k+2}/delta_k."""
    if k < 1:
        raise ValueError("zigzag parameter must be >= 1")
    return thick_ribbon(k, 2)


def inverted_hook(k: int) -> SkewShape:
    if k < 1:
        raise ValueError("inverted hook parameter must be >= 1")
    return SkewShape([k + 1] * (k + 1), [k] * k)


def inverted_thick_hook(k: int) -> SkewShape:
    if k < 1:
        raise ValueError("inverted thick hook parameter must be >= 1")
    return SkewShape([2 * k] * (2 * k), [k] * k)


def column_ribbon(k: int, m: int) -> SkewShape:
    """The ribbon hook with k columns, all of length m (n = k*m cells).

    Consecutive columns overlap in exactly one row; column k sits on top.
    Column c covers rows (k - c)(m - 1) + 1 to (k - c)(m - 1) + m, so row r
    ends in column k - ceil((r - m) / (m - 1)) and starts in column
    k - floor((r - 1) / (m - 1)), each kept between 1 and k.
    """
    if k < 1 or m < 1:
        raise ValueError("ribbon parameters must be >= 1")
    if m == 1:
        return SkewShape([k])
    rows = range(1, (k - 1) * (m - 1) + m + 1)
    outer = [k - max(0, -((m - r) // (m - 1))) for r in rows]
    inner = [k - 1 - min(k - 1, (r - 1) // (m - 1)) for r in rows]
    return SkewShape(outer, inner)


def slim_stripe(ell: int) -> SkewShape:
    """A slim shape with staircase inner: rows 3*ell-1-i over delta_ell."""
    if ell < 1:
        raise ValueError("slim stripe parameter must be >= 1")
    return SkewShape([3 * ell - 1 - i for i in range(1, ell + 1)], staircase(ell))


def regev_vershik_shape(sigma, rows: int, cols: int) -> SkewShape:
    """Rectangle with two rotated copies of sigma attached above and left.

    sigma must fit in the rows x cols rectangle.  The rotated copy is also
    removed from the rectangle's bottom-right corner, so the result has
    |sigma| + rows*cols cells and its skew hooks are exactly the hooks of
    sigma together with the hooks of the rectangle.
    """
    sigma = Partition(sigma)
    if rows < 1 or cols < 1:
        raise ValueError("rectangle dimensions must be >= 1")
    if len(sigma) > rows or sigma.part(1) > cols:
        raise ValueError("sigma does not fit inside the rectangle")
    kp, w = len(sigma), sigma.part(1)
    outer = [w + cols] * kp + [w + cols - sigma.part(rows + 1 - i) for i in range(1, rows + 1)]
    inner = [w + cols - sigma.part(kp + 1 - i) for i in range(1, kp + 1)] + [
        w - sigma.part(rows + 1 - i) for i in range(1, rows + 1)
    ]
    return SkewShape(outer, inner)


FAMILY_CELL_CAP = 10**6  # skew cells of a family member, checked before it is built


class ShapeFamily:
    """A named parametric family, e.g. thick-ribbon:k=4.

    The parameters are checked on construction, before any shape is built:
    each must be one the builder takes, none it needs may be missing, an
    integer must fit an index, and the member may hold at most
    FAMILY_CELL_CAP cells, counted from the parameters.
    """

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, **params):
        if kind not in FAMILY_BUILDERS:
            raise ShapeParseError(f"unknown family {quote_prefix(kind)}")
        required, accepted = _family_params(kind)
        for key in params:
            if key not in accepted:
                raise ShapeParseError(f"family '{kind}' takes no parameter {quote_prefix(key)}")
        for key in required:
            if key not in params:
                raise ShapeParseError(f"family '{kind}' needs parameter '{key}'")
        for key, value in params.items():
            if isinstance(value, int) and value > sys.maxsize:
                raise OverflowError(f"family parameter '{key}' is too large for an index")
        # a parameter below 1 is left to the builder, which refuses it first
        if all(v >= 1 for v in params.values() if isinstance(v, int)):
            n = _FAMILY_SIZES[kind](**params)
            if n > FAMILY_CELL_CAP:
                member = ", ".join(
                    f"{key}={_param_text(v)}" for key, v in params.items() if v is not None
                )
                raise CapExceeded(
                    f"family '{kind}' needs n <= {FAMILY_CELL_CAP} cells; {member} gives {n}"
                )
        self.kind = kind
        self.params = dict(params)

    def build(self) -> SkewShape:
        return FAMILY_BUILDERS[self.kind](**self.params)

    def __repr__(self) -> str:
        return f"ShapeFamily({self.kind!r}, **{self.params!r})"


FAMILY_BUILDERS = {
    "square": square_shape,
    "staircase": lambda k: SkewShape(staircase(k)),
    "thick-ribbon": thick_ribbon,
    "zigzag": zigzag,
    "inverted-hook": inverted_hook,
    "inverted-thick-hook": inverted_thick_hook,
    "ribbon-rho": column_ribbon,
    "slim-stripe": slim_stripe,
    "regev-vershik": regev_vershik_shape,
}

# The number of skew cells of each family member, from the builder's
# parameters, which these functions spell as the builders do.
_FAMILY_SIZES = {
    "square": lambda k: k * k,
    "staircase": lambda k: comb(k, 2),
    "thick-ribbon": lambda k, r=None: comb(k + (r or k), 2) - comb(k, 2),
    "zigzag": lambda k: 2 * k + 1,
    "inverted-hook": lambda k: 2 * k + 1,
    "inverted-thick-hook": lambda k: 3 * k * k,
    "ribbon-rho": lambda k, m: k * m,
    "slim-stripe": lambda ell: ell * (2 * ell - 1),
    "regev-vershik": lambda sigma, rows, cols: Partition(sigma).size + rows * cols,
}


def _param_text(value) -> str:
    """A family parameter as family text spells it: an integer, or sigma's
    parts, quoted by quote_prefix."""
    if isinstance(value, int):
        return str(value)
    return quote_prefix(",".join(map(str, value)))


def _family_params(kind: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The parameters a family needs and all that it takes."""
    size = _FAMILY_SIZES[kind]
    accepted = size.__code__.co_varnames[: size.__code__.co_argcount]
    return accepted[: len(accepted) - len(size.__defaults__ or ())], accepted


_INT_KEYS = {"k", "r", "m", "ell", "rows", "cols"}


def parse_family(text: str) -> ShapeFamily:
    head, *rest = text.strip().split(":")
    kind = head.strip()
    if kind not in FAMILY_BUILDERS:
        raise ShapeParseError(f"unknown family {quote_prefix(kind)}")
    params = {}
    for pos, item in enumerate(rest, start=1):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ShapeParseError(f"family parameter {pos} is not key=value")
        if key in params:
            raise ShapeParseError(f"family parameter '{key}' is given twice")
        if key in _INT_KEYS:
            params[key] = parse_int(value, f"family parameter '{key}'")
        elif key == "sigma":
            params[key] = _parse_parts(value, "sigma")
        else:
            raise ShapeParseError(f"unknown family parameter {quote_prefix(key)}")
    return ShapeFamily(kind, **params)


# -- small enumeration helpers (used by sweeps and tests) --------------------


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n with parts bounded by max_part, lex-descending."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def subpartitions(lam: Partition) -> Iterator[Partition]:
    """All partitions contained in lam (including the empty one and lam)."""

    def rec(i: int, bound: int):
        if i > len(lam):
            yield ()
            return
        for p in range(min(bound, lam.part(i)), -1, -1):
            if p == 0:
                yield ()
            else:
                for rest in rec(i + 1, p):
                    yield (p,) + rest

    for parts in rec(1, lam.part(1) if len(lam) else 0):
        yield Partition._trusted(parts)
