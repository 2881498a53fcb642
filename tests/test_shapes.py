import random
import time
from collections import Counter, deque

import numpy as np
import pytest

from skewtab import shapes
from skewtab.errors import CapExceeded
from skewtab.shapes import (
    Partition,
    ShapeFamily,
    ShapeParseError,
    SkewShape,
    column_ribbon,
    inverted_hook,
    inverted_thick_hook,
    parse_int,
    parse_shape,
    partitions_of,
    regev_vershik_shape,
    shape_text,
    slim_stripe,
    square_shape,
    staircase,
    subpartitions,
    thick_ribbon,
    zigzag,
)
from skewtab.verify import skew_shapes


def test_partition_validation():
    assert Partition([4, 4, 3, 2]).parts == (4, 4, 3, 2)
    assert Partition([3, 2, 0, 0]).parts == (3, 2)
    assert Partition().parts == ()
    assert Partition(Partition([3, 1])).parts == (3, 1)
    assert Partition(Partition([3, 1, 0])) == Partition([3, 1])
    with pytest.raises(ValueError, match="index 2"):
        Partition([3, 4])
    with pytest.raises(ValueError, match="index 2"):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])
    with pytest.raises(ValueError, match="index 1"):
        Partition([-1])
    # parts are exact integers: nothing is rounded, no text is read
    assert Partition(np.array([3, 1, 0])).parts == (3, 1)
    for parts, pos in (([3.9, 2.5], 1), (["3", "1"], 1), ([3, 1.0], 2)):
        with pytest.raises(ValueError, match=f"^part at index {pos} is not an integer$"):
            Partition(parts)
    with pytest.raises(ValueError, match="index 1 is not an integer"):
        SkewShape([3.9, 2.5], [1.99])
    # trailing zeros are stripped in linear time
    start = time.perf_counter()
    assert Partition([1] + [0] * 100_000).parts == (1,)
    assert time.perf_counter() - start < 2.0


def test_conjugate():
    assert Partition([4, 4, 3, 2]).conjugate() == Partition([4, 4, 3, 2])
    assert Partition([1]).conjugate() == Partition([1])
    assert Partition([3, 1]).conjugate() == Partition([2, 1, 1])
    for parts in partitions_of(7):
        lam = Partition(parts)
        assert lam.conjugate().conjugate() == lam
    shape = SkewShape([5, 3, 1], [2, 2])
    assert shape.conjugate() == SkewShape([3, 2, 2, 1, 1], [2, 2])
    assert sorted(shape.conjugate().cells()) == sorted((j, i) for i, j in shape.cells())


def _hook_by_scan(lam, i, j):
    arm = sum(1 for jj in range(j + 1, lam.part(i) + 1))
    leg = sum(1 for ii in range(i + 1, len(lam) + 1) if lam.part(ii) >= j)
    return arm + leg + 1


def test_hooks_two_ways():
    for parts in partitions_of(8):
        lam = Partition(parts)
        hooks = lam.hooks()
        for (i, j), h in hooks.items():
            assert h == _hook_by_scan(lam, i, j)


def test_hook_matches_hooks():
    for n in range(11):
        for parts in partitions_of(n):
            lam = Partition(parts)
            for (i, j), h in lam.hooks().items():
                assert lam.hook(i, j) == h


def test_hook_examples():
    lam = Partition([4, 4, 3, 2])
    assert lam.hook(2, 2) == 5  # the unique hook of size 5 in the skew cells
    assert lam.hook(1, 3) == 4
    assert Partition([1]).hook(1, 1) == 1
    assert Partition([2, 2]).hook(1, 1) == 3
    with pytest.raises(ValueError):
        lam.hook(1, 5)


def test_skew_hook_multiset_golden():
    shape = SkewShape([4, 4, 3, 2], [2, 1])
    ms = shape.hook_multiset()
    assert sorted(ms.elements(), reverse=True) == [5, 4, 4, 3, 3, 2, 2, 1, 1, 1]
    assert shape.hook_product() == 2880
    assert SkewShape([2, 2]).hook_product() == 3 * 2 * 2 * 1
    assert SkewShape([3, 1], [3, 1]).hook_multiset() == {}


def test_durfee():
    assert Partition([4, 4, 3, 2]).durfee() == 3
    assert Partition().durfee() == 0
    for k in (1, 2, 5):
        assert Partition([k] * k).durfee() == k


def test_width_depth():
    assert thick_ribbon(4, 2).width_depth() == (5, 3)  # 3k-1 and 2k-1 at k=2
    assert SkewShape([1]).width_depth() == (1, 1)
    assert SkewShape([4, 4, 3, 2], [2, 1]).width_depth() == (4, 5)


def test_antidiagonal_ranks():
    assert SkewShape([4, 4, 3, 2], [2, 1]).antidiagonal_ranks() == (3, 4, 3)
    assert SkewShape([1]).antidiagonal_ranks() == (1,)
    # by the defining count over i+j, the zigzag delta_4/delta_2 has ranks (2, 3)
    assert zigzag(2).antidiagonal_ranks() == (2, 3)
    for parts in partitions_of(6):
        lam = Partition(parts)
        for mu in subpartitions(lam):
            shape = SkewShape(lam, mu)
            assert sum(shape.antidiagonal_ranks()) == shape.size


def test_family_generators():
    assert thick_ribbon(2, 2) == SkewShape([3, 2, 1], [1])
    assert inverted_thick_hook(1) == SkewShape([2, 2], [1])
    assert inverted_hook(1) == SkewShape([2, 2], [1])
    assert square_shape(3) == SkewShape([3, 3, 3])
    assert staircase(4) == Partition([3, 2, 1])
    for family in (staircase, inverted_thick_hook):
        with pytest.raises(ValueError, match="must be >= 1"):
            family(0)
    assert slim_stripe(3) == SkewShape([7, 6, 5], [2, 1])
    for k in range(1, 51):
        assert thick_ribbon(k).size == k * (3 * k - 1) // 2
    for k in range(1, 10):
        assert inverted_hook(k).size == 2 * k + 1
        assert zigzag(k).size == 2 * k + 1


def test_column_ribbon():
    assert column_ribbon(4, 1) == SkewShape([4])
    shape = column_ribbon(4, 3)
    assert shape.size == 12
    assert shape.is_ribbon_hook()
    assert shape.is_connected()
    # every column has exactly m cells
    cols = {}
    for i, j in shape.cells():
        cols[j] = cols.get(j, 0) + 1
    assert cols == {1: 3, 2: 3, 3: 3, 4: 3}


def scanned_column_ribbon(k: int, m: int) -> SkewShape:
    """The ribbon by scanning, for every row, which columns cover it."""
    if m == 1:
        return SkewShape([k])
    outer, inner = [], []
    for i in range(1, (k - 1) * (m - 1) + m + 1):
        cols = [c for c in range(1, k + 1) if (k - c) * (m - 1) < i <= (k - c) * (m - 1) + m]
        outer.append(max(cols))
        inner.append(min(cols) - 1)
    return SkewShape(outer, inner)


def test_column_ribbon_matches_column_scan():
    for k in range(1, 15):
        for m in range(1, 9):
            assert column_ribbon(k, m) == scanned_column_ribbon(k, m), (k, m)


def test_ribbon_hook_matches_diagonal_counts():
    # every skew shape with |outer| <= 11, disconnected ones included
    checked = 0
    for shape in skew_shapes(11, connected_only=False):
        per_diagonal = Counter(j - i for i, j in shape.cells())
        assert shape.is_ribbon_hook() == (max(per_diagonal.values()) <= 1), shape
        checked += 1
    assert checked == 4894
    assert SkewShape([]).is_ribbon_hook()


def test_regev_vershik_shape():
    shape = regev_vershik_shape(Partition([1]), 2, 2)
    assert shape == SkewShape([3, 3, 2], [2, 1])
    assert shape.size == 5
    assert regev_vershik_shape(Partition(), 3, 2) == SkewShape([2, 2, 2])
    with pytest.raises(ValueError):
        regev_vershik_shape(Partition([3]), 2, 2)


def test_rotate180():
    assert SkewShape([2, 1]).rotate180() == SkewShape([2, 2], [1])
    assert SkewShape([2, 2], [1]).rotate180() == SkewShape([2, 1])
    assert SkewShape([2, 2]).rotate180() == SkewShape([2, 2])
    assert zigzag(2).rotate180() == SkewShape([3, 3, 2], [2, 1])


def test_rotate180_involution_random():
    rng = random.Random(20240917)
    pool = []
    for m in range(1, 9):
        for parts in partitions_of(m):
            lam = Partition(parts)
            pool.extend(SkewShape(lam, mu) for mu in subpartitions(lam))
    for shape in rng.sample(pool, 100):
        rotated = shape.rotate180()
        assert rotated.size == shape.size
        assert rotated.rotate180() == shape.canonical()
        assert sorted(rotated.antidiagonal_ranks()) == sorted(shape.antidiagonal_ranks())


def _edge_connected(shape):
    """Reference: breadth-first search over the skew cells."""
    cells = set(shape.cells())
    if not cells:
        return True
    seen = set()
    queue = deque([next(iter(cells))])
    while queue:
        i, j = queue.popleft()
        if (i, j) in seen:
            continue
        seen.add((i, j))
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in cells and nb not in seen:
                queue.append(nb)
    return len(seen) == len(cells)


def test_is_connected():
    assert SkewShape([2, 2], [1]).is_connected()
    assert not SkewShape([2, 1], [1]).is_connected()
    assert SkewShape([1], [1]).is_connected()  # empty shape, by convention
    assert SkewShape([3, 3, 2], [3, 1]).is_connected()  # empty top row
    assert not SkewShape([3, 2, 2], [2, 2]).is_connected()  # empty middle row
    checked = 0
    for m in range(1, 10):
        for parts in partitions_of(m):
            lam = Partition(parts)
            for mu in subpartitions(lam):
                shape = SkewShape(lam, mu)
                assert shape.is_connected() == _edge_connected(shape), shape
                checked += 1
    assert checked > 1000


def test_parse_and_print():
    shape = parse_shape("4,4,3,2/2,1")
    assert shape == SkewShape([4, 4, 3, 2], [2, 1])
    assert shape_text(shape) == "4,4,3,2/2,1"
    assert parse_shape("1") == SkewShape([1])
    fam = parse_shape("thick-ribbon:k=4")
    assert isinstance(fam, ShapeFamily)
    assert fam.build() == thick_ribbon(4)
    assert parse_shape("square:k=5").build() == square_shape(5)
    assert parse_shape("regev-vershik:sigma=1:rows=2:cols=2").build() == SkewShape(
        [3, 3, 2], [2, 1]
    )
    assert repr(fam) == "ShapeFamily('thick-ribbon', **{'k': 4})"


def test_family_sizes_and_cap():
    # the cell count the cap reads equals the built member's, parameter by
    # parameter as each builder takes them
    values = {"k": 4, "r": 3, "m": 3, "ell": 4, "rows": 3, "cols": 2, "sigma": (2, 1)}
    for kind, build in shapes.FAMILY_BUILDERS.items():
        required, accepted = shapes._family_params(kind)
        for names in (required, accepted):
            params = {key: values[key] for key in names}
            assert shapes._FAMILY_SIZES[kind](**params) == build(**params).size, (kind, params)
    assert shapes.FAMILY_CELL_CAP == 10**6
    assert ShapeFamily("square", k=1000).build().size == 10**6
    with pytest.raises(CapExceeded, match="family 'square' needs n <= 1000000 cells"):
        ShapeFamily("square", k=1001)
    with pytest.raises(CapExceeded):
        parse_shape("ribbon-rho:k=1001:m=1000")
    # a parameter below 1 is the builder's to refuse, however large
    with pytest.raises(ValueError, match="ribbon parameters must be >= 1"):
        parse_shape("ribbon-rho:k=-100000000:m=-100000000").build()


def test_parse_errors():
    with pytest.raises(ShapeParseError, match="index 2"):
        parse_shape("3,4/1")
    with pytest.raises(ShapeParseError, match="row 1"):
        parse_shape("2,1/3")
    with pytest.raises(ShapeParseError, match="inner not contained in outer at row 3"):
        parse_shape("4,4,2/3,3,3")
    with pytest.raises(ValueError, match="row 3"):
        SkewShape([3, 1], [1, 1, 1])
    with pytest.raises(ShapeParseError):
        parse_shape("nonsense:k=1")
    with pytest.raises(ShapeParseError):
        parse_shape("2,x")
    with pytest.raises(ShapeParseError, match="'k' is given twice"):
        parse_shape("thick-ribbon:k=4:k=5")
    with pytest.raises(ShapeParseError, match="family parameter 1 is not key=value"):
        parse_shape("square:k")
    with pytest.raises(ShapeParseError, match="unknown family parameter 'q'"):
        parse_shape("square:q=3")
    with pytest.raises(ShapeParseError, match="^unknown family 'bogus'$"):
        ShapeFamily("bogus")
    # text is quoted by its first 20 characters only
    with pytest.raises(ShapeParseError, match=r"^unknown family 'x{20}'\.\.\.$"):
        parse_shape("x" * 21 + ":k=1")


def test_parse_int():
    assert parse_int(" 42 ", "x") == 42
    assert parse_int("-7", "x") == -7 and parse_int("+7", "x") == 7
    assert parse_int("9" * 4300, "x") == 10**4300 - 1
    for text in ("", "-", "+-1", "--5", "1_000", "²", "٣", "１", "2.0", "0x10"):
        with pytest.raises(ShapeParseError, match="^x must be an integer$"):
            parse_int(text, "x")
    with pytest.raises(ShapeParseError, match="^x has more than 4300 digits$"):
        parse_int("-" + "9" * 4301, "x")


def test_round_trip_corpus():
    rng = random.Random(5)
    seen = 0
    while seen < 1000:
        m = rng.randint(1, 10)
        parts = rng.choice(list(partitions_of(m)))
        lam = Partition(parts)
        mus = list(subpartitions(lam))
        mu = rng.choice(mus)
        shape = SkewShape(lam, mu)
        assert parse_shape(shape_text(shape)) == shape
        seen += 1


def test_cells_and_membership():
    shape = SkewShape([3, 2], [1])
    assert shape.cells() == [(1, 2), (1, 3), (2, 1), (2, 2)]
    assert (1, 2) in shape and (1, 1) not in shape and (3, 1) not in shape


def test_frobenius_round_trip():
    checked = 0
    for n in range(16):
        for parts in partitions_of(n):
            lam = Partition(parts)
            arms, legs = lam.frobenius()
            assert Partition.from_frobenius(arms, legs) == lam
            checked += 1
    assert checked == 684
    for arms, legs, why in (
        ([1], [], "equal length"),
        ([1, 1], [1, 0], "strictly decreasing"),
        ([0, -1], [1, 0], "nonnegative"),
    ):
        with pytest.raises(ValueError, match=why):
            Partition.from_frobenius(arms, legs)
