from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings

from skewtab import cli, excited
from skewtab.errors import CapExceeded
from skewtab.exact import brute_force_count, jacobi_trudi_count, naive_hlf, schur_principal
from skewtab.excited import (
    border_strip_decomposition,
    enumerate_excited,
    is_excited_diagram,
    macmahon_xi,
    macmahon_xi_superfactorial,
    min_max_term,
    nhlf_count,
    paths_from_diagram,
    proctor_xi,
    proctor_xi_superfactorial,
    row_flags,
    slim_xi_checks,
    top_excited_diagram,
    xi_bounds,
    xi_determinant,
    xi_path_count,
)
from skewtab.shapes import (
    Partition,
    SkewShape,
    inverted_thick_hook,
    slim_stripe,
    staircase,
    thick_ribbon,
    zigzag,
)
from skewtab.verify import skew_shapes
from test_properties import random_skew_shapes

GOLDEN = SkewShape([4, 4, 3, 2], [2, 1])


def flagged_tableaux_count(shape: SkewShape) -> int:
    """Semistandard fillings of the inner shape with row-i entries at most the
    i-th flag; equinumerous with the excited diagrams (a third count of xi)."""
    mu = shape.inner
    flags = row_flags(shape)
    rows = [mu.part(i) for i in range(1, len(mu) + 1)]
    grid: list[list[int]] = [[0] * r for r in rows]

    def backtrack(i: int, j: int) -> int:
        if i == len(rows):
            return 1
        ni, nj = (i, j + 1) if j + 1 < rows[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0 and j < rows[i - 1]:
            lo = max(lo, grid[i - 1][j] + 1)
        total = 0
        for v in range(lo, flags[i] + 1):
            grid[i][j] = v
            total += backtrack(ni, nj)
        grid[i][j] = 0
        return total

    return backtrack(0, 0) if rows else 1


def test_enumerate_golden():
    diagrams = enumerate_excited(GOLDEN)
    assert len(diagrams) == 5
    assert diagrams[0] == tuple(sorted(GOLDEN.inner.cells()))
    assert len(set(diagrams)) == 5
    for d in diagrams:
        assert is_excited_diagram(GOLDEN, d)


def test_enumerate_small():
    diagrams = enumerate_excited(SkewShape([2, 2], [1]))
    assert [tuple(d) for d in diagrams] == [((1, 1),), ((2, 2),)]
    assert enumerate_excited(SkewShape([3, 2, 1])) == [()]
    # the cap is on xi * |inner|, the cells the search stores
    with pytest.raises(CapExceeded):
        enumerate_excited(SkewShape([8, 8, 8, 8], [4, 4, 4, 4]), cap=15)  # 1 * 16 cells
    with pytest.raises(CapExceeded):
        enumerate_excited(GOLDEN, cap=14)  # 5 * 3 cells
    assert len(enumerate_excited(GOLDEN, cap=15)) == 5


def test_enumeration_cap_checked_before_work(monkeypatch):
    moves = []
    real = excited._excited_move
    monkeypatch.setattr(
        excited, "_excited_move", lambda *a: moves.append(a) or real(*a)
    )
    with pytest.raises(CapExceeded, match=r"xi \* \|inner\| <= 100 cells, got 41580 \* 9"):
        enumerate_excited(SkewShape([9] * 9, [3, 3, 3]), cap=100)
    assert moves == []


def test_diagram_characterization():
    assert is_excited_diagram(GOLDEN, [(1, 1), (1, 2), (2, 1)])
    excited_set = set(enumerate_excited(GOLDEN))
    rejected = {
        "too few cells": [(1, 1), (1, 2)],
        "cell outside the outer shape": [(1, 1), (1, 2), (2, 5)],
        "repeated cell": [(1, 1), (1, 2), (1, 2)],
        "wrong per-diagonal counts": [(1, 1), (1, 2), (1, 3)],
        # one cell on each of the inner diagonals, but the image of (1, 1)
        # sits below the image of its right neighbour (1, 2)
        "broken order relation": [(2, 2), (1, 2), (3, 2)],
    }
    for case, diagram in rejected.items():
        assert tuple(sorted(diagram)) not in excited_set, case
        assert not is_excited_diagram(GOLDEN, diagram), case
        with pytest.raises(ValueError, match="not an excited diagram"):
            paths_from_diagram(GOLDEN, diagram)


def test_characterization_enumerates_the_same_set(small_connected_shapes):
    # third route: move positions independently along each diagonal and keep
    # the sets passing the characterization; must equal the BFS enumeration
    from itertools import product

    for shape in small_connected_shapes[::11]:
        lam, mu = shape.outer, shape.inner
        per_cell = []
        for i, j in sorted(mu.cells()):
            spots = []
            t = 0
            while (i + t, j + t) in lam:
                spots.append((i + t, j + t))
                t += 1
            per_cell.append(spots)
        count = sum(
            1
            for combo in product(*per_cell)
            if len(set(combo)) == len(combo) and is_excited_diagram(shape, combo)
        )
        assert count == len(enumerate_excited(shape))


def walked_row_flags(shape: SkewShape) -> list[int]:
    """Flags by walking down the diagonal through the end of each inner row."""
    lam = shape.outer.parts
    flags = []
    for i, j in enumerate(shape.inner.parts, start=1):
        t = 0
        while i + t < len(lam) and lam[i + t] > j + t:  # (i+t+1, j+t+1) in lam
            t += 1
        flags.append(i + t)
    return flags


def test_row_flags_golden():
    assert row_flags(GOLDEN) == [2, 3]
    for shape in skew_shapes(9, connected_only=False):
        assert row_flags(shape) == walked_row_flags(shape), shape


@settings(max_examples=150, deadline=None)
@given(random_skew_shapes(60, connected=False))
def test_row_flags_match_diagonal_walk(shape):
    assert row_flags(shape) == walked_row_flags(shape)


def test_xi_determinant():
    assert xi_determinant(GOLDEN) == 5
    assert xi_determinant(SkewShape([3, 2, 1])) == 1
    assert xi_determinant(SkewShape([5, 4, 4, 1], [2, 1])) == 8
    assert len(enumerate_excited(SkewShape([5, 4, 4, 1], [2, 1]))) == 8


def test_xi_det_matches_enumeration(small_connected_shapes):
    for shape in small_connected_shapes:
        assert xi_determinant(shape) == len(enumerate_excited(shape))


def test_flagged_cross_check(small_connected_shapes):
    for shape in small_connected_shapes[::7]:
        assert flagged_tableaux_count(shape) == xi_determinant(shape)
    assert flagged_tableaux_count(GOLDEN) == 5


def test_xi_path_count():
    assert xi_path_count(GOLDEN) == 5
    assert xi_path_count(SkewShape([3, 2, 1])) == 1
    assert xi_path_count(SkewShape([3], [3])) == 1  # no skew cells, one diagram
    # the three counts of xi agree, disconnected shapes included
    for shape in skew_shapes(9, connected_only=False):
        assert xi_path_count(shape) == xi_determinant(shape) == flagged_tableaux_count(shape)
    # |inner| = 13, and shapes far beyond enumeration
    assert xi_path_count(SkewShape([6, 6, 6, 5], [5, 4, 3, 1])) == 28
    assert xi_path_count(thick_ribbon(8)) == proctor_xi(8)
    assert xi_path_count(inverted_thick_hook(6)) == macmahon_xi(6)


def test_nhlf_count():
    assert nhlf_count(GOLDEN) == 3060
    assert nhlf_count(SkewShape([3, 2, 1], [1])) == 16
    lam = Partition([4, 2, 1])
    from skewtab.exact import hlf_count

    assert nhlf_count(SkewShape(lam)) == hlf_count(lam)

    def enumerated_hook_sum(shape):
        # the hook sum term by term: n! * sum over D of prod_{u off D} 1/h(u)
        hooks = shape.outer.hooks()
        acc = sum(prod(hooks[c] for c in d) for d in enumerate_excited(shape))
        return Fraction(factorial(shape.size) * acc, shape.outer.hook_product())

    for shape in skew_shapes(9, connected_only=False):
        assert nhlf_count(shape) == enumerated_hook_sum(shape), shape

    # |inner| = 13 and, far beyond enumeration, xi(thick_ribbon(12)) ~ 1.16e22;
    # thick_ribbon(24) on the flag lattice, zigzag(40) on the strip lattice
    for shape in (thick_ribbon(12), SkewShape([8] * 6, [4, 4, 3, 2]), thick_ribbon(24), zigzag(40)):
        assert nhlf_count(shape) == jacobi_trudi_count(shape), shape


def test_hook_sum_lattices_agree():
    # each lattice's determinant over its denominator is the same hook sum
    for shape in skew_shapes(9, connected_only=False):
        flag = Fraction(*excited._flag_hook_sum(shape))
        strip = Fraction(*excited._strip_hook_sum(shape, border_strip_decomposition(shape)))
        assert flag == strip, shape


def test_hook_sum_lattice_choice(monkeypatch):
    taken = []
    for name in ("_flag_hook_sum", "_strip_hook_sum"):
        real = getattr(excited, name)
        monkeypatch.setattr(
            excited, name, lambda *args, _real=real, _name=name: taken.append(_name) or _real(*args)
        )
    # ell(inner) against the number of border strips
    expected = {
        zigzag(20): "_strip_hook_sum",  # 19 rows, 1 strip
        zigzag(8): "_strip_hook_sum",  # 7 rows, 1 strip
        thick_ribbon(12): "_flag_hook_sum",  # 11 rows, 6 strips
        SkewShape([8] * 8, [3] * 4): "_flag_hook_sum",  # 4 rows, 5 strips
        SkewShape([2, 2], [1]): "_flag_hook_sum",  # 1 row, 1 strip
    }
    for shape, lattice in expected.items():
        taken.clear()
        assert nhlf_count(shape) == jacobi_trudi_count(shape)
        assert taken == [lattice], shape


def test_min_max_term(monkeypatch, capsys):
    lo, hi = min_max_term(GOLDEN)
    assert hi == naive_hlf(GOLDEN) / factorial(GOLDEN.size)
    assert lo <= hi
    shape = SkewShape([3, 2])
    lo, hi = min_max_term(shape)
    assert lo == hi == Fraction(1, shape.hook_product())
    lo, hi = min_max_term(SkewShape([2, 2], [1]))
    assert hi == Fraction(1, 4)  # inner at (1,1) leaves free hooks 2, 2, 1
    assert lo == Fraction(1, 12)  # inner at (2,2) leaves free hooks 3, 2, 2
    assert factorial(3) * (hi + lo) == 2  # the two terms assemble the count

    def enumerated_extremes(shape):
        hooks, total = shape.outer.hooks(), shape.outer.hook_product()
        terms = [prod(hooks[c] for c in d) for d in enumerate_excited(shape)]
        return Fraction(min(terms), total), Fraction(max(terms), total)

    # the inner and top diagrams give the extremes of the full enumeration
    for shape in skew_shapes(9, connected_only=False):
        assert is_excited_diagram(shape, top_excited_diagram(shape))
        assert min_max_term(shape) == enumerated_extremes(shape), shape

    # |inner| = 13 and 10,080 diagrams, two of which min_max_term looks at
    big = SkewShape([8, 8, 8, 8, 8, 8], [4, 4, 3, 2])
    assert min_max_term(big) == enumerated_extremes(big)

    # `skewtab nhlf` enumerates no excited diagram
    calls = []
    real = excited.enumerate_excited
    monkeypatch.setattr(
        excited, "enumerate_excited", lambda *a, **kw: calls.append(a) or real(*a, **kw)
    )
    assert cli.main(["nhlf", "4,4,3,2/2,1"]) == 0
    assert len(calls) == 0
    assert '"max-term": "1/2880"' in capsys.readouterr().out


def test_soundness_checks_raise(monkeypatch):
    # (2,2)/(1) takes the flag lattice: its determinant is h(1,1) + h(2,2) = 4
    # and 3! * 4 / 12 = 2, one more gives 3! * 5 / 12.  zigzag(8) takes the
    # strip lattice, whose determinant carries C^n.
    real_det = excited._bareiss_det
    for shape in (SkewShape([2, 2], [1]), zigzag(8)):
        monkeypatch.setattr(excited, "_bareiss_det", lambda mat: real_det(mat) + 1)
        with pytest.raises(ArithmeticError, match="hook-sum count is not an integer"):
            nhlf_count(shape)
        monkeypatch.setattr(excited, "_bareiss_det", lambda mat: -real_det(mat))
        with pytest.raises(ArithmeticError, match="hook-sum determinant is not positive"):
            nhlf_count(shape)
    monkeypatch.setattr(excited, "_bareiss_det", real_det)
    monkeypatch.setattr(excited, "schur_principal", lambda mu, ell: schur_principal(mu, ell) + 1)
    with pytest.raises(ArithmeticError, match="Schur"):
        slim_xi_checks(SkewShape([7, 6, 5], [2, 1]))


def depth_walk_strips(shape: SkewShape) -> list[tuple[tuple[int, int], ...]]:
    """Reference border-strip decomposition, cell by cell.

    A cell's depth is one more than its up-left neighbor's if that is a skew
    cell, else one; the strips are the connected runs of equal depth.  A
    strip starts at a cell with no equal-depth neighbor below or to the left
    and walks up, else right, through cells of its depth.
    """
    cells = shape.cells()  # reading order: every up-left neighbor comes first
    depth: dict[tuple[int, int], int] = {}
    for i, j in cells:
        depth[i, j] = depth.get((i - 1, j - 1), 0) + 1
    strips = []
    for i, j in cells:
        d = depth[i, j]
        if depth.get((i + 1, j)) == d or depth.get((i, j - 1)) == d:
            continue
        strip = [(i, j)]
        while True:
            i, j = strip[-1]
            nxt = (i - 1, j) if depth.get((i - 1, j)) == d else (i, j + 1)
            if depth.get(nxt) != d:
                break
            strip.append(nxt)
        strips.append(tuple(strip))
    return strips


def test_cells_are_plain_tuples():
    # cells are (row, col) tuples wherever the library hands them out, and
    # a diagram given as lists is read as tuples
    shape = SkewShape([5, 4, 4, 1], [2, 1])
    diagrams = enumerate_excited(shape)
    families = [paths_from_diagram(shape, d) for d in diagrams]
    cells = [
        *shape.cells(),
        *shape.outer.cells(),
        *shape.outer.hooks(),
        *(c for d in diagrams for c in d),
        *top_excited_diagram(shape),
        *(c for strip in border_strip_decomposition(shape) for c in strip),
        *(c for fam in families for path in fam.paths for c in path),
    ]
    assert {type(c) for c in cells} == {tuple}
    assert all(len(c) == 2 and type(c[0]) is type(c[1]) is int for c in cells)
    as_lists = [[list(c) for c in d] for d in diagrams]
    assert all(is_excited_diagram(shape, d) for d in as_lists)
    assert [paths_from_diagram(shape, d) for d in as_lists] == families


def test_border_strips():
    strips = border_strip_decomposition(GOLDEN)
    assert len(strips) == 4
    assert sum(len(s) for s in strips) == GOLDEN.size
    assert len(border_strip_decomposition(zigzag(3))) == 1
    assert len(border_strip_decomposition(SkewShape([2, 2], [1]))) == 1
    assert border_strip_decomposition(SkewShape([3], [3])) == []
    for shape in skew_shapes(9, connected_only=False):
        strips = border_strip_decomposition(shape)
        assert strips == depth_walk_strips(shape), shape
        assert excited._strip_count(shape) == len(strips), shape
        cells = [c for strip in strips for c in strip]
        assert sorted(cells) == shape.cells(), shape  # every skew cell exactly once
        assert [s[0] for s in strips] == sorted(s[0] for s in strips)
        for strip in strips:
            # each step goes up or right, so one cell per diagonal
            for (i, j), nxt in zip(strip, strip[1:]):
                assert nxt in ((i - 1, j), (i, j + 1)), (shape, strip)


@settings(max_examples=150, deadline=None)
@given(random_skew_shapes(60, connected=False))
def test_border_strips_match_depth_walk(shape):
    strips = depth_walk_strips(shape)
    assert border_strip_decomposition(shape) == strips
    assert excited._strip_count(shape) == len(strips)


def test_paths_from_diagram():
    shape = SkewShape([2, 2], [1])
    fam = paths_from_diagram(shape, [(2, 2)])
    assert fam.support == {(1, 1), (1, 2), (2, 1)}
    fam0 = paths_from_diagram(shape, [(1, 1)])
    assert fam0.support == {(1, 2), (2, 1), (2, 2)}
    assert fam.endpoints() == fam0.endpoints()
    with pytest.raises(ValueError):
        paths_from_diagram(shape, [(1, 2)])


def test_paths_injective_and_fixed_endpoints():
    shape = SkewShape([5, 4, 4, 1], [2, 1])
    diagrams = enumerate_excited(shape)
    families = [paths_from_diagram(shape, d) for d in diagrams]
    supports = {fam.support for fam in families}
    assert len(supports) == len(diagrams) == 8
    endpoints = {fam.endpoints() for fam in families}
    assert len(endpoints) == 1  # start/end cells do not depend on the diagram
    for fam in families:
        assert sum(len(p) for p in fam.paths) == shape.outer.size - shape.inner.size


def traced_paths(shape: SkewShape, diagram) -> excited.PathFamily:
    """The path family by tracing: innermost start first (by column), each
    path climbs when the cell above is free and not blocked diagonally,
    else moves right, until it is stuck."""
    ends = {strip[0]: strip[-1] for strip in border_strip_decomposition(shape)}
    remaining = set(shape.outer.cells()) - {(i, j) for i, j in diagram}
    paths = []
    for start in sorted(ends, key=lambda c: c[::-1]):
        assert start in remaining, (shape, diagram, start)
        path = [start]
        remaining.remove(start)
        while True:
            i, j = path[-1]
            up, right = (i - 1, j), (i, j + 1)
            if up in remaining and (i - 1, j - 1) not in remaining:
                nxt = up
            elif right in remaining:
                nxt = right
            else:
                break
            path.append(nxt)
            remaining.remove(nxt)
        assert path[-1] == ends[start], (shape, diagram, start)
        paths.append(tuple(path))
    assert not remaining, (shape, diagram)
    return excited.PathFamily(tuple(sorted(paths)))


def test_paths_match_tracer_exhaustive():
    # every excited diagram of every skew shape with |outer| <= 9
    checked = 0
    for shape in skew_shapes(9, connected_only=False):
        for d in enumerate_excited(shape):
            assert paths_from_diagram(shape, d) == traced_paths(shape, d), (shape, d)
            checked += 1
    assert checked == 1741


@settings(max_examples=60, deadline=None)
@given(random_skew_shapes(30, connected=False))
def test_paths_match_tracer(shape):
    # xi * |inner| <= 2,000 cells keeps the enumeration cheap; the cap error
    # comes before any diagram is listed
    try:
        diagrams = enumerate_excited(shape, cap=2000)
    except CapExceeded:
        diagrams = [tuple(sorted(shape.inner.cells())), top_excited_diagram(shape)]
    for d in diagrams:
        assert paths_from_diagram(shape, d) == traced_paths(shape, d)


def test_xi_bounds(small_connected_shapes):
    lo, hi = xi_bounds(SkewShape([2, 2], [1]))
    assert lo == 4 and lo >= 2
    assert xi_bounds(SkewShape([3, 3], [3, 3])) == (1, 1)
    for shape in small_connected_shapes:
        b2, bpoly = xi_bounds(shape)
        xi = xi_determinant(shape)
        assert xi <= b2 and xi <= bpoly
    b2, bpoly = xi_bounds(GOLDEN)
    assert b2 >= 5 and bpoly >= 5


def test_proctor():
    assert proctor_xi(2) == 2
    assert proctor_xi_superfactorial(2) == 2
    assert proctor_xi(4) == len(enumerate_excited(thick_ribbon(4)))
    for k in (2, 4, 6, 8):
        assert proctor_xi(k) == proctor_xi_superfactorial(k)
    for form in (proctor_xi, proctor_xi_superfactorial):
        for k in (0, 3):
            with pytest.raises(ValueError, match="even k >= 2"):
                form(k)


def test_macmahon():
    assert macmahon_xi(1) == 2
    assert macmahon_xi(1) == len(enumerate_excited(inverted_thick_hook(1)))
    assert macmahon_xi(2) == 20
    assert macmahon_xi(2) == len(enumerate_excited(inverted_thick_hook(2)))
    for k in range(1, 9):
        assert macmahon_xi(k) == macmahon_xi_superfactorial(k)
    for form in (macmahon_xi, macmahon_xi_superfactorial):
        with pytest.raises(ValueError, match="k must be >= 1"):
            form(0)


def test_zigzag_catalan_offset():
    # with the (k-1,...,1) staircase convention the excited count of the odd
    # zigzag is the k-th Catalan number, pinned here by direct enumeration
    from skewtab.exact import catalan

    for k in range(1, 6):
        shape = zigzag(k)
        assert len(enumerate_excited(shape)) == catalan(k)
        assert xi_determinant(shape) == catalan(k)


def test_slim_checks():
    rep = slim_xi_checks(SkewShape([7, 6, 5], [2, 1]))
    assert rep.xi == 8 and rep.staircase_power_ok
    rep1 = slim_xi_checks(SkewShape([9, 8, 7, 6], [1]))
    assert rep1.xi == 4  # single-cell inner slides down the main diagonal
    rep2 = slim_xi_checks(SkewShape([12, 11, 10, 9], staircase(4)))
    assert rep2.xi == 2 ** comb(4, 2) == 64
    assert rep2.xi == schur_principal(staircase(4), 4)
    with pytest.raises(ValueError):
        slim_xi_checks(SkewShape([4, 4, 3, 2], [2, 1]))


def test_slim_stripe_family():
    for ell in (2, 3, 4):
        rep = slim_xi_checks(slim_stripe(ell))
        assert rep.staircase_power_ok


def test_nhlf_equals_brute(small_connected_shapes):
    for shape in small_connected_shapes[::5]:
        assert nhlf_count(shape) == brute_force_count(shape)


def test_thick_ribbon_hook_product_closed_form():
    # for even k the skew hooks of delta_2k/delta_k multiply to
    # ((2k-1)!!)^k * (1!! 3!! ... (2k-3)!!)
    from skewtab.exact import odd_double_factorial, super_doublefactorial

    for k in (2, 4, 6):
        shape = thick_ribbon(k)
        closed = odd_double_factorial(k) ** k * super_doublefactorial(k - 1)
        assert shape.hook_product() == closed


def test_inverted_hook_identities():
    # the single-cell-wide inverted hooks have binomial counts on the nose
    from fractions import Fraction as F
    from math import comb, factorial

    from skewtab.exact import jacobi_trudi_count, naive_hlf
    from skewtab.shapes import inverted_hook

    for k in range(1, 6):
        shape = inverted_hook(k)
        assert shape.size == 2 * k + 1
        assert jacobi_trudi_count(shape) == comb(2 * k, k)
        assert xi_determinant(shape) == comb(2 * k, k)
        assert naive_hlf(shape) == F(factorial(2 * k + 1), factorial(k + 1) ** 2)


def test_oracles_extend_to_disconnected_shapes():
    # the determinant, the hook sum and the excited determinant all remain
    # valid without connectivity (e.g. corner-to-corner rectangle pairs)
    from skewtab.exact import jacobi_trudi_count
    from skewtab.shapes import Partition, SkewShape, partitions_of, subpartitions

    checked = 0
    for m in range(1, 8):
        for parts in partitions_of(m):
            lam = Partition(parts)
            for mu in subpartitions(lam):
                shape = SkewShape(lam, mu)
                if shape.size == 0 or shape.is_connected():
                    continue
                checked += 1
                jt = jacobi_trudi_count(shape)
                assert jt == brute_force_count(shape) == nhlf_count(shape)
                assert xi_determinant(shape) == len(enumerate_excited(shape))
    assert checked > 100
