"""Exhaustive small-shape verification sweeps.

Shared between the command-line `verify` subcommand and the acceptance test
suite.  Every check here is exact; a sweep returns the list of failure
descriptions (empty means the invariants held everywhere).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .bounds import bounds_report
from .errors import CapExceeded
from .exact import DEFAULT_BRUTE_CAP, brute_force_count, jacobi_trudi_count
from .excited import (
    enumerate_excited,
    nhlf_count,
    xi_bounds,
    xi_path_count,
)
from .shapes import Partition, SkewShape, partitions_of, quote_prefix, shape_text, subpartitions


def skew_shapes(max_size: int, connected_only: bool = True) -> Iterator[SkewShape]:
    """All skew shapes outer/inner with |outer| <= max_size, nonempty cell set."""
    for m in range(1, max_size + 1):
        for parts in partitions_of(m):
            lam = Partition._trusted(parts)
            for mu in subpartitions(lam):
                shape = SkewShape._trusted(lam, mu)
                if shape.size == 0:
                    continue
                if connected_only and not shape.is_connected():
                    continue
                yield shape


@dataclass
class SweepResult:
    name: str
    checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def oracle_sweep(max_size: int = 8, progress: Callable | None = None) -> SweepResult:
    """Counting routes must agree: determinant = brute force = hook sum, and
    xi by the path count must match the enumeration, which checks itself
    against the flag determinant.

    The brute-force cap is checked before the first shape."""
    _check_brute_cap(max_size)
    checked = 0
    failures = []
    for shape in skew_shapes(max_size):
        checked += 1
        jt = jacobi_trudi_count(shape)
        bf = brute_force_count(shape)
        nh = nhlf_count(shape)
        xp = xi_path_count(shape)
        if not (jt == bf == nh):
            failures.append(f"{shape_text(shape)}: counts disagree jt={jt} bf={bf} nhlf={nh}")
        # The cell cap never stops a sweep halfway: a diagram is |inner| of
        # the |outer| <= 24 cells (the brute-force cap), so xi * |inner| is at
        # most |inner| * C(|outer|, |inner|) = |outer| * C(|outer| - 1,
        # |inner| - 1) <= 24 * C(23, 11), about 3.2e7 < 10^8, the default cap.
        try:
            xe = len(enumerate_excited(shape))
        except ArithmeticError as exc:  # the enumeration disagrees with the flag determinant
            failures.append(f"{shape_text(shape)}: {exc}")
        else:
            if xp != xe:
                failures.append(f"{shape_text(shape)}: xi paths={xp} enum={xe}")
        if progress:
            progress(checked)
    return SweepResult("oracles", checked, failures)


def _check_brute_cap(max_size: int) -> None:
    if max_size > DEFAULT_BRUTE_CAP:
        raise CapExceeded(
            f"brute-force count needs n <= {DEFAULT_BRUTE_CAP}; "
            f"the oracle sweep reaches n = {max_size}"
        )


def bounds_sweep(max_size: int = 8, progress: Callable | None = None) -> SweepResult:
    """Every bound verdict must hold on every shape."""
    checked = 0
    failures = []
    for shape in skew_shapes(max_size):
        checked += 1
        report = bounds_report(shape)
        bad = [name for name, ok in report.verdicts.items() if not ok]
        if bad:
            failures.append(f"{shape_text(shape)}: failed {','.join(bad)}")
        lo, hi = xi_bounds(shape)
        if not (report.xi <= lo and report.xi <= hi):
            failures.append(f"{shape_text(shape)}: xi bound violated")
        if progress:
            progress(checked)
    return SweepResult("bounds", checked, failures)


SWEEP_GROUPS = {
    "oracles": oracle_sweep,
    "bounds": bounds_sweep,
}


def run_suite(max_size: int = 8, groups=("oracles", "bounds")) -> list[SweepResult]:
    """Run the named sweeps in order; names and caps are checked before any group runs."""
    for name in groups:
        if name not in SWEEP_GROUPS:
            raise ValueError(f"unknown verify group {quote_prefix(name)}")
    if "oracles" in groups:
        _check_brute_cap(max_size)
    return [SWEEP_GROUPS[name](max_size) for name in groups]
