"""Walk through every count and bound on one skew shape.

The running example is (4,4,3,2)/(2,1): ten cells, small enough to check
everything by hand, rich enough that all six bounds differ.
"""

from skewtab import (
    antidiagonal_chain_sizes,
    bounds_report,
    brute_force_count,
    enumerate_excited,
    jacobi_trudi_count,
    naive_hlf,
    nhlf_count,
    parse_shape,
    xi_determinant,
)

shape = parse_shape("4,4,3,2/2,1")
print(f"shape {shape!r}, n = {shape.size}")

# Three independent routes to the exact number of standard fillings.
print("determinant count :", jacobi_trudi_count(shape))
print("dynamic program   :", brute_force_count(shape))
print("excited hook sum  :", nhlf_count(shape))

# The naive hook-length value F is a lower bound; xi * F an upper bound.
F = naive_hlf(shape)
xi = xi_determinant(shape)
print(f"F = {F}, xi = {xi}, sandwich: {F} <= e <= {xi * F}")

# The excited diagrams behind the hook sum (the inner shape comes first).
for d in enumerate_excited(shape):
    print("  diagram", list(d))

# Classical poset bounds for comparison.
print("chain sizes:", antidiagonal_chain_sizes(shape))

report = bounds_report(shape)
print("lower bounds:", report.lower)
print("upper bounds:", report.upper)
print("all verdicts hold:", report.all_verdicts_hold)
print("log-scale gaps:", {k: round(v, 3) for k, v in report.log_gaps.items()})
