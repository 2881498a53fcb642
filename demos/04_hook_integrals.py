"""Hook integrals over piecewise-linear limit shapes.

The integral of log(arm + leg) over a scaled diagram drives the second-order
term of the count.  Over the unit square the integrals of log(c + x + y)
have a closed form, unit_box_log_integral(c).  Midpoint quadrature with a
refinement check converges to it at second order and handles
non-rectangular regions (square-minus-corner, thick L) through the boundary
inverse.  The cells of each grid column sum in closed form, as a difference
of two lgamma values, so the quadrature needs only the standard library.
"""

from math import log, sqrt

from skewtab import StableShape, corner_constants, hook_integral

c1, c2, c3 = corner_constants()
print("closed forms, unit_box_log_integral(c) for c = 0, 1, 2:")
print(f"  integral of log(x+y)   over the unit square = 2 log 2 - 3/2   = {c1:+.6f}")
print(f"  integral of log(1+x+y) = 9/2 log 3 - 4 log 2 - 3/2            = {c2:+.6f}")
print(f"  integral of log(2+x+y) = 18 log 2 - 9 log 3 - 3/2             = {c3:+.6f}")

# Real shapes: the hook integrand is (omega(x) - y) + (omega^-1(y) - x).
# On the unit square that is log(2 - x - y), the mirror image of log(x + y).
square = StableShape.unit_square()
print("\nunit square hook integral by midpoint quadrature (closed form c1):")
for grid in (128, 512, 2048):
    got = hook_integral(square, grid)
    print(f"  grid {grid:>4}: {got:+.6f}  (error {abs(got - c1):.2e})")

hook = StableShape.inverted_thick_hook()
want = -0.5 * log(3) + (c1 + 2 * c2) / 3
print(f"\ninverted thick hook (area 1)   = {hook_integral(hook):+.6f}  "
      f"(closed form {want:+.6f})")

ell = StableShape.thick_l()
want_l = -0.5 * log(3) + (2 * c1 + c3) / 3
print(f"thick L, its 180-degree twin   = {hook_integral(ell):+.6f}  "
      f"(closed form {want_l:+.6f})")

print("\nthe two regions have equal cell counts but different hook integrals:")
print("rotation preserves the number of fillings, not the hook profile")
