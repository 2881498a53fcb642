"""Hook integrals over piecewise-linear limit shapes.

The integral of log(arm + leg) over a scaled diagram drives the second-order
term of the count.  Midpoint quadrature with a refinement check reproduces
the three unit-square closed forms to 1e-4 and handles non-rectangular
regions (square-minus-corner, thick L) through the boundary inverse.  The
cells of each grid column sum in closed form, as a difference of two
lgamma values, so the quadrature needs only the standard library.
"""

from math import log, sqrt

from skewtab import StableShape, corner_constants, hook_integral, unit_box_log_integral

c1, c2, c3 = corner_constants()
print("closed forms:")
print(f"  integral of log(x+y)   over the unit square = 2 log 2 - 3/2   = {c1:+.6f}")
print(f"  integral of log(1+x+y) = 9/2 log 3 - 4 log 2 - 3/2            = {c2:+.6f}")
print(f"  integral of log(2+x+y) = 18 log 2 - 9 log 3 - 3/2             = {c3:+.6f}")

print("\nmidpoint quadrature at grid 512:")
for shift, want in ((0.0, c1), (1.0, c2), (2.0, c3)):
    got = unit_box_log_integral(shift, 512)
    print(f"  shift {shift}: {got:+.6f}  (error {abs(got - want):.2e})")

# Real shapes: the hook integrand is (omega(x) - y) + (omega^-1(y) - x).
square = StableShape.unit_square()
print(f"\nunit square hook integral      = {hook_integral(square):+.6f}  (= c1)")

hook = StableShape.inverted_thick_hook()
want = -0.5 * log(3) + (c1 + 2 * c2) / 3
print(f"inverted thick hook (area 1)   = {hook_integral(hook):+.6f}  "
      f"(closed form {want:+.6f})")

ell = StableShape.thick_l()
want_l = -0.5 * log(3) + (2 * c1 + c3) / 3
print(f"thick L, its 180-degree twin   = {hook_integral(ell):+.6f}  "
      f"(closed form {want_l:+.6f})")

print("\nthe two regions have equal cell counts but different hook integrals:")
print("rotation preserves the number of fillings, not the hook profile")
