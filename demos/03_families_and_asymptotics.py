"""Second-order asymptotics of the named families, with exact certificates.

For the half-staircase ribbons the exact count is sandwiched between F and
xi * F; on the log scale per cell that pins the second-order constant c_k
inside a closed-form band.  The same machinery runs for squares and the
inverted thick hooks.
"""

from math import log

from skewtab import (
    band_constants,
    family_report,
    macmahon_xi,
    proctor_xi,
    second_order_constant,
    square_shape,
    xi_determinant,
)

band = band_constants("thick-ribbon")
print(f"thick ribbons: c_k must stay inside ({band.lower:.4f}, {band.upper:.4f})")
print("family,k,n,c_k,logF,logXi,verdict")
for row in family_report("thick-ribbon", range(2, 13, 2)):
    print(f"{row.family},{row.k},{row.n},{row.c_k:+.6f},"
          f"{row.log_F:.2f},{row.log_xi:.2f},{row.verdict}")

# the closed product form equals the determinant count
for k in (2, 4, 6):
    from skewtab import thick_ribbon

    assert proctor_xi(k) == xi_determinant(thick_ribbon(k))
print("\nhalf-staircase excited counts match the plane-partition product form")

print("\nsquares: c_k decreasing toward", f"{band_constants('square').exact:.4f}")
for k in range(3, 8):
    print(f"  k={k}: c_k = {second_order_constant(square_shape(k)):+.6f}")

# (2k)^(2k)/k^k has n = 3k^2 cells, so its band is on the scale
# (log e - n log k) / n, which is c_k - ln(3)/2
band = band_constants("inverted-thick-hook")
print(f"\ninverted thick hooks: band ({band.lower:.4f}, {band.upper:.4f}) and limit "
      f"{band.exact:.4f} of (log e - n log k) / n;\n"
      f"  c_k is ln(3)/2 larger and tends to {band.exact + log(3) / 2:.4f}")
print("excited counts are plane partitions in a cube:",
      [macmahon_xi(k) for k in range(1, 6)])
