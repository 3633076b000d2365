#!/usr/bin/env python3
"""The unique minimal-shadow enumerators for lengths 24m+2, 24m+4, 24m+10.

For these families the low-order pins determine every Gleason
coefficient, so each length has exactly one candidate weight enumerator.
The first shadow coefficients beyond the pins, b_m and b_{m+1}, also
have closed forms; the solver and the closed forms must agree exactly.
"""

from minshadow import (closed_form_a2m1, closed_form_bm, closed_form_bm1,
                       family_case, solve)

for tag in ("24m+2", "24m+4", "24m+10"):
    case = family_case(tag)
    print(f"family {tag}")
    for m in (1, 2, 3):
        enum = solve(case, m)
        fam = enum.fam
        (bm, _), (bm1, _) = enum.b[m], enum.b[m + 1]     # (p, q): q = 0 here
        assert bm == closed_form_bm(case, m)
        assert bm1 == closed_form_bm1(case, m)
        line = (f"   n={fam.n}: d={case.d(m)},  "
                f"b at y^{fam.shadow_exponent(m)} = {bm},  "
                f"b at y^{fam.shadow_exponent(m + 1)} = {bm1}")
        if tag == "24m+10":
            a, _ = enum.a[2 * m + 1]
            assert a == closed_form_a2m1(m) == bm
            line += f",  a at y^{2 * (2 * m + 1)} = {a} (= b_m)"
        print(line)
    print()

print("cross-check at m = 1: 20/1575, 78, 6/1576 as expected")
