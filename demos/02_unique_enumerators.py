#!/usr/bin/env python3
"""The unique minimal-shadow enumerators for lengths 24m+2, 24m+4, 24m+10.

For these families the low-order pins determine every Gleason
coefficient, so each length has exactly one candidate weight enumerator.
The first shadow coefficients beyond the pins are b_m and b_{m+1}; b_{m+1}
is a negative prefactor times an integer polynomial f(m), so its sign is
the opposite of f(m)'s, and in 24m+10 the code coefficient a_{2m+1} at
the minimum weight equals b_m.  The demo asserts both from the solver.
"""

from minshadow import f_poly, family_case, solve
from minshadow.exact import poly_eval


def sign(x) -> int:
    return (x > 0) - (x < 0)


at_m1 = {}
for tag in ("24m+2", "24m+4", "24m+10"):
    case = family_case(tag)
    print(f"family {tag}")
    for m in (1, 2, 3):
        enum = solve(case, m)
        fam = enum.fam
        (bm, _), (bm1, _) = enum.b[m], enum.b[m + 1]     # (p, q): q = 0 here
        assert sign(bm1) == -sign(poly_eval(f_poly(case), m))
        if m == 1:
            at_m1[tag] = (bm, bm1)
        line = (f"   n={fam.n}: d={case.d(m)},  "
                f"b at y^{fam.shadow_exponent(m)} = {bm},  "
                f"b at y^{fam.shadow_exponent(m + 1)} = {bm1}")
        if tag == "24m+10":
            a, _ = enum.a[2 * m + 1]
            assert a == bm
            line += f",  a at y^{2 * (2 * m + 1)} = {a} (= b_m)"
        print(line)
    print()

# the values of the line below, from the solver
assert (at_m1["24m+2"], at_m1["24m+4"][0], at_m1["24m+10"]) == \
    ((20, 1575), 78, (6, 1576))
print("cross-check at m = 1: 20/1575, 78, 6/1576 as expected")
