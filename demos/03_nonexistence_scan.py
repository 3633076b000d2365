#!/usr/bin/env python3
"""Nonexistence by coefficient scan.

The forced shadow coefficient b_{m+1} is a negative prefactor times an
integer polynomial f(m), so it goes permanently negative once m passes
the largest real root of f.  Up to that root the full enumerator must be
checked coefficient by coefficient; the scan does this with exact scaled
integer arithmetic.  Admissibility (all coefficients nonnegative
integers) stops at m = 154, 155, 159 for the three unique families, well
before the root brackets at 231, 174, 236.

Scanning everything up to the brackets takes a few minutes; this demo
reproduces the boundary rows and the brackets only.
"""

from minshadow import admissible_at, f_poly, family_case, largest_root_bracket
from minshadow.exact import poly_eval

for tag, boundary in (("24m+2", 154), ("24m+4", 155), ("24m+10", 159)):
    case = family_case(tag)
    f = f_poly(case)
    lo, hi = largest_root_bracket(f)
    print(f"family {tag}")
    print(f"   f coefficients (ascending): {f}")
    print(f"   largest root of f in ({lo}, {hi}); "
          f"f({lo}) = {poly_eval(f, lo)}, f({hi}) = {poly_eval(f, hi)}")
    for m in (boundary - 1, boundary, boundary + 1, boundary + 2):
        res = admissible_at(case, m)
        if res.ok:
            print(f"   m={m}: admissible")
        else:
            print(f"   m={m}: NOT admissible, first failure at "
                  f"{res.side}[{res.index}] = {res.value}")
    print()
