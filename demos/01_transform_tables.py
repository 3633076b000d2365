#!/usr/bin/env python3
"""Transform tables for length 26: the basis-change matrices between
coefficient vectors and Gleason coefficients, and the closed forms that
reproduce their first columns.

The code-side block is lower unitriangular, so its inverse is integral;
the shadow-side block is anti-triangular with power-of-two leading
entries, so its inverse carries dyadic fractions.
"""

from minshadow import (FamilyParams, build_transform_tables,
                       code_inverse_col0, shadow_inverse_entry)
from minshadow.exact import format_exact

fam = FamilyParams.from_length(26)
print(f"n = {fam.n}: m={fam.m}, l={fam.l}, r={fam.r}, "
      f"{fam.c_count} Gleason coefficients\n")

tables = build_transform_tables(fam)
for name, mat in (("code basis (columns = basis polynomials)", tables.code_basis),
                  ("code inverse", tables.code_inverse),
                  ("shadow basis", tables.shadow_basis),
                  ("shadow inverse", tables.shadow_inverse)):
    print(name)
    for row in mat:
        print("   [" + ", ".join(f"{format_exact(x):>8}" for x in row) + "]")
    print()

print("closed forms for the inverse entries:")
col0 = code_inverse_col0(fam)
for i in range(1, fam.c_count):
    v = col0[i]
    assert v == tables.code_inverse[i][0]
    print(f"   code_inverse[{i}][0]  = {format_exact(v)}")
for i in range(1, fam.c_count):
    for j in range(fam.c_count - i):
        v = shadow_inverse_entry(i, j, fam)
        assert v == tables.shadow_inverse[i][j]
print("   shadow_inverse[i][j] matches on the whole support i + j <= K")
