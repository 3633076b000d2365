#!/usr/bin/env python3
"""Transform tables for length 26: the basis-change matrices between
coefficient vectors and Gleason coefficients.  The bases come from the
expansion kernel and the inverses from their closed forms.

The code-side block is lower unitriangular, so its inverse is integral;
the shadow-side block is anti-triangular with power-of-two leading
entries, so its inverse carries dyadic fractions.  build_transform_tables
already checks basis x inverse = I; the demo multiplies them again.
"""

from minshadow import FamilyParams, build_transform_tables, code_inverse_col0

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
        print("   [" + ", ".join(f"{str(x):>8}" for x in row) + "]")
    print()

print("closed forms for the inverse entries:")
col0 = code_inverse_col0(fam)
for i in range(1, fam.c_count):
    print(f"   code_inverse[{i}][0]  = {col0[i]}")

k = fam.c_count
eye = [[int(i == j) for j in range(k)] for i in range(k)]
for basis, inverse in ((tables.code_basis, tables.code_inverse),
                       (tables.shadow_basis, tables.shadow_inverse)):
    product = [[sum(basis[i][t] * inverse[t][j] for t in range(k))
                for j in range(k)] for i in range(k)]
    assert product == eye
print("   basis x inverse = I for both blocks")
