#!/usr/bin/env python3
"""End-to-end verification of the bundled [46,23,8] circulant code and
its ten recorded self-dual neighbors with minimal shadow.

Each neighbor comes from one even-weight vector x: the new code is
spanned by the x-orthogonal subcode together with x itself.  Every
neighbor's words of weight at most 10 are counted from two information
sets (44 552 combinations of at most 5 rows each, not 2^23 codewords),
they fix its Gleason coefficients, one expansion of those gives its
weight distribution and its shadow's, and both are matched against the
one-parameter length-46 enumerator, which pins its beta.
"""

import time

from minshadow import (min_weight, parity_class, reference_code_46, shadow,
                       verify_neighbor_table)

t0 = time.time()
base = reference_code_46()
print(f"base code: [{base.n}, {base.k}, {min_weight(base)}], "
      f"{parity_class(base)}, shadow minimum weight "
      f"{shadow(base).min_weight} (not minimal)\n")

checks = verify_neighbor_table()
print(f"{'code':>8} {'beta':>5} {'d':>3} {'d(S)':>5}  support of x")
for c in checks:
    print(f"  N46,{c.index:<3} {c.beta:>5} {c.min_weight:>3} "
          f"{c.shadow_min_weight:>5}  {{{', '.join(map(str, c.support))}}}")

print(f"\n{sum(c.ok for c in checks)}/{len(checks)} verified "
      f"in {time.time() - t0:.1f}s")
