#!/usr/bin/env python3
"""One-parameter enumerator families at n = 22, 30, 46, 54, 70.

For lengths 24m+6 and 24m+22 the pins leave a single degree of freedom:
an integer beta, normalized so the one undetermined Gleason coefficient
equals beta times the anti-diagonal entry of the inverse shadow block.
Nonnegativity plus at least one minimal-weight shadow vector confines
beta to an interval.
"""

from minshadow import beta_range, solve
from minshadow.cli import affine_text
from minshadow.solver import beta_family_for_length


def series(enum, side, terms=4):
    fam = enum.fam
    vec = enum.a if side == "a" else enum.b
    exps = ((2 * i if side == "a" else fam.shadow_exponent(i), v)
            for i, v in enumerate(vec))
    shown = []
    for exp, v in exps:
        if not any(v):
            continue
        body = affine_text(v)     # v = (p, q), the value p + q*beta
        if " " in body:
            body = f"({body})"
        if exp == 0:
            shown.append(body)
        else:
            shown.append(f"y^{exp}" if body == "1" else f"{body} y^{exp}")
        if len(shown) == terms:
            break
    return " + ".join(shown) + " + ..."


for n in (22, 30, 46, 54, 70):
    case, m = beta_family_for_length(n)
    enum = solve(case, m)
    lo, hi = beta_range(case, m)
    print(f"n = {n} (family {case.tag}, m = {m}), beta in [{lo}, {hi}]")
    print(f"   W_C = {series(enum, 'a')}")
    print(f"   W_S = {series(enum, 'b')}")
    edge = enum.substitute(lo)
    print(f"   at beta = {lo}: W_C = {series(edge, 'a')}")
    print()
