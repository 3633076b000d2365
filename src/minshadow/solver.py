"""Minimal-shadow constraint systems and nonexistence machinery.

For a singly even self-dual [n, n/2, d] code with minimal shadow the
low-order coefficients of both enumerators are forced: a_0 = 1 and all
code coefficients vanish below the minimum weight; the shadow has no
vector below weight d(S), a single vector of weight d(S) whenever
2 d(S) < d, and no weights strictly between d(S) and d - d(S) (two
shadow vectors sum to a nonzero codeword, so their weights cannot both
be small).  The pins are built by weight, so d(S) = 4 at n = 0 (mod 8)
lands in slot 1.  Those pins, together with the coincidence
a_{d/2} = b_{(d-2)/4} that holds when n = 2 (mod 8) and d = 2 (mod 4),
determine the Gleason coefficients uniquely for the families 24m+2,
24m+4 and 24m+10, and up to one integer parameter beta for 24m+6 and
24m+22.

solve() and the scan path take the Gleason coefficients from one
derivation, _gleason: closed forms for the unique families (the code
column, then the shadow tail in one exact ratio walk), and for the two
beta families a linear solve of the pinned shadow rows, built as signed
binomials over the tail c_{d/2}..c_K, and the beta row c_{d/2} = beta
times its anti-diagonal unit, on a two-column right-hand side (the
constant term and the beta coefficient), so that each coefficient is an
exact pair (p, q) for p + q beta.  Both expand them with the one kernel
gleason.expand_scaled and verify the pins with one check; one loop
certifies the scan by its first negative or non-integer coefficient.
Every length splits as n = 24m + 8l + 2r through gleason.FamilyParams.
The integer polynomials f(m) and g(m), whose signs decide b_{m+1} and
a_{2m+4}, share one exact root locator, largest_root_bracket.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import (VerificationFailure, exact_div, parametric_linear_solve,
                    poly_eval, taylor_shift)
from .gleason import (FamilyParams, ParametricEnumerator, code_inverse_col0,
                      enumerators_from_gleason, expand_scaled,
                      shadow_inverse_col0)


class EmptyBetaRangeError(ValueError):
    """Raised when no integer beta yields an admissible enumerator."""


def minimal_shadow_r(n: int) -> int:
    """Required shadow minimum weight for a minimal-shadow code of length n:
    4, 1, 2, 3 according to n = 0, 2, 4, 6 (mod 8), that is r, or 4 at r = 0."""
    return FamilyParams.from_length(n).r or 4


def rains_bound(n: int) -> int:
    """Upper bound on the minimum weight of a self-dual code of length n:
    4 floor(n/24) + 4, raised to +6 when n = 22 (mod 24)."""
    fam = FamilyParams.from_length(n)
    return 4 * fam.m + (6 if (fam.l, fam.r) == (2, 3) else 4)


@dataclass(frozen=True)
class FamilyCase:
    """One of the five length families, with its target minimum weight."""

    tag: str
    l: int
    r: int
    d_add: int          # d = 4m + d_add
    min_m: int
    parametrized: bool  # True when the enumerator keeps one free parameter

    def n(self, m: int) -> int:
        return FamilyParams(m, self.l, self.r).n

    def d(self, m: int) -> int:
        return 4 * m + self.d_add

    def params(self, m: int) -> FamilyParams:
        if m < self.min_m:
            raise ValueError(f"family {self.tag} requires m >= {self.min_m}, got {m}")
        return FamilyParams(m, self.l, self.r)


FAMILY_CASES: dict[str, FamilyCase] = {
    "24m+2": FamilyCase("24m+2", 0, 1, 2, 1, False),
    "24m+4": FamilyCase("24m+4", 0, 2, 2, 1, False),
    "24m+6": FamilyCase("24m+6", 0, 3, 2, 1, True),
    "24m+10": FamilyCase("24m+10", 1, 1, 2, 1, False),
    "24m+22": FamilyCase("24m+22", 2, 3, 4, 0, True),
}

UNIQUE_FAMILIES = tuple(t for t, c in FAMILY_CASES.items() if not c.parametrized)
BETA_FAMILIES = tuple(t for t, c in FAMILY_CASES.items() if c.parametrized)


def family_case(tag: str) -> FamilyCase:
    try:
        return FAMILY_CASES[tag]
    except KeyError:
        raise ValueError(
            f"unknown family {tag!r}; expected one of {sorted(FAMILY_CASES)}"
        ) from None


def beta_family_for_length(n: int) -> tuple[FamilyCase, int]:
    """The parametrized family case and m for a length n = 22, 30, 46, ..."""
    fam = FamilyParams.from_length(n)
    for tag in BETA_FAMILIES:
        case = FAMILY_CASES[tag]
        if (case.l, case.r) == (fam.l, fam.r) and fam.m >= case.min_m:
            return case, fam.m
    raise ValueError(f"length {n} is not in a parametrized family")


# ---------------------------------------------------------------------------
# constraint systems


@dataclass(frozen=True)
class ConstraintSet:
    """Pinned coefficients and couplings defining a minimal-shadow system."""

    pinned_a: dict[int, int]                    # index -> pinned 0 or 1
    pinned_b: dict[int, int]
    equalities: tuple[tuple[int, int], ...]     # (a index, b index) forced equal


def minimal_shadow_constraints(case: FamilyCase, m: int) -> ConstraintSet:
    """Low-order pins for a minimal-shadow [n, n/2, d] enumerator, by
    weight, with d(S) = minimal_shadow_r(n).

    a_0 = 1 and a_1..a_{(d-2)/2} = 0 from the minimum weight.  On the
    shadow side b = 0 below weight d(S); b = 1 at weight d(S), slot
    (d(S) - r)/4, exactly when two distinct minimal shadow vectors would
    sum to a nonzero codeword below the minimum weight (2 d(S) < d),
    else that slot stays free; and b = 0 strictly between weights d(S)
    and d - d(S).
    """
    fam = case.params(m)
    d = case.d(m)
    ds = minimal_shadow_r(fam.n)
    s = (ds - fam.r) // 4
    pinned_a = {0: 1} | dict.fromkeys(range(1, d // 2), 0)
    pinned_b = (dict.fromkeys(range(s), 0) | ({s: 1} if 2 * ds < d else {})
                | dict.fromkeys(range(s + 1, (d - ds - fam.r + 3) // 4), 0))
    equalities: tuple[tuple[int, int], ...] = ()
    if fam.n % 8 == 2 and d % 4 == 2:
        equalities = ((d // 2, (d - 2) // 4),)
    return ConstraintSet(pinned_a, pinned_b, equalities)


def _gleason(case: FamilyCase, m: int) -> list:
    """Gleason coefficients c_0..c_K of the minimal-shadow enumerator.

    The code pins fix c_0..c_{d/2-1}: the first d/2 entries of
    code_inverse_col0.  The shadow block is anti-triangular, so every
    pinned shadow row and the beta slot touch only c_{d/2}..c_K.  The
    unique families take those from column 0 of the inverse shadow block,
    rows d/2..K, in one ratio walk (shadow_inverse_col0).  For l = 1 the
    coincidence a_{d/2} = b_m sets c_{d/2} = col[d/2] + a_{d/2}, which the
    shadow side makes walk_{d/2} + S b_m, S = -2 the entry (d/2, m) of the
    inverse shadow block: a_{d/2} = (walk_{d/2} - col[d/2]) / (1 - S), and
    1 - S = 3.  The shadow pins and the coincidence are triangular in
    c_{d/2}..c_K, so the pin check of solve and admissible_at still meets
    every tail entry.
    The beta families solve the pinned shadow rows and the beta row on a
    two-column right-hand side, so every coefficient comes back as a
    (constant, beta coefficient) pair.  The unknowns are
    y_j = (-1)^j 2^(n/2-6j) c_j, j = d/2..K, so shadow row i holds the
    integer (-1)^t C(2j, t) at t = i - K + j >= 0, with lead 1 at
    j = K - i; in ascending i each row meets only the stored unit rows
    of its later columns, so the elimination sees no fill-in.  The pins
    fill the shadow slots 0..K-h-1 and the beta row is y_h = beta:
    c_h = beta (-1)^h 2^(6h - n/2), the anti-diagonal entry (h, K - h) of
    the inverse shadow block, since the free slot is K - h.
    """
    fam = case.params(m)
    h = case.d(m) // 2
    col = code_inverse_col0(fam, h)
    if not case.parametrized:
        c = col[:h] + shadow_inverse_col0(fam, h)
        if case.l == 1:
            c[h] = col[h] + Fraction(c[h] - col[h], 3)    # int / 3 would be a float
        return c
    k_top, tail = fam.c_count - 1, range(h, fam.c_count)
    unit = [exact_div((-1) ** j << max(e, 0), 1 << max(-e, 0))   # c_j / y_j
            for j in tail for e in (6 * j - fam.half,)]
    pins = sorted(minimal_shadow_constraints(case, m).pinned_b.items())
    rows = [[(-1) ** t * math.comb(2 * j, t) if t >= 0 else 0
             for j, t in zip(tail, range(i - k_top + h, i + 1))] for i, _ in pins]
    rows.append([int(j == h) for j in tail])
    y = parametric_linear_solve(rows, [(v, 0) for _, v in pins] + [(0, 1)])
    return [(x, 0) for x in col[:h]] + [(p * u, q * u) for u, (p, q) in zip(unit, y)]


def solve(case: FamilyCase, m: int) -> ParametricEnumerator:
    """Exact minimal-shadow enumerator for (case, m): the expansion of
    _gleason(case, m), which admissible_at uses too, with every pin and
    coincidence checked on both components of each (p, q) pair.  It keeps
    exactly the parameter beta for 24m+6 and 24m+22, normalized as in
    _gleason to reproduce the conventional printed parametrizations, and
    none (q = 0) for the other families.
    """
    enum = enumerators_from_gleason(_gleason(case, m), case.params(m))
    cs = minimal_shadow_constraints(case, m)
    for k in (0, 1):
        _check_pins(case, m, cs, [x[k] for x in enum.a], 1,
                    [x[k] for x in enum.b], 1, beta_part=bool(k))
    return enum


def _check_pins(case: FamilyCase, m: int, cs: ConstraintSet, a: Sequence, da: int,
                b: Sequence, db: int, beta_part: bool = False) -> None:
    """Raise VerificationFailure unless a[i]/da and b[i]/db meet every pin
    and coincidence of cs: x = v dx for an entry x/dx pinned to v (0 in
    the beta part), x dy = y dx for a coincidence x/dx = y/dy.  Only a
    failure builds a Fraction, for its message."""
    def fail(s, i, x, dx, y, dy):
        part = "beta part of " if beta_part else ""
        raise VerificationFailure(f"{case.tag}, m={m}: {part}{s}[{i}] = "
                                  f"{Fraction(x, dx)}, expected {Fraction(y, dy)}")

    for s, vec, dx, pins in (("a", a, da, cs.pinned_a), ("b", b, db, cs.pinned_b)):
        for i, v in (dict.fromkeys(pins, 0) if beta_part else pins).items():
            if vec[i] != v * dx:
                fail(s, i, vec[i], dx, v, 1)
    for ai, bi in cs.equalities:
        if a[ai] * db != b[bi] * da:
            fail("a", ai, a[ai], da, b[bi], db)


# ---------------------------------------------------------------------------
# nonexistence polynomials


_F_POLYS = {
    "24m+2": (1, -14, 46, 2812, -14816, 64),
    "24m+4": (6, 88, 1171, 5440, -33020, -212096, 1216),
    "24m+10": (-105, -1511, -7924, -18036, -15040, 64),
}


def f_poly(case: FamilyCase) -> tuple[int, ...]:
    """Coefficients, in ascending powers of m, of the integer polynomial f
    with sign(b_{m+1}) = -sign(f(m)): b_{m+1} is a negative prefactor
    times f(m) (its closed form is a test oracle)."""
    if case.tag not in _F_POLYS:
        raise ValueError(f"no nonexistence polynomial for family {case.tag}")
    return _F_POLYS[case.tag]


_G_POLYS = {
    "24m+2": (45, -1215, 28384, -226980, 901840, -1229760, 7936),
    "24m+4": (-27, -95, 904, -83716, 863600, -3415744, 6959360, -10231808,
              65536),
    "24m+10": (-315, -11799, -113104, -544228, -1315248, -1256384, 7936),
}


def g_poly(case: FamilyCase) -> tuple[int, ...]:
    """Coefficients, in ascending powers of m, of the integer polynomial g
    with sign(a_{2m+4}) = -sign(g(m)), given the closed form of
    a_{2m+4}/a_{2m+1} as -g(m) times a positive rational function of m
    (a_{2m+1} > 0).

    The closed form was fitted by rational interpolation and is verified
    against the exact expansion (the tests check the sign at every
    m <= 40), not proven.  admissible_at uses g only to schedule its
    expansion.
    """
    if case.tag not in _G_POLYS:
        raise ValueError(f"no a_(2m+4) polynomial for family {case.tag}")
    return _G_POLYS[case.tag]


def largest_root_bracket(poly: Sequence[int]) -> tuple[int, int]:
    """The unit interval (t-1, t) around the largest real root of the
    integer polynomial p with coefficients poly, in ascending powers: f's
    bracket for f_poly, g's threshold t for g_poly.

    t is the least t >= 0 with every coefficient of p(t + x) positive,
    so p(t + x) > 0 for every x >= 0, and p(t-1) < 0 is required: a root
    lies in (t-1, t) and none beyond.  Both facts are exact integer
    arithmetic; VerificationFailure if either fails.
    """
    if not poly or poly[-1] <= 0:
        raise VerificationFailure(f"no positive leading coefficient in {poly}")
    t = 0
    while min(taylor_shift(poly, t)) <= 0:
        t += 1
    below = poly_eval(poly, t - 1)
    if below >= 0:
        raise VerificationFailure(f"p({t - 1}) = {below} is not negative")
    return (t - 1, t)


# ---------------------------------------------------------------------------
# admissibility and scans


class Admissibility(NamedTuple):
    ok: bool
    side: str | None        # "a" or "b" for the first offending coefficient
    index: int | None
    value: Fraction | None

    def __bool__(self) -> bool:
        return self.ok


def _certify(sides) -> Admissibility:
    """The first coefficient that is negative or not an integer, over
    (side, numerators, denominator) triples of ints.  With den = odd 2^s,
    den divides v exactly when the low s bits of v are zero and odd
    divides v, so the 2^s part (s about 6m on the shadow side) costs a
    mask, not a long division, and odd = 1 costs nothing."""
    for side, values, den in sides:
        mask = (den & -den) - 1
        odd = den // (mask + 1)
        for i, v in enumerate(values):
            if v < 0 or (mask and v & mask) or (odd > 1 and v % odd):
                return Admissibility(False, side, i, Fraction(v, den))
    return Admissibility(True, None, None, None)


def admissible_at(case: FamilyCase, m: int) -> Admissibility:
    """Admissibility of the unique minimal-shadow enumerator at (case, m).

    The Gleason coefficients come from _gleason, as in solve, and a
    scaled-integer expansion (gleason.expand_scaled) gives both vectors.
    Its pins are checked on the scaled integers as in solve, so a wrong
    closed form raises VerificationFailure; no entry becomes a Fraction
    unless it fails.

    The cost depends on a hint.  Where g(m) > 0 (see g_poly), so that
    a_{2m+4} < 0 given the closed form, the code side is first expanded
    only to degree 2m+4, and the shadow side only to the last pinned
    index (b_m, or b_(m-1) for 24m+4), which the pin check reads.  As
    _certify reads side a first and in index order, an offending entry of
    that window is the certificate of the full expansion.  Otherwise, or
    when the window holds no offending entry, the full expansion decides:
    a wrong hint costs time, never correctness.
    """
    if case.tag not in UNIQUE_FAMILIES:
        raise ValueError(f"scan applies to unique-enumerator families, not {case.tag}")
    c = _gleason(case, m)
    cs = minimal_shadow_constraints(case, m)
    if poly_eval(g_poly(case), m) > 0:
        window = _expand_and_certify(case, m, c, cs, 2 * m + 4)
        if not window.ok:
            return window
    return _expand_and_certify(case, m, c, cs, None)


def _expand_and_certify(case: FamilyCase, m: int, c: list, cs: ConstraintSet,
                        top: int | None) -> Admissibility:
    """Expand c with the code side up to degree top (None: in full), check
    the pins of cs and certify.  A window certifies side a only, so its
    shadow side stops at the last index that a pin or coincidence reads."""
    shadow_top = None if top is None else max(
        [*cs.pinned_b, *(bi for _, bi in cs.equalities)])
    a_hat, da, b_hat, db = expand_scaled(c, case.params(m), top, shadow_top)
    _check_pins(case, m, cs, a_hat, da, b_hat, db)
    sides = [("a", a_hat, da), ("b", b_hat, db)]
    return _certify(sides if top is None else sides[:1])


def nonexistence_scan(case: FamilyCase, m_max: int,
                      jobs: int | None = None) -> list[tuple[int, Admissibility]]:
    """Admissibility certificate of every m in 1..m_max, in m order,
    each m evaluated independently.

    At most min(jobs, usable CPUs, m_max) worker processes run, the
    usable CPUs being those of the process's affinity mask where the
    platform has one (os.sched_getaffinity), else os.cpu_count(); the
    results do not depend on the worker count.  The cost of one m grows
    steeply with m and depends on admissible_at's hint: where g(m) > 0
    the code side is expanded only to degree 2m+4 and the shadow side
    only to its last pinned index, a small fraction of the time of a
    full expansion at the paper's thresholds.  The m are submitted
    largest first, so the costliest chunks do not run last.
    """
    if case.tag not in UNIQUE_FAMILIES:
        raise ValueError(f"scan applies to unique-enumerator families, not {case.tag}")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    ms = range(m_max, 0, -1)
    check = functools.partial(admissible_at, case)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(jobs or 1, cpus, len(ms))
    if workers > 1:
        # imported here: concurrent.futures costs every process about 2 MB
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(check, ms, chunksize=4))
    else:
        results = list(map(check, ms))
    return list(zip(ms, results))[::-1]


def max_admissible(scan: Sequence[tuple[int, Admissibility]]) -> int | None:
    hits = [m for m, ok in scan if ok]
    return max(hits) if hits else None


# ---------------------------------------------------------------------------
# beta ranges


def beta_range(case: FamilyCase, m: int) -> tuple[int, int]:
    """Maximal integer interval of beta giving an admissible enumerator.

    Admissible means every coefficient is a nonnegative integer and the
    shadow coefficient at the minimal weight d(S) is at least 1.
    """
    if not case.parametrized:
        raise ValueError(f"family {case.tag} has a unique enumerator; "
                         "use solve or admissible_at")
    enum = solve(case, m)
    fam = enum.fam
    ds_slot = (minimal_shadow_r(fam.n) - fam.r) // 4
    lows, highs = [], []    # (bound on beta, side, index) of each coefficient
    for side, vec in (("a", enum.a), ("b", enum.b)):
        for i, (p, q) in enumerate(vec):
            need = 1 if (side == "b" and i == ds_slot) else 0
            if q == 0:
                if p < need or p.denominator != 1:
                    raise EmptyBetaRangeError(
                        f"coefficient {side}[{i}] = {p} is never admissible")
                continue
            if p.denominator != 1 or q.denominator != 1:
                raise EmptyBetaRangeError(
                    f"coefficient {side}[{i}] = {p} + {q}*beta is not integral "
                    "on integer beta")
            # p and q are ints here, and int / int would be a float
            (lows if q > 0 else highs).append((Fraction(need - p, q), side, i))
    if not lows or not highs:
        raise VerificationFailure(f"beta is unbounded for {case.tag}, m={m}")
    lo, lo_side, lo_i = max(lows, key=lambda x: x[0])
    hi, hi_side, hi_i = min(highs, key=lambda x: x[0])
    lo, hi = math.ceil(lo), math.floor(hi)
    if lo > hi:
        raise EmptyBetaRangeError(
            f"empty beta interval for {case.tag}, m={m}: {lo_side}[{lo_i}] "
            f"needs beta >= {lo}, {hi_side}[{hi_i}] needs beta <= {hi}")
    return lo, hi
