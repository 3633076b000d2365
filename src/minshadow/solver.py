"""Minimal-shadow constraint systems and nonexistence machinery.

For a singly even self-dual [n, n/2, d] code with minimal shadow the
low-order coefficients of both enumerators are forced: a_0 = 1 and all
code coefficients vanish below the minimum weight; the shadow has a
single vector of weight d(S) whenever 2 d(S) < d, and no weights
strictly between d(S) and d - d(S) (two shadow vectors sum to a nonzero
codeword, so their weights cannot both be small).  Those pins, together
with the coincidence a_{d/2} = b_{(d-2)/4} that holds when n = 2 (mod 8)
and d = 2 (mod 4), determine the Gleason coefficients uniquely for the
families 24m+2, 24m+4 and 24m+10, and up to one integer parameter beta
for 24m+6 and 24m+22.

solve() finds the Gleason coefficients from the linear system; the scan
path takes them from the closed forms instead.  Both expand them with
the one scaled-integer kernel gleason.expand_scaled, and one loop
certifies the result by its first negative or non-integer coefficient.
The closed forms for b_m, b_{m+1} and the degree-five/six integer
polynomials f(m) controlling the sign of b_{m+1} are provided alongside.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import (AffineForm, LinearSystemError, VerificationFailure,
                    binomial, parametric_linear_solve, poly_eval)
from .gleason import (FamilyParams, ParametricEnumerator, _code_basis_block,
                      code_inverse_col0, enumerators_from_gleason,
                      expand_scaled, shadow_basis_column, shadow_inverse_entry)

BETA = "beta"


class FreeParameterError(ValueError):
    """Raised when a parametrized enumerator is used where a concrete one
    is required; substitute beta first (see beta_range)."""


class EmptyBetaRangeError(ValueError):
    """Raised when no integer beta yields an admissible enumerator."""


def minimal_shadow_r(n: int) -> int:
    """Required shadow minimum weight for a minimal-shadow code of length n:
    4, 1, 2, 3 according to n = 0, 2, 4, 6 (mod 8)."""
    if n <= 0 or n % 2:
        raise ValueError(f"length must be a positive even integer, got {n}")
    return {0: 4, 2: 1, 4: 2, 6: 3}[n % 8]


def rains_bound(n: int) -> int:
    """Upper bound on the minimum weight of a self-dual code of length n:
    4 floor(n/24) + 4, raised to +6 when n = 22 (mod 24)."""
    if n <= 0 or n % 2:
        raise ValueError(f"length must be a positive even integer, got {n}")
    return 4 * (n // 24) + (6 if n % 24 == 22 else 4)


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
        return 24 * m + 8 * self.l + 2 * self.r

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

UNIQUE_FAMILIES = ("24m+2", "24m+4", "24m+10")


def family_case(tag: str) -> FamilyCase:
    try:
        return FAMILY_CASES[tag]
    except KeyError:
        raise ValueError(
            f"unknown family {tag!r}; expected one of {sorted(FAMILY_CASES)}"
        ) from None


def beta_family_for_length(n: int) -> tuple[FamilyCase, int]:
    """The parametrized family case and m for a length n = 22, 30, 46, ..."""
    for tag in ("24m+6", "24m+22"):
        case = FAMILY_CASES[tag]
        base = 8 * case.l + 2 * case.r
        if (n - base) % 24 == 0 and (n - base) // 24 >= case.min_m:
            return case, (n - base) // 24
    raise ValueError(f"length {n} is not in a parametrized family")


# ---------------------------------------------------------------------------
# constraint systems


@dataclass(frozen=True)
class ConstraintSet:
    """Pinned coefficients and couplings defining a minimal-shadow system."""

    pinned_a: dict[int, Fraction]
    pinned_b: dict[int, Fraction]
    equalities: tuple[tuple[int, int], ...]     # (a index, b index) forced equal
    free: tuple[tuple[str, str, int], ...]      # (name, "a" or "b", index)


def minimal_shadow_constraints(case: FamilyCase, m: int) -> ConstraintSet:
    """Low-order pins for a minimal-shadow [n, n/2, d] enumerator.

    a_0 = 1 and a_1..a_{(d-2)/2} = 0 from the minimum weight; b_0 = 1
    exactly when two distinct minimal shadow vectors would sum to a
    nonzero codeword below the minimum weight (2 d(S) < d), otherwise
    b_0 stays free; and b_i = 0 while 0 < 4i + r < d - d(S).  For the
    parametrized families the first unpinned shadow slot carries the
    free parameter beta.
    """
    fam = case.params(m)
    d = case.d(m)
    ds = minimal_shadow_r(fam.n)
    pinned_a: dict[int, Fraction] = {0: Fraction(1)}
    for i in range(1, (d - 2) // 2 + 1):
        pinned_a[i] = Fraction(0)
    pinned_b: dict[int, Fraction] = {}
    if 2 * ds < d:
        pinned_b[0] = Fraction(1)
    i = 1
    while 4 * i + fam.r < d - ds:
        pinned_b[i] = Fraction(0)
        i += 1
    equalities: tuple[tuple[int, int], ...] = ()
    if fam.n % 8 == 2 and d % 4 == 2:
        equalities = ((d // 2, (d - 2) // 4),)
    free: tuple[tuple[str, str, int], ...] = ()
    if case.parametrized:
        slot = 0
        while slot in pinned_b:
            slot += 1
        free = ((BETA, "b", slot),)
    return ConstraintSet(pinned_a, pinned_b, equalities, free)


def solve(case: FamilyCase, m: int) -> ParametricEnumerator:
    """Exact minimal-shadow enumerator for (case, m).

    Assembles the pinned-coefficient equations in the Gleason
    coefficients and solves them with the parametric linear solver; the
    result has no free parameters for 24m+2, 24m+4 and 24m+10 and
    exactly the parameter beta for 24m+6 and 24m+22.  For the
    parametrized families beta is normalized so that the single
    undetermined Gleason coefficient c_{K-s} equals beta times the
    anti-diagonal entry of the inverse shadow block, s being the free
    shadow slot; this reproduces the conventional printed parametrizations.
    """
    fam = case.params(m)
    cs = minimal_shadow_constraints(case, m)
    k = fam.c_count
    k_top = k - 1

    code_cols = _code_basis_block(fam)
    shadow_cols = [shadow_basis_column(j, fam) for j in range(k)]

    rows: list[list[Fraction]] = []
    rhs: list[AffineForm] = []
    for i, v in sorted(cs.pinned_a.items()):
        rows.append([Fraction(code_cols[j][i]) for j in range(k)])
        rhs.append(AffineForm(v))
    for i, v in sorted(cs.pinned_b.items()):
        rows.append([shadow_cols[j][i] for j in range(k)])
        rhs.append(AffineForm(v))
    for ai, bi in cs.equalities:
        rows.append([Fraction(code_cols[j][ai]) - shadow_cols[j][bi]
                     for j in range(k)])
        rhs.append(AffineForm(0))
    for name, side, slot in cs.free:
        if side != "b":
            raise ValueError("free parameters are declared on shadow slots")
        istar = k_top - slot
        row = [Fraction(0)] * k
        row[istar] = Fraction(1)
        rows.append(row)
        rhs.append(AffineForm.parameter(name, shadow_inverse_entry(istar, slot, fam)))

    unknowns = [f"c{i}" for i in range(k)]
    try:
        solution, free_names = parametric_linear_solve(rows, rhs, unknowns)
    except LinearSystemError as exc:  # pragma: no cover - implementation fault
        raise LinearSystemError(
            f"inconsistent minimal-shadow constraints for {case.tag}, m={m}: {exc}"
        ) from exc
    leftover = [n for n in free_names if n.startswith("c")]
    if leftover:  # pragma: no cover - implementation fault
        raise LinearSystemError(
            f"underdetermined system for {case.tag}, m={m}: {leftover} free")

    c = [solution[name] for name in unknowns]
    enum = enumerators_from_gleason(c, fam)

    checks = [(f"a[{i}]", enum.a[i], v) for i, v in cs.pinned_a.items()]
    checks += [(f"b[{i}]", enum.b[i], v) for i, v in cs.pinned_b.items()]
    checks += [(f"a[{ai}]", enum.a[ai], enum.b[bi]) for ai, bi in cs.equalities]
    for label, got, want in checks:
        if got != want:
            raise VerificationFailure(
                f"{case.tag}, m={m}: {label} = {got}, expected {want}")
    return enum


# ---------------------------------------------------------------------------
# closed forms


def _check_unique(case: FamilyCase, m: int) -> None:
    if case.tag not in UNIQUE_FAMILIES:
        raise ValueError(f"no closed form for family {case.tag}")
    if m < 1:
        raise ValueError(f"closed forms require m >= 1, got {m}")


def closed_form_bm(case: FamilyCase, m: int) -> Fraction:
    """The forced shadow coefficient b_m at weight 4m + r."""
    _check_unique(case, m)
    if case.tag == "24m+2":
        return Fraction(4 * (24 * m + 1), 5 * m) * binomial(5 * m, m - 1)
    if case.tag == "24m+4":
        return (Fraction(2 * (12 * m + 1) * (38 * m + 7), 5 * m * (2 * m + 1))
                * binomial(5 * m, m - 1))
    return Fraction(binomial(5 * m + 1, m))


def closed_form_bm1(case: FamilyCase, m: int) -> Fraction:
    """The forced shadow coefficient b_{m+1}, as prefactor times f(m)."""
    _check_unique(case, m)
    fm = evaluate_f(case, m)
    if case.tag == "24m+2":
        pre = Fraction(-64 * (24 * m + 1),
                       (5 * m - 1) * (4 * m + 2) * (4 * m + 3)
                       * (4 * m + 4) * (4 * m + 5)) * binomial(5 * m, m - 1)
    elif case.tag == "24m+4":
        pre = Fraction(-128 * (12 * m + 1),
                       (5 * m - 1) * (4 * m + 2) * (4 * m + 3)
                       * (4 * m + 4) * (4 * m + 5) * (4 * m + 6)) * binomial(5 * m, m - 1)
    else:
        pre = Fraction(-16 * (5 * m + 2),
                       (4 * m + 1) * (4 * m + 2) * (4 * m + 3)
                       * (4 * m + 4) * (4 * m + 5)) * binomial(5 * m, m)
    return pre * fm


def closed_form_a2m1(m: int) -> Fraction:
    """The forced code coefficient a_{2m+1} in the 24m+10 family,
    (shadow_col0 - code_col0) / 3 at index 2m+1; equals b_m."""
    if m < 1:
        raise ValueError(f"requires m >= 1, got {m}")
    fam = FamilyParams(m, 1, 1)
    i = 2 * m + 1
    return (shadow_inverse_entry(i, 0, fam) - code_inverse_col0(i, fam.n)) / 3


# ---------------------------------------------------------------------------
# nonexistence polynomials


@dataclass(frozen=True)
class NonexistencePolynomial:
    """Integer polynomial f with sign(b_{m+1}) = -sign(f(m)), plus the
    (negative) prefactor description."""

    tag: str
    coeffs: tuple[int, ...]   # ascending powers of m
    prefactor: str


_F_POLYS = {
    "24m+2": NonexistencePolynomial(
        "24m+2", (1, -14, 46, 2812, -14816, 64),
        "-64(24m+1) C(5m,m-1) / ((5m-1)(4m+2)(4m+3)(4m+4)(4m+5))"),
    "24m+4": NonexistencePolynomial(
        "24m+4", (6, 88, 1171, 5440, -33020, -212096, 1216),
        "-128(12m+1) C(5m,m-1) / ((5m-1)(4m+2)(4m+3)(4m+4)(4m+5)(4m+6))"),
    "24m+10": NonexistencePolynomial(
        "24m+10", (-105, -1511, -7924, -18036, -15040, 64),
        "-16(5m+2) C(5m,m) / ((4m+1)(4m+2)(4m+3)(4m+4)(4m+5))"),
}


def f_poly(case: FamilyCase) -> NonexistencePolynomial:
    if case.tag not in _F_POLYS:
        raise ValueError(f"no nonexistence polynomial for family {case.tag}")
    return _F_POLYS[case.tag]


def evaluate_f(case: FamilyCase, m: int) -> int:
    return poly_eval(f_poly(case).coeffs, m)


def largest_root_bracket(case: FamilyCase, search_to: int = 2000) -> tuple[int, int]:
    """The unit interval (k, k+1) around the largest real root of f.

    Found by exact integer sign evaluation: k is the last sign change up
    to search_to, and f is checked positive at every integer in
    (k, 10k] so the sign is genuinely settled beyond the bracket.
    """
    poly = f_poly(case)
    k = None
    prev = poly_eval(poly.coeffs, 1)
    for x in range(2, search_to + 1):
        cur = poly_eval(poly.coeffs, x)
        if prev < 0 < cur or cur < 0 < prev:
            k = x - 1
        prev = cur
    if k is None:
        raise ValueError(f"no sign change of f up to {search_to} for {case.tag}")
    for x in range(k + 1, 10 * k + 1):
        if poly_eval(poly.coeffs, x) <= 0:
            raise ValueError(f"sign of f not settled at {x} for {case.tag}")
    return (k, k + 1)


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
    (side, numerators, denominator) triples."""
    for side, values, den in sides:
        for i, v in enumerate(values):
            if v < 0 or v % den:
                return Admissibility(False, side, i, Fraction(v, den))
    return Admissibility(True, None, None, None)


def admissible(enum: ParametricEnumerator) -> Admissibility:
    """Whether every coefficient is a nonnegative integer.

    On failure the certificate carries the first offending side, index
    and exact value.  A parametrized enumerator is rejected outright.
    """
    if not enum.is_concrete:
        raise FreeParameterError(
            f"enumerator has free parameters {enum.free}; substitute beta "
            "first (beta_range gives the admissible interval)")
    return _certify((side, (form.as_fraction() for form in vec), 1)
                    for side, vec in (("a", enum.a), ("b", enum.b)))


def _forced_gleason(case: FamilyCase, m: int) -> list[Fraction]:
    """Gleason coefficients of the unique families via the closed forms:
    the first column of the inverse code block up to index 2m, the first
    column of the inverse shadow block from index 2m+l+1 on, and for
    l = 1 the middle slot from the coefficient coincidence."""
    fam = case.params(m)
    k_top = fam.c_count - 1
    c: list[Fraction] = [Fraction(0)] * (k_top + 1)
    c[0] = Fraction(1)
    for i in range(1, 2 * m + 1):
        c[i] = code_inverse_col0(i, fam.n)
    for i in range(2 * m + case.l + 1, k_top + 1):
        c[i] = shadow_inverse_entry(i, 0, fam)
    if case.l == 1:
        i = 2 * m + 1
        c[i] = code_inverse_col0(i, fam.n) + closed_form_a2m1(m)
    return c


def admissible_at(case: FamilyCase, m: int) -> Admissibility:
    """Admissibility of the unique minimal-shadow enumerator at (case, m).

    The Gleason coefficients come from the closed forms, and one
    scaled-integer expansion (gleason.expand_scaled) gives both vectors,
    so no entry is normalized as a Fraction unless it fails.
    """
    if case.tag not in UNIQUE_FAMILIES:
        raise ValueError(f"scan applies to unique-enumerator families, not {case.tag}")
    a_hat, da, b_hat, db = expand_scaled(_forced_gleason(case, m), case.params(m))
    return _certify((("a", a_hat, da), ("b", b_hat, db)))


def nonexistence_scan(case: FamilyCase, m_max: int,
                      jobs: int | None = None) -> list[tuple[int, Admissibility]]:
    """Admissibility certificate of every m in 1..m_max, in m order,
    each m evaluated independently.

    At most min(jobs, cpu count, m_max) worker processes run; the
    results do not depend on the worker count.
    """
    if case.tag not in UNIQUE_FAMILIES:
        raise ValueError(f"scan applies to unique-enumerator families, not {case.tag}")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    ms = range(1, m_max + 1)
    check = functools.partial(admissible_at, case)
    workers = min(jobs or 1, os.cpu_count() or 1, len(ms))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(check, ms, chunksize=4))
    else:
        results = list(map(check, ms))
    return list(zip(ms, results))


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
                         "use solve/admissible directly")
    enum = solve(case, m)
    fam = enum.fam
    ds = minimal_shadow_r(fam.n)
    ds_slot = (ds - fam.r) // 4
    lo, hi = None, None
    for side, vec in (("a", enum.a), ("b", enum.b)):
        for i, form in enumerate(vec):
            need = Fraction(1) if (side == "b" and i == ds_slot) else Fraction(0)
            q = form.terms.get(BETA, Fraction(0))
            p = form.constant
            if q == 0:
                if p < need or p.denominator != 1:
                    raise EmptyBetaRangeError(
                        f"coefficient {side}[{i}] = {form} is never admissible")
                continue
            if p.denominator != 1 or q.denominator != 1:
                raise EmptyBetaRangeError(
                    f"coefficient {side}[{i}] = {form} is not integral on "
                    "integer beta")
            bound = (need - p) / q
            if q > 0:
                b = math.ceil(bound)
                lo = b if lo is None else max(lo, b)
            else:
                b = math.floor(bound)
                hi = b if hi is None else min(hi, b)
    if lo is None or hi is None:
        raise VerificationFailure(f"beta is unbounded for {case.tag}, m={m}")
    if lo > hi:
        raise EmptyBetaRangeError(f"empty beta interval for {case.tag}, m={m}")
    return lo, hi
