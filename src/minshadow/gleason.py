"""Gleason-type expansions for singly even self-dual codes and shadows.

Every even length decomposes uniquely as n = 24m + 8l + 2r with
l in {0,1,2} and r in {0,1,2,3}.  Writing K = 3m + l, the code and
shadow weight enumerators of a singly even self-dual code expand as

    W_C(y) = sum_i a_i y^(2i)
           = sum_j c_j (1+z)^(n/2-4j) (z(1-z)^2)^j        with z = y^2,

    W_S(y) = sum_i b_i y^(4i+r)
           = sum_j (-1)^j c_j 2^(n/2-6j) y^(n/2-4j) (1-y^4)^(2j),

both sums over j = 0..K, for integer Gleason coefficients c_j.  The
code-side basis polynomials, truncated to degree K, form a lower
unitriangular (K+1) x (K+1) matrix; the shadow-side columns (indexed by
i, the exponent being 4i + r) form an anti-triangular block whose
column j starts at row K - j with entry (-1)^j 2^(n/2-6j).  Both blocks
are therefore invertible, and their exact inverses convert low-order
coefficient constraints on a and b into linear conditions on the c_j.

This module builds the four blocks, provides closed forms for the
inverse entries that the solver needs in bulk, and expands Gleason
coefficients into (a, b) coefficient vectors.  Coefficient vectors are
affine forms so that one-parameter enumerator families flow
through unchanged.  Every expansion of Gleason coefficients into
enumerator vectors goes through expand_scaled, which clears
denominators and runs both Horner passes on plain integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (AffineForm, Scalar, VerificationFailure, as_affine,
                    binomial)

Matrix = list[list[Fraction]]


@dataclass(frozen=True)
class FamilyParams:
    """The (m, l, r) decomposition of an even length n = 24m + 8l + 2r."""

    m: int
    l: int
    r: int

    def __post_init__(self):
        if self.l not in (0, 1, 2):
            raise ValueError(f"l must be in {{0,1,2}}, got {self.l}")
        if self.r not in (0, 1, 2, 3):
            raise ValueError(f"r must be in {{0,1,2,3}}, got {self.r}")
        if self.n <= 0 or self.m < 0:
            raise ValueError(f"invalid family: m={self.m}, l={self.l}, r={self.r}")

    @classmethod
    def from_length(cls, n: int) -> "FamilyParams":
        if n <= 0 or n % 2:
            raise ValueError(f"length must be a positive even integer, got {n}")
        r = (n % 8) // 2
        q = (n - 2 * r) // 8        # = 3m + l
        l = q % 3
        return cls((q - l) // 3, l, r)

    @property
    def n(self) -> int:
        return 24 * self.m + 8 * self.l + 2 * self.r

    @property
    def half(self) -> int:
        return self.n // 2

    @property
    def c_count(self) -> int:
        """Number of Gleason coefficients, K + 1 = 3m + l + 1."""
        return 3 * self.m + self.l + 1

    @property
    def b_count(self) -> int:
        """Number of shadow coefficients, 6m + 2l + 1."""
        return 6 * self.m + 2 * self.l + 1

    def shadow_exponent(self, i: int) -> int:
        return 4 * i + self.r


# ---------------------------------------------------------------------------
# basis expansions

# small expansion kernels, as (shift, coefficient) taps
_V_TAPS = ((1, 1), (2, -2), (3, 1))            # z(1-z)^2
_U_TAPS = ((0, 1), (1, 4), (2, 6), (3, 4), (4, 1))   # (1+z)^4
_Q_TAPS = ((0, 1), (1, -2), (2, 1))            # (1-w)^2


def _mul_taps(p: list, taps) -> list:
    """Multiply a coefficient list by a fixed small polynomial."""
    out = [0] * (len(p) + taps[-1][0])
    for shift, c in taps:
        if c == 1:
            for i, x in enumerate(p):
                out[i + shift] += x
        else:
            for i, x in enumerate(p):
                out[i + shift] += c * x
    return out


def shadow_basis_column(j: int, fam: FamilyParams) -> list[Fraction]:
    """Coefficients of (-1)^j 2^(n/2-6j) y^(n/2-4j) (1-y^4)^(2j) at y^(4i+r).

    Returns the full column i = 0..6m+2l.  Entries below row K - j are
    zero and row K - j holds (-1)^j 2^(n/2-6j).
    """
    k_top = fam.c_count - 1
    if not 0 <= j <= k_top:
        raise ValueError(f"basis index {j} out of range 0..{k_top}")
    col = [Fraction(0)] * fam.b_count
    lead = Fraction(2) ** (fam.half - 6 * j) * (-1) ** j
    for t in range(2 * j + 1):
        col[k_top - j + t] = lead * (-1) ** t * binomial(2 * j, t)
    return col


def _code_basis_block(fam: FamilyParams) -> list[list[int]]:
    """All code-side basis columns truncated to degree K, in O(K^2).

    Column j is obtained from column j-1 by multiplying with z(1-z)^2 and
    dividing out (1+z)^4; on truncated data the synthetic division is
    still exact because low-order quotient coefficients only depend on
    low-order dividend coefficients.
    """
    k_top = fam.c_count - 1
    col = [binomial(fam.half, i) for i in range(k_top + 1)]
    cols = [col]
    for _ in range(k_top):
        nxt = _mul_taps(col, _V_TAPS)[: k_top + 1]
        for _ in range(4):  # divide by (1+z)
            out = [0] * (k_top + 1)
            prev = 0
            for i in range(k_top + 1):
                prev = nxt[i] - prev
                out[i] = prev
            nxt = out
        cols.append(nxt)
        col = nxt
    return cols


@dataclass(frozen=True)
class TransformTables:
    """The four (K+1) x (K+1) transform blocks for one family.

    code_basis is lower unitriangular, code_inverse is its exact inverse
    (also unitriangular); shadow_basis is anti-triangular with invertible
    anti-diagonal, shadow_inverse its exact inverse, supported on
    i + j <= K.
    """

    fam: FamilyParams
    code_basis: Matrix
    code_inverse: Matrix
    shadow_basis: Matrix
    shadow_inverse: Matrix


def _lower_inverse(low: Matrix) -> Matrix:
    """Exact inverse of an invertible lower-triangular matrix, by forward
    substitution."""
    k = len(low)
    inv = [[Fraction(0)] * k for _ in range(k)]
    for j in range(k):
        inv[j][j] = 1 / low[j][j]
        for i in range(j + 1, k):
            s = Fraction(0)
            for t in range(j, i):
                if low[i][t]:
                    s += low[i][t] * inv[t][j]
            inv[i][j] = -s / low[i][i]
    return inv


def build_transform_tables(fam: FamilyParams) -> TransformTables:
    k = fam.c_count
    cols = _code_basis_block(fam)
    code_basis = [[Fraction(cols[j][i]) for j in range(k)] for i in range(k)]
    shadow_cols = [shadow_basis_column(j, fam) for j in range(k)]
    shadow_basis = [[shadow_cols[j][i] for j in range(k)] for i in range(k)]
    # reversing the columns of the shadow block gives a lower-triangular
    # matrix L; the inverse of the shadow block is L^-1 with its rows reversed
    low_inv = _lower_inverse([row[::-1] for row in shadow_basis])
    return TransformTables(fam, code_basis, _lower_inverse(code_basis),
                           shadow_basis, low_inv[::-1])


# ---------------------------------------------------------------------------
# closed forms for the inverse entries needed in bulk


def code_inverse_col0(i: int, n: int) -> Fraction:
    """Entry (i, 0) of the inverse code-side block, for i >= 1.

    Evaluated as  -(n/2i) * sum_t (-1)^t C(n/2+1-6i, t) C((n-7i-t-1)/2, (i-t-1)/2)
    over 0 <= t with t + i odd.  When n/2+1-6i is negative the first
    factor is rewritten through the negative-upper-index identity
    (-1)^t C(-N, t) = C(N+t-1, t), so every binomial actually evaluated
    has a nonnegative top.
    """
    fam = FamilyParams.from_length(n)
    if not 1 <= i <= fam.c_count - 1:
        raise ValueError(f"index {i} out of range 1..{fam.c_count - 1} for n={n}")
    top1 = fam.half + 1 - 6 * i
    total = 0
    if top1 >= 0:
        c1 = 1  # C(top1, t), updated incrementally
        for t in range(min(top1, i - 1) + 1):
            if (t + i) % 2 == 1:
                total += (-1) ** t * c1 * binomial((n - 7 * i - t - 1) // 2,
                                                   (i - t - 1) // 2)
            c1 = c1 * (top1 - t) // (t + 1)
    else:
        for t in range(i):
            if (t + i) % 2 == 1:
                total += binomial(t - top1 - 1, t) * binomial(
                    (n - 7 * i - t - 1) // 2, (i - t - 1) // 2)
    return Fraction(-n, 2 * i) * total


def shadow_inverse_entry(i: int, j: int, fam: FamilyParams) -> Fraction:
    """Entry (i, j) of the inverse shadow-side block, for i >= 1, i + j <= K."""
    k_top = fam.c_count - 1
    if not (1 <= i and 0 <= j and i + j <= k_top):
        raise ValueError(f"indices (i={i}, j={j}) out of range for K={k_top}")
    return (Fraction((-1) ** i) * Fraction(2) ** (6 * i - fam.half)
            * Fraction(k_top - j, i) * binomial(k_top + i - j - 1, k_top - i - j))


# ---------------------------------------------------------------------------
# expansion of Gleason coefficients


@dataclass(frozen=True)
class ParametricEnumerator:
    """Full code and shadow coefficient vectors, affine in free parameters.

    a[i] is the coefficient of y^(2i) for i = 0..n/2; b[i] is the
    coefficient of y^(4i+r) for i = 0..6m+2l.
    """

    fam: FamilyParams
    a: tuple[AffineForm, ...]
    b: tuple[AffineForm, ...]
    free: tuple[str, ...]

    def substitute(self, values) -> "ParametricEnumerator":
        a = tuple(x.substitute(values) for x in self.a)
        b = tuple(x.substitute(values) for x in self.b)
        free = tuple(n for n in self.free if n not in values)
        return ParametricEnumerator(self.fam, a, b, free)

    @property
    def is_concrete(self) -> bool:
        return not self.free


def horner_code_side(coeffs: Sequence[int], fam: FamilyParams) -> list[int]:
    """Expand sum_j coeffs[j] (1+z)^(n/2-4j) (z(1-z)^2)^j to full degree.

    Takes integer Gleason coefficients (expand_scaled clears the
    denominators first).  Writing u = (1+z)^4 and v = z(1-z)^2 the sum
    equals (1+z)^r * sum_j coeffs[j] u^(K-j) v^j, evaluated Horner-style
    so the cost is one small-kernel pass per term.
    """
    k_top = fam.c_count - 1
    x = [coeffs[k_top]]
    u = [1]
    for j in range(k_top - 1, -1, -1):
        x = _mul_taps(x, _V_TAPS)
        u = _mul_taps(u, _U_TAPS)
        if len(x) < len(u):
            x = x + [0] * (len(u) - len(x))
        c = coeffs[j]
        if c:
            for i, ui in enumerate(u):
                if ui:
                    x[i] += c * ui
    for _ in range(fam.r):
        x = _mul_taps(x, ((0, 1), (1, 1)))
    if len(x) != fam.half + 1:
        raise VerificationFailure(
            f"code expansion has {len(x)} coefficients, expected {fam.half + 1}")
    return x


def _shadow_shift(fam: FamilyParams) -> int:
    """The s of the 2^s scaling that makes every shadow term an integer."""
    return max(0, 6 * (fam.c_count - 1) - fam.half)


def horner_shadow_side(coeffs: Sequence[int], fam: FamilyParams) -> list[int]:
    """Expand sum_j (-1)^j coeffs[j] 2^(n/2-6j) y^(n/2-4j) (1-y^4)^(2j),
    scaled by 2^s with s = max(0, 6K - n/2), for integer Gleason
    coefficients: the full shadow coefficient vector (indexed by i,
    exponent 4i+r) times 2^s, all integers."""
    k_top = fam.c_count - 1
    top = fam.half + _shadow_shift(fam)
    d = [(-1) ** j * coeffs[j] * (1 << (top - 6 * j)) for j in range(k_top + 1)]
    x = [d[k_top]]
    for j in range(k_top - 1, -1, -1):
        x = _mul_taps(x, _Q_TAPS)
        x[k_top - j] += d[j]
    if len(x) != fam.b_count:
        raise VerificationFailure(
            f"shadow expansion has {len(x)} coefficients, expected {fam.b_count}")
    return x


def expand_scaled(c: Sequence[Scalar],
                  fam: FamilyParams) -> tuple[list[int], int, list[int], int]:
    """Code and shadow vectors of exact Gleason coefficients, as scaled
    integers (a_hat, Da, b_hat, Db) with a_i = a_hat[i]/Da and
    b_i = b_hat[i]/Db exactly.

    The coefficients are scaled by the lcm Da of their denominators, so
    both Horner passes run on plain ints; the code side runs first.
    """
    da = math.lcm(*(x.denominator for x in c))
    ch = [int(x * da) for x in c]
    a_hat = horner_code_side(ch, fam)
    b_hat = horner_shadow_side(ch, fam)
    return a_hat, da, b_hat, da << _shadow_shift(fam)


def enumerators_from_gleason(c: Sequence[AffineForm | Scalar],
                             fam: FamilyParams) -> ParametricEnumerator:
    """Expand Gleason coefficients into the full a and b vectors.

    Affine inputs are split into a constant component plus one component
    per parameter; each component goes through expand_scaled once, and
    every entry is divided back exactly once.
    """
    k = fam.c_count
    if len(c) != k:
        raise ValueError(f"need exactly {k} Gleason coefficients, got {len(c)}")
    cv = [as_affine(x) for x in c]
    names = sorted({n for form in cv for n in form.terms})
    const = expand_scaled([form.constant for form in cv], fam)
    parts = [(name, expand_scaled([form.terms.get(name, 0) for form in cv], fam))
             for name in names]

    def combine(side):  # 0 picks (a_hat, Da), 2 picks (b_hat, Db)
        out = []
        for i, v in enumerate(const[side]):
            terms = {name: Fraction(p[side][i], p[side + 1])
                     for name, p in parts if p[side][i]}
            out.append(AffineForm(Fraction(v, const[side + 1]), terms))
        return tuple(out)

    return ParametricEnumerator(fam, combine(0), combine(2), tuple(names))
