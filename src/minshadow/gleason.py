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

This module expands Gleason coefficients into (a, b) coefficient
vectors, builds the four blocks and provides closed forms for the
inverse entries, which serve both the solver and the inverse blocks:
column 0 of the code inverse by a three-term recurrence checked for
exact division at every step, its polynomials stepped by forward
differences, its columns j > 0 by the Catalan peel, and each column of
the shadow inverse by one ratio walk from one binomial, again checked
for exact division at every step, each entry an int where integral.
The Catalan powers and the shadow columns share that ratio walk
(_ratio_walk): its ratios are quadratic in the step, so after the first
three every ratio comes from second-order forward differences.
An enumerator coefficient is an exact pair (p, q), the value p + q beta
in the one free parameter beta, each an int where it is integral, q = 0
in the unique families; a pair of Gleason vectors expands as two
vectors.  Every expansion of Gleason
coefficients goes through expand_scaled: both Horner passes on two
numpy work buffers used in turn, so that a step is one or two ufunc
calls, pass 1 of the code side in sigma = 4s, and pass 2 on the
difference between its input and a Catalan power, which the pins make
zero up to the first unpinned coefficient, for every top alike.  Column
j of both bases is that kernel applied to the unit Gleason vector e_j,
and build_transform_tables checks the closed-form inverses against them.

The work buffers come in two formats, picked per pass from its step
count, with one constant: below LIMB_STEPS = 120 steps they hold Python
ints in dtype=object, so a step is CPython int arithmetic; from there on
each entry is a row of L signed radix-2^32 limbs in an int64 matrix, L
from a bound on every entry of the pass that the kernel computes from
its input, plus one spare limb.  The same statements step both.  A lazy
carry every 14 pass-2 and 28 pass-1 steps keeps every limb below 2^63,
so the int64 sums are exact, and the entries come back as Python ints
through int.from_bytes.  An object step costs about 35-170 ns per entry
(30 to 3000 bits); a limb step costs a few ns per entry but more ufunc
calls, and the conversions about 0.8 us per entry each way at 900 bits
(1.3 us at 3000), so limbs gain on long passes only: on the scan inputs
of 24m+2 both formats took the same time at 100 to 120 steps (m = 25-30
on the code side's second pass, 35-40 on its first, 50-60 on the shadow
side), and limbs never gained on the window's three-step pass.  Every
full expansion checks its sum at z = 1, so a limb that overflowed shows
as VerificationFailure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from operator import add, mul, sub
from typing import Callable, Sequence

import numpy as np

from .exact import Scalar, VerificationFailure, exact_div

Matrix = list[list[Scalar]]
Pair = tuple[Scalar, Scalar]    # (p, q): the value p + q beta, ints where integral


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
        col[k_top - j + t] = lead * (-1) ** t * math.comb(2 * j, t)
    return col


@dataclass(frozen=True)
class TransformTables:
    """The four (K+1) x (K+1) transform blocks for one family.

    code_basis is lower unitriangular, code_inverse its exact (integral)
    inverse; shadow_basis is anti-triangular with invertible anti-diagonal,
    shadow_inverse its exact inverse, supported on i + j <= K.  Both
    inverses are the closed forms.  Entries are ints where integral."""

    fam: FamilyParams
    code_basis: Matrix
    code_inverse: Matrix
    shadow_basis: Matrix
    shadow_inverse: Matrix


def build_transform_tables(fam: FamilyParams) -> TransformTables:
    """Column j of both bases is expand_scaled of the unit Gleason vector
    e_j, expanded only to its first K + 1 entries on both sides.  The
    inverses are the closed forms by columns, code_inverse_col0 and
    _shadow_inverse_row0 over shadow_inverse_col0 from row 1, checked in
    integers (else VerificationFailure): code basis x code inverse = I,
    and (Db shadow basis) x (d shadow inverse) = Db d I, d the lcm."""
    k = fam.c_count
    cols = [expand_scaled([int(i == j) for i in range(k)], fam, k - 1, k - 1)
            for j in range(k)]                  # Da = 1 and Db = 2^s for all j
    db = cols[0][3]
    code = [[a[i] for a, _, _, _ in cols] for i in range(k)]
    shadow = [[b[i] for _, _, b, _ in cols] for i in range(k)]
    code_inv = [code_inverse_col0(fam, j=j) for j in range(k)]     # columns
    shadow_inv = [[_shadow_inverse_row0(fam, j)]
                  + (shadow_inverse_col0(fam, 1, j) if j < k - 1 else [])
                  + [0] * j for j in range(k)]
    d = math.lcm(*(x.denominator for col in shadow_inv for x in col))
    scaled = [[x.numerator * (d // x.denominator) for x in col] for col in shadow_inv]
    for i, j in product(range(k), repeat=2):
        if (sum(map(mul, code[i], code_inv[j])) != (i == j)
                or sum(map(mul, shadow[i], scaled[j])) != (i == j) * db * d):
            raise VerificationFailure(f"closed forms disagree with the bases of "
                                      f"n={fam.n} at ({i}, {j}) of basis x inverse")
    return TransformTables(fam, code, [list(row) for row in zip(*code_inv)],
                           [[exact_div(x, db) for x in row] for row in shadow],
                           [list(row) for row in zip(*shadow_inv)])


# ---------------------------------------------------------------------------
# closed forms for the inverse entries


def _col0_recurrence(i: int, n_half: int) -> tuple[int, int, int]:
    """(P0(i), P1(i), P2(i)) of the recurrence of column 0 of the inverse
    code block, P2(i) c_(i+2) = -P0(i) c_i - P1(i) c_(i+1), at N = n/2."""
    a, n = 4 * i - n_half, n_half
    b = a * (a + 3)                     # (a + 1)(a + 2) = b + 2
    return (2 * b * (b + 2),
            -(i + 1) * (((64 * i + 192 - 64 * n) * i + (12 * n - 116) * n + 206) * i
                        + ((15 - 2 * n) * n - 61) * n + 78),
            (i + 1) * (i + 2) * (2 * i + 3) * (i + 2 - n))


def _forward_differences(values: Sequence[int]) -> list[int]:
    """[f(0), (Delta f)(0), ..., (Delta^k f)(0)] from f(0), ..., f(k)."""
    table = []
    while values:
        table.append(values[0])
        values = list(map(sub, values[1:], values[:-1]))
    return table


def code_inverse_col0(fam: FamilyParams, top: int | None = None,
                      j: int = 0) -> list[int]:
    """Column j (default 0) of the inverse code-side block, entries
    0..top (default K), as ints.

    Column 0 is c_i = [u^i] (1+z)^(-N), N = n/2, in the Gleason variable
    u = z(1-z)^2/(1+z)^4; Lagrange inversion gives the single sum
    c_i = -(N/i) [z^(i-1)] (1+z)^(4i-N-1) (1-z)^(-2i), and c satisfies the
    three-term recurrence P2(i) c_(i+2) = -P0(i) c_i - P1(i) c_(i+1) with
    c_0 = 1, c_1 = -N and the polynomials of _col0_recurrence.  That
    recurrence was guessed from the sum (an exact nullspace), not proven,
    so every division must be exact, else VerificationFailure; P2 vanishes
    only at i = N - 2 > K.  Each polynomial has degree 4 in i, so a
    forward-difference table seeded from _col0_recurrence at i = 0..4
    steps it to i + 1 with four additions of small integers.  The cost is
    O(top) products of one big and one small integer, and 12 small
    additions per entry.

    Column j > 0 comes from the Catalan peel.  With s = z/(1+z)^2 (see
    horner_code_side) it solves P(s) = sum_i c_i (s - 4s^2)^i =
    z^j (1+z)^(-n/2) mod s^(K+1).  As 1+z = C(s), C the Catalan series,
    and z = s C(s)^2, P = s^j C(s)^e with e = 2j - n/2 (_catalan_power,
    whose factors in e are negative for k < K - j).  The peel reads
    c_i = [s^0] P, then divides P - [s^0] P by s(1 - 4s): drop x_0, then
    x_i += 4 x_(i-1).  Entry i needs only [s^0..s^i] P, so the peel stops
    at degree top.
    """
    k_top = fam.c_count - 1
    top = k_top if top is None else top
    if not (0 <= top <= k_top and 0 <= j <= k_top):
        raise ValueError(f"top entry {top} or column {j} out of range 0..{k_top}")
    if j == 0:
        n_half = fam.half
        col = [1, -n_half][:top + 1]
        (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4), (c0, c1, c2, c3, c4) = (
            _forward_differences(v)
            for v in zip(*(_col0_recurrence(i, n_half) for i in range(5))))
        for i in range(top - 1):
            c, rem = divmod(-a0 * col[i] - b0 * col[i + 1], c0)
            if rem:
                raise VerificationFailure(
                    f"column 0 of the inverse code block of n={fam.n}: the "
                    f"recurrence does not divide exactly at entry {i + 2}")
            col.append(c)
            a0 += a1; a1 += a2; a2 += a3; a3 += a4      # P0 to i + 1
            b0 += b1; b1 += b2; b2 += b3; b3 += b4      # P1
            c0 += c1; c1 += c2; c2 += c3; c3 += c4      # P2
        return col
    p = ([0] * j + _catalan_power(2 * j - fam.half, top - j))[:top + 1]
    col = []
    for _ in range(top + 1):
        col.append(p[0])
        p = p[1:]
        for i in range(1, len(p)):
            p[i] += 4 * p[i - 1]
    return col


def _shadow_col0_step(k_top: int, i: int) -> tuple[int, int]:
    """(num, den) with K C(K+i, K-i-1) = K C(K+i-1, K-i) num/den."""
    return (k_top + i) * (k_top - i), 2 * i * (2 * i + 1)


def _ratio_walk(x: int, step: Callable[[int, int], tuple[int, int]], arg: int,
                ks: range, fail: Callable[[int], str]) -> list[int]:
    """[x_0, ..., x_len(ks)] with x_0 = x and x_(t+1) = x_t num/den, where
    (num, den) = step(arg, k) at k = ks[t]; each division must be exact,
    else VerificationFailure(fail(k + 1)).  num and den are quadratic in k,
    so only the first three pairs come from step, each when the walk
    reaches it, and every later pair from the one before by second-order
    forward differences: four additions of small ints and no call per
    step.  A walk of at most three steps calls step once per step."""
    xs = [x]
    seen = []
    for k in ks[:3]:
        num, den = step(arg, k)
        seen += num, den
        x, rem = divmod(x * num, den)
        if rem:
            raise VerificationFailure(fail(k + 1))
        xs.append(x)
    if len(ks) > 3:
        n0, d0, n1, d1, _, _ = seen
        dnum, dden = num - n1, den - d1                 # Delta at ks[1]
        ddnum, ddden = dnum - n1 + n0, dden - d1 + d0   # Delta^2, constant
        for k in ks[3:]:
            dnum += ddnum; num += dnum
            dden += ddden; den += dden
            x, rem = divmod(x * num, den)
            if rem:
                raise VerificationFailure(fail(k + 1))
            xs.append(x)
    return xs


def _shadow_walk(fam: FamilyParams, start: int, j: int,
                 last: int | None = None) -> list[Scalar]:
    """Entries start..last (default K - j) of shadow_inverse_col0(fam,
    start, j): one binomial, then last - start steps of the ratio walk."""
    k = fam.c_count - 1 - j
    last = k if last is None else last
    if not (0 <= j and 1 <= start <= last <= k):
        raise ValueError(f"entry ({start}, {j}) out of range for K={fam.c_count - 1}")
    nums = _ratio_walk(k * math.comb(k + start - 1, k - start), _shadow_col0_step,
                       k, range(start, last),
                       lambda i: f"column {j} of the inverse shadow block of "
                                 f"n={fam.n}: the ratio walk does not divide "
                                 f"exactly at entry {i}")
    half = fam.half
    return [exact_div((-num if i % 2 else num) << max(e, 0), i << max(-e, 0))
            for i, num in enumerate(nums, start) for e in (6 * i - half,)]


def _shadow_inverse_row0(fam: FamilyParams, j: int) -> Fraction:
    """Entry (0, j) of the inverse shadow-side block: 2^(1-n/2), and
    2^(-n/2) at j = K, as sum_i b_i = W_S(1) = 2^(n/2) c_0, b palindromic."""
    return Fraction(2 - (j == fam.c_count - 1), 1 << fam.half)


def shadow_inverse_entry(i: int, j: int, fam: FamilyParams) -> Fraction:
    """Entry (i, j) of the inverse shadow-side block, for i >= 1, i + j <= K:
    the first of shadow_inverse_col0(fam, i, j), one binomial, no step."""
    x = _shadow_walk(fam, i, j, i)[0]
    return x if type(x) is Fraction else Fraction(x)


def shadow_inverse_col0(fam: FamilyParams, start: int, j: int = 0) -> list[Scalar]:
    """Entries (start..K-j, j) of column j (default 0) of the inverse
    shadow-side block, 1 <= start <= K - j.  With k = K - j, entry i is
    (-1)^i 2^(6i - n/2) num_i / i: one binomial gives num_start =
    k C(k+start-1, k-start), and each step num_(i+1) = num_i (k+i)(k-i) /
    (2i(2i+1)) must divide exactly, else VerificationFailure.  The first
    three ratios come from _shadow_col0_step, the rest by forward
    differences (_ratio_walk).  Each entry is an int where it is integral."""
    return _shadow_walk(fam, start, j)


# ---------------------------------------------------------------------------
# expansion of Gleason coefficients


@dataclass(frozen=True)
class ParametricEnumerator:
    """Full code and shadow coefficient vectors, one (p, q) pair per
    coefficient for the value p + q beta.

    a[i] is the coefficient of y^(2i) for i = 0..n/2; b[i] is the
    coefficient of y^(4i+r) for i = 0..6m+2l.  Each of p and q is an int
    where it is integral and a Fraction otherwise, so entries compare
    equal to Fractions but print as ints; q is the int 0 throughout in
    the unique families and after substitute.
    """

    fam: FamilyParams
    a: tuple[Pair, ...]
    b: tuple[Pair, ...]

    def substitute(self, beta: Scalar) -> "ParametricEnumerator":
        """The concrete enumerator at beta: every pair (p + q beta, 0)."""
        def at(vec):
            return tuple((p + q * beta, 0) for p, q in vec)
        return ParametricEnumerator(self.fam, at(self.a), at(self.b))


# passes of LIMB_STEPS steps or more run on int64 limbs, carried every
# _PASS1_CARRY (pass 1) or _PASS2_CARRY (pass 2) steps; see the module docstring
LIMB_STEPS = 120
_PASS1_CARRY = 28
_PASS2_CARRY = 14
_MASK = (1 << 32) - 1


def _work_buffers(values: list[int], rows: int, growth: int):
    """Two zeroed work buffers of `rows` entries, the first holding
    values[0] at index 1, and the rest of values, the entries that a pass
    feeds in, one per step, in the same format.

    Below LIMB_STEPS steps the buffers hold Python ints in dtype=object
    and the rest stays a list.  From LIMB_STEPS up, each entry is a row of
    L int64 limbs, and the rest is read in as such rows, 64 at a time,
    through one to_bytes join of the magnitudes and a sign flip.  A step
    multiplies the sum of the absolute entries by at most 2^growth and
    adds the next value, so bound, the Horner sum of |values| in
    2^growth, exceeds every entry of every step, and L has 32 bits for
    each of its bits and its sign, plus one spare limb."""
    if len(values) - 1 < LIMB_STEPS:
        x, w = np.zeros((2, rows), dtype=object)
        if values:
            x[1] = values[0]
        return (x, w), values[1:]
    bound = 0
    for v in values:
        bound = (bound << growth) + abs(v)
    limbs = bound.bit_length() // 32 + 2

    def limb_rows():
        for i in range(0, len(values), 64):
            part = values[i:i + 64]
            block = np.frombuffer(b"".join(abs(v).to_bytes(4 * limbs, "little")
                                           for v in part), "<u4")
            block = block.astype("<i8").reshape(-1, limbs)
            block[[v < 0 for v in part]] *= -1
            yield from block

    x, w = np.zeros((2, rows, limbs), dtype="<i8")
    feed = limb_rows()
    x[1] = next(feed)
    return (x, w), feed


def _carry(x: np.ndarray, c: np.ndarray) -> None:
    """One lazy carry over a run of limb rows, in place, with c a scratch
    array of the same shape: every limb but the last keeps its low 32 bits
    and passes the rest, floored, to the next (>> on a negative int64 is
    arithmetic).  From |limb| < 2^63 it leaves |limb| < 2^33 and the value
    of each row unchanged.  The carries run along the flattened rows, so x
    must be C-contiguous; the last limb of each row takes its own carry
    back, and the next row's first limb gives it up."""
    np.right_shift(x, 32, out=c)
    x &= _MASK
    flat = x.reshape(-1)
    flat[1:] += c.reshape(-1)[:-1]
    x[1:, 0] -= c[:-1, -1]
    x[:, -1] += c[:, -1] << 32


def _entries(x: np.ndarray, w: np.ndarray, n: int) -> list[int]:
    """Entries 1..n of work buffer x as plain Python ints, the other
    buffer w serving as scratch.  Limb rows are carried once, which leaves
    every limb but the last in [-2^31, 2^32 + 2^31), biased by 2^31 per
    limb so that none is negative, and carried until every such limb is
    below 2^32; the bound of _work_buffers leaves the spare limb at -1, 0
    or 1, else VerificationFailure.  Then the low halves of the limbs are
    copied out in one tobytes() buffer per 64 rows, as _work_buffers reads
    them in, and each row is one int.from_bytes of its memoryview slice,
    minus the bias."""
    if x.ndim == 1:
        return x[1:n + 1].tolist()
    x, c = x[1:n + 1], w[1:n + 1]
    _carry(x, c)
    x[:, :-1] += 1 << 31
    while np.right_shift(x, 32, out=c)[:, :-1].any():
        _carry(x, c)
    if (abs(x[:, -1]) > 1).any():
        raise VerificationFailure("a Horner entry outgrew its limb bound")
    bias = ((1 << 32 * x.shape[1] - 32) - 1) // _MASK << 31
    size = 4 * x.shape[1]
    out = []
    for s in range(0, len(x), 64):
        low = memoryview(x[s:s + 64].view("<u4")[:, ::2].tobytes())
        out += [int.from_bytes(low[k:k + size], "little", signed=True) - bias
                for k in range(0, len(low), size)]
    return out


def _palindromic_horner(p: list[int], top: int, e: int) -> list[int]:
    """Entries 0..top (top <= e) of S = sum_k p[k] z^k (1+z)^(e-2k), for
    2(len(p) - 1) <= e.  Every term is palindromic about e/2, so S is.

    As 1+z = C(s), s = z/(1+z)^2, gamma_k = [s^k] C(s)^(-e) gives
    sum_k gamma_k z^k (1+z)^(e-2k) = 1, so up to degree t = min(top, e/2)
    S is p[0] plus the same sum over d = p - p[0] gamma, from its first
    nonzero entry d_h' (h' >= 1) to d_t: z^h' (1+z)^(e-2t) x_(t-h'), with
    x_k = (1+z)^2 x_(k-1) + d_(h'+k) z^k.  Every x_k is palindromic about
    degree k, so only its lower half x_k[0..k] is kept, at indices
    1..k+1 of one of two work buffers whose index 0 stays 0: a step
    copies the mirrored entry x_(k-1)[k-2] (the 0 at index 0 when k = 1),
    multiplies by 1+z twice, each time as one np.add into the other
    buffer (so no entry is overwritten before it is read), and adds
    d_(h'+k) at index k.  (1+z)^(e-2t) is one binomial convolution cut to
    those entries, and the entries past e/2 are the mirror.  As z <-> s is
    triangular, d_1..d_(h-1) = 0 exactly when S vanishes at 1..h-1: h'
    comes from the computed d, so a wrong p shows below h.

    The same step loop runs on both formats of _work_buffers: Python ints
    below LIMB_STEPS steps, int64 limb rows from there on.  A step at
    most multiplies the largest |entry| by 4 and adds |d_(h'+k)|, so the
    limb count comes from the Horner sum of |d| in 4.  Limb by limb, a
    step at most multiplies by 4 and adds a limb of d, below 2^32, so a
    limb below 2^33 after a carry stays below 4^14 2^33 + 4^14 2^32 / 3
    < 2^62 over the _PASS2_CARRY = 14 steps to the next carry.
    """
    t = min(top, e // 2)
    d = list(map(sub, p[:t + 1] + [0] * (t + 1 - len(p)),
                 map(mul, repeat(p[0]), _catalan_power(-e, t))))
    h = next((k for k, v in enumerate(d) if v), t + 1)
    (x, w), dh = _work_buffers(d[h:], t - h + 2, 2)
    for n, dk in enumerate(dh, 2):
        x[n] = x[n - 2]
        np.add(x[1:n + 1], x[:n], out=w[1:n + 1])
        np.add(w[1:n + 1], w[:n], out=x[1:n + 1])
        x[n] += dk
        if x.ndim > 1 and n % _PASS2_CARRY == 0:
            _carry(x[1:n + 1], w[1:n + 1])
    x = _entries(x, w, t - h + 1)
    del w
    y = x[:]
    for j in range(1, min(e - 2 * t, t - h) + 1):
        y[j:] = map(add, y[j:], map(mul, repeat(math.comb(e - 2 * t, j)), x))
    x = [p[0]] + [0] * (h - 1) + y
    return x + x[e - t - 1::-1][:top - t]


def _catalan_step(a: int, k: int) -> tuple[int, int]:
    """(num, den) with [s^(k+1)] C(s)^a = [s^k] C(s)^a num/den."""
    return (a + 2 * k) * (a + 2 * k + 1), (k + 1) * (a + k + 1)


def _catalan_power(a: int, top: int) -> list[int]:
    """[s^0..s^top] C(s)^a, C(s) = 1 + s C(s)^2, for a + k + 1 != 0 (k < top):
    a/(a+2k) C(a+2k, k) by Lagrange inversion, an integer, so each step of
    the ratio walk must divide exactly, else VerificationFailure.  The
    first three ratios come from _catalan_step, the rest by forward
    differences (_ratio_walk)."""
    return _ratio_walk(1, _catalan_step, a, range(top),
                       lambda k: f"C(s)^({a}) does not divide exactly at s^{k}")


def horner_code_side(coeffs: Sequence[int], fam: FamilyParams,
                     top: int | None = None) -> list[int]:
    """Expand sum_j coeffs[j] (1+z)^(n/2-4j) (z(1-z)^2)^j up to degree
    top (default n/2, the full vector).

    Takes integer Gleason coefficients (expand_scaled clears the
    denominators first).  With s = z/(1+z)^2 one has
    ((1-z)/(1+z))^2 = 1 - 4s, so each term equals
    (1+z)^(n/2) coeffs[j] (s - 4s^2)^j.  Pass 1 expands
    P(s) = sum_j coeffs[j] (s - 4s^2)^j = sum_k p_k s^k, of degree at most
    2K, in sigma = 4s: s - 4s^2 = (sigma - sigma^2)/4, so
    R(sigma) = 4^j0 P(sigma/4) has integer coefficients r_k = 4^(j0-k) p_k,
    j0 the last index up to min(K, top) with a nonzero coefficient.  Horner
    R <- (sigma - sigma^2) R + coeffs[j] 4^(j0-j) is one np.subtract, from
    one object buffer into the other, shifted by one index; then
    p_k = r_k >> 2(j0-k), exact, for k <= j0, else r_k << 2(k-j0).  Pass 2
    is _palindromic_horner(p, top, n/2), the sum of
    p_k z^k (1+z)^(n/2-2k), (1+z)^r with r = n/2 - 4K included.  Its
    Horner steps run on d = p - p_0 gamma from the first nonzero entry,
    which the code pins put at 2m+1 in the unique families: on the window
    top = 2m+4, d is nonzero only at 2m+1..2m+4 and three steps run.

    Pass 1 starts at j0, as the terms above it are zero or, since
    (s - 4s^2)^j = O(s^j), reach only past top, and step j keeps only
    r_0..r_(top-j); a unit vector e_j (build_transform_tables) runs j
    steps.  Its buffers take the format that _work_buffers picks from the
    step count j0: a step at most doubles the largest |r_k| and adds the
    next coefficient, so in limbs the bound is the Horner sum of the
    |coeffs[j]| 4^(j0-j) in 2, and a carry every _PASS1_CARRY = 28 steps
    keeps each limb below 2^28 2^33 + 2^28 2^32 < 2^62.  The pass-1
    buffers are freed before pass 2 allocates its own.

    The full vector (top = n/2) must sum to coeffs[0] 2^(n/2), its value
    at z = 1, where every term but j = 0 vanishes; else
    VerificationFailure.  That catches a limb that overflowed.
    """
    k_top = fam.c_count - 1
    top = fam.half if top is None else top
    if not 0 <= top <= fam.half:
        raise ValueError(f"top degree {top} out of range 0..{fam.half}")
    j0 = next((j for j in range(min(k_top, top), 0, -1) if coeffs[j]), 0)
    (r, w), scaled = _work_buffers([coeffs[j] << 2 * (j0 - j)
                                    for j in range(j0, -1, -1)],
                                   min(2 * j0, top) + 2, 1)
    n = 1
    for j, cj in zip(range(j0 - 1, -1, -1), scaled):
        n = min(n + 2, top + 1 - j)
        np.subtract(r[1:n], r[:n - 1], out=w[2:n + 1])
        w[1] = cj
        r, w = w, r
        if r.ndim > 1 and j % _PASS1_CARRY == 0:
            _carry(r[1:n + 1], w[1:n + 1])
    p = [v >> 2 * (j0 - k) if k <= j0 else v << 2 * (k - j0)
         for k, v in enumerate(_entries(r, w, n))]
    del r, w, scaled
    x = _palindromic_horner(p, top, fam.half)
    if len(x) != top + 1:
        raise VerificationFailure(
            f"code expansion has {len(x)} coefficients, expected {top + 1}")
    if top == fam.half and sum(x) != coeffs[0] << fam.half:
        raise VerificationFailure(
            f"code coefficients of n={fam.n} do not sum to c_0 2^(n/2)")
    return x


def _shadow_shift(fam: FamilyParams) -> int:
    """The s of the 2^s scaling that makes every shadow term an integer."""
    return max(0, 6 * (fam.c_count - 1) - fam.half)


def horner_shadow_side(coeffs: Sequence[int], fam: FamilyParams,
                       top: int | None = None) -> list[int]:
    """Expand sum_j (-1)^j coeffs[j] 2^(n/2-6j) y^(n/2-4j) (1-y^4)^(2j),
    scaled by 2^s with s = max(0, 6K - n/2), for integer Gleason
    coefficients: shadow coefficients 0..top (default 2K, the full vector;
    indexed by i, exponent 4i+r) times 2^s, all integers.  In w = -y^4 and
    i = K - j the sum is (-1)^K y^r sum_i q_i w^i (1+w)^(2(K-i)) with
    q_i = coeffs[K-i] 2^(n/2+s-6(K-i)), _palindromic_horner with e = 2K,
    which reads q_0..q_min(top, K) only, so only those are built; on the
    window to b_m, that is m + 1 of the K + 1, d has at most one nonzero
    entry and no step runs.  It runs on q / 2^v, v the least 2-adic
    valuation of a nonzero q_i among those built (s in the unique
    families), and shifts back.  The full vector
    (top = 2K) must sum to coeffs[0] 2^(n/2+s), W_S(1) scaled, else
    VerificationFailure."""
    k_top = fam.c_count - 1
    top = 2 * k_top if top is None else top
    if not 0 <= top <= 2 * k_top:
        raise ValueError(f"top index {top} out of range 0..{2 * k_top}")
    scale = fam.half + _shadow_shift(fam)
    q = [coeffs[k_top - i] << (scale - 6 * (k_top - i))
         for i in range(min(top, k_top) + 1)]
    v2 = min(((v & -v).bit_length() - 1 for v in q if v), default=0)
    x = _palindromic_horner([v >> v2 for v in q], top, 2 * k_top)
    x = [(-v if (k_top + i) % 2 else v) << v2 for i, v in enumerate(x)]
    if len(x) != top + 1:
        raise VerificationFailure(
            f"shadow expansion has {len(x)} coefficients, expected {top + 1}")
    if top == 2 * k_top and sum(x) != coeffs[0] << scale:
        raise VerificationFailure(
            f"shadow coefficients of n={fam.n} do not sum to c_0 2^(n/2+s)")
    return x


def expand_scaled(c: Sequence[Scalar], fam: FamilyParams, top: int | None = None,
                  shadow_top: int | None = None
                  ) -> tuple[list[int], int, list[int], int]:
    """Code and shadow vectors of exact Gleason coefficients, as scaled
    integers (a_hat, Da, b_hat, Db) with a_i = a_hat[i]/Da and
    b_i = b_hat[i]/Db exactly.

    The coefficients are scaled by the lcm Da of their denominators, so
    both Horner passes run on plain ints; Da = 1 with no rescaling when
    every coefficient is an int.  The code side runs first, up to degree
    top (default n/2), then the shadow side up to index shadow_top
    (default 2K).
    """
    if all(type(x) is int for x in c):
        da, ch = 1, c
    else:
        da = math.lcm(*(x.denominator for x in c))
        ch = [x.numerator * (da // x.denominator) for x in c]
    a_hat = horner_code_side(ch, fam, top)
    b_hat = horner_shadow_side(ch, fam, shadow_top)
    return a_hat, da, b_hat, da << _shadow_shift(fam)


def enumerators_from_gleason(c: Sequence[Scalar] | Sequence[tuple[Scalar, Scalar]],
                             fam: FamilyParams) -> ParametricEnumerator:
    """Expand Gleason coefficients into the full a and b vectors.

    c holds exact numbers, or (constant, beta coefficient) pairs of them.
    Each component goes through expand_scaled once, every entry is
    divided back exactly once, an int where it is integral (exact_div),
    and a plain number has beta coefficient 0.
    """
    k = fam.c_count
    if len(c) != k:
        raise ValueError(f"need exactly {k} Gleason coefficients, got {len(c)}")
    parts = [expand_scaled(part, fam)
             for part in (zip(*c) if isinstance(c[0], tuple) else [c])]

    def pairs(side):  # 0 picks (a_hat, Da), 2 picks (b_hat, Db)
        vecs = [[exact_div(v, x[side + 1]) for v in x[side]] for x in parts]
        return tuple(zip(vecs[0], vecs[1] if len(vecs) > 1 else repeat(0)))

    return ParametricEnumerator(fam, pairs(0), pairs(2))
