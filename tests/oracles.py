"""Independent derivations the tests compare the library against.

None of these is on a library path.  Dense polynomial arithmetic and
dense rational matrices check the transform blocks and the solver; the
full code-side basis polynomials, built by repeated multiplication,
check the Horner expansion kernel, and (1+z)^e applied one step at a
time checks its binomial convolution; their truncations to degree K, built
column by column by multiplying with z(1-z)^2 and dividing out (1+z)^4,
check the code block that the kernel builds and feed the pinned system;
the Catalan peel, the Lagrange single sum and a binomial double sum
check the three-term recurrence of the inverse code column, whose
polynomials written out in i and N check their Horner form, and a
product of three Fractions checks the shadow inverse entries; the pins
built one entry at a time check the minimal-shadow constraint sets; forward substitution over Fractions inverts the kernel's bases
and checks the closed-form inverse blocks; Gleason coefficients read
back through the inverse blocks check the enumerators; the code window
a_0..a_(2m+4) read off the differences between the Gleason coefficients
and the inverse code column, from the Lagrange sum, replays the scan
certificates without a Horner pass, and the full vectors summed term by
term, the code basis by the same multiply-and-divide recurrence carried
to degree n/2, replay the admissible verdicts; the whole pinned
linear system in all K + 1 Gleason coefficients, and for the beta
families the same coefficients in closed form, check the solver's
derivation; the closed forms of b_m, b_{m+1} (a prefactor times f(m))
and a_{2m+1} check the unique enumerators; admissibility read off the exact coefficients of a
concrete enumerator one by one checks the scaled-integer certificates of
admissible_at and the beta ranges; the dual code, the MacWilliams
fixed-point identity and a codeword-by-codeword count check the GF(2)
engine, on codes built from generator rows of 0/1 entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from minshadow.exact import (LinearSystemError, Scalar, parametric_linear_solve,
                            poly_eval)
from minshadow.gf2 import BinaryCode, weight_distribution
from minshadow.gleason import (FamilyParams, Matrix, Pair, ParametricEnumerator,
                               TransformTables, code_inverse_col0,
                               shadow_basis_column, shadow_inverse_entry)
from minshadow.solver import (FAMILY_CASES, UNIQUE_FAMILIES, Admissibility,
                              ConstraintSet, FamilyCase, _gleason, f_poly,
                              minimal_shadow_constraints, minimal_shadow_r)


class SingularMatrixError(ValueError):
    """Raised when a matrix inverse is requested for a singular matrix."""


def binomial(n: int, k: int) -> int:
    """C(n, k) with the out-of-range convention C(n, k) = 0 for k < 0 or k > n.

    A negative upper index is rejected: callers are expected to rewrite
    such binomials into nonnegative-top form first.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# dense univariate polynomials


def poly_trim(p: Sequence[Scalar]) -> list[Scalar]:
    """Strip trailing zero coefficients."""
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return list(p[:n])


def poly_add(p: Sequence[Scalar], q: Sequence[Scalar]) -> list[Scalar]:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return poly_trim(out)


def poly_scale(c: Scalar, p: Sequence[Scalar]) -> list[Scalar]:
    if not c:
        return []
    return [c * x for x in p]


def poly_product(p: Sequence[Scalar], q: Sequence[Scalar]) -> list[Scalar]:
    """Exact convolution product."""
    p = poly_trim(p)
    q = poly_trim(q)
    if not p or not q:
        return []
    out: list[Scalar] = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def one_plus_z_power_steps(x: Sequence[int], e: int) -> list[int]:
    """(1+z)^e x mod z^len(x), by e multiplications with 1+z, each a
    loop from the top entry down."""
    y = list(x)
    for _ in range(e):
        for i in range(len(y) - 1, 0, -1):
            y[i] += y[i - 1]
    return y


# ---------------------------------------------------------------------------
# rational matrices


def identity_matrix(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matrix_product(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += c * bk[j]
    return out


def matrix_inverse(m: Sequence[Sequence[Scalar]]) -> Matrix:
    """Exact inverse, the solution X of m X = I by the parametric solve
    with the identity as its right-hand side: row j of the solution is
    row j of the inverse.  A singular matrix leaves some row
    0 = (a nonzero row of I combined) and raises SingularMatrixError.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix_inverse requires a square matrix")
    try:
        x = parametric_linear_solve(m, identity_matrix(n))
    except LinearSystemError as exc:
        raise SingularMatrixError(f"matrix is singular ({exc})") from exc
    return [list(row) for row in x]


# ---------------------------------------------------------------------------
# Gleason expansions


def code_basis_poly(j: int, fam: FamilyParams) -> list[int]:
    """Full expansion of (1+z)^(n/2-4j) (z(1-z)^2)^j in z = y^2.

    The truncation of column j to degree K is column j of the code-side
    transform block; in particular the coefficient at z^j is 1 and all
    lower coefficients vanish.
    """
    k_top = fam.c_count - 1
    if not 0 <= j <= k_top:
        raise ValueError(f"basis index {j} out of range 0..{k_top}")
    p = [binomial(fam.half - 4 * j, i) for i in range(fam.half - 4 * j + 1)]
    for _ in range(j):
        p = poly_product([0, 1, -2, 1], p)
    return p


def code_basis_block(fam: FamilyParams) -> list[list[int]]:
    """All code-side basis columns truncated to degree K, in O(K^2).

    Column j is obtained from column j-1 by multiplying with z(1-z)^2 and
    dividing out (1+z)^4; on truncated data the synthetic division is
    still exact because low-order quotient coefficients only depend on
    low-order dividend coefficients.
    """
    k_top = fam.c_count - 1
    cols = [[binomial(fam.half, i) for i in range(k_top + 1)]]
    for _ in range(k_top):
        x = [0] + cols[-1][:k_top]      # times z, truncated to degree K
        for _ in range(2):              # times (1-z)
            for i in range(k_top, 0, -1):
                x[i] -= x[i - 1]
        for _ in range(4):              # divided by (1+z)
            for i in range(1, k_top + 1):
                x[i] -= x[i - 1]
        cols.append(x)
    return cols


def lower_inverse(low: Matrix) -> Matrix:
    """Exact inverse of an invertible lower-triangular matrix, by forward
    substitution, in Fractions for int and Fraction entries alike."""
    k = len(low)
    inv = [[Fraction(0)] * k for _ in range(k)]
    for j in range(k):
        inv[j][j] = 1 / Fraction(low[j][j])
        for i in range(j + 1, k):
            s = Fraction(0)
            for t in range(j, i):
                if low[i][t]:
                    s += low[i][t] * inv[t][j]
            inv[i][j] = -s / low[i][i]
    return inv


def inverse_blocks(tables: TransformTables) -> tuple[Matrix, Matrix]:
    """The inverses of the code and shadow bases of tables by forward
    substitution.  Reversing the columns of the anti-triangular shadow
    block gives a lower-triangular matrix L; the inverse of the shadow
    block is L^-1 with its rows reversed."""
    low_inv = lower_inverse([row[::-1] for row in tables.shadow_basis])
    return lower_inverse(tables.code_basis), low_inv[::-1]


def code_inverse_col0_sum(i: int, n: int) -> Fraction:
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


def code_inverse_col0_peel(fam: FamilyParams) -> list[int]:
    """Column 0 of the inverse code-side block, entries 0..K, by the
    Catalan peel.

    With s = z/(1+z)^2 the column solves P(s) = sum_i c_i (s - 4s^2)^i =
    (1+z)^(-n/2) mod s^(K+1), and P = C(s)^(-n/2), C the Catalan series,
    whose coefficients p_k = [s^k] C(s)^e, e = -n/2, follow from
    p_(k+1)/p_k = (e+2k)(e+2k+1)/((k+1)(e+k+1)).  The peel reads
    c_i = [s^0] P, then divides P - [s^0] P by s(1 - 4s).
    """
    k_top = fam.c_count - 1
    e = -fam.half
    p = [1]
    for k in range(k_top):
        p.append(p[-1] * (e + 2 * k) * (e + 2 * k + 1) // ((k + 1) * (e + k + 1)))
    col = []
    for _ in range(k_top + 1):
        col.append(p[0])
        p = p[1:]
        for i in range(1, len(p)):
            p[i] += 4 * p[i - 1]
    return col


def col0_recurrence_expanded(i: int, n_half: int) -> tuple[int, int, int]:
    """(P0(i), P1(i), P2(i)) of the recurrence of column 0 of the inverse
    code block, P2(i) c_(i+2) = -P0(i) c_i - P1(i) c_(i+1), with N = n/2,
    each polynomial written out in i and N as it was fitted."""
    a, n = 4 * i - n_half, n_half
    return (2 * a * (a + 1) * (a + 2) * (a + 3),
            -(i + 1) * (-2 * n ** 3 + 12 * n * n * i + 15 * n * n - 64 * n * i * i
                        - 116 * n * i - 61 * n + 64 * i ** 3 + 192 * i * i
                        + 206 * i + 78),
            (i + 1) * (i + 2) * (2 * i + 3) * (i + 2 - n))


def code_inverse_col0_lagrange(i: int, n: int) -> Fraction:
    """Entry (i, 0) of the inverse code-side block, for i >= 1, by Lagrange
    inversion in u = z(1-z)^2/(1+z)^4:

        c_i = -(n/2i) [z^(i-1)] (1+z)^(4i-n/2-1) (1-z)^(-2i),

    the first factor's binomials taken with a possibly negative top."""
    top = 4 * i - n // 2 - 1
    total, c1 = 0, 1                    # c1 = C(top, t), updated in t
    c2 = binomial(3 * i - 2, i - 1)     # c2 = C(3i-t-2, i-1-t) = [z^(i-1-t)] (1-z)^(-2i)
    for t in range(i):
        total += c1 * c2
        c1 = c1 * (top - t) // (t + 1)  # exact: a falling factorial over t!
        c2 = c2 * (i - 1 - t) // (3 * i - t - 2)    # exact: C(a-1, b-1) = C(a, b) b/a
    return Fraction(-n, 2 * i) * total


def window_by_delta(case: FamilyCase, m: int) -> list[Fraction]:
    """a_0..a_(2m+4) of the minimal-shadow enumerator of (case, m) from the
    Gleason coefficients c of solver._gleason, without a Horner pass.

    With N = n/2, u = z(1-z)^2/(1+z)^4 and col_j = [u^j] (1+z)^(-N),
    (1+z)^N sum_j col_j u^j = 1, so

        a(z) = 1 + (1+z)^N sum_(j>=h) delta_j u^j,   delta_j = c_j - col_j,

    h = d/2, because the code pins give c_j = col_j below h.  As
    [z^i] (1+z)^N u^j = sum_t (-1)^t C(2j, t) C(N-4j, i-j-t),
    a_i = [i = 0] + sum_(j=h..i) delta_j sum_t (-1)^t C(2j, t) C(N-4j, i-j-t).
    col_j comes from the Lagrange sum code_inverse_col0_lagrange, not from
    the library's recurrence.  For m >= 4, where 2m+4 <= K and N - 4j >= 0.
    """
    fam = case.params(m)
    top = 2 * m + 4
    c = _gleason(case, m)
    a = [Fraction(int(i == 0)) for i in range(top + 1)]
    for j in range(case.d(m) // 2, top + 1):
        delta = c[j] - code_inverse_col0_lagrange(j, fam.n)
        for i in range(j, top + 1):
            a[i] += delta * sum((-1) ** t * binomial(2 * j, t)
                                * binomial(fam.half - 4 * j, i - j - t)
                                for t in range(i - j + 1))
    return a


def full_by_direct_sum(case: FamilyCase, m: int) -> tuple[list[Fraction], list[Fraction]]:
    """The full vectors a_0..a_(n/2) and b_0..b_(2K) of the minimal-shadow
    enumerator of (case, m) from the Gleason coefficients c of
    solver._gleason, summed term by term with no Horner pass.

    With N = n/2, a = sum_j c_j T_j, T_j = z^j (1-z)^(2j) (1+z)^(N-4j):
    T_0 is the binomial row of N, and T_j is T_(j-1) times z(1-z)^2,
    divided by (1+z)^4 with a zero remainder checked at every division
    (the recurrence of code_basis_block, carried to degree N).  Term j of
    the shadow side adds (-1)^(j+t) c_j 2^(N-6j) C(2j, t) at index K-j+t,
    each binomial row two Pascal steps from the last.
    Both sums run on c times the lcm of its denominators.
    """
    fam = case.params(m)
    c = _gleason(case, m)
    den = math.lcm(*(x.denominator for x in c))
    ch = [int(x * den) for x in c]
    n_half, k_top = fam.half, fam.c_count - 1
    term = [math.comb(n_half, i) for i in range(n_half + 1)]
    a = [ch[0] * x for x in term]
    for j in range(1, k_top + 1):
        x = [0] + term                  # times z
        for _ in range(2):              # times (1-z)
            x = [u - v for u, v in zip(x + [0], [0] + x)]
        for _ in range(4):              # divided by (1+z), exactly
            for i in range(1, len(x)):
                x[i] -= x[i - 1]
            if x.pop():
                raise ArithmeticError(f"(1+z) does not divide term {j} of n={fam.n}")
        term = x
        for i, v in enumerate(term):
            a[i] += ch[j] * v
    shift = max(0, 6 * k_top - n_half)
    b = [0] * (2 * k_top + 1)
    row = [1]                           # C(2j, t), t = 0..2j
    for j, cj in enumerate(ch):
        lead = cj << (n_half + shift - 6 * j)
        for t, v in enumerate(row):
            b[k_top - j + t] += (-1) ** (j + t) * lead * v
        for _ in range(2):
            row = [u + v for u, v in zip(row + [0], [0] + row)]
    return ([Fraction(x, den) for x in a],
            [Fraction(x, den << shift) for x in b])


def shadow_inverse_entry_product(i: int, j: int, fam: FamilyParams) -> Fraction:
    """Entry (i, j) of the inverse shadow-side block, for i >= 1, i + j <= K,
    as the product (-1)^i 2^(6i - n/2) * (K-j)/i * C(K+i-j-1, K-i-j) of
    three Fractions."""
    k_top = fam.c_count - 1
    return (Fraction((-1) ** i) * Fraction(2) ** (6 * i - fam.half)
            * Fraction(k_top - j, i) * binomial(k_top + i - j - 1, k_top - i - j))


def _gleason_from(values: Sequence[Pair | Scalar], inverse: Matrix,
                  side: str) -> list[Pair]:
    """c_i = sum_j inverse[i][j] * values[j] as (p, q) pairs, a plain
    number being (value, 0), skipping the zero entries outside the support
    of the inverse block."""
    k = len(inverse)
    if len(values) < k:
        raise ValueError(f"need at least {k} {side} coefficients, got {len(values)}")
    vv = [x if isinstance(x, tuple) else (x, 0) for x in values[:k]]
    return [tuple(sum((e * v[t] for v, e in zip(vv, row) if e), Fraction(0))
                  for t in (0, 1))
            for row in inverse]


def gleason_from_code(a: Sequence[Pair | Scalar],
                      tables: TransformTables) -> list[Pair]:
    """Gleason coefficients from the leading code coefficients:
    c_i = sum_{j<=i} code_inverse[i][j] * a_j."""
    return _gleason_from(a, tables.code_inverse, "code")


def gleason_from_shadow(b: Sequence[Pair | Scalar],
                        tables: TransformTables) -> list[Pair]:
    """Gleason coefficients from the leading shadow coefficients:
    c_i = sum_{j<=K-i} shadow_inverse[i][j] * b_j."""
    return _gleason_from(b, tables.shadow_inverse, "shadow")


def minimal_shadow_constraints_loop(case: FamilyCase, m: int) -> ConstraintSet:
    """The pins of solver.minimal_shadow_constraints built one entry at a
    time, each its own Fraction, by weight w: a_0 = 1, a_i = 0 for
    0 < 2i < d; b = 0 at w < d(S) and at d(S) < w < d - d(S), b = 1 at
    w = d(S) when 2 d(S) < d; and the coincidence at n = 2 (mod 8),
    d = 2 (mod 4)."""
    fam = case.params(m)
    d = case.d(m)
    ds = minimal_shadow_r(fam.n)
    pinned_a: dict[int, Fraction] = {0: Fraction(1)}
    for i in range(1, (d - 2) // 2 + 1):
        pinned_a[i] = Fraction(0)
    pinned_b: dict[int, Fraction] = {}
    for i in range(fam.b_count):
        w = fam.shadow_exponent(i)
        if w < ds or ds < w < d - ds:
            pinned_b[i] = Fraction(0)
        elif w == ds and 2 * ds < d:
            pinned_b[i] = Fraction(1)
    equalities: tuple[tuple[int, int], ...] = ()
    if fam.n % 8 == 2 and d % 4 == 2:
        equalities = ((d // 2, (d - 2) // 4),)
    return ConstraintSet(pinned_a, pinned_b, equalities)


def pinned_system_gleason(case: FamilyCase, m: int) -> list[Pair]:
    """Gleason coefficients c_0..c_K as (constant, beta coefficient)
    pairs from every pin at once: the code rows, the shadow rows, the
    coincidence rows and the beta row, over the full code block and all
    K + 1 shadow columns, through the parametric linear solve with a
    two-column right-hand side.  Beta sits at the first unpinned shadow
    slot s and is normalized as in solver.solve: c_{K-s} equals beta
    times entry (K-s, s) of the inverse shadow block.
    The shadow rows are read off the dense basis columns
    (shadow_basis_column) in the c_j themselves, so they check the
    signed-binomial rows in y_j that solver._gleason builds."""
    fam = case.params(m)
    cs = minimal_shadow_constraints(case, m)
    k = fam.c_count
    code_cols = code_basis_block(fam)
    shadow_cols = [shadow_basis_column(j, fam) for j in range(k)]
    rows: list[list[Scalar]] = []
    rhs: list[tuple[Scalar, Scalar]] = []
    for i, v in sorted(cs.pinned_a.items()):
        rows.append([code_cols[j][i] for j in range(k)])
        rhs.append((v, 0))
    for i, v in sorted(cs.pinned_b.items()):
        rows.append([shadow_cols[j][i] for j in range(k)])
        rhs.append((v, 0))
    for ai, bi in cs.equalities:
        rows.append([code_cols[j][ai] - shadow_cols[j][bi] for j in range(k)])
        rhs.append((0, 0))
    if case.parametrized:
        slot = 0
        while slot in cs.pinned_b:
            slot += 1
        istar = k - 1 - slot
        rows.append([int(j == istar) for j in range(k)])
        rhs.append((0, shadow_inverse_entry(istar, slot, fam)))
    return parametric_linear_solve(rows, rhs)


def beta_tail_gleason(case: FamilyCase, m: int) -> list[Pair]:
    """Gleason coefficients c_0..c_K of a beta family in closed form, as
    (constant, beta coefficient) pairs, with h = d/2: c_0..c_(h-1) from
    code_inverse_col0, c_h = beta times entry (h, K-h) of the inverse
    shadow block, and c_j = entry (j, 0) of that block for j > h, with no
    linear solve."""
    fam = case.params(m)
    h = case.d(m) // 2
    k_top = fam.c_count - 1
    return ([(x, 0) for x in code_inverse_col0(fam, h)[:h]]
            + [(0, shadow_inverse_entry(h, k_top - h, fam))]
            + [(shadow_inverse_entry(j, 0, fam), 0) for j in range(h + 1, k_top + 1)])


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
        return Fraction(4 * (24 * m + 1), 5 * m) * math.comb(5 * m, m - 1)
    if case.tag == "24m+4":
        return (Fraction(2 * (12 * m + 1) * (38 * m + 7), 5 * m * (2 * m + 1))
                * math.comb(5 * m, m - 1))
    return Fraction(math.comb(5 * m + 1, m))


def closed_form_bm1(case: FamilyCase, m: int) -> Fraction:
    """The forced shadow coefficient b_{m+1}, as prefactor times f(m)."""
    _check_unique(case, m)
    fm = evaluate_f(case, m)
    if case.tag == "24m+2":
        pre = Fraction(-64 * (24 * m + 1),
                       (5 * m - 1) * (4 * m + 2) * (4 * m + 3)
                       * (4 * m + 4) * (4 * m + 5)) * math.comb(5 * m, m - 1)
    elif case.tag == "24m+4":
        pre = Fraction(-128 * (12 * m + 1),
                       (5 * m - 1) * (4 * m + 2) * (4 * m + 3)
                       * (4 * m + 4) * (4 * m + 5) * (4 * m + 6)) * math.comb(5 * m, m - 1)
    else:
        pre = Fraction(-16 * (5 * m + 2),
                       (4 * m + 1) * (4 * m + 2) * (4 * m + 3)
                       * (4 * m + 4) * (4 * m + 5)) * math.comb(5 * m, m)
    return pre * fm


def closed_form_a2m1(m: int) -> Fraction:
    """The forced code coefficient a_{2m+1} in the 24m+10 family: the
    coincidence a_{2m+1} = b_m makes it closed_form_bm there."""
    return closed_form_bm(FAMILY_CASES["24m+10"], m)


def evaluate_f(case: FamilyCase, m: int) -> int:
    return poly_eval(f_poly(case), m)


# ---------------------------------------------------------------------------
# admissibility


def admissible(enum: ParametricEnumerator) -> Admissibility:
    """Whether every coefficient of a concrete enumerator is a nonnegative
    integer, read off its exact values side a first, in index order; on
    failure the certificate carries the first offending side, index and
    value, as admissible_at's does.  An enumerator that still depends on
    beta (some q != 0) raises ValueError naming it."""
    if any(q for _, q in enum.a + enum.b):
        raise ValueError("enumerator depends on beta; substitute it first")
    for side, vec in (("a", enum.a), ("b", enum.b)):
        for i, (p, _) in enumerate(vec):
            v = Fraction(p)
            if v < 0 or v.denominator > 1:
                return Admissibility(False, side, i, v)
    return Admissibility(True, None, None, None)


# ---------------------------------------------------------------------------
# binary codes


def build_code(rows: Sequence[Sequence[int]]) -> BinaryCode:
    """Build a code from generator rows given as 0/1 vectors of one length,
    entry i of a row being bit i of its row int."""
    if not rows:
        raise ValueError("need at least one generator row")
    n = len(rows[0])
    if any(len(v) != n or any(bit not in (0, 1) for bit in v) for v in rows):
        raise ValueError("generator rows must be 0/1 vectors of one length")
    return BinaryCode([sum(bit << i for i, bit in enumerate(v)) for v in rows], n)


def dual(code: BinaryCode) -> BinaryCode:
    """The dual code, from the standard nullspace construction on the RREF."""
    pivset = set(code.pivots)
    gens = []
    for f in range(code.n):
        if f in pivset:
            continue
        v = 1 << f
        for r, p in zip(code.rows, code.pivots):
            if r & (1 << f):
                v |= 1 << p
        gens.append(v)
    return BinaryCode(gens, code.n)


def weight_distribution_naive(code: BinaryCode, offset: int = 0) -> list[int]:
    """Weight counts of offset + C, one Python int per codeword."""
    dist = [0] * (code.n + 1)
    for combo in range(1 << code.k):
        v = offset
        for i, row in enumerate(code.rows):
            if combo >> i & 1:
                v ^= row
        dist[v.bit_count()] += 1
    return dist


def macwilliams_fixed_point(code: BinaryCode) -> bool:
    """Exact MacWilliams self-duality check on the weight distribution:
    2^(n/2) W(y) = (1+y)^n W((1-y)/(1+y)) after clearing denominators.
    It reads the exhaustive enumeration: the library's distribution of a
    self-dual code is a Gleason polynomial, a fixed point by construction."""
    if 2 * code.k != code.n:
        raise ValueError("MacWilliams fixed point applies to self-dual sizes")
    dist = weight_distribution(code)
    n = code.n
    rhs: list = []
    one_minus = [1, -1]
    one_plus = [1, 1]
    # sum_w A_w (1-y)^w (1+y)^(n-w)
    pw_minus = [[1]]
    for _ in range(n):
        pw_minus.append(poly_product(pw_minus[-1], one_minus))
    pw_plus = [[1]]
    for _ in range(n):
        pw_plus.append(poly_product(pw_plus[-1], one_plus))
    for w, count in enumerate(dist):
        if count:
            rhs = poly_add(rhs, poly_scale(count, poly_product(pw_minus[w],
                                                               pw_plus[n - w])))
    lhs = poly_scale(1 << code.k, dist)
    return poly_trim(lhs) == poly_trim(rhs)
