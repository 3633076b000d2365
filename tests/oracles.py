"""Independent derivations the tests compare the library against.

None of these is on a library path.  Dense polynomial arithmetic and
dense rational matrices check the transform blocks and the solver; the
full code-side basis polynomials, built by repeated multiplication,
check the Horner expansion kernel; Gleason coefficients read back
through the inverse blocks check the enumerators; the dual code and the
MacWilliams fixed-point identity check the GF(2) engine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from minshadow.exact import (AffineForm, LinearSystemError, Scalar, as_affine,
                             binomial, parametric_linear_solve)
from minshadow.gf2 import BinaryCode, code_weight_distribution
from minshadow.gleason import FamilyParams, Matrix, TransformTables


class SingularMatrixError(ValueError):
    """Raised when a matrix inverse is requested for a singular matrix."""


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
    """Exact inverse, read off the parametric solution of m x = e.

    The right-hand side is e_i = parameter "e{i}", so entry (j, i) of the
    inverse is the coefficient of e_i in x_j.  A singular matrix leaves
    some row 0 = (a nonzero combination of the e_i) and raises
    SingularMatrixError.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix_inverse requires a square matrix")
    unknowns = [f"x{j}" for j in range(n)]
    rhs = [AffineForm.parameter(f"e{i}") for i in range(n)]
    try:
        x, _ = parametric_linear_solve(m, rhs, unknowns)
    except LinearSystemError as exc:
        raise SingularMatrixError(f"matrix is singular ({exc})") from exc
    return [[x[u].terms.get(f"e{i}", Fraction(0)) for i in range(n)]
            for u in unknowns]


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
        p = poly_product(p, [0, 1, -2, 1])
    return p


def _gleason_from(values: Sequence[AffineForm | Scalar], inverse: Matrix,
                  side: str) -> list[AffineForm]:
    """c_i = sum_j inverse[i][j] * values[j], skipping the zero entries
    outside the support of the inverse block."""
    k = len(inverse)
    if len(values) < k:
        raise ValueError(f"need at least {k} {side} coefficients, got {len(values)}")
    vv = [as_affine(x) for x in values[:k]]
    out = []
    for row in inverse:
        c = AffineForm(0)
        for v, e in zip(vv, row):
            if e:
                c = c + v * e
        out.append(c)
    return out


def gleason_from_code(a: Sequence[AffineForm | Scalar],
                      tables: TransformTables) -> list[AffineForm]:
    """Gleason coefficients from the leading code coefficients:
    c_i = sum_{j<=i} code_inverse[i][j] * a_j."""
    return _gleason_from(a, tables.code_inverse, "code")


def gleason_from_shadow(b: Sequence[AffineForm | Scalar],
                        tables: TransformTables) -> list[AffineForm]:
    """Gleason coefficients from the leading shadow coefficients:
    c_i = sum_{j<=K-i} shadow_inverse[i][j] * b_j."""
    return _gleason_from(b, tables.shadow_inverse, "shadow")


# ---------------------------------------------------------------------------
# binary codes


def build_code(rows: Sequence[Sequence[int]] | Sequence[int],
               n: int | None = None) -> BinaryCode:
    """Build a code from bit-vector rows, or from row ints when n is given."""
    if n is not None:
        return BinaryCode([int(r) for r in rows], n)
    return BinaryCode.from_vectors(rows)  # type: ignore[arg-type]


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


def macwilliams_fixed_point(code: BinaryCode) -> bool:
    """Exact MacWilliams self-duality check on the weight distribution:
    2^(n/2) W(y) = (1+y)^n W((1-y)/(1+y)) after clearing denominators."""
    if 2 * code.k != code.n:
        raise ValueError("MacWilliams fixed point applies to self-dual sizes")
    dist = code_weight_distribution(code)
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
