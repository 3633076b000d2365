"""Exact arithmetic substrate: polynomial evaluation and Taylor shifts,
and one exact elimination, the parametric linear solve, whose right-hand
side has one numeric column per parameter: two for the library's one
free parameter beta, the constant term and the beta coefficient.

Integers are Python ints, rationals are fractions.Fraction, a polynomial
is a coefficient list indexed by exponent, and a matrix is a rectangular
list of rows; a value stays an int where it is integral (exact_div).
Every routine is a pure function over immutable-by-convention values;
nothing here ever touches floating point.  str() is the one
serialization of an exact number: decimal for an int or a Fraction over
1, "p/q" for any other Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Scalar = int | Fraction


class LinearSystemError(ValueError):
    """Raised when a linear system has no solution, or no unique one."""


class VerificationFailure(Exception):
    """An identity the library checks, or a recorded value, failed to
    hold; the command line exits with status 1."""


def exact_div(num: Scalar, den: Scalar) -> Scalar:
    """num/den as a plain int where den divides num, else as a Fraction."""
    q, rem = divmod(num, den)
    return Fraction(num, den) if rem else q


def poly_eval(p: Sequence[Scalar], x: Scalar) -> Scalar:
    acc: Scalar = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def taylor_shift(p: Sequence[Scalar], t: Scalar) -> list[Scalar]:
    """Coefficients of p(t + x) in ascending powers of x, by Horner's rule
    with x + t in place of x."""
    q: list[Scalar] = []
    for c in reversed(p):
        q = [t * u + v for u, v in zip(q + [0], [0] + q)]
        q[0] += c
    return q


def parametric_linear_solve(
    a: Sequence[Sequence[Scalar]],
    rhs: Sequence[Sequence[Scalar]],
) -> list[tuple[Scalar, ...]]:
    """Solve a x = rhs exactly for every column of rhs at once.

    Every right-hand side row has the same width, one number per
    parameter column (the library's two: the constant term and the beta
    coefficient).  Returns one tuple of that width per unknown, in column
    order of a, an int where it is integral: no entry is made a Fraction,
    and a non-unit lead divides its row through exact_div.  Extra
    consistent equations are fine; an inconsistent system, or an unknown
    whose column acquires no pivot, raises LinearSystemError.

    Sparse row echelon: each row, in the given order, is cleared of the
    stored pivot columns in ascending lead order (a stored row with lead
    t has entries only right of t, so one pass suffices) and stored with
    a unit lead; stored rows are never rewritten.  One back-substitution
    in descending lead order follows.  The triangular minimal-shadow
    systems see no fill-in, so they cost O(K^2).
    """
    ncols = len(a[0]) if a else 0
    width = len(rhs[0]) if rhs else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("rows of the matrix differ in length")
    if len(a) != len(rhs) or any(len(r) != width for r in rhs):
        raise ValueError("right-hand side rows do not match the matrix")

    # pivots: lead column -> (sparse row right of the unit lead, right-hand side)
    pivots: dict[int, tuple[dict[int, Scalar], list[Scalar]]] = {}
    for row, r in zip(a, rhs):
        coeffs = {c: x for c, x in enumerate(row) if x}
        form = list(r)
        for t in sorted(pivots):
            f = coeffs.pop(t, None)
            if f is not None:
                prow, pform = pivots[t]
                for c, y in prow.items():
                    v = coeffs.pop(c, 0) - f * y
                    if v:
                        coeffs[c] = v
                form = [x - f * y if y else x for x, y in zip(form, pform)]
        if not coeffs:
            if any(form):
                raise LinearSystemError(f"no solution: 0 = {', '.join(map(str, form))}")
            continue
        lead = min(coeffs)
        f = coeffs.pop(lead)
        if f != 1:
            coeffs = {c: exact_div(x, f) for c, x in coeffs.items()}
            form = [exact_div(x, f) for x in form]
        pivots[lead] = (coeffs, form)
    if len(pivots) < ncols:
        missing = min(set(range(ncols)) - set(pivots))
        raise LinearSystemError(f"rank deficient: unknown {missing} has no pivot")

    solution: list[tuple[Scalar, ...]] = [()] * ncols
    for t in sorted(pivots, reverse=True):
        prow, expr = pivots[t]
        for c, y in prow.items():
            expr = [x - y * s for x, s in zip(expr, solution[c])]
        solution[t] = tuple(expr)
    return solution
