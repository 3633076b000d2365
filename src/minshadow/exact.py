"""Exact arithmetic substrate: polynomial evaluation and Taylor shifts,
affine forms over named parameters, and the parametric linear solve.

Integers are Python ints, rationals are fractions.Fraction, a polynomial
is a coefficient list indexed by exponent, and a matrix is a rectangular
list of rows.  Every routine is a pure function over
immutable-by-convention values; nothing here ever touches floating
point.  str() is the one serialization of an exact number: decimal for
an int or a Fraction over 1, "p/q" for any other Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

Scalar = int | Fraction


class LinearSystemError(ValueError):
    """Raised when a linear system has no solution."""


class VerificationFailure(Exception):
    """An identity the library checks, or a recorded value, failed to
    hold; the command line exits with status 1."""


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


# ---------------------------------------------------------------------------
# affine forms


class AffineForm:
    """An exact affine expression  constant + sum(coeff * parameter).

    Parameters are identified by name; zero coefficients are never
    stored, so equality is plain structural equality.  Instances are
    immutable.
    """

    __slots__ = ("constant", "terms")

    def __init__(self, constant: Scalar = 0,
                 terms: Mapping[str, Scalar] | None = None):
        object.__setattr__(self, "constant", Fraction(constant))
        clean = {}
        if terms:
            for name, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    clean[name] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def parameter(cls, name: str, coeff: Scalar = 1) -> "AffineForm":
        return cls(0, {name: coeff})

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("AffineForm is immutable")

    def as_fraction(self) -> Fraction:
        if self.terms:
            raise ValueError(f"affine form {self} is not constant")
        return self.constant

    def parameters(self) -> frozenset[str]:
        return frozenset(self.terms)

    def substitute(self, values: Mapping[str, Scalar]) -> "AffineForm":
        const = self.constant
        rest = {}
        for name, coeff in self.terms.items():
            if name in values:
                const += coeff * Fraction(values[name])
            else:
                rest[name] = coeff
        return AffineForm(const, rest)

    @staticmethod
    def _coerce(other) -> "AffineForm | None":
        if isinstance(other, AffineForm):
            return other
        if isinstance(other, (int, Fraction)):
            return AffineForm(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for name, coeff in o.terms.items():
            terms[name] = terms.get(name, Fraction(0)) + coeff
        return AffineForm(self.constant + o.constant, terms)

    __radd__ = __add__

    def __neg__(self):
        return AffineForm(-self.constant, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AffineForm(self.constant * other,
                              {k: v * other for k, v in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return AffineForm(self.constant / other,
                              {k: v / other for k, v in self.terms.items()})
        return NotImplemented

    def __bool__(self):
        return bool(self.constant) or bool(self.terms)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.constant == o.constant and self.terms == o.terms

    def __hash__(self):  # a form without terms hashes as its constant
        if not self.terms:
            return hash(self.constant)
        return hash((self.constant, tuple(sorted(self.terms.items()))))

    def __str__(self):
        parts: list[str] = []
        if self.constant or not self.terms:
            parts.append(str(self.constant))
        for name in sorted(self.terms):
            coeff = self.terms[name]
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            body = name if mag == 1 else f"{mag}*{name}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"AffineForm({self})"


def as_affine(x) -> AffineForm:
    if isinstance(x, AffineForm):
        return x
    return AffineForm(x)


def parametric_linear_solve(
    a: Sequence[Sequence[Scalar]],
    rhs: Sequence[AffineForm | Scalar],
    unknowns: Sequence[str],
) -> tuple[dict[str, AffineForm], list[str]]:
    """Solve a * x = rhs exactly, where rhs entries may carry free parameters.

    Returns each unknown as an AffineForm over the parameters that remain
    free, together with the sorted list of free parameter names.  Extra
    consistent equations are fine.  An unknown whose column acquires no
    pivot is reported as a free parameter under its own name rather than
    being silently resolved; an inconsistent system raises
    LinearSystemError.

    Sparse row echelon: each row, in the given order, is cleared of the
    stored pivot columns in ascending lead order (a stored row with lead
    t has entries only right of t, so one pass suffices) and stored with
    a unit lead; stored rows are never rewritten.  One back-substitution
    in descending lead order follows.  The triangular minimal-shadow
    systems see no fill-in, so they cost O(K^2).
    """
    ncols = len(unknowns)
    if any(len(row) != ncols for row in a):
        raise ValueError("row length does not match number of unknowns")
    if len(a) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")

    # pivots: lead column -> (sparse row right of the unit lead, affine rhs)
    pivots: dict[int, tuple[dict[int, Fraction], AffineForm]] = {}
    for row, r in zip(a, rhs):
        coeffs = {c: Fraction(x) for c, x in enumerate(row) if x}
        form = as_affine(r)
        for t in sorted(pivots):
            f = coeffs.pop(t, None)
            if f is not None:
                prow, pform = pivots[t]
                for c, y in prow.items():
                    v = coeffs.pop(c, 0) - f * y
                    if v:
                        coeffs[c] = v
                form = form - pform * f
        if not coeffs:
            if form:
                raise LinearSystemError(f"no solution: 0 = {form}")
            continue
        lead = min(coeffs)
        f = coeffs.pop(lead)
        if f != 1:
            coeffs = {c: x / f for c, x in coeffs.items()}
            form = form / f
        pivots[lead] = (coeffs, form)

    solution = {unknowns[c]: AffineForm.parameter(unknowns[c])
                for c in range(ncols) if c not in pivots}
    for t in sorted(pivots, reverse=True):
        prow, expr = pivots[t]
        for c, y in prow.items():
            expr = expr - solution[unknowns[c]] * y
        solution[unknowns[t]] = expr

    free_names = set().union(*(form.parameters() for form in solution.values()))
    return solution, sorted(free_names)

