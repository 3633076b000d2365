"""Exact arithmetic substrate tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minshadow.cli import affine_text
from minshadow.exact import (LinearSystemError, parametric_linear_solve,
                             poly_eval, taylor_shift)
from oracles import (SingularMatrixError, binomial, identity_matrix,
                     matrix_inverse, matrix_product, poly_product, poly_trim)


class TestBinomial:
    def test_boundary(self):
        assert binomial(5, 0) == 1

    def test_small_pascal_value(self):
        assert binomial(5, 2) == 10

    def test_out_of_range_convention(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 7) == 0

    def test_negative_top_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    def test_pascal_rule(self):
        for n in range(1, 61):
            for k in range(0, n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


small_polys = st.lists(st.integers(min_value=-9, max_value=9), max_size=6)


class TestPoly:
    def test_difference_of_squares(self):
        assert poly_product([1, 1], [1, -1]) == [1, 0, -1]

    def test_multiplicative_identity(self):
        p = [3, 0, Fraction(1, 2), 7]
        assert poly_product(p, [1]) == poly_trim(p)

    def test_binomial_expansion_oracle(self):
        # (1+z)^2 (1+z)^3 = (1+z)^5, so coefficients must be C(5, i)
        got = poly_product([1, 2, 1], [1, 3, 3, 1])
        assert got == [binomial(5, i) for i in range(6)]
        assert got[2] == 10

    def test_zero_absorbing(self):
        assert poly_product([], [1, 2]) == []
        assert poly_product([0, 0], [1, 2]) == []

    @given(small_polys, small_polys)
    def test_commutative(self, p, q):
        assert poly_product(p, q) == poly_product(q, p)

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60)
    def test_associative(self, p, q, r):
        assert poly_product(poly_product(p, q), r) == poly_product(p, poly_product(q, r))

    def test_eval(self):
        assert poly_eval([1, -14, 46, 2812, -14816, 64], 1) == -11907


def _rand_fraction(rng, nonzero=False):
    while True:
        x = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
        if x or not nonzero:
            return x


def _rhs_for(a, x_true):
    """The right-hand side a x_true, column by column of the parameter
    tuples in x_true."""
    return [tuple(sum(coef * x[t] for coef, x in zip(row, x_true))
                  for t in range(len(x_true[0])))
            for row in a]


def _assert_solves(a, rhs, sol):
    """a * x == rhs in every parameter column."""
    assert _rhs_for(a, sol) == [tuple(r) for r in rhs]


def _shuffled(rng, a, x_true):
    """The system built from x_true with its rows in random order."""
    rhs = _rhs_for(a, x_true)
    order = list(range(len(a)))
    rng.shuffle(order)
    return [a[i] for i in order], [rhs[i] for i in order]


def _solve_shuffled(rng, a, x_true):
    """Solve the system built from x_true with its rows in random order,
    check it, and return the solution."""
    a, rhs = _shuffled(rng, a, x_true)
    sol = parametric_linear_solve(a, rhs)
    _assert_solves(a, rhs, sol)
    return sol


def _affine_unknowns(rng, n):
    # (constant, coefficient of t, coefficient of u)
    return [(rng.randrange(-3, 4), rng.randrange(-2, 3), rng.randrange(-2, 3))
            for _ in range(n)]


def _parameters(xs):
    """The parameter columns t > 0 with a nonzero entry in some tuple."""
    return {t for x in xs for t in range(1, len(x)) if x[t]}


def _lower_triangular(rng, n):
    return [[_rand_fraction(rng, nonzero=(j == i)) if j <= i else Fraction(0)
             for j in range(n)] for i in range(n)]


class TestMatrixInverse:
    def test_identity(self):
        eye = identity_matrix(4)
        assert matrix_inverse(eye) == eye

    def test_unitriangular_2x2(self):
        # leading block of the code-side transform for n = 26
        inv = matrix_inverse([[1, 0], [13, 1]])
        assert inv == [[1, 0], [-13, 1]]

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            matrix_inverse([[1, 1], [1, 1]])

    def test_random_inverses_exact(self):
        rng = random.Random(7)
        for trial in range(25):
            n = rng.randrange(1, 5)
            m = [[Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                  for _ in range(n)] for _ in range(n)]
            try:
                inv = matrix_inverse(m)
            except SingularMatrixError:
                continue
            assert matrix_product(m, inv) == identity_matrix(n)
            assert matrix_product(inv, m) == identity_matrix(n)

    def _check(self, m):
        inv = matrix_inverse(m)
        n = len(m)
        assert matrix_product(m, inv) == identity_matrix(n)
        assert matrix_product(inv, m) == identity_matrix(n)

    def test_triangular(self):
        rng = random.Random(41)
        for n in range(1, 11):
            low = _lower_triangular(rng, n)
            self._check(low)
            self._check([row[::-1] for row in low])
            self._check([list(col) for col in zip(*low)])

    def test_sparse(self):
        rng = random.Random(42)
        for trial in range(30):
            n = rng.randrange(1, 11)
            perm = list(range(n))
            rng.shuffle(perm)
            # a permuted diagonal keeps the matrix invertible; sprinkle a few
            # off-pattern entries and keep the ones that stay invertible
            m = [[_rand_fraction(rng, nonzero=True) if perm[i] == j else Fraction(0)
                  for j in range(n)] for i in range(n)]
            for _ in range(n):
                m[rng.randrange(n)][rng.randrange(n)] = _rand_fraction(rng)
            try:
                self._check(m)
            except SingularMatrixError:
                continue

    def test_empty(self):
        assert matrix_inverse([]) == []

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            matrix_inverse([[1, 2]])

    def test_dependency_only_after_elimination(self):
        # no zero row, no two rows proportional; row 3 = row 1 + row 2
        m = [[1, 2, 0, 1], [0, 1, 3, 1], [1, 3, 3, 2], [2, 0, 1, 5]]
        with pytest.raises(SingularMatrixError):
            matrix_inverse(m)


class TestTaylorShift:
    @given(small_polys, st.integers(-50, 50), st.integers(-50, 50))
    def test_matches_evaluation(self, p, t, x):
        assert poly_eval(taylor_shift(p, t), x) == poly_eval(p, t + x)

    def test_values(self):
        # (1 + x)^3 shifted by -1 is x^3
        assert taylor_shift([1, 3, 3, 1], -1) == [0, 0, 0, 1]
        assert taylor_shift([5, 0, 1], 2) == [9, 4, 1]
        assert taylor_shift([], 3) == []
        assert taylor_shift([Fraction(1, 2), 1], Fraction(1, 2)) == [1, 1]


class TestParametricSolve:
    def test_pinned_free_parameter(self):
        # x + y = 1 with y kept as a free symbol on the right-hand side:
        # columns (constant, y)
        sol = parametric_linear_solve([[1]], [(1, -1)])
        assert sol == [(1, -1)]
        assert _parameters(sol) == {1}

    def test_two_by_two(self):
        sol = parametric_linear_solve([[1, 1], [1, -1]], [(3,), (1,)])
        assert sol == [(2,), (1,)]
        assert _parameters(sol) == set()

    def test_inconsistent(self):
        with pytest.raises(LinearSystemError):
            parametric_linear_solve([[1], [1]], [(1,), (2,)])
        # row 3 = row 1 + row 2 on the left only, seen after elimination;
        # columns (constant, t)
        with pytest.raises(LinearSystemError, match="no solution: 0 = "):
            parametric_linear_solve(
                [[1, 2, 0], [0, 1, 1], [1, 3, 1]],
                [(1, 0), (0, 1), (0, 0)])

    def test_rank_deficiency_reported_as_free(self):
        # y has no pivot: the rank deficiency is reported as an error
        # naming the unknown, not resolved silently
        with pytest.raises(LinearSystemError, match="rank deficient: unknown 1"):
            parametric_linear_solve([[1, 1]], [(1,)])

    def test_ints_where_integral(self):
        # an integer system with unit leads is solved in ints; a non-unit
        # lead gives a Fraction only where its division is not even
        rng = random.Random(14)
        for n in range(1, 9):
            a = [[rng.randrange(-4, 5) if j > i else int(i == j)
                  for j in range(n)] for i in range(n)]
            x_true = [(rng.randrange(-9, 10), rng.randrange(-9, 10))
                      for _ in range(n)]
            sol = parametric_linear_solve(*_shuffled(rng, a, x_true))
            assert sol == x_true
            assert all(type(x) is int for row in sol for x in row), sol
        sol = parametric_linear_solve([[2, 0], [0, 3]], [(4, 1), (3, 6)])
        assert sol == [(2, Fraction(1, 2)), (1, 2)]
        assert [type(x) for row in sol for x in row] == [int, Fraction, int, int]

    def test_overdetermined_consistent(self):
        sol = parametric_linear_solve([[1, 0], [0, 1], [1, 1]], [(2,), (3,), (5,)])
        assert sol == [(2,), (3,)]

    def test_substitution_satisfies_system(self):
        rng = random.Random(13)
        for trial in range(20):
            n = rng.randrange(1, 5)
            a = [[Fraction(rng.randrange(-4, 5)) for _ in range(n)]
                 for _ in range(n + rng.randrange(0, 2))]
            # (constant, coefficient of t)
            x_true = [(rng.randrange(-3, 4), rng.randrange(-2, 3))
                      for _ in range(n)]
            rhs = _rhs_for(a, x_true)
            try:
                sol = parametric_linear_solve(a, rhs)
            except LinearSystemError as exc:
                # a consistent system fails only for want of a pivot
                assert "rank deficient" in str(exc)
                continue
            _assert_solves(a, rhs, sol)
            for t_val in (0, rng.randrange(-5, 6)):
                xs = [p + q * t_val for p, q in sol]
                for row, (p, q) in zip(a, rhs):
                    assert sum(c * x for c, x in zip(row, xs)) == p + q * t_val


class TestSparseSolveStructure:
    """Systems shaped like the minimal-shadow constraints: triangular
    blocks, anti-triangular blocks whose leads decrease, a dense coupling
    row, parameters on the right-hand side, and rank deficiency."""

    def test_lower_triangular_blocks(self):
        rng = random.Random(31)
        for n in range(1, 11):
            x_true = _affine_unknowns(rng, n)
            sol = _solve_shuffled(rng, _lower_triangular(rng, n), x_true)
            assert sol == x_true
            assert _parameters(sol) == _parameters(x_true)

    def test_anti_triangular_blocks_decreasing_leads(self):
        rng = random.Random(32)
        for n in range(1, 11):
            # row i touches columns n-1-i .. n-1, so in the given order
            # every new row has a smaller lead than all rows before it
            a = [row[::-1] for row in _lower_triangular(rng, n)]
            x_true = _affine_unknowns(rng, n)
            rhs = _rhs_for(a, x_true)
            assert parametric_linear_solve(a, rhs) == x_true
            assert _solve_shuffled(rng, a, x_true) == x_true

    def test_dense_coupling_row_last(self):
        rng = random.Random(33)
        for trial in range(30):
            n = rng.randrange(2, 11)
            p = rng.randrange(1, n)
            low = _lower_triangular(rng, p)
            anti = [row[::-1] for row in _lower_triangular(rng, n - p - 1)]
            # columns 0..p-1: lower block; p: coupling slot; p+1..n-1: anti block
            a = [row + [Fraction(0)] * (n - p) for row in low]
            a += [[Fraction(0)] * (p + 1) + row for row in anti]
            x_true = _affine_unknowns(rng, n)
            dense = [_rand_fraction(rng) for _ in range(n)]
            dense[p] = _rand_fraction(rng, nonzero=True)
            a.append(dense)
            rhs = _rhs_for(a, x_true)
            assert parametric_linear_solve(a, rhs) == x_true

    def test_rank_deficient(self):
        rng = random.Random(35)
        for trial in range(40):
            n = rng.randrange(2, 11)
            rank = rng.randrange(1, n)
            basis = [[_rand_fraction(rng) for _ in range(n)] for _ in range(rank)]
            a = []
            for _ in range(rng.randrange(1, n + 2)):
                mix = [rng.randrange(-2, 3) for _ in basis]
                a.append([sum(k * b[j] for k, b in zip(mix, basis))
                          for j in range(n)])
            x_true = _affine_unknowns(rng, n)
            a, rhs = _shuffled(rng, a, x_true)
            # consistent, but at least n - rank unknowns have no pivot
            with pytest.raises(LinearSystemError, match="rank deficient"):
                parametric_linear_solve(a, rhs)


def test_format_exact():
    # str is the one serialization of an exact number: decimal for an int
    # or a Fraction over 1, "p/q" otherwise, in p + q*beta text too
    assert str(19051200) == "19051200"
    assert str(Fraction(-9, 128)) == "-9/128"
    assert str(Fraction(4, 2)) == "2"
    assert affine_text((Fraction(4, 2), Fraction(-9, 128))) == "2 - 9/128*beta"
    assert affine_text((0, Fraction(6, 3))) == "2*beta"
