"""Exact arithmetic substrate tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minshadow.exact import (AffineForm, LinearSystemError, as_affine,
                             binomial, format_exact, parametric_linear_solve,
                             poly_eval)
from oracles import (SingularMatrixError, identity_matrix, matrix_inverse,
                     matrix_product, poly_product, poly_trim)


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
    rhs = []
    for row in a:
        acc = AffineForm(0)
        for coef, x in zip(row, x_true):
            acc = acc + x * coef
        rhs.append(acc)
    return rhs


def _assert_solves(a, rhs, sol, free, unknowns):
    """a * x == rhs under two different assignments to every free name."""
    for shift in (0, 7):
        vals = {name: i + shift for i, name in enumerate(free)}
        xs = [sol[u].substitute(vals).as_fraction() for u in unknowns]
        for row, want in zip(a, rhs):
            got = sum(c * x for c, x in zip(row, xs))
            assert got == as_affine(want).substitute(vals).as_fraction()


def _solve_shuffled(rng, a, x_true):
    """Solve the system built from x_true with its rows in random order,
    check it, and return (solution, free names, unknowns)."""
    rhs = _rhs_for(a, x_true)
    order = list(range(len(a)))
    rng.shuffle(order)
    a = [a[i] for i in order]
    rhs = [rhs[i] for i in order]
    unknowns = [f"x{i}" for i in range(len(x_true))]
    sol, free = parametric_linear_solve(a, rhs, unknowns)
    _assert_solves(a, rhs, sol, free, unknowns)
    return sol, free, unknowns


def _affine_unknowns(rng, n):
    return [AffineForm(rng.randrange(-3, 4),
                       {"t": rng.randrange(-2, 3), "u": rng.randrange(-2, 3)})
            for _ in range(n)]


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


class TestAffineForm:
    def test_str_forms(self):
        assert str(AffineForm(35, {"beta": -8})) == "35 - 8*beta"
        assert str(AffineForm(0, {"beta": 2})) == "2*beta"
        assert str(AffineForm(-12, {"beta": 1})) == "-12 + beta"
        assert str(AffineForm(0)) == "0"
        assert str(AffineForm(Fraction(-9, 128))) == "-9/128"

    def test_equality_is_structural(self):
        x = AffineForm(1, {"beta": 2})
        assert x == AffineForm(1, {"beta": 2})
        assert x != AffineForm(1)
        assert AffineForm(3, {"beta": 0}) == AffineForm(3) == 3

    def test_substitute(self):
        x = AffineForm(35, {"beta": -8})
        assert x.substitute({"beta": 4}) == AffineForm(3)
        assert x.substitute({"other": 1}) == x

    def test_arithmetic(self):
        b = AffineForm.parameter("beta")
        assert 2 * b + 1 - b == AffineForm(1, {"beta": 1})
        assert (4 * b) / 2 == 2 * b
        assert -(b - 1) == 1 - b


class TestParametricSolve:
    def test_pinned_free_parameter(self):
        # x + y = 1 with y kept as a free symbol on the right-hand side
        sol, free = parametric_linear_solve(
            [[1]], [AffineForm(1) - AffineForm.parameter("y")], ["x"])
        assert sol["x"] == AffineForm(1, {"y": -1})
        assert free == ["y"]

    def test_two_by_two(self):
        sol, free = parametric_linear_solve(
            [[1, 1], [1, -1]], [AffineForm(3), AffineForm(1)], ["x", "y"])
        assert sol["x"] == AffineForm(2)
        assert sol["y"] == AffineForm(1)
        assert free == []

    def test_inconsistent(self):
        with pytest.raises(LinearSystemError):
            parametric_linear_solve([[1], [1]],
                                    [AffineForm(1), AffineForm(2)], ["x"])
        # row 3 = row 1 + row 2 on the left only, seen after elimination
        with pytest.raises(LinearSystemError, match="no solution: 0 = "):
            parametric_linear_solve(
                [[1, 2, 0], [0, 1, 1], [1, 3, 1]],
                [AffineForm(1), AffineForm.parameter("t"), AffineForm(0)],
                ["x", "y", "z"])

    def test_rank_deficiency_reported_as_free(self):
        sol, free = parametric_linear_solve(
            [[1, 1]], [AffineForm(1)], ["x", "y"])
        assert free == ["y"]
        assert sol["y"] == AffineForm.parameter("y")
        assert sol["x"] == AffineForm(1, {"y": -1})

    def test_overdetermined_consistent(self):
        sol, free = parametric_linear_solve(
            [[1, 0], [0, 1], [1, 1]],
            [AffineForm(2), AffineForm(3), AffineForm(5)], ["x", "y"])
        assert sol["x"] == AffineForm(2) and sol["y"] == AffineForm(3)

    def test_substitution_satisfies_system(self):
        rng = random.Random(13)
        for trial in range(20):
            n = rng.randrange(1, 5)
            a = [[Fraction(rng.randrange(-4, 5)) for _ in range(n)]
                 for _ in range(n + rng.randrange(0, 2))]
            x_true = [AffineForm(rng.randrange(-3, 4),
                                 {"t": rng.randrange(-2, 3)}) for _ in range(n)]
            rhs = []
            for row in a:
                acc = AffineForm(0)
                for coef, x in zip(row, x_true):
                    acc = acc + x * coef
                rhs.append(acc)
            try:
                sol, free = parametric_linear_solve(a, rhs, [f"x{i}" for i in range(n)])
            except LinearSystemError:
                pytest.fail("consistent system reported unsolvable")
            t_val = rng.randrange(-5, 6)
            xs = [sol[f"x{i}"].substitute({"t": t_val}) for i in range(n)]
            # any reported free unknowns get arbitrary values
            vals = {name: 1 for name in free if name != "t"}
            xs = [x.substitute(vals).as_fraction() for x in xs]
            for row, want in zip(a, rhs):
                got = sum(c * x for c, x in zip(row, xs))
                assert got == want.substitute({"t": t_val}).as_fraction()


class TestSparseSolveStructure:
    """Systems shaped like the minimal-shadow constraints: triangular
    blocks, anti-triangular blocks whose leads decrease, a dense coupling
    row, parameters on the right-hand side, and rank deficiency."""

    def test_lower_triangular_blocks(self):
        rng = random.Random(31)
        for n in range(1, 11):
            x_true = _affine_unknowns(rng, n)
            sol, free, unknowns = _solve_shuffled(rng, _lower_triangular(rng, n), x_true)
            assert [sol[u] for u in unknowns] == x_true
            assert set(free) == set().union(*(x.parameters() for x in x_true))

    def test_anti_triangular_blocks_decreasing_leads(self):
        rng = random.Random(32)
        for n in range(1, 11):
            # row i touches columns n-1-i .. n-1, so in the given order
            # every new row has a smaller lead than all rows before it
            a = [row[::-1] for row in _lower_triangular(rng, n)]
            x_true = _affine_unknowns(rng, n)
            rhs = _rhs_for(a, x_true)
            unknowns = [f"x{i}" for i in range(n)]
            sol, free = parametric_linear_solve(a, rhs, unknowns)
            assert [sol[u] for u in unknowns] == x_true
            sol, free, unknowns = _solve_shuffled(rng, a, x_true)
            assert [sol[u] for u in unknowns] == x_true

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
            unknowns = [f"x{i}" for i in range(n)]
            sol, free = parametric_linear_solve(a, rhs, unknowns)
            assert [sol[u] for u in unknowns] == x_true

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
            sol, free, unknowns = _solve_shuffled(rng, a, x_true)
            free_unknowns = [name for name in free if name in unknowns]
            assert len(free_unknowns) >= n - rank
            for name in free_unknowns:
                assert sol[name] == AffineForm.parameter(name)


def test_format_exact():
    assert format_exact(19051200) == "19051200"
    assert format_exact(Fraction(-9, 128)) == "-9/128"
    assert format_exact(Fraction(4, 2)) == "2"
