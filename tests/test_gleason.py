"""Transform tables, closed forms, and coefficient conversions."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minshadow import gleason, solver
from minshadow.exact import VerificationFailure
from minshadow.gleason import (FamilyParams, ParametricEnumerator,
                               _catalan_power, _palindromic_horner,
                               _shadow_shift, build_transform_tables,
                               code_inverse_col0, enumerators_from_gleason,
                               expand_scaled, horner_code_side,
                               horner_shadow_side, shadow_basis_column,
                               shadow_inverse_col0, shadow_inverse_entry)
from oracles import (binomial, code_basis_block, code_basis_poly,
                     code_inverse_col0_lagrange, code_inverse_col0_peel,
                     code_inverse_col0_sum, col0_recurrence_expanded,
                     gleason_from_code, gleason_from_shadow, identity_matrix,
                     inverse_blocks, matrix_product, one_plus_z_power_steps,
                     poly_product, shadow_inverse_entry_product, window_by_delta)
from optimized import run_optimized

# every decomposition with m <= 3 (the m <= 8 sweep lives in the
# acceptance suite); n = 0 is excluded by validity
ALL_SMALL_FAMILIES = [FamilyParams(m, l, r)
                      for m in range(4) for l in range(3) for r in range(4)
                      if 24 * m + 8 * l + 2 * r > 0]
# every decomposition with m <= 8, and two at the print cap of tables
CLOSED_FORM_FAMILIES = [FamilyParams(m, l, r)
                        for m in range(9) for l in range(3) for r in range(4)
                        if 24 * m + 8 * l + 2 * r > 0] + [
                            FamilyParams(21, 0, 1), FamilyParams(20, 2, 3)]


class TestFamilyParams:
    @pytest.mark.parametrize("n,m,l,r", [
        (2, 0, 0, 1), (22, 0, 2, 3), (26, 1, 0, 1), (30, 1, 0, 3),
        (34, 1, 1, 1), (46, 1, 2, 3), (54, 2, 0, 3), (70, 2, 2, 3),
        (24, 1, 0, 0), (8, 0, 1, 0),
    ])
    def test_unique_decomposition(self, n, m, l, r):
        fam = FamilyParams.from_length(n)
        assert (fam.m, fam.l, fam.r) == (m, l, r)
        assert fam.n == n
        assert fam.half == n // 2
        assert fam.c_count == 3 * m + l + 1
        assert fam.b_count == 6 * m + 2 * l + 1

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            FamilyParams.from_length(7)
        with pytest.raises(ValueError):
            FamilyParams.from_length(0)
        with pytest.raises(ValueError):
            FamilyParams(0, 3, 1)


class TestBasisExpansions:
    def test_first_column_is_binomial_row(self):
        fam = FamilyParams.from_length(26)
        p = code_basis_poly(0, fam)
        assert p[1] == 13
        assert p == [binomial(13, i) for i in range(14)]

    @pytest.mark.parametrize("fam", ALL_SMALL_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_unitriangular_structure(self, fam):
        for j in range(fam.c_count):
            p = code_basis_poly(j, fam)
            assert p[j] == 1
            assert all(p[i] == 0 for i in range(j))

    def test_shadow_column_degenerate_length_two(self):
        fam = FamilyParams.from_length(2)
        assert shadow_basis_column(0, fam) == [2]

    def test_shadow_column_leading_entries(self):
        fam = FamilyParams.from_length(26)
        col = shadow_basis_column(3, fam)
        assert col[0] == Fraction(-1, 32)
        for fam in ALL_SMALL_FAMILIES:
            k_top = fam.c_count - 1
            for j in range(fam.c_count):
                col = shadow_basis_column(j, fam)
                assert all(col[i] == 0 for i in range(k_top - j))
                assert col[k_top - j] == Fraction(2) ** (fam.half - 6 * j) * (-1) ** j

    def test_index_out_of_range(self):
        fam = FamilyParams.from_length(26)
        with pytest.raises(ValueError):
            code_basis_poly(4, fam)
        with pytest.raises(ValueError):
            shadow_basis_column(-1, fam)

    @pytest.mark.parametrize("fam", ALL_SMALL_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_incremental_block_matches_full_columns(self, fam):
        # the kernel-built block and the oracle's recurrence both equal
        # the truncated full basis polynomials
        code_basis = build_transform_tables(fam).code_basis
        block = code_basis_block(fam)
        k = fam.c_count
        for j in range(k):
            full = code_basis_poly(j, fam)
            want = [full[i] if i < len(full) else 0 for i in range(k)]
            assert [row[j] for row in code_basis] == want
            assert block[j] == want


class TestTransformTables:
    def test_n26_values(self):
        tables = build_transform_tables(FamilyParams.from_length(26))
        assert tables.code_inverse[1][0] == -13
        assert tables.shadow_inverse[3][0] == -32
        assert all(tables.code_inverse[i][i] == 1 for i in range(4))

    @pytest.mark.parametrize("fam", ALL_SMALL_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_exact_inverses(self, fam):
        t = build_transform_tables(fam)
        eye = identity_matrix(fam.c_count)
        assert matrix_product(t.code_inverse, t.code_basis) == eye
        assert matrix_product(t.code_basis, t.code_inverse) == eye
        assert matrix_product(t.shadow_inverse, t.shadow_basis) == eye
        assert matrix_product(t.shadow_basis, t.shadow_inverse) == eye

    @pytest.mark.parametrize("fam", ALL_SMALL_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_entries_are_ints_where_integral(self, fam):
        # no block goes through Fraction and back: an entry is an int
        # exactly when it is integral, a Fraction otherwise
        t = build_transform_tables(fam)
        for block in (t.code_basis, t.code_inverse, t.shadow_basis,
                      t.shadow_inverse):
            for x in (x for row in block for x in row):
                assert type(x) is (int if x.denominator == 1 else Fraction), fam
        assert all(type(x) is int for row in t.code_inverse for x in row)

    @pytest.mark.parametrize("fam", CLOSED_FORM_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_closed_forms_match_matrices(self, fam):
        # the closed-form inverses against forward substitution on the
        # kernel's bases
        t = build_transform_tables(fam)
        code_inverse, shadow_inverse = inverse_blocks(t)
        assert t.code_inverse == code_inverse
        assert t.shadow_inverse == shadow_inverse

    @pytest.mark.parametrize("fam", ALL_SMALL_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_shadow_inverse_anti_triangular(self, fam):
        t = build_transform_tables(fam)
        k_top = fam.c_count - 1
        for i in range(k_top + 1):
            for j in range(k_top + 1):
                if i + j > k_top:
                    assert t.shadow_inverse[i][j] == 0

    def test_anti_diagonal_consistency(self):
        # both descriptions of the anti-diagonal must agree
        for fam in ALL_SMALL_FAMILIES:
            k_top = fam.c_count - 1
            for j in range(k_top):
                i = k_top - j
                want = Fraction((-1) ** (k_top - j)) * \
                    Fraction(2) ** (6 * (k_top - j) - fam.half)
                assert shadow_inverse_entry(i, j, fam) == want


def col0(n):
    return code_inverse_col0(FamilyParams.from_length(n))


class TestClosedFormDisplays:
    def test_negative_exponent_branch(self):
        # at n = 26, i = 3 the binomial double sum's first top goes
        # negative; the entry must still match the matrix inverse
        assert col0(26)[3] == -52

    def test_family_24m2_display_at_m1(self):
        # (12m+1)/m * C(5m, m-1) at m = 1
        assert col0(26)[2] == Fraction(13, 1) * binomial(5, 0) == 13

    def test_family_24m10_display_at_m1(self):
        # -(12m+5)/(2m+1) * C(5m+1, m) at m = 1
        assert col0(34)[3] == -Fraction(17, 3) * binomial(6, 1) == -34

    def test_column_shape(self):
        # entries 0..K, all ints, entry 0 = 1
        for n in range(2, 200, 2):
            col = col0(n)
            assert len(col) == FamilyParams.from_length(n).c_count, n
            assert all(type(x) is int for x in col), n
            assert col[0] == 1
        assert col0(2) == [1]
        assert col0(26) == [1, -13, 13, -52]

    def test_shadow_entry_examples(self):
        fam = FamilyParams.from_length(26)
        assert shadow_inverse_entry(1, 0, fam) == Fraction(-9, 128)
        # boundary entries across the 24m+2 family: entry (2m, m) = 1/2
        for m in (1, 2, 3, 5):
            fam = FamilyParams(m, 0, 1)
            assert shadow_inverse_entry(2 * m, m, fam) == Fraction(1, 2)

    def test_shadow_entry_range_errors(self):
        fam = FamilyParams.from_length(26)
        with pytest.raises(ValueError):
            shadow_inverse_entry(0, 0, fam)
        with pytest.raises(ValueError):
            shadow_inverse_entry(2, 2, fam)


class TestCatalanPeelOracle:
    """The three-term recurrence of the inverse code column against the
    Catalan peel, the Lagrange sum and the binomial double sum of the
    oracles."""

    def test_every_entry_to_n722(self):
        for n in range(2, 723, 2):
            fam = FamilyParams.from_length(n)
            want = [1] + [code_inverse_col0_sum(i, n) for i in range(1, fam.c_count)]
            assert code_inverse_col0(fam) == want, n

    @pytest.mark.parametrize("fam", [FamilyParams(155, 0, 1), FamilyParams(156, 0, 2),
                                     FamilyParams(160, 1, 1)],
                             ids=lambda f: f"n{f.n}")
    def test_forced_entries_at_thresholds(self, fam):
        # entries 1..2m+1: the a pins and the 24m+10 coincidence slot
        col = code_inverse_col0(fam)
        for i in range(1, 2 * fam.m + 2):
            assert col[i] == code_inverse_col0_sum(i, fam.n), i

    @pytest.mark.parametrize("m", range(30))
    def test_recurrence_equals_peel(self, m):
        # every decomposition with m <= 29, the full column and every top
        for l, r in product(range(3), range(4)):
            if 24 * m + 8 * l + 2 * r == 0:
                continue
            fam = FamilyParams(m, l, r)
            full = code_inverse_col0_peel(fam)
            assert code_inverse_col0(fam) == full, fam
            for top in range(fam.c_count):
                assert code_inverse_col0(fam, top) == full[:top + 1], (fam, top)

    def test_lagrange_sum_to_n242(self):
        for n in range(2, 243, 2):
            fam = FamilyParams.from_length(n)
            want = [code_inverse_col0_lagrange(i, n) for i in range(1, fam.c_count)]
            assert code_inverse_col0(fam)[1:] == want, n

    @pytest.mark.parametrize("fam", [FamilyParams(155, 0, 1), FamilyParams(155, 2, 3),
                                     FamilyParams(160, 1, 1), FamilyParams(231, 0, 1),
                                     FamilyParams(231, 0, 2)],
                             ids=lambda f: f"n{f.n}")
    def test_sampled_entries_at_large_m(self, fam):
        # around the last code pin 2m and the coincidence slot 2m+1, at K,
        # and a seeded sample in between
        k_top = fam.c_count - 1
        col = code_inverse_col0(fam)
        rng = random.Random(fam.n)
        for i in {1, 2, 2 * fam.m, 2 * fam.m + 1, 2 * fam.m + 4, k_top,
                  *rng.sample(range(1, k_top + 1), 6)}:
            assert col[i] == code_inverse_col0_sum(i, fam.n), i
        assert code_inverse_col0(fam, 2 * fam.m + 1) == col[:2 * fam.m + 2]

    @pytest.mark.parametrize("n_half", [1, 5, 13, 29, 1861, 1874, 2833, 2861])
    def test_recurrence_polynomials_in_expanded_form(self, n_half):
        # the Horner-form body of _col0_recurrence against the polynomials
        # as first written, expanded in i and N
        for i in range(400):
            assert (gleason._col0_recurrence(i, n_half)
                    == col0_recurrence_expanded(i, n_half)), i

    def test_inexact_step_raises_under_optimize_flag(self):
        # a wrong recurrence polynomial leaves a remainder at the first
        # step (c_0 = 1 and |P2(0)| = 6(N - 2) > 1); the check is not an
        # assert, so the scan still stops under python -O
        proc = run_optimized("""
            from minshadow import gleason, solver
            from minshadow.exact import VerificationFailure
            polys = gleason._col0_recurrence
            def perturbed(i, n_half):
                p0, p1, p2 = polys(i, n_half)
                return p0 + 1, p1, p2
            gleason._col0_recurrence = perturbed
            try:
                solver.admissible_at(solver.family_case("24m+2"), 155)
            except VerificationFailure as exc:
                print("raised:", exc)
            else:
                sys.exit("accepted an inexact recurrence")
        """)
        assert proc.returncode == 0, proc.stderr
        assert ("raised: column 0 of the inverse code block of n=3722: the "
                "recurrence does not divide exactly at entry 2") in proc.stdout


class TestShadowInverseEntry:
    """The one-Fraction shadow inverse entry against the product of three
    Fractions in the oracles."""

    @pytest.mark.parametrize("m", range(13))
    def test_every_entry_to_m12(self, m):
        for l, r in product(range(3), range(4)):
            if 24 * m + 8 * l + 2 * r == 0:
                continue
            fam = FamilyParams(m, l, r)
            k_top = fam.c_count - 1
            for i in range(1, k_top + 1):
                for j in range(k_top - i + 1):
                    x = shadow_inverse_entry(i, j, fam)
                    assert type(x) is Fraction, (fam, i, j)
                    assert x == shadow_inverse_entry_product(i, j, fam), (fam, i, j)

    def test_sampled_entries_at_m155(self):
        # both signs of 6i - n/2, the anti-diagonal and column 0 near the
        # pins, in all three scanned families; each entry also as the
        # first of its column's walk, and the walk's last entry, on the
        # anti-diagonal, against the product
        for fam in (FamilyParams(155, 0, 1), FamilyParams(155, 0, 2),
                    FamilyParams(155, 1, 1)):
            k_top = fam.c_count - 1
            rng = random.Random(fam.n)
            pairs = {(1, 0), (k_top, 0), (fam.m, 0), (2 * fam.m + 1, 0),
                     (1, k_top - 1), (k_top // 2, k_top - k_top // 2)}
            for _ in range(40):
                i = rng.randrange(1, k_top + 1)
                pairs.add((i, rng.randrange(k_top - i + 1)))
            for i, j in pairs:
                want = shadow_inverse_entry_product(i, j, fam)
                assert shadow_inverse_entry(i, j, fam) == want, (fam, i, j)
                walk = shadow_inverse_col0(fam, i, j)
                assert walk[0] == want, (fam, i, j)
                assert walk[-1] == shadow_inverse_entry_product(
                    k_top - j, j, fam), (fam, i, j)


class TestShadowInverseCol0:
    """The columns of the inverse shadow block by the ratio walk against
    the walk's first entry, shadow_inverse_entry, and against the product
    of three Fractions in the oracles."""

    @pytest.mark.parametrize("m", range(41))
    def test_every_family_to_m40(self, m):
        # column 0 from three starts; at m <= 12 also every column j > 0
        # of every (l, r), walked from row 1 to the anti-diagonal and
        # from the anti-diagonal itself, entry by entry against the product
        for l, r in product(range(3), range(4)):
            if 24 * m + 8 * l + 2 * r == 0:
                continue
            fam = FamilyParams(m, l, r)
            k_top = fam.c_count - 1
            for start in {1, 2 * m + 1, k_top} & set(range(1, k_top + 1)):
                assert shadow_inverse_col0(fam, start) == [
                    shadow_inverse_entry(i, 0, fam)
                    for i in range(start, k_top + 1)], (fam, start)
            for j in range(1, k_top if m <= 12 else 0):
                want = [shadow_inverse_entry_product(i, j, fam)
                        for i in range(1, k_top - j + 1)]
                col = shadow_inverse_col0(fam, 1, j)
                assert col == want, (fam, j)
                assert all(type(x) is (int if x.denominator == 1 else Fraction)
                           for x in col), (fam, j)
                assert shadow_inverse_col0(fam, k_top - j, j) == want[-1:], (fam, j)

    @pytest.mark.parametrize("m", [155, 156, 160, 231, 236])
    def test_from_the_code_pins_at_large_m(self, m):
        # start 2m+1 is the tail that solver._gleason reads: an entry is an
        # int exactly when it is integral, as every entry is in the three
        # scanned families (l, r) = (0, 1), (0, 2) and (1, 1)
        for l, r in product(range(3), range(4)):
            fam = FamilyParams(m, l, r)
            col = shadow_inverse_col0(fam, 2 * m + 1)
            assert all(type(x) is (int if x.denominator == 1 else Fraction)
                       for x in col), fam
            if (l, r) in {(0, 1), (0, 2), (1, 1)}:
                assert all(type(x) is int for x in col), fam
            assert col == [shadow_inverse_entry(i, 0, fam)
                           for i in range(2 * m + 1, fam.c_count)], fam

    def test_start_out_of_range(self):
        fam = FamilyParams.from_length(34)
        with pytest.raises(ValueError):
            shadow_inverse_col0(fam, 0)
        with pytest.raises(ValueError):
            shadow_inverse_col0(fam, fam.c_count)
        # column j ends at row K - j, and column K has no row below 0
        k_top = fam.c_count - 1
        for start, j in ((k_top, 1), (1, k_top), (1, -1)):
            with pytest.raises(ValueError):
                shadow_inverse_col0(fam, start, j)

    def test_inexact_step_raises_under_optimize_flag(self):
        # a ratio off by one leaves a remainder within the first steps of
        # the tail at (24m+2, 155); the check is not an assert, so the
        # scan still stops under python -O
        proc = run_optimized("""
            from minshadow import gleason, solver
            from minshadow.exact import VerificationFailure
            step = gleason._shadow_col0_step
            def perturbed(k_top, i):
                num, den = step(k_top, i)
                return num + 1, den
            gleason._shadow_col0_step = perturbed
            try:
                solver.admissible_at(solver.family_case("24m+2"), 155)
            except VerificationFailure as exc:
                print("raised:", exc)
            else:
                sys.exit("accepted an inexact ratio step")
        """)
        assert proc.returncode == 0, proc.stderr
        assert ("raised: column 0 of the inverse shadow block of n=3722: the "
                "ratio walk does not divide exactly at entry 314") in proc.stdout

    def test_inexact_step_in_a_later_column_raises_under_optimize_flag(self):
        # tables walks every column j < K; a ratio off by one in the
        # columns j > 0 only (K - j < K = 11 at n = 94) leaves a remainder
        # at the first step of column 1, which the walk reports before the
        # identity check runs, under python -O too
        proc = run_optimized("""
            from minshadow import cli, gleason
            step = gleason._shadow_col0_step
            def perturbed(k_top, i):
                num, den = step(k_top, i)
                return (num + 1 if k_top < 11 else num), den
            gleason._shadow_col0_step = perturbed
            sys.exit(cli.main(["tables", "--family", "24m+22", "--m", "3"]))
        """)
        assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
        assert proc.stderr == (
            "verification failure: column 1 of the inverse shadow block of "
            "n=94: the ratio walk does not divide exactly at entry 2\n")


class TestConversions:
    def test_delta_code_vector(self):
        fam = FamilyParams.from_length(26)
        t = build_transform_tables(fam)
        c = gleason_from_code([1, 0, 0, 0], t)
        for i in range(4):
            assert c[i] == (t.code_inverse[i][0], 0)

    def test_length_two_code(self):
        fam = FamilyParams.from_length(2)
        t = build_transform_tables(fam)
        assert gleason_from_code([1, 1], t) == [(1, 0)]
        assert gleason_from_shadow([2], t) == [(1, 0)]
        enum = enumerators_from_gleason([1], fam)
        assert list(enum.a) == [(1, 0), (1, 0)]
        assert list(enum.b) == [(2, 0)]

    def test_delta_shadow_vector(self):
        fam = FamilyParams.from_length(26)
        t = build_transform_tables(fam)
        c = gleason_from_shadow([1, 0, 0, 0], t)
        for i in range(4):
            assert c[i] == (t.shadow_inverse[i][0], 0)

    def test_substitute(self):
        # each (p, q) becomes (p + q beta, 0): 35 - 8 beta at beta = 4 is 3
        fam = FamilyParams.from_length(2)
        enum = ParametricEnumerator(fam, ((35, -8), (1, 0)), ((0, 1),))
        assert enum.substitute(4) == ParametricEnumerator(fam, ((3, 0), (1, 0)),
                                                          ((4, 0),))

    def test_pure_gleason_start_gives_binomials(self):
        fam = FamilyParams.from_length(26)
        enum = enumerators_from_gleason([1, 0, 0, 0], fam)
        assert list(enum.a) == [(binomial(13, i), 0) for i in range(14)]

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_random_integer_gleason(self, seed):
        rng = random.Random(seed)
        fam = rng.choice([f for f in ALL_SMALL_FAMILIES if f.m <= 2])
        c = [rng.randrange(-50, 51) for _ in range(fam.c_count)]
        enum = enumerators_from_gleason(c, fam)
        t = build_transform_tables(fam)
        back_a = gleason_from_code(list(enum.a), t)
        back_b = gleason_from_shadow(list(enum.b), t)
        assert back_a == [(x, 0) for x in c]
        assert back_b == [(x, 0) for x in c]

    def test_mass(self):
        # with c_0 = 1 both enumerators sum to 2^(n/2)
        rng = random.Random(99)
        for fam in (FamilyParams.from_length(26), FamilyParams.from_length(46)):
            c = [1] + [rng.randrange(-20, 21) for _ in range(fam.c_count - 1)]
            enum = enumerators_from_gleason(c, fam)
            assert sum(p for p, _ in enum.a) == 2 ** fam.half
            assert sum(p for p, _ in enum.b) == 2 ** fam.half
            assert not any(q for _, q in enum.a + enum.b)

    def test_parametric_round_trip(self):
        fam = FamilyParams.from_length(46)
        # (constant, beta coefficient): 1, -3, 5 + 2 beta, 0, beta, 7
        c = [(1, 0), (-3, 0), (5, 2), (0, 0), (0, 1), (7, 0)]
        enum = enumerators_from_gleason(c, fam)
        assert any(q for _, q in enum.a + enum.b)
        t = build_transform_tables(fam)
        assert gleason_from_code(list(enum.a), t) == c
        assert gleason_from_shadow(list(enum.b), t) == c


# every decomposition with m <= 4; most have 6K > n/2, so the shadow
# expansion is scaled by 2^(6K - n/2), while m = l = 0 needs no scaling
KERNEL_FAMILIES = [FamilyParams(m, l, r)
                   for m in range(5) for l in range(3) for r in range(4)
                   if 24 * m + 8 * l + 2 * r > 0]
LARGE_K_FAMILIES = [FamilyParams(40, l, r) for l in range(3) for r in range(4)]
# every decomposition with m <= 11, for the truncated code side
WINDOW_FAMILIES = [FamilyParams(m, l, r)
                   for m in range(12) for l in range(3) for r in range(4)
                   if 24 * m + 8 * l + 2 * r > 0]
ODD_DENOMINATORS = (1, 3, 5, 7, 9, 15, 49)
POWER_OF_TWO_DENOMINATORS = (2, 4, 8, 64, 1024)


class TestExpansionKernel:
    """enumerators_from_gleason against the basis-polynomial oracles on
    rational and affine Gleason vectors."""

    def test_families_cover_both_scalings(self):
        shifts = {6 * (f.c_count - 1) > f.half for f in KERNEL_FAMILIES}
        assert shifts == {True, False}

    @staticmethod
    def _rational_vector(rng, k):
        dens = [rng.choice(ODD_DENOMINATORS + POWER_OF_TWO_DENOMINATORS)
                for _ in range(k)]
        dens[0] = rng.choice(ODD_DENOMINATORS[1:])
        dens[-1] = rng.choice(POWER_OF_TWO_DENOMINATORS)
        return [Fraction(rng.randrange(-999, 1000), d) for d in dens]

    @pytest.mark.parametrize("fam", KERNEL_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_matches_basis_oracles(self, fam):
        rng = random.Random(fam.n)
        k = fam.c_count
        rational = self._rational_vector(rng, k)
        affine = list(zip(self._rational_vector(rng, k),
                          self._rational_vector(rng, k)))
        for c in (rational, affine):
            enum = enumerators_from_gleason(c, fam)
            pairs = [x if isinstance(x, tuple) else (x, 0) for x in c]
            want_a = [(0, 0)] * (fam.half + 1)
            want_b = [(0, 0)] * fam.b_count
            for j, (p, q) in enumerate(pairs):
                for i, x in enumerate(code_basis_poly(j, fam)):
                    want_a[i] = (want_a[i][0] + p * x, want_a[i][1] + q * x)
                for i, x in enumerate(shadow_basis_column(j, fam)):
                    want_b[i] = (want_b[i][0] + p * x, want_b[i][1] + q * x)
            assert list(enum.a) == want_a
            assert list(enum.b) == want_b
        assert any(q for _, q in enum.a + enum.b)

    @pytest.mark.parametrize("fam", LARGE_K_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_code_side_at_large_k(self, fam):
        # unit Gleason vectors at K = 120..122; the oracle stops at
        # degree n/2 - j
        k_top = fam.c_count - 1
        for j in sorted({0, 1, k_top // 2, k_top}):
            unit = [0] * (k_top + 1)
            unit[j] = 1
            want = code_basis_poly(j, fam)
            want += [0] * (fam.half + 1 - len(want))
            assert horner_code_side(unit, fam) == want

    @pytest.mark.parametrize("fam", LARGE_K_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_shadow_side_at_large_k(self, fam):
        # unit Gleason vectors at K = 120..122, against the shadow basis
        # column scaled by the kernel's 2^s
        k_top = fam.c_count - 1
        scale = 2 ** _shadow_shift(fam)
        for j in sorted({0, 1, k_top // 2, k_top}):
            unit = [0] * (k_top + 1)
            unit[j] = 1
            want = [x * scale for x in shadow_basis_column(j, fam)]
            assert horner_shadow_side(unit, fam) == want

    # slow: the oracle builds all K + 1 basis polynomials, about 3 s per
    # family on 2 cores with Python 3.11
    @pytest.mark.slow
    @pytest.mark.parametrize("fam", LARGE_K_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_dense_vector_and_palindromes(self, fam):
        # unit vectors leave most Horner inputs zero; a dense vector makes
        # every mirrored entry of the half-vector passes matter
        rng = random.Random(fam.n)
        c = [rng.randrange(-10 ** 6, 10 ** 6 + 1) for _ in range(fam.c_count)]
        scale = 2 ** _shadow_shift(fam)
        want_a = [0] * (fam.half + 1)
        want_b = [0] * fam.b_count
        for j, cj in enumerate(c):
            for i, x in enumerate(code_basis_poly(j, fam)):
                want_a[i] += cj * x
            for i, x in enumerate(shadow_basis_column(j, fam)):
                want_b[i] += cj * x * scale
        a = horner_code_side(c, fam)
        b = horner_shadow_side(c, fam)
        assert a == want_a
        assert b == want_b
        assert all(a[i] == a[fam.half - i] for i in range(fam.half + 1))
        assert all(b[i] == b[-1 - i] for i in range(fam.b_count))


class TestCodeSideWindow:
    """horner_code_side truncated at degree top against the full vector."""

    @pytest.mark.parametrize("fam", WINDOW_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_every_top_is_a_prefix(self, fam):
        rng = random.Random(fam.n)
        c = [rng.randrange(-10 ** 6, 10 ** 6 + 1) for _ in range(fam.c_count)]
        full = horner_code_side(c, fam)
        assert len(full) == fam.half + 1
        for top in range(fam.half + 1):
            assert horner_code_side(c, fam, top) == full[:top + 1], top

    @pytest.mark.parametrize("fam", LARGE_K_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_prefix_at_large_k(self, fam):
        # around 2m+4, K, 2K and 4K, the points where a pass changes
        rng = random.Random(fam.n)
        c = [rng.randrange(-10 ** 6, 10 ** 6 + 1) for _ in range(fam.c_count)]
        full = horner_code_side(c, fam)
        k_top = fam.c_count - 1
        tops = {0, 1, 2 * fam.m + 4, fam.half - 1, fam.half}
        tops |= {t + e for t in (k_top, 2 * k_top, 4 * k_top) for e in (-1, 0, 1)}
        for top in sorted(t for t in tops if t <= fam.half):
            assert horner_code_side(c, fam, top) == full[:top + 1], top

    @pytest.mark.parametrize("fam", LARGE_K_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_unit_vectors_against_basis_oracle(self, fam):
        # e_j next to the code pins (h = 2m+1 in the unique families), at
        # the window end 2m+4 and at K, truncated at the window top and
        # around K and 2K, against the basis polynomials, not the kernel
        k_top = fam.c_count - 1
        h = 2 * fam.m + 1
        for j in (0, 1, h - 1, h, 2 * fam.m + 4, k_top):
            unit = [int(i == j) for i in range(k_top + 1)]
            want = code_basis_poly(j, fam)
            want += [0] * (fam.half + 1 - len(want))
            for top in (2 * fam.m + 4, k_top - 1, k_top, 2 * k_top):
                assert horner_code_side(unit, fam, top) == want[:top + 1], (j, top)

    def test_top_out_of_range(self):
        fam = FamilyParams.from_length(26)
        for top in (-1, fam.half + 1):
            with pytest.raises(ValueError):
                horner_code_side([1, 0, 0, 0], fam, top)

    @pytest.mark.parametrize("fam", WINDOW_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_truncated_peel_is_a_prefix(self, fam):
        k = fam.c_count
        for j in range(k):
            col = code_inverse_col0(fam, j=j)
            assert col[:j + 1] == [0] * j + [1], j
            for top in range(k):
                assert code_inverse_col0(fam, top, j) == col[:top + 1], (j, top)
        with pytest.raises(ValueError):
            code_inverse_col0(fam, k)
        for j in (-1, k):
            with pytest.raises(ValueError):
                code_inverse_col0(fam, j=j)


class TestShadowSideWindow:
    """horner_shadow_side truncated at index top against the full vector."""

    @pytest.mark.parametrize("fam", WINDOW_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_every_top_is_a_prefix(self, fam):
        rng = random.Random(fam.n)
        c = [rng.randrange(-10 ** 6, 10 ** 6 + 1) for _ in range(fam.c_count)]
        full = horner_shadow_side(c, fam)
        assert len(full) == fam.b_count
        for top in range(fam.b_count):
            assert horner_shadow_side(c, fam, top) == full[:top + 1], top

    @pytest.mark.parametrize("fam", LARGE_K_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_prefix_at_large_k(self, fam):
        # around m, the last pinned index of the window path, and at K
        # and 2K, where pass 2 stops growing and where it ends
        rng = random.Random(fam.n)
        c = [rng.randrange(-10 ** 6, 10 ** 6 + 1) for _ in range(fam.c_count)]
        full = horner_shadow_side(c, fam)
        k_top = fam.c_count - 1
        for top in (fam.m - 1, fam.m, fam.m + 1, k_top, 2 * k_top):
            assert horner_shadow_side(c, fam, top) == full[:top + 1], top

    def test_top_out_of_range(self):
        fam = FamilyParams.from_length(26)
        for top in (-1, 2 * (fam.c_count - 1) + 1):
            with pytest.raises(ValueError):
                horner_shadow_side([1, 0, 0, 0], fam, top)


@lru_cache(maxsize=None)
def _basis_columns(fam: FamilyParams) -> tuple[list[int], list[Fraction]]:
    return ([code_basis_poly(j, fam) for j in range(fam.c_count)],
            [shadow_basis_column(j, fam) for j in range(fam.c_count)])


@st.composite
def _kernel_inputs(draw):
    """A family with m <= 5, a dense integer Gleason vector with negatives
    and zeros, and a random top degree for each side."""
    fam = draw(st.sampled_from([FamilyParams(m, l, r) for m in range(6)
                                for l in range(3) for r in range(4)
                                if 24 * m + 8 * l + 2 * r > 0]))
    entry = st.one_of(st.just(0), st.integers(-1, 1),
                      st.integers(-10 ** 30, 10 ** 30))
    c = draw(st.lists(entry, min_size=fam.c_count, max_size=fam.c_count))
    top = draw(st.integers(0, fam.half))
    shadow_top = draw(st.integers(0, 2 * (fam.c_count - 1)))
    return fam, c, top, shadow_top


class TestTruncatedKernelsAgainstOracles:
    """Truncated Horner expansions against the basis-polynomial oracles,
    not only against the kernel's own full output."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_kernel_inputs())
    def test_prefixes_match_oracles(self, inputs):
        fam, c, top, shadow_top = inputs
        code_cols, shadow_cols = _basis_columns(fam)
        want_a = [0] * (fam.half + 1)
        want_b = [0] * fam.b_count
        for cj, a_col, b_col in zip(c, code_cols, shadow_cols):
            for i, x in enumerate(a_col):
                want_a[i] += cj * x
            for i, x in enumerate(b_col):
                want_b[i] += cj * x
        scale = 2 ** _shadow_shift(fam)
        given_c = list(c)
        assert horner_code_side(c, fam, top) == want_a[:top + 1]
        assert horner_shadow_side(c, fam, shadow_top) == [
            x * scale for x in want_b[:shadow_top + 1]]
        assert c == given_c


def _tail_oracle(p, e, top):
    """Entries 0..top of sum_k p[k] z^k (1+z)^(e-2k), by Horner steps of
    (1+z)^2 and then (1+z)^(e - 2L), L = len(p) - 1, one factor 1+z at a
    time, all mod z^(top+1)."""
    x = [0] * (top + 1)
    for k, pk in enumerate(p):
        if k:
            x = one_plus_z_power_steps(x, 2)
        if k <= top:
            x[k] += pk
    return one_plus_z_power_steps(x, e - 2 * (len(p) - 1))


def _catalan_series_power(a, top):
    """[s^0..s^top] C(s)^a by products of truncated series, C = 1 + s C^2
    and 1/C = 1 - s C."""
    c = [1]
    for _ in range(top):
        c = [1] + poly_product(c, c)[:top]
    base = c if a >= 0 else [1] + [-x for x in c[:top]]
    out = [1]
    for _ in range(abs(a)):
        out = (poly_product(out, base) + [0] * (top + 1))[:top + 1]
    return out


class TestBinomialTail:
    """The one pass-2 kernel: p[0] plus the half-vector Horner steps on
    d = p - p[0] gamma from its first nonzero entry h', one binomial
    convolution and the mirror past e/2, against the sum
    sum_k p[k] z^k (1+z)^(e-2k) built one factor 1+z at a time, and its
    Catalan power gamma against products of series."""

    FIRSTS = (0, 1, -10 ** 30)

    @staticmethod
    def _dense(rng, length, first):
        pool = (0, 1, -1, 10 ** 30, -10 ** 30)
        p = [rng.choice(pool) if rng.random() < 0.5
             else rng.randrange(-10 ** 30, 10 ** 30 + 1) for _ in range(length)]
        p[0] = first
        return p

    @staticmethod
    def _from(rng, length, e, first, h):
        # first * gamma plus a tail whose entry h is nonzero, so d starts
        # at h; h = length leaves d zero on p, and nonzero past it when
        # first != 0 and e >= 2 length
        p = [first * g for g in _catalan_power(-e, length - 1)]
        for k in range(h, length):
            p[k] += rng.choice((1, -1, 10 ** 30 + 7)) if k == h else rng.randrange(
                -10 ** 30, 10 ** 30 + 1)
        return p

    @pytest.mark.parametrize("last", range(31))
    def test_every_top_start_and_exponent(self, last):
        # every top 0..e for e = 2L..2L+3: the window (top < e/2), the
        # middle and the mirror, with (1+z)^(e-2t) of every kind and,
        # for e >= 2L+2, d_(L+1) = -p_0 gamma_(L+1) past the end of p
        rng = random.Random(last)
        for e in range(2 * last, 2 * last + 4):
            inputs = [self._dense(rng, last + 1, first) for first in self.FIRSTS]
            inputs += [self._from(rng, last + 1, e, self.FIRSTS[(h + e) % 3], h)
                       for h in range(1, last + 2)]
            for p in inputs:
                given_p = list(p)
                want = _tail_oracle(p, e, e)
                for top in range(e + 1):
                    assert _palindromic_horner(p, top, e) == want[:top + 1], (e, top)
                assert p == given_p

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 12, 25, 40])
    @pytest.mark.parametrize("first", [0, 1, -10 ** 30],
                             ids=["x0=0", "x0=1", "x0=-1e30"])
    def test_every_exponent_to_ten_times_the_length(self, length, first):
        # top = L for every e from its least value 2L; e + 1 multiplies
        # the sum by 1+z
        rng = random.Random(length)
        p = self._dense(rng, length, first)
        given_p = list(p)
        e = 2 * (length - 1)
        want = _tail_oracle(p, e, length - 1)
        while e <= 10 * length + 10:
            assert _palindromic_horner(p, length - 1, e) == want, e
            e += 1
            want = one_plus_z_power_steps(want, 1)
        assert p == given_p

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_vectors_and_exponents(self, data):
        entry = st.one_of(st.just(0), st.integers(-1, 1),
                          st.integers(-10 ** 30, 10 ** 30))
        p = data.draw(st.lists(entry, min_size=1, max_size=40))
        e = data.draw(st.integers(2 * (len(p) - 1), 10 * len(p) + 10))
        top = data.draw(st.integers(0, min(e, 3 * len(p))))
        assert _palindromic_horner(p, top, e) == _tail_oracle(p, e, top)

    @pytest.mark.parametrize("a", [*range(-41, 0), *range(1, 6)])
    def test_catalan_power_against_series(self, a):
        # for a < 0 the entries are valid while a + k + 1 != 0, k < top
        top = 20 if a > 0 else min(20, -a - 1)
        assert _catalan_power(a, top) == _catalan_series_power(a, top)

    def test_inexact_step_raises_under_optimize_flag(self):
        # a wrong ratio leaves a remainder at the first step of the code
        # window's tail (gamma_0 = 1, |den| = n/2 - 1 > 1); the check is
        # not an assert, so the scan still stops under python -O
        proc = run_optimized("""
            from minshadow import gleason, solver
            from minshadow.exact import VerificationFailure
            step = gleason._catalan_step
            def perturbed(a, k):
                num, den = step(a, k)
                return num + 1, den
            gleason._catalan_step = perturbed
            try:
                solver.admissible_at(solver.family_case("24m+2"), 155)
            except VerificationFailure as exc:
                print("raised:", exc)
            else:
                sys.exit("accepted an inexact Catalan step")
        """)
        assert proc.returncode == 0, proc.stderr
        assert "raised: C(s)^(-1861) does not divide exactly at s^1" in proc.stdout


# LIMB_STEPS values that force each format of the Horner work buffers
FORMATS = {"object": 10 ** 9, "limbs": 0}
# entries +-(2^B - 1) around the limb size, twice it and far past it
STRESS_BITS = (31, 32, 33, 63, 64, 65, 3000)
STRESS_SIGNS = {"plus": lambda k: 1, "minus": lambda k: -1,
                "alternating": lambda k: (-1) ** k}


class TestBothKernelFormats:
    """Each Horner pass forced to Python ints in object buffers and to
    int64 limb rows, by the selection constant LIMB_STEPS, against the
    oracles of the tests above: both formats must give the same ints."""

    @staticmethod
    def _each_format(monkeypatch, fn, *args):
        out = []
        for steps in FORMATS.values():
            monkeypatch.setattr(gleason, "LIMB_STEPS", steps)
            out.append(fn(*args))
        return out

    @pytest.mark.parametrize("last", range(31))
    def test_every_top_start_and_exponent(self, monkeypatch, last):
        # the inputs of TestBinomialTail: every top 0..e for e = 2L..2L+3
        rng = random.Random(last)
        for e in range(2 * last, 2 * last + 4):
            inputs = [TestBinomialTail._dense(rng, last + 1, first)
                      for first in TestBinomialTail.FIRSTS]
            inputs += [TestBinomialTail._from(rng, last + 1, e,
                                              TestBinomialTail.FIRSTS[(h + e) % 3], h)
                       for h in range(1, last + 2)]
            for p in inputs:
                want = _tail_oracle(p, e, e)
                for top in range(e + 1):
                    got = self._each_format(monkeypatch, _palindromic_horner, p, top, e)
                    assert got == [want[:top + 1]] * 2, (e, top)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_vectors_and_exponents(self, data):
        # the draw of TestBinomialTail; hypothesis runs the examples of one
        # test call, so the constant is set and restored here
        entry = st.one_of(st.just(0), st.integers(-1, 1),
                          st.integers(-10 ** 30, 10 ** 30))
        p = data.draw(st.lists(entry, min_size=1, max_size=40))
        e = data.draw(st.integers(2 * (len(p) - 1), 10 * len(p) + 10))
        top = data.draw(st.integers(0, min(e, 3 * len(p))))
        want = _tail_oracle(p, e, top)
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert self._each_format(monkeypatch, _palindromic_horner,
                                     p, top, e) == [want] * 2

    @pytest.mark.parametrize("fam", LARGE_K_FAMILIES, ids=lambda f: f"n{f.n}")
    def test_unit_vectors_at_large_k(self, monkeypatch, fam):
        # the inputs of test_code_side_at_large_k and
        # test_shadow_side_at_large_k
        k_top = fam.c_count - 1
        scale = 2 ** _shadow_shift(fam)
        for j in sorted({0, 1, k_top // 2, k_top}):
            unit = [int(i == j) for i in range(k_top + 1)]
            want = code_basis_poly(j, fam)
            want += [0] * (fam.half + 1 - len(want))
            assert self._each_format(monkeypatch, horner_code_side,
                                     unit, fam) == [want] * 2, j
            want = [x * scale for x in shadow_basis_column(j, fam)]
            assert self._each_format(monkeypatch, horner_shadow_side,
                                     unit, fam) == [want] * 2, j

    @pytest.mark.parametrize("tag,m", [("24m+2", 154), ("24m+2", 155),
                                       ("24m+10", 159), ("24m+10", 160)])
    def test_expand_scaled_at_the_thresholds(self, monkeypatch, tag, m):
        # the last admissible and the first rejected m: the full vectors
        # and the window of admissible_at (a to 2m+4, b to b_m), the
        # window also against a_i from the Gleason differences
        case = solver.family_case(tag)
        fam = case.params(m)
        c = solver._gleason(case, m)
        full = self._each_format(monkeypatch, expand_scaled, c, fam)
        assert full[0] == full[1]
        assert len(full[0][0]) == fam.half + 1 and len(full[0][2]) == fam.b_count
        window = self._each_format(monkeypatch, expand_scaled, c, fam, 2 * m + 4, m)
        assert window[0] == window[1]
        a_hat, da, b_hat, db = window[0]
        assert [Fraction(v, da) for v in a_hat] == window_by_delta(case, m)
        assert (a_hat, b_hat) == (full[0][0][:2 * m + 5], full[0][2][:m + 1])

    @pytest.mark.parametrize("sign", STRESS_SIGNS)
    @pytest.mark.parametrize("bits", STRESS_BITS)
    def test_carry_stress_in_pass_2(self, monkeypatch, bits, sign):
        # p_0 = 0 makes d = p, so every step adds +-(2^B - 1); 46 steps run
        # past three carry periods of pass 2
        big = (1 << bits) - 1
        p = [0] + [STRESS_SIGNS[sign](k) * big for k in range(1, 48)]
        for e in (2 * 47, 2 * 47 + 1, 2 * 47 + 6):
            want = _tail_oracle(p, e, e)
            for top in (46, 47, e // 2, e):
                assert self._each_format(monkeypatch, _palindromic_horner,
                                         p, top, e) == [want[:top + 1]] * 2, (e, top)

    @pytest.mark.parametrize("sign", STRESS_SIGNS)
    @pytest.mark.parametrize("bits", STRESS_BITS)
    def test_carry_stress_in_both_passes(self, monkeypatch, bits, sign):
        # K = 87: pass 1 runs 87 steps, past three of its carry periods,
        # and the dense shadow pass about as many
        fam = FamilyParams(29, 0, 0)
        big = (1 << bits) - 1
        c = [STRESS_SIGNS[sign](j) * big for j in range(fam.c_count)]
        code_cols, shadow_cols = _basis_columns(fam)
        want_a = [0] * (fam.half + 1)
        want_b = [0] * fam.b_count
        for cj, a_col, b_col in zip(c, code_cols, shadow_cols):
            for i, x in enumerate(a_col):
                want_a[i] += cj * x
            for i, x in enumerate(b_col):
                want_b[i] += cj * x
        scale = 2 ** _shadow_shift(fam)
        assert self._each_format(monkeypatch, horner_code_side,
                                 c, fam) == [want_a] * 2
        assert self._each_format(monkeypatch, horner_shadow_side, c, fam) == [
            [int(x * scale) for x in want_b]] * 2

    @pytest.mark.parametrize("row,ok", [
        ([5, 0, 1], True), ([5, 0, -1], True), ([0, 0, 2], False),
        ([0, 0, -2], False), ([0, 1 << 33, 1], False)])
    def test_entries_check_the_spare_limb(self, row, ok):
        # a limb row whose spare (last) limb ends outside -1..1 after the
        # carries is an entry past the bound that sized it; the rows that
        # stay within read back as their value, sum of limb_k 2^(32k)
        x, w = np.zeros((2, 3, 3), dtype="<i8")
        x[1], x[2] = row, [1, 2, 0]
        want = [sum(v << 32 * k for k, v in enumerate(r)) for r in (row, [1, 2, 0])]
        if ok:
            assert gleason._entries(x, w, 2) == want
        else:
            with pytest.raises(VerificationFailure,
                               match="a Horner entry outgrew its limb bound"):
                gleason._entries(x, w, 2)

    @pytest.mark.parametrize("limbs", [5, 6])
    def test_entries_read_back_at_limb_edges(self, limbs):
        # 0, +-1 and +-(2^(32k) - 1), +-2^(32k), +-(2^(32k) + 1) for
        # k = 1..4, once as _work_buffers writes them (the limbs of |v|,
        # negated for v < 0) and once with a seeded amount below 2^29
        # moved between each pair of neighbouring limbs, as a lazy step
        # leaves them; every row reads back as its value.  L = 6 is the
        # count of _work_buffers for these values; at L = 5, 2^128 reaches
        # the spare limb, and -2^128 leaves it at -1 after the bias
        values = [0, 1, -1] + [s * ((1 << 32 * k) + t) for k in range(1, 5)
                               for s in (1, -1) for t in (-1, 0, 1)]
        rng = random.Random(limbs)
        rows = []
        for v in values:
            row = [(abs(v) >> 32 * j & gleason._MASK) * (-1 if v < 0 else 1)
                   for j in range(limbs)]
            rows.append(row[:])
            for j in range(limbs - 1):
                t = rng.randrange(-(1 << 29), 1 << 29)
                row[j] += t << 32
                row[j + 1] -= t
            rows.append(row)
        want = [v for v in values for _ in range(2)]
        assert [sum(v << 32 * j for j, v in enumerate(r)) for r in rows] == want
        x, w = np.zeros((2, len(rows) + 1, limbs), dtype="<i8")
        x[1:] = rows
        assert gleason._entries(x, w, len(rows)) == want

    def test_sum_identities_catch_a_skipped_carry(self, monkeypatch):
        # with no pass-2 carry the int64 limbs wrap in passes of hundreds
        # of steps; both sides of a full expansion must stop at their sum
        # at z = 1
        fam = FamilyParams(154, 0, 1)
        rng = random.Random(fam.n)
        c = [rng.randrange(-10 ** 30, 10 ** 30 + 1) for _ in range(fam.c_count)]
        monkeypatch.setattr(gleason, "_PASS2_CARRY", 10 ** 9)
        with pytest.raises(VerificationFailure,
                           match=r"code coefficients of n=3698 do not sum"):
            horner_code_side(c, fam)
        with pytest.raises(VerificationFailure,
                           match=r"shadow coefficients of n=3698 do not sum"):
            horner_shadow_side(c, fam)

    @pytest.mark.parametrize("name,period", [("_PASS2_CARRY", "10 ** 9"),
                                             ("_PASS1_CARRY", "40")],
                             ids=["pass-2-carry-skipped", "pass-1-period-40"])
    def test_sabotaged_carry_raises_under_optimize_flag(self, name, period):
        # a skipped or too rare carry lets a limb wrap at (24m+2, 154),
        # where both passes run on limbs; the sum identity is not an
        # assert, so the scan still stops under python -O
        proc = run_optimized(f"""
            from minshadow import gleason, solver
            from minshadow.exact import VerificationFailure
            gleason.{name} = {period}
            try:
                verdict = solver.admissible_at(solver.family_case("24m+2"), 154)
            except VerificationFailure as exc:
                print("raised:", exc)
            else:
                sys.exit(f"gave a verdict: {{verdict}}")
        """)
        assert proc.returncode == 0, proc.stderr
        assert ("raised: code coefficients of n=3698 do not sum to c_0 2^(n/2)"
                in proc.stdout)
