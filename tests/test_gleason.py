"""Transform tables, closed forms, and coefficient conversions."""

import random
from fractions import Fraction

import pytest

from minshadow.exact import AffineForm, binomial
from minshadow.gleason import (FamilyParams, build_transform_tables,
                               code_inverse_col0, enumerators_from_gleason,
                               shadow_basis_column, shadow_inverse_entry)
from oracles import (code_basis_poly, gleason_from_code, gleason_from_shadow,
                     identity_matrix, matrix_product)

# every decomposition with m <= 3 (the m <= 8 sweep lives in the
# acceptance suite); n = 0 is excluded by validity
ALL_SMALL_FAMILIES = [FamilyParams(m, l, r)
                      for m in range(4) for l in range(3) for r in range(4)
                      if 24 * m + 8 * l + 2 * r > 0]


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
        from minshadow.gleason import _code_basis_block
        block = _code_basis_block(fam)
        k = fam.c_count
        for j in range(k):
            full = code_basis_poly(j, fam)
            want = [full[i] if i < len(full) else 0 for i in range(k)]
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
    def test_closed_forms_match_matrices(self, fam):
        t = build_transform_tables(fam)
        k_top = fam.c_count - 1
        for i in range(1, k_top + 1):
            assert code_inverse_col0(i, fam.n) == t.code_inverse[i][0]
            for j in range(k_top + 1 - i):
                assert shadow_inverse_entry(i, j, fam) == t.shadow_inverse[i][j]

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


class TestClosedFormDisplays:
    def test_negative_exponent_branch(self):
        # at n = 26, i = 3 the first binomial's top goes negative and the
        # rewritten branch must still match the matrix inverse
        assert code_inverse_col0(3, 26) == -52

    def test_family_24m2_display_at_m1(self):
        # (12m+1)/m * C(5m, m-1) at m = 1
        assert code_inverse_col0(2, 26) == Fraction(13, 1) * binomial(5, 0) == 13

    def test_family_24m10_display_at_m1(self):
        # -(12m+5)/(2m+1) * C(5m+1, m) at m = 1
        assert code_inverse_col0(3, 34) == -Fraction(17, 3) * binomial(6, 1) == -34

    def test_index_zero_rejected(self):
        with pytest.raises(ValueError):
            code_inverse_col0(0, 26)
        with pytest.raises(ValueError):
            code_inverse_col0(4, 26)

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


class TestConversions:
    def test_delta_code_vector(self):
        fam = FamilyParams.from_length(26)
        t = build_transform_tables(fam)
        c = gleason_from_code([1, 0, 0, 0], t)
        for i in range(4):
            assert c[i] == t.code_inverse[i][0]

    def test_length_two_code(self):
        fam = FamilyParams.from_length(2)
        t = build_transform_tables(fam)
        assert gleason_from_code([1, 1], t) == [AffineForm(1)]
        assert gleason_from_shadow([2], t) == [AffineForm(1)]
        enum = enumerators_from_gleason([1], fam)
        assert [x.as_fraction() for x in enum.a] == [1, 1]
        assert [x.as_fraction() for x in enum.b] == [2]

    def test_delta_shadow_vector(self):
        fam = FamilyParams.from_length(26)
        t = build_transform_tables(fam)
        c = gleason_from_shadow([1, 0, 0, 0], t)
        for i in range(4):
            assert c[i] == t.shadow_inverse[i][0]

    def test_pure_gleason_start_gives_binomials(self):
        fam = FamilyParams.from_length(26)
        enum = enumerators_from_gleason([1, 0, 0, 0], fam)
        assert [x.as_fraction() for x in enum.a] == \
            [binomial(13, i) for i in range(14)]

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_random_integer_gleason(self, seed):
        rng = random.Random(seed)
        fam = rng.choice([f for f in ALL_SMALL_FAMILIES if f.m <= 2])
        c = [rng.randrange(-50, 51) for _ in range(fam.c_count)]
        enum = enumerators_from_gleason(c, fam)
        t = build_transform_tables(fam)
        back_a = gleason_from_code(list(enum.a), t)
        back_b = gleason_from_shadow(list(enum.b), t)
        assert back_a == [AffineForm(x) for x in c]
        assert back_b == [AffineForm(x) for x in c]

    def test_mass(self):
        # with c_0 = 1 both enumerators sum to 2^(n/2)
        rng = random.Random(99)
        for fam in (FamilyParams.from_length(26), FamilyParams.from_length(46)):
            c = [1] + [rng.randrange(-20, 21) for _ in range(fam.c_count - 1)]
            enum = enumerators_from_gleason(c, fam)
            assert sum(x.as_fraction() for x in enum.a) == 2 ** fam.half
            assert sum(x.as_fraction() for x in enum.b) == 2 ** fam.half

    def test_parametric_round_trip(self):
        fam = FamilyParams.from_length(46)
        beta = AffineForm.parameter("beta")
        c = [AffineForm(1), AffineForm(-3), 2 * beta + 5, AffineForm(0),
             beta, AffineForm(7)]
        enum = enumerators_from_gleason(c, fam)
        assert enum.free == ("beta",)
        t = build_transform_tables(fam)
        assert gleason_from_code(list(enum.a), t) == c
        assert gleason_from_shadow(list(enum.b), t) == c


# every decomposition with m <= 4; most have 6K > n/2, so the shadow
# expansion is scaled by 2^(6K - n/2), while m = l = 0 needs no scaling
KERNEL_FAMILIES = [FamilyParams(m, l, r)
                   for m in range(5) for l in range(3) for r in range(4)
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
        beta = AffineForm.parameter("beta")
        rational = self._rational_vector(rng, k)
        affine = [p + beta * q for p, q in zip(self._rational_vector(rng, k),
                                               self._rational_vector(rng, k))]
        for c in (rational, affine):
            enum = enumerators_from_gleason(c, fam)
            want_a = [AffineForm(0)] * (fam.half + 1)
            want_b = [AffineForm(0)] * fam.b_count
            for j, cj in enumerate(c):
                for i, x in enumerate(code_basis_poly(j, fam)):
                    want_a[i] = want_a[i] + cj * x
                for i, x in enumerate(shadow_basis_column(j, fam)):
                    want_b[i] = want_b[i] + cj * x
            assert list(enum.a) == want_a
            assert list(enum.b) == want_b
        assert enum.free == ("beta",)
