"""GF(2) code engine: duals, parity, shadows, neighbors, and the bundled
length-46 code."""

import pytest

from minshadow.gf2 import (BetaMismatchError, BinaryCode, EnumerationCapError,
                           GeneratorFileError, NEIGHBOR_TABLE, circulant,
                           enumerator_vectors, extract_beta,
                           format_generator_file, is_minimal_shadow,
                           is_self_dual, min_weight, neighbor, parity_class,
                           parse_generator_file, reference_code_46, shadow,
                           support_mask, weight_distribution)
from minshadow.gleason import (FamilyParams, build_transform_tables,
                               enumerators_from_gleason)
from minshadow.solver import family_case, minimal_shadow_r
from oracles import (build_code, dual, gleason_from_code,
                     macwilliams_fixed_point)

REP2 = build_code([[1, 1]])                       # the [2,1,2] code
PAIR4 = build_code([[1, 1, 0, 0], [0, 0, 1, 1]])  # two copies side by side
E8 = build_code([[1, 1, 1, 1, 1, 1, 1, 1],
                 [1, 1, 1, 1, 0, 0, 0, 0],
                 [1, 1, 0, 0, 1, 1, 0, 0],
                 [1, 0, 1, 0, 1, 0, 1, 0]])       # doubly even [8,4,4]


class TestCirculant:
    def test_unit_row_gives_identity(self):
        assert circulant([1, 0, 0]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_swap(self):
        assert circulant([0, 1]) == [[0, 1], [1, 0]]

    def test_rows_are_right_shifts(self):
        rows = circulant([1, 1, 0, 1, 0])
        assert rows[1] == [0, 1, 1, 0, 1]
        assert rows[2] == [1, 0, 1, 1, 0]


class TestBasics:
    def test_canonical_representation(self):
        a = build_code([[1, 1, 0, 0], [1, 1, 1, 1]])
        b = build_code([[0, 0, 1, 1], [1, 1, 0, 0]])
        assert a == b and a.k == 2

    def test_contains(self):
        assert PAIR4.contains(0b1111)
        assert not PAIR4.contains(0b0110)

    def test_dual_of_repetition(self):
        d = dual(build_code([[1, 1, 1, 1]]))
        assert d.k == 3
        assert all((r.bit_count()) % 2 == 0 for r in d.rows)
        assert dual(d) == build_code([[1, 1, 1, 1]])

    def test_self_dual_examples(self):
        assert is_self_dual(REP2)
        assert is_self_dual(PAIR4)
        assert is_self_dual(E8)
        assert not is_self_dual(build_code([[1, 1, 1, 1]]))
        assert not is_self_dual(build_code([[1, 1, 0, 0], [1, 0, 1, 0]]))

    def test_parity_classes(self):
        assert parity_class(REP2) == "singly even"
        assert parity_class(PAIR4) == "singly even"
        assert parity_class(E8) == "doubly even"
        assert parity_class(build_code([[1, 0, 0]])) == "neither"

    def test_weight_distribution_small(self):
        assert weight_distribution(REP2) == [1, 0, 1]
        assert weight_distribution(PAIR4) == [1, 0, 2, 0, 1]
        assert weight_distribution(E8) == [1, 0, 0, 0, 14, 0, 0, 0, 1]

    def test_distribution_cap(self):
        big = BinaryCode([1 << i for i in range(29)], 40)
        with pytest.raises(EnumerationCapError):
            weight_distribution(big)


class TestShadow:
    def test_length_two(self):
        part = shadow(REP2)
        assert part.shadow_weights == [0, 2, 0]
        assert part.min_weight == 1
        assert is_minimal_shadow(REP2)
        assert part.c0.k == 0

    def test_pair4(self):
        part = shadow(PAIR4)
        # the four vectors 0101, 1010, 1001, 0110
        assert part.shadow_weights == [0, 0, 4, 0, 0]
        assert part.min_weight == 2 == minimal_shadow_r(4)
        assert is_minimal_shadow(PAIR4)
        assert sum(part.shadow_weights) == 2 ** 2

    def test_doubly_even_rejected(self):
        with pytest.raises(ValueError):
            shadow(E8)

    def test_reps_lie_outside_code(self):
        part = shadow(PAIR4)
        for rep in part.shadow_reps:
            assert not PAIR4.contains(rep)

    def test_congruence_and_cardinality(self):
        for code in (REP2, PAIR4):
            fam = FamilyParams.from_length(code.n)
            part = shadow(code)
            assert sum(part.shadow_weights) == 2 ** fam.half
            assert part.c0.k == fam.half - 1  # |C0| = 2^(n/2 - 1)
            for w, c in enumerate(part.shadow_weights):
                if c:
                    assert w % 4 == fam.r

    def test_shadow_and_code_partition_c0_dual(self):
        # the shadow cosets and the code together fill the dual of C0
        c46 = reference_code_46()
        codes = [REP2, PAIR4, c46] + [neighbor(c46, supp)
                                      for supp, _ in NEIGHBOR_TABLE]
        for code in codes:
            part = shadow(code)
            c0_dual = dual(part.c0)
            assert c0_dual.k == code.n // 2 + 1
            for rep in part.shadow_reps:
                assert c0_dual.contains(rep)
                assert not code.contains(rep)
            for row in code.rows:
                assert c0_dual.contains(row)
            # the representative meets each generator g in wt(g)/2
            # positions, mod 2
            t = part.shadow_reps[0]
            for g in code.rows:
                assert (t & g).bit_count() % 2 == (g.bit_count() // 2) % 2


class TestNeighbor:
    def test_hand_enumerated_example(self):
        got = neighbor(PAIR4, (1, 3))
        assert got == build_code([[1, 0, 1, 0], [0, 1, 0, 1]])
        assert is_self_dual(got)

    def test_x_in_code_rejected(self):
        with pytest.raises(ValueError):
            neighbor(PAIR4, (1, 2))

    def test_odd_weight_rejected(self):
        with pytest.raises(ValueError):
            neighbor(PAIR4, (1, 2, 3))

    def test_non_self_dual_rejected(self):
        # [1100] alone is self-orthogonal but not self-dual; a neighbor
        # built from it would be the non-self-dual code [0110]
        with pytest.raises(ValueError, match="self-dual"):
            neighbor(build_code([[1, 1, 0, 0]]), (2, 3))

    def test_shares_codimension_one_subcode(self):
        nb = neighbor(PAIR4, (1, 3))
        # intersection dimension: rank(A) + rank(B) - rank(A stacked on B)
        stacked = BinaryCode(PAIR4.rows + nb.rows, 4)
        assert PAIR4.k + nb.k - stacked.k == PAIR4.k - 1

    def test_involution_returns_self_dual(self):
        nb = neighbor(PAIR4, (1, 3))
        x2 = next(v for v in PAIR4.rows if not nb.contains(v))
        back = neighbor(nb, tuple(i + 1 for i in range(4) if (x2 >> i) & 1))
        assert is_self_dual(back)


class TestSupportSets:
    def test_mask_round_trip(self):
        assert support_mask((1, 3), 4) == 0b101

    def test_position_bounds(self):
        with pytest.raises(ValueError):
            support_mask((0,), 4)
        with pytest.raises(ValueError):
            support_mask((5,), 4)
        with pytest.raises(ValueError):
            support_mask((2, 2), 4)


class TestReferenceCode:
    def test_parameters(self):
        c46 = reference_code_46()
        assert (c46.n, c46.k) == (46, 23)
        assert is_self_dual(c46)
        assert parity_class(c46) == "singly even"
        assert min_weight(c46) == 8

    def test_macwilliams(self):
        assert macwilliams_fixed_point(reference_code_46())

    def test_first_neighbor(self):
        c46 = reference_code_46()
        support, beta_expect = NEIGHBOR_TABLE[0]
        nb = neighbor(c46, support)
        assert (nb.n, nb.k) == (46, 23)
        assert is_self_dual(nb) and parity_class(nb) == "singly even"
        assert min_weight(nb) == 8
        part = shadow(nb)
        assert part.min_weight == 3
        assert is_minimal_shadow(nb)
        assert part.shadow_weights[7] == beta_expect - 10
        assert extract_beta(nb, family_case("24m+22")) == beta_expect == 36

    def test_extract_beta_mismatch(self):
        # the base code has shadow minimum weight 7, so its data fits no
        # minimal-shadow enumerator
        with pytest.raises(BetaMismatchError):
            extract_beta(reference_code_46(), family_case("24m+22"))

    def test_transform_consistency_one_neighbor(self):
        c46 = reference_code_46()
        nb = neighbor(c46, NEIGHBOR_TABLE[1][0])
        a_obs, b_obs = enumerator_vectors(nb)
        fam = FamilyParams.from_length(46)
        tables = build_transform_tables(fam)
        c = gleason_from_code(a_obs, tables)
        enum = enumerators_from_gleason(c, fam)
        assert [x.as_fraction() for x in enum.a] == a_obs
        assert [x.as_fraction() for x in enum.b] == b_obs
        # the same Gleason coefficients arise from the shadow side
        from oracles import gleason_from_shadow
        assert gleason_from_shadow(b_obs, tables) == c


class TestGeneratorFiles:
    def test_round_trip(self):
        text = format_generator_file(PAIR4)
        assert parse_generator_file(text) == PAIR4

    def test_header_optional(self):
        assert parse_generator_file("1100\n0011\n") == PAIR4

    def test_whitespace_inside_rows(self):
        assert parse_generator_file("1 1 0 0\n0 0 1 1\n") == PAIR4

    def test_bad_row_reports_line(self):
        with pytest.raises(GeneratorFileError, match="line 2"):
            parse_generator_file("1100\n01x1\n")

    def test_unequal_lengths(self):
        with pytest.raises(GeneratorFileError, match="unequal"):
            parse_generator_file("1100\n011\n")

    def test_header_mismatch(self):
        with pytest.raises(GeneratorFileError, match="header"):
            parse_generator_file("4 1\n1100\n0011\n")

    def test_empty(self):
        with pytest.raises(GeneratorFileError):
            parse_generator_file("\n\n")
