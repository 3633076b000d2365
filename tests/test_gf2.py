"""GF(2) code engine: duals, parity, shadows, neighbors, and the bundled
length-46 code."""

import math
import random
import tracemalloc

import pytest

from minshadow import cli, gf2
from minshadow.exact import VerificationFailure
from minshadow.gf2 import (COMBO_CAP, LENGTH_CAP, BetaMismatchError,
                           BinaryCode, EnumerationCapError, GeneratorFileError,
                           NEIGHBOR_TABLE, circulant,
                           code_weight_distribution, enumerator_vectors,
                           extract_beta, format_generator_file,
                           is_minimal_shadow, is_self_dual,
                           low_weight_distribution, min_weight,
                           neighbor, parity_class,
                           parse_generator_file, reference_code_46, shadow,
                           support_mask, verify_neighbor_table,
                           weight_distribution)
from minshadow.gleason import (FamilyParams, build_transform_tables,
                               enumerators_from_gleason)
from minshadow.solver import minimal_shadow_r
from oracles import (build_code, dual, gleason_from_code,
                     macwilliams_fixed_point, weight_distribution_naive)
from optimized import run_optimized

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

    def test_distribution_cap_counts_the_unfolded_dimension(self):
        # a k = 29 code holding the all-ones word folds to 28 rows, within
        # the cap, but the cap is on the dimension of the code itself
        ones = (1 << 40) - 1
        big = BinaryCode([1 << i for i in range(28)] + [ones], 40)
        assert big.k == 29 and big.contains(ones)
        with pytest.raises(EnumerationCapError, match="dimension 29 "):
            weight_distribution(big)

    def test_distribution_length_cap(self):
        assert LENGTH_CAP == 4096
        with pytest.raises(EnumerationCapError, match="length 4097"):
            weight_distribution(BinaryCode([1], LENGTH_CAP + 1))
        assert weight_distribution(BinaryCode([1], LENGTH_CAP))[:2] == [1, 1]

    @pytest.mark.parametrize("n, past_length", [(6, 7), (6, 64), (70, 100)])
    def test_offset_must_be_a_word(self, n, past_length):
        # a bit between n and the packed width used to be counted, a bit
        # past the packed width dropped, and -1 died in numpy
        code = _random_code(random.Random(n), n, 3)
        for offset in (-1, 1 << n, 1 << past_length, (1 << past_length) | 1):
            with pytest.raises(ValueError, match="offset"):
                weight_distribution(code, offset)
        top = (1 << n) - 1
        assert weight_distribution(code, top) == weight_distribution_naive(code, top)

    def test_distribution_memory_bounded_on_wide_codes(self):
        # the XOR blocks are sized in uint64 words, not codeword pairs
        rng = random.Random(20)
        code = BinaryCode([rng.getrandbits(1280) for _ in range(20)], 1280)
        assert code.k == 20
        tracemalloc.start()
        try:
            dist = weight_distribution(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(dist) == 1 << 20
        assert peak < 100 * 2**20

    def test_distribution_memory_bounded_on_length_46(self):
        # shadow's code distribution, from the low weights by Gleason's
        # theorem, and one exhaustive enumeration, weight_distribution's,
        # folded to 2^22 words because the code holds the all-ones word
        code = reference_code_46()
        tracemalloc.start()
        try:
            shadow(code)
            dist = weight_distribution(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(dist) == 1 << 23
        assert peak < 8 * 2**20


def _random_code(rng: random.Random, n: int, k: int) -> BinaryCode:
    while True:
        code = BinaryCode([rng.getrandbits(n) for _ in range(k)], n)
        if code.k == k:
            return code


class TestDistributionOracle:
    # lengths straddle the uint64 word boundaries and the uint8/uint16
    # switch of the per-codeword weight sum; at n = 1280 (20 words) the
    # 64 a-rows run in XOR blocks of 51 rows, the last of 13
    @pytest.mark.parametrize("n, k", [
        (n, k) for n in (1, 63, 64, 65, 128, 255, 256, 257, 300)
        for k in (0, 1, 2, 5, 12) if k <= n] + [(1280, 12)])
    def test_matches_codeword_count(self, n, k):
        rng = random.Random(1000 * n + k)
        code = _random_code(rng, n, k)
        for offset in (0, rng.getrandbits(n)):
            dist = weight_distribution(code, offset)
            assert dist == weight_distribution_naive(code, offset)
            assert sum(dist) == 2**k

    @pytest.mark.parametrize("n", (64, 255, 256, 257, LENGTH_CAP))
    def test_all_ones_word(self, n):
        # the heaviest weight, n, must not wrap in the weight sum
        ones = (1 << n) - 1
        code = BinaryCode([ones, 0b101], n)
        assert weight_distribution(code)[n] == 1
        assert weight_distribution(code, ones) == weight_distribution_naive(
            code, ones)


def _code_with_ones(rng: random.Random, n: int, k: int,
                    with_ones: bool) -> BinaryCode:
    """A random [n, k] code that holds the all-ones word, or does not."""
    ones = (1 << n) - 1
    while True:
        rows = [rng.getrandbits(n) for _ in range(k - with_ones)]
        code = BinaryCode(rows + [ones] * with_ones, n)
        if code.k == k and code.contains(ones) == with_ones:
            return code


class TestComplementFold:
    # a code holding the all-ones word 1 is enumerated as C' + {0, 1}
    # from one row fewer; the lengths straddle the uint64 word boundaries
    # and the uint8/uint16 switch, and k = n = 1 is C = {0, 1} itself,
    # which folds to no rows at all
    @pytest.mark.parametrize("n, k, with_ones", [
        (n, k, with_ones) for n in (1, 2, 63, 64, 65, 255, 256, 257)
        for k in (0, 1, 2, 5, 12) for with_ones in (True, False)
        if (1 <= k <= n if with_ones else k < n)])
    def test_matches_codeword_count(self, n, k, with_ones):
        rng = random.Random(10000 * n + 10 * k + with_ones)
        code = _code_with_ones(rng, n, k, with_ones)
        for offset in (0, rng.getrandbits(n)):
            dist = weight_distribution(code, offset)
            assert dist == weight_distribution_naive(code, offset)
            assert sum(dist) == 2**k
            if with_ones:
                assert dist == dist[::-1]

    @pytest.mark.parametrize("n", (1, 2, 64, 257))
    def test_repetition_and_zero_codes(self, n):
        ones = (1 << n) - 1
        rep = BinaryCode([ones], n)
        zero = BinaryCode([], n)
        assert weight_distribution(rep) == [1] + [0] * (n - 1) + [1]
        assert weight_distribution(zero) == [1] + [0] * n
        assert weight_distribution(zero, ones) == [0] * n + [1]
        for offset in (1, ones >> 1):
            for code in (rep, zero):
                assert weight_distribution(code, offset) == \
                    weight_distribution_naive(code, offset)

    @pytest.mark.parametrize("index", range(len(NEIGHBOR_TABLE) + 1))
    def test_bundled_codes_and_shadows(self, index):
        # index 0 is the bundled code, 1..10 its recorded neighbors, whose
        # distributions come from their low weights by Gleason's theorem;
        # one more zero coordinate gives the same weights from a code that
        # is not self-dual and lacks the all-ones word, enumerated unfolded
        # over all 2^23 words
        code = reference_code_46()
        if index:
            code = neighbor(code, NEIGHBOR_TABLE[index - 1][0])
        assert code.contains((1 << code.n) - 1)
        padded = BinaryCode(code.rows, code.n + 1)
        assert not padded.contains((1 << padded.n) - 1)
        part = shadow(code)
        for offset, dist in ((0, code_weight_distribution(code)),
                             (part.shadow_reps[0], part.shadow_weights)):
            assert dist == weight_distribution(code, offset)
            assert dist + [0] == weight_distribution(padded, offset)
            assert dist == dist[::-1]
            assert sum(dist) == 1 << 23


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


def _walk_codes(n: int, steps: int, seed: int):
    """The codes a seeded walk of self-dual neighbors meets, from the
    direct sum of n/2 copies of the [2, 1, 2] code.  n >= 4: at n = 2 the
    one even-weight support {1, 2} lies in the start code, so no step
    could be taken."""
    if n < 4:
        raise ValueError(f"a neighbor walk needs n >= 4, got {n}")
    rng = random.Random(seed)
    code = BinaryCode([0b11 << i for i in range(0, n, 2)], n)
    for _ in range(steps):
        while True:
            support = rng.sample(range(1, n + 1), 2 * rng.randint(1, n // 2))
            if not code.contains(support_mask(support, n)):
                break
        code = neighbor(code, support)
        yield code


@pytest.mark.parametrize("n", [-2, 0, 2])
def test_walk_codes_refuses_short_lengths(n):
    # raised at the first next(), before any resampling loop can spin
    with pytest.raises(ValueError, match="n >= 4"):
        next(_walk_codes(n, 1, seed=0))


class TestShadowFromCode:
    # shadow() transforms the code's weight distribution instead of
    # enumerating the shadow coset; the coset enumeration checks it
    @pytest.mark.parametrize("n", range(4, 26, 2))
    def test_neighbor_walks_match_coset_count(self, n):
        # every residue of n mod 8, singly even codes of several shadow
        # minimum weights on the way
        checked = 0
        for code in _walk_codes(n, 24, seed=n):
            if parity_class(code) != "singly even":
                continue
            part = shadow(code)
            assert part.shadow_weights == weight_distribution_naive(
                code, part.shadow_reps[0])
            checked += 1
        assert checked

    def test_table1_solves_the_family_once(self, monkeypatch):
        # the ten neighbors are matched against one n = 46 enumerator, and
        # each match gives what extract_beta gives on its own
        calls = []
        solve_ = gf2.solve
        monkeypatch.setattr(gf2, "solve",
                            lambda case, m: calls.append((case.tag, m))
                            or solve_(case, m))
        checks = verify_neighbor_table()
        assert calls == [("24m+22", 1)]
        base = reference_code_46()
        assert ([extract_beta(neighbor(base, supp)) for supp, _ in NEIGHBOR_TABLE]
                == [c.beta for c in checks] == [b for _, b in NEIGHBOR_TABLE]
                == [36, 42, 44, 46, 48, 50, 52, 54, 56, 58])
        assert all(type(c.beta) is int for c in checks)

    def test_one_enumeration_per_code(self, monkeypatch, tmp_path, capsys):
        # the bundled code and its ten neighbors have their low weights
        # counted once each, and none is enumerated exhaustively
        calls, exhaustive = [], []
        count_, enumerate_ = gf2.low_weight_distribution, gf2.weight_distribution
        monkeypatch.setattr(gf2, "low_weight_distribution",
                            lambda code: calls.append(code.n) or count_(code))
        monkeypatch.setattr(gf2, "weight_distribution",
                            lambda code, offset=0: exhaustive.append(offset)
                            or enumerate_(code, offset))
        verify_neighbor_table()
        assert calls == [46] * 11
        calls.clear()
        path = tmp_path / "c46.txt"
        path.write_text(format_generator_file(reference_code_46()))
        support = ",".join(map(str, NEIGHBOR_TABLE[0][0]))
        assert cli.main(["code", "neighbor", "--gen-file", str(path),
                         "--support", support]) == 0
        assert '"beta": "36"' in capsys.readouterr().out
        assert calls == [46]
        assert exhaustive == []

    def test_representatives_must_be_counted(self, monkeypatch):
        # a transform that counts nothing at the weight of a shadow
        # representative (weight 1 in the [2, 1, 2] code) is refused
        monkeypatch.setattr(gf2, "_shadow_weights", lambda dist, n: [2, 0, 0])
        with pytest.raises(VerificationFailure, match="weight 1"):
            shadow(BinaryCode([0b11], 2))

    def test_perturbed_distribution_raises_under_optimize_flag(self):
        # one word too many at weight 0 adds (1+y)^n to the transform:
        # every coefficient stays non-negative, only the divisibility
        # by 2^(n/2) catches it, also under -O
        proc = run_optimized("""
            from minshadow import gf2
            from minshadow.exact import VerificationFailure
            rebuild = gf2._gleason_distribution
            def perturbed(code):
                dist = rebuild(code)
                dist[0] += 1
                return dist
            gf2._gleason_distribution = perturbed
            code = gf2.neighbor(gf2.BinaryCode([3, 12, 48, 192, 768], 10),
                                (1, 3))
            try:
                gf2.shadow(code)
            except VerificationFailure as exc:
                print("raised:", exc)
            else:
                sys.exit("accepted a perturbed distribution")
        """)
        assert proc.returncode == 0, proc.stderr
        assert "raised: shadow count at weight 0 is 1 / 2^5" in proc.stdout


def _pairs(count: int) -> BinaryCode:
    """i_2^count: the direct sum of count copies of the [2, 1, 2] code,
    whose a_i = C(count, i) words of weight 2i a hand count gives."""
    return BinaryCode([0b11 << 2 * i for i in range(count)], 2 * count)


def _combinations(n: int) -> int:
    """Combinations per information set at w = 2 floor(n/8), k = n/2."""
    return sum(math.comb(n // 2, t) for t in range(n // 8 + 1))


class TestLowWeights:
    # a self-dual code's distribution is rebuilt from its counts of the
    # weights 0..2K by Gleason's theorem; the exhaustive enumeration,
    # which no longer serves self-dual codes, is the oracle
    # (the bundled codes: TestComplementFold.test_bundled_codes_and_shadows)
    @pytest.mark.parametrize("code", [REP2, PAIR4, E8], ids=["REP2", "PAIR4", "E8"])
    def test_small_codes(self, code):
        # E8 is doubly even
        assert gf2._gleason_distribution(code) == weight_distribution(code)

    @pytest.mark.parametrize("n", range(4, 26, 2))
    def test_neighbor_walks(self, n):
        # the codes of TestShadowFromCode's walks, doubly even ones too
        for code in _walk_codes(n, 24, seed=n):
            assert is_self_dual(code)
            assert code_weight_distribution(code) == weight_distribution(code)

    @pytest.mark.parametrize("n", range(4, 26, 2))
    def test_counts_are_the_exhaustive_prefix(self, n):
        # the counts of the weights 0..2 floor(n/8) themselves, before the
        # rebuild checks them
        for code in _walk_codes(n, 4, seed=100 + n):
            low = low_weight_distribution(code)
            assert low == weight_distribution(code)[:2 * (n // 8) + 1]

    def test_past_the_enumeration_cap(self):
        # k = 29 is refused by the exhaustive enumeration, not here
        code = _pairs(29)
        with pytest.raises(EnumerationCapError, match="dimension 29 "):
            weight_distribution(code)
        dist = code_weight_distribution(code)
        assert dist[::2] == [math.comb(29, i) for i in range(30)]
        assert not any(dist[1::2])
        assert min_weight(code) == 2

    def test_combination_cap(self):
        # every self-dual length the exhaustive path admits (n <= 56,
        # k <= 28) is admitted, up to n = 62; n = 64 is refused
        assert COMBO_CAP == 1 << 22
        assert _combinations(56) == 1683218
        assert max(map(_combinations, range(2, 64, 2))) == _combinations(62)
        assert _combinations(62) == 3572224 <= COMBO_CAP < _combinations(64)
        assert _combinations(64) == 15033173

    def test_memory_bounded_at_the_cap(self):
        # levels 6 and 7 of 31 rows: (C(31, 6) + C(31, 7)) uint64 words,
        # 26.9 MB, plus the slice being counted
        tracemalloc.start()
        try:
            dist = code_weight_distribution(_pairs(31))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist[::2] == [math.comb(31, i) for i in range(32)]
        assert peak < 32 * 2**20

    def test_refused_before_any_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError,
                               match="15033173 combinations of at most 8 rows"):
                code_weight_distribution(_pairs(32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_bad_input(self):
        with pytest.raises(ValueError, match="self-dual"):
            low_weight_distribution(build_code([[1, 1, 0, 0]]))

    def test_other_codes_are_enumerated(self, monkeypatch):
        # a code that is not self-dual keeps the exhaustive enumeration
        monkeypatch.setattr(gf2, "low_weight_distribution", None)
        assert code_weight_distribution(build_code([[1, 1, 1, 1]])) == [1, 0, 0, 0, 1]

    @pytest.mark.parametrize("weight, delta, message", [
        (0, 1, "2 words of weight 0 counted, not 1"),
        (1, 1, "counts 0 words of weight 1, 1 were counted"),
        (2, -1, "counts -1 words of weight 2"),
    ])
    def test_perturbed_count_raises_under_optimize_flag(self, weight, delta,
                                                        message):
        # a second zero word, an odd weight, and a count that the rebuild
        # carries into a negative coefficient
        proc = run_optimized(f"""
            from minshadow import gf2
            from minshadow.exact import VerificationFailure
            count = gf2.low_weight_distribution
            def perturbed(code):
                dist = count(code)
                dist[{weight}] += {delta}
                return dist
            gf2.low_weight_distribution = perturbed
            try:
                gf2.code_weight_distribution(gf2.reference_code_46())
            except VerificationFailure as exc:
                print("raised:", exc)
            else:
                sys.exit("accepted a perturbed count")
        """)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: ") and message in proc.stdout


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
        assert extract_beta(nb) == beta_expect == 36

    def test_extract_beta_mismatch(self):
        # the base code has shadow minimum weight 7, so its data fits no
        # minimal-shadow enumerator
        with pytest.raises(BetaMismatchError):
            extract_beta(reference_code_46())

    def test_transform_consistency_one_neighbor(self):
        c46 = reference_code_46()
        nb = neighbor(c46, NEIGHBOR_TABLE[1][0])
        a_obs, b_obs = enumerator_vectors(nb)
        fam = FamilyParams.from_length(46)
        tables = build_transform_tables(fam)
        c = gleason_from_code(a_obs, tables)
        enum = enumerators_from_gleason(c, fam)
        assert list(enum.a) == [(x, 0) for x in a_obs]
        assert list(enum.b) == [(x, 0) for x in b_obs]
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

    def test_caps_boundary(self):
        # LENGTH_CAP columns and LENGTH_CAP rows parse; one more does not
        assert parse_generator_file("1" * LENGTH_CAP + "\n").n == LENGTH_CAP
        assert parse_generator_file("11\n" * LENGTH_CAP).k == 1
        with pytest.raises(EnumerationCapError,
                           match=f"length {LENGTH_CAP + 1} exceeds"):
            parse_generator_file("1" * (LENGTH_CAP + 1) + "\n")
        with pytest.raises(EnumerationCapError,
                           match=f"row count {LENGTH_CAP + 1} exceeds"):
            parse_generator_file("11\n" * (LENGTH_CAP + 1))

    def test_rows_read_coordinate_one_first(self):
        code = parse_generator_file("1000110\n")
        assert code.rows == (0b0110001,)
        assert format_generator_file(code) == "7 1\n1000110\n"
