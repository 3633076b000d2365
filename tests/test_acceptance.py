"""Acceptance suite.

Each criterion is one test that prints a single PASS line on success
(run with -s to see them; a failure surfaces through pytest itself).
The full triple nonexistence scan is marked slow and deselected by
default; run it with `pytest -m slow tests/test_acceptance.py`.
"""

import random

import pytest

from minshadow.exact import AffineForm
from minshadow.gf2 import (NEIGHBOR_TABLE, enumerator_vectors, extract_beta,
                           is_self_dual, min_weight, neighbor, parity_class,
                           reference_code_46, shadow)
from minshadow.gleason import (FamilyParams, build_transform_tables,
                               code_inverse_col0, enumerators_from_gleason,
                               shadow_inverse_entry)
from minshadow.solver import (admissible_at, beta_range, closed_form_a2m1,
                              closed_form_bm, closed_form_bm1, family_case,
                              largest_root_bracket, max_admissible,
                              minimal_shadow_r, nonexistence_scan, solve)
from oracles import (build_code, gleason_from_code, gleason_from_shadow,
                     macwilliams_fixed_point)

C2, C4, C6, C10, C22 = (family_case(t) for t in
                        ("24m+2", "24m+4", "24m+6", "24m+10", "24m+22"))

SCAN_EXPECTATIONS = {
    "24m+2": (231, 154),
    "24m+4": (174, 155),
    "24m+10": (236, 159),
}


@pytest.fixture(scope="module")
def table1_codes():
    """The bundled length-46 code and its ten neighbors, built once."""
    base = reference_code_46()
    neighbors = [neighbor(base, supp) for supp, _ in NEIGHBOR_TABLE]
    return base, neighbors


def test_criterion_1_scan_boundaries():
    """Fast subset of the threshold scans: the last admissible m and the
    first inadmissible m for each unique-enumerator family."""
    for tag, (_, last_good) in SCAN_EXPECTATIONS.items():
        case = family_case(tag)
        assert admissible_at(case, last_good).ok, (tag, last_good)
        assert not admissible_at(case, last_good + 1).ok, (tag, last_good + 1)
    print("ACCEPTANCE 1 (boundary subset): PASS  "
          "last admissible m = 154 / 155 / 159")


@pytest.mark.slow
def test_criterion_1_full_scans():
    """Full scans to the root-bracket bound reproduce the three thresholds,
    and the admissible set is exactly an initial interval."""
    for tag, (m_max, last_good) in SCAN_EXPECTATIONS.items():
        case = family_case(tag)
        scan = nonexistence_scan(case, m_max, jobs=2)
        assert max_admissible(scan) == last_good, tag
        assert [m for m, ok in scan if ok] == list(range(1, last_good + 1)), tag
        print(f"  {tag}: scanned m <= {m_max}, admissible exactly "
              f"1..{last_good}")
    print("ACCEPTANCE 1 (full scans): PASS")


def test_criterion_2_root_brackets():
    assert largest_root_bracket(C2) == (231, 232)
    assert largest_root_bracket(C4) == (174, 175)
    assert largest_root_bracket(C10) == (236, 237)
    print("ACCEPTANCE 2: PASS  brackets (231,232) (174,175) (236,237)")


def test_criterion_3_parametrized_enumerators():
    """The five one-parameter enumerators, coefficient for coefficient."""
    beta = AffineForm.parameter("beta")

    def check(case, m, a_want, b_want):
        e = solve(case, m)
        assert e.free == ("beta",)
        for i, want in a_want.items():
            assert e.a[i] == want, (case.tag, m, "a", i)
        for i, want in b_want.items():
            assert e.b[i] == want, (case.tag, m, "b", i)

    check(C6, 1,
          {3: 35 - 8 * beta, 4: 345 + 24 * beta, 5: AffineForm(1848)},
          {0: beta, 1: 240 - 6 * beta, 2: 6720 + 15 * beta})
    check(C6, 2,
          {5: 351 - 8 * beta, 6: 5543 + 24 * beta, 7: 43884 + 32 * beta},
          {0: AffineForm(1), 1: -12 + beta, 2: 2874 - 10 * beta,
           3: 258404 + 45 * beta})
    check(C22, 0,
          {2: 2 * beta, 3: 77 - 2 * beta, 4: 330 - 6 * beta, 5: 616 + 6 * beta},
          {0: beta, 1: 352 - 4 * beta, 2: 1344 + 6 * beta})
    check(C22, 1,
          {4: 2 * beta, 5: 884 - 2 * beta, 6: 10556 - 14 * beta,
           7: 54621 + 14 * beta},
          {0: AffineForm(1), 1: -10 + beta, 2: 6669 - 8 * beta,
           3: 242760 + 28 * beta})
    check(C22, 2,
          {6: 2 * beta, 7: 9682 - 2 * beta, 8: 173063 - 22 * beta},
          {0: AffineForm(1), 1: AffineForm(0), 2: -104 + beta,
           3: 88480 - 12 * beta})
    print("ACCEPTANCE 3: PASS  n = 22, 30, 46, 54, 70 enumerators verbatim")


def test_criterion_4_beta_ranges():
    assert beta_range(C6, 1) == (1, 4)        # n = 30
    assert beta_range(C6, 2) == (12, 43)      # n = 54
    assert beta_range(C22, 0) == (1, 38)      # n = 22
    assert beta_range(C22, 1) == (10, 442)    # n = 46
    assert beta_range(C22, 2) == (104, 4841)  # n = 70
    print("ACCEPTANCE 4: PASS  beta ranges (1,4) (12,43) (1,38) "
          "(10,442) (104,4841)")


def test_criterion_5_table1_end_to_end(table1_codes):
    base, neighbors = table1_codes
    assert (base.n, base.k, min_weight(base)) == (46, 23, 8)
    assert is_self_dual(base) and parity_class(base) == "singly even"
    betas = []
    for nb in neighbors:
        assert (nb.n, nb.k) == (46, 23)
        assert is_self_dual(nb)
        assert parity_class(nb) == "singly even"
        assert min_weight(nb) == 8
        assert shadow(nb).min_weight == minimal_shadow_r(46) == 3
        betas.append(extract_beta(nb, C22))
    assert betas == [36, 42, 44, 46, 48, 50, 52, 54, 56, 58]
    print("ACCEPTANCE 5: PASS  ten [46,23,8] minimal-shadow neighbors, "
          f"beta = {betas}")


def test_criterion_6_closed_form_oracles():
    # closed forms equal the matrix-inverse entries for every decomposition
    # with m <= 8
    fams = [FamilyParams(m, l, r)
            for m in range(9) for l in range(3) for r in range(4)
            if 24 * m + 8 * l + 2 * r > 0]
    for fam in fams:
        t = build_transform_tables(fam)
        k_top = fam.c_count - 1
        for i in range(1, k_top + 1):
            assert code_inverse_col0(i, fam.n) == t.code_inverse[i][0], fam
            for j in range(k_top + 1 - i):
                assert shadow_inverse_entry(i, j, fam) == \
                    t.shadow_inverse[i][j], fam

    # the independent linear-solve path reproduces the closed forms to m = 40
    for case in (C2, C4, C10):
        for m in range(1, 41):
            e = solve(case, m)
            assert e.b[m].as_fraction() == closed_form_bm(case, m), (case.tag, m)
            assert e.b[m + 1].as_fraction() == closed_form_bm1(case, m), \
                (case.tag, m)
            if case.tag == "24m+10":
                assert e.a[2 * m + 1].as_fraction() == closed_form_a2m1(m), m

    # frozen regression values
    assert closed_form_bm(C2, 1) == 20 and closed_form_bm1(C2, 1) == 1575
    assert closed_form_bm(C4, 1) == 78
    assert closed_form_bm(C10, 1) == 6 == closed_form_a2m1(1)
    assert closed_form_bm1(C10, 1) == 1576
    print("ACCEPTANCE 6: PASS  closed forms == matrices (m <= 8), "
          "solve == closed forms (m <= 40)")


def test_criterion_7_transform_vs_brute_force_shadow(table1_codes):
    """The shadow distribution predicted from each neighbor's code
    coefficients equals the exhaustively enumerated one."""
    _, neighbors = table1_codes
    fam = FamilyParams.from_length(46)
    tables = build_transform_tables(fam)
    for idx, nb in enumerate(neighbors, start=1):
        a_obs, b_obs = enumerator_vectors(nb)
        c = gleason_from_code(a_obs, tables)
        predicted = enumerators_from_gleason(c, fam)
        assert [x.as_fraction() for x in predicted.b] == b_obs, idx
        assert gleason_from_shadow(b_obs, tables) == c, idx
    print("ACCEPTANCE 7: PASS  predicted shadow == enumerated shadow "
          "for all ten neighbors")


def test_criterion_8_property_suites(table1_codes):
    base, neighbors = table1_codes
    small = [build_code([[1, 1]]),
             build_code([[1, 1, 0, 0], [0, 0, 1, 1]])]

    # MacWilliams fixed point for every constructed self-dual code
    for code in small + [base] + neighbors:
        assert macwilliams_fixed_point(code), code

    # shadow congruence and cardinality
    for code in small + [base] + neighbors:
        fam = FamilyParams.from_length(code.n)
        part = shadow(code)
        assert sum(part.shadow_weights) == 2 ** fam.half, code
        for w, cnt in enumerate(part.shadow_weights):
            if cnt:
                assert w % 4 == fam.r, (code, w)

    # b_m is a positive integer across all three families up to m = 300
    for case in (C2, C4, C10):
        for m in range(1, 301):
            v = closed_form_bm(case, m)
            assert v > 0 and v.denominator == 1, (case.tag, m)

    # round trip a -> c -> a on random integer Gleason vectors, m <= 6
    rng = random.Random(2024)
    fams = [FamilyParams(m, l, r)
            for m in range(7) for l in range(3) for r in range(4)
            if 24 * m + 8 * l + 2 * r > 0]
    for trial in range(12):
        fam = rng.choice(fams)
        c = [rng.randrange(-100, 101) for _ in range(fam.c_count)]
        enum = enumerators_from_gleason(c, fam)
        t = build_transform_tables(fam)
        assert gleason_from_code(list(enum.a), t) == [AffineForm(x) for x in c]
        assert gleason_from_shadow(list(enum.b), t) == [AffineForm(x) for x in c]
    print("ACCEPTANCE 8: PASS  MacWilliams, shadow congruence/cardinality, "
          "b_m integrality to 300, round trips")
