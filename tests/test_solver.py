"""Minimal-shadow solver, closed forms, scans, and beta ranges."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import minshadow
from minshadow import solver
from minshadow.exact import AffineForm
from minshadow.solver import (FAMILY_CASES, Admissibility, FreeParameterError,
                              admissible, admissible_at, beta_family_for_length,
                              beta_range, closed_form_a2m1, closed_form_bm,
                              closed_form_bm1, evaluate_f, f_poly, family_case,
                              largest_root_bracket, max_admissible,
                              minimal_shadow_constraints, minimal_shadow_r,
                              nonexistence_scan, rains_bound, solve)

C2 = family_case("24m+2")
C4 = family_case("24m+4")
C6 = family_case("24m+6")
C10 = family_case("24m+10")
C22 = family_case("24m+22")


class TestBounds:
    def test_minimal_shadow_r(self):
        assert minimal_shadow_r(46) == 3
        assert minimal_shadow_r(2) == 1
        assert minimal_shadow_r(24) == 4
        assert minimal_shadow_r(28) == 2
        with pytest.raises(ValueError):
            minimal_shadow_r(7)

    def test_rains_bound(self):
        assert rains_bound(22) == 6
        assert rains_bound(26) == 8
        # 46 and 70 are both 22 mod 24 and get the raised branch
        assert rains_bound(46) == 10
        assert rains_bound(70) == 14
        assert rains_bound(24) == 8
        with pytest.raises(ValueError):
            rains_bound(21)


class TestConstraints:
    def test_family_24m2_m2(self):
        cs = minimal_shadow_constraints(C2, 2)
        assert cs.pinned_a == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
        assert cs.pinned_b == {0: 1, 1: 0}
        assert cs.equalities == ((5, 2),)
        assert cs.free == ()

    def test_family_24m4_no_equality(self):
        cs = minimal_shadow_constraints(C4, 2)
        assert cs.equalities == ()
        assert cs.pinned_b == {0: 1, 1: 0}

    def test_family_24m6_m1_free_slot0(self):
        cs = minimal_shadow_constraints(C6, 1)
        assert cs.pinned_b == {}
        assert cs.free == (("beta", "b", 0),)

    def test_family_24m6_m2_pins_b0(self):
        cs = minimal_shadow_constraints(C6, 2)
        assert cs.pinned_b == {0: 1}
        assert cs.free == (("beta", "b", 1),)

    def test_family_24m22_m2_zero_gap(self):
        cs = minimal_shadow_constraints(C22, 2)
        assert cs.pinned_a == {i: (1 if i == 0 else 0) for i in range(6)}
        assert cs.pinned_b == {0: 1, 1: 0}
        assert cs.free == (("beta", "b", 2),)

    def test_m_zero_only_for_24m22(self):
        assert minimal_shadow_constraints(C22, 0).free == (("beta", "b", 0),)
        with pytest.raises(ValueError):
            minimal_shadow_constraints(C2, 0)


class TestSolveUniqueFamilies:
    def test_24m2_m1(self):
        e = solve(C2, 1)
        assert e.free == ()
        assert e.b[1] == AffineForm(20)
        assert e.b[2] == AffineForm(1575)

    def test_24m4_m1(self):
        assert solve(C4, 1).b[1] == AffineForm(78)

    def test_24m10_m1(self):
        e = solve(C10, 1)
        assert e.b[1] == AffineForm(6)
        assert e.b[2] == AffineForm(1576)
        assert e.a[3] == AffineForm(6)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_weight_coincidence_24m10(self, m):
        # a at the minimum weight equals b at the shadow slot below it
        e = solve(C10, m)
        assert e.a[2 * m + 1] == e.b[m]

    @pytest.mark.parametrize("case", [C2, C4, C10], ids=lambda c: c.tag)
    @pytest.mark.parametrize("m", range(1, 13))
    def test_solve_matches_closed_forms(self, case, m):
        e = solve(case, m)
        assert e.b[m].as_fraction() == closed_form_bm(case, m)
        assert e.b[m + 1].as_fraction() == closed_form_bm1(case, m)
        if case.tag == "24m+10":
            assert e.a[2 * m + 1].as_fraction() == closed_form_a2m1(m)

    def test_mass(self):
        for case, m in ((C2, 2), (C10, 2)):
            e = solve(case, m)
            half = e.fam.half
            assert sum(x.as_fraction() for x in e.a) == 2 ** half
            assert sum(x.as_fraction() for x in e.b) == 2 ** half


PRINTED_PARAMETRIZED = {
    # n: (case, m, {a-index: (const, beta coeff)}, {b-index: ...})
    30: (C6, 1, {3: (35, -8), 4: (345, 24), 5: (1848, 0)},
         {0: (0, 1), 1: (240, -6), 2: (6720, 15)}),
    54: (C6, 2, {5: (351, -8), 6: (5543, 24), 7: (43884, 32)},
         {0: (1, 0), 1: (-12, 1), 2: (2874, -10), 3: (258404, 45)}),
    22: (C22, 0, {2: (0, 2), 3: (77, -2), 4: (330, -6), 5: (616, 6)},
         {0: (0, 1), 1: (352, -4), 2: (1344, 6)}),
    46: (C22, 1, {4: (0, 2), 5: (884, -2), 6: (10556, -14), 7: (54621, 14)},
         {0: (1, 0), 1: (-10, 1), 2: (6669, -8), 3: (242760, 28)}),
    70: (C22, 2, {6: (0, 2), 7: (9682, -2), 8: (173063, -22)},
         {0: (1, 0), 1: (0, 0), 2: (-104, 1), 3: (88480, -12)}),
}


class TestSolveParametrizedFamilies:
    @pytest.mark.parametrize("n", sorted(PRINTED_PARAMETRIZED))
    def test_printed_coefficients(self, n):
        case, m, a_want, b_want = PRINTED_PARAMETRIZED[n]
        e = solve(case, m)
        assert e.free == ("beta",)
        assert e.fam.n == n
        for i, (const, coef) in a_want.items():
            assert e.a[i] == AffineForm(const, {"beta": coef}), f"a[{i}]"
        for i, (const, coef) in b_want.items():
            assert e.b[i] == AffineForm(const, {"beta": coef}), f"b[{i}]"
        # the forced low-order pins are part of the output
        assert e.a[0] == AffineForm(1)
        d = case.d(m)
        for i in range(1, (d - 2) // 2 + 1):
            assert e.a[i] == AffineForm(0)


BETA_RANGES = {30: (1, 4), 54: (12, 43), 22: (1, 38), 46: (10, 442),
               70: (104, 4841)}


class TestBetaRange:
    @pytest.mark.parametrize("n", sorted(BETA_RANGES))
    def test_printed_ranges(self, n):
        case, m = beta_family_for_length(n)
        assert beta_range(case, m) == BETA_RANGES[n]

    def test_unique_family_rejected(self):
        with pytest.raises(ValueError):
            beta_range(C2, 1)

    @pytest.mark.parametrize("n", sorted(BETA_RANGES))
    def test_substitution_inside_and_outside(self, n):
        case, m = beta_family_for_length(n)
        lo, hi = BETA_RANGES[n]
        e = solve(case, m)
        fam = e.fam
        ds_slot = (minimal_shadow_r(n) - fam.r) // 4

        def fully_admissible(beta):
            sub = e.substitute({"beta": beta})
            ok = admissible(sub)
            return bool(ok) and sub.b[ds_slot].as_fraction() >= 1

        probe = {lo, hi, (lo + hi) // 2}
        for beta in probe:
            assert fully_admissible(beta)
        assert not fully_admissible(lo - 1)
        assert not fully_admissible(hi + 1)


class TestNonexistencePolynomials:
    def test_values_at_one(self):
        assert evaluate_f(C2, 1) == -11907
        assert evaluate_f(C10, 1) == -42552

    def test_brackets(self):
        assert largest_root_bracket(C2) == (231, 232)
        assert largest_root_bracket(C4) == (174, 175)
        assert largest_root_bracket(C10) == (236, 237)

    def test_no_poly_for_beta_families(self):
        with pytest.raises(ValueError):
            f_poly(C6)

    @pytest.mark.parametrize("case", [C2, C4, C10], ids=lambda c: c.tag)
    def test_sign_link(self, case):
        # b_{m+1} < 0 exactly when f(m) > 0 (negative-definite prefactor)
        for m in range(1, 301):
            fm = evaluate_f(case, m)
            b = closed_form_bm1(case, m)
            if fm > 0:
                assert b < 0
            elif fm < 0:
                assert b > 0
            else:
                assert b == 0

    @pytest.mark.parametrize("case", [C2, C4, C10], ids=lambda c: c.tag)
    def test_bm_positive_integer_to_300(self, case):
        for m in range(1, 301):
            v = closed_form_bm(case, m)
            assert v.denominator == 1 and v > 0


class TestClosedFormValues:
    def test_bm_values(self):
        assert closed_form_bm(C2, 1) == 20
        assert closed_form_bm(C4, 1) == 78
        assert closed_form_bm(C10, 1) == 6

    def test_bm1_values(self):
        # -64*25*(-11907) / (4*6*7*8*9) * C(5,0)
        assert closed_form_bm1(C2, 1) == Fraction(19051200, 12096) == 1575
        assert closed_form_bm1(C10, 1) == 1576

    def test_a2m1(self):
        assert closed_form_a2m1(1) == 6
        assert closed_form_a2m1(2) == 55          # C(11, 2)
        assert closed_form_a2m1(5) == 65780       # C(26, 5)

    def test_a2m1_ingredients_at_m1(self):
        from minshadow.gleason import (FamilyParams, code_inverse_col0,
                                       shadow_inverse_entry)
        fam = FamilyParams.from_length(34)
        assert shadow_inverse_entry(3, 0, fam) == -16
        assert code_inverse_col0(3, 34) == -34

    def test_a2m1_equals_bm(self):
        for m in range(1, 41):
            assert closed_form_a2m1(m) == closed_form_bm(C10, m)

    def test_beta_families_rejected(self):
        with pytest.raises(ValueError):
            closed_form_bm(C6, 1)
        with pytest.raises(ValueError):
            closed_form_bm1(C22, 1)


class TestAdmissibility:
    def test_free_parameters_rejected(self):
        with pytest.raises(FreeParameterError):
            admissible(solve(C6, 1))

    @pytest.mark.parametrize("case", [C2, C4, C10], ids=lambda c: c.tag)
    @pytest.mark.parametrize("m", range(1, 7))
    def test_scan_path_agrees_with_solve_path(self, case, m):
        assert admissible_at(case, m) == admissible(solve(case, m))

    def test_small_scan(self):
        scan = nonexistence_scan(C2, 5)
        assert [(m, a.ok) for m, a in scan] == [(m, True) for m in range(1, 6)]
        assert max_admissible(scan) == 5

    def test_scan_24m4_to_ten(self):
        scan = nonexistence_scan(C4, 10)
        assert all(ok for _, ok in scan) and len(scan) == 10

    def test_scan_rejects_beta_families(self):
        with pytest.raises(ValueError):
            nonexistence_scan(C6, 3)

    def test_scan_jobs_deterministic(self):
        assert nonexistence_scan(C4, 4, jobs=2) == nonexistence_scan(C4, 4)

    def test_scan_keeps_certificates(self, monkeypatch):
        real = solver.admissible_at
        bad = Admissibility(False, "b", 5, Fraction(7, 2))
        monkeypatch.setattr(solver, "admissible_at",
                            lambda case, m: bad if m == 3 else real(case, m))
        scan = nonexistence_scan(C4, 4)
        assert [m for m, _ in scan] == [1, 2, 3, 4]
        assert scan[2] == (3, bad)
        assert all(a.ok and a.side is None for m, a in scan if m != 3)
        assert max_admissible(scan) == 4
        assert max_admissible(scan[:3]) == 2

    @pytest.mark.parametrize("jobs,cpus,m_max,workers", [
        (1000, 4, 3, 3), (1000, 4, 10, 4), (2, 4, 10, 2), (1000, None, 10, None),
        (1, 4, 10, None),
    ])
    def test_scan_workers_bounded(self, monkeypatch, jobs, cpus, m_max, workers):
        started = []

        class StubPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(solver, "ProcessPoolExecutor", StubPool)
        monkeypatch.setattr(solver.os, "cpu_count", lambda: cpus)
        scan = nonexistence_scan(C4, m_max, jobs=jobs)
        assert ([(m, a.ok) for m, a in scan]
                == [(m, True) for m in range(1, m_max + 1)])
        assert started == ([] if workers is None else [workers])


SRC = Path(minshadow.__file__).resolve().parents[1]


def test_solve_verification_survives_optimize_flag():
    # under python -O asserts vanish; a perturbed expansion must still be
    # caught by solve's own pin check
    script = textwrap.dedent("""
        import dataclasses, sys
        from minshadow import solver
        from minshadow.exact import VerificationFailure
        if not sys.flags.optimize:
            sys.exit("asserts are still enabled")
        expand = solver.enumerators_from_gleason
        def perturbed(c, fam):
            enum = expand(c, fam)
            return dataclasses.replace(enum, a=(enum.a[0], enum.a[1] + 1) + enum.a[2:])
        solver.enumerators_from_gleason = perturbed
        try:
            solver.solve(solver.family_case("24m+2"), 1)
        except VerificationFailure as exc:
            print("raised:", exc)
        else:
            sys.exit("solve accepted a perturbed enumerator")
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "raised: 24m+2, m=1: a[1] = 1, expected 0" in proc.stdout


class TestFamilyLookup:
    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            family_case("24m+8")

    def test_beta_family_for_length(self):
        assert beta_family_for_length(30)[0].tag == "24m+6"
        assert beta_family_for_length(46) == (C22, 1)
        with pytest.raises(ValueError):
            beta_family_for_length(26)

    def test_registry_targets(self):
        assert FAMILY_CASES["24m+2"].d(1) == 6
        assert FAMILY_CASES["24m+22"].d(1) == 8
        assert FAMILY_CASES["24m+22"].n(1) == 46
