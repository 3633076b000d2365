"""Minimal-shadow solver, closed forms, scans, and beta ranges."""

import concurrent.futures
import dis
import hashlib
import math
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from minshadow import gleason, solver
from minshadow.exact import VerificationFailure, poly_eval, taylor_shift
from minshadow.gleason import (FamilyParams, ParametricEnumerator,
                               enumerators_from_gleason, expand_scaled)
from minshadow.solver import (FAMILY_CASES, Admissibility, EmptyBetaRangeError,
                              admissible_at, beta_family_for_length, beta_range,
                              f_poly, family_case, g_poly, largest_root_bracket,
                              max_admissible, minimal_shadow_constraints,
                              minimal_shadow_r, nonexistence_scan, rains_bound,
                              solve)
from minshadow.cli import M_CAP
from oracles import (admissible, beta_tail_gleason, closed_form_a2m1,
                     closed_form_bm, closed_form_bm1, evaluate_f,
                     full_by_direct_sum, minimal_shadow_constraints_loop,
                     pinned_system_gleason, window_by_delta)
from optimized import SRC, run_optimized

C2 = family_case("24m+2")
C4 = family_case("24m+4")
C6 = family_case("24m+6")
C10 = family_case("24m+10")
C22 = family_case("24m+22")


def first_free_slot(cs) -> int:
    """The first shadow index not in cs.pinned_b: beta's slot in a beta
    family."""
    return next(i for i in range(len(cs.pinned_b) + 1) if i not in cs.pinned_b)


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

    @pytest.mark.parametrize("n", [-2, 0, 3, 7, 21])
    def test_one_length_check(self, n):
        # all three go through FamilyParams.from_length, message and all
        with pytest.raises(ValueError) as want:
            FamilyParams.from_length(n)
        assert str(want.value) == f"length must be a positive even integer, got {n}"
        for bound in (minimal_shadow_r, rains_bound, beta_family_for_length):
            with pytest.raises(ValueError) as got:
                bound(n)
            assert str(got.value) == str(want.value), bound

    def test_against_the_residues(self):
        # the residue forms the two bounds were first written in
        for n in range(2, 1000, 2):
            assert minimal_shadow_r(n) == {0: 4, 2: 1, 4: 2, 6: 3}[n % 8], n
            assert rains_bound(n) == 4 * (n // 24) + (6 if n % 24 == 22 else 4), n


class TestConstraints:
    def test_family_24m2_m2(self):
        cs = minimal_shadow_constraints(C2, 2)
        assert cs.pinned_a == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
        assert cs.pinned_b == {0: 1, 1: 0}
        assert cs.equalities == ((5, 2),)

    def test_family_24m4_no_equality(self):
        cs = minimal_shadow_constraints(C4, 2)
        assert cs.equalities == ()
        assert cs.pinned_b == {0: 1, 1: 0}

    def test_family_24m6_m1_free_slot0(self):
        cs = minimal_shadow_constraints(C6, 1)
        assert cs.pinned_b == {}
        assert first_free_slot(cs) == 0

    def test_family_24m6_m2_pins_b0(self):
        cs = minimal_shadow_constraints(C6, 2)
        assert cs.pinned_b == {0: 1}
        assert first_free_slot(cs) == 1

    def test_family_24m22_m2_zero_gap(self):
        cs = minimal_shadow_constraints(C22, 2)
        assert cs.pinned_a == {i: (1 if i == 0 else 0) for i in range(6)}
        assert cs.pinned_b == {0: 1, 1: 0}
        assert first_free_slot(cs) == 2

    @pytest.mark.parametrize("case", list(FAMILY_CASES.values()),
                             ids=lambda c: c.tag)
    def test_same_pins_as_the_loop_construction(self, case):
        # contents and order: _check_pins reports the first failing pin
        for m in range(case.min_m, 61):
            cs = minimal_shadow_constraints(case, m)
            want = minimal_shadow_constraints_loop(case, m)
            assert cs == want, m
            assert list(cs.pinned_a.items()) == list(want.pinned_a.items()), m
            assert list(cs.pinned_b.items()) == list(want.pinned_b.items()), m

    @pytest.mark.parametrize("case", list(FAMILY_CASES.values()),
                             ids=lambda c: c.tag)
    def test_pins_are_ints(self, case):
        # _check_pins compares x against v dx in ints: every pin is the
        # int 0 or 1, neither a Fraction nor a bool
        for m in [*range(case.min_m, 61), 155, 160, 236]:
            cs = minimal_shadow_constraints(case, m)
            for v in (*cs.pinned_a.values(), *cs.pinned_b.values()):
                assert type(v) is int and v in (0, 1), (m, v)

    @pytest.mark.parametrize("m,pinned_b", [(1, {0: 0}), (2, {0: 0, 1: 1})])
    def test_pins_by_weight_at_n_0_mod_8(self, m, pinned_b):
        # n = 24m + 8 has r = 0 and d(S) = 4, slot 1: b_0 = 0 below d(S),
        # and b_1 = 1 only when 2 d(S) < d (d = 8 at m = 1, 12 at m = 2)
        case = solver.FamilyCase("24m+8", 1, 0, 4, 1, False)
        cs = minimal_shadow_constraints(case, m)
        assert minimal_shadow_r(case.n(m)) == 4
        assert list(cs.pinned_b.items()) == list(pinned_b.items())
        assert cs.pinned_a == {i: int(i == 0) for i in range(2 * m + 2)}
        assert cs.equalities == ()
        assert cs == minimal_shadow_constraints_loop(case, m)

    def test_m_zero_only_for_24m22(self):
        assert first_free_slot(minimal_shadow_constraints(C22, 0)) == 0
        with pytest.raises(ValueError):
            minimal_shadow_constraints(C2, 0)


class TestSolveUniqueFamilies:
    def test_24m2_m1(self):
        e = solve(C2, 1)
        assert not any(q for _, q in e.a + e.b)
        assert e.b[1] == (20, 0)
        assert e.b[2] == (1575, 0)

    def test_24m4_m1(self):
        assert solve(C4, 1).b[1] == (78, 0)

    def test_24m10_m1(self):
        e = solve(C10, 1)
        assert e.b[1] == (6, 0)
        assert e.b[2] == (1576, 0)
        assert e.a[3] == (6, 0)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_weight_coincidence_24m10(self, m):
        # a at the minimum weight equals b at the shadow slot below it
        e = solve(C10, m)
        assert e.a[2 * m + 1] == e.b[m]

    @pytest.mark.parametrize("case", [C2, C4, C10], ids=lambda c: c.tag)
    @pytest.mark.parametrize("m", range(1, 13))
    def test_solve_matches_closed_forms(self, case, m):
        e = solve(case, m)
        assert e.b[m] == (closed_form_bm(case, m), 0)
        assert e.b[m + 1] == (closed_form_bm1(case, m), 0)
        if case.tag == "24m+10":
            assert e.a[2 * m + 1] == (math.comb(5 * m + 1, m), 0)

    def test_mass(self):
        for case, m in ((C2, 2), (C10, 2)):
            e = solve(case, m)
            half = e.fam.half
            assert sum(p for p, _ in e.a) == 2 ** half
            assert sum(p for p, _ in e.b) == 2 ** half
            assert not any(q for _, q in e.a + e.b)


@pytest.mark.parametrize("case", list(FAMILY_CASES.values()), ids=lambda c: c.tag)
def test_solve_equals_pinned_system_oracle(case):
    # the closed forms and the beta families' shadow-pin solve against the
    # whole pinned system in all K + 1 unknowns, beta terms included
    for m in range(case.min_m, 13):
        want = enumerators_from_gleason(pinned_system_gleason(case, m),
                                        case.params(m))
        got = solve(case, m)
        assert got == want, (case.tag, m)
        assert any(q for _, q in got.a + got.b) == case.parametrized


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
        assert any(q for _, q in e.a + e.b)
        assert e.fam.n == n
        for i, (const, coef) in a_want.items():
            assert e.a[i] == (const, coef), f"a[{i}]"
        for i, (const, coef) in b_want.items():
            assert e.b[i] == (const, coef), f"b[{i}]"
        # the forced low-order pins are part of the output
        assert e.a[0] == (1, 0)
        d = case.d(m)
        for i in range(1, (d - 2) // 2 + 1):
            assert e.a[i] == (0, 0)


BETA_RANGES = {30: (1, 4), 54: (12, 43), 22: (1, 38), 46: (10, 442),
               70: (104, 4841)}


class TestBetaRange:
    @pytest.mark.parametrize("n", sorted(BETA_RANGES))
    def test_printed_ranges(self, n):
        case, m = beta_family_for_length(n)
        assert beta_range(case, m) == BETA_RANGES[n]

    def test_unique_family_rejected(self):
        with pytest.raises(ValueError, match="admissible_at"):
            beta_range(C2, 1)

    @pytest.mark.parametrize("n", sorted(BETA_RANGES))
    def test_substitution_inside_and_outside(self, n):
        case, m = beta_family_for_length(n)
        lo, hi = BETA_RANGES[n]
        e = solve(case, m)
        fam = e.fam
        ds_slot = (minimal_shadow_r(n) - fam.r) // 4

        def fully_admissible(beta):
            sub = e.substitute(beta)
            return bool(admissible(sub)) and sub.b[ds_slot][0] >= 1

        for beta in range(lo - 1, hi + 2):
            assert fully_admissible(beta) == (lo <= beta <= hi), beta

    # the beta edge: the first m whose interval is empty
    @pytest.mark.parametrize("case,edge", [(C6, 158), (C22, 159)],
                             ids=["24m+6", "24m+22"])
    def test_empty_at_the_edge(self, case, edge):
        with pytest.raises(EmptyBetaRangeError) as exc:
            beta_range(case, edge)
        found = re.fullmatch(
            rf"empty beta interval for {re.escape(case.tag)}, m={edge}: "
            r"([ab])\[(\d+)\] needs beta >= (-?\d+), "
            r"([ab])\[(\d+)\] needs beta <= (-?\d+)", str(exc.value))
        assert found, str(exc.value)
        lo_side, lo_i, lo, hi_side, hi_i, hi = found.groups()
        lo, hi = int(lo), int(hi)
        assert lo > hi
        # each named coefficient binds: admissible at its bound, not one
        # step past it
        e = solve(case, edge)
        ds_slot = (minimal_shadow_r(e.fam.n) - e.fam.r) // 4

        def slack(side, i, beta):
            p, q = getattr(e, side)[int(i)]
            return p + q * beta - (side == "b" and int(i) == ds_slot)

        assert slack(lo_side, lo_i, lo) >= 0 > slack(lo_side, lo_i, lo - 1)
        assert slack(hi_side, hi_i, hi) >= 0 > slack(hi_side, hi_i, hi + 1)

    @pytest.mark.parametrize("case,m", [(C6, 157), (C22, 158)],
                             ids=["24m+6", "24m+22"])
    def test_nonempty_below_the_edge(self, case, m):
        lo, hi = beta_range(case, m)
        assert 0 < lo <= hi

    def test_both_edges_by_digest(self):
        # the intervals below both edges and the messages at them, whose
        # bounds run to 170 digits, hashed; recorded when every enumerator
        # entry was a Fraction, so ints where integral moved no bound
        lines = []
        for case, m in [(C6, 157), (C22, 158), (C6, 158), (C22, 159)]:
            try:
                lo, hi = beta_range(case, m)
                assert type(lo) is int and type(hi) is int
                lines.append(f"{case.tag} {m} {(lo, hi)}")
            except EmptyBetaRangeError as exc:
                lines.append(f"{case.tag} {m} {exc}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "20076c398128a2b83c5bd8271ad63a01386a670cbf2286a09562821b3f28ce0a")


class TestNonexistencePolynomials:
    def test_values_at_one(self):
        assert evaluate_f(C2, 1) == -11907
        assert evaluate_f(C10, 1) == -42552

    def test_brackets(self):
        assert largest_root_bracket(f_poly(C2)) == (231, 232)
        assert largest_root_bracket(f_poly(C4)) == (174, 175)
        assert largest_root_bracket(f_poly(C10)) == (236, 237)

    @pytest.mark.parametrize("case,t,f_below", [
        (C2, 232, -56452419407), (C4, 175, -111899916659934),
        (C10, 237, -38980650397)], ids=lambda x: getattr(x, "tag", x))
    def test_bracket_certificate(self, case, t, f_below):
        # f(t + x) has only positive coefficients, so f > 0 on [t, oo);
        # f(t-1) < 0, so t is least with that property and a root lies in
        # (t-1, t)
        poly = f_poly(case)
        assert largest_root_bracket(poly) == (t - 1, t)
        assert all(c > 0 for c in taylor_shift(poly, t))
        assert min(taylor_shift(poly, t - 1)) <= 0
        assert evaluate_f(case, t - 1) == f_below < 0 < evaluate_f(case, t)

    @pytest.mark.parametrize("poly,message", [
        ((1, 1, 1), "p(-1) = 1 is not negative"),   # search stops at t = 0
        ((1, 1, -1), "no positive leading coefficient in (1, 1, -1)"),
        ((-1, 1), "p(1) = 0 is not negative"),      # the root is exactly 1
        ((), "no positive leading coefficient in ()"),
    ])
    def test_bracket_is_certified(self, poly, message):
        with pytest.raises(VerificationFailure) as err:
            largest_root_bracket(poly)
        assert str(err.value) == message

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


def sign(x) -> int:
    return (x > 0) - (x < 0)


class TestCertificateHint:
    """The a_{2m+4} polynomials g that schedule admissible_at's window."""

    @pytest.mark.parametrize("case,t", [(C2, 155), (C4, 156), (C10, 160)],
                             ids=lambda x: getattr(x, "tag", x))
    def test_taylor_shift_gives_the_paper_thresholds(self, case, t):
        # g(t + x) has only positive coefficients from t on, and g(t-1) < 0:
        # given the closed form, a_{2m+4} < 0 for every m >= t
        g = g_poly(case)
        assert largest_root_bracket(g) == (t - 1, t)
        assert poly_eval(g, t - 1) < 0

    @pytest.mark.parametrize("case", [C2, C4, C10], ids=lambda c: c.tag)
    def test_sign_of_a2m4_from_the_exact_expansion(self, case):
        for m in range(1, 41):
            a, _ = solve(case, m).a[2 * m + 4]
            assert sign(a) == -sign(poly_eval(g_poly(case), m)) != 0, m

    def test_no_poly_for_beta_families(self):
        with pytest.raises(ValueError):
            g_poly(C22)

    @pytest.mark.parametrize("case,t", [(C2, 155), (C4, 156), (C10, 160)],
                             ids=lambda x: getattr(x, "tag", x))
    def test_forced_hint_keeps_every_certificate(self, monkeypatch, case, t):
        # g itself picks the window at t alone; g forced positive runs the
        # window first at every m, and the admissible m fall through to
        # the full expansion; g forced negative runs the full expansion
        # alone.  A window expands the shadow side to the last pinned
        # index, b_m (b_(m-1) for 24m+4), and the full path in full.
        expand = solver.expand_scaled
        tops = []

        def recording(c, fam, top=None, shadow_top=None):
            tops.append((top, shadow_top))
            return expand(c, fam, top, shadow_top)

        def window(m):
            return (2 * m + 4, m - 1 if case is C4 else m)

        full = (None, None)
        monkeypatch.setattr(solver, "expand_scaled", recording)
        ms = [*range(1, 13), t - 1, t]
        hinted = [admissible_at(case, m) for m in ms]
        assert tops == [full] * (len(ms) - 1) + [window(t)]
        tops.clear()
        monkeypatch.setattr(solver, "g_poly", lambda case: (1,))
        forced_on = [admissible_at(case, m) for m in ms]
        assert tops == [top for m in ms
                        for top in ([window(m), full] if m < t else [window(m)])]
        tops.clear()
        monkeypatch.setattr(solver, "g_poly", lambda case: (-1,))
        forced_off = [admissible_at(case, m) for m in ms]
        assert tops == [full] * len(ms)
        assert hinted == forced_on == forced_off
        assert [a.ok for a in forced_on] == [m < t for m in ms]

    @pytest.mark.parametrize("case,m", [(C2, 155), (C4, 156), (C10, 160)],
                             ids=lambda x: getattr(x, "tag", x))
    def test_window_tail_cost(self, monkeypatch, case, m):
        # the pins leave d = p - p_0 gamma zero below 2m+1, so the big-int
        # products (p_0 gamma, and the binomial convolution over four
        # entries) stay linear in the window; a dense difference (for
        # example, with (1+z)^r left out of e) costs about (2m+4)^2 / 2
        calls = []

        def counting(x, y):
            calls.append(None)
            return x * y

        monkeypatch.setattr(gleason, "mul", counting)
        assert admissible_at(case, m)[:3] == (False, "a", 2 * m + 4)
        assert 0 < len(calls) < 4 * (2 * m + 5)

    def test_window_and_full_expansion_share_one_constraint_set(self, monkeypatch):
        # g forced positive runs the window, then the full expansion, at
        # an admissible m; the pins are built once for both
        build = solver.minimal_shadow_constraints
        calls = []

        def counting(case, m):
            calls.append(m)
            return build(case, m)

        monkeypatch.setattr(solver, "minimal_shadow_constraints", counting)
        monkeypatch.setattr(solver, "g_poly", lambda case: (1,))
        assert admissible_at(C2, 5).ok
        assert calls == [5]

    @staticmethod
    def _window_kernel_calls(case, m):
        # admissible_at(case, m) under a tracer: for each call of the
        # kernel, its e, the support of d = p - p_0 gamma up to
        # t = min(top, e/2), and the Horner steps run on d, counted on the
        # line of x[n] += dk, which the loaded code object gives
        code = gleason._palindromic_horner.__code__
        [load] = [ins.offset for ins in dis.get_instructions(code)
                  if ins.opname.startswith("LOAD_FAST") and ins.argval == "dk"]
        [step] = {line for start, end, line in code.co_lines()
                  if start <= load < end}
        calls = []

        def trace_lines(frame, event, arg):
            if event == "line" and frame.f_lineno == step:
                calls[-1]["steps"] += 1
            return trace_lines

        def trace_calls(frame, event, arg):
            if frame.f_code is gleason._palindromic_horner.__code__:
                args = frame.f_locals
                calls.append({"p": list(args["p"]), "top": args["top"],
                              "e": args["e"], "steps": 0})
                return trace_lines
            return None

        previous = sys.gettrace()
        sys.settrace(trace_calls)
        try:
            result = admissible_at(case, m)
        finally:
            sys.settrace(previous)
        assert result[:3] == (False, "a", 2 * m + 4)
        fam = case.params(m)
        code, shadow = calls
        assert (code["e"], shadow["e"]) == (fam.half, 2 * (fam.c_count - 1))
        for call in calls:
            t = min(call["top"], call["e"] // 2)
            p = call["p"] + [0] * (t + 1 - len(call["p"]))
            gamma = gleason._catalan_power(-call["e"], t)
            call["d"] = [k for k in range(t + 1) if p[k] != p[0] * gamma[k]]
        return code, shadow

    SCAN_REJECT = [(C2, 155), (C2, 156), (C4, 156), (C4, 157), (C10, 160),
                   (C10, 161)]

    @pytest.mark.parametrize("case,m", SCAN_REJECT,
                             ids=lambda x: getattr(x, "tag", x))
    def test_window_runs_no_pass_2_step(self, case, m):
        # the benchmark's scan-reject m, shadow side of the window: the pin
        # on b_m leaves d = p - p_0 gamma at most one nonzero entry, and no
        # Horner step of pass 2 runs
        _, shadow = self._window_kernel_calls(case, m)
        assert len(shadow["d"]) <= 1 and shadow["steps"] == 0

    @pytest.mark.parametrize("case,m", SCAN_REJECT,
                             ids=lambda x: getattr(x, "tag", x))
    def test_window_shadow_side_builds_only_what_it_reads(self, case, m):
        # the same m, shadow side: the kernel gets q_0..q_top, top the last
        # pinned index b_m (b_(m-1) for 24m+4), not all K + 1 entries
        _, shadow = self._window_kernel_calls(case, m)
        shadow_top = m - 1 if case is C4 else m
        assert shadow["top"] == shadow_top
        assert len(shadow["p"]) == shadow_top + 1

    @pytest.mark.parametrize("case,m", SCAN_REJECT,
                             ids=lambda x: getattr(x, "tag", x))
    def test_window_steps_only_past_the_pins(self, case, m):
        # the same m, code side: the pins leave d zero below a_(2m+1), so
        # pass 2 runs exactly three Horner steps, on d_(2m+1..2m+4)
        code, _ = self._window_kernel_calls(case, m)
        assert len(code["d"]) <= 4 and code["d"][0] == 2 * m + 1
        assert code["steps"] == 3


def _check_window_certificate(case, m):
    """admissible_at's certificate is the first negative or non-integer
    a_i of the oracle's window a_0..a_(2m+4)."""
    a = window_by_delta(case, m)
    want = next(((i, v) for i, v in enumerate(a) if v < 0 or v.denominator != 1),
                None)
    assert want is not None, (case.tag, m)
    assert admissible_at(case, m)[1:] == ("a", *want), (case.tag, m)


def _window_ms(stride: int) -> list[tuple]:
    """(case, m) with g(m) > 0 and m <= M_CAP: the first two such m (the
    benchmark's scan-reject m), every stride-th and M_CAP itself."""
    out = []
    for case in (C2, C4, C10):
        ms = [m for m in range(1, M_CAP + 1) if poly_eval(g_poly(case), m) > 0]
        out += [(case, m) for m in sorted({*ms[:2], *ms[::stride], ms[-1]})]
    return out


class TestWindowCertificatesByDelta:
    """admissible_at's window certificates against a_i read off the
    differences delta_j = c_j - col_j (oracles.window_by_delta), with no
    Horner pass and the inverse column from the Lagrange sum."""

    @pytest.mark.parametrize("case,m", _window_ms(40),
                             ids=lambda x: getattr(x, "tag", x))
    def test_sampled_m_to_m_cap(self, case, m):
        _check_window_certificate(case, m)

    # slow: all 732 m, up to about 0.4 s each near M_CAP (2 cores,
    # Python 3.11)
    @pytest.mark.slow
    def test_every_m_to_m_cap(self):
        pairs = _window_ms(1)
        assert len(pairs) == 732
        for case, m in pairs:
            _check_window_certificate(case, m)


def _check_full_vectors(case, m):
    """An admissible verdict's full vectors: expand_scaled equals the
    oracle's term-by-term sums, and every entry is a nonnegative integer."""
    a, b = full_by_direct_sum(case, m)
    assert all(x.denominator == 1 and x >= 0 for x in a + b), (case.tag, m)
    a_hat, da, b_hat, db = expand_scaled(solver._gleason(case, m), case.params(m))
    assert a == [Fraction(x, da) for x in a_hat], (case.tag, m)
    assert b == [Fraction(x, db) for x in b_hat], (case.tag, m)
    assert admissible_at(case, m).ok, (case.tag, m)


LAST_ADMISSIBLE = [(C2, 154), (C4, 155), (C10, 159)]


class TestAdmissibleVerdictsByDirectSum:
    """admissible_at's verdict "admissible" against the full vectors summed
    term by term (oracles.full_by_direct_sum), with no Horner pass."""

    # about 2 s each on 2 cores with Python 3.11
    @pytest.mark.parametrize("case,m", LAST_ADMISSIBLE,
                             ids=lambda x: getattr(x, "tag", x))
    def test_last_admissible_m(self, case, m):
        _check_full_vectors(case, m)

    # slow: every tenth m of each family up to its last admissible m
    @pytest.mark.slow
    def test_stride_of_m(self):
        for case, last in LAST_ADMISSIBLE:
            for m in range(1, last + 1, 10):
                _check_full_vectors(case, m)


class TestBetaTailClosedForm:
    """The beta families' Gleason coefficients from _gleason's solve of the
    pinned shadow rows equal their closed form: oracles.beta_tail_gleason."""

    @pytest.mark.parametrize("case", [C6, C22], ids=lambda c: c.tag)
    def test_every_m_to_40(self, case):
        for m in range(case.min_m, 41):
            assert solver._gleason(case, m) == beta_tail_gleason(case, m), m

    # slow: every fifth m up to the beta edge, the first m whose beta range
    # is empty; _gleason takes about 0.1 s there
    @pytest.mark.slow
    @pytest.mark.parametrize("case,edge", [(C6, 158), (C22, 159)],
                             ids=["24m+6", "24m+22"])
    def test_stride_to_the_beta_edge(self, case, edge):
        for m in [*range(case.min_m, edge, 5), edge]:
            assert solver._gleason(case, m) == beta_tail_gleason(case, m), m


class TestBetaRowFromThePins:
    """The two facts that let _gleason write the beta row as y_h = beta,
    right-hand side (0, 1): the free shadow slot is K - h, just past the
    pins, and entry (h, K - h) of the inverse shadow block is the unit
    c_h / y_h = (-1)^h 2^(6h - n/2)."""

    @pytest.mark.parametrize("case", [C6, C22], ids=lambda c: c.tag)
    def test_free_slot_and_anti_diagonal_entry(self, case):
        for m in [*range(case.min_m, 61), *range(155, 160), 400]:
            fam, h = case.params(m), case.d(m) // 2
            k_top = fam.c_count - 1
            cs = minimal_shadow_constraints(case, m)
            assert first_free_slot(cs) == k_top - h == len(cs.pinned_b), m
            assert (gleason.shadow_inverse_entry(h, k_top - h, fam)
                    == (-1) ** h * Fraction(2) ** (6 * h - fam.half)), m


class TestExactGleasonEntries:
    """Every entry of _gleason, and both parts of a beta family's pair, is
    an int or a Fraction, never a float: the shadow tail holds ints where
    they are exact, and int / 3 in the coincidence slot of 24m+10 would
    be a float."""

    @staticmethod
    def _check(case, m):
        c = solver._gleason(case, m)
        parts = [x for v in c for x in (v if isinstance(v, tuple) else (v,))]
        assert all(type(x) in (int, Fraction) for x in parts), (case.tag, m)
        if case is C10:
            fam, h = case.params(m), case.d(m) // 2
            col = gleason.code_inverse_col0(fam, h)
            tail = gleason.shadow_inverse_col0(fam, h)[0]
            assert type(c[h]) is Fraction
            assert c[h] == col[h] + Fraction(tail - col[h], 3), m

    @pytest.mark.parametrize("case", [C2, C4, C6, C10, C22],
                             ids=lambda c: c.tag)
    def test_every_family_to_m12(self, case):
        for m in range(0 if case is C22 else 1, 13):
            self._check(case, m)

    @pytest.mark.parametrize("case", [C2, C4, C6, C10, C22],
                             ids=lambda c: c.tag)
    def test_enumerator_ints_where_integral(self, case):
        # both parts of every pair of solve: an int, or a Fraction that
        # is not one, never a float and never a Fraction over 1
        for m in range(case.min_m, 13):
            e = solve(case, m)
            for x in (x for pair in e.a + e.b for x in pair):
                assert type(x) is int or (
                    type(x) is Fraction and x.denominator > 1), (m, x)

    def test_coincidence_divisor_is_one_minus_s(self):
        # 24m+10 divides by 1 - S = 3 at slot d/2 = 2m+1, with S entry
        # (2m+1, m) of the inverse shadow block: on the anti-diagonal
        # (K = 3m+1), so the walk has length 1
        for m in range(1, 401):
            fam = C10.params(m)
            assert gleason.shadow_inverse_col0(fam, 2 * m + 1, j=m) == [-2], m

    @pytest.mark.parametrize("case,m", TestCertificateHint.SCAN_REJECT,
                             ids=lambda x: getattr(x, "tag", x))
    def test_scan_reject_m(self, case, m):
        self._check(case, m)


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
        with pytest.raises(ValueError):
            closed_form_a2m1(0)

    def test_a2m1_ingredients_at_m1(self):
        from minshadow.gleason import (FamilyParams, code_inverse_col0,
                                       shadow_inverse_entry)
        fam = FamilyParams.from_length(34)
        assert shadow_inverse_entry(3, 0, fam) == -16
        assert code_inverse_col0(fam)[3] == -34

    def test_a2m1_equals_bm(self):
        # oracle: a_{2m+1} from the inverse blocks, (shadow entry - code
        # column entry) / 3 at index 2m+1
        from minshadow.gleason import code_inverse_col0, shadow_inverse_entry
        for m in range(1, 41):
            fam, i = C10.params(m), 2 * m + 1
            via_blocks = (shadow_inverse_entry(i, 0, fam)
                          - code_inverse_col0(fam, i)[i]) / 3
            assert via_blocks == closed_form_a2m1(m) == closed_form_bm(C10, m)

    def test_beta_families_rejected(self):
        with pytest.raises(ValueError):
            closed_form_bm(C6, 1)
        with pytest.raises(ValueError):
            closed_form_bm1(C22, 1)


class TestAdmissibility:
    def test_free_parameters_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            admissible(solve(C6, 1))

    @pytest.mark.parametrize("case", [C2, C4, C10], ids=lambda c: c.tag)
    @pytest.mark.parametrize("m", range(1, 7))
    def test_scan_path_agrees_with_solve_path(self, case, m):
        oracle = enumerators_from_gleason(pinned_system_gleason(case, m),
                                          case.params(m))
        assert admissible_at(case, m) == admissible(solve(case, m)) \
            == admissible(oracle)

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

    # den = 3 * 2^7: an entry can fail through either factor alone
    CERTIFY_DEN = 3 << 7

    def test_certify_odd_part_of_the_denominator(self):
        # 5 * 2^7 passes the 2^7 mask, and 3 does not divide it
        den = self.CERTIFY_DEN
        values = [0, den, 5 * den, 5 << 7, -den]
        assert solver._certify([("a", [den, 0], den), ("b", values, den)]) \
            == Admissibility(False, "b", 3, Fraction(5, 3))

    def test_certify_two_adic_part_of_the_denominator(self):
        # 3 * 2^6 is a multiple of the odd part 3, and not of 2^7
        den = self.CERTIFY_DEN
        values = [0, den, 7 * den, 3 << 6, -den]
        assert solver._certify([("a", [den, 0], den), ("b", values, den)]) \
            == Admissibility(False, "b", 3, Fraction(1, 2))

    def test_certify_agrees_with_the_remainder(self):
        rng = random.Random(22)
        for den in (1, 2, 3, 5 << 40, self.CERTIFY_DEN, 45 << 920):
            for _ in range(200):
                v = rng.choice([den * rng.randrange(10 ** 6),
                                rng.randrange(10 ** 6) << rng.randrange(1000)])
                ok = solver._certify([("a", [v], den)]).ok
                assert ok == (v % den == 0), (den, v)

    def test_certify_fractions_over_one(self):
        # the oracle reads exact values, which may be Fractions
        values = [Fraction(2), Fraction(0), Fraction(7, 3), Fraction(-1)]

        def enum(a):
            return ParametricEnumerator(C2.params(1), tuple((x, 0) for x in a),
                                        ((1, 0),))

        assert admissible(enum(values)) \
            == Admissibility(False, "a", 2, Fraction(7, 3))
        assert admissible(enum(values[:2])).ok

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
        submitted = []

        class StubPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                submitted.extend(items)
                return map(fn, submitted)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
        # a platform without an affinity mask: the cap is cpu_count
        monkeypatch.delattr(solver.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(solver.os, "cpu_count", lambda: cpus)
        scan = nonexistence_scan(C4, m_max, jobs=jobs)
        assert ([(m, a.ok) for m, a in scan]
                == [(m, True) for m in range(1, m_max + 1)])
        assert started == ([] if workers is None else [workers])
        # largest m first into the pool, results back in m order
        assert submitted == ([] if workers is None
                             else list(range(m_max, 0, -1)))

    @pytest.mark.parametrize("jobs,mask,workers", [
        (1000, {0, 5, 7}, 3), (2, {0, 5, 7}, 2), (1000, {3}, None),
    ])
    def test_scan_workers_follow_affinity_mask(self, monkeypatch, jobs, mask,
                                               workers):
        # cpu_count counts CPUs the process may not run on; the affinity
        # mask caps the pool where the platform has one
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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
        monkeypatch.setattr(solver.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(solver.os, "sched_getaffinity", lambda pid: mask,
                            raising=False)
        scan = nonexistence_scan(C4, 10, jobs=jobs)
        assert [m for m, a in scan if a.ok] == list(range(1, 11))
        assert started == ([] if workers is None else [workers])

    @pytest.mark.parametrize("module", ["minshadow", "minshadow.cli"])
    def test_pool_module_imported_only_for_workers(self, module):
        # concurrent.futures costs each process about 2 MB, so only a scan
        # with more than one worker imports it
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, {module}; "
             "print('concurrent.futures' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestPlainIntOutputs:
    """expand_scaled and both Horner passes hand back lists of exact
    Python ints, never numpy objects: the JSON output and Fraction(v, den)
    rely on it."""

    NAMES = ("expand_scaled", "horner_code_side", "horner_shadow_side")

    def _run_checked(self, monkeypatch, run):
        # run() with the three kernels wrapped; returns their calls as
        # (name, positional arguments)
        calls = []

        def checked(fn):
            def call(*args):
                out = fn(*args)
                vectors = out[::2] if fn.__name__ == "expand_scaled" else [out]
                for v in vectors:
                    assert type(v) is list and all(type(x) is int for x in v)
                if fn.__name__ == "expand_scaled":
                    assert type(out) is tuple and all(type(x) is int for x in out[1::2])
                calls.append((fn.__name__, args))
                return out
            return call

        for name in self.NAMES:
            monkeypatch.setattr(gleason, name, checked(getattr(gleason, name)))
        monkeypatch.setattr(solver, "expand_scaled", gleason.expand_scaled)
        run()
        assert {name for name, _ in calls} == set(self.NAMES)
        return calls

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("tag", sorted(FAMILY_CASES))
    def test_solve(self, monkeypatch, tag, m):
        self._run_checked(monkeypatch, lambda: solve(FAMILY_CASES[tag], m))

    @pytest.mark.parametrize("m,tops", [(154, [None]), (155, [2 * 155 + 4])])
    def test_full_path_and_window(self, monkeypatch, m, tops):
        # (24m+2, 154) is admissible and expands in full; 155 is rejected
        # on its window, the code side to degree 2m+4
        calls = self._run_checked(monkeypatch, lambda: admissible_at(C2, m))
        assert [args[2] for name, args in calls if name == "expand_scaled"] == tops


def test_solve_verification_survives_optimize_flag():
    # under python -O asserts vanish; a perturbed expansion must still be
    # caught by solve's own pin check
    proc = run_optimized("""
        import dataclasses
        from minshadow import solver
        from minshadow.exact import VerificationFailure
        expand = solver.enumerators_from_gleason
        def perturbed(c, fam):
            enum = expand(c, fam)
            (p, q) = enum.a[1]
            return dataclasses.replace(enum, a=(enum.a[0], (p + 1, q)) + enum.a[2:])
        solver.enumerators_from_gleason = perturbed
        try:
            solver.solve(solver.family_case("24m+2"), 1)
        except VerificationFailure as exc:
            print("raised:", exc)
        else:
            sys.exit("solve accepted a perturbed enumerator")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "raised: 24m+2, m=1: a[1] = 1, expected 0" in proc.stdout


def _optimized_run(patch: str, call: str) -> subprocess.CompletedProcess:
    """Run patch, then call, under python -O; it prints "raised: <message>"
    on VerificationFailure and exits 1 if call returns."""
    return run_optimized(textwrap.dedent("""
        from minshadow import solver
        from minshadow.exact import VerificationFailure
    """) + textwrap.dedent(patch) + textwrap.dedent("""
        try:
            %s
        except VerificationFailure as exc:
            print("raised:", exc)
        else:
            sys.exit("accepted a perturbed input")
    """) % call)


def _perturbed_column_run(call: str, entry: int = 1) -> subprocess.CompletedProcess:
    """_optimized_run of call with the given entry of
    solver.code_inverse_col0 off by one."""
    return _optimized_run("""
        column = solver.code_inverse_col0
        def perturbed(fam, top=None):
            col = column(fam, top)
            col[%d] += 1
            return col
        solver.code_inverse_col0 = perturbed
    """ % entry, call)


def test_admissible_at_verification_survives_optimize_flag():
    # a wrong closed form must not pass as "admissible": admissible_at
    # runs solve's pin check on its forced coefficients, also under -O
    proc = _perturbed_column_run(
        'solver.admissible_at(solver.family_case("24m+10"), 3)')
    assert proc.returncode == 0, proc.stderr
    assert "raised: 24m+10, m=3: a[1] = 1, expected 0" in proc.stdout


def test_admissible_at_window_verification_survives_optimize_flag():
    # at (24m+2, 155) the hint runs the window first; its pin check
    # catches the wrong column under -O as the full expansion's does
    proc = _perturbed_column_run(
        'solver.admissible_at(solver.family_case("24m+2"), 155)')
    assert proc.returncode == 0, proc.stderr
    assert "raised: 24m+2, m=155: a[1] = 1, expected 0" in proc.stdout


def test_window_tail_verification_survives_optimize_flag():
    # entry 2m is the last pinned code index; off by one, the code
    # window's tail sees a difference that is nonzero from index 2m, not
    # only past the pins, and its pin check still reads a[2m] under -O
    proc = _perturbed_column_run(
        'solver.admissible_at(solver.family_case("24m+2"), 155)', 2 * 155)
    assert proc.returncode == 0, proc.stderr
    assert "raised: 24m+2, m=155: a[310] = 1, expected 0" in proc.stdout


def _perturbed_shadow_entry_run(call: str, i: int) -> subprocess.CompletedProcess:
    """_optimized_run of call with entry (i, 0) of
    solver.shadow_inverse_col0 off by one."""
    return _optimized_run("""
        column = solver.shadow_inverse_col0
        def perturbed(fam, start):
            col = column(fam, start)
            col[%d - start] += 1
            return col
        solver.shadow_inverse_col0 = perturbed
    """ % i, call)


@pytest.mark.parametrize("tag,m,i,label", [
    # c_K is the only coefficient that reaches b_0
    ("24m+2", 155, 3 * 155, "b[0]"),
    # c_(d/2) sets a[d/2] and, through the coincidence, meets b_m
    ("24m+10", 160, 2 * 160 + 1, "a[321]"),
], ids=["b0", "coincidence"])
def test_shadow_window_verification_survives_optimize_flag(tag, m, i, label):
    # the window path expands the shadow side only to its last pinned
    # index, and that prefix still meets every shadow pin under -O
    proc = _perturbed_shadow_entry_run(
        f'solver.admissible_at(solver.family_case("{tag}"), {m})', i)
    assert proc.returncode == 0, proc.stderr
    assert f"raised: {tag}, m={m}: {label} = " in proc.stdout


def test_solve_checks_its_code_column_under_optimize_flag():
    # solve takes c_0..c_{d/2-1} from code_inverse_col0 for the beta
    # families too, and its pin check catches a wrong column under -O
    proc = _perturbed_column_run('solver.solve(solver.family_case("24m+22"), 2)')
    assert proc.returncode == 0, proc.stderr
    assert "raised: 24m+22, m=2: a[1] = 1, expected 0" in proc.stdout


@pytest.mark.parametrize("tag,label", [("24m+6", "b[3]"), ("24m+22", "b[4]")])
def test_beta_rows_verification_survives_optimize_flag(tag, label):
    # _gleason builds the beta families' pinned shadow rows itself, in
    # y_j = (-1)^j 2^(n/2-6j) c_j; with the last pinned row's entry at c_K
    # off by one its lead unknown absorbs y_K = 1, and the pin check of
    # solve reads that row's b as -1 under -O
    proc = _optimized_run("""
        solve_rows = solver.parametric_linear_solve
        def perturbed(rows, rhs):
            rows[-2][-1] += 1      # rows[-1] is the beta row
            return solve_rows(rows, rhs)
        solver.parametric_linear_solve = perturbed
    """, f'solver.solve(solver.family_case("{tag}"), 5)')
    assert proc.returncode == 0, proc.stderr
    assert f"raised: {tag}, m=5: {label} = -1, expected 0" in proc.stdout


class TestFamilyLookup:
    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            family_case("24m+8")

    def test_beta_family_for_length(self):
        assert beta_family_for_length(30)[0].tag == "24m+6"
        assert beta_family_for_length(46) == (C22, 1)
        with pytest.raises(ValueError):
            beta_family_for_length(26)

    @staticmethod
    def _by_residue(n):
        # the residue form the lookup was first written in
        for case in (C6, C22):
            base = 8 * case.l + 2 * case.r
            if (n - base) % 24 == 0 and (n - base) // 24 >= case.min_m:
                return case, (n - base) // 24
        raise ValueError(f"length {n} is not in a parametrized family")

    def test_against_the_residues(self):
        for n in range(2, 2001, 2):
            try:
                want = self._by_residue(n)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    beta_family_for_length(n)
                assert str(got.value) == str(exc), n
            else:
                assert beta_family_for_length(n) == want, n

    def test_registry_targets(self):
        assert FAMILY_CASES["24m+2"].d(1) == 6
        assert FAMILY_CASES["24m+22"].d(1) == 8
        assert FAMILY_CASES["24m+22"].n(1) == 46
