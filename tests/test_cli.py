"""CLI behavior: output contracts, determinism, exit codes."""

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minshadow
from minshadow import cli, gleason, solver
from minshadow.cli import main
from minshadow.gf2 import LENGTH_CAP, format_generator_file, reference_code_46
from minshadow.solver import Admissibility


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestSolveCommand:
    def test_parametrized_output(self, capsys):
        doc = run_json(capsys, "solve", "--family", "24m+6", "--m", "1")
        coeffs = dict(tuple(pair) for pair in doc["code_coefficients"])
        assert coeffs["6"] == "35 - 8*beta"
        assert doc["free_parameters"] == ["beta"]

    def test_unique_family_output(self, capsys):
        doc = run_json(capsys, "solve", "--family", "24m+2", "--m", "1")
        shadow = dict(tuple(pair) for pair in doc["shadow_coefficients"])
        assert shadow["5"] == "20"
        assert doc["free_parameters"] == []

    def test_n22_display(self, capsys):
        doc = run_json(capsys, "solve", "--family", "24m+22", "--m", "0")
        coeffs = dict(tuple(pair) for pair in doc["code_coefficients"])
        assert coeffs["4"] == "2*beta"
        assert coeffs["6"] == "77 - 2*beta"

    def test_beta_substitution(self, capsys):
        doc = run_json(capsys, "solve", "--family", "24m+6", "--m", "1",
                       "--beta", "2")
        coeffs = dict(tuple(pair) for pair in doc["code_coefficients"])
        assert coeffs["6"] == "19"
        assert doc["beta_in_range"] is True

    def test_beta_on_unique_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--family", "24m+2", "--m", "1", "--beta", "3"])
        assert exc.value.code == 2

    def test_out_of_range_beta_warns_but_prints(self, capsys):
        doc = run_json(capsys, "solve", "--family", "24m+6", "--m", "1",
                       "--beta", "9")
        assert doc["beta_in_range"] is False
        assert "warning" in doc
        coeffs = dict(tuple(pair) for pair in doc["code_coefficients"])
        assert coeffs["6"] == "-37"

    def test_text_mode_series(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "24m+6", "--m", "1",
                           "--format", "text")
        assert code == 0
        assert "W_C = 1 + (35 - 8*beta) y^6 + (345 + 24*beta) y^8" in out
        assert "W_S = beta y^3 + (240 - 6*beta) y^7" in out

    def test_affine_text_forms(self):
        # (p, q) prints as p + q*beta, and as str(p) alone when q = 0
        assert cli.affine_text((35, -8)) == "35 - 8*beta"
        assert cli.affine_text((0, 2)) == "2*beta"
        assert cli.affine_text((-12, 1)) == "-12 + beta"
        assert cli.affine_text((0, 0)) == "0"
        assert cli.affine_text((Fraction(-9, 128), 0)) == "-9/128"


class TestScanCommand:
    def test_small_scan(self, capsys):
        doc = run_json(capsys, "scan", "--family", "24m+4", "--m-max", "3")
        assert doc["max_admissible"] == "3"
        assert doc["results"] == [{"m": str(m), "admissible": True}
                                  for m in (1, 2, 3)]

    def test_beta_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--family", "24m+6", "--m-max", "3"])
        assert exc.value.code == 2

    def test_deterministic_across_jobs(self, capsys):
        _, out1, _ = run(capsys, "scan", "--family", "24m+2", "--m-max", "3")
        _, out2, _ = run(capsys, "scan", "--family", "24m+2", "--m-max", "3",
                         "--jobs", "2")
        assert out1 == out2

    # a code-side failure (weight 2i) and a shadow-side one (weight 4i + r)
    @pytest.mark.parametrize("family,cert,row,line", [
        ("24m+4", Admissibility(False, "a", 9, Fraction(-12)),
         {"side": "a", "index": "9", "weight": "18", "value": "-12",
          "reason": "negative"},
         "24m+4: m=2 not admissible (a[9] at weight 18, negative)"),
        ("24m+10", Admissibility(False, "b", 5, Fraction(7, 2)),
         {"side": "b", "index": "5", "weight": "21", "value": "7/2",
          "reason": "non-integer"},
         "24m+10: m=2 not admissible (b[5] at weight 21, non-integer)"),
    ])
    def test_inadmissible_rows_carry_certificate(self, capsys, monkeypatch,
                                                 family, cert, row, line):
        real = solver.admissible_at
        monkeypatch.setattr(solver, "admissible_at",
                            lambda case, m: cert if m == 2 else real(case, m))
        argv = ("scan", "--family", family, "--m-max", "3", "--jobs", "1")
        doc = run_json(capsys, *argv)
        assert doc["results"] == [
            {"m": "1", "admissible": True},
            {"m": "2", "admissible": False, "certificate": row},
            {"m": "3", "admissible": True},
        ]
        assert doc["max_admissible"] == "3"
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 0
        assert out.splitlines() == [f"{family}: m=1 admissible", line,
                                    f"{family}: m=3 admissible",
                                    "max admissible m = 3"]


class TestBetaRangeCommand:
    def test_n30(self, capsys):
        doc = run_json(capsys, "beta-range", "--family", "24m+6", "--m", "1")
        assert (doc["beta_min"], doc["beta_max"]) == ("1", "4")

    def test_n70(self, capsys):
        doc = run_json(capsys, "beta-range", "--family", "24m+22", "--m", "2")
        assert (doc["beta_min"], doc["beta_max"]) == ("104", "4841")

    def test_empty_interval_exits_2(self, capsys):
        # m = 159 is the first 24m+22 with no admissible beta
        code, out, err = run(capsys, "beta-range", "--family", "24m+22", "--m", "159")
        assert (code, out) == (2, "")
        assert err.startswith("error: empty beta interval for 24m+22, m=159: ")


SRC = Path(minshadow.__file__).resolve().parents[1]

# a wrong entry in column 1 of the code inverse, and row 0 of the shadow
# inverse as if b were not palindromic (2^(1-n/2) at j = K too)
PERTURBED_CLOSED_FORMS = {
    "code_column_1": """
        column = gleason.code_inverse_col0
        def perturbed(fam, top=None, j=0):
            col = column(fam, top, j)
            if j == 1:
                col[2] += 1
            return col
        gleason.code_inverse_col0 = perturbed
    """,
    "shadow_row_0": """
        row0 = gleason._shadow_inverse_row0
        def perturbed(fam, j):
            return row0(fam, 0)
        gleason._shadow_inverse_row0 = perturbed
    """,
}


def _perturbed_tables_run(perturbation: str,
                          optimize: bool) -> subprocess.CompletedProcess:
    """Run `tables --family 24m+2 --m 1` in a fresh interpreter, under
    python -O if optimize, after the perturbation."""
    script = textwrap.dedent("""
        import sys
        from minshadow import cli, gleason
        if sys.flags.optimize != %d:
            sys.exit("unexpected optimize flag")
    """) % optimize + textwrap.dedent(perturbation) + textwrap.dedent("""
        sys.exit(cli.main(["tables", "--family", "24m+2", "--m", "1"]))
    """)
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)


class TestTablesCommand:
    def test_n26(self, capsys):
        doc = run_json(capsys, "tables", "--family", "24m+2", "--m", "1")
        assert doc["code_inverse"][1][0] == "-13"
        assert doc["shadow_inverse"][3][0] == "-32"
        assert doc["closed_form_code_inverse_col0_ok"] is True
        assert doc["closed_form_shadow_inverse_ok"] is True

    def test_degenerate_length_two(self, capsys):
        doc = run_json(capsys, "tables", "--family", "24m+2", "--m", "0")
        assert doc["code_basis"] == [["1"]]
        assert doc["shadow_inverse"] == [["1/2"]]

    def test_at_the_print_cap(self, capsys):
        # K + 1 = 64: the whole build and its identity check run
        doc = run_json(capsys, "tables", "--family", "24m+2", "--m", "21")
        assert doc["c_count"] == "64"
        assert doc["closed_form_code_inverse_col0_ok"] is True
        assert doc["closed_form_shadow_inverse_ok"] is True

    @pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
    @pytest.mark.parametrize("perturbation", sorted(PERTURBED_CLOSED_FORMS))
    def test_identity_check_catches_a_wrong_closed_form(self, perturbation,
                                                        optimize):
        # basis x inverse = I is checked in the library, not by assert
        proc = _perturbed_tables_run(PERTURBED_CLOSED_FORMS[perturbation],
                                     optimize)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert "closed forms disagree" in proc.stderr

    def test_print_cap(self, capsys):
        code, _, err = run(capsys, "tables", "--family", "24m+2", "--m", "30")
        assert code == 2
        assert "print cap" in err

    @pytest.mark.parametrize("kernel", ["horner_code_side", "horner_shadow_side"])
    def test_closed_forms_check_the_expansion_kernel(self, capsys, monkeypatch,
                                                     kernel):
        # the blocks come from the scans' own kernel, so a fault in it
        # shows as a closed-form mismatch
        real = getattr(gleason, kernel)

        def perturbed(*args):
            x = real(*args)
            x[1] += 1
            return x

        monkeypatch.setattr(gleason, kernel, perturbed)
        code, _, err = run(capsys, "tables", "--family", "24m+2", "--m", "1")
        assert code == 1
        assert "closed forms disagree" in err


def _reads_back(s, want):
    """s is the exact value want, and the one string str gives for it."""
    assert isinstance(s, str)
    assert Fraction(s) == want and str(Fraction(s)) == s, (s, want)


class TestNumbersReadBack:
    """The JSON prints every number as a decimal or "p/q" string, nothing
    truncated: Fraction reads each back to the library's exact value, and
    str of that value gives the same string."""

    @staticmethod
    def _check_enumerator(doc, enum):
        fam = enum.fam
        _reads_back(doc["n"], fam.n)
        _reads_back(doc["m"], fam.m)
        for key in ("m", "l", "r"):
            _reads_back(doc["family"][key], getattr(fam, key))
        for pairs, forms, weight in (
                (doc["code_coefficients"], enum.a, lambda i: 2 * i),
                (doc["shadow_coefficients"], enum.b, fam.shadow_exponent)):
            assert len(pairs) == len(forms)
            for i, ((w, v), (p, q)) in enumerate(zip(pairs, forms)):
                _reads_back(w, weight(i))
                assert q == 0
                _reads_back(v, p)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("tag", solver.UNIQUE_FAMILIES)
    def test_solve_unique_families(self, capsys, tag, m):
        doc = run_json(capsys, "solve", "--family", tag, "--m", str(m))
        self._check_enumerator(doc, solver.solve(solver.family_case(tag), m))

    @pytest.mark.parametrize("end", [0, 1], ids=["beta_min", "beta_max"])
    @pytest.mark.parametrize("n", [22, 30, 46, 54, 70])
    def test_solve_at_the_beta_range_ends(self, capsys, n, end):
        case, m = solver.beta_family_for_length(n)
        beta = solver.beta_range(case, m)[end]
        doc = run_json(capsys, "solve", "--family", case.tag, "--m", str(m),
                       "--beta", str(beta))
        _reads_back(doc["beta"], beta)
        assert doc["free_parameters"] == []
        self._check_enumerator(
            doc, solver.solve(case, m).substitute(beta))

    @pytest.mark.parametrize("tag,m", [(tag, m)
                                       for tag, case in solver.FAMILY_CASES.items()
                                       for m in range(case.min_m, 3)])
    def test_tables(self, capsys, tag, m):
        doc = run_json(capsys, "tables", "--family", tag, "--m", str(m))
        case = solver.family_case(tag)
        fam = case.params(m)
        _reads_back(doc["m"], m)
        _reads_back(doc["n"], fam.n)
        _reads_back(doc["c_count"], fam.c_count)
        tables = gleason.build_transform_tables(fam)
        for name in ("code_basis", "code_inverse", "shadow_basis",
                     "shadow_inverse"):
            want = getattr(tables, name)
            assert len(doc[name]) == len(want)
            for row, want_row in zip(doc[name], want):
                assert len(row) == len(want_row)
                for s, x in zip(row, want_row):
                    _reads_back(s, x)


class TestBoundsCommand:
    def test_n22(self, capsys):
        doc = run_json(capsys, "bounds", "--n", "22")
        assert doc["rains_bound"] == "6"
        assert doc["minimal_shadow_weight"] == "3"

    def test_odd_length_exits_2(self, capsys):
        # the one length check, FamilyParams.from_length, words the error
        assert run(capsys, "bounds", "--n", "3") == (
            2, "", "error: length must be a positive even integer, got 3\n")


class TestCodeCommands:
    @pytest.fixture()
    def gen_file(self, tmp_path):
        path = tmp_path / "c46.txt"
        path.write_text(format_generator_file(reference_code_46()))
        return str(path)

    def test_c46_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "out.txt"
        doc = run_json(capsys, "code", "c46", "--out", str(out_path))
        assert (doc["n"], doc["k"], doc["d"]) == ("46", "23", "8")
        assert out_path.read_text().splitlines()[0] == "46 23"

    def test_verify(self, capsys, gen_file):
        doc = run_json(capsys, "code", "verify", "--gen-file", gen_file)
        assert (doc["n"], doc["k"], doc["d"]) == ("46", "23", "8")
        assert doc["self_dual"] is True
        assert doc["parity_class"] == "singly even"

    def test_shadow(self, capsys, gen_file):
        doc = run_json(capsys, "code", "shadow", "--gen-file", gen_file)
        assert doc["shadow_min_weight"] == "7"
        assert doc["minimal_shadow"] is False

    def test_neighbor(self, capsys, gen_file, tmp_path):
        out_path = tmp_path / "n1.txt"
        doc = run_json(capsys, "code", "neighbor", "--gen-file", gen_file,
                       "--support", "1,27,28,31,33,35,36,37,42,43,45,46",
                       "--out", str(out_path))
        assert doc["beta"] == "42"
        assert doc["minimal_shadow"] is True
        assert out_path.exists()

    @staticmethod
    def _assert_cannot_write(capsys, tmp_path, *argv):
        target = tmp_path / "no_such_dir" / "x.txt"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 2
        assert out == ""
        assert f"error: cannot write {target}" in err

    def test_c46_unwritable_out_exit_2(self, capsys, tmp_path):
        self._assert_cannot_write(capsys, tmp_path, "code", "c46")

    def test_neighbor_unwritable_out_exit_2(self, capsys, gen_file, tmp_path):
        self._assert_cannot_write(capsys, tmp_path, "code", "neighbor",
                                  "--gen-file", gen_file, "--support",
                                  "1,27,28,31,33,35,36,37,42,43,45,46")

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1100\n0x11\n")
        code, _, err = run(capsys, "code", "verify", "--gen-file", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "code", "verify", "--gen-file", "/no/such")
        assert code == 2

    def test_missing_support_is_usage_error(self, capsys, gen_file):
        with pytest.raises(SystemExit) as exc:
            main(["code", "neighbor", "--gen-file", gen_file])
        assert exc.value.code == 2

    def test_neighbor_of_non_self_dual_exit_2(self, capsys, tmp_path):
        path = tmp_path / "half.txt"
        path.write_text("1100\n")
        code, out, err = run(capsys, "code", "neighbor", "--gen-file", str(path),
                             "--support", "2,3")
        assert code == 2
        assert out == ""
        assert "self-dual" in err

    def test_verification_failure_exit_1(self, capsys, tmp_path):
        # a singly even self-dual [22,11] code whose shadow is not minimal
        # still parses; neighbor construction then fails beta extraction
        # against the minimal-shadow family, exiting 1
        rows = "\n".join("".join("1" if j in (2 * i, 2 * i + 1) else "0"
                                 for j in range(22)) for i in range(11))
        path = tmp_path / "pairs22.txt"
        path.write_text(rows + "\n")
        code, _, err = run(capsys, "code", "neighbor", "--gen-file", str(path),
                           "--support", "1,3")
        assert code == 1
        assert "verification failure" in err

    def test_neighbor_length_in_no_beta_family_exit_2(self, capsys, tmp_path):
        # a self-dual code of length 4, whose neighbor has no beta family
        path = tmp_path / "pair4.txt"
        path.write_text("1100\n0011\n")
        code, out, err = run(capsys, "code", "neighbor", "--gen-file", str(path),
                             "--support", "1,3")
        assert code == 2
        assert out == ""
        assert "not in a parametrized family" in err


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("solve", "--family", "24m+2", "--m", "0"),
        ("beta-range", "--family", "24m+6", "--m", "0"),
        ("bounds", "--n", "7"),
    ], ids=["solve-m0", "beta-range-m0", "bounds-odd"])
    def test_domain_errors_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_failed_neighbor_table_exits_1(self, capsys, monkeypatch):
        from minshadow import gf2
        supp, beta = gf2.NEIGHBOR_TABLE[1]
        monkeypatch.setattr(gf2, "NEIGHBOR_TABLE", ((supp, beta + 1),))
        code, out, err = run(capsys, "code", "table1")
        assert code == 1
        assert "verification failure: neighbor 1 failed verification" in err

    def test_closed_stdout_exits_141(self):
        # the reader takes the first line of about 200 KB of JSON and
        # closes the pipe: no traceback, and neither 1 (a verification
        # failure) nor 2 (a usage error)
        proc = subprocess.Popen(
            [sys.executable, "-m", "minshadow.cli", "solve", "--family",
             "24m+22", "--m", "60"], env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")


class TestInputCaps:
    # every cap is probed by parsing or by a tiny input; nothing above a
    # cap is ever run
    @pytest.mark.parametrize("argv", [
        ("solve", "--family", "24m+2", "--m"),
        ("solve", "--family", "24m+22", "--beta", "3", "--m"),
        ("beta-range", "--family", "24m+6", "--m"),
        ("scan", "--family", "24m+4", "--m-max"),
    ], ids=["solve", "solve-beta", "beta-range", "scan"])
    def test_m_cap_is_a_parse_error(self, capsys, monkeypatch, argv):
        class Reached(Exception):
            pass

        def stub(*args, **kwargs):
            raise Reached

        for name in ("solve", "beta_range", "nonexistence_scan"):
            monkeypatch.setattr(cli, name, stub)    # the work is stubbed out
        assert cli.M_CAP == 400
        with pytest.raises(SystemExit) as exc:
            main([*argv, "401"])
        assert exc.value.code == 2
        assert "--m and --m-max must be <= 400" in capsys.readouterr().err
        with pytest.raises(Reached):
            main([*argv, "400"])

    def test_print_cap_is_not_an_option(self, capsys):
        assert cli.PRINT_CAP == 64
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--family", "24m+2", "--m", "30",
                  "--print-cap", "1000"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --print-cap" in capsys.readouterr().err

    def test_tables_at_the_print_cap_boundary(self, capsys, monkeypatch):
        # K + 1 = 64 reaches the (stubbed) table build, 65 does not
        class Built(Exception):
            pass

        def stub(fam):
            raise Built(fam.c_count)

        monkeypatch.setattr(cli, "build_transform_tables", stub)
        with pytest.raises(Built, match="64"):
            main(["tables", "--family", "24m+2", "--m", "21"])
        code, _, err = run(capsys, "tables", "--family", "24m+10", "--m", "21")
        assert code == 2
        assert "c_count 65 exceeds the print cap 64" in err

    def test_enumeration_length_cap_exit_2(self, capsys, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("1" * (LENGTH_CAP + 1) + "\n")
        code, out, err = run(capsys, "code", "verify", "--gen-file", str(path))
        assert code == 2
        assert out == ""
        assert f"length {LENGTH_CAP + 1} exceeds the enumeration cap" in err

    @pytest.mark.parametrize("text, message", [
        ("1" * 200_000 + "\n", "length 200000 exceeds the enumeration cap"),
        ("11\n" * (LENGTH_CAP + 1),
         f"row count {LENGTH_CAP + 1} exceeds the enumeration cap"),
    ], ids=["wide-row", "too-many-rows"])
    def test_generator_file_caps_before_any_code(self, capsys, monkeypatch,
                                                 tmp_path, text, message):
        from minshadow import gf2

        def unreachable(*args):
            raise AssertionError("BinaryCode built from an over-cap file")

        monkeypatch.setattr(gf2, "BinaryCode", unreachable)
        path = tmp_path / "big.txt"
        path.write_text(text)
        code, out, err = run(capsys, "code", "verify", "--gen-file", str(path))
        assert code == 2
        assert out == ""
        assert message in err


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "solve", "--family", "24m+22", "--m", "1")
        _, out2, _ = run(capsys, "solve", "--family", "24m+22", "--m", "1")
        assert out1 == out2

    def test_shared_parser_matches_fresh_interpreters(self, capsys):
        # main builds its parser once per process; a usage error (argparse
        # exits 2), a domain error and a change of --format in between
        # leave the later calls as a fresh interpreter runs them
        sequence = [
            ["solve", "--family", "24m+2", "--m", "1"],
            ["solve", "--family", "24m+2", "--m", "401"],
            ["bounds", "--n", "46", "--format", "text"],
            ["bounds", "--n", "7"],
            ["beta-range", "--family", "24m+6", "--m", "1"],
        ]
        assert cli.build_parser() is cli.build_parser()
        in_process = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            in_process.append((code, out.out, out.err))
        assert [got[0] for got in in_process] == [0, 2, 0, 2, 0]
        for argv, got in zip(sequence, in_process):
            proc = subprocess.run([sys.executable, "-m", "minshadow.cli", *argv],
                                  env={**os.environ, "PYTHONPATH": str(SRC)},
                                  capture_output=True, text=True, timeout=120)
            assert got == (proc.returncode, proc.stdout, proc.stderr), argv


# JSON documents of every shape json.dumps takes: strings with escapes and
# non-ASCII text, lists of strings and of [str, str] pairs (the shapes that
# _json_text lays out without a call per entry), near misses of those
# (pairs of three, a pair holding a non-string), empty containers, None,
# bools, numbers, tuples, and dicts with non-string keys
_TEXT = st.text(alphabet=st.characters() | st.sampled_from('"\\\n\t/\x00\x7f'),
                max_size=8)
_LEAF = (st.none() | st.booleans() | st.integers() | _TEXT
         | st.floats(allow_nan=True, allow_infinity=True))
_SHAPES = (st.lists(_TEXT, max_size=4)
           | st.lists(st.lists(_TEXT, min_size=2, max_size=2), max_size=4)
           | st.lists(st.lists(_TEXT, min_size=1, max_size=3), max_size=4)
           | st.lists(st.tuples(_TEXT, _TEXT).map(list) | st.tuples(_TEXT, _LEAF).map(list),
                      max_size=4))
_DOCS = st.recursive(
    _LEAF | _SHAPES,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(_TEXT, inner, max_size=4)
                   | st.dictionaries(st.integers(-3, 3) | st.booleans(), inner, max_size=3)),
    max_leaves=12)


class TestJsonText:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_DOCS)
    def test_matches_json_dumps(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)

    def test_command_documents(self, capsys):
        for argv in (["solve", "--family", "24m+22", "--m", "1"],
                     ["tables", "--family", "24m+2", "--m", "1"],
                     ["scan", "--family", "24m+4", "--m-max", "3"],
                     ["bounds", "--n", "46"]):
            doc = run_json(capsys, *argv)
            assert cli._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)
