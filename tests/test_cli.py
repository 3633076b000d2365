"""CLI behavior: output contracts, determinism, exit codes."""

import json
from fractions import Fraction

import pytest

from minshadow import solver
from minshadow.cli import main
from minshadow.gf2 import format_generator_file, reference_code_46
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

    def test_print_cap(self, capsys):
        code, _, err = run(capsys, "tables", "--family", "24m+2", "--m", "30")
        assert code == 2
        assert "print cap" in err


class TestBoundsCommand:
    def test_n22(self, capsys):
        doc = run_json(capsys, "bounds", "--n", "22")
        assert doc["rains_bound"] == "6"
        assert doc["minimal_shadow_weight"] == "3"


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


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "solve", "--family", "24m+22", "--m", "1")
        _, out2, _ = run(capsys, "solve", "--family", "24m+22", "--m", "1")
        assert out1 == out2
