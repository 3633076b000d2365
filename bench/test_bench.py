"""Tests of the benchmark itself.

    python3 -m pytest bench -q

They run every workload on tiny inputs, check that tracing puts the
library back as it found it and that self times add up, and check that a
wrong expectation is counted as a failure and fails the command.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workload  # noqa: E402
from spans import Tracer  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(*argv):
    proc = subprocess.run(RUN + list(argv), cwd=HERE.parent, capture_output=True,
                          text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines) -> dict:
    return json.loads(lines[-1])


def test_tiny_run_of_every_workload():
    proc, lines = run_bench("--tiny", "--seconds", "0", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    result = result_of(lines)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 + 3 + 10
    listed = BENCHMARK["end_to_end"]
    assert len(result["metrics"]) == len(workload.WORKLOADS) * len(listed)
    for name in workload.WORKLOADS:
        for metric in listed:
            got = result["metrics"][f"{name}.{metric['name']}"]
            assert got["unit"] == metric["unit"] and got["value"] > 0
    assert sum("fail_ratio" in line for line in lines) == 3


def test_tiny_traced_scan_reports_every_layer():
    proc, lines = run_bench("--tiny", "--seconds", "0", "--trace", "1",
                            "--workload", "scan-reject")
    assert proc.returncode == 0, proc.stderr
    metrics = result_of(lines)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert metrics["solver.admissible_at.calls"]["value"] == 3
    assert metrics["gleason.horner_code_side.calls"]["value"] == 3
    assert metrics["exact.parametric_linear_solve.calls"]["value"] == 0
    # each window m is rejected at a[2m+4], about 1/6 of the way in
    assert 0.15 < metrics["solver.admissible_at.decisive_fraction"]["value"] < 0.2
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_decisive_fraction_from_certificates():
    class Certificate(NamedTuple):
        ok: bool
        side: str | None
        index: int | None

    ops = [{"key": "24m+2/155", "family": "24m+2", "m": 155},
           {"key": "24m+2/154", "family": "24m+2", "m": 154},
           {"key": "24m+2/156", "family": "24m+2", "m": 156}]
    results = [(Certificate(False, "a", 314), None),   # 315 of 1862
               (Certificate(True, None, None), None),
               (None, "24m+2/156: raised ValueError")]
    want = (315 / 1862 + 1.0) / 2
    assert abs(workload.decisive_fraction(ops, results) - want) < 1e-12
    assert workload.decisive_fraction([{"key": "bounds 46"}],
                                      [((0, "{}", ""), None)]) == 0.0


def test_tracer_restores_and_self_times_add_up():
    from minshadow import cli, exact, gleason, solver

    modules = [sys.modules[k] for k in sorted(sys.modules)
               if k == "minshadow" or k.startswith("minshadow.")]
    before = [dict(vars(mod)) for mod in modules]
    original = exact.parametric_linear_solve
    with Tracer(workload.TARGETS) as tracer:
        # names imported by value are wrapped too
        assert solver.parametric_linear_solve is exact.parametric_linear_solve
        assert solver.parametric_linear_solve is not original
        assert cli.solve is solver.solve
        workload.call_cli({"argv": ["solve", "--family", "24m+22", "--m", "2",
                                    "--beta", "200"]})
    for mod, saved in zip(modules, before):
        assert vars(mod) == saved, mod.__name__
    assert exact.parametric_linear_solve is original
    assert not hasattr(gleason.horner_code_side, "__wrapped__")

    stats = tracer.summary()
    assert stats["cli.main"]["calls"] == 1
    assert stats["solver.solve"]["calls"] == 2       # solve and beta_range
    assert stats["exact.parametric_linear_solve"]["calls"] == 2
    root = stats["cli.main"]["total_s"]
    assert abs(sum(s["self_s"] for s in stats.values()) - root) < 1e-9 * max(1, root)
    assert all(s["self_s"] >= 0 for s in stats.values())


def test_checks_compare_named_fields_and_ignore_extra_keys():
    class Certificate(NamedTuple):
        ok: bool
        side: str | None
        index: int | None
        value: object
        weight: int | None     # a field the program may add later

    op = {"key": "24m+2/155",
          "want": {"ok": False, "side": "a", "index": 314, "value": "-3/2"}}
    assert workload.check_scan(op, Certificate(False, "a", 314, -1.5, 628)) == []
    assert workload.check_scan(op, Certificate(False, "a", 313, -1.5, 626))

    op = workload.bounds_op(46, {})
    doc = {"n": "46", "rains_bound": "10", "minimal_shadow_weight": "3",
           "family": {"m": "1", "l": "2", "r": "3"}, "timings": {"total": 1}}
    assert workload.check_cli(op, (0, json.dumps(doc), "")) == []
    doc["family"]["l"] = "1"
    assert workload.check_cli(op, (0, json.dumps(doc), ""))
    assert workload.check_cli(op, (2, "", "usage"))


def checkout_copy(tmp_path, with_program=True) -> Path:
    """A copy of the benchmark in a fresh directory, beside the program's
    ``src`` when ``with_program``; returns the directory."""
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    if with_program:
        (tmp_path / "src").symlink_to(HERE.parent / "src")
    return tmp_path


def run_corrupted(tmp_path, edit, *argv):
    """Run a copy of the benchmark whose expected.json ``edit`` changed."""
    root = checkout_copy(tmp_path)
    path = root / "bench" / "expected.json"
    expected = json.loads(path.read_text())
    edit(expected)
    path.write_text(json.dumps(expected))
    proc = subprocess.run([sys.executable, "bench/run.py", *argv], cwd=root,
                          capture_output=True, text=True, timeout=300)
    return proc, proc.stdout.strip().splitlines()


def test_wrong_certificate_fails_the_command(tmp_path):
    def edit(expected):
        expected["recorded"]["certificates"]["24m+2/155"]["index"] += 1

    proc, lines = run_corrupted(tmp_path, edit, "--tiny", "--seconds", "0",
                                "--workload", "scan-reject")
    assert proc.returncode == 1
    result = result_of(lines)
    assert not result["correct"] and result["failed"] == 1
    assert "24m+2/155: index = 314, expected 315" in proc.stderr
    ratio = next(line for line in lines if "fail_ratio" in line).split()[1]
    assert float(ratio) > 0


def test_wrong_query_output_fails_the_command(tmp_path):
    def edit(expected):
        expected["recorded"]["outputs"]["solve 24m+2 1"][
            "code_coefficients#sha256"] = "0" * 64

    proc, lines = run_corrupted(tmp_path, edit, "--tiny", "--seconds", "0",
                                "--workload", "queries")
    assert proc.returncode == 1
    result = result_of(lines)
    assert not result["correct"] and result["failed"] == 1


def test_no_program_exits_without_a_result(tmp_path):
    root = checkout_copy(tmp_path, with_program=False)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "queries", "--seed", "1", "--seconds", "1"],
                          cwd=root, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
