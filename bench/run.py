"""Benchmark of minshadow: scan certificates and the command-line mix.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--tiny]

Runs each workload in fresh interpreters (bench/workload.py): a few that
stop after set-up, for the set-up time, and one that measures.  Checks
every result, prints each metric by name with its unit and sample count,
and prints as its last stdout line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 1 when a result is wrong, 2 when the checkout has no program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import ROOT, TARGETS, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5        # set-ups per run; setup_s is their median
DEADLINE_S = 170         # a run of one workload ends within this

# The end-to-end metrics in BENCHMARK.json.  Operation times are divided
# by the reference kernel's time measured around them ("ref" units),
# because the speed of a shared host can swing by 1.7x within minutes.
END_TO_END = ("wall_ref", "op_p50_ref", "op_p90_ref", "setup_s", "peak_rss_mb")


def per_layer_units() -> dict[str, str]:
    units = {}
    for target in TARGETS:
        units.update({f"{target}.calls": "count", f"{target}.total_s": "s",
                      f"{target}.self_s": "s"})
    units["solver.admissible_at.decisive_fraction"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def spawn(args, deadline: float, setup_only: bool) -> tuple[dict, float]:
    """Start one workload interpreter; returns its report and the set-up
    time from interpreter start to the end of its set-up."""
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--tiny"] * args.tiny + ["--setup-only"] * setup_only
    # CLOCK_MONOTONIC is one clock for every process on the host, so the
    # child's end-of-set-up stamp can be compared with this start stamp.
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload}: workload process timed out") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{args.workload}: workload process exited "
                         f"{proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["setup_end"] - start


def run_workload(args) -> dict:
    """Runs one workload; returns its result object."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [spawn(args, deadline, True)[1] for _ in range(SETUP_SAMPLES - 1)]
    report, setup = spawn(args, deadline, False)
    setups.append(setup)

    failures = report["failures"]
    for msg in failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    attempted = report["attempted"]
    context = {"workload": args.workload, "seed": args.seed,
               "python": report["python"], "numpy": report["numpy"],
               "nproc": len(os.sched_getaffinity(0)),
               "git_revision": git_revision(),
               "ops_per_pass": report["ops_per_pass"],
               "passes": len(report["pass_walls"]),
               "trace": args.trace}
    print(f"context {json.dumps(context)}")

    ops, refs, walls = report["op_ms"], report["ref_ms"], report["pass_walls"]
    op_ref, pass_refs = report["op_ref"], report["pass_refs"]
    rows = [  # name, value, unit, samples
        ("wall_s", statistics.median(walls), "s", f"median of {len(walls)} passes"),
        ("op_p50_ms", statistics.median(ops), "ms", f"{len(ops)} operations"),
        ("op_p90_ms", statistics.quantiles(ops, n=10)[-1], "ms",
         f"{len(ops)} operations, {len(ops) // 10} beyond"),
        ("ref_ms", statistics.median(refs), "ms",
         f"median of {len(refs)} reference-kernel runs"),
        ("wall_ref", statistics.median(pass_refs), "ref",
         f"median of {len(pass_refs)} passes"),
        ("op_p50_ref", statistics.median(op_ref), "ref",
         f"{len(op_ref)} operations"),
        ("op_p90_ref", statistics.quantiles(op_ref, n=10)[-1], "ref",
         f"{len(op_ref)} operations, {len(op_ref) // 10} beyond"),
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} set-ups"),
        ("peak_rss_mb", report["peak_rss_mb"], "MB", "1 process"),
        ("fail_ratio", len(failures) / attempted, "ratio",
         f"{len(failures)} of {attempted} operations"),
    ]
    for name, value, unit, samples in rows:
        print(f"  {name:<14} {value:12.4f} {unit:<5} ({samples})")

    if args.trace:
        metrics = {name: {"value": report["per_layer"][name], "unit": unit}
                   for name, unit in per_layer_units().items()}
        for name, m in metrics.items():
            print(f"  {name:<48} {m['value']:14.6f} {m['unit']}")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in rows if name in END_TO_END}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one operation per family or command, for tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "minshadow" / "__init__.py").is_file():
        print(f"error: no minshadow package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            print(f"workload {name}")
            results[name] = run_workload(
                argparse.Namespace(**{**vars(args), "workload": name}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{metric}": m
                              for name, r in results.items()
                              for metric, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
