"""One benchmark workload, run in a fresh interpreter by ``run.py``.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1
        [--tiny] [--setup-only]

The process imports ``minshadow`` from the checkout's ``src``, builds the
workload's operation list from the seed, writes any generator files, and
then runs the list in passes (closed loop, one client, no threads) until
``--seconds`` have elapsed.  Every result is checked after its pass, out
of the timed region.  The last stdout line is one JSON object; with
``--setup-only`` it stops right before the first timed operation.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
WORK = HERE / ".work"

WORKLOADS = ("scan-reject", "scan-accept", "queries")
SCAN_PER_FAMILY = 2      # m values per family in a scan window
REF_EVERY_S = 0.5        # longest gap between reference-kernel samples
REF_WINDOW = 2           # reference samples each side of an operation

# Length n = 24m + offset for each family.
OFFSETS = {"24m+2": 2, "24m+4": 4, "24m+6": 6, "24m+10": 10, "24m+22": 22}
BETA_FAMILIES = ("24m+6", "24m+22")
SOLVE_MS = (1, 3, 6, 9, 12, 15, 18)
TABLES_MS = (1, 2, 3)
SCAN_M_MAX = (5, 10, 20, 25, 30, 40)

# Traced layers, as module.function inside the minshadow package.
TARGETS = (
    "exact.parametric_linear_solve",
    "gleason.build_transform_tables",
    "gleason.code_inverse_col0",
    "gleason.enumerators_from_gleason",
    "gleason.horner_code_side",
    "gleason.horner_shadow_side",
    "gleason.shadow_basis_column",
    "gleason.shadow_inverse_entry",
    "solver.solve",
    "solver.beta_range",
    "solver.nonexistence_scan",
    "solver.admissible_at",
    "gf2.weight_distribution",
    "gf2.shadow",
    "gf2.neighbor",
    "gf2.extract_beta",
    "gf2.verify_neighbor_table",
    "cli.main",
)

# Fields whose expected values were recorded from the program itself
# (bench/record.py), per command; "#sha256" compares a digest of the field.
RECORDED = {
    "solve": ("code_coefficients#sha256", "shadow_coefficients#sha256"),
    "tables": ("c_count", "code_basis#sha256", "code_inverse#sha256",
               "shadow_basis#sha256", "shadow_inverse#sha256"),
    "code shadow": ("shadow_min_weight", "minimal_shadow",
                    "shadow_distribution#sha256"),
}


# ---------------------------------------------------------------------------
# expected values


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def field_value(doc: dict, spec: str):
    """The value a field spec names in a parsed CLI document.

    ``a.b`` reads a nested key, ``rows[].beta`` projects a list of
    objects onto one key, and a trailing ``#sha256`` digests the value.
    """
    path, _, fmt = spec.partition("#")
    value = doc
    for part in path.split("."):
        if part.endswith("[]"):
            value = value[part[:-2]]
            continue
        value = ([item[part] for item in value] if isinstance(value, list)
                 else value[part])
    return digest(value) if fmt == "sha256" else value


def scan_window(workload: str, threshold: int, per_family: int) -> range:
    if workload == "scan-reject":
        return range(threshold + 1, threshold + 1 + per_family)
    return range(threshold - per_family + 1, threshold + 1)


def fraction_or_none(x):
    return None if x is None else Fraction(x)


# ---------------------------------------------------------------------------
# operations


def scan_ops(workload: str, expected: dict, rng: random.Random,
             tiny: bool) -> list[dict]:
    """``admissible_at`` over the window of each family, in seeded order."""
    ops = []
    for tag, threshold in expected["paper"]["thresholds"].items():
        for m in scan_window(workload, threshold, 1 if tiny else SCAN_PER_FAMILY):
            key = f"{tag}/{m}"
            want = expected["recorded"]["certificates"][key]
            if want["ok"] != (m <= threshold):
                raise ValueError(f"recorded certificate {key} contradicts "
                                 f"the paper threshold {threshold}")
            ops.append({"key": key, "family": tag, "m": m, "want": want})
    rng.shuffle(ops)
    return ops


def cli_op(kind: str, key: str, argv: list[str], want: dict,
           recorded: dict) -> dict:
    if kind in RECORDED:
        want = {**want, **recorded[key]}
    return {"key": key, "kind": kind, "argv": argv, "want": want}


def write_generator_files(expected: dict, workdir: Path) -> dict[str, Path]:
    """The bundled [46,23,8] code and its ten recorded neighbours, as
    generator files; keys are ``c46`` and ``n<beta>``."""
    from minshadow import gf2

    base = gf2.reference_code_46()
    codes = {"c46": base}
    for support, beta in expected["paper"]["neighbors"]:
        codes[f"n{beta}"] = gf2.neighbor(base, support)
    files = {}
    for label, code in codes.items():
        files[label] = workdir / f"{label}.txt"
        files[label].write_text(gf2.format_generator_file(code), encoding="ascii")
    return files


def query_ops(expected: dict, files: dict[str, Path], rng: random.Random,
              tiny: bool) -> list[dict]:
    """The CLI mix: a fixed count of each command, with seeded arguments
    among choices of equal cost, in seeded order."""
    paper, recorded = expected["paper"], expected["recorded"]["outputs"]
    groups = []

    groups.append([solve_op(tag, m, None, paper, recorded)
                   for tag in OFFSETS for m in SOLVE_MS])
    groups.append([solve_op(r["family"], r["m"],
                            rng.choice(beta_choices(r["range"])), paper, recorded)
                   for r in paper["beta_ranges"] for _ in range(2)])
    groups.append([
        cli_op("beta-range", f"beta-range {r['family']} {r['m']}",
               ["beta-range", "--family", r["family"], "--m", str(r["m"])],
               {"n": str(r["n"]), "beta_min": str(r["range"][0]),
                "beta_max": str(r["range"][1])}, recorded)
        for r in paper["beta_ranges"] for _ in range(2)])
    groups.append([tables_op(tag, m, recorded)
                   for tag in OFFSETS for m in TABLES_MS])
    groups.append([bounds_op(2 * rng.randint(1, 2000), recorded)
                   for _ in range(20)])
    groups.append([scan_op(rng.choice(list(paper["thresholds"])), m_max,
                           recorded) for m_max in SCAN_M_MAX])

    code_want = {"n": "46", "k": "23", "d": "8", "self_dual": True,
                 "parity_class": "singly even"}
    labels = sorted(files)
    groups.append([cli_op("code verify", f"code verify {label}",
                          ["code", "verify", "--gen-file", str(files[label])],
                          code_want, recorded)
                   for label in (rng.choice(labels) for _ in range(5))])
    groups.append([shadow_op(label, files, recorded)
                   for label in (rng.choice(labels) for _ in range(5))])
    groups.append([
        cli_op("code neighbor", f"code neighbor {beta}",
               ["code", "neighbor", "--gen-file", str(files["c46"]),
                "--support", ",".join(map(str, support))],
               {**code_want, "beta": str(beta), "minimal_shadow": True}, recorded)
        for support, beta in (rng.choice(paper["neighbors"]) for _ in range(5))])
    neighbors = paper["neighbors"]
    groups.append([cli_op("code table1", "code table1", ["code", "table1"], {
        "verified": f"{len(neighbors)}/{len(neighbors)}",
        "rows[].beta": [str(beta) for _, beta in neighbors],
        "rows[].support": [[str(p) for p in s] for s, _ in neighbors],
        "rows[].min_weight": ["8"] * len(neighbors),
        "rows[].shadow_min_weight": ["3"] * len(neighbors),
        "rows[].minimal_shadow": [True] * len(neighbors),
    }, recorded)])

    ops = [g[0] for g in groups] if tiny else [op for g in groups for op in g]
    rng.shuffle(ops)
    return ops


def beta_choices(beta_range: list[int]) -> list[int]:
    """Endpoints, midpoint and one value outside the admissible range."""
    lo, hi = beta_range
    return [lo, (lo + hi) // 2, hi, hi + 1]


def solve_op(tag: str, m: int, beta: int | None, paper: dict,
             recorded: dict) -> dict:
    argv = ["solve", "--family", tag, "--m", str(m)]
    want = {"n": str(24 * m + OFFSETS[tag]),
            "free_parameters": ["beta"] if tag in BETA_FAMILIES else []}
    key = f"solve {tag} {m}"
    if beta is not None:
        lo, hi = next(r["range"] for r in paper["beta_ranges"]
                      if (r["family"], r["m"]) == (tag, m))
        argv += ["--beta", str(beta)]
        want.update(free_parameters=[], beta=str(beta),
                    beta_in_range=lo <= beta <= hi)
        key += f" --beta {beta}"
    return cli_op("solve", key, argv, want, recorded)


def tables_op(tag: str, m: int, recorded: dict) -> dict:
    return cli_op("tables", f"tables {tag} {m}",
                  ["tables", "--family", tag, "--m", str(m)],
                  {"n": str(24 * m + OFFSETS[tag]),
                   "closed_form_code_inverse_col0_ok": True,
                   "closed_form_shadow_inverse_ok": True}, recorded)


def shadow_op(label: str, files: dict[str, Path], recorded: dict) -> dict:
    return cli_op("code shadow", f"code shadow {label}",
                  ["code", "shadow", "--gen-file", str(files[label])], {},
                  recorded)


def bounds_op(n: int, recorded: dict) -> dict:
    """Expected values from the closed formulas: Rains' bound, the
    minimal shadow weight by n mod 8, and n = 24m + 8l + 2r."""
    want = {"n": str(n),
            "rains_bound": str(4 * (n // 24) + (6 if n % 24 == 22 else 4)),
            "minimal_shadow_weight": str({0: 4, 2: 1, 4: 2, 6: 3}[n % 8]),
            "family.m": str(n // 24), "family.l": str(n % 24 // 8),
            "family.r": str(n % 8 // 2)}
    return cli_op("bounds", f"bounds {n}", ["bounds", "--n", str(n)], want,
                  recorded)


def scan_op(tag: str, m_max: int, recorded: dict) -> dict:
    """Every m up to the paper threshold is admissible."""
    want = {"family": tag, "m_max": str(m_max),
            "results[].m": [str(m) for m in range(1, m_max + 1)],
            "results[].admissible": [True] * m_max,
            "max_admissible": str(m_max)}
    return cli_op("scan", f"scan {tag} {m_max}",
                  ["scan", "--family", tag, "--m-max", str(m_max)], want,
                  recorded)


# ---------------------------------------------------------------------------
# running and checking


def call_scan(op: dict):
    from minshadow import solver

    return solver.admissible_at(solver.family_case(op["family"]), op["m"])


def call_cli(op: dict):
    from minshadow import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(op["argv"]))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def check_scan(op: dict, cert) -> list[str]:
    """Compare the certificate by attribute name, so added fields pass."""
    want = {**op["want"], "value": fraction_or_none(op["want"]["value"])}
    got = {"ok": cert.ok, "side": cert.side, "index": cert.index,
           "value": fraction_or_none(cert.value)}
    return [f"{op['key']}: {k} = {got[k]}, expected {want[k]}"
            for k in want if got[k] != want[k]]


def check_cli(op: dict, result) -> list[str]:
    rc, out, err = result
    if rc != 0:
        return [f"{op['key']}: exit status {rc}: {err.strip()[-200:]}"]
    doc = json.loads(out)
    bad = []
    for spec, want in op["want"].items():
        try:
            got = field_value(doc, spec)
        except (KeyError, TypeError):
            got = "<missing>"
        if got != want:
            bad.append(f"{op['key']}: {spec} = {got!r}, expected {want!r}")
    return bad


def reference_kernel() -> None:
    """Fixed work in the benchmark's own code, like the library's inner
    loops: big-integer polynomial steps and Fraction sums.  Timed through
    every pass, it measures how fast the host runs Python at the time."""
    x = [3 ** 400 + i for i in range(300)]
    for _ in range(30):
        y = [0] * (len(x) + 2)
        for i, v in enumerate(x):
            y[i] += v
            y[i + 1] -= 2 * v
            y[i + 2] += v
        x = y
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i, i + 7)


def run_pass(ops: list[dict], call, tracer=None):
    """One closed-loop pass; returns (wall seconds, results, operation
    timings, reference timings), timings as (start, seconds) pairs.
    A reference sample is taken before an operation once REF_EVERY_S has
    passed since the last one; it is left out of the pass's wall time."""
    timings, results, refs = [], [], []
    start = time.perf_counter()
    last_ref = start - REF_EVERY_S
    for i, op in enumerate(ops):
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            t0 = time.perf_counter()
            reference_kernel()
            last_ref = time.perf_counter()
            refs.append((t0, last_ref - t0))
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            res = (call(op), None)
        except Exception as exc:  # counted as a failed operation
            res = (None, f"{op['key']}: raised {type(exc).__name__}: {exc}")
        timings.append((t0, time.perf_counter() - t0))
        results.append(res)
    wall = time.perf_counter() - start - sum(d for _, d in refs)
    return wall, results, timings, refs


def in_ref_units(timings: list[tuple], refs: list[tuple]) -> list[float]:
    """Each operation's time over the median of the REF_WINDOW reference
    samples on each side of it, so a change in host speed during the run
    divides out where it happened."""
    starts = [t for t, _ in refs]
    out = []
    for t, d in timings:
        j = bisect.bisect(starts, t)
        near = refs[max(0, j - REF_WINDOW):j + REF_WINDOW]
        out.append(d / statistics.median(r for _, r in near))
    return out


def check_pass(ops: list[dict], results: list, check) -> list[str]:
    """Mismatch messages, at most one entry per failed operation."""
    failed = []
    for op, (res, err) in zip(ops, results):
        if err is None:
            try:
                bad = check(op, res)
            except Exception as exc:  # a malformed result is a wrong result
                bad = [f"{op['key']}: unreadable result: "
                       f"{type(exc).__name__}: {exc}"]
            err = "; ".join(bad) or None
        if err is not None:
            failed.append(err)
    return failed


def decisive_fraction(ops: list[dict], results: list) -> float:
    """Mean over the scan certificates of (certificate index + 1) / number
    of code coefficients, with 1.0 where every code coefficient had to be
    checked; 0 for a workload that certifies no m."""
    fractions = []
    for op, (cert, err) in zip(ops, results):
        if "m" not in op or err is not None:
            continue
        if cert.ok or cert.side != "a":
            fractions.append(1.0)
        else:
            n = 24 * op["m"] + OFFSETS[op["family"]]
            fractions.append((cert.index + 1) / (n // 2 + 1))
    return statistics.fmean(fractions) if fractions else 0.0


def pass_sums(values: list[float], per_pass: int) -> list[float]:
    return [sum(values[i:i + per_pass])
            for i in range(0, len(values), per_pass)]


def measure(ops, call, check, seconds: float, trace: bool, tracer_out: Path):
    """Run passes until ``seconds`` have elapsed.  With tracing, passes
    alternate untraced and traced, at least one of each."""
    from spans import Tracer

    tracer = Tracer(TARGETS)
    walls: list[float] = []
    timings: dict[bool, list[tuple]] = {False: [], True: []}
    refs: list[tuple] = []
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    traced = False
    while (not walls or (trace and not timings[True])
           or time.perf_counter() - start < seconds):
        if traced:
            with tracer:
                _, results, op_t, ref_t = run_pass(ops, call, tracer)
        else:
            wall, results, op_t, ref_t = run_pass(ops, call)
            walls.append(wall)
            untraced_results = results
        timings[traced] += op_t
        refs += ref_t
        attempted += len(ops)
        failures += check_pass(ops, results, check)
        traced = trace and not traced

    op_ref = in_ref_units(timings[False], refs)
    pass_refs = pass_sums(op_ref, len(ops))
    out = {"pass_walls": walls, "pass_refs": pass_refs,
           "op_ms": [d * 1e3 for _, d in timings[False]],
           "ref_ms": [d * 1e3 for _, d in refs], "op_ref": op_ref,
           "attempted": attempted, "failures": failures}
    if trace:
        passes = len(timings[True]) // len(ops)
        layers = {}
        for name, stats in tracer.summary().items():
            for stat, value in stats.items():
                layers[f"{name}.{stat}"] = value / passes
        layers["solver.admissible_at.decisive_fraction"] = decisive_fraction(
            ops, untraced_results)
        traced_refs = pass_sums(in_ref_units(timings[True], refs), len(ops))
        layers["trace.overhead_ratio"] = (statistics.median(traced_refs)
                                          / statistics.median(pass_refs))
        out["per_layer"] = layers
        tracer.write(tracer_out)
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one operation per family or command, for tests")
    p.add_argument("--setup-only", action="store_true",
                   help="stop before the first timed operation")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import minshadow  # noqa: F401  (the import is part of set-up)
    import numpy

    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    rng = random.Random(args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.workload == "queries":
            files = write_generator_files(expected, workdir)
            ops = query_ops(expected, files, rng, args.tiny)
            call, check = call_cli, check_cli
        else:
            ops = scan_ops(args.workload, expected, rng, args.tiny)
            call, check = call_scan, check_scan
        setup_end = time.monotonic()
        out = {"setup_end": setup_end, "python": sys.version.split()[0],
               "numpy": numpy.__version__}
        if not args.setup_only:
            out.update(measure(ops, call, check, args.seconds, bool(args.trace),
                               WORK / f"spans-{args.workload}-{args.seed}.jsonl"))
            out["ops_per_pass"] = len(ops)
            out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
