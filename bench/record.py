"""Record the expected values that come from the program itself.

    python3 bench/record.py

Rewrites the "recorded" section of bench/expected.json: the scan
certificates of both scan windows, and digests of the solve, tables and
code shadow outputs that the query mix can draw.  The "paper" section is
written by hand from the paper and is never rewritten.  Every recorded
output must first pass the checks that do not depend on the recording.
The file was recorded once, when the benchmark was defined; recording
again to make a failing check pass would defeat the check.
"""

from __future__ import annotations

import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import workload as w


def main() -> int:
    sys.path.insert(0, str(w.ROOT / "src"))
    from minshadow import solver

    expected = json.loads(w.EXPECTED.read_text(encoding="utf-8"))
    paper = expected["paper"]

    certificates = {}
    for name in ("scan-reject", "scan-accept"):
        for tag, threshold in paper["thresholds"].items():
            for m in w.scan_window(name, threshold, w.SCAN_PER_FAMILY):
                cert = solver.admissible_at(solver.family_case(tag), m)
                certificates[f"{tag}/{m}"] = {
                    "ok": cert.ok, "side": cert.side, "index": cert.index,
                    "value": None if cert.value is None else str(cert.value)}

    outputs = {}
    blank = defaultdict(dict)
    w.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=w.WORK) as tmp:
        files = w.write_generator_files(expected, Path(tmp))
        ops = [w.solve_op(tag, m, None, paper, blank)
               for tag in w.OFFSETS for m in w.SOLVE_MS]
        ops += [w.solve_op(r["family"], r["m"], beta, paper, blank)
                for r in paper["beta_ranges"] for beta in w.beta_choices(r["range"])]
        ops += [w.tables_op(tag, m, blank) for tag in w.OFFSETS for m in w.TABLES_MS]
        ops += [w.shadow_op(label, files, blank) for label in sorted(files)]
        for op in ops:
            result = w.call_cli(op)
            bad = w.check_cli(op, result)
            if bad:
                raise SystemExit("\n".join(bad))
            doc = json.loads(result[1])
            outputs[op["key"]] = {spec: w.field_value(doc, spec)
                                  for spec in w.RECORDED[op["kind"]]}

    expected["recorded"] = {"certificates": certificates, "outputs": outputs}
    w.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(certificates)} certificates and {len(outputs)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
