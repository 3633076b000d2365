"""Smoke test of the demo scripts: each runs to exit 0 against the
package in src and prints one known result line (CI runs demos 02 and 03
against the installed package too)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = [
    ("01_transform_tables.py", "   code_inverse[3][0]  = -52"),
    ("02_unique_enumerators.py",
     "cross-check at m = 1: 20/1575, 78, 6/1576 as expected"),
    ("04_parametrized_families.py",
     "n = 22 (family 24m+22, m = 0), beta in [1, 38]"),
    ("05_c46_neighbors.py", "10/10 verified"),
    ("03_nonexistence_scan.py", "   m=155: NOT admissible, "
     "first failure at a[314] = -2061761424715040657"),
]


@pytest.mark.parametrize("script,line", DEMOS)
def test_demo_runs(script, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert any(out.startswith(line) for out in proc.stdout.splitlines()), \
        proc.stdout
