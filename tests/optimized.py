"""One runner for the tests that sabotage the library under python -O.

Asserts vanish under -O, so the library's own checks must still catch a
perturbed input there.  run_optimized runs a script in a fresh
interpreter with -O, on the source tree of the imported package, after a
guard that makes the script exit with "asserts are still enabled" should
the flag not take effect.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import minshadow

SRC = Path(minshadow.__file__).resolve().parents[1]

GUARD = """\
import sys
if not sys.flags.optimize:
    sys.exit("asserts are still enabled")
"""


def run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run the dedented script after GUARD, which imports sys for it,
    under python -O and capture its exit code, stdout and stderr as text."""
    return subprocess.run([sys.executable, "-O", "-c", GUARD + textwrap.dedent(script)],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
