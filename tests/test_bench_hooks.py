"""The benchmark's hooks into the package: perfbench/spans.py wraps named
functions and methods of cavshield and perfbench/run.py reads
kernels.BACKEND.  Renaming or deleting any of them must fail here, not
only after a full timed run of perfbench/run.py --trace 1."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = sys.argv[1:3]
import spans
spans.install(spans.Tracer())
from cavshield import kernels
print(kernels.BACKEND)
"""


def test_tracer_installs_and_backend_is_readable():
    # A subprocess, because install() rewraps the package's functions for
    # the rest of the interpreter's life.
    out = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "python"
