"""The benchmark's own self-test, run as part of the tier-1 suite.

perfbench/selftest.py pins what the benchmark harness needs from the
package: the names its tracer patches, the 36 pairings under one
`decompose` and the `--point=<csv>` form.  Running it here makes a change
that breaks the harness fail the tests, not only a benchmark run.
"""
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    r = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300
    )
    assert r.returncode == 0, r.stdout + r.stderr
