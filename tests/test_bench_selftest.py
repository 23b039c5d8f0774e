"""The benchmark's toy-size self-test, run as part of the suite.

The benchmark probes wrap package internals (``net.backward_input``, the
``tensor.<fn>`` primitives, ``ActivationCache.argmax``); a refactor that
breaks one of them fails here instead of only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SELFTEST = ROOT / "bench" / "selftest.py"


@pytest.mark.skipif(not SELFTEST.is_file(), reason="no bench/ directory in this checkout")
def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST.relative_to(ROOT))], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: PASS" in proc.stdout
