"""The per-call benchmarks in ``benchmarks/`` still run against the library.

They are not collected by the suite (``testpaths = ["tests"]``), so an API
change that breaks one would otherwise go unseen.  Each benchmark body runs
once, untimed, in a subprocess that writes no bytecode and no cache.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(importlib.util.find_spec("pytest_benchmark") is None,
                    reason="needs pytest-benchmark")
def test_benchmarks_run_once():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(ROOT / "benchmarks"), "-q",
         "--benchmark-disable", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
