"""Start-up of a ``minimax-gda`` call: a fresh interpreter that imports the
library's ``cli`` and ``verify`` modules, as every command does before its
work (perfbench's ``setup_s`` times the same import).  Not part of the test
suite; run it from the root of a checkout with

    OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/test_bench_start.py --benchmark-json=bench.json

and read the per-call median in seconds from the JSON's ``stats``.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "import minimax_gda.cli, minimax_gda.verify")


def _start():
    subprocess.run([sys.executable, "-c", PROBE, SRC], check=True)


def test_cli_start(benchmark):
    benchmark.pedantic(_start, rounds=7, warmup_rounds=1)
