"""The benchmark's per-layer tracer wraps library functions by name from
outside (``perfbench/tracing.py``).  A name the library drops is reported
there as missing and its metrics read zero, so this test fails instead."""

import importlib.util
from pathlib import Path

from minimax_gda import dynamics, harness, spectral

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = _load_tracing()
    originals = (dynamics.run, spectral.spectral_report, harness.ratio_sweep)
    probe = tracing.CellProbe()
    tracer = tracing.Tracer()
    try:
        missing = set(probe.install())
        missing |= set(tracer.install())
    finally:
        tracer.restore()
        probe.restore()
    assert missing == set()
    assert (dynamics.run, spectral.spectral_report, harness.ratio_sweep) == originals
