"""The benchmark's per-layer tracer wraps library functions by name from
outside (``perfbench/tracing.py``).  A name the library drops is reported
there as missing and its metrics read zero, and a result shape it reads
that changes breaks its counters, so these tests fail instead."""

import importlib.util
from pathlib import Path

from minimax_gda import dynamics, harness, spectral, verify

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


def test_tracer_reads_certificate_and_floor_shapes():
    # 24 certificate cells and 1 control for each of kappa = 2, 8, 64, plus
    # 2 batches x 1 seed of the floor sweep
    tracer = _load_tracing().Tracer()
    try:
        assert set(tracer.install()) == set()
        verify.check_ratio_threshold(max_iters=2_000)
        verify.check_sgda_floor(batches=(16, 64), n_seeds=1)
    finally:
        tracer.restore()
    assert tracer.count["harness.cells"] == 77
