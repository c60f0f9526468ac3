"""The benchmark's per-layer tracer wraps library functions by name from
outside (``perfbench/tracing.py``).  A name the library drops is reported
there as missing and its metrics read zero, and a result shape it reads
that changes breaks its counters, so these tests fail instead.  Its
correctness gate compares each check's whole ``details`` with references
recorded in ``perfbench/reference/``, where an added or missing key counts
as a mismatch, so the shape of the gated ``details`` is pinned here too."""

import importlib.util
import sys
from pathlib import Path

from minimax_gda import dynamics, harness, spectral, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = _load("tracing")
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
    tracer = _load("tracing").Tracer()
    try:
        assert set(tracer.install()) == set()
        verify.check_ratio_threshold(max_iters=2_000)
        verify.check_sgda_floor(batches=(16, 64), n_seeds=1)
    finally:
        tracer.restore()
    assert tracer.count["harness.cells"] == 77


def test_gated_details_keep_their_recorded_keys():
    # the calls of variant 0 of certify-sgda-floor and of cli-stop's
    # `verify lower-bounds --budget 0.1`
    workloads = _load("workloads")
    checks = {
        "certify-sgda-floor": verify.check_sgda_floor(
            seed=0, batches=(16, 64, 256, 1024), n_seeds=1),
        "cli-stop": verify.check_ratio_threshold(max_iters=10_000),
    }
    for workload, check in checks.items():
        recorded = {c["name"]: c["fields"]
                    for c in workloads.load_reference(workload, 0)["checks"]}
        assert set(workloads.flatten(check.details)) == set(recorded[check.name])
