"""Acceptance suite: one test per criterion, at the stated tolerances and
within the stated runtime limits.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see one line per criterion; ``minimax-gda verify all`` (budget 1)
runs the same checks with the same arguments through the CLI, which
``tests/test_verify.py::TestSuiteDispatch::test_budget_one_runs_acceptance_calls``
pins.  Each criterion's configuration lives in its ``verify.check_*``; the
tests below pin the parts of it that ``details`` reports.
"""

import time

import numpy as np
import pytest

from minimax_gda import verify

RUNTIME_LIMITS = {1: 30, 2: 60, 3: 300, 4: 1, 5: 120, 6: 600, 7: 300, 8: 10, 9: 60}


@pytest.fixture(scope="module")
def corpus():
    """100 seeded 4x4 instances at L=100, mu=1 with mu_x > 1e-3."""
    return verify.corpus_instances(100, start_seed=0)


def report_and_assert(criterion, check, elapsed):
    verdict = "PASS" if check.passed else ("INCONCLUSIVE" if check.inconclusive else "FAIL")
    print(f"\nACCEPTANCE {criterion} ({check.name}): {verdict} "
          f"in {elapsed:.1f}s (limit {RUNTIME_LIMITS[criterion]}s)")
    assert check.passed, check.details
    assert elapsed < RUNTIME_LIMITS[criterion], (
        f"criterion {criterion} took {elapsed:.1f}s, limit {RUNTIME_LIMITS[criterion]}s"
    )


def test_criterion_1_ratio_threshold_divergence():
    t0 = time.perf_counter()
    check = verify.check_ratio_threshold(max_iters=100_000)
    elapsed = time.perf_counter() - t0
    per_kappa = check.details["per_kappa"]
    assert [k["kappa"] for k in per_kappa] == [2, 8, 64]
    assert [k["cells"] for k in per_kappa] == [24, 24, 24]
    report_and_assert(1, check, elapsed)


def test_criterion_2_spectral_radius_bound(corpus):
    t0 = time.perf_counter()
    check = verify.check_spectral_bound(corpus)
    elapsed = time.perf_counter() - t0
    assert check.details["cells"] == 300
    report_and_assert(2, check, elapsed)


def test_criterion_3_linear_rate_matches_prediction(corpus):
    t0 = time.perf_counter()
    check = verify.check_rate_matches_prediction(corpus, max_iters=40_000)
    elapsed = time.perf_counter() - t0
    assert check.details["cells"] == 600  # GDA and EG on every (instance, r)
    report_and_assert(3, check, elapsed)


def test_criterion_4_tight_rate_lower_bound():
    t0 = time.perf_counter()
    check = verify.check_rate_lower_bound()
    elapsed = time.perf_counter() - t0
    assert check.details["s1"] == pytest.approx(0.99296, abs=1e-5)
    assert check.details["max_step_deviation"] <= 1e-10
    assert check.details["s1"] >= check.details["lower_bound"]
    report_and_assert(4, check, elapsed)


def test_criterion_5_complexity_table_scaling():
    t0 = time.perf_counter()
    check = verify.check_complexity_scaling(seed=0, count=10)
    elapsed = time.perf_counter() - t0
    assert check.details["kappa"] == 20
    assert len(check.details["iteration_ratios"]) == 10
    report_and_assert(5, check, elapsed)


def test_criterion_6_sgda_noise_floor():
    t0 = time.perf_counter()
    check = verify.check_sgda_floor(seed=0, n_seeds=32)
    elapsed = time.perf_counter() - t0
    assert [p["batch"] for p in check.details["points"]] == [16, 64, 256, 1024]
    assert not check.inconclusive
    assert check.details["slope"] == pytest.approx(-1.0, abs=0.15)
    report_and_assert(6, check, elapsed)


def test_criterion_7_mux_zero_regularization():
    t0 = time.perf_counter()
    check = verify.check_mux_zero(seed=0)
    elapsed = time.perf_counter() - t0
    assert list(check.details["runs"]) == ["0.1", "0.01"]
    for run in check.details["runs"].values():
        assert run["gap_ok"]
    for growth in check.details["iteration_growth"]:
        assert 5.0 <= growth <= 20.0
    report_and_assert(7, check, elapsed)


def test_criterion_8_eigensolver_oracle(corpus):
    t0 = time.perf_counter()
    check = verify.check_eigensolver_oracle(corpus, np.random.default_rng(1))
    elapsed = time.perf_counter() - t0
    assert check.details["worst_residual_rel"] <= 1e-8
    assert check.details["worst_trace_rel"] <= 1e-8
    assert check.details["worst_det_rel"] <= 1e-8
    assert check.details["worst_2x2_abs"] <= 1e-12
    report_and_assert(8, check, elapsed)


def test_criterion_9_nearly_quadratic_guarantee():
    t0 = time.perf_counter()
    check = verify.check_nearly_quadratic(seed=0)
    elapsed = time.perf_counter() - t0
    assert check.details["delta_r"] <= check.details["threshold"]
    assert check.details["final_grad_norm"] <= 1e-6 * 2.0
    report_and_assert(9, check, elapsed)
