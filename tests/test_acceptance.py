"""Acceptance suite: ``minimax-gda verify all --budget 1``, run here through
``verify.verify_suite`` at seed 0, one suite at a time.  Run with ``pytest
tests/test_acceptance.py -v -s`` to see one line per criterion.

Each suite runs once per module, with ``corpus_instances`` and every
``verify.check_*`` wrapped to record the calls the suite makes;
``ACCEPTANCE_CALLS`` pins those calls, and with them the acceptance scale.
Every check a suite yields must pass within its ``RUNTIME_LIMITS`` entry,
timed by its own ``elapsed_s``; the criterion tests below pin the parts of
each criterion's configuration that ``details`` reports.
"""

import inspect

import numpy as np
import pytest

from minimax_gda import verify

SUITES = tuple(name for name in verify.SUITE_NAMES if name != "all")

# seconds, by check name
RUNTIME_LIMITS = {
    "ratio_threshold_divergence": 30,
    "spectral_radius_bound": 60,
    "rate_matches_prediction": 300,
    "rate_lower_bound": 1,
    "complexity_scaling": 120,
    "sgda_noise_floor": 600,
    "mux_zero_regularization": 300,
    "eigensolver_oracle": 10,
    "nearly_quadratic": 60,
}

# the acceptance scale: the calls each suite makes at seed 0 and budget 1,
# with their arguments bound to the signature (defaults filled in), a
# generator given by its state and a corpus by the call that drew it
CORPUS = ("corpus_instances", {"count": 100, "start_seed": 0, "L": 100.0, "mu": 1.0,
                               "min_mu_x": 1e-3, "max_mu_x": None})
ACCEPTANCE_CALLS = {
    "spectral": [
        CORPUS,
        ("check_spectral_bound", {"corpus": CORPUS}),
        ("check_eigensolver_oracle",
         {"corpus": CORPUS, "rng": np.random.default_rng(1).bit_generator.state}),
    ],
    "lower-bounds": [
        ("check_ratio_threshold", {"max_iters": 100_000}),
        ("check_rate_lower_bound", {}),
    ],
    "rates": [
        CORPUS,
        ("check_rate_matches_prediction", {"corpus": CORPUS, "max_iters": 40_000}),
        ("check_complexity_scaling", {"seed": 0, "count": 10}),
        ("check_nearly_quadratic", {"seed": 0}),
    ],
    "sgda-floor": [
        ("check_sgda_floor",
         {"seed": 0, "batches": (16, 64, 256, 1024), "n_seeds": 32}),
    ],
    "mux-zero": [
        ("check_mux_zero", {"seed": 0}),
    ],
}


def _record_calls(mp, calls):
    """Wrap ``verify.corpus_instances`` and every ``verify.check_*`` so that
    each call a suite makes, not one a check makes inside, appends ``(name,
    arguments)`` to ``calls`` before the real function runs."""
    corpora = []  # (corpus, the call that drew it)
    running = []  # names of the wrapped calls under way

    def label(value):
        if isinstance(value, np.random.Generator):
            return value.bit_generator.state
        return next((call for corpus, call in corpora if corpus is value), value)

    def wrap(name, fn):
        signature = inspect.signature(fn)

        def recorded(*args, **kwargs):
            call = None
            if not running:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                call = (name, {k: label(v) for k, v in bound.arguments.items()})
                calls.append(call)
            running.append(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                running.pop()
            if call is not None and name == "corpus_instances":
                corpora.append((out, call))
            return out
        return recorded

    names = [name for name in vars(verify) if name.startswith("check_")]
    for name in names + ["corpus_instances"]:
        mp.setattr(verify, name, wrap(name, getattr(verify, name)))


@pytest.fixture(scope="module")
def run_suite():
    """``run(suite) -> (SuiteResult, calls)``: the suite at seed 0 and budget
    1 with its recorded calls, run on first use only.  A suite that raises
    raises the same error at every use, and the other suites still run."""
    runs = {}

    def run(suite):
        if suite not in runs:
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                _record_calls(mp, calls)
                try:
                    result, = verify.verify_suite(suite, seed=0, budget=1.0)
                    runs[suite] = result, calls
                except Exception as exc:
                    runs[suite] = exc
        if isinstance(runs[suite], Exception):
            raise runs[suite]
        return runs[suite]
    return run


def check_named(run_suite, suite, name):
    result, _ = run_suite(suite)
    return {check.name: check for check in result.checks}[name]


def assert_within_limit(check):
    limit = RUNTIME_LIMITS[check.name]
    assert check.passed and not check.inconclusive, check.details
    assert check.elapsed_s < limit, (
        f"{check.name} took {check.elapsed_s:.1f}s, limit {limit}s")


def report_and_assert(check):
    verdict = "PASS" if check.passed else ("INCONCLUSIVE" if check.inconclusive else "FAIL")
    print(f"\nACCEPTANCE {check.criterion} ({check.name}): {verdict} "
          f"in {check.elapsed_s:.1f}s (limit {RUNTIME_LIMITS[check.name]}s)")
    assert_within_limit(check)


@pytest.mark.parametrize("suite", SUITES)
def test_suite_makes_the_acceptance_calls(run_suite, suite):
    _, calls = run_suite(suite)
    assert calls == ACCEPTANCE_CALLS[suite]


@pytest.mark.parametrize("suite", SUITES)
def test_every_check_passes_within_its_limit(run_suite, suite):
    result, _ = run_suite(suite)
    assert result.checks
    for check in result.checks:
        assert check.name in RUNTIME_LIMITS, f"{check.name} has no runtime limit"
        assert_within_limit(check)


def test_criterion_1_ratio_threshold_divergence(run_suite):
    check = check_named(run_suite, "lower-bounds", "ratio_threshold_divergence")
    per_kappa = check.details["per_kappa"]
    assert [k["kappa"] for k in per_kappa] == [2, 8, 64]
    assert [k["cells"] for k in per_kappa] == [24, 24, 24]
    report_and_assert(check)


def test_criterion_2_spectral_radius_bound(run_suite):
    check = check_named(run_suite, "spectral", "spectral_radius_bound")
    assert check.details["cells"] == 300
    report_and_assert(check)


def test_criterion_3_linear_rate_matches_prediction(run_suite):
    check = check_named(run_suite, "rates", "rate_matches_prediction")
    assert check.details["cells"] == 600  # GDA and EG on every (instance, r)
    report_and_assert(check)


def test_criterion_4_tight_rate_lower_bound(run_suite):
    check = check_named(run_suite, "lower-bounds", "rate_lower_bound")
    assert check.details["s1"] == pytest.approx(0.99296, abs=1e-5)
    assert check.details["max_step_deviation"] <= 1e-10
    assert check.details["s1"] >= check.details["lower_bound"]
    report_and_assert(check)


def test_criterion_5_complexity_table_scaling(run_suite):
    check = check_named(run_suite, "rates", "complexity_scaling")
    assert check.details["kappa"] == 20
    assert len(check.details["iteration_ratios"]) == 10
    report_and_assert(check)


def test_criterion_6_sgda_noise_floor(run_suite):
    check = check_named(run_suite, "sgda-floor", "sgda_noise_floor")
    assert [p["batch"] for p in check.details["points"]] == [16, 64, 256, 1024]
    assert not check.inconclusive
    assert check.details["slope"] == pytest.approx(-1.0, abs=0.15)
    report_and_assert(check)


def test_criterion_7_mux_zero_regularization(run_suite):
    check = check_named(run_suite, "mux-zero", "mux_zero_regularization")
    assert list(check.details["runs"]) == ["0.1", "0.01"]
    for run in check.details["runs"].values():
        assert run["gap_ok"]
    for growth in check.details["iteration_growth"]:
        assert 5.0 <= growth <= 20.0
    report_and_assert(check)


def test_criterion_8_eigensolver_oracle(run_suite):
    check = check_named(run_suite, "spectral", "eigensolver_oracle")
    assert check.details["worst_residual_rel"] <= 1e-8
    assert check.details["worst_trace_rel"] <= 1e-8
    assert check.details["worst_det_rel"] <= 1e-8
    assert check.details["worst_2x2_abs"] <= 1e-12
    report_and_assert(check)


def test_criterion_9_nearly_quadratic_guarantee(run_suite):
    check = check_named(run_suite, "rates", "nearly_quadratic")
    assert check.details["delta_r"] <= check.details["threshold"]
    assert check.details["final_grad_norm"] <= 1e-6 * 2.0
    report_and_assert(check)
