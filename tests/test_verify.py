import inspect
import math

import numpy as np
import pytest

from minimax_gda import dynamics as dyn
from minimax_gda import harness
from minimax_gda import problems as prob
from minimax_gda import spectral as spec
from minimax_gda import verify
from minimax_gda.errors import InvalidInputError


class TestCorpus:
    def test_deterministic_and_filtered(self):
        a = verify.corpus_instances(5, start_seed=0)
        b = verify.corpus_instances(5, start_seed=0)
        assert [s for s, _ in a] == [s for s, _ in b]
        for _, p in a:
            assert prob.derive_constants(p).mu_x > 1e-3

    def test_mu_x_window(self):
        out = verify.corpus_instances(2, start_seed=0, min_mu_x=10.0, max_mu_x=60.0)
        for _, p in out:
            assert 10.0 < prob.derive_constants(p).mu_x < 60.0


class TestSuiteDispatch:
    def test_unknown_suite_rejected(self):
        with pytest.raises(InvalidInputError):
            verify.verify_suite("nope")

    def test_mux_zero_suite(self):
        results = verify.verify_suite("mux-zero", seed=0, budget=0.2)
        assert len(results) == 1
        assert results[0].passed
        payload = results[0].to_json_dict()
        assert payload["suite"] == "mux-zero"
        assert payload["checks"][0]["criterion"] == 7

    def test_lower_bounds_suite_small_budget(self):
        results = verify.verify_suite("lower-bounds", seed=0, budget=0.1)
        assert results[0].passed
        names = [c.name for c in results[0].checks]
        assert names == ["ratio_threshold_divergence", "rate_lower_bound"]

    def test_budget_one_runs_acceptance_calls(self, monkeypatch):
        # `verify all` at budget 1 calls every check with exactly the
        # arguments of tests/test_acceptance.py, compared after binding to
        # each signature (defaults filled in, generators by their state)
        calls = []

        def recorder(name):
            signature = inspect.signature(getattr(verify, name))

            def record(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = {
                    key: value.bit_generator.state
                    if isinstance(value, np.random.Generator) else value
                    for key, value in bound.arguments.items()
                }
                calls.append((name, arguments))
                if name == "corpus_instances":
                    return ("corpus", *arguments.values())
                return verify.CheckResult(criterion=0, name=name, passed=True)
            return record

        for name in ("corpus_instances", "check_spectral_bound",
                     "check_eigensolver_oracle", "check_ratio_threshold",
                     "check_rate_lower_bound", "check_rate_matches_prediction",
                     "check_complexity_scaling", "check_nearly_quadratic",
                     "check_sgda_floor", "check_mux_zero"):
            monkeypatch.setattr(verify, name, recorder(name))

        verify.verify_suite("all", seed=0, budget=1.0)
        suite_calls, calls[:] = list(calls), []

        # the acceptance tests' calls, in suite order (their corpus fixture
        # is drawn once per suite here)
        corpus = verify.corpus_instances(100, start_seed=0)
        verify.check_spectral_bound(corpus)
        verify.check_eigensolver_oracle(corpus, np.random.default_rng(1))
        verify.check_ratio_threshold(max_iters=100_000)
        verify.check_rate_lower_bound()
        corpus = verify.corpus_instances(100, start_seed=0)
        verify.check_rate_matches_prediction(corpus, max_iters=40_000)
        verify.check_complexity_scaling(seed=0, count=10)
        verify.check_nearly_quadratic(seed=0)
        verify.check_sgda_floor(seed=0, n_seeds=32)
        verify.check_mux_zero(seed=0)
        assert suite_calls == calls


class TestRatioThreshold:
    def test_certificate_failure_fails_check(self, contracting_hard_instance):
        check = verify.check_ratio_threshold(max_iters=2_000)
        assert not check.passed
        assert check.details["per_kappa"] == []
        assert check.details["failure"].startswith(
            "cell (kappa=2.0, r=1.0, eta_x=3.894e-04) contracted: ")

    def test_control_without_convergence_fails_check(self, monkeypatch):
        # the kappa = 2 control converges after 512 steps; 100 are too few
        monkeypatch.setattr(harness, "_CONTROL_MAX_ITERS", 100)
        check = verify.check_ratio_threshold(max_iters=100)
        assert not check.passed
        assert check.details["per_kappa"] == []
        assert check.details["failure"] == (
            "control cell (kappa=2.0, r=4.0) failed to converge: budget_exhausted")


@pytest.fixture
def short_floor_budget(monkeypatch):
    """Size every SGDA floor budget from a 160-step decay (210 steps in
    all), too short for the transient to decay."""
    monkeypatch.setattr(spec.SpectralReport, "predicted_iters",
                        lambda rep, eps, initial_distance=1.0: 160)


class TestSgdaFloor:
    def test_floor_below_bound_and_scales(self):
        check = verify.check_sgda_floor(seed=0, batches=(16, 256), n_seeds=4)
        assert check.passed and not check.inconclusive
        assert all(p["within_bound"] for p in check.details["points"])
        # quadrupling the batch twice halves the RMS floor twice (+-15%)
        assert check.details["slope"] == pytest.approx(-1.0, abs=0.15)

    def test_short_budget_inconclusive(self, short_floor_budget):
        check = verify.check_sgda_floor(seed=0, batches=(16, 64), n_seeds=2)
        assert check.details["max_iters"] == 210
        assert check.inconclusive
        assert not check.passed

    def test_inconclusive_floor_leaves_suite_passed(self, short_floor_budget):
        suite, = verify.verify_suite("sgda-floor", seed=0, budget=0.1)
        check, = suite.checks
        assert check.inconclusive and not check.passed
        assert suite.inconclusive
        assert suite.passed


class TestRateLowerBound:
    def test_criterion_parameters(self):
        check = verify.check_rate_lower_bound()
        d = check.details
        assert check.passed
        assert d["s1"] == pytest.approx(1 - (1 - 0.5 * math.sqrt(2.4)) / 32, abs=1e-12)
        assert d["s1"] == pytest.approx(0.99296, abs=1e-5)
        assert d["lower_bound"] == pytest.approx(0.9875)
        assert d["s1"] >= d["lower_bound"]
        assert d["max_step_deviation"] <= 1e-10
        assert d["total_decay_rel_error"] <= 1e-12


class TestMuxZero:
    def test_gap_below_eps(self):
        check = verify.check_mux_zero(seed=0)
        run = check.details["runs"]["0.01"]
        assert check.passed
        assert run["gap_ok"]
        assert run["final_gap"] <= 1e-2
        # R = 2*|x0 - x*| + 1 around the default initial point
        flat = prob.sample_instance(2, 2, 2.0, 1.0, 0, mu_x_zero=True)
        x0 = dyn.default_initial_point(flat, 0)[:flat.n]
        R = 2.0 * np.linalg.norm(x0 - flat.x_star) + 1.0
        assert run["delta"] == pytest.approx(1e-2 / R ** 2)

    def test_iterations_scale_with_eps(self):
        # growth compares the tenfold tighter target with the looser one
        check = verify.check_mux_zero(seed=0)
        runs = check.details["runs"]
        assert list(runs) == ["0.1", "0.01"]
        growth = runs["0.01"]["iterations"] / runs["0.1"]["iterations"]
        assert check.details["iteration_growth"] == [growth]
        assert 5.0 <= growth <= 20.0
        assert check.passed


class TestNonquadSweep:
    def test_guaranteed_cell_converges(self, small_instance, rng):
        dc = prob.derive_constants(small_instance)
        r = 2 * dc.kappa
        eta_x, _ = dyn.default_stepsizes(small_instance.L, r, dyn.Scheme.HALF)
        rep = spec.spectral_report(small_instance, r, eta_x, dyn.Scheme.HALF)
        threshold = dc.mu_x / (8 * rep.basis_cond)
        a = 0.99 * math.sqrt(2 * small_instance.n * threshold / small_instance.L)
        nq = prob.NonQuadraticProblem(base=small_instance, a=a,
                                      b=rng.standard_normal(small_instance.n))
        assert prob.nonquad_hessian_deviation(nq) <= threshold
        traj = dyn.run(nq, _half_gda_config(small_instance, r, 500_000))
        assert traj.status.kind is dyn.StatusKind.CONVERGED
        assert traj.final_distance() <= 1e-6 * small_instance.L
        assert traj.primal_gaps is None  # gradient-norm metric has no gap

    def test_zero_perturbation_matches_quadratic(self, small_instance, rng):
        # a = 0 degenerates the oracle to the base instance exactly
        nq = prob.NonQuadraticProblem(base=small_instance, a=0.0,
                                      b=np.zeros(small_instance.n))
        for _ in range(5):
            z = small_instance.z_star + rng.standard_normal(small_instance.dim)
            gx, gy = prob.nonquad_grad(nq, z)
            bx, by = prob.grad(small_instance, z)
            assert np.array_equal(gx, bx) and np.array_equal(gy, by)
        r = 2 * prob.derive_constants(small_instance).kappa
        traj = dyn.run(nq, _half_gda_config(small_instance, r, 300_000))
        assert traj.status.kind is dyn.StatusKind.CONVERGED


def _half_gda_config(problem, r, max_iters):
    """The config of a one-cell GDA sweep at ratio ``r`` under the half
    stepsizes, stopping at gradient norm ``1e-6 * L``."""
    eta_x, eta_y = dyn.default_stepsizes(problem.L, r, dyn.Scheme.HALF)
    return dyn.SolverConfig(algorithm=dyn.Algorithm.GDA, eta_x=eta_x,
                            eta_y=eta_y, max_iters=max_iters,
                            target_eps=1e-6 * problem.L)


class TestOracleHelpers:
    def test_closed_form_2x2(self):
        M = np.array([[2.0, -2.0], [4.0, -2.0]])
        lam = verify._closed_form_2x2(M)
        assert np.allclose(lam, [-2j, 2j])
