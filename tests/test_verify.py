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


class TestRateLowerBound:
    def test_criterion_parameters(self):
        check = verify.check_rate_lower_bound(2.0, 1.0, 0.1, 4.0)
        d = check.details
        assert check.passed
        assert d["s1"] == pytest.approx(1 - (1 - 0.5 * math.sqrt(2.4)) / 32, abs=1e-12)
        assert d["s1"] == pytest.approx(0.99296, abs=1e-5)
        assert d["lower_bound"] == pytest.approx(0.9875)
        assert d["s1"] >= d["lower_bound"]
        assert d["max_step_deviation"] <= 1e-10
        assert d["total_decay_rel_error"] <= 1e-12

    def test_complex_parameters_rejected(self):
        # (mu*r - L)^2 < 4 r mu mu_x
        with pytest.raises(InvalidInputError):
            verify.check_rate_lower_bound(2.0, 1.0, 1.0, 4.0)

    def test_small_ratio_rejected(self):
        with pytest.raises(InvalidInputError):
            verify.check_rate_lower_bound(2.0, 1.0, 0.1, 3.0)


class TestMuxZero:
    def test_gap_below_eps(self):
        check = verify.check_mux_zero(seed=0, eps_values=(1e-2,))
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
        # runs keep the input order; growth compares descending eps
        check = verify.check_mux_zero(seed=0, eps_values=(1e-2, 1e-1))
        runs = check.details["runs"]
        assert list(runs) == ["0.01", "0.1"]
        growth = runs["0.01"]["iterations"] / runs["0.1"]["iterations"]
        assert check.details["iteration_growth"] == [growth]
        assert 5.0 <= growth <= 20.0
        assert check.passed

    def test_delta_above_L_rejected(self):
        # huge eps forces delta = eps/R^2 > L
        with pytest.raises(InvalidInputError):
            verify.check_mux_zero(eps_values=(1e9,))


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
        assert prob.nonquad_hessian_deviation(nq).delta_r(r) <= threshold
        cell = harness.ratio_sweep(harness.ExperimentSpec(
            problem=nq, ratios=(r,), max_iters=500_000,
            target_eps=1e-6 * small_instance.L, scheme=dyn.Scheme.HALF,
        )).cells[0]
        assert cell.status == "converged"
        assert cell.final_distance <= 1e-6 * small_instance.L
        assert cell.final_gap is None  # gradient-norm metric has no gap column

    def test_zero_perturbation_matches_quadratic(self, small_instance, rng):
        # a = 0 degenerates the oracle to the base instance exactly
        nq = prob.NonQuadraticProblem(base=small_instance, a=0.0,
                                      b=np.zeros(small_instance.n))
        for _ in range(5):
            z = small_instance.z_star + rng.standard_normal(small_instance.dim)
            gx, gy = prob.nonquad_grad(nq, z)
            bx, by = prob.grad(small_instance, z)
            assert np.array_equal(gx, bx) and np.array_equal(gy, by)
        dc = prob.derive_constants(small_instance)
        cell = harness.ratio_sweep(harness.ExperimentSpec(
            problem=nq, ratios=(2 * dc.kappa,), max_iters=300_000,
            target_eps=1e-6 * small_instance.L, scheme=dyn.Scheme.HALF,
        )).cells[0]
        assert cell.status == "converged"


class TestOracleHelpers:
    def test_closed_form_2x2(self):
        M = np.array([[2.0, -2.0], [4.0, -2.0]])
        lam = verify._closed_form_2x2(M)
        assert np.allclose(lam, [-2j, 2j])
