import io
import math

import numpy as np
import pytest

from minimax_gda import dynamics as dyn
from minimax_gda import harness
from minimax_gda import problems as prob
from minimax_gda import spectral as spec
from minimax_gda.errors import CertificateFailureError, InvalidInputError

GDA = dyn.Algorithm.GDA


def basic_spec(problem, ratios, T=200_000, eps=1e-6, **kw):
    return harness.ExperimentSpec(
        problem=problem, ratios=tuple(ratios), max_iters=T, target_eps=eps, **kw
    )


class TestRatioSweep:
    def test_single_cell(self, small_instance):
        dc = prob.derive_constants(small_instance)
        result = harness.ratio_sweep(basic_spec(small_instance, [2 * dc.kappa]))
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.status == "converged"
        assert cell.iters_to_eps > 0
        assert cell.final_distance <= 1e-6
        assert cell.final_gap is not None

    def test_default_ratio_set(self):
        assert harness.default_ratio_set(10.0) == (5.0, 20.0, 80.0, 200.0)

    def test_csv_bytes_reproducible(self, small_instance):
        dc = prob.derive_constants(small_instance)
        sweep_spec = basic_spec(small_instance, [2 * dc.kappa, 8 * dc.kappa],
                                T=50_000, seeds=(0, 1))
        outputs = []
        for _ in range(2):
            result = harness.ratio_sweep(sweep_spec)
            buf = io.StringIO()
            harness.write_sweep_csv(result, buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        header = outputs[0].splitlines()[0]
        assert header == "ratio,seed,algorithm,status,measured_rate,rho1,iters_to_eps,final_distance,final_gap"
        assert len(outputs[0].splitlines()) == 5

    def test_slow_ratio_takes_longer(self, small_instance):
        dc = prob.derive_constants(small_instance)
        result = harness.ratio_sweep(
            basic_spec(small_instance, [2 * dc.kappa, 2 * dc.kappa ** 2], T=2_000_000)
        )
        fast = result.cell(2 * dc.kappa)
        slow = result.cell(2 * dc.kappa ** 2)
        assert fast.status == slow.status == "converged"
        assert slow.iters_to_eps > fast.iters_to_eps

    def test_iterations_near_prediction(self, small_instance):
        dc = prob.derive_constants(small_instance)
        r = 2 * dc.kappa
        eta_x, _ = dyn.default_stepsizes(small_instance.L, r, dyn.Scheme.QUARTER)
        rep = spec.spectral_report(small_instance, r, eta_x)
        assert rep.diagonalizable
        result = harness.ratio_sweep(basic_spec(small_instance, [r], T=2_000_000))
        cell = result.cell(r)
        predicted = math.log(1e-6 / rep.basis_cond) / math.log(rep.rho1)
        assert predicted / 3 <= cell.iters_to_eps <= predicted * 3

    def test_sgda_cells_carry_noise(self, small_instance):
        dc = prob.derive_constants(small_instance)
        sweep_spec = basic_spec(
            small_instance, [2 * dc.kappa], T=2_000, eps=1e-12,
            algorithms=(dyn.Algorithm.SGDA,), noise=prob.NoiseModel(0.5, 8),
        )
        cell = harness.ratio_sweep(sweep_spec).cells[0]
        assert cell.status == "budget_exhausted"
        assert cell.final_distance > 1e-6  # noise floor keeps it away

    def test_error_cell_recorded(self, small_instance):
        dc = prob.derive_constants(small_instance)
        sweep_spec = basic_spec(
            small_instance, [2 * dc.kappa], T=100,
            algorithms=(dyn.Algorithm.SGDA,),  # no noise model: cell must error
        )
        cell = harness.ratio_sweep(sweep_spec).cells[0]
        assert cell.status.startswith("error: InvalidInputError: ")

    def test_non_library_error_propagates(self, small_instance, monkeypatch):
        def broken_run(problem, config, z0=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(dyn, "run", broken_run)
        dc = prob.derive_constants(small_instance)
        with pytest.raises(RuntimeError, match="boom"):
            harness.ratio_sweep(basic_spec(small_instance, [2 * dc.kappa], T=100))

    def test_below_threshold_ratio_sometimes_diverges(self):
        # sampling with mu_x computed after the fact (possibly zero) finds
        # cells that diverge at r = kappa/2
        found = False
        for seed in range(12):
            p = prob.sample_instance(4, 4, 100.0, 1.0, seed)
            dc = prob.derive_constants(p)
            result = harness.ratio_sweep(
                basic_spec(p, [dc.kappa / 2.0], T=30_000, seeds=(seed,))
            )
            if result.cells[0].status == "diverged":
                found = True
                break
        assert found


class TestDivergenceCertificate:
    def test_hard_instance_certified(self):
        cert = harness.divergence_certificate(
            [2.0], [2.0], eta_grid=np.logspace(-6, math.log10(0.5), 12),
            max_iters=3_000,
        )
        assert len(cert.cells) == 24
        assert all(c.outcome in ("diverged", "non_contracting") for c in cert.cells)
        assert cert.controls[0][3].startswith("converged")

    def test_convergent_cell_raises(self):
        # forcing the certified grid onto a proved-convergent ratio must fail
        with pytest.raises(CertificateFailureError):
            harness.divergence_certificate(
                [2.0], [2.0], eta_grid=np.logspace(-3, -1, 12),
                max_iters=20_000, ratios=(4.0,),
            )

    def test_kappa_below_two_rejected(self):
        with pytest.raises(InvalidInputError):
            harness.divergence_certificate([2.0], [1.5], max_iters=100)


class TestRateLowerBound:
    def test_criterion_parameters(self):
        report = harness.rate_lower_bound_check(2.0, 1.0, 0.1, 4.0)
        assert report.passed
        assert report.s1 == pytest.approx(1 - (1 - 0.5 * math.sqrt(2.4)) / 32, abs=1e-12)
        assert report.s1 == pytest.approx(0.99296, abs=1e-5)
        assert report.lower_bound == pytest.approx(0.9875)
        assert report.s1 >= report.lower_bound
        assert report.max_step_deviation <= 1e-10
        assert report.total_decay_rel_error <= 1e-12

    def test_complex_parameters_rejected(self):
        # (mu*r - L)^2 < 4 r mu mu_x
        with pytest.raises(InvalidInputError):
            harness.rate_lower_bound_check(2.0, 1.0, 1.0, 4.0)

    def test_small_ratio_rejected(self):
        with pytest.raises(InvalidInputError):
            harness.rate_lower_bound_check(2.0, 1.0, 0.1, 3.0)


@pytest.fixture(scope="module")
def floor_instance():
    seed = 0
    while True:
        p = prob.sample_instance(4, 4, 100.0, 1.0, seed)
        if 10.0 < prob.derive_constants(p).mu_x < 60.0:
            return p
        seed += 1


@pytest.fixture(scope="module")
def flat_instance():
    return prob.sample_instance(2, 2, 2.0, 1.0, 0, mu_x_zero=True)


class TestSgdaFloor:
    def test_floor_below_bound_and_scales(self, floor_instance):
        dc = prob.derive_constants(floor_instance)
        report = harness.sgda_floor_sweep(
            floor_instance, r=2 * dc.kappa, sigma=1.0,
            batch_list=(16, 256), seeds=range(4),
        )
        assert report.status == "pass"
        assert all(p.within_bound for p in report.points)
        # quadrupling the batch twice halves the RMS floor twice (+-15%)
        assert report.slope == pytest.approx(-1.0, abs=0.15)

    def test_sigma_zero_floor_at_precision(self, floor_instance):
        dc = prob.derive_constants(floor_instance)
        report = harness.sgda_floor_sweep(
            floor_instance, r=2 * dc.kappa, sigma=0.0,
            batch_list=(16, 64), seeds=range(2),
        )
        assert report.status == "pass"
        assert all(p.floor_ms <= 1e-20 for p in report.points)
        assert math.isnan(report.slope)

    def test_short_budget_inconclusive(self, floor_instance):
        dc = prob.derive_constants(floor_instance)
        report = harness.sgda_floor_sweep(
            floor_instance, r=2 * dc.kappa, sigma=1.0,
            batch_list=(16, 64), seeds=range(2), max_iters=200,
        )
        assert report.status == "inconclusive"

    def test_mu_x_zero_rejected(self):
        p = prob.sample_instance(2, 2, 2.0, 1.0, 0, mu_x_zero=True)
        with pytest.raises(InvalidInputError):
            harness.sgda_floor_sweep(p, r=4.0, sigma=1.0,
                                     batch_list=(16,), seeds=range(2))


class TestMuxZero:
    def test_gap_below_eps(self, flat_instance):
        report = harness.mux_zero_run(flat_instance, 1e-2, seed=0)
        assert report.converged
        assert report.gap_ok
        assert report.final_gap <= 1e-2
        assert report.delta == pytest.approx(1e-2 / report.radius_estimate ** 2)

    def test_iterations_scale_with_eps(self, flat_instance):
        r1 = harness.mux_zero_run(flat_instance, 1e-1, seed=0)
        r2 = harness.mux_zero_run(flat_instance, 1e-2, seed=0)
        growth = r2.iterations / r1.iterations
        assert 5.0 <= growth <= 20.0

    def test_start_at_optimum_converges_immediately(self, flat_instance):
        report = harness.mux_zero_run(flat_instance, 1e-2, seed=0,
                                      z0=flat_instance.z_star)
        assert report.iterations == 0 and report.converged

    def test_delta_above_L_rejected(self, flat_instance):
        # huge eps forces delta = eps/R^2 > L
        with pytest.raises(InvalidInputError):
            harness.mux_zero_run(flat_instance, 1e9, R=1.0)

    def test_positive_mu_x_rejected(self, small_instance):
        with pytest.raises(InvalidInputError):
            harness.mux_zero_run(small_instance, 1e-2)


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
        result = harness.nonquad_sweep(nq, ratios=(r,), max_iters=500_000)
        assert result.guaranteed[r]
        assert result.deviation[r] <= result.threshold[r]
        cell = result.sweep.cells[0]
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
        result = harness.nonquad_sweep(nq, ratios=(2 * dc.kappa,), max_iters=300_000)
        assert result.sweep.cells[0].status == "converged"
