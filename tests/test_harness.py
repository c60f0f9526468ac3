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
        fast, slow = result.cells
        assert fast.status == slow.status == "converged"
        assert slow.iters_to_eps > fast.iters_to_eps

    def test_iterations_near_prediction(self, small_instance):
        dc = prob.derive_constants(small_instance)
        r = 2 * dc.kappa
        eta_x, _ = dyn.default_stepsizes(small_instance.L, r, dyn.Scheme.QUARTER)
        rep = spec.spectral_report(small_instance, r, eta_x)
        assert rep.diagonalizable
        result = harness.ratio_sweep(basic_spec(small_instance, [r], T=2_000_000))
        cell, = result.cells
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

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_ratio_rejected_before_any_cell(self, small_instance, bad):
        with pytest.raises(InvalidInputError, match="positive and finite"):
            basic_spec(small_instance, [8.0, bad], T=100)

    def test_negative_max_iters_rejected_before_any_cell(self, small_instance):
        with pytest.raises(InvalidInputError, match="max_iters"):
            basic_spec(small_instance, [8.0], T=-5)

    @pytest.mark.parametrize("bad", [0.0, -1e-6, math.nan, math.inf])
    def test_bad_target_eps_rejected_before_any_cell(self, small_instance, bad):
        with pytest.raises(InvalidInputError, match="target_eps"):
            basic_spec(small_instance, [8.0], T=100, eps=bad)

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
            2.0, np.logspace(-6, math.log10(0.5), 12), max_iters=3_000,
        )
        assert len(cert.cells) == 24
        assert set(cert.cells) <= {"diverged", "non_contracting"}
        assert len(cert.controls) == 1
        assert cert.controls[0].startswith("converged")

    def test_convergent_cell_raises(self):
        # forcing the certified grid onto a proved-convergent ratio must fail
        with pytest.raises(CertificateFailureError, match=r"r=4\.0,"):
            harness.divergence_certificate(
                2.0, np.logspace(-3, -1, 12), max_iters=20_000, ratios=(4.0,),
            )

    def test_kappa_below_two_rejected(self):
        for kappa in (1.5, math.nan):
            with pytest.raises(InvalidInputError):
                harness.divergence_certificate(
                    kappa, np.logspace(-6, math.log10(0.5), 12), max_iters=100)


@pytest.fixture(scope="module")
def floor_instance():
    seed = 0
    while True:
        p = prob.sample_instance(4, 4, 100.0, 1.0, seed)
        if 10.0 < prob.derive_constants(p).mu_x < 60.0:
            return p
        seed += 1


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

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_sigma_not_positive_finite_rejected(self, floor_instance, sigma):
        dc = prob.derive_constants(floor_instance)
        with pytest.raises(InvalidInputError, match="sigma"):
            harness.sgda_floor_sweep(
                floor_instance, r=2 * dc.kappa, sigma=sigma,
                batch_list=(16, 64), seeds=range(2),
            )

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
