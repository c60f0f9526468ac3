import dataclasses
import json
import math

import numpy as np
import pytest

from minimax_gda import dynamics as dyn
from minimax_gda import problems as prob
from minimax_gda import spectral as spec
from minimax_gda.errors import InvalidInputError

QUARTER = dyn.Scheme.QUARTER
HALF = dyn.Scheme.HALF


def corpus(count, min_mu_x=1e-3, L=100.0, mu=1.0):
    out = []
    seed = 0
    while len(out) < count:
        p = prob.sample_instance(4, 4, L, mu, seed)
        if prob.derive_constants(p).mu_x > min_mu_x:
            out.append(p)
        seed += 1
    return out


class TestSpectralReport:
    def test_threshold_instance_at_critical_ratio(self):
        p = prob.hard_ratio_instance(2.0, 1.0)
        rep = spec.spectral_report(p, 2.0, 1.0 / 16)
        assert np.allclose(np.sort_complex(rep.eigenvalues), [-2j, 2j], atol=1e-10)
        assert rep.rho1 == pytest.approx(math.sqrt(1 + (2.0 / 16) ** 2), abs=1e-12)
        assert rep.rho1 > 1.0

    def test_rate_instance_radii(self):
        p = prob.hard_rate_instance(2.0, 1.0, 1.0)
        rep = spec.spectral_report(p, 4.0, 1.0 / 32)
        assert np.allclose(
            np.sort_complex(rep.eigenvalues),
            [complex(-1, -math.sqrt(3)), complex(-1, math.sqrt(3))],
            atol=1e-10,
        )
        assert rep.rho1 == pytest.approx(math.sqrt((31 / 32) ** 2 + 3 / 1024), abs=1e-12)
        assert rep.rho1 == pytest.approx(0.97026, abs=2e-5)
        # kappa_x = 2, so the proved quarter-scheme bound is 1 - 1/512
        assert rep.rho_bound == pytest.approx(1 - 1 / 512)
        assert rep.rho1 <= rep.rho_bound

    def test_primal_concave_flagged_nonconvergent(self):
        p = prob.QuadraticProblem(
            A=np.eye(2), B=np.zeros((2, 2)), C=-0.5 * np.eye(2),
            x_star=np.zeros(2), y_star=np.zeros(2), L=2.0, mu=1.0,
        )
        rep = spec.spectral_report(p, 4.0, 1.0 / 32)
        assert np.max(rep.eigenvalues.real) == pytest.approx(0.5)
        assert rep.rho1 > 1.0

    def test_scheme_constant(self):
        p = prob.hard_rate_instance(2.0, 1.0, 1.0)
        q = spec.spectral_report(p, 4.0, 1.0 / 32, QUARTER)
        h = spec.spectral_report(p, 4.0, 1.0 / 16, HALF)
        assert q.rate_constant == 64 and h.rate_constant == 16
        assert h.rho_bound == pytest.approx(1 - 1 / (16 * 4 * 2))

    def test_defective_transition_not_diagonalizable(self):
        # discriminant zero gives a double eigenvalue with a Jordan block
        p = prob.hard_rate_instance(2.0, 1.0, 0.25)
        rep = spec.spectral_report(p, 4.0, 1.0 / 32)
        assert not rep.diagonalizable
        assert rep.basis_cond is None

    def test_predicted_iters(self, reference_instance):
        dc = prob.derive_constants(reference_instance)
        r = 2 * dc.kappa
        eta_x, _ = dyn.default_stepsizes(reference_instance.L, r, QUARTER)
        rep = spec.spectral_report(reference_instance, r, eta_x)
        T = rep.predicted_iters(1e-6, initial_distance=1.0)
        assert T > 0
        assert spec.power_bound(T, 1, rep.basis_cond, rep.rho1) <= 1e-6
        assert spec.power_bound(T - 1, 1, rep.basis_cond, rep.rho1) > 1e-6

    def test_predicted_iters_overflow_is_inf(self, reference_instance):
        # a radius one ulp below 1 needs more than 2**62 steps to reach 1e-300
        dc = prob.derive_constants(reference_instance)
        r = 2 * dc.kappa
        eta_x, _ = dyn.default_stepsizes(reference_instance.L, r)
        rep = spec.spectral_report(reference_instance, r, eta_x)
        slow = dataclasses.replace(rep, rho1=np.nextafter(1.0, 0.0))
        assert slow.predicted_iters(1e-300) == math.inf

    def test_eg_selector_accepts_enum_and_name(self, reference_instance):
        dc = prob.derive_constants(reference_instance)
        r = 2 * dc.kappa
        eta_x, _ = dyn.default_stepsizes(reference_instance.L, r)
        rep = spec.spectral_report(reference_instance, r, eta_x)
        EG = dyn.Algorithm.EG
        assert rep.predicted_iters(1e-6, algorithm=EG) == \
            rep.predicted_iters(1e-6, algorithm="eg")
        assert rep.dominant_modulus_gap(EG) == rep.dominant_modulus_gap("eg")
        # the EG answers differ from the GDA ones, so a wrong selector shows
        assert rep.predicted_iters(1e-6, algorithm=EG) != rep.predicted_iters(1e-6)
        assert rep.dominant_modulus_gap(EG) != rep.dominant_modulus_gap("gda")
        with pytest.raises(InvalidInputError):
            rep.dominant_modulus_gap("adam")
        with pytest.raises(InvalidInputError):
            rep.predicted_iters(1e-6, algorithm="adam")

    def test_report_json_stable_names(self):
        p = prob.hard_rate_instance(2.0, 1.0, 1.0)
        rep = spec.spectral_report(p, 4.0, 1.0 / 32)
        payload = json.loads(json.dumps(spec.report_to_json_dict(rep)))
        for key in ("eigenvalues", "rho1", "rho2", "rho_bound", "lemma_checks",
                    "diagonalizable", "basis_cond", "s_assumed", "kappa_x"):
            assert key in payload
        assert payload["eigenvalues"][0] == [
            pytest.approx(-1.0), pytest.approx(-math.sqrt(3)),
        ]


class TestLemmaChecks:
    def test_corpus_all_pass(self):
        for p in corpus(30):
            dc = prob.derive_constants(p)
            r = 2 * dc.kappa
            eta_x, _ = dyn.default_stepsizes(p.L, r, QUARTER)
            rep = spec.spectral_report(p, r, eta_x)
            assert all(c.passed for c in rep.lemma_checks)
            applicable = [c for c in rep.lemma_checks if c.applicable]
            assert len(applicable) == 5  # mu_x > 0 and r > kappa: all live

    def test_item3_hard_ratio(self):
        p = prob.hard_ratio_instance(2.0, 1.0)
        rep = spec.spectral_report(p, 2.0, 1.0 / 16)
        item3 = rep.lemma_checks[2]
        assert item3.applicable and item3.passed
        radius_sq = max(abs(l) ** 2 for l in rep.eigenvalues)
        assert radius_sq == pytest.approx(4.0, abs=1e-9)
        assert 4.0 <= rep.M_norm ** 2 <= 4 * 2 ** 2 * 2 ** 2

    def test_item1_hard_ratio(self):
        p = prob.hard_ratio_instance(2.0, 1.0)
        rep = spec.spectral_report(p, 2.0, 1.0 / 16)
        item1 = rep.lemma_checks[0]
        assert item1.passed
        # |imag| = 2 <= sqrt(2)*2
        assert item1.margin == pytest.approx(math.sqrt(2) * 2 - 2, abs=1e-9)

    def test_below_kappa_items_not_applicable(self):
        p = prob.hard_ratio_instance(2.0, 1.0)
        rep = spec.spectral_report(p, 1.0, 1.0 / 16)
        by_item = {c.item: c for c in rep.lemma_checks}
        assert not by_item[2].applicable
        assert not by_item[4].applicable
        assert not by_item[5].applicable

    def test_radius_below_operator_norm_and_2rL(self):
        for p in corpus(10):
            dc = prob.derive_constants(p)
            for r in (2 * dc.kappa, 2 * dc.kappa ** 2):
                M = dyn.build_M(p, r)
                lam = np.linalg.eigvals(M)
                from minimax_gda.linalg import spectral_norm
                nm = spectral_norm(M)
                assert np.max(np.abs(lam)) <= nm * (1 + 1e-12)
                assert nm <= 2 * r * p.L * (1 + 1e-12)


class TestPowerBound:
    def test_diagonalizable_case(self):
        assert spec.power_bound(10, 1, 3.0, 0.9) == pytest.approx(3.0 * 0.9 ** 10)

    def test_jordan_case_value(self):
        assert spec.power_bound(10, 2, 1.0, 0.9) == pytest.approx(2 * 10 * 0.9 ** 9)
        assert spec.power_bound(10, 2, 1.0, 0.9) == pytest.approx(7.7484, abs=1e-4)

    def test_jordan_block_power_oracle(self):
        rho = 0.9
        J = np.array([[rho, 1.0], [0.0, rho]])
        P = np.eye(2)
        for k in range(2, 201):
            norm = np.linalg.norm(np.linalg.matrix_power(J, k), 2)
            assert norm <= spec.power_bound(k, 2, 1.0, rho) * (1 + 1e-12)

    def test_invalid_rho(self):
        with pytest.raises(InvalidInputError):
            spec.power_bound(10, 1, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            spec.power_bound(0, 2, 1.0, 0.9)


class TestClassifyRatio:
    def test_boundaries(self):
        kappa = 7.0
        assert spec.classify_ratio(kappa, kappa) is spec.RatioClass.BELOW_THRESHOLD
        assert spec.classify_ratio(2 * kappa, kappa) is spec.RatioClass.PROVED_CONVERGENT
        assert spec.classify_ratio(1.5 * kappa, kappa) is spec.RatioClass.GAP


class TestPredictedFloor:
    def test_zero_sigma(self):
        assert spec.predicted_floor_sgda(200, 2, 3, 0.0, 100, 256) == 0.0

    def test_halves_with_batch(self):
        a = spec.predicted_floor_sgda(200, 2, 3, 1.0, 100, 128)
        b = spec.predicted_floor_sgda(200, 2, 3, 1.0, 100, 256)
        assert a == pytest.approx(2 * b)

    def test_arithmetic_example(self):
        val = spec.predicted_floor_sgda(200, 2, 3, 1.0, 100, 256)
        assert val == pytest.approx(8 * 200 * 2 * 9 / (1e4 * 256))
        assert val == pytest.approx(0.01125)


class TestBoundOnCorpus:
    def test_radius_bound_three_ratios(self):
        for p in corpus(15):
            dc = prob.derive_constants(p)
            for r in (2 * dc.kappa, 4 * dc.kappa, 2 * dc.kappa ** 2):
                eta_x, _ = dyn.default_stepsizes(p.L, r, QUARTER)
                rep = spec.spectral_report(p, r, eta_x)
                assert max(rep.rho1, rep.rho2) <= rep.rho_bound + 1e-9

    def test_radii_below_crude_norm_bounds(self):
        for p in corpus(5):
            dc = prob.derive_constants(p)
            r = 2 * dc.kappa
            eta_x, _ = dyn.default_stepsizes(p.L, r, QUARTER)
            rep = spec.spectral_report(p, r, eta_x)
            crude = eta_x * rep.M_norm
            assert rep.rho1 <= 1 + crude + 1e-12
            assert rep.rho2 <= 1 + crude + crude ** 2 + 1e-12
