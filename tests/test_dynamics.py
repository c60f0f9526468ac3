import csv
import dataclasses
import io
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minimax_gda import dynamics as dyn
from minimax_gda import problems as prob
from minimax_gda.errors import InsufficientDataError, InvalidInputError

QUARTER = dyn.Scheme.QUARTER
GDA = dyn.Algorithm.GDA
EG = dyn.Algorithm.EG
SGDA = dyn.Algorithm.SGDA


def config(alg=GDA, eta_x=1e-3, r=2.0, T=100, eps=1e-300, **kw):
    return dyn.SolverConfig(
        algorithm=alg, eta_x=eta_x, eta_y=r * eta_x, max_iters=T,
        target_eps=eps, **kw,
    )


def matrix_power_course(T_mat, w0, steps):
    """Independent trajectory oracle: explicit repeated matrix application."""
    out = [w0.copy()]
    w = w0.copy()
    for _ in range(steps):
        w = T_mat @ w
        out.append(w.copy())
    return np.array(out)


class TestBuildM:
    def test_hard_ratio_blocks(self):
        p = prob.hard_ratio_instance(2.0, 1.0)
        assert np.array_equal(dyn.build_M(p, 2.0), [[2.0, -2.0], [4.0, -2.0]])

    def test_zero_coupling_block_diagonal(self, small_instance):
        p = prob.QuadraticProblem(
            A=small_instance.A, B=np.zeros_like(small_instance.B),
            C=small_instance.C, x_star=small_instance.x_star,
            y_star=small_instance.y_star, L=small_instance.L, mu=small_instance.mu,
        )
        r = 3.0
        M = dyn.build_M(p, r)
        lam = np.linalg.eigvals(M)
        assert np.max(np.abs(lam.imag)) <= 1e-12
        expected = np.concatenate([
            np.linalg.eigvalsh(-p.C), np.linalg.eigvalsh(-r * p.A)
        ])
        assert np.allclose(np.sort(lam.real), np.sort(expected), atol=1e-9)

    def test_delta_shifts_top_left(self, small_instance):
        n = small_instance.n
        M0 = dyn.build_M(small_instance, 2.0)
        M1 = dyn.build_M(prob.regularize(small_instance, 0.3), 2.0)
        assert np.allclose(M1[:n, :n], M0[:n, :n] - 0.3 * np.eye(n))
        assert np.array_equal(M1[:n, n:], M0[:n, n:])
        assert np.array_equal(M1[n:, :], M0[n:, :])

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
    def test_ratio_not_positive_finite_rejected(self, small_instance, r):
        with pytest.raises(InvalidInputError, match="r must be positive and finite"):
            dyn.build_M(small_instance, r)


class TestDefaultStepsizes:
    def test_quarter_values(self):
        ex, ey = dyn.default_stepsizes(100.0, 200.0, QUARTER)
        assert ex == pytest.approx(1.25e-5)
        assert ey == pytest.approx(2.5e-3)

    def test_half_doubles_quarter(self):
        q = dyn.default_stepsizes(100.0, 200.0, QUARTER)
        h = dyn.default_stepsizes(100.0, 200.0, dyn.Scheme.HALF)
        assert h[0] == pytest.approx(2 * q[0]) and h[1] == pytest.approx(2 * q[1])

    def test_eta_y_independent_of_r(self):
        assert dyn.default_stepsizes(10.0, 5.0)[1] == dyn.default_stepsizes(10.0, 500.0)[1]

    def test_ratio_exact(self):
        for r in (3.0, 200.0, 1.7e4):
            ex, ey = dyn.default_stepsizes(100.0, r)
            assert ey / ex == pytest.approx(r, rel=1e-12)


class TestSteppers:
    def test_gda_fixed_point(self, reference_instance):
        oracle = dyn.make_oracle(reference_instance)
        z = reference_instance.z_star.copy()
        assert np.allclose(dyn.gda_step(oracle, z, 1e-3, 2e-3), z, atol=1e-14)

    def test_gda_matches_transition_matrix_scalar(self):
        # 1-D rate instance, r=4, eta_x=1/32: the x block grows since the
        # primal curvature alone is concave there
        p = prob.hard_rate_instance(2.0, 1.0, 1.0)
        oracle = dyn.make_oracle(p)
        z = np.array([1.0, 0.0])
        z1 = dyn.gda_step(oracle, z, 1.0 / 32, 4.0 / 32)
        expected = np.array([1.0 + 2.0 / 32, (4.0 / 32) * math.sqrt(3.0)])
        assert np.allclose(z1, expected, atol=1e-15)
        M = dyn.build_M(p, 4.0)
        assert np.allclose(z1, (np.eye(2) + M / 32) @ z, atol=1e-15)

    def test_gda_iterates_match_matrix_power(self, reference_instance, rng):
        p = reference_instance
        eta_x, eta_y = dyn.default_stepsizes(p.L, 200.0, QUARTER)
        oracle = dyn.make_oracle(p)
        T_mat = np.eye(p.dim) + eta_x * dyn.build_M(p, eta_y / eta_x)
        z = p.z_star + rng.standard_normal(p.dim)
        course = matrix_power_course(T_mat, z - p.z_star, 100)
        for k in range(100):
            z = dyn.gda_step(oracle, z, eta_x, eta_y)
            ref = course[k + 1]
            assert np.linalg.norm(z - p.z_star - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_eg_fixed_point_and_matrix(self, reference_instance, rng):
        p = reference_instance
        oracle = dyn.make_oracle(p)
        assert np.allclose(
            dyn.eg_step(oracle, p.z_star.copy(), 1e-3, 2e-3), p.z_star, atol=1e-14
        )
        eta_x, eta_y = dyn.default_stepsizes(p.L, 200.0, QUARTER)
        M = dyn.build_M(p, eta_y / eta_x)
        T_mat = np.eye(p.dim) + eta_x * M + (eta_x * M) @ (eta_x * M)
        z = p.z_star + rng.standard_normal(p.dim)
        z1 = dyn.eg_step(oracle, z, eta_x, eta_y)
        assert np.allclose(z1 - p.z_star, T_mat @ (z - p.z_star), atol=1e-12)

    def test_eg_scalar_example(self):
        p = prob.hard_rate_instance(2.0, 1.0, 1.0)
        oracle = dyn.make_oracle(p)
        M = dyn.build_M(p, 4.0)
        ex = 1.0 / 32
        T_mat = np.eye(2) + ex * M + (ex * M) @ (ex * M)
        z1 = dyn.eg_step(oracle, np.array([1.0, 0.0]), ex, 4 * ex)
        assert np.allclose(z1, T_mat @ [1.0, 0.0], atol=1e-15)

    def test_noisy_nonquad_oracle_noise(self, reference_instance, rng):
        # the non-quadratic oracle adds the quadratic oracle's noise: same
        # scale, same draws, x block first
        base = reference_instance
        nq = prob.NonQuadraticProblem(base=base, a=1.3, b=rng.standard_normal(base.n))
        noise = prob.NoiseModel(sigma=2.0, batch=4)
        oracle = dyn.make_oracle(nq, noise)
        for z in (base.z_star + rng.standard_normal(base.dim),
                  np.concatenate([nq.b, rng.standard_normal(base.m)])):
            gx, gy = oracle(z, np.random.default_rng(5))
            sx, sy = prob.stochastic_grad(base, z, noise, np.random.default_rng(5))
            ex, ey = prob.nonquad_grad(nq, z)
            bx, by = prob.grad(base, z)
            scale = np.abs(np.concatenate([gx, sx, ex, bx])).max()
            np.testing.assert_allclose(gx - ex, sx - bx, rtol=0, atol=1e-14 * scale)
            assert np.array_equal(gy - ey, sy - by)
        # at x = b the perturbation's gradient vanishes: both oracles agree exactly
        assert np.array_equal(gx, sx)

    @pytest.mark.parametrize("alg", [SGDA, EG])
    def test_noise_response_is_the_gain(self, reference_instance, alg):
        # one step from z* whose draws are the unit vector e_i (x block
        # first, EG's half step before its full step) moves z by column i
        # of linear_system's G: a step's noise response is G xi, so G G' is
        # the exact covariance of one step
        p = reference_instance
        noise = prob.NoiseModel(2.0, 4)
        eta_x, eta_y = dyn.default_stepsizes(p.L, 20.0)
        _, G = dyn.linear_system(p, dyn.SolverConfig(
            algorithm=alg, eta_x=eta_x, eta_y=eta_y, max_iters=1, target_eps=1.0,
            noise=noise))
        oracle = dyn.make_oracle(p, noise)
        step = dyn.eg_step if alg is EG else dyn.gda_step
        response = np.empty_like(G)
        for i, unit in enumerate(np.eye(G.shape[1])):
            draws = UnitDraws(unit)
            response[:, i] = step(oracle, p.z_star, eta_x, eta_y, draws) - p.z_star
            assert len(draws.left) == 0
        # z* = 0 on this instance, so the step is the response itself
        assert not p.z_star.any()
        np.testing.assert_allclose(response, G, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(response @ response.T, G @ G.T, rtol=1e-12, atol=0.0)


class UnitDraws:
    """A generator stub: ``standard_normal(k)`` hands out the next ``k``
    entries of a fixed vector."""

    def __init__(self, values):
        self.left = values

    def standard_normal(self, size):
        out, self.left = self.left[:size], self.left[size:]
        return out


class TestRun:
    def test_start_at_optimum_converges_immediately(self, reference_instance):
        traj = dyn.run(reference_instance, config(T=10, eps=1e-8),
                       z0=reference_instance.z_star)
        assert traj.status == dyn.Status(dyn.StatusKind.CONVERGED, 0)
        assert len(traj.distances) == 1

    def test_exact_run_equals_matrix_power(self, reference_instance, rng):
        p = reference_instance
        eta_x, eta_y = dyn.default_stepsizes(p.L, 200.0, QUARTER)
        cfg = dyn.SolverConfig(algorithm=GDA, eta_x=eta_x, eta_y=eta_y,
                               max_iters=1000, target_eps=1e-300)
        z0 = p.z_star + rng.standard_normal(p.dim)
        traj = dyn.run(p, cfg, z0=z0)
        T_mat = np.eye(p.dim) + eta_x * dyn.build_M(p, eta_y / eta_x)
        course = matrix_power_course(T_mat, z0 - p.z_star, 1000)
        ref = np.linalg.norm(course, axis=1)
        assert np.allclose(traj.distances, ref, rtol=1e-9)

    def test_eg_run_equals_matrix_power(self, reference_instance, rng):
        p = reference_instance
        eta_x, eta_y = dyn.default_stepsizes(p.L, 200.0, QUARTER)
        cfg = dyn.SolverConfig(algorithm=EG, eta_x=eta_x, eta_y=eta_y,
                               max_iters=500, target_eps=1e-300)
        z0 = p.z_star + rng.standard_normal(p.dim)
        traj = dyn.run(p, cfg, z0=z0)
        M = dyn.build_M(p, eta_y / eta_x)
        T_mat = np.eye(p.dim) + eta_x * M + (eta_x * M) @ (eta_x * M)
        course = matrix_power_course(T_mat, z0 - p.z_star, 500)
        assert np.allclose(traj.distances, np.linalg.norm(course, axis=1), rtol=1e-9)

    def test_oracle_path_agrees_with_lti_path(self, reference_instance, rng):
        # the stochastic stepper at sigma -> 0+ must follow the exact path
        p = reference_instance
        eta_x, eta_y = dyn.default_stepsizes(p.L, 200.0, QUARTER)
        z0 = p.z_star + rng.standard_normal(p.dim)
        exact = dyn.run(p, config(T=200, eta_x=eta_x, r=200.0), z0=z0)
        noisy = dyn.run(
            p,
            config(alg=SGDA, T=200, eta_x=eta_x, r=200.0,
                   noise=prob.NoiseModel(1e-14, 1)),
            z0=z0,
        )
        assert np.allclose(exact.distances, noisy.distances, rtol=1e-6)

    def test_eg_sigma_zero_matches_deterministic(self, reference_instance, rng):
        p = reference_instance
        z0 = p.z_star + rng.standard_normal(p.dim)
        eta_x, eta_y = dyn.default_stepsizes(p.L, 200.0, QUARTER)
        exact = dyn.run(p, config(alg=EG, T=300, eta_x=eta_x, r=200.0, seed=2),
                        z0=z0)
        degenerate = dyn.run(
            p,
            config(alg=EG, T=300, eta_x=eta_x, r=200.0, seed=2,
                   noise=prob.NoiseModel(0.0, 16)),
            z0=z0,
        )
        assert np.array_equal(exact.distances, degenerate.distances)

    def test_sgda_sigma_zero_bit_for_bit(self, reference_instance, rng):
        p = reference_instance
        z0 = p.z_star + rng.standard_normal(p.dim)
        eta_x, eta_y = dyn.default_stepsizes(p.L, 200.0, QUARTER)
        a = dyn.run(p, config(T=500, eta_x=eta_x, r=200.0, seed=9), z0=z0)
        b = dyn.run(
            p,
            config(alg=SGDA, T=500, eta_x=eta_x, r=200.0, seed=9,
                   noise=prob.NoiseModel(0.0, 8)),
            z0=z0,
        )
        assert np.array_equal(a.distances, b.distances)
        assert np.array_equal(a.final_z, b.final_z)

    def test_deterministic_given_seed(self, reference_instance):
        p = reference_instance
        cfg = config(alg=SGDA, T=300, eta_x=1e-4, r=200.0, seed=5,
                     noise=prob.NoiseModel(0.5, 4))
        a = dyn.run(p, cfg)
        b = dyn.run(p, cfg)
        assert np.array_equal(a.distances, b.distances)
        assert a.status == b.status

    def test_hard_ratio_never_contracts(self):
        # sound divergence witness: the root-sum-square of basis-initialized
        # trajectories equals the Frobenius norm of the transition power,
        # which spectral-radius growth keeps at or above 1
        p = prob.hard_ratio_instance(2.0, 1.0)
        kappa = 2.0
        for r in (kappa / 2.0, kappa):
            for eta_x in np.logspace(-6, 0, 12):
                courses = []
                diverged = False
                for i in range(2):
                    e = np.zeros(2)
                    e[i] = 1.0
                    traj = dyn.run(
                        p, config(eta_x=eta_x, r=r, T=2000),
                        z0=p.z_star + e,
                    )
                    if traj.status.kind is dyn.StatusKind.DIVERGED:
                        diverged = True
                        break
                    courses.append(traj.distances)
                    # a single trajectory must never head to the optimum
                    assert traj.distances.min() >= 0.01
                if diverged:
                    continue
                rss = np.sqrt(np.sum(np.square(courses), axis=0))
                assert rss.min() >= 1.0 - 1e-9

    def test_converges_at_proved_ratio_with_proved_rate(self, reference_instance):
        p = reference_instance
        dc = prob.derive_constants(p)
        r = 2.0 * dc.kappa
        eta_x, eta_y = dyn.default_stepsizes(p.L, r, QUARTER)
        cfg = dyn.SolverConfig(algorithm=GDA, eta_x=eta_x, eta_y=eta_y,
                               max_iters=2_000_000, target_eps=1e-8)
        traj = dyn.run(p, cfg)
        assert traj.status.kind is dyn.StatusKind.CONVERGED
        rate = dyn.estimate_rate(traj)
        assert rate <= 1.0 - 1.0 / (64.0 * r * dc.kappa_x) + 1e-9

    def test_divergence_classified(self):
        p = prob.hard_ratio_instance(2.0, 1.0)
        traj = dyn.run(p, config(eta_x=0.5, r=1.0, T=100_000))
        assert traj.status.kind is dyn.StatusKind.DIVERGED
        assert traj.distances[-1] >= dyn.DIVERGENCE_FACTOR * traj.distances[0] \
            or math.isinf(traj.distances[-1])

    def test_status_step_consistent_with_distances(self, reference_instance):
        # converged(k) means the measure at iteration k sits at or below eps
        p = reference_instance
        eta_x, eta_y = dyn.default_stepsizes(p.L, 200.0, QUARTER)
        cfg = dyn.SolverConfig(algorithm=GDA, eta_x=eta_x, eta_y=eta_y,
                               max_iters=2_000_000, target_eps=1e-7)
        traj = dyn.run(p, cfg)
        assert traj.status.kind is dyn.StatusKind.CONVERGED
        assert traj.iters[-1] == traj.status.step
        assert traj.distances[-1] <= cfg.target_eps
        assert traj.distances[-2] > cfg.target_eps

    def test_nan_classified_diverged(self):
        # stepsize large enough to overflow in one step
        p = prob.hard_ratio_instance(1e150, 1e149)
        traj = dyn.run(p, config(eta_x=1e160, r=1.0, T=1000))
        assert traj.status.kind is dyn.StatusKind.DIVERGED
        assert math.isinf(traj.distances[-1])

    def test_strided_recording(self, reference_instance, monkeypatch):
        monkeypatch.setattr(dyn, "TRAJECTORY_STORAGE_CAP", 100)
        traj = dyn.run(reference_instance, config(T=1000, eta_x=1e-6, r=2.0))
        assert len(traj.distances) <= 102
        assert traj.iters[-1] == 1000
        strides = np.diff(traj.iters)
        assert np.all(strides[:-1] == strides[0])

    def test_nonquad_uses_gradient_norm(self, small_instance, rng):
        nq = prob.NonQuadraticProblem(
            base=small_instance, a=0.5, b=rng.standard_normal(small_instance.n)
        )
        dc = prob.derive_constants(small_instance)
        r = 2.0 * dc.kappa
        eta_x, eta_y = dyn.default_stepsizes(small_instance.L, r, dyn.Scheme.HALF)
        cfg = dyn.SolverConfig(algorithm=GDA, eta_x=eta_x, eta_y=eta_y,
                               max_iters=500_000, target_eps=1e-8)
        traj = dyn.run(nq, cfg)
        assert traj.metric == "grad_norm"
        assert traj.status.kind is dyn.StatusKind.CONVERGED
        gx, gy = prob.nonquad_grad(nq, traj.final_z)
        assert math.hypot(np.linalg.norm(gx), np.linalg.norm(gy)) <= 1e-8

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            dyn.SolverConfig(algorithm=SGDA, eta_x=1e-3, eta_y=2e-3,
                             max_iters=10, target_eps=1e-6)  # no noise model
        with pytest.raises(InvalidInputError):
            dyn.SolverConfig(algorithm=GDA, eta_x=1e-3, eta_y=2e-3,
                             max_iters=10, target_eps=1e-6,
                             noise=prob.NoiseModel(1.0, 1))
        with pytest.raises(InvalidInputError):
            dyn.SolverConfig(algorithm=GDA, eta_x=-1e-3, eta_y=2e-3,
                             max_iters=10, target_eps=1e-6)
        # NaN and inf pass a check written as "x <= 0"; a count must be
        # integral
        kw = dict(algorithm=GDA, eta_x=1e-3, eta_y=2e-3, max_iters=10,
                  target_eps=1e-6)
        for bad in ({"eta_x": math.nan}, {"eta_x": math.inf}, {"eta_y": math.inf},
                    {"target_eps": math.nan}, {"target_eps": math.inf},
                    {"max_iters": -1}, {"max_iters": 100.5}, {"max_iters": math.inf},
                    {"max_iters": math.nan}, {"max_iters": "100"},
                    {"seed": -1}, {"seed": 1.5}, {"seed": math.nan}, {"seed": "3"},
                    {"seed": None}, {"algorithm": "adam"}, {"algorithm": "sgda"}):
            with pytest.raises(InvalidInputError):
                dyn.SolverConfig(**{**kw, **bad})
        for count in (100, 100.0, np.int64(100), np.float64(100.0)):
            cfg = dyn.SolverConfig(**{**kw, "max_iters": count})
            assert type(cfg.max_iters) is int and cfg.max_iters == 100
        for seed in (2, 2.0, np.int64(2)):
            cfg = dyn.SolverConfig(**{**kw, "seed": seed})
            assert type(cfg.seed) is int and cfg.seed == 2

    def test_algorithm_names_select_the_method(self, reference_instance):
        for name, alg in (("gda", GDA), ("eg", EG)):
            cfg = config(alg=name, T=50)
            assert cfg.algorithm is alg
            assert np.array_equal(dyn.run(reference_instance, cfg).distances,
                                  dyn.run(reference_instance, config(alg=alg, T=50)).distances)
        assert config(alg="sgda", noise=prob.NoiseModel(1.0)).algorithm is SGDA
        assert not np.array_equal(
            dyn.run(reference_instance, config(alg="eg", T=50)).distances,
            dyn.run(reference_instance, config(alg="gda", T=50)).distances)

    def test_z0_of_wrong_length_rejected(self, reference_instance):
        with pytest.raises(InvalidInputError, match="z0 must have length 8"):
            dyn.run(reference_instance, config(T=5), z0=np.zeros(7))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("nonquad", [False, True], ids=["quadratic", "nonquad"])
    def test_z0_not_finite_rejected(self, small_instance, bad, nonquad):
        # invalid input, not a run that diverges at step 0
        p = prob.NonQuadraticProblem(base=small_instance, a=1.0, b=np.zeros(small_instance.n)) \
            if nonquad else small_instance
        z0 = small_instance.z_star.copy()
        z0[1] = bad
        with pytest.raises(InvalidInputError, match="z0 must be finite"):
            dyn.run(p, config(T=5), z0=z0)

    def test_overflowing_gap_recorded_as_inf(self):
        # one step of eta = 4.5e152 takes x to (-3e153, -6e153): the distance
        # is finite but the gap's quadratic form overflows, which must not
        # read as a gap of 0
        p = prob.QuadraticProblem(A=np.eye(2), B=np.zeros((2, 2)),
                                  C=[[100.0, -90.0], [-90.0, 100.0]],
                                  x_star=np.zeros(2), y_star=np.zeros(2), L=200.0, mu=1.0)
        beta = -10.0 / 570.0
        cfg = dyn.SolverConfig(algorithm=GDA, eta_x=4.5e152, eta_y=4.5e152,
                               max_iters=10, target_eps=1e-6, record_primal_gaps=True)
        traj = dyn.run(p, cfg, z0=np.array([1.0 + beta, 1.0 - beta, 0.0, 0.0]))
        assert traj.status == dyn.Status(dyn.StatusKind.DIVERGED, 1)
        assert math.isfinite(traj.distances[-1])
        assert traj.primal_gaps[-1] == math.inf

    def test_gap_of_finite_x_where_distance_overflows(self):
        # y leaves the floats' square range in one step while x stays at
        # 0.5: the measure is inf, the recorded gap is the final x's gap
        p = prob.QuadraticProblem(A=[[1.0]], B=[[0.0]], C=[[1.0]], x_star=[0.0],
                                  y_star=[0.0], L=1.0, mu=1.0)
        cfg = dyn.SolverConfig(algorithm=GDA, eta_x=0.5, eta_y=1e200, max_iters=10,
                               target_eps=1e-6, record_primal_gaps=True)
        traj = dyn.run(p, cfg, z0=np.array([1.0, 1.0]))
        assert traj.status == dyn.Status(dyn.StatusKind.DIVERGED, 1)
        assert list(traj.final_z) == [0.5, 1.0 - 1e200]
        assert math.isinf(traj.distances[-1])
        assert traj.primal_gaps[-1] == prob.primal_gap(p, traj.final_z[:1]) == 0.125

    @pytest.mark.parametrize("alg", [GDA, EG])
    def test_budget_ending_at_the_converging_step(self, alg):
        # converged and budget exhausted both hold when the budget ends at
        # the converging step k*, and converged wins
        p = prob.sample_instance(3, 3, 4.0, 1.0, 0, primal_convex=True, schur_margin=0.5)
        eta_x, eta_y = dyn.default_stepsizes(p.L, 2.0 * prob.derive_constants(p).kappa)
        kw = dict(algorithm=alg, eta_x=eta_x, eta_y=eta_y, target_eps=1e-6)
        k = dyn.run(p, dyn.SolverConfig(max_iters=100_000, **kw)).status.step
        assert k > 3000
        assert dyn.run(p, dyn.SolverConfig(max_iters=k, **kw)).status == \
            dyn.Status(dyn.StatusKind.CONVERGED, k)
        assert dyn.run(p, dyn.SolverConfig(max_iters=k - 1, **kw)).status == \
            dyn.Status(dyn.StatusKind.BUDGET_EXHAUSTED)

    def test_default_initial_point_is_the_seeded_unit_draw(self):
        # the direction is drawn once per (seed, dim); every call gets its
        # own start, bit-identical to a fresh draw normalised by its norm
        for dim, seed in ((2, 0), (8, 0), (8, 7), (32, 2 ** 40)):
            p = prob.sample_instance(dim // 2, dim // 2, 10.0, 1.0, seed % 97)
            v = np.random.default_rng(seed).standard_normal(dim)
            expected = p.z_star + v / np.linalg.norm(v)
            first = dyn.default_initial_point(p, seed)
            first[:] = 0.0
            second = dyn.default_initial_point(p, seed)
            assert second.tobytes() == expected.tobytes()
            assert second.flags.writeable and not np.shares_memory(first, second)


class TestIterationIndex:
    """A run that records every iteration views one shared, read-only
    ``np.arange`` as its ``iters``; a longer run replaces the index."""

    @pytest.fixture(autouse=True)
    def empty_index(self, monkeypatch):
        # each test grows the index from nothing; the shared one comes back
        monkeypatch.setattr(dyn, "_INDEX", np.arange(0))

    def test_iters_are_a_read_only_index(self, reference_instance):
        for T in (0, 1, 64, 5000, 1000):
            traj = dyn.run(reference_instance, config(T=T))
            assert traj.status.kind is dyn.StatusKind.BUDGET_EXHAUSTED
            assert traj.iters.dtype == np.int64
            assert np.array_equal(traj.iters, np.arange(T + 1))
            assert not traj.iters.flags.writeable
            with pytest.raises(ValueError):
                traj.iters[0] = 1
        assert len(dyn._INDEX) == 5001

    def test_longer_run_leaves_earlier_iters(self, reference_instance):
        early = [dyn.run(reference_instance, config(T=T)) for T in (10, 100, 3000, 50)]
        assert len(dyn._INDEX) == 3001
        for traj, T in zip(early, (10, 100, 3000, 50)):
            assert np.array_equal(traj.iters, np.arange(T + 1))

    def test_index_never_exceeds_the_cap(self, monkeypatch):
        p = prob.hard_ratio_instance(8.0, 1.0)
        cap = dyn.TRAJECTORY_STORAGE_CAP
        for T in (cap, cap + 1, 3 * cap + 7):
            dyn.run(p, config(eta_x=1e-9, r=1.0, T=T))
            assert len(dyn._INDEX) == cap + 1
        monkeypatch.setattr(dyn, "_INDEX", np.arange(0))
        monkeypatch.setattr(dyn, "TRAJECTORY_STORAGE_CAP", 37)
        for T in (5, 37, 38, 1000):
            dyn.run(p, config(eta_x=1e-9, r=1.0, T=T))
            assert len(dyn._INDEX) == (6 if T == 5 else 38)

    def test_budget_over_the_cap_takes_the_strided_path(self):
        # stride 2: every other iteration, then the odd final one appended,
        # in an array of the run's own
        p = prob.hard_ratio_instance(8.0, 1.0)
        T = dyn.TRAJECTORY_STORAGE_CAP + 1
        traj = dyn.run(p, config(eta_x=1e-9, r=1.0, T=T))
        assert traj.status.kind is dyn.StatusKind.BUDGET_EXHAUSTED
        assert np.array_equal(traj.iters, np.append(np.arange(0, T + 1, 2), T))
        assert traj.iters.dtype == np.int64 and traj.iters.flags.writeable
        assert len(traj.distances) == len(traj.iters) and len(dyn._INDEX) == 0

    def test_threads_each_get_their_own_iters(self, reference_instance):
        # more threads than cores, each running lengths in its own order,
        # with a short switch interval so that the growths interleave
        lengths = [[7, 300, 40, 2000, 1], [2500, 3, 900, 64, 65],
                   [1200, 1700, 0, 130], [99, 4000, 12, 3100]]
        done, wrong = [], []

        def work(Ts):
            for T in Ts:
                traj = dyn.run(reference_instance, config(T=T))
                done.append((traj, T))
                if not np.array_equal(traj.iters, np.arange(T + 1)):
                    wrong.append(T)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(Ts,)) for Ts in lengths]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert not wrong and len(done) == sum(map(len, lengths))
        for traj, T in done:
            assert np.array_equal(traj.iters, np.arange(T + 1))
            assert not traj.iters.flags.writeable

    def test_concurrent_growth_never_tears(self):
        # four threads whose requests interleave, nearly each one longer
        # than the index: a thread that read the index twice could slice one
        # that another thread had replaced by a shorter one
        short = []

        def work(t):
            for i in range(3000):
                n = 4 * i + t
                if len(dyn._iteration_index(n)) != n:
                    short.append(n)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert not short


@np.errstate(over="ignore", invalid="ignore")  # overflow classifies a divergence
def reference_run(problem, config, z0=None):
    """Per-step reference for ``run``: the ``gda_step``/``eg_step`` steppers
    on the ``make_oracle`` oracle, driven by a generator seeded with
    ``config.seed``, with the stop and recording rules ``run`` documents.
    The measure is ``|z - z*|`` on a quadratic instance and the exact
    gradient norm ``hypot(|gx|, |gy|)`` of ``nonquad_grad``, with no gaps, on
    a non-quadratic one.  Returns ``(status, iters, distances, gaps,
    final_z)``."""
    nonquad = isinstance(problem, prob.NonQuadraticProblem)
    quad = problem.base if nonquad else problem
    oracle = dyn.make_oracle(problem, config.noise)
    step = dyn.eg_step if config.algorithm is EG else dyn.gda_step
    rng = np.random.default_rng(config.seed)
    z = dyn.default_initial_point(quad, config.seed) if z0 is None else z0.copy()
    dc = prob.derive_constants(quad)
    want_gaps = not nonquad and config.record_primal_gaps and \
        dc.schur_min >= -prob.VALIDATION_RTOL * quad.L
    stride = max(1, math.ceil(config.max_iters / dyn.TRAJECTORY_STORAGE_CAP))
    iters, dists, gaps = [], [], []
    limit = math.inf
    k = 0
    while True:
        if nonquad:
            gx, gy = prob.nonquad_grad(problem, z)
            d = math.hypot(np.linalg.norm(gx), np.linalg.norm(gy))
        else:
            w = z - quad.z_star
            d = math.sqrt(w.dot(w))
        finite = math.isfinite(d)
        d = d if finite else math.inf
        if k == 0:
            limit = dyn.DIVERGENCE_FACTOR * d
        diverged = not finite or (d >= limit and k > 0)
        stop = diverged or d <= config.target_eps or k == config.max_iters
        if stop or k % stride == 0:
            iters.append(k)
            dists.append(d)
            if want_gaps:
                gaps.append(prob.primal_gap(quad, z[:quad.n]))
        if stop:
            if diverged:
                status = dyn.Status(dyn.StatusKind.DIVERGED, k)
            elif d <= config.target_eps:
                status = dyn.Status(dyn.StatusKind.CONVERGED, k)
            else:
                status = dyn.Status(dyn.StatusKind.BUDGET_EXHAUSTED)
            return (status, np.array(iters), np.array(dists),
                    np.array(gaps) if want_gaps else None, z)
        z = step(oracle, z, config.eta_x, config.eta_y, rng)
        k += 1


# The engine iterates on w = z - z* and the reference on z itself, so the
# reference rounds each step to a few ulps of |z| rather than of |w|; the
# engine also applies block powers T^j instead of j single steps.  Over the
# budgets below (at most 2000 steps in the properties, 16 420 in the long
# noisy runs) both effects stay far inside a relative tolerance of 1e-8 plus
# an absolute one of 1e-10 per unit of |z*| + |z0 - z*|.
ENGINE_RTOL = 1e-8
ENGINE_ATOL = 1e-10


def assert_matches_reference(problem, config, z0=None):
    traj = dyn.run(problem, config, z0=z0)
    status, iters, dists, gaps, final_z = reference_run(problem, config, z0)
    assert traj.status == status
    assert np.array_equal(traj.iters, iters)
    quad = getattr(problem, "base", problem)
    scale = 1.0 + np.linalg.norm(quad.z_star)
    if np.isfinite(dists[0]):
        scale += dists[0]
    atol = ENGINE_ATOL * scale
    assert np.allclose(traj.distances, dists, rtol=ENGINE_RTOL, atol=atol)
    if gaps is None:
        assert traj.primal_gaps is None
    else:
        # a gap is quadratic in the distance
        assert np.allclose(traj.primal_gaps, gaps, rtol=ENGINE_RTOL,
                           atol=quad.L * atol * scale)
    if np.all(np.isfinite(final_z)):
        assert np.allclose(traj.final_z, final_z, rtol=ENGINE_RTOL, atol=atol)
    return traj


@st.composite
def engine_cases(draw, nonquad=False):
    """A quadratic instance, or with ``nonquad`` its logistic perturbation,
    a run config, a trajectory storage cap (strided recording below it) and
    a start (``None`` for the default one)."""
    n = draw(st.integers(1, 16))
    m = draw(st.integers(1, 16))
    kappa = 10.0 ** draw(st.floats(0.3, 4.0))
    L = 10.0 ** draw(st.integers(-1, 2))
    seed = draw(st.integers(0, 2 ** 16))
    p = prob.sample_instance(n, m, L, L / kappa, seed,
                             primal_convex=draw(st.booleans()))
    # move the optimum off the origin so the engine's z - z* shift is tested
    rng = np.random.default_rng(seed)
    p = dataclasses.replace(p, x_star=rng.standard_normal(n),
                            y_star=rng.standard_normal(m))
    if nonquad:
        p = prob.NonQuadraticProblem(base=p, a=draw(st.floats(0.0, 4.0)),
                                     b=rng.standard_normal(n))
    # r on both sides of kappa and of 2*kappa
    r = kappa * 2.0 ** draw(st.floats(-2.0, 3.0))
    eta_x, eta_y = dyn.default_stepsizes(L, r, draw(st.sampled_from(list(dyn.Scheme))))
    alg, noisy = draw(st.sampled_from([(GDA, False), (EG, False), (SGDA, True),
                                       (EG, True)]))
    noise = prob.NoiseModel(draw(st.sampled_from([1e-3, 0.1, 1.0])),
                            draw(st.integers(1, 64))) if noisy else None
    eps = 10.0 ** -draw(st.integers(1, 12))
    cfg = dyn.SolverConfig(
        algorithm=alg, eta_x=eta_x, eta_y=eta_y,
        max_iters=draw(st.integers(0, 2000)), target_eps=eps,
        noise=noise, seed=draw(st.integers(0, 2 ** 16)),
        record_primal_gaps=draw(st.booleans()),
    )
    cap = draw(st.sampled_from([dyn.TRAJECTORY_STORAGE_CAP, 1, 37, 500]))
    # mostly the default start; else an edge of the stop rule: the optimum
    # (d0 = 0), just inside eps, 1e150 out (a finite measure that leaves the
    # floats before it grows 1e8-fold) or 1e301 out (1e8 * d0 overflows; the
    # measure's squares do too)
    offset = draw(st.sampled_from([None] * 6 + [0.0, 0.5 * eps, 1e150, 1e301]))
    if offset is None:
        return p, cfg, cap, None
    quad = getattr(p, "base", p)
    v = rng.standard_normal(quad.dim)
    return p, cfg, cap, quad.z_star + offset * v / np.linalg.norm(v)


def growth_case(alg, steps, factor=1e8, n=1):
    """A decoupled instance ``q`` with ``n x n`` blocks, a start ``z0`` one
    unit along its first x axis and the stepsize ``h`` for both players
    under which the distance moves by g = 1 + s h per GDA step and
    g = 1 + s h + h^2 per EG step, with g^(steps - 1/2) equal to ``factor``.
    Along that axis the descent block is concave (s = 1) for a factor above
    1 and convex (s = -1) below it; it is convex along every other axis, so
    the noise there stays small.  At the documented divergence factor 1e8
    the measure at ``steps`` is above 1e8 times the start's and every
    earlier one below; at a factor below 1, the measure at ``steps`` is the
    first one below ``factor``."""
    s = 1.0 if factor > 1.0 else -1.0
    C = np.eye(n)
    C[0, 0] = -s
    q = prob.QuadraticProblem(A=np.eye(n), B=np.zeros((n, n)), C=C,
                              x_star=np.ones(n), y_star=np.zeros(n), L=1.0, mu=1.0)
    z0 = q.z_star.copy()
    z0[0] += 1.0
    g = factor ** (1.0 / (steps - 0.5))
    h = s * ((math.sqrt(4.0 * g - 3.0) - 1.0) / 2.0 if alg is EG else g - 1.0)
    return q, z0, h


def assert_stops_at(alg, noise, k, n=1):
    """Place a convergence, and a divergence, of ``growth_case`` at step
    ``k`` of a run with a budget of ``10 k`` and check both against the
    reference."""
    for factor, kind in ((1e-3, dyn.StatusKind.CONVERGED),
                         (1e8, dyn.StatusKind.DIVERGED)):
        q, z0, h = growth_case(alg, k, factor, n)
        traj = assert_matches_reference(q, dyn.SolverConfig(
            algorithm=alg, eta_x=h, eta_y=h, max_iters=10 * k,
            target_eps=factor if factor < 1.0 else 1e-300, noise=noise, seed=3), z0)
        assert traj.status == dyn.Status(kind, k)


def chunk_ends(dim, count):
    """The iterations at which the first ``count`` chunks of a long run at
    ``dim`` end: the first chunk holds ``_CHUNK_FIRST`` state entries and
    each later one twice the one before, up to ``_CHUNK_CAP`` entries or
    ``_CAP_STEPS`` steps, whichever is more, in whole blocks of ``_BLOCK``
    steps."""
    blocks = max(1, dyn._CHUNK_FIRST // (dim * dyn._BLOCK))
    cap = max(dyn._CAP_STEPS, dyn._CHUNK_CAP // dim) // dyn._BLOCK
    ends = [0]
    for _ in range(count):
        ends.append(ends[-1] + blocks * dyn._BLOCK)
        blocks = min(2 * blocks, cap)
    return ends[1:]


def convex_instance(n, L=100.0, min_mu_x=0.5):
    """The first generated ``n x n`` instance from seed 0 with ``mu_x`` above
    ``min_mu_x``; at ``n = 4`` the ``reference_instance`` fixture, and with
    ``L = 4, min_mu_x = 0.2`` at ``n = 3`` the ``small_instance`` one."""
    seed = 0
    while True:
        p = prob.sample_instance(n, n, L, 1.0, seed)
        if prob.derive_constants(p).mu_x > min_mu_x:
            return p
        seed += 1


# A chunk schedule of one block doubling up to four: a run of up to 2000
# steps takes up to 10 chunks, so the chunks fill a growing part of the
# arrays its engine made for four blocks, and the last chunk may end
# anywhere in a block.
SHORT_CHUNKS = dict(_CHUNK_FIRST=1, _CHUNK_CAP=1, _CAP_STEPS=4 * dyn._BLOCK)


class TestAffineEngine:
    """``run`` on quadratic instances against the per-step reference."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(engine_cases(), st.booleans())
    def test_matches_per_step_reference(self, case, short_chunks):
        p, cfg, cap, z0 = case
        with mock.patch.multiple(dyn, TRAJECTORY_STORAGE_CAP=cap,
                                 **(SHORT_CHUNKS if short_chunks else {})):
            assert_matches_reference(p, cfg, z0)

    def test_no_oracle_calls_on_quadratic(self, reference_instance, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("quadratic runs must not call the oracle")

        monkeypatch.setattr(prob, "grad", fail)
        monkeypatch.setattr(prob, "stochastic_grad", fail)
        for alg, noise in ((GDA, None), (EG, None), (SGDA, prob.NoiseModel(1.0, 4)),
                           (EG, prob.NoiseModel(1.0, 4))):
            dyn.run(reference_instance, config(alg=alg, T=300, noise=noise))

    @pytest.mark.parametrize("T", [0, 1])
    def test_tiny_budgets(self, reference_instance, T):
        for alg, noise in ((GDA, None), (SGDA, prob.NoiseModel(1.0, 4))):
            traj = assert_matches_reference(
                reference_instance, config(alg=alg, T=T, noise=noise))
            assert traj.status == dyn.Status(dyn.StatusKind.BUDGET_EXHAUSTED)
            assert list(traj.iters) == list(range(T + 1))

    def test_start_at_optimum(self, reference_instance):
        traj = assert_matches_reference(
            reference_instance,
            config(alg=SGDA, T=100, eps=1e-8, noise=prob.NoiseModel(1.0, 4)),
            z0=reference_instance.z_star.copy())
        assert traj.status == dyn.Status(dyn.StatusKind.CONVERGED, 0)

    def test_overflow_on_first_step(self):
        p = prob.hard_ratio_instance(1e150, 1e149)
        for alg in (GDA, EG):
            traj = assert_matches_reference(p, config(alg=alg, eta_x=1e160, r=1.0, T=1000))
            assert traj.status == dyn.Status(dyn.StatusKind.DIVERGED, 1)

    @pytest.mark.parametrize("alg,noise", [(GDA, None), (SGDA, prob.NoiseModel(1.0, 4))])
    def test_chunks_follow_the_schedule(self, monkeypatch, alg, noise):
        # chunks are sized by their state entries: 4096 steps doubling up to
        # 16 384 at dim 2, and 1024 up to 4096 at dim 8; at dim 16 the cap
        # stays at 4096 steps
        assert chunk_ends(2, 4) == [4096, 12288, 28672, 45056]
        assert chunk_ends(8, 5) == [1024, 3072, 7168, 11264, 15360]
        assert chunk_ends(16, 5) == [512, 1536, 3584, 7680, 11776]
        sizes = []
        advance = dyn._advance

        def counted(w, steps, **kw):
            sizes.append(steps)
            return advance(w, steps, **kw)

        monkeypatch.setattr(dyn, "_advance", counted)
        for dim, steps in ((2, 50_000), (8, 16_000), (16, 12_000)):
            q, z0, h = growth_case(alg, steps, 0.5, dim // 2)
            sizes.clear()
            traj = dyn.run(q, config(alg=alg, eta_x=h, r=1.0, T=steps, noise=noise), z0)
            assert traj.status == dyn.Status(dyn.StatusKind.BUDGET_EXHAUSTED)
            ends = [k for k in chunk_ends(dim, 8) if k < steps]
            assert sizes == list(np.diff([0, *ends, steps]))

    @pytest.mark.parametrize("dim", [2, 6, 8, 64])
    def test_longest_chunk_follows_the_schedule(self, dim):
        for steps in (1, 63, 64, 65, 1000, 4096, 4097, 10_000, 40_000, 10 ** 6):
            ends = [k for k in chunk_ends(dim, steps // dyn._BLOCK + 1) if k < steps]
            assert dyn._longest_chunk(dim, steps) == max(np.diff([0, *ends, steps]))

    @pytest.mark.parametrize("alg,noise,b", [(GDA, None, 64), (EG, prob.NoiseModel(1.0, 4), 8)])
    def test_arrays_sized_for_the_longest_chunk(self, alg, noise, b):
        # a 10 000-step dim-2 run takes chunks of 4096 and 5904 steps, so
        # its arrays hold the 5904 steps of the second, not the whole budget;
        # an exact run's stack of powers of T^b holds as many block starts
        p = convex_instance(1, L=4.0, min_mu_x=0.2)
        assert list(np.diff([0, *chunk_ends(2, 1), 10_000])) == [4096, 5904]
        advance, measure = dyn._affine_engine(p, config(alg=alg, T=10_000, noise=noise))
        most = -(-5904 // b)
        assert advance.keywords["W"].shape == (most, b * 2)
        assert measure.keywords["squares"].shape == (most * b, 2)
        if noise is None:
            assert advance.keywords["Pb"].shape == (2, most * 2)
        else:
            assert advance.keywords["Xi"].shape[0] == advance.keywords["R"].shape[0] == most * b

    @pytest.mark.parametrize("alg,noise", [(GDA, None), (EG, prob.NoiseModel(1.0, 4))])
    def test_chunks_fill_the_arrays_made_once(self, reference_instance, alg, noise):
        # at dim 8 a run's chunks grow from 1024 to 2048, then 4096 steps;
        # each chunk's states, and the squares its measure takes, go to the
        # arrays the engine made, and no chunk allocates a state-sized array
        p = reference_instance
        assert list(np.diff([0, *chunk_ends(p.dim, 3)])) == [1024, 2048, 4096]
        advance, measure = dyn._affine_engine(p, config(alg=alg, T=20_000, noise=noise))
        states, squares = advance.keywords["W"], measure.keywords["squares"]
        w = np.ones(p.dim)
        for steps in (1024, 2048, 4096):
            squares.fill(math.nan)
            tracemalloc.start()
            try:
                S = advance(w, steps)
                d = measure(S)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert S.shape == (steps, p.dim) and np.shares_memory(S, states)
            assert np.array_equal(squares[:steps], np.square(S))
            assert np.allclose(d, np.linalg.norm(S, axis=1), rtol=1e-14, atol=0)
            assert peak < S.nbytes / 2
            w = S[-1]

    @pytest.mark.parametrize("alg,noise", [(GDA, None), (EG, None),
                                           (SGDA, prob.NoiseModel(0.01, 4))])
    @pytest.mark.parametrize("dim,boundary", [
        pytest.param(dim, k, id=str(k)) for dim, k in (
            *((6, j * dyn._BLOCK) for j in (1, 3, 7)),
            (2, chunk_ends(2, 1)[0]), *((8, k) for k in chunk_ends(8, 2)))])
    def test_stops_on_block_and_chunk_boundaries(self, alg, noise, dim, boundary):
        # the ends of blocks 1, 3 and 7 inside the first chunk at dim 6, the
        # first chunk end at dim 2 and the first two at dim 8: the budget ends
        # there on a generated instance, and a convergence and a divergence
        # are placed exactly there
        p = convex_instance(dim // 2, L=4.0, min_mu_x=0.2)
        eta_x, eta_y = dyn.default_stepsizes(p.L, 2.0 * prob.derive_constants(p).kappa)
        traj = assert_matches_reference(p, dyn.SolverConfig(
            algorithm=alg, eta_x=eta_x, eta_y=eta_y, max_iters=boundary,
            target_eps=1e-300, noise=noise, seed=3))
        assert traj.iters[-1] == boundary
        assert_stops_at(alg, None if noise is None else prob.NoiseModel(1e-6, 1),
                        boundary, dim // 2)

    @pytest.mark.parametrize("alg,noise", [(GDA, None), (EG, None),
                                           (SGDA, prob.NoiseModel(1e-6, 1))])
    def test_stops_inside_the_first_chunk(self, alg, noise):
        # a dim-2 run computes 4096 steps in its first chunk; it stops at
        # step 1000 and records nothing past it
        assert chunk_ends(2, 1) == [4096]
        assert_stops_at(alg, noise, 1000)

    @pytest.mark.parametrize("alg,noise", [(GDA, None), (EG, None),
                                           (SGDA, prob.NoiseModel(1e-6, 1))])
    def test_diverges_on_the_last_step(self, alg, noise):
        # the measure first reaches 1e8 * d0 at max_iters, where the budget
        # also ends: diverged is checked before budget exhausted
        q, z0, h = growth_case(alg, 100)
        traj = assert_matches_reference(q, dyn.SolverConfig(
            algorithm=alg, eta_x=h, eta_y=h, max_iters=100, target_eps=1e-300,
            noise=noise), z0)
        assert traj.status == dyn.Status(dyn.StatusKind.DIVERGED, 100)

    def test_strided_run_keeps_only_recorded_points(self, monkeypatch):
        # a 10^6-step dim-2 run recording every 1000th point: its distances
        # would take 8 MB if the recorded slices kept their chunks alive
        monkeypatch.setattr(dyn, "TRAJECTORY_STORAGE_CAP", 1000)
        steps = 1_000_000
        q, z0, h = growth_case(GDA, steps, 0.5)
        tracemalloc.start()
        try:
            traj = dyn.run(q, config(eta_x=h, r=1.0, T=steps), z0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.status == dyn.Status(dyn.StatusKind.BUDGET_EXHAUSTED)
        assert len(traj.distances) == 1001
        assert peak < 2_000_000

    def test_strided_recording_with_gaps(self, monkeypatch):
        monkeypatch.setattr(dyn, "TRAJECTORY_STORAGE_CAP", 37)
        p = prob.sample_instance(3, 2, 10.0, 1.0, 5, primal_convex=True)
        eta_x, eta_y = dyn.default_stepsizes(p.L, 2.0 * prob.derive_constants(p).kappa)
        for alg, noise in ((GDA, None), (EG, prob.NoiseModel(0.1, 2))):
            traj = assert_matches_reference(p, dyn.SolverConfig(
                algorithm=alg, eta_x=eta_x, eta_y=eta_y, max_iters=1000,
                target_eps=1e-300, noise=noise, record_primal_gaps=True))
            assert traj.primal_gaps is not None
            assert np.all(np.diff(traj.iters)[:-1] == 28)

    def test_overflowing_powers_keep_exact_zeros(self):
        # decoupled players: the ascent block explodes (|1 - eta_y| ~ 1e6, so
        # T^52 overflows) while a start with y = y* exactly keeps y = y* at
        # every step and the descent block converges
        p = prob.QuadraticProblem(
            A=np.eye(1), B=np.zeros((1, 1)), C=np.eye(1), x_star=np.zeros(1),
            y_star=np.zeros(1), L=1.0, mu=0.5)
        cfg = dyn.SolverConfig(algorithm=GDA, eta_x=0.5, eta_y=1e6, max_iters=1000,
                               target_eps=1e-12)
        traj = assert_matches_reference(p, cfg, z0=np.array([1.0, 0.0]))
        assert traj.status.kind is dyn.StatusKind.CONVERGED

    def test_power_stack_drops_powers_from_the_first_that_overflows(self):
        # T swaps and scales the axes: T^2 = 1e140 I and T^4 = 1e280 I stay
        # finite, but T^3 = 1e140 T overflows; doubling takes T^4 from T^2,
        # not from T^3, so the last power is finite while a middle one is not
        T = np.array([[0.0, 1e200], [1e-60, 0.0]])
        T2 = T @ T
        with np.errstate(over="ignore"):
            P = dyn._power_stack(T, 4)
            assert np.isinf(T @ T2).any() and np.isfinite(T2 @ T2).all()
        assert np.array_equal(P, np.hstack([T.T, T2.T]))
        # powers whose entries are finite but whose sum overflows all stay;
        # a first power that is not finite stays alone
        big = np.array([[1e308, 0.0], [0.0, 1e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(dyn._power_stack(big, 1), big)
            assert dyn._power_stack(2.0 * big, 8).shape == (2, 2)

    @pytest.mark.parametrize("alg", [GDA, EG])
    def test_long_exact_run_equals_matrix_power(self, rng, alg):
        # chunks of 4096 and 8192 steps at dim 2 (1024 and 2048 at dim 8)
        # are followed by two full ones of 16 384 (nine of 4096, 40 036
        # steps in all) and a short one; a full chunk takes its 256 (64)
        # block starts from one product with the stack of powers of T^b, up
        # to T^16384 (T^4096)
        for dim, full in ((2, 2), (8, 9)):
            p = convex_instance(dim // 2)
            eta_x, eta_y = dyn.default_stepsizes(p.L, 200.0, QUARTER)
            steps = chunk_ends(dim, 2 + full)[-1] + 100
            cfg = dyn.SolverConfig(algorithm=alg, eta_x=eta_x, eta_y=eta_y,
                                   max_iters=steps, target_eps=1e-300)
            z0 = p.z_star + rng.standard_normal(p.dim)
            traj = dyn.run(p, cfg, z0=z0)
            M = dyn.build_M(p, eta_y / eta_x)
            T_mat = np.eye(p.dim) + eta_x * M
            if alg is EG:
                T_mat = T_mat + (eta_x * M) @ (eta_x * M)
            course = matrix_power_course(T_mat, z0 - p.z_star, steps)
            assert np.array_equal(traj.iters, np.arange(steps + 1))
            assert np.allclose(traj.distances, np.linalg.norm(course, axis=1), rtol=1e-9)
            assert np.allclose(traj.final_z - p.z_star, course[-1], rtol=1e-9)

    def test_overflowing_block_powers_keep_exact_zeros(self):
        # |1 - eta_y| = 3, so (T^64)^k overflows from k = 11 on: chunks
        # advance their block starts ten blocks at a time, and y = y* must
        # stay exact while the slow descent block converges after about
        # 46 000 steps, past two full chunks of 256 blocks
        p = prob.QuadraticProblem(
            A=np.eye(1), B=np.zeros((1, 1)), C=np.eye(1), x_star=np.zeros(1),
            y_star=np.zeros(1), L=1.0, mu=0.5)
        cfg = dyn.SolverConfig(algorithm=GDA, eta_x=6e-4, eta_y=4.0,
                               max_iters=60_000, target_eps=1e-12)
        T, _ = dyn.linear_system(p, cfg)
        full = chunk_ends(2, 4)
        with np.errstate(over="ignore", invalid="ignore"):
            Tb = dyn._power_stack(T, dyn._BLOCK)[:, -2:].T
            assert dyn._power_stack(Tb, (full[-1] - full[-2]) // dyn._BLOCK).shape == (2, 2 * 10)
        traj = assert_matches_reference(p, cfg, z0=np.array([1.0, 0.0]))
        assert traj.status.kind is dyn.StatusKind.CONVERGED
        assert traj.status.step > full[-1]
        assert traj.final_z[1] == 0.0


    @pytest.mark.parametrize("alg", [SGDA, EG])
    def test_long_noisy_runs(self, reference_instance, alg):
        # at dim 8, chunks of 1024 and 2048 steps end at step 3072; three
        # full 4096-step chunks follow, each taking the starts of its 512
        # noisy blocks from one scan up to (T^8)^512, then a short chunk
        p = reference_instance
        eta_x, eta_y = dyn.default_stepsizes(p.L, 2.0 * prob.derive_constants(p).kappa)
        ends = chunk_ends(p.dim, 5)
        assert ends[2:] == [ends[1] + k * 4096 for k in (1, 2, 3)]
        steps = ends[-1] + 100
        base = dict(algorithm=alg, eta_x=eta_x, eta_y=eta_y, seed=7)
        traj = assert_matches_reference(p, dyn.SolverConfig(
            max_iters=steps, target_eps=1e-300, noise=prob.NoiseModel(1.0, 16), **base))
        assert traj.status == dyn.Status(dyn.StatusKind.BUDGET_EXHAUSTED)
        assert len(traj.iters) == steps + 1
        # converge, and diverge, inside the first full chunk; at a small
        # noise the distance falls below eps once, 4072 steps in
        noise = prob.NoiseModel(1e-9, 1)
        d = dyn.run(p, dyn.SolverConfig(
            max_iters=steps, target_eps=1e-300, noise=noise, **base)).distances
        k = ends[1] + 1000
        eps = math.sqrt(d[k] * min(d[:k]))
        assert d[k] < min(d[:k])
        traj = assert_matches_reference(p, dyn.SolverConfig(
            max_iters=steps, target_eps=eps, noise=noise, **base))
        assert traj.status == dyn.Status(dyn.StatusKind.CONVERGED, k)
        q, z0, h = growth_case(alg, k)
        traj = assert_matches_reference(q, dyn.SolverConfig(
            algorithm=alg, eta_x=h, eta_y=h, max_iters=steps, target_eps=1e-300,
            noise=prob.NoiseModel(1e-6, 1)), z0)
        assert traj.status == dyn.Status(dyn.StatusKind.DIVERGED, k)

    def test_noisy_run_past_the_cap(self):
        # at dim 2, chunks of 4096 and 8192 steps, a full one of 16 384
        # (2048 noisy blocks, their starts from one scan up to (T^8)^2048)
        # and a short one
        p = convex_instance(1)
        eta_x, eta_y = dyn.default_stepsizes(p.L, 2.0 * prob.derive_constants(p).kappa)
        steps = chunk_ends(2, 3)[-1] + 100
        cfg = dyn.SolverConfig(algorithm=SGDA, eta_x=eta_x, eta_y=eta_y, max_iters=steps,
                               target_eps=1e-300, noise=prob.NoiseModel(1.0, 16), seed=7)
        assert len(dyn._affine_engine(p, cfg)[0].keywords["Pb"]) == 12
        traj = assert_matches_reference(p, cfg)
        assert traj.status == dyn.Status(dyn.StatusKind.BUDGET_EXHAUSTED)

    @pytest.mark.parametrize("alg,levels,stop", [(SGDA, 2, 40), (EG, 1, 97)])
    def test_overflowing_noisy_squares_keep_exact_zeros(self, alg, levels, stop):
        # decoupled players: the descent block explodes (T_xx = 1 + 1e10, so
        # (T^8)^4 overflows for SGDA and (T^8)^2 for EG) while x = x* stays
        # exact, since its noise, eta_x * 1e-300 per step, underflows to 0;
        # the ascent block converges, at 0.5 or 0.75 per step.  The scan
        # then goes in groups of 2^levels block starts, and an infinite
        # square would turn x = x* into NaN
        p = prob.QuadraticProblem(
            A=np.eye(1), B=np.zeros((1, 1)), C=-1e40 * np.eye(1), x_star=np.zeros(1),
            y_star=np.zeros(1), L=1.0, mu=0.5)
        cfg = dyn.SolverConfig(algorithm=alg, eta_x=1e-30, eta_y=0.5, max_iters=1000,
                               target_eps=1e-12, noise=prob.NoiseModel(1e-300, 1))
        with np.errstate(over="ignore"):
            assert len(dyn._affine_engine(p, cfg)[0].keywords["Pb"]) == levels
        traj = assert_matches_reference(p, cfg, z0=np.array([0.0, 1.0]))
        assert traj.status == dyn.Status(dyn.StatusKind.CONVERGED, stop)
        assert traj.final_z[0] == 0.0


class TestOracleEngine:
    """``run`` on non-quadratic instances against the per-step reference."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(engine_cases(nonquad=True))
    def test_matches_per_step_reference(self, case):
        p, cfg, cap, z0 = case
        with mock.patch.object(dyn, "TRAJECTORY_STORAGE_CAP", cap):
            traj = assert_matches_reference(p, cfg, z0)
        assert traj.metric == "grad_norm" and traj.primal_gaps is None

    @pytest.mark.parametrize("alg,noise", [(GDA, None), (EG, None),
                                           (SGDA, prob.NoiseModel(0.01, 4)),
                                           (EG, prob.NoiseModel(0.01, 4))])
    def test_stop_rules(self, small_instance, alg, noise, monkeypatch):
        # the oracle engine converges a few chunks in, diverges in its first
        # chunk, runs out its budget, and records every 28th point under a
        # cap of 37
        p = small_instance
        nq = prob.NonQuadraticProblem(base=p, a=1.0, b=np.ones(p.n))
        eta_x, eta_y = dyn.default_stepsizes(
            p.L, 2.0 * prob.derive_constants(p).kappa, dyn.Scheme.HALF)
        kinds = []
        for eps, mult in ((1e-3, 1.0), (1e-300, 10.0), (1e-300, 1.0)):
            traj = assert_matches_reference(nq, dyn.SolverConfig(
                algorithm=alg, eta_x=mult * eta_x, eta_y=mult * eta_y,
                max_iters=1000, target_eps=eps, noise=noise, seed=4))
            kinds.append(traj.status.kind)
        assert kinds == [dyn.StatusKind.CONVERGED, dyn.StatusKind.DIVERGED,
                         dyn.StatusKind.BUDGET_EXHAUSTED]
        monkeypatch.setattr(dyn, "TRAJECTORY_STORAGE_CAP", 37)
        traj = assert_matches_reference(nq, traj.config)
        assert np.all(np.diff(traj.iters)[:-1] == 28)

    @pytest.mark.parametrize("alg,noise", [(GDA, None), (EG, prob.NoiseModel(1e-6, 1))])
    def test_diverges_on_the_last_step(self, alg, noise):
        # with a = 0 the gradient norm is the distance of growth_case, which
        # first reaches 1e8 * d0 at max_iters: diverged, not budget exhausted
        q, z0, h = growth_case(alg, 100)
        nq = prob.NonQuadraticProblem(base=q, a=0.0, b=q.x_star)
        traj = assert_matches_reference(nq, dyn.SolverConfig(
            algorithm=alg, eta_x=h, eta_y=h, max_iters=100, target_eps=1e-300,
            noise=noise), z0)
        assert traj.status == dyn.Status(dyn.StatusKind.DIVERGED, 100)


PATHS = [(GDA, None), (EG, None), (SGDA, prob.NoiseModel(1.0, 1)),
         (EG, prob.NoiseModel(1.0, 1))]
PATH_IDS = ["gda", "eg", "sgda", "noisy-eg"]


class TestStopsAtTheEdges:
    """Runs that stop at step 0, and runs whose measure first turns NaN:
    ``run`` writes ``inf`` for the measure at the stop alone, the only
    recorded one that can be non-finite."""

    @pytest.mark.parametrize("alg,noise", PATHS, ids=PATH_IDS)
    @pytest.mark.parametrize("nonquad", [False, True], ids=["affine", "oracle"])
    def test_converges_at_step_0(self, small_instance, alg, noise, nonquad):
        # the optimum is a zero of the gradient of the perturbed instance too
        p = small_instance
        problem = prob.NonQuadraticProblem(base=p, a=1.0, b=p.x_star) if nonquad else p
        traj = dyn.run(problem, config(alg=alg, T=10_000, eps=1e-12, noise=noise,
                                       record_primal_gaps=True), z0=p.z_star)
        assert traj.status == dyn.Status(dyn.StatusKind.CONVERGED, 0)
        assert list(traj.iters) == [0] and list(traj.distances) == [0.0]
        assert np.array_equal(traj.final_z, p.z_star)

    @pytest.mark.parametrize("alg,noise", PATHS, ids=PATH_IDS)
    def test_affine_measure_turns_nan(self, alg, noise):
        # an affine state is a sum of products with finite powers of T,
        # which overflows to inf, not NaN, so the measure of a run can first
        # be NaN only where T is not finite itself: here eta_x * C overflows
        # (T_xx = -inf) and x starts at x* = 0 exactly, so x is -inf * 0 =
        # NaN after one step, in the run's first chunk.  (The per-step
        # oracle, which forms no T, keeps x at 0.)
        q = prob.QuadraticProblem(A=[[1.0]], B=[[0.0]], C=[[1e300]], x_star=[0.0],
                                  y_star=[0.0], L=1.0, mu=1.0)
        cfg = dyn.SolverConfig(algorithm=alg, eta_x=1e10, eta_y=0.5, max_iters=10_000,
                               target_eps=1e-300, noise=noise)
        w0 = np.array([0.0, 1.0])
        traj = dyn.run(q, cfg, z0=w0)
        assert traj.status == dyn.Status(dyn.StatusKind.DIVERGED, 1)
        assert list(traj.iters) == [0, 1] and list(traj.distances) == [1.0, math.inf]
        assert np.isnan(traj.final_z[0])
        # the state is the one step T w0 + G xi, with the run's first draws
        with np.errstate(over="ignore", invalid="ignore"):
            T, G = dyn.linear_system(q, cfg)
            w1 = T @ w0
            if G is not None:
                w1 += G @ np.random.default_rng(cfg.seed).standard_normal(G.shape[1])
        assert np.allclose(traj.final_z, w1, rtol=1e-12, atol=0, equal_nan=True)

    def test_oracle_start_measure_nan(self):
        # a finite start whose gradient is NaN: C x overflows to inf and
        # B y to -inf in the same x entry, while the y gradient is 1e9; the
        # run diverges at step 0, its limit 1e8 * NaN notwithstanding
        base = prob.QuadraticProblem(
            A=[[1.0]], B=[[0.0], [1e300]], C=[[1.0, 1.7e308], [1.7e308, 1.0]],
            x_star=[0.0, 0.0], y_star=[0.0], L=1.0, mu=1.0)
        nq = prob.NonQuadraticProblem(base=base, a=0.0, b=[0.0, 0.0])
        z0 = np.array([10.0, 0.0, -1e9])
        with np.errstate(over="ignore", invalid="ignore"):
            gx, gy = prob.nonquad_grad(nq, z0)
        assert math.isnan(gx[1]) and gy[0] == 1e9
        traj = dyn.run(nq, config(T=100), z0=z0)
        assert traj.status == dyn.Status(dyn.StatusKind.DIVERGED, 0)
        assert list(traj.distances) == [math.inf]
        assert np.array_equal(traj.final_z, z0)

    @pytest.mark.parametrize("cap", [dyn.TRAJECTORY_STORAGE_CAP, 300])
    def test_oracle_measure_turns_nan(self, monkeypatch, cap):
        # the gradient is 1e-160 of the iterate: x1 doubles per step and
        # leaves the floats at step 5, inside the first chunk, while the
        # gradient norm is near 1e148; the gradient there is NaN (0 * inf),
        # not inf.  Under a cap of 300 the run records every 4th point, and
        # the stop apart
        monkeypatch.setattr(dyn, "TRAJECTORY_STORAGE_CAP", cap)
        base = prob.QuadraticProblem(
            A=[[0.5e-160]], B=[[0.0], [0.0]], C=[[-1e-160, 0.0], [0.0, 0.5e-160]],
            x_star=[0.0, 0.0], y_star=[0.0], L=1.0, mu=1.0)
        nq = prob.NonQuadraticProblem(base=base, a=1e-170, b=[0.0, 0.0])
        cfg = dyn.SolverConfig(algorithm=GDA, eta_x=1e160, eta_y=1e160, max_iters=1000,
                               target_eps=1e-300)
        z0 = np.array([1e307, 1.0, 1.0])
        traj = assert_matches_reference(nq, cfg, z0=z0)
        assert traj.status == dyn.Status(dyn.StatusKind.DIVERGED, 5)
        assert list(traj.iters) == (list(range(6)) if cap > 1000 else [0, 4, 5])
        assert math.isfinite(traj.distances[-2]) and traj.distances[-1] == math.inf
        with np.errstate(invalid="ignore"):
            gx, gy = prob.nonquad_grad(nq, traj.final_z)
        assert math.isnan(math.hypot(math.sqrt(gx.dot(gx)), math.sqrt(gy.dot(gy))))
        assert np.array_equal(traj.final_z, reference_run(nq, cfg, z0)[4])


def synthetic_trajectory(distances, iters=None):
    distances = np.asarray(distances, dtype=float)
    iters = np.arange(len(distances)) if iters is None else np.asarray(iters)
    cfg = dyn.SolverConfig(algorithm=GDA, eta_x=1.0, eta_y=1.0,
                           max_iters=len(distances), target_eps=1e-300)
    return dyn.Trajectory(
        iters=iters, distances=distances, primal_gaps=None,
        status=dyn.Status(dyn.StatusKind.BUDGET_EXHAUSTED), metric="distance",
        wall_time=0.0, config=cfg, final_z=np.zeros(2),
    )


class TestEstimateRate:
    def test_exact_geometric(self):
        rho = 0.99
        traj = synthetic_trajectory(rho ** np.arange(400))
        assert dyn.estimate_rate(traj) == pytest.approx(rho, abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data(), st.integers(20, 5000), st.floats(1e-3, 1e3), st.booleans())
    def test_geometric_trajectory_rate_exact(self, data, length, d0, growing):
        # the plateau trim never cuts a purely geometric course; contracting
        # q keeps at least 10 trailing-half points above the machine floor
        # and growing q stays finite
        if growing:
            lo, hi = 1.005, min(2.0, math.exp(600.0 / (length - 1)))
        else:
            lo, hi = max(0.5, math.exp(-25.0 / (length // 2 + 10))), 0.995
        q = data.draw(st.floats(lo, hi))
        traj = synthetic_trajectory(d0 * q ** np.arange(length))
        assert abs(dyn.estimate_rate(traj) - q) <= 1e-12 * abs(1.0 - q)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data(), st.one_of(st.integers(20, 2000), st.integers(2000, 40_001)),
           st.sampled_from(["noisy", "two_mode", "strided"]), st.integers(0, 2 ** 16))
    def test_fit_equals_polyfit(self, data, length, kind, seed):
        # non-geometric courses: the closed-form slope must agree with the
        # Vandermonde least squares of np.polyfit over the window the
        # estimator fits (trailing half, floor and plateau trims applied)
        g = np.random.default_rng(seed)
        iters = np.arange(length, dtype=float)
        if kind == "strided":
            stride = data.draw(st.integers(2, 50))
            iters = iters * stride
            iters[-1] = iters[-2] + data.draw(st.integers(1, stride - 1))
        # total log change over the course, within the usable floats
        slope = data.draw(st.floats(-25.0, 25.0)) / iters[-1]
        d0 = 10.0 ** data.draw(st.floats(-3.0, 3.0))
        if kind == "two_mode":
            slope2 = data.draw(st.floats(-25.0, 25.0)) / iters[-1]
            w = data.draw(st.floats(1e-3, 1e3))
            dist = d0 * (np.exp(slope * iters) + w * np.exp(slope2 * iters))
        else:
            noise = data.draw(st.floats(0.0, 1.0)) * g.standard_normal(length)
            dist = d0 * np.exp(slope * iters + noise)
        traj = synthetic_trajectory(dist, iters.astype(np.int64))
        with mock.patch.object(dyn, "fit_slope", wraps=dyn.fit_slope) as fit:
            try:
                rate = dyn.estimate_rate(traj)
            except InsufficientDataError:
                assume(False)
        (it, ld), _ = fit.call_args
        assert abs(rate - math.exp(np.polyfit(it, ld, 1)[0])) <= 1e-12

    def test_adversarial_eigen_init_recovers_s1(self):
        L, mu, mu_x, r = 2.0, 1.0, 0.1, 4.0
        p = prob.hard_rate_instance(L, mu, mu_x)
        eta_x, eta_y = dyn.default_stepsizes(L, r, QUARTER)
        disc = math.sqrt((mu * r - L) ** 2 - 4 * r * mu * mu_x)
        lam1 = 0.5 * (-(mu * r - L) + disc)
        s1 = 1.0 + eta_x * lam1
        v = np.array([p.B[0, 0], L - lam1])
        v /= np.linalg.norm(v)
        cfg = dyn.SolverConfig(algorithm=GDA, eta_x=eta_x, eta_y=eta_y,
                               max_iters=400, target_eps=1e-300)
        traj = dyn.run(p, cfg, z0=p.z_star + v)
        assert dyn.estimate_rate(traj) == pytest.approx(s1, abs=1e-10)

    def test_noise_floor_trimmed(self):
        rho = 0.99
        k = np.arange(3000)
        signal = rho ** k + 1e-8
        # the fit reads the trailing half, which is the whole decaying
        # signal; its flat tail must be discarded
        traj = synthetic_trajectory(np.concatenate([np.ones(len(signal)), signal]))
        rate = dyn.estimate_rate(traj)
        assert rate == pytest.approx(rho, abs=5e-3)

    def test_machine_floor_excluded(self):
        rho = 0.5
        signal = np.maximum(rho ** np.arange(200), 1e-280)
        signal[120:] = 1e-280
        traj = synthetic_trajectory(np.concatenate([np.ones(len(signal)), signal]))
        rate = dyn.estimate_rate(traj)
        assert rate == pytest.approx(rho, abs=5e-3)

    def test_insufficient_data(self):
        traj = synthetic_trajectory(0.9 ** np.arange(8))
        with pytest.raises(InsufficientDataError):
            dyn.estimate_rate(traj)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(st.integers(20, 400), st.integers(400, 60_000)),
           st.floats(-12.0, 3.0), st.floats(0.5, 25.0), st.floats(0.0, 1.0),
           st.sampled_from([None, 0.05, 0.3, 0.7]), st.booleans(), st.integers(0, 2 ** 16))
    def test_block_means_match_the_per_block_loop(self, length, log_scale, decay, noise,
                                                  plateau, floored, seed):
        # the plateau trim's block means, taken in one reduction, give the
        # bits of the per-block loop: on a geometric course with noise, a
        # trailing plateau over the last `plateau` share of it, or a tail
        # below the machine floor
        g = np.random.default_rng(seed)
        k = np.arange(length)
        dist = 10.0 ** log_scale * np.exp(-decay / length * k + noise * g.standard_normal(length))
        if plateau is not None:
            start = length - int(plateau * length)
            dist[start:] = dist[start] * (1.0 + 1e-3 * g.standard_normal(length - start))
        if floored:
            dist[-length // 5:] = 0.0
        traj = synthetic_trajectory(dist)
        try:
            expected = loop_estimate_rate(traj)
        except InsufficientDataError:
            with pytest.raises(InsufficientDataError):
                dyn.estimate_rate(traj)
            return
        assert dyn.estimate_rate(traj).hex() == expected.hex()


def loop_block_means(diffs, b):
    """The means of the whole blocks of ``b`` entries of ``diffs``, one
    block at a time; checked against the one-reduction form it feeds."""
    nblocks = len(diffs) // b
    means = [diffs[i * b:(i + 1) * b].mean() for i in range(nblocks)]
    reduced = diffs[:nblocks * b].reshape(nblocks, b).mean(axis=1)
    assert reduced.tobytes() == np.array(means).tobytes()
    return means


def loop_estimate_rate(trajectory):
    """``estimate_rate`` with its plateau trim's block means taken one block
    at a time, as a reference for the one-reduction form."""
    half = len(trajectory.distances) // 2
    d = np.asarray(trajectory.distances[half:], dtype=float)
    it = np.asarray(trajectory.iters[half:], dtype=float)
    floor = 1e3 * np.finfo(float).eps * trajectory.distances[0]
    usable = np.isfinite(d) & (d > max(floor, 0.0))
    d, it = d[usable], it[usable]
    ld = np.log(d)
    if len(ld) >= 20:
        b = max(5, len(ld) // 10)
        diffs = np.diff(ld)
        nblocks = len(diffs) // b
        if nblocks >= 2:
            means = loop_block_means(diffs, b)
            scale = min(means)
            cut = nblocks
            if scale < 0:
                while cut > 1 and means[cut - 1] >= 0.25 * scale:
                    cut -= 1
            ld, it = ld[:cut * b + 1], it[:cut * b + 1]
    if len(ld) < 10:
        raise InsufficientDataError("fewer than 10 usable points")
    return math.exp(dyn.fit_slope(it, ld))


class TestTrajectoryCsv:
    def test_schema_and_digits(self, reference_instance):
        traj = dyn.run(reference_instance, config(T=20, eta_x=1e-5, r=2.0,
                                                  record_primal_gaps=True))
        buf = io.StringIO()
        dyn.write_trajectory_csv(traj, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["iter", "distance", "primal_gap"]
        assert len(rows) == len(traj.distances) + 1
        # 17 significant digits round-trip the doubles exactly
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == traj.iters[i]
            assert float(row[1]) == traj.distances[i]
            assert float(row[2]) == traj.primal_gaps[i]

    def test_gap_column_empty_when_absent(self, reference_instance):
        traj = dyn.run(reference_instance,
                       config(T=5, eta_x=1e-5, r=2.0, record_primal_gaps=False))
        buf = io.StringIO()
        dyn.write_trajectory_csv(traj, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert all(row[2] == "" for row in rows[1:])

    def test_crlf_line_endings(self, reference_instance, tmp_path):
        traj = dyn.run(reference_instance, config(T=5, eta_x=1e-5, r=2.0))
        path = tmp_path / "traj.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            dyn.write_trajectory_csv(traj, fh)
        raw = path.read_bytes()
        assert b"\r\n" in raw
