import csv
import dataclasses
import io
import math
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
# budgets below (at most 2000 steps) both effects stay far inside a relative
# tolerance of 1e-8 plus an absolute one of 1e-10 per unit of |z*| + |z0 - z*|.
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
    # floats before it grows 1e8-fold), 1e301 out (1e8 * d0 overflows; the
    # measure's squares do too) or an inf entry
    offset = draw(st.sampled_from([None] * 6 + [0.0, 0.5 * eps, 1e150, 1e301, math.inf]))
    if offset is None:
        return p, cfg, cap, None
    quad = getattr(p, "base", p)
    v = rng.standard_normal(quad.dim)
    z0 = quad.z_star + (offset if offset < math.inf else 1.0) * v / np.linalg.norm(v)
    if offset == math.inf:
        z0[draw(st.integers(0, quad.dim - 1))] = math.inf
    return p, cfg, cap, z0


def growth_case(alg, steps):
    """A concave descent block ``q``, a start ``z0`` on its x axis and the
    stepsize ``h`` for both players under which the distance grows by
    g = 1 + h per GDA step and g = 1 + h + h^2 per EG step, with
    g^(steps - 1/2) equal to the documented divergence factor 1e8: the
    measure at ``steps`` is above 1e8 times the start's and every earlier
    one below."""
    q = prob.QuadraticProblem(A=np.eye(1), B=np.zeros((1, 1)), C=-np.eye(1),
                              x_star=np.ones(1), y_star=np.zeros(1), L=1.0, mu=1.0)
    z0 = q.z_star + np.array([1.0, 0.0])
    g = 1e8 ** (1.0 / (steps - 0.5))
    h = (math.sqrt(4.0 * g - 3.0) - 1.0) / 2.0 if alg is EG else g - 1.0
    return q, z0, h


class TestAffineEngine:
    """``run`` on quadratic instances against the per-step reference."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(engine_cases())
    def test_matches_per_step_reference(self, case):
        p, cfg, cap, z0 = case
        with mock.patch.object(dyn, "TRAJECTORY_STORAGE_CAP", cap):
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

    @pytest.mark.parametrize("alg,noise", [(GDA, None), (EG, None),
                                           (SGDA, prob.NoiseModel(0.01, 4))])
    @pytest.mark.parametrize("boundary", [dyn._BLOCK, 3 * dyn._BLOCK, 7 * dyn._BLOCK])
    def test_stops_on_block_and_chunk_boundaries(self, small_instance, alg, noise,
                                                 boundary):
        # chunks hold 1, 2, 4, ... blocks, so iterations b, 3b and 7b end a
        # chunk; every stop rule is placed exactly there
        p = small_instance
        eta_x, eta_y = dyn.default_stepsizes(p.L, 2.0 * prob.derive_constants(p).kappa)
        base = dict(algorithm=alg, eta_x=eta_x, eta_y=eta_y, noise=noise, seed=3)
        traj = assert_matches_reference(p, dyn.SolverConfig(
            max_iters=boundary, target_eps=1e-300, **base))
        assert traj.iters[-1] == boundary
        d = reference_run(p, dyn.SolverConfig(
            max_iters=boundary, target_eps=1e-300, **base))[2]
        # converge exactly at the boundary: eps between the last two measures
        eps = math.sqrt(d[boundary] * min(d[:boundary]))
        assert d[boundary] < min(d[:boundary])
        traj = assert_matches_reference(p, dyn.SolverConfig(
            max_iters=10 * boundary, target_eps=eps, **base))
        assert traj.status == dyn.Status(dyn.StatusKind.CONVERGED, boundary)
        # diverge exactly at the boundary
        q, z0, h = growth_case(alg, boundary)
        grow = dict(base, eta_x=h, eta_y=h)
        if alg is SGDA:
            grow["noise"] = prob.NoiseModel(1e-6, 1)
        d = reference_run(q, dyn.SolverConfig(
            max_iters=boundary, target_eps=1e-300, **grow), z0)[2]
        assert max(d[1:boundary]) < 1e8 * d[0] <= d[boundary]
        traj = assert_matches_reference(q, dyn.SolverConfig(
            max_iters=10 * boundary, target_eps=1e-300, **grow), z0)
        assert traj.status == dyn.Status(dyn.StatusKind.DIVERGED, boundary)

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

    @pytest.mark.parametrize("alg", [GDA, EG])
    def test_long_exact_run_equals_matrix_power(self, reference_instance, rng, alg):
        # chunks of 1, 2, ..., 32 blocks end at step 63 b = 4032; every later
        # chunk takes its 64 block starts from one product with the stack
        # of powers of T^b, up to (T^b)^64 = T^4096
        p = reference_instance
        eta_x, eta_y = dyn.default_stepsizes(p.L, 200.0, QUARTER)
        steps = 40_000
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
        # |1 - eta_y| = 3, so (T^64)^k overflows from k = 11 on: full chunks
        # of 64 blocks advance their block starts ten blocks at a time, and
        # y = y* must stay exact while the slow descent block converges
        # after about 27 600 steps
        p = prob.QuadraticProblem(
            A=np.eye(1), B=np.zeros((1, 1)), C=np.eye(1), x_star=np.zeros(1),
            y_star=np.zeros(1), L=1.0, mu=0.5)
        T, _ = dyn.linear_system(p, dyn.SolverConfig(
            algorithm=GDA, eta_x=1e-3, eta_y=4.0, max_iters=1, target_eps=1.0))
        with np.errstate(over="ignore", invalid="ignore"):
            Tb = dyn._power_stack(T, dyn._BLOCK)[:, -2:].T
            assert dyn._power_stack(Tb, dyn._MAX_BLOCKS).shape == (2, 2 * 10)
        cfg = dyn.SolverConfig(algorithm=GDA, eta_x=1e-3, eta_y=4.0,
                               max_iters=40_000, target_eps=1e-12)
        traj = assert_matches_reference(p, cfg, z0=np.array([1.0, 0.0]))
        assert traj.status.kind is dyn.StatusKind.CONVERGED
        assert traj.status.step > 5 * dyn._MAX_BLOCKS * dyn._BLOCK
        assert traj.final_z[1] == 0.0


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
