import hashlib
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimax_gda import problems as prob
from minimax_gda.errors import (
    GenerationFailureError,
    InvalidInputError,
    InvalidStateError,
)


def make_problem(A, B, C, L, mu):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    return prob.QuadraticProblem(
        A=A, B=B, C=C,
        x_star=np.zeros(C.shape[0]), y_star=np.zeros(A.shape[0]),
        L=L, mu=mu,
    )


class TestValidate:
    def test_clean_diagonal_instance(self):
        p = make_problem(np.diag([1.0, 2.0]), np.zeros((2, 2)), np.zeros((2, 2)), 2.0, 1.0)
        assert prob.validate(p) == ()
        assert prob.derive_constants(p).schur_min == pytest.approx(0.0, abs=1e-12)

    def test_mu_clause_fails(self):
        p = make_problem(np.diag([0.5, 2.0]), np.zeros((2, 2)), np.zeros((2, 2)), 2.0, 1.0)
        assert prob.validate(p) == ("A_lower",)

    def test_generated_instance_passes(self, reference_instance):
        assert prob.validate(reference_instance) == ()

    def test_primal_convex_clause(self):
        p = make_problem([[1.0]], [[0.0]], [[-0.5]], 2.0, 1.0)
        assert prob.validate(p) == ()
        assert prob.validate(p, require_primal_convex=True) == ("schur_psd",)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            prob.QuadraticProblem(
                A=np.eye(2), B=np.ones((3, 2)), C=np.eye(2),
                x_star=np.zeros(2), y_star=np.zeros(2), L=1.0, mu=0.5,
            )


class TestDeriveConstants:
    def test_scalar_example(self):
        p = make_problem([[1.0]], [[math.sqrt(3.0)]], [[-2.0]], 2.0, 1.0)
        dc = prob.derive_constants(p)
        assert dc.schur[0, 0] == pytest.approx(1.0)
        assert dc.mu_x == pytest.approx(1.0)
        assert dc.kappa == pytest.approx(2.0)
        assert dc.kappa_x == pytest.approx(2.0)

    def test_zero_coupling(self, rng):
        G = rng.standard_normal((3, 3))
        C = G @ G.T / 10
        p = prob.QuadraticProblem(
            A=np.eye(2), B=np.zeros((3, 2)), C=C,
            x_star=np.zeros(3), y_star=np.zeros(2), L=2.0, mu=1.0,
        )
        assert np.allclose(prob.derive_constants(p).schur, C)

    def test_hard_ratio_mu_x(self):
        p = prob.hard_ratio_instance(2.0, 1.0)
        dc = prob.derive_constants(p)
        # min(L, L*(kappa-1)) at kappa=2
        assert dc.mu_x == pytest.approx(2.0)

    def test_negative_schur_clips_to_zero(self):
        p = make_problem([[1.0]], [[0.0]], [[-0.5]], 2.0, 1.0)
        dc = prob.derive_constants(p)
        assert dc.mu_x == 0.0
        assert dc.schur_min == pytest.approx(-0.5)
        assert math.isinf(dc.kappa_x)


class TestGrad:
    def test_zero_at_optimum(self, reference_instance):
        gx, gy = prob.grad(reference_instance, reference_instance.z_star)
        assert np.allclose(gx, 0) and np.allclose(gy, 0)

    def test_scalar_substitution(self):
        p = prob.hard_rate_instance(2.0, 1.0, 1.0)
        gx, gy = prob.grad(p, np.array([1.0, 0.0]))
        assert gx[0] == pytest.approx(-2.0)
        assert gy[0] == pytest.approx(math.sqrt(3.0))

    def test_hessian_product_oracle(self, reference_instance, rng):
        p = reference_instance
        H = np.block([[p.C, p.B], [p.B.T, -p.A]])
        z = p.z_star + rng.standard_normal(p.dim)
        gx, gy = prob.grad(p, z)
        assert np.allclose(np.concatenate([gx, gy]), H @ (z - p.z_star), atol=1e-12)

    def test_affine_in_z(self, reference_instance, rng):
        p = reference_instance
        z1 = rng.standard_normal(p.dim)
        z2 = rng.standard_normal(p.dim)
        a = 0.3
        gx, gy = prob.grad(p, a * z1 + (1 - a) * z2)
        g1 = np.concatenate(prob.grad(p, z1))
        g2 = np.concatenate(prob.grad(p, z2))
        assert np.allclose(np.concatenate([gx, gy]), a * g1 + (1 - a) * g2, atol=1e-10)


class TestNoiseModel:
    @pytest.mark.parametrize("batch", [0, -1, 1.5, math.inf, math.nan, "4", None])
    def test_bad_batch_rejected(self, batch):
        with pytest.raises(InvalidInputError, match="batch must be an integer >= 1"):
            prob.NoiseModel(1.0, batch)

    @pytest.mark.parametrize("sigma", [-1.0, math.inf, math.nan])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(InvalidInputError):
            prob.NoiseModel(sigma, 1)

    def test_integral_batch_stored_as_int(self):
        for batch in (4, 4.0, np.int64(4), np.float64(4.0)):
            noise = prob.NoiseModel(1, batch)
            assert type(noise.batch) is int and noise.batch == 4
            assert type(noise.sigma) is float


class TestStochasticGrad:
    def test_sigma_zero_is_exact(self, reference_instance, rng):
        z = reference_instance.z_star + 1.0
        gx, gy = prob.grad(reference_instance, z)
        sx, sy = prob.stochastic_grad(reference_instance, z, prob.NoiseModel(0.0, 4), rng)
        assert np.array_equal(gx, sx) and np.array_equal(gy, sy)

    def test_no_noise_model_is_exact(self, reference_instance):
        # noise=None draws nothing, so it needs no generator
        z = reference_instance.z_star + 1.0
        gx, gy = prob.grad(reference_instance, z)
        sx, sy = prob.stochastic_grad(reference_instance, z, None, None)
        assert np.array_equal(gx, sx) and np.array_equal(gy, sy)

    def test_unbiased_monte_carlo(self, reference_instance):
        p = reference_instance
        rng = np.random.default_rng(7)
        z = p.z_star + 0.5
        gx, gy = prob.grad(p, z)
        sigma, S, N = 2.0, 4, 100_000
        noise = prob.NoiseModel(sigma, S)
        acc_x = np.zeros(p.n)
        sq_x = 0.0
        for _ in range(N):
            sx, sy = prob.stochastic_grad(p, z, noise, rng)
            acc_x += sx
            dx = sx - gx
            sq_x += dx @ dx
        mean_err = np.abs(acc_x / N - gx)
        assert np.all(mean_err <= 3 * sigma / math.sqrt(S * N))
        ms = sq_x / N
        assert 0.9 * sigma ** 2 / S <= ms <= 1.1 * sigma ** 2 / S

    def test_variance_scales_inverse_batch(self, reference_instance):
        p = reference_instance
        z = p.z_star + 0.5
        gx, _ = prob.grad(p, z)
        sigma = 1.0
        ms = {}
        for S in (1, 4, 16, 64):
            rng = np.random.default_rng(11)
            noise = prob.NoiseModel(sigma, S)
            total = 0.0
            for _ in range(20_000):
                sx, _ = prob.stochastic_grad(p, z, noise, rng)
                dx = sx - gx
                total += dx @ dx
            ms[S] = total / 20_000
        for S in (4, 16, 64):
            assert ms[1] / ms[S] == pytest.approx(S, rel=0.1)

    def test_successive_draws_independent(self, reference_instance, rng):
        z = reference_instance.z_star
        noise = prob.NoiseModel(1.0, 1)
        a = prob.stochastic_grad(reference_instance, z, noise, rng)
        b = prob.stochastic_grad(reference_instance, z, noise, rng)
        assert not np.allclose(a[0], b[0])


class TestPrimalGap:
    def test_zero_at_optimum(self, reference_instance):
        assert prob.primal_gap(reference_instance, reference_instance.x_star) == 0.0

    def test_scalar_arithmetic(self):
        p = prob.hard_rate_instance(2.0, 1.0, 1.0)  # schur = mu_x = 1
        assert prob.primal_gap(p, np.array([2.0])) == pytest.approx(2.0)

    def test_eigenvector_direction(self, reference_instance):
        dc = prob.derive_constants(reference_instance)
        w, V = np.linalg.eigh(dc.schur)
        t = 0.7
        gap = prob.primal_gap(reference_instance, reference_instance.x_star + t * V[:, -1])
        assert gap == pytest.approx(0.5 * w[-1] * t ** 2, rel=1e-10)

    def test_indefinite_schur_rejected(self):
        p = make_problem([[1.0]], [[0.0]], [[-0.5]], 2.0, 1.0)
        with pytest.raises(InvalidStateError):
            prob.primal_gap(p, np.array([1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_is_infinitely_far(self, reference_instance, bad):
        # max(0, nan) is 0: a blown-up iterate must not read as optimal
        x = reference_instance.x_star.copy()
        x[-1] = bad
        assert prob.primal_gap(reference_instance, x) == math.inf

    def test_overflowing_form_is_infinitely_far(self):
        # the two products of x'Sx are -7.2e308 and 1.98e309: an unscaled
        # form is -inf + inf = nan, which a clip at 0 read as optimal
        p = make_problem(np.eye(2), np.zeros((2, 2)), [[100.0, -90.0], [-90.0, 100.0]],
                         200.0, 1.0)
        assert prob.validate(p, require_primal_convex=True) == ()
        assert prob.primal_gap(p, np.array([-3e153, -6e153])) == math.inf

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 4), (2, 3)])
    def test_bad_shape_rejected(self, reference_instance, shape):
        with pytest.raises(InvalidInputError, match="length n=4"):
            prob.primal_gap(reference_instance, np.zeros(shape))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(-1, 2),
           st.floats(0.3, 3.0), st.sampled_from([0.0, 0.3]), st.integers(0, 2 ** 16),
           st.lists(st.tuples(st.one_of(st.floats(-3.0, 3.0), st.floats(148.0, 158.0)),
                              st.sampled_from([None] * 3 + [math.nan, math.inf, -math.inf])),
                    min_size=1, max_size=6))
    def test_stack_matches_rows_and_exact_form(self, n, m, log_L, log_kappa,
                                               margin, seed, rows):
        # rows of magnitude up to 1e158 cross the overflow threshold of the
        # form; some rows carry a non-finite entry
        L = 10.0 ** log_L
        p = prob.sample_instance(n, m, L, L / 10.0 ** log_kappa, seed,
                                 primal_convex=True, schur_margin=margin * L)
        rng = np.random.default_rng(seed)
        X = np.empty((len(rows), n))
        for i, (log_size, bad) in enumerate(rows):
            X[i] = rng.standard_normal(n) * 10.0 ** log_size
            if bad is not None:
                X[i, rng.integers(n)] = bad
        gaps = prob.primal_gap(p, X)
        assert gaps.shape == (len(rows),)
        # one row and a stack may take different BLAS kernels, so the two
        # agree to the round-off bound below, not bit for bit
        by_row = np.array([prob.primal_gap(p, x) for x in X])
        assert np.array_equal(np.isinf(gaps), np.isinf(by_row))
        assert np.all(gaps >= 0.0) and np.all(by_row >= 0.0)
        S = prob.derive_constants(p).schur
        norm_S = Fraction(float(np.linalg.norm(S, 2)))
        top = Fraction(sys.float_info.max)
        for x, gap, row_gap in zip(X, gaps, by_row):
            if not np.isfinite(x).all():
                assert gap == math.inf
                continue
            d = [Fraction(float(v)) for v in x - p.x_star]
            exact = sum(d[i] * Fraction(float(S[i, j])) * d[j]
                        for i in range(n) for j in range(n)) / 2
            tol = Fraction(1, 10 ** 12) * sum(v * v for v in d) / 2 * norm_S
            if gap == math.inf:
                assert exact >= top - tol
            else:
                assert exact <= top + tol
                assert abs(Fraction(gap) - exact) <= tol
                assert abs(Fraction(row_gap) - exact) <= tol


class TestSampleInstance:
    def test_passes_validate_and_seeds_reproduce(self):
        p1 = prob.sample_instance(4, 4, 100.0, 1.0, 42)
        p2 = prob.sample_instance(4, 4, 100.0, 1.0, 42)
        assert prob.validate(p1) == ()
        for name in ("A", "B", "C", "x_star", "y_star"):
            assert np.array_equal(getattr(p1, name), getattr(p2, name))

    def test_spectrum_endpoints_forced(self):
        p = prob.sample_instance(4, 4, 100.0, 1.0, 3)
        w = np.linalg.eigvalsh(p.A)
        assert w[0] == pytest.approx(1.0, abs=1e-9)
        assert w[-1] == pytest.approx(100.0, abs=1e-7)

    def test_zero_beta_gives_schur_equal_C(self):
        p = prob.sample_instance(4, 4, 10.0, 1.0, 5, beta=0.0)
        assert np.allclose(p.B, 0.0)
        assert np.allclose(prob.derive_constants(p).schur, p.C)

    def test_mu_x_zero_construction(self):
        p = prob.sample_instance(4, 4, 100.0, 1.0, 9, mu_x_zero=True)
        dc = prob.derive_constants(p)
        assert abs(dc.schur_min) <= 1e-9 * p.L
        assert dc.mu_x == 0.0

    def test_primal_convex_shift(self):
        p = prob.sample_instance(4, 4, 100.0, 1.0, 2, primal_convex=True)
        assert prob.derive_constants(p).schur_min >= -1e-9 * p.L

    def test_impossible_generation_fails(self):
        # a schur margin beyond the norm budget cannot be met
        with pytest.raises(GenerationFailureError):
            prob.sample_instance(4, 4, 10.0, 1.0, 0, primal_convex=True,
                                 schur_margin=1e6)

    @pytest.mark.parametrize("mu_x_zero", [False, True])
    def test_schur_margin_needs_primal_convex(self, mu_x_zero):
        # the margin used to be ignored, giving an instance with mu_x = 0
        with pytest.raises(InvalidInputError, match="primal_convex"):
            prob.sample_instance(4, 4, 10.0, 1.0, 5, schur_margin=3.0,
                                 mu_x_zero=mu_x_zero)

    @pytest.mark.parametrize("seed", [-1, 1.5, math.nan, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InvalidInputError, match="seed must be an integer >= 0"):
            prob.sample_instance(2, 2, 10.0, 1.0, seed)

    def test_seed_forms_agree(self):
        # an integral float is the integer seed; a Generator is used as given
        want = prob.sample_instance(2, 2, 10.0, 1.0, 3)
        for seed in (3.0, np.int64(3), np.random.default_rng(3)):
            assert np.array_equal(prob.sample_instance(2, 2, 10.0, 1.0, seed).C, want.C)


# SHA-256 of A, B and C bytes (in that order) of sample_instance(n, m, 100, 1,
# seed, **_DRAW_KINDS[kind]), recorded before the draw was rewritten in
# stacked form: the bit-exact invariant for generated instances.  "retry"
# draws need several attempts (norm budget exceeded after the shift);
# every mu_x_zero draw here shrinks beta at least once.
_DRAW_KINDS = {
    "default": {},
    "primal_convex": {"primal_convex": True},
    "schur_margin": {"primal_convex": True, "schur_margin": 1.0},
    "mu_x_zero": {"mu_x_zero": True},
    "retry": {"primal_convex": True, "schur_margin": 30.0},
}
_DRAW_DIGESTS = {
    ("default", 1, 1, 0): "7461a7dd01bc6565fbc0a80c89e70d49825267f9d82a6af75061f07ef52c3e1f",
    ("default", 1, 1, 7): "5ec4401f6fcaf274c7abcbb249a76ca578b3fda652c3b1e64a1425f342adfe1f",
    ("default", 3, 2, 0): "3103f3a3236bced4bd52480a2129b4789f757de8e8d4a33d5552f8298690560a",
    ("default", 3, 2, 7): "0754b8443ef266b3ce49ea4d4af37c64124bea93d45a229cd21dfae6a00bd2a6",
    ("default", 4, 4, 0): "33a43aacece4792b14d53a33e567883a7ceb3fafedfecf626da5fde67d2ac069",
    ("default", 4, 4, 7): "8fc1757cafbc2925888dbc5ea98a9cab34ffb461b4352d0a23c0fe5f42359da9",
    ("default", 16, 16, 0): "ad6faeb21152e091c9731d3c0e8ba8abcb97f184e56028af3040101207ed4762",
    ("default", 16, 16, 7): "00c7b05814cbfa2c6d27adf4f985695e7984affc06e194efeda3559faa3ca599",
    ("default", 32, 32, 0): "7af96e6a338efdfb81e0fa8430c9ff6deba4fe8e6d654f705ddb113f787b3834",
    ("default", 32, 32, 7): "bda9963fe101147d3555b3d5e8a68003533a3ac5846058a7416feaa7c7325510",
    ("primal_convex", 1, 1, 0): "7461a7dd01bc6565fbc0a80c89e70d49825267f9d82a6af75061f07ef52c3e1f",
    ("primal_convex", 1, 1, 7): "5ec4401f6fcaf274c7abcbb249a76ca578b3fda652c3b1e64a1425f342adfe1f",
    ("primal_convex", 3, 2, 0): "d23619d47aa405602d43e284d8691cd3ee655e0ed02dd9b81aea4eee3a304016",
    ("primal_convex", 3, 2, 7): "07c878195fa6a6e633d6e1007283f8b04b593f6ed19eaaa12ea03aa560964f6c",
    ("primal_convex", 4, 4, 0): "d8ff6c93cda9a0aee8f0d3a39ebff572c5dfe6b4588345544b9f31923b8c6cdb",
    ("primal_convex", 4, 4, 7): "78c892ff4a9b160547ea69b8f210408d47bccd65ac39dea06e94748ec4bfa199",
    ("primal_convex", 16, 16, 0): "406395245e1fe7fddd9432bb5a8e31d01a5dead1fe5fbdba46b7db849250c3cc",
    ("primal_convex", 16, 16, 7): "512c17dad1b4b81c2003019a3b2e43ecbb2e839a9a4492e5119d35f2705981ee",
    ("primal_convex", 32, 32, 0): "9064a131d82a95785c0e60071d442b4d8f8c669f1751ed13fda34e83957b43d9",
    ("primal_convex", 32, 32, 7): "a80cde9b2d07ad90babdc81a677858e602e16586650a1ec9c4ceb0be197b9be8",
    ("schur_margin", 1, 1, 0): "7461a7dd01bc6565fbc0a80c89e70d49825267f9d82a6af75061f07ef52c3e1f",
    ("schur_margin", 1, 1, 7): "5ec4401f6fcaf274c7abcbb249a76ca578b3fda652c3b1e64a1425f342adfe1f",
    ("schur_margin", 3, 2, 0): "5202ee617c2ba37309cdbac8e1e6742bc05cf51f3edcb71d1da4263c92ecc80a",
    ("schur_margin", 3, 2, 7): "3cb4a677ab56c094ad66b69de24e389bae1245882fa53e076949d29f35a62cfb",
    ("schur_margin", 4, 4, 0): "9e203e230f840dfb30ca76b5a761351a3b27ece73fd3f8cf0686eb0260641f05",
    ("schur_margin", 4, 4, 7): "667ce2990c6264609b7d55104a49a84031ff47e0be5a1924178bac5ceb6375ef",
    ("schur_margin", 16, 16, 0): "5eb281d8f92dc9b26534aa9ac3b96083eebc7d390afcb893328d8360001d4b31",
    ("schur_margin", 16, 16, 7): "96eb71e2ff7a52c9828854707baadfd6312ea0c43fce95e09b047652089bfc5e",
    ("schur_margin", 32, 32, 0): "b7db66493c33ef56dc1fbd5e582313223fedcc6ed1a16f07d363a90de603a40c",
    ("schur_margin", 32, 32, 7): "842885de4b6b68279c201edd079d65ae672542796b427584e702a62b513f7b56",
    ("mu_x_zero", 1, 1, 0): "decffa2743e57edb87c4f8afbf7750d8d8e78d9a961f8a1f80c44eb50894d2e6",
    ("mu_x_zero", 1, 1, 7): "decffa2743e57edb87c4f8afbf7750d8d8e78d9a961f8a1f80c44eb50894d2e6",
    ("mu_x_zero", 3, 2, 0): "5d2d8fe1a394c9b5baafa3810f0a7ee9b6fa015309cd27b5aecfdc223eba401c",
    ("mu_x_zero", 3, 2, 7): "4c074166a570566db39debeb776c72903fdcb2118e1fe0740cb5e56e31d14c07",
    ("mu_x_zero", 4, 4, 0): "213f6a01d2788a5b582b33b56fdf019d709287434af38e9abe7e3fbc55311776",
    ("mu_x_zero", 4, 4, 7): "c4700fded4fbfe0e657a1583722e89da079a36bb164b7834fdeace14a417e462",
    ("mu_x_zero", 16, 16, 0): "d6bfab9116c9706eb33d39253b817395dc31125cd9c5f48ae2d5c02e997b1dbb",
    ("mu_x_zero", 16, 16, 7): "8823158c225bca1952dd0c47a52c679e4b5327080f1af62c3a36c7f9c42ec1c8",
    ("mu_x_zero", 32, 32, 0): "96f24a74ab3325bc4d5547c4825a8070182e896b87754522132929a307a960f2",
    ("mu_x_zero", 32, 32, 7): "a67bb004f6ad739df190fb3a1c85524f1c067c0acf1621493448690cffbe005d",
    ("retry", 3, 2, 8): "4586a483a7049abebb28b5c6711888ae6b9b6686511f103dd38ac675857455d8",
    ("retry", 4, 4, 10): "789704e7e01cdcd2ae194032610907e8ee1f262351252e28e583f517f0b5170b",
    ("retry", 16, 16, 3): "f71f675be090a386fca20354f430b0d39d5b7fdb59a9d0b7a25f504af9cad8a9",
}


@pytest.mark.parametrize("kind,n,m,seed", sorted(_DRAW_DIGESTS))
def test_sample_instance_bytes_pinned(kind, n, m, seed):
    p = prob.sample_instance(n, m, 100.0, 1.0, seed, **_DRAW_KINDS[kind])
    digest = hashlib.sha256(p.A.tobytes() + p.B.tobytes() + p.C.tobytes())
    assert digest.hexdigest() == _DRAW_DIGESTS[kind, n, m, seed]


class TestHardInstances:
    def test_ratio_instance_blocks(self):
        p = prob.hard_ratio_instance(2.0, 1.0)
        assert p.A[0, 0] == 1.0 and p.B[0, 0] == 2.0 and p.C[0, 0] == -2.0
        assert prob.validate(p) == ()

    def test_ratio_instance_trace_identity(self):
        # at mu=1 the dynamics matrix has trace kappa - r
        from minimax_gda.dynamics import build_M
        p = prob.hard_ratio_instance(2.0, 1.0)
        assert np.trace(build_M(p, 3.0)) == pytest.approx(-1.0)

    def test_ratio_instance_requires_kappa_2(self):
        with pytest.raises(InvalidInputError):
            prob.hard_ratio_instance(1.5, 1.0)

    def test_rate_instance_values(self):
        p = prob.hard_rate_instance(2.0, 1.0, 1.0)
        assert p.B[0, 0] == pytest.approx(math.sqrt(3.0))
        dc = prob.derive_constants(p)
        assert dc.mu_x == pytest.approx(1.0, abs=1e-9 * p.L)
        assert prob.validate(p) == ()

    def test_rate_instance_boundary(self):
        p = prob.hard_rate_instance(2.0, 1.0, 2.0)
        assert p.B[0, 0] == pytest.approx(math.sqrt(2.0 * 1.0 * 2.0))

    def test_rate_instance_mu_x_range(self):
        with pytest.raises(InvalidInputError):
            prob.hard_rate_instance(2.0, 1.0, 3.0)
        with pytest.raises(InvalidInputError):
            prob.hard_rate_instance(2.0, 1.0, 0.0)

    @pytest.mark.parametrize("L,mu,mu_x", [(2.0, 1.0, 0.1), (8.0, 1.0, 4.0), (64.0, 2.0, 33.0)])
    def test_rate_instance_recovers_mu_x(self, L, mu, mu_x):
        p = prob.hard_rate_instance(L, mu, mu_x)
        assert prob.derive_constants(p).mu_x == pytest.approx(mu_x, abs=1e-9 * L)


class TestRegularize:
    def test_rejects_out_of_range_delta(self, reference_instance):
        with pytest.raises(InvalidInputError):
            prob.regularize(reference_instance, 0.0)
        with pytest.raises(InvalidInputError):
            prob.regularize(reference_instance, reference_instance.L * 1.01)

    def test_schur_shifts_by_delta(self):
        p = prob.sample_instance(4, 4, 100.0, 1.0, 9, mu_x_zero=True)
        delta = 0.37
        reg = prob.regularize(p, delta)
        dc0 = prob.derive_constants(p)
        dc1 = prob.derive_constants(reg)
        assert np.allclose(dc1.schur, dc0.schur + delta * np.eye(p.n), atol=1e-12)
        assert dc1.mu_x >= delta - 1e-9 * p.L

    def test_norm_triangle(self, reference_instance):
        from minimax_gda.linalg import spectral_norm
        delta = 0.5
        reg = prob.regularize(reference_instance, delta)
        assert spectral_norm(reg.C) <= spectral_norm(reference_instance.C) + delta + 1e-12


class TestNonQuadratic:
    def _nq(self, base, a=1.0, seed=0):
        rng = np.random.default_rng(seed)
        return prob.NonQuadraticProblem(base=base, a=a, b=rng.standard_normal(base.n))

    @pytest.mark.parametrize("a", [-1.0, math.nan, math.inf])
    def test_a_not_nonnegative_finite_rejected(self, reference_instance, a):
        with pytest.raises(InvalidInputError, match="a must be nonnegative and finite"):
            self._nq(reference_instance, a=a)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_b_rejected(self, reference_instance, bad):
        b = np.zeros(reference_instance.n)
        b[-1] = bad
        with pytest.raises(InvalidInputError, match="b must be finite"):
            prob.NonQuadraticProblem(base=reference_instance, a=1.0, b=b)

    def test_gradient_vanishes_at_centers(self, reference_instance):
        nq = self._nq(reference_instance)
        z = np.concatenate([nq.b, reference_instance.y_star])
        gx, gy = prob.nonquad_grad(nq, z)
        bgx, bgy = prob.grad(reference_instance, z)
        assert np.allclose(gx, bgx)
        assert np.array_equal(gy, bgy)

    def test_finite_difference_oracle(self, reference_instance, rng):
        nq = self._nq(reference_instance, a=1.3)
        z = reference_instance.z_star + rng.standard_normal(reference_instance.dim)
        gx, gy = prob.nonquad_grad(nq, z)
        g = np.concatenate([gx, gy])
        h = 1e-6
        for i in range(len(z)):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd = (_nonquad_value(nq, zp) - _nonquad_value(nq, zm)) / (2 * h)
            assert fd == pytest.approx(g[i], rel=1e-5, abs=1e-7)

    def test_deviation_independent_of_r(self, reference_instance):
        # the xy and yy terms of delta_r are 0, so the one number is a^2 L/(2n)
        nq = self._nq(reference_instance, a=0.7)
        dev = prob.nonquad_hessian_deviation(nq)
        assert dev == 0.7 ** 2 * reference_instance.L / (2.0 * reference_instance.n)

    def test_deviation_bounds_fd_hessian(self, reference_instance):
        # diagonal curvature of the separable term never exceeds dxx
        nq = self._nq(reference_instance, a=1.7)
        dev = prob.nonquad_hessian_deviation(nq)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10_000, reference_instance.n)) * 3.0
        h = 1e-5
        scale, a, b = nq.scale, nq.a, nq.b

        def pair_term(x):
            u = a * (x - b)
            return scale * (np.logaddexp(0.0, u) + np.logaddexp(0.0, -u))

        second = (pair_term(x + h) - 2 * pair_term(x) + pair_term(x - h)) / h ** 2
        assert np.max(second) <= dev * (1 + 1e-4)


def _nonquad_value(nq, z):
    base = nq.base
    x, y = z[: base.n], z[base.n:]
    dx, dy = x - base.x_star, y - base.y_star
    f0 = 0.5 * dx @ (base.C @ dx) + dx @ (base.B @ dy) - 0.5 * dy @ (base.A @ dy)
    u = nq.a * (x - nq.b)
    return f0 + nq.scale * np.sum(np.logaddexp(0.0, u) + np.logaddexp(0.0, -u))


class TestSerialization:
    def test_round_trip_bit_exact(self):
        p = prob.sample_instance(3, 2, 17.0, 0.3, 77)
        data = json.loads(json.dumps(prob.to_json_dict(p)))
        q = prob.from_json_dict(data)
        for name in ("A", "B", "C", "x_star", "y_star"):
            assert np.array_equal(getattr(p, name), getattr(q, name))
        assert p.L == q.L and p.mu == q.mu

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300]))
    def test_round_trip_bit_exact_any_shape(self, n, m, seed, scale):
        # arbitrary finite doubles, not just generated instances, through
        # the same text the instance files hold
        rng = np.random.default_rng(seed)
        p = prob.QuadraticProblem(
            A=rng.standard_normal((m, m)) * scale, B=rng.standard_normal((n, m)) * scale,
            C=rng.standard_normal((n, n)) * scale, x_star=rng.standard_normal(n) * scale,
            y_star=rng.standard_normal(m) * scale, L=float(rng.uniform(1, 100)),
            mu=float(rng.uniform(1e-3, 1)),
        )
        buf = io.StringIO()
        prob.write_instance(p, buf)
        q = prob.from_json_dict(json.loads(buf.getvalue()))
        for name in ("A", "B", "C", "x_star", "y_star"):
            a, b = getattr(p, name), getattr(q, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert (p.L, p.mu) == (q.L, q.mu)

    def test_file_round_trip(self, tmp_path):
        p = prob.hard_rate_instance(2.0, 1.0, 0.1)
        path = tmp_path / "inst.json"
        prob.save_instance(p, path)
        q = prob.load_instance(path)
        assert np.array_equal(p.B, q.B)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InvalidInputError):
            prob.load_instance(path)
        with pytest.raises(InvalidInputError):
            prob.from_json_dict({"n": 2})

    @pytest.mark.parametrize("key, value", [("n", 0), ("m", 0), ("n", 1.7),
                                            ("m", -1), ("n", "2")])
    def test_block_size_not_a_positive_count_rejected(self, key, value):
        # n = 1.7 used to be read as 1
        data = prob.to_json_dict(prob.sample_instance(1, 1, 4.0, 1.0, 0))
        data[key] = value
        with pytest.raises(InvalidInputError, match=f"{key} must be an integer >= 1"):
            prob.from_json_dict(data)

    @pytest.mark.parametrize("n, m", [(0, 2), (2, 0)])
    def test_empty_block_rejected(self, n, m):
        # an empty block used to be accepted; derive_constants then raised
        # a bare IndexError (n = 0) or ValueError (m = 0)
        with pytest.raises(InvalidInputError, match="n and m must be >= 1"):
            prob.QuadraticProblem(A=np.eye(m), B=np.zeros((n, m)), C=np.zeros((n, n)),
                                  x_star=np.zeros(n), y_star=np.zeros(m), L=1.0, mu=1.0)
