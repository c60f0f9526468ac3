"""Bit-identity of the direct kernel routes against the library routes they
stand in for (``numpy.linalg``'s wrappers, scipy's Cholesky wrappers), and
the number of factorisations one sampled instance costs.

Each fast route calls the same LAPACK routine on the same data as the
reference route, so the comparisons are exact (``np.array_equal``, ``==``),
not within a tolerance.  Shapes run from 1 to 64, the top of the size range
the ``linalg`` module documents.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minimax_gda import dynamics as dyn
from minimax_gda import linalg
from minimax_gda import problems as prob
from minimax_gda import verify
from minimax_gda.errors import InvalidInputError, NotPositiveDefiniteError

umath_linalg = np.linalg._umath_linalg

dims = st.integers(min_value=1, max_value=64)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
scales = st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8])
identity_settings = settings(max_examples=40, deadline=None, derandomize=True)


def _spd(rng, n, log_kappa):
    """Exactly symmetric positive-definite matrix with condition number
    about ``10**log_kappa``."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.logspace(0.0, log_kappa, n)
    A = (Q * lam) @ Q.T
    return 0.5 * (A + A.T)


def _scipy_cho_solve(A, b):
    # reference route: scipy's Cholesky wrappers on (A + A')/2
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(0.5 * (A + A.T), lower=True), b)


class TestSpectralNormIdentity:
    @identity_settings
    @given(dims, dims, seeds, scales)
    @example(64, 64, 0, 1.0)
    @example(64, 1, 1, 1e8)
    @example(1, 64, 2, 1e-8)
    def test_equals_numpy_2_norm(self, rows, cols, seed, scale):
        M = np.random.default_rng(seed).standard_normal((rows, cols)) * scale
        assert linalg.spectral_norm(M) == float(np.linalg.norm(M, 2))

    @identity_settings
    @given(dims, seeds)
    def test_rank_one_and_transposed_views(self, n, seed):
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal(n), rng.standard_normal(n + 1)
        M = np.outer(u, v)
        assert linalg.spectral_norm(M) == float(np.linalg.norm(M, 2))
        assert linalg.spectral_norm(M.T) == float(np.linalg.norm(M.T, 2))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_matrix_is_zero(self, shape):
        assert linalg.spectral_norm(np.zeros(shape)) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            linalg.spectral_norm(np.array([[1.0, np.nan]]))


def _crafted(kind, n, seed, scale):
    """An ``n x n`` test matrix of the named kind, times ``scale``."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    if kind == "symmetric":
        M = M + M.T
    elif kind == "triangular":
        M = np.triu(M)
    elif kind == "signed_zero_diagonal":
        # an all-real spectrum holding -0.0 and +0.0
        M = np.diag(rng.choice([-0.0, 0.0, 1.0, -2.0], n))
    elif kind == "complex_pairs":
        M = M - M.T
    elif kind == "singular":
        M[:, 0] = M[:, -1]
    return M * scale


def _public_eig(M):
    # general_eig's route before it called the gufunc
    w, V = np.linalg.eig(M)
    w = np.asarray(w, dtype=complex)
    order = np.lexsort((w.imag, w.real))
    return w[order], np.asarray(V, dtype=complex)[:, order]


def _public_eigenvalues(M):
    w = np.asarray(np.linalg.eigvals(M), dtype=complex)
    return w[np.lexsort((w.imag, w.real))]


def _public_cond_2(P):
    sigma = np.linalg.svd(P, compute_uv=False)
    return float(sigma[0]) / float(sigma[-1]) if sigma[-1] > 0 else np.inf


def _bytes(x):
    return tuple(np.asarray(a).tobytes() for a in (x if isinstance(x, tuple) else (x,)))


kinds = st.sampled_from(["general", "symmetric", "triangular", "signed_zero_diagonal",
                         "complex_pairs", "singular"])


class TestNumpyLinalgRoutes:
    """The eigen- and singular-value kernels call ``numpy.linalg``'s own
    gufuncs, so their outputs equal the public ``numpy.linalg`` routes
    they replaced, byte for byte (signed zeros included)."""

    def test_gufuncs_are_numpy_linalg_routines(self):
        assert linalg._EIG is umath_linalg.eig
        assert linalg._EIGVALS is umath_linalg.eigvals
        assert linalg._EIGH is umath_linalg.eigh_lo
        assert linalg._SVD is umath_linalg.svd

    @identity_settings
    @given(kinds, dims, seeds, scales)
    @example("signed_zero_diagonal", 8, 0, 1.0)
    @example("complex_pairs", 64, 1, 1e8)
    @example("singular", 64, 2, 1e-8)
    def test_general_kernels(self, kind, n, seed, scale):
        M = _crafted(kind, n, seed, scale)
        assert _bytes(linalg.eigenvalues(M)) == _bytes(_public_eigenvalues(M))
        assert _bytes(linalg.general_eig(M)) == _bytes(_public_eig(M))
        assert _bytes(linalg.spectral_norm(M)) == _bytes(
            float(np.linalg.svd(M, compute_uv=False)[0]))
        assert _bytes(linalg.cond_2(M)) == _bytes(_public_cond_2(M))

    @identity_settings
    @given(kinds, dims, seeds, scales)
    @example("signed_zero_diagonal", 8, 0, 1.0)
    @example("general", 64, 1, 1e8)
    def test_sym_eig(self, kind, n, seed, scale):
        M = _crafted(kind, n, seed, scale)
        S = M + M.T
        assert _bytes(linalg.sym_eig(S)) == _bytes(tuple(np.linalg.eigh(0.5 * (S + S.T))))

    @identity_settings
    @given(kinds, dims, seeds, scales)
    @example("complex_pairs", 64, 0, 1.0)
    @example("singular", 16, 1, 1e-8)
    def test_complex_cond_2(self, kind, n, seed, scale):
        # the complex eigenvector bases basis_cond reads, and a complex
        # matrix with both parts drawn
        M = _crafted(kind, n, seed, scale)
        P = linalg.general_eig(M)[1]
        Z = M + 1j * _crafted(kind, n, seed + 1, scale)
        for Q in (P, Z):
            assert _bytes(linalg.cond_2(Q)) == _bytes(_public_cond_2(Q))

    @pytest.mark.parametrize("M", [
        np.diag([-0.0, 0.0, -1.0]),
        -0.0 * np.triu(np.ones((4, 4))),
        np.array([[0.0, -0.0], [0.0, -0.0]]),
    ], ids=["mixed_zeros", "negative_zero_triangle", "negative_zero_column"])
    def test_signed_zero_spectra(self, M):
        assert _bytes(linalg.eigenvalues(M)) == _bytes(_public_eigenvalues(M))
        assert _bytes(linalg.general_eig(M)) == _bytes(_public_eig(M))


class TestSolveSpdIdentity:
    @identity_settings
    @given(dims, seeds, st.floats(0.0, 8.0))
    @example(64, 0, 8.0)
    def test_vector_rhs(self, n, seed, log_kappa):
        rng = np.random.default_rng(seed)
        A = _spd(rng, n, log_kappa)
        b = rng.standard_normal(n)
        x = linalg.solve_spd(A, b)
        assert x.shape == (n,)
        assert np.array_equal(x, scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(A, lower=True), b))

    @identity_settings
    @given(dims, st.integers(1, 64), seeds, st.floats(0.0, 8.0))
    @example(64, 64, 0, 8.0)
    def test_matrix_rhs(self, n, k, seed, log_kappa):
        rng = np.random.default_rng(seed)
        A = _spd(rng, n, log_kappa)
        b = rng.standard_normal((n, k))
        X = linalg.solve_spd(A, b)
        assert X.shape == (n, k)
        assert np.array_equal(X, scipy.linalg.cho_solve(
            scipy.linalg.cho_factor(A, lower=True), b))

    @identity_settings
    @given(dims, seeds)
    def test_nearly_symmetric_input_and_transposed_rhs(self, n, seed):
        # asymmetry inside the 1e-12 tolerance is symmetrised away first;
        # a transposed (Fortran-ordered) right-hand side is a view like B.T
        rng = np.random.default_rng(seed)
        A = _spd(rng, n, 3.0)
        A[0, -1] *= 1.0 + 1e-14
        b = rng.standard_normal((3, n)).T
        assert np.array_equal(linalg.solve_spd(A, b), _scipy_cho_solve(A, b))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("rhs_shape", [(3,), (3, 2)])
    def test_non_finite_rhs_rejected(self, bad, rhs_shape):
        b = np.ones(rhs_shape)
        b.flat[-1] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            linalg.solve_spd(np.eye(3), b)

    @pytest.mark.parametrize("A", [
        np.array([[1.0, 1.0], [1.0, 1.0]]),   # singular PSD
        np.zeros((2, 2)),                      # singular
        np.array([[1.0, 2.0], [2.0, 1.0]]),   # indefinite, positive diagonal
    ])
    def test_not_positive_definite(self, A):
        with pytest.raises(NotPositiveDefiniteError, match="leading minor"):
            linalg.solve_spd(A, np.ones(2))

    def test_rhs_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            linalg.solve_spd(np.eye(3), np.ones(2))

    def test_symmetrisation_overflow_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError):
            linalg.solve_spd(np.full((2, 2), 1.7e308), np.ones(2))

    def test_inputs_not_mutated(self, rng):
        A = _spd(rng, 5, 2.0)
        b = rng.standard_normal((5, 3))
        A0, b0 = A.copy(), b.copy()
        linalg.solve_spd(A, b)
        assert np.array_equal(A, A0) and np.array_equal(b, b0)


class TestCond2NonFinite:
    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf)])
    def test_complex_non_finite_rejected(self, bad):
        P = np.eye(2, dtype=complex)
        P[0, 1] = bad
        with pytest.raises(InvalidInputError):
            linalg.cond_2(P)


class TestBuildMIdentity:
    @identity_settings
    @given(dims, dims, seeds, st.floats(1e-3, 1e4))
    @example(32, 32, 0, 1.0)
    def test_equals_block_form(self, n, m, seed, r):
        rng = np.random.default_rng(seed)
        p = prob.QuadraticProblem(
            A=rng.standard_normal((m, m)), B=rng.standard_normal((n, m)),
            C=rng.standard_normal((n, n)), x_star=np.zeros(n),
            y_star=np.zeros(m), L=1.0, mu=1.0,
        )
        M = dyn.build_M(p, r)
        ref = np.block([[-p.C, -p.B], [r * p.B.T, -r * p.A]])
        assert M.dtype == ref.dtype and M.flags.c_contiguous
        assert np.array_equal(M, ref)


class TestValidateSchurIdentity:
    @identity_settings
    @given(st.integers(1, 64), st.integers(1, 64), seeds,
           st.sampled_from(["random", "primal_convex", "mu_x_zero"]))
    @example(64, 64, 0, "random")
    def test_schur_min_equals_direct_eigensolve(self, n, m, seed, family):
        kw = {family: True} if family != "random" else {}
        base = prob.sample_instance(n, m, 100.0, 1.0, seed, **kw)
        # a fresh instance, so validating the Schur clause fills the
        # derived-constant cache
        p = prob.QuadraticProblem(base.A, base.B, base.C, base.x_star,
                                  base.y_star, base.L, base.mu)
        direct = float(linalg.sym_eig(p.C + p.B @ linalg.solve_spd(p.A, p.B.T))[0][0])
        failed = prob.validate(p, require_primal_convex=True)
        assert prob.derive_constants(p).schur_min == direct
        psd = direct >= -prob.VALIDATION_RTOL * p.L
        assert failed == (() if psd else ("schur_psd",))

    def test_not_positive_definite_A_fails_schur_clause(self):
        p = prob.QuadraticProblem(A=[[-1.0]], B=[[0.5]], C=[[1.0]], x_star=[0.0],
                                  y_star=[0.0], L=2.0, mu=1.0)
        assert prob.validate(p, require_primal_convex=True) == ("A_lower", "schur_psd")


class TestFactorisationCount:
    @pytest.mark.parametrize("seed", range(6))
    def test_one_cholesky_two_eigensolves_per_sampled_instance(self, seed, monkeypatch):
        calls = {"solve_spd": 0, "sym_eig": 0}
        for name in calls:
            inner = getattr(linalg, name)

            def counted(*args, _inner=inner, _name=name):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(linalg, name, counted)
        p = prob.sample_instance(4, 4, 100.0, 1.0, seed)
        prob.derive_constants(p)
        assert calls == {"solve_spd": 1, "sym_eig": 2}
        # validating again eigensolves A only; the Schur complement is cached
        prob.validate(p, require_primal_convex=True)
        assert calls == {"solve_spd": 1, "sym_eig": 3}


class TestGradientCount:
    """A step on a non-quadratic instance takes the exact gradient at its
    iterate from the measure, a noisy one adding its draws to it, so the
    run calls ``nonquad_grad`` once per iterate (EG: once more per half
    step)."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        inner = prob.nonquad_grad

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(prob, "nonquad_grad", counted)
        return calls

    @pytest.mark.parametrize("alg,sigma,per_step", [
        ("gda", None, 1), ("eg", None, 2), ("eg", 0.0, 2), ("sgda", 0.1, 1), ("eg", 0.1, 2)])
    def test_calls_per_step(self, monkeypatch, alg, sigma, per_step):
        base = prob.sample_instance(3, 2, 10.0, 1.0, 4, primal_convex=True)
        nq = prob.NonQuadraticProblem(base=base, a=1.0, b=np.ones(3))
        noise = None if sigma is None else prob.NoiseModel(sigma, 4)
        steps = 300  # five chunks of at most 64 steps, the last one 44
        cfg = dyn.SolverConfig(algorithm=alg, eta_x=1e-3, eta_y=1e-2, max_iters=steps,
                               target_eps=1e-300, noise=noise, seed=2)
        # the per-step steppers on the plain oracle, before counting
        oracle = dyn.make_oracle(nq, noise)
        step = dyn.eg_step if alg == "eg" else dyn.gda_step
        rng = np.random.default_rng(cfg.seed)
        z = dyn.default_initial_point(base, cfg.seed)
        for _ in range(steps):
            z = step(oracle, z, cfg.eta_x, cfg.eta_y, rng)
        calls = self._counted(monkeypatch)
        traj = dyn.run(nq, cfg)
        assert len(calls) == 1 + per_step * steps
        assert traj.final_z.tobytes() == z.tobytes()

    def test_nearly_quadratic_check(self, monkeypatch):
        # criterion 9's GDA run converges at step 515 and computes the 576
        # steps of its nine 64-step chunks: one call per iterate
        calls = self._counted(monkeypatch)
        assert verify.check_nearly_quadratic().passed
        assert len(calls) == 577
