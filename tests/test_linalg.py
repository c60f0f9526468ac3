import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from minimax_gda import dynamics as dyn
from minimax_gda import linalg
from minimax_gda import problems as prob
from minimax_gda import verify
from minimax_gda.errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    NumericalFailureError,
)


def det_cofactor(M):
    """Independent determinant oracle (Laplace expansion), for d <= 4."""
    n = M.shape[0]
    if n == 1:
        return M[0, 0]
    return sum(
        (-1.0) ** j * M[0, j] * det_cofactor(np.delete(np.delete(M, 0, 0), j, 1))
        for j in range(n)
    )


def power_iteration_norm(M, iters=5000):
    """Independent spectral-norm oracle: power iteration on M'M."""
    G = M.T @ M
    v = np.ones(G.shape[0]) / np.sqrt(G.shape[0])
    for _ in range(iters):
        w = G @ v
        v = w / np.linalg.norm(w)
    return float(np.sqrt(v @ (G @ v)))


def closed_form_2x2(M):
    """Quadratic-formula eigenvalue oracle for 2x2 matrices."""
    tr = M[0, 0] + M[1, 1]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    disc = complex(tr * tr - 4 * det) ** 0.5
    return np.sort_complex(np.array([(tr - disc) / 2, (tr + disc) / 2]))


class TestSymEig:
    def test_diagonal(self):
        w, V = linalg.sym_eig(np.diag([1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0])
        assert np.allclose(np.abs(V), np.eye(2))

    def test_involution(self):
        w, _ = linalg.sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_oracle(self, rng):
        G = rng.standard_normal((4, 4))
        S = G + G.T
        w, V = linalg.sym_eig(S)
        scale = np.linalg.norm(S)
        assert np.linalg.norm(V @ np.diag(w) @ V.T - S) <= 1e-9 * scale
        assert np.linalg.norm(V.T @ V - np.eye(4)) <= 1e-10
        assert np.all(np.diff(w) >= 0)

    def test_agrees_with_general_eig(self, rng):
        G = rng.standard_normal((5, 5))
        S = G + G.T
        w, _ = linalg.sym_eig(S)
        lam, _ = linalg.general_eig(S)
        assert np.max(np.abs(lam.imag)) <= 1e-8
        assert np.allclose(np.sort(lam.real), w, atol=1e-8)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            linalg.sym_eig(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            linalg.sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestGeneralEig:
    def test_pure_imaginary_pair(self):
        # the threshold instance's dynamics matrix at the critical ratio
        lam, V = linalg.general_eig(np.array([[2.0, -2.0], [4.0, -2.0]]))
        assert np.allclose(np.sort_complex(lam), [-2j, 2j], atol=1e-12)
        M = np.array([[2.0, -2.0], [4.0, -2.0]])
        res = np.linalg.norm(M @ V - V * lam, axis=0)
        assert np.all(res <= 1e-8 * linalg.spectral_norm(M))

    def test_diagonal(self):
        lam, _ = linalg.general_eig(np.diag([-1.0, -2.0]))
        assert np.allclose(np.sort_complex(lam), [-2.0, -1.0])

    def test_trace_and_det_identities(self, rng):
        for _ in range(20):
            M = rng.standard_normal((3, 3)) * rng.uniform(0.1, 10)
            lam, _ = linalg.general_eig(M)
            scale = max(np.abs(M).max(), 1.0)
            assert abs(lam.sum().real - np.trace(M)) <= 1e-9 * scale
            assert abs(lam.sum().imag) <= 1e-9 * scale
            det = det_cofactor(M)
            assert abs(np.prod(lam) - det) <= 1e-8 * max(abs(det), scale)

    def test_conjugate_pairs_and_count(self, rng):
        M = rng.standard_normal((6, 6))
        lam, _ = linalg.general_eig(M)
        assert len(lam) == 6
        complex_part = lam[np.abs(lam.imag) > 0]
        assert np.allclose(
            np.sort_complex(complex_part),
            np.sort_complex(np.conj(complex_part)),
        )

    def test_2x2_closed_form(self, rng):
        for _ in range(25):
            M = rng.standard_normal((2, 2)) * 3.0
            lam, _ = linalg.general_eig(M)
            assert np.max(np.abs(np.sort_complex(lam) - closed_form_2x2(M))) <= 1e-12

    def test_residuals(self, rng):
        M = rng.standard_normal((8, 8)) * 5.0
        lam, V = linalg.general_eig(M)
        res = np.linalg.norm(M @ V - V * lam, axis=0) / np.linalg.norm(V, axis=0)
        assert np.all(res <= 1e-8 * linalg.spectral_norm(M))


def _dynamics_matrices():
    """The matrices the spectral checks solve: the 4x4 corpus at its three
    reference ratios, and the hard instances at kappa = 2, 8 and 64 below,
    at and above the threshold and at the reference ratios."""
    mats = [dyn.build_M(p, r) for _, p in verify.corpus_instances(20)
            for r in verify._ratio_set(prob.derive_constants(p).kappa)]
    for kappa in (2.0, 8.0, 64.0):
        threshold = prob.hard_ratio_instance(kappa, 1.0)
        mats += [dyn.build_M(threshold, r) for r in (kappa / 2, kappa, 2 * kappa)]
        rate = prob.hard_rate_instance(2.0, 2.0 / kappa, 0.2 / kappa)
        mats += [dyn.build_M(rate, r) for r in verify._ratio_set(kappa)]
    return mats


class TestEigenvalues:
    """``eigenvalues`` is ``general_eig`` without the eigenvectors."""

    def test_bit_identical_on_dynamics_matrices(self):
        for M in _dynamics_matrices():
            lam = linalg.eigenvalues(M)
            assert lam.dtype == complex
            assert lam.tobytes() == linalg.general_eig(M)[0].tobytes()

    # bound fixed before any draw: both routes run the same Hessenberg QR,
    # so a difference beyond a few roundings of |M|_2 would be a different
    # algorithm, not round-off
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 64), st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 3.0))
    def test_agrees_with_general_eig(self, n, seed, log_scale):
        M = np.random.default_rng(seed).standard_normal((n, n)) * 10.0 ** log_scale
        lam, ref = linalg.eigenvalues(M), linalg.general_eig(M)[0]
        event(f"bit-identical: {lam.tobytes() == ref.tobytes()}")
        assert np.max(np.abs(lam - ref)) <= 4 * np.finfo(float).eps * linalg.spectral_norm(M)

    @pytest.mark.parametrize("M", [np.ones((2, 3)), np.ones(3), np.ones((1, 2, 2))])
    def test_non_square_rejected(self, M):
        for solve in (linalg.eigenvalues, linalg.general_eig):
            with pytest.raises(InvalidInputError, match="square"):
                solve(M)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        M = np.array([[1.0, bad], [0.0, 1.0]])
        for solve in (linalg.eigenvalues, linalg.general_eig):
            with pytest.raises(InvalidInputError, match="non-finite"):
                solve(M)


class TestSpectralNorm:
    def test_diagonal(self):
        assert linalg.spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)

    def test_nilpotent(self):
        assert linalg.spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)

    def test_power_iteration_oracle(self, rng):
        M = rng.standard_normal((4, 4))
        got = linalg.spectral_norm(M)
        ref = power_iteration_norm(M)
        assert got == pytest.approx(ref, rel=1e-8)

    def test_dominates_spectral_radius(self, rng):
        for _ in range(10):
            M = rng.standard_normal((5, 5))
            lam, _ = linalg.general_eig(M)
            assert np.max(np.abs(lam)) <= linalg.spectral_norm(M) * (1 + 1e-12)

    def test_vector_rejected(self):
        with pytest.raises(InvalidInputError, match="expected a matrix, got ndim=1"):
            linalg.spectral_norm(np.ones(3))


class TestSolveSpd:
    def test_identity(self, rng):
        b = rng.standard_normal(3)
        assert np.allclose(linalg.solve_spd(np.eye(3), b), b)

    def test_diagonal(self):
        x = linalg.solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_residual_oracle(self, rng):
        G = rng.standard_normal((4, 4))
        A = G @ G.T + 4 * np.eye(4)
        b = rng.standard_normal(4)
        x = linalg.solve_spd(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * linalg.spectral_norm(A) * np.linalg.norm(x)

    def test_matrix_rhs(self, rng):
        A = np.diag([1.0, 2.0, 3.0])
        B = rng.standard_normal((3, 2))
        X = linalg.solve_spd(A, B)
        assert np.allclose(A @ X, B)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            linalg.solve_spd(np.diag([1.0, -1.0]), np.ones(2))


class TestCond2:
    def test_identity(self):
        assert linalg.cond_2(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert linalg.cond_2(np.diag([10.0, 1.0])) == pytest.approx(10.0)

    def test_orthonormal_basis(self, rng):
        G = rng.standard_normal((5, 5))
        _, V = linalg.sym_eig(G + G.T)
        assert linalg.cond_2(V) == pytest.approx(1.0, abs=1e-8)

    def test_complex_input(self):
        P = np.array([[1.0, 1.0], [1j, -1j]])
        sigma = np.linalg.svd(P, compute_uv=False)
        assert linalg.cond_2(P) == pytest.approx(sigma[0] / sigma[-1])

    def test_singular(self):
        # a rounding-level sigma_min gives a huge ratio, an exact 0 gives inf
        assert linalg.cond_2(np.array([[1.0, 1.0], [1.0, 1.0]])) > 1e15
        assert linalg.cond_2(np.zeros((2, 2))) == math.inf

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError, match=r"P must be square, got shape \(2, 3\)"):
            linalg.cond_2(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            linalg.cond_2(np.array([[1.0, bad], [0.0, 1.0]]))


# each kernel, the gufunc binding it calls, and its non-convergence message
GUFUNC_KERNELS = [
    ("eigenvalues", "_EIGVALS", "QR iteration failed to converge: Eigenvalues did not"),
    ("general_eig", "_EIG", "QR iteration failed to converge: Eigenvalues did not"),
    ("sym_eig", "_EIGH", "symmetric eigensolver failed: Eigenvalues did not"),
    ("spectral_norm", "_SVD", "SVD failed: SVD did not converge"),
    ("cond_2", "_SVD", "SVD failed: SVD did not converge"),
]
REJECTED = {
    "non_finite": np.array([[1.0, math.nan], [0.0, 1.0]]),
    "infinite": np.array([[math.inf, 0.0], [0.0, 1.0]]),
    "vector": np.ones(3),
    "non_square": np.ones((2, 3)),
    "asymmetric": np.array([[1.0, 2.0], [0.0, 1.0]]),
    "complex_non_finite": np.array([[1.0, complex(0.0, math.inf)], [0.0, 1.0]]),
}


def _rejected(kernel):
    """The ``REJECTED`` inputs ``kernel`` refuses (``spectral_norm`` takes
    any matrix)."""
    return ["non_finite", "infinite", "vector"] + {
        "spectral_norm": [], "sym_eig": ["non_square", "asymmetric"],
        "cond_2": ["non_square", "complex_non_finite"]}.get(kernel, ["non_square"])


class TestLapackFailure:
    """A gufunc reports LAPACK non-convergence by raising the FP-invalid
    flag.  Every kernel turns it into ``NumericalFailureError`` (not
    ``LinAlgError``, not a ``RuntimeWarning``) whatever errstate its caller
    holds, and rejects bad input before LAPACK runs."""

    @pytest.mark.parametrize("caller", [{}, {"all": "ignore"}, {"all": "raise"}],
                             ids=["default", "ignore", "raise"])
    @pytest.mark.parametrize("kernel,binding,message", GUFUNC_KERNELS,
                             ids=[k for k, _, _ in GUFUNC_KERNELS])
    def test_non_convergence_raises_numerical_failure(self, lapack_fails, kernel,
                                                      binding, message, caller):
        lapack_fails(binding)
        with warnings.catch_warnings(), np.errstate(**caller):
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match=message) as info:
                getattr(linalg, kernel)(np.eye(3))
        assert not isinstance(info.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("kernel,binding,bad", [
        (k, b, bad) for k, b, _ in GUFUNC_KERNELS for bad in _rejected(k)],
        ids=[f"{k}-{bad}" for k, _, _ in GUFUNC_KERNELS for bad in _rejected(k)])
    def test_bad_input_rejected_before_lapack(self, monkeypatch, kernel, binding, bad):
        calls = []
        monkeypatch.setattr(linalg, binding, lambda *args, **kwargs: calls.append(args))
        with pytest.raises(InvalidInputError):
            getattr(linalg, kernel)(REJECTED[bad])
        assert calls == []

    def test_concurrent_calls_keep_their_own_errstate(self, monkeypatch):
        # both threads are inside their errstate at once; the failing one
        # raises, the other returns LAPACK's answer
        barrier = threading.Barrier(2, timeout=30)
        eigvals = linalg._EIGVALS

        def stand_in(M, signature):
            barrier.wait()
            return np.divide(0.0, 0.0) if M[0, 0] < 0 else eigvals(M, signature=signature)

        monkeypatch.setattr(linalg, "_EIGVALS", stand_in)
        results = {}

        def call(sign):
            try:
                results[sign] = linalg.eigenvalues(sign * np.eye(2))
            except Exception as exc:  # recorded for the asserts below
                results[sign] = exc

        threads = [threading.Thread(target=call, args=(s,)) for s in (1.0, -1.0)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert isinstance(results[-1.0], NumericalFailureError)
        assert np.array_equal(results[1.0], [1.0, 1.0])


def fresh_interpreter(code):
    """Run ``code`` in a new interpreter that imports the library from this
    checkout, so that nothing imported here decides its import order."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-4000:]


class TestLapackLoad:
    """``linalg`` loads scipy's LAPACK extension without ``scipy.linalg``."""

    def test_library_imports_without_scipy_linalg(self):
        fresh_interpreter(
            "import sys\n"
            "import minimax_gda, minimax_gda.cli, minimax_gda.verify\n"
            "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg imported'\n")

    @pytest.mark.parametrize("first", ["minimax_gda.linalg", "scipy.linalg"])
    def test_routines_are_get_lapack_funcs(self, first):
        # the routines scipy.linalg hands out for float64, in either import order
        fresh_interpreter(
            f"import {first}\n"
            "import numpy as np\n"
            "from scipy.linalg import get_lapack_funcs\n"
            "from minimax_gda import linalg\n"
            "potrf, potrs = get_lapack_funcs(('potrf', 'potrs'), (np.empty((1, 1)),))\n"
            "assert linalg._POTRF is potrf and linalg._POTRS is potrs\n")
