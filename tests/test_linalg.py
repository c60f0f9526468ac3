import math

import numpy as np
import pytest

from minimax_gda import linalg
from minimax_gda.errors import InvalidInputError, NotPositiveDefiniteError


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            linalg.cond_2(np.array([[1.0, bad], [0.0, 1.0]]))
