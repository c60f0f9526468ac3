"""Dense linear-algebra kernels for small matrices (dimension up to ~64).

Matrices are plain ``numpy.ndarray`` in row-major order.  The kernels wrap
LAPACK (``numpy.linalg``; ``potrf``/``potrs`` called directly, as scipy's
``cho_factor``/``cho_solve`` cost more than the work at these sizes) and add
the input checking and error taxonomy the rest of the package relies on.
All functions are pure: inputs are never mutated, so concurrent use is safe.

Tolerances are relative to the input norm with an absolute floor of 1e-14.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    NumericalFailureError,
)

ABS_FLOOR = 1e-14
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))


def _as_square(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    return M


def _check_symmetric(S, rel_tol, name="matrix"):
    scale = max(float(np.abs(S).max(initial=0.0)), ABS_FLOOR)
    asym = float(np.abs(S - S.T).max(initial=0.0))
    if asym > rel_tol * scale:
        raise InvalidInputError(
            f"{name} is not symmetric: max asymmetry {asym:.3e} "
            f"exceeds {rel_tol:.1e} * {scale:.3e}"
        )


def sym_eig(S):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(w, V)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``V`` such that ``S @ V = V @ diag(w)``.
    """
    S = _as_square(S, "S")
    _check_symmetric(S, 1e-12, "S")
    try:
        w, V = np.linalg.eigh(0.5 * (S + S.T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NumericalFailureError(f"symmetric eigensolver failed: {exc}") from exc
    return w, V


def general_eig(M):
    """Eigenvalues and right eigenvectors of a general real square matrix.

    Returns ``(w, V)`` with ``w`` complex, sorted by (real, imag), and ``V``
    the matching eigenvector columns (``M @ V = V @ diag(w)``).  Complex
    eigenvalues of a real input come in conjugate pairs.
    """
    M = _as_square(M, "M")
    try:
        w, V = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"QR iteration failed to converge: {exc}") from exc
    w = np.asarray(w, dtype=complex)
    order = np.lexsort((w.imag, w.real))
    return w[order], np.asarray(V, dtype=complex)[:, order]


def spectral_norm(M):
    """Largest singular value, i.e. sqrt of the top eigenvalue of ``M.T @ M``."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise InvalidInputError("matrix has non-finite entries")
    if M.size == 0:
        return 0.0
    try:
        # the SVD that np.linalg.norm(M, 2) runs, without its axis handling
        return float(np.linalg.svd(M, compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailureError(f"SVD failed: {exc}") from exc


def solve_spd(A, b):
    """Solve ``A x = b`` for symmetric positive-definite ``A`` via Cholesky.

    ``b`` may be a vector or a matrix of right-hand-side columns.  Factors
    ``(A + A')/2`` with LAPACK ``potrf`` (lower) and solves with ``potrs``.
    Raises :class:`NotPositiveDefiniteError` when a Cholesky pivot is not
    positive, :class:`InvalidInputError` when ``b`` is non-finite.
    """
    A = _as_square(A, "A")
    _check_symmetric(A, 1e-12, "A")
    b = np.asarray(b, dtype=float)
    if b.shape[0] != A.shape[0]:
        raise InvalidInputError(
            f"right-hand side length {b.shape[0]} does not match A ({A.shape[0]})"
        )
    if not np.isfinite(b).all():
        raise InvalidInputError("right-hand side has non-finite entries")
    S = 0.5 * (A + A.T)
    if not np.isfinite(S).all():
        raise InvalidInputError("A has entries too large to symmetrize")
    factor, info = _POTRF(S, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefiniteError(
            "Cholesky factorization failed (matrix not positive definite): "
            f"{info}-th leading minor of the array is not positive definite"
        )
    return _POTRS(factor, b, lower=1)[0]


def cond_2(P):
    """2-norm condition number ``sigma_max / sigma_min`` of a (possibly
    complex) square matrix; ``inf`` when ``sigma_min`` is 0."""
    P = np.asarray(P)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise InvalidInputError(f"P must be square, got shape {P.shape}")
    if not np.isfinite(P).all():
        raise InvalidInputError("P has non-finite entries")
    try:
        sigma = np.linalg.svd(P, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailureError(f"SVD failed: {exc}") from exc
    smin = float(sigma[-1])
    return float(sigma[0]) / smin if smin > 0 else np.inf
