"""Dense linear-algebra kernels for small matrices (dimension up to ~64).

Matrices are plain ``numpy.ndarray`` in row-major order.  The kernels call
LAPACK without the library wrappers, which cost as much as the work at these
sizes, and add the input checking and error taxonomy the rest of the package
relies on.  All functions are pure: inputs are never mutated, so concurrent
use is safe.  The eigen- and singular-value kernels call the gufuncs that
``numpy.linalg`` runs (``numpy.linalg._umath_linalg``); ``_lapack`` maps the
FP-invalid flag by which they report non-convergence to
:class:`NumericalFailureError`.  ``dpotrf``/``dpotrs`` come from scipy's
``scipy.linalg._flapack`` extension, loaded from its file without the
``scipy.linalg`` package ``__init__`` (0.33 of the library's 0.51 s import);
a process initialises the extension once, so they are the objects
``get_lapack_funcs(("potrf", "potrs"))`` returns for float64.

Tolerances are relative to the input norm with an absolute floor of 1e-14.
"""

from __future__ import annotations

import os
from importlib import machinery, util

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    NumericalFailureError,
)

ABS_FLOOR = 1e-14
_FLAPACK = util.module_from_spec(machinery.FileFinder(
    os.path.join(os.path.dirname(util.find_spec("scipy").origin), "linalg"),
    (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES),
).find_spec("scipy.linalg._flapack"))
_POTRF, _POTRS = _FLAPACK.dpotrf, _FLAPACK.dpotrs
_EIG, _EIGVALS, _EIGH, _SVD = (_umath_linalg.eig, _umath_linalg.eigvals,
                               _umath_linalg.eigh_lo, _umath_linalg.svd)
_QR_FAILED = "QR iteration failed to converge: Eigenvalues did not converge"
_EIGH_FAILED = "symmetric eigensolver failed: Eigenvalues did not converge"
_SVD_FAILED = "SVD failed: SVD did not converge"


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


def _lapack(gufunc, M, signature, failure):
    """``gufunc(M)``, raising ``NumericalFailureError(failure)`` when LAPACK
    does not converge; the errstate is made per call, as threads must not
    share one."""
    def fail(err, flag):
        raise NumericalFailureError(failure)

    with np.errstate(call=fail, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return gufunc(M, signature=signature)


def sym_eig(S):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(w, V)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``V`` such that ``S @ V = V @ diag(w)``.
    """
    S = _as_square(S, "S")
    _check_symmetric(S, 1e-12, "S")
    return _lapack(_EIGH, 0.5 * (S + S.T), "d->dd", _EIGH_FAILED)


def general_eig(M):
    """Eigenvalues and right eigenvectors of a general real square matrix.

    Returns ``(w, V)`` with ``w`` complex, sorted by (real, imag), and ``V``
    the matching eigenvector columns (``M @ V = V @ diag(w)``).  Complex
    eigenvalues of a real input come in conjugate pairs.
    """
    w, V = _lapack(_EIG, _as_square(M, "M"), "d->DD", _QR_FAILED)
    order = np.lexsort((w.imag, w.real))
    return w[order], V[:, order]


def eigenvalues(M):
    """Eigenvalues of a general real square matrix, as ``general_eig``
    returns them (complex, sorted by (real, imag)), without the eigenvectors:
    LAPACK ``dgeev`` with no vectors requested."""
    w = _lapack(_EIGVALS, _as_square(M, "M"), "d->D", _QR_FAILED)
    return w[np.lexsort((w.imag, w.real))]


def spectral_norm(M):
    """Largest singular value, i.e. sqrt of the top eigenvalue of ``M.T @ M``."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise InvalidInputError("matrix has non-finite entries")
    if M.size == 0:
        return 0.0
    # the SVD that np.linalg.norm(M, 2) runs
    return float(_lapack(_SVD, M, "d->d", _SVD_FAILED)[0])


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
    sigma = _lapack(_SVD, P, "D->d" if np.iscomplexobj(P) else "d->d", _SVD_FAILED)
    smin = float(sigma[-1])
    return float(sigma[0]) / smin if smin > 0 else np.inf
