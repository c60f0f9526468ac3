import numpy as np
import pytest

from minimax_gda import linalg
from minimax_gda import problems as prob


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def reference_instance():
    """A generated 4x4 instance with a strictly convex primal (the kind the
    quadratic experiments use), found by scanning seeds."""
    seed = 0
    while True:
        p = prob.sample_instance(4, 4, 100.0, 1.0, seed)
        if prob.derive_constants(p).mu_x > 0.5:
            return p
        seed += 1


@pytest.fixture
def small_instance():
    """A well-conditioned low-kappa instance for fast end-to-end runs."""
    seed = 0
    while True:
        p = prob.sample_instance(3, 3, 4.0, 1.0, seed)
        if prob.derive_constants(p).mu_x > 0.2:
            return p
        seed += 1


@pytest.fixture
def contracting_hard_instance(monkeypatch):
    """Replace the divergence certificate's hard threshold instance with a
    convergent one (``C = mu``, ``B = 0``), on which every certificate cell
    contracts."""
    def contracting(L, mu):
        return prob.QuadraticProblem(A=[[mu]], B=[[0.0]], C=[[mu]],
                                     x_star=[0.0], y_star=[0.0], L=L, mu=mu)

    monkeypatch.setattr(prob, "hard_ratio_instance", contracting)


@pytest.fixture
def eigvec_calls(monkeypatch):
    """Count calls of the eigenvector kernels ``linalg.general_eig`` and
    ``linalg.cond_2`` (a dict name -> count) while still running them."""
    calls = dict.fromkeys(("general_eig", "cond_2"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
    return calls


@pytest.fixture
def lapack_fails(monkeypatch):
    """``lapack_fails(name)`` replaces ``linalg``'s gufunc binding ``name``
    (``"_EIG"``, ``"_EIGVALS"``, ``"_EIGH"``, ``"_SVD"``) by a stand-in that
    fails as LAPACK non-convergence does: it raises the FP-invalid flag."""
    def fail(M, signature):
        return np.divide(0.0, 0.0)

    return lambda name: monkeypatch.setattr(linalg, name, fail)


@pytest.fixture
def eig_fails(lapack_fails):
    """Make every eigenvector solve (the ``eig`` gufunc) fail to converge."""
    lapack_fails("_EIG")
