"""Per-call timings of the kernels on the instance -> spectral path.

Layers, bottom up: the ``linalg`` kernels at the two ends of the size range
(4x4 and 64x64; ``cond_2`` on the complex eigenvector basis of the matrix
``general_eig`` solves, as a report's ``basis_cond`` reads it), the
dynamics matrix, one sampled instance (alone, and with
its derived constants as one seed of a plain corpus scan), the whole
``verify.corpus_instances`` scan of certify-rates' 8-instance and
certify-spectral's 120-instance 4x4 corpora (the seeds each scans in
``extra_info["seeds"]``), the eigenvalues-only
solve and one ``spectral_report`` at n = m = 4, 16 and 32, the five spectrum
checks of one report (``check_lemma_spectral``) at n = m = 4 and 32, and
criteria 2 and 8 (``check_spectral_bound``, ``check_eigensolver_oracle``) on
a fixed 10-instance corpus (30 dynamics matrices).  These are not part of
the test suite; run them from the root of a checkout with

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-json=bench.json

and read the per-call medians in microseconds from the JSON's ``stats``.
Pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) to compare two trees.
"""

import numpy as np
import pytest

from minimax_gda import dynamics as dyn
from minimax_gda import linalg
from minimax_gda import problems as prob
from minimax_gda import spectral as spec
from minimax_gda import verify

L, MU = 100.0, 1.0


def _spd(n):
    Q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    A = (Q * np.linspace(MU, L, n)) @ Q.T
    return 0.5 * (A + A.T)


def _instance(dim):
    # the certify-spectral shapes: the 4x4 corpus family, primal-convex above
    if dim == 4:
        return prob.sample_instance(4, 4, L, MU, 0)
    return prob.sample_instance(dim, dim, L, MU, 0, primal_convex=True, schur_margin=1.0)


@pytest.mark.parametrize("n", [4, 64])
def test_spectral_norm(benchmark, n):
    M = np.random.default_rng(n).standard_normal((n, n))
    benchmark(linalg.spectral_norm, M)


@pytest.mark.parametrize("n", [4, 64])
def test_general_eig(benchmark, n):
    benchmark(linalg.general_eig, np.random.default_rng(n).standard_normal((n, n)))


@pytest.mark.parametrize("n", [4, 64])
def test_cond_2(benchmark, n):
    P = linalg.general_eig(np.random.default_rng(n).standard_normal((n, n)))[1]
    benchmark(linalg.cond_2, P)


@pytest.mark.parametrize("n", [4, 64])
def test_solve_spd(benchmark, n):
    A = _spd(n)
    b = np.random.default_rng(n + 1).standard_normal((n, n))
    benchmark(linalg.solve_spd, A, b.T)


@pytest.mark.parametrize("n", [4, 64])
def test_sym_eig(benchmark, n):
    benchmark(linalg.sym_eig, _spd(n))


@pytest.mark.parametrize("dim", [4, 32])
def test_build_M(benchmark, dim):
    benchmark(dyn.build_M, _instance(dim), 2.0 * L / MU)


def test_sample_instance(benchmark):
    benchmark(prob.sample_instance, 4, 4, L, MU, 0)


def test_corpus_scan_step(benchmark):
    # one seed of the corpus scan: draw, validate and derive mu_x
    benchmark(lambda: prob.derive_constants(prob.sample_instance(4, 4, L, MU, 0)).mu_x)


@pytest.mark.parametrize("count", [8, 120])
def test_corpus_instances(benchmark, count):
    # the first-variant corpora of certify-rates (8) and certify-spectral (120)
    corpus = verify.corpus_instances(count)
    benchmark.extra_info["seeds"] = corpus[-1][0] + 1
    benchmark(verify.corpus_instances, count)


@pytest.mark.parametrize("dim", [4, 16, 32])
def test_eigenvalues(benchmark, dim):
    p = _instance(dim)
    benchmark(linalg.eigenvalues, dyn.build_M(p, 2.0 * prob.derive_constants(p).kappa))


@pytest.mark.parametrize("dim", [4, 16, 32])
def test_spectral_report(benchmark, dim):
    p = _instance(dim)
    r = 2.0 * prob.derive_constants(p).kappa
    eta_x, _ = dyn.default_stepsizes(p.L, r)
    benchmark(spec.spectral_report, p, r, eta_x)


@pytest.mark.parametrize("dim", [4, 32])
def test_check_lemma_spectral(benchmark, dim):
    p = _instance(dim)
    dc = prob.derive_constants(p)
    M = dyn.build_M(p, 2.0 * dc.kappa)
    lam, M_norm = linalg.eigenvalues(M), linalg.spectral_norm(M)
    benchmark(spec.check_lemma_spectral, lam, M_norm, p.L, p.mu, dc.mu_x, 2.0 * dc.kappa)


def test_check_spectral_bound(benchmark):
    corpus = verify.corpus_instances(10)
    benchmark.extra_info["reports"] = 3 * len(corpus)
    benchmark(verify.check_spectral_bound, corpus)


def test_check_eigensolver_oracle(benchmark):
    corpus = verify.corpus_instances(10)
    benchmark.extra_info["matrices"] = 3 * len(corpus)
    benchmark(lambda: verify.check_eigensolver_oracle(corpus, np.random.default_rng(1)))
