"""Wrong programs that each acceptance check must catch.

``ADVERSARIES`` maps a check, by the name ``ACCEPTANCE_CALLS`` records it
under, to the wrong programs it must fail on.  Each wrong program patches
one library function (or, for the empty corpus, the check's input); the
check then runs with its acceptance arguments and must fail, not be
inconclusive.  A wrong program that a check does not catch yet lands with
the check that catches it, never here as a skip or an expected failure.
"""

import numpy as np
import pytest

from minimax_gda import dynamics as dyn
from minimax_gda import linalg, verify
from test_acceptance import ACCEPTANCE_CALLS, CORPUS


def flipped_coupling(mp, kwargs):
    # build_M's lower-left block as -r*B' instead of r*B'
    build = dyn.build_M

    def build_M(problem, r):
        M = build(problem, r)
        M[problem.n:, :problem.n] *= -1.0
        return M
    mp.setattr(dyn, "build_M", build_M)


def inverse_ratio(mp, kwargs):
    # the stepsize ratio applied as 1/r: eta_x = r * eta_y
    stepsizes = dyn.default_stepsizes
    mp.setattr(dyn, "default_stepsizes",
               lambda L, r, scheme=dyn.Scheme.QUARTER: stepsizes(L, 1.0 / r, scheme))


def eigenvalues_off(mp, kwargs):
    # every eigenvalue 1e-9 too large in relative terms
    eigenvalues = linalg.eigenvalues
    mp.setattr(linalg, "eigenvalues", lambda M: eigenvalues(M) * (1.0 + 1e-9))


def nan_eigenvalue(mp, kwargs):
    # the first eigenvalue lost to NaN
    eigenvalues = linalg.eigenvalues

    def nan_first(M):
        lam = eigenvalues(M)
        lam[0] = complex(np.nan, 0.0)
        return lam
    mp.setattr(linalg, "eigenvalues", nan_first)


def empty_corpus(mp, kwargs):
    kwargs["corpus"] = []


ADVERSARIES = {
    "check_ratio_threshold": [flipped_coupling],
    "check_spectral_bound": [flipped_coupling, inverse_ratio],
    "check_rate_lower_bound": [inverse_ratio],
    "check_complexity_scaling": [inverse_ratio],
    "check_eigensolver_oracle": [eigenvalues_off, nan_eigenvalue, empty_corpus],
}


@pytest.fixture(scope="module")
def acceptance_corpus():
    return verify.corpus_instances(**CORPUS[1])


def acceptance_kwargs(check, corpus):
    """The arguments ``ACCEPTANCE_CALLS`` records for ``check``, with the
    corpus drawn and a generator rebuilt from its state."""
    kwargs, = [dict(kw) for calls in ACCEPTANCE_CALLS.values()
               for name, kw in calls if name == check]
    for key, value in kwargs.items():
        if value == CORPUS:
            kwargs[key] = corpus
        elif key == "rng":
            kwargs[key] = np.random.default_rng()
            kwargs[key].bit_generator.state = value
    return kwargs


@pytest.mark.parametrize("check, adversary", [
    (check, adversary) for check, adversaries in ADVERSARIES.items()
    for adversary in adversaries], ids=lambda v: getattr(v, "__name__", v))
def test_check_fails_on_wrong_program(monkeypatch, acceptance_corpus, check, adversary):
    kwargs = acceptance_kwargs(check, acceptance_corpus)
    adversary(monkeypatch, kwargs)
    result = getattr(verify, check)(**kwargs)
    assert not result.passed and not result.inconclusive, result.details
