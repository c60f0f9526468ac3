"""Spectral certification of the GDA/EG dynamics.

Given an instance, a stepsize ratio ``r`` and an ``eta_x``, this module
computes the eigenvalues of the block dynamics matrix M, the spectral radii
``rho1`` (GDA transition ``I + eta_x*M``) and ``rho2`` (EG transition
``I + eta_x*M + eta_x^2*M^2``), the proved radius bound
``1 - 1/(c * r * kappa_x)`` (c = 64 for the quarter stepsize scheme, 16 for
the half scheme) and the five structural checks on the spectrum of M.  A
report costs two LAPACK solves, the SVD for ``|M|_2`` and one eigenvalues-only
solve, plus a fixed Python-side overhead.  At n = m = 4 the two solves take
about 30% of a report; building M and the kernels' input checks take about
30%, and the two transition moduli (one numpy pass over both) and the five
checks (one pass over the spectrum as Python floats) about 25%.  The report
and its five ``LemmaCheck`` records are built without a ``setattr`` per
field.  The condition number ``C_P`` of the eigenvector basis,
which the iteration and noise-floor predictions need, is computed from the
report's M the first time a caller reads ``basis_cond``, so a report whose
``basis_cond`` is never read solves for no eigenvectors.

All functions are pure over immutable inputs and safe to call concurrently.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import dynamics, linalg
from . import problems as prob
from .errors import InvalidInputError

DIAGONALIZABLE_COND_CAP = 1e8
LEMMA_CHECK_RTOL = 1e-8  # per-item tolerance, relative to |M|_2
REAL_EIG_RTOL = 1e-9  # an eigenvalue counts as real when |imag| <= this * |M|_2
_NOT_APPLICABLE = (True, math.nan)  # an item that does not apply passes, margin NaN


class RatioClass(str, enum.Enum):
    BELOW_THRESHOLD = "below_threshold"  # r <= kappa: divergence certified
    GAP = "gap"  # kappa < r < 2*kappa: per-instance numerics only
    PROVED_CONVERGENT = "proved_convergent"  # r >= 2*kappa


class LemmaCheck(NamedTuple):
    item: int
    applicable: bool
    passed: bool
    margin: float  # min over eigenvalues of (bound - value); inf when vacuous


def _transition_moduli(lam, eta_x):
    """Moduli of the GDA (``1 + h``, row 0) and EG (``1 + h + h^2``, row 1)
    transition eigenvalues, ``h = eta_x*lam``; one whose computation
    overflows is inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = eta_x * lam
        t1 = 1.0 + h
        # numpy's complex abs and square, one abs over both rows: Python's
        # abs and h*h differ from them in the last bit
        mods = np.abs((t1, t1 + h ** 2))
    # fmin turns the nan of an overflowed inf - inf or inf * 0 into inf
    return np.fmin(mods, math.inf, out=mods)


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray  # complex eigenvalues of M
    rho1: float
    rho2: float
    rho_bound: float
    rate_constant: int
    lemma_checks: tuple
    M_norm: float
    r: float
    eta_x: float
    L: float
    mu: float
    mu_x: float
    kappa: float
    kappa_x: float
    M: np.ndarray = field(compare=False, repr=False)  # read-only dynamics matrix

    @functools.cached_property
    def basis_cond(self) -> Optional[float]:
        """Condition number ``C_P`` of the eigenvector basis of M, solved for
        on first read; None when it exceeds ``DIAGONALIZABLE_COND_CAP``."""
        cond = linalg.cond_2(linalg.general_eig(self.M)[1])
        return cond if cond <= DIAGONALIZABLE_COND_CAP else None

    @property
    def diagonalizable(self):
        """Whether the eigenvector basis is usable (``basis_cond`` present)."""
        return self.basis_cond is not None

    def predicted_iters(self, eps, initial_distance=1.0):
        """Smallest T with ``C_P * rho1^T * d0 <= eps``, in closed form:
        ``ceil(ln(eps / (C_P * d0)) / ln rho1)``.

        0 when ``d0 <= eps``; ``inf`` when ``rho1 >= 1``, when the basis
        condition number is unavailable, or when T would exceed ``2**62``."""
        if self.rho1 >= 1.0 or self.basis_cond is None:
            return math.inf
        if initial_distance <= eps:
            return 0
        if self.rho1 == 0.0:
            return 1
        steps = (math.log(eps / (self.basis_cond * initial_distance))
                 / math.log(self.rho1))
        return math.ceil(steps) if steps <= 2 ** 62 else math.inf

    def dominant_modulus_gap(self, algorithm="gda"):
        """Gap between the largest and second-largest *distinct*
        transition-eigenvalue moduli (a conjugate pair shares one modulus);
        inf when a single modulus remains."""
        row = 1 if dynamics.Algorithm(algorithm) is dynamics.Algorithm.EG else 0
        mods = np.sort(_transition_moduli(self.eigenvalues, self.eta_x)[row])[::-1]
        rest = mods[mods < mods[0] * (1.0 - 1e-12)]
        return float(mods[0] - rest[0]) if len(rest) else math.inf


def spectral_report(problem, r, eta_x, scheme=dynamics.Scheme.QUARTER):
    """Eigenvalues of M, transition radii, proved bound and structural
    checks; the eigenvector-basis condition number on first read.

    The basis is usable (``diagonalizable``) when the eigensolver returns
    vectors whose condition number is at most ``DIAGONALIZABLE_COND_CAP``;
    otherwise ``basis_cond`` is None and no iteration count is predicted.
    An eigenvector-solve failure surfaces at that first read.
    """
    if not (0 < r < math.inf and 0 < eta_x < math.inf):
        raise InvalidInputError("r and eta_x must be positive and finite")
    scheme = dynamics.Scheme(scheme)
    dc = prob.derive_constants(problem)
    M = dynamics.build_M(problem, r)
    M.setflags(write=False)
    M_norm = linalg.spectral_norm(M)
    lam = linalg.eigenvalues(M)
    rho1, rho2 = np.maximum.reduce(_transition_moduli(lam, eta_x), axis=1).tolist()
    c = scheme.rate_constant
    # the fields go into the instance dict at once, not through the frozen
    # __init__'s object.__setattr__ per field; replace() still runs __init__
    report = object.__new__(SpectralReport)
    vars(report).update({
        "eigenvalues": lam,
        "rho1": rho1,
        "rho2": rho2,
        "rho_bound": 1.0 - 1.0 / (c * r * dc.kappa_x),
        "rate_constant": c,
        "lemma_checks": check_lemma_spectral(lam, M_norm, problem.L, problem.mu, dc.mu_x, r),
        "M_norm": M_norm,
        "r": float(r),
        "eta_x": float(eta_x),
        "L": problem.L,
        "mu": problem.mu,
        "mu_x": dc.mu_x,
        "kappa": dc.kappa,
        "kappa_x": dc.kappa_x,
        "M": M,
    })
    return report


def check_lemma_spectral(eigenvalues, M_norm, L, mu, mu_x, r):
    """The five structural properties of the spectrum of M, each returned as
    (applicable, passed, margin):

      1. every imaginary part is at most sqrt(r)*L in magnitude;
      2. complex eigenvalues have real part at most -mu*(r-kappa)/2;
      3. the squared spectral radius is at most |M|_2^2 which is at most
         4*r^2*L^2 (needs r >= 1);
      4. real eigenvalues have real part at most -mu_x;
      5. every real part is strictly negative.

    Items 2, 4 and 5 are proved for r > kappa (and 5 needs mu_x > 0); they
    report not-applicable otherwise.  ``eigenvalues`` are those of M and
    ``M_norm`` is ``|M|_2``.  Margins are (bound - value), so nonnegative
    means satisfied; each item passes when its margin is >= -1e-8 * |M|_2.
    """
    lam = np.asarray(eigenvalues, dtype=complex)
    M_norm = float(M_norm)
    tol, real_tol = LEMMA_CHECK_RTOL * M_norm, REAL_EIG_RTOL * M_norm
    kappa = L / mu
    # one pass over Python floats for the largest |imag|, squared modulus and
    # real part (of complex and of real eigenvalues); a NaN met stays, as in np.max
    top_im = top_sq = top_cx = top_re = -math.inf
    for z in lam.tolist():
        re, im = z.real, z.imag
        a, sq = abs(im), re * re + im * im
        top_im = a if a > top_im or a != a else top_im
        top_sq = sq if sq > top_sq or sq != sq else top_sq
        if a > real_tol:
            top_cx = re if re > top_cx or re != re else top_cx
        else:
            top_re = re if re > top_re or re != re else top_re
    top_all = top_cx if top_cx >= top_re or top_cx != top_cx else top_re

    def judged(margin, slack=tol):
        margin = float(margin)
        return margin >= -slack, margin

    verdicts = {1: judged(math.sqrt(r) * L - top_im)}
    if r > kappa:
        # min (bound - re) over a set is bound - max re: a difference rounds
        # monotonically; +inf over an empty set
        verdicts[2] = judged(-mu * (r - kappa) / 2.0 - top_cx)
        verdicts[4] = judged(-mu_x - top_re)
        if mu_x > 0:
            verdicts[5] = judged(-top_all)
    if r >= 1.0:
        try:
            M_sq = M_norm ** 2
            # squared-scale quantities; tolerance scales accordingly
            verdicts[3] = judged(min(M_sq - top_sq, 4.0 * r ** 2 * L ** 2 - M_sq),
                                 tol * M_norm)
        except OverflowError:
            # a square leaves the floats: judge both bounds divided by
            # |M|_2^2, and keep the margin only where it is a finite double
            q = float(np.max(np.abs(lam))) / M_norm
            p = 2.0 * r * L / M_norm
            scaled = min(1.0 - q * q, p * p - 1.0)
            margin3 = float(M_norm * (M_norm * scaled))
            verdicts[3] = (bool(scaled >= -LEMMA_CHECK_RTOL),
                           margin3 if math.isfinite(margin3) else math.nan)
    return tuple([LemmaCheck(k, k in verdicts, *verdicts.get(k, _NOT_APPLICABLE))
                  for k in range(1, 6)])


def classify_ratio(r, kappa):
    """Where a stepsize ratio falls relative to the convergence threshold:
    at or below ``kappa`` divergence is certified on the hard instance, at or
    above ``2*kappa`` convergence is proved, in between only per-instance
    numerics decide."""
    if not (0 < r < math.inf and 0 < kappa < math.inf):
        raise InvalidInputError("r and kappa must be positive and finite")
    if r <= kappa:
        return RatioClass.BELOW_THRESHOLD
    if r >= 2.0 * kappa:
        return RatioClass.PROVED_CONVERGENT
    return RatioClass.GAP


def predicted_floor_sgda(r, kappa_x, basis_cond, sigma, L, batch):
    """Proved steady-state mean-square distance bound for mini-batch SGDA:
    ``8 * r * kappa_x * C_P^2 * sigma^2 / (L^2 * batch)``."""
    if not (all(0 < v < math.inf for v in (r, kappa_x, basis_cond, L, batch))
            and 0 <= sigma < math.inf):
        raise InvalidInputError(
            "all floor parameters must be positive and finite (sigma >= 0)")
    return 8.0 * r * kappa_x * basis_cond ** 2 * sigma ** 2 / (L ** 2 * batch)


def report_to_json_dict(report):
    """Stable-name JSON form of a spectral report (eigenvalues as [re, im]
    pairs)."""
    return {
        "eigenvalues": [[float(l.real), float(l.imag)] for l in report.eigenvalues],
        "rho1": report.rho1,
        "rho2": report.rho2,
        "rho_bound": report.rho_bound,
        "rate_constant": report.rate_constant,
        # margin None for not-applicable or vacuous items
        "lemma_checks": [{"item": c.item, "applicable": c.applicable, "passed": c.passed,
                          "margin": c.margin if math.isfinite(c.margin) else None}
                         for c in report.lemma_checks],
        "diagonalizable": report.diagonalizable,
        "basis_cond": report.basis_cond,
        "s_assumed": 1,  # the envelope C_P * rho^k assumes no Jordan block
        "M_norm": report.M_norm,
        "r": report.r,
        "eta_x": report.eta_x,
        "L": report.L,
        "mu": report.mu,
        "mu_x": report.mu_x,
        "kappa": report.kappa,
        "kappa_x": None if math.isinf(report.kappa_x) else report.kappa_x,
    }
