"""Quadratic minimax instances and their oracles.

An instance encodes

    f(x; y) = 1/2 (x-x*)' C (x-x*) + (x-x*)' B (y-y*) - 1/2 (y-y*)' A (y-y*)

with symmetric ``A`` (m x m, the concave block), coupling ``B`` (n x m) and
symmetric ``C`` (n x n).  The validity contract is ``mu*I <= A <= L*I`` and
``|B|_2, |C|_2 <= L``; the primal Hessian is the Schur complement
``C + B A^-1 B'`` whose smallest eigenvalue (clipped at ``L``, floored at 0)
is ``mu_x``.

The module provides exact and mini-batch-noisy gradient oracles, validators,
derived constants, random and adversarial instance generators, the
ridge-style regularization used when ``mu_x = 0``, and a logistic-perturbed
non-quadratic family.  Instances are immutable after construction; oracles
that need randomness take an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    GenerationFailureError,
    InvalidInputError,
    InvalidStateError,
)

VALIDATION_RTOL = 1e-9  # clause tolerance, relative to L
_SAMPLE_ATTEMPTS = 50  # draws sample_instance tries before giving up


def as_count(value, name, low):
    """``value`` as an ``int``, for a field that counts: an integral number
    (``100`` or ``100.0``) of at least ``low``, else InvalidInputError."""
    try:
        ok = int(value) == value and value >= low
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise InvalidInputError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _readonly(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class QuadraticProblem:
    """One quadratic minimax instance.  See the module docstring for the form."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    x_star: np.ndarray
    y_star: np.ndarray
    L: float
    mu: float

    def __post_init__(self):
        A = _readonly(np.atleast_2d(self.A))
        B = _readonly(np.atleast_2d(self.B))
        C = _readonly(np.atleast_2d(self.C))
        x_star = _readonly(np.atleast_1d(self.x_star))
        y_star = _readonly(np.atleast_1d(self.y_star))
        n, m = C.shape[0], A.shape[0]
        if A.shape != (m, m) or C.shape != (n, n) or B.shape != (n, m):
            raise InvalidInputError(
                f"inconsistent block shapes A={A.shape} B={B.shape} C={C.shape}"
            )
        if n == 0 or m == 0:
            raise InvalidInputError(f"n and m must be >= 1, got n={n}, m={m}")
        if x_star.shape != (n,) or y_star.shape != (m,):
            raise InvalidInputError(
                f"optimum shapes {x_star.shape}/{y_star.shape} do not match n={n}, m={m}"
            )
        if not (self.L > 0 and self.mu > 0):
            raise InvalidInputError("L and mu must be positive")
        for name, val in (("A", A), ("B", B), ("C", C), ("x_star", x_star), ("y_star", y_star)):
            if not np.isfinite(val).all():
                raise InvalidInputError(f"{name} has non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "x_star", x_star)
        object.__setattr__(self, "y_star", y_star)
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "mu", float(self.mu))

    @property
    def n(self):
        return self.C.shape[0]

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def dim(self):
        return self.n + self.m

    @property
    def z_star(self):
        return np.concatenate([self.x_star, self.y_star])

    @cached_property
    def _derived(self):
        return _compute_constants(self)


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from an instance: ``mu_x``, condition numbers and
    the primal Hessian (Schur complement), its raw smallest eigenvalue
    ``schur_min``, and whether the primal gap is defined (``primal_convex``)."""

    mu_x: float
    kappa: float
    kappa_x: float
    schur: np.ndarray
    schur_min: float
    primal_convex: bool


@dataclass(frozen=True)
class NoiseModel:
    """Mini-batch gradient noise: per-sample root-variance ``sigma`` and
    batch size ``batch``; each gradient block receives zero-mean noise with
    mean squared norm ``sigma**2 / batch``."""

    sigma: float
    batch: int = 1

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:
            raise InvalidInputError("sigma must be nonnegative and finite")
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "batch", as_count(self.batch, "batch", 1))


@dataclass(frozen=True, eq=False)
class NonQuadraticProblem:
    """A quadratic base instance plus a separable logistic-pair term in x:
    ``(L/n) * sum_i [log(1+exp(a(x_i-b_i))) + log(1+exp(-a(x_i-b_i)))]``.

    The added term depends on x only; its Hessian is diagonal with entries
    in ``[0, a^2 L / (2n)]``.
    """

    base: QuadraticProblem
    a: float
    b: np.ndarray

    def __post_init__(self):
        if not 0 <= self.a < math.inf:
            raise InvalidInputError(
                "a must be nonnegative and finite (0 degenerates to the base)")
        b = _readonly(np.atleast_1d(self.b))
        if b.shape != (self.base.n,):
            raise InvalidInputError(f"b must have length n={self.base.n}")
        if not np.isfinite(b).all():
            raise InvalidInputError("b must be finite")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", b)

    @property
    def scale(self):
        return self.base.L / self.base.n


def validate(problem, require_primal_convex=False):
    """Names of the failed clauses of the instance contract, in the order
    ``A_lower``, ``A_upper``, ``B_norm``, ``C_norm``, ``schur_psd``; empty
    when the instance is valid.

    A clause fails when its signed margin (bound minus value) is below
    ``-1e-9 * L``.  The Schur complement PSD clause is only checked when
    ``require_primal_convex`` is set, from the cached
    :func:`derive_constants`, and always fails when A is not positive
    definite.
    """
    L, mu = problem.L, problem.mu
    eigs_A, _ = linalg.sym_eig(problem.A)
    margins = {
        "A_lower": eigs_A[0] - mu,
        "A_upper": L - eigs_A[-1],
        "B_norm": L - linalg.spectral_norm(problem.B),
        "C_norm": L - linalg.spectral_norm(problem.C),
    }
    if require_primal_convex:
        margins["schur_psd"] = (derive_constants(problem).schur_min
                                if eigs_A[0] > 0 else -math.inf)
    tol = VALIDATION_RTOL * L
    return tuple(name for name, margin in margins.items() if not margin >= -tol)


def _clip_mu_x(schur_min, L):
    # mu_x of a smallest Schur eigenvalue: clipped at L, 0 at or below 1e-9*L
    mu_x = np.minimum(L, schur_min)
    return np.where(mu_x <= VALIDATION_RTOL * L, 0.0, mu_x)


def _compute_constants(problem):
    L, mu = problem.L, problem.mu
    schur = problem.C + problem.B @ linalg.solve_spd(problem.A, problem.B.T)
    schur = 0.5 * (schur + schur.T)
    schur_min = float(linalg.sym_eig(schur)[0][0])
    mu_x = float(_clip_mu_x(schur_min, L))
    kappa_x = math.inf if mu_x == 0.0 else L / mu_x
    return DerivedConstants(
        mu_x=mu_x,
        kappa=L / mu,
        kappa_x=kappa_x,
        schur=_readonly(schur),
        schur_min=schur_min,
        primal_convex=schur_min >= -VALIDATION_RTOL * L,
    )


def derive_constants(problem):
    """Schur complement, ``mu_x = min(L, lambda_min(schur))`` (clipped to 0
    within tolerance of zero or below), and the condition numbers.  The
    result is cached on the instance."""
    return problem._derived


def split_z(problem, z):
    z = np.asarray(z, dtype=float)
    if z.shape != (problem.dim,):
        raise InvalidInputError(f"z must have length n+m={problem.dim}, got {z.shape}")
    return z[: problem.n], z[problem.n :]


def grad(problem, z):
    """Exact gradient blocks ``(g_x, g_y)`` at ``z = (x, y)``."""
    x, y = split_z(problem, z)
    dx = x - problem.x_star
    dy = y - problem.y_star
    gx = problem.C @ dx + problem.B @ dy
    gy = problem.B.T @ dx - problem.A @ dy
    return gx, gy


def stochastic_grad(problem, z, noise, rng):
    """Mini-batch gradient: the exact gradient (``grad``, or ``nonquad_grad``
    for a :class:`NonQuadraticProblem`) plus the average of ``batch`` i.i.d.
    isotropic Gaussian perturbations per block.

    Each per-sample perturbation has total variance ``sigma**2`` per block
    (covariance ``(sigma**2/dim) I``), so the averaged noise on each block
    has mean squared norm exactly ``sigma**2 / batch``.  The average is
    drawn directly from its exact distribution (one Gaussian draw per
    block), x block first, so runs are reproducible given the generator
    state.
    """
    exact = nonquad_grad if isinstance(problem, NonQuadraticProblem) else grad
    return add_noise(exact(problem, z), noise, rng)


def add_noise(g, noise, rng):
    """The exact gradient blocks ``g = (gx, gy)`` plus ``stochastic_grad``'s
    noise, drawn from ``rng`` x block first; ``g`` itself is left as it is.
    ``noise=None`` is the exact oracle, as ``sigma = 0`` is."""
    gx, gy = g
    if noise is None or noise.sigma == 0.0:
        return gx, gy
    n, m = len(gx), len(gy)
    scale = noise.sigma / math.sqrt(noise.batch)
    gx = gx + rng.standard_normal(n) * (scale / math.sqrt(n))
    gy = gy + rng.standard_normal(m) * (scale / math.sqrt(m))
    return gx, gy


def primal_gap(problem, x):
    """Primal suboptimality ``1/2 (x-x*)' schur (x-x*)`` (>= 0) of ``x`` or
    of each row of a stack ``x``; ``inf`` for a non-finite row or an
    overflowing form.  Requires a PSD Schur complement; raises
    :class:`InvalidStateError` when it is indefinite beyond tolerance."""
    dc = derive_constants(problem)
    if not dc.primal_convex:
        raise InvalidStateError(
            f"primal Hessian is indefinite (lambda_min={dc.schur_min:.3e}); "
            "primal gap undefined"
        )
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != problem.n:
        raise InvalidInputError(f"x must have length n={problem.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        gap = _gap_form(dc.schur, np.atleast_2d(x - problem.x_star))
    return float(gap[0]) if x.ndim == 1 else gap


def _gap_form(schur, D):
    """``1/2 d' schur d >= 0`` of each row ``d = x - x*`` of ``D``; inf where
    ``d`` is non-finite or the form overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        gap = 0.5 * np.einsum("ij,ij->i", D @ schur, D)
        redo = ~np.isfinite(gap)
        if redo.any():
            # redo a row whose form met an inf or nan scaled by a power of
            # two (exactly), so that it overflows only if its value does
            s = np.ldexp(1.0, np.frexp(np.abs(D[redo]).max(axis=1))[1] - 1)
            U = D[redo] / s[:, None]
            gap[redo] = 0.5 * np.einsum("ij,ij->i", U @ schur, U) * s * s
            gap[~np.isfinite(D).all(axis=1)] = math.inf
        return np.fmax(gap, 0.0, out=gap)


def _haar_orthogonal(G):
    # QR of a Gaussian matrix (or stack) with the R diagonal sign-normalized is Haar.
    Q, R = np.linalg.qr(G)
    return Q * np.where(np.diagonal(R, axis1=-2, axis2=-1) < 0, -1.0, 1.0)[..., None, :]


def _rescaled(M, frac, L):
    # each matrix of the stack M rescaled to spectral norm frac*L (zeros for frac 0)
    return (M * (frac * L / np.linalg.svd(M, compute_uv=False)[..., :1, None])
            if frac > 0 else np.zeros_like(M))


def _draw_stack(rngs, n, m, L, mu, beta, gamma):
    """One attempt of :func:`sample_instance` per generator, stacked: ``A``,
    ``B``, ``C`` and the Gaussian ``H`` behind ``C`` (or a ``mu_x_zero``
    ``W``); stacked linalg gives one-matrix bits, so no draw sees its stack."""
    lam, QG, G, H = (np.array(a) for a in zip(*[
        (rng.uniform(mu, L, size=m), rng.standard_normal((m, m)),
         rng.standard_normal((n, m)), rng.standard_normal((n, n))) for rng in rngs]))
    lam[:, 0] = mu
    if m >= 2:
        lam[:, -1] = L
    Q = _haar_orthogonal(QG)
    A = (Q * lam[:, None, :]) @ Q.mT
    A = 0.5 * (A + A.mT)
    return A, _rescaled(G, beta, L), _rescaled(0.5 * (H + H.mT), gamma, L), H


def _first_draws(seeds, n, m, L, mu):
    """The stacked first attempts ``A``, ``B``, ``C`` of ``sample_instance(n,
    m, L, mu, seed)`` and their ``mu_x``, bit for bit as the LAPACK calls of
    ``validate`` and ``derive_constants`` give it; NaN where an attempt is
    not finite, ``validate`` rejects it or ``derive_constants`` would raise."""
    A, B, C, _ = _draw_stack([np.random.default_rng(s) for s in seeds],
                             n, m, L, mu, 0.5, 0.5)
    S, mu_x = 0.5 * (A + A.mT), np.full(len(A), np.nan)  # as sym_eig, solve_spd
    ok = np.flatnonzero(np.all([np.isfinite(M).all((1, 2)) for M in (S, B, C)], 0))
    eigs_A = linalg._lapack(linalg._EIGH, S[ok], "d->dd", linalg._EIGH_FAILED)[0]
    norm_B, norm_C = (linalg._lapack(linalg._SVD, M[ok], "d->d", linalg._SVD_FAILED)[:, 0]
                      for M in (B, C))
    ok = ok[np.min([eigs_A[:, 0] - mu, L - eigs_A[:, -1], L - norm_B, L - norm_C], 0)
            >= -VALIDATION_RTOL * L]
    schur = np.full_like(C, np.nan)
    for k in ok:
        factor, info = linalg._POTRF(S[k], lower=1, clean=0)
        if info == 0:
            schur[k] = C[k] + B[k] @ linalg._POTRS(factor, B[k].T, lower=1)[0]
    schur = 0.5 * (schur + schur.mT)
    ok = np.flatnonzero(np.isfinite(schur).all((1, 2)))
    mu_x[ok] = _clip_mu_x(linalg._lapack(linalg._EIGH, schur[ok], "d->dd",
                                         linalg._EIGH_FAILED)[0][:, 0], L)
    return A, B, C, mu_x


def sample_instance(
    n,
    m,
    L,
    mu,
    rng,
    *,
    beta=0.5,
    gamma=0.5,
    primal_convex=False,
    mu_x_zero=False,
    schur_margin=0.0,
):
    """Draw a random valid instance.

    ``A = Q diag(lam) Q'`` with ``lam`` i.i.d. uniform on ``[mu, L]`` and both
    endpoints forced into the spectrum (so ``kappa`` is exact when m >= 2),
    ``Q`` Haar-orthogonal.  ``B`` is Gaussian rescaled to ``|B|_2 = beta*L``;
    ``C`` is symmetric Gaussian rescaled to ``|C|_2 = gamma*L``.

    ``primal_convex`` shifts C by ``tau*I`` so the Schur complement has
    smallest eigenvalue >= ``schur_margin`` (>= 0; only 0 without
    ``primal_convex``); ``mu_x_zero`` instead builds ``C = W D W' - B A^-1
    B'`` with diagonal PSD ``D`` having exactly one zero entry, shrinking
    ``beta`` as needed, so ``mu_x`` is exactly 0.
    Makes up to 50 draws before raising
    :class:`GenerationFailureError`.  ``rng`` is a nonnegative integer seed
    or a ``numpy.random.Generator``; identical arguments give identical
    instances.
    """
    if n < 1 or m < 1:
        raise InvalidInputError("n and m must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = as_count(rng, "seed", 0)
    if not (math.inf > L > mu > 0):
        raise InvalidInputError("need finite L > mu > 0")
    if not (0 <= beta <= 1) or not (0 <= gamma <= 1):
        raise InvalidInputError("beta and gamma must lie in [0, 1]")
    if not 0 <= schur_margin < math.inf:
        raise InvalidInputError("schur_margin must be finite and >= 0")
    if primal_convex and mu_x_zero:
        raise InvalidInputError("primal_convex and mu_x_zero are mutually exclusive")
    if schur_margin > 0 and not primal_convex:
        raise InvalidInputError("schur_margin applies only with primal_convex")
    rng = np.random.default_rng(rng)

    beta_eff = beta
    for _ in range(_SAMPLE_ATTEMPTS):
        A, B, C, H = (M[0] for M in _draw_stack([rng], n, m, L, mu, beta_eff, gamma))
        if mu_x_zero:
            W = _haar_orthogonal(H)
            d = rng.uniform(L / 10.0, L / 2.0, size=n)
            d[0] = 0.0
            C = (W * d) @ W.T - B @ linalg.solve_spd(A, B.T)
            C = 0.5 * (C + C.T)
            if linalg.spectral_norm(C) > L:
                beta_eff *= 0.7
                continue
        elif primal_convex:
            schur0 = C + B @ linalg.solve_spd(A, B.T)
            schur0_min = float(linalg.sym_eig(0.5 * (schur0 + schur0.T))[0][0])
            tau = max(0.0, schur_margin - schur0_min)
            C = C + tau * np.eye(n)
            if linalg.spectral_norm(C) > L:
                continue

        problem = QuadraticProblem(
            A=A, B=B, C=C, x_star=np.zeros(n), y_star=np.zeros(m), L=L, mu=mu
        )
        if not validate(problem, require_primal_convex=primal_convex or mu_x_zero):
            return problem

    raise GenerationFailureError(
        f"failed to generate a valid instance after {_SAMPLE_ATTEMPTS} attempts "
        f"(n={n}, m={m}, L={L}, mu={mu}, beta={beta}, gamma={gamma}, "
        f"primal_convex={primal_convex}, mu_x_zero={mu_x_zero})"
    )


def _hard_1x1(L, mu, mu_x=None):
    """``A=(mu)``, ``B=(b)``, ``C=(-L)``: b is L, or sqrt(mu*(L+mu_x))."""
    if not (L > 0 and mu > 0):
        raise InvalidInputError("L and mu must be positive")
    if mu_x is not None and not (0 < mu_x <= L * (1 + 1e-12)):
        raise InvalidInputError(f"requires 0 < mu_x <= L, got mu_x={mu_x:.6g}")
    if L / mu < 2.0 - 1e-12:
        raise InvalidInputError(f"requires kappa = L/mu >= 2, got {L / mu:.6g}")
    b = L if mu_x is None else math.sqrt(mu * (L + mu_x))
    return QuadraticProblem(
        A=[[mu]], B=[[b]], C=[[-L]], x_star=[0.0], y_star=[0.0], L=L, mu=mu
    )


def hard_ratio_instance(L, mu):
    """The 1-D x 1-D instance on which GDA diverges whenever the stepsize
    ratio is at most kappa: ``A=(mu)``, ``B=(L)``, ``C=(-L)``, optimum 0.

    Requires ``kappa = L/mu >= 2``."""
    return _hard_1x1(L, mu)


def hard_rate_instance(L, mu, mu_x):
    """The 1-D x 1-D instance whose slowest GDA mode attains the rate lower
    bound: ``A=(mu)``, ``B=(b)``, ``C=(-L)`` with ``b = sqrt(mu*(L+mu_x))``,
    so the Schur complement equals ``mu_x`` exactly.

    Requires ``0 < mu_x <= L`` and ``kappa >= 2``."""
    return _hard_1x1(L, mu, mu_x)


def regularize(problem, delta):
    """Add ``delta/2 * |x - x*|^2`` to the objective, i.e. replace C by
    ``C + delta*I`` (same A, B and centers).

    With the default ``x* = 0`` this is exactly the ridge term used to make
    the primal function ``delta``-strongly convex when ``mu_x = 0``.  The
    result may exceed the original norm budget on C by up to ``delta``; it
    stays ``2L``-smooth since ``delta <= L`` is required."""
    if not (0 < delta <= problem.L):
        raise InvalidInputError(f"delta must lie in (0, L], got {delta:.6g}")
    return QuadraticProblem(
        A=problem.A,
        B=problem.B,
        C=problem.C + delta * np.eye(problem.n),
        x_star=problem.x_star,
        y_star=problem.y_star,
        L=problem.L,
        mu=problem.mu,
    )


def nonquad_grad(nq, z):
    """Gradient of the logistic-perturbed instance.

    The x block gains ``(L/n) * a * (2*sigmoid(u_i) - 1)`` per coordinate
    with ``u_i = a*(x_i - b_i)`` (written as tanh(u/2) for stability); the
    y block is the base gradient."""
    gx, gy = grad(nq.base, z)
    x = np.asarray(z, dtype=float)[: nq.base.n]
    u = nq.a * (x - nq.b)
    gx = gx + nq.scale * nq.a * np.tanh(0.5 * u)
    return gx, gy


def nonquad_hessian_deviation(nq):
    """The nearly-quadratic deviation ``delta_r`` of the perturbed instance
    from its base, the same at every ratio ``r``: ``a^2 L / (2n)``.

    In general ``delta_r = dxx + (r+1) dxy + r dyy`` from the uniform
    deviations of the xx, xy and yy Hessian blocks.  The logistic pair
    depends on x only, so dxy = dyy = 0, and its diagonal xx term has
    entries ``(L/n) * a^2 * 2*s*(1-s) <= a^2 L / (2n)`` (max at u=0)."""
    return nq.a ** 2 * nq.base.L / (2.0 * nq.base.n)


# --- serialization ---------------------------------------------------------

def to_json_dict(problem):
    """Schema: {n, m, L, mu, A, B, C, x_star, y_star} with matrices as flat
    row-major arrays.  Finite doubles round-trip exactly."""
    return {
        "n": problem.n,
        "m": problem.m,
        "L": problem.L,
        "mu": problem.mu,
        "A": problem.A.ravel().tolist(),
        "B": problem.B.ravel().tolist(),
        "C": problem.C.ravel().tolist(),
        "x_star": problem.x_star.tolist(),
        "y_star": problem.y_star.tolist(),
    }


def from_json_dict(data):
    try:
        n, m = as_count(data["n"], "n", 1), as_count(data["m"], "m", 1)
        return QuadraticProblem(
            A=np.asarray(data["A"], dtype=float).reshape(m, m),
            B=np.asarray(data["B"], dtype=float).reshape(n, m),
            C=np.asarray(data["C"], dtype=float).reshape(n, n),
            x_star=np.asarray(data["x_star"], dtype=float),
            y_star=np.asarray(data["y_star"], dtype=float),
            L=float(data["L"]),
            mu=float(data["mu"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed instance data: {exc}") from exc


def write_instance(problem, fh):
    """Write the instance JSON to the open text file ``fh``."""
    json.dump(to_json_dict(problem), fh, indent=1)
    fh.write("\n")


def save_instance(problem, path):
    with open(path, "w", encoding="utf-8") as fh:
        write_instance(problem, fh)


def load_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"cannot parse instance file {path}: {exc}") from exc
    return from_json_dict(data)
