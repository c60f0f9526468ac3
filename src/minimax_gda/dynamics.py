"""Algorithm steppers (GDA, SGDA, EG), transition matrices and trajectory
execution.

On a quadratic instance one GDA step maps ``w = z - z*`` through
``T = I + eta_x*M`` and one EG step through ``T = I + eta_x*M + eta_x^2*M^2``,
where

    M = [[-C, -B], [r*B', -r*A]],   r = eta_y / eta_x.

A mini-batch Gaussian oracle adds ``G xi`` per step, with ``xi`` standard
normal, so every quadratic run, exact or noisy, is the affine recurrence
``w <- T w + G xi`` (``G = 0`` for an exact oracle).  ``run`` advances that
recurrence a chunk of steps at a time: block starts move by the power
``T^b``, the states inside each block come from one product with the stack
``T^1..T^b``, and the stop iteration is found from the whole chunk's
distances at once.  Non-quadratic runs step through the gradient oracle,
one iteration at a time.  A run owns its RNG (seeded from the config), and
the noise it draws is the per-step oracle's stream, value for value;
``gda_step``/``eg_step`` with ``make_oracle`` remain the per-step reference.
"""

from __future__ import annotations

import csv
import enum
import math
import numbers
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import problems as prob
from .errors import InsufficientDataError, InvalidInputError

TRAJECTORY_STORAGE_CAP = 10 ** 6  # record every iteration up to this budget


class Algorithm(str, enum.Enum):
    GDA = "gda"
    SGDA = "sgda"
    EG = "eg"


class Scheme(str, enum.Enum):
    """The two proved stepsize pairs: quarter uses eta_x=1/(4rL),
    eta_y=1/(4L) (rate constant 64); half uses eta_x=1/(2rL), eta_y=1/(2L)
    (rate constant 16)."""

    QUARTER = "quarter"
    HALF = "half"

    @property
    def rate_constant(self):
        return 64 if self is Scheme.QUARTER else 16


class StatusKind(str, enum.Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class Status:
    kind: StatusKind
    step: Optional[int] = None

    def __str__(self):
        if self.step is None:
            return self.kind.value
        return f"{self.kind.value}({self.step})"


@dataclass(frozen=True)
class SolverConfig:
    algorithm: Algorithm
    eta_x: float
    eta_y: float
    max_iters: int
    target_eps: float
    divergence_factor: float = 1e8
    noise: Optional[prob.NoiseModel] = None
    seed: int = 0
    record_primal_gaps: bool = True

    def __post_init__(self):
        if not (0 < self.eta_x < math.inf and 0 < self.eta_y < math.inf):
            raise InvalidInputError("stepsizes must be positive and finite")
        if self.max_iters < 0:
            raise InvalidInputError("max_iters must be >= 0")
        if not 0 < self.target_eps < math.inf:
            raise InvalidInputError("target_eps must be positive and finite")
        if isinstance(self.seed, numbers.Integral) and self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if not self.divergence_factor > 1:
            raise InvalidInputError("divergence_factor must exceed 1")
        if self.algorithm is Algorithm.SGDA and self.noise is None:
            raise InvalidInputError("SGDA requires a noise model")
        if self.algorithm is Algorithm.GDA and self.noise is not None:
            raise InvalidInputError("GDA is the exact method; use SGDA for a noisy oracle")

    @property
    def ratio(self):
        return self.eta_y / self.eta_x


@dataclass(frozen=True)
class Trajectory:
    """Recorded convergence measure per iteration plus the terminal status.

    ``distances[i]`` is the measure at iteration ``iters[i]``: the distance
    ``|z^k - z*|`` for quadratic runs, the gradient norm for non-quadratic
    runs (``metric`` says which).  ``primal_gaps`` is populated for
    primal-convex quadratic instances when requested.  Non-finite iterates
    are recorded as ``inf`` and classify the run as diverged.
    """

    iters: np.ndarray
    distances: np.ndarray
    primal_gaps: Optional[np.ndarray]
    status: Status
    metric: str
    wall_time: float
    config: SolverConfig
    final_z: np.ndarray

    def final_distance(self):
        return float(self.distances[-1])


def default_stepsizes(L, r, scheme=Scheme.QUARTER):
    """The proved stepsize pair for smoothness ``L`` and ratio ``r``."""
    if not (0 < L < math.inf and 0 < r < math.inf):
        raise InvalidInputError("L and r must be positive and finite")
    scheme = Scheme(scheme)
    eta_y = 1.0 / (4.0 * L) if scheme is Scheme.QUARTER else 1.0 / (2.0 * L)
    return eta_y / r, eta_y


def build_M(problem, r):
    """Block dynamics matrix [[-C, -B], [r*B', -r*A]] of shape (n+m, n+m)."""
    if r <= 0:
        raise InvalidInputError("r must be positive")
    n = problem.n
    M = np.empty((problem.dim, problem.dim))
    M[:n, :n], M[:n, n:] = -problem.C, -problem.B
    M[n:, :n], M[n:, n:] = r * problem.B.T, -r * problem.A
    return M


def make_oracle(problem, noise=None):
    """Gradient oracle ``oracle(z, rng) -> (gx, gy)`` for a quadratic or
    non-quadratic instance: ``stochastic_grad`` under ``noise``, or the
    exact gradient (drawing nothing from ``rng``) when ``noise`` is None."""
    noise = prob.NoiseModel(0.0) if noise is None else noise
    return lambda z, rng=None: prob.stochastic_grad(problem, z, noise, rng)


def gda_step(oracle, z, eta_x, eta_y, rng=None):
    """One simultaneous descent/ascent step.  For an exact quadratic oracle
    this equals ``z* + (I + eta_x*M) (z - z*)`` to machine precision."""
    gx, gy = oracle(z, rng)
    nx = gx.shape[0]
    return np.concatenate([z[:nx] - eta_x * gx, z[nx:] + eta_y * gy])


def eg_step(oracle, z, eta_x, eta_y, rng=None):
    """One extra-gradient step: evaluate at the half-point, update from z.
    For an exact quadratic oracle this equals
    ``z* + (I + eta_x*M + eta_x^2*M^2) (z - z*)``."""
    gx, gy = oracle(z, rng)
    nx = gx.shape[0]
    z_half = np.concatenate([z[:nx] - eta_x * gx, z[nx:] + eta_y * gy])
    gx2, gy2 = oracle(z_half, rng)
    return np.concatenate([z[:nx] - eta_x * gx2, z[nx:] + eta_y * gy2])


def default_initial_point(problem, seed):
    # unit-norm offset from the optimum, drawn before any noise so SGDA and
    # GDA see the same start for a given seed
    quad = problem.base if isinstance(problem, prob.NonQuadraticProblem) else problem
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(quad.dim)
    v /= np.linalg.norm(v)
    return quad.z_star + v


def _transition_matrix(problem, config):
    M = build_M(problem, config.ratio)
    T = np.eye(problem.dim) + config.eta_x * M
    if config.algorithm is Algorithm.EG:
        T = T + (config.eta_x * M) @ (config.eta_x * M)
    return T


def run(problem, config, z0=None):
    """Execute the configured dynamics and record the convergence measure.

    Stops when the measure drops to ``target_eps`` (converged), grows to
    ``divergence_factor`` times its initial value or leaves the floats
    (diverged), or the iteration budget runs out; when several hold at the
    same iteration, diverged wins over converged, and converged over budget.
    Distances are recorded every iteration, or every ``ceil(T/1e6)``
    iterations for very long budgets (the terminal point is always
    recorded).  Deterministic given ``(problem, config, z0)``; when ``z0`` is
    omitted it defaults to the optimum plus a unit direction drawn from
    ``config.seed``.  The oracle noise is drawn from a generator seeded with
    ``config.seed``, in the order the per-step oracle of ``make_oracle``
    draws it.

    Quadratic runs, exact or noisy, go through the affine engine
    (``_run_affine``), which advances many steps per numpy call and finds
    the stop iteration within each chunk of steps; non-quadratic runs step
    through the gradient oracle one iteration at a time.
    """
    nonquad = isinstance(problem, prob.NonQuadraticProblem)
    quad = problem.base if nonquad else problem
    if z0 is None:
        z0 = default_initial_point(problem, config.seed)
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (quad.dim,):
        raise InvalidInputError(f"z0 must have length {quad.dim}")

    schur = None
    if not nonquad and config.record_primal_gaps:
        constants = prob.derive_constants(quad)
        if constants.schur_min >= -prob.VALIDATION_RTOL * quad.L:
            schur = constants.schur

    start = time.perf_counter()
    # overflow to inf is an expected outcome here: it classifies the run as
    # diverged rather than warranting a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if nonquad:
            status, final_z, iters, distances = _run_oracle(problem, config, z0)
            gaps = None
        else:
            status, w, iters, distances, gaps = _run_affine(
                quad, config, z0 - quad.z_star, schur)
            final_z = quad.z_star + w
    wall = time.perf_counter() - start
    return Trajectory(
        iters=iters,
        distances=distances,
        primal_gaps=gaps,
        status=status,
        metric="grad_norm" if nonquad else "distance",
        wall_time=wall,
        config=config,
        final_z=final_z,
    )


def _stride(max_iters):
    return max(1, math.ceil(max_iters / TRAJECTORY_STORAGE_CAP))


def _stop_status(d, k, limit, eps):
    """Status of a run stopped at iteration ``k`` with measure ``d``."""
    if not math.isfinite(d) or (d >= limit and k > 0):
        return Status(StatusKind.DIVERGED, k)
    if d <= eps:
        return Status(StatusKind.CONVERGED, k)
    return Status(StatusKind.BUDGET_EXHAUSTED)


# Block length b of the affine engine: a run precomputes T^1..T^b once and
# fills b consecutive states with one product per block start.
_BLOCK = 64
# Chunks start at one block and double up to this many blocks, so a run that
# stops early computes few states past its stop.
_MAX_BLOCKS = 64


def _power_stack(T, b):
    """The powers ``T^1..T^b`` side by side: a ``(dim, b*dim)`` matrix whose
    block ``j`` is ``(T^(j+1))'``, so ``s @ P`` lists ``T^j s`` for every
    ``j``.  Built by doubling.  Powers from the first one that overflows on
    are dropped, since an infinite power would turn exact zeros of a state
    into NaN."""
    P = np.empty((b,) + T.shape)
    P[0] = T
    have = 1
    while have < b:
        add = min(have, b - have)
        np.matmul(P[:add], P[have - 1], out=P[have:have + add])
        have += add
    finite = np.isfinite(P).all(axis=(1, 2))
    if not finite.all():
        P = P[:max(1, int(np.argmin(finite)))]
    return P.transpose(2, 0, 1).reshape(len(T), -1)


def _noise_gain(quad, config):
    """The matrix ``G`` through which one step's standard normal draws
    ``xi`` enter ``w = z - z*``, or ``None`` for an exact oracle.

    The oracle perturbs each gradient block by ``s/sqrt(dim_block)`` times a
    standard normal vector, ``s = sigma/sqrt(batch)``, x block first; the
    stepsizes turn that into ``D xi`` with ``D = diag(-eta_x s/sqrt(n),
    eta_y s/sqrt(m))``, so ``G = D`` for SGDA.  EG calls the oracle twice
    per step and its half-step noise reaches the iterate through
    ``eta_x M``, so ``G = [eta_x M D | D]``.
    """
    noise = config.noise
    if noise is None or noise.sigma == 0.0:
        return None
    n, m = quad.n, quad.m
    s = noise.sigma / math.sqrt(noise.batch)
    D = np.diag(np.concatenate([np.full(n, -config.eta_x * s / math.sqrt(n)),
                                np.full(m, config.eta_y * s / math.sqrt(m))]))
    if config.algorithm is not Algorithm.EG:
        return D
    return np.hstack([config.eta_x * build_M(quad, config.ratio) @ D, D])


def _advance(w, steps, T, P, G, rng):
    """States ``w_1..w_steps`` of ``w_{k+1} = T w_k + G xi_k`` from ``w_0 = w``.

    ``P`` is the power stack ``T^1..T^b`` of ``_power_stack``.  The chunk
    is cut into blocks of ``b`` steps.  Block starts follow
    ``s_{i+1} = T^b s_i + r_i``, with ``r_i`` the block's response to its
    own noise from a zero start; every state in block ``i`` is then
    ``T^j s_i`` plus that response, from one product with ``P``.
    """
    dim = len(w)
    b = P.shape[1] // dim
    nb = -(-steps // b)
    Tb = P[:, -dim:].T
    R = None  # R[j, i]: block i's response to its own noise after j+1 steps
    if G is not None:
        # the final chunk may end mid-block; the extra draws are never used
        E = (rng.standard_normal((nb * b, G.shape[1])) @ G.T).reshape(nb, b, dim)
        R = np.empty((b, nb, dim))
        R[0] = E[:, 0]
        TT = T.T
        for j in range(1, b):
            np.matmul(R[j - 1], TT, out=R[j])
            R[j] += E[:, j]
    S = np.empty((nb + 1, dim))
    S[0] = w
    for i in range(nb):
        S[i + 1] = Tb @ S[i]
        if R is not None:
            S[i + 1] += R[-1, i]
    W = (S[:-1] @ P).reshape(nb, b, dim)
    if R is not None:
        W += R.transpose(1, 0, 2)
    W[:, -1] = S[1:]
    return W.reshape(nb * b, dim)[:steps]


def _run_affine(quad, config, w, schur):
    """Quadratic runs as the affine recurrence ``w <- T w + G xi`` on
    ``w = z - z*``, a chunk of steps at a time.

    Each chunk's distances are checked at once for the first stopping
    iteration; recorded points (every ``stride``-th iteration plus the stop)
    and their primal gaps are taken from the chunk's states.  Returns
    ``(status, w_stop, iters, distances, gaps)``.
    """
    T = _transition_matrix(quad, config)
    G = _noise_gain(quad, config)
    rng = np.random.default_rng(config.seed) if G is not None else None
    eps, max_iters = config.target_eps, config.max_iters
    stride = _stride(max_iters)
    P = None
    limit = math.inf
    parts = []  # (iters, distances, gaps) per chunk
    W = w[None, :]
    k0 = 0  # iteration of W[0]
    blocks = 1
    while True:
        d = np.sqrt(np.einsum("ij,ij->i", W, W))
        bad = ~np.isfinite(d)
        d[bad] = math.inf
        stop = bad | (d <= eps)
        if k0 == 0:
            limit = config.divergence_factor * d[0]
        else:
            stop |= d >= limit
        last = k0 + len(d) - 1
        j = int(np.argmax(stop)) if stop.any() else (
            len(d) - 1 if last == max_iters else None)
        end = len(d) if j is None else j + 1
        ks = np.arange(k0, k0 + end)
        keep = ks % stride == 0
        if j is not None:
            keep[j] = True
        gaps = None
        if schur is not None:
            X = W[:end][keep, :quad.n]
            gaps = np.fmax(0.5 * np.einsum("ij,ij->i", X @ schur, X), 0.0)
            gaps[bad[:end][keep]] = math.inf
        parts.append((ks[keep], d[:end][keep], gaps))
        if j is not None:
            status = _stop_status(float(d[j]), k0 + j, limit, eps)
            iters, dists, gap_parts = zip(*parts)
            return (status, W[j], np.concatenate(iters), np.concatenate(dists),
                    None if schur is None else np.concatenate(gap_parts))
        if P is None:
            P = _power_stack(T, min(_BLOCK, max_iters))
        steps = min(max_iters - last, blocks * P.shape[1] // len(w))
        W = _advance(W[-1], steps, T, P, G, rng)
        k0 = last + 1
        blocks = min(2 * blocks, _MAX_BLOCKS)


def _run_oracle(problem, config, z0):
    """Non-quadratic runs, one oracle step per iteration; the measure is the
    exact gradient norm, independent of the oracle's noise."""
    oracle = make_oracle(problem, config.noise)
    stepper = eg_step if config.algorithm is Algorithm.EG else gda_step
    rng = np.random.default_rng(config.seed)
    eps, max_iters = config.target_eps, config.max_iters
    stride = _stride(max_iters)
    iters, distances = [], []
    z = z0.copy()
    limit = math.inf
    k = 0
    while True:
        gx, gy = prob.nonquad_grad(problem, z)
        d = math.hypot(math.sqrt(gx.dot(gx)), math.sqrt(gy.dot(gy)))
        # a non-finite iterate surfaces as a non-finite measure
        if not math.isfinite(d):
            d = math.inf
        if k == 0:
            limit = config.divergence_factor * d
        stop = d == math.inf or d <= eps or (d >= limit and k > 0) or k == max_iters
        if stop or k % stride == 0:
            iters.append(k)
            distances.append(d)
        if stop:
            return (_stop_status(d, k, limit, eps), z,
                    np.asarray(iters, dtype=np.int64), np.asarray(distances))
        z = stepper(oracle, z, config.eta_x, config.eta_y, rng)
        k += 1


def estimate_rate(trajectory):
    """Geometric per-step contraction factor fitted to a trajectory.

    Least-squares slope of log(distance) against the iteration index over
    the trailing half of the recorded points, exponentiated.  Points at or
    below ``1e3 * eps_machine`` times the initial distance are excluded,
    and a trailing plateau (e.g. an SGDA noise floor, detected as trailing
    blocks whose average log-decrement collapses relative to the decaying
    part) is trimmed.  Raises :class:`InsufficientDataError` with fewer
    than 10 usable points.
    """
    d = np.asarray(trajectory.distances, dtype=float)
    it = np.asarray(trajectory.iters, dtype=float)
    d, it = d[len(d) // 2:], it[len(d) // 2:]

    floor = 1e3 * np.finfo(float).eps * (trajectory.distances[0] if len(trajectory.distances) else 0.0)
    usable = np.isfinite(d) & (d > max(floor, 0.0))
    d, it = d[usable], it[usable]
    ld = np.log(d)

    # trim a trailing plateau: drop end blocks whose mean decrement is much
    # flatter than the steepest block seen before them
    if len(ld) >= 20:
        b = max(5, len(ld) // 10)
        diffs = np.diff(ld)
        nblocks = len(diffs) // b
        if nblocks >= 2:
            means = [diffs[i * b:(i + 1) * b].mean() for i in range(nblocks)]
            scale = min(means)
            cut = nblocks
            if scale < 0:
                while cut > 1 and means[cut - 1] >= 0.25 * scale:
                    cut -= 1
            keep = cut * b + 1
            ld, it = ld[:keep], it[:keep]

    if len(ld) < 10:
        raise InsufficientDataError(
            f"need at least 10 usable positive distances, have {len(ld)}"
        )
    slope = np.polyfit(it, ld, 1)[0]
    return float(math.exp(slope))


def write_trajectory_csv(trajectory, fh):
    """Write ``iter,distance,primal_gap`` rows (RFC-4180, 17 significant
    digits; the gap column is empty when not recorded) to the open text
    file ``fh``."""
    writer = csv.writer(fh)
    writer.writerow(["iter", "distance", "primal_gap"])
    gaps = trajectory.primal_gaps
    for i, (k, dist) in enumerate(zip(trajectory.iters, trajectory.distances)):
        gap = "" if gaps is None else f"{gaps[i]:.17g}"
        writer.writerow([int(k), f"{dist:.17g}", gap])
