"""Algorithm steppers (GDA, SGDA, EG), transition matrices and trajectory
execution.

On a quadratic instance one GDA step maps ``w = z - z*`` through
``T = I + eta_x*M`` and one EG step through ``T = I + eta_x*M + eta_x^2*M^2``,
where

    M = [[-C, -B], [r*B', -r*A]],   r = eta_y / eta_x.

A mini-batch Gaussian oracle adds ``G xi`` per step, with ``xi`` standard
normal, so every quadratic run, exact or noisy, is the affine recurrence
``w <- T w + G xi`` (``G = 0`` for an exact oracle; ``linear_system`` builds
``T`` and ``G``).

``run`` advances every run a chunk of steps at a time and finds the stop
iteration from the whole chunk's measures at once; the chunk loop, the stop
rule and the recording live there alone.  An engine only supplies the
chunk's states.  The affine engine takes the states inside each block of
``b`` steps from one product of its start with the stack ``T^1..T^b``; an
exact chunk is two products, its block starts coming from one product with
the stack of powers of ``T^b``, while a noisy run moves block starts one at
a time, adding each block's own noise response.  Non-quadratic runs take
their chunk's states from the gradient oracle, one step after another.  A
run owns its RNG (seeded from the config), and the noise it draws is the
per-step oracle's stream, value for value; ``gda_step``/``eg_step`` with
``make_oracle`` remain the per-step reference.
"""

from __future__ import annotations

import csv
import enum
import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import problems as prob
from .errors import InsufficientDataError, InvalidInputError

TRAJECTORY_STORAGE_CAP = 10 ** 6  # record every iteration up to this budget
DIVERGENCE_FACTOR = 1e8  # a run diverges once its measure grows this much


class Algorithm(str, enum.Enum):
    GDA = "gda"
    SGDA = "sgda"
    EG = "eg"

    @classmethod
    def _missing_(cls, value):
        raise InvalidInputError(f"unknown algorithm {value!r}")


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
    """``algorithm`` may be a name.  ``record_primal_gaps`` asks for a gap per
    recorded point; for the last one alone, take ``primal_gap`` of ``final_z``."""

    algorithm: Algorithm
    eta_x: float
    eta_y: float
    max_iters: int
    target_eps: float
    noise: Optional[prob.NoiseModel] = None
    seed: int = 0
    record_primal_gaps: bool = False

    def __post_init__(self):
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        if not (0 < self.eta_x < math.inf and 0 < self.eta_y < math.inf):
            raise InvalidInputError("stepsizes must be positive and finite")
        object.__setattr__(self, "max_iters",
                           prob.as_count(self.max_iters, "max_iters", 0))
        if not 0 < self.target_eps < math.inf:
            raise InvalidInputError("target_eps must be positive and finite")
        object.__setattr__(self, "seed", prob.as_count(self.seed, "seed", 0))
        if self.algorithm is Algorithm.SGDA and self.noise is None:
            raise InvalidInputError("SGDA requires a noise model (sigma, batch)")
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
    primal-convex quadratic instances when requested: ``primal_gaps[i]`` is
    ``problems.primal_gap`` of the x part of point ``i``, even where its
    measure is ``inf``.  Non-finite measures are recorded as ``inf``, and
    ``status`` follows the stop rule of ``run``: converged, else diverged,
    else budget exhausted.
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
    if not 0 < r < math.inf:
        raise InvalidInputError(f"r must be positive and finite, got {r}")
    n = problem.n
    M = np.empty((problem.dim, problem.dim))
    M[:n, :n], M[:n, n:] = -problem.C, -problem.B
    with np.errstate(over="ignore"):
        M[n:, :n], M[n:, n:] = r * problem.B.T, -r * problem.A
    if not np.isfinite(M[n:]).all():
        raise InvalidInputError("r is too large: r*B' or r*A overflows")
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


def default_initial_point(quad, seed):
    # unit-norm offset from the optimum of the quadratic instance (a
    # non-quadratic one's base), drawn before any noise so SGDA and GDA see
    # the same start for a given seed
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(quad.dim)
    v /= np.linalg.norm(v)
    return quad.z_star + v


def linear_system(problem, config):
    """``(T, G)`` of the affine recurrence ``w <- T w + G xi`` that one step
    of the configured method follows on ``w = z - z*`` of a quadratic
    instance, ``xi`` being the step's standard normal draws; ``G`` is
    ``None`` for an exact oracle.

    ``T = I + eta_x M`` for GDA/SGDA and ``I + eta_x M + (eta_x M)^2`` for
    EG.  The oracle perturbs each gradient block by ``s/sqrt(dim_block)``
    times a standard normal vector, ``s = sigma/sqrt(batch)``, x block
    first; the stepsizes turn that into ``D xi`` with ``D = diag(-eta_x
    s/sqrt(n), eta_y s/sqrt(m))``, so ``G = D`` for SGDA.  EG calls the
    oracle twice per step and its half-step noise reaches the iterate
    through ``eta_x M``, so ``G = [eta_x M D | D]``.
    """
    eM = config.eta_x * build_M(problem, config.ratio)
    T = np.eye(problem.dim) + eM
    eg = config.algorithm is Algorithm.EG
    if eg:
        T = T + eM @ eM
    noise = config.noise
    if noise is None or noise.sigma == 0.0:
        return T, None
    n, m = problem.n, problem.m
    s = noise.sigma / math.sqrt(noise.batch)
    D = np.diag(np.concatenate([np.full(n, -config.eta_x * s / math.sqrt(n)),
                                np.full(m, config.eta_y * s / math.sqrt(m))]))
    return T, np.hstack([eM @ D, D]) if eg else D


def run(problem, config, z0=None):
    """Execute the configured dynamics and record the convergence measure.

    Stops at the first iteration where the measure is at most
    ``target_eps`` (converged), else at least ``DIVERGENCE_FACTOR`` (1e8)
    times its initial value or non-finite (diverged), else at ``max_iters``
    (budget exhausted), checked in that order.  Distances are recorded
    every iteration, or every ``ceil(T/1e6)`` iterations for very long
    budgets (the terminal point is always recorded).  Deterministic given
    ``(problem, config, z0)``; when ``z0`` is omitted it defaults to the
    optimum plus a unit direction drawn from ``config.seed``.  The oracle
    noise is drawn from a generator seeded with ``config.seed``, in the
    order the per-step oracle of ``make_oracle`` draws it.

    Every run goes through the one chunk loop below: it measures a chunk of
    states at once, finds the chunk's first stopping iteration, and takes
    the recorded points (every ``stride``-th iteration plus the stop) and
    their gaps from the chunk's states.  An engine supplies only
    ``advance(s, steps)``, the next ``steps`` states after ``s`` (or fewer)
    as rows.  Quadratic runs, exact or noisy, advance ``w = z - z*``
    through the affine engine (``_affine_advance``), measured by ``|w|``;
    non-quadratic runs advance ``z`` through the gradient oracle
    (``_oracle_advance``), measured by the exact gradient norm.
    """
    nonquad = isinstance(problem, prob.NonQuadraticProblem)
    quad = problem.base if nonquad else problem
    if z0 is None:
        z0 = default_initial_point(quad, config.seed)
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (quad.dim,):
        raise InvalidInputError(f"z0 must have length {quad.dim}")

    record_gaps = (not nonquad and config.record_primal_gaps
                   and prob.derive_constants(quad).primal_convex)

    eps, max_iters = config.target_eps, config.max_iters
    stride = max(1, math.ceil(max_iters / TRAJECTORY_STORAGE_CAP))
    start = time.perf_counter()
    # overflow to inf is an expected outcome here: it classifies the run as
    # diverged rather than warranting a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if nonquad:
            S, advance = z0[None, :], _oracle_advance(problem, config)
            measure = partial(_grad_norms, problem)
        else:
            S, advance = (z0 - quad.z_star)[None, :], _affine_advance(quad, config)
            measure = _norms
        d = measure(S)
        limit = DIVERGENCE_FACTOR * d[0]
        parts = []  # (iters, distances, gaps) per chunk
        k0 = 0  # iteration of S[0]
        blocks = 1
        while True:
            stop = (d <= eps) | (d >= limit)
            last = k0 + len(d) - 1
            j = int(np.argmax(stop)) if stop.any() else (
                len(d) - 1 if last == max_iters else None)
            end = len(d) if j is None else j + 1
            ks = np.arange(k0, k0 + end)
            keep = slice(None) if stride == 1 else ks % stride == 0
            if stride > 1 and j is not None:
                keep[j] = True
            gaps = None
            if record_gaps:
                gaps = prob.primal_gap(quad, quad.x_star + S[:end][keep, :quad.n])
            parts.append((ks[keep], d[:end][keep], gaps))
            if j is not None:
                break
            S = advance(S[-1], min(max_iters - last, blocks * _BLOCK))
            d = measure(S)
            k0 = last + 1
            blocks = min(2 * blocks, _MAX_BLOCKS)
    wall = time.perf_counter() - start
    if d[j] <= eps:
        status = Status(StatusKind.CONVERGED, k0 + j)
    elif d[j] >= limit:
        status = Status(StatusKind.DIVERGED, k0 + j)
    else:
        status = Status(StatusKind.BUDGET_EXHAUSTED)
    iters, distances, gaps = zip(*parts)
    return Trajectory(
        iters=np.concatenate(iters),
        distances=np.concatenate(distances),
        primal_gaps=np.concatenate(gaps) if record_gaps else None,
        status=status,
        metric="grad_norm" if nonquad else "distance",
        wall_time=wall,
        config=config,
        final_z=S[j].copy() if nonquad else quad.z_star + S[j],
    )


def _norms(W):
    """``|w|`` of each row of ``W``, ``inf`` where it is not finite."""
    d = np.sqrt(np.einsum("ij,ij->i", W, W))
    d[~np.isfinite(d)] = math.inf
    return d


def _grad_norms(problem, Z):
    """The exact gradient norm ``hypot(|gx|, |gy|)`` at each row of ``Z``,
    ``inf`` where it is not finite."""
    d = np.empty(len(Z))
    for i, z in enumerate(Z):
        gx, gy = prob.nonquad_grad(problem, z)
        d[i] = math.hypot(math.sqrt(gx.dot(gx)), math.sqrt(gy.dot(gy)))
    d[~np.isfinite(d)] = math.inf
    return d


# Block length b of the affine engine: a run precomputes T^1..T^b once and
# fills b consecutive states with one product per block start.
_BLOCK = 64
# Chunks start at one block and double up to this many blocks, so a run that
# stops early computes few states past its stop.
_MAX_BLOCKS = 64


def _oracle_advance(problem, config):
    """``advance(z, steps)``: the next iterates from ``z``, one oracle step
    after another, drawing the noise from the run's generator.  A chunk
    holds at most one block, since its steps past a stop are paid in full."""
    oracle = make_oracle(problem, config.noise)
    step = eg_step if config.algorithm is Algorithm.EG else gda_step
    rng = np.random.default_rng(config.seed)

    def advance(z, steps):
        Z = np.empty((min(steps, _BLOCK), len(z)))
        for i in range(len(Z)):
            z = Z[i] = step(oracle, z, config.eta_x, config.eta_y, rng)
        return Z
    return advance


def _affine_advance(quad, config):
    """``advance(w, steps)`` of ``_advance`` for the run's ``linear_system``,
    with its power stacks and generator."""
    T, G = linear_system(quad, config)
    budget = max(1, config.max_iters)
    P = _power_stack(T, min(_BLOCK, budget))
    b = P.shape[1] // quad.dim
    Pb = P[:, -quad.dim:]  # (T^b)'
    if G is None:
        Pb = _power_stack(Pb.T, min(_MAX_BLOCKS, -(-budget // b)))
    rng = np.random.default_rng(config.seed) if G is not None else None
    return partial(_advance, T=T, P=P, Pb=Pb, G=G, rng=rng)


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


def _advance(w, steps, T, P, Pb, G, rng):
    """States ``w_1..w_steps`` of ``w_{k+1} = T w_k + G xi_k`` from ``w_0 = w``.

    ``P`` is the power stack ``T^1..T^b`` of ``_power_stack``, and ``Pb``
    one of powers of ``T^b``.  Every state in block ``i`` is ``T^j s_i``
    from the block's start ``s_i``, from one product with ``P``.  An exact
    run gets ``len(Pb)`` block starts per product with ``Pb``.  A noisy run
    passes ``Pb = T^b`` alone and adds ``r_i``, block ``i``'s response to
    its own noise from a zero start, to ``s_{i+1}`` and to the block's states.
    """
    dim = len(w)
    b = P.shape[1] // dim
    nb = -(-steps // b)
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
    # block starts, len(Pb) of them per product, in a flat buffer with room
    # for the unused starts the last product computes
    group = Pb.shape[1] // dim
    S = np.empty((nb + group) * dim)
    S[:dim] = w
    for i in range(0, nb, group):
        s = S[(i + 1) * dim:(i + 1 + group) * dim]
        np.matmul(S[i * dim:(i + 1) * dim], Pb, out=s)
        if R is not None:
            s += R[-1, i]
    S = S.reshape(-1, dim)[:nb + 1]
    W = (S[:-1] @ P).reshape(nb, b, dim)
    if R is not None:
        W += R.transpose(1, 0, 2)
    W[:, -1] = S[1:]
    return W.reshape(nb * b, dim)[:steps]


def estimate_rate(trajectory):
    """Geometric per-step contraction factor fitted to a trajectory.

    Least-squares slope of log(distance) against the iteration index over
    the trailing half of the recorded points, in closed form
    (``fit_slope``), exponentiated.  Points at or below ``1e3 *
    eps_machine`` times the initial distance are excluded, and a trailing
    plateau (e.g. an SGDA noise floor, detected as trailing blocks whose
    average log-decrement collapses relative to the decaying part) is
    trimmed.  Raises :class:`InsufficientDataError` with fewer
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
    return math.exp(fit_slope(it, ld))


def fit_slope(t, y):
    """Least-squares slope of ``y`` against ``t``, in closed form:
    ``sum((t - mean t)(y - mean y)) / sum((t - mean t)^2)``."""
    tc = t - t.mean()
    return float(tc.dot(y - y.mean()) / tc.dot(tc))


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
