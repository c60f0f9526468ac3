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
rule and the recording live there alone (the chunk sizes are set out at
``_CHUNK_FIRST``).  An engine only supplies the chunk's states and their
measure, NaN or ``inf`` where a state is not finite; such a measure stops
the run, and ``run`` records it as ``inf``, at the stop alone.  The affine
engine takes the states inside each block of ``b`` steps from one product of
its start with the stack ``T^1..T^b``.  An exact chunk is two products, its
block starts coming from one product with the stack of powers of ``T^b``.  A
noisy run takes blocks of 8 steps: its responses to its own noise are built
up in place over the draws ``G xi``, one product per step of a block over
every block at once, and a log-depth scan with the squares ``(T^b)^(2^k)``
gives the block starts.  The affine engine makes its state-sized arrays once
per run, sized for the run's longest chunk, and every chunk fills them.
Non-quadratic runs take their chunk's states from the gradient oracle, one
step after another; an exact oracle's step reuses the gradient that the
measure took.  A run owns its RNG (seeded from the config), and the noise it
draws is the per-step oracle's stream, value for value;
``gda_step``/``eg_step`` with ``make_oracle`` remain the per-step reference.
"""

from __future__ import annotations

import csv
import enum
import math
import time
from dataclasses import dataclass
from functools import lru_cache, partial
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
    ``problems.primal_gap``'s form on the x deviation of point ``i``, even
    where its measure is ``inf``.  Non-finite measures are recorded as
    ``inf``, and ``status`` follows the stop rule of ``run``: converged,
    else diverged, else budget exhausted.  A run that records every
    iteration (``max_iters <= TRAJECTORY_STORAGE_CAP``) gets as ``iters`` a
    read-only view of one index shared by all such runs.
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
    n = len(problem.C)
    M = np.empty((n + len(problem.A),) * 2)
    M[:n, :n], M[:n, n:] = problem.C, problem.B
    low = M[n:]
    low[:, :n] = problem.B.T
    np.negative(problem.A, out=low[:, n:])
    # r*x rounds monotonically in |x|: it overflows somewhere exactly when
    # it does at the largest entry
    if not math.isfinite(float(r) * float(np.abs(low).max())):
        raise InvalidInputError("r is too large: r*B' or r*A overflows")
    low *= r  # r * -A is -r * A, bit for bit
    M[:n] *= -1.0
    return M


def make_oracle(problem, noise=None):
    """Gradient oracle ``oracle(z, rng) -> (gx, gy)`` for a quadratic or
    non-quadratic instance: ``stochastic_grad`` under ``noise``, or the
    exact gradient (drawing nothing from ``rng``) when ``noise`` is None."""
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
    gx, gy = oracle(gda_step(oracle, z, eta_x, eta_y, rng), rng)
    nx = gx.shape[0]
    return np.concatenate([z[:nx] - eta_x * gx, z[nx:] + eta_y * gy])


def default_initial_point(quad, seed):
    # unit-norm offset from the optimum of the quadratic instance (a
    # non-quadratic one's base), drawn before any noise so SGDA and GDA see
    # the same start for a given seed
    return quad.z_star + _unit_direction(seed, quad.dim)


@lru_cache(maxsize=256)
def _unit_direction(seed, dim):
    # read-only, since every call with this (seed, dim) gets the same array;
    # sqrt(v.v) is what np.linalg.norm computes for a real vector
    v = np.random.default_rng(seed).standard_normal(dim)
    v /= math.sqrt(v.dot(v))
    v.flags.writeable = False
    return v


# np.arange(n) as one read-only array that every stride-1 run's iters views:
# a run that allocated its own would hand its pages back to the allocator
# when the run ends, and the next run would fault them in afresh
_INDEX = np.arange(0)
_INDEX.flags.writeable = False


def _iteration_index(n):
    """``np.arange(n)`` (int64) as a read-only view of ``_INDEX``, which is
    grown to ``n`` entries when it is shorter.  Stride-1 runs alone call
    this, so ``n`` is at most ``TRAJECTORY_STORAGE_CAP + 1``."""
    global _INDEX
    index = _INDEX  # one read: another thread may replace _INDEX meanwhile
    if len(index) < n:
        index = np.arange(n)
        index.flags.writeable = False
        _INDEX = index
    return index[:n]


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
    (budget exhausted), checked in that order; a non-finite measure, the
    last one recorded, is recorded as ``inf``.  A ``z0`` of the wrong length
    or not finite raises :class:`InvalidInputError`.  Distances are recorded
    every iteration, or every ``ceil(T/1e6)`` iterations for very long
    budgets (the terminal point is always recorded); a run that records
    every iteration gets as ``iters`` a read-only view of one shared
    ``np.arange``, and a longer run replaces that index rather than writing
    to it.  Deterministic given
    ``(problem, config, z0)``; when ``z0`` is omitted it defaults to the
    optimum plus a unit direction drawn from ``config.seed``.  The oracle
    noise is drawn from a generator seeded with ``config.seed``, in the
    order the per-step oracle of ``make_oracle`` draws it.

    Every run goes through the one chunk loop below: it measures a chunk of
    states at once, finds the chunk's first stopping iteration, and takes
    the recorded points (every ``stride``-th iteration plus the stop) and
    their gaps from the chunk's states as strided slices, the chunks
    growing as set out at ``_CHUNK_FIRST``.  A run with ``stride > 1``
    keeps copies of its recorded points only, not its chunks' distances.
    An engine supplies only ``advance(s, steps)``, the next ``steps``
    states after ``s`` (or fewer) as rows, which its next call may
    overwrite, and ``measure``, the measure of a stack of states.  Quadratic
    runs, exact or noisy, advance ``w = z - z*`` through the affine engine
    (``_affine_engine``), measured by ``|w|``; non-quadratic runs advance
    ``z`` through the gradient oracle (``_oracle_engine``), measured by the
    exact gradient norm.
    """
    nonquad = isinstance(problem, prob.NonQuadraticProblem)
    quad = problem.base if nonquad else problem
    if z0 is None:
        z0 = default_initial_point(quad, config.seed)
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (quad.dim,):
        raise InvalidInputError(f"z0 must have length {quad.dim}")

    dc = (prob.derive_constants(quad)
          if config.record_primal_gaps and not nonquad else None)
    record_gaps = dc is not None and dc.primal_convex

    eps, max_iters = config.target_eps, config.max_iters
    stride = max(1, math.ceil(max_iters / TRAJECTORY_STORAGE_CAP))
    start = time.perf_counter()
    # overflow to inf is an expected outcome here: it classifies the run as
    # diverged rather than warranting a warning
    with np.errstate(over="ignore", invalid="ignore"):
        advance, measure = (_oracle_engine if nonquad else _affine_engine)(problem, config)
        z_star = None if nonquad else quad.z_star
        S = (z0 if nonquad else z0 - z_star)[None, :]
        d = measure(S)
        # inf and NaN carry through either measure: only a start whose
        # measure is not finite can have entries that are not
        if not math.isfinite(d[0]) and not np.isfinite(z0).all():
            raise InvalidInputError("z0 must be finite")
        limit = DIVERGENCE_FACTOR * d[0]
        parts = []  # (distances, gaps) recorded from each chunk

        def record(rows):
            # a strided slice is copied, so that a long run keeps only its
            # recorded points and not every chunk's distances
            parts.append((d[rows].copy() if stride > 1 else d[rows],
                          prob._gap_form(dc.schur, S[rows, :quad.n])
                          if record_gaps else None))

        k0 = 0  # iteration of S[0]
        size, cap = _chunk_sizes(quad.dim)
        while True:
            go = d < limit  # inside (eps, limit), where NaN is not
            go &= d > eps
            j = int(go.argmin())
            last = k0 + len(d) - 1
            if go[j]:
                j = len(d) - 1 if last == max_iters else None
            elif math.isnan(d[j]):  # the only recorded one that may be NaN
                d[j] = math.inf
            # every stride-th iteration of the chunk, up to its stop
            record(slice(-k0 % stride, len(d) if j is None else j + 1, stride))
            if j is not None:
                break
            S = advance(S[-1], min(max_iters - last, size))
            # measured after advance returns: measuring inside it ran slower
            d = measure(S)
            k0 = last + 1
            size = min(2 * size, cap)
        final = k0 + j
        if stride == 1:
            iters = _iteration_index(final + 1)
        else:
            iters = np.arange(0, final + 1, stride)
            if final % stride:
                record(slice(j, j + 1))
                iters = np.append(iters, final)
    wall = time.perf_counter() - start
    if d[j] <= eps:
        status = Status(StatusKind.CONVERGED, final)
    elif not d[j] < limit:  # the limit is NaN where the start's measure is
        status = Status(StatusKind.DIVERGED, final)
    else:
        status = Status(StatusKind.BUDGET_EXHAUSTED)
    distances, gaps = zip(*parts)
    return Trajectory(
        iters=iters,
        distances=np.concatenate(distances),
        primal_gaps=np.concatenate(gaps) if record_gaps else None,
        status=status,
        metric="grad_norm" if nonquad else "distance",
        wall_time=wall,
        config=config,
        final_z=S[j].copy() if nonquad else z_star + S[j],
    )


def _norms(W, squares, ones):
    """``|w|`` of each row of ``W``: the squares, written to the leading rows
    of ``squares``, summed by one product with the vector ``ones``.  A row
    that is not finite gives NaN or ``inf``."""
    d = np.square(W, out=squares[:len(W)]) @ ones
    return np.sqrt(d, out=d)


# Block length b of the affine engine: a run precomputes T^1..T^b once and
# fills b consecutive states with one product per block start.
_BLOCK = 64
# A noisy run's blocks are short, since its response to the noise within a
# block costs one product per step of the block (over all of a chunk's
# blocks at once); its block starts come from a log-depth scan instead.
_NOISY_BLOCK = 8
# Chunks are sized by the state entries (steps x dim) they hold, in whole
# blocks of _BLOCK steps: a run's first chunk holds about _CHUNK_FIRST
# entries, so a run that stops early computes few states past its stop, and
# each later one twice as many as the one before, up to _CHUNK_CAP entries
# or _CAP_STEPS steps, whichever is more, so a chunk's memory is bounded at
# every dim.  At dim 2 that is 4096 steps doubling up to 16 384 (a 10 000-step
# run takes two chunks); at dim 8, 1024 up to 4096; above dim 8 the cap stays
# at 4096 steps, so no dim takes more chunks than under a 4096-step cap.
_CHUNK_FIRST = 8192
_CHUNK_CAP = 32768
_CAP_STEPS = 4096


def _chunk_sizes(dim):
    """Steps in a run's first and largest chunks at ``dim`` (see above)."""
    blocks = _CHUNK_FIRST // (dim * _BLOCK), _CHUNK_CAP // (dim * _BLOCK)
    return max(1, blocks[0]) * _BLOCK, max(_CAP_STEPS // _BLOCK, blocks[1]) * _BLOCK


def _longest_chunk(dim, steps):
    """Steps in the longest chunk of a ``steps``-step run at ``dim``: the
    last whole chunk of the schedule ``run`` follows, or the rest of the
    budget after it, whichever is longer."""
    size, cap = _chunk_sizes(dim)
    longest = 0
    while steps > size and size < cap:
        longest, steps, size = size, steps - size, min(2 * size, cap)
    return max(longest, min(steps, size))


def _oracle_engine(problem, config):
    """``(advance, measure)`` of a non-quadratic run.  ``advance(z, steps)``
    gives the next iterates from ``z``, one oracle step after another,
    drawing the noise from the run's generator; a chunk holds at most one
    block, since its steps past a stop are paid in full.  ``measure(Z)`` is
    the exact gradient norm ``hypot(|gx|, |gy|)`` at each row of ``Z``,
    NaN or ``inf`` where it is not finite.  A step and the measure share one
    ``nonquad_grad`` call per iterate: a noisy step adds its draws to the
    exact gradient that the measure takes."""
    # exact gradients by their iterate's bytes: a chunk's, until it is
    # measured, then its last one, for the next chunk's first step
    held = {}

    def exact_grad(z):
        key = z.tobytes()
        if key not in held:
            held[key] = prob.nonquad_grad(problem, z)
        return held[key]

    def measure(Z):
        grads = [exact_grad(z) for z in Z]
        held.clear()
        held[Z[-1].tobytes()] = grads[-1]
        return np.array([math.hypot(math.sqrt(gx.dot(gx)), math.sqrt(gy.dot(gy)))
                         for gx, gy in grads])

    def oracle(z, rng):
        return prob.add_noise(exact_grad(z), config.noise, rng)
    step = eg_step if config.algorithm is Algorithm.EG else gda_step
    rng = np.random.default_rng(config.seed)

    def advance(z, steps):
        Z = np.empty((min(steps, _BLOCK), len(z)))
        for i in range(len(Z)):
            z = Z[i] = step(oracle, z, config.eta_x, config.eta_y, rng)
        return Z
    return advance, measure


def _affine_engine(quad, config):
    """``(advance, measure)`` of a quadratic run: ``_advance`` for the run's
    ``linear_system``, with its power stacks and generator, and ``_norms``.
    Every state-sized array a chunk fills is made here, once, sized for the
    run's longest chunk (``_longest_chunk``): the states, the measure's
    squares and, for a noisy run, the draws and the responses."""
    T, G = linear_system(quad, config)
    dim = quad.dim
    budget = max(1, config.max_iters)
    P = _power_stack(T, min(_BLOCK if G is None else _NOISY_BLOCK, budget))
    b = P.shape[1] // dim
    Pb = P[:, -dim:]  # (T^b)'
    # blocks of b steps in the run's longest chunk
    most = -(-_longest_chunk(dim, budget) // b)
    W = np.empty((most, b * dim))
    measure = partial(_norms, squares=np.empty((most * b, dim)), ones=np.ones(dim))
    if G is None:
        return partial(_advance, T=T, P=P, Pb=_power_stack(Pb.T, most), W=W), measure
    # the squares (T^b)^(2^k) that a chunk's scan of block starts uses, up
    # to the first one that overflows (see _scan)
    levels = most.bit_length()
    Q = [np.ascontiguousarray(Pb)]
    while len(Q) < levels:
        square = Q[-1] @ Q[-1]
        if not np.isfinite(square).all():
            break
        Q.append(square)
    return partial(_advance, T=T, P=P, Pb=Q, W=W, G=G, rng=np.random.default_rng(config.seed),
                   Xi=np.empty((most * b, G.shape[1])), R=np.empty((most * b, dim))), measure


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
        add = have if 2 * have <= b else b - have
        np.matmul(P[:add], P[have - 1], out=P[have:have + add])
        have += add
    if not math.isfinite(P.sum()):  # a finite sum has finite terms
        finite = np.isfinite(P).all(axis=(1, 2))
        if not finite.all():
            P = P[:max(1, int(np.argmin(finite)))]
    return P.transpose(2, 0, 1).reshape(len(T), -1)


def _advance(w, steps, T, P, Pb, W, G=None, rng=None, Xi=None, R=None):
    """States ``w_1..w_steps`` of ``w_{k+1} = T w_k + G xi_k`` from ``w_0 = w``.

    ``P`` is the power stack ``T^1..T^b`` of ``_power_stack``.  Every state
    in block ``i`` is ``T^j s_i`` from the block's start ``s_i``, from one
    product with ``P``.  An exact run passes the stack of powers of ``T^b``
    as ``Pb`` and gets ``len(Pb)`` block starts per product with it.  A
    noisy run adds ``r_i``, block ``i``'s response to its own noise from a
    zero start, to the block's states; it passes the squares
    ``(T^b)^(2^k)`` as ``Pb``, and its starts ``s_{i+1} = T^b s_i + r_i``
    come from one scan of all of the chunk's blocks (``_scan``).  The
    states go to the leading rows of ``W``, a noisy run's draws to ``Xi``
    and their ``G xi``, built up in place into the responses, to ``R``:
    the run's arrays, which its next call overwrites.
    """
    dim = len(w)
    b = P.shape[1] // dim
    nb = -(-steps // b)
    if G is None:
        # block starts, len(Pb) of them per product, in a flat buffer with
        # room for the unused starts the last product computes
        group = Pb.shape[1] // dim
        S = np.empty((nb + group) * dim)
        S[:dim] = w
        for i in range(0, nb, group):
            np.matmul(S[i * dim:(i + 1) * dim], Pb,
                      out=S[(i + 1) * dim:(i + 1 + group) * dim])
        S = S.reshape(-1, dim)[:nb + 1]
    else:
        # the final chunk may end mid-block; the extra draws are never used
        R = np.matmul(rng.standard_normal(out=Xi[:nb * b]), G.T,
                      out=R[:nb * b]).reshape(nb, b, dim)
        # R[i, j]: block i's response to its own noise after j+1 steps,
        # built up in place over the draws' G xi, one product per step of a
        # block over all of the chunk's blocks
        for j in range(1, b):
            R[:, j] += R[:, j - 1] @ T.T
        S = np.empty((nb + 1, dim))
        S[0] = w
        S[1:] = R[:, -1]
        _scan(S, Pb)
    W = np.matmul(S[:-1], P, out=W[:nb]).reshape(nb, b, dim)
    if G is not None:
        W += R
    W[:, -1] = S[1:]
    return W.reshape(nb * b, dim)[:steps]


def _scan(S, Q):
    """Replace the rows ``v_0..v_n`` of ``S`` in place by ``s_0 = v_0``,
    ``s_{i+1} = A s_i + v_{i+1}``, given the squares ``Q[k] = (A^(2^k))'``.

    A Hillis-Steele scan: level ``k`` adds ``A^(2^k)`` times the row ``2^k``
    back to every row, so after it row ``i`` sums ``A^(i-j) v_j`` over the
    ``2^(k+1)`` rows up to ``i``.  ``Q`` holds only finite squares, since an
    infinite one would turn exact zeros of a row into NaN; rows therefore go
    in groups of ``2^len(Q)``, each scanned alone, and the first row of each
    group is carried on from the last of the one before, one product with
    ``A`` at a time.  With every square the run needs, one group covers a
    chunk.
    """
    g = 1 << len(Q)
    for i in range(0, len(S), g):
        if i:
            S[i] += S[i - 1] @ Q[0]
        V = S[i:i + g]
        for k, Qk in enumerate(Q):
            d = 1 << k
            if d >= len(V):
                break
            V[d:] += V[:-d] @ Qk


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
    # only the trailing half is converted, and it is copied only when some
    # of its points are unusable: a long fit makes few large temporaries,
    # whose pages the allocator would hand back and refault on every call
    half = len(trajectory.distances) // 2
    d = np.asarray(trajectory.distances[half:], dtype=float)
    it = np.asarray(trajectory.iters[half:], dtype=float)

    floor = 1e3 * np.finfo(float).eps * (trajectory.distances[0] if len(trajectory.distances) else 0.0)
    usable = np.isfinite(d) & (d > max(floor, 0.0))
    if not usable.all():
        d, it = d[usable], it[usable]
    ld = np.log(d)

    # trim a trailing plateau: drop end blocks whose mean decrement is much
    # flatter than the steepest block seen before them
    if len(ld) >= 20:
        b = max(5, len(ld) // 10)
        diffs = np.diff(ld)
        nblocks = len(diffs) // b
        if nblocks >= 2:
            means = diffs[:nblocks * b].reshape(nblocks, b).mean(axis=1)
            scale = means.min()
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
