"""Multi-cell experiment drivers: ratio sweeps of a quadratic instance with
their CSV writer, the one-kappa divergence certificate (criterion 1), and
the SGDA noise-floor sweep at a positive noise level (criterion 6).  The
drivers only measure: every acceptance rule that judges their measurements
lives in the checks of :mod:`minimax_gda.verify`.

Cells within a sweep are independent and run one after another in input
order, so identical inputs produce identical outputs byte for byte.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from . import dynamics as dyn
from . import problems as prob
from . import spectral as spec
from .errors import InsufficientDataError, InvalidInputError, MinimaxGdaError

_EPS_NEVER = 1e-300  # target_eps that effectively disables the convergence stop
# stop distance and minimum budget of the convergent r = 2*kappa control runs
# of the divergence certificate
_CONTROL_EPS = 1e-6
_CONTROL_MAX_ITERS = 200_000
# stepsizes eta_x of the divergence certificate's grid
_ETA_GRID = np.logspace(math.log10(1e-6), math.log10(0.5), 12)
_TAIL_FRACTION = 0.2  # share of an SGDA floor run averaged as its steady state


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return ""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


# --- ratio sweeps -----------------------------------------------------------

def default_ratio_set(kappa):
    """The four reference ratios: below threshold, proved optimal, a slower
    proved choice, and the quadratic-in-kappa choice."""
    return (kappa / 2.0, 2.0 * kappa, 8.0 * kappa, 2.0 * kappa ** 2)


@dataclass(frozen=True)
class SweepCell:
    ratio: float
    seed: int
    algorithm: str
    status: str
    measured_rate: Optional[float] = None
    rho: Optional[float] = None  # radius predicted for the cell's algorithm
    iters_to_eps: Optional[int] = None
    final_distance: float = math.nan
    final_gap: Optional[float] = None


@dataclass(frozen=True)
class SweepResult:
    cells: tuple


SWEEP_CSV_HEADER = [
    "ratio", "seed", "algorithm", "status", "measured_rate", "rho1",
    "iters_to_eps", "final_distance", "final_gap",
]


def write_sweep_csv(result, fh):
    """One RFC-4180 row per (ratio, seed, algorithm) cell, 17 significant
    digits, missing values empty, written to the open text file ``fh``.
    The ``rho1`` column holds the transition radius of the row's own
    algorithm: the EG radius ``rho2`` on ``eg`` rows."""
    writer = csv.writer(fh)
    writer.writerow(SWEEP_CSV_HEADER)
    for c in result.cells:
        writer.writerow([_fmt(v) for v in astuple(c)])


def ratio_sweep(problem, ratios, max_iters, target_eps,
                algorithms=(dyn.Algorithm.GDA,), scheme=dyn.Scheme.QUARTER,
                seeds=(0,), noise=None):
    """Run every (ratio, seed, algorithm) cell of the quadratic ``problem``
    and collect status, fitted rate, the spectral-radius prediction and
    terminal measures (the gap from ``problems.primal_gap`` at the final
    point).  A cell runs the
    ``SolverConfig`` of its algorithm and seed with the ``default_stepsizes``
    of its ratio and ``scheme``, and ``noise`` for SGDA and EG.

    Every cell's config is built before any cell runs: an argument that
    ``SolverConfig`` or ``default_stepsizes`` rejects (SGDA without
    ``noise`` too), or no ratio or seed, raises :class:`InvalidInputError`
    and nothing runs.  A cell whose run or gap raises a library error
    (:class:`MinimaxGdaError`) is recorded with status
    ``error: <ExceptionType>: <message>`` and the sweep continues; any other
    exception propagates."""
    if len(ratios) == 0:
        raise InvalidInputError("need at least one ratio")
    if len(seeds) == 0:
        raise InvalidInputError("need at least one seed")
    ratios = tuple(float(r) for r in ratios)

    configs = []  # (ratio, config) in (ratio, seed, algorithm) order
    for r, seed, alg in itertools.product(ratios, seeds, algorithms):
        eta_x, eta_y = dyn.default_stepsizes(problem.L, r, scheme)
        exact = dyn.Algorithm(alg) is dyn.Algorithm.GDA
        configs.append((r, dyn.SolverConfig(
            algorithm=alg, eta_x=eta_x, eta_y=eta_y, max_iters=max_iters,
            target_eps=target_eps, noise=None if exact else noise, seed=seed,
        )))

    radii = {}
    for r in ratios:
        eta_x, _ = dyn.default_stepsizes(problem.L, r, scheme)
        try:
            rep = spec.spectral_report(problem, r, eta_x, scheme)
            radii[r] = (rep.rho1, rep.rho2)
        except MinimaxGdaError:
            radii[r] = (None, None)

    cells = []
    for r, config in configs:
        alg = config.algorithm
        try:
            traj = dyn.run(problem, config)
            # in the try: the gap, unlike the run, needs A positive definite
            gap = (prob.primal_gap(problem, traj.final_z[:problem.n])
                   if prob.derive_constants(problem).primal_convex else None)
        except MinimaxGdaError as exc:
            measured = {"status": f"error: {type(exc).__name__}: {exc}"}
        else:
            try:
                rate = dyn.estimate_rate(traj)
            except InsufficientDataError:
                rate = None
            converged = traj.status.kind is dyn.StatusKind.CONVERGED
            measured = dict(
                status=traj.status.kind.value, measured_rate=rate,
                rho=radii[r][1 if alg is dyn.Algorithm.EG else 0],
                iters_to_eps=traj.status.step if converged else None,
                final_distance=traj.final_distance(), final_gap=gap,
            )
        cells.append(SweepCell(ratio=r, seed=config.seed, algorithm=alg.value,
                               **measured))
    return SweepResult(cells=tuple(cells))


# --- divergence certification ----------------------------------------------

@dataclass(frozen=True)
class DivergenceCertificate:
    # (r, eta_x, min transition-power norm, or None when the cell diverged)
    cells: tuple
    controls: tuple  # (Status,) of the r = 2*kappa control run


def _power_norm_course(problem, r, eta_x, max_iters):
    """Minimum over the budget of the root-sum-square of the GDA
    trajectories from every basis offset around the optimum, or ``None``
    when one of them diverges.

    That root-sum-square at step k equals the Frobenius norm of the k-th
    transition-matrix power, which is lower-bounded by the spectral radius
    power and therefore never falls below 1 on a non-convergent cell,
    whereas it decays through 1 whenever the dynamics contract.  A single
    trajectory norm is not a sound witness: the transition matrix is
    non-normal, so individual distances can dip during partial rotations
    even when every eigenvalue lies outside the unit circle.
    """
    config = dyn.SolverConfig(
        algorithm=dyn.Algorithm.GDA,
        eta_x=eta_x,
        eta_y=r * eta_x,
        max_iters=max_iters,
        target_eps=_EPS_NEVER,
    )
    courses = []
    for e in np.eye(problem.dim):
        traj = dyn.run(problem, config, z0=problem.z_star + e)
        if traj.status.kind is dyn.StatusKind.DIVERGED:
            return None
        if traj.status.kind is dyn.StatusKind.CONVERGED:
            # a basis trajectory reaching the optimum is itself contraction
            return 0.0
        courses.append(traj.distances)
    return float(np.sqrt(np.sum(np.square(np.stack(courses)), axis=0)).min())


def divergence_certificate(kappa, max_iters):
    """Measure GDA on the hard threshold instance
    ``hard_ratio_instance(kappa, 1.0)`` at the ratios ``kappa/2`` and
    ``kappa``, for every stepsize ``eta_x`` in the 12-point log grid from
    1e-6 to 0.5 (``_ETA_GRID``): each (r, eta_x) cell records the minimum
    transition-power norm over the budget, or ``None`` when the run blew
    past the divergence factor.  A control run at ``r = 2*kappa`` with the
    quarter stepsizes records its stop status (it gets its own budget: one
    control run is cheap next to the grid).
    """
    if not kappa >= 2:
        raise InvalidInputError("the threshold theorem needs kappa >= 2")
    max_iters = prob.as_count(max_iters, "max_iters", 1)
    problem = prob.hard_ratio_instance(kappa, 1.0)
    cells = tuple(
        (r, eta_x, _power_norm_course(problem, r, eta_x, max_iters))
        for r, eta_x in itertools.product((kappa / 2.0, kappa), _ETA_GRID.tolist())
    )

    eta_x, eta_y = dyn.default_stepsizes(kappa, 2.0 * kappa, dyn.Scheme.QUARTER)
    config = dyn.SolverConfig(
        algorithm=dyn.Algorithm.GDA, eta_x=eta_x, eta_y=eta_y,
        max_iters=max(max_iters, _CONTROL_MAX_ITERS),
        target_eps=_CONTROL_EPS,
    )
    return DivergenceCertificate(cells=cells,
                                 controls=(dyn.run(problem, config).status,))


# --- SGDA noise floor -------------------------------------------------------

@dataclass(frozen=True)
class FloorSweep:
    floor_ms: dict  # batch -> tail mean-square distance, averaged over the seeds
    bound: dict  # batch -> proved mean-square bound
    max_iters: int
    transient_decayed: bool  # envelope below 0.1x the smallest RMS bound by the tail


def sgda_floor_sweep(problem, r, sigma, batch_list, seeds):
    """Measure the SGDA steady-state mean-square distance and its proved
    bound at each batch size, under the quarter stepsizes, at noise level
    ``0 < sigma < inf``.

    The budget is sized so the deterministic envelope ``C_P * rho1^k`` from
    the unit initial offset decays to 0.1% of the smallest predicted RMS
    floor; the tail mean square averages the last 20% of iterations
    (``_TAIL_FRACTION``), and ``transient_decayed`` records whether the
    envelope sits below 0.1x that floor where the tail begins.  No batch
    size or no seed raises :class:`InvalidInputError` and nothing runs.
    """
    if len(batch_list) == 0:
        raise InvalidInputError("need at least one batch size")
    if len(seeds) == 0:
        raise InvalidInputError("need at least one seed")
    dc = prob.derive_constants(problem)
    if dc.mu_x <= 0:
        raise InvalidInputError("the floor bound needs mu_x > 0")
    if not 0 < sigma < math.inf:
        raise InvalidInputError(f"sigma must be positive and finite, got {sigma}")
    eta_x, eta_y = dyn.default_stepsizes(problem.L, r)
    rep = spec.spectral_report(problem, r, eta_x)
    if rep.rho1 >= 1.0 or rep.basis_cond is None:
        raise InvalidInputError(
            "instance/ratio does not contract (rho1 >= 1) or has no usable "
            "eigenbasis; floor prediction undefined"
        )
    bounds = {
        S: spec.predicted_floor_sgda(r, dc.kappa_x, rep.basis_cond, sigma, problem.L, S)
        for S in batch_list
    }

    floor_rms = math.sqrt(min(bounds.values()))
    decay_iters = rep.predicted_iters(1e-3 * floor_rms)
    max_iters = int(math.ceil(decay_iters / (1.0 - _TAIL_FRACTION))) + 10
    tail_start = (1.0 - _TAIL_FRACTION) * max_iters

    floors = {}
    for S in batch_list:
        total = 0.0
        for seed in seeds:
            config = dyn.SolverConfig(
                algorithm=dyn.Algorithm.SGDA, eta_x=eta_x, eta_y=eta_y,
                max_iters=max_iters, target_eps=_EPS_NEVER,
                noise=prob.NoiseModel(sigma=sigma, batch=S), seed=seed,
            )
            traj = dyn.run(problem, config)
            tail = traj.distances[traj.iters >= tail_start]
            total += float(np.mean(np.square(tail)))
        floors[S] = total / len(seeds)
    return FloorSweep(
        floor_ms=floors, bound=bounds, max_iters=max_iters,
        transient_decayed=bool(
            rep.basis_cond * rep.rho1 ** tail_start <= 0.1 * floor_rms),
    )
