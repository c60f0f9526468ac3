"""Multi-cell experiment drivers: ratio sweeps (quadratic or non-quadratic
instances) with their CSV writer, the one-kappa divergence certificate
(criterion 1), and the SGDA noise-floor sweep at a positive noise level
(criterion 6).  Single-run criteria live in :mod:`minimax_gda.verify`.

Cells within a sweep are independent and run one after another in input
order, so identical inputs produce identical outputs byte for byte.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dynamics as dyn
from . import problems as prob
from . import spectral as spec
from .errors import (CertificateFailureError, InsufficientDataError,
                     InvalidInputError, MinimaxGdaError)

_EPS_NEVER = 1e-300  # target_eps that effectively disables the convergence stop
# stop distance and minimum budget of the convergent r = 2*kappa control runs
# of the divergence certificate
_CONTROL_EPS = 1e-6
_CONTROL_MAX_ITERS = 200_000
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
class ExperimentSpec:
    problem: object  # QuadraticProblem or NonQuadraticProblem
    ratios: tuple
    max_iters: int
    target_eps: float
    algorithms: tuple = (dyn.Algorithm.GDA,)
    scheme: dyn.Scheme = dyn.Scheme.QUARTER
    seeds: tuple = (0,)
    noise: Optional[prob.NoiseModel] = None

    def __post_init__(self):
        if len(self.ratios) == 0:
            raise InvalidInputError("need at least one ratio")
        if len(self.seeds) == 0:
            raise InvalidInputError("need at least one seed")
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        for r in self.ratios:
            if not 0 < r < math.inf:
                raise InvalidInputError(f"ratios must be positive and finite, got {r}")
        if not self.max_iters >= 0:
            raise InvalidInputError(f"max_iters must be >= 0, got {self.max_iters}")
        if not 0 < self.target_eps < math.inf:
            raise InvalidInputError(
                f"target_eps must be positive and finite, got {self.target_eps}"
            )
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(
            self, "algorithms", tuple(dyn.Algorithm(a) for a in self.algorithms)
        )


@dataclass(frozen=True)
class SweepCell:
    ratio: float
    seed: int
    algorithm: str
    status: str
    measured_rate: Optional[float]
    rho: Optional[float]  # spectral-radius prediction for the cell's algorithm
    iters_to_eps: Optional[int]
    final_distance: float
    final_gap: Optional[float]


@dataclass(frozen=True)
class SweepResult:
    cells: tuple


SWEEP_CSV_HEADER = [
    "ratio", "seed", "algorithm", "status", "measured_rate", "rho1",
    "iters_to_eps", "final_distance", "final_gap",
]


def write_sweep_csv(result, fh):
    """One RFC-4180 row per (ratio, seed, algorithm) cell, 17 significant
    digits, missing values empty, written to the open text file ``fh``."""
    writer = csv.writer(fh)
    writer.writerow(SWEEP_CSV_HEADER)
    for c in result.cells:
        writer.writerow([
            _fmt(c.ratio), c.seed, c.algorithm, c.status,
            _fmt(c.measured_rate), _fmt(c.rho),
            "" if c.iters_to_eps is None else c.iters_to_eps,
            _fmt(c.final_distance), _fmt(c.final_gap),
        ])


def _cell_from_run(ratio, seed, algorithm, traj, rho):
    try:
        rate = dyn.estimate_rate(traj)
    except InsufficientDataError:
        rate = None
    step = traj.status.step if traj.status.kind is dyn.StatusKind.CONVERGED else None
    gap = None if traj.primal_gaps is None else float(traj.primal_gaps[-1])
    return SweepCell(
        ratio=ratio,
        seed=seed,
        algorithm=algorithm.value,
        status=traj.status.kind.value,
        measured_rate=rate,
        rho=rho,
        iters_to_eps=step,
        final_distance=traj.final_distance(),
        final_gap=gap,
    )


def ratio_sweep(sweep_spec):
    """Run every (ratio, seed, algorithm) cell and collect status, fitted
    rate, the spectral-radius prediction and terminal measures.  A cell
    that raises a library error (:class:`MinimaxGdaError`) is recorded with
    status ``error: <ExceptionType>: <message>`` and the sweep continues;
    any other exception propagates.  A ratio that is not positive and
    finite, a negative ``max_iters`` or a ``target_eps`` outside (0, inf)
    never reaches a cell: :class:`ExperimentSpec` rejects it with
    :class:`InvalidInputError` before any cell runs."""
    problem = sweep_spec.problem
    nonquad = isinstance(problem, prob.NonQuadraticProblem)
    base = problem.base if nonquad else problem

    radii = {}
    for r in sweep_spec.ratios:
        eta_x, _ = dyn.default_stepsizes(base.L, r, sweep_spec.scheme)
        try:
            rep = spec.spectral_report(base, r, eta_x, sweep_spec.scheme)
            radii[r] = (rep.rho1, rep.rho2)
        except MinimaxGdaError:
            radii[r] = (None, None)

    cells = []
    for r, seed, alg in itertools.product(
            sweep_spec.ratios, sweep_spec.seeds, sweep_spec.algorithms):
        try:
            eta_x, eta_y = dyn.default_stepsizes(base.L, r, sweep_spec.scheme)
            noise = sweep_spec.noise if alg is not dyn.Algorithm.GDA else None
            config = dyn.SolverConfig(
                algorithm=alg,
                eta_x=eta_x,
                eta_y=eta_y,
                max_iters=sweep_spec.max_iters,
                target_eps=sweep_spec.target_eps,
                noise=noise,
                seed=seed,
            )
            traj = dyn.run(problem, config)
            rho = radii[r][1 if alg is dyn.Algorithm.EG else 0]
            cells.append(_cell_from_run(r, seed, alg, traj, rho))
        except MinimaxGdaError as exc:
            cells.append(SweepCell(
                ratio=r, seed=seed, algorithm=alg.value,
                status=f"error: {type(exc).__name__}: {exc}", measured_rate=None,
                rho=None, iters_to_eps=None, final_distance=math.nan, final_gap=None,
            ))
    return SweepResult(cells=tuple(cells))


# --- divergence certification ----------------------------------------------

@dataclass(frozen=True)
class DivergenceCertificate:
    cells: tuple  # outcome per (r, eta_x) cell: "diverged" | "non_contracting"
    controls: tuple  # (status,) of the r = 2*kappa control run


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
    dim = problem.dim
    config = dyn.SolverConfig(
        algorithm=dyn.Algorithm.GDA,
        eta_x=eta_x,
        eta_y=r * eta_x,
        max_iters=max_iters,
        target_eps=_EPS_NEVER,
        record_primal_gaps=False,
    )
    courses = []
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        traj = dyn.run(problem, config, z0=problem.z_star + e)
        if traj.status.kind is dyn.StatusKind.DIVERGED:
            return None
        if traj.status.kind is dyn.StatusKind.CONVERGED:
            # a basis trajectory reaching the optimum is itself contraction
            return 0.0
        courses.append(traj.distances)
    return float(np.sqrt(np.sum(np.square(np.stack(courses)), axis=0)).min())


def divergence_certificate(kappa, eta_grid, max_iters=100_000, ratios=None):
    """Certify that GDA never converges on the hard threshold instance
    ``hard_ratio_instance(kappa, 1.0)`` at the ratios (default ``kappa/2``
    and ``kappa``), for every stepsize ``eta_x`` in the grid.

    Each (r, eta_x) cell passes when the run blows past the divergence
    factor or when the transition-power norm stays at or above 1
    throughout the budget; any contracting cell raises
    :class:`CertificateFailureError` naming the cell.  A control run at
    ``r = 2*kappa`` with the quarter stepsizes must converge (it gets its
    own budget: one control run is cheap next to the grid).
    """
    if not kappa >= 2:
        raise InvalidInputError("the threshold theorem needs kappa >= 2")
    grid = np.asarray(eta_grid, dtype=float).tolist()
    if len(grid) < 12:
        raise InvalidInputError("need at least 12 stepsizes in the grid")
    if ratios is None:
        ratios = (kappa / 2.0, kappa)
    problem = prob.hard_ratio_instance(kappa, 1.0)

    cells = []
    for r, eta_x in itertools.product(map(float, ratios), grid):
        min_norm = _power_norm_course(problem, r, eta_x, max_iters)
        if min_norm is None:
            cells.append("diverged")
        elif not min_norm >= 1.0 - 1e-9:
            raise CertificateFailureError(
                f"cell (kappa={kappa}, r={r}, eta_x={eta_x:.3e}) contracted: "
                f"min transition-power norm {min_norm:.6g} < 1"
            )
        else:
            cells.append("non_contracting")

    r = 2.0 * kappa
    eta_x, eta_y = dyn.default_stepsizes(kappa, r, dyn.Scheme.QUARTER)
    config = dyn.SolverConfig(
        algorithm=dyn.Algorithm.GDA, eta_x=eta_x, eta_y=eta_y,
        max_iters=max(max_iters, _CONTROL_MAX_ITERS),
        target_eps=_CONTROL_EPS, record_primal_gaps=False,
    )
    traj = dyn.run(problem, config)
    if traj.status.kind is not dyn.StatusKind.CONVERGED:
        raise CertificateFailureError(
            f"control cell (kappa={kappa}, r={r}) failed to converge: {traj.status}"
        )
    return DivergenceCertificate(cells=tuple(cells), controls=(str(traj.status),))


# --- SGDA noise floor -------------------------------------------------------

@dataclass(frozen=True)
class FloorPoint:
    batch: int
    floor_ms: float  # tail mean-square distance
    bound: float  # predicted mean-square bound
    within_bound: bool


@dataclass(frozen=True)
class SgdaFloorReport:
    points: tuple
    slope: float  # log-log slope of the floor against the batch size
    status: str  # "pass" | "fail" | "inconclusive"
    max_iters: int


def sgda_floor_sweep(problem, r, sigma, batch_list, seeds, max_iters=None):
    """Measure the SGDA steady-state mean-square distance against its proved
    bound across batch sizes, under the quarter stepsizes, at noise level
    ``0 < sigma < inf``.

    The budget is sized (unless given) so the deterministic envelope
    ``C_P * rho1^k`` from the unit initial offset has decayed to 0.1% of
    the smallest predicted RMS floor before the tail window (the last 20%
    of iterations, ``_TAIL_FRACTION``) begins; if it has not, the report is
    ``inconclusive`` rather than failed.  Passing requires the tail mean
    square to sit below the bound at every batch size and the log-log slope
    against the batch size to be -1 +- 0.15.
    """
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
    if max_iters is None:
        decay_iters = rep.predicted_iters(1e-3 * floor_rms)
        max_iters = int(math.ceil(decay_iters / (1.0 - _TAIL_FRACTION))) + 10
    tail_start = (1.0 - _TAIL_FRACTION) * max_iters
    conclusive = rep.basis_cond * rep.rho1 ** tail_start <= 0.1 * floor_rms

    floors = {}  # batch -> tail mean square, averaged over the seeds
    for S in batch_list:
        total = 0.0
        for seed in seeds:
            config = dyn.SolverConfig(
                algorithm=dyn.Algorithm.SGDA, eta_x=eta_x, eta_y=eta_y,
                max_iters=max_iters, target_eps=_EPS_NEVER,
                noise=prob.NoiseModel(sigma=sigma, batch=S), seed=seed,
                record_primal_gaps=False,
            )
            traj = dyn.run(problem, config)
            tail = traj.distances[traj.iters >= tail_start]
            total += float(np.mean(np.square(tail)))
        floors[S] = total / len(seeds)

    points = tuple(
        FloorPoint(batch=S, floor_ms=floors[S], bound=bounds[S],
                   within_bound=floors[S] <= bounds[S])
        for S in batch_list
    )
    slope = float(np.polyfit(
        np.log(list(batch_list)), np.log([floors[S] for S in batch_list]), 1,
    )[0])
    if not conclusive:
        status = "inconclusive"
    elif all(p.within_bound for p in points) and abs(slope + 1.0) <= 0.15:
        status = "pass"
    else:
        status = "fail"
    return SgdaFloorReport(points=points, slope=slope, status=status,
                           max_iters=max_iters)
