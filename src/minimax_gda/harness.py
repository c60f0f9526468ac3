"""Experiment drivers: ratio sweeps, divergence certification, rate
lower-bound checks, SGDA noise-floor scaling, regularized runs for the
``mu_x = 0`` case, and sweeps over the non-quadratic family.

Cells within a sweep are independent and run one after another in input
order, so identical inputs produce identical outputs byte for byte.
"""

from __future__ import annotations

import csv
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

    def cell(self, ratio, seed=None, algorithm=None):
        for c in self.cells:
            if c.ratio == ratio and (seed is None or c.seed == seed) and (
                algorithm is None or c.algorithm == algorithm
            ):
                return c
        raise KeyError((ratio, seed, algorithm))


SWEEP_CSV_HEADER = [
    "ratio", "seed", "algorithm", "status", "measured_rate", "rho1",
    "iters_to_eps", "final_distance", "final_gap",
]


def write_sweep_csv(result, path_or_file):
    """One RFC-4180 row per (ratio, seed, algorithm) cell, 17 significant
    digits, missing values empty."""

    def _write(fh):
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_HEADER)
        for c in result.cells:
            writer.writerow([
                _fmt(c.ratio), c.seed, c.algorithm, c.status,
                _fmt(c.measured_rate), _fmt(c.rho),
                "" if c.iters_to_eps is None else c.iters_to_eps,
                _fmt(c.final_distance), _fmt(c.final_gap),
            ])

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            _write(fh)


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
    rate, the spectral-radius prediction and terminal measures.  A failing
    cell is recorded with status ``error: <ExceptionType>: <message>`` and
    the sweep continues."""
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

    cells = [
        (r, seed, alg)
        for r in sweep_spec.ratios
        for seed in sweep_spec.seeds
        for alg in sweep_spec.algorithms
    ]

    def execute(cell):
        r, seed, alg = cell
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
            return _cell_from_run(r, seed, alg, traj, rho)
        except Exception as exc:
            return SweepCell(
                ratio=r, seed=seed, algorithm=alg.value,
                status=f"error: {type(exc).__name__}: {exc}", measured_rate=None,
                rho=None, iters_to_eps=None, final_distance=math.nan, final_gap=None,
            )

    return SweepResult(cells=tuple(execute(c) for c in cells))


# --- divergence certification ----------------------------------------------

@dataclass(frozen=True)
class CertificateCell:
    L: float
    kappa: float
    r: float
    eta_x: float
    outcome: str  # "diverged" | "non_contracting"
    min_power_norm: float
    final_power_norm: float


@dataclass(frozen=True)
class DivergenceCertificate:
    cells: tuple
    controls: tuple  # (L, kappa, r, status) for the r = 2*kappa control runs


def _power_norm_course(problem, r, eta_x, max_iters):
    """GDA trajectories from every basis offset around the optimum.

    Their root-sum-square at step k equals the Frobenius norm of the k-th
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
            return "diverged", math.nan, math.inf
        if traj.status.kind is dyn.StatusKind.CONVERGED:
            # a basis trajectory reaching the optimum is itself contraction
            return "contracted", 0.0, 0.0
        courses.append(traj.distances)
    rss = np.sqrt(np.sum(np.square(np.stack(courses)), axis=0))
    return "ran", float(rss.min()), float(rss[-1])


def divergence_certificate(L_list, kappa_list, eta_grid=None, max_iters=100_000,
                           ratios=None, control_eps=1e-6, control_max_iters=200_000):
    """Certify that GDA never converges on the hard threshold instance at
    ratios up to kappa, for every stepsize in the grid.

    Each (L, kappa, r, eta_x) cell passes when the run blows past the
    divergence factor or when the transition-power norm stays at or above 1
    throughout the budget; any contracting cell raises
    :class:`CertificateFailureError` naming the cell.  Control cells at
    ``r = 2*kappa`` with the quarter stepsizes must converge (they get their
    own budget: one control run is cheap next to the grid).
    """
    specs = []
    for L in L_list:
        for kappa in kappa_list:
            if kappa < 2:
                raise InvalidInputError("the threshold theorem needs kappa >= 2")
            mu = L / kappa
            grid = (
                np.asarray(eta_grid, dtype=float)
                if eta_grid is not None
                else np.logspace(math.log10(1e-6 / L), math.log10(1.0 / L), 12)
            )
            if len(grid) < 12:
                raise InvalidInputError("need at least 12 stepsizes in the grid")
            rvals = ratios if ratios is not None else (kappa / 2.0, float(kappa))
            for r in rvals:
                for eta_x in grid:
                    specs.append((L, kappa, mu, float(r), float(eta_x)))

    def execute(cell_spec):
        L, kappa, mu, r, eta_x = cell_spec
        problem = prob.hard_ratio_instance(L, mu)
        outcome, min_norm, final_norm = _power_norm_course(problem, r, eta_x, max_iters)
        if outcome == "diverged":
            return CertificateCell(L, kappa, r, eta_x, "diverged", min_norm, final_norm)
        if outcome == "ran" and min_norm >= 1.0 - 1e-9:
            return CertificateCell(
                L, kappa, r, eta_x, "non_contracting", min_norm, final_norm
            )
        raise CertificateFailureError(
            f"cell (L={L}, kappa={kappa}, r={r}, eta_x={eta_x:.3e}) contracted: "
            f"min transition-power norm {min_norm:.6g} < 1",
            cell=(L, kappa, r, eta_x),
        )

    cells = tuple(execute(s) for s in specs)

    controls = []
    for L in L_list:
        for kappa in kappa_list:
            mu = L / kappa
            problem = prob.hard_ratio_instance(L, mu)
            r = 2.0 * kappa
            eta_x, eta_y = dyn.default_stepsizes(L, r, dyn.Scheme.QUARTER)
            config = dyn.SolverConfig(
                algorithm=dyn.Algorithm.GDA, eta_x=eta_x, eta_y=eta_y,
                max_iters=max(max_iters, control_max_iters),
                target_eps=control_eps, record_primal_gaps=False,
            )
            traj = dyn.run(problem, config)
            if traj.status.kind is not dyn.StatusKind.CONVERGED:
                raise CertificateFailureError(
                    f"control cell (L={L}, kappa={kappa}, r={r}) failed to "
                    f"converge: {traj.status}",
                    cell=(L, kappa, r),
                )
            controls.append((L, kappa, r, str(traj.status)))

    return DivergenceCertificate(cells=cells, controls=tuple(controls))


# --- rate lower bound -------------------------------------------------------

@dataclass(frozen=True)
class RateLowerBoundReport:
    s1: float
    lower_bound: float  # 1 - mu_x / (r L) = 1 - 1/(r kappa_x)
    max_step_deviation: float
    total_decay_rel_error: float
    iterations: int
    passed: bool


def rate_lower_bound_check(L, mu, mu_x, r, max_iters=1000, init_scale=1.0):
    """Run exact GDA on the rate-lower-bound instance from the slow
    eigendirection and verify the per-step contraction equals the
    closed-form eigenvalue ``s1`` of the transition matrix, which sits at or
    above ``1 - 1/(r*kappa_x)``.

    Requires ``r >= 2*kappa`` (the proved stepsize regime) and a real slow
    eigenvalue, i.e. ``(mu*r - L)^2 >= 4*r*mu*mu_x``.
    """
    kappa = L / mu
    if r < 2.0 * kappa:
        raise InvalidInputError(f"requires r >= 2*kappa = {2 * kappa:.6g}, got {r:.6g}")
    disc = (mu * r - L) ** 2 - 4.0 * r * mu * mu_x
    if disc < 0:
        raise InvalidInputError(
            "eigenvalues are complex: requires (mu*r - L)^2 >= 4*r*mu*mu_x, "
            f"got {(mu * r - L) ** 2:.6g} < {4 * r * mu * mu_x:.6g}"
        )
    problem = prob.hard_rate_instance(L, mu, mu_x)
    eta_x, eta_y = dyn.default_stepsizes(L, r, dyn.Scheme.QUARTER)

    lam1 = 0.5 * (-(mu * r - L) + math.sqrt(disc))
    s1 = 1.0 + eta_x * lam1
    b = problem.B[0, 0]
    v = np.array([b, L - lam1])
    v /= np.linalg.norm(v)

    config = dyn.SolverConfig(
        algorithm=dyn.Algorithm.GDA, eta_x=eta_x, eta_y=eta_y,
        max_iters=max_iters, target_eps=_EPS_NEVER, record_primal_gaps=False,
    )
    traj = dyn.run(problem, config, z0=problem.z_star + init_scale * v)

    d = traj.distances
    steps = d[1:] / d[:-1]
    max_dev = float(np.max(np.abs(steps - s1)))
    total_rel = abs(d[-1] / (d[0] * s1 ** (len(d) - 1)) - 1.0)
    lower = 1.0 - mu_x / (r * L)
    passed = (0.0 <= lower <= s1 + 1e-12) and (s1 <= 1.0 + 1e-12) and max_dev <= 1e-10
    return RateLowerBoundReport(
        s1=s1,
        lower_bound=lower,
        max_step_deviation=max_dev,
        total_decay_rel_error=float(total_rel),
        iterations=len(d) - 1,
        passed=passed,
    )


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
    rho1: float
    basis_cond: float


def sgda_floor_sweep(problem, r, sigma, batch_list, seeds, max_iters=None,
                     scheme=dyn.Scheme.QUARTER, tail_fraction=0.2):
    """Measure the SGDA steady-state mean-square distance against its proved
    bound across batch sizes.

    The budget is sized (unless given) so the deterministic envelope
    ``C_P * rho1^k`` has decayed to 0.1% of the smallest predicted RMS floor
    before the tail window (the last ``tail_fraction`` of iterations)
    begins; if it has not, the report is ``inconclusive`` rather than
    failed.  Passing requires the tail mean square to sit below the bound at
    every batch size and the log-log slope against the batch size to be
    -1 +- 0.15.  With ``sigma = 0`` the noise path degenerates: the bound is
    zero, the slope is undefined, and passing means every tail settles at
    numerical precision.
    """
    dc = prob.derive_constants(problem)
    if dc.mu_x <= 0:
        raise InvalidInputError("the floor bound needs mu_x > 0")
    if sigma < 0:
        raise InvalidInputError("sigma must be nonnegative")
    eta_x, eta_y = dyn.default_stepsizes(problem.L, r, scheme)
    rep = spec.spectral_report(problem, r, eta_x, scheme)
    if rep.rho1 >= 1.0 or rep.basis_cond is None:
        raise InvalidInputError(
            "instance/ratio does not contract (rho1 >= 1) or has no usable "
            "eigenbasis; floor prediction undefined"
        )
    bounds = {
        S: spec.predicted_floor_sgda(r, dc.kappa_x, rep.basis_cond, sigma, problem.L, S)
        for S in batch_list
    }

    d0 = 1.0  # default initialization is a unit offset
    precision_ms = (1e-10 * d0) ** 2
    target = 1e-3 * math.sqrt(min(bounds.values())) if sigma > 0 else 1e-14 * d0
    decay_iters = int(
        math.ceil(math.log(target / (rep.basis_cond * d0)) / math.log(rep.rho1))
    )
    if max_iters is None:
        max_iters = int(math.ceil(decay_iters / (1.0 - tail_fraction))) + 10
    floor_rms = math.sqrt(min(bounds.values())) if sigma > 0 else math.sqrt(precision_ms)
    conclusive = rep.basis_cond * d0 * rep.rho1 ** ((1.0 - tail_fraction) * max_iters) \
        <= 0.1 * floor_rms

    cells = [(S, seed) for S in batch_list for seed in seeds]

    def execute(cell):
        S, seed = cell
        config = dyn.SolverConfig(
            algorithm=dyn.Algorithm.SGDA, eta_x=eta_x, eta_y=eta_y,
            max_iters=max_iters, target_eps=_EPS_NEVER,
            noise=prob.NoiseModel(sigma=sigma, batch=S), seed=seed,
            record_primal_gaps=False,
        )
        traj = dyn.run(problem, config)
        tail = traj.distances[traj.iters >= (1.0 - tail_fraction) * max_iters]
        return S, float(np.mean(np.square(tail)))

    tail_ms = {}
    counts = {}
    for S, ms in map(execute, cells):
        tail_ms[S] = tail_ms.get(S, 0.0) + ms
        counts[S] = counts.get(S, 0) + 1
    floors = {S: tail_ms[S] / counts[S] for S in batch_list}

    ceiling = precision_ms if sigma == 0 else 0.0
    points = tuple(
        FloorPoint(batch=S, floor_ms=floors[S], bound=bounds[S],
                   within_bound=floors[S] <= max(bounds[S], ceiling))
        for S in batch_list
    )
    if sigma > 0:
        slope = float(np.polyfit(
            np.log(list(batch_list)),
            np.log([floors[S] for S in batch_list]), 1,
        )[0])
        slope_ok = abs(slope + 1.0) <= 0.15
    else:
        slope = math.nan
        slope_ok = True
    if not conclusive:
        status = "inconclusive"
    elif all(p.within_bound for p in points) and slope_ok:
        status = "pass"
    else:
        status = "fail"
    return SgdaFloorReport(
        points=points, slope=slope, status=status, max_iters=max_iters,
        rho1=rep.rho1, basis_cond=rep.basis_cond,
    )


# --- regularized runs for mu_x = 0 ------------------------------------------

@dataclass(frozen=True)
class MuxZeroReport:
    delta: float
    radius_estimate: float
    stop_distance: float
    iterations: int
    converged: bool
    final_gap: float
    gap_ok: bool


def mux_zero_run(problem, eps, R=None, r=None, scheme=dyn.Scheme.QUARTER,
                 seed=0, z0=None, max_iters=None):
    """Solve a ``mu_x = 0`` instance to primal gap ``eps`` through ridge
    regularization.

    Adds ``delta = eps / R^2`` to the primal curvature (R defaults to
    ``2*|x0 - x*| + 1``), runs GDA with the quarter stepsizes until the
    distance to the regularized optimum falls to
    ``eps / (4*sqrt((kappa+1)*L))`` (small enough that the quadratic primal
    bound brings the gap below ``eps``), then reports the unregularized
    primal gap at the terminal point.
    """
    dc = prob.derive_constants(problem)
    if dc.mu_x != 0.0:
        raise InvalidInputError(
            f"requires mu_x = 0 (within tolerance), got mu_x={dc.mu_x:.6g}"
        )
    if eps <= 0:
        raise InvalidInputError("eps must be positive")
    kappa = dc.kappa
    r = 2.0 * kappa if r is None else float(r)
    if z0 is None:
        z0 = dyn.default_initial_point(problem, seed)
    z0 = np.asarray(z0, dtype=float)
    if R is None:
        R = 2.0 * float(np.linalg.norm(z0[: problem.n] - problem.x_star)) + 1.0
    delta = eps / R ** 2
    if delta > problem.L:
        raise InvalidInputError(
            f"delta = eps/R^2 = {delta:.6g} exceeds L = {problem.L:.6g}; "
            "eps must be small enough that delta <= L"
        )
    regularized = prob.regularize(problem, delta)
    eta_x, eta_y = dyn.default_stepsizes(problem.L, r, scheme)
    stop_distance = eps / (4.0 * math.sqrt((kappa + 1.0) * problem.L))

    if max_iters is None:
        rep = spec.spectral_report(regularized, r, eta_x, scheme)
        d0 = float(np.linalg.norm(z0 - regularized.z_star))
        predicted = rep.predicted_iters(stop_distance, initial_distance=max(d0, stop_distance))
        if not math.isfinite(predicted):
            raise InvalidInputError(
                "regularized dynamics do not contract; cannot size the budget"
            )
        max_iters = int(3 * predicted) + 1000

    config = dyn.SolverConfig(
        algorithm=dyn.Algorithm.GDA, eta_x=eta_x, eta_y=eta_y,
        max_iters=max_iters, target_eps=stop_distance, seed=seed,
        record_primal_gaps=False,
    )
    traj = dyn.run(regularized, config, z0=z0)
    converged = traj.status.kind is dyn.StatusKind.CONVERGED
    iterations = traj.status.step if converged else max_iters
    final_gap = prob.primal_gap(problem, traj.final_z[: problem.n])
    return MuxZeroReport(
        delta=delta,
        radius_estimate=R,
        stop_distance=stop_distance,
        iterations=int(iterations),
        converged=converged,
        final_gap=final_gap,
        gap_ok=converged and final_gap <= eps,
    )


# --- non-quadratic sweeps ----------------------------------------------------

@dataclass(frozen=True)
class NonquadSweepResult:
    sweep: SweepResult
    guaranteed: dict  # ratio -> whether the nearly-quadratic condition holds
    deviation: dict  # ratio -> combined Hessian deviation at that ratio
    threshold: dict  # ratio -> mu_x / (8 * C_P) of the base instance


def nonquad_sweep(nq, ratios, max_iters, target_eps=None,
                  scheme=dyn.Scheme.HALF, seeds=(0,)):
    """GDA sweep over the logistic-perturbed family.

    Convergence is measured by the exact gradient norm (the perturbed
    optimum is not known in closed form), with the target defaulting to
    ``1e-6 * L``.  Each ratio is annotated with whether the nearly-quadratic
    condition ``delta_r(r) <= mu_x / (8 * C_P)`` holds for the base
    instance, i.e. whether the cell carries the local linear-rate
    guarantee (proved for the half stepsize scheme).
    """
    base = nq.base
    if target_eps is None:
        target_eps = 1e-6 * base.L
    dc = prob.derive_constants(base)
    dev = prob.nonquad_hessian_deviation(nq)

    guaranteed, deviation, threshold = {}, {}, {}
    for r in ratios:
        eta_x, _ = dyn.default_stepsizes(base.L, r, scheme)
        rep = spec.spectral_report(base, r, eta_x, scheme)
        deviation[r] = dev.delta_r(r)
        if rep.basis_cond is None or dc.mu_x <= 0:
            threshold[r] = 0.0
            guaranteed[r] = False
        else:
            threshold[r] = dc.mu_x / (8.0 * rep.basis_cond)
            guaranteed[r] = deviation[r] <= threshold[r]

    sweep_spec = ExperimentSpec(
        problem=nq, ratios=tuple(ratios), max_iters=max_iters,
        target_eps=target_eps, algorithms=(dyn.Algorithm.GDA,),
        scheme=scheme, seeds=tuple(seeds),
    )
    sweep = ratio_sweep(sweep_spec)
    return NonquadSweepResult(
        sweep=sweep, guaranteed=guaranteed, deviation=deviation, threshold=threshold
    )
