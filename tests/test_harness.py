import io
import itertools
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimax_gda import dynamics as dyn
from minimax_gda import harness
from minimax_gda import problems as prob
from minimax_gda import spectral as spec
from minimax_gda.errors import InsufficientDataError, InvalidInputError

GDA = dyn.Algorithm.GDA


def sweep(problem, ratios, T=200_000, eps=1e-6, **kw):
    return harness.ratio_sweep(problem, ratios, T, eps, **kw)


@pytest.fixture
def no_cell_runs(monkeypatch):
    def run(problem, config, z0=None):
        raise AssertionError("a cell ran before the inputs were validated")

    monkeypatch.setattr(dyn, "run", run)


class TestRatioSweep:
    def test_single_cell(self, small_instance):
        dc = prob.derive_constants(small_instance)
        result = sweep(small_instance, [2 * dc.kappa])
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.status == "converged"
        assert cell.iters_to_eps > 0
        assert cell.final_distance <= 1e-6
        assert cell.final_gap is not None

    def test_default_ratio_set(self):
        assert harness.default_ratio_set(10.0) == (5.0, 20.0, 80.0, 200.0)

    def test_csv_bytes_reproducible(self, small_instance):
        dc = prob.derive_constants(small_instance)
        outputs = []
        for _ in range(2):
            result = sweep(small_instance, [2 * dc.kappa, 8 * dc.kappa],
                           T=50_000, seeds=(0, 1))
            buf = io.StringIO()
            harness.write_sweep_csv(result, buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        header = outputs[0].splitlines()[0]
        assert header == "ratio,seed,algorithm,status,measured_rate,rho1,iters_to_eps,final_distance,final_gap"
        assert len(outputs[0].splitlines()) == 5

    def test_slow_ratio_takes_longer(self, small_instance):
        dc = prob.derive_constants(small_instance)
        result = sweep(small_instance, [2 * dc.kappa, 2 * dc.kappa ** 2],
                       T=2_000_000)
        fast, slow = result.cells
        assert fast.status == slow.status == "converged"
        assert slow.iters_to_eps > fast.iters_to_eps

    def test_iterations_near_prediction(self, small_instance):
        dc = prob.derive_constants(small_instance)
        r = 2 * dc.kappa
        eta_x, _ = dyn.default_stepsizes(small_instance.L, r, dyn.Scheme.QUARTER)
        rep = spec.spectral_report(small_instance, r, eta_x)
        assert rep.diagonalizable
        result = sweep(small_instance, [r], T=2_000_000)
        cell, = result.cells
        predicted = math.log(1e-6 / rep.basis_cond) / math.log(rep.rho1)
        assert predicted / 3 <= cell.iters_to_eps <= predicted * 3

    def test_sgda_cells_carry_noise(self, small_instance):
        dc = prob.derive_constants(small_instance)
        cell = sweep(
            small_instance, [2 * dc.kappa], T=2_000, eps=1e-12,
            algorithms=(dyn.Algorithm.SGDA,), noise=prob.NoiseModel(0.5, 8),
        ).cells[0]
        assert cell.status == "budget_exhausted"
        assert cell.final_distance > 1e-6  # noise floor keeps it away

    def test_sgda_without_noise_rejected_before_any_cell(self, small_instance,
                                                        no_cell_runs):
        dc = prob.derive_constants(small_instance)
        with pytest.raises(InvalidInputError, match="SGDA requires a noise model"):
            sweep(small_instance, [2 * dc.kappa], T=100,
                  algorithms=(GDA, dyn.Algorithm.SGDA))

    def test_non_library_error_propagates(self, small_instance, monkeypatch):
        def broken_run(problem, config, z0=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(dyn, "run", broken_run)
        dc = prob.derive_constants(small_instance)
        with pytest.raises(RuntimeError, match="boom"):
            sweep(small_instance, [2 * dc.kappa], T=100)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_ratio_rejected_before_any_cell(self, small_instance, bad,
                                                no_cell_runs):
        with pytest.raises(InvalidInputError, match="positive and finite"):
            sweep(small_instance, [8.0, bad], T=100)

    def test_negative_max_iters_rejected_before_any_cell(self, small_instance,
                                                         no_cell_runs):
        with pytest.raises(InvalidInputError, match="max_iters"):
            sweep(small_instance, [8.0], T=-5)

    @pytest.mark.parametrize("bad", [100.5, math.inf, math.nan])
    def test_non_integral_max_iters_rejected_before_any_cell(self, small_instance,
                                                             bad, no_cell_runs):
        with pytest.raises(InvalidInputError, match="max_iters must be an integer"):
            sweep(small_instance, [8.0], T=bad)

    @pytest.mark.parametrize("bad", [1.5, -1, math.nan, "3", None])
    def test_bad_seed_rejected_before_any_cell(self, small_instance, bad,
                                               no_cell_runs):
        with pytest.raises(InvalidInputError, match="seed must be an integer"):
            sweep(small_instance, [8.0], T=100, seeds=(0, bad))

    def test_unknown_algorithm_rejected_before_any_cell(self, small_instance,
                                                        no_cell_runs):
        with pytest.raises(InvalidInputError, match="unknown algorithm 'adam'"):
            sweep(small_instance, [8.0], T=100, algorithms=("gda", "adam"))

    @pytest.mark.parametrize("ratios, seeds, message", [
        ((), (0,), "need at least one ratio"),
        ((8.0,), (), "need at least one seed"),
    ], ids=["no-ratio", "no-seed"])
    def test_empty_sweep_rejected_before_any_cell(self, small_instance, ratios,
                                                  seeds, message, no_cell_runs):
        with pytest.raises(InvalidInputError, match=message):
            sweep(small_instance, ratios, T=100, seeds=seeds)

    def test_final_gap_is_the_final_points_gap(self, small_instance, monkeypatch):
        # and no cell records a gap per step
        runs = []
        real_run = dyn.run

        def spy(problem, config, z0=None):
            runs.append(real_run(problem, config, z0))
            return runs[-1]

        monkeypatch.setattr(dyn, "run", spy)
        dc = prob.derive_constants(small_instance)
        result = sweep(small_instance, [dc.kappa / 2.0, 2 * dc.kappa], T=5_000,
                       algorithms=(GDA, dyn.Algorithm.EG), seeds=(1.0,))
        assert len(runs) == 4 and all(t.primal_gaps is None for t in runs)
        for cell, traj in zip(result.cells, runs):
            assert cell.seed == traj.config.seed == 1
            assert cell.final_gap == prob.primal_gap(small_instance,
                                                     traj.final_z[:small_instance.n])

    def test_gap_needs_positive_definite_a(self):
        # the run itself does not need A positive definite, the gap's Schur
        # complement does: the cell records the error and the sweep goes on
        p = prob.QuadraticProblem(A=[[-1.0]], B=[[1.0]], C=[[1.0]], x_star=[0.0],
                                  y_star=[0.0], L=2.0, mu=1.0)
        cell, = sweep(p, [4.0], T=10).cells
        assert cell.status.startswith("error: NotPositiveDefiniteError")

    @pytest.mark.parametrize("bad", [0.0, -1e-6, math.nan, math.inf])
    def test_bad_target_eps_rejected_before_any_cell(self, small_instance, bad,
                                                     no_cell_runs):
        with pytest.raises(InvalidInputError, match="target_eps"):
            sweep(small_instance, [8.0], T=100, eps=bad)

    def test_below_threshold_ratio_sometimes_diverges(self):
        # sampling with mu_x computed after the fact (possibly zero) finds
        # cells that diverge at r = kappa/2
        found = False
        for seed in range(12):
            p = prob.sample_instance(4, 4, 100.0, 1.0, seed)
            dc = prob.derive_constants(p)
            result = sweep(p, [dc.kappa / 2.0], T=30_000, seeds=(seed,))
            if result.cells[0].status == "diverged":
                found = True
                break
        assert found


@st.composite
def sweep_args(draw):
    """A small quadratic instance and valid ``ratio_sweep`` arguments: ratios
    around kappa/2, 2 kappa and 8 kappa, and SGDA only when noise is set."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    kappa = 10.0 ** draw(st.floats(0.3, 2.0))
    L = 10.0 ** draw(st.integers(-1, 1))
    p = prob.sample_instance(n, m, L, L / kappa, draw(st.integers(0, 2 ** 16)),
                             primal_convex=draw(st.booleans()))
    ratios = [kappa * draw(st.sampled_from([0.5, 2.0, 8.0]))
              * 2.0 ** draw(st.floats(-0.25, 0.25))
              for _ in range(draw(st.integers(1, 3)))]
    noise = draw(st.one_of(st.none(), st.builds(
        prob.NoiseModel, st.sampled_from([1e-3, 0.1, 1.0]), st.integers(1, 16))))
    names = ["gda", "eg"] + (["sgda"] if noise is not None else [])
    return p, dict(
        ratios=ratios, max_iters=draw(st.integers(0, 2000)),
        target_eps=10.0 ** -draw(st.integers(1, 12)),
        algorithms=draw(st.lists(st.sampled_from(names), min_size=1, unique=True)),
        scheme=draw(st.sampled_from(list(dyn.Scheme))),
        seeds=draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True)),
        noise=noise,
    )


# one argument that SolverConfig or default_stepsizes rejects, as
# (ratio_sweep keyword, bad value): a bad ratio, seed or algorithm is
# inserted among the valid ones, a bad max_iters or target_eps replaces it
BAD_ARGUMENTS = (
    [("ratios", r) for r in (0.0, -1.0, math.nan, math.inf, 1e-310)]
    + [("max_iters", t) for t in (-1, 100.5, math.nan, math.inf)]
    + [("target_eps", e) for e in (0.0, -1e-6, math.nan, math.inf)]
    + [("seeds", s) for s in (-1, 1.5, math.nan, "3", None)]
    + [("algorithms", "adam"), ("algorithms", "sgda")]
)


class TestSweepIsItsConfigs:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sweep_args())
    def test_cells_equal_their_configs_runs(self, case):
        p, kw = case
        dc = prob.derive_constants(p)
        result = harness.ratio_sweep(p, **kw)
        cells = list(itertools.product(kw["ratios"], kw["seeds"], kw["algorithms"]))
        assert len(result.cells) == len(cells)
        for cell, (r, seed, alg) in zip(result.cells, cells):
            eta_x, eta_y = dyn.default_stepsizes(p.L, r, kw["scheme"])
            traj = dyn.run(p, dyn.SolverConfig(
                algorithm=alg, eta_x=eta_x, eta_y=eta_y,
                max_iters=kw["max_iters"], target_eps=kw["target_eps"],
                noise=None if alg == "gda" else kw["noise"], seed=seed))
            try:
                rate = dyn.estimate_rate(traj)
            except InsufficientDataError:
                rate = None
            rep = spec.spectral_report(p, r, eta_x, kw["scheme"])
            converged = traj.status.kind is dyn.StatusKind.CONVERGED
            assert (cell.ratio, cell.seed, cell.algorithm) == (r, seed, alg)
            assert cell.status == traj.status.kind.value
            assert cell.iters_to_eps == (traj.status.step if converged else None)
            assert cell.final_distance == traj.final_distance()
            assert cell.measured_rate == rate
            assert cell.rho == (rep.rho2 if alg == "eg" else rep.rho1)
            assert cell.final_gap == (prob.primal_gap(p, traj.final_z[:p.n])
                                      if dc.primal_convex else None)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sweep_args(), st.sampled_from(BAD_ARGUMENTS), st.data())
    def test_rejected_argument_runs_nothing(self, case, bad, data):
        p, kw = case
        key, value = bad
        if key in ("ratios", "seeds", "algorithms"):
            at = data.draw(st.integers(0, len(kw[key])))
            kw[key] = kw[key][:at] + [value] + kw[key][at:]
            if value == "sgda":
                kw["noise"] = None
        else:
            kw[key] = value
        with mock.patch.object(dyn, "run") as run, \
                mock.patch.object(spec, "spectral_report") as report:
            with pytest.raises(InvalidInputError):
                harness.ratio_sweep(p, **kw)
        assert run.call_count == report.call_count == 0


class TestDivergenceCertificate:
    def test_hard_instance_certified(self):
        cert = harness.divergence_certificate(2.0, max_iters=3_000)
        assert len(cert.cells) == 24
        assert [r for r, _, _ in cert.cells] == [1.0] * 12 + [2.0] * 12
        assert all(norm is None or norm >= 1 - 1e-9 for _, _, norm in cert.cells)
        assert len(cert.controls) == 1
        assert str(cert.controls[0]).startswith("converged")

    def test_contracting_cell_measured(self, contracting_hard_instance):
        # on a convergent instance the certificate returns every cell's
        # measurement; the sixth stepsize is the first to contract
        cert = harness.divergence_certificate(2.0, max_iters=2_000)
        assert len(cert.cells) == 24
        r, eta_x, norm = cert.cells[5]
        assert (r, f"{eta_x:.3e}") == (1.0, "3.894e-04")
        assert norm < 1 - 1e-9
        assert all(other >= 1 - 1e-9 for _, _, other in cert.cells[:5])

    def test_kappa_below_two_rejected(self):
        for kappa in (1.5, math.nan):
            with pytest.raises(InvalidInputError):
                harness.divergence_certificate(kappa, max_iters=100)

    @pytest.mark.parametrize("max_iters", [0, -1, 2.5])
    def test_budget_below_one_step_rejected(self, max_iters, no_cell_runs):
        with pytest.raises(InvalidInputError, match="max_iters must be an integer >= 1"):
            harness.divergence_certificate(2.0, max_iters=max_iters)


@pytest.fixture(scope="module")
def floor_instance():
    seed = 0
    while True:
        p = prob.sample_instance(4, 4, 100.0, 1.0, seed)
        if 10.0 < prob.derive_constants(p).mu_x < 60.0:
            return p
        seed += 1


class TestSgdaFloor:
    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_sigma_not_positive_finite_rejected(self, floor_instance, sigma):
        dc = prob.derive_constants(floor_instance)
        with pytest.raises(InvalidInputError, match="sigma"):
            harness.sgda_floor_sweep(
                floor_instance, r=2 * dc.kappa, sigma=sigma,
                batch_list=(16, 64), seeds=range(2),
            )

    def test_mu_x_zero_rejected(self):
        p = prob.sample_instance(2, 2, 2.0, 1.0, 0, mu_x_zero=True)
        with pytest.raises(InvalidInputError):
            harness.sgda_floor_sweep(p, r=4.0, sigma=1.0,
                                     batch_list=(16,), seeds=range(2))

    @pytest.mark.parametrize("batch_list, seeds, message", [
        ((), (0,), "need at least one batch size"),
        ((16,), (), "need at least one seed"),
    ], ids=["no-batch", "no-seed"])
    def test_empty_sweep_rejected_before_any_run(self, floor_instance, batch_list,
                                                 seeds, message, no_cell_runs):
        dc = prob.derive_constants(floor_instance)
        with pytest.raises(InvalidInputError, match=message):
            harness.sgda_floor_sweep(floor_instance, r=2 * dc.kappa, sigma=1.0,
                                     batch_list=batch_list, seeds=seeds)

    def test_non_contracting_ratio_rejected(self, no_cell_runs):
        # the hard instance at kappa = 2 has mu_x = 2, and rho1 = 1.008 at
        # the threshold ratio r = kappa
        hard = prob.hard_ratio_instance(2.0, 1.0)
        with pytest.raises(InvalidInputError, match=r"does not contract \(rho1 >= 1\)"):
            harness.sgda_floor_sweep(hard, r=2.0, sigma=1.0, batch_list=(16,),
                                     seeds=(0,))
