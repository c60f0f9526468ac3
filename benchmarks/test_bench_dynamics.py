"""Per-call timings of the affine engine, the rate fit and a ratio sweep.

Layers: one exact GDA and one exact EG ``run`` of 40 000 steps on the first
certify-rates instance (the first 4x4 corpus instance, dim 8) at r = 2 kappa,
as criterion 3 runs them, and the GDA run again recording a primal gap per
step, as ``minimax-gda run`` does; one SGDA and one noisy EG run of the same
length on the criterion-6 instance at its smallest batch, 16 (the noisy
path: short blocks, their starts from a log-depth scan, and one normal draw
per chunk); the non-quadratic run of criterion 9 (the oracle path, one
gradient step after another); one ``estimate_rate`` call on the 40 001-point
GDA trajectory; one GDA run that diverges at step 1150, in its second
chunk (the first sweep cell of the cli-stop workload's first variant on its
indefinite instance); one basis run of criterion 1's divergence
certificate, a dim-2 run that exhausts its 10 000-step budget in two
chunks, as cli-stop's ``verify lower-bounds`` runs 74 of them, and one that
diverges at step 54, in its first chunk, as most of the other 35 do; the
build of the affine engine alone (``_affine_engine``: the transition
matrix and both power stacks), for that dim-2 run and for the GDA and EG
runs of criterion 3; and one ``ratio_sweep`` of GDA and EG over the
default ratios on the convex instance of that variant; and one
``check_rate_matches_prediction`` over the certify-rates workload's corpus
at its first variant (the first 8 corpus instances, 40 000 steps), whose
48 GDA and EG runs are criterion 3's cells; one ``check_ratio_threshold``
at cli-stop's 10 000-step certificate budget (criterion 1: three divergence
certificates of 24 cells each); one ``check_sgda_floor`` as the
certify-sgda-floor workload runs it at its first variant (criterion 6:
batches 16 to 1024, one noise seed); and, with the arguments the acceptance
suite gives them, one ``check_rate_lower_bound`` (criterion 4: one
1000-step run), one ``check_complexity_scaling`` at seed 0 and count 10
(criterion 5: its corpus and two runs per instance), one
``check_nearly_quadratic`` at seed 0 (criterion 9: its corpus and one
oracle run) and one ``check_mux_zero`` at seed 0 (criterion 7: two
regularized runs).  Each run case
stores its step count in ``extra_info["steps"]`` (for the criterion-9,
early-stop and diverging runs, the steps to the stop), so the per-call
median over it is microseconds per step; the sweep and criterion cases
store their cell counts in ``extra_info["cells"]``.  Every case
stores in ``extra_info["minflt"]`` the minor page faults of one untimed call
before the timed ones: a reading of how much memory a call maps afresh,
reported and not gated, since the count also varies between fresh
processes of the same code.
These are not part of the test suite; run them from the root of a checkout
with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest benchmarks/test_bench_dynamics.py --benchmark-json=bench.json

and read the per-call medians from the JSON's ``stats``.
"""

import dataclasses
import resource
from unittest import mock

import pytest

from minimax_gda import dynamics as dyn
from minimax_gda import harness
from minimax_gda import problems as prob
from minimax_gda import verify

STEPS = 40_000


def _bench(benchmark, fn, *args, **kwargs):
    """Time ``fn(*args, **kwargs)`` after one untimed call, whose minor page
    faults go to ``extra_info["minflt"]``."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn(*args, **kwargs)
    benchmark.extra_info["minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    benchmark(fn, *args, **kwargs)


def _config(p, alg, seed, noise=None):
    eta_x, eta_y = dyn.default_stepsizes(p.L, 2.0 * prob.derive_constants(p).kappa)
    return dyn.SolverConfig(algorithm=alg, eta_x=eta_x, eta_y=eta_y, max_iters=STEPS,
                            target_eps=harness._EPS_NEVER, noise=noise, seed=seed)


def _rates_cell(alg):
    seed, p = verify.corpus_instances(1)[0]
    return p, _config(p, alg, seed)


@pytest.mark.parametrize("alg", [dyn.Algorithm.GDA, dyn.Algorithm.EG])
def test_exact_run(benchmark, alg):
    p, cfg = _rates_cell(alg)
    benchmark.extra_info["steps"] = STEPS
    _bench(benchmark, dyn.run, p, cfg)


def test_exact_run_with_gaps(benchmark):
    p, cfg = _rates_cell(dyn.Algorithm.GDA)
    benchmark.extra_info["steps"] = STEPS
    _bench(benchmark, dyn.run, p, dataclasses.replace(cfg, record_primal_gaps=True))


@pytest.mark.parametrize("alg", [dyn.Algorithm.SGDA, dyn.Algorithm.EG])
def test_noisy_run(benchmark, alg):
    seed, p = verify.corpus_instances(1, min_mu_x=10.0, max_mu_x=60.0)[0]
    cfg = _config(p, alg, seed, prob.NoiseModel(sigma=1.0, batch=16))
    benchmark.extra_info["steps"] = STEPS
    _bench(benchmark, dyn.run, p, cfg)


def test_nonquad_run(benchmark):
    # the instance and config check_nearly_quadratic builds, taken from its run
    with mock.patch.object(dyn, "run", wraps=dyn.run) as spy:
        verify.check_nearly_quadratic()
    (nq, cfg), _ = spy.call_args
    benchmark.extra_info["steps"] = dyn.run(nq, cfg).status.step
    _bench(benchmark, dyn.run, nq, cfg)


def test_early_stop_run(benchmark):
    # the indefinite instance of the cli-stop workload's first variant: the
    # first seed from 1 whose Schur complement has its least eigenvalue at
    # most -2.5; its first sweep cell, GDA at r = kappa/2, diverges at 1150
    seed = 1
    while True:
        p = prob.sample_instance(4, 4, 10.0, 1.0, seed)
        if prob.derive_constants(p).schur_min <= -2.5:
            break
        seed += 1
    r = harness.default_ratio_set(prob.derive_constants(p).kappa)[0]
    eta_x, eta_y = dyn.default_stepsizes(p.L, r)
    cfg = dyn.SolverConfig(algorithm=dyn.Algorithm.GDA, eta_x=eta_x, eta_y=eta_y,
                           max_iters=400_000, target_eps=1e-6)
    benchmark.extra_info["steps"] = dyn.run(p, cfg).status.step
    _bench(benchmark, dyn.run, p, cfg)


def _certificate_cell(eta_x):
    # a basis trajectory of criterion 1's divergence certificate, as the
    # cli-stop workload's verify lower-bounds runs it: GDA on the dim-2
    # hard_ratio_instance(8, 1) at r = kappa from z* + e_1, with a budget of
    # 10 000 steps
    p = prob.hard_ratio_instance(8.0, 1.0)
    cfg = dyn.SolverConfig(algorithm=dyn.Algorithm.GDA, eta_x=eta_x, eta_y=8.0 * eta_x,
                           max_iters=10_000, target_eps=harness._EPS_NEVER)
    return p, cfg, p.z_star + [1.0, 0.0]


def test_certificate_basis_run(benchmark):
    # at the grid's least stepsize the run exhausts its budget
    p, cfg, z0 = _certificate_cell(float(harness._ETA_GRID[0]))
    assert dyn.run(p, cfg, z0).status.kind is dyn.StatusKind.BUDGET_EXHAUSTED
    benchmark.extra_info["steps"] = cfg.max_iters
    _bench(benchmark, dyn.run, p, cfg, z0)


def test_diverging_certificate_run(benchmark):
    # at the grid's third-largest stepsize the run diverges at step 54
    p, cfg, z0 = _certificate_cell(float(harness._ETA_GRID[-3]))
    status = dyn.run(p, cfg, z0).status
    assert status == dyn.Status(dyn.StatusKind.DIVERGED, 54)
    benchmark.extra_info["steps"] = status.step
    _bench(benchmark, dyn.run, p, cfg, z0)


@pytest.mark.parametrize("case", ["gda-2", "gda-8", "eg-8"])
def test_engine_build(benchmark, case):
    # the certificate's dim-2 run, or criterion 3's 40 000-step dim-8 ones
    if case == "gda-2":
        p, cfg, _ = _certificate_cell(float(harness._ETA_GRID[0]))
    else:
        p, cfg = _rates_cell(dyn.Algorithm(case[:-2]))
    _bench(benchmark, dyn._affine_engine, p, cfg)


def test_estimate_rate(benchmark):
    traj = dyn.run(*_rates_cell(dyn.Algorithm.GDA))
    assert len(traj.distances) == STEPS + 1
    _bench(benchmark, dyn.estimate_rate, traj)


def test_ratio_sweep(benchmark):
    # the convex instance and the sweep of the cli-stop workload's first
    # variant: sample_instance(4, 4, 10, 1, 0, primal_convex=True,
    # schur_margin=0.5), swept with --algorithms gda eg -T 400000
    p = prob.sample_instance(4, 4, 10.0, 1.0, 0, primal_convex=True, schur_margin=0.5)
    ratios = harness.default_ratio_set(prob.derive_constants(p).kappa)
    algorithms = (dyn.Algorithm.GDA, dyn.Algorithm.EG)
    benchmark.extra_info["cells"] = len(ratios) * len(algorithms)
    _bench(benchmark, harness.ratio_sweep, p, ratios, 400_000, 1e-6, algorithms=algorithms)


def test_check_rate_matches_prediction(benchmark):
    # the certify-rates workload's body at its first variant: corpus seeds
    # from 0, 3 ratios x {GDA, EG} per instance
    corpus = verify.corpus_instances(8)
    check = verify.check_rate_matches_prediction(corpus, max_iters=STEPS)
    assert check.passed
    benchmark.extra_info["cells"] = check.details["cells"]
    _bench(benchmark, verify.check_rate_matches_prediction, corpus, max_iters=STEPS)


def test_check_ratio_threshold(benchmark):
    # criterion 1 as cli-stop's verify lower-bounds --budget 0.1 runs it
    check = verify.check_ratio_threshold(max_iters=10_000)
    assert check.passed
    benchmark.extra_info["cells"] = sum(k["cells"] for k in check.details["per_kappa"])
    _bench(benchmark, verify.check_ratio_threshold, max_iters=10_000)


def test_check_sgda_floor(benchmark):
    # the certify-sgda-floor workload's body at its first variant
    batches = (16, 64, 256, 1024)
    check = verify.check_sgda_floor(seed=0, batches=batches, n_seeds=1)
    assert check.passed and not check.inconclusive
    benchmark.extra_info["cells"] = len(batches)
    _bench(benchmark, verify.check_sgda_floor, seed=0, batches=batches, n_seeds=1)


def test_check_rate_lower_bound(benchmark):
    # criterion 4 as the acceptance suite runs it
    assert verify.check_rate_lower_bound().passed
    benchmark.extra_info["cells"] = 1
    _bench(benchmark, verify.check_rate_lower_bound)


def test_check_complexity_scaling(benchmark):
    # criterion 5 as the acceptance suite runs it
    check = verify.check_complexity_scaling(seed=0, count=10)
    assert check.passed
    benchmark.extra_info["cells"] = 2 * check.details["instances"]
    _bench(benchmark, verify.check_complexity_scaling, seed=0, count=10)


def test_check_nearly_quadratic(benchmark):
    # criterion 9 as the acceptance suite runs it
    assert verify.check_nearly_quadratic(seed=0).passed
    benchmark.extra_info["cells"] = 1
    _bench(benchmark, verify.check_nearly_quadratic, seed=0)


def test_check_mux_zero(benchmark):
    # criterion 7 as the acceptance suite runs it
    check = verify.check_mux_zero(seed=0)
    assert check.passed
    benchmark.extra_info["cells"] = len(check.details["runs"])
    _bench(benchmark, verify.check_mux_zero, seed=0)
