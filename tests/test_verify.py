import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimax_gda import dynamics as dyn
from minimax_gda import harness
from minimax_gda import linalg
from minimax_gda import problems as prob
from minimax_gda import spectral as spec
from minimax_gda import verify
from minimax_gda.errors import (
    GenerationFailureError,
    InvalidInputError,
    MinimaxGdaError,
    NumericalFailureError,
)


def _plain_scan(count, start_seed, L, mu, min_mu_x, max_mu_x):
    # the seed scan without stacked draws: every seed through sample_instance
    out, seed = [], start_seed
    while len(out) < count:
        p = prob.sample_instance(4, 4, L, mu, seed)
        mu_x = prob.derive_constants(p).mu_x
        if mu_x > min_mu_x and (max_mu_x is None or mu_x < max_mu_x):
            out.append((seed, p))
        seed += 1
    return out


def _outcome(scan, **kwargs):
    # a scan's seeds and instance bytes, or the type and text of its error
    try:
        return [(seed, p.A.tobytes(), p.B.tobytes(), p.C.tobytes())
                for seed, p in scan(**kwargs)]
    except MinimaxGdaError as exc:
        return type(exc), str(exc)


@st.composite
def corpus_scans(draw):
    """Arguments of a ``corpus_instances`` call whose window some draws
    meet: L from 1e-300 to 1e300, kappa from 10 (8% of draws have mu_x > 0)
    to 1e8, and windows with a lower end, a band, a lower end at or below 0,
    or one end within 1e-12*L of a draw's mu_x."""
    L = 10.0 ** draw(st.floats(*draw(st.sampled_from(
        [(-2.0, 3.0), (-300.0, -100.0), (100.0, 298.0)]))))
    mu = L / 10.0 ** draw(st.floats(1.0, 8.0))
    start = draw(st.integers(0, 10 ** 6))
    kind = draw(st.sampled_from(["low", "band", "nonpositive", "edge_low", "edge_high"]))
    lo, hi = L * draw(st.floats(0.0, 0.02)), None
    if kind == "band":
        hi = lo + L * draw(st.floats(0.05, 0.5))
    elif kind == "nonpositive":
        lo = draw(st.sampled_from([0.0, -0.0, -1e-300, -L]))
        hi = draw(st.sampled_from([None, 0.1 * L]))
    elif kind.startswith("edge"):
        mu_x = [prob.derive_constants(prob.sample_instance(4, 4, L, mu, s)).mu_x
                for s in range(start, start + 60)]
        delta = L * draw(st.floats(-1e-12, 1e-12))
        if kind == "edge_low":
            lo = min([m for m in mu_x if m > 0], default=0.0) + delta
        else:
            lo, hi = -L, max(mu_x) + delta
    return dict(count=draw(st.integers(1, 40)), start_seed=start, L=L, mu=mu,
                min_mu_x=lo, max_mu_x=hi)


class TestCorpus:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(scan=corpus_scans())
    def test_screened_scan_equals_plain_scan(self, scan):
        assert _outcome(verify.corpus_instances, **scan) == _outcome(_plain_scan, **scan)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(start=st.integers(0, 10 ** 6),
           log_L=st.one_of(st.floats(-300.0, 300.0), st.floats(305.0, 308.25)),
           log_kappa=st.floats(0.1, 17.0))
    def test_first_draws_judge_as_validate_and_derive_constants(self, start, log_L,
                                                                log_kappa):
        # per seed, the stacked first attempt and its mu_x are
        # sample_instance's instance and derive_constants' mu_x, bit for bit;
        # mu_x is NaN exactly where validate rejects the first attempt or
        # sample_instance or derive_constants raises; and a scan from the
        # first judged seed, past the undecided ones, raises what the plain
        # scan raises
        L = 10.0 ** log_L
        mu, seeds = L / 10.0 ** log_kappa, range(start, start + 6)
        with np.errstate(over="ignore", invalid="ignore"):
            A, B, C, mu_x = prob._first_draws(seeds, 4, 4, L, mu)
            for k, seed in enumerate(seeds):
                try:
                    p = prob.sample_instance(4, 4, L, mu, seed)
                    want = prob.derive_constants(p).mu_x
                except MinimaxGdaError:
                    assert math.isnan(mu_x[k])
                    continue
                first = all(getattr(p, name).tobytes() == M[k].tobytes()
                            for name, M in zip("ABC", (A, B, C)))
                assert math.isnan(mu_x[k]) is not first
                if first:
                    assert float(mu_x[k]).hex() == want.hex()
            judged = next((s for s, m in zip(seeds, mu_x) if not math.isnan(m)), start)
            scan = dict(count=len(seeds), start_seed=judged, L=L, mu=mu,
                        min_mu_x=-1.0, max_mu_x=None)
            assert _outcome(verify.corpus_instances, **scan) == _outcome(_plain_scan, **scan)

    def test_scan_limit_and_message_unchanged(self):
        # a count-1 scan reads at most 1501 seeds (500 * count + 1000 after
        # the first): a window holding only seed s's mu_x finds s from
        # s - 1500, and reports 1501 scanned seeds from s - 1501
        s = next(s for s in range(1500, 2000) if prob.derive_constants(
            prob.sample_instance(4, 4, 100.0, 1.0, s)).mu_x > 0)
        m = prob.derive_constants(prob.sample_instance(4, 4, 100.0, 1.0, s)).mu_x
        lo, hi = m * (1 - 1e-9), m * (1 + 1e-9)
        found = verify.corpus_instances(1, start_seed=s - 1500, min_mu_x=lo, max_mu_x=hi)
        assert [seed for seed, _ in found] == [s]
        message = f"scanned 1501 seeds but found only 0 instances with mu_x > {lo}"
        with pytest.raises(GenerationFailureError, match=f"^{re.escape(message)}$"):
            verify.corpus_instances(1, start_seed=s - 1501, min_mu_x=lo, max_mu_x=hi)

    def test_window_edge_at_one_ulp_of_mu_x(self):
        # a window end one ulp past a seed's mu_x keeps the seed, and an end
        # at its mu_x drops it, as the plain scan judges; the seeds are the
        # first three after the first with mu_x > 0, each judged in a block
        seeds = [s for s in range(1, 60) if prob.derive_constants(
            prob.sample_instance(4, 4, 100.0, 1.0, s)).mu_x > 0][:3]
        for s in seeds:
            m = prob.derive_constants(prob.sample_instance(4, 4, 100.0, 1.0, s)).mu_x
            for lo, hi, kept in ((math.nextafter(m, 0.0), 2 * m, True), (m, 2 * m, False),
                                 (m / 2, math.nextafter(m, math.inf), True),
                                 (m / 2, m, False)):
                scan = dict(count=2, start_seed=s - 1, L=100.0, mu=1.0,
                            min_mu_x=lo, max_mu_x=hi)
                found = _outcome(verify.corpus_instances, **scan)
                assert found == _outcome(_plain_scan, **scan)
                assert (s in [seed for seed, *_ in found]) is kept

    @pytest.mark.parametrize("clause", ["A_lower", "A_upper", "B_norm", "C_norm"])
    def test_screen_needs_room_in_every_clause(self, clause):
        # at the two adjacent values of one clause's eigen- or singular
        # value between which validate's verdict flips, at margin -1e-9*L,
        # _first_draws gives the passing attempt derive_constants' mu_x and
        # leaves the other undecided (NaN); the blocks are rotated, so their
        # spectra carry LAPACK's round-off, by eight rotations, since
        # another solver's round-off moves the flip at about half of them
        L, mu = 100.0, 1.0
        edge, step = (mu, -2e-9 * L) if clause == "A_lower" else (L, 2e-9 * L)
        for seed in range(8):
            Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))[0]

            def draw(v):
                spectra = {"A": [mu, 30.0, 60.0, L], "B": [50.0, 40.0, 30.0, 20.0],
                           "C": [50.0, -20.0, 10.0, 5.0]}
                spectra[clause[0]][3 if clause == "A_upper" else 0] = v
                A, B, C = ((Q * spectra[block]) @ Q.T for block in "ABC")
                return 0.5 * (A + A.T), B, 0.5 * (C + C.T)

            def instance(v):
                return prob.QuadraticProblem(*draw(v), np.zeros(4), np.zeros(4), L, mu)

            # bisect the bit patterns between a passing and a failing value
            good, bad = (int(np.float64(v).view(np.int64)) for v in (edge, edge + step))
            while abs(bad - good) > 1:
                mid = (good + bad) // 2
                failed = prob.validate(instance(np.int64(mid).view(np.float64)))
                good, bad = (good, mid) if failed else (mid, bad)
            pair = [float(np.int64(bits).view(np.float64)) for bits in (good, bad)]
            assert [prob.validate(instance(v)) for v in pair] == [(), (clause,)]
            stack = [np.array(M) for M in zip(*map(draw, pair))]
            with mock.patch.object(prob, "_draw_stack", lambda *args: (*stack, None)):
                mu_x = prob._first_draws([0, 1], 4, 4, L, mu)[3]
            want = prob.derive_constants(instance(pair[0])).mu_x
            assert float(mu_x[0]).hex() == want.hex() and math.isnan(mu_x[1])

    def test_integral_float_start_seed_counts_as_int(self):
        # seeds count from int(start_seed), so a float seed at 2**53 still
        # advances, and the seeds are those of the int start
        got = verify.corpus_instances(2, start_seed=2.0**53, min_mu_x=-1.0)
        assert [seed for seed, _ in got] == [2**53, 2**53 + 1]
        assert all(type(seed) is int for seed, _ in got)
        with pytest.raises(InvalidInputError, match="seed must be an integer >= 0"):
            verify.corpus_instances(1, start_seed=1.5)

    @pytest.mark.parametrize("undecided", [None, 7])
    def test_sample_instance_only_for_first_and_undecided_seeds(self, undecided):
        # the 120-instance corpus scans seeds 0-1056: sample_instance draws
        # the first seed and each one _first_draws leaves undecided (none
        # here, or every 7th when marked so), and builds no kept instance
        judged, first_draws = [], prob._first_draws

        def judge(seeds, *args):
            A, B, C, mu_x = first_draws(seeds, *args)
            if undecided:
                mu_x[np.array(seeds) % undecided == 0] = math.nan
            judged.extend(zip(seeds, mu_x))
            return A, B, C, mu_x

        with mock.patch.object(prob, "_first_draws", judge), \
                mock.patch.object(prob, "sample_instance", wraps=prob.sample_instance) as spy:
            corpus = verify.corpus_instances(120)
        last = corpus[-1][0]
        assert last == 1056
        assert [call.args[4] for call in spy.call_args_list] == [0] + [
            s for s, m in judged if s <= last and math.isnan(m)]
        assert _outcome(lambda: corpus) == _outcome(verify.corpus_instances, count=120)

    def test_screen_blocks_grow_from_count(self):
        # the first block holds 16 seeds per instance asked for, up to 64,
        # and each next one twice the one before: the criterion-6 instance,
        # 16 seeds in, takes one block of 16, and a count-1 scan that finds
        # nothing draws 16, 32 and then 64 seeds at a time
        def sizes(*args, **kw):
            with mock.patch.object(prob, "_first_draws", wraps=prob._first_draws) as spy:
                try:
                    found = verify.corpus_instances(*args, **kw)
                except GenerationFailureError:
                    found = None
            return found, [len(call.args[0]) for call in spy.call_args_list]

        found, blocks = sizes(1, min_mu_x=10.0, max_mu_x=60.0)
        assert [s for s, _ in found] == [16] and blocks == [16]
        found, blocks = sizes(1, min_mu_x=1e9)
        assert found is None and blocks[:3] == [16, 32, 64] and set(blocks[3:]) == {64}
        assert sizes(4)[1][0] == 64

    @pytest.mark.parametrize("lo, hi", [
        (math.nan, None), (math.nan, 1.0), (0.0, math.nan), (math.inf, None),
        (2.0, 1.0), (1.0, 1.0)])
    def test_window_no_mu_x_can_meet_rejected_before_drawing(self, lo, hi):
        with mock.patch.object(prob, "_draw_stack", side_effect=AssertionError) as draws:
            with pytest.raises(InvalidInputError, match=re.escape(
                    f"no mu_x lies in ({lo}, {hi})")):
                verify.corpus_instances(3, min_mu_x=lo, max_mu_x=hi)
        assert draws.call_count == 0

    def test_deterministic_and_filtered(self):
        a = verify.corpus_instances(5, start_seed=0)
        b = verify.corpus_instances(5, start_seed=0)
        assert [s for s, _ in a] == [s for s, _ in b]
        for _, p in a:
            assert prob.derive_constants(p).mu_x > 1e-3

    @pytest.mark.parametrize("count", [0, -1, 2.5])
    def test_count_below_one_or_fractional_rejected(self, count):
        with pytest.raises(InvalidInputError, match="count must be an integer >= 1"):
            verify.corpus_instances(count)

    def test_mu_x_window(self):
        out = verify.corpus_instances(2, start_seed=0, min_mu_x=10.0, max_mu_x=60.0)
        for _, p in out:
            assert 10.0 < prob.derive_constants(p).mu_x < 60.0


class TestSuiteDispatch:
    def test_unknown_suite_rejected(self):
        with pytest.raises(InvalidInputError):
            verify.verify_suite("nope")

    def test_mux_zero_suite(self):
        results = verify.verify_suite("mux-zero", seed=0, budget=0.2)
        assert len(results) == 1
        assert results[0].passed
        payload = results[0].to_json_dict()
        assert payload["suite"] == "mux-zero"
        assert payload["checks"][0]["criterion"] == 7

    def test_lower_bounds_suite_small_budget(self):
        results = verify.verify_suite("lower-bounds", seed=0, budget=0.1)
        assert results[0].passed
        names = [c.name for c in results[0].checks]
        assert names == ["ratio_threshold_divergence", "rate_lower_bound"]

    @pytest.mark.parametrize("suite", ["all", "spectral", "rates"])
    def test_corpus_drawn_once_per_call(self, monkeypatch, suite):
        # the spectral and rate suites check the same 4x4 corpus: one call
        # draws it once and hands every check the same list
        draws, corpora = [], []
        draw = verify.corpus_instances
        monkeypatch.setattr(verify, "corpus_instances",
                            lambda *a, **k: draws.append((a, k)) or draw(*a, **k))

        def stub(name):
            def check(*args, **kwargs):
                corpora.extend(a for a in args if isinstance(a, list))
                return verify.CheckResult(0, name, True)
            return check
        for name in [n for n in vars(verify) if n.startswith("check_")]:
            monkeypatch.setattr(verify, name, stub(name))
        verify.verify_suite(suite, seed=3, budget=0.1)
        assert draws == [((10,), {"start_seed": 3})]
        assert len(corpora) == {"all": 3, "spectral": 2, "rates": 1}[suite]
        assert all(c is corpora[0] for c in corpora)


class TestSpectralBound:
    def test_lemma_failure_is_recorded(self):
        # |B|_2 = 100 against L = 2: the imaginary parts, about sqrt(r)*100,
        # break lemma item 1's bound sqrt(r)*L at every ratio
        p = prob.QuadraticProblem(A=[[1.0]], B=[[100.0]], C=[[1.0]],
                                  x_star=[0.0], y_star=[0.0], L=2.0, mu=1.0)
        result = verify.check_spectral_bound([(7, p)])
        assert not result.passed
        lemma = [f for f in result.details["failures"] if f["kind"] == "lemma"]
        assert [f["r"] for f in lemma] == list(verify._ratio_set(2.0))
        assert all(f["seed"] == 7 and 1 in f["items"] for f in lemma)

    def test_empty_corpus_fails(self):
        result = verify.check_spectral_bound([])
        assert not result.passed
        assert result.details == {"cells": 0, "worst_radius_margin": math.inf,
                                  "failures": []}


class TestComplexityScaling:
    def test_no_instance_rejected(self):
        with pytest.raises(InvalidInputError, match="count must be an integer >= 1"):
            verify.check_complexity_scaling(count=0)


class TestEigenvectorsOnDemand:
    """Only readers of ``basis_cond`` pay for the eigenvector solve, and an
    eigenvector-solve failure still ends each of them as it did when the
    solve ran inside ``spectral_report``."""

    def test_spectral_bound_solves_no_eigenvectors(self, eigvec_calls):
        assert verify.check_spectral_bound(verify.corpus_instances(3)).passed
        assert eigvec_calls == {"general_eig": 0, "cond_2": 0}

    def test_ratio_sweep_solves_no_eigenvectors(self, small_instance, eigvec_calls):
        kappa = prob.derive_constants(small_instance).kappa
        sweep = harness.ratio_sweep(small_instance, (2 * kappa, 4 * kappa), 200, 1e-6)
        assert all(c.rho is not None for c in sweep.cells)
        assert eigvec_calls == {"general_eig": 0, "cond_2": 0}

    def test_failure_surfaces_at_first_read(self, reference_instance, eig_fails):
        r = 2 * prob.derive_constants(reference_instance).kappa
        eta_x, _ = dyn.default_stepsizes(reference_instance.L, r)
        rep = spec.spectral_report(reference_instance, r, eta_x)
        assert rep.rho1 < 1.0
        for _ in range(2):  # a failed solve is not cached
            with pytest.raises(NumericalFailureError, match="QR iteration"):
                rep.basis_cond

    @pytest.mark.parametrize("reader", [
        lambda: verify.check_rate_matches_prediction(verify.corpus_instances(1),
                                                     max_iters=100),
        lambda: harness.sgda_floor_sweep(verify.corpus_instances(1)[0][1], 200.0,
                                         1.0, (16,), (0,)),
        lambda: verify.check_nearly_quadratic(seed=0),
    ], ids=["rate_matches_prediction", "sgda_floor_sweep", "nearly_quadratic"])
    def test_readers_raise_the_solver_failure(self, reader, eig_fails):
        with pytest.raises(NumericalFailureError, match="QR iteration"):
            reader()


class TestRatioThreshold:
    def test_certificate_failure_fails_check(self, contracting_hard_instance):
        check = verify.check_ratio_threshold(max_iters=2_000)
        assert not check.passed
        assert check.details["per_kappa"] == []
        assert check.details["failure"].startswith(
            "cell (kappa=2.0, r=1.0, eta_x=3.894e-04) contracted: ")

    def test_zero_step_certificate_rejected(self):
        # with no step the 72 cells would count as non-contracting from
        # their start states alone
        with pytest.raises(InvalidInputError, match="max_iters must be an integer >= 1"):
            verify.check_ratio_threshold(max_iters=0)

    def test_control_without_convergence_fails_check(self, monkeypatch):
        # the kappa = 2 control converges after 512 steps; 100 are too few
        monkeypatch.setattr(harness, "_CONTROL_MAX_ITERS", 100)
        check = verify.check_ratio_threshold(max_iters=100)
        assert not check.passed
        assert check.details["per_kappa"] == []
        assert check.details["failure"] == (
            "control cell (kappa=2.0, r=4.0) failed to converge: budget_exhausted")


@pytest.fixture
def short_floor_budget(monkeypatch):
    """Size every SGDA floor budget from a 160-step decay (210 steps in
    all), too short for the transient to decay."""
    monkeypatch.setattr(spec.SpectralReport, "predicted_iters",
                        lambda rep, eps, initial_distance=1.0: 160)


class TestSgdaFloor:
    def test_floor_below_bound_and_scales(self):
        check = verify.check_sgda_floor(seed=0, batches=(16, 256), n_seeds=4)
        assert check.passed and not check.inconclusive
        assert all(p["within_bound"] for p in check.details["points"])
        # quadrupling the batch twice halves the RMS floor twice (+-15%)
        assert check.details["slope"] == pytest.approx(-1.0, abs=0.15)

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_seeds": 0}, "need at least one seed"),
        ({"batches": ()}, "need at least one batch size"),
    ], ids=["no-seed", "no-batch"])
    def test_empty_sweep_rejected(self, kwargs, message):
        with pytest.raises(InvalidInputError, match=message):
            verify.check_sgda_floor(seed=0, **kwargs)

    def test_short_budget_inconclusive(self, short_floor_budget):
        check = verify.check_sgda_floor(seed=0, batches=(16, 64), n_seeds=2)
        assert check.details["max_iters"] == 210
        assert check.inconclusive
        assert not check.passed

    def test_inconclusive_floor_leaves_suite_passed(self, short_floor_budget):
        suite, = verify.verify_suite("sgda-floor", seed=0, budget=0.1)
        check, = suite.checks
        assert check.inconclusive and not check.passed
        assert suite.inconclusive
        assert suite.passed


class TestRateLowerBound:
    def test_criterion_parameters(self):
        check = verify.check_rate_lower_bound()
        d = check.details
        assert check.passed
        assert d["s1"] == pytest.approx(1 - (1 - 0.5 * math.sqrt(2.4)) / 32, abs=1e-12)
        assert d["s1"] == pytest.approx(0.99296, abs=1e-5)
        assert d["lower_bound"] == pytest.approx(0.9875)
        assert d["s1"] >= d["lower_bound"]
        assert d["max_step_deviation"] <= 1e-10
        assert d["total_decay_rel_error"] <= 1e-12


class TestMuxZero:
    def test_gap_below_eps(self):
        check = verify.check_mux_zero(seed=0)
        run = check.details["runs"]["0.01"]
        assert check.passed
        assert run["gap_ok"]
        assert run["final_gap"] <= 1e-2
        # R = 2*|x0 - x*| + 1 around the default initial point
        flat = prob.sample_instance(2, 2, 2.0, 1.0, 0, mu_x_zero=True)
        x0 = dyn.default_initial_point(flat, 0)[:flat.n]
        R = 2.0 * np.linalg.norm(x0 - flat.x_star) + 1.0
        assert run["delta"] == pytest.approx(1e-2 / R ** 2)

    def test_iterations_scale_with_eps(self):
        # growth compares the tenfold tighter target with the looser one
        check = verify.check_mux_zero(seed=0)
        runs = check.details["runs"]
        assert list(runs) == ["0.1", "0.01"]
        growth = runs["0.01"]["iterations"] / runs["0.1"]["iterations"]
        assert check.details["iteration_growth"] == [growth]
        assert 5.0 <= growth <= 20.0
        assert check.passed


class TestNonquadSweep:
    def test_guaranteed_cell_converges(self, small_instance, rng):
        dc = prob.derive_constants(small_instance)
        r = 2 * dc.kappa
        eta_x, _ = dyn.default_stepsizes(small_instance.L, r, dyn.Scheme.HALF)
        rep = spec.spectral_report(small_instance, r, eta_x, dyn.Scheme.HALF)
        threshold = dc.mu_x / (8 * rep.basis_cond)
        a = 0.99 * math.sqrt(2 * small_instance.n * threshold / small_instance.L)
        nq = prob.NonQuadraticProblem(base=small_instance, a=a,
                                      b=rng.standard_normal(small_instance.n))
        assert prob.nonquad_hessian_deviation(nq) <= threshold
        traj = dyn.run(nq, _half_gda_config(small_instance, r, 500_000))
        assert traj.status.kind is dyn.StatusKind.CONVERGED
        assert traj.final_distance() <= 1e-6 * small_instance.L
        assert traj.primal_gaps is None  # gradient-norm metric has no gap

    def test_zero_perturbation_matches_quadratic(self, small_instance, rng):
        # a = 0 degenerates the oracle to the base instance exactly
        nq = prob.NonQuadraticProblem(base=small_instance, a=0.0,
                                      b=np.zeros(small_instance.n))
        for _ in range(5):
            z = small_instance.z_star + rng.standard_normal(small_instance.dim)
            gx, gy = prob.nonquad_grad(nq, z)
            bx, by = prob.grad(small_instance, z)
            assert np.array_equal(gx, bx) and np.array_equal(gy, by)
        r = 2 * prob.derive_constants(small_instance).kappa
        traj = dyn.run(nq, _half_gda_config(small_instance, r, 300_000))
        assert traj.status.kind is dyn.StatusKind.CONVERGED


def _half_gda_config(problem, r, max_iters):
    """The config of a one-cell GDA sweep at ratio ``r`` under the half
    stepsizes, stopping at gradient norm ``1e-6 * L``."""
    eta_x, eta_y = dyn.default_stepsizes(problem.L, r, dyn.Scheme.HALF)
    return dyn.SolverConfig(algorithm=dyn.Algorithm.GDA, eta_x=eta_x,
                            eta_y=eta_y, max_iters=max_iters,
                            target_eps=1e-6 * problem.L)


class TestOracleHelpers:
    def test_closed_form_2x2(self):
        M = np.array([[2.0, -2.0], [4.0, -2.0]])
        lam = verify._closed_form_2x2(M)
        assert np.allclose(lam, [-2j, 2j])

    @pytest.mark.parametrize("part", ["corpus", "2x2"])
    def test_eigensolver_oracle_fails_on_nan_eigenvalues(self, monkeypatch, part):
        # a NaN eigenvalue for every corpus matrix (or every 2x2 one) fails
        # the check with its errors reading NaN; a fold with Python's max
        # would not, as max(x, nan) keeps x
        corpus = verify.corpus_instances(1)
        general_eig = linalg.general_eig

        def nan_eig(M):
            lam, V = general_eig(M)
            if (len(M) > 2) == (part == "corpus"):
                lam = np.where(np.arange(len(lam)) == 0, np.nan, lam)
            return lam, V
        monkeypatch.setattr(linalg, "general_eig", nan_eig)
        check = verify.check_eigensolver_oracle(corpus, np.random.default_rng(1))
        assert not check.passed
        nan_keys = (["worst_residual_rel", "worst_trace_rel", "worst_det_rel"]
                    if part == "corpus" else ["worst_2x2_abs"])
        assert [k for k, v in check.details.items() if math.isnan(v)] == nan_keys

    def test_eigensolver_oracle_fails_on_empty_corpus(self):
        # the 56 2x2 matrices still pass; the corpus errors are 0.0 having
        # measured nothing
        check = verify.check_eigensolver_oracle([], np.random.default_rng(1))
        assert not check.passed
        assert [check.details[k] for k in
                ("worst_residual_rel", "worst_trace_rel", "worst_det_rel")] == [0.0] * 3
        assert check.details["worst_2x2_abs"] <= 1e-12

    def test_eigensolver_oracle_checks_the_eigenvalues_kernel(self, monkeypatch):
        # criterion 2 takes its radii from linalg.eigenvalues; a 1e-9 error
        # there, with general_eig left exact, fails criterion 8's 2x2 check
        corpus = verify.corpus_instances(1)
        assert verify.check_eigensolver_oracle(corpus, np.random.default_rng(1)).passed
        eigenvalues = linalg.eigenvalues
        monkeypatch.setattr(linalg, "eigenvalues", lambda M: eigenvalues(M) + 1e-9)
        check = verify.check_eigensolver_oracle(corpus, np.random.default_rng(1))
        assert not check.passed
        assert 1e-9 <= check.details["worst_2x2_abs"] < 2e-9
