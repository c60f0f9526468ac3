import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minimax_gda import dynamics as dyn
from minimax_gda import harness
from minimax_gda import linalg
from minimax_gda import problems as prob
from minimax_gda import spectral as spec
from minimax_gda import verify
from minimax_gda.errors import InvalidInputError

QUARTER = dyn.Scheme.QUARTER
HALF = dyn.Scheme.HALF


def corpus(count, min_mu_x=1e-3, L=100.0, mu=1.0):
    out = []
    seed = 0
    while len(out) < count:
        p = prob.sample_instance(4, 4, L, mu, seed)
        if prob.derive_constants(p).mu_x > min_mu_x:
            out.append(p)
        seed += 1
    return out


class TestSpectralReport:
    def test_threshold_instance_at_critical_ratio(self):
        p = prob.hard_ratio_instance(2.0, 1.0)
        rep = spec.spectral_report(p, 2.0, 1.0 / 16)
        assert np.allclose(np.sort_complex(rep.eigenvalues), [-2j, 2j], atol=1e-10)
        assert rep.rho1 == pytest.approx(math.sqrt(1 + (2.0 / 16) ** 2), abs=1e-12)
        assert rep.rho1 > 1.0

    def test_rate_instance_radii(self):
        p = prob.hard_rate_instance(2.0, 1.0, 1.0)
        rep = spec.spectral_report(p, 4.0, 1.0 / 32)
        assert np.allclose(
            np.sort_complex(rep.eigenvalues),
            [complex(-1, -math.sqrt(3)), complex(-1, math.sqrt(3))],
            atol=1e-10,
        )
        assert rep.rho1 == pytest.approx(math.sqrt((31 / 32) ** 2 + 3 / 1024), abs=1e-12)
        assert rep.rho1 == pytest.approx(0.97026, abs=2e-5)
        # kappa_x = 2, so the proved quarter-scheme bound is 1 - 1/512
        assert rep.rho_bound == pytest.approx(1 - 1 / 512)
        assert rep.rho1 <= rep.rho_bound

    def test_primal_concave_flagged_nonconvergent(self):
        p = prob.QuadraticProblem(
            A=np.eye(2), B=np.zeros((2, 2)), C=-0.5 * np.eye(2),
            x_star=np.zeros(2), y_star=np.zeros(2), L=2.0, mu=1.0,
        )
        rep = spec.spectral_report(p, 4.0, 1.0 / 32)
        assert np.max(rep.eigenvalues.real) == pytest.approx(0.5)
        assert rep.rho1 > 1.0

    def test_scheme_constant(self):
        p = prob.hard_rate_instance(2.0, 1.0, 1.0)
        q = spec.spectral_report(p, 4.0, 1.0 / 32, QUARTER)
        h = spec.spectral_report(p, 4.0, 1.0 / 16, HALF)
        assert q.rate_constant == 64 and h.rate_constant == 16
        assert h.rho_bound == pytest.approx(1 - 1 / (16 * 4 * 2))

    def test_defective_transition_not_diagonalizable(self):
        # discriminant zero gives a double eigenvalue with a Jordan block
        p = prob.hard_rate_instance(2.0, 1.0, 0.25)
        rep = spec.spectral_report(p, 4.0, 1.0 / 32)
        assert not rep.diagonalizable
        assert rep.basis_cond is None

    def test_predicted_iters(self, reference_instance):
        dc = prob.derive_constants(reference_instance)
        r = 2 * dc.kappa
        eta_x, _ = dyn.default_stepsizes(reference_instance.L, r, QUARTER)
        rep = spec.spectral_report(reference_instance, r, eta_x)
        T = rep.predicted_iters(1e-6, initial_distance=1.0)
        assert T > 0
        assert rep.basis_cond * rep.rho1 ** T <= 1e-6
        assert rep.basis_cond * rep.rho1 ** (T - 1) > 1e-6

    def test_predicted_iters_overflow_is_inf(self, reference_instance):
        # a radius one ulp below 1 needs more than 2**62 steps to reach 1e-300
        dc = prob.derive_constants(reference_instance)
        r = 2 * dc.kappa
        eta_x, _ = dyn.default_stepsizes(reference_instance.L, r)
        rep = spec.spectral_report(reference_instance, r, eta_x)
        slow = dataclasses.replace(rep, rho1=np.nextafter(1.0, 0.0))
        assert slow.predicted_iters(1e-300) == math.inf
        # a looser target still fits below 2**62 steps
        assert slow.predicted_iters(1e-6) < 2 ** 62

    def test_eg_selector_accepts_enum_and_name(self, reference_instance):
        dc = prob.derive_constants(reference_instance)
        r = 2 * dc.kappa
        eta_x, _ = dyn.default_stepsizes(reference_instance.L, r)
        rep = spec.spectral_report(reference_instance, r, eta_x)
        EG = dyn.Algorithm.EG
        assert rep.dominant_modulus_gap(EG) == rep.dominant_modulus_gap("eg")
        # the EG answer differs from the GDA one, so a wrong selector shows
        assert rep.dominant_modulus_gap(EG) != rep.dominant_modulus_gap("gda")
        with pytest.raises(InvalidInputError):
            rep.dominant_modulus_gap("adam")

    def test_single_modulus_gap_is_inf(self):
        # at r = 2*kappa the hard instance's M has a complex pair, whose
        # transition eigenvalues share one modulus under GDA and EG alike
        p = prob.hard_ratio_instance(8.0, 1.0)
        eta_x, _ = dyn.default_stepsizes(p.L, 16.0)
        rep = spec.spectral_report(p, 16.0, eta_x)
        assert np.all(rep.eigenvalues.imag != 0)
        assert rep.dominant_modulus_gap("gda") == math.inf
        assert rep.dominant_modulus_gap("eg") == math.inf

    def test_report_json_stable_names(self):
        p = prob.hard_rate_instance(2.0, 1.0, 1.0)
        rep = spec.spectral_report(p, 4.0, 1.0 / 32)
        payload = json.loads(json.dumps(spec.report_to_json_dict(rep)))
        for key in ("eigenvalues", "rho1", "rho2", "rho_bound", "lemma_checks",
                    "diagonalizable", "basis_cond", "s_assumed", "kappa_x"):
            assert key in payload
        assert payload["eigenvalues"][0] == [
            pytest.approx(-1.0), pytest.approx(-math.sqrt(3)),
        ]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(list(dyn.Scheme)), st.sampled_from([0.5, 2.0, 8.0]))
    def test_report_json_round_trip_bit_exact(self, n, m, seed, scheme, factor):
        def bits(x):
            return None if x is None else np.float64(x).tobytes()

        p = prob.sample_instance(n, m, 100.0, 1.0, seed)
        r = factor * prob.derive_constants(p).kappa
        eta_x, _ = dyn.default_stepsizes(p.L, r, scheme)
        rep = spec.spectral_report(p, r, eta_x, scheme)
        payload = json.loads(json.dumps(spec.report_to_json_dict(rep), indent=1))
        lam = rep.eigenvalues
        assert (np.asarray(payload["eigenvalues"], dtype=float).tobytes()
                == np.column_stack([lam.real, lam.imag]).tobytes())
        for key in ("rho1", "rho2", "rho_bound", "basis_cond", "M_norm", "r",
                    "eta_x", "L", "mu", "mu_x", "kappa"):
            assert bits(payload[key]) == bits(getattr(rep, key)), key
        kappa_x = None if math.isinf(rep.kappa_x) else rep.kappa_x
        assert bits(payload["kappa_x"]) == bits(kappa_x)
        assert payload["rate_constant"] == rep.rate_constant
        assert payload["diagonalizable"] is rep.diagonalizable
        assert payload["s_assumed"] == 1
        for c, d in zip(rep.lemma_checks, payload["lemma_checks"], strict=True):
            assert (d["item"], d["applicable"], d["passed"]) == (c.item, c.applicable, c.passed)
            assert bits(d["margin"]) == bits(c.margin if math.isfinite(c.margin) else None)


class TestLazyBasisCond:
    """``spectral_report`` solves for eigenvalues only; ``basis_cond`` runs
    the eigenvector solve and its SVD once, on first read."""

    @pytest.mark.parametrize("case", ["corpus", "defective"])
    def test_first_read_solves_once(self, case, reference_instance, eigvec_calls):
        if case == "corpus":
            p, r = reference_instance, 2 * prob.derive_constants(reference_instance).kappa
        else:  # a Jordan block: the basis condition number exceeds the cap
            p, r = prob.hard_rate_instance(2.0, 1.0, 0.25), 4.0
        eta_x, _ = dyn.default_stepsizes(p.L, r)
        rep = spec.spectral_report(p, r, eta_x)
        assert eigvec_calls == {"general_eig": 0, "cond_2": 0}
        first = rep.basis_cond
        assert eigvec_calls == {"general_eig": 1, "cond_2": 1}
        assert rep.basis_cond is first and rep.diagonalizable == (first is not None)
        assert eigvec_calls == {"general_eig": 1, "cond_2": 1}
        cond = linalg.cond_2(linalg.general_eig(dyn.build_M(p, r))[1])
        assert first == (cond if cond <= spec.DIAGONALIZABLE_COND_CAP else None)
        assert (first is None) == (case == "defective")

    def test_replace_keeps_the_matrix(self, reference_instance):
        r = 2 * prob.derive_constants(reference_instance).kappa
        eta_x, _ = dyn.default_stepsizes(reference_instance.L, r)
        rep = spec.spectral_report(reference_instance, r, eta_x)
        slow = dataclasses.replace(rep, rho1=0.5)
        assert slow.rho1 == 0.5 and slow.M is rep.M
        assert slow.basis_cond == rep.basis_cond

    def test_matrix_read_only_and_out_of_repr(self, reference_instance):
        r = 2 * prob.derive_constants(reference_instance).kappa
        eta_x, _ = dyn.default_stepsizes(reference_instance.L, r)
        rep = spec.spectral_report(reference_instance, r, eta_x)
        assert np.array_equal(rep.M, dyn.build_M(reference_instance, r))
        assert not rep.M.flags.writeable
        with pytest.raises(ValueError):
            rep.M[0, 0] = 0.0
        field = {f.name: f for f in dataclasses.fields(rep)}["M"]
        assert not field.compare and not field.repr
        assert "M=" not in repr(rep)


class TestValueObjects:
    """A report and its lemma checks are immutable values: a report is a
    frozen dataclass holding exactly its fields, a lemma check a record that
    compares by value."""

    @staticmethod
    def _report(reference_instance):
        r = 2 * prob.derive_constants(reference_instance).kappa
        eta_x, _ = dyn.default_stepsizes(reference_instance.L, r)
        return spec.spectral_report(reference_instance, r, eta_x)

    def test_report_fields_cannot_be_assigned(self, reference_instance):
        rep = self._report(reference_instance)
        for f in dataclasses.fields(rep):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rep, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(rep, f.name)

    def test_report_holds_exactly_its_fields(self, reference_instance):
        rep = self._report(reference_instance)
        names = [f.name for f in dataclasses.fields(rep)]
        assert list(vars(rep)) == names
        # replace() runs the dataclass __init__ (that it keeps M is
        # TestLazyBasisCond's); the lazy basis_cond is stored beside the fields
        copy = dataclasses.replace(rep)
        assert copy == rep and list(vars(copy)) == names
        cond = rep.basis_cond
        assert list(vars(rep)) == names + ["basis_cond"] and vars(rep)["basis_cond"] == cond

    def test_lemma_checks_are_values(self, reference_instance):
        checks = self._report(reference_instance).lemma_checks
        assert type(checks) is tuple and len(checks) == 5
        assert checks == self._report(reference_instance).lemma_checks
        c = checks[0]
        assert c == spec.LemmaCheck(c.item, c.applicable, c.passed, c.margin)
        assert c != spec.LemmaCheck(c.item, c.applicable, c.passed, c.margin + 1.0)
        assert hash(c) == hash(spec.LemmaCheck(*c))
        for name in ("item", "applicable", "passed", "margin"):
            with pytest.raises(AttributeError):
                setattr(c, name, None)

    @pytest.mark.parametrize("r, scale", [(0.5, 1.0), (2.0, 1.0), (1e160, 1e160)])
    def test_passed_is_a_bool(self, r, scale):
        # not-applicable items, judged items and item 3 judged on scaled
        # bounds once the squares overflow
        lam = scale * np.array([-1.0 + 1.0j, -1.0 - 1.0j, -3.0])
        for c in spec.check_lemma_spectral(lam, 4.0 * scale, 1.0, 1.0, 0.5, r):
            assert type(c.passed) is bool and type(c.applicable) is bool


class TestBasisCondCap:
    """``DIAGONALIZABLE_COND_CAP`` is the one usability rule: a condition
    number at or below it is kept as ``basis_cond``, anything above it
    (``inf`` for a singular basis included) leaves the basis unusable."""

    @pytest.mark.parametrize("cond", [
        1e8 * (1 - 1e-12), 1e8, 1e8 * (1 + 1e-12), 1e12, 1e17, math.inf,
    ])
    def test_cap(self, cond, reference_instance, monkeypatch):
        assert spec.DIAGONALIZABLE_COND_CAP == 1e8
        monkeypatch.setattr(spec.linalg, "cond_2", lambda V: cond)
        dc = prob.derive_constants(reference_instance)
        r = 2 * dc.kappa
        eta_x, _ = dyn.default_stepsizes(reference_instance.L, r)
        rep = spec.spectral_report(reference_instance, r, eta_x)
        usable = cond <= 1e8
        assert rep.basis_cond == (cond if usable else None)
        assert rep.diagonalizable == (rep.basis_cond is not None)
        assert rep.rho1 < 1.0
        assert (rep.predicted_iters(1e-6) == math.inf) == (not usable)
        payload = json.loads(json.dumps(spec.report_to_json_dict(rep)))
        assert payload["basis_cond"] == rep.basis_cond
        assert payload["diagonalizable"] is rep.diagonalizable


class TestRadiiMatchDynamics:
    """``rho1``/``rho2`` come from the eigenvalues of ``M`` through the
    polynomials ``1 + h lam`` and ``1 + h lam + (h lam)^2``; ``run`` steps
    with the matrices ``linear_system`` builds from the same polynomials.
    The two encodings must give one spectral radius."""

    # absolute, fixed before any draw: the radii are O(1), and eigenvalues
    # of an O(1) matrix are exact to a few ulps times its basis condition
    TOL = 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 32 - 1),
           st.floats(-2.0, 3.0), st.sampled_from(list(dyn.Scheme)))
    def test_radii_equal_transition_eigenvalues(self, n, m, seed, log2_ratio, scheme):
        p = prob.sample_instance(n, m, 100.0, 1.0, seed)
        r = prob.derive_constants(p).kappa * 2.0 ** log2_ratio
        eta_x, eta_y = dyn.default_stepsizes(p.L, r, scheme)
        rep = spec.spectral_report(p, r, eta_x, scheme)
        for alg, rho in ((dyn.Algorithm.GDA, rep.rho1), (dyn.Algorithm.EG, rep.rho2)):
            T, _ = dyn.linear_system(p, dyn.SolverConfig(
                algorithm=alg, eta_x=eta_x, eta_y=eta_y, max_iters=1, target_eps=1.0))
            assert abs(np.abs(np.linalg.eigvals(T)).max() - rho) <= self.TOL


def _reference_report(problem, r, eta_x, scheme):
    """The report's fields as ``spectral_report`` computed them with numpy
    reductions over the spectrum, before its checks took one pass over
    Python floats: a copy of that code, ``build_M`` included."""
    n, dc = problem.n, prob.derive_constants(problem)
    M = np.empty((problem.dim, problem.dim))
    M[:n, :n], M[:n, n:] = -problem.C, -problem.B
    with np.errstate(over="ignore"):
        M[n:, :n], M[n:, n:] = r * problem.B.T, -r * problem.A
    M_norm = linalg.spectral_norm(M)
    lam = linalg.eigenvalues(M)
    with np.errstate(over="ignore", invalid="ignore"):
        h = eta_x * lam
        t1 = 1.0 + h
        gda, eg = np.fmin(np.abs(t1), math.inf), np.fmin(np.abs(t1 + h ** 2), math.inf)
    c = dyn.Scheme(scheme).rate_constant

    L, mu, mu_x = problem.L, problem.mu, dc.mu_x
    tol = spec.LEMMA_CHECK_RTOL * M_norm
    kappa = L / mu
    re, im = lam.real, lam.imag
    is_complex = np.abs(im) > spec.REAL_EIG_RTOL * M_norm

    def judged(margin, slack=tol):
        margin = float(margin)
        return margin >= -slack, margin

    verdicts = {1: judged(math.sqrt(r) * L - np.max(np.abs(im)))}
    if r > kappa:
        verdicts[2] = judged(np.min(-mu * (r - kappa) / 2.0 - re[is_complex],
                                    initial=math.inf))
        verdicts[4] = judged(np.min(-mu_x - re[~is_complex], initial=math.inf))
        if mu_x > 0:
            verdicts[5] = judged(-np.max(re))
    if r >= 1.0:
        try:
            M_sq = M_norm ** 2
            verdicts[3] = judged(min(M_sq - float(np.max(re ** 2 + im ** 2)),
                                     4.0 * r ** 2 * L ** 2 - M_sq), tol * M_norm)
        except OverflowError:
            q = float(np.max(np.abs(lam))) / M_norm
            p = 2.0 * r * L / M_norm
            scaled = min(1.0 - q * q, p * p - 1.0)
            margin3 = float(M_norm * (M_norm * scaled))
            verdicts[3] = (bool(scaled >= -spec.LEMMA_CHECK_RTOL),
                           margin3 if math.isfinite(margin3) else math.nan)
    checks = [(k, k in verdicts, *verdicts.get(k, (True, math.nan))) for k in range(1, 6)]
    return {"eigenvalues": lam, "M": M, "rho1": float(np.max(gda)), "rho2": float(np.max(eg)),
            "rho_bound": 1.0 - 1.0 / (c * r * dc.kappa_x), "M_norm": M_norm,
            "lemma_checks": checks}


class TestReportMatchesReference:
    """``spectral_report`` gives the reference's bits, with two LAPACK
    calls per report and no eigenvector solve."""

    KERNELS = ("spectral_norm", "eigenvalues", "general_eig", "cond_2")

    @staticmethod
    def bits(x):
        return "nan" if x != x else np.float64(x).tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(list(dyn.Scheme)),
           st.sampled_from(["below 1", "kappa", "squares overflow"]), st.floats(0.0, 1.0))
    def test_bit_identical(self, n, m, seed, scheme, kind, u):
        p = prob.sample_instance(n, m, 100.0, 1.0, seed)
        # r < 1 leaves item 3 vacuous; above about 1e154, |M|_2^2 leaves the
        # floats and item 3 is judged on scaled bounds
        r = {"below 1": 0.01 + 0.98 * u,
             "kappa": prob.derive_constants(p).kappa * 2.0 ** (16.0 * u - 4.0),
             "squares overflow": 10.0 ** (155.0 + 145.0 * u)}[kind]
        eta_x, _ = dyn.default_stepsizes(p.L, r, scheme)
        self.assert_matches(p, r, eta_x, scheme)

    # eigenvalues of modulus 2 (an imaginary pair), 4 (real) and 24 to 2e4
    # (a corpus instance at r = 2*kappa): at eta_x = 1e154, h^2 overflows
    # and 1 + h + h^2 is inf; at 1.7e308, h itself overflows, and on a real
    # eigenvalue 1 + h + h^2 is -inf + inf, a NaN the moduli map to inf
    @pytest.mark.parametrize("eta_x", [1e154, 1e300, 1.7e308])
    @pytest.mark.parametrize("case", ["imaginary pair", "real", "corpus"])
    def test_bit_identical_where_moduli_overflow(self, case, eta_x, reference_instance):
        p, r = {"imaginary pair": (prob.hard_ratio_instance(2.0, 1.0), 2.0),
                "real": (prob.QuadraticProblem(A=[[1.0]], B=[[0.0]], C=[[4.0]], x_star=[0.0],
                                               y_star=[0.0], L=4.0, mu=1.0), 4.0),
                "corpus": (reference_instance,
                           2.0 * prob.derive_constants(reference_instance).kappa)}[case]
        rep = self.assert_matches(p, r, eta_x, QUARTER)
        assert rep.rho2 == math.inf
        assert (rep.rho1 == math.inf) is (eta_x == 1.7e308)

    def assert_matches(self, p, r, eta_x, scheme):
        """The report of ``p`` at ``(r, eta_x, scheme)`` against the
        reference, bit for bit, and its radii against the maxima of the
        transition moduli ``dominant_modulus_gap`` reads."""
        want = _reference_report(p, r, eta_x, scheme)
        calls = dict.fromkeys(self.KERNELS, 0)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        with pytest.MonkeyPatch.context() as mp:
            for name in self.KERNELS:
                mp.setattr(linalg, name, counted(name, getattr(linalg, name)))
            rep = spec.spectral_report(p, r, eta_x, scheme)
        assert calls == {"spectral_norm": 1, "eigenvalues": 1, "general_eig": 0, "cond_2": 0}
        assert rep.eigenvalues.tobytes() == want["eigenvalues"].tobytes()
        assert rep.M.tobytes() == want["M"].tobytes()
        for key in ("rho1", "rho2", "rho_bound", "M_norm"):
            assert self.bits(getattr(rep, key)) == self.bits(want[key]), key
        for c, (item, applicable, passed, margin) in zip(rep.lemma_checks,
                                                         want["lemma_checks"], strict=True):
            assert (c.item, c.applicable, c.passed) == (item, applicable, passed)
            assert type(c.passed) is type(passed) is bool
            assert self.bits(c.margin) == self.bits(margin), item
        gda, eg = spec._transition_moduli(rep.eigenvalues, rep.eta_x)
        assert (self.bits(rep.rho1), self.bits(rep.rho2)) == (self.bits(np.max(gda)),
                                                               self.bits(np.max(eg)))
        return rep


class TestLemmaChecks:
    def test_corpus_all_pass(self):
        for p in corpus(30):
            dc = prob.derive_constants(p)
            r = 2 * dc.kappa
            eta_x, _ = dyn.default_stepsizes(p.L, r, QUARTER)
            rep = spec.spectral_report(p, r, eta_x)
            assert all(c.passed for c in rep.lemma_checks)
            applicable = [c for c in rep.lemma_checks if c.applicable]
            assert len(applicable) == 5  # mu_x > 0 and r > kappa: all live

    def test_item3_hard_ratio(self):
        p = prob.hard_ratio_instance(2.0, 1.0)
        rep = spec.spectral_report(p, 2.0, 1.0 / 16)
        item3 = rep.lemma_checks[2]
        assert item3.applicable and item3.passed
        radius_sq = max(abs(l) ** 2 for l in rep.eigenvalues)
        assert radius_sq == pytest.approx(4.0, abs=1e-9)
        assert 4.0 <= rep.M_norm ** 2 <= 4 * 2 ** 2 * 2 ** 2

    @pytest.mark.parametrize("norm, passed", [(1.5, True), (1.4, False), (2.1, False)])
    @pytest.mark.parametrize("scale", [1.0, 1e160])
    def test_item3_judged_where_squares_overflow(self, scale, norm, passed):
        # eigenvalues of modulus sqrt(2)*scale against |M|_2 = norm*scale and
        # 2rL = 2*scale: the verdict does not depend on the scale, and the
        # margin is kept only where it is a finite double
        lam = scale * np.array([-1.0 + 1.0j, -1.0 - 1.0j])
        item3 = spec.check_lemma_spectral(lam, norm * scale, 1.0, 1.0, 1.0, scale)[2]
        assert item3.applicable and item3.passed is passed
        if scale == 1.0:
            assert item3.margin == min(norm ** 2 - 2.0, 4.0 - norm ** 2)
        else:
            assert math.isnan(item3.margin)

    def test_item1_hard_ratio(self):
        p = prob.hard_ratio_instance(2.0, 1.0)
        rep = spec.spectral_report(p, 2.0, 1.0 / 16)
        item1 = rep.lemma_checks[0]
        assert item1.passed
        # |imag| = 2 <= sqrt(2)*2
        assert item1.margin == pytest.approx(math.sqrt(2) * 2 - 2, abs=1e-9)

    def test_below_kappa_items_not_applicable(self):
        p = prob.hard_ratio_instance(2.0, 1.0)
        rep = spec.spectral_report(p, 1.0, 1.0 / 16)
        by_item = {c.item: c for c in rep.lemma_checks}
        assert not by_item[2].applicable
        assert not by_item[4].applicable
        assert not by_item[5].applicable

    def test_radius_below_operator_norm_and_2rL(self):
        for p in corpus(10):
            dc = prob.derive_constants(p)
            for r in (2 * dc.kappa, 2 * dc.kappa ** 2):
                M = dyn.build_M(p, r)
                lam = np.linalg.eigvals(M)
                from minimax_gda.linalg import spectral_norm
                nm = spectral_norm(M)
                assert np.max(np.abs(lam)) <= nm * (1 + 1e-12)
                assert nm <= 2 * r * p.L * (1 + 1e-12)


class TestPowerBound:
    """The envelope ``C_P * rho1^k * d0`` behind ``predicted_iters``."""

    @staticmethod
    def _report(basis_cond, rho1):
        p = prob.hard_rate_instance(2.0, 1.0, 1.0)
        rep = dataclasses.replace(spec.spectral_report(p, 4.0, 1.0 / 32), rho1=rho1)
        # basis_cond is computed on first read; store the value to test as read
        vars(rep)["basis_cond"] = basis_cond
        return rep

    def test_diagonalizable_case(self):
        rep = self._report(3.0, 0.9)
        assert rep.predicted_iters(3.0 * 0.9 ** 20 * (1 + 1e-9)) == 20
        assert rep.predicted_iters(3.0 * 0.9 ** 20 * (1 - 1e-9)) == 21

    def test_invalid_rho(self):
        assert self._report(3.0, 1.0).predicted_iters(1e-6) == math.inf
        assert self._report(None, 0.9).predicted_iters(1e-6) == math.inf

    def test_zero_radius_takes_one_step(self):
        # M = -4 I and eta_x = 1/4: one GDA step lands on the optimum
        p = prob.QuadraticProblem(A=[[1.0]], B=[[0.0]], C=[[4.0]], x_star=[0.0],
                                  y_star=[0.0], L=4.0, mu=1.0)
        rep = spec.spectral_report(p, 4.0, 0.25)
        assert rep.rho1 == 0.0 and rep.basis_cond == 1.0
        assert rep.predicted_iters(1e-6) == 1

    def test_start_within_eps_takes_no_steps(self):
        rep = self._report(3.0, 0.9)
        assert rep.predicted_iters(1e-3, initial_distance=1e-3) == 0
        assert rep.predicted_iters(1e-3, initial_distance=1e-4) == 0
        # C_P > 1 still needs steps when d0 is just above eps
        assert rep.predicted_iters(1e-3, initial_distance=1.01e-3) > 0

    # relative, fixed before any draw: rho is exact to about basis_cond * eps
    # relative, which the 4096th power multiplies by 4096 (1e4 * 2.2e-16 *
    # 4096 ~ 1e-8), and each of the 12 squarings behind T^4096 adds about
    # dim * basis_cond * eps (~ 4e-11)
    ENVELOPE_RTOL = 1e-6

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 32 - 1),
           st.floats(0.3, 4.0), st.floats(-2.0, 3.0),
           st.sampled_from(list(dyn.Scheme)), st.booleans())
    def test_envelope_bounds_transition_powers(self, n, m, seed, log_kappa,
                                               log2_ratio, scheme, convex):
        """``rho^k <= |T^k|_2 <= basis_cond * rho^k`` for the transition
        ``T`` of ``linear_system``, GDA with ``rho1`` and EG with ``rho2``:
        the radius bounds every power from below and the eigenbasis
        condition number ``C_P`` bounds it from above.  Checked on the
        powers of ``T / rho``, which neither overflow nor underflow."""
        p = prob.sample_instance(n, m, 1.0, 10.0 ** -log_kappa, seed,
                                 primal_convex=convex)
        r = prob.derive_constants(p).kappa * 2.0 ** log2_ratio
        eta_x, eta_y = dyn.default_stepsizes(p.L, r, scheme)
        rep = spec.spectral_report(p, r, eta_x, scheme)
        assume(rep.basis_cond is not None and rep.basis_cond <= 1e4)
        for alg, rho in ((dyn.Algorithm.GDA, rep.rho1), (dyn.Algorithm.EG, rep.rho2)):
            T, _ = dyn.linear_system(p, dyn.SolverConfig(
                algorithm=alg, eta_x=eta_x, eta_y=eta_y, max_iters=1, target_eps=1.0))
            for k in (1, 64, 4096):
                growth = np.linalg.norm(np.linalg.matrix_power(T / rho, k), 2)
                assert 1.0 - self.ENVELOPE_RTOL <= growth, (alg, k)
                assert growth <= rep.basis_cond * (1.0 + self.ENVELOPE_RTOL), (alg, k)


def _bisection_iters(rep, eps, initial_distance):
    """The doubling-and-bisection search the closed form replaced: the
    smallest T >= 1 with ``C_P * rho1^T * d0 <= eps`` (0 when d0 <= eps)."""
    rho, cond = rep.rho1, rep.basis_cond
    if rho >= 1.0 or cond is None:
        return math.inf
    if initial_distance <= eps:
        return 0
    lo, hi = 0, 2
    while cond * rho ** hi * initial_distance > eps:
        hi *= 2
        if hi > 2 ** 62:
            return math.inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cond * rho ** mid * initial_distance <= eps:
            hi = mid
        else:
            lo = mid
    return hi


@functools.lru_cache(maxsize=None)
def _corpus_reports():
    """Reports for 20 corpus instances, each at r = 2k, 8k and 2k^2."""
    reports = []
    for p in corpus(20):
        kappa = prob.derive_constants(p).kappa
        for r in (2 * kappa, 8 * kappa, 2 * kappa ** 2):
            reports.append(spec.spectral_report(p, r, dyn.default_stepsizes(p.L, r)[0]))
    return tuple(reports)


class TestClosedFormMatchesBisection:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 59), st.floats(1e-12, 0.1), st.floats(1e-3, 1e3))
    def test_within_one_step_on_corpus(self, cell, eps, d0):
        rep = _corpus_reports()[cell]
        closed = rep.predicted_iters(eps, initial_distance=d0)
        reference = _bisection_iters(rep, eps, d0)
        assert math.isfinite(closed) == math.isfinite(reference)
        if math.isfinite(reference):
            assert abs(closed - reference) <= 1

    def test_exact_on_criterion_6_and_7_instances(self, monkeypatch):
        # every budget criteria 6 and 7 size from the envelope, recorded
        # from the drivers themselves
        calls = []
        closed_form = spec.SpectralReport.predicted_iters

        def recorded(rep, eps, initial_distance=1.0):
            calls.append((rep, eps, initial_distance))
            return closed_form(rep, eps, initial_distance)

        monkeypatch.setattr(spec.SpectralReport, "predicted_iters", recorded)
        floor_inst = verify.corpus_instances(
            1, start_seed=0, min_mu_x=10.0, max_mu_x=60.0)[0][1]
        r = 2.0 * prob.derive_constants(floor_inst).kappa
        harness.sgda_floor_sweep(floor_inst, r, 1.0, (16, 64, 256, 1024), (0,))
        for seed in range(6):
            verify.check_mux_zero(seed=seed)
        assert len(calls) == 1 + 6 * 2
        for rep, eps, d0 in calls:
            assert closed_form(rep, eps, d0) == _bisection_iters(rep, eps, d0)


class TestClassifyRatio:
    def test_boundaries(self):
        kappa = 7.0
        assert spec.classify_ratio(kappa, kappa) is spec.RatioClass.BELOW_THRESHOLD
        assert spec.classify_ratio(2 * kappa, kappa) is spec.RatioClass.PROVED_CONVERGENT
        assert spec.classify_ratio(1.5 * kappa, kappa) is spec.RatioClass.GAP

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_not_positive_finite_rejected(self, bad):
        # a NaN would otherwise fall through both comparisons to GAP
        for r, kappa in ((bad, 7.0), (14.0, bad)):
            with pytest.raises(InvalidInputError, match="positive and finite"):
                spec.classify_ratio(r, kappa)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
           st.floats(1e-2, 10.0), st.floats(1.5, 1e3),
           st.sampled_from(["below", "at", "above", "free"]), st.floats(0.1, 10.0))
    def test_below_threshold_exactly_when_items_2_and_4_vacuous(
            self, n, m, seed, mu, kappa, where, factor):
        # the certified-divergence class and the lemma's r > kappa regime
        # split the ratios at the same point, ties included
        p = prob.sample_instance(n, m, kappa * mu, mu, seed)
        kappa = prob.derive_constants(p).kappa
        r = {"below": np.nextafter(kappa, 0.0), "at": kappa,
             "above": np.nextafter(kappa, math.inf), "free": factor * kappa}[where]
        eta_x, _ = dyn.default_stepsizes(p.L, r)
        rep = spec.spectral_report(p, r, eta_x)
        applicable = {c.item: c.applicable for c in rep.lemma_checks}
        below = spec.classify_ratio(r, rep.kappa) is spec.RatioClass.BELOW_THRESHOLD
        assert applicable[2] == applicable[4] == (not below)


class TestPredictedFloor:
    def test_zero_sigma(self):
        assert spec.predicted_floor_sgda(200, 2, 3, 0.0, 100, 256) == 0.0

    def test_halves_with_batch(self):
        a = spec.predicted_floor_sgda(200, 2, 3, 1.0, 100, 128)
        b = spec.predicted_floor_sgda(200, 2, 3, 1.0, 100, 256)
        assert a == pytest.approx(2 * b)

    @pytest.mark.parametrize("field", ["r", "kappa_x", "basis_cond", "sigma", "L",
                                       "batch"])
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_parameter_out_of_range_rejected(self, field, bad):
        # NaN inputs gave a NaN floor, and batch = inf a zero one
        args = {"r": 200, "kappa_x": 2, "basis_cond": 3, "sigma": 1.0,
                "L": 100, "batch": 256, field: bad}
        with pytest.raises(InvalidInputError, match="positive and finite"):
            spec.predicted_floor_sgda(**args)

    def test_arithmetic_example(self):
        val = spec.predicted_floor_sgda(200, 2, 3, 1.0, 100, 256)
        assert val == pytest.approx(8 * 200 * 2 * 9 / (1e4 * 256))
        assert val == pytest.approx(0.01125)


class TestBoundOnCorpus:
    def test_radius_bound_three_ratios(self):
        for p in corpus(15):
            dc = prob.derive_constants(p)
            for r in (2 * dc.kappa, 4 * dc.kappa, 2 * dc.kappa ** 2):
                eta_x, _ = dyn.default_stepsizes(p.L, r, QUARTER)
                rep = spec.spectral_report(p, r, eta_x)
                assert max(rep.rho1, rep.rho2) <= rep.rho_bound + 1e-9

    def test_radii_below_crude_norm_bounds(self):
        for p in corpus(5):
            dc = prob.derive_constants(p)
            r = 2 * dc.kappa
            eta_x, _ = dyn.default_stepsizes(p.L, r, QUARTER)
            rep = spec.spectral_report(p, r, eta_x)
            crude = eta_x * rep.M_norm
            assert rep.rho1 <= 1 + crude + 1e-12
            assert rep.rho2 <= 1 + crude + crude ** 2 + 1e-12
