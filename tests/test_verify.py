import numpy as np
import pytest

from minimax_gda import problems as prob
from minimax_gda import verify
from minimax_gda.errors import InvalidInputError


class TestCorpus:
    def test_deterministic_and_filtered(self):
        a = verify.corpus_instances(5, start_seed=0)
        b = verify.corpus_instances(5, start_seed=0)
        assert [s for s, _ in a] == [s for s, _ in b]
        for _, p in a:
            assert prob.derive_constants(p).mu_x > 1e-3

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


class TestOracleHelpers:
    def test_closed_form_2x2(self):
        M = np.array([[2.0, -2.0], [4.0, -2.0]])
        lam = verify._closed_form_2x2(M)
        assert np.allclose(lam, [-2j, 2j])
