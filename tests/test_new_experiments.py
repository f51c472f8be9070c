"""Tests for the significance and workload-split experiments."""

import numpy as np
import pytest

from repro.experiments import get_context, significance, workload_split


@pytest.fixture(scope="module")
def context():
    return get_context("test")


class TestSignificance:
    def test_structure(self, context):
        result = significance.run(context)
        assert ("inflex", "approx-knn") in result.strategy_tests
        assert ("copeland_w", "copeland") in result.aggregation_tests
        for test in result.strategy_tests.values():
            assert 0.0 <= test.p_value <= 1.0
        assert "t-tests" in result.render()

    def test_inflex_vs_approx_ad_direction(self, context):
        result = significance.run(context)
        test = result.strategy_tests[("inflex", "approx-ad")]
        # INFLEX should not be significantly WORSE than approxAD.
        if test.significant():
            assert test.mean_difference < 0


class TestWorkloadSplit:
    def test_both_kinds_present(self, context):
        result = workload_split.run(context)
        assert set(result.mean_distance) == {"data-driven", "uniform"}
        assert "robustness" in result.render()

    def test_robust_across_kinds(self, context):
        result = workload_split.run(context)
        # The paper's robustness claim: accuracy holds up on the
        # uniform stress half, not just the data-driven half.  (Note
        # the right-sided KL makes *sparse* data-driven queries the
        # retrieval-hard case: any index point with mass outside the
        # query's support diverges strongly, while mixed uniform
        # queries are close to everything.)
        dd = result.mean_distance["data-driven"]
        uniform = result.mean_distance["uniform"]
        assert dd < 0.6 and uniform < 0.6
        assert max(dd, uniform) <= 2.5 * max(min(dd, uniform), 1e-6)
        for value in result.mean_nn_divergence.values():
            assert np.isfinite(value)
