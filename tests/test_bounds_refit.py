"""Tests for Fig.-5 t-tests and EM warm starts."""

import numpy as np
import pytest

from repro.experiments import fig5_retrieval_recall, get_context
from repro.graph import interest_topic_graph
from repro.learning import TICLearner, generate_propagation_log
from repro.learning.propagation_log import PropagationLog


class TestFig5Comparisons:
    def test_paired_tests_available(self):
        context = get_context("test")
        result = fig5_retrieval_recall.run(context, num_queries=12)
        budget = result.leaf_budgets[-1]
        k = result.k_values[-1]
        recall_test, computation_test = result.compare_with_budget(
            budget, k=k
        )
        assert 0.0 <= recall_test.p_value <= 1.0
        # The AD stop performs at most as many computations as the full
        # budget on every query, so the mean difference is <= 0.
        assert computation_test.mean_difference <= 1e-9

    def test_compare_validation(self):
        context = get_context("test")
        result = fig5_retrieval_recall.run(context, num_queries=8)
        with pytest.raises(ValueError):
            result.compare_with_budget(999)
        with pytest.raises(ValueError):
            result.compare_with_budget(result.leaf_budgets[0], k=999)


class TestRefitWithNewItems:
    @pytest.fixture(scope="class")
    def setup(self):
        graph = interest_topic_graph(
            100, 3, topics_per_node=1, base_strength=0.25, seed=71
        )
        rng = np.random.default_rng(72)
        items = rng.dirichlet(np.full(3, 0.3), size=120)
        old_log = generate_propagation_log(
            graph, items[:90], seeds_per_item=5, seed=73
        )
        new_log = generate_propagation_log(
            graph, items[90:], seeds_per_item=5, seed=74
        )
        learner = TICLearner(graph, 3, max_iter=20, seed=75)
        result = learner.fit(old_log, init_item_topics="trace-clustering")
        return graph, learner, result, old_log, new_log

    def test_covers_all_items(self, setup):
        _, learner, result, old_log, new_log = setup
        refined = learner.refit_with_new_items(
            result, old_log, new_log, max_iter=5
        )
        assert refined.item_topics.shape[0] == (
            old_log.num_items + new_log.num_items
        )
        assert np.allclose(refined.item_topics.sum(axis=1), 1.0)

    def test_warm_start_converges_fast(self, setup):
        _, learner, result, old_log, new_log = setup
        refined = learner.refit_with_new_items(
            result, old_log, new_log, max_iter=8
        )
        # A handful of warm iterations should suffice to converge (or
        # at least monotonically improve without regressing).
        assert len(refined.history) <= 8
        assert refined.history[-1] >= refined.history[0] - 1e-6

    def test_validation(self, setup):
        graph, learner, result, old_log, new_log = setup
        with pytest.raises(ValueError):
            learner.refit_with_new_items(
                result, old_log, PropagationLog(old_log.num_nodes + 1)
            )
        with pytest.raises(ValueError):
            learner.refit_with_new_items(
                result, new_log, new_log  # result size mismatch
            )
        with pytest.raises(ValueError):
            learner.refit_with_new_items(
                result, old_log, new_log, max_iter=0
            )