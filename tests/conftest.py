"""Shared fixtures for the test suite.

Expensive artifacts (graphs, datasets, a built INFLEX index) are
session-scoped: they are deterministic, read-only, and reused across
test modules.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import InflexConfig, InflexIndex
from repro.datasets import generate_flixster_like, generate_query_workload
from repro.graph import TopicGraph, interest_topic_graph

#: ``--hypothesis-profile=deep``: twenty times the default example
#: budget.  CI re-runs the search differential
#: (``tests/test_search_differential.py``, which takes a quarter of the
#: active budget per test) under it with a fixed ``--hypothesis-seed``.
settings.register_profile("deep", max_examples=2000)


@pytest.fixture(scope="session")
def tiny_graph() -> TopicGraph:
    """A 6-node, 2-topic graph with hand-written probabilities."""
    arcs = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)]
    probs = np.array(
        [
            [0.9, 0.1],
            [0.8, 0.1],
            [0.7, 0.2],
            [0.6, 0.1],
            [0.5, 0.3],
            [0.4, 0.4],
            [0.3, 0.2],
        ]
    )
    return TopicGraph.from_arcs(6, np.asarray(arcs), probs)


@pytest.fixture(scope="session")
def small_graph() -> TopicGraph:
    """A 200-node, 4-topic generated graph (deterministic)."""
    return interest_topic_graph(
        200, 4, topics_per_node=1, base_strength=0.2, seed=11
    )


@pytest.fixture(scope="session")
def small_dataset():
    """A small Flixster-like dataset with a propagation log."""
    return generate_flixster_like(
        num_nodes=250,
        num_topics=4,
        num_items=80,
        topics_per_node=1,
        base_strength=0.2,
        with_log=True,
        seed=13,
    )


@pytest.fixture(scope="session")
def small_index(small_dataset) -> InflexIndex:
    """An INFLEX index built over the small dataset."""
    config = InflexConfig(
        num_index_points=20,
        num_dirichlet_samples=1500,
        seed_list_length=12,
        ris_num_sets=1200,
        knn=6,
        leaf_size=8,
        seed=17,
    )
    return InflexIndex.build(
        small_dataset.graph, small_dataset.item_topics, config
    )


@pytest.fixture(scope="session")
def small_workload(small_dataset):
    """A 10-query workload over the small dataset's catalog."""
    return generate_query_workload(small_dataset.item_topics, 10, seed=19)


@pytest.fixture(autouse=True)
def _reset_observability():
    """Give every test a pristine observability state.

    Tests that enable :mod:`repro.obs` (or merely run code that
    records into the global registry while another test left it
    enabled) must not see each other's counters, spans, flight
    records, or logging configuration.  Resetting *after* each test —
    and restoring the disabled default — makes accumulated-count
    assertions deterministic regardless of execution order.
    """
    from repro import obs
    from repro.obs.flightrec import get_flight_recorder
    from repro.obs.logs import reset_logging

    yield
    obs.disable()
    obs.get_registry().reset()
    obs.get_tracer().clear()
    get_flight_recorder().clear()
    reset_logging()
