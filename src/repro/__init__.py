"""repro: a full reproduction of "Online Topic-aware Influence
Maximization Queries" (Aslay, Barbieri, Bonchi, Baeza-Yates; EDBT 2014).

The package implements the paper's INFLEX index and every substrate it
depends on:

* :mod:`repro.core` — the INFLEX index (build + millisecond TIM queries);
* :mod:`repro.graph` — topic-weighted social graphs and generators;
* :mod:`repro.propagation` — IC/TIC cascade models and spread estimation;
* :mod:`repro.learning` — EM learning of TIC parameters from logs;
* :mod:`repro.im` — greedy / CELF++ / RIS / IMM influence maximization;
* :mod:`repro.simplex` — Dirichlet MLE, KL divergence, simplex sampling;
* :mod:`repro.divergence` — the Bregman divergence family;
* :mod:`repro.clustering` — Bregman K-means++ and G-means;
* :mod:`repro.bbtree` — the Bregman ball tree and its searches;
* :mod:`repro.ranking` — Kendall-tau, Borda/Copeland/MC4, Kemeny;
* :mod:`repro.stats` — Anderson--Darling test, t-tests, error metrics;
* :mod:`repro.datasets` — the synthetic Flixster stand-in and workloads;
* :mod:`repro.experiments` — one module per table/figure of the paper.

Quickstart::

    from repro.datasets import generate_flixster_like
    from repro.core import InflexIndex, InflexConfig

    data = generate_flixster_like(num_nodes=1000, num_topics=6,
                                  num_items=300, seed=1)
    index = InflexIndex.build(data.graph, data.item_topics,
                              InflexConfig(num_index_points=64))
    answer = index.query(data.item_topics[0], k=10)
    print(answer.seeds.nodes, answer.timing.total)
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.config": ("InflexConfig",),
        "repro.core.index": ("InflexIndex",),
        "repro.core.query": ("TimAnswer", "TimQuery"),
        "repro.errors": (
            "ConvergenceError",
            "EmptyIndexError",
            "InvalidDistributionError",
            "InvalidGraphError",
            "QueryError",
            "ReproError",
        ),
        "repro.graph.topic_graph": ("TopicGraph",),
        "repro.im.seed_list": ("SeedList",),
    },
)

__version__ = "1.0.0"
__all__.append("__version__")
