"""Directed social graphs with per-topic influence probabilities."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.graph.topic_graph": ("TopicGraph",),
        "repro.graph.generators": (
            "community_topic_graph",
            "erdos_renyi_topic_graph",
            "interest_topic_graph",
            "power_law_topic_graph",
        ),
        "repro.graph.io": (
            "load_arc_list",
            "load_graph",
            "save_arc_list",
            "save_graph",
        ),
        "repro.graph.metrics": (
            "GraphSummary",
            "per_topic_strength",
            "summarize_graph",
        ),
        "repro.graph.subgraph": (
            "SubgraphResult",
            "induced_subgraph",
            "largest_component",
            "strongly_connected_components",
            "weakly_connected_components",
        ),
    },
)
