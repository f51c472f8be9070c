"""Bregman ball tree: similarity search under non-metric divergences."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.bbtree.tree": ("BBTree", "BBTreeNode"),
        "repro.bbtree.projection": (
            "ProjectionResult",
            "can_prune",
            "project_to_ball",
        ),
        "repro.bbtree.search": (
            "SearchResult",
            "SearchStats",
            "exact_nearest_neighbors",
            "inflex_search",
            "leaf_limited_search",
            "range_search",
            "similar_enough",
        ),
    },
)
