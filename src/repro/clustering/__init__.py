"""Bregman clustering: K-means++ seeding, Lloyd iterations, G-means."""

from repro._exports import lazy_exports

# The function shares its module's name, and importing a submodule binds
# the module over a lazily exported name: resolve this one up front.
from repro.clustering.gmeans import gmeans

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.clustering.kmeanspp": (
            "KMeansResult",
            "bregman_kmeans",
            "kmeanspp_seeding",
        ),
        "repro.clustering.gmeans": (
            "GMeansResult",
            "cluster_is_gaussian",
            "learn_branching_factor",
        ),
    },
)
__all__.append("gmeans")
