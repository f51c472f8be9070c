"""Bregman divergences: the distortion family behind the bb-tree.

The paper's similarity search runs on the KL divergence, a member of the
Bregman family.  The tree, clustering and projection code are all written
against the :class:`~repro.divergence.base.BregmanDivergence` interface,
so any divergence here can be swapped in.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.divergence.base": ("BregmanDivergence",),
        "repro.divergence.kl": ("KLDivergence",),
        "repro.divergence.euclidean": ("SquaredEuclidean",),
        "repro.divergence.itakura_saito": ("ItakuraSaito",),
        "repro.divergence.mahalanobis": ("Mahalanobis",),
    },
)
