"""Per-topic composable RR sketches — the second online strategy.

A preprocessing-based answering engine competing with INFLEX's bb-tree
retrieval: one topic-marginal RR pool per topic, composed at query time
for any ``gamma_q`` by mixture weighting (see :mod:`repro.sketches.bank`
and ``docs/SKETCHES.md``).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.sketches.bank": ("SketchBank",),
        "repro.sketches.persistence": ("load_sketches", "save_sketches"),
        "repro.sketches.shared": ("attach_sketches", "publish_sketches"),
    },
)
