"""Probability-simplex math: distributions over topics.

Items and TIM queries in the paper are points on the ``(Z-1)``-simplex.
This package provides everything needed to manipulate them:

* validation and smoothing of topic vectors (:mod:`repro.simplex.vectors`),
* Kullback--Leibler divergence in its sided and symmetrized forms
  (:mod:`repro.simplex.kl`),
* sampling on the simplex (:mod:`repro.simplex.sampling`),
* Dirichlet distribution with Minka's maximum-likelihood estimation
  (:mod:`repro.simplex.dirichlet`),
* the isometric log-ratio transform used by the paper's Figure 3
  (:mod:`repro.simplex.ilr`).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.simplex.vectors": (
            "as_distribution",
            "as_distribution_matrix",
            "is_distribution",
            "smooth",
            "uniform_distribution",
        ),
        "repro.simplex.kl": (
            "kl_divergence",
            "kl_divergence_matrix",
            "kl_max_bound",
            "symmetrized_kl",
        ),
        "repro.simplex.sampling": ("sample_uniform_simplex",),
        "repro.simplex.dirichlet": ("Dirichlet", "fit_dirichlet_mle"),
        "repro.simplex.ilr": ("ilr_transform", "ilr_inverse"),
    },
)
