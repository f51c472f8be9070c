"""TIC parameter learning from propagation logs (Barbieri et al.)."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.learning.propagation_log": (
            "ItemTrace",
            "PropagationLog",
            "generate_propagation_log",
        ),
        "repro.learning.tic_em": ("TICLearner", "TICLearningResult"),
        "repro.learning.evaluation": (
            "held_out_log_likelihood_curve",
            "match_topics",
            "parameter_recovery_correlation",
        ),
        "repro.learning.model_selection": (
            "TopicSelectionResult",
            "select_num_topics",
        ),
    },
)
