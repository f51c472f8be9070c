"""Experiment harness: one module per table/figure of the paper.

Usage pattern::

    from repro.experiments import get_context, fig6_accuracy
    context = get_context("demo")
    result = fig6_accuracy.run(context)
    print(result.render())

See DESIGN.md for the experiment-to-module index and
:mod:`repro.experiments.presets` for the scale presets.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.experiments": (
            "ablations",
            "drift",
            "engine_equivalence",
            "fig1_pipeline",
            "fig3_index_selection",
            "fig4_distance_correlation",
            "fig5_retrieval_recall",
            "fig6_accuracy",
            "fig7_runtime",
            "fig8_spread",
            "fig9_tradeoff",
            "latency",
            "robustness",
            "scaling",
            "significance",
            "table1_aggregation",
            "table3_spread_by_k",
            "workload_split",
        ),
        "repro.experiments.context": ("ExperimentContext", "get_context"),
        "repro.experiments.presets": (
            "DEMO",
            "PAPER_SHAPE",
            "PRESETS",
            "TEST",
            "ExperimentScale",
        ),
        "repro.experiments.reporting": ("format_series", "format_table"),
        "repro.experiments.export": (
            "export_json",
            "export_series_csv",
            "result_to_dict",
        ),
    },
)
