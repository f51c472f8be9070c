"""Synthetic datasets: the Flixster stand-in and query workloads."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.datasets.flixster": (
            "FlixsterLikeDataset",
            "generate_flixster_like",
        ),
        "repro.datasets.workloads": (
            "QueryWorkload",
            "generate_delta_workload",
            "generate_query_workload",
        ),
        "repro.datasets.io": (
            "load_catalog_csv",
            "load_catalog_jsonl",
            "save_catalog_csv",
            "save_catalog_jsonl",
        ),
    },
)
