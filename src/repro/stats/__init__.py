"""Statistical machinery: Anderson--Darling test, t-tests, error metrics."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.stats.anderson_darling": (
            "AndersonDarlingResult",
            "anderson_darling_p_value",
            "anderson_darling_statistic",
            "anderson_darling_test",
            "corrected_statistic",
            "project_to_principal_axis",
            "CRITICAL_VALUES",
        ),
        "repro.stats.tests": ("PairedTTestResult", "paired_t_test"),
        "repro.stats.bootstrap": (
            "BootstrapInterval",
            "bootstrap_mean",
            "bootstrap_mean_ratio",
        ),
        "repro.stats.metrics": (
            "nrmse",
            "pearson_correlation",
            "rmse",
            "spearman_correlation",
        ),
    },
)
