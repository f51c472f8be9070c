"""Strategy trade-offs on one shared index (mini Figures 6/7/9).

Runs the paper's five query-evaluation strategies over a small workload
and prints their accuracy (Kendall-tau vs the offline ground truth),
mean query time, and expected spread — a compact, runnable version of
the evaluation section's comparison.

Run:  python examples/strategy_tradeoffs.py
"""

import numpy as np

from repro.core import offline_tic_seed_list
from repro.core.index import RETRIEVAL_STRATEGIES
from repro.experiments import get_context
from repro.experiments.reporting import format_table
from repro.propagation import estimate_spread
from repro.ranking import kendall_tau_top


def main() -> None:
    print("Building the shared experiment context (demo scale) ...")
    context = get_context("demo")
    k = 20
    num_queries = 10

    rows = []
    for strategy in RETRIEVAL_STRATEGIES:
        distances = []
        times_ms = []
        spreads = []
        for qi in range(num_queries):
            gamma = context.workload.items[qi]
            answer = context.index.query(gamma, k, strategy=strategy)
            truth = context.ground_truth(qi, k)
            distances.append(kendall_tau_top(answer.seeds, truth))
            times_ms.append(answer.timing.total * 1000)
            spreads.append(
                estimate_spread(
                    context.graph,
                    gamma,
                    list(answer.seeds),
                    num_simulations=80,
                    seed=100 + qi,
                ).mean
            )
        rows.append(
            [
                strategy,
                float(np.mean(distances)),
                float(np.mean(times_ms)),
                float(np.mean(spreads)),
            ]
        )

    # Reference: the offline computation itself.
    offline_spreads = []
    for qi in range(num_queries):
        gamma = context.workload.items[qi]
        truth = context.ground_truth(qi, k)
        offline_spreads.append(
            estimate_spread(
                context.graph,
                gamma,
                list(truth),
                num_simulations=80,
                seed=100 + qi,
            ).mean
        )
    import time as _time

    start = _time.perf_counter()
    offline_tic_seed_list(
        context.graph,
        context.workload.items[0],
        k,
        ris_num_sets=context.scale.ground_truth_ris_sets,
        seed=999,
    )
    offline_ms = (_time.perf_counter() - start) * 1000
    rows.append(
        ["offline TIC", 0.0, offline_ms, float(np.mean(offline_spreads))]
    )

    print()
    print(
        format_table(
            ["strategy", "Kendall-tau", "mean ms/query", "mean spread"],
            rows,
            title=f"Strategy trade-offs at k={k} over {num_queries} queries",
        )
    )
    print(
        "\nTakeaway: the indexed strategies are orders of magnitude "
        "faster than the offline\ncomputation while giving up only a few "
        "percent of spread — INFLEX balances the two."
    )


if __name__ == "__main__":
    main()
