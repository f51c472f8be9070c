"""A miniature viral-ads platform — the paper's motivating scenario.

Section 1.2: "advertisers come to the platform with a description of
the ad (e.g., a set of keywords) ... such a decision must also be taken
in an online fashion."  Each campaign here names its audience as a mix
of genres, the topic distribution an INFLEX query takes.  This example
wires the serving path:

    genre mix --> cached INFLEX query --> seeds

and simulates a stream of ad requests to show per-request latency and
cache behavior.

Run:  python examples/ad_platform.py
"""

import time

import numpy as np

from repro.core import CachedIndex, InflexConfig, InflexIndex
from repro.datasets import generate_flixster_like

GENRES = ["action", "romance", "comedy", "horror", "documentary", "scifi"]

#: A plausible ad-request stream: campaigns repeat, budgets vary.  Each
#: request is (genre weights, k).
REQUESTS = [
    ({"action": 0.6, "scifi": 0.4}, 10),
    ({"romance": 0.5, "comedy": 0.5}, 10),
    ({"action": 0.6, "scifi": 0.4}, 10),       # repeat: cache hit
    ({"documentary": 1.0}, 15),
    ({"horror": 0.6, "documentary": 0.5}, 10),  # sums to 1.1: rejected
    ({"romance": 0.5, "comedy": 0.5}, 10),      # repeat: cache hit
    ({"comedy": 1.0}, 20),
    ({"action": 0.6, "scifi": 0.4}, 10),       # repeat: cache hit
]


def label_of(mix: dict) -> str:
    """A genre mix as printed, e.g. ``action 0.6+scifi 0.4``."""
    return "+".join(f"{genre} {weight:g}" for genre, weight in mix.items())


def gamma_of(mix: dict) -> np.ndarray:
    """The topic distribution of a genre mix, in ``GENRES`` order."""
    return np.array([mix.get(genre, 0.0) for genre in GENRES])


def main() -> None:
    print("Booting the platform (one-time offline work) ...")
    data = generate_flixster_like(
        num_nodes=900,
        num_topics=len(GENRES),
        num_items=280,
        topics_per_node=1,
        base_strength=0.2,
        seed=51,
    )
    index = InflexIndex.build(
        data.graph,
        data.item_topics,
        InflexConfig(
            num_index_points=56,
            num_dirichlet_samples=6000,
            seed_list_length=25,
            ris_num_sets=5000,
            seed=52,
        ),
    )
    serving = CachedIndex(index, max_entries=256)
    footprint_kb = index.memory_footprint() / 1024
    print(
        f"Ready: {index} ({footprint_kb:.1f} KiB of precomputed index "
        "state)\n"
    )

    print("Serving the ad-request stream:")
    for mix, k in REQUESTS:
        label = label_of(mix)
        start = time.perf_counter()
        try:
            answer = serving.query(gamma_of(mix), k)
        except Exception as error:
            print(f"  [{label:28s}] REJECTED: {error}")
            continue
        elapsed_ms = (time.perf_counter() - start) * 1000
        print(
            f"  [{label:28s}] k={k:2d} -> seeds "
            f"{list(answer.seeds)[:4]}... in {elapsed_ms:6.2f} ms"
        )

    print(
        f"\nCache statistics: {serving.hits} hits / {serving.misses} "
        f"misses (hit rate {serving.hit_rate:.0%})"
    )
    print(
        "Repeat campaigns are served from cache; fresh ones go through "
        "the millisecond\nINFLEX pipeline — no influence maximization "
        "ever runs on the serving path."
    )

    # A coverage check an operator would run: which requests landed far
    # from every index point?
    print("\nCoverage health check (nearest-index-point divergence):")
    campaigns = {label_of(mix): gamma_of(mix) for mix, _ in REQUESTS}
    for label, gamma in campaigns.items():
        if np.isclose(gamma.sum(), 1.0):
            print(f"  {label:28s} -> {index.coverage_of(gamma):.3f}")
    print(
        "Large values would justify index.with_added_point(...) to "
        "densify that region."
    )


if __name__ == "__main__":
    main()
