"""Shared pieces of the benchmark: sizes, seeded inputs, statistics.

Everything a workload sends to the program is derived here from the
``--seed`` argument, so one seed always yields the same dataset, build
configuration, query stream, strategy draws, delta batches and probes.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: The checkout root (this file lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for datasets, indexes, server logs and results.
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("query-cold", "stream-mixed")

# --- dataset and index shape --------------------------------------------
DATASET = {
    "num_nodes": 1000,
    "num_topics": 6,
    "num_items": 300,
    "topics_per_node": 1,
    "base_strength": 0.2,
}
BUILD = {
    "index_points": 40,
    "dirichlet_samples": 8000,
    "seed_list_length": 30,
    "engine": "imm",
    "epsilon": 0.3,
    "sketch_sets": 2000,
}
#: Full set-ups per run; ``setup_s`` (and the reported ``build_s``) are
#: their medians.
#: Each set-up's server serves an equal part of the measured window, so
#: a run samples the machine at three moments, not one.
SETUP_REPEATS = 3
#: The window is measured in slices of about this many seconds, each on
#: the CPU that is fastest when it starts.
SLICE_SECONDS = 3.0

# --- traffic --------------------------------------------------------------
#: Entropy of the inputs that stay fixed across seeds.
FIXED_ENTROPY = 0x1F1E
K = 10
GAMMA_ALPHA = 0.8
COLD_POOL = 50_000
COLD_MIX = {"inflex": 0.5, "exact-knn": 0.25, "sketch": 0.25}
COLD_CONNECTIONS = 2
COLD_WARMUP = 32
#: Length of the pre-drawn request stream (wraps if a run outruns it).
STREAM_LENGTH = 100_000
HOT_SET = 64
ZIPF_EXPONENT = 1.1
#: Share of stream-mixed reads drawn from the hot set; the rest come
#: from the cold pool and miss the cache.  Below a half, so the median
#: read is a computed one: the cache-hit path alone (about 0.3 ms, all
#: interpreter and socket work) moved read qps and p50 by 20-30%
#: between runs on a shared 2-CPU host.
STREAM_HOT_SHARE = 0.3
STREAM_SETS = 300
#: stream-mixed writes one batch of this many deltas when each slice
#: starts, so every slice holds the same share of write stalls.
DELTAS_PER_BATCH = 4
SUBSCRIPTIONS = 3

# --- answer quality probes ------------------------------------------------
PROBES = 16
PROBE_STRATEGIES = ("inflex", "exact-knn", "sketch")
REFEREE_EPSILON = 0.2
REFEREE_SEED = 20140324
ESTIMATOR_SETS = 20_000
ESTIMATOR_SEED = 1403

# --- traced in-process replay --------------------------------------------
REPLAY_QUERIES = 120
REPLAY_BATCH = 32

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def ensure_src_on_path() -> None:
    """Make the checkout's ``src`` importable, or exit without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program sources under {SRC}; run from a checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def slices_per_server(seconds: float) -> int:
    """Slices of a ``seconds``-long window each server measures; on
    stream-mixed also the delta batches it receives, one per slice."""
    return max(1, round(seconds / SETUP_REPEATS / SLICE_SECONDS))


@dataclass(frozen=True)
class Inputs:
    """Every seeded input of one run, except the delta batches (which
    need the generated graph; see :meth:`delta_batches`)."""

    seed: int
    dataset_seed: int
    build_seed: int
    cold_pool: np.ndarray
    cold_order: np.ndarray
    cold_strategies: tuple[str, ...]
    warmup: np.ndarray
    hot_set: np.ndarray
    hot_order: np.ndarray
    #: Per stream-mixed read: True draws from the hot set, False from
    #: the cold pool.
    stream_hot: np.ndarray
    probes: np.ndarray
    delta_seed: int

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        # The dataset, the build and the probe set do not vary with the
        # seed: across seeds the spread then measures the system, not
        # the data (k-means iteration counts alone move a build by 20%).
        dataset_ss, build_ss, probe_ss = np.random.SeedSequence(
            FIXED_ENTROPY
        ).spawn(3)
        pool_ss, order_ss, mix_ss, hot_ss, zipf_ss, delta_ss, share_ss = (
            np.random.SeedSequence([int(seed), FIXED_ENTROPY]).spawn(7)
        )
        z = DATASET["num_topics"]
        alpha = np.full(z, GAMMA_ALPHA)

        def rng(ss):
            return np.random.default_rng(ss)

        def int_seed(ss):
            return int(ss.generate_state(1)[0] & 0x7FFFFFFF)

        pool = rng(pool_ss).dirichlet(alpha, size=COLD_POOL + COLD_WARMUP)
        names = tuple(COLD_MIX)
        shares = np.array([COLD_MIX[name] for name in names])
        draws = rng(mix_ss).choice(len(names), size=STREAM_LENGTH, p=shares)
        ranks = np.arange(1, HOT_SET + 1, dtype=np.float64)
        zipf = ranks ** -ZIPF_EXPONENT
        return cls(
            seed=int(seed),
            dataset_seed=int_seed(dataset_ss),
            build_seed=int_seed(build_ss),
            cold_pool=pool[:COLD_POOL],
            cold_order=rng(order_ss).integers(
                COLD_POOL, size=STREAM_LENGTH
            ),
            cold_strategies=tuple(names[i] for i in draws),
            warmup=pool[COLD_POOL:],
            hot_set=rng(hot_ss).dirichlet(alpha, size=HOT_SET),
            hot_order=rng(zipf_ss).choice(
                HOT_SET, size=STREAM_LENGTH, p=zipf / zipf.sum()
            ),
            stream_hot=rng(share_ss).random(STREAM_LENGTH) < STREAM_HOT_SHARE,
            probes=rng(probe_ss).dirichlet(alpha, size=PROBES),
            delta_seed=int_seed(delta_ss),
        )

    def delta_batches(self, graph, num_batches: int) -> list:
        """The writer's seeded ``DeltaBatch`` stream over ``graph``."""
        from repro.datasets.workloads import generate_delta_workload

        log = generate_delta_workload(
            graph,
            num_batches=num_batches,
            batch_size=DELTAS_PER_BATCH,
            seed=self.delta_seed,
        )
        return list(log.batches)


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def valid_answer(answer, k: int, num_nodes: int, strategy: str) -> bool:
    """``k`` distinct valid node ids and the requested strategy echoed."""
    if not isinstance(answer, dict) or answer.get("strategy") != strategy:
        return False
    seeds = answer.get("seeds")
    if not isinstance(seeds, list) or len(seeds) != k:
        return False
    if len(set(seeds)) != k:
        return False
    return all(
        isinstance(node, int) and 0 <= node < num_nodes for node in seeds
    )
