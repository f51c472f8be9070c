"""Per-topic composable RR sketches (the ``strategy="sketch"`` engine).

INFLEX answers a query by retrieving precomputed index points near
``gamma_q`` and rank-aggregating their seed lists — which degrades when
a query lands far from every index point.  This module implements the
competing preprocessing design of Chen, Lin & Yang (arXiv 1403.0057):
precompute one *topic-marginal* structure per topic ``z`` offline and
compose them at query time for **any** mixture, with no nearest-neighbor
retrieval at all.

Offline, :meth:`SketchBank.build` samples one pool of RR sets per topic
under the single-topic item ``gamma = e_z``, reusing
:class:`repro.im.imm.RRSampler` (shared-memory parallel dispatch,
``SeedSequence`` determinism — pool ``z`` is the sampler's request
``z``, so pools are bit-identical for any worker count).  Online,
:meth:`SketchBank.compose` draws a ``gamma``-weighted mixture over the
pools — ``n_z`` sets from pool ``z`` with ``n_z`` proportional to
``gamma_z`` (largest-remainder rounding, ties toward the lower topic
id) — and packs the composed view into an
:class:`~repro.im.imm.RRIndex` for greedy max coverage.

The composed estimator targets the *mixture of marginals*
``sum_z gamma_z * sigma_{e_z}(S)``: each selected RR set from pool
``z`` was sampled under arc probabilities ``p(arc | e_z)``, so coverage
counts over the composition estimate the gamma-weighted average of the
per-topic spreads rather than the spread under the mixed-arc model
``p(arc | gamma)`` directly.  The two agree exactly at simplex vertices
and track each other closely for interior mixtures (sketch composition
of this family scales with guarantees — Cohen et al., arXiv
1408.6282); ``docs/SKETCHES.md`` quantifies the gap and the
accuracy/latency crossover against bb-tree retrieval.

Determinism properties (exercised by the hypothesis suite):

* Composing at a vertex ``e_z`` with the full budget is bit-identical
  to pool ``z`` itself; with a smaller budget, to its prefix.
* Pools are worker-count invariant, so composed greedy output is too.
* Greedy output is invariant to the topic iteration order of the
  composition (coverage counting is set-order free and ties break
  toward lower node ids).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SketchConfig
from repro.im.imm import RRIndex, RRSampler
from repro.simplex.vectors import as_distribution


class SketchBank:
    """``Z`` per-topic RR-set pools, composable for any topic mixture.

    Storage is four dense arrays (flat and shared-memory friendly —
    the serving fleet publishes them zero-copy):

    ``values``
        1-D ``uint32`` concatenation of every pool's member nodes
        (each set's members sorted ascending).
    ``pool_offsets``
        ``(Z + 1,)`` ``int64``; pool ``z`` owns
        ``values[pool_offsets[z]:pool_offsets[z + 1]]``.
    ``indptr_matrix``
        ``(Z, S + 1)`` ``int64``; row ``z`` is pool ``z``'s *local*
        CSR indptr (``indptr_matrix[z, 0] == 0``).
    ``roots_matrix``
        ``(Z, S)`` ``uint32``; row ``z`` holds pool ``z``'s RR roots.

    Every pool holds the same number of sets ``S`` (``num_sets``).
    """

    def __init__(
        self,
        values: np.ndarray,
        pool_offsets: np.ndarray,
        indptr_matrix: np.ndarray,
        roots_matrix: np.ndarray,
        num_nodes: int,
        config: SketchConfig,
    ) -> None:
        values = np.ascontiguousarray(values, dtype=np.uint32)
        pool_offsets = np.ascontiguousarray(pool_offsets, dtype=np.int64)
        indptr_matrix = np.ascontiguousarray(indptr_matrix, dtype=np.int64)
        roots_matrix = np.ascontiguousarray(roots_matrix, dtype=np.uint32)
        if pool_offsets.ndim != 1 or pool_offsets.size < 2:
            raise ValueError("pool_offsets must be 1-D with >= 2 entries")
        num_topics = pool_offsets.size - 1
        if indptr_matrix.ndim != 2 or indptr_matrix.shape[0] != num_topics:
            raise ValueError(
                f"indptr_matrix must have shape (Z, S + 1) with Z = "
                f"{num_topics}, got {indptr_matrix.shape}"
            )
        num_sets = indptr_matrix.shape[1] - 1
        if num_sets < 1:
            raise ValueError("each pool must hold at least one RR set")
        if roots_matrix.shape != (num_topics, num_sets):
            raise ValueError(
                f"roots_matrix must have shape ({num_topics}, {num_sets}), "
                f"got {roots_matrix.shape}"
            )
        if int(pool_offsets[0]) != 0 or int(pool_offsets[-1]) != values.size:
            raise ValueError("pool_offsets must span values exactly")
        if np.any(np.diff(pool_offsets) < 0):
            raise ValueError("pool_offsets must be nondecreasing")
        if np.any(indptr_matrix[:, 0] != 0):
            raise ValueError("each pool's indptr must start at 0")
        if np.any(np.diff(indptr_matrix, axis=1) < 0):
            raise ValueError("each pool's indptr must be nondecreasing")
        pool_sizes = np.diff(pool_offsets)
        if np.any(indptr_matrix[:, -1] != pool_sizes):
            raise ValueError(
                "each pool's indptr must end at its values size"
            )
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if values.size and int(values.max()) >= num_nodes:
            raise ValueError("set members must be < num_nodes")
        if roots_matrix.size and int(roots_matrix.max()) >= num_nodes:
            raise ValueError("roots must be < num_nodes")
        self._values = values
        self._pool_offsets = pool_offsets
        self._indptr_matrix = indptr_matrix
        self._roots_matrix = roots_matrix
        self._num_nodes = int(num_nodes)
        self._config = config

    # ------------------------------------------------------------------
    @property
    def num_topics(self) -> int:
        """Number of per-topic pools ``Z``."""
        return self._pool_offsets.size - 1

    @property
    def num_sets(self) -> int:
        """RR sets held per pool ``S``."""
        return self._indptr_matrix.shape[1] - 1

    @property
    def num_nodes(self) -> int:
        """Node count of the graph the sketches were sampled on."""
        return self._num_nodes

    @property
    def config(self) -> SketchConfig:
        """The :class:`~repro.core.config.SketchConfig` of this bank."""
        return self._config

    @property
    def compose_sets(self) -> int:
        """The default composition budget (capped at the pool size)."""
        budget = self._config.effective_compose_sets
        return min(budget, self.num_sets)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the four storage arrays."""
        return (
            self._values.nbytes
            + self._pool_offsets.nbytes
            + self._indptr_matrix.nbytes
            + self._roots_matrix.nbytes
        )

    def arrays(self) -> dict[str, np.ndarray]:
        """The storage arrays by name (persistence / shared memory)."""
        return {
            "values": self._values,
            "pool_offsets": self._pool_offsets,
            "indptr_matrix": self._indptr_matrix,
            "roots_matrix": self._roots_matrix,
        }

    def stats(self) -> dict:
        """Summary statistics for ``/stats`` and CLI inspection."""
        return {
            "num_topics": self.num_topics,
            "num_sets": self.num_sets,
            "compose_sets": self.compose_sets,
            "fallback_divergence": self._config.fallback_divergence,
            "memory_bytes": self.nbytes,
            "seed": self._config.seed,
        }

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, graph, config: SketchConfig, *, workers=None
    ) -> "SketchBank":
        """Sample one RR pool per topic of ``graph``.

        Pool ``z`` is sampled under the single-topic item ``e_z`` with
        the sampler's ``request`` namespaced to ``z``, so every pool is
        bit-identical for any worker count and any other pool's
        presence.
        """
        num_topics = graph.num_topics
        pools = []
        with RRSampler(graph, workers=workers) as sampler:
            for z in range(num_topics):
                vertex = np.zeros(num_topics, dtype=np.float64)
                vertex[z] = 1.0
                pools.append(
                    sampler.sample(
                        vertex,
                        config.num_sets,
                        seed=config.seed,
                        request=z,
                    )
                )
        return cls.from_pools(pools, graph.num_nodes, config)

    @classmethod
    def from_pools(
        cls, pools, num_nodes: int, config: SketchConfig
    ) -> "SketchBank":
        """Pack per-pool ``(values, indptr, roots)`` triples.

        Each triple is one pool in :func:`repro.im.imm.sample_rr_block`
        layout (sorted members in set order, CSR pointer, roots), as
        :meth:`build` samples them and the streaming maintainer keeps
        them.  Every pool must hold the same number of sets.
        """
        counts = {len(roots) for _, _, roots in pools}
        if len(counts) > 1:
            raise ValueError(
                f"pools must be equally sized, got sizes {sorted(counts)}"
            )
        pool_offsets = np.zeros(len(pools) + 1, dtype=np.int64)
        np.cumsum([values.size for values, _, _ in pools],
                  out=pool_offsets[1:])
        values = (
            np.concatenate([v for v, _, _ in pools])
            if pools
            else np.empty(0, dtype=np.uint32)
        )
        indptr_matrix = np.stack([indptr for _, indptr, _ in pools])
        roots_matrix = np.stack([roots for _, _, roots in pools])
        return cls(
            values, pool_offsets, indptr_matrix, roots_matrix,
            num_nodes, config,
        )

    def pools(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The inverse of :meth:`from_pools`: one ``(values, indptr,
        roots)`` triple per topic, as views of the storage arrays."""
        return [
            (
                self._values[self._pool_offsets[z] : self._pool_offsets[z + 1]],
                self._indptr_matrix[z],
                self._roots_matrix[z],
            )
            for z in range(self.num_topics)
        ]

    # ------------------------------------------------------------------
    def topic_index(self, topic: int) -> RRIndex:
        """Pool ``topic`` packed as an :class:`RRIndex` (copies)."""
        if not 0 <= topic < self.num_topics:
            raise ValueError(
                f"topic must be in [0, {self.num_topics}), got {topic}"
            )
        lo = int(self._pool_offsets[topic])
        hi = int(self._pool_offsets[topic + 1])
        return RRIndex(
            self._values[lo:hi].copy(),
            self._indptr_matrix[topic].copy(),
            self._roots_matrix[topic].copy(),
            self._num_nodes,
        )

    def allocate(self, gamma, budget: int) -> np.ndarray:
        """Split a composition ``budget`` across pools, ``n_z ∝ gamma_z``.

        Largest-remainder rounding: the integer floors are topped up in
        descending fractional-part order, ties toward the lower topic
        id, so allocations are deterministic and sum to ``budget``
        exactly.  Every ``n_z`` is at most the pool size whenever
        ``budget <= num_sets``.
        """
        dist = as_distribution(gamma)
        if dist.size != self.num_topics:
            raise ValueError(
                f"gamma has {dist.size} topics, bank has {self.num_topics}"
            )
        if not 1 <= budget <= self.num_sets:
            raise ValueError(
                f"budget must lie in [1, {self.num_sets}], got {budget}"
            )
        raw = dist * budget
        counts = np.floor(raw).astype(np.int64)
        remainder = budget - int(counts.sum())
        if remainder:
            order = np.argsort(-(raw - counts), kind="stable")
            counts[order[:remainder]] += 1
        return counts

    def compose(
        self, gamma, *, budget: int | None = None, order=None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compose a ``gamma``-weighted mixture view over the pools.

        Selects the first ``n_z`` sets of pool ``z`` (a deterministic
        prefix — the pools are i.i.d. streams, so any prefix is an
        unbiased sample) and concatenates them into one
        ``(values, indptr, roots)`` triple of ``budget`` sets.

        ``order`` optionally permutes the topic iteration order; greedy
        selection over the result is invariant to it (the property
        suite pins this down), so it exists only for those tests.
        """
        if budget is None:
            budget = self.compose_sets
        counts = self.allocate(gamma, budget)
        if order is None:
            topics = range(self.num_topics)
        else:
            topics = [int(z) for z in order]
            if sorted(topics) != list(range(self.num_topics)):
                raise ValueError(
                    "order must be a permutation of the topic ids"
                )
        chunks = []
        indptr = np.zeros(budget + 1, dtype=np.int64)
        roots = np.empty(budget, dtype=np.uint32)
        pos = 0
        offset = 0
        for z in topics:
            take = int(counts[z])
            if take == 0:
                continue
            lo = int(self._pool_offsets[z])
            size = int(self._indptr_matrix[z, take])
            chunks.append(self._values[lo:lo + size])
            indptr[pos + 1:pos + take + 1] = (
                self._indptr_matrix[z, 1:take + 1] + offset
            )
            roots[pos:pos + take] = self._roots_matrix[z, :take]
            pos += take
            offset += size
        values = (
            np.concatenate(chunks) if chunks else np.empty(0, np.uint32)
        )
        return values, indptr, roots

    def compose_index(
        self, gamma, *, budget: int | None = None, order=None
    ) -> RRIndex:
        """:meth:`compose` packed into an :class:`RRIndex`."""
        values, indptr, roots = self.compose(
            gamma, budget=budget, order=order
        )
        return RRIndex(values, indptr, roots, self._num_nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SketchBank(num_topics={self.num_topics}, "
            f"num_sets={self.num_sets}, num_nodes={self._num_nodes})"
        )
