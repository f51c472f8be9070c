"""Campaign planner: multi-item budgeted TIM via k-submodular allocation.

The paper answers one topic-aware query at a time, but an advertiser
runs *B* campaigns at once: given items with topic distributions
``gamma_1 .. gamma_B`` and one global seed budget ``k``, choose
``(node, item)`` pairs — each node seeding at most one item — that
maximize the *total* expected adoption across the item-level IC
cascades.  Because the cascades are independent, the objective

    f(S_1, ..., S_B) = sum_b sigma_{gamma_b}(S_b)

is monotone k-submodular under the partition constraint "every node
appears in at most one S_b", the setting of Ohsaka & Yoshida's
k-submodular influence maximization.  Two allocators are provided:

* **Lazy greedy** (``algorithm="lazy"``) — the classical greedy over
  ``(node, item)`` pairs, 1/2-approximate for this constraint, driven
  by one joint priority queue of stale marginal gains (the CELF trick
  lifted to pairs: a popped entry is accepted only when its recomputed
  gain still equals the cached one).
* **Threshold greedy** (``algorithm="threshold"``) — sweeps a gain
  threshold down by ``(1 - epsilon)`` per pass and accepts any pair
  meeting it, giving a ``(1/2 - epsilon)`` guarantee with a bounded
  number of full sweeps; the ``epsilon`` knob trades quality for time.

The value oracle reuses PR 7's RIS machinery end to end: per item, a
:class:`~repro.im.imm.RRIndex` of ``num_sets`` reverse-reachable sets
is sampled by one shared :class:`~repro.im.imm.RRSampler` (vectorized,
pool-parallel, shared-memory CSR), and marginal gains are CSR
coverage recounts — the count of the item's RR sets containing the
node and not yet covered, scaled to spread units by ``n / num_sets``.

Determinism and permutation invariance
--------------------------------------
Every per-item RR stream is keyed by the *content* of the item's
distribution (CRC32 of its canonical float64 bytes feeds the
established ``SeedSequence(entropy, spawn_key=base + (request,
block))`` scheme), never by its position in the request.  Ties in the
allocators break on ``(gain, node, gamma_bytes)``.  Together this
makes allocations bit-identical for any sampling worker count *and*
invariant under permutation of the request's items.  Items with
byte-identical distributions are collapsed: all their seeds are
reported on the first occurrence (the duplicates get empty seed sets).

Deadlines
---------
``allocate`` accepts a :class:`~repro.resilience.Deadline`.  Expiry
between oracle samples drops the remaining items to the reduced
``degraded_num_sets`` budget; expiry after sampling (or mid-greedy)
abandons the joint allocation for B *independent* per-item greedy
selections (budget split evenly, nodes kept disjoint via exclusion) —
the same routine that serves as the benchmark baseline — and the
result is flagged ``degraded``, mirroring the query path's contract.

See ``docs/CAMPAIGNS.md`` for the full walkthrough and benchmark
numbers (``benchmarks/bench_campaign.py``).
"""

from __future__ import annotations

import heapq
import zlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.config import CampaignConfig
from repro.graph.topic_graph import TopicGraph
from repro.im.imm import RRIndex, RRSampler
from repro.obs import instruments as _obs
from repro.resilience import Deadline
from repro.simplex.vectors import as_distribution


@dataclass(frozen=True)
class CampaignItem:
    """One campaign item: an identifier plus its topic distribution.

    ``gamma`` accepts any non-negative weight vector with a positive
    sum and is normalized to the simplex, mirroring the ``/campaign``
    wire parser.
    """

    item_id: str
    gamma: tuple[float, ...]

    def __post_init__(self) -> None:
        weights = np.asarray(self.gamma, dtype=np.float64)
        total = float(weights.sum()) if weights.ndim == 1 else 0.0
        if total > 0.0:
            weights = weights / total
        object.__setattr__(
            self,
            "gamma",
            tuple(float(g) for g in as_distribution(weights)),
        )


@dataclass(frozen=True)
class CampaignAllocation:
    """The outcome of one campaign allocation.

    Attributes
    ----------
    assignments:
        Per input item (original request order), the tuple of seed
        nodes allocated to it.  Disjoint across items; sizes sum to
        the request budget ``k``.
    gains:
        The marginal spread gain recorded when each node was accepted,
        aligned with ``assignments`` (spread units, i.e. expected
        adopters).
    total_spread:
        Oracle estimate of the objective ``sum_b sigma_b(S_b)`` at the
        final allocation.
    algorithm:
        ``"lazy"``, ``"threshold"``, or ``"independent"`` (the
        baseline / degraded path).
    degraded:
        Whether a deadline forced the degraded path (reduced oracle
        budgets and/or independent allocation).
    oracle_sets:
        RR sets actually sampled per item, aligned with
        ``assignments`` (reduced entries reveal degraded sampling;
        duplicates mirror their first occurrence).
    """

    assignments: tuple[tuple[int, ...], ...]
    gains: tuple[tuple[float, ...], ...]
    total_spread: float
    algorithm: str
    degraded: bool
    oracle_sets: tuple[int, ...]

    @property
    def num_seeds(self) -> int:
        """Total ``(node, item)`` pairs allocated."""
        return sum(len(nodes) for nodes in self.assignments)

    def to_dict(self) -> dict:
        """JSON-ready representation (the ``/campaign`` wire shape)."""
        return {
            "assignments": [list(nodes) for nodes in self.assignments],
            "gains": [list(g) for g in self.gains],
            "total_spread": self.total_spread,
            "algorithm": self.algorithm,
            "degraded": self.degraded,
            "oracle_sets": list(self.oracle_sets),
            "num_seeds": self.num_seeds,
        }


class _ItemOracle:
    """Mutable per-item coverage state over one :class:`RRIndex`."""

    __slots__ = ("index", "covered", "scale", "key")

    def __init__(self, index: RRIndex, key: bytes) -> None:
        self.index = index
        self.covered = np.zeros(index.num_sets, dtype=bool)
        self.scale = index.num_nodes / max(index.num_sets, 1)
        self.key = key

    def gain(self, node: int) -> float:
        """Marginal spread gain of seeding ``node`` for this item."""
        set_ids = self.index.node_sets(node)
        fresh = int(np.count_nonzero(~self.covered[set_ids]))
        return fresh * self.scale

    def accept(self, node: int) -> None:
        """Commit ``node``: its sets are now covered."""
        self.covered[self.index.node_sets(node)] = True

    def reset(self) -> None:
        """Forget every accepted node (joint -> independent restart)."""
        self.covered[:] = False


def _canonical_gamma(gamma, num_topics: int) -> np.ndarray:
    dist = as_distribution(gamma)
    if dist.size != num_topics:
        raise ValueError(
            f"item has {dist.size} topics, graph has {num_topics}"
        )
    return dist


class CampaignPlanner:
    """Budgeted multi-item seed allocator bound to one topic graph.

    One planner owns one :class:`~repro.im.imm.RRSampler` (so the
    shared-memory CSR publication is paid once across campaigns) and
    an LRU cache of per-item oracles keyed by the item distribution's
    canonical bytes and RR budget — a stable catalog of campaign items
    is sampled once, not per request.

    Use as a context manager or call :meth:`close` to release the
    sampler's shared-memory payload.
    """

    def __init__(
        self,
        graph: TopicGraph,
        config: CampaignConfig | None = None,
        *,
        workers=None,
    ) -> None:
        self._graph = graph
        self._config = config if config is not None else CampaignConfig()
        self._sampler = RRSampler(graph, workers=workers)
        self._oracles: OrderedDict[tuple[bytes, int], RRIndex] = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    @property
    def config(self) -> CampaignConfig:
        """The planner's :class:`CampaignConfig`."""
        return self._config

    @property
    def graph(self) -> TopicGraph:
        """The bound topic graph."""
        return self._graph

    @property
    def cached_oracles(self) -> int:
        """Number of per-item RR oracles currently in the LRU cache."""
        return len(self._oracles)

    def close(self) -> None:
        """Release the sampler's shared-memory payload (idempotent)."""
        self._sampler.close()

    def __enter__(self) -> "CampaignPlanner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _oracle_index(self, key: bytes, dist, num_sets: int) -> RRIndex:
        """Sample (or recall) the item's RR index at ``num_sets``."""
        cache_key = (key, num_sets)
        cached = self._oracles.get(cache_key)
        if cached is not None:
            self._oracles.move_to_end(cache_key)
            _obs.record_campaign_oracle("cached")
            return cached
        index = self._sampler.sample_index(
            dist,
            num_sets,
            seed=np.random.SeedSequence(self._config.seed),
            request=zlib.crc32(key),
        )
        self._oracles[cache_key] = index
        while len(self._oracles) > self._config.oracle_cache_entries:
            self._oracles.popitem(last=False)
        _obs.record_campaign_oracle("sampled")
        return index

    def _prepare(
        self, dists: list[np.ndarray], k: int, deadline: Deadline | None
    ) -> tuple[list[_ItemOracle], list[int], list[int], bool]:
        """Dedupe items and sample one oracle per unique distribution.

        Returns ``(oracles, positions, pos_sets, degraded)``:
        ``oracles`` sorted by gamma key (the canonical item order every
        tie-break uses), ``positions[i]`` the original request position
        oracle ``i`` reports under, and ``pos_sets`` the per-request-
        item RR budget actually sampled (duplicates mirror their first
        occurrence).
        """
        cfg = self._config
        if not dists:
            raise ValueError("campaign needs at least one item")
        if len(dists) > cfg.max_items:
            raise ValueError(
                f"{len(dists)} items exceed max_items={cfg.max_items}"
            )
        if k > self._graph.num_nodes:
            raise ValueError(
                f"k={k} exceeds {self._graph.num_nodes} nodes"
            )
        # Collapse byte-identical items; first occurrence wins.
        keys = [dist.tobytes() for dist in dists]
        unique: dict[bytes, tuple[int, np.ndarray]] = {}
        for pos, (key, dist) in enumerate(zip(keys, dists)):
            unique.setdefault(key, (pos, dist))
        degraded = False
        oracles: list[_ItemOracle] = []
        positions: list[int] = []
        sets_by_key: dict[bytes, int] = {}
        for key in sorted(unique):
            pos, dist = unique[key]
            num_sets = cfg.num_sets
            if deadline is not None and deadline.expired():
                num_sets = min(num_sets, cfg.degraded_num_sets)
                degraded = True
            oracles.append(
                _ItemOracle(self._oracle_index(key, dist, num_sets), key)
            )
            positions.append(pos)
            sets_by_key[key] = num_sets
        pos_sets = [sets_by_key[key] for key in keys]
        return oracles, positions, pos_sets, degraded

    # ------------------------------------------------------------------
    def allocate(
        self,
        gammas,
        k: int,
        *,
        algorithm: str | None = None,
        epsilon: float | None = None,
        deadline: Deadline | None = None,
    ) -> CampaignAllocation:
        """Allocate ``k`` seeds across the items of one campaign.

        Parameters
        ----------
        gammas:
            Iterable of per-item topic distributions (any
            ``as_distribution`` input).
        k:
            Global seed budget — total ``(node, item)`` pairs.
        algorithm / epsilon:
            Override the config's allocator and threshold knob.
        deadline:
            Optional wall-clock budget; see the module docstring for
            the two-stage degradation contract.
        """
        cfg = self._config
        algo = cfg.algorithm if algorithm is None else algorithm
        if algo not in ("lazy", "threshold"):
            raise ValueError(
                f"algorithm must be 'lazy' or 'threshold', got {algo!r}"
            )
        eps = cfg.epsilon if epsilon is None else float(epsilon)
        if not 0.0 < eps < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        dists = [
            _canonical_gamma(g, self._graph.num_topics) for g in gammas
        ]
        with _obs.campaign_allocate_span(algo, len(dists), k):
            oracles, positions, pos_sets, degraded = self._prepare(
                dists, k, deadline
            )
            if degraded:
                _obs.record_deadline_expired("campaign")
                picks = self._independent(oracles, k)
                return self._finish(
                    picks, oracles, positions, pos_sets, "independent",
                    True,
                )
            if algo == "lazy":
                picks, expired = self._lazy_greedy(oracles, k, deadline)
            else:
                picks, expired = self._threshold_greedy(
                    oracles, k, eps, deadline
                )
            if expired:
                _obs.record_deadline_expired("campaign")
                for oracle in oracles:
                    oracle.reset()
                picks = self._independent(oracles, k)
                return self._finish(
                    picks, oracles, positions, pos_sets, "independent",
                    True,
                )
            return self._finish(
                picks, oracles, positions, pos_sets, algo, False
            )

    def allocate_independent(
        self, gammas, k: int, *, deadline: Deadline | None = None
    ) -> CampaignAllocation:
        """B independent per-item allocations at the same total budget.

        The benchmark baseline (and the degraded fallback): each item
        greedily fills an even share of ``k`` from its own oracle,
        with nodes kept disjoint across items.  Exposed publicly so
        ``bench_campaign`` and the CLI's ``--compare-independent``
        report the joint allocator's uplift against it.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        dists = [
            _canonical_gamma(g, self._graph.num_topics) for g in gammas
        ]
        with _obs.campaign_allocate_span("independent", len(dists), k):
            oracles, positions, pos_sets, degraded = self._prepare(
                dists, k, deadline
            )
            picks = self._independent(oracles, k)
            return self._finish(
                picks, oracles, positions, pos_sets, "independent",
                degraded,
            )

    # ------------------------------------------------------------------
    def _lazy_greedy(
        self, oracles: list[_ItemOracle], k: int, deadline
    ) -> tuple[list[list[tuple[int, float]]], bool]:
        """Joint lazy greedy over ``(node, item)`` pairs.

        The heap holds ``(-gain, node, gamma_key, item_idx)`` entries;
        a popped entry is accepted only if its recomputed gain still
        equals the cached one (valid because marginal gains only
        shrink as the allocation grows).  Ties break toward lower node
        ids, then lower gamma keys — both content-based, so the
        allocation is invariant under item permutation.
        """
        picks: list[list[tuple[int, float]]] = [[] for _ in oracles]
        heap: list[tuple[float, int, bytes, int]] = []
        for idx, oracle in enumerate(oracles):
            counts = oracle.index.coverage_counts()
            scale = oracle.scale
            for node in np.flatnonzero(counts):
                heap.append(
                    (
                        -float(counts[node]) * scale,
                        int(node),
                        oracle.key,
                        idx,
                    )
                )
        heapq.heapify(heap)
        assigned: set[int] = set()
        taken = 0
        expired = False
        while taken < k and heap:
            if deadline is not None and deadline.expired():
                expired = True
                break
            neg_gain, node, _key, idx = heapq.heappop(heap)
            if node in assigned:
                continue
            oracle = oracles[idx]
            gain = oracle.gain(node)
            if gain < -neg_gain:
                if gain > 0.0:
                    heapq.heappush(heap, (-gain, node, oracle.key, idx))
                continue
            oracle.accept(node)
            assigned.add(node)
            picks[idx].append((node, gain))
            taken += 1
        if not expired and taken < k:
            self._pad(picks, oracles, assigned, k - taken)
        return picks, expired

    def _threshold_greedy(
        self, oracles: list[_ItemOracle], k: int, eps: float, deadline
    ) -> tuple[list[list[tuple[int, float]]], bool]:
        """Threshold greedy: accept pairs meeting a decaying bar.

        Starting from the best single-pair gain ``d``, each sweep
        scans all live ``(node, item)`` pairs in canonical order and
        accepts any whose current marginal gain meets the threshold;
        the bar then decays by ``(1 - eps)`` until it falls below
        ``eps * d / k``, bounding the sweep count by
        ``O(log(k / eps) / eps)``.  Per-pair stale upper bounds prune
        recomputation (gains only ever shrink).
        """
        picks: list[list[tuple[int, float]]] = [[] for _ in oracles]
        assigned: set[int] = set()
        taken = 0
        expired = False
        bounds = [
            oracle.index.coverage_counts().astype(np.float64)
            * oracle.scale
            for oracle in oracles
        ]
        d = max((float(b.max()) if b.size else 0.0) for b in bounds)
        if d <= 0.0:
            self._pad(picks, oracles, assigned, k)
            return picks, False
        floor = eps * d / max(k, 1)
        threshold = d
        while taken < k and threshold >= floor:
            if deadline is not None and deadline.expired():
                expired = True
                break
            for idx, oracle in enumerate(oracles):
                if taken >= k:
                    break
                bound = bounds[idx]
                for node in np.flatnonzero(bound >= threshold):
                    if taken >= k:
                        break
                    node = int(node)
                    if node in assigned:
                        bound[node] = 0.0
                        continue
                    gain = oracle.gain(node)
                    bound[node] = gain
                    if gain >= threshold:
                        oracle.accept(node)
                        assigned.add(node)
                        picks[idx].append((node, gain))
                        taken += 1
            threshold *= 1.0 - eps
        if not expired and taken < k:
            self._pad(picks, oracles, assigned, k - taken)
        return picks, expired

    def _independent(
        self, oracles: list[_ItemOracle], k: int
    ) -> list[list[tuple[int, float]]]:
        """B independent per-item greedy selections (baseline/degraded).

        The budget splits as evenly as the canonical item order allows
        (``k // B`` each, remainder to the earliest gamma keys) and
        node-disjointness is kept by excluding already-assigned nodes
        from later items' selections.
        """
        picks: list[list[tuple[int, float]]] = [[] for _ in oracles]
        assigned: set[int] = set()
        base, extra = divmod(k, len(oracles))
        for idx, oracle in enumerate(oracles):
            budget = base + (1 if idx < extra else 0)
            budget = min(budget, self._graph.num_nodes - len(assigned))
            if budget <= 0:
                continue
            nodes, gains = oracle.index.greedy_select(
                budget, exclude=assigned
            )
            for node, gain in zip(nodes, gains):
                oracle.accept(node)
                assigned.add(node)
                picks[idx].append((node, gain * oracle.scale))
        return picks

    def _pad(
        self,
        picks: list[list[tuple[int, float]]],
        oracles: list[_ItemOracle],
        assigned: set[int],
        remaining: int,
    ) -> None:
        """Zero-gain padding: lowest-id unused nodes, cycling items.

        Mirrors the single-query engines' padding contract so a budget
        larger than the useful frontier still returns exactly ``k``
        pairs, deterministically.
        """
        item = 0
        for node in range(self._graph.num_nodes):
            if remaining <= 0:
                break
            if node in assigned:
                continue
            picks[item % len(oracles)].append((node, 0.0))
            assigned.add(node)
            item += 1
            remaining -= 1

    def _finish(
        self,
        picks: list[list[tuple[int, float]]],
        oracles: list[_ItemOracle],
        positions: list[int],
        pos_sets: list[int],
        algorithm: str,
        degraded: bool,
    ) -> CampaignAllocation:
        assignments: list[tuple[int, ...]] = [
            () for _ in range(len(pos_sets))
        ]
        gains: list[tuple[float, ...]] = [
            () for _ in range(len(pos_sets))
        ]
        total = 0.0
        for idx, oracle in enumerate(oracles):
            nodes = tuple(node for node, _ in picks[idx])
            assignments[positions[idx]] = nodes
            gains[positions[idx]] = tuple(g for _, g in picks[idx])
            if nodes:
                total += oracle.index.spread_of(nodes)
        allocation = CampaignAllocation(
            assignments=tuple(assignments),
            gains=tuple(gains),
            total_spread=total,
            algorithm=algorithm,
            degraded=degraded,
            oracle_sets=tuple(pos_sets),
        )
        _obs.record_campaign_allocation(
            algorithm, degraded, allocation.num_seeds
        )
        return allocation

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CampaignPlanner(num_nodes={self._graph.num_nodes}, "
            f"algorithm={self._config.algorithm!r}, "
            f"cached_oracles={len(self._oracles)})"
        )
