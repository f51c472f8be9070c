"""IMM: martingale reverse-influence sampling for paper-scale builds.

Tang, Shi & Xiao's IMM (arXiv 1404.0900) turns the RR-set framework of
Borgs et al. (arXiv 1212.0884) into a practical near-linear-time
influence maximization with a ``(1 - 1/e - eps)`` approximation
guarantee holding with probability ``1 - delta``.  The algorithm has
two phases driven by martingale concentration bounds:

1. **Estimate** — a lower bound ``LB`` on the optimum spread ``OPT`` is
   found by doubling: for guesses ``x = n/2^i`` a budget
   ``theta_i = lambda' / x`` of RR sets is sampled and the greedy
   max-coverage spread is tested against ``(1 + eps') * x``; the first
   guess that passes certifies ``LB`` (Chernoff-style stopping).  The
   greedy's coverage never exceeds the sum of the ``k`` largest node
   coverage counts, so a round whose sum already falls short fails
   without running the greedy: only the verdict matters there.
2. **Select** — the final budget ``theta = lambda* / LB`` is sampled
   (reusing every phase-1 set; the martingale analysis permits the
   dependence) and greedy max coverage over the pooled collection
   returns the seed list.

What makes this module *paper-scale* rather than a reference
implementation:

* **Vectorized sampling.**  RR sets are walked in lock-step passes:
  one batched reverse-BFS expands the frontiers of thousands of sets
  per numpy call (gather all in-arcs, flip all coins, dedupe flat
  ``set * n + node`` keys) instead of one Python loop per set.  A pass
  takes many random streams, each owning a run of consecutive sets
  and drawing each wave's coins for them in one call, so a sampler
  chunk walks all its blocks at once and the streaming maintainer all
  of a point's per-set streams; an 8 MB visited-matrix budget bounds
  a pass.  The passes of a call (of a whole :class:`RRSampler`, of
  each pool worker) walk on one :class:`_VisitedBuffer`, cleared by
  the keys each pass set.  :func:`sample_rr_block` is the package's
  only IC reverse walk: the ``ris`` engine, segment targeting and the
  streaming maintainer drive it too (see :func:`walk_rr_index`), and
  every consumer ranks its sets with the one greedy of
  :class:`RRIndex`.
* **Parallel dispatch.**  Blocks fan out over the persistent process
  pool, shared-memory payloads and crash recovery of
  :mod:`repro.propagation.parallel`; the reverse CSR and the full
  ``(m, Z)`` probability matrix are published once per
  :class:`RRSampler` and reused across every item of a build.
* **Determinism.**  Block ``b`` of request ``r`` always draws from
  ``SeedSequence(entropy, spawn_key=base + (r, b))`` — worker count,
  scheduling and how blocks group into passes never touch the streams,
  so seed lists are bit-identical for any pool width (including the
  fully inline ``workers=1`` path).  The streams are seeded in bulk by
  :func:`repro.rng.keyed_generators`, with no ``SeedSequence`` object
  per block.
* **CSR storage.**  Sampled sets live in an :class:`RRIndex`: sorted
  ``uint32`` member arrays behind an ``int64`` pointer, plus an
  inverted node-to-set CSR index built by one radix-sorted argsort;
  the argmax greedy reads both across all ``l`` rounds without ever
  materializing Python sets.

See ``docs/INDEX_BUILDS.md`` for the phase walkthrough, the
``eps``/``delta`` semantics, and representative budget tables.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.graph.topic_graph import TopicGraph
from repro.im.seed_list import SeedList
from repro.obs import instruments as _obs
from repro.obs.tracing import get_tracer
from repro.propagation.parallel import Chunk, PooledArrays, stream_id
from repro.rng import as_seed_sequence, keyed_generators
from repro.simplex.vectors import as_distribution


def _block_size(num_nodes: int) -> int:
    """Deterministic sampling block size for an ``num_nodes``-node graph.

    A block is the atomic unit of randomness (it owns one
    ``SeedSequence`` stream), so the size must be a pure function of
    the graph — never of memory, worker count, or scheduling — for
    results to be reproducible.  The formula caps one block's
    ``(block, num_nodes)`` visited matrix at a few megabytes.
    """
    return int(min(1024, max(16, (1 << 22) // max(1, num_nodes))))


#: Byte budget of one lock-step pass's ``(sets, num_nodes)`` visited
#: matrix; see :func:`_pass_sets`.
_PASS_BYTES = 1 << 23


def _pass_sets(num_nodes: int) -> int:
    """Most sets one lock-step pass of :func:`sample_rr_block` walks.

    A pure function of the graph, like :func:`_block_size`, so the
    passes a call splits into never depend on memory or worker count
    (and the sets they walk never depend on the split at all).  At
    8 MB of visited matrix a pass holds 8 blocks of 1024 sets on a
    1000-node graph, where IMM's seed lists took as long with 32 MB
    passes and about 15% longer with one-block (1 MB) passes.
    """
    return max(1, _PASS_BYTES // max(1, num_nodes))


class _VisitedBuffer:
    """The visited matrix lock-step passes walk on, one pass at a time.

    Between passes every entry is ``False``: a pass marks the flat keys
    it reaches and clears exactly those before it hands the buffer
    back, so no pass pays for a fresh ``count * num_nodes`` allocation,
    its first-touch page faults and its unmap.  The buffer grows to the
    largest pass it has served.  A pass that finds it in use (another
    thread walks on it) gets a fresh zeroed array instead, and a pass
    that fails midway drops it.  Pickled into a pool task it becomes
    the worker process's own buffer (:func:`_worker_visited`).
    """

    def __init__(self) -> None:
        self._array = np.zeros(0, dtype=bool)
        self._lock = threading.Lock()

    def __reduce__(self):
        return _worker_visited, ()

    def acquire(self, size: int) -> np.ndarray:
        """An all-``False`` bool array of ``size`` entries: a view of the
        buffer, or a fresh array while another pass holds it."""
        if not self._lock.acquire(blocking=False):
            return np.zeros(size, dtype=bool)
        if self._array.size < size:
            self._array = np.zeros(size, dtype=bool)
        return self._array[:size]

    def release(self, visited: np.ndarray, keys) -> None:
        """Hand back ``visited`` from :meth:`acquire`, clearing the
        ``keys`` the pass set (``None``: the pass failed, so the
        buffer is dropped)."""
        if visited.base is not self._array:
            return
        if keys is None:
            self._array = np.zeros(0, dtype=bool)
        else:
            visited[keys] = False
        self._lock.release()

    def clear(self) -> None:
        """Free the buffer's memory (it grows again on the next pass)."""
        with self._lock:
            self._array = np.zeros(0, dtype=bool)


_WORKER_VISITED: _VisitedBuffer | None = None


def _worker_visited() -> _VisitedBuffer:
    """The calling process's pool-worker :class:`_VisitedBuffer`."""
    global _WORKER_VISITED
    if _WORKER_VISITED is None:
        _WORKER_VISITED = _VisitedBuffer()
    return _WORKER_VISITED


def sample_rr_block(
    in_indptr: np.ndarray,
    in_tails: np.ndarray,
    in_probs: np.ndarray,
    num_nodes: int,
    count,
    rng,
    roots: np.ndarray | None = None,
    visited: _VisitedBuffer | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk RR sets from many random streams in lock-step passes.

    The one IC reverse walk of the package.  ``rng`` is a sequence of
    generators and ``count`` the number of consecutive sets each one
    owns (or one ``Generator`` and the number of its sets).  Set ``i``
    of stream ``s`` draws from ``rng[s]`` exactly what a lone walk of
    that stream draws, so every stream replays bit-identically however
    it is grouped: one generator for a whole walk
    (:func:`walk_rr_index`), one per sampler block (:class:`RRSampler`,
    the sketch bank), or one per set (the streaming maintainer's point
    pools).

    All sets of a pass advance together over flat ``set * num_nodes +
    node`` keys: each wave gathers the in-arc slices of every frontier
    key in one ragged pass, each stream draws all its sets' coins in
    one call, and newly reached keys are deduplicated with one in-place
    sort.  A stream's first draw is its sets' roots, uniform over the
    nodes (scalar draws when every stream owns one set), unless
    ``roots`` fixes them (segment targeting draws them from the
    segment).  Streams are
    packed into passes of at most :func:`_pass_sets` sets (a larger
    stream walks alone), which bounds the visited matrix.  The passes
    walk on ``visited`` (a private buffer for this call if ``None``).

    Returns ``(values, indptr, roots)``: sorted ``uint32`` member
    arrays concatenated in set order with an ``int64`` CSR pointer, and
    the ``uint32`` root of each set.  Every set contains its root.
    """
    if isinstance(rng, np.random.Generator):
        streams, counts = [rng], [int(count)]
    else:
        streams, counts = list(rng), [int(c) for c in count]
        if len(streams) != len(counts):
            raise ValueError(
                f"{len(counts)} set counts for {len(streams)} streams"
            )
    if any(c < 0 for c in counts):
        raise ValueError("set counts must be >= 0")
    limit = _pass_sets(num_nodes)
    if visited is None:
        visited = _VisitedBuffer()
    parts = []
    first = lo = 0
    while not parts or lo < len(streams):
        hi, sets = lo, 0
        while hi < len(streams) and (hi == lo or sets + counts[hi] <= limit):
            sets += counts[hi]
            hi += 1
        parts.append(
            _walk_pass(
                in_indptr,
                in_tails,
                in_probs,
                num_nodes,
                streams[lo:hi],
                counts[lo:hi],
                None if roots is None else roots[first : first + sets],
                visited,
            )
        )
        first += sets
        lo = hi
    return parts[0] if len(parts) == 1 else _merge_blocks(parts, first)


def _walk_pass(
    in_indptr, in_tails, in_probs, num_nodes, streams, counts, roots, buffer
):
    """One lock-step pass of :func:`sample_rr_block` over ``streams``,
    on a visited matrix taken from ``buffer``."""
    count = sum(counts)
    visited = buffer.acquire(count * num_nodes)
    try:
        values, indptr, roots, keys = _walk_keys(
            in_indptr,
            in_tails,
            in_probs,
            num_nodes,
            streams,
            counts,
            roots,
            visited,
        )
    except BaseException:
        buffer.release(visited, None)
        raise
    buffer.release(visited, keys)
    return values, indptr, roots


def _walk_keys(
    in_indptr, in_tails, in_probs, num_nodes, streams, counts, roots, visited
):
    """The walk of :func:`_walk_pass` on an all-``False`` ``visited``:
    its ``(values, indptr, roots)`` and every key it set."""
    count = sum(counts)
    if roots is None:
        if all(c == 1 for c in counts):
            # One set per stream: a scalar draw consumes the generator
            # as a size-1 draw does, and costs less.
            roots = [stream.integers(0, num_nodes) for stream in streams]
        else:
            roots = np.concatenate(
                [
                    stream.integers(0, num_nodes, size=c)
                    for stream, c in zip(streams, counts)
                ]
            )
    roots = np.asarray(roots, dtype=np.int64)
    # Where each stream's keys start and end, to split a wave's coins.
    key_bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=key_bounds[1:])
    key_bounds *= num_nodes
    bases = np.arange(count, dtype=np.int64) * num_nodes
    frontier = bases + roots
    visited[frontier] = True
    waves = [frontier]
    nodes = roots
    while True:
        starts = in_indptr[nodes]
        arc_counts = in_indptr[nodes + 1] - starts
        ends = np.cumsum(arc_counts)
        total = int(ends[-1]) if ends.size else 0
        if total == 0:
            break
        # Arc j of the wave sits at ``starts[i] + (j - first arc of i)``.
        arc_pos = np.arange(total, dtype=np.int64) + np.repeat(
            starts - ends + arc_counts, arc_counts
        )
        if len(streams) == 1:
            coins = streams[0].random(total)
        else:
            coins = _stream_coins(streams, key_bounds, frontier, ends)
        hits = np.flatnonzero(coins < in_probs[arc_pos])
        # A reached parent keeps its set's key base ``set * num_nodes``.
        reached = np.repeat(bases, arc_counts)[hits] + in_tails[arc_pos[hits]]
        reached = reached[~visited[reached]]
        if reached.size == 0:
            break
        # Sorted and deduplicated, as ``np.unique`` would return it.
        reached.sort()
        fresh = np.empty(reached.size, dtype=bool)
        fresh[0] = True
        np.not_equal(reached[1:], reached[:-1], out=fresh[1:])
        frontier = reached[fresh]
        visited[frontier] = True
        waves.append(frontier)
        nodes = frontier % num_nodes
        bases = frontier - nodes
    # Root keys are set-major, hence sorted: a pass that never left its
    # roots needs no sort.
    keys = waves[0] if len(waves) == 1 else np.sort(np.concatenate(waves))
    indptr = np.searchsorted(
        keys, np.arange(count + 1, dtype=np.int64) * num_nodes
    )
    values = (keys % num_nodes).astype(np.uint32)
    return values, indptr, roots.astype(np.uint32), keys


def _stream_coins(streams, key_bounds, frontier, ends) -> np.ndarray:
    """One wave's coins, each stream drawing its sets' share in one
    call.

    ``frontier`` holds the wave's sorted keys, ``ends`` the running
    total of their in-arc counts and ``key_bounds`` the first key of
    each stream's sets, then the end of the last; streams with no arc
    this wave draw nothing, as a lone walk that has stopped does not.
    """
    drawn = np.concatenate(([0], ends))[np.searchsorted(frontier, key_bounds)]
    bounds = drawn.tolist()
    coins = np.empty(bounds[-1])
    for stream in np.flatnonzero(drawn[1:] != drawn[:-1]).tolist():
        streams[stream].random(out=coins[bounds[stream] : bounds[stream + 1]])
    return coins


def _sample_blocks(
    arrays, visited, gamma, entropy, base_key, request, blocks
):
    """The block kernel: RR sets of ``blocks`` for one request.

    ``arrays`` are the sampler's reverse CSR plus its reverse-gathered
    ``(m, Z)`` probability matrix, mixed here into the item's in-arc
    probabilities once per call; ``blocks`` lists ``(block_id, count)``
    pairs and block ``b`` draws from ``SeedSequence(entropy,
    spawn_key=base_key + (request, b))``.  The blocks walk together in
    lock-step passes on ``visited`` (the sampler's buffer inline, the
    worker's own in a pool) and come back as one ``(values, indptr,
    roots)`` triple.  The same kernel runs inline, in pool workers and
    in the recovery fallback, so where a block runs never changes its
    sets.
    """
    in_indptr, in_tails, prob_matrix = arrays
    in_probs = prob_matrix @ gamma
    num_nodes = int(in_indptr.shape[0]) - 1
    keys = [(request, block_id) for block_id, _ in blocks]
    return sample_rr_block(
        in_indptr,
        in_tails,
        in_probs,
        num_nodes,
        [count for _, count in blocks],
        keyed_generators(entropy, base_key, keys),
        visited=visited,
    )


def _merge_blocks(parts, num_sets: int):
    """Concatenate per-block ``(values, indptr, roots)`` triples."""
    values = np.concatenate([p[0] for p in parts])
    roots = np.concatenate([p[2] for p in parts])
    indptr = np.zeros(num_sets + 1, dtype=np.int64)
    pos = 0
    offset = 0
    for _, part_indptr, part_roots in parts:
        block = part_roots.shape[0]
        indptr[pos + 1 : pos + block + 1] = part_indptr[1:] + offset
        offset += int(part_indptr[-1])
        pos += block
    return values, indptr, roots


class RRIndex:
    """CSR store of reverse-reachable sets with greedy coverage.

    The RR sets of one ``(graph, item)`` pair: each set's sorted
    ``uint32`` members concatenated behind an ``int64`` pointer, plus
    the inverted node-to-set CSR index, so the argmax-greedy max
    coverage selection — reused across all ``l`` rounds of a seed-list
    build — touches numpy arrays only.

    Parameters
    ----------
    values / indptr:
        Concatenated member arrays (each set's members sorted,
        duplicate-free) and the ``(num_sets + 1,)`` CSR pointer.
    roots:
        The root node each set was grown from (must be a member).
    num_nodes:
        Node universe size (scales coverage to spread).
    """

    def __init__(self, values, indptr, roots, num_nodes: int) -> None:
        values = np.ascontiguousarray(values, dtype=np.uint32)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        roots = np.ascontiguousarray(roots, dtype=np.uint32)
        num_nodes = int(num_nodes)
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if indptr.ndim != 1 or indptr.size < 1 or indptr[0] != 0:
            raise ValueError("indptr must be 1-D and start at 0")
        sizes = np.diff(indptr)
        if np.any(sizes < 0):
            raise ValueError("indptr must be nondecreasing")
        if int(indptr[-1]) != values.size:
            raise ValueError(
                f"indptr[-1]={int(indptr[-1])} != {values.size} members"
            )
        num_sets = indptr.size - 1
        if roots.size != num_sets:
            raise ValueError(f"{roots.size} roots for {num_sets} sets")
        if values.size and int(values.max()) >= num_nodes:
            raise ValueError("set member out of node range")
        if roots.size and int(roots.max()) >= num_nodes:
            raise ValueError("root out of node range")
        self._num_nodes = num_nodes
        self._num_sets = num_sets
        self._values = values
        self._indptr = indptr
        self._roots = roots
        # Inverted node -> set-ids CSR.  numpy radix-sorts 16-bit keys
        # in linear time; a stable order is unique, so it matches the
        # ``uint32`` argsort used above 2**16 nodes.
        keys = values.astype(np.uint16) if num_nodes <= 1 << 16 else values
        order = np.argsort(keys, kind="stable")
        self._inv_sets = np.repeat(
            np.arange(num_sets, dtype=np.uint32), sizes
        )[order]
        node_counts = np.bincount(values, minlength=num_nodes)
        self._inv_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(node_counts, out=self._inv_indptr[1:])

    # ------------------------------------------------------------------
    @property
    def num_sets(self) -> int:
        """Number of RR sets stored."""
        return self._num_sets

    @property
    def num_nodes(self) -> int:
        """Size of the node universe."""
        return self._num_nodes

    @property
    def roots(self) -> np.ndarray:
        """The root node of each set, shape ``(num_sets,)``."""
        return self._roots

    @property
    def nbytes(self) -> int:
        """Bytes held by the member CSR plus the inverted index."""
        return int(
            self._values.nbytes
            + self._indptr.nbytes
            + self._inv_sets.nbytes
            + self._inv_indptr.nbytes
            + self._roots.nbytes
        )

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(values, indptr, roots)`` triple the index was built
        from, not copied."""
        return self._values, self._indptr, self._roots

    # ------------------------------------------------------------------
    def members(self, set_id: int) -> np.ndarray:
        """Sorted ``uint32`` members of one set (a copy)."""
        if not 0 <= set_id < self._num_sets:
            raise ValueError(
                f"set_id {set_id} out of range [0, {self._num_sets})"
            )
        lo, hi = self._indptr[set_id], self._indptr[set_id + 1]
        return self._values[lo:hi].copy()

    def contains(self, set_id: int, node: int) -> bool:
        """Whether ``node`` is a member of set ``set_id``."""
        if not 0 <= set_id < self._num_sets:
            raise ValueError(
                f"set_id {set_id} out of range [0, {self._num_sets})"
            )
        if not 0 <= node < self._num_nodes:
            return False
        lo, hi = self._indptr[set_id], self._indptr[set_id + 1]
        pos = lo + np.searchsorted(self._values[lo:hi], node)
        return bool(pos < hi and self._values[pos] == node)

    def coverage_counts(self) -> np.ndarray:
        """Per-node count of sets containing the node, shape ``(n,)``."""
        return np.diff(self._inv_indptr)

    def node_sets(self, node: int) -> np.ndarray:
        """Ids of the sets containing ``node`` (a read-only CSR view)."""
        if not 0 <= node < self._num_nodes:
            raise ValueError(f"node {node} out of node range")
        lo, hi = self._inv_indptr[node], self._inv_indptr[node + 1]
        return self._inv_sets[lo:hi]

    def covered_mask(self, seeds) -> np.ndarray:
        """Boolean mask over sets hit by at least one node of ``seeds``.

        This is the coverage-recount primitive every consumer (greedy
        selection, :meth:`spread_of`, the campaign planner's marginal
        oracle) shares; shape ``(num_sets,)``.
        """
        covered = np.zeros(self._num_sets, dtype=bool)
        for seed in seeds:
            node = int(seed)
            if not 0 <= node < self._num_nodes:
                raise ValueError(f"seed {node} out of node range")
            covered[self.node_sets(node)] = True
        return covered

    def covered_count(self, seeds) -> int:
        """Number of sets hit by at least one node of ``seeds``."""
        return int(self.covered_mask(seeds).sum())

    def spread_of(self, seeds) -> float:
        """Unbiased spread estimate ``n * coverage / num_sets``.

        The one public value oracle shared by ``spread --engine rr``,
        the campaign planner, and the tests.
        """
        if self._num_sets == 0:
            raise ValueError("no RR sets sampled")
        return self._num_nodes * self.covered_count(seeds) / self._num_sets

    def spread_estimate(self, seeds) -> float:
        """Alias of :meth:`spread_of` (the original name)."""
        return self.spread_of(seeds)

    # ------------------------------------------------------------------
    def greedy_select(
        self, k: int, *, exclude=None
    ) -> tuple[list[int], list[float]]:
        """Greedy max coverage: ``k`` seeds with coverage gains.

        Each round takes the node of largest marginal gain, ties toward
        the lower id (``argmax``), then decrements the gain of every
        member of the sets it newly covers.  Gains are in *covered-set*
        units (:meth:`seed_list` scales them to spread units).  Nodes in
        some set stay candidates at zero gain once every set is
        covered; after them the list is padded with the lowest-id
        unused nodes at zero gain.  The selection is therefore
        invariant under set permutation.
        ``exclude`` removes nodes from candidacy entirely (selection
        and padding) — the campaign planner's independent-allocation
        path uses it to keep per-item seed sets disjoint.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        excluded = frozenset(int(node) for node in exclude or ())
        if k > self._num_nodes - len(excluded):
            raise ValueError(
                f"k={k} exceeds "
                f"{self._num_nodes - len(excluded)} candidate nodes"
            )
        # Non-candidates (in no set, excluded or picked) sit below zero;
        # decrements only push them further down.
        gain = np.diff(self._inv_indptr)
        gain[gain == 0] = -1
        gain[[node for node in excluded if 0 <= node < self._num_nodes]] = -1
        covered = np.zeros(self._num_sets, dtype=bool)
        seeds: list[int] = []
        gains: list[float] = []
        while len(seeds) < k:
            node = int(gain.argmax())
            best = int(gain[node])
            if best < 0:
                break
            seeds.append(node)
            gains.append(float(best))
            gain[node] = -1
            if best == 0:
                continue
            set_ids = self.node_sets(node)
            fresh = set_ids[~covered[set_ids]]
            covered[fresh] = True
            starts = self._indptr[fresh]
            sizes = self._indptr[fresh + 1] - starts
            ends = np.cumsum(sizes)
            positions = np.arange(int(ends[-1])) + np.repeat(
                starts - ends + sizes, sizes
            )
            np.subtract.at(gain, self._values[positions], 1)
        if len(seeds) < k:
            used = set(seeds) | excluded
            for node in range(self._num_nodes):
                if node not in used:
                    seeds.append(node)
                    gains.append(0.0)
                    if len(seeds) == k:
                        break
        return seeds, gains

    def seed_list(
        self, k: int, *, algorithm: str, population: int | None = None
    ) -> SeedList:
        """:meth:`greedy_select` as a ranked :class:`SeedList` in spread
        units: each coverage gain times ``population / num_sets``.

        ``population`` is the number of nodes the roots were drawn from
        (default: every node); segment targeting passes the segment
        size, while any graph node stays a candidate seed.
        """
        nodes, gains = self.greedy_select(k)
        if population is None:
            population = self._num_nodes
        scale = population / max(self._num_sets, 1)
        return SeedList(
            tuple(nodes),
            tuple(gain * scale for gain in gains),
            algorithm=algorithm,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RRIndex(num_sets={self._num_sets}, "
            f"num_nodes={self._num_nodes})"
        )


class RRSampler(PooledArrays):
    """Vectorized, pool-parallel RR-set sampler bound to one graph.

    One sampler serves every item of a build: the reverse CSR arrays
    and the reverse-gathered ``(m, Z)`` probability matrix are
    published to shared memory once (lazily, on first pooled dispatch)
    and each sampling task ships only the item's ``gamma`` — the block
    kernel mixes the item-specific arc probabilities.  With
    ``workers=1`` everything runs inline and no payload is created.

    Blocks are dispatched like the chunks of
    :class:`~repro.propagation.parallel.ParallelMonteCarloSpread`, by
    the same fan-out: pool rebuilds, ``REPRO_SIM_RETRIES`` retries, the
    inline fallback and the ``chunk`` fault site (coordinates ``call``
    = request, ``chunk`` = task index) all apply.  Inline passes walk
    on the sampler's own :class:`_VisitedBuffer`, and each pool worker
    on its own.  Use as a context manager (or call :meth:`close`) to
    unlink the shared-memory segments and free the buffer.
    """

    def __init__(
        self,
        graph: TopicGraph,
        *,
        workers=None,
        block_size: int | None = None,
    ) -> None:
        if block_size is not None and block_size < 1:
            raise ValueError(
                f"block_size must be >= 1, got {block_size}"
            )
        in_indptr, in_tails, in_arc_ids = graph.reverse_view
        super().__init__(
            (
                in_indptr,
                in_tails,
                np.ascontiguousarray(graph.probabilities[in_arc_ids]),
            ),
            workers,
        )
        self._num_nodes = graph.num_nodes
        self._num_topics = graph.num_topics
        self._block = (
            int(block_size)
            if block_size is not None
            else _block_size(graph.num_nodes)
        )
        self._visited = _VisitedBuffer()

    def close(self) -> None:
        """Unlink the shared-memory segments and free the visited
        buffer (idempotent)."""
        super().close()
        self._visited.clear()

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Node count of the bound graph."""
        return self._num_nodes

    def sample(
        self, gamma, num_sets: int, *, seed=None, request: int = 0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample ``num_sets`` RR sets for item ``gamma``.

        Returns the raw ``(values, indptr, roots)`` triple (see
        :func:`sample_rr_block`); wrap with :class:`RRIndex` or use
        :meth:`sample_index`.  ``request`` namespaces the random
        streams so successive calls (IMM's doubling phases) draw
        disjoint randomness from one root ``seed``; results are
        bit-identical for any worker count.
        """
        if num_sets < 1:
            raise ValueError(f"num_sets must be >= 1, got {num_sets}")
        dist = as_distribution(gamma)
        if dist.size != self._num_topics:
            raise ValueError(
                f"item has {dist.size} topics, graph has "
                f"{self._num_topics}"
            )
        root = as_seed_sequence(seed)
        blocks = [
            (block_id, min(self._block, num_sets - lo))
            for block_id, lo in enumerate(range(0, num_sets, self._block))
        ]
        # Inline, one chunk holds every block; pooled, about two chunks
        # per worker.
        per_chunk = (
            len(blocks)
            if self._workers == 1
            else -(-len(blocks) // (self._workers * 2))
        )
        spawn_key = tuple(root.spawn_key)
        chunks = [
            Chunk(
                request,
                index,
                (
                    self._visited,
                    dist,
                    root.entropy,
                    spawn_key,
                    request,
                    blocks[lo : lo + per_chunk],
                ),
                stream_id(root.entropy, spawn_key, request, blocks[lo][0]),
            )
            for index, lo in enumerate(range(0, len(blocks), per_chunk))
        ]
        parts = self.fan_out(_sample_blocks, chunks, name="rr")
        return _merge_blocks(parts, num_sets)

    def sample_index(
        self,
        gamma,
        num_sets: int,
        *,
        seed=None,
        request: int = 0,
    ) -> RRIndex:
        """Sample ``num_sets`` RR sets and pack them into an
        :class:`RRIndex`."""
        values, indptr, roots = self.sample(
            gamma, num_sets, seed=seed, request=request
        )
        return RRIndex(values, indptr, roots, self._num_nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RRSampler(num_nodes={self._num_nodes}, "
            f"workers={self._workers}, block={self._block})"
        )


def walk_rr_index(
    graph: TopicGraph,
    gamma,
    num_sets: int,
    rng: np.random.Generator,
    *,
    block: int | None = None,
    roots=None,
) -> RRIndex:
    """Walk ``num_sets`` RR sets from one generator, ``block`` at a time.

    The sequential counterpart of :class:`RRSampler` for callers that
    own a single generator: the ``ris`` engine walks one set per call
    (``block=1``); segment targeting passes ``roots`` drawn from the
    segment and walks blocks of the default :func:`_block_size`.
    """
    if num_sets < 1:
        raise ValueError(f"num_sets must be >= 1, got {num_sets}")
    in_indptr, in_tails, in_arc_ids = graph.reverse_view
    in_probs = graph.item_probabilities(gamma)[in_arc_ids]
    n = graph.num_nodes
    if block is None:
        block = _block_size(n)
    visited = _VisitedBuffer()
    parts = []
    for lo in range(0, num_sets, block):
        count = min(block, num_sets - lo)
        parts.append(
            sample_rr_block(
                in_indptr,
                in_tails,
                in_probs,
                n,
                count,
                rng,
                None if roots is None else roots[lo : lo + count],
                visited,
            )
        )
    return RRIndex(*_merge_blocks(parts, num_sets), n)


def sample_rr_index(
    graph: TopicGraph,
    gamma,
    num_sets: int,
    *,
    workers=None,
    seed=None,
) -> RRIndex:
    """One-shot convenience: sample a packed RR index for one item.

    Creates a temporary :class:`RRSampler` (reuse one explicitly when
    sampling for many items — the shared-memory publication is then
    paid once, not per item).
    """
    with RRSampler(graph, workers=workers) as sampler:
        return sampler.sample_index(gamma, num_sets, seed=seed)


# ----------------------------------------------------------------------
# The IMM algorithm
# ----------------------------------------------------------------------


def imm_budgets(
    num_nodes: int, k: int, epsilon: float, delta: float
) -> dict:
    """The martingale budgets behind one IMM run, as plain numbers.

    Returns a dict with ``ell`` (the confidence exponent solving
    ``n^-ell = delta``), ``eps_prime`` (phase-1 slack,
    ``sqrt(2) * epsilon``), ``lambda_prime`` (phase-1 numerator: the
    budget at guess ``x`` is ``lambda_prime / x``), ``lambda_star``
    (phase-2 numerator: the final budget is ``lambda_star / LB``), and
    ``log_c_n_k``.  Exposed for tests and for the budget tables in
    ``docs/INDEX_BUILDS.md``.
    """
    if num_nodes < 2:
        raise ValueError(
            f"IMM budgets need num_nodes >= 2, got {num_nodes}"
        )
    if not 0 <= k <= num_nodes:
        raise ValueError(
            f"k must lie in [0, {num_nodes}], got {k}"
        )
    if not 0.0 < epsilon < 1.0:
        raise ValueError(
            f"epsilon must lie in (0, 1), got {epsilon}"
        )
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    n = float(num_nodes)
    ln_n = math.log(n)
    ell = math.log(1.0 / delta) / ln_n
    log_c_n_k = (
        math.lgamma(n + 1.0)
        - math.lgamma(k + 1.0)
        - math.lgamma(n - k + 1.0)
    )
    eps_prime = math.sqrt(2.0) * epsilon
    lambda_prime = (
        (2.0 + 2.0 * eps_prime / 3.0)
        * (log_c_n_k + ell * ln_n + math.log(max(math.log2(n), 1.0)))
        * n
        / (eps_prime * eps_prime)
    )
    one_minus_inv_e = 1.0 - 1.0 / math.e
    alpha = math.sqrt(ell * ln_n + math.log(2.0))
    beta = math.sqrt(
        one_minus_inv_e * (log_c_n_k + ell * ln_n + math.log(2.0))
    )
    lambda_star = (
        2.0
        * n
        * (one_minus_inv_e * alpha + beta) ** 2
        / (epsilon * epsilon)
    )
    return {
        "ell": ell,
        "eps_prime": eps_prime,
        "log_c_n_k": log_c_n_k,
        "lambda_prime": lambda_prime,
        "lambda_star": lambda_star,
    }


def imm_seed_selection(
    graph: TopicGraph,
    gamma,
    k: int,
    *,
    epsilon: float = 0.1,
    delta: float | None = None,
    workers=None,
    seed=None,
    max_sets: int | None = None,
    sampler: RRSampler | None = None,
) -> SeedList:
    """IMM influence maximization: a ``(1 - 1/e - epsilon)``-approximate
    seed list with probability ``1 - delta``.

    Parameters
    ----------
    graph / gamma:
        The topic graph and the item's topic distribution (Eq. 1
        instantiates the IC instance the RR sets are walked on).
    k:
        Seed budget (at most ``graph.num_nodes``).
    epsilon:
        Approximation slack in ``(0, 1)``; the RR budget grows as
        ``epsilon^-2``.
    delta:
        Failure probability in ``(0, 1)``; ``None`` uses the canonical
        ``1/n``.
    workers:
        Sampling pool width (int, ``"auto"``, or ``None`` for the
        ``REPRO_SIM_WORKERS`` default).  Seed lists are bit-identical
        for any width.
    seed:
        Randomness control (int, ``SeedSequence``, ``Generator``, or
        ``None``).
    max_sets:
        Optional hard cap on the RR budget.  Capping voids the formal
        guarantee — it exists for interactive/test runs; production
        builds should tune ``epsilon`` instead.
    sampler:
        An existing :class:`RRSampler` for this graph, reused across
        the items of a build; ``None`` creates (and closes) a private
        one.
    """
    n = graph.num_nodes
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds {n} candidate nodes")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if delta is None:
        delta = 1.0 / max(n, 2)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if max_sets is not None and max_sets < 2:
        raise ValueError(f"max_sets must be >= 2, got {max_sets}")
    if k == 0:
        return SeedList((), (), algorithm="imm")
    if n == 1:
        return SeedList((0,), (1.0,), algorithm="imm")
    budgets = imm_budgets(n, k, epsilon, delta)
    eps_prime = budgets["eps_prime"]
    root = as_seed_sequence(seed)
    tracer = get_tracer()
    own_sampler = sampler is None
    if own_sampler:
        sampler = RRSampler(graph, workers=workers)
    parts: list = []
    total = 0
    requests = 0
    # How many pooled sets hold each node, kept through phase 1.
    coverage = np.zeros(n, dtype=np.int64)

    def ensure(target: int, phase: str) -> None:
        """Grow the pooled collection to ``target`` sets (capped)."""
        nonlocal total, requests, coverage
        if max_sets is not None:
            target = min(target, max_sets)
        if target <= total:
            return
        count = target - total
        with tracer.span(
            "imm.sample", category="imm", phase=phase, sets=count
        ):
            parts.append(
                sampler.sample(gamma, count, seed=root, request=requests)
            )
        requests += 1
        total = target
        _obs.record_imm_sampled(phase, count)
        if phase == "estimate":
            coverage += np.bincount(parts[-1][0], minlength=n)

    def pooled_index() -> RRIndex:
        values, indptr, roots = _merge_blocks(parts, total)
        return RRIndex(values, indptr, roots, n)

    try:
        # Phase 1: lower-bound OPT by doubling (Chernoff stopping).
        lower_bound = max(float(k), 1.0)
        for i in range(1, max(1, math.ceil(math.log2(n)))):
            x = n / 2.0**i
            theta_i = math.ceil(budgets["lambda_prime"] / x)
            ensure(theta_i, "estimate")
            threshold = (1.0 + eps_prime) * x
            # The greedy's k nodes cover at most the sets their counts
            # add up to, so a round whose k largest counts stay under
            # the threshold fails without one.
            top_k = int(np.partition(coverage, n - k)[n - k :].sum())
            if n * (top_k / total) < threshold:
                continue
            index = pooled_index()
            with tracer.span(
                "imm.select",
                category="imm",
                phase="estimate",
                sets=index.num_sets,
            ):
                _, gains = index.greedy_select(k)
            fraction = sum(gains) / index.num_sets
            if n * fraction >= threshold:
                lower_bound = n * fraction / (1.0 + eps_prime)
                break
        # Phase 2: the derived theta budget, then the final greedy.
        theta = math.ceil(budgets["lambda_star"] / lower_bound)
        ensure(theta, "select")
        index = pooled_index()
        with tracer.span(
            "imm.select",
            category="imm",
            phase="select",
            sets=index.num_sets,
        ):
            seed_list = index.seed_list(k, algorithm="imm")
        _obs.record_imm_build(index.num_sets)
        return seed_list
    finally:
        if own_sampler:
            sampler.close()
