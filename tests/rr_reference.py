"""The RR-set machinery as first written: the oracle for the one walker.

Kept in behaviour, as ``kmeans_reference.py`` keeps the column-by-column
k-means: :func:`sample_rr_set` walks one reverse-reachable set at a
time over a reusable visited buffer (root first, then each wave's new
members in ascending order), :func:`ris_seed_selection` is the
dictionary-based lazy greedy that scales gains to spread units,
:func:`sample_block_lexsort` is the two-array ``(set, node)`` block
walker ordered by ``np.lexsort``, :func:`heap_greedy_select` is the
lazy heap greedy that :meth:`RRIndex.greedy_select` ran before its
argmax rewrite, :func:`flat_key_block` (with :func:`per_set_coins`)
is the flat-key walker as it stood before it took many streams per
pass: one generator for the block, or one per set, and
:func:`imm_greedy_every_round` is IMM as it ran before its doubling
rounds were certified by a coverage bound: a pooled index and a greedy
after every round.
``repro.im.imm`` must reproduce each of them bit for bit (members,
roots, generator state, seed-list nodes and gains).

:func:`replay_pools` is the streaming engine's oracle: starting from
given initial pools it re-walks, batch by batch, exactly the blocks
with a set that holds a touched head (every block on decay) with
:func:`sample_block_lexsort`, each from the stream that drew it, and
re-ranks each point with :func:`ris_seed_selection`.
"""

from __future__ import annotations

import heapq
import math

from repro.im.imm import RRIndex, _merge_blocks, imm_budgets
from repro.rng import as_seed_sequence

import numpy as np

from repro.im.seed_list import SeedList
from repro.streaming.deltas import EdgeState


def sample_rr_set(in_indptr, in_tails, in_probs, visited, rng) -> np.ndarray:
    """One RR set in BFS order (root first); restores ``visited``."""
    n = visited.shape[0]
    root = int(rng.integers(n))
    visited[root] = True
    members = [root]
    frontier = np.asarray([root], dtype=np.int64)
    while frontier.size:
        starts = in_indptr[frontier]
        counts = in_indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        offsets = np.repeat(starts, counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        arc_pos = offsets + within
        success = rng.random(total) < in_probs[arc_pos]
        parents = in_tails[arc_pos[success]]
        parents = parents[~visited[parents]]
        if parents.size == 0:
            break
        frontier = np.unique(parents)
        visited[frontier] = True
        members.extend(int(v) for v in frontier)
    result = np.asarray(members, dtype=np.int64)
    visited[result] = False
    return result


def sample_rr_sets(graph, gamma, num_sets: int, rng) -> list[np.ndarray]:
    """``num_sets`` sets walked one at a time from one generator."""
    probs = graph.item_probabilities(gamma)
    in_indptr, in_tails, in_arc_ids = graph.reverse_view
    in_probs = probs[in_arc_ids]
    visited = np.zeros(graph.num_nodes, dtype=bool)
    return [
        sample_rr_set(in_indptr, in_tails, in_probs, visited, rng)
        for _ in range(num_sets)
    ]


def ris_seed_selection(
    sets, num_nodes: int, k: int, *, universe_size: int | None = None
) -> SeedList:
    """Dictionary lazy greedy; gains scaled by ``num_nodes / len(sets)``.

    ``num_nodes`` is the scaling population (the segment size for
    segment-rooted sets); ``universe_size`` the candidate universe used
    for padding (defaults to ``num_nodes``).
    """
    if universe_size is None:
        universe_size = num_nodes
    if not 0 <= k <= universe_size:
        raise ValueError(f"k={k} outside [0, {universe_size}]")
    scale = num_nodes / max(len(sets), 1)
    membership: dict[int, list[int]] = {}
    for set_id, rr in enumerate(sets):
        for node in np.asarray(rr).tolist():
            membership.setdefault(node, []).append(set_id)
    coverage_count = {node: len(ids) for node, ids in membership.items()}
    covered = np.zeros(len(sets), dtype=bool)
    seeds: list[int] = []
    gains: list[float] = []
    heap = [(-count, node) for node, count in coverage_count.items()]
    heapq.heapify(heap)
    stale: dict[int, int] = dict(coverage_count)
    while len(seeds) < k and heap:
        neg_count, node = heapq.heappop(heap)
        count = -neg_count
        if count != stale[node]:
            continue
        fresh = sum(1 for sid in membership[node] if not covered[sid])
        if fresh != count:
            stale[node] = fresh
            heapq.heappush(heap, (-fresh, node))
            continue
        seeds.append(node)
        gains.append(fresh * scale)
        stale[node] = -1
        for sid in membership[node]:
            covered[sid] = True
    if len(seeds) < k:
        used = set(seeds)
        for node in range(universe_size):
            if node not in used:
                seeds.append(node)
                gains.append(0.0)
                if len(seeds) == k:
                    break
    return SeedList(tuple(seeds), tuple(gains), algorithm="ris")


def heap_greedy_select(index, k: int, *, exclude=None):
    """Lazy heap greedy over an :class:`RRIndex`'s inverted index.

    Returns ``(nodes, gains)`` in covered-set units: candidates are the
    nodes in some set (minus ``exclude``), popped by ``(-gain, id)``
    and re-pushed while their cached gain is stale; once the heap is
    empty the list is padded with the lowest-id unused nodes.
    """
    excluded = frozenset(int(node) for node in exclude or ())
    if not 0 <= k <= index.num_nodes - len(excluded):
        raise ValueError(f"k={k} outside the candidate range")
    stale = index.coverage_counts().astype(np.int64)
    covered = np.zeros(index.num_sets, dtype=bool)
    candidates = np.flatnonzero(stale > 0)
    if excluded:
        candidates = candidates[~np.isin(candidates, list(excluded))]
    heap = list(zip((-stale[candidates]).tolist(), candidates.tolist()))
    heapq.heapify(heap)
    seeds: list[int] = []
    gains: list[float] = []
    while len(seeds) < k and heap:
        neg_count, node = heapq.heappop(heap)
        count = -neg_count
        if count != stale[node]:
            continue
        set_ids = index.node_sets(node)
        fresh = int(np.count_nonzero(~covered[set_ids]))
        if fresh != count:
            stale[node] = fresh
            heapq.heappush(heap, (-fresh, node))
            continue
        seeds.append(node)
        gains.append(float(fresh))
        stale[node] = -1
        covered[set_ids] = True
    if len(seeds) < k:
        used = set(seeds) | excluded
        for node in range(index.num_nodes):
            if node not in used:
                seeds.append(node)
                gains.append(0.0)
                if len(seeds) == k:
                    break
    return seeds, gains


def sample_block_lexsort(
    in_indptr, in_tails, in_probs, num_nodes: int, count: int, rng
):
    """The block walker over a ``(count, num_nodes)`` visited matrix."""
    roots = rng.integers(0, num_nodes, size=count).astype(np.int64)
    visited = np.zeros((count, num_nodes), dtype=bool)
    set_ids = np.arange(count, dtype=np.int64)
    visited[set_ids, roots] = True
    frontier_sets = set_ids
    frontier_nodes = roots
    pair_sets = [frontier_sets]
    pair_nodes = [frontier_nodes]
    while frontier_nodes.size:
        starts = in_indptr[frontier_nodes]
        arc_counts = in_indptr[frontier_nodes + 1] - starts
        total = int(arc_counts.sum())
        if total == 0:
            break
        offsets = np.repeat(starts, arc_counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(arc_counts) - arc_counts, arc_counts
        )
        arc_pos = offsets + within
        arc_sets = np.repeat(frontier_sets, arc_counts)
        success = rng.random(total) < in_probs[arc_pos]
        parents = in_tails[arc_pos[success]]
        parent_sets = arc_sets[success]
        fresh = ~visited[parent_sets, parents]
        parents = parents[fresh]
        parent_sets = parent_sets[fresh]
        if parents.size == 0:
            break
        keys = np.unique(parent_sets * num_nodes + parents)
        parent_sets = keys // num_nodes
        parents = keys % num_nodes
        visited[parent_sets, parents] = True
        pair_sets.append(parent_sets)
        pair_nodes.append(parents)
        frontier_sets = parent_sets
        frontier_nodes = parents
    all_sets = np.concatenate(pair_sets)
    all_nodes = np.concatenate(pair_nodes)
    order = np.lexsort((all_nodes, all_sets))
    values = all_nodes[order].astype(np.uint32)
    sizes = np.bincount(all_sets, minlength=count)
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return values, indptr, roots.astype(np.uint32)


def flat_key_block(
    in_indptr: np.ndarray,
    in_tails: np.ndarray,
    in_probs: np.ndarray,
    num_nodes: int,
    count: int,
    rng,
    roots: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` RR sets in one batched reverse BFS over flat keys.

    ``rng`` is one ``Generator`` for the block, or ``count`` generators,
    one per set, whose coins :func:`per_set_coins` draws set by set;
    ``roots`` optionally fixes the roots.  Returns ``(values, indptr,
    roots)`` as :func:`repro.im.imm.sample_rr_block` does.
    """
    streams = None if isinstance(rng, np.random.Generator) else rng
    if roots is None:
        if streams is None:
            roots = rng.integers(0, num_nodes, size=count)
        else:
            # A scalar draw consumes the generator as a size-1 draw does.
            roots = [stream.integers(0, num_nodes) for stream in streams]
    roots = np.asarray(roots, dtype=np.int64)
    visited = np.zeros(count * num_nodes, dtype=bool)
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
        if streams is None:
            coins = rng.random(total)
        else:
            coins = per_set_coins(streams, bases // num_nodes, ends)
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
    # Root keys are set-major, hence sorted: a block that never left
    # its roots needs no sort.
    keys = waves[0] if len(waves) == 1 else np.sort(np.concatenate(waves))
    indptr = np.searchsorted(
        keys, np.arange(count + 1, dtype=np.int64) * num_nodes
    )
    values = (keys % num_nodes).astype(np.uint32)
    return values, indptr, roots.astype(np.uint32)


def per_set_coins(streams, sets, ends) -> np.ndarray:
    """One wave's coins when every set has its own stream.

    ``sets`` (nondecreasing) is the set of each frontier key and
    ``ends`` the running total of their in-arc counts; each set draws
    all of its wave's coins in one call, as a lone walk does.
    """
    last = np.flatnonzero(np.diff(sets)).tolist() + [sets.size - 1]
    coins = []
    drawn = 0
    for i in last:
        count = int(ends[i]) - drawn
        if count:
            coins.append(streams[int(sets[i])].random(count))
            drawn += count
    return np.concatenate(coins)


def replay_pools(
    graph,
    points,
    pools,
    seed: np.random.SeedSequence,
    block: int,
    batches,
    *,
    seed_list_length: int,
    decay_rate: float = 0.0,
):
    """Replay ``batches`` over initial ``pools``, block by block.

    ``pools`` holds one ``(values, indptr, roots)`` triple per row of
    ``points``; block ``b`` of row ``pid`` (sets ``[b * block, (b + 1)
    * block)``) is re-walked by :func:`sample_block_lexsort` from
    ``SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (pid, b))``
    whenever one of its sets holds a touched head (every block on
    decay).  Returns the final graph, the final pools as triples, and
    one seed list per row.
    """
    sets = [
        [
            np.asarray(values[indptr[sid] : indptr[sid + 1]])
            for sid in range(len(roots))
        ]
        for values, indptr, roots in pools
    ]
    roots = [np.asarray(pool[2]).copy() for pool in pools]
    state = EdgeState.from_graph(graph)
    clock = 0.0
    for batch in batches:
        decayed = False
        if decay_rate > 0.0 and batch.timestamp > clock:
            factor = math.exp(-decay_rate * (batch.timestamp - clock))
            if factor < 1.0:
                state.decay(factor)
                decayed = True
        clock = batch.timestamp
        for delta in batch.deltas:
            state.apply_delta(delta)
        graph = state.to_graph()
        heads = {delta.head for delta in batch.deltas}
        in_indptr, in_tails, in_arc_ids = graph.reverse_view
        for pid, point_sets in enumerate(sets):
            in_probs = graph.item_probabilities(points[pid])[in_arc_ids]
            for b, lo in enumerate(range(0, len(point_sets), block)):
                hi = min(lo + block, len(point_sets))
                hit = any(
                    not heads.isdisjoint(members.tolist())
                    for members in point_sets[lo:hi]
                )
                if not (decayed or hit):
                    continue
                rng = np.random.default_rng(
                    np.random.SeedSequence(
                        seed.entropy,
                        spawn_key=tuple(seed.spawn_key) + (pid, b),
                    )
                )
                values, indptr, walked_roots = sample_block_lexsort(
                    in_indptr, in_tails, in_probs, graph.num_nodes,
                    hi - lo, rng,
                )
                for i in range(hi - lo):
                    point_sets[lo + i] = values[indptr[i] : indptr[i + 1]]
                roots[pid][lo:hi] = walked_roots
    final = []
    for point_sets, point_roots in zip(sets, roots):
        indptr = np.zeros(len(point_sets) + 1, dtype=np.int64)
        np.cumsum([m.size for m in point_sets], out=indptr[1:])
        final.append(
            (
                np.concatenate(point_sets).astype(np.uint32),
                indptr,
                point_roots.astype(np.uint32),
            )
        )
    seed_lists = [
        ris_seed_selection(point_sets, graph.num_nodes, seed_list_length)
        for point_sets in sets
    ]
    return graph, final, seed_lists


def imm_greedy_every_round(
    sampler,
    gamma,
    k: int,
    *,
    epsilon: float,
    delta: float | None = None,
    seed=None,
    max_sets: int | None = None,
):
    """IMM's two phases with a greedy after every doubling round.

    Draws from ``sampler`` exactly as :func:`repro.im.imm_seed_selection`
    does (request ``r`` of the pooled collection, capped at
    ``max_sets``).  Returns ``(seed_list, final_index)``; ``k`` is at
    least 1 and the graph has at least 2 nodes.
    """
    n = sampler.num_nodes
    if delta is None:
        delta = 1.0 / max(n, 2)
    budgets = imm_budgets(n, k, epsilon, delta)
    eps_prime = budgets["eps_prime"]
    root = as_seed_sequence(seed)
    parts: list = []
    total = 0

    def ensure(target: int) -> None:
        nonlocal total
        if max_sets is not None:
            target = min(target, max_sets)
        if target <= total:
            return
        count, request = target - total, len(parts)
        parts.append(sampler.sample(gamma, count, seed=root, request=request))
        total = target

    def pooled_index() -> RRIndex:
        return RRIndex(*_merge_blocks(parts, total), n)

    lower_bound = max(float(k), 1.0)
    for i in range(1, max(1, math.ceil(math.log2(n)))):
        x = n / 2.0**i
        ensure(math.ceil(budgets["lambda_prime"] / x))
        index = pooled_index()
        _, gains = index.greedy_select(k)
        fraction = sum(gains) / index.num_sets
        if n * fraction >= (1.0 + eps_prime) * x:
            lower_bound = n * fraction / (1.0 + eps_prime)
            break
    ensure(math.ceil(budgets["lambda_star"] / lower_bound))
    index = pooled_index()
    return index.seed_list(k, algorithm="imm"), index
