"""Query-result caching for serving workloads.

An advertising platform sees the same (or nearly the same) item
descriptions repeatedly — re-running even a millisecond pipeline is
waste at serving rates.  :class:`CachedIndex` wraps an
:class:`~repro.core.index.InflexIndex` with an LRU cache keyed on a
*canonicalized* topic distribution (queries within rounding distance
share an answer, a cheap and deterministic analogue of the index's own
epsilon-exact shortcut) plus the exact ``(k, strategy)`` pair.

The cache stores whatever its owner stores under a key: :meth:`query`
stores :class:`~repro.core.query.TimAnswer` objects, while the query
server (:mod:`repro.serving`) stores packed
:class:`~repro.serving.protocol.ServedAnswer` records, which keep only
what an answer's wire form and flight record read.

The cache is safe under concurrent access: the serving layer
(:mod:`repro.serving`) calls it from an executor thread while the
event-loop thread reads :meth:`stats` for ``/metrics``, so every
mutation — the ``OrderedDict`` get/move/evict dance and the hit/miss
counters — happens under one reentrant lock, and :meth:`stats` returns
a consistent snapshot taken under that same lock.

Key canonicalization invariant
------------------------------
``canonical_key`` rounds gamma to ``decimals``, clips negatives to
zero, and **renormalizes the rounded vector to sum exactly 1** before
taking its bytes.  Rounding alone is not enough: two near-identical
distributions can round to grids whose *sums* drift apart (e.g. one
rounds to components summing to 0.999 and the other to 1.001), landing
them in different buckets even though every component is within
rounding distance.  Renormalizing after rounding collapses that drift,
so the invariant is: **two queries share a cache entry iff their
rounded-clipped-renormalized vectors are bit-identical** (same float64
arithmetic on the same grid point gives the same bytes).

The key is one ``bytes``: ``b"<k>:<Z>:"``, then the canonical vector's
``Z`` float64s, then the strategy in UTF-8.  The decimal prefix fixes
where the vector ends, so distinct ``(gamma, k, strategy)`` triples
never share a key.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

import numpy as np

from repro.core.index import InflexIndex
from repro.core.query import TimAnswer
from repro.obs import instruments as _obs


class CachedIndex:
    """LRU-cached (optionally TTL-bounded) front of an INFLEX index.

    Parameters
    ----------
    index:
        The wrapped index.
    max_entries:
        LRU capacity.
    decimals:
        Topic distributions are rounded to this many decimals to form
        cache keys; 3 collapses gamma differences below 1e-3 (far under
        any divergence the retrieval reacts to).  See the module
        docstring for the full canonicalization invariant.
    ttl_seconds:
        Optional entry lifetime; an entry older than this counts as a
        miss (and an expiration) and is recomputed.  ``None`` (the
        default) keeps entries until LRU eviction — correct for an
        immutable index; serving deployments that hot-swap indexes set
        a TTL so stale answers age out.
    clock:
        Monotonic clock used for TTL accounting (injectable for tests).
    """

    def __init__(
        self,
        index: InflexIndex,
        *,
        max_entries: int = 1024,
        decimals: int = 3,
        ttl_seconds: float | None = None,
        clock=time.monotonic,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if decimals < 1:
            raise ValueError(f"decimals must be >= 1, got {decimals}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(
                f"ttl_seconds must be positive or None, got {ttl_seconds}"
            )
        self._index = index
        self._max_entries = int(max_entries)
        self._decimals = int(decimals)
        self._ttl = None if ttl_seconds is None else float(ttl_seconds)
        self._clock = clock
        self._lock = threading.RLock()
        self._entries: OrderedDict[bytes, tuple[object, float]] = (
            OrderedDict()
        )
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    @property
    def index(self) -> InflexIndex:
        return self._index

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    @property
    def expirations(self) -> int:
        return self._expirations

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0

    def stats(self) -> dict:
        """Operator summary of the cache (JSON-friendly).

        Taken atomically under the cache lock, so concurrent readers
        never see torn counters (e.g. ``hits + misses`` short of the
        lookups actually performed).  The same hit/miss/eviction
        accounting also flows into the process-wide metrics registry
        (``repro_cache_*``) whenever observability is enabled.
        """
        with self._lock:
            total = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "expirations": self._expirations,
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "hit_rate": self._hits / total if total else 0.0,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def canonical_key(self, gamma, k: int, strategy: str) -> bytes:
        """The cache key for ``(gamma, k, strategy)``.

        Round to ``decimals``, clip negatives to zero, renormalize to
        sum 1, and take the float64 bytes, prefixed with ``k`` and the
        topic count and followed by the strategy — see the module
        docstring for why the renormalization is load-bearing.  When rounding
        flattens the whole vector to zero (possible only when every
        component is below half a grid step, i.e. very many topics at
        a coarse ``decimals``), the raw normalized vector's bytes are
        used instead so distinct queries do not collapse into one
        degenerate bucket.
        """
        values = np.asarray(gamma, dtype=np.float64)
        rounded = np.round(values, self._decimals)
        rounded = np.maximum(rounded, 0.0)
        total = rounded.sum()
        if total > 0.0:
            canonical = rounded / total
        else:
            raw_total = values.sum()
            canonical = values / raw_total if raw_total > 0 else values
        # Strategies come off the wire: a lone surrogate must still key.
        return (
            b"%d:%d:" % (k, canonical.size)
            + canonical.tobytes()
            + str(strategy).encode("utf-8", "surrogatepass")
        )

    # Backward-compatible alias (pre-canonicalization name).
    _key = canonical_key

    def lookup(self, key: bytes):
        """The value cached under ``key``, or ``None``.

        Counts a hit or a miss, refreshes LRU recency on hit, and
        drops (counting an expiration) entries older than the TTL.
        The serving layer calls this directly so it can coalesce
        concurrent misses before computing; plain callers use
        :meth:`query`.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                answer, stored_at = entry
                if self._ttl is not None and (
                    self._clock() - stored_at >= self._ttl
                ):
                    del self._entries[key]
                    self._expirations += 1
                    _obs.record_cache_expiration(len(self._entries))
                else:
                    self._hits += 1
                    self._entries.move_to_end(key)
                    _obs.record_cache_hit(len(self._entries))
                    return answer
            self._misses += 1
            _obs.record_cache_miss(len(self._entries))
            return None

    def store(self, key: bytes, answer) -> None:
        """Insert (or refresh) ``key`` -> ``answer`` (whatever the owner
        caches), evicting LRU entries beyond capacity.

        Does not touch the hit/miss counters — pair with
        :meth:`lookup`, which does the accounting.
        """
        with self._lock:
            self._entries[key] = (answer, self._clock())
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
                _obs.record_cache_eviction(len(self._entries))

    def query(
        self, gamma, k: int, *, strategy: str = "inflex", deadline_ms=None
    ) -> TimAnswer:
        """Cached equivalent of :meth:`InflexIndex.query`.

        The underlying query runs outside the cache lock, so a slow
        miss never blocks concurrent hits; two racing misses on the
        same key both compute and the later :meth:`store` wins (the
        serving layer's singleflight prevents that duplication where
        it matters).
        """
        key = self.canonical_key(gamma, k, strategy)
        cached = self.lookup(key)
        if cached is not None:
            return cached
        answer = self._index.query(
            gamma, k, strategy=strategy, deadline_ms=deadline_ms
        )
        self.store(key, answer)
        return answer

    def clear(self) -> None:
        """Drop all cached answers and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0
            self._expirations = 0

    def swap_index(self, index: InflexIndex) -> None:
        """Replace the wrapped index and invalidate every cached answer.

        The hot-swap hook for evolving-graph serving
        (:mod:`repro.streaming`): after a delta batch produces a new
        index, the old answers are stale by construction, so the swap
        and the invalidation happen atomically under the cache lock.
        Statistics survive — a swap is an operational event, not a
        reset.
        """
        with self._lock:
            self._index = index
            self._entries.clear()
