"""Zero-copy publication of a served index to fleet worker processes.

The fleet router (:mod:`repro.serving.fleet`) loads graph and index
from disk exactly once, then *publishes* every large array — the CSR
graph and the index's point/seed matrices — through the shared-memory
payload machinery of :mod:`repro.propagation.parallel`.  Workers
:func:`attach_index` from the resulting spec: a few strings over a
pipe, ``O(1)`` attachment, no per-worker copy of hundreds of megabytes
of probabilities, and — because the router owns the segments — a
*respawned* worker re-attaches the very same memory with no disk
reload (the crash-recovery property ``docs/FLEET.md`` leans on).

Only the arrays ride in shared memory.  Small metadata (node count,
seed-list algorithms, the :class:`~repro.core.config.InflexConfig`)
travels in the plain-picklable spec dict, and the bb-tree is rebuilt
on attach — construction is ``O(h log h)`` over just ``h`` index
points, the same trade :mod:`repro.core.persistence` makes.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import InflexConfig
from repro.core.index import InflexIndex
from repro.graph.topic_graph import TopicGraph
from repro.im.seed_list import SeedList
from repro.propagation.parallel import attach_arrays, publish_arrays

#: Order of the arrays inside a published payload (attach relies on it).
_ARRAY_NAMES = (
    "indptr",
    "indices",
    "probabilities",
    "index_points",
    "seed_matrix",
    "gain_matrix",
)


def publish_index(index: InflexIndex, *, prefix: str = "repro-fleet"):
    """Publish ``index`` (arrays in shared memory) for other processes.

    Returns ``(payload, spec)``: the caller owns ``payload`` and must
    :meth:`~repro.propagation.parallel._GraphPayload.release` it when
    the fleet shuts down; ``spec`` is a small picklable dict that any
    process on the machine resolves with :func:`attach_index`.  The
    seed lists are packed exactly like the on-disk format — an
    ``(h, l)`` int64 matrix padded with ``-1`` plus a parallel gain
    matrix — so attachment reconstructs them losslessly.
    """
    graph = index.graph
    length = max((len(sl) for sl in index.seed_lists), default=0)
    length = max(length, 1)
    seed_matrix = np.full(
        (index.num_index_points, length), -1, dtype=np.int64
    )
    gain_matrix = np.zeros(seed_matrix.shape, dtype=np.float64)
    algorithms = []
    for row, seed_list in enumerate(index.seed_lists):
        nodes = seed_list.as_array()
        seed_matrix[row, : nodes.size] = nodes
        if seed_list.marginal_gains:
            gain_matrix[row, : nodes.size] = seed_list.marginal_gains
        algorithms.append(seed_list.algorithm)
    payload = publish_arrays(
        (
            graph.indptr,
            graph.indices,
            graph.probabilities,
            np.asarray(index.index_points),
            seed_matrix,
            gain_matrix,
        ),
        prefix=prefix,
    )
    spec = {
        "payload": payload.spec,
        "num_nodes": graph.num_nodes,
        "algorithms": algorithms,
        "config": index.config,
    }
    if index.sketches is not None:
        # The sketch bank rides along in its own segments so every
        # worker answers strategy="sketch" (and serves the same
        # fallback upgrades) from the same shared pools.
        from repro.sketches.shared import publish_sketches

        sketch_payload, sketch_spec = publish_sketches(
            index.sketches, prefix=f"{prefix}-sketches"
        )
        spec["sketches"] = sketch_spec
        return _CompositePayload(payload, sketch_payload), spec
    return payload, spec


class _CompositePayload:
    """Two payloads (index + sketch bank) released as one.

    Quacks like :class:`~repro.propagation.parallel._GraphPayload` for
    the fleet's ownership bookkeeping (it only ever calls
    ``release()``).
    """

    def __init__(self, *payloads) -> None:
        self._payloads = payloads

    def release(self) -> None:
        for payload in self._payloads:
            payload.release()


def attach_index(spec) -> InflexIndex:
    """Rebuild a fully usable :class:`InflexIndex` from a published spec.

    Graph and matrix construction are zero-copy views over the shared
    segments (:class:`TopicGraph` keeps same-dtype inputs as-is); only
    the bb-tree and the :class:`SeedList` tuples are materialized
    locally.  Safe to call repeatedly — attachment is cached per
    payload token in :mod:`repro.propagation.parallel`.
    """
    arrays = dict(zip(_ARRAY_NAMES, attach_arrays(spec["payload"])))
    graph = TopicGraph(
        spec["num_nodes"],
        arrays["indptr"],
        arrays["indices"],
        arrays["probabilities"],
    )
    seed_matrix = arrays["seed_matrix"]
    gain_matrix = arrays["gain_matrix"]
    algorithms = list(spec["algorithms"])
    seed_lists = []
    for row in range(seed_matrix.shape[0]):
        nodes = seed_matrix[row]
        valid = nodes >= 0
        gains = gain_matrix[row][valid]
        seed_lists.append(
            SeedList(
                tuple(int(v) for v in nodes[valid]),
                tuple(float(g) for g in gains) if gains.any() else (),
                algorithm=algorithms[row],
            )
        )
    config = spec["config"]
    if not isinstance(config, InflexConfig):  # pragma: no cover - defensive
        config = InflexConfig(**dict(config))
    index = InflexIndex._restore(
        graph, arrays["index_points"], seed_lists, config
    )
    if spec.get("sketches") is not None:
        from repro.sketches.shared import attach_sketches

        index.attach_sketches(attach_sketches(spec["sketches"]))
    return index


def attach_kind(spec) -> str:
    """Transport of a published spec: ``"shm"`` (zero-copy shared
    memory) or ``"pickle"`` (fallback copy).  Workers report this in
    their ready message so tests — and the fleet's ``/fleet`` status —
    can assert that respawns re-attached shared memory rather than
    reloading from disk."""
    return str(spec["payload"][0])
