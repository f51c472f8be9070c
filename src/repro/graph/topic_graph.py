"""Directed social graph with per-topic influence probabilities.

The central input object of the paper: a directed graph ``G = (V, A)``
where each arc ``(u, v)`` carries ``Z`` probabilities ``p^z_{u,v}`` — the
strength of ``u``'s influence over ``v`` on each topic.  Given an item
described by a topic distribution ``gamma``, the item-specific arc
probability is the mixture ``p^i_{u,v} = sum_z gamma_z p^z_{u,v}``
(Eq. 1), which turns the topic graph into an ordinary IC instance.

Storage is CSR (compressed sparse row) over the out-adjacency: arcs of
node ``u`` occupy the slice ``indptr[u]:indptr[u+1]`` of ``indices`` (arc
heads) and of the ``(m, Z)`` probability matrix.  A reverse (in-
adjacency) view is built lazily for cascade-learning and RIS, which both
walk arcs backwards.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import InvalidGraphError
from repro.simplex.vectors import as_distribution


class TopicGraph:
    """Immutable directed graph with a ``(num_arcs, num_topics)`` matrix
    of per-topic arc probabilities."""

    def __init__(self, num_nodes: int, indptr, indices, probabilities) -> None:
        self._num_nodes = int(num_nodes)
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._indices = np.asarray(indices, dtype=np.int64)
        self._probabilities = np.asarray(probabilities, dtype=np.float64)
        self._validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_arcs(cls, num_nodes: int, arcs, probabilities) -> "TopicGraph":
        """Build a graph from an arc list.

        Parameters
        ----------
        num_nodes:
            Number of nodes ``|V|``; node ids are ``0..num_nodes-1``.
        arcs:
            Sequence of ``(tail, head)`` pairs (or an ``(m, 2)`` array).
        probabilities:
            Array of shape ``(m, Z)`` aligned with ``arcs``: the
            per-topic influence probability of each arc.
        """
        arc_array = np.asarray(arcs, dtype=np.int64)
        if arc_array.size == 0:
            arc_array = arc_array.reshape(0, 2)
        if arc_array.ndim != 2 or arc_array.shape[1] != 2:
            raise InvalidGraphError(
                f"arcs must be an (m, 2) array, got shape {arc_array.shape}"
            )
        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.ndim != 2 or probs.shape[0] != arc_array.shape[0]:
            raise InvalidGraphError(
                f"probabilities must be (m, Z) aligned with arcs; got "
                f"{probs.shape} for {arc_array.shape[0]} arcs"
            )
        order = np.lexsort((arc_array[:, 1], arc_array[:, 0]))
        arc_array = arc_array[order]
        probs = probs[order]
        counts = np.bincount(arc_array[:, 0], minlength=num_nodes)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return cls(num_nodes, indptr, arc_array[:, 1], probs)

    @classmethod
    def _from_sorted_keys(
        cls, num_nodes: int, keys: np.ndarray, probabilities: np.ndarray
    ) -> "TopicGraph":
        """A graph from strictly increasing arc keys ``tail * n + head``
        and the aligned ``(m, Z)`` probabilities: the CSR ``from_arcs``
        builds for the same arcs, without the sort."""
        n = int(num_nodes)
        bounds = np.arange(n + 1, dtype=np.int64) * n
        return cls(n, np.searchsorted(keys, bounds), keys % n, probabilities)

    def arc_keys(self) -> np.ndarray:
        """Every arc as the key ``tail * num_nodes + head``, strictly
        increasing in CSR order."""
        tails = np.repeat(
            np.arange(self._num_nodes, dtype=np.int64), np.diff(self._indptr)
        )
        return tails * self._num_nodes + self._indices

    def _validate(self) -> None:
        n = self._num_nodes
        if n <= 0:
            raise InvalidGraphError(f"graph needs at least one node, got {n}")
        if self._indptr.ndim != 1 or self._indptr.size != n + 1:
            raise InvalidGraphError(
                f"indptr must have length num_nodes+1={n + 1}, "
                f"got {self._indptr.size}"
            )
        if self._indptr[0] != 0 or np.any(np.diff(self._indptr) < 0):
            raise InvalidGraphError("indptr must start at 0 and be nondecreasing")
        m = int(self._indptr[-1])
        if self._indices.size != m:
            raise InvalidGraphError(
                f"indices length {self._indices.size} != indptr[-1]={m}"
            )
        if m and (self._indices.min() < 0 or self._indices.max() >= n):
            raise InvalidGraphError("arc head out of node range")
        if self._probabilities.ndim != 2 or self._probabilities.shape[0] != m:
            raise InvalidGraphError(
                f"probabilities must be (m, Z) with m={m}, "
                f"got {self._probabilities.shape}"
            )
        if self._probabilities.shape[1] == 0:
            raise InvalidGraphError("graph must have at least one topic")
        if m:
            if not np.all(np.isfinite(self._probabilities)):
                raise InvalidGraphError("probabilities contain NaN/inf")
            if (
                self._probabilities.min() < 0.0
                or self._probabilities.max() > 1.0
            ):
                raise InvalidGraphError("probabilities must lie in [0, 1]")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return self._num_nodes

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs ``|A|``."""
        return int(self._indptr[-1])

    @property
    def num_topics(self) -> int:
        """Number of topics ``Z``."""
        return int(self._probabilities.shape[1])

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer over out-arcs, shape ``(num_nodes + 1,)``."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR arc heads, shape ``(num_arcs,)``."""
        return self._indices

    @property
    def probabilities(self) -> np.ndarray:
        """Per-topic arc probabilities, shape ``(num_arcs, num_topics)``."""
        return self._probabilities

    def out_degree(self, node: int | None = None):
        """Out-degree of ``node``, or the full out-degree vector."""
        degrees = np.diff(self._indptr)
        if node is None:
            return degrees
        return int(degrees[node])

    def in_degree(self, node: int | None = None):
        """In-degree of ``node``, or the full in-degree vector."""
        degrees = np.bincount(self._indices, minlength=self._num_nodes)
        if node is None:
            return degrees
        return int(degrees[node])

    def successors(self, node: int) -> np.ndarray:
        """Arc heads reachable in one hop from ``node``."""
        return self._indices[self._indptr[node] : self._indptr[node + 1]]

    def arcs(self) -> np.ndarray:
        """All arcs as an ``(m, 2)`` array of ``(tail, head)`` pairs."""
        tails = np.repeat(
            np.arange(self._num_nodes, dtype=np.int64), np.diff(self._indptr)
        )
        return np.column_stack((tails, self._indices))

    # ------------------------------------------------------------------
    # The paper's Eq. 1: item-specific probabilities
    # ------------------------------------------------------------------
    def item_probabilities(self, gamma) -> np.ndarray:
        """Arc probabilities for an item with topic distribution ``gamma``.

        Implements Eq. 1 of the paper:
        ``p^i_{u,v} = sum_z gamma_z * p^z_{u,v}`` for every arc at once.
        """
        dist = as_distribution(gamma)
        if dist.size != self.num_topics:
            raise InvalidGraphError(
                f"item has {dist.size} topics, graph has {self.num_topics}"
            )
        return self._probabilities @ dist

    def topic_slice(self, topic: int) -> np.ndarray:
        """Arc probabilities for a single pure topic."""
        if not 0 <= topic < self.num_topics:
            raise InvalidGraphError(
                f"topic {topic} out of range [0, {self.num_topics})"
            )
        return self._probabilities[:, topic].copy()

    # ------------------------------------------------------------------
    # Reverse view (lazily built, cached)
    # ------------------------------------------------------------------
    @cached_property
    def reverse_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """In-adjacency CSR: ``(in_indptr, in_tails, in_arc_ids)``.

        ``in_arc_ids[k]`` is the position of the arc in the forward CSR
        arrays, so per-arc probabilities can be gathered for backward
        walks (RIS sampling, cascade-credit learning) without copying
        the ``(m, Z)`` matrix.
        """
        m = self.num_arcs
        order = np.argsort(self._indices, kind="stable")
        heads_sorted = self._indices[order]
        counts = np.bincount(heads_sorted, minlength=self._num_nodes)
        in_indptr = np.concatenate(([0], np.cumsum(counts)))
        tails = np.repeat(
            np.arange(self._num_nodes, dtype=np.int64), np.diff(self._indptr)
        )
        in_tails = tails[order]
        in_arc_ids = order.astype(np.int64)
        assert in_indptr[-1] == m
        return in_indptr, in_tails, in_arc_ids

    def predecessors(self, node: int) -> np.ndarray:
        """Arc tails that point into ``node``."""
        in_indptr, in_tails, _ = self.reverse_view
        return in_tails[in_indptr[node] : in_indptr[node + 1]]

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` with a ``probabilities``
        array attribute per arc (mostly for inspection/plotting)."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(self._num_nodes))
        for arc_id, (tail, head) in enumerate(self.arcs()):
            graph.add_edge(
                int(tail),
                int(head),
                probabilities=self._probabilities[arc_id].copy(),
            )
        return graph

    @classmethod
    def from_networkx(cls, graph, *, num_topics: int | None = None) -> "TopicGraph":
        """Import a :class:`networkx.DiGraph` whose edges carry a
        ``probabilities`` attribute (array of length ``Z``)."""
        nodes = sorted(graph.nodes())
        if nodes != list(range(len(nodes))):
            raise InvalidGraphError(
                "networkx graph must have integer nodes 0..n-1"
            )
        arcs = []
        probs = []
        for tail, head, data in graph.edges(data=True):
            if "probabilities" not in data:
                raise InvalidGraphError(
                    f"edge ({tail}, {head}) lacks a 'probabilities' attribute"
                )
            arcs.append((tail, head))
            probs.append(np.asarray(data["probabilities"], dtype=np.float64))
        if not arcs:
            if num_topics is None:
                raise InvalidGraphError(
                    "cannot infer num_topics from an edgeless graph; "
                    "pass num_topics explicitly"
                )
            return cls.from_arcs(
                len(nodes), np.empty((0, 2)), np.empty((0, num_topics))
            )
        return cls.from_arcs(len(nodes), np.asarray(arcs), np.vstack(probs))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TopicGraph(num_nodes={self.num_nodes}, "
            f"num_arcs={self.num_arcs}, num_topics={self.num_topics})"
        )
