"""Persistence for :class:`~repro.graph.topic_graph.TopicGraph`.

Graphs (and their potentially large probability matrices) are stored as
compressed ``.npz`` archives.  A plain-text arc-list format is provided
as an interchange path for graphs produced by external tools.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import InvalidGraphError
from repro.graph.topic_graph import TopicGraph

_FORMAT_VERSION = 1


def save_graph(graph: TopicGraph, path) -> None:
    """Write ``graph`` to ``path`` as a compressed ``.npz`` archive."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        target,
        format_version=np.int64(_FORMAT_VERSION),
        num_nodes=np.int64(graph.num_nodes),
        indptr=graph.indptr,
        indices=graph.indices,
        probabilities=graph.probabilities,
    )


def load_graph(path) -> TopicGraph:
    """Load a graph previously written by :func:`save_graph`."""
    with open(Path(path), "rb") as handle, np.load(handle) as data:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise InvalidGraphError(
                f"unsupported graph format version {version}"
            )
        return TopicGraph(
            int(data["num_nodes"]),
            data["indptr"],
            data["indices"],
            data["probabilities"],
        )


def save_arc_list(graph: TopicGraph, path) -> None:
    """Write a human-readable arc list: ``tail head p_1 ... p_Z``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    arcs = graph.arcs()
    with target.open("w", encoding="utf-8") as handle:
        handle.write(f"# nodes={graph.num_nodes} topics={graph.num_topics}\n")
        for arc_id in range(graph.num_arcs):
            tail, head = arcs[arc_id]
            probs = " ".join(
                f"{p:.10g}" for p in graph.probabilities[arc_id]
            )
            handle.write(f"{tail} {head} {probs}\n")


def load_arc_list(path) -> TopicGraph:
    """Read a graph from the text format written by :func:`save_arc_list`."""
    source = Path(path)
    num_nodes = None
    num_topics = None
    arcs: list[tuple[int, int]] = []
    probs: list[list[float]] = []
    with source.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    key, _, value = token.partition("=")
                    if key == "nodes":
                        num_nodes = int(value)
                    elif key == "topics":
                        num_topics = int(value)
                continue
            fields = line.split()
            if num_topics is not None and len(fields) != 2 + num_topics:
                raise InvalidGraphError(
                    f"{source}:{line_no}: expected {2 + num_topics} fields, "
                    f"got {len(fields)}"
                )
            arcs.append((int(fields[0]), int(fields[1])))
            probs.append([float(x) for x in fields[2:]])
    if num_nodes is None:
        num_nodes = 1 + max(
            (max(tail, head) for tail, head in arcs), default=-1
        )
    if not arcs:
        raise InvalidGraphError(f"{source}: no arcs found")
    return TopicGraph.from_arcs(num_nodes, np.asarray(arcs), np.asarray(probs))
