"""Bregman ball tree construction (Section 3.2 of the paper).

Following Nielsen, Piro & Barlaud (EuroCG 2009), the tree is built
top-down by recursively partitioning the index points with Bregman
K-means++.  The branching factor at each node is *learned* by Gaussian
clustering (G-means with the Anderson--Darling test), which splits a
node into as many Gaussian-looking child clusters as the data demands
and thereby avoids heavily overlapping child balls.  Each node stores a
Bregman ball ``B(mu, R)`` covering all points of its subtree, with
``mu`` the (right) Bregman centroid and ``R = max_i d_f(x_i, mu)``.

Searches do not walk the node objects: :class:`SearchTables` lays the
finished tree out once as arrays (node centers with each node's child
slice, leaf populations as slices of one leaf-ordered point matrix),
with every per-point quantity a query would otherwise recompute — the
leaf moments of the Anderson--Darling stopping test
(:class:`LeafMoments`) included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clustering.gmeans import learn_branching_factor
from repro.clustering.kmeanspp import bregman_kmeans
from repro.divergence.base import BregmanDivergence, PreparedPoint
from repro.divergence.kl import KLDivergence
from repro.rng import resolve_rng


@dataclass
class BBTreeNode:
    """One node of the bb-tree.

    Attributes
    ----------
    center / radius:
        The covering Bregman ball ``B(center, radius)``.
    point_ids:
        Indices (into the tree's point matrix) stored at this node;
        non-empty only for leaves.
    children:
        Child nodes; empty for leaves.
    """

    center: np.ndarray
    radius: float
    point_ids: np.ndarray
    children: list["BBTreeNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def size(self) -> int:
        """Number of points in the subtree rooted here."""
        if self.is_leaf:
            return int(self.point_ids.size)
        return sum(child.size for child in self.children)


@dataclass(frozen=True)
class LeafMoments:
    """One leaf population's moments, as the stopping test pools them.

    The Anderson--Darling test of Algorithm 1 pools the query with the
    leaf's points.  Pooling one more point is a rank-one update of
    these moments, so a visited leaf is never re-stacked or
    re-centered: with ``d = query - mean`` and ``n = count + 1`` the
    pooled mean is ``mean + d / n`` and the pooled scatter is
    ``scatter + (count / n) d d^T``.

    Attributes
    ----------
    count:
        Number of points.
    mean:
        Their mean.
    centered:
        The points minus ``mean``, one row each, in leaf order.
    scatter:
        ``centered.T @ centered``.
    bounds:
        Per coordinate, the smallest and the largest centered value
        (a ``(2, Z)`` array): the farthest any point sits from a mean
        along that coordinate is reached at one of them.
    """

    count: int
    mean: np.ndarray
    centered: np.ndarray
    scatter: np.ndarray
    bounds: np.ndarray

    @classmethod
    def of(cls, points: np.ndarray) -> "LeafMoments":
        """The moments of a non-empty ``(count, Z)`` float matrix."""
        mean = points.mean(axis=0)
        centered = points - mean
        return cls(
            count=int(points.shape[0]),
            mean=mean,
            centered=centered,
            scatter=centered.T @ centered,
            bounds=np.stack([centered.min(axis=0), centered.max(axis=0)]),
        )


@dataclass(frozen=True)
class SearchTables:
    """The bb-tree as flat arrays, built once per tree.

    Nodes are numbered breadth first from the root (node 0), so the
    children of node ``i`` are the consecutive nodes
    ``child_start[i]:child_stop[i]`` (an empty range for a leaf).  The
    points of leaf ``i`` are rows ``point_start[i]:point_stop[i]`` of
    the leaf-ordered matrices.

    Each block a search scores — one node's children, one leaf's
    points — is a slice holding the same rows a per-node ``vstack`` or
    per-leaf gather would, and its generator values were computed on
    that block.  A divergence read from the tables is therefore the
    very value :meth:`BregmanDivergence.divergence_to_point` returns
    for the block.  (One product over all points at once is not: the
    matrix-vector product sums a row in an order that depends on the
    row's place in the block.)

    Attributes
    ----------
    child_start / child_stop / point_start / point_stop:
        Per-node slice bounds, as Python lists (read one at a time).
    leaves:
        Leaf node numbers, breadth first.
    radii:
        Ball radius per node.
    centers / center_generator:
        Node centers (clamped into the divergence's domain) and ``f``
        of each, evaluated per child block.
    prepared_centers:
        Per node, the center with its gradient and generator, as the
        single-point divergences of the Eq. 5 bound need them.
    point_ids:
        Tree point ids in leaf order.
    points / point_generator:
        The points in leaf order, clamped, and ``f`` per leaf block.
    raw_points:
        The points in leaf order as given (the Anderson--Darling test
        pools the stored coordinates).
    leaf_moments:
        Per node, the :class:`LeafMoments` of its ``raw_points`` block
        (``None`` for an inner node).
    """

    child_start: list[int]
    child_stop: list[int]
    point_start: list[int]
    point_stop: list[int]
    leaves: list[int]
    radii: list[float]
    centers: np.ndarray
    center_generator: np.ndarray
    prepared_centers: list[PreparedPoint]
    point_ids: np.ndarray
    points: np.ndarray
    point_generator: np.ndarray
    raw_points: np.ndarray
    leaf_moments: list[LeafMoments | None]

    @classmethod
    def from_root(
        cls,
        root: "BBTreeNode",
        points: np.ndarray,
        divergence: BregmanDivergence,
    ) -> "SearchTables":
        nodes = [root]
        child_start: list[int] = []
        child_stop: list[int] = []
        for node in nodes:  # grows as it is read: breadth first
            child_start.append(len(nodes))
            nodes.extend(node.children)
            child_stop.append(len(nodes))
        point_start: list[int] = []
        point_stop: list[int] = []
        leaf_ids: list[np.ndarray] = []
        filled = 0
        for node in nodes:
            point_start.append(filled)
            if node.is_leaf:
                leaf_ids.append(node.point_ids)
                filled += int(node.point_ids.size)
            point_stop.append(filled)
        centers = divergence.prepare([node.center for node in nodes])
        center_generator = np.empty(len(nodes))
        for start, stop in zip(child_start, child_stop):
            if start < stop:
                center_generator[start:stop] = divergence.generator(
                    centers[start:stop]
                )
        point_ids = np.concatenate(leaf_ids).astype(np.int64, copy=False)
        raw_points = points[point_ids]
        prepared = divergence.prepare(raw_points)
        point_generator = np.empty(point_ids.size)
        for start, stop, node in zip(point_start, point_stop, nodes):
            if node.is_leaf:
                point_generator[start:stop] = divergence.generator(
                    prepared[start:stop]
                )
        return cls(
            child_start=child_start,
            child_stop=child_stop,
            point_start=point_start,
            point_stop=point_stop,
            leaves=[i for i, node in enumerate(nodes) if node.is_leaf],
            radii=[float(node.radius) for node in nodes],
            centers=centers,
            center_generator=center_generator,
            prepared_centers=[
                divergence.prepare_point(node.center) for node in nodes
            ],
            point_ids=point_ids,
            points=prepared,
            point_generator=point_generator,
            raw_points=raw_points,
            leaf_moments=[
                LeafMoments.of(raw_points[start:stop])
                if node.is_leaf
                else None
                for start, stop, node in zip(point_start, point_stop, nodes)
            ],
        )


class BBTree:
    """Bregman ball tree over a fixed set of points.

    Parameters
    ----------
    points:
        ``(n, d)`` matrix of points to index (topic distributions in the
        INFLEX use case).
    divergence:
        The Bregman divergence; KL by default, as in the paper.
    leaf_size:
        Maximum number of points per leaf.
    max_branch:
        Cap on the learned branching factor.
    branching:
        ``"gmeans"`` (paper: learn the branching factor with the
        Anderson--Darling test) or an integer for a fixed fan-out.
    ad_alpha:
        Significance level of the G-means normality test.
    seed:
        Randomness for the clustering subroutines.
    """

    def __init__(
        self,
        points,
        *,
        divergence: BregmanDivergence | None = None,
        leaf_size: int = 16,
        max_branch: int = 8,
        branching="gmeans",
        ad_alpha: float = 0.0001,
        seed=None,
    ) -> None:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError(
                f"points must be a non-empty 2-D array, got shape {pts.shape}"
            )
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        if max_branch < 2:
            raise ValueError(f"max_branch must be >= 2, got {max_branch}")
        if isinstance(branching, int) and branching < 2:
            raise ValueError(
                f"fixed branching factor must be >= 2, got {branching}"
            )
        self._points = pts
        self._divergence = divergence if divergence is not None else KLDivergence()
        self._leaf_size = int(leaf_size)
        self._max_branch = int(max_branch)
        self._branching = branching
        self._ad_alpha = float(ad_alpha)
        self._rng = resolve_rng(seed)
        self._root = self._build(np.arange(pts.shape[0], dtype=np.int64))
        self._tables = SearchTables.from_root(
            self._root, pts, self._divergence
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def root(self) -> BBTreeNode:
        return self._root

    @property
    def points(self) -> np.ndarray:
        """The indexed point matrix (rows addressed by ``point_ids``)."""
        return self._points

    @property
    def divergence(self) -> BregmanDivergence:
        return self._divergence

    @property
    def tables(self) -> SearchTables:
        """The tree as flat arrays, as the searches read it."""
        return self._tables

    @property
    def num_points(self) -> int:
        return int(self._points.shape[0])

    def num_leaves(self) -> int:
        """Total number of leaf nodes."""

        def count(node: BBTreeNode) -> int:
            if node.is_leaf:
                return 1
            return sum(count(child) for child in node.children)

        return count(self._root)

    def depth(self) -> int:
        """Longest root-to-leaf path length (root alone = 1)."""

        def walk(node: BBTreeNode) -> int:
            if node.is_leaf:
                return 1
            return 1 + max(walk(child) for child in node.children)

        return walk(self._root)

    def leaves(self) -> list[BBTreeNode]:
        """All leaf nodes, left-to-right."""
        out: list[BBTreeNode] = []

        def walk(node: BBTreeNode) -> None:
            if node.is_leaf:
                out.append(node)
            else:
                for child in node.children:
                    walk(child)

        walk(self._root)
        return out

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _make_ball(self, ids: np.ndarray) -> tuple[np.ndarray, float]:
        members = self._points[ids]
        center = self._divergence.right_centroid(members)
        radius = float(
            self._divergence.divergence_to_point(members, center).max()
        )
        return center, radius

    def _branch_count(self, ids: np.ndarray) -> np.ndarray:
        """Cluster labels partitioning ``ids`` into children."""
        members = self._points[ids]
        if isinstance(self._branching, int):
            k = min(self._branching, ids.size)
            result = bregman_kmeans(
                members, k, self._divergence, seed=self._rng
            )
            return result.labels
        result = learn_branching_factor(
            members,
            self._divergence,
            alpha=self._ad_alpha,
            max_branch=min(self._max_branch, ids.size),
            seed=self._rng,
        )
        return result.labels

    def _build(self, ids: np.ndarray) -> BBTreeNode:
        center, radius = self._make_ball(ids)
        if ids.size <= self._leaf_size:
            return BBTreeNode(center, radius, ids)
        labels = self._branch_count(ids)
        unique = np.unique(labels)
        if unique.size < 2:
            # Clustering failed to split (e.g. duplicated points):
            # terminate as an oversized leaf rather than recurse forever.
            return BBTreeNode(center, radius, ids)
        children = []
        for label in unique:
            child_ids = ids[labels == label]
            children.append(self._build(child_ids))
        return BBTreeNode(center, radius, np.empty(0, dtype=np.int64), children)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BBTree(num_points={self.num_points}, "
            f"leaves={self.num_leaves()}, depth={self.depth()}, "
            f"divergence={self._divergence.name})"
        )
