"""Bregman divergence framework.

A Bregman divergence is defined by a strictly convex, differentiable
generator ``f`` on a convex domain:

    d_f(p, q) = f(p) - f(q) - <grad f(q), p - q>        (Eq. 3 of the paper)

The bb-tree (:mod:`repro.bbtree`) and the Bregman clustering routines
(:mod:`repro.clustering`) are written against this abstraction so they
work with any member of the family — KL (the paper's choice), squared
Euclidean, Itakura--Saito, Mahalanobis.

Key facts used downstream (Banerjee et al. 2005, Nielsen & Nock 2009):

* the minimizer of ``sum_i w_i d_f(x_i, c)`` over ``c`` — the
  **right centroid**, where the centroid is the *second* argument — is
  the weighted arithmetic mean of the ``x_i`` for *every* Bregman
  divergence;
* the minimizer of ``sum_i w_i d_f(c, x_i)`` — the **left centroid** —
  is ``grad_f_inverse(mean of grad_f(x_i))``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple

import numpy as np


class PreparedPoint(NamedTuple):
    """One point as the second argument of ``d_f``.

    ``point`` is clamped into the domain of ``f``; ``gradient`` and
    ``generator`` are ``grad f(point)`` and ``f(point)``.
    """

    point: np.ndarray
    gradient: np.ndarray
    generator: float


class BregmanDivergence(ABC):
    """A Bregman divergence ``d_f`` with its generator's calculus."""

    #: Human-readable identifier (used in reprs and persistence).
    name: str = "bregman"

    @abstractmethod
    def generator(self, x: np.ndarray) -> np.ndarray:
        """Generator ``f`` evaluated row-wise; returns shape ``(n,)``."""

    @abstractmethod
    def gradient(self, x: np.ndarray) -> np.ndarray:
        """``grad f`` evaluated row-wise; same shape as ``x``."""

    @abstractmethod
    def gradient_inverse(self, theta: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`gradient` (the dual coordinate map)."""

    def divergence(self, p, q) -> float:
        """Return ``d_f(p, q)`` for two single points."""
        p_arr = self._prepare(np.asarray(p, dtype=np.float64))
        return self.prepared_divergence(
            p_arr,
            float(self.generator(p_arr[np.newaxis, :])[0]),
            self.prepare_point(q),
        )

    def prepare_point(self, point) -> PreparedPoint:
        """``point`` clamped into the domain, with its gradient and
        generator value: all that Eq. 3 needs of a second argument.

        A search meets one query against many stored points, and a
        tree stores each ball center once; preparing either once keeps
        every later divergence bit-identical to :meth:`divergence` and
        :meth:`divergence_to_point`.
        """
        x = self._prepare(np.asarray(point, dtype=np.float64))
        row = x[np.newaxis, :]
        return PreparedPoint(
            x, self.gradient(row)[0], float(self.generator(row)[0])
        )

    @staticmethod
    def prepared_divergence(x, x_generator: float, q: PreparedPoint) -> float:
        """``d_f(x, q)`` for a prepared point ``x`` with ``f(x)`` given."""
        value = (
            x_generator - q.generator - float(np.dot(q.gradient, x - q.point))
        )
        # Numerical round-off can produce tiny negatives for x == q.
        return max(float(value), 0.0)

    @staticmethod
    def prepared_divergences(
        points: np.ndarray, point_generator: np.ndarray, q: PreparedPoint
    ) -> np.ndarray:
        """``d_f(points[i], q)`` for a prepared ``(n, d)`` block.

        The result of a row depends on the whole block: the matrix-vector
        product sums a row in an order that varies with the row's place
        in the block.  A caller that must reproduce another call keeps
        its blocks.
        """
        values = (
            point_generator - q.generator - (points - q.point) @ q.gradient
        )
        return np.maximum(values, 0.0)

    def prepare(self, points) -> np.ndarray:
        """Rows as a float64 matrix clamped into the domain of ``f``.

        Idempotent, so a cloud prepared once can be passed to every
        method below without changing a result.
        """
        return self._prepare(np.atleast_2d(np.asarray(points, dtype=np.float64)))

    def divergence_to_point(
        self, points, q, *, point_generator=None
    ) -> np.ndarray:
        """Return ``d_f(points[i], q)`` for every row — vectorized.

        This is the hot call of the bb-tree leaf scan: the stored index
        points are the first argument and the query the second, matching
        the right-sided KL of the paper.  ``point_generator`` may carry
        ``generator(prepare(points))`` when the same points meet many
        ``q``; the result is bit-identical either way.
        """
        pts = self.prepare(points)
        if point_generator is None:
            point_generator = self.generator(pts)
        return self.prepared_divergences(
            pts, point_generator, self.prepare_point(q)
        )

    def divergence_matrix(
        self, points, centroids, *, point_generator=None
    ) -> np.ndarray:
        """Matrix ``D[i, j] = d_f(points[i], centroids[j])`` by one matmul.

        Eq. 3 expands to

            d_f(x, c) = f(x) - <x, grad f(c)> + (<c, grad f(c)> - f(c)),

        a dot product of ``[x, f(x), 1]`` with
        ``[-grad f(c), 1, <c, grad f(c)> - f(c)]``, so the whole matrix
        is one ``(n, d + 2) @ (d + 2, k)`` product.  Entries are clamped
        at zero and agree with :meth:`divergence_to_point` to rounding,
        not bit for bit (the terms are summed in another order).
        ``point_generator`` is as in :meth:`divergence_to_point`.
        """
        pts = self.prepare(points)
        cents = self.prepare(centroids)
        if point_generator is None:
            point_generator = self.generator(pts)
        n, d = pts.shape
        rows = np.empty((n, d + 2))
        rows[:, :d] = pts
        rows[:, d] = point_generator
        rows[:, d + 1] = 1.0
        grads = self.gradient(cents)
        columns = np.empty((cents.shape[0], d + 2))
        np.negative(grads, out=columns[:, :d])
        columns[:, d] = 1.0
        columns[:, d + 1] = np.einsum("ij,ij->i", cents, grads) - (
            self.generator(cents)
        )
        matrix = rows @ columns.T
        return np.maximum(matrix, 0.0, out=matrix)

    def divergence_from_point(self, p, points) -> np.ndarray:
        """Return ``d_f(p, points[i])`` for every row — vectorized."""
        pts = self._prepare(np.atleast_2d(np.asarray(points, dtype=np.float64)))
        p_arr = self._prepare(np.asarray(p, dtype=np.float64))
        grads = self.gradient(pts)
        values = (
            self.generator(p_arr[np.newaxis, :])[0]
            - self.generator(pts)
            - np.sum(grads * (p_arr[np.newaxis, :] - pts), axis=1)
        )
        return np.maximum(values, 0.0)

    def right_centroid(self, points, weights=None) -> np.ndarray:
        """Weighted mean — minimizes ``sum w_i d_f(x_i, c)`` exactly."""
        pts = self._prepare(np.atleast_2d(np.asarray(points, dtype=np.float64)))
        if weights is None:
            return pts.mean(axis=0)
        w = np.asarray(weights, dtype=np.float64)
        if w.shape[0] != pts.shape[0]:
            raise ValueError(
                f"{w.shape[0]} weights for {pts.shape[0]} points"
            )
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        return (w[:, np.newaxis] * pts).sum(axis=0) / total

    def left_centroid(self, points, weights=None) -> np.ndarray:
        """``grad_f_inverse`` of the mean gradient — minimizes
        ``sum w_i d_f(c, x_i)``."""
        pts = self._prepare(np.atleast_2d(np.asarray(points, dtype=np.float64)))
        grads = self.gradient(pts)
        if weights is None:
            mean_grad = grads.mean(axis=0)
        else:
            w = np.asarray(weights, dtype=np.float64)
            total = w.sum()
            if total <= 0:
                raise ValueError("weights must have a positive sum")
            mean_grad = (w[:, np.newaxis] * grads).sum(axis=0) / total
        return self.gradient_inverse(mean_grad[np.newaxis, :])[0]

    def _prepare(self, x: np.ndarray) -> np.ndarray:
        """Hook for subclasses to clamp inputs into the domain of ``f``."""
        return x

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
