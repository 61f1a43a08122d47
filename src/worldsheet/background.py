"""Ambient metrics: built-in flat spaces plus user-supplied curved backgrounds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray

LORENTZIAN = "lorentzian"
EUCLIDEAN = "euclidean"


@dataclass(frozen=True)
class BackgroundMetric:
    """Metric g_{mu nu} on an N-dimensional background, with Christoffel symbols.

    Callables broadcast over leading batch axes: ``metric_fn`` maps points of
    shape (..., N) to (..., N, N) matrices, ``christoffel_fn`` to
    (..., N, N, N) arrays indexed [mu, alpha, beta] (upper index first), and
    ``riemann_fn`` to (..., N, N, N, N) arrays R^mu_{nu rho sigma}.  When the
    callables are omitted the background is flat: the metric is the constant
    signature matrix and the Christoffels and Riemann tensor are read-only zero
    views.  Curved backgrounds must supply Christoffels (and, for integrability
    checks, the Riemann tensor) analytically; they are never finite-differenced.
    """

    dimension: int
    signature: str
    metric_fn: Callable[[Array], Array] | None = None
    christoffel_fn: Callable[[Array], Array] | None = None
    riemann_fn: Callable[[Array], Array] | None = None

    def __post_init__(self) -> None:
        if self.signature not in (LORENTZIAN, EUCLIDEAN):
            raise ValueError(f"unknown signature {self.signature!r}")
        if self.dimension < 1:
            raise ValueError("background dimension must be positive")

    @property
    def flat(self) -> bool:
        return self.metric_fn is None

    def _flat_matrix(self) -> Array:
        g = np.eye(self.dimension)
        if self.signature == LORENTZIAN:
            g[0, 0] = -1.0
        return g

    def metric_at(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if self.metric_fn is None:
            g = self._flat_matrix()
            return np.broadcast_to(g, x.shape[:-1] + g.shape).copy()
        return np.asarray(self.metric_fn(x), dtype=float)

    def christoffels_at(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        n = self.dimension
        if self.christoffel_fn is None:
            if self.metric_fn is not None:
                raise ValueError(
                    "curved backgrounds must supply christoffel_fn analytically"
                )
            return np.broadcast_to(np.zeros((n, n, n)), x.shape[:-1] + (n, n, n))
        return np.asarray(self.christoffel_fn(x), dtype=float)

    def riemann_at(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        n = self.dimension
        if self.riemann_fn is None:
            if self.metric_fn is not None:
                raise ValueError(
                    "curved backgrounds must supply riemann_fn for integrability checks"
                )
            return np.broadcast_to(np.zeros((n, n, n, n)), x.shape[:-1] + (n, n, n, n))
        return np.asarray(self.riemann_fn(x), dtype=float)


def minkowski(dimension: int) -> BackgroundMetric:
    """Flat Lorentzian background with signature (-, +, ..., +)."""
    return BackgroundMetric(dimension=dimension, signature=LORENTZIAN)


def euclidean(dimension: int) -> BackgroundMetric:
    """Flat Euclidean background."""
    return BackgroundMetric(dimension=dimension, signature=EUCLIDEAN)
