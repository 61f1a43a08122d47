"""Ambient metrics: built-in flat spaces plus user-supplied curved backgrounds."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DegenerateMetric, InvalidParameters, _finite

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
    callables are omitted the background is flat: the metric, Christoffels and
    Riemann tensor are read-only views of the constant signature matrix and of
    zeros.  Curved backgrounds must supply Christoffels (and, for integrability
    checks, the Riemann tensor) analytically; they are never finite-differenced.
    A callback value that is not finite raises DegenerateMetric.
    """

    dimension: int
    signature: str
    metric_fn: Callable[[Array], Array] | None = None
    christoffel_fn: Callable[[Array], Array] | None = None
    riemann_fn: Callable[[Array], Array] | None = None

    def __post_init__(self) -> None:
        if self.signature not in (LORENTZIAN, EUCLIDEAN):
            raise InvalidParameters(f"unknown signature {self.signature!r}")
        if self.dimension < 1:
            raise InvalidParameters("background dimension must be positive")

    @property
    def flat(self) -> bool:
        return self.metric_fn is None

    def metric_at(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if self.metric_fn is None:
            g = _signature_matrix(self.dimension, self.signature)
            # np.broadcast_to's read-only view of g at every point, in one C call
            return np.ndarray(x.shape[:-1] + g.shape, float, g, 0, (0,) * (x.ndim - 1) + g.strides)
        return _finite(self.metric_fn(x), DegenerateMetric, "background metric_fn is not finite")

    def christoffels_at(self, x: Array) -> Array:
        return self._curvature_at(x, "christoffel_fn", 3)

    def riemann_at(self, x: Array) -> Array:
        return self._curvature_at(x, "riemann_fn", 4)

    def _curvature_at(self, x: Array, slot: str, rank: int) -> Array:
        """Callback ``slot`` at x; a flat background gives read-only zeros of that rank."""
        x = np.asarray(x, dtype=float)
        fn = getattr(self, slot)
        if fn is None:
            if self.metric_fn is not None:
                raise InvalidParameters(f"curved backgrounds must supply {slot} analytically")
            shape = (self.dimension,) * rank
            return np.broadcast_to(np.zeros(shape), x.shape[:-1] + shape)
        return _finite(fn(x), DegenerateMetric, f"background {slot} is not finite")


@lru_cache(maxsize=None)
def _signature_matrix(dimension: int, signature: str) -> Array:
    """The metric of a flat background, diag(-1 or +1, 1, ..., 1), the same at every point."""
    g = np.eye(dimension)
    g[0, 0] = -1.0 if signature == LORENTZIAN else 1.0
    g.flags.writeable = False  # shared by every caller
    return g


def minkowski(dimension: int) -> BackgroundMetric:
    """Flat Lorentzian background with signature (-, +, ..., +)."""
    return BackgroundMetric(dimension=dimension, signature=LORENTZIAN)


def euclidean(dimension: int) -> BackgroundMetric:
    """Flat Euclidean background."""
    return BackgroundMetric(dimension=dimension, signature=EUCLIDEAN)
