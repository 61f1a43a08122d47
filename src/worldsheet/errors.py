"""Exception types shared across the package, the number test of its parameter checks, and
the one finiteness gate, :func:`_finite`, that the accessor calling a callback (a map, a
background, a field or a ``normal_frame_fn``) applies to each value it returns."""

from numbers import Real

import numpy as np


def _numbers(*values) -> bool:
    """Whether every value is a real number and no bool, so that comparing it is a range check."""
    return all(isinstance(v, Real) and not isinstance(v, bool) for v in values)


class WorldsheetError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateImmersion(WorldsheetError):
    """The tangent map has rank below the worldsheet dimension."""


class DegenerateMetric(WorldsheetError):
    """The induced metric is singular or mis-signed, or the background's is not finite."""


class GaugeFailure(WorldsheetError):
    """Normal-frame construction or alignment degenerated."""


class NullBoundary(WorldsheetError):
    """The boundary is tangent to the light cone; its normal cannot be unit-normalized."""


class InvalidParameters(WorldsheetError):
    """Scenario parameters outside the admissible range."""


class InconsistentGeometry(WorldsheetError):
    """A cross-check identity between two computation paths failed."""


class ConstraintBlowup(WorldsheetError):
    """Gauge constraints exceeded the blowup threshold during evolution."""


class EndpointCollision(WorldsheetError):
    """String endpoints fell below grid resolution (terminal collapse event)."""


def _finite(values, error: type[WorldsheetError], message: str) -> np.ndarray:
    """``values`` as a float array, or ``error(message)`` raised if any of it is not finite."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise error(message)
    return values
