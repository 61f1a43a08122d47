"""Exception types shared across the package, and the number test of its parameter checks."""

from numbers import Real


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
