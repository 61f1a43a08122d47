"""Closed-form worldsheets and edges used as test fixtures and initial data.

Every entry stores analytic derivative callbacks; none relies on finite
differences.  Expected geometric facts are attached with tolerances and a
provenance tag and are reproduced by :func:`evaluate_entry`, which is the
central regression path shared with the command-line ``verify``.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .background import euclidean, minkowski
from .boundary import (
    BoundaryEmbedding,
    _boundary_local,
    _EdgeLocal,
    _laplacian_residuals,
    _projected_trace,
    edge_equation_residual,
)
from .errors import InvalidParameters, _numbers
from .geometry import Embedding, _Evaluation, _frame_at, _gauss_weingarten, extrinsic_curvature
from .integrability import (
    _boundary_integrability,
    _direct_embedding,
    _sheet_riemann,
    worldsheet_integrability_residuals,
)

Array = np.ndarray


@dataclass(frozen=True)
class ExpectedValue:
    quantity: str
    value: float
    tolerance: float
    provenance: str  # one of {"paper", "trivial", "derived"}

    def __post_init__(self) -> None:
        if self.provenance not in ("paper", "trivial", "derived"):
            raise InvalidParameters(f"unknown provenance {self.provenance!r}")


@dataclass(frozen=True)
class CatalogEntry:
    """A closed-form scenario: embedding, optional edges, and expected facts.

    Edges are declared once, as limits in ``domain``.  They are graphs over
    the leading coordinates, chi(u) = (u, f(u)), and bound the last axis:
    from below in the ``lo`` slot (orientation -1), from above in the ``hi``
    slot (orientation +1).  ``boundaries`` lists them ``hi`` slot first, so
    ``boundary`` is the upper edge when the last axis has two.  Edge rows
    sample the leading axes of ``sample_box`` (``boundary_grid``).
    """

    id: str
    embedding: Embedding
    parameters: dict
    expected: tuple[ExpectedValue, ...]
    sample_box: tuple[tuple[float, float], ...]
    periodic: tuple[bool, ...] = ()
    domain: tuple = ()   # per-axis (lo, hi); entries may be BoundaryEmbedding

    @property
    def boundaries(self) -> tuple[BoundaryEmbedding, ...]:
        return tuple(lim for limits in self.domain[-1:] for lim in reversed(limits)
                     if isinstance(lim, BoundaryEmbedding))

    @property
    def boundary(self) -> BoundaryEmbedding | None:
        return self.boundaries[0] if self.boundaries else None

    def sample_grid(self, per_dim: int = 5) -> Array:
        return _grid(self.sample_box, per_dim)

    def boundary_grid(self, count: int = 7) -> Array:
        return _grid(self.sample_box[:-1], count)


def _grid(box, per_dim: int) -> Array:
    out = np.empty((per_dim,) * len(box) + (len(box),))
    for i, (lo, hi) in enumerate(box):
        out[..., i] = np.linspace(lo, hi, per_dim).reshape((-1,) + (1,) * (len(box) - 1 - i))
    return out.reshape(-1, len(box))


def _stack(*comps):
    """``np.stack(comps, axis=-1)`` of same-shape arrays, without its Python-level checks."""
    return np.concatenate([c[..., None] for c in comps], axis=-1)


def _sym2(xx, xy, yy):
    """Symmetric 2x2 Hessian block (..., N, 2, 2) from its three columns."""
    return _stack(_stack(xx, xy), _stack(xy, yy))


def _graph_boundary(parent: Embedding, level_fn, d_level_fn, dd_level_fn,
                    orientation: int) -> BoundaryEmbedding:
    """Edge as a graph over the leading worldsheet coordinates: chi(u) = (u, f(u))."""
    db = parent.worldsheet_dim - 1

    def chi(u):
        u = np.asarray(u, dtype=float)
        return np.concatenate([u, level_fn(u)[..., None]], axis=-1)

    def d_chi(u):
        u = np.asarray(u, dtype=float)
        eye = np.broadcast_to(np.eye(db), u.shape[:-1] + (db, db)).copy()
        return np.concatenate([eye, d_level_fn(u)[..., None, :]], axis=-2)

    def dd_chi(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape[:-1] + (db + 1, db, db))
        out[..., db, :, :] = dd_level_fn(u)
        return out

    return BoundaryEmbedding(parent, chi, orientation, d_chi, dd_chi)


def _constant_boundary(parent: Embedding, level: float, orientation: int) -> BoundaryEmbedding:
    db = parent.worldsheet_dim - 1
    return _graph_boundary(parent, lambda u: np.full(np.shape(u)[:-1], level),
                           lambda u: np.zeros(np.shape(u)[:-1] + (db,)),
                           lambda u: np.zeros(np.shape(u)[:-1] + (db, db)), orientation)


# ----------------------------------------------------------------------------
# scenario entries


def helicoid(omega: float = 0.5, R: float = 1.0) -> CatalogEntry:
    """Rigidly rotating string worldsheet truncated at radius R, two massive ends.

    Valid for omega*R < 1 (the edge would be null at equality).  The stored
    tensions mu0 = 1 and mub = mu0 (1 - w^2 R^2) / (w^2 R) make the orbit exact.
    """
    if not (_numbers(omega, R) and 0 < R < math.inf and 0 <= omega < math.inf
            and omega * R < 1.0):
        raise InvalidParameters("helicoid requires finite R > 0 and 0 <= omega*R < 1")
    om = float(omega)
    bg = minkowski(3)

    def pos(xi):
        t, s = xi[..., 0], xi[..., 1]
        return _stack(t, s * np.cos(om * t), s * np.sin(om * t))

    def dpos(xi):
        t, s = xi[..., 0], xi[..., 1]
        c, sn = np.cos(om * t), np.sin(om * t)
        one, zero = np.ones(t.shape), np.zeros(t.shape)
        et = _stack(one, -s * om * sn, s * om * c)
        es = _stack(zero, c, sn)
        return _stack(et, es)

    def ddpos(xi):
        t, s = xi[..., 0], xi[..., 1]
        c, sn = np.cos(om * t), np.sin(om * t)
        z = np.zeros(t.shape)
        xtt = _stack(z, -s * om * om * c, -s * om * om * sn)
        xts = _stack(z, -om * sn, om * c)
        return _sym2(xtt, xts, _stack(z, z, z))

    emb = Embedding(2, bg, pos, dpos, ddpos)
    k_edge = -om * om * R / (1.0 - om * om * R * R)
    expected = [
        ExpectedValue("curvature_trace_norm", 0.0, 1e-9, "paper"),
        ExpectedValue("boundary_condition_max", 0.0, 1e-9, "paper"),
        ExpectedValue("gauss_weingarten_max", 0.0, 1e-6, "derived"),
        ExpectedValue("scalar_curvature_dev", 0.0, 1e-6, "derived"),
        ExpectedValue("integrability_worldsheet", 0.0, 1e-6, "derived"),
        ExpectedValue("laplacian_form_agreement", 0.0, 1e-8, "derived"),
    ]
    params = {"omega": om, "R": R, "mu0": 1.0}
    if om > 0:
        params["mub"] = (1.0 - om * om * R * R) / (om * om * R)
        expected += [
            ExpectedValue("edge_trace", k_edge, 1e-9, "derived"),
            ExpectedValue("edge_residual", 0.0, 1e-9, "derived"),
        ]
    else:
        expected.append(ExpectedValue("edge_trace", 0.0, 1e-9, "trivial"))
    return CatalogEntry(
        id="helicoid",
        embedding=emb,
        parameters=params,
        expected=tuple(expected),
        # sigma = 0, where the deterministic normal gauge flips sign, is not on this
        # grid; the residuals align the normals they difference, so hold there too
        sample_box=((0.0, 2.0), (-0.88 * R, 0.92 * R)),
        periodic=(False, False),
        domain=((0.0, 1.0), (_constant_boundary(emb, -R, -1), _constant_boundary(emb, R, 1))),
    )


def collision_time(a: float, x0: float) -> float:
    """Meeting time of the two constant-proper-acceleration endpoint worldlines."""
    return math.sqrt((a * x0 + 1.0) ** 2 - 1.0) / a


def endpoint_worldline(a: float, x0: float, t: Array) -> Array:
    """Right endpoint position x(t) = x0 - (sqrt(1 + a^2 t^2) - 1)/a."""
    t = np.asarray(t, dtype=float)
    return x0 - (np.sqrt(1.0 + a * a * t * t) - 1.0) / a


def collapsing_string(a: float = 1.0, x0: float = 1.0) -> CatalogEntry:
    """Straight string between point masses pulled inward at constant proper rate a.

    The worldsheet is a flat strip; the edges are the hyperbolic worldlines
    x(t) = +/- [x0 - (sqrt(1 + a^2 t^2) - 1)/a] with edge curvature k = -a.
    """
    if not (_numbers(a, x0) and 0 < a < math.inf and 0 < x0 < math.inf):
        raise InvalidParameters("collapsing string requires finite a > 0 and x0 > 0")
    emb = _flat_strip()

    def make_side(sign):
        def level(u):
            return sign * endpoint_worldline(a, x0, u[..., 0])

        def dlevel(u):
            t = u[..., 0]
            return (-sign * a * t / np.sqrt(1.0 + a * a * t * t))[..., None]

        def ddlevel(u):
            t = u[..., 0]
            return (-sign * a / (1.0 + a * a * t * t) ** 1.5)[..., None, None]

        return _graph_boundary(emb, level, dlevel, ddlevel, sign)

    t_coll = collision_time(a, x0)
    return CatalogEntry(
        id="collapsing",
        embedding=emb,
        parameters={"a": a, "x0": x0, "mu0": a, "mub": 1.0},
        expected=(
            ExpectedValue("curvature_trace_norm", 0.0, 1e-12, "trivial"),
            ExpectedValue("boundary_condition_max", 0.0, 1e-12, "paper"),
            ExpectedValue("edge_trace", -a, 1e-9, "derived"),
            ExpectedValue("edge_residual", 0.0, 1e-9, "derived"),
            ExpectedValue("edge_x_at_collision", 0.0, 1e-12, "derived"),
            ExpectedValue("edge_on_hyperbola", 0.0, 1e-12, "derived"),
            ExpectedValue("laplacian_form_agreement", 0.0, 1e-8, "derived"),
        ),
        sample_box=((0.0, 0.4 * t_coll), (-0.8 * x0, 0.8 * x0)),
        periodic=(False, False),
        domain=((0.0, 0.5), (make_side(-1), make_side(1))),
    )


def planar_hole(rho: float = 2.0, outer: float | None = None) -> CatalogEntry:
    """Static membrane sheet with a circular hole: worldsheet = time x (plane minus disk).

    Polar bulk coordinates (t, phi, r) with the edge at r = rho; the stored
    tensions mu0 = 1 and mub = mu0 * rho make the hole an equilibrium.
    """
    outer = _hole_radii(rho, outer)
    emb = _static(_polar_plane())
    return CatalogEntry(
        id="hole",
        embedding=emb,
        parameters={"rho": rho, "outer": outer, "mu0": 1.0, "mub": rho},
        expected=(
            ExpectedValue("curvature_trace_norm", 0.0, 1e-9, "trivial"),
            ExpectedValue("boundary_condition_max", 0.0, 1e-9, "paper"),
            ExpectedValue("edge_trace", -1.0 / rho, 1e-9, "derived"),
            ExpectedValue("edge_residual", 0.0, 1e-9, "derived"),
            ExpectedValue("gauss_weingarten_max", 0.0, 1e-6, "derived"),
            ExpectedValue("integrability_worldsheet", 0.0, 1e-6, "derived"),
            ExpectedValue("integrability_boundary", 0.0, 1e-6, "derived"),
            ExpectedValue("integrability_direct", 0.0, 1e-6, "derived"),
            ExpectedValue("laplacian_form_agreement", 0.0, 1e-8, "derived"),
        ),
        sample_box=((0.0, 1.0), (0.3, 5.9), (rho, outer)),
        periodic=(False, True, False),
        domain=((0.0, 1.0), (0.0, 2.0 * math.pi), (_constant_boundary(emb, rho, -1), outer)),
    )


def _hole_radii(rho: float, outer: float | None) -> float:
    """The outer radius of a plane with a hole of radius rho (default rho + 2, > rho), checked."""
    if not (_numbers(rho) and rho > 0):
        raise InvalidParameters("hole radius must be positive")
    outer = outer if outer is not None else max(rho + 2.0, math.nextafter(rho, math.inf))
    if not (_numbers(outer) and rho < outer < math.inf):
        raise InvalidParameters("outer radius must be finite and above the hole radius")
    return outer


def _static(base: Embedding) -> Embedding:
    """Static sheet time x base in Minkowski space: (t, xi) -> (t, X(xi)).

    Composes the base's raw callbacks, so each call evaluates its map once.
    """
    n, d = base.background.dimension + 1, base.worldsheet_dim + 1

    def pos(xi):
        return np.concatenate([xi[..., :1], base.position_fn(xi[..., 1:])], axis=-1)

    def dpos(xi):
        out = np.zeros(xi.shape[:-1] + (n, d))
        out[..., 0, 0] = 1.0
        out[..., 1:, 1:] = base.d_position_fn(xi[..., 1:])
        return out

    def ddpos(xi):
        out = np.zeros(xi.shape[:-1] + (n, d, d))
        out[..., 1:, 1:, 1:] = base.dd_position_fn(xi[..., 1:])
        return out

    return Embedding(d, minkowski(n), pos, dpos, ddpos)


def euclidean_disk(rho: float = 1.0) -> CatalogEntry:
    """Flat disk membrane of radius rho in polar coordinates (phi, r), edge outward."""
    if not (_numbers(rho) and 0 < rho < math.inf):
        raise InvalidParameters("disk radius must be finite and positive")
    emb = _polar_plane()
    return CatalogEntry(
        id="disk",
        embedding=emb,
        parameters={"rho": rho},
        expected=(
            ExpectedValue("curvature_trace_norm", 0.0, 1e-12, "trivial"),
            ExpectedValue("boundary_condition_max", 0.0, 1e-12, "trivial"),
            ExpectedValue("edge_trace", 1.0 / rho, 1e-9, "derived"),
        ),
        sample_box=((0.3, 5.9), (0.2 * rho, rho)),
        periodic=(True, False),
        domain=((0.0, 2.0 * math.pi), (0.0, _constant_boundary(emb, rho, 1))),
    )


def euclidean_plane_hole(rho: float = 2.0, outer: float | None = None) -> CatalogEntry:
    """Flat plane minus a disk (Euclidean), edge oriented toward the hole center."""
    outer = _hole_radii(rho, outer)
    emb = _polar_plane()
    return CatalogEntry(
        id="plane_hole",
        embedding=emb,
        parameters={"rho": rho, "outer": outer, "mu0": 1.0, "mub": rho},
        expected=(
            ExpectedValue("curvature_trace_norm", 0.0, 1e-12, "trivial"),
            ExpectedValue("edge_trace", -1.0 / rho, 1e-9, "derived"),
            ExpectedValue("edge_residual", 0.0, 1e-9, "derived"),
            ExpectedValue("laplacian_form_agreement", 0.0, 1e-8, "derived"),
        ),
        sample_box=((0.3, 5.9), (rho, outer)),
        periodic=(True, False),
        domain=((0.0, 2.0 * math.pi), (_constant_boundary(emb, rho, -1), outer)),
    )


def _polar_plane() -> Embedding:
    bg = euclidean(3)

    def pos(xi):
        ph, r = xi[..., 0], xi[..., 1]
        return _stack(r * np.cos(ph), r * np.sin(ph), np.zeros(ph.shape))

    def dpos(xi):
        ph, r = xi[..., 0], xi[..., 1]
        z = np.zeros(ph.shape)
        eph = _stack(-r * np.sin(ph), r * np.cos(ph), z)
        er = _stack(np.cos(ph), np.sin(ph), z)
        return _stack(eph, er)

    def ddpos(xi):
        ph, r = xi[..., 0], xi[..., 1]
        z = np.zeros(ph.shape)
        xphph = _stack(-r * np.cos(ph), -r * np.sin(ph), z)
        xphr = _stack(-np.sin(ph), np.cos(ph), z)
        return _sym2(xphph, xphr, _stack(z, z, z))

    return Embedding(2, bg, pos, dpos, ddpos)


def _flat_strip() -> Embedding:
    """Flat Minkowski strip (t, sigma) -> (t, sigma, 0)."""
    bg = minkowski(3)

    def pos(xi):
        t, s = xi[..., 0], xi[..., 1]
        return _stack(t, s, np.zeros(t.shape))

    def dpos(xi):
        shp = np.asarray(xi, dtype=float).shape[:-1]
        d = np.zeros(shp + (3, 2))
        d[..., 0, 0] = 1.0
        d[..., 1, 1] = 1.0
        return d

    def ddpos(xi):
        shp = np.asarray(xi, dtype=float).shape[:-1]
        return np.zeros(shp + (3, 2, 2))

    return Embedding(2, bg, pos, dpos, ddpos)


def plane() -> CatalogEntry:
    """Flat Minkowski strip (t, sigma) -> (t, sigma, 0) with straight edges at +-1."""
    emb = _flat_strip()
    return CatalogEntry(
        id="plane",
        embedding=emb,
        parameters={"mu0": 1.0, "mub": 1.0},
        expected=(
            ExpectedValue("curvature_trace_norm", 0.0, 1e-12, "trivial"),
            ExpectedValue("scalar_curvature_dev", 0.0, 1e-12, "trivial"),
            ExpectedValue("boundary_condition_max", 0.0, 1e-12, "trivial"),
            ExpectedValue("edge_trace", 0.0, 1e-12, "trivial"),
            ExpectedValue("gauss_weingarten_max", 0.0, 1e-9, "trivial"),
            ExpectedValue("integrability_worldsheet", 0.0, 1e-9, "trivial"),
            ExpectedValue("laplacian_form_agreement", 0.0, 1e-10, "trivial"),
        ),
        sample_box=((0.0, 1.0), (-0.9, 0.9)),
        periodic=(False, False),
        domain=((0.0, 1.0), (_constant_boundary(emb, -1.0, -1), _constant_boundary(emb, 1.0, 1))),
    )


def sphere(radius: float = 2.0) -> CatalogEntry:
    """Round sphere in Euclidean 3-space, spherical coordinates (theta, phi)."""
    if not (_numbers(radius) and 0 < radius < math.inf):
        raise InvalidParameters("sphere radius must be finite and positive")
    r = float(radius)
    bg = euclidean(3)

    def pos(xi):
        th, ph = xi[..., 0], xi[..., 1]
        return r * _stack(np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th))

    def dpos(xi):
        th, ph = xi[..., 0], xi[..., 1]
        eth = r * _stack(np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th))
        eph = r * _stack(-np.sin(th) * np.sin(ph), np.sin(th) * np.cos(ph), np.zeros(th.shape))
        return _stack(eth, eph)

    def ddpos(xi):
        th, ph = xi[..., 0], xi[..., 1]
        z = np.zeros(th.shape)
        xtt = -pos(xi)
        xtp = r * _stack(-np.cos(th) * np.sin(ph), np.cos(th) * np.cos(ph), z)
        xpp = r * _stack(-np.sin(th) * np.cos(ph), -np.sin(th) * np.sin(ph), z)
        return _sym2(xtt, xtp, xpp)

    emb = Embedding(2, bg, pos, dpos, ddpos)
    return CatalogEntry(
        id="sphere",
        embedding=emb,
        parameters={"radius": r},
        expected=(
            ExpectedValue("curvature_trace_norm", 2.0 / r, 1e-9, "derived"),
            ExpectedValue("scalar_curvature_dev", 0.0, 1e-6, "derived"),
            ExpectedValue("gauss_weingarten_max", 0.0, 1e-6, "derived"),
            ExpectedValue("integrability_worldsheet", 0.0, 1e-6, "derived"),
        ),
        sample_box=((0.5, 2.4), (0.2, 1.2)),
        periodic=(False, True),
        domain=((0.5, 2.4), (0.2, 1.2)),
    )


def flat_torus(r1: float = 1.0, r2: float = 1.0) -> CatalogEntry:
    """Intrinsically flat product torus in Euclidean 4-space (two independent circles)."""
    if not (_numbers(r1, r2) and 0 < r1 < math.inf and 0 < r2 < math.inf):
        raise InvalidParameters("torus radii must be finite and positive")
    bg = euclidean(4)

    def pos(xi):
        u, v = xi[..., 0], xi[..., 1]
        return _stack(r1 * np.cos(u), r1 * np.sin(u), r2 * np.cos(v), r2 * np.sin(v))

    def dpos(xi):
        u, v = xi[..., 0], xi[..., 1]
        z = np.zeros(u.shape)
        eu = _stack(-r1 * np.sin(u), r1 * np.cos(u), z, z)
        ev = _stack(z, z, -r2 * np.sin(v), r2 * np.cos(v))
        return _stack(eu, ev)

    def ddpos(xi):
        u, v = xi[..., 0], xi[..., 1]
        z = np.zeros(u.shape)
        xuu = _stack(-r1 * np.cos(u), -r1 * np.sin(u), z, z)
        xvv = _stack(z, z, -r2 * np.cos(v), -r2 * np.sin(v))
        return _sym2(xuu, _stack(z, z, z, z), xvv)

    emb = Embedding(2, bg, pos, dpos, ddpos)
    trace_norm = math.sqrt(1.0 / r1 ** 2 + 1.0 / r2 ** 2)
    return CatalogEntry(
        id="torus",
        embedding=emb,
        parameters={"r1": r1, "r2": r2},
        expected=(
            ExpectedValue("curvature_trace_norm", trace_norm, 1e-9, "derived"),
            ExpectedValue("scalar_curvature_dev", 0.0, 1e-8, "derived"),
            ExpectedValue("gauss_weingarten_max", 0.0, 1e-6, "derived"),
            ExpectedValue("integrability_worldsheet", 0.0, 1e-6, "derived"),
        ),
        sample_box=((0.3, 1.2), (0.3, 1.2)),
        periodic=(True, True),
        domain=((0.3, 1.2), (0.3, 1.2)),
    )


_BUILDERS = {
    "plane": plane,
    "sphere": sphere,
    "torus": flat_torus,
    "helicoid": helicoid,
    "collapsing": collapsing_string,
    "hole": planar_hole,
    "disk": euclidean_disk,
    "plane_hole": euclidean_plane_hole,
}

def entry_from_id(entry_id: str) -> CatalogEntry:
    """Build an entry from an id string like ``helicoid:omega=0.5,R=1`` (positional parameters)."""
    name, _, rest = entry_id.partition(":")
    name = name.strip()
    if name not in _BUILDERS:
        raise KeyError(f"unknown catalog entry {name!r}")
    builder = _BUILDERS[name]
    keys = {p.name for p in inspect.signature(builder).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD}
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in keys:
                raise KeyError(f"unknown parameter {key!r} for entry {name!r}")
            if key in kwargs:
                raise InvalidParameters(f"parameter {key!r} is given more than once")
            if not val:
                raise InvalidParameters(f"parameter {key!r} needs a value")
            try:
                kwargs[key] = float(val)
            except ValueError:
                raise InvalidParameters(f"parameter {key}={val} is not a number") from None
            if not math.isfinite(kwargs[key]):
                raise InvalidParameters(f"parameter {key}={val} is not finite")
    return builder(**kwargs)


def catalog_ids() -> list[str]:
    return sorted(_BUILDERS)


# ----------------------------------------------------------------------------
# expected-value evaluation (shared by tests and the verify command)

_FD_GW_STEP = 1e-4
_FD_INT_STEP = 1e-4
_FD_RIEMANN_STEP = 1.5e-4
# the integrability edge rows vanish identically on a curve: 2D edges only
_EDGE_QUANTITIES = ("edge_trace", "edge_residual", "boundary_condition_max",
                    "laplacian_form_agreement", "integrability_boundary", "integrability_direct")


def _every(points: Array, parts: int) -> Array:
    """Every (len // parts)-th row of ``points``: a subset of about ``parts`` + 1 points."""
    return points[:: max(1, len(points) // parts)]


def _eval_quantity(entry: CatalogEntry, quantity: str, expected: float, pts: Array, u: Array,
                   sheet: Callable[[], _Evaluation], edges: Callable[[], list[_EdgeLocal]],
                   edge_subset: Callable[[], list[_EdgeLocal]]) -> float:
    """Worst-case sampled value of a named quantity (the sample maximizing |q - expected|).

    ``pts`` and ``u`` are the entry's ``sample_grid()`` and ``boundary_grid()``.  Each
    point set's checked records are built by the first row that reads them and shared by
    the rest: ``sheet()`` at ``_every(pts, 6)``, and the second-order evaluation of each
    edge, ``edges()`` at ``u`` and ``edge_subset()`` at ``_every(u, 3)``.
    """
    emb = entry.embedding
    if quantity == "curvature_trace_norm":
        return _worst(np.linalg.norm(extrinsic_curvature(emb, pts).traces, axis=-1), expected)
    if quantity == "scalar_curvature_dev":
        loc = sheet()
        riem, gi = _sheet_riemann(loc, _FD_RIEMANN_STEP), loc.induced_metric_inverse
        scal = np.einsum("...ac,...ac->...", gi, np.einsum("...bd,...abcd->...ac", gi, riem))
        return _worst(scal - _reference_scalar_curvature(entry, loc.point), expected)
    if quantity == "gauss_weingarten_max":
        return _worst(np.maximum(*_gauss_weingarten(sheet(), _FD_GW_STEP)), expected)
    if quantity == "integrability_worldsheet":
        return worldsheet_integrability_residuals(emb, _every(pts, 4), _FD_INT_STEP).max()
    if quantity == "edge_x_at_collision":  # the upper edge reaches x = 0
        t = collision_time(entry.parameters["a"], entry.parameters["x0"])
        return float(entry.boundaries[0].chi(np.array([t]))[..., -1])
    if quantity == "edge_on_hyperbola":  # (x0 + 1/a - x)^2 - t^2 = 1/a^2, at t = 1
        a, x0 = entry.parameters["a"], entry.parameters["x0"]
        x = float(entry.boundaries[0].chi(np.array([1.0]))[..., -1])
        return (x0 + 1.0 / a - x) ** 2 - 1.0 - 1.0 / a ** 2

    # edge quantities: worst case over all attached boundaries
    if quantity not in _EDGE_QUANTITIES:
        raise KeyError(f"unknown expected quantity {quantity!r}")
    if not entry.boundaries:
        raise KeyError(f"edge quantity {quantity!r} needs an entry with edges "
                       f"({entry.id!r} has none)")
    some = _every(u, 3)
    mu0, mub = entry.parameters.get("mu0", 1.0), entry.parameters.get("mub", 1.0)
    if quantity == "edge_trace":
        vals = [bl.bd.edge_trace for bl in edges()]
    elif quantity == "edge_residual":
        vals = [edge_equation_residual(bl.bd, mu0, mub) for bl in edges()]
    elif quantity == "boundary_condition_max":
        vals = [np.linalg.norm(_projected_trace(bl), axis=-1) for bl in edges()]
    elif quantity == "laplacian_form_agreement":
        vals = [np.linalg.norm(_projected_trace(bl) + _laplacian_residuals(bl, mu0, mub).normal,
                               axis=-1) for bl in edges()]
    elif quantity == "integrability_boundary":
        vals = [np.maximum(*_boundary_integrability(bnd, bl, some, _FD_INT_STEP))
                for bnd, bl in zip(entry.boundaries, edge_subset())]
    else:  # integrability_direct
        vals = [np.full(some.shape[0], _direct_embedding(bnd, bl, some, _FD_INT_STEP).max())
                for bnd, bl in zip(entry.boundaries, edge_subset())]
    return _worst(np.concatenate([np.atleast_1d(v) for v in vals]), expected)


def _reference_scalar_curvature(entry: CatalogEntry, pts: Array) -> float | Array:
    if entry.id == "sphere":
        return 2.0 / entry.parameters["radius"] ** 2
    if entry.id == "helicoid":  # ds^2 = -(1 - w^2 s^2) dt^2 + ds^2
        w2 = entry.parameters["omega"] ** 2
        return 2.0 * w2 / (1.0 - w2 * pts[..., 1] ** 2) ** 2
    return 0.0


def _worst(values: Array, expected: float) -> float:
    values = np.atleast_1d(np.asarray(values, dtype=float))
    idx = np.argmax(np.abs(values - expected))
    return float(values.reshape(-1)[idx])


def evaluate_entry(entry: CatalogEntry) -> list[tuple[str, float, float, float, bool]]:
    """Evaluate all expected quantities; rows are (quantity, value, expected, residual, pass)."""
    pts, u = entry.sample_grid(), entry.boundary_grid()
    sheet = cache(lambda: _frame_at(entry.embedding, _every(pts, 6)))
    edges = cache(lambda: [_boundary_local(bnd, u) for bnd in entry.boundaries])
    edge_subset = cache(lambda: [_boundary_local(bnd, _every(u, 3)) for bnd in entry.boundaries])
    rows = []
    for exp in entry.expected:
        value = _eval_quantity(entry, exp.quantity, exp.value, pts, u, sheet, edges, edge_subset)
        residual = abs(value - exp.value)
        rows.append((exp.quantity, value, exp.value, residual, residual <= exp.tolerance))
    return rows


def action_setup(entry: CatalogEntry, mu0: float, mub: float,
                 points_per_axis: tuple[int, ...]):
    """Quadrature config and displaceable edges for an entry's stored domain.

    ``points_per_axis`` holds one midpoint count per axis.  Returns (ActionConfig,
    edges) for the variation operations; edge graphs bound the last axis.
    Raises InvalidParameters when an edge's orientation disagrees with its
    slot: a ``lo`` edge needs -1 and a ``hi`` edge +1.
    """
    from .variation import ActionConfig, GridAxis

    axes = []
    edges: list[BoundaryEmbedding] = []
    for i, limits in enumerate(entry.domain):
        lims = []
        for lim, slot, orientation in zip(limits, ("lo", "hi"), (-1, 1)):
            if isinstance(lim, BoundaryEmbedding):
                if lim.orientation != orientation:
                    raise InvalidParameters(f"the {slot} limit of axis {i} needs an edge "
                                            f"of orientation {orientation:+d}")
                edges.append(lim)
                lim = _graph_limit(lim)
            lims.append(lim)
        axes.append(GridAxis(points_per_axis[i], *lims))
    return ActionConfig(mu0, mub, tuple(axes)), tuple(edges)


def _graph_limit(edge: BoundaryEmbedding):
    """Last-coordinate limit f(u) of a graph edge chi(u) = (u, f(u))."""
    return lambda u: edge.chi(u)[..., -1]
