"""Action functionals and first variations for worldsheets with loaded edges.

Quadrature is a tensor-product midpoint rule.  The last worldsheet coordinate
may have limits given by edge graphs (boundaries are graphs over the leading
coordinates), so domains bounded by moving edges integrate exactly over the
region the edges cut out.  Sums are plain numpy reductions (pairwise), so
results are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .background import LORENTZIAN, BackgroundMetric, _signature_matrix
from .boundary import BoundaryEmbedding, _boundary_local, _edge_frame
from .errors import DegenerateMetric, InvalidParameters
from .geometry import (
    Embedding,
    _det_adjugate,
    _Evaluation,
    _extrinsic,
    _frame_at,
    _procrustes,
    _pullback,
    fd_jacobian,
)

Array = np.ndarray

# Picard inversion of displaced edge graphs: stop once the update is at
# roundoff (relative to the coordinate scale), give up after the sweep cap
_PICARD_TOL = 1e-14
_PICARD_MAX_SWEEPS = 60


@dataclass(frozen=True)
class GridAxis:
    """Midpoint-rule axis: ``points`` cells between ``lo`` and ``hi``.

    Limits of the last axis may be callables of the leading-coordinate mesh
    (shape (..., D-1) -> (...,)); leading axes need constant limits.  Every
    limit is finite, with lo < hi at every point of the leading mesh.
    """

    points: int
    lo: float | Callable[[Array], Array]
    hi: float | Callable[[Array], Array]


@dataclass(frozen=True)
class ActionConfig:
    """Tensions and quadrature grid for the action functionals."""

    mu0: float
    mub: float
    grid: tuple[GridAxis, ...]

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mu0) and np.isfinite(self.mub)
                and self.mu0 >= 0 and self.mub >= 0):
            raise InvalidParameters("tensions must be finite and non-negative")
        if len(self.grid) < 2:
            raise InvalidParameters("quadrature needs one axis per worldsheet dimension, D >= 2")
        for ax in self.grid:
            if (isinstance(ax.points, bool) or not isinstance(ax.points, (int, np.integer))
                    or ax.points < 8):
                raise InvalidParameters("quadrature needs an integer count of at least 8 "
                                        "points per dimension")
            constant = [lim for lim in (ax.lo, ax.hi) if not callable(lim)]
            if not np.all(np.isfinite(constant)) or (len(constant) == 2 and not ax.lo < ax.hi):
                raise InvalidParameters("constant quadrature limits must be finite, with lo < hi")
        for ax in self.grid[:-1]:
            if callable(ax.lo) or callable(ax.hi):
                raise InvalidParameters("only the last axis may have edge-dependent limits")


def _leading_mesh(grid: Sequence[GridAxis]) -> tuple[Array, float]:
    """Midpoint mesh (..., D-1) of the leading axes and the product cell weight."""
    mids, weight = [], 1.0
    for ax in grid[:-1]:
        width = (ax.hi - ax.lo) / ax.points
        mids.append(ax.lo + width * (np.arange(ax.points) + 0.5))
        weight *= width
    mesh = np.meshgrid(*mids, indexing="ij")
    return np.stack(mesh, axis=-1), weight


def _bulk_grid(grid: Sequence[GridAxis]) -> tuple[Array, Array]:
    """Quadrature points (..., D) and weights (...,), honoring edge limits."""
    u_mesh, u_weight = _leading_mesh(grid)
    last = grid[-1]
    lo = last.lo(u_mesh) if callable(last.lo) else np.full(u_mesh.shape[:-1], float(last.lo))
    hi = last.hi(u_mesh) if callable(last.hi) else np.full(u_mesh.shape[:-1], float(last.hi))
    width = (hi - lo) / last.points
    if not np.all((width > 0) & np.isfinite(width)):
        raise InvalidParameters("edge-dependent limits must be finite, with hi > lo")
    offs = np.arange(last.points) + 0.5
    sigma = lo[..., None] + width[..., None] * offs
    pts = np.concatenate(
        [np.broadcast_to(u_mesh[..., None, :], sigma.shape + u_mesh.shape[-1:]),
         sigma[..., None]], axis=-1)
    wts = np.broadcast_to(width[..., None], sigma.shape) * u_weight
    return pts.reshape(-1, len(grid)), wts.reshape(-1)


def _boundary_grid(grid: Sequence[GridAxis]) -> tuple[Array, float]:
    u_mesh, u_weight = _leading_mesh(grid)
    db = u_mesh.shape[-1]
    return u_mesh.reshape(-1, db), u_weight


def _volume_element(metric: Array, background: BackgroundMetric) -> Array:
    """sqrt(|det|) of a pulled-back metric, which must have the background's signature."""
    det = _det_adjugate(metric)[0]
    if background.signature == LORENTZIAN:
        det = -det
    if not np.all(det > 0):  # NaN fails too
        raise DegenerateMetric("degenerate volume element inside the domain")
    return np.sqrt(det)


def _volume_density(embedding: Embedding, pts: Array) -> Array:
    """sqrt(|det gamma|) at ``pts``; a flat metric reads no point, so the map is not evaluated."""
    bg = embedding.background
    g = (np.diagonal(_signature_matrix(bg.dimension, bg.signature)) if bg.flat
         else bg.metric_at(embedding.position(pts)))
    return _volume_element(_pullback(embedding.d_position(pts), g), embedding.background)


def dng_action(embedding: Embedding, config: ActionConfig) -> float:
    """Worldsheet-volume action: -mu0 times the quadrature of the volume element."""
    pts, wts = _bulk_grid(config.grid)
    return float(-config.mu0 * np.sum(_volume_density(embedding, pts) * wts))


def edge_action(bnd: BoundaryEmbedding, config: ActionConfig) -> float:
    """Edge-volume action: -mub times the quadrature of the edge volume element."""
    u, uw = _boundary_grid(config.grid)
    edge = _edge_frame(bnd, u, _frame_at(bnd.parent, bnd.chi(u)))
    dens = _volume_element(edge.induced_metric, bnd.parent.background)
    return float(-config.mub * np.sum(dens * uw))


def _smooth_ramp(x: Array) -> Array:
    """C-infinity ramp: 0 for x <= 0, 1 for x >= 1, flat to all orders at both ends."""
    x = np.clip(x, 0.0, 1.0)
    # exp(-1 / 1e-300) is +0.0, so each end reads exactly 0 with no branch
    lo = np.exp(-1.0 / np.maximum(x, 1e-300))
    hi = np.exp(-1.0 / np.maximum(1.0 - x, 1e-300))
    return lo / (lo + hi)


@dataclass(frozen=True)
class DeformationField:
    """Deformation of the worldsheet and its edges, windowed at the temporal caps.

    ``tangential_fn`` and ``normal_fn`` give the frame components of the bulk
    displacement; ``boundary_normal_fns`` the amplitude of each edge's
    displacement along its outward normal eta, one callable shared by every
    attached edge.  (A displacement along the edge only reparametrizes it.)
    An unset component is zero.  When ``time_extent`` (t0, t1) is set, two
    finite numbers with t0 < t1, every component is multiplied by a smooth
    window that vanishes on the outer quarter of the first coordinate, so the
    variational identities hold without manual cap handling.  Callables must
    broadcast over leading batch axes: under a finite-difference stencil
    (:func:`metric_variation`, the displaced maps of :func:`first_variation_fd`)
    they receive the stencil points with one extra leading axis, in blocks of
    at most ``FD_BLOCK_POINTS`` points (see :func:`geometry.fd_jacobian`).
    """

    tangential_fn: Callable[[Array], Array] | None = None
    normal_fn: Callable[[Array], Array] | None = None
    boundary_normal_fns: Callable[[Array], Array] | None = None
    time_extent: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        ext = self.time_extent
        if ext is not None and not (len(ext) == 2 and np.isfinite(ext).all() and ext[0] < ext[1]):
            raise InvalidParameters("time_extent must be two finite numbers t0 < t1")

    def _window(self, t: Array) -> Array:
        # smooth bump ramps over the outer quarter at each end, flat to all orders (a
        # cosine ramp leaves O((4 pi)^2) second derivatives at the caps, a large h^2
        # error floor in FD variations); where one end's ramp is below 1, the other's is 1
        if self.time_extent is None:
            return np.ones_like(t)
        t0, t1 = self.time_extent
        s = np.clip((t - t0) / (t1 - t0), 0.0, 1.0)
        return _smooth_ramp(np.minimum(4.0 * s, 4.0 * (1.0 - s)))

    def _component(self, fn: Callable[[Array], Array] | None, x: Array,
                   shape: tuple[int, ...], window: Array | None = None) -> Array:
        """fn(x) times the window, or zeros of shape (..., *shape) when fn is unset.

        ``window`` is the window at x when the caller already has it.
        """
        x = np.asarray(x, dtype=float)
        if fn is None:
            return np.zeros(x.shape[:-1] + shape)
        values = np.asarray(fn(x), dtype=float)
        if not np.all(np.isfinite(values)):
            raise InvalidParameters("deformation field has non-finite values")
        if window is None:
            window = self._window(x[..., 0])
        return values * window.reshape(window.shape + (1,) * len(shape))

    def tangential(self, xi: Array, dim: int) -> Array:
        return self._component(self.tangential_fn, xi, (dim,))

    def normal(self, xi: Array, codim: int) -> Array:
        return self._component(self.normal_fn, xi, (codim,))

    def _bulk(self, xi: Array, dim: int, codim: int) -> tuple[Array, Array]:
        """(tangential, normal) at the same points, with the window computed once."""
        xi = np.asarray(xi, dtype=float)
        window = self._window(xi[..., 0])
        return (self._component(self.tangential_fn, xi, (dim,), window),
                self._component(self.normal_fn, xi, (codim,), window))

    def boundary_normal(self, u: Array) -> Array:
        return self._component(self.boundary_normal_fns, u, ())


def metric_variation(embedding: Embedding, point: Array,
                     deformation: DeformationField) -> Array:
    """First-order induced-metric change 2 K_ab^i Phi_i + grad_a Phi_b + grad_b Phi_a."""
    point = np.asarray(point, dtype=float)
    d = embedding.worldsheet_dim
    k = embedding.codimension
    loc = _frame_at(embedding, point)
    phi_i = deformation.normal(point, k)

    def phi_low(p, gamma):
        return np.einsum("...ab,...b->...a", gamma, deformation.tangential(p, d))

    dphi = fd_jacobian(lambda p: phi_low(p, _Evaluation(embedding, p).induced_metric),
                       point, embedding.fd_step)  # [b, a]
    cov = np.einsum("...ba->...ab", dphi) - np.einsum(
        "...abc,...c->...ab", loc.conn, phi_low(point, loc.induced_metric))
    return (2.0 * np.einsum("...abi,...i->...ab", loc.kk, phi_i)
            + cov + np.swapaxes(cov, -1, -2))


def _check_edge_sides(edges: Sequence[BoundaryEmbedding]) -> None:
    if len({bnd.orientation for bnd in edges}) < len(edges):
        raise InvalidParameters("two edges share an orientation: a side takes one edge at most")


def _domain_alignment(embedding: Embedding, grid: tuple[GridAxis, ...]):
    """Map pointwise normal frames onto one continuous gauge for the whole domain.

    The deterministic pointwise gauge may flip sign across interior loci;
    deformations decomposed on a discontinuous frame would deform the sheet
    discontinuously.  Aligning every frame to the one at the domain center
    gives a single smooth gauge shared by the analytic and FD paths.
    """
    u_mesh, _ = _leading_mesh(grid)
    mid_idx = tuple(s // 2 for s in u_mesh.shape[:-1])
    u_mid = u_mesh[mid_idx]
    last = grid[-1]
    lo = last.lo(u_mid) if callable(last.lo) else float(last.lo)
    hi = last.hi(u_mid) if callable(last.hi) else float(last.hi)
    center = np.concatenate([np.atleast_1d(u_mid), [0.5 * (lo + hi)]])
    fr_c = _frame_at(embedding, center)
    return lambda normals: _procrustes(normals, fr_c.normals, fr_c.g)


def first_variation_analytic(embedding: Embedding, edges: Sequence[BoundaryEmbedding],
                             config: ActionConfig, deformation: DeformationField) -> float:
    """First variation of the total action from the distilled boundary formula.

    delta S = -mu0 Int sqrt(-gamma) K^i Phi_i
              - Sum_edges Oint sqrt(-h) [ mu0 eta_a Phi^a
                                          + mub (H^{ab} K_ab^i Phi_i + k eta_a Phi^a)
                                          + (mu0 + mub k) Psi ],
    with the pure-divergence edge reparametrization term dropped (smooth,
    closed, or cap-windowed edges).  ``edges`` are the displaceable edges of
    :func:`catalog.action_setup`, with eta signed by each edge's orientation.
    """
    _check_edge_sides(edges)
    d = embedding.worldsheet_dim
    k_codim = embedding.codimension
    bg = embedding.background
    align = _domain_alignment(embedding, config.grid)

    pts, wts = _bulk_grid(config.grid)
    fr = _frame_at(embedding, pts)
    sec = fr.sec  # built before the aligned normals exist, for a lower peak
    kk = _extrinsic(align(fr.normals), fr.g, sec)
    traces = np.einsum("...ab,...abi->...i", fr.induced_metric_inverse, kk)
    phi_i = deformation.normal(pts, k_codim)
    dens = _volume_element(fr.induced_metric, bg)
    total = -config.mu0 * np.sum(wts * dens * np.einsum("...i,...i->...", traces, phi_i))

    for bnd in edges:
        u, uw = _boundary_grid(config.grid)
        bl = _boundary_local(bnd, u)
        bd, sheet, xi = bl.bd, bl.sheet, bl.edge.x
        dens_b = _volume_element(bd.boundary_metric, bg)
        kk_b = _extrinsic(align(sheet.normals), sheet.g, sheet.sec)
        hk = np.einsum("...ab,...abi->...i", bd.projector, kk_b)
        phi_t, phi_n = deformation._bulk(xi, d, k_codim)
        eta_phi = (bd.normal_in_m[..., None, :] @ sheet.induced_metric
                   @ phi_t[..., None])[..., 0, 0]
        psi = deformation.boundary_normal(u)
        integrand = (config.mu0 * eta_phi
                     + config.mub * (np.einsum("...i,...i->...", hk, phi_n)
                                     + bd.edge_trace * eta_phi)
                     + (config.mu0 + config.mub * bd.edge_trace) * psi)
        total -= np.sum(uw * dens_b * integrand)
    return float(total)


def _deformed_embedding(embedding: Embedding, deformation: DeformationField,
                        eps: float, align) -> Embedding:
    d = embedding.worldsheet_dim
    k = embedding.codimension

    def pos(xi):
        fr = _Evaluation(embedding, xi)
        phi_t, phi_n = deformation._bulk(xi, d, k)
        n = align(fr.ungauged_normals)  # no sign gauge: the alignment fixes the sign
        # one normal is one product; + 0.0 reads a zero +0.0, as the one-term matmul sum
        n_phi = n[..., 0] * phi_n + 0.0 if k == 1 else (n @ phi_n[..., None])[..., 0]
        return fr.x + eps * ((fr.tangents @ phi_t[..., None])[..., 0] + n_phi)

    return Embedding(d, embedding.background, pos, fd_step=embedding.fd_step)


def _deformed_chi(bnd: BoundaryEmbedding, deformation: DeformationField, eps: float,
                  parts: dict) -> Callable[[Array], Array]:
    """chi + eps psi eta, with the undeformed chi, eta and psi kept in ``parts`` per point set."""
    def chi(u):
        if (key := (u.shape, u.tobytes())) not in parts:
            xi = bnd.chi(u)
            eta = _edge_frame(bnd, u, _Evaluation(bnd.parent, xi)).normals[..., 0]
            parts[key] = xi, eta, deformation.boundary_normal(u)[..., None]
        xi, eta, psi = parts[key]
        return xi + eps * psi * eta

    return chi


def _inverted_graph(chi_fn: Callable[[Array], Array]) -> Callable[[Array], Array]:
    """Last-coordinate limit as a function of the leading coordinates.

    The displaced edge is still near-identity in its leading components, so
    Picard sweeps recover the parameter u* with chi(u*) over the target.  They
    stop once the update is at roundoff; a displacement too large for the
    sweeps to contract raises InvalidParameters.
    """

    def limit(target):
        target = np.asarray(target, dtype=float)
        tol = _PICARD_TOL * max(1.0, float(np.max(np.abs(target), initial=0.0)))
        u = target.copy()
        for _ in range(_PICARD_MAX_SWEEPS):
            image = chi_fn(u)
            update = image[..., :-1] - target
            if np.all(np.abs(update) <= tol):
                return image[..., -1]
            u = u - update
        raise InvalidParameters(
            f"Picard inversion of the displaced edge graph did not converge in "
            f"{_PICARD_MAX_SWEEPS} sweeps; reduce epsilon or the edge displacement")

    return limit


def _deformed_grid(grid: tuple[GridAxis, ...],
                   edges: Sequence[BoundaryEmbedding]) -> tuple[GridAxis, ...]:
    """The grid with each displaced edge's graph as the limit on its side."""
    last = grid[-1]
    lo, hi = last.lo, last.hi
    for edge in edges:
        if edge.orientation < 0:
            lo = _inverted_graph(edge.chi_fn)
        else:
            hi = _inverted_graph(edge.chi_fn)
    return grid[:-1] + (GridAxis(last.points, lo, hi),)


def first_variation_fd(embedding: Embedding, edges: Sequence[BoundaryEmbedding],
                       config: ActionConfig, deformation: DeformationField,
                       epsilon: float) -> float:
    """Centered finite-difference variation [S(+eps) - S(-eps)] / (2 eps).

    The worldsheet and the ``edges`` are displaced together: each displaced
    edge is an edge of the displaced sheet, and its volume its :func:`edge_action`.
    The quadrature domain follows the displaced edge graphs exactly, each on
    the side its orientation names (-1 the lower limit of the last axis, +1 the
    upper; two edges of one orientation raise InvalidParameters).  Matches
    :func:`first_variation_analytic` to O(eps^2) plus quadrature error.  Each
    edge's undeformed chi, eta and psi are evaluated once per call at each
    point set its displaced edges read, for both signs of eps.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise InvalidParameters("epsilon must be positive and finite")
    _check_edge_sides(edges)
    align = _domain_alignment(embedding, config.grid)
    # the displaced maps and edges read the sheet unchecked, so it is
    # validated here, once, at the quadrature points of the bulk and each edge
    _frame_at(embedding, _bulk_grid(config.grid)[0])
    u = _boundary_grid(config.grid)[0]
    for bnd in edges:
        _frame_at(bnd.parent, bnd.chi(u))
    parts = [{} for _ in edges]  # each edge's undeformed parts, shared by both signs of eps

    def total_action(eps: float) -> float:
        emb_eps = _deformed_embedding(embedding, deformation, eps, align)
        edges_eps = [BoundaryEmbedding(emb_eps, _deformed_chi(bnd, deformation, eps, store),
                                       bnd.orientation) for bnd, store in zip(edges, parts)]
        cfg = ActionConfig(config.mu0, config.mub, _deformed_grid(config.grid, edges_eps))
        return dng_action(emb_eps, cfg) + sum(edge_action(e, cfg) for e in edges_eps)

    return (total_action(epsilon) - total_action(-epsilon)) / (2.0 * epsilon)
