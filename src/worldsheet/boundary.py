"""Geometry of the edge worldsheet: embedded in the parent, and directly in spacetime.

The edge is one map chi from boundary coordinates u into the parent, and a
point batch is evaluated at one of two orders.  ``_edge_frame`` is first
order: the tangents eps, the metric h and its inverse, and the outward normal
eta, from the parent's frame at chi(u).  ``_boundary_local`` is second order:
it adds k_AB and hands back chi(u), chi_,AB and the parent's local geometry,
from which every edge quantity here and in ``integrability`` is read, D_A y_B
included, without evaluating chi or the parent map again for that batch.

Conventions fixed here and relied on downstream:

* eta is the OUTWARD unit normal of the edge inside the parent worldsheet,
  oriented per boundary by ``outward_hint`` (never inferred).
* k_AB = -gamma(eta, grad_A eps_B), so a hole boundary in a flat sheet has
  k = -1/rho and the edge equation of motion reads mu_b * k + mu_0 = 0.
* The adapted normal basis orders eta first (index 0), then the parent normals.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InconsistentGeometry, NullBoundary
from .geometry import (
    DEFAULT_FD_STEP,
    Embedding,
    Frame,
    _connection,
    _extrinsic,
    _frame_derivative,
    _gram_schmidt_normals,
    _local,
    _projected_seeds,
    _pullback,
    _twist,
    fd_hessian,
    fd_jacobian,
)

Array = np.ndarray


@dataclass(frozen=True)
class BoundaryEmbedding:
    """Map chi: (..., D-1) boundary coordinates -> (..., D) worldsheet coordinates.

    ``outward_hint`` gives, per boundary point, a worldsheet vector with
    positive inner product against the outward edge normal; it may be a
    constant vector or a callable of the boundary point.
    """

    parent: Embedding
    chi_fn: Callable[[Array], Array]
    d_chi_fn: Callable[[Array], Array] | None = None
    dd_chi_fn: Callable[[Array], Array] | None = None
    outward_hint: Callable[[Array], Array] | Array | None = None
    fd_step: float = DEFAULT_FD_STEP

    @property
    def boundary_dim(self) -> int:
        return self.parent.worldsheet_dim - 1

    def chi(self, point: Array) -> Array:
        return np.asarray(self.chi_fn(np.asarray(point, dtype=float)), dtype=float)

    def d_chi(self, point: Array) -> Array:
        if self.d_chi_fn is not None:
            return np.asarray(self.d_chi_fn(np.asarray(point, dtype=float)), dtype=float)
        return fd_jacobian(self.chi, point, self.fd_step)

    def dd_chi(self, point: Array) -> Array:
        if self.dd_chi_fn is not None:
            return np.asarray(self.dd_chi_fn(np.asarray(point, dtype=float)), dtype=float)
        return fd_hessian(self.chi, point, self.fd_step)

    def hint_at(self, point: Array) -> Array:
        if self.outward_hint is None:
            raise ValueError("boundary has no outward_hint; orientation must be supplied")
        if callable(self.outward_hint):
            return np.asarray(self.outward_hint(np.asarray(point, dtype=float)), dtype=float)
        hint = np.asarray(self.outward_hint, dtype=float)
        point = np.asarray(point, dtype=float)
        return np.broadcast_to(hint, point.shape[:-1] + hint.shape).copy()


@dataclass(frozen=True)
class BoundaryAttachment:
    """A boundary together with the bulk-coordinate side it bounds.

    ``side`` says whether the edge provides the lower or upper limit of the
    last worldsheet coordinate; attached boundary maps are graphs over the
    remaining coordinates, chi(u) = (u, f(u)).
    """

    boundary: BoundaryEmbedding
    side: str = "upper"

    def __post_init__(self) -> None:
        if self.side not in ("lower", "upper"):
            raise ValueError("side must be 'lower' or 'upper'")

    def graph(self, u: Array) -> Array:
        return self.boundary.chi(u)[..., -1]


@dataclass(frozen=True)
class BoundaryData:
    """Edge frame and curvature inside the parent worldsheet."""

    tangents_in_m: Array       # (..., D, D-1)   eps^a_A
    normal_in_m: Array         # (..., D)        eta^a, outward unit
    boundary_metric: Array     # (..., D-1, D-1) h_AB
    boundary_metric_inverse: Array
    edge_curvature: Array      # (..., D-1, D-1) k_AB
    edge_trace: Array          # (...,)          k = h^{AB} k_AB
    projector: Array           # (..., D, D)     H^{ab}
    spacetime_normal: Array    # (..., N)        eta^mu


@dataclass(frozen=True)
class AdaptedEdgeData:
    """Direct spacetime geometry of the edge in the adapted basis {eta, n^i}."""

    spacetime_tangents: Array  # (..., N, D-1)
    adapted_normals: Array     # (..., N, K+1), eta first
    edge_extrinsic: Array      # (..., D-1, D-1, K+1)
    edge_twist: Array          # (..., D-1, K+1, K+1)


@dataclass(frozen=True)
class WorldsheetScalar:
    """Scalar field on the worldsheet with coordinate gradient and Hessian."""

    value_fn: Callable[[Array], Array]
    gradient_fn: Callable[[Array], Array]
    hessian_fn: Callable[[Array], Array]

    def value(self, xi: Array) -> Array:
        return np.asarray(self.value_fn(np.asarray(xi, dtype=float)), dtype=float)

    def gradient(self, xi: Array) -> Array:
        return np.asarray(self.gradient_fn(np.asarray(xi, dtype=float)), dtype=float)

    def hessian(self, xi: Array) -> Array:
        return np.asarray(self.hessian_fn(np.asarray(xi, dtype=float)), dtype=float)


LaplacianResiduals = namedtuple("LaplacianResiduals", ["normal", "eta", "combined"])


def _pullback_metric(bnd: BoundaryEmbedding, gamma: Array, eps: Array) -> tuple[Array, Array]:
    h = _pullback(eps, gamma)
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    det_h = np.linalg.det(h)
    scale = np.maximum(np.max(np.abs(eps), axis=(-1, -2)), 1.0) ** (2 * bnd.boundary_dim)
    if np.any(np.abs(det_h) < 1e-12 * scale):
        raise NullBoundary("boundary metric is degenerate (edge tangent to the light cone)")
    return h, np.linalg.inv(h)


def _edge_frame(bnd: BoundaryEmbedding, point: Array, fr: Frame
                ) -> tuple[Array, Array, Array, Array]:
    """First-order edge frame (eps, h, h^-1, eta) from the parent's frame ``fr`` at chi(point).

    eta is the unit normal of the edge in the worldsheet, signed outward by
    the boundary's ``outward_hint``.
    """
    eps = bnd.d_chi(point)
    gamma = fr.induced_metric
    h, h_inv = _pullback_metric(bnd, gamma, eps)
    eta, found = _gram_schmidt_normals(gamma, _projected_seeds(gamma, eps, h_inv), 1,
                                       np.arange(bnd.parent.worldsheet_dim))
    if np.any(found < 1):
        raise NullBoundary("edge normal cannot be unit-normalized (null boundary)")
    eta = eta[..., 0]
    align = np.einsum("...a,...ab,...b->...", eta, gamma, bnd.hint_at(point))
    if np.any(np.abs(align) < 1e-12):
        raise ValueError("outward_hint is orthogonal to the edge normal")
    return eps, h, h_inv, eta * np.sign(align)[..., None]


class _EdgeLocal(NamedTuple):
    """One second-order evaluation of the edge at boundary points u."""

    bd: BoundaryData
    loc: tuple          # the parent's ``geometry._local`` tuple at xi
    xi: Array           # chi(u)
    dd_chi: Array       # chi^a_{,AB}


def _boundary_local(bnd: BoundaryEmbedding, point: Array) -> _EdgeLocal:
    """:func:`boundary_data` at ``point``, with the evaluations it is built from."""
    point = np.asarray(point, dtype=float)
    xi = bnd.chi(point)
    loc = _local(bnd.parent, xi)
    fr, _, g, _, sec = loc
    gamma = fr.induced_metric
    eps, h, h_inv, eta = _edge_frame(bnd, point, fr)
    dd_chi = bnd.dd_chi(point)

    # (grad_A eps_B)^a = chi^a_{,AB} + Gamma_bc^a eps^b_A eps^c_B
    grad_eps = dd_chi + np.einsum("...bca,...bA,...cB->...aAB",
                                  _connection(fr, g, sec), eps, eps)
    k_ab = -np.einsum("...a,...ab,...bAB->...AB", eta, gamma, grad_eps)
    k_ab = 0.5 * (k_ab + np.swapaxes(k_ab, -1, -2))
    bd = BoundaryData(
        tangents_in_m=eps,
        normal_in_m=eta,
        boundary_metric=h,
        boundary_metric_inverse=h_inv,
        edge_curvature=k_ab,
        edge_trace=np.einsum("...AB,...AB->...", h_inv, k_ab),
        projector=_projector(eps, h_inv),
        spacetime_normal=np.einsum("...ma,...a->...m", fr.tangents, eta),
    )
    return _EdgeLocal(bd, loc, xi, dd_chi)


def _projector(eps: Array, h_inv: Array) -> Array:
    """H^{ab} = eps^a_A h^{AB} eps^b_B."""
    return np.einsum("...aA,...AB,...bB->...ab", eps, h_inv, eps)


def boundary_data(bnd: BoundaryEmbedding, point: Array) -> BoundaryData:
    """Edge frame, metric, projector, and extrinsic curvature inside the parent.

    Raises NullBoundary when the boundary metric degenerates or the edge
    normal cannot be normalized to unit spacelike length (edge on the light
    cone, outside the dynamical scope).
    """
    return _boundary_local(bnd, point).bd


def edge_equation_residual(bd: BoundaryData, mu0: float, mub: float) -> Array:
    """Edge equation-of-motion residual mu_b * k + mu_0 (zero when it holds)."""
    if mub <= 0:
        raise ValueError("edge tension mub must be positive")
    return mub * bd.edge_trace + mu0


def boundary_condition_residual(bnd: BoundaryEmbedding, point: Array) -> Array:
    """Projected-trace constraint H^{ab} K_ab^i at the edge, one entry per normal."""
    point = np.asarray(point, dtype=float)
    eps = bnd.d_chi(point)
    fr, _, g, _, sec = _local(bnd.parent, bnd.chi(point))
    _, h_inv = _pullback_metric(bnd, fr.induced_metric, eps)
    return np.einsum("...ab,...abi->...i", _projector(eps, h_inv),
                     _extrinsic(fr.normals, g, sec))


def _boundary_christoffels(bl: _EdgeLocal) -> Array:
    """Christoffels of the boundary metric h_AB, indexed [A, B, C] (upper last)."""
    eps, h_inv = bl.bd.tangents_in_m, bl.bd.boundary_metric_inverse
    fr, _, g, _, sec = bl.loc
    gamma = fr.induced_metric
    # metric compatibility: d gamma_ab / d xi^c = g(D_c e_a, e_b) + g(e_a, D_c e_b)
    half = np.einsum("...mca,...mn,...nb->...cab", sec, g, fr.tangents)
    dgamma = half + np.swapaxes(half, -1, -2)
    dh = (np.einsum("...cab,...cC,...aA,...bB->...CAB", dgamma, eps, eps, eps)
          + np.einsum("...ab,...aAC,...bB->...CAB", gamma, bl.dd_chi, eps)
          + np.einsum("...ab,...aA,...bBC->...CAB", gamma, eps, bl.dd_chi))
    return 0.5 * np.einsum(
        "...CD,...ABD->...ABC",
        h_inv,
        np.einsum("...ADB->...ABD", dh) + np.einsum("...BDA->...ABD", dh)
        - np.einsum("...DAB->...ABD", dh))


def _edge_derivatives(bl: _EdgeLocal) -> tuple[Array, Array]:
    """Edge tangents in spacetime y_A = e_a eps^a_A and their derivative D_A y_B.

    D_A y_B = (D_a e_b) eps^a_A eps^b_B + e_a chi^a_{,AB}.
    """
    eps = bl.bd.tangents_in_m
    fr, *_, sec = bl.loc
    return (np.einsum("...ma,...aA->...mA", fr.tangents, eps),
            np.einsum("...mab,...aA,...bB->...mAB", sec, eps, eps)
            + np.einsum("...ma,...aAB->...mAB", fr.tangents, bl.dd_chi))


def boundary_laplacian_residuals(bnd: BoundaryEmbedding, point: Array,
                                 mu0: float, mub: float) -> LaplacianResiduals:
    """Edge-intrinsic (Laplacian) form of the boundary conditions and edge law.

    With L^mu = D^A D_A X^mu + Gamma^mu_{alpha beta} H^{alpha beta} built from
    derivatives along the edge only, returns

    * ``normal``:   n^i_mu L^mu                (vanishes iff the projected-trace
      boundary conditions hold; equals minus the projection form identically),
    * ``eta``:      eta_mu L^mu - mu0/mub      (vanishes iff the edge law holds
      with the outward eta convention),
    * ``combined``: L^mu - (mu0/mub) eta^mu    (the acceleration law: the edge
      four-acceleration equals -(mu0/mub) eta^mu, directed into the sheet).
    """
    bl = _boundary_local(bnd, point)
    bd, (fr, _, g, _, _) = bl.bd, bl.loc
    y1, cov_y = _edge_derivatives(bl)
    hess = cov_y - np.einsum("...ABC,...mC->...mAB", _boundary_christoffels(bl), y1)
    lap = np.einsum("...AB,...mAB->...m", bd.boundary_metric_inverse, hess)
    lap_low = np.einsum("...mn,...n->...m", g, lap)
    normal = np.einsum("...mi,...m->...i", fr.normals, lap_low)
    eta_part = np.einsum("...m,...m->...", bd.spacetime_normal, lap_low) - mu0 / mub
    combined = lap - (mu0 / mub) * bd.spacetime_normal
    return LaplacianResiduals(normal=normal, eta=eta_part, combined=combined)


def laplacian_decomposition_residual(bnd: BoundaryEmbedding, point: Array,
                                     scalar_field: WorldsheetScalar) -> Array:
    """Residual of the worldsheet-Laplacian split along and across the edge.

    Returns Delta psi - [D^A D_A psi + (eta.grad)^2 psi + k eta.grad psi],
    which vanishes for smooth fields at points of the edge.
    """
    bl = _boundary_local(bnd, point)
    bd, (fr, _, g, _, sec) = bl.bd, bl.loc
    grad = scalar_field.gradient(bl.xi)
    hess = scalar_field.hessian(bl.xi)
    cov_hess = hess - np.einsum("...abc,...c->...ab", _connection(fr, g, sec), grad)
    laplacian = np.einsum("...ab,...ab->...", fr.induced_metric_inverse, cov_hess)

    eps = bd.tangents_in_m
    grad_b = np.einsum("...a,...aA->...A", grad, eps)
    hess_b = (np.einsum("...ab,...aA,...bB->...AB", hess, eps, eps)
              + np.einsum("...a,...aAB->...AB", grad, bl.dd_chi))
    h_chris = _boundary_christoffels(bl)
    box_b = np.einsum("...AB,...AB->...", bd.boundary_metric_inverse,
                      hess_b - np.einsum("...ABC,...C->...AB", h_chris, grad_b))
    eta = bd.normal_in_m
    normal_part = np.einsum("...a,...b,...ab->...", eta, eta, cov_hess)
    drift = bd.edge_trace * np.einsum("...a,...a->...", eta, grad)
    return laplacian - (box_b + normal_part + drift)


def _adapted_normals(bl: _EdgeLocal) -> Array:
    """Adapted normal columns {eta^mu, n^mu_i}, (..., N, K+1), of a ``_boundary_local`` record."""
    return np.concatenate([bl.bd.spacetime_normal[..., None], bl.loc[0].normals], axis=-1)


def _edge_extrinsic(adapted: Array, g: Array, cov_y: Array) -> Array:
    """Edge extrinsic curvature K_AB^I in spacetime from adapted normal columns and D_A y_B."""
    kk = _extrinsic(adapted, g, cov_y)
    return 0.5 * (kk + np.swapaxes(kk, -3, -2))


def adapted_edge_data(bnd: BoundaryEmbedding, point: Array, *,
                      check_tol: float = 1e-6) -> AdaptedEdgeData:
    """Direct spacetime geometry of the edge, with inheritance cross-checks.

    Verifies, to ``check_tol``, that the edge inherits the parent's extrinsic
    curvature (K^i_AB equals the projected K^i_ab, and the eta-component
    equals k_AB) and that the mixed twist satisfies
    omega_{A i 0} = eta^a eps^b_A K_{ab i}; raises InconsistentGeometry
    otherwise.
    """
    point = np.asarray(point, dtype=float)
    bl = _boundary_local(bnd, point)
    bd, (fr, _, g, chris, sec) = bl.bd, bl.loc
    y1, cov_y = _edge_derivatives(bl)
    adapted = _adapted_normals(bl)
    edge_extrinsic = _edge_extrinsic(adapted, g, cov_y)
    twist = _twist(_frame_derivative(lambda u: _adapted_normals(_boundary_local(bnd, u)),
                                     point, y1, adapted, chris, bnd.fd_step), adapted, g)

    kk = _extrinsic(fr.normals, g, sec)
    projected = np.einsum("...aA,...bB,...abi->...ABi", bd.tangents_in_m,
                          bd.tangents_in_m, kk)
    err_i = np.max(np.abs(edge_extrinsic[..., 1:] - projected))
    err_0 = np.max(np.abs(edge_extrinsic[..., 0] - bd.edge_curvature))
    mixed = np.einsum("...a,...bA,...abi->...Ai", bd.normal_in_m, bd.tangents_in_m, kk)
    err_t = np.max(np.abs(twist[..., 1:, 0] - mixed))
    if max(err_i, err_0, err_t) > check_tol:
        raise InconsistentGeometry(
            f"edge inheritance relations violated: {err_i:.3e}, {err_0:.3e}, {err_t:.3e}")
    return AdaptedEdgeData(
        spacetime_tangents=y1,
        adapted_normals=adapted,
        edge_extrinsic=edge_extrinsic,
        edge_twist=twist,
    )
