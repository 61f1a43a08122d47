"""Geometry of the edge worldsheet: embedded in the parent, and directly in spacetime.

The edge is one map chi from boundary coordinates u into the parent, at one
of two orders per point batch.  ``_edge_frame`` is first order: a
``geometry.Frame`` with tangents eps, the outward normal eta as its one
normal column, and metric h.  ``_boundary_local`` is second order: beside
the sheet's record, a ``geometry._Local``, it builds one from each edge
level's ``Frame``: the edge in the sheet (ambient metric gamma, ambient
Christoffels the sheet's Gamma, sec grad_A eps_B) and the edge in spacetime
(tangents y_A, normals {eta, n_i}, sec D_A y_B).  k_AB, K_AB^I and the edge
connection are read from them by the sheet's own kernels, without
evaluating chi or the parent map again for that batch.

Conventions fixed here and relied on downstream:

* eta is the OUTWARD unit normal of the edge inside the parent worldsheet.
  Each boundary states its side by one sign, ``orientation`` = sign of
  det[eps_1 ... eps_{D-1}, eta] in worldsheet coordinates (never inferred):
  a graph edge chi(u) = (u, f(u)) has +1 when it is the upper limit of the
  last coordinate and -1 when it is the lower one.
* k_AB = -gamma(eta, grad_A eps_B), so a hole boundary in a flat sheet has
  k = -1/rho and the edge equation of motion reads mu_b * k + mu_0 = 0.
* The adapted normal basis orders eta first (index 0), then the parent normals.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (DegenerateImmersion, InconsistentGeometry, InvalidParameters, NullBoundary,
                     _finite, _numbers)
from .geometry import (
    DEFAULT_FD_STEP,
    Embedding,
    Frame,
    _covariant,
    _det_adjugate,
    _Evaluation,
    _frame_at,
    _hodge_normal,
    _inverse,
    _lazy,
    _Local,
    _procrustes,
    _pullback,
    fd_jacobian,
)

Array = np.ndarray


@dataclass(frozen=True)
class BoundaryEmbedding:
    """Map chi: (..., D-1) boundary coordinates -> (..., D) worldsheet coordinates.

    ``orientation`` (+1 or -1) is the sign of det[eps_1 ... eps_{D-1}, eta]
    with eta the outward unit normal, so it fixes which side of the edge the
    sheet lies on.  ``chi_fn`` must broadcast over leading batch axes: without
    derivative callbacks it is differenced on stacked stencil points, in
    blocks of at most ``FD_BLOCK_POINTS`` points (see :func:`geometry.fd_jacobian`).
    """

    parent: Embedding
    chi_fn: Callable[[Array], Array]
    orientation: int
    d_chi_fn: Callable[[Array], Array] | None = None
    dd_chi_fn: Callable[[Array], Array] | None = None

    def __post_init__(self) -> None:
        if not (_numbers(self.orientation) and self.orientation in (1, -1)):
            raise InvalidParameters(f"orientation must be +1 or -1, got {self.orientation!r}")

    @property
    def boundary_dim(self) -> int:
        return self.parent.worldsheet_dim - 1

    def chi(self, point: Array) -> Array:
        return _finite(self.chi_fn(np.asarray(point, dtype=float)),
                       DegenerateImmersion, "non-finite edge map chi")

    def d_chi(self, point: Array) -> Array:
        eps = (fd_jacobian(self.chi, point, DEFAULT_FD_STEP) if self.d_chi_fn is None
               else self.d_chi_fn(np.asarray(point, dtype=float)))
        return _finite(eps, DegenerateImmersion, "non-finite edge tangents d_chi")

    def dd_chi(self, point: Array) -> Array:
        dd = (fd_jacobian(self.d_chi, point, DEFAULT_FD_STEP) if self.dd_chi_fn is None
              else self.dd_chi_fn(np.asarray(point, dtype=float)))
        return _finite(dd, DegenerateImmersion, "non-finite edge second derivatives dd_chi")


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
    """Scalar field on the worldsheet with coordinate gradient and Hessian.

    A callback value that is not finite raises InvalidParameters.
    """

    value_fn: Callable[[Array], Array]
    gradient_fn: Callable[[Array], Array]
    hessian_fn: Callable[[Array], Array]

    @staticmethod
    def _call(fn: Callable[[Array], Array], xi: Array) -> Array:
        return _finite(fn(np.asarray(xi, dtype=float)), InvalidParameters,
                       "worldsheet scalar field has non-finite values")

    def value(self, xi: Array) -> Array:
        return self._call(self.value_fn, xi)

    def gradient(self, xi: Array) -> Array:
        return self._call(self.gradient_fn, xi)

    def hessian(self, xi: Array) -> Array:
        return self._call(self.hessian_fn, xi)


LaplacianResiduals = namedtuple("LaplacianResiduals", ["normal", "eta", "combined"])


def _pullback_metric(bnd: BoundaryEmbedding, gamma: Array, eps: Array) -> tuple[Array, Array]:
    """h_AB and its inverse from the edge tangents eps = d_chi (checked finite there), non-null."""
    h = _pullback(eps, gamma)
    h = 0.5 * (h + h.swapaxes(-1, -2))
    det_h, adj = _det_adjugate(h)
    scale = np.maximum(np.abs(eps).max(axis=(-1, -2)), 1.0) ** (2 * bnd.boundary_dim)
    if (np.abs(det_h) < 1e-12 * scale).any():
        raise NullBoundary("boundary metric is degenerate (edge tangent to the light cone)")
    return h, _inverse(h, det_h, adj)


def _edge_frame(bnd: BoundaryEmbedding, point: Array, fr: _Evaluation) -> Frame:
    """First-order edge frame at ``point`` from the parent's record ``fr`` at chi(point).

    The tangents are eps^a_A, the metric h_AB, and the one normal column is
    the unit normal eta of the edge in the worldsheet, signed so that
    det[eps, eta] has the boundary's ``orientation``: the Hodge normal of
    eps raised with gamma^-1 has det[eps, n] > 0.
    """
    eps = bnd.d_chi(point)
    h, h_inv = _pullback_metric(bnd, fr.induced_metric, eps)
    eta, ok = _hodge_normal(eps, fr.induced_metric_inverse)
    if not ok.all():
        raise NullBoundary("edge normal cannot be unit-normalized (null boundary)")
    return Frame(tangents=eps, normals=bnd.orientation * eta[..., None],
                 induced_metric=h, induced_metric_inverse=h_inv)


def _adapted_normals(fr: _Evaluation, edge: Frame | _Local) -> Array:
    """Adapted normal columns {eta^mu = e_a eta^a, n^mu_i}, (..., N, K+1), eta first."""
    return np.concatenate([fr.tangents @ edge.normals, fr.normals], axis=-1)


class _EdgeLocal:
    """One second-order evaluation of the edge at boundary points u, one ``_Local`` per level.

    ``sheet`` is the parent at chi(u).  ``edge`` is the edge in the sheet, with
    the sheet's Gamma (upper index first) as ambient Christoffels and normal eta.
    ``spacetime``, built on first read, has tangents y_A = e_a eps^a_A, normals
    {eta, n_i} and sec D_A y_B = (D_a e_b) eps^a_A eps^b_B + e_a chi^a_{,AB}.
    """

    def __init__(self, bd: BoundaryData, sheet: _Local, edge: _Local, dd_chi: Array) -> None:
        self.bd, self.sheet, self.edge, self.dd_chi = bd, sheet, edge, dd_chi

    @_lazy
    def spacetime(self) -> _Local:
        sheet, edge = self.sheet, self.edge
        eps, e = edge.tangents, sheet.tangents
        cov_y = (_pullback(eps[..., None, :, :], sheet.sec)
                 + np.einsum("...ma,...aAB->...mAB", e, self.dd_chi))
        fr = Frame(e @ eps, _adapted_normals(sheet, edge),
                   edge.induced_metric, edge.induced_metric_inverse)
        return _Local(fr, sheet.x, sheet.g, sheet.chris, cov_y)


def _boundary_local(bnd: BoundaryEmbedding, point: Array,
                    frame_at: Callable[[Embedding, Array], _Evaluation] = _frame_at
                    ) -> _EdgeLocal:
    """:func:`boundary_data` at ``point``, with the levels it is built from.

    ``frame_at`` gives the sheet's record at chi(point): :func:`geometry._frame_at`,
    or ``_Evaluation`` at stencil points.  All but the edge in spacetime is built here.
    """
    point = np.asarray(point, dtype=float)
    xi = bnd.chi(point)
    sheet = frame_at(bnd.parent, xi)
    edge_frame = _edge_frame(bnd, point, sheet)
    dd_chi = bnd.dd_chi(point)
    # the sheet's connection is the ambient Christoffels, upper index first
    chris = sheet.conn.transpose((*range(sheet.conn.ndim - 3), -1, -3, -2))
    edge = _Local(edge_frame, xi, sheet.induced_metric, chris,
                  _covariant(dd_chi, chris, edge_frame.tangents, edge_frame.tangents))
    k_ab = edge.kk[..., 0]
    h_inv = edge_frame.induced_metric_inverse
    bd = BoundaryData(
        tangents_in_m=edge_frame.tangents,
        normal_in_m=edge_frame.normals[..., 0],
        boundary_metric=edge_frame.induced_metric,
        boundary_metric_inverse=h_inv,
        edge_curvature=k_ab,
        edge_trace=np.einsum("...AB,...AB->...", h_inv, k_ab),
        projector=_projector(edge_frame.tangents, h_inv),
        spacetime_normal=_adapted_normals(sheet, edge_frame)[..., 0],
    )
    return _EdgeLocal(bd, sheet, edge, dd_chi)


def _projector(eps: Array, h_inv: Array) -> Array:
    """H^{ab} = eps^a_A h^{AB} eps^b_B."""
    return eps @ h_inv @ eps.swapaxes(-1, -2)


def _pull_pair(left: Array, right: Array, t: Array) -> Array:
    """l^a_X r^b_Y t_ab..., indexed [X, Y, ...]: the leading pair of t [a, b, ...] on l and r."""
    flat = t.reshape(t.shape[:left.ndim] + (-1,))
    flat = flat.transpose((*range(flat.ndim - 3), -1, -3, -2))  # [..., rest, a, b]
    pulled = left.swapaxes(-1, -2)[..., None, :, :] @ flat @ right[..., None, :, :]
    return pulled.transpose((*range(pulled.ndim - 3), -2, -1, -3)).reshape(
        pulled.shape[:-3] + pulled.shape[-2:] + t.shape[left.ndim:])


def boundary_data(bnd: BoundaryEmbedding, point: Array) -> BoundaryData:
    """Edge frame, metric, projector, and extrinsic curvature inside the parent.

    Raises NullBoundary when the boundary metric degenerates or the edge
    normal cannot be normalized to unit spacelike length (edge on the light
    cone, outside the dynamical scope).
    """
    return _boundary_local(bnd, point).bd


def edge_equation_residual(bd: BoundaryData, mu0: float, mub: float) -> Array:
    """Edge equation-of-motion residual mu_b * k + mu_0 (zero when it holds)."""
    if not (_numbers(mu0, mub) and np.isfinite(mu0) and np.isfinite(mub) and mub > 0):
        raise InvalidParameters("edge tensions must be finite, with mub positive")
    return mub * bd.edge_trace + mu0


def _projected_trace(bl: _EdgeLocal) -> Array:
    """H^{ab} K_ab^i of one edge evaluation."""
    return np.einsum("...ab,...abi->...i", bl.bd.projector, bl.sheet.kk)


def boundary_condition_residual(bnd: BoundaryEmbedding, point: Array) -> Array:
    """Projected-trace constraint H^{ab} K_ab^i at the edge, one entry per normal."""
    return _projected_trace(_boundary_local(bnd, point))


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
    return _laplacian_residuals(_boundary_local(bnd, point), mu0, mub)


def _laplacian_residuals(bl: _EdgeLocal, mu0: float, mub: float) -> LaplacianResiduals:
    """:func:`boundary_laplacian_residuals` of one edge evaluation."""
    bd, st = bl.bd, bl.spacetime
    hess = st.sec - np.einsum("...ABC,...mC->...mAB", bl.edge.conn, st.tangents)
    lap = np.einsum("...AB,...mAB->...m", bd.boundary_metric_inverse, hess)
    lap_low = np.einsum("...mn,...n->...m", st.g, lap)
    normal = np.einsum("...mi,...m->...i", bl.sheet.normals, lap_low)
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
    bd, sheet = bl.bd, bl.sheet
    grad = scalar_field.gradient(bl.edge.x)
    hess = scalar_field.hessian(bl.edge.x)
    cov_hess = hess - np.einsum("...abc,...c->...ab", sheet.conn, grad)
    laplacian = np.einsum("...ab,...ab->...", sheet.induced_metric_inverse, cov_hess)

    eps = bd.tangents_in_m
    grad_b = np.einsum("...a,...aA->...A", grad, eps)
    hess_b = _pullback(eps, hess) + np.einsum("...a,...aAB->...AB", grad, bl.dd_chi)
    box_b = np.einsum("...AB,...AB->...", bd.boundary_metric_inverse,
                      hess_b - np.einsum("...ABC,...C->...AB", bl.edge.conn, grad_b))
    eta = bd.normal_in_m
    normal_part = _pullback(eta[..., None], cov_hess)[..., 0, 0]
    drift = bd.edge_trace * np.einsum("...a,...a->...", eta, grad)
    return laplacian - (box_b + normal_part + drift)


def adapted_edge_data(bnd: BoundaryEmbedding, point: Array) -> AdaptedEdgeData:
    """Direct spacetime geometry of the edge, with inheritance cross-checks.

    The twist differences the adapted normals with step ``DEFAULT_FD_STEP``,
    the sheet normals at each stencil point rotated onto the center's
    (:func:`geometry._procrustes`), so a flip of the sheet's normal gauge along
    the edge injects no twist; with two or more sheet normals the n-n block of
    the twist is reported in that center-aligned gauge.  Verifies, to 1e-6,
    that the edge inherits the parent's extrinsic curvature
    (K^i_AB equals the projected K^i_ab, and the eta-component equals k_AB) and
    that the mixed twist satisfies omega_{A i 0} = eta^a eps^b_A K_{ab i};
    raises InconsistentGeometry otherwise.
    """
    point = np.asarray(point, dtype=float)
    bl = _boundary_local(bnd, point)
    bd, st = bl.bd, bl.spacetime
    sheet_normals, g = bl.sheet.normals, bl.sheet.g

    def adapted_at(u: Array) -> Array:  # first order: the twist needs no k_AB
        fr_u = _Evaluation(bnd.parent, bnd.chi(u))
        eta = fr_u.tangents @ _edge_frame(bnd, u, fr_u).normals
        return np.concatenate([eta, _procrustes(fr_u.normals, sheet_normals, g)], axis=-1)

    twist = st.twist(fd_jacobian(adapted_at, point, DEFAULT_FD_STEP))

    kk = bl.sheet.kk
    eps, eta = bd.tangents_in_m, bd.normal_in_m[..., None]
    err_i = np.max(np.abs(st.kk[..., 1:] - _pull_pair(eps, eps, kk)))
    err_0 = np.max(np.abs(st.kk[..., 0] - bd.edge_curvature))
    err_t = np.max(np.abs(twist[..., 1:, 0] - _pull_pair(eta, eps, kk)[..., 0, :, :]))
    if max(err_i, err_0, err_t) > 1e-6:
        raise InconsistentGeometry(
            f"edge inheritance relations violated: {err_i:.3e}, {err_0:.3e}, {err_t:.3e}")
    return AdaptedEdgeData(
        spacetime_tangents=st.tangents,
        adapted_normals=st.normals,
        edge_extrinsic=st.kk,
        edge_twist=twist,
    )
