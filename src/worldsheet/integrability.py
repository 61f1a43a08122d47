"""Integrability conditions of the embedding hierarchy, as numerical residuals.

Three families are evaluated, each at three levels: the worldsheet in
spacetime, the edge in the worldsheet, and the edge directly in spacetime.
Frame-dependent quantities are differenced in a parallel gauge: the normal
frame at stencil points is aligned to the center frame by the minimizing
rotation before differencing, so deterministic-gauge jumps cannot inject
spurious twist.

Residual norms are the maximum over tangential index slots of the Euclidean
norm over frame (normal) indices, which makes them exactly invariant under
constant frame rotations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .background import BackgroundMetric
from .boundary import (
    BoundaryEmbedding,
    _adapted_normal_field,
    _boundary_christoffels,
    _boundary_local,
    _composed_derivatives,
    _edge_extrinsic,
    boundary_data,
)
from .geometry import (
    Embedding,
    _connection,
    _extrinsic,
    _frame_derivative,
    _local,
    _twist,
    fd_jacobian,
    normal_frame,
    second_fundamental_input,
)

Array = np.ndarray

DEFAULT_STEP = 1e-3


@dataclass(frozen=True)
class CurvatureTensors:
    """Curvature content at one edge point, all Riemann tensors fully lowered.

    ``ambient_riemann`` is R_{mu nu rho sigma} of the background (zero when
    flat), ``worldsheet_riemann`` the intrinsic R_{abcd} of the parent,
    ``boundary_riemann`` the intrinsic R_{ABCD} of the edge, and the Omega
    arrays are the curvatures of the twist connections (antisymmetric in the
    frame index pair).
    """

    ambient_riemann: Array          # (..., N, N, N, N)
    worldsheet_riemann: Array       # (..., D, D, D, D)
    boundary_riemann: Array         # (..., D-1, D-1, D-1, D-1)
    twist_curvature: Array | None   # (..., D, D, K, K)
    adapted_twist_curvature: Array | None  # (..., D-1, D-1, K+1, K+1)


@dataclass(frozen=True)
class WorldsheetResiduals:
    gauss_codazzi: Array
    codazzi_mainardi: Array
    ricci: Array | None  # None when the co-dimension is one (family is vacuous)

    def max(self) -> float:
        vals = [np.max(self.gauss_codazzi), np.max(self.codazzi_mainardi)]
        if self.ricci is not None:
            vals.append(np.max(self.ricci))
        return float(max(vals))


@dataclass(frozen=True)
class DirectEdgeResiduals:
    gauss_codazzi: Array
    codazzi_mainardi: Array
    ricci: Array | None
    twist_tangential: Array  # Omega_{AB ij} vs projected worldsheet Omega
    twist_mixed: Array       # Omega_{AB i0} vs the curvature-edge cross terms

    def max(self) -> float:
        vals = [np.max(self.gauss_codazzi), np.max(self.codazzi_mainardi),
                np.max(self.twist_tangential), np.max(self.twist_mixed)]
        if self.ricci is not None:
            vals.append(np.max(self.ricci))
        return float(max(vals))


def _procrustes(raw: Array, ref: Array, g: Array) -> Array:
    """Frame columns ``raw`` rotated onto ``ref`` by the minimizing orthogonal matrix."""
    overlap = np.einsum("...mi,...mn,...nj->...ij", raw, g, ref)
    u, _, vt = np.linalg.svd(overlap)
    return np.einsum("...mi,...ij->...mj", raw, u @ vt)


def _aligned_field(field_fn: Callable[[Array], Array], center: Array,
                   g_c: Array) -> Callable[[Array], Array]:
    """The frame field ``field_fn`` aligned at every point to its value at ``center``."""
    ref = field_fn(np.asarray(center, dtype=float))
    return lambda p: _procrustes(field_fn(p), ref, g_c)


def aligned_normal_frame_fn(embedding: Embedding,
                            center: Array) -> Callable[[Array], Array]:
    """Normal-frame field aligned to the frame at ``center`` by Procrustes rotation.

    The returned field is smooth near the center even where the deterministic
    gauge of :func:`normal_frame` switches seed axes or signs, and coincides
    with it at the center.  Overlaps use the background metric at the center
    (exact for flat backgrounds).
    """
    g_c = embedding.background.metric_at(embedding.position(center))
    return _aligned_field(lambda p: normal_frame(embedding, p), center, g_c)


def _twist_fn(background: BackgroundMetric, frame_fn: Callable[[Array], Array],
              map_fn: Callable[[Array], tuple[Array, Array]],
              step: float) -> Callable[[Array], Array]:
    """Twist of the frame field ``frame_fn`` as a function of the point.

    ``map_fn`` gives the spacetime point and the tangent map of the sheet (or
    edge) that the frame is normal to.
    """
    def omega(p: Array) -> Array:
        x, tangents = map_fn(p)
        normals = frame_fn(p)
        g = background.metric_at(x)
        cov = _frame_derivative(frame_fn, p, tangents, normals,
                                background.christoffels_at(x), step)
        return _twist(cov, normals, g)

    return omega


def _sheet_map(embedding: Embedding) -> Callable[[Array], tuple[Array, Array]]:
    """Point -> (X, e_a) of the sheet, for :func:`_twist_fn`."""
    return lambda p: (embedding.position(p), embedding.d_position(p))


def _edge_map(bnd: BoundaryEmbedding) -> Callable[[Array], tuple[Array, Array]]:
    """Edge point -> (X, y_A) of the edge in spacetime, for :func:`_twist_fn`."""
    return lambda u: (bnd.parent.position(bnd.chi(u)), _composed_derivatives(bnd, u)[0])


def worldsheet_connection(embedding: Embedding, point: Array) -> Array:
    """Connection coefficients Gamma_ab^c of the induced metric, indexed [a, b, c]."""
    fr, _, g, _, sec = _local(embedding, point)
    return _connection(fr, g, sec)


def _riemann_from_connection(conn: Array, dconn: Array) -> Array:
    """Mixed Riemann R^a_{bcd} from Gamma[a,b,c]=Gamma_ab^c and its derivative [...,a,b,c,e]."""
    return (np.einsum("...dbac->...abcd", dconn)
            - np.einsum("...cbad->...abcd", dconn)
            + np.einsum("...cea,...dbe->...abcd", conn, conn)
            - np.einsum("...dea,...cbe->...abcd", conn, conn))


def worldsheet_riemann(embedding: Embedding, point: Array,
                       step: float = DEFAULT_STEP) -> Array:
    """Intrinsic Riemann tensor R_{abcd} of the worldsheet, fully lowered.

    Assembled by central differencing of the worldsheet connection; the
    standard antisymmetries hold to the FD tolerance.
    """
    point = np.asarray(point, dtype=float)
    fr, _, g, _, sec = _local(embedding, point)
    conn = _connection(fr, g, sec)
    d = embedding.worldsheet_dim
    dconn = fd_jacobian(
        lambda p: worldsheet_connection(embedding, p).reshape(p.shape[:-1] + (-1,)),
        point, step)
    dconn = dconn.reshape(point.shape[:-1] + (d, d, d, d))
    mixed = _riemann_from_connection(conn, dconn)
    return np.einsum("...ae,...ebcd->...abcd", fr.induced_metric, mixed)


def _ambient_riemann_lowered(embedding: Embedding, x: Array) -> Array:
    r_up = embedding.background.riemann_at(x)
    g = embedding.background.metric_at(x)
    return np.einsum("...ml,...lnrs->...mnrs", g, r_up)


def _twist_curvature(omega_fn: Callable[[Array], Array], omega0: Array,
                     point: Array, step: float, dim: int, nfr: int) -> Array:
    """Omega_{ab ij} = d_b omega_a - d_a omega_b + [W_a, W_b] for the given field."""
    domega = fd_jacobian(lambda p: omega_fn(p).reshape(p.shape[:-1] + (-1,)),
                         point, step)
    domega = domega.reshape(point.shape[:-1] + (dim, nfr, nfr, dim))  # [a,i,j,b]
    comm = (np.einsum("...aik,...bkj->...abij", omega0, omega0)
            - np.einsum("...bik,...akj->...abij", omega0, omega0))
    return (np.einsum("...aijb->...abij", domega)
            - np.einsum("...bija->...abij", domega) + comm)


def _flat_max(t: Array, point: Array) -> Array:
    """Max-abs over all non-batch axes, zero when the slot space is empty."""
    lead = point.ndim - 1
    if t.size == 0 or any(s == 0 for s in t.shape[lead:]):
        return np.zeros(point.shape[:-1])
    return np.max(np.abs(t).reshape(t.shape[:lead] + (-1,)), axis=-1)


def worldsheet_integrability_residuals(
        embedding: Embedding, point: Array, step: float = DEFAULT_STEP,
        normal_frame_fn: Callable[[Array], Array] | None = None) -> WorldsheetResiduals:
    """Residual max-norms of the three structure-compatibility families.

    Returns Gauss-Codazzi, Codazzi-Mainardi (with the twist-covariant
    derivative), and Ricci residuals for the worldsheet in spacetime; all
    vanish at the FD rate for smooth embeddings.  For co-dimension one the
    Ricci family is vacuous and reported as None.
    """
    point = np.asarray(point, dtype=float)
    nf = normal_frame_fn if normal_frame_fn is not None else aligned_normal_frame_fn(embedding, point)
    d = embedding.worldsheet_dim
    k = embedding.codimension
    fr, x, g, _, sec = _local(embedding, point)
    g_inv = fr.induced_metric_inverse
    e = fr.tangents
    normals = nf(point)
    r_amb = _ambient_riemann_lowered(embedding, x)

    conn = _connection(fr, g, sec)
    kk = _extrinsic(normals, g, sec)
    omega_fn = _twist_fn(embedding.background, nf, _sheet_map(embedding), step)
    omega = omega_fn(point)

    # Gauss family
    r_ws = worldsheet_riemann(embedding, point, step)
    lhs = np.einsum("...mnrs,...ma,...nb,...rc,...sd->...abcd", r_amb, e, e, e, e)
    kk_term = (np.einsum("...aci,...bdi->...abcd", kk, kk)
               - np.einsum("...adi,...bci->...abcd", kk, kk))
    res_gauss = np.max(np.abs(lhs - (r_ws - kk_term)),
                       axis=tuple(range(point.ndim - 1, point.ndim + 3)))

    # Codazzi family
    def kk_at(p: Array) -> Array:
        g_p = embedding.background.metric_at(embedding.position(p))
        return _extrinsic(nf(p), g_p, second_fundamental_input(embedding, p))

    dk = fd_jacobian(lambda p: kk_at(p).reshape(p.shape[:-1] + (-1,)), point, step)
    dk = dk.reshape(point.shape[:-1] + (d, d, k, d))  # [b,c,i,a]
    cov_k = (np.einsum("...bcia->...abci", dk)
             - np.einsum("...abd,...dci->...abci", conn, kk)
             - np.einsum("...acd,...bdi->...abci", conn, kk)
             - np.einsum("...aij,...bcj->...abci", omega, kk))
    cm = cov_k - np.einsum("...abci->...baci", cov_k)
    lhs_cm = np.einsum("...mnrs,...ma,...nb,...rc,...si->...abci", r_amb, e, e, e, normals)
    res_cm = np.max(np.linalg.norm(lhs_cm - cm, axis=-1),
                    axis=tuple(range(point.ndim - 1, point.ndim + 2)))

    # Ricci family (vacuous in co-dimension one)
    if k < 2:
        return WorldsheetResiduals(res_gauss, res_cm, None)
    big_omega = _twist_curvature(omega_fn, omega, point, step, d, k)
    k_mixed = np.einsum("...cd,...bdj->...bcj", g_inv, kk)
    rhs_ricci = (big_omega
                 - np.einsum("...aci,...bcj->...abij", kk, k_mixed)
                 + np.einsum("...bci,...acj->...abij", kk, k_mixed))
    lhs_ricci = np.einsum("...mnrs,...ma,...nb,...ri,...sj->...abij",
                          r_amb, e, e, normals, normals)
    diff = lhs_ricci - rhs_ricci
    res_ricci = np.max(np.linalg.norm(diff.reshape(diff.shape[:-2] + (-1,)), axis=-1),
                       axis=tuple(range(point.ndim - 1, point.ndim + 1)))
    return WorldsheetResiduals(res_gauss, res_cm, res_ricci)


def _boundary_riemann(bnd: BoundaryEmbedding, point: Array, step: float) -> Array:
    """Intrinsic Riemann R_{ABCD} of the edge metric h, fully lowered."""
    point = np.asarray(point, dtype=float)
    db = bnd.boundary_dim

    def bch(u: Array) -> Array:
        bd, (fr, _, g, _, sec) = _boundary_local(bnd, u)
        return _boundary_christoffels(bnd, u, bd, fr, g, sec)

    conn = bch(point)
    dconn = fd_jacobian(lambda u: bch(u).reshape(u.shape[:-1] + (-1,)), point, step)
    dconn = dconn.reshape(point.shape[:-1] + (db, db, db, db))
    mixed = _riemann_from_connection(conn, dconn)
    h = boundary_data(bnd, point).boundary_metric
    return np.einsum("...AE,...EBCD->...ABCD", h, mixed)


def boundary_integrability_residuals(bnd: BoundaryEmbedding, point: Array,
                                     step: float = DEFAULT_STEP) -> tuple[Array, Array]:
    """Gauss and Codazzi residuals for the edge embedded in the worldsheet.

    The edge is co-dimension one inside the worldsheet, so its Ricci family is
    vacuous and only two residuals exist.
    """
    point = np.asarray(point, dtype=float)
    bd, (fr, _, g, _, sec) = _boundary_local(bnd, point)
    xi = bnd.chi(point)
    eps = bd.tangents_in_m
    eta = bd.normal_in_m
    k_ab = bd.edge_curvature
    db = bnd.boundary_dim

    r_ws = worldsheet_riemann(bnd.parent, xi, step)
    lhs_gauss = np.einsum("...abcd,...aA,...bB,...cC,...dD->...ABCD",
                          r_ws, eps, eps, eps, eps)
    rh = _boundary_riemann(bnd, point, step)
    kk_term = (np.einsum("...AC,...BD->...ABCD", k_ab, k_ab)
               - np.einsum("...AD,...BC->...ABCD", k_ab, k_ab))
    res_gauss = np.max(np.abs(lhs_gauss - (rh - kk_term)),
                       axis=tuple(range(point.ndim - 1, point.ndim + 3)))

    lhs_cod = np.einsum("...abcd,...aA,...bB,...cC,...d->...ABC", r_ws, eps, eps, eps, eta)
    dk = fd_jacobian(
        lambda u: boundary_data(bnd, u).edge_curvature.reshape(u.shape[:-1] + (-1,)),
        point, step)
    dk = dk.reshape(point.shape[:-1] + (db, db, db))  # [B,C,A]
    h_chris = _boundary_christoffels(bnd, point, bd, fr, g, sec)
    cov_k = (np.einsum("...BCA->...ABC", dk)
             - np.einsum("...ABD,...DC->...ABC", h_chris, k_ab)
             - np.einsum("...ACD,...BD->...ABC", h_chris, k_ab))
    rhs_cod = cov_k - np.einsum("...ABC->...BAC", cov_k)
    res_cod = np.max(np.abs(lhs_cod - rhs_cod),
                     axis=tuple(range(point.ndim - 1, point.ndim + 2)))
    return res_gauss, res_cod


def direct_embedding_residuals(bnd: BoundaryEmbedding, point: Array,
                               step: float = DEFAULT_STEP) -> DirectEdgeResiduals:
    """Integrability residuals for the edge embedded directly in spacetime.

    Returns the Gauss-Codazzi, Codazzi-Mainardi, and Ricci residuals in the
    adapted basis {eta, n^i}, plus the two consistency residuals tying the
    adapted twist curvature to the worldsheet one:
    Omega_{AB ij} - eps eps Omega_{ab ij} and
    Omega_{AB i0} - eps^c_C [eps^a_A K_{ac i} k_B^C - eps^b_B K_{bc i} k_A^C].
    """
    point = np.asarray(point, dtype=float)
    bg = bnd.parent.background
    bd, (fr, x, g, chris, sec) = _boundary_local(bnd, point)
    xi = bnd.chi(point)
    db = bnd.boundary_dim
    k_par = bnd.parent.codimension
    nfr = k_par + 1

    adapted_fn = _aligned_field(lambda u: _adapted_normal_field(bnd, u), point, g)
    adapted = adapted_fn(point)
    y1, y2 = _composed_derivatives(bnd, point)
    kk = _edge_extrinsic(adapted, g, chris, y1, y2)
    omega_fn = _twist_fn(bg, adapted_fn, _edge_map(bnd), step)
    omega = omega_fn(point)
    h_chris = _boundary_christoffels(bnd, point, bd, fr, g, sec)
    r_amb = _ambient_riemann_lowered(bnd.parent, x)

    rh = _boundary_riemann(bnd, point, step)
    lhs_gauss = np.einsum("...mnrs,...mA,...nB,...rC,...sD->...ABCD",
                          r_amb, y1, y1, y1, y1)
    kk_term = (np.einsum("...ACI,...BDI->...ABCD", kk, kk)
               - np.einsum("...ADI,...BCI->...ABCD", kk, kk))
    res_gauss = np.max(np.abs(lhs_gauss - (rh - kk_term)),
                       axis=tuple(range(point.ndim - 1, point.ndim + 3)))

    def kk_at(u: Array) -> Array:
        x_u = bnd.parent.position(bnd.chi(u))
        return _edge_extrinsic(adapted_fn(u), bg.metric_at(x_u), bg.christoffels_at(x_u),
                               *_composed_derivatives(bnd, u))

    dk = fd_jacobian(lambda u: kk_at(u).reshape(u.shape[:-1] + (-1,)), point, step)
    dk = dk.reshape(point.shape[:-1] + (db, db, nfr, db))  # [B,C,I,A]
    cov_k = (np.einsum("...BCIA->...ABCI", dk)
             - np.einsum("...ABD,...DCI->...ABCI", h_chris, kk)
             - np.einsum("...ACD,...BDI->...ABCI", h_chris, kk)
             - np.einsum("...AIJ,...BCJ->...ABCI", omega, kk))
    cm = cov_k - np.einsum("...ABCI->...BACI", cov_k)
    lhs_cm = np.einsum("...mnrs,...mA,...nB,...rC,...sI->...ABCI",
                       r_amb, y1, y1, y1, adapted)
    res_cm = np.max(np.linalg.norm(lhs_cm - cm, axis=-1),
                    axis=tuple(range(point.ndim - 1, point.ndim + 2)))

    # adapted Ricci family and the twist-consistency pair
    big_omega = _twist_curvature(omega_fn, omega, point, step, db, nfr)
    h_inv = bd.boundary_metric_inverse
    k_mixed = np.einsum("...CD,...BDJ->...BCJ", h_inv, kk)
    rhs_ricci = (big_omega
                 - np.einsum("...ACI,...BCJ->...ABIJ", kk, k_mixed)
                 + np.einsum("...BCI,...ACJ->...ABIJ", kk, k_mixed))
    lhs_ricci = np.einsum("...mnrs,...mA,...nB,...rI,...sJ->...ABIJ",
                          r_amb, y1, y1, adapted, adapted)
    diff = lhs_ricci - rhs_ricci
    if nfr >= 2:
        res_ricci = np.max(np.linalg.norm(diff.reshape(diff.shape[:-2] + (-1,)), axis=-1),
                           axis=tuple(range(point.ndim - 1, point.ndim + 1)))
    else:
        res_ricci = None

    # twist inheritance: the tangential block matches the projected worldsheet
    # curvature, the mixed i0 block the curvature-edge cross terms
    ws_nf = aligned_normal_frame_fn(bnd.parent, xi)
    if k_par >= 2:
        ws_omega_fn = _twist_fn(bg, ws_nf, _sheet_map(bnd.parent), step)
        ws_big = _twist_curvature(ws_omega_fn, ws_omega_fn(xi), xi, step,
                                  bnd.parent.worldsheet_dim, k_par)
        projected = np.einsum("...aA,...bB,...abij->...ABij", bd.tangents_in_m,
                              bd.tangents_in_m, ws_big)
    else:
        projected = np.zeros(point.shape[:-1] + (db, db, k_par, k_par))
    res_twist_t = _flat_max(big_omega[..., 1:, 1:] - projected, point)

    kk_ws = _extrinsic(ws_nf(xi), g, sec)
    k_up = np.einsum("...BD,...DC->...BC", bd.edge_curvature, h_inv)  # k_B^C
    cross = np.einsum("...cC,...aA,...aci,...BC->...ABi",
                      bd.tangents_in_m, bd.tangents_in_m, kk_ws, k_up)
    rhs_mixed = cross - np.swapaxes(cross, -3, -2)
    res_twist_m = _flat_max(big_omega[..., 1:, 0] - rhs_mixed, point)

    return DirectEdgeResiduals(res_gauss, res_cm, res_ricci, res_twist_t, res_twist_m)


def curvature_tensors(bnd: BoundaryEmbedding, point: Array,
                      step: float = DEFAULT_STEP) -> CurvatureTensors:
    """Assemble all curvature tensors entering the residuals at one edge point."""
    point = np.asarray(point, dtype=float)
    bg = bnd.parent.background
    xi = bnd.chi(point)
    x = bnd.parent.position(xi)
    k_par = bnd.parent.codimension
    ws_riem = worldsheet_riemann(bnd.parent, xi, step)
    b_riem = _boundary_riemann(bnd, point, step)
    if k_par >= 2:
        nf = aligned_normal_frame_fn(bnd.parent, xi)
        omega_fn = _twist_fn(bg, nf, _sheet_map(bnd.parent), step)
        twist_curv = _twist_curvature(omega_fn, omega_fn(xi), xi, step,
                                      bnd.parent.worldsheet_dim, k_par)
    else:
        twist_curv = None
    adapted_fn = _aligned_field(lambda u: _adapted_normal_field(bnd, u), point,
                                bg.metric_at(x))
    omega_fn_b = _twist_fn(bg, adapted_fn, _edge_map(bnd), step)
    adapted_curv = _twist_curvature(omega_fn_b, omega_fn_b(point), point, step,
                                    bnd.boundary_dim, k_par + 1)
    return CurvatureTensors(
        ambient_riemann=_ambient_riemann_lowered(bnd.parent, x),
        worldsheet_riemann=ws_riem,
        boundary_riemann=b_riem,
        twist_curvature=twist_curv,
        adapted_twist_curvature=adapted_curv,
    )
