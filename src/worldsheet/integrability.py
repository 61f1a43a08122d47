"""Integrability conditions of the embedding hierarchy, as numerical residuals.

The hierarchy has three levels: the worldsheet in spacetime, the edge in the
worldsheet, and the edge directly in spacetime.  The Gauss, Codazzi and Ricci
equations are the same at each level, so one assembly evaluates them all.
Each level is a ``geometry._Local`` record (``geometry._frame_at`` gives the
sheet's, ``_boundary_local`` the two edge levels'), and its point function
returns the record at the stencil points around the validated center, built
without the rank and signature checks (``geometry._Evaluation``).  One
central-difference sweep of the record's connection, K and normal columns
gives the intrinsic Riemann tensor, dK and the twist together; the twist
curvature differences the twist through the same point function, which on
the sheet reads no second derivative of the map.  Normal frames at stencil
points are aligned to the center frame by the minimizing rotation
(``geometry._procrustes``) before differencing, so deterministic-gauge flips
cannot inject spurious twist.

Residual norms are the maximum over tangential index slots of the Euclidean
norm over frame (normal) indices, which makes them exactly invariant under
constant frame rotations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boundary import BoundaryEmbedding, _boundary_local, _EdgeLocal, _pull_pair
from .geometry import (
    Embedding,
    _checked_normals,
    _Evaluation,
    _frame_at,
    _Local,
    _procrustes,
    fd_jacobian,
    normal_frame,
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
        families = (self.gauss_codazzi, self.codazzi_mainardi, self.ricci)
        return float(max(f.max() for f in families if f is not None))


@dataclass(frozen=True)
class DirectEdgeResiduals:
    gauss_codazzi: Array
    codazzi_mainardi: Array
    ricci: Array | None
    twist_tangential: Array  # Omega_{AB ij} vs projected worldsheet Omega
    twist_mixed: Array       # Omega_{AB i0} vs the curvature-edge cross terms

    def max(self) -> float:
        families = (self.gauss_codazzi, self.codazzi_mainardi, self.twist_tangential,
                    self.twist_mixed, self.ricci)
        return float(max(f.max() for f in families if f is not None))


_LocalFn = Callable[[Array], _Local]


def aligned_normal_frame_fn(embedding: Embedding,
                            center: Array) -> Callable[[Array], Array]:
    """Normal-frame field aligned to the frame at ``center`` by Procrustes rotation.

    The returned field is smooth near the center even where the deterministic
    gauge of :func:`normal_frame` switches seed axes or signs, and coincides
    with it at the center.  Overlaps use the background metric at the center
    (exact for flat backgrounds).
    """
    fr = _frame_at(embedding, center)
    return lambda p: _procrustes(normal_frame(embedding, p), fr.normals, fr.g)


def _aligned(v: _Local, ref: _Local) -> _Local:
    """``v`` with its normal columns rotated onto those of ``ref`` (see :func:`_procrustes`)."""
    return v.with_normals(_procrustes(v.normals, ref.normals, ref.g))


def _sheet_level(loc: _Evaluation, normal_frame_fn: Callable[[Array], Array] | None = None
                 ) -> tuple[_Local, _LocalFn]:
    """The sheet level at the points of its checked record ``loc``, and its point function.

    The normals are ``normal_frame_fn`` when given, else the gauge of
    :func:`normal_frame` aligned to the frame at those points.
    """
    if normal_frame_fn is None:
        return loc, lambda p: _aligned(_Evaluation(loc.embedding, p), loc)
    normals_at = _checked_normals(normal_frame_fn)
    return (loc.with_normals(normals_at(loc.point)),
            lambda p: _Evaluation(loc.embedding, p).with_normals(normals_at(p)))


def _spacetime_level(bnd: BoundaryEmbedding, bl: _EdgeLocal) -> tuple[_Local, _LocalFn]:
    """The edge in spacetime and its point function, normals aligned to those of ``bl``."""
    ref = bl.spacetime
    return ref, lambda u: _aligned(_boundary_local(bnd, u, _Evaluation).spacetime, ref)


def _sweep(at: _LocalFn, point: Array, step: float, center: _Local) -> list[Array]:
    """Derivatives of (conn, K, normals) at ``point`` from one central-difference sweep of ``at``.

    ``center`` is ``at(point)``, read for its shapes only; each derivative is
    indexed like its field with the coordinate direction last.  ``at`` sees
    the stencil points stacked, as :func:`geometry.fd_jacobian` passes them.
    """
    d, (n, k) = center.tangents.shape[-1], center.normals.shape[-2:]
    shapes = [(d, d, d), (d, d, k), (n, k)]

    def fields(p: Array) -> Array:
        v = at(p)
        return np.concatenate([f.reshape(p.shape[:-1] + (-1,))
                               for f in (v.conn, v.kk, v.normals)], axis=-1)

    jac = fd_jacobian(fields, point, step)
    cuts = [0, *itertools.accumulate(math.prod(s) for s in shapes)]
    return [jac[..., lo:hi, :].reshape(point.shape[:-1] + s + point.shape[-1:])
            for s, lo, hi in zip(shapes, cuts, cuts[1:])]


def _curvature(w: Array, dw: Array) -> Array:
    """F_AB = d_A W_B - d_B W_A + [W_A, W_B] of a connection, indexed [A, B, I, J].

    ``w`` holds the matrices (W_A)^I_J indexed [A, I, J], and ``dw`` their
    derivatives with the direction last, as :func:`_sweep` gives them.
    """
    d_w = dw.transpose((*range(dw.ndim - 4), -1, -4, -3, -2))  # [A, B, I, J]: d_A W_B
    w_a, w_b = w[..., :, None, :, :], w[..., None, :, :, :]
    return d_w - d_w.swapaxes(-4, -3) + w_a @ w_b - w_b @ w_a


def _riemann(v: _Local, dconn: Array) -> Array:
    """Fully lowered R_{ABCD}: the curvature of (W_C)^A_B = Gamma_CB^A, lowered with h_AE."""
    f = _curvature(v.conn.swapaxes(-1, -2), dconn.swapaxes(-3, -2))  # [C, D, A, B]
    r = v.induced_metric[..., None, None, :, :] @ f
    return r.transpose((*range(r.ndim - 4), -2, -1, -4, -3))


def _twist_curvature(at: _LocalFn, omega0: Array, point: Array, step: float) -> Array:
    """Omega_{AB IJ}, the curvature of W_A = -omega_A, with omega differenced through ``at``.

    The twist at each stencil point needs only the normals' derivative, so
    the inner sweep differences the normal columns alone, not Gamma and K.
    It runs on the outer stencil points as one stack, so each sweep is one
    stacked call of ``at``.
    """
    def omega(p: Array) -> Array:
        return at(p).twist(fd_jacobian(lambda q: at(q).normals, p, step))

    return _curvature(-omega0, -fd_jacobian(omega, point, step))


def _level(v: _Local, at: _LocalFn, point: Array, step: float
           ) -> tuple[Array, Array, Array, Array]:
    """Intrinsic Riemann, dK, twist and twist curvature of one level, from one sweep of ``at``."""
    dconn, dk, dn = _sweep(at, point, step, v)
    k, riemann = v.normals.shape[-1], _riemann(v, dconn)
    if k < 2:  # one normal column: the twist and its curvature vanish identically
        return (riemann, dk, np.zeros(v.conn.shape[:-2] + (k, k)),
                np.zeros(v.conn.shape[:-1] + (k, k)))
    omega = v.twist(dn)
    return riemann, dk, omega, _twist_curvature(at, omega, point, step)


def _frame_pullback(r: Array, f: Array) -> Array:
    """R(F, F, F, F): each slot of the 4-tensor ``r`` contracted with the columns of ``f``."""
    for _ in range(4):  # the first slot moves last and is contracted, four times over
        r = r.transpose((*range(r.ndim - 4), -3, -2, -1, -4)) @ f[..., None, None, :, :]
    return r


def _structure_residuals(r_amb: Array, v: _Local, riemann: Array, dk: Array,
                         omega: Array, big_omega: Array
                         ) -> tuple[Array, Array, Array | None]:
    """Gauss, Codazzi and Ricci max-norms of one level of the hierarchy.

    ``r_amb`` is the lowered Riemann tensor of the space the level lies in, or
    None where it vanishes identically, ``v`` the level's local geometry,
    and the rest come from :func:`_level`.  Ricci is None for fewer than two
    normals, where the family is vacuous.
    """
    t, n, kk, conn = v.tangents, v.normals, v.kk, v.conn
    d = t.shape[-1]
    # the left-hand sides are the blocks of R(F, F, F, F), with F = [t | n] square; where
    # they vanish, each residual is the norm of its right-hand side, whose sign it drops
    r_frame = None if r_amb is None else _frame_pullback(r_amb, np.concatenate([t, n], axis=-1))

    def lhs_less(rhs: Array, *block: slice) -> Array:
        return rhs if r_frame is None else r_frame[(..., *block)] - rhs

    kk_term = (np.einsum("...aci,...bdi->...abcd", kk, kk)
               - np.einsum("...adi,...bci->...abcd", kk, kk))
    sd = slice(d)
    gauss = np.abs(lhs_less(riemann - kk_term, sd, sd, sd, sd)).max(axis=(-4, -3, -2, -1))

    cov_k = (np.einsum("...bcia->...abci", dk)
             - np.einsum("...abd,...dci->...abci", conn, kk)
             - np.einsum("...acd,...bdi->...abci", conn, kk)
             - np.einsum("...aij,...bcj->...abci", omega, kk))
    cm = cov_k - np.einsum("...abci->...baci", cov_k)
    codazzi = np.max(np.linalg.norm(lhs_less(cm, sd, sd, sd, slice(d, None)), axis=-1),
                     axis=(-3, -2, -1))

    if n.shape[-1] < 2:
        return gauss, codazzi, None
    k_mixed = np.einsum("...cd,...bdj->...bcj", v.induced_metric_inverse, kk)
    rhs_ricci = (big_omega
                 - np.einsum("...aci,...bcj->...abij", kk, k_mixed)
                 + np.einsum("...bci,...acj->...abij", kk, k_mixed))
    diff = lhs_less(rhs_ricci, sd, sd, slice(d, None), slice(d, None))
    ricci = np.max(np.linalg.norm(diff.reshape(diff.shape[:-2] + (-1,)), axis=-1),
                   axis=(-2, -1))
    return gauss, codazzi, ricci


def worldsheet_connection(embedding: Embedding, point: Array) -> Array:
    """Connection coefficients Gamma_ab^c of the induced metric, indexed [a, b, c]."""
    return _frame_at(embedding, point).conn


def worldsheet_riemann(embedding: Embedding, point: Array,
                       step: float = DEFAULT_STEP) -> Array:
    """Intrinsic Riemann tensor R_{abcd} of the worldsheet, fully lowered.

    Assembled by central differencing of the worldsheet connection; the
    standard antisymmetries hold to the FD tolerance.
    """
    return _sheet_riemann(_frame_at(embedding, point), step)


def _sheet_riemann(loc: _Evaluation, step: float) -> Array:
    """:func:`worldsheet_riemann` at the points of the checked record ``loc``."""
    v, at = _sheet_level(loc)
    return _riemann(v, _sweep(at, loc.point, step, v)[0])


def _ambient_riemann_lowered(embedding: Embedding, v: _Local) -> Array | None:
    """The background's R_{mu nu rho sigma} at the image point of ``v``, lowered with its g;
    None where ``riemann_at`` reads zeros: a flat background without a Riemann callback."""
    bg = embedding.background
    if bg.flat and bg.riemann_fn is None:
        return None
    return np.einsum("...ml,...lnrs->...mnrs", v.g, bg.riemann_at(v.x))


def _flat_max(t: Array, point: Array) -> Array:
    """Max-abs over all non-batch axes."""
    return np.abs(t).reshape(t.shape[:point.ndim - 1] + (-1,)).max(axis=-1)


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
    v, at = _sheet_level(_frame_at(embedding, point), normal_frame_fn)
    return WorldsheetResiduals(*_structure_residuals(
        _ambient_riemann_lowered(embedding, v), v, *_level(v, at, point, step)))


def boundary_integrability_residuals(bnd: BoundaryEmbedding, point: Array,
                                     step: float = DEFAULT_STEP) -> tuple[Array, Array]:
    """Gauss and Codazzi residuals for the edge embedded in the worldsheet.

    The edge is co-dimension one inside the worldsheet, so its Ricci family is
    vacuous and only two residuals exist.  On a one-dimensional edge both vanish
    identically (antisymmetric in two tangent indices), so the values are roundoff;
    ``verify`` lists this row only for edges of dimension >= 2.
    """
    point = np.asarray(point, dtype=float)
    return _boundary_integrability(bnd, _boundary_local(bnd, point), point, step)


def _boundary_integrability(bnd: BoundaryEmbedding, bl: _EdgeLocal, point: Array,
                            step: float) -> tuple[Array, Array]:
    """:func:`boundary_integrability_residuals` from the checked record ``bl`` at ``point``."""
    r_ws = _sheet_riemann(bl.sheet, step)
    # the edge in the sheet: its one normal eta is signed by the edge's orientation
    v, at = bl.edge, lambda u: _boundary_local(bnd, u, _Evaluation).edge
    gauss, codazzi, _ = _structure_residuals(r_ws, v, *_level(v, at, point, step))
    return gauss, codazzi


def direct_embedding_residuals(bnd: BoundaryEmbedding, point: Array,
                               step: float = DEFAULT_STEP) -> DirectEdgeResiduals:
    """Integrability residuals for the edge embedded directly in spacetime.

    Returns the Gauss-Codazzi, Codazzi-Mainardi, and Ricci residuals in the
    adapted basis {eta, n^i}, plus the two consistency residuals tying the
    adapted twist curvature to the worldsheet one:
    Omega_{AB ij} - [eps eps Omega_{ab ij} - (m_{A i} m_{B j} - m_{B i} m_{A j})],
    with m_{A i} = eta^a eps^b_A K_{ab i}, and
    Omega_{AB i0} - eps^c_C [eps^a_A K_{ac i} k_B^C - eps^b_B K_{bc i} k_A^C].
    On a one-dimensional edge every family vanishes identically (antisymmetric in
    A, B), so the values are roundoff; ``verify`` lists it for edges of dimension >= 2.
    """
    point = np.asarray(point, dtype=float)
    return _direct_embedding(bnd, _boundary_local(bnd, point), point, step)


def _direct_embedding(bnd: BoundaryEmbedding, bl: _EdgeLocal, point: Array,
                      step: float) -> DirectEdgeResiduals:
    """:func:`direct_embedding_residuals` from the checked record ``bl`` at ``point``."""
    bd, xi = bl.bd, bl.edge.x
    v, at = _spacetime_level(bnd, bl)
    riemann, dk, omega, big_omega = _level(v, at, point, step)
    gauss, codazzi, ricci = _structure_residuals(
        _ambient_riemann_lowered(bnd.parent, v), v, riemann, dk, omega, big_omega)

    # twist inheritance: the tangential block matches the projected worldsheet
    # curvature less the cross terms of the mixed curvature m_{A i}, which the
    # eta column adds to the edge's normal bundle; the mixed i0 block matches
    # the curvature-edge cross terms
    eps = bd.tangents_in_m
    ws, ws_at = _sheet_level(bl.sheet)
    m = _pull_pair(bd.normal_in_m[..., None], eps, ws.kk)[..., 0, :, :]  # eta^a eps^b_A K_ab^i
    m_cross = np.einsum("...Ai,...Bj->...ABij", m, m)
    inherited = m_cross.swapaxes(-4, -3) - m_cross
    if bnd.parent.codimension >= 2:
        inherited = inherited + _pull_pair(eps, eps, _level(ws, ws_at, xi, step)[3])
    res_twist_t = _flat_max(big_omega[..., 1:, 1:] - inherited, point)

    k_up = bd.edge_curvature @ bd.boundary_metric_inverse  # k_B^C
    cross = np.einsum("...ACi,...BC->...ABi", _pull_pair(eps, eps, ws.kk), k_up)
    rhs_mixed = cross - cross.swapaxes(-3, -2)
    res_twist_m = _flat_max(big_omega[..., 1:, 0] - rhs_mixed, point)

    return DirectEdgeResiduals(gauss, codazzi, ricci, res_twist_t, res_twist_m)


def curvature_tensors(bnd: BoundaryEmbedding, point: Array,
                      step: float = DEFAULT_STEP) -> CurvatureTensors:
    """Assemble all curvature tensors entering the residuals at one edge point.

    One sweep per level: the sheet's gives R_{abcd} and (two or more normals)
    its twist curvature; the edge-in-spacetime level's gives R_{ABCD} and the
    adapted twist curvature.
    """
    point = np.asarray(point, dtype=float)
    bl = _boundary_local(bnd, point)
    xi = bl.edge.x
    r_ws, _, _, twist_curv = _level(*_sheet_level(bl.sheet), xi, step)
    r_h, _, _, adapted = _level(*_spacetime_level(bnd, bl), point, step)
    ambient, x = _ambient_riemann_lowered(bnd.parent, bl.sheet), bl.sheet.x
    return CurvatureTensors(
        ambient_riemann=np.zeros(x.shape + x.shape[-1:] * 3) if ambient is None else ambient,
        worldsheet_riemann=r_ws,
        boundary_riemann=r_h,
        twist_curvature=twist_curv if bnd.parent.codimension >= 2 else None,
        adapted_twist_curvature=adapted,
    )
