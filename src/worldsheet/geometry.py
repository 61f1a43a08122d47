"""Intrinsic and extrinsic geometry of parametric worldsheet embeddings.

All operations are pure functions of immutable inputs and broadcast over
leading batch axes of the evaluation points: a point argument of shape
(..., D) produces outputs with matching leading axes.

Every level of the hierarchy is one record, a ``_Local``, so at each level K
is ``_extrinsic`` and Gamma is ``_connection``; the sheet's is ``_Evaluation``.

The local kernel uses closed forms in place of LAPACK, each with its own
scope:

* the rank check of a D = 2 tangent map, from its 2x2 minors (D = 3 takes
  the SVD);
* the det, inverse and signature of a metric of dimension <= 3, from its
  cofactors and Descartes' rule of signs (larger ones take LAPACK);
* one normal (K = 1, D <= 3, and every edge normal eta), the Hodge dual of
  the tangents raised with the inverse metric (more normals, or D > 3, take
  the Gram-Schmidt sweep).

At quadrature size the kernel works across the flattened batch, not point by
point: a short last axis is summed one component slice at a time over all
points (:func:`_sum_last`, in numpy's order, so the bits are those of
``.sum``).  A flat background's metric is one signature matrix for every
point, so the pullback and the Hodge raise are one product over the batch, no
Christoffel product is made, and the volume action reads no map point.

At batches of 1 to 30 points numpy's Python-level wrappers cost more than the
arithmetic, so the small-batch path calls the C-level operations they reduce to,
bit for bit in numpy's order: array methods for reductions, ``.transpose`` for
``np.moveaxis``, and filled arrays for ``np.stack`` and ``np.cross``.

The sheet at a batch of points is one record, :class:`_Evaluation`, built
with no rank or signature check: the map and its tangent map on
construction, and gamma, gamma^-1, the normals and the second order each on
first read.  :func:`_frame_at` checks it at the points a caller asks for:
the rank of the tangent map, then gamma's det threshold and Descartes
signature count, and :func:`frame` copies the checked record into a
:class:`Frame`.  A kernel that differences geometry around points it has
validated builds the record unchecked at its stencil points
(``_Evaluation(embedding, p)``; ``boundary._boundary_local`` takes it in
place of ``_frame_at``): the same values, bit for bit, each built only where
read.  There too the accessor that calls a callback checks what it returns
(an ``Embedding``'s raises DegenerateImmersion, :func:`_checked_normals` on a
``normal_frame_fn`` GaugeFailure), and the normal's own test raises GaugeFailure.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .background import LORENTZIAN, BackgroundMetric, _signature_matrix
from .errors import (DegenerateImmersion, DegenerateMetric, GaugeFailure, InvalidParameters,
                     _finite)

Array = np.ndarray

DEFAULT_FD_STEP = 1e-5

# Most points per call of a function under a finite-difference stencil: small
# batches take one call for the whole stencil, while ~4096-point batches (the
# action quadrature) keep one call per shift, so peak memory stays that of one
# batch.
FD_BLOCK_POINTS = 4096

# |det gamma| below 1e-12 * scale^(2D) is treated as degenerate rather than
# inverted into garbage.
DEGENERACY_TOL = 1e-12


def _step_scale(point: Array) -> Array:
    """Per-point step scale: unit floor so steps never collapse near the origin."""
    return np.maximum(1.0, np.abs(point).max(axis=-1, keepdims=True))


def _stencil(fn: Callable[[Array], Array], points: Array) -> Array:
    """fn over a stack of shifted batches (S, ..., D), stacked the same way as (S, ..., N).

    Whole shifts are passed together in as few calls as keep each call at or
    below ``FD_BLOCK_POINTS`` points; a shift larger than that is one call.
    """
    per_shift = max(1, math.prod(points.shape[1:-1]))
    shifts_per_call = max(1, FD_BLOCK_POINTS // per_shift)
    if shifts_per_call >= len(points):
        return fn(points)
    return np.concatenate([fn(points[i:i + shifts_per_call])
                           for i in range(0, len(points), shifts_per_call)])


def _offsets(h: Array, directions: Array) -> Array:
    """h (..., 1) times each row of ``directions`` (S, D), stacked on a new leading axis."""
    s, d = directions.shape
    return h * directions.reshape((s,) + (1,) * (h.ndim - 1) + (d,))


def fd_jacobian(fn: Callable[[Array], Array], point: Array, step: float) -> Array:
    """Central-difference Jacobian of fn: (..., D) -> (..., *S) as (..., *S, D).

    fn may be array-valued (S of any rank, () for a scalar field); the
    Jacobian of a first derivative is the second derivative.  fn is called on
    the 2D shifted copies of ``point`` stacked on one extra leading axis,
    (2D, ..., D) -> (2D, ..., *S), in blocks of at most ``FD_BLOCK_POINTS``
    points (see :func:`_stencil`).
    """
    point = np.asarray(point, dtype=float)
    d = point.shape[-1]
    h = step * _step_scale(point)
    shift = _offsets(h, np.eye(d))
    f = _stencil(fn, np.concatenate([point + shift, point - shift]))
    h = h.reshape(point.shape[:-1] + (1,) * (f.ndim - point.ndim))
    # the direction axis last, in C order: the layout the analytic derivative callbacks return
    return np.ascontiguousarray(((f[:d] - f[d:]) / (2.0 * h)).transpose((*range(1, f.ndim), 0)))


@dataclass(frozen=True)
class Embedding:
    """Parametric map X: (..., D) worldsheet coordinates -> (..., N) background points.

    Optional derivative callbacks return the tangent map (..., N, D) and the
    coordinate second derivatives (..., N, D, D).  When absent, each falls back
    to the central-difference Jacobian of the order below it, with step
    ``fd_step`` scaled by the local coordinate magnitude: the second
    derivatives difference ``d_position``, so an analytic tangent map is used
    where one is given.  Callables must broadcast over leading batch axes:
    under a finite-difference stencil (these fallbacks, and every kernel that
    differences geometry built from the map) they receive the stencil points
    with one extra leading axis, in blocks of at most ``FD_BLOCK_POINTS``
    points (see :func:`fd_jacobian`).  Scope: 2 <= ``worldsheet_dim`` < N.
    """

    worldsheet_dim: int
    background: BackgroundMetric
    position_fn: Callable[[Array], Array]
    d_position_fn: Callable[[Array], Array] | None = None
    dd_position_fn: Callable[[Array], Array] | None = None
    fd_step: float = DEFAULT_FD_STEP

    def __post_init__(self) -> None:
        if not 2 <= self.worldsheet_dim < self.background.dimension:
            raise InvalidParameters("worldsheet dimension D must satisfy 2 <= D < N")

    @property
    def codimension(self) -> int:
        return self.background.dimension - self.worldsheet_dim

    def position(self, point: Array) -> Array:
        return _finite(self.position_fn(np.asarray(point, dtype=float)),
                       DegenerateImmersion, "non-finite position")

    def d_position(self, point: Array) -> Array:
        e = (fd_jacobian(self.position, point, self.fd_step) if self.d_position_fn is None
             else self.d_position_fn(np.asarray(point, dtype=float)))
        return _finite(e, DegenerateImmersion, "non-finite tangent map")

    def dd_position(self, point: Array) -> Array:
        dd = (fd_jacobian(self.d_position, point, self.fd_step) if self.dd_position_fn is None
              else self.dd_position_fn(np.asarray(point, dtype=float)))
        return _finite(dd, DegenerateImmersion, "non-finite second derivatives of the map")


@dataclass(frozen=True)
class Frame:
    """Adapted basis at worldsheet points: tangents e_a, unit normals n_i, metric."""

    tangents: Array            # (..., N, D)
    normals: Array             # (..., N, K)
    induced_metric: Array      # (..., D, D)
    induced_metric_inverse: Array  # (..., D, D)


@dataclass(frozen=True)
class CurvatureData:
    """Extrinsic curvature K_ab^i, its traces, twist potential, and connection.

    ``extrinsic`` is indexed [a, b, i], ``twist`` [a, i, j] (antisymmetric in
    i, j), and ``worldsheet_connection`` [a, b, c] with c the upper index of
    Gamma_ab^c.  The twist is reported in the deterministic normal gauge of
    :func:`normal_frame` and is gauge-dependent.
    """

    extrinsic: Array               # (..., D, D, K)
    traces: Array                  # (..., K)
    twist: Array                   # (..., D, K, K)
    worldsheet_connection: Array   # (..., D, D, D)


def _sum_last(a: Array) -> Array:
    """``a.sum(axis=-1)`` of a short last axis, added one component slice at a time.

    numpy reduces a short last axis in one inner loop per point; each slice
    add here runs over the whole batch.  The order is numpy's for an axis
    shorter than 8, left to right from +0.0, so the bits are the same.  (A
    matrix-vector product with ones is BLAS's order, which differs from
    length 4 on.)
    """
    total = a[..., 0] + 0.0
    for i in range(1, a.shape[-1]):
        total += a[..., i]
    return total


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[Array, Array]:
    """Row pairs (mu < nu) of an n-row tangent map: the 2x2 minors of its wedge."""
    mu, nu = np.triu_indices(n, 1)
    mu.flags.writeable = nu.flags.writeable = False  # shared by every caller
    return mu, nu


def _wedge(tangents: Array) -> Array | None:
    """The 2x2 minors of a D = 2 tangent map, in ``_pairs`` order: e_1 ^ e_2.  None for D = 3."""
    if tangents.shape[-1] != 2:
        return None
    mu, nu = _pairs(tangents.shape[-2])
    e1, e2 = tangents[..., 0], tangents[..., 1]
    return e1[..., mu] * e2[..., nu] - e1[..., nu] * e2[..., mu]


def _rank_checked_scale(tangents: Array, minors: Array | None = None) -> Array:
    """s_max: the largest singular value of a finite, full-rank tangent map.

    Full rank means s_min / s_max > 1e-10.  For D = 2 that is decided as
    |e_1 ^ e_2| > 1e-10 s_max^2, since s_min s_max = |e_1 ^ e_2|: the wedge
    comes from the 2x2 minors (:func:`_wedge`, made here unless passed), which
    keep relative accuracy where the Gram determinant cancels, and s_max^2 is
    the larger eigenvalue of the 2x2 Euclidean Gram matrix.  D = 3 takes the
    SVD.
    """
    if tangents.shape[-1] == 2:
        minors = _wedge(tangents) if minors is None else minors
        e1, e2 = tangents[..., 0], tangents[..., 1]
        g11, g22, g12 = _sum_last(e1 * e1), _sum_last(e2 * e2), _sum_last(e1 * e2)
        s_max2 = 0.5 * (g11 + g22) + np.hypot(0.5 * (g11 - g22), g12)
        degenerate = np.sqrt(_sum_last(minors * minors)) <= 1e-10 * s_max2
        s_max = np.sqrt(s_max2)
    else:
        s = np.linalg.svd(tangents, compute_uv=False)
        degenerate, s_max = s[..., -1] <= 1e-10 * s[..., 0], s[..., 0]
    if degenerate.any():
        raise DegenerateImmersion(
            "tangent map is rank-deficient (bad parametrization or coincident points)"
        )
    return s_max


def _pullback(tangents: Array, metric: Array) -> Array:
    """Pullback t^m_a q_mn t^n_b of a bilinear form q = ``metric`` along the tangent columns.

    ``metric`` is (..., N, N), or the diagonal (N,) of a flat background's
    signature matrix: q t then scales the rows of t by +-1, which is exact, so
    it is one product over the batch.
    """
    if metric.ndim == 1:
        return tangents.swapaxes(-1, -2) @ (metric[:, None] * tangents)
    return tangents.swapaxes(-1, -2) @ (metric @ tangents)


def tangent_basis(embedding: Embedding, point: Array) -> Array:
    """Tangent vectors e_a = dX/dxi^a as columns of an (..., N, D) matrix."""
    e = embedding.d_position(point)
    _rank_checked_scale(e)
    return e


def induced_metric(embedding: Embedding, point: Array) -> Array:
    """Pullback metric gamma_ab = g(e_a, e_b), validated for signature and rank."""
    return frame(embedding, point).induced_metric


def _det_adjugate(m: Array) -> tuple[Array, Array | None]:
    """det m and its adjugate adj m = (det m) m^-1, for square matrices (..., d, d).

    Closed-form cofactors for d <= 3; the 3x3 rows are the cross products of
    the columns, a_j b_k - a_k b_j per component as ``np.cross`` forms them.
    Beyond d = 3 the det is LAPACK's and the adjugate None.
    """
    d = m.shape[-1]
    if d == 1:
        return m[..., 0, 0], np.ones_like(m)
    adj = np.empty(m.shape)
    if d == 2:
        a, b, c, e = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
        adj[..., 0, 0], adj[..., 0, 1], adj[..., 1, 0], adj[..., 1, 1] = e, -b, -c, a
        return a * e - b * c, adj
    if d == 3:
        cols = m.swapaxes(-1, -2)
        x, y = cols[..., [1, 2, 0], :], cols[..., [2, 0, 1], :]  # row r: col r+1 x col r+2
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            adj[..., i] = x[..., j] * y[..., k] - x[..., k] * y[..., j]
        return (adj[..., 0, :] * cols[..., 0, :]).sum(axis=-1), adj
    return np.linalg.det(m), None


def _inverse(m: Array, det: Array, adj: Array | None) -> Array:
    """m^-1 from :func:`_det_adjugate`, once det m is known to be nonzero."""
    if adj is None:
        return np.linalg.inv(m)
    return adj / det[..., None, None]


def _negative_eigenvalues(m: Array, det: Array, adj: Array | None) -> Array:
    """Count of negative eigenvalues of symmetric m with nonzero det, per matrix.

    For d <= 3: Descartes' rule of signs on det(m + x) = x^d + tr m x^(d-1)
    + ... + det m, whose coefficients are (tr m, tr adj m, det m) cut to d.
    Its roots are minus the eigenvalues, all real, so the count of sign
    changes (zeros skipped) is exact.
    """
    if adj is None:
        return (np.linalg.eigvalsh(m) < 0).sum(axis=-1)
    coefficients = [_sum_last(c.diagonal(axis1=-2, axis2=-1))
                    for c in (m, adj)[:m.shape[-1] - 1]] + [det]
    count, last = 0, 1.0
    for c in coefficients:
        s = np.sign(c)
        count = count + (s * last < 0)
        last = np.where(s == 0, last, s)
    return count


def _check_metric(embedding: Embedding, gamma: Array, det: Array, adj: Array | None,
                  scale: Array) -> None:
    """Check gamma nondegenerate, with the background's signature, from its det and adjugate."""
    d = embedding.worldsheet_dim
    if (np.abs(det) < DEGENERACY_TOL * scale ** (2 * d)).any():
        raise DegenerateMetric("induced metric is singular (null or collapsed point)")
    negatives = _negative_eigenvalues(gamma, det, adj)
    if embedding.background.signature == LORENTZIAN:
        if (negatives != 1).any():
            raise DegenerateMetric(
                "worldsheet is not timelike: induced metric lacks (-,+,...,+) signature"
            )
    else:
        if (negatives != 0).any():
            raise DegenerateMetric("induced metric is not positive definite")


def _first_significant_sign(v: Array) -> Array:
    """Sign of the first component whose magnitude is significant, per point.

    Significant means above 1e-8 times the largest magnitude; with none, the
    first component leads (and a zero lead counts as +1).  Each step runs
    over one component of the whole batch: the components are visited from
    last to first, so the first significant one is kept.
    """
    mags = np.abs(v)
    top = mags[..., 0]
    for i in range(1, v.shape[-1]):
        top = np.maximum(top, mags[..., i])
    thresh = 1e-8 * top
    lead = v[..., 0]
    for i in reversed(range(v.shape[-1])):
        lead = np.where(mags[..., i] > thresh, v[..., i], lead)
    sign = np.sign(lead)
    return np.where(sign == 0, 1.0, sign)


def _projected_seeds(g: Array, tangents: Array, gamma_inv: Array) -> Array:
    """Every coordinate axis with its tangential part removed twice, as columns (..., N, N).

    Column mu of P P, with P = 1 - e gamma^-1 (g e)^T the normal projector.
    """
    proj = np.eye(tangents.shape[-2]) - tangents @ (gamma_inv @ (g @ tangents).swapaxes(-1, -2))
    return proj @ proj


def _gram_schmidt_normals(g: Array, seeds: Array, count_needed: int) -> tuple[Array, Array]:
    """One sweep of metric Gram-Schmidt over the coordinate axes in ascending order.

    ``seeds`` are the tangent-projected coordinate axes of
    :func:`_projected_seeds`, all computed at once.  Once any normal has been
    accepted, the accepted normals are removed from column mu twice for
    stability.  The sweep stops as soon as every point has ``count_needed``
    normals.  Returns (normals, found) where unfilled slots are zero columns
    and ``found`` counts accepted normals per point.
    """
    batch = seeds.shape[:-2]
    n = seeds.shape[-2]
    normals = np.zeros(batch + (n, count_needed))
    found = np.zeros(batch, dtype=int)
    for mu in range(seeds.shape[-1]):
        if (found == count_needed).all():
            break
        v = seeds[..., :, mu]
        if found.any():
            for _ in range(2):
                proj = normals.swapaxes(-1, -2) @ (g @ v[..., None])
                v = v - (normals @ proj)[..., 0]
        norm2 = (v * (g @ v[..., None])[..., 0]).sum(axis=-1)
        euclid2 = (v * v).sum(axis=-1)
        ok = (found < count_needed) & (euclid2 > 1e-20) & (norm2 > 1e-10 * euclid2)
        if not ok.any():
            continue
        vhat = np.where(ok[..., None], v / np.sqrt(np.where(ok, norm2, 1.0))[..., None], 0.0)
        vhat = vhat * _first_significant_sign(vhat)[..., None]
        normals[ok, :, found[ok]] = vhat[ok]
        found = found + ok
    return normals, found


@lru_cache(maxsize=None)
def _minor_rows(n: int) -> tuple[Array, Array]:
    """Rows kept as each row mu of an n-row matrix is deleted, (n, n-1), and (-1)^(mu+n-1)."""
    rows = np.array([[r for r in range(n) if r != mu] for mu in range(n)])
    signs = (-1.0) ** (np.arange(n) + n - 1)
    rows.flags.writeable = signs.flags.writeable = False  # shared by every caller
    return rows, signs


def _hodge_normal(tangents: Array, g_inv: Array,
                  minors: Array | None = None) -> tuple[Array, Array]:
    """Unit normal of d tangent columns (..., d+1, d) in a (d+1)-dimensional space.

    The covector nu_mu, the cofactors of [t, x] along x, is the Hodge dual of
    t_1 ^ ... ^ t_d: det[t, x] = nu(x) for every x.  Raised with ``g_inv`` it
    is normal to every t_a, and det[t, n] = g(n, n).  Returns (n, ok), with n
    normalized where ``ok``: g(n, n) > 1e-10 |n|^2, the acceptance test of
    :func:`_gram_schmidt_normals`, so det[t, n] > 0 there.  Given d = 2 ``minors``
    (of :func:`_wedge`), deleting row mu leaves their pair 2 - mu.
    ``g_inv`` is (..., d+1, d+1), or one (d+1, d+1) matrix for every point,
    which raises the whole batch in one product.
    """
    rows, signs = _minor_rows(tangents.shape[-2])
    dets = _det_adjugate(tangents[..., rows, :])[0] if minors is None else minors[..., ::-1]
    nu = signs * dets
    n = nu @ g_inv.T if g_inv.ndim == 2 else (g_inv @ nu[..., None])[..., 0]
    norm2 = _sum_last(nu * n)
    ok = norm2 > 1e-10 * _sum_last(n * n)
    return n / np.sqrt(np.where(ok, norm2, 1.0))[..., None], ok


def normal_frame(embedding: Embedding, point: Array) -> Array:
    """Gauge-fixed orthonormal normals as columns of an (..., N, N-D) matrix.

    The O(N-D) gauge is fixed deterministically: Gram-Schmidt over the
    background coordinate axes in ascending order, with each normal's sign
    chosen so its first significant component is positive (for one normal,
    the same unit normal in closed form, see :attr:`_Evaluation.normals`).  Raises
    GaugeFailure when that sweep cannot complete the frame.  The gauge may flip
    between nearby points, so kernels difference normals aligned by :func:`_procrustes`.
    """
    return frame(embedding, point).normals


def _polar_factor(overlap: Array) -> Array:
    """Orthogonal polar factor u v^T of square overlaps (..., K, K).

    For K = 1 that is the overlap's sign, -1 for -0.0 as the SVD gives, so no
    SVD is made; K >= 2 takes the SVD.
    """
    if overlap.shape[-1] == 1:
        return np.copysign(1.0, overlap)
    u, _, vt = np.linalg.svd(overlap)
    return u @ vt


def _procrustes(raw: Array, ref: Array, g: Array) -> Array:
    """Frame columns ``raw`` rotated onto ``ref`` by the minimizing orthogonal matrix.

    That matrix is the polar factor of the overlap raw^T g ref.  One column is
    only flipped, by the overlap's sign, so its overlap is summed across the
    batch and the flip is a product, not one small matmul per point.  (That
    sum rounds each product where BLAS fuses them, so the two can disagree
    on the sign only where the overlap is at roundoff and no flip is meant.)
    """
    gref = g @ ref
    one = raw.shape[-1] == 1
    overlap = (_sum_last(raw[..., 0] * gref[..., 0])[..., None, None] if one
               else raw.swapaxes(-1, -2) @ gref)
    if not np.isfinite(overlap).all():
        raise GaugeFailure("non-finite normal-frame overlap in the Procrustes alignment")
    # + 0.0: a zero entry reads +0.0, as the one-term matmul sum gives it
    return raw * _polar_factor(overlap) + 0.0 if one else raw @ _polar_factor(overlap)


class _lazy:
    """A field of a record computed by the decorated method on first read, then kept.

    The value is stored in the instance dict under the method's name, which
    a non-data descriptor yields to, so later reads are plain attribute
    reads.  No lock is taken (``functools.cached_property`` takes one on
    every first read on Python 3.11): a record is built and read by one thread.
    """

    def __init__(self, fn: Callable) -> None:
        self.fn, self.__doc__ = fn, fn.__doc__

    def __get__(self, obj: object, owner: type | None = None):
        if obj is None:
            return self
        value = obj.__dict__[self.fn.__name__] = self.fn(obj)
        return value


def _covariant(dv: Array, chris: Array | None, cols: Array, tangents: Array) -> Array:
    """D_A v_I^mu = d_A v_I^mu + Gamma^mu_{rs} v_I^r t_A^s of columns v_I along a map, [mu, I, A].

    ``dv`` holds the coordinate derivatives d_A v_I and ``tangents`` the map's
    t_A.  With the tangents as the columns it is the covariant Hessian D_A t_I.
    ``chris`` None (a flat background) is D = d: ``dv`` is returned.
    """
    if chris is None:
        return dv
    return dv + cols.swapaxes(-1, -2)[..., None, :, :] @ (chris @ tangents[..., None, :, :])


class _Local:
    """The local geometry of one level of the hierarchy at a batch of points.

    A level is a map into an ambient space: the sheet into spacetime, the
    edge into the sheet, or the edge into spacetime.  It reads like a
    :class:`Frame`: ``tangents`` t_A, ``normals`` (its normal columns n_I),
    ``induced_metric`` and ``induced_metric_inverse``.  ``x`` is the image
    point, ``g`` and ``chris`` the ambient metric and Christoffels (upper
    index first; None on a flat background), and ``sec`` is D_A t_B, indexed
    [mu, A, B].  An edge level is built from its first-order :class:`Frame`
    and the rest; the sheet is :class:`_Evaluation`.  ``conn`` and ``kk`` are
    Gamma and K, each computed on first read and kept.
    """

    def __init__(self, fr: Frame, x: Array, g: Array, chris: Array | None, sec: Array) -> None:
        self.tangents, self.normals = fr.tangents, fr.normals
        self.induced_metric = fr.induced_metric
        self.induced_metric_inverse = fr.induced_metric_inverse
        self.x, self.g, self.chris, self.sec = x, g, chris, sec

    @_lazy
    def conn(self) -> Array:
        """Gamma_AB^C of the level's metric, indexed [A, B, C] (:func:`_connection`)."""
        return _connection(self, self.g, self.sec)

    @_lazy
    def kk(self) -> Array:
        """K_AB^I of the level's normal columns (:func:`_extrinsic`)."""
        return _extrinsic(self.normals, self.g, self.sec)

    def twist(self, dn: Array) -> Array:
        """omega_A^{IJ} of the normal columns from their coordinate derivatives [mu, I, A]."""
        cov = _covariant(dn, self.chris, self.normals, self.tangents)
        return _twist(cov, self.normals, self.g)

    def with_normals(self, normals: Array) -> _Local:
        """A copy of the level with other normal columns; Gamma does not depend on them."""
        level = copy.copy(self)
        level.__dict__.pop("kk", None)
        level.normals = normals
        return level


class _Evaluation(_Local):
    """The sheet as a level at a batch of points, without the rank and signature checks.

    The map and its tangent map, g and the D = 2 minors are evaluated on
    construction; gamma, its cofactors, gamma^-1, the normals, the Christoffels
    and ``sec`` on first read, so a caller pays for what it reads.  Each callback
    value is checked finite by the accessor that calls it; the normals keep their
    own test (the Hodge ``ok``, or the Gram-Schmidt count), which raises GaugeFailure.
    """

    def __init__(self, embedding: Embedding, point: Array) -> None:
        self.embedding, self.point = embedding, np.asarray(point, dtype=float)
        self.x = embedding.position(self.point)
        self.tangents = embedding.d_position(self.point)
        self.minors = _wedge(self.tangents)
        self.g = embedding.background.metric_at(self.x)

    @_lazy
    def induced_metric(self) -> Array:
        bg = self.embedding.background
        gamma = _pullback(self.tangents, _signature_matrix(
            bg.dimension, bg.signature).diagonal() if bg.flat else self.g)
        return 0.5 * (gamma + gamma.swapaxes(-1, -2))

    @_lazy
    def cofactors(self) -> tuple[Array, Array | None]:
        """det gamma and its adjugate (:func:`_det_adjugate`)."""
        return _det_adjugate(self.induced_metric)

    @_lazy
    def induced_metric_inverse(self) -> Array:
        return _inverse(self.induced_metric, *self.cofactors)

    @property
    def hodge(self) -> bool:
        """One normal (K = 1, D <= 3): the Hodge dual, signed by :attr:`normals`."""
        return self.embedding.codimension == 1 and self.embedding.worldsheet_dim <= 3

    @property
    def ungauged_normals(self) -> Array:
        """Normal columns before the sign gauge of :attr:`normals`, with its checks, made on
        each read and not kept: where :attr:`hodge`, the unit Hodge dual of the tangents,
        of either sign; otherwise the Gram-Schmidt sweep, which fixes its own gauge."""
        embedding, g = self.embedding, self.g
        if self.hodge:
            bg = embedding.background
            if bg.flat:  # the signature matrix, its own inverse, the same at every point
                g_inv = _signature_matrix(bg.dimension, bg.signature)
            else:
                det, adj = _det_adjugate(g)
                if (det == 0).any():
                    raise DegenerateMetric("background metric is singular")
                g_inv = _inverse(g, det, adj)
            n, ok = _hodge_normal(self.tangents, g_inv, self.minors)
            if not ok.all():
                raise GaugeFailure("the normal of the tangents is null or not finite")
            return n[..., None]
        k = embedding.codimension
        seeds = _projected_seeds(g, self.tangents, self.induced_metric_inverse)
        normals, found = _gram_schmidt_normals(g, seeds, k)
        if (found < k).any():
            raise GaugeFailure("could not complete the normal frame from coordinate seeds")
        return normals

    @_lazy
    def normals(self) -> Array:
        """Gauge-fixed normal columns (see :func:`normal_frame`): one Hodge normal is
        signed by its first significant component, the Gram-Schmidt gauge in closed form."""
        n = self.ungauged_normals
        return n * _first_significant_sign(n[..., 0])[..., None, None] if self.hodge else n

    @_lazy
    def chris(self) -> Array | None:
        bg = self.embedding.background
        return None if bg.flat else bg.christoffels_at(self.x)

    @_lazy
    def sec(self) -> Array:
        return _covariant(self.embedding.dd_position(self.point), self.chris, self.tangents,
                          self.tangents)


def _frame_at(embedding: Embedding, point: Array) -> _Evaluation:
    """The :class:`_Evaluation` at ``point``, checked: the one validated evaluation of the sheet.

    The checks are the rank of the tangent map and gamma's det and signature,
    each read from the values the record holds; its normals are built here,
    so their GaugeFailure raises here too.  For D = 2 with one normal every
    step is closed-form, with no LAPACK call: the rank from the wedge of the
    tangents, gamma's det, inverse and signature from its cofactors, and the
    normal as their Hodge dual.
    """
    ev = _Evaluation(embedding, point)
    _check_metric(embedding, ev.induced_metric, *ev.cofactors,
                  _rank_checked_scale(ev.tangents, ev.minors))
    ev.normals  # built now, so a GaugeFailure raises at the checked points
    return ev


def frame(embedding: Embedding, point: Array) -> Frame:
    """Full adapted frame (tangents, normals, induced metric and its inverse)."""
    ev = _frame_at(embedding, point)
    return Frame(tangents=ev.tangents, normals=ev.normals, induced_metric=ev.induced_metric,
                 induced_metric_inverse=ev.induced_metric_inverse)


def _project(cols: Array, g: Array, v: Array) -> Array:
    """c^n_J g_nm v^m_AB for columns c_J (..., N, J) and v indexed [m, A, B], as [A, B, J]."""
    flat = v.reshape(v.shape[:-2] + (-1,)).swapaxes(-1, -2) @ (g.swapaxes(-1, -2) @ cols)
    return flat.reshape(v.shape[:-3] + v.shape[-2:] + cols.shape[-1:])


def _extrinsic(normals: Array, g: Array, sec: Array) -> Array:
    """K_AB^I = -n^m_I g_mn (D_A t_B)^n, symmetrized in A, B, for normal columns (..., N, K)."""
    kk = _project(normals, g, sec)
    return -0.5 * (kk + kk.swapaxes(-3, -2))


def _connection(fr: _Local, g: Array, sec: Array) -> Array:
    """Gamma_AB^C = h^{CD} t^n_D g_nm (D_A t_B)^m by the Gauss formula, indexed [A, B, C]."""
    return _project(fr.tangents @ fr.induced_metric_inverse.swapaxes(-1, -2), g, sec)


def _twist(cov: Array, normals: Array, g: Array) -> Array:
    """Twist omega_A^{IJ} = n^n_J g_nm (D_A n_I)^m, antisymmetrized, from :func:`_covariant`."""
    omega = _project(normals, g, cov).swapaxes(-3, -2)
    return 0.5 * (omega - omega.swapaxes(-1, -2))


def _checked_normals(normal_frame_fn: Callable[[Array], Array]) -> Callable[[Array], Array]:
    """A caller's normal-frame field with each value it returns checked finite."""
    return lambda p: _finite(normal_frame_fn(p), GaugeFailure,
                             "non-finite normals from normal_frame_fn")


def extrinsic_curvature(embedding: Embedding, point: Array, *,
                        normal_frame_fn: Callable[[Array], Array] | None = None) -> CurvatureData:
    """Extrinsic curvature K_ab^i, traces, twist potential, and worldsheet connection.

    ``normal_frame_fn`` overrides the normal-frame field (used for alternative
    gauges); it must broadcast like :func:`normal_frame`.  The twist is
    obtained by central differencing of that field with ``embedding.fd_step``.
    """
    point = np.asarray(point, dtype=float)
    loc = _frame_at(embedding, point)
    if normal_frame_fn is None:
        normal_frame_fn = lambda p: _Evaluation(embedding, p).normals
    else:
        normal_frame_fn = _checked_normals(normal_frame_fn)
        loc = loc.with_normals(normal_frame_fn(point))
    traces = np.einsum("...ab,...abi->...i", loc.induced_metric_inverse, loc.kk)
    d = embedding.worldsheet_dim
    k = embedding.codimension
    if k <= 1:
        twist = np.zeros(point.shape[:-1] + (d, k, k))
    else:
        twist = loc.twist(fd_jacobian(normal_frame_fn, point, embedding.fd_step))
    return CurvatureData(extrinsic=loc.kk, traces=traces, twist=twist,
                         worldsheet_connection=loc.conn)


def gauss_weingarten_residual(embedding: Embedding, point: Array,
                              fd_step: float = 1e-4) -> tuple[Array, Array]:
    """Residuals of the tangent/normal structure equations, finite-differenced.

    Returns per-point max norms of
    ``D_a e_b - Gamma_ab^c e_c + K_ab^i n_i`` and
    ``D_a n^i - K_a^{b i} e_b - omega_a^{ij} n_j``; both vanish at the FD
    convergence rate for smooth embeddings, also where the normal gauge flips:
    one FD sweep of the frame, normals rotated onto the center's (:func:`_procrustes`).
    """
    return _gauss_weingarten(_frame_at(embedding, point), fd_step)


def _gauss_weingarten(fr: _Evaluation, fd_step: float) -> tuple[Array, Array]:
    """:func:`gauss_weingarten_residual` at the points of the checked record ``fr``."""
    g, kk = fr.g, fr.kk
    d = fr.tangents.shape[-1]

    def aligned_frame(p: Array) -> Array:
        f = _Evaluation(fr.embedding, p)
        return np.concatenate([f.tangents, _procrustes(f.normals, fr.normals, g)], axis=-1)

    # D_a of each column of the square frame F = [e | n], indexed [mu, column, a]
    cols = np.concatenate([fr.tangents, fr.normals], axis=-1)
    cov = _covariant(fd_jacobian(aligned_frame, fr.point, fd_step), fr.chris, cols, fr.tangents)
    # both equations as D_a F = F W_a, W_a = [[Gamma_ab^c, K_a^{c i}], [-K_ab^i, omega_a^{ij}]]
    # (row: the frame column it multiplies; column: the column of F differentiated)
    twist = _twist(cov[..., d:, :], fr.normals, g)
    k_mixed = np.einsum("...bc,...aci->...abi", fr.induced_metric_inverse, kk)
    w = np.concatenate([np.concatenate([fr.conn.swapaxes(-1, -2), k_mixed], axis=-1),
                        np.concatenate([-kk.swapaxes(-1, -2), twist.swapaxes(-1, -2)], axis=-1)],
                       axis=-2)
    diff = cov.transpose((*range(cov.ndim - 3), -1, -3, -2)) - cols[..., None, :, :] @ w
    res = np.sqrt((diff * diff).sum(axis=-2))  # np.linalg.norm's sum, in its order
    return res[..., :d].max(axis=(-1, -2)), res[..., d:].max(axis=(-1, -2))
