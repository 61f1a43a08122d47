"""The sphere chi = chi0 in the round S^3, and the structure-equation kernels.

On this curved background every Christoffel and ambient-Riemann term of the
structure equations is non-zero, so a wrong sign in any of them fails a
closed form or a convergence order.  The kernels themselves (the covariant
derivative, the curvature of a connection and the frame pullback of a
4-tensor) are pinned to their einsum forms on random non-zero inputs, and
Gamma, K, the twist and the tangential projector to theirs at every level of
the S^3 sheet and of a helicoid edge.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from worldsheet import catalog
from worldsheet.boundary import _boundary_local, _projector
from worldsheet.geometry import (
    _connection,
    _covariant,
    _extrinsic,
    _frame_at,
    _twist,
    extrinsic_curvature,
    fd_jacobian,
    frame,
    gauss_weingarten_residual,
)
from worldsheet.integrability import (
    _curvature,
    _frame_pullback,
    _riemann,
    worldsheet_integrability_residuals,
)
from worldsheet.variation import ActionConfig, GridAxis, dng_action

from helpers import (
    einsum_connection,
    einsum_covariant_frame,
    einsum_covariant_hessian,
    einsum_extrinsic,
    einsum_frame_pullback_blocks,
    einsum_projector,
    einsum_riemann,
    einsum_twist,
    einsum_twist_curvature,
    s3_sphere,
)

A, CHI0 = 1.7, 1.1
S3_SHEET = s3_sphere(A, CHI0)
POINTS = np.array([[0.7, 0.3], [1.3, -2.0], [2.2, 1.4]])  # (theta, phi)
STEPS = (4e-3, 2e-3, 1e-3, 5e-4)


class TestSphereInS3:
    def test_trace_is_two_cot_chi0_over_a(self):
        traces = extrinsic_curvature(S3_SHEET, POINTS).traces
        assert np.allclose(traces[..., 0], 2.0 / (A * np.tan(CHI0)), rtol=0.0, atol=1e-12)

    def test_umbilic(self):
        # K_ab = -g(n, Gamma^mu_ab): the ambient Christoffels are the whole of it
        kk = extrinsic_curvature(S3_SHEET, POINTS).extrinsic[..., 0]
        gamma = frame(S3_SHEET, POINTS).induced_metric
        assert np.allclose(kk, gamma / (A * np.tan(CHI0)), rtol=0.0, atol=1e-12)

    def test_volume_action_is_the_quadrature_of_the_sphere_area(self):
        # sqrt(det gamma) = a^2 sin^2 chi0 sin theta: the metric at each map point
        config = ActionConfig(1.3, 1.0, (GridAxis(8, 0.4, 2.7), GridAxis(8, -3.0, 3.0)))
        theta = 0.4 + (2.7 - 0.4) / 8 * (np.arange(8) + 0.5)
        area = (A * np.sin(CHI0)) ** 2 * np.sum(np.sin(theta)) * (2.7 - 0.4) / 8 * 6.0
        assert dng_action(S3_SHEET, config) == pytest.approx(-1.3 * area, rel=1e-13)

    def test_gauss_weingarten_residual_vanishes(self):
        # the frame is constant in these coordinates, so D_a e_b and D_a n are
        # their Christoffel terms alone
        theta, phi = np.meshgrid(np.linspace(0.4, 2.7, 7), np.linspace(-3.0, 3.0, 7),
                                 indexing="ij")
        res_gauss, res_wein = gauss_weingarten_residual(S3_SHEET, np.stack([theta, phi], -1))
        assert np.max(res_gauss) <= 1e-12
        assert np.max(res_wein) <= 1e-12

    @pytest.mark.parametrize("family", ["gauss_codazzi", "codazzi_mainardi"])
    def test_structure_residuals_converge_at_second_order(self, family):
        # 1/(a sin chi0)^2 = (1 + cot^2 chi0)/a^2 balances only with the ambient
        # term, so the Gauss row shrinks as h^2 only if that term is right
        res = np.array([getattr(worldsheet_integrability_residuals(S3_SHEET, POINTS, h),
                                family).max() for h in STEPS])
        ratios = res[:-1] / res[1:]
        assert res[-1] < 1e-5
        assert np.all((3.5 < ratios) & (ratios < 4.5)), ratios

    def test_ricci_family_is_vacuous(self):
        assert worldsheet_integrability_residuals(S3_SHEET, POINTS, 1e-3).ricci is None


BATCH = (2, 3)


def _random(rng, *shape):
    return rng.normal(size=BATCH + shape)


def _symmetric_christoffels(rng, n):
    chris = _random(rng, n, n, n)
    return 0.5 * (chris + np.swapaxes(chris, -1, -2))


def assert_roundoff(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12)


class TestKernelsMatchEinsumForms:
    def test_covariant_hessian(self):
        rng = np.random.default_rng(1)
        dd, tangents = _random(rng, 4, 3, 3), _random(rng, 4, 3)
        chris = _random(rng, 4, 4, 4)  # the Hessian form holds for any Gamma
        assert_roundoff(_covariant(dd, chris, tangents, tangents),
                        einsum_covariant_hessian(dd, chris, tangents))

    def test_covariant_frame(self):
        # the Gamma slots of the frame form are swapped: equal for symmetric Gamma
        rng = np.random.default_rng(2)
        dn, tangents, normals = _random(rng, 4, 2, 3), _random(rng, 4, 3), _random(rng, 4, 2)
        chris = _symmetric_christoffels(rng, 4)
        assert_roundoff(_covariant(dn, chris, normals, tangents),
                        einsum_covariant_frame(dn, tangents, normals, chris))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_riemann(self, d):
        rng = np.random.default_rng(3 + d)
        conn, dconn, metric = _random(rng, d, d, d), _random(rng, d, d, d, d), _random(rng, d, d)
        level = SimpleNamespace(induced_metric=metric, conn=conn)
        assert_roundoff(_riemann(level, dconn), einsum_riemann(conn, dconn, metric))

    def test_twist_curvature(self):
        # Omega is the curvature of W = -omega
        rng = np.random.default_rng(7)
        omega, domega = _random(rng, 3, 2, 2), _random(rng, 3, 2, 2, 3)
        assert_roundoff(_curvature(-omega, -domega), einsum_twist_curvature(omega, domega))

    @pytest.mark.parametrize("d,k", [(2, 1), (2, 2), (3, 1)])
    def test_frame_pullback_blocks(self, d, k):
        rng = np.random.default_rng(10 * d + k)
        r, t, n = _random(rng, *(d + k,) * 4), _random(rng, d + k, d), _random(rng, d + k, k)
        pulled = _frame_pullback(r, np.concatenate([t, n], axis=-1))
        gauss, codazzi, ricci = einsum_frame_pullback_blocks(r, t, n)
        assert_roundoff(pulled[..., :d, :d, :d, :d], gauss)
        assert_roundoff(pulled[..., :d, :d, :d, d:], codazzi)
        assert_roundoff(pulled[..., :d, :d, d:, d:], ricci)


HELICOID = catalog.helicoid(0.5, 1.0)


def helicoid_edge(level):
    """One level of the helicoid's upper edge: its record, point function and points."""
    bnd, u = HELICOID.boundary, HELICOID.boundary_grid()
    bl = _boundary_local(bnd, u)
    if level == "sheet":
        return bl.sheet, lambda p: _frame_at(bnd.parent, p), bl.edge.x
    return getattr(bl, level), lambda v: getattr(_boundary_local(bnd, v), level), u


# every level of both fixtures: the S^3 sheet (curved g and Christoffels), and
# the helicoid edge in the sheet (ambient metric gamma) and in spacetime (two normals)
LEVELS = {
    "s3_sheet": lambda: (_frame_at(S3_SHEET, POINTS), lambda p: _frame_at(S3_SHEET, p), POINTS),
    "helicoid_sheet_at_edge": lambda: helicoid_edge("sheet"),
    "helicoid_edge_in_sheet": lambda: helicoid_edge("edge"),
    "helicoid_edge_in_spacetime": lambda: helicoid_edge("spacetime"),
}


class TestRewrittenKernelsMatchEinsumForms:
    @pytest.mark.parametrize("level", LEVELS)
    def test_connection(self, level):
        v = LEVELS[level]()[0]
        assert_roundoff(_connection(v, v.g, v.sec),
                        einsum_connection(v.induced_metric_inverse, v.tangents, v.g, v.sec))

    @pytest.mark.parametrize("level", LEVELS)
    def test_extrinsic(self, level):
        v = LEVELS[level]()[0]
        assert_roundoff(_extrinsic(v.normals, v.g, v.sec),
                        einsum_extrinsic(v.normals, v.g, v.sec))

    @pytest.mark.parametrize("level", LEVELS)
    def test_twist(self, level):
        # D_A n_I from a central difference of the level's own normal columns
        v, at, point = LEVELS[level]()
        dn = fd_jacobian(lambda p: at(p).normals.reshape(p.shape[:-1] + (-1,)), point, 1e-5)
        cov = _covariant(dn.reshape(v.normals.shape + point.shape[-1:]), v.chris, v.normals,
                         v.tangents)
        assert_roundoff(_twist(cov, v.normals, v.g), einsum_twist(cov, v.normals, v.g))

    @pytest.mark.parametrize("level", LEVELS)
    def test_projector(self, level):
        # t^a_A h^{AB} t^b_B of the level's tangents: H^{ab} at the edge in the sheet
        v = LEVELS[level]()[0]
        assert_roundoff(_projector(v.tangents, v.induced_metric_inverse),
                        einsum_projector(v.tangents, v.induced_metric_inverse))

    def test_edge_projector_is_the_edge_levels(self):
        bd = _boundary_local(HELICOID.boundary, HELICOID.boundary_grid()).bd
        assert_roundoff(bd.projector, einsum_projector(bd.tangents_in_m,
                                                       bd.boundary_metric_inverse))
