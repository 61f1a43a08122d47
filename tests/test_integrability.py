"""Structure-compatibility residuals for all three embedding levels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from worldsheet import catalog
from worldsheet.background import minkowski
from worldsheet.errors import GaugeFailure
from worldsheet.geometry import (Embedding, _polar_factor, _procrustes, extrinsic_curvature, frame,
                                 normal_frame)
from worldsheet.integrability import (
    aligned_normal_frame_fn,
    boundary_integrability_residuals,
    curvature_tensors,
    direct_embedding_residuals,
    worldsheet_connection,
    worldsheet_integrability_residuals,
    worldsheet_riemann,
)

from helpers import curved_hole_edge

PLANE = catalog.plane()
SPHERE = catalog.sphere(2.0)
TORUS = catalog.flat_torus(1.0, 1.0)
HELICOID = catalog.helicoid(0.5, 1.0)
HOLE = catalog.planar_hole(2.0)


def time_torus_edge():
    """(t, u, v) -> (t, cos u, sin u, cos v, sin v) in M^5, edge v = 0.6 + 0.2 sin u + 0.1 t^2.

    The sheet has two normals, so the edge's twist inheritance is checked
    against the sheet's own twist curvature.  Without the t^2 term the edge
    is time times a curve and every direct residual vanishes identically.
    """
    def pos(xi):
        return np.stack([xi[..., 0], np.cos(xi[..., 1]), np.sin(xi[..., 1]),
                         np.cos(xi[..., 2]), np.sin(xi[..., 2])], axis=-1)

    def d_pos(xi):
        out = np.zeros(xi.shape[:-1] + (5, 3))
        out[..., 0, 0] = 1.0
        out[..., 1, 1], out[..., 2, 1] = -np.sin(xi[..., 1]), np.cos(xi[..., 1])
        out[..., 3, 2], out[..., 4, 2] = -np.sin(xi[..., 2]), np.cos(xi[..., 2])
        return out

    def dd_pos(xi):
        out = np.zeros(xi.shape[:-1] + (5, 3, 3))
        out[..., 1:3, 1, 1] = -pos(xi)[..., 1:3]
        out[..., 3:5, 2, 2] = -pos(xi)[..., 3:5]
        return out

    def level(u):
        return 0.6 + 0.2 * np.sin(u[..., 1]) + 0.1 * u[..., 0] ** 2

    def d_level(u):
        return np.stack([0.2 * u[..., 0], 0.2 * np.cos(u[..., 1])], axis=-1)

    def dd_level(u):
        z = np.zeros_like(u[..., 0])
        return np.stack([np.stack([0.2 + z, z], axis=-1),
                         np.stack([z, -0.2 * np.sin(u[..., 1])], axis=-1)], axis=-2)

    sheet = Embedding(3, minkowski(5), pos, d_pos, dd_pos)
    return catalog._graph_boundary(sheet, level, d_level, dd_level, 1)


def twisted_torus_frame(angle_fn):
    def field(p):
        base = normal_frame(TORUS.embedding, p)
        al = angle_fn(p)
        c, s = np.cos(al), np.sin(al)
        rot = np.stack([np.stack([c, -s], axis=-1),
                        np.stack([s, c], axis=-1)], axis=-2)
        return np.einsum("...mi,...ij->...mj", base, rot)
    return field


def test_sphere_connection_closed_form():
    # (theta, phi): Gamma^theta_phiphi = -sin cos, Gamma^phi_thetaphi = cot theta
    theta = np.array([0.6, 1.1, 2.2])
    conn = worldsheet_connection(SPHERE.embedding, np.stack([theta, 0.4 + theta], axis=-1))
    expect = np.zeros((3, 2, 2, 2))
    expect[:, 1, 1, 0] = -np.sin(theta) * np.cos(theta)
    expect[:, 0, 1, 1] = expect[:, 1, 0, 1] = 1.0 / np.tan(theta)
    assert np.max(np.abs(conn - expect)) < 1e-12


class TestWorldsheetRiemann:
    def test_plane_flat(self):
        r = worldsheet_riemann(PLANE.embedding, np.array([0.4, 0.1]))
        assert np.max(np.abs(r)) < 1e-12

    def test_sphere_value_and_scalar(self):
        q = np.array([1.1, 0.4])
        r = worldsheet_riemann(SPHERE.embedding, q, step=1e-3)
        expect = 4.0 * np.sin(1.1) ** 2  # gamma_qq gamma_pp / r^2
        assert abs(r[0, 1, 0, 1] - expect) < 1e-5
        gi = frame(SPHERE.embedding, q).induced_metric_inverse
        scal = np.einsum("ac,bd,abcd->", gi, gi, r)
        assert abs(scal - 0.5) < 1e-6

    def test_antisymmetries(self):
        q = np.array([1.1, 0.4])
        r = worldsheet_riemann(SPHERE.embedding, q, step=1e-3)
        # the last pair is antisymmetric by construction; the first pair only
        # up to the FD truncation of the connection derivatives
        assert np.max(np.abs(r + np.swapaxes(r, 2, 3))) < 1e-12
        assert np.max(np.abs(r + np.swapaxes(r, 0, 1))) < 2e-5

    def test_helicoid_scalar_matches_gauss_relation(self):
        # with a flat ambient and vanishing traces the intrinsic scalar equals
        # minus the curvature-squared invariant
        from worldsheet.geometry import extrinsic_curvature
        q = np.array([0.8, 0.5])
        r = worldsheet_riemann(HELICOID.embedding, q, step=1e-3)
        fr = frame(HELICOID.embedding, q)
        gi = fr.induced_metric_inverse
        scal = np.einsum("ac,bd,abcd->", gi, gi, r)
        c = extrinsic_curvature(HELICOID.embedding, q)
        ksq = np.einsum("abi,ac,bd,cdi->", c.extrinsic, gi, gi, c.extrinsic)
        assert abs(scal + ksq) < 1e-6


class TestWorldsheetResiduals:
    def test_plane_zero(self):
        res = worldsheet_integrability_residuals(PLANE.embedding, np.array([0.2, 0.4]))
        assert float(res.gauss_codazzi) < 1e-12
        assert float(res.codazzi_mainardi) < 1e-12
        assert res.ricci is None  # co-dimension one

    def test_sphere_residuals_and_vacuous_ricci(self):
        res = worldsheet_integrability_residuals(SPHERE.embedding,
                                                 np.array([1.1, 0.4]), step=1e-4)
        assert float(res.gauss_codazzi) < 1e-6
        assert float(res.codazzi_mainardi) < 1e-6
        assert res.ricci is None

    def test_torus_two_normal_sector(self):
        res = worldsheet_integrability_residuals(TORUS.embedding,
                                                 np.array([0.7, 1.3]), step=1e-4)
        assert res.max() < 1e-6
        assert res.ricci is not None

    def test_twisted_gauge_covariance(self):
        # a position-dependent frame rotation must leave all residuals small
        field = twisted_torus_frame(lambda p: 0.3 * p[..., 0] + 0.5 * p[..., 1])
        res = worldsheet_integrability_residuals(TORUS.embedding,
                                                 np.array([0.7, 1.3]), step=1e-4,
                                                 normal_frame_fn=field)
        assert res.max() < 1e-6

    def test_constant_rotation_invariance(self):
        p = np.array([0.7, 1.3])
        base = worldsheet_integrability_residuals(TORUS.embedding, p, step=1e-3)
        rot = twisted_torus_frame(lambda q: np.full(q.shape[:-1], 0.9))
        rotated = worldsheet_integrability_residuals(TORUS.embedding, p, step=1e-3,
                                                     normal_frame_fn=rot)
        assert abs(float(base.gauss_codazzi) - float(rotated.gauss_codazzi)) < 1e-9
        assert abs(float(base.codazzi_mainardi) - float(rotated.codazzi_mainardi)) < 1e-9
        assert abs(float(base.ricci) - float(rotated.ricci)) < 1e-9

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(angle=st.floats(-np.pi, np.pi),
           u=st.floats(0.3, 1.2), v=st.floats(0.3, 1.2))
    def test_constant_rotation_invariance_property(self, angle, u, v):
        # the norms over frame indices make every family blind to a constant rotation
        p = np.array([u, v])
        base = worldsheet_integrability_residuals(TORUS.embedding, p, step=1e-3)
        rot = twisted_torus_frame(lambda q: np.full(q.shape[:-1], angle))
        rotated = worldsheet_integrability_residuals(TORUS.embedding, p, step=1e-3,
                                                     normal_frame_fn=rot)
        for family in ("gauss_codazzi", "codazzi_mainardi", "ricci"):
            assert abs(float(getattr(base, family))
                       - float(getattr(rotated, family))) < 1e-9, family

    @pytest.mark.parametrize("entry,point", [
        (SPHERE, (1.1, 0.4)),
        (HELICOID, (0.8, 0.5)),
        (HOLE, (0.3, 1.1, 2.7)),
    ], ids=lambda v: getattr(v, "id", ""))
    def test_convergence_order(self, entry, point):
        p = np.array(point)
        r1 = worldsheet_integrability_residuals(entry.embedding, p, step=2e-3)
        r2 = worldsheet_integrability_residuals(entry.embedding, p, step=1e-3)
        for big, small in ((r1.gauss_codazzi, r2.gauss_codazzi),
                           (r1.codazzi_mainardi, r2.codazzi_mainardi)):
            if float(small) < 1e-11:  # below the floor: exactly-satisfied family
                continue
            assert np.log2(float(big) / float(small)) > 1.8

    def test_aligned_frame_heals_sign_flip(self):
        # the raw gauge flips across sigma = 0 on the helicoid; the aligned
        # field is smooth there and the residuals stay small
        p = np.array([0.5, 0.0])
        res = worldsheet_integrability_residuals(HELICOID.embedding, p, step=1e-4)
        assert res.max() < 1e-6
        fn = aligned_normal_frame_fn(HELICOID.embedding, p)
        left = fn(np.array([0.5, -1e-4]))
        right = fn(np.array([0.5, 1e-4]))
        assert np.max(np.abs(left - right)) < 1e-3

    @pytest.mark.parametrize("where", ["center", "stencil"])
    @pytest.mark.parametrize("run,step", [
        (lambda p, fn: extrinsic_curvature(TORUS.embedding, p, normal_frame_fn=fn),
         TORUS.embedding.fd_step),
        (lambda p, fn: worldsheet_integrability_residuals(TORUS.embedding, p, step=1e-4,
                                                          normal_frame_fn=fn), 1e-4),
    ], ids=["extrinsic_curvature", "worldsheet_integrability_residuals"])
    def test_non_finite_normal_frame_fn_raises(self, run, step, where):
        # the field is NaN at the point, or only at its first stencil point (step times |p|_max)
        p = np.array([0.7, 1.3])
        target = p if where == "center" else p + [1.3 * step, 0.0]
        field = twisted_torus_frame(
            lambda q: np.where(np.max(np.abs(q - target), axis=-1) < 0.25 * step, np.nan, 0.0))
        with pytest.raises(GaugeFailure, match="normal_frame_fn"), np.errstate(invalid="ignore"):
            run(p, field)


class TestBoundaryResiduals:
    def test_straight_boundary_zero(self):
        g, c = boundary_integrability_residuals(PLANE.boundary, np.array([0.5]))
        assert float(g) < 1e-12 and float(c) < 1e-12

    def test_circle_boundary(self):
        entry = catalog.euclidean_plane_hole(2.0)
        g, c = boundary_integrability_residuals(entry.boundary, np.array([0.7]),
                                                step=1e-3)
        assert float(g) < 1e-8 and float(c) < 1e-8

    def test_helicoid_edge(self):
        g, c = boundary_integrability_residuals(HELICOID.boundary, np.array([0.4]),
                                                step=1e-4)
        assert float(g) < 1e-6 and float(c) < 1e-6

    def test_hole_two_dimensional_edge(self):
        g, c = boundary_integrability_residuals(HOLE.boundary,
                                                np.array([0.3, 1.1]), step=1e-4)
        assert float(g) < 1e-6 and float(c) < 1e-6

    def test_curved_edge_residuals_are_second_order(self):
        # the hole's circular edge has a constant k, and a curve's residuals vanish
        # identically; a curved 2D edge gives both families content that shrinks as h^2
        edge, point = curved_hole_edge(), np.array([0.3, 1.1])
        fine = boundary_integrability_residuals(edge, point, step=1e-4)
        coarse = boundary_integrability_residuals(edge, point, step=1e-3)
        for f, c in zip(fine, coarse):
            assert 1e-12 < float(f) < 1e-6
            assert 50.0 <= float(c) / float(f) <= 200.0


class TestDirectEmbeddingResiduals:
    def test_straight_strip_edge(self):
        res = direct_embedding_residuals(PLANE.boundary, np.array([0.5]))
        assert res.max() < 1e-12

    def test_helicoid_edge_adapted_two_normals(self):
        res = direct_embedding_residuals(HELICOID.boundary, np.array([0.4]),
                                         step=1e-4)
        assert res.ricci is not None  # adapted basis {eta, n} has two normals
        assert res.max() < 1e-6

    def test_hole_edge(self):
        res = direct_embedding_residuals(HOLE.boundary, np.array([0.3, 1.1]),
                                         step=1e-4)
        assert res.max() < 1e-6

    def test_equilibrium_hole_euclidean(self):
        entry = catalog.euclidean_plane_hole(2.0)
        res = direct_embedding_residuals(entry.boundary, np.array([0.7]), step=1e-4)
        assert res.max() < 1e-6

    def test_curved_edge_residuals_are_second_order(self):
        # catalog edges give exact zeros at this level; a curved 2D edge does not,
        # so this checks that the residuals are small for a reason, and shrink as h^2
        edge, point = curved_hole_edge(), np.array([0.3, 1.1])
        fine = direct_embedding_residuals(edge, point, step=1e-4).max()
        coarse = direct_embedding_residuals(edge, point, step=1e-3).max()
        assert 1e-12 < fine < 1e-6
        assert 50.0 <= coarse / fine <= 200.0

    def test_edge_of_a_sheet_with_two_normals(self):
        # the edge's eta column and both sheet normals carry mixed curvature
        # eta^a eps^b_A K_ab^i along different edge directions, so the twist
        # inheritance holds only with its eta cross terms
        edge = time_torus_edge()
        assert edge.parent.codimension == 2
        res = direct_embedding_residuals(edge, np.array([0.3, 1.1]), step=1e-4)
        assert 1e-12 < res.max() < 1e-6


class TestCurvatureTensors:
    def test_assembled_symmetries(self):
        ct = curvature_tensors(HOLE.boundary, np.array([0.3, 1.1]), step=1e-3)
        r = ct.worldsheet_riemann
        assert np.max(np.abs(r + np.swapaxes(r, -2, -1))) < 1e-12
        assert np.max(np.abs(r + np.swapaxes(r, -4, -3))) < 2e-5
        rb = ct.boundary_riemann
        assert np.max(np.abs(rb + np.swapaxes(rb, -4, -3))) < 2e-5
        assert np.all(ct.ambient_riemann == 0.0)
        omega = ct.adapted_twist_curvature
        assert np.max(np.abs(omega + np.swapaxes(omega, -1, -2))) < 1e-6

    def test_codimension_one_twist_sector_absent(self):
        ct = curvature_tensors(HELICOID.boundary, np.array([0.4]), step=1e-3)
        assert ct.twist_curvature is None
        assert ct.adapted_twist_curvature is not None


def svd_polar(overlap):
    """Reference polar factor u v^T from LAPACK's SVD."""
    u, _, vt = np.linalg.svd(overlap)
    return u @ vt


class TestProcrustes:
    @pytest.mark.parametrize("value", [0.7, -0.7, 0.0, -0.0])
    def test_one_column_polar_factor_is_the_svd_one(self, value):
        overlap = np.array([[[value]], [[2.0 * value]]])
        assert np.array_equal(_polar_factor(overlap), svd_polar(overlap))

    # a matmul overlap accumulates from +0.0, so -0.0 only reaches the polar factor
    @pytest.mark.parametrize("value", [0.7, -0.7, 0.0])
    def test_one_column_alignment_matches_svd_reference(self, value):
        pts = HELICOID.sample_grid()
        raw = normal_frame(HELICOID.embedding, pts)
        g = HELICOID.embedding.background.metric_at(HELICOID.embedding.position(pts))
        ref = value * raw
        overlap = np.einsum("...mi,...mn,...nj->...ij", raw, g, ref)
        expect = np.einsum("...mi,...ij->...mj", raw, svd_polar(overlap))
        assert np.array_equal(_procrustes(raw, ref, g), expect)

    def test_two_column_alignment_matches_svd_reference(self):
        theta = 0.77
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        pts = TORUS.sample_grid()
        ref = normal_frame(TORUS.embedding, pts)
        raw = ref @ rot
        g = np.eye(4)
        overlap = np.einsum("...mi,...mn,...nj->...ij", raw, g, ref)
        expect = np.einsum("...mi,...ij->...mj", raw, svd_polar(overlap))
        got = _procrustes(raw, ref, g)
        assert np.max(np.abs(got - expect)) < 1e-14
        assert np.max(np.abs(got - ref)) < 1e-14  # the constant rotation is undone

    @pytest.mark.parametrize("entry", [HELICOID, TORUS], ids=lambda e: e.id)
    def test_non_finite_overlap_raises_gauge_failure(self, entry):
        pts = entry.sample_grid()
        ref = normal_frame(entry.embedding, pts)
        raw = ref.copy()
        raw[3, 1, 0] = np.nan
        g = entry.embedding.background.metric_at(entry.embedding.position(pts))
        with pytest.raises(GaugeFailure):
            _procrustes(raw, ref, g)
