"""Frames, induced metrics, and extrinsic curvature against closed forms."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from worldsheet import catalog, geometry
from worldsheet.background import EUCLIDEAN, LORENTZIAN, BackgroundMetric, euclidean, minkowski
from worldsheet.boundary import boundary_data
from worldsheet.errors import (
    DegenerateImmersion,
    DegenerateMetric,
    GaugeFailure,
    InvalidParameters,
)
from worldsheet.geometry import (
    FD_BLOCK_POINTS,
    Embedding,
    extrinsic_curvature,
    fd_jacobian,
    frame,
    gauss_weingarten_residual,
    induced_metric,
    normal_frame,
    tangent_basis,
)
from worldsheet.variation import dng_action

from helpers import fd_only_twin, looped_fd_jacobian, random_points

HELICOID = catalog.helicoid(0.5, 1.0)
SPHERE = catalog.sphere(2.0)
PLANE = catalog.plane()
TORUS = catalog.flat_torus(1.0, 1.0)


class TestTangentsAndMetric:
    def test_plane_tangents(self):
        e = tangent_basis(PLANE.embedding, np.array([0.3, -0.2]))
        assert np.allclose(e[:, 0], [1, 0, 0])
        assert np.allclose(e[:, 1], [0, 1, 0])

    def test_helicoid_tangents_at_reference_point(self):
        e = tangent_basis(HELICOID.embedding, np.array([0.0, 1.0]))
        assert np.allclose(e[:, 0], [1.0, 0.0, 0.5])
        assert np.allclose(e[:, 1], [0.0, 1.0, 0.0])

    def test_sphere_tangents_at_equator(self):
        e = tangent_basis(SPHERE.embedding, np.array([np.pi / 2, 0.0]))
        assert np.allclose(e[:, 0], [0.0, 0.0, -2.0])
        assert np.allclose(e[:, 1], [0.0, 2.0, 0.0])

    def test_plane_metric(self):
        g = induced_metric(PLANE.embedding, np.array([0.1, 0.4]))
        assert np.allclose(g, np.diag([-1.0, 1.0]))

    def test_helicoid_metric(self):
        g = induced_metric(HELICOID.embedding, np.array([0.7, 1.0]))
        assert np.allclose(g, np.diag([-0.75, 1.0]), atol=1e-14)

    def test_sphere_metric(self):
        g = induced_metric(SPHERE.embedding, np.array([np.pi / 2, 0.0]))
        assert np.allclose(g, np.diag([4.0, 4.0]))

    def test_degenerate_immersion_raises(self):
        bad = Embedding(2, minkowski(3), lambda xi: np.stack(
            [xi[..., 0] + xi[..., 1], xi[..., 0] + xi[..., 1],
             np.zeros(xi.shape[:-1])], axis=-1))
        with pytest.raises(DegenerateImmersion):
            tangent_basis(bad, np.array([0.2, 0.3]))

    @pytest.mark.parametrize("point", [[np.nan, 0.3], [[1.1, 0.4], [0.2, np.nan]]])
    def test_non_finite_point_raises_degenerate_immersion(self, point):
        with pytest.raises(DegenerateImmersion, match="non-finite"):
            frame(SPHERE.embedding, np.array(point))

    def test_null_worldsheet_raises(self):
        null = Embedding(2, minkowski(3), lambda xi: np.stack(
            [xi[..., 0], xi[..., 0], xi[..., 1]], axis=-1))
        with pytest.raises(DegenerateMetric):
            induced_metric(null, np.array([0.0, 0.0]))

    def test_spacelike_sheet_in_minkowski_raises(self):
        spacelike = Embedding(2, minkowski(3), lambda xi: np.stack(
            [np.zeros(xi.shape[:-1]), xi[..., 0], xi[..., 1]], axis=-1))
        with pytest.raises(DegenerateMetric):
            induced_metric(spacelike, np.array([0.1, 0.2]))


class TestNormalFrame:
    def test_plane_normal(self):
        n = normal_frame(PLANE.embedding, np.array([0.3, 0.1]))
        assert np.allclose(n[:, 0], [0.0, 0.0, 1.0])

    def test_helicoid_normal_closed_form(self):
        n = normal_frame(HELICOID.embedding, np.array([0.0, 1.0]))
        expect = np.array([0.5, 0.0, 1.0]) / np.sqrt(0.75)
        assert np.allclose(n[:, 0], expect, atol=1e-14)

    def test_sphere_normal_outward_at_equator(self):
        n = normal_frame(SPHERE.embedding, np.array([np.pi / 2, 0.0]))
        assert np.allclose(n[:, 0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("entry", [PLANE, HELICOID, SPHERE, TORUS],
                             ids=lambda e: e.id)
    def test_orthonormality_analytic(self, entry):
        pts = random_points(entry, 1000, seed=11)
        fr = frame(entry.embedding, pts)
        g = entry.embedding.background.metric_at(entry.embedding.position(pts))
        mixed = np.einsum("...ma,...mn,...ni->...ai", fr.tangents, g, fr.normals)
        gram = np.einsum("...mi,...mn,...nj->...ij", fr.normals, g, fr.normals)
        k = entry.embedding.codimension
        assert np.max(np.abs(mixed)) < 1e-9
        assert np.max(np.abs(gram - np.eye(k))) < 1e-9

    @pytest.mark.parametrize("entry", [SPHERE, TORUS], ids=lambda e: e.id)
    def test_orthonormality_fd_fallback(self, entry):
        twin = fd_only_twin(entry.embedding)
        pts = random_points(entry, 200, seed=3)
        fr = frame(twin, pts)
        g = twin.background.metric_at(twin.position(pts))
        mixed = np.einsum("...ma,...mn,...ni->...ai", fr.tangents, g, fr.normals)
        gram = np.einsum("...mi,...mn,...nj->...ij", fr.normals, g, fr.normals)
        assert np.max(np.abs(mixed)) < 1e-6
        assert np.max(np.abs(gram - np.eye(twin.codimension))) < 1e-6


def first_significant_positive(v):
    """Closed-form gauge: flip each column so its first significant component is positive."""
    lead = np.argmax(np.abs(v) > 1e-8 * np.max(np.abs(v), axis=-1, keepdims=True), axis=-1)
    return v * np.sign(np.take_along_axis(v, lead[..., None], axis=-1))


def helicoid_normals(pts, omega=0.5):
    t, s = pts[..., 0], pts[..., 1]
    raw = np.stack([s * omega, -np.sin(omega * t), np.cos(omega * t)], axis=-1)
    return first_significant_positive(raw / np.sqrt(1.0 - (s * omega) ** 2)[..., None])[..., None]


def torus_normals(pts):
    u, v = pts[..., 0], pts[..., 1]
    z = np.zeros_like(u)
    n1 = np.stack([np.cos(u), np.sin(u), z, z], axis=-1)
    n2 = np.stack([z, z, np.cos(v), np.sin(v)], axis=-1)
    return np.stack([first_significant_positive(n1), first_significant_positive(n2)], axis=-1)


def grid(first, second):
    return np.stack(np.meshgrid(first, second, indexing="ij"), axis=-1).reshape(-1, 2)


class TestBatchedNormalFrame:
    # sigma = 0 rejects the time-axis seed (e_t is that axis there); sigma != 0 accepts it
    HELICOID_PTS = grid(np.linspace(-1.0, 1.0, 5), [-0.6, -0.2, -1e-3, 0.0, 1e-3, 0.2, 0.6])
    # at u or v = pi/2 the first seed axis of that circle's plane is tangent and rejected
    TORUS_PTS = grid(np.linspace(0.0, 2.0 * np.pi, 9), np.linspace(-np.pi, np.pi, 5))

    @pytest.mark.parametrize("entry,pts,closed_form", [
        (HELICOID, HELICOID_PTS, helicoid_normals),
        (TORUS, TORUS_PTS, torus_normals),
    ], ids=["helicoid", "torus"])
    def test_batch_matches_pointwise_and_closed_form(self, entry, pts, closed_form):
        batched = normal_frame(entry.embedding, pts)
        pointwise = np.stack([normal_frame(entry.embedding, p) for p in pts])
        assert np.max(np.abs(batched - pointwise)) < 1e-15
        assert np.max(np.abs(batched - closed_form(pts))) < 1e-14

    def test_helicoid_batch_straddles_the_seed_switch(self):
        n = normal_frame(HELICOID.embedding, self.HELICOID_PTS)
        on_axis = self.HELICOID_PTS[:, 1] == 0.0
        assert np.all(n[on_axis, 0, 0] == 0.0)
        assert np.all(n[~on_axis, 0, 0] > 0.0)


class TestExtrinsicCurvature:
    def test_plane_totally_geodesic(self):
        c = extrinsic_curvature(PLANE.embedding, np.array([0.4, 0.2]))
        assert np.all(c.extrinsic == 0.0)
        assert np.all(c.traces == 0.0)

    def test_helicoid_traces_vanish_but_curvature_does_not(self):
        pts = random_points(HELICOID, 50, seed=5)
        c = extrinsic_curvature(HELICOID.embedding, pts)
        assert np.max(np.abs(c.traces)) < 1e-9
        k_ts = c.extrinsic[..., 0, 1, 0]
        expect = -0.5 / np.sqrt(1.0 - 0.25 * pts[:, 1] ** 2)
        # the deterministic gauge flips the normal sign for sigma < 0
        expect = expect * np.sign(pts[:, 1])
        assert np.max(np.abs(k_ts - expect)) < 1e-12

    def test_sphere_curvature_closed_form(self):
        q = np.array([np.pi / 2, 0.0])
        c = extrinsic_curvature(SPHERE.embedding, q)
        fr = frame(SPHERE.embedding, q)
        # outward normal at this point: K_ab = gamma_ab / r, trace = 2/r = 1
        assert np.allclose(c.extrinsic[..., 0], fr.induced_metric / 2.0)
        assert np.allclose(c.traces, [1.0])

    def test_symmetry_exact(self):
        pts = random_points(HELICOID, 100, seed=8)
        c = extrinsic_curvature(HELICOID.embedding, pts)
        assert np.array_equal(c.extrinsic, np.swapaxes(c.extrinsic, -3, -2))

    def test_twist_antisymmetry(self):
        pts = random_points(TORUS, 40, seed=9)
        c = extrinsic_curvature(TORUS.embedding, pts)
        assert np.max(np.abs(c.twist + np.swapaxes(c.twist, -1, -2))) < 1e-15

    def test_frame_gauge_covariance_under_constant_rotation(self):
        theta = 0.77
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        p = np.array([0.6, 0.9])
        base = extrinsic_curvature(TORUS.embedding, p)
        rotated = extrinsic_curvature(
            TORUS.embedding, p,
            normal_frame_fn=lambda q: normal_frame(TORUS.embedding, q) @ rot)
        # K_ab^i transforms linearly with the frame
        assert np.allclose(rotated.extrinsic,
                           np.einsum("abj,ji->abi", base.extrinsic, rot),
                           atol=1e-12)
        inv_base = np.einsum("i,i->", base.traces, base.traces)
        inv_rot = np.einsum("i,i->", rotated.traces, rotated.traces)
        assert abs(inv_base - inv_rot) < 1e-9

    def test_fd_fallback_consistency_second_order(self):
        # curvature from FD derivatives converges at second order to analytic
        q = np.array([1.1, 0.6])
        ref = extrinsic_curvature(SPHERE.embedding, q).extrinsic
        diffs = []
        for h in (1e-3, 5e-4):
            twin = fd_only_twin(SPHERE.embedding, fd_step=h)
            diffs.append(np.max(np.abs(extrinsic_curvature(twin, q).extrinsic - ref)))
        assert diffs[0] / diffs[1] > 3.5

    def test_fd_jacobian_reproduces_analytic(self):
        pts = random_points(SPHERE, 50, seed=2)
        twin = fd_only_twin(SPHERE.embedding)
        assert np.max(np.abs(twin.d_position(pts)
                             - SPHERE.embedding.d_position(pts))) < 1e-9
        assert np.max(np.abs(twin.dd_position(pts)
                             - SPHERE.embedding.dd_position(pts))) < 1e-5

    def test_second_derivative_fallback_differences_the_analytic_tangents(self):
        # without dd_position_fn the second derivatives are the Jacobian of d_position,
        # so an analytic tangent map leaves one FD truncation instead of two nested ones
        emb = HELICOID.embedding
        partial = Embedding(emb.worldsheet_dim, emb.background, emb.position_fn,
                            emb.d_position_fn)
        pts = HELICOID.sample_grid(4)
        assert np.max(np.abs(partial.dd_position(pts) - emb.dd_position(pts))) < 1e-9


S3_RADIUS = 2.0


def s3_cylinder():
    """Time x the round S^3 of radius 2 in M^5, (t, chi, theta, phi), derivatives by FD."""
    def pos(xi):
        t, chi, th, ph = np.moveaxis(xi, -1, 0)
        r = S3_RADIUS * np.sin(chi)
        return np.stack([t, r * np.sin(th) * np.cos(ph), r * np.sin(th) * np.sin(ph),
                         r * np.cos(th), S3_RADIUS * np.cos(chi)], axis=-1)

    return Embedding(4, minkowski(5), pos)


class TestFourDimensionalSheet:
    # D = 4 takes the LAPACK det, inverse and signature of the induced metric
    PTS = np.array([[0.1, 0.6, 0.7, 0.4], [0.5, 1.2, 2.1, 3.0],
                    [0.9, 2.4, 1.4, 5.5], [0.3, 1.9, 0.9, 1.7]])

    def test_mean_curvature_is_three_over_radius(self):
        traces = extrinsic_curvature(s3_cylinder(), self.PTS).traces[..., 0]
        # the deterministic normal gauge picks the sign per point
        assert np.max(np.abs(np.abs(traces) - 3.0 / S3_RADIUS)) < 1e-6

    def test_metric_det_and_inverse(self):
        fr = frame(s3_cylinder(), self.PTS)
        chi, th = self.PTS[:, 1], self.PTS[:, 2]
        det, _ = geometry._det_adjugate(fr.induced_metric)
        # g = diag(-1, r^2, r^2 sin^2 chi, r^2 sin^2 chi sin^2 theta)
        assert np.allclose(det, -S3_RADIUS ** 6 * np.sin(chi) ** 4 * np.sin(th) ** 2, rtol=1e-7)
        assert np.allclose(fr.induced_metric_inverse, np.linalg.inv(fr.induced_metric),
                           rtol=1e-12, atol=1e-12)

    def test_edge_on_a_great_two_sphere_is_geodesic(self):
        # phi = 1 cuts the S^3 in half a great S^2, so k = 0
        edge = catalog._constant_boundary(s3_cylinder(), 1.0, 1)
        assert np.max(np.abs(boundary_data(edge, self.PTS[:, :3]).edge_trace)) < 1e-6


class TestGaussWeingarten:
    def test_plane_machine_zero(self):
        r1, r2 = gauss_weingarten_residual(PLANE.embedding, np.array([0.3, 0.3]))
        assert max(float(r1), float(r2)) < 1e-12

    @pytest.mark.parametrize("entry", [SPHERE, HELICOID], ids=lambda e: e.id)
    def test_fd_residuals_small(self, entry):
        p = entry.sample_grid(3)
        r1, r2 = gauss_weingarten_residual(entry.embedding, p, fd_step=1e-4)
        assert float(np.max(r1)) < 1e-6
        assert float(np.max(r2)) < 1e-6

    def test_convergence_second_order(self):
        p = np.array([1.1, 0.6])
        res = [max(gauss_weingarten_residual(SPHERE.embedding, p, fd_step=h))
               for h in (2e-3, 1e-3)]
        assert res[0] / res[1] > 3.5

    def test_evaluates_at_the_gauge_flip(self):
        # the deterministic gauge flips sign across sigma = 0 on the helicoid;
        # the stencil's normals are rotated onto the center frame first
        r1, r2 = gauss_weingarten_residual(HELICOID.embedding, np.array([0.5, 0.0]),
                                           fd_step=1e-4)
        assert max(float(r1), float(r2)) < 1e-6


class TestBatchShapes:
    def test_batched_equals_pointwise(self):
        pts = random_points(HELICOID, 7, seed=1)
        batched = extrinsic_curvature(HELICOID.embedding, pts)
        single = extrinsic_curvature(HELICOID.embedding, pts[3])
        assert np.allclose(batched.extrinsic[3], single.extrinsic)
        assert np.allclose(batched.worldsheet_connection[3],
                           single.worldsheet_connection)

    def test_euclidean_background_flags(self):
        bg = euclidean(4)
        assert bg.flat
        x = np.zeros((5, 4))
        assert np.allclose(bg.metric_at(x), np.eye(4))
        assert np.all(bg.christoffels_at(x) == 0.0)
        assert np.all(bg.riemann_at(x) == 0.0)

    def test_flat_background_tensors_are_constant_views(self):
        # one constant tensor broadcast over the batch: nothing is allocated per point
        bg = minkowski(3)
        x = np.zeros((7, 5, 3))
        for tensor, constant in ((bg.metric_at(x), np.diag([-1.0, 1.0, 1.0])),
                                 (bg.christoffels_at(x), np.zeros((3,) * 3)),
                                 (bg.riemann_at(x), np.zeros((3,) * 4))):
            assert tensor.shape == (7, 5) + constant.shape
            assert tensor.strides[:2] == (0, 0)
            assert not tensor.flags.writeable
            assert np.array_equal(tensor[3, 2], constant)


class TestScope:
    # a sheet with an edge (D >= 2) and at least one normal (D < N)
    @pytest.mark.parametrize("dim,background", [(1, 3), (3, 3), (4, 3)],
                             ids=["edge_is_a_point", "no_normal", "above_background"])
    def test_worldsheet_dimension_out_of_scope_rejected(self, dim, background):
        with pytest.raises(InvalidParameters, match="dimension"):
            Embedding(dim, minkowski(background), lambda xi: xi)

    @pytest.mark.parametrize("kwargs,match", [
        ({"dimension": 3, "signature": "weird"}, "signature"),
        ({"dimension": 0, "signature": LORENTZIAN}, "dimension"),
    ], ids=["signature", "dimension"])
    def test_background_construction_rejected(self, kwargs, match):
        with pytest.raises(InvalidParameters, match=match):
            BackgroundMetric(**kwargs)

    @pytest.mark.parametrize("read", ["christoffels_at", "riemann_at"])
    def test_curved_background_without_callback_rejected(self, read):
        bg = BackgroundMetric(3, LORENTZIAN, metric_fn=minkowski(3).metric_at)
        with pytest.raises(InvalidParameters, match="curved backgrounds must supply"):
            getattr(bg, read)(np.zeros((2, 3)))

    @pytest.mark.parametrize("slot,read", [("metric_fn", "metric_at"),
                                           ("christoffel_fn", "christoffels_at"),
                                           ("riemann_fn", "riemann_at")])
    def test_non_finite_background_callback_rejected(self, slot, read):
        callbacks = {"metric_fn": minkowski(3).metric_at,
                     "christoffel_fn": minkowski(3).christoffels_at,
                     "riemann_fn": minkowski(3).riemann_at}
        flat = getattr(minkowski(3), read)

        def poisoned(x):  # NaN at the second point only
            out = np.array(flat(x))
            out[1] = np.nan
            return out

        callbacks[slot] = poisoned
        bg = BackgroundMetric(3, LORENTZIAN, **callbacks)
        with pytest.raises(DegenerateMetric, match="not finite"):
            getattr(bg, read)(np.zeros((2, 3)))


class TestStackedStencils:
    """The stacked stencils reproduce one call per shifted copy bit for bit."""

    @staticmethod
    def _field(entry, name):
        emb = entry.embedding
        if name == "position":
            return emb.position
        return lambda p: normal_frame(emb, p)

    # every catalog entry: the torus has two normals, the hole D = 3
    @pytest.mark.parametrize("entry_id", catalog.catalog_ids())
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(name=st.sampled_from(["position", "normal_frame"]),
           shape=st.one_of(st.just(()), st.tuples(st.integers(1, 30)),
                           st.tuples(st.integers(1, 5), st.integers(1, 6))),
           seed=st.integers(0, 2**16), step=st.sampled_from([1e-5, 1e-4, 1e-3]))
    # blocked calls: a few shifts per call, and one call per shift above the block size
    @example(name="position", shape=(FD_BLOCK_POINTS // 3,), seed=1, step=1e-4)
    @example(name="normal_frame", shape=(FD_BLOCK_POINTS + 1,), seed=0, step=1e-5)
    def test_stacked_equals_looped(self, entry_id, name, shape, seed, step):
        entry = catalog.entry_from_id(entry_id)
        count = int(np.prod(shape))
        pts = random_points(entry, count, seed).reshape(shape + (-1,))
        fn = self._field(entry, name)
        assert np.array_equal(fd_jacobian(fn, pts, step), looped_fd_jacobian(fn, pts, step))

    def test_empty_batch(self):
        pts = np.zeros((0, 2))
        assert fd_jacobian(HELICOID.embedding.position, pts, 1e-5).shape == (0, 3, 2)
        assert fd_only_twin(HELICOID.embedding).dd_position(pts).shape == (0, 3, 2, 2)


class TestUncheckedRecord:
    """The record a stencil point reads unchecked holds the checked values, bit for bit."""

    @staticmethod
    def _same_bits(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("entry_id", catalog.catalog_ids())
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(count=st.integers(1, 30), seed=st.integers(0, 2**16))
    def test_unchecked_record_equals_the_checked_frame(self, entry_id, count, seed):
        entry = catalog.entry_from_id(entry_id)
        emb, pts = entry.embedding, random_points(entry, count, seed)
        fr, checked = frame(emb, pts), geometry._frame_at(emb, pts)
        unchecked = geometry._Evaluation(emb, pts)
        for field in dataclasses.fields(geometry.Frame):
            assert self._same_bits(getattr(fr, field.name), getattr(unchecked, field.name))
        assert self._same_bits(checked.x, unchecked.x)
        assert self._same_bits(checked.g, unchecked.g)


def _nan_at_stencil_point(p):
    """The helicoid's map, NaN at the first fallback stencil point around (0.7, 0.5), step 1e-5."""
    nan = np.max(np.abs(p - [0.7 + 1e-5, 0.5]), axis=-1) < 2.5e-6
    return HELICOID.embedding.position_fn(p) + np.where(nan, np.nan, 0.0)[..., None]


class TestFiniteness:
    @staticmethod
    def _helicoid_with(**fns):
        emb = HELICOID.embedding
        callbacks = {"position_fn": emb.position_fn, "d_position_fn": emb.d_position_fn,
                     "dd_position_fn": emb.dd_position_fn}
        return Embedding(emb.worldsheet_dim, emb.background, **{**callbacks, **fns})

    @staticmethod
    def _linear_sheet(diagonal, axes):
        """The coordinate plane along ``axes`` under a constant metric declared Euclidean."""
        n = len(diagonal)
        bg = BackgroundMetric(n, EUCLIDEAN, metric_fn=lambda x: np.broadcast_to(
            np.diag(diagonal), x.shape[:-1] + (n, n)).copy(),
            christoffel_fn=euclidean(n).christoffels_at, riemann_fn=euclidean(n).riemann_at)

        def pos(p):
            x = np.zeros(p.shape[:-1] + (n,))
            x[..., list(axes)] = p
            return x

        return Embedding(2, bg, pos)

    @pytest.mark.parametrize("diagonal,axes,error,match", [
        # a regular induced metric, but g cannot raise the normal
        ((1.0, 1.0, 0.0), (0, 1), DegenerateMetric, "background metric is singular"),
        ((1.0, 1.0, -1.0), (0, 2), DegenerateMetric, "not positive definite"),
        # the one normal is timelike under g
        ((1.0, 1.0, -1.0), (0, 1), GaugeFailure, "null or not finite"),
        # Gram-Schmidt finds the x2 normal but not the timelike x3 one
        ((1.0, 1.0, 1.0, -1.0), (0, 1), GaugeFailure, "could not complete"),
    ], ids=["singular", "indefinite_sheet", "timelike_normal", "timelike_second_normal"])
    def test_curved_metric_out_of_scope_rejected(self, diagonal, axes, error, match):
        with pytest.raises(error, match=match):
            frame(self._linear_sheet(diagonal, axes), np.array([[0.1, 0.2], [0.3, -0.4]]))

    @pytest.mark.parametrize("fns,points", [
        ({"position_fn": lambda p: np.full(p.shape[:-1] + (3,), np.nan)}, HELICOID.sample_grid()),
        # no tangent callback: the fallback's gate on the map sees it
        ({"position_fn": _nan_at_stencil_point, "d_position_fn": None, "dd_position_fn": None},
         np.array([0.7, 0.5])),
    ], ids=["everywhere", "fallback_stencil_point"])
    def test_non_finite_position_rejected(self, fns, points):
        # the flat metric never reads x, so only the gate on x sees this
        with pytest.raises(DegenerateImmersion, match="non-finite position"):
            frame(self._helicoid_with(**fns), points)

    @pytest.mark.parametrize("run", [
        lambda emb: frame(emb, HELICOID.sample_grid()),
        lambda emb: dng_action(emb, catalog.action_setup(HELICOID, 1.0, 3.0, (8, 8))[0]),
    ], ids=["frame", "dng_action"])
    def test_non_finite_tangent_map_rejected(self, run):
        def d_pos(p):
            out = HELICOID.embedding.d_position_fn(p).copy()
            out[..., 1, 0] = np.nan
            return out

        with pytest.raises(DegenerateImmersion, match="non-finite tangent map"):
            run(self._helicoid_with(d_position_fn=d_pos))

    def test_non_finite_second_derivatives_rejected(self):
        def dd(p):
            out = HELICOID.embedding.dd_position_fn(p).copy()
            out[..., 2, 0, 1] = np.inf
            return out

        with pytest.raises(DegenerateImmersion, match="second derivatives"):
            extrinsic_curvature(self._helicoid_with(dd_position_fn=dd), HELICOID.sample_grid())
