"""Actions, induced-metric variation, and analytic-vs-FD first variations."""

import dataclasses

import numpy as np
import pytest

from worldsheet import catalog
from worldsheet.background import minkowski
from worldsheet.errors import (
    DegenerateImmersion,
    DegenerateMetric,
    InvalidParameters,
    WorldsheetError,
)
from worldsheet.geometry import Embedding, frame
from worldsheet.variation import (
    ActionConfig,
    DeformationField,
    GridAxis,
    dng_action,
    edge_action,
    first_variation_analytic,
    first_variation_fd,
    metric_variation,
)

from helpers import random_deformation, richardson_variation

PLANE = catalog.plane()
HELICOID = catalog.helicoid(0.5, 1.0)
DISK = catalog.euclidean_disk(1.0)
SPHERE = catalog.sphere(2.0)
COLLAPSING = catalog.collapsing_string(1.0, 1.0)

# closed-form value of the rotating-sheet area integral on t, sigma in [0, 1]
HELICOID_STRIP_AREA = 0.5 * np.sqrt(0.75) + np.arcsin(0.5)


def spherical_cap(radius, edge_theta):
    """The cap theta <= edge_theta of ``catalog.sphere(radius)``, in coordinates (phi, theta).

    Its edge is the latitude theta = edge_theta, the hi limit of the last
    axis, where H^ab K_ab = +-1/radius (the sign is the normal gauge's).
    """
    sph = catalog.sphere(radius).embedding
    emb = Embedding(2, sph.background, lambda xi: sph.position_fn(xi[..., ::-1]),
                    lambda xi: sph.d_position_fn(xi[..., ::-1])[..., ::-1],
                    lambda xi: sph.dd_position_fn(xi[..., ::-1])[..., ::-1, ::-1])
    return emb, catalog._constant_boundary(emb, edge_theta, 1)


class TestActions:
    def test_flat_strip_area(self):
        cfg = ActionConfig(1.0, 1.0, (GridAxis(32, 0.0, 1.0), GridAxis(32, 0.0, 2.0)))
        assert dng_action(PLANE.embedding, cfg) == pytest.approx(-2.0, abs=1e-12)

    def test_helicoid_area_against_antiderivative(self):
        cfg = ActionConfig(1.0, 1.0, (GridAxis(256, 0.0, 1.0), GridAxis(256, 0.0, 1.0)))
        assert dng_action(HELICOID.embedding, cfg) == pytest.approx(
            -HELICOID_STRIP_AREA, abs=1e-5)

    def test_unit_disk_area(self):
        cfg, _ = catalog.action_setup(DISK, 1.0, 1.0, (64, 64))
        assert dng_action(DISK.embedding, cfg) == pytest.approx(-np.pi, abs=1e-12)

    def test_circle_edge_length(self):
        entry = catalog.euclidean_disk(2.0)
        cfg, edges = catalog.action_setup(entry, 1.0, 1.0, (64, 64))
        assert edge_action(edges[0], cfg) == pytest.approx(-4.0 * np.pi, abs=1e-12)

    def test_straight_worldline_proper_time(self):
        cfg, edges = catalog.action_setup(PLANE, 1.0, 1.0, (64, 64))
        assert edge_action(edges[0], cfg) == pytest.approx(-1.0, abs=1e-12)

    def test_helicoid_edge_proper_time(self):
        cfg, edges = catalog.action_setup(HELICOID, 1.0, 1.0, (64, 64))
        upper = [e for e in edges if e.orientation > 0][0]
        assert edge_action(upper, cfg) == pytest.approx(-np.sqrt(0.75), abs=1e-12)

    @pytest.mark.parametrize("first,last", [
        (GridAxis(4, 0.0, 1.0), GridAxis(32, 0.0, 1.0)),
        (GridAxis(16.5, 0.0, 1.0), GridAxis(16, 0.0, 1.0)),   # read -1.0303 unchecked
        (GridAxis(np.nan, 0.0, 1.0), GridAxis(16, 0.0, 1.0)),
        (GridAxis(16, 0.0, 1.0), GridAxis(True, 0.0, 1.0)),
        (GridAxis(16, 1.0, 0.0), GridAxis(16, 0.0, 1.0)),     # reversed: read +1.0
        (GridAxis(16, 0.0, 1.0), GridAxis(16, 0.0, 0.0)),
        (GridAxis(16, 0.0, np.inf), GridAxis(16, 0.0, 1.0)),  # read -inf
        (GridAxis(16, 0.0, 1.0), GridAxis(16, np.nan, lambda u: 1.0 + 0.0 * u[..., 0])),
        # an edge-dependent limit below the constant one over half the leading axis:
        # the two halves cancelled to -0.0
        (GridAxis(16, 0.0, 1.0), GridAxis(16, 0.0, lambda u: 0.5 - u[..., 0])),
        (GridAxis(16, 0.0, 1.0), GridAxis(16, 0.0, lambda u: np.inf + 0.0 * u[..., 0])),
    ], ids=["few_points", "fractional_count", "nan_count", "bool_count", "reversed", "empty",
            "infinite", "nan_limit", "edge_limit_crossing", "infinite_edge_limit"])
    def test_quadrature_validation(self, first, last):
        # on the unit square the plane's action is -1.0 at any valid count
        with pytest.raises(InvalidParameters):
            dng_action(PLANE.embedding, ActionConfig(1.0, 1.0, (first, last)))

    def test_one_axis_grid_rejected(self):
        with pytest.raises(InvalidParameters, match="D >= 2"):
            ActionConfig(1.0, 1.0, (GridAxis(8, 0.0, 1.0),))

    def test_edge_dependent_limit_only_on_the_last_axis(self):
        with pytest.raises(InvalidParameters,
                           match="only the last axis may have edge-dependent limits"):
            ActionConfig(1.0, 1.0, (GridAxis(8, 0.0, lambda u: 1.0 + 0.0 * u[..., 0]),
                                    GridAxis(8, 0.0, 1.0)))

    def test_null_sheet_action_rejected(self):
        null = Embedding(2, minkowski(3), lambda xi: np.stack(
            [xi[..., 0], xi[..., 0], xi[..., 1]], axis=-1))
        cfg = ActionConfig(1.0, 1.0, (GridAxis(8, 0.0, 1.0), GridAxis(8, 0.0, 1.0)))
        with pytest.raises(DegenerateMetric, match="volume element"):
            dng_action(null, cfg)

    @pytest.mark.parametrize("mu0,mub", [(np.inf, 0.7), (np.nan, 0.7), (1.0, np.inf),
                                         (1.0, np.nan), (-1.0, 0.7)])
    def test_tension_validation(self, mu0, mub):
        with pytest.raises(InvalidParameters, match="tensions"):
            ActionConfig(mu0, mub, (GridAxis(8, 0.0, 1.0), GridAxis(8, 0.0, 1.0)))


@pytest.mark.parametrize("time_extent", [(0.0, np.nan), (1.0, 1.0), (1.0, 0.0),
                                         (-np.inf, 1.0), (0.0,), (0.0, 0.5, 1.0)],
                         ids=["nan", "equal", "reversed", "infinite", "one", "three"])
def test_time_extent_validation(time_extent):
    # (0, nan) made the analytic variation NaN, and (1, 1) silently zeroed the window
    with pytest.raises(InvalidParameters, match="time_extent"):
        DeformationField(time_extent=time_extent)


class TestMetricVariation:
    def test_flat_normal_bump_leaves_metric(self):
        defo = DeformationField(normal_fn=lambda xi: np.sin(xi[..., 0])[..., None])
        dg = metric_variation(PLANE.embedding, np.array([0.3, 0.2]), defo)
        assert np.max(np.abs(dg)) < 1e-12

    def test_flat_tangential_lie_derivative(self):
        defo = DeformationField(tangential_fn=lambda xi: np.stack(
            [np.zeros(xi.shape[:-1]), xi[..., 1]], axis=-1))
        dg = metric_variation(PLANE.embedding, np.array([0.3, 0.2]), defo)
        assert np.allclose(dg, np.diag([0.0, 2.0]), atol=1e-9)

    def test_sphere_uniform_normal_matches_reembedding(self):
        # oracle: re-embed at radius r + eps and difference the metrics
        defo = DeformationField(normal_fn=lambda xi: np.ones(xi.shape[:-1] + (1,)))
        q = np.array([np.pi / 2, 0.3])
        dg = metric_variation(SPHERE.embedding, q, defo)
        eps = 1e-6
        plus = frame(catalog.sphere(2.0 + eps).embedding, q).induced_metric
        minus = frame(catalog.sphere(2.0 - eps).embedding, q).induced_metric
        oracle = (plus - minus) / (2.0 * eps)
        assert np.allclose(dg, oracle, atol=1e-8)


class TestFirstVariation:
    def test_zero_deformation_is_exactly_zero(self):
        cfg, edges = catalog.action_setup(PLANE, 1.0, 0.7, (32, 32))
        defo = DeformationField(time_extent=(0.0, 1.0))
        assert first_variation_analytic(PLANE.embedding, edges, cfg, defo) == 0.0
        assert first_variation_fd(PLANE.embedding, edges, cfg, defo, 1e-3) == 0.0

    def test_no_edge_field_equals_zero_edge_field(self):
        # with no edge field the quadrature domain still follows the displaced
        # edge graphs; a zero displacement must leave them bit-for-bit unchanged
        cfg, edges = catalog.action_setup(PLANE, 1.0, 0.7, (32, 32))
        bulk = dataclasses.replace(random_deformation(PLANE, seed=5), boundary_normal_fns=None)
        zero = dataclasses.replace(bulk, boundary_normal_fns=lambda u: 0.0 * u[..., 0])
        assert (first_variation_fd(PLANE.embedding, edges, cfg, bulk, 1e-2)
                == first_variation_fd(PLANE.embedding, edges, cfg, zero, 1e-2))

    def test_tangential_edge_pull_closed_form(self):
        # pulling one edge along its outward normal by a windowed amount c(t)
        # changes only the sheet area: delta S = -mu0 * integral of c
        cfg, edges = catalog.action_setup(PLANE, 1.0, 0.0, (64, 64))
        c = 0.37
        defo = DeformationField(
            tangential_fn=lambda xi: np.stack(
                [np.zeros(xi.shape[:-1]),
                 c * np.clip((xi[..., 1] + 0.2) / 1.2, 0.0, 1.0) ** 2], axis=-1),
            time_extent=(0.0, 1.0))
        ana = first_variation_analytic(PLANE.embedding, edges, cfg, defo)
        # independent quadrature of the expected edge integrals
        t = (np.arange(64) + 0.5) / 64.0
        window = defo._window(t)
        ramp_low = np.clip((-1.0 + 0.2) / 1.2, 0.0, 1.0) ** 2
        expected = -c * np.mean(window) + c * ramp_low * np.mean(window)
        assert ana == pytest.approx(expected, abs=1e-12)
        fd = richardson_variation(PLANE.embedding, edges, cfg, defo, 1e-2)
        assert fd == pytest.approx(ana, abs=1e-4)

    @staticmethod
    def _edge_push(amplitude):
        # moves both edges of the collapsing string along eta; eta is tilted in time
        # where the edge is, so the moving domain needs the Picard inversion of the
        # displaced edge graphs
        return DeformationField(
            boundary_normal_fns=lambda u: amplitude * np.sin(4.0 * np.pi * u[..., 0]),
            time_extent=(0.0, 0.5))

    def test_sloped_edge_displacement_is_stationary(self):
        # the collapsing string's edges obey mu0 + mub k = 0, so pushing them along
        # eta leaves the action stationary
        cfg, edges = catalog.action_setup(COLLAPSING, 1.0, 1.0, (64, 64))
        defo = self._edge_push(1.0)
        assert abs(first_variation_analytic(COLLAPSING.embedding, edges, cfg, defo)) < 1e-15
        fd = richardson_variation(COLLAPSING.embedding, edges, cfg, defo, 1e-2)
        assert abs(fd) < 1e-5

    def test_uncontracted_edge_inversion_raises(self):
        # at eps = 1e-2 this push is too large for the Picard sweeps to
        # contract; the variation must fail instead of returning a wrong number
        cfg, edges = catalog.action_setup(COLLAPSING, 1.0, 1.0, (64, 64))
        with pytest.raises(InvalidParameters, match="Picard"):
            first_variation_fd(COLLAPSING.embedding, edges, cfg, self._edge_push(10.0), 1e-2)

    @pytest.mark.parametrize("edges", [False, True], ids=["no_edges", "edges"])
    @pytest.mark.parametrize("epsilon", [0.0, -1e-2, np.nan, np.inf])
    def test_bad_epsilon_rejected(self, epsilon, edges):
        cfg, attached = catalog.action_setup(PLANE, 1.0, 0.7, (8, 8))
        with pytest.raises(InvalidParameters, match="epsilon"):
            first_variation_fd(PLANE.embedding, attached if edges else [], cfg,
                               random_deformation(PLANE, seed=1), epsilon)

    def test_sheet_rank_deficient_at_one_bulk_point_is_rejected(self):
        # a plane sheet, (t, phi, 0) in M^3, whose tangent e_s vanishes only at
        # the grid point (t0, s0): the displaced maps read the sheet unchecked
        # around it, so the one check of the bulk grid must catch it
        t0 = s0 = 0.3125  # the third midpoint of 8 on [0, 1]

        def pos(xi):
            t, s = xi[..., 0] - t0, xi[..., 1] - s0
            return np.stack([xi[..., 0], s ** 3 / 3.0 + t * t * s, 0.0 * t], axis=-1)

        def dpos(xi):
            t, s = xi[..., 0] - t0, xi[..., 1] - s0
            zero = 0.0 * t
            return np.stack([np.stack([1.0 + zero, 2.0 * t * s, zero], axis=-1),
                             np.stack([zero, s * s + t * t, zero], axis=-1)], axis=-1)

        sheet = Embedding(2, minkowski(3), pos, dpos)
        cfg = ActionConfig(1.0, 1.0, (GridAxis(8, 0.0, 1.0), GridAxis(8, 0.0, 1.0)))
        bump = DeformationField(normal_fn=lambda xi: np.sin(3.0 * xi[..., 1:]))
        with pytest.raises(WorldsheetError):
            first_variation_fd(sheet, [], cfg, bump, 1e-2)

    def test_sheet_rank_deficient_at_one_edge_point_is_rejected(self):
        # the same plane sheet with e_s vanishing at (t0, 1), a point of the
        # upper edge's grid and of no bulk cell: the displaced edges read the
        # sheet unchecked there, so the check of each edge's grid must catch it
        t0, s0 = 0.3125, 1.0

        def pos(xi):
            t, s = xi[..., 0] - t0, xi[..., 1] - s0
            return np.stack([xi[..., 0], s ** 3 / 3.0 + t * t * s, 0.0 * t], axis=-1)

        def dpos(xi):
            t, s = xi[..., 0] - t0, xi[..., 1] - s0
            zero = 0.0 * t
            return np.stack([np.stack([1.0 + zero, 2.0 * t * s, zero], axis=-1),
                             np.stack([zero, s * s + t * t, zero], axis=-1)], axis=-1)

        sheet = Embedding(2, minkowski(3), pos, dpos)
        edge = catalog._constant_boundary(sheet, 1.0, 1)
        cfg = ActionConfig(1.0, 1.0, (GridAxis(8, 0.0, 1.0), GridAxis(8, 0.0, 1.0)))
        bump = DeformationField(normal_fn=lambda xi: np.sin(3.0 * xi[..., 1:]))
        with pytest.raises(DegenerateImmersion):
            first_variation_fd(sheet, [edge], cfg, bump, 1e-2)

    @pytest.mark.parametrize("field,shape", [("tangential_fn", (2,)), ("normal_fn", (1,)),
                                             ("boundary_normal_fns", ())])
    def test_non_finite_deformation_rejected(self, field, shape):
        cfg, edges = catalog.action_setup(PLANE, 1.0, 0.7, (8, 8))
        nan_field = lambda x: np.full(x.shape[:-1] + shape, np.nan)
        defo = dataclasses.replace(random_deformation(PLANE, seed=1), **{field: nan_field})
        with pytest.raises(InvalidParameters, match="non-finite"):
            first_variation_analytic(PLANE.embedding, edges, cfg, defo)

    def test_normal_only_deformation_of_flat_strip_is_null(self):
        # K vanishes and no edge term involves the normal component here
        cfg, edges = catalog.action_setup(PLANE, 1.0, 0.7, (48, 48))
        defo = DeformationField(
            normal_fn=lambda xi: (np.sin(xi[..., 0]) * np.cos(xi[..., 1]))[..., None],
            time_extent=(0.0, 1.0))
        assert first_variation_analytic(PLANE.embedding, edges, cfg, defo) == 0.0
        fd = richardson_variation(PLANE.embedding, edges, cfg, defo, 1e-2)
        assert abs(fd) < 1e-5

    def test_interior_tangential_deformation_is_null(self):
        cfg, edges = catalog.action_setup(PLANE, 1.0, 0.7, (64, 64))
        bump = lambda s: np.exp(-1.0 / np.maximum(1e-12, 1.0 - (s / 0.6) ** 2)) * (
            np.abs(s) < 0.6)
        defo = DeformationField(
            tangential_fn=lambda xi: np.stack(
                [0.3 * bump(xi[..., 1]) * np.sin(xi[..., 0]),
                 0.5 * bump(xi[..., 1]) * np.cos(2 * xi[..., 0])], axis=-1),
            time_extent=(0.0, 1.0))
        assert first_variation_analytic(PLANE.embedding, edges, cfg, defo) == 0.0
        fd = richardson_variation(PLANE.embedding, edges, cfg, defo, 1e-2)
        assert abs(fd) < 1e-5

    def test_linearity_of_fd_variation(self):
        cfg, edges = catalog.action_setup(PLANE, 1.0, 0.7, (48, 48))
        defo = random_deformation(PLANE, seed=21)
        double = DeformationField(
            tangential_fn=lambda xi: 2.0 * defo.tangential_fn(xi),
            normal_fn=lambda xi: 2.0 * defo.normal_fn(xi),
            boundary_normal_fns=lambda u: 2.0 * defo.boundary_normal_fns(u),
            time_extent=defo.time_extent)
        f1 = first_variation_fd(PLANE.embedding, edges, cfg, defo, 1e-3)
        f2 = first_variation_fd(PLANE.embedding, edges, cfg, double, 1e-3)
        assert f2 == pytest.approx(2.0 * f1, rel=1e-4)

    @pytest.mark.parametrize("seed", range(5))
    def test_fd_matches_analytic_on_strip(self, seed):
        cfg, edges = catalog.action_setup(PLANE, 1.0, 0.7, (64, 64))
        defo = random_deformation(PLANE, seed=seed)
        ana = first_variation_analytic(PLANE.embedding, edges, cfg, defo)
        fd = richardson_variation(PLANE.embedding, edges, cfg, defo, 1e-2)
        assert abs(fd - ana) < max(1e-6, 10.0 * 1e-4)

    @pytest.mark.parametrize("seed", range(3))
    def test_rotating_orbit_is_stationary(self, seed):
        cfg, edges = catalog.action_setup(HELICOID, 1.0, 3.0, (64, 64))
        defo = random_deformation(HELICOID, seed=seed)
        ana = first_variation_analytic(HELICOID.embedding, edges, cfg, defo)
        assert abs(ana) < 1e-12  # every integrand vanishes pointwise
        fd = richardson_variation(HELICOID.embedding, edges, cfg, defo, 1e-2)
        assert abs(fd - ana) < max(1e-6, 10.0 * 1e-4)

    @pytest.mark.parametrize("seed", range(2))
    def test_fd_matches_analytic_on_disk(self, seed):
        cfg, edges = catalog.action_setup(DISK, 1.0, 0.5, (64, 64))
        defo = random_deformation(DISK, seed=seed)
        ana = first_variation_analytic(DISK.embedding, edges, cfg, defo)
        fd = richardson_variation(DISK.embedding, edges, cfg, defo, 1e-2)
        assert abs(fd - ana) < max(1e-6, 10.0 * 1e-4)

    def test_fd_matches_analytic_on_spherical_cap(self):
        # the edge term mub H^ab K_ab^i Phi_i is about 2.4 here, while every
        # catalog edge satisfies the boundary condition H^ab K_ab^i = 0
        emb, edge = spherical_cap(2.0, 1.0)
        cfg = ActionConfig(1.0, 0.7, (GridAxis(64, 0.0, 2.0 * np.pi),
                                      GridAxis(64, 0.0, lambda u: edge.chi(u)[..., -1])))
        defo = DeformationField(normal_fn=lambda xi: (0.5 + 0.3 * np.cos(xi[..., 1]))[..., None])
        ana = first_variation_analytic(emb, [edge], cfg, defo)
        fd = richardson_variation(emb, [edge], cfg, defo, 1e-2)
        assert abs(fd - ana) < max(1e-6, 10.0 * 1e-4)

    def test_boundary_displacement_reproduces_worldsheet_route(self):
        # displacing the edge by Psi equals deforming the sheet tangentially
        # with eta-component Psi near that edge: same total variation
        cfg, edges = catalog.action_setup(PLANE, 1.0, 0.7, (64, 64))
        upper = [e for e in edges if e.orientation > 0]
        psi = lambda u: 0.4 * np.sin(1.3 * u[..., 0])
        via_edge = DeformationField(boundary_normal_fns=psi,
                                    time_extent=(0.0, 1.0))
        ramp = lambda s: np.clip((s + 0.2) / 1.2, 0.0, 1.0) ** 3
        via_sheet = DeformationField(
            tangential_fn=lambda xi: np.stack(
                [np.zeros(xi.shape[:-1]),
                 ramp(xi[..., 1]) * 0.4 * np.sin(1.3 * xi[..., 0])], axis=-1),
            time_extent=(0.0, 1.0))
        fd_edge = richardson_variation(PLANE.embedding, upper, cfg, via_edge, 1e-2)
        fd_sheet = richardson_variation(PLANE.embedding, upper, cfg, via_sheet, 1e-2)
        ana_edge = first_variation_analytic(PLANE.embedding, upper, cfg, via_edge)
        ana_sheet = first_variation_analytic(PLANE.embedding, upper, cfg, via_sheet)
        assert ana_edge == pytest.approx(ana_sheet, abs=1e-12)
        assert fd_edge == pytest.approx(ana_edge, abs=1e-4)
        assert fd_sheet == pytest.approx(ana_sheet, abs=1e-4)
