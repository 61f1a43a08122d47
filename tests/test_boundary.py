"""Edge geometry: normals, curvature, projectors, and the two boundary-condition forms."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from worldsheet import catalog
from worldsheet.background import euclidean
from worldsheet.boundary import (
    BoundaryEmbedding,
    WorldsheetScalar,
    _boundary_local,
    adapted_edge_data,
    boundary_condition_residual,
    boundary_data,
    boundary_laplacian_residuals,
    edge_equation_residual,
    laplacian_decomposition_residual,
)
from worldsheet.errors import (
    DegenerateImmersion,
    InconsistentGeometry,
    InvalidParameters,
    NullBoundary,
)
from worldsheet.geometry import Embedding, extrinsic_curvature, frame

from helpers import curved_hole_edge, graph_edge_hint, hint_oriented_eta

HELICOID = catalog.helicoid(0.5, 1.0)
PLANE = catalog.plane()
HOLE = catalog.planar_hole(2.0)
DISK = catalog.euclidean_disk(2.0)
COLLAPSE = catalog.collapsing_string(1.0, 1.0)

CATALOG_EDGE_ENTRIES = (PLANE, HELICOID, COLLAPSE, HOLE, DISK, catalog.euclidean_plane_hole(2.0))
ALL_BOUNDARIES = [
    pytest.param(entry, edge, id=f"{entry.id}-{'upper' if edge.orientation > 0 else 'lower'}")
    for entry in CATALOG_EDGE_ENTRIES
    for edge in entry.boundaries
]


def cartesian_plane() -> Embedding:
    return Embedding(
        2, euclidean(3),
        lambda xi: np.stack([xi[..., 0], xi[..., 1], np.zeros(xi.shape[:-1])], axis=-1),
        lambda xi: np.broadcast_to(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
                                   xi.shape[:-1] + (3, 2)).copy(),
        lambda xi: np.zeros(xi.shape[:-1] + (3, 2, 2)))


def circle_boundary(rho=2.0, material_outside=True) -> BoundaryEmbedding:
    # counterclockwise tangent: eta toward the center makes det[eps, eta] > 0
    def chi(u):
        th = np.asarray(u, dtype=float)[..., 0]
        return np.stack([rho * np.cos(th), rho * np.sin(th)], axis=-1)

    return BoundaryEmbedding(cartesian_plane(), chi, 1 if material_outside else -1)


class TestBoundaryData:
    def test_straight_static_boundary_is_geodesic(self):
        bd = boundary_data(PLANE.boundary, np.array([0.5]))
        assert abs(float(bd.edge_trace)) < 1e-14

    def test_circle_in_plane_curvature(self):
        bd = boundary_data(circle_boundary(2.0), np.array([0.7]))
        assert abs(float(bd.edge_trace) + 0.5) < 1e-6  # FD chi derivatives

    def test_circle_orientation_flips_sign(self):
        bd = boundary_data(circle_boundary(2.0, material_outside=False),
                           np.array([0.7]))
        assert abs(float(bd.edge_trace) - 0.5) < 1e-6

    def test_helicoid_edge_curvature(self):
        bd = boundary_data(HELICOID.boundary, np.array([0.4]))
        assert abs(float(bd.edge_trace) + 1.0 / 3.0) < 1e-12

    def test_hole_edge_curvature(self):
        bd = boundary_data(HOLE.boundary, np.array([0.2, 1.1]))
        assert abs(float(bd.edge_trace) + 0.5) < 1e-12

    def test_collapse_edge_curvature_is_minus_acceleration(self):
        bd = boundary_data(COLLAPSE.boundary, np.array([0.8]))
        assert abs(float(bd.edge_trace) + 1.0) < 1e-12

    @pytest.mark.parametrize("entry,edge", ALL_BOUNDARIES)
    def test_projector_identities(self, entry, edge):
        u = entry.boundary_grid(5)
        bd = boundary_data(edge, u)
        fr = frame(entry.embedding, edge.chi(u))
        gamma = fr.induced_metric
        idem = np.einsum("...ab,...bc,...cd->...ad", bd.projector, gamma, bd.projector)
        assert np.max(np.abs(idem - bd.projector)) < 1e-10
        trace = np.einsum("...ab,...ab->...", bd.projector, gamma)
        assert np.max(np.abs(trace - (entry.embedding.worldsheet_dim - 1))) < 1e-10
        complete = bd.projector + np.einsum("...a,...b->...ab",
                                            bd.normal_in_m, bd.normal_in_m)
        assert np.max(np.abs(complete - fr.induced_metric_inverse)) < 1e-10

    @pytest.mark.parametrize("entry,edge", ALL_BOUNDARIES)
    def test_eta_unit_and_orthogonal(self, entry, edge):
        u = entry.boundary_grid(5)
        bd = boundary_data(edge, u)
        gamma = frame(entry.embedding, edge.chi(u)).induced_metric
        norm = np.einsum("...a,...ab,...b->...", bd.normal_in_m, gamma, bd.normal_in_m)
        ortho = np.einsum("...a,...ab,...bA->...A", bd.normal_in_m, gamma,
                          bd.tangents_in_m)
        assert np.max(np.abs(norm - 1.0)) < 1e-12
        assert np.max(np.abs(ortho)) < 1e-12

    def test_null_boundary_rejected(self):
        null = BoundaryEmbedding(
            PLANE.embedding, lambda u: np.stack([u[..., 0], u[..., 0]], axis=-1), 1)
        with pytest.raises(NullBoundary):
            boundary_data(null, np.array([0.3]))

    def test_spacelike_edge_rejected(self):
        # an edge at fixed time: its normal in the sheet is timelike
        spacelike = BoundaryEmbedding(
            PLANE.embedding, lambda u: np.stack([np.full_like(u[..., 0], 0.3), u[..., 0]],
                                                axis=-1), 1)
        with pytest.raises(NullBoundary):
            boundary_data(spacelike, np.array([[0.1], [0.4]]))

    @pytest.mark.parametrize("orientation", [0, 2, -0.5, np.nan, np.array([1, -1]), True])
    def test_orientation_must_be_a_sign(self, orientation):
        with pytest.raises(InvalidParameters, match="orientation"):
            dataclasses.replace(PLANE.boundary, orientation=orientation)

    @pytest.mark.parametrize("slot", ["chi_fn", "d_chi_fn", "dd_chi_fn"])
    def test_non_finite_edge_derivatives_rejected(self, slot):
        callback = getattr(HELICOID.boundary, slot)
        edge = dataclasses.replace(HELICOID.boundary,
                                   **{slot: lambda u: np.full_like(callback(u), np.nan)})
        # the accessor that calls the slot raises, naming it (chi, d_chi or dd_chi)
        with pytest.raises(DegenerateImmersion, match=rf"non-finite .*\b{slot[:-3]}\b"):
            boundary_data(edge, HELICOID.boundary_grid(3))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_orientation_reproduces_hint_oriented_eta(data):
    """The sign rule gives, bit for bit, the eta that the outward hint used to orient."""
    case = data.draw(st.sampled_from(["catalog", "scan", "circle"]))
    if case == "catalog":
        entry = data.draw(st.sampled_from(CATALOG_EDGE_ENTRIES))
        edge = data.draw(st.sampled_from(entry.boundaries))
        u, hint = entry.boundary_grid(5), graph_edge_hint(edge)
    elif case == "scan":
        rhos = np.array(data.draw(st.lists(st.floats(0.05, 50.0), min_size=1, max_size=20)))
        edge = catalog._constant_boundary(HOLE.embedding, rhos, HOLE.boundary.orientation)
        u, hint = np.zeros((rhos.size, 2)), graph_edge_hint(edge)
    else:
        outside = data.draw(st.booleans())
        edge = circle_boundary(data.draw(st.floats(0.1, 10.0)), outside)
        u = np.array(data.draw(st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=9)))[:, None]
        hint = (-1.0 if outside else 1.0) * edge.chi(u)
    eta = boundary_data(edge, u).normal_in_m
    assert np.array_equal(eta, hint_oriented_eta(edge, u, hint))


def fd_boundary_christoffels(bnd: BoundaryEmbedding, u, step=1e-4):
    """Christoffels of h_AB, indexed [A, B, C] (upper last), from central differences of h."""
    h_at = lambda p: boundary_data(bnd, p).boundary_metric
    dh = np.stack([(h_at(u + step * e) - h_at(u - step * e)) / (2.0 * step)
                   for e in np.eye(u.shape[-1])], axis=-3)  # [D, A, B] = d_D h_AB
    lowered = 0.5 * (np.einsum("...ADB->...ABD", dh) + np.einsum("...BDA->...ABD", dh)
                     - np.einsum("...DAB->...ABD", dh))
    return np.einsum("...CD,...ABD->...ABC", boundary_data(bnd, u).boundary_metric_inverse,
                     lowered)


def edge_connections(bnd: BoundaryEmbedding, u):
    """Gauss-formula connections of h_AB, from the edge-in-sheet and edge-in-spacetime levels."""
    bl = _boundary_local(bnd, u)
    return [bl.edge.conn, bl.spacetime.conn]


class TestEdgeConnection:
    """The Gauss-formula connection of the edge, read from the edge in the sheet and
    from the edge in spacetime, against differences of its metric."""

    @pytest.mark.parametrize("entry,edge", ALL_BOUNDARIES)
    def test_catalog_edges(self, entry, edge):
        u = entry.boundary_grid()
        reference = fd_boundary_christoffels(edge, u)
        for conn in edge_connections(edge, u):
            assert np.max(np.abs(conn - reference)) < 1e-7

    def test_curved_two_dimensional_edge(self):
        edge = curved_hole_edge()
        u = np.array([[0.3, 1.1], [-0.4, 2.9], [0.8, 5.0]])
        reference = fd_boundary_christoffels(edge, u)
        for conn in edge_connections(edge, u):
            assert np.max(np.abs(conn)) > 1e-2  # h_AB varies along this edge
            assert np.max(np.abs(conn - reference)) < 1e-7


class TestEdgeEquation:
    def test_helicoid_equilibrium(self):
        bd = boundary_data(HELICOID.boundary, np.array([0.4]))
        assert abs(float(edge_equation_residual(bd, 1.0, 3.0))) < 1e-12

    def test_static_hole_equilibrium(self):
        bd = boundary_data(HOLE.boundary, np.array([0.3, 0.9]))
        assert abs(float(edge_equation_residual(bd, 1.0, 2.0))) < 1e-12

    def test_geodesic_boundary_violates_edge_law(self):
        bd = boundary_data(PLANE.boundary, np.array([0.5]))
        assert abs(float(edge_equation_residual(bd, 1.0, 1.0)) - 1.0) < 1e-14

    def test_hole_sign_analysis(self):
        shrink = boundary_data(catalog.planar_hole(1.0).boundary, np.array([0.1, 0.4]))
        grow = boundary_data(catalog.planar_hole(4.0).boundary, np.array([0.1, 0.4]))
        assert float(edge_equation_residual(shrink, 1.0, 2.0)) == pytest.approx(-1.0)
        assert float(edge_equation_residual(grow, 1.0, 2.0)) == pytest.approx(0.5)

    def test_nonpositive_mub_rejected(self):
        bd = boundary_data(PLANE.boundary, np.array([0.5]))
        with pytest.raises(InvalidParameters):
            edge_equation_residual(bd, 1.0, 0.0)

    @pytest.mark.parametrize("mu0,mub", [(1.0, np.nan), (1.0, np.inf), (np.nan, 1.0),
                                         (np.inf, 1.0), (-np.inf, 1.0)])
    def test_non_finite_tensions_rejected(self, mu0, mub):
        bd = boundary_data(PLANE.boundary, np.array([0.5]))
        with pytest.raises(InvalidParameters):
            edge_equation_residual(bd, mu0, mub)

    @pytest.mark.parametrize("mu0,mub", [("a", 1.0), (1.0, "a"), (None, 1.0), (True, 1.0),
                                         (1.0, True)])
    def test_tensions_that_are_not_real_numbers_rejected(self, mu0, mub):
        # text and None raised TypeError, and a bool ran as 1
        bd = boundary_data(PLANE.boundary, np.array([0.5]))
        with pytest.raises(InvalidParameters):
            edge_equation_residual(bd, mu0, mub)

    def test_numpy_scalar_tensions_accepted(self):
        bd = boundary_data(PLANE.boundary, np.array([0.5]))
        residual = edge_equation_residual(bd, np.float32(1.0), np.int64(2))
        assert abs(float(residual) - 1.0) < 1e-14


class TestBoundaryConditions:
    def test_flat_worldsheet_vacuous(self):
        res = boundary_condition_residual(PLANE.boundary, np.array([0.5]))
        assert np.all(res == 0.0)
        res_c = boundary_condition_residual(COLLAPSE.boundary, np.array([0.8]))
        assert np.all(res_c == 0.0)

    def test_constant_rotation_edge_satisfied(self):
        u = HELICOID.boundary_grid(9)
        res = boundary_condition_residual(HELICOID.boundary, u)
        assert np.max(np.abs(res)) < 1e-12

    def test_varying_radius_edge_violated(self):
        def chi(u):
            t = np.asarray(u, dtype=float)[..., 0]
            return np.stack([t, 1.0 + 0.1 * np.sin(t)], axis=-1)

        moving = BoundaryEmbedding(HELICOID.embedding, chi, 1)
        # the edge tangent is momentarily parallel to d_t where d sigma/dt = 0,
        # so the residual passes through zero at t = pi/2 and is generic at t = 0
        at_zero = boundary_condition_residual(moving, np.array([0.0]))
        at_quarter = boundary_condition_residual(moving, np.array([np.pi / 2]))
        assert np.max(np.abs(at_zero)) > 1e-3
        assert np.max(np.abs(at_quarter)) < 1e-12


class TestLaplacianForms:
    def test_flat_geodesic_tensionless_limit(self):
        res = boundary_laplacian_residuals(PLANE.boundary, np.array([0.5]),
                                           mu0=0.0, mub=1.0)
        assert np.max(np.abs(res.normal)) < 1e-14
        assert abs(float(res.eta)) < 1e-14
        assert np.max(np.abs(res.combined)) < 1e-14

    # the collapsing string's edges run on coordinate time, not proper time, so
    # their own connection Gamma_00^0 is non-zero and enters D^A D_A X
    @pytest.mark.parametrize("entry,mu0,mub", [
        pytest.param(HELICOID, 1.0, 3.0, id="helicoid-orbit"),
        pytest.param(HOLE, 1.0, 2.0, id="equilibrium-hole"),
        pytest.param(catalog.collapsing_string(1.3, 0.9), 1.3, 1.0, id="collapsing-string"),
    ])
    def test_exact_solution_residuals_vanish(self, entry, mu0, mub):
        for edge in entry.boundaries:
            res = boundary_laplacian_residuals(edge, entry.boundary_grid(7), mu0, mub)
            assert np.max(np.abs(res.normal)) < 1e-12
            assert np.max(np.abs(res.eta)) < 1e-12
            assert np.max(np.abs(res.combined)) < 1e-12

    @pytest.mark.parametrize("entry,edge", ALL_BOUNDARIES)
    def test_projection_form_is_minus_laplacian_form(self, entry, edge):
        u = entry.boundary_grid(5)
        proj = boundary_condition_residual(edge, u)
        lap = boundary_laplacian_residuals(edge, u,
                                           entry.parameters.get("mu0", 1.0),
                                           entry.parameters.get("mub", 1.0))
        assert np.max(np.abs(proj + lap.normal)) < 1e-8

    def test_two_path_identity_on_generic_boundary(self):
        def chi(u):
            t = np.asarray(u, dtype=float)[..., 0]
            return np.stack([t, 0.8 + 0.1 * np.sin(t)], axis=-1)

        moving = BoundaryEmbedding(HELICOID.embedding, chi, 1)
        u = np.linspace(0.0, 2.0, 9)[:, None]
        proj = boundary_condition_residual(moving, u)
        lap = boundary_laplacian_residuals(moving, u, 1.0, 3.0)
        assert np.max(np.abs(proj)) > 1e-2  # genuinely violated here
        assert np.max(np.abs(proj + lap.normal)) < 1e-8


class TestLaplacianDecomposition:
    def test_scalar_value(self):
        fld = WorldsheetScalar(lambda xi: xi[..., 0] * xi[..., 1] ** 2, None, None)
        xi = np.array([[2.0, 3.0], [0.5, -1.0]])
        assert np.array_equal(fld.value(xi), [18.0, 0.5])

    def test_constant_field(self):
        fld = WorldsheetScalar(
            lambda xi: np.full(xi.shape[:-1], 3.7),
            lambda xi: np.zeros(xi.shape[:-1] + (2,)),
            lambda xi: np.zeros(xi.shape[:-1] + (2, 2)))
        res = laplacian_decomposition_residual(PLANE.boundary, np.array([0.5]), fld)
        assert abs(float(res)) < 1e-14

    def test_linear_field_flat_strip(self):
        fld = WorldsheetScalar(
            lambda xi: xi[..., 0],
            lambda xi: np.stack([np.ones(xi.shape[:-1]),
                                 np.zeros(xi.shape[:-1])], axis=-1),
            lambda xi: np.zeros(xi.shape[:-1] + (2, 2)))
        res = laplacian_decomposition_residual(PLANE.boundary, np.array([0.5]), fld)
        assert abs(float(res)) < 1e-14

    def test_quadratic_field_circular_boundary(self):
        fld = WorldsheetScalar(
            lambda xi: xi[..., 1] ** 2,
            lambda xi: np.stack([np.zeros(xi.shape[:-1]), 2.0 * xi[..., 1]], axis=-1),
            lambda xi: np.broadcast_to(np.diag([0.0, 2.0]),
                                       xi.shape[:-1] + (2, 2)).copy())
        res = laplacian_decomposition_residual(circle_boundary(2.0),
                                               np.array([0.7]), fld)
        assert abs(float(res)) < 1e-6


class TestAdaptedEdge:
    def test_flat_strip_edge_totally_geodesic(self):
        data = adapted_edge_data(PLANE.boundary, np.array([0.5]))
        assert np.max(np.abs(data.edge_extrinsic)) < 1e-12

    def test_helicoid_edge_inheritance(self):
        u = np.array([0.4])
        data = adapted_edge_data(HELICOID.boundary, u)  # raises if violated
        bd = boundary_data(HELICOID.boundary, u)
        assert np.allclose(data.edge_extrinsic[..., 0], bd.edge_curvature, atol=1e-10)
        curv = extrinsic_curvature(HELICOID.embedding, HELICOID.boundary.chi(u))
        projected = np.einsum("...aA,...bB,...abi->...ABi",
                              bd.tangents_in_m, bd.tangents_in_m, curv.extrinsic)
        assert np.allclose(data.edge_extrinsic[..., 1:], projected, atol=1e-10)

    def test_string_edge_twist_is_antisymmetric(self):
        data = adapted_edge_data(HELICOID.boundary, np.array([0.9]))
        twist = data.edge_twist
        assert np.max(np.abs(twist + np.swapaxes(twist, -1, -2))) < 1e-12

    def test_mixed_twist_inheritance_value(self):
        u = np.array([0.4])
        data = adapted_edge_data(HELICOID.boundary, u)
        bd = boundary_data(HELICOID.boundary, u)
        curv = extrinsic_curvature(HELICOID.embedding, HELICOID.boundary.chi(u))
        expected = np.einsum("...a,...bA,...abi->...Ai", bd.normal_in_m,
                             bd.tangents_in_m, curv.extrinsic)
        assert np.allclose(data.edge_twist[..., 1:, 0], expected, atol=1e-8)

    @pytest.mark.parametrize("u0", [0.0, 2e-6])
    def test_sheet_normal_gauge_flip_along_the_edge(self, u0):
        # the helicoid's deterministic normal flips sign at sigma = 0, which this edge
        # crosses at u = 0, inside the twist's stencil; the sheet normals there are
        # aligned to the center's before differencing, so no twist is injected
        edge = BoundaryEmbedding(HELICOID.embedding,
                                 lambda u: np.concatenate([u, 0.3 * np.sin(u)], axis=-1), 1)
        u = np.array([u0])
        data = adapted_edge_data(edge, u)  # raises if violated
        bd = boundary_data(edge, u)
        curv = extrinsic_curvature(HELICOID.embedding, edge.chi(u))
        expected = np.einsum("...a,...bA,...abi->...Ai", bd.normal_in_m,
                             bd.tangents_in_m, curv.extrinsic)
        assert np.allclose(data.edge_twist[..., 1:, 0], expected, atol=1e-8)
        assert np.all(np.abs(expected) > 0.5)  # the mixed twist, 0.5713, is not trivial

    def test_inconsistent_edge_derivative_rejected(self):
        # d_chi disagrees with chi, so the tangents and eta no longer match the
        # edge's curve and the inherited curvature and twist fail their checks
        wrong = dataclasses.replace(HELICOID.boundary, d_chi_fn=lambda u: np.broadcast_to(
            [[1.0], [0.3]], u.shape[:-1] + (2, 1)))
        with pytest.raises(InconsistentGeometry, match="inheritance relations violated"):
            adapted_edge_data(wrong, np.array([0.4]))

    def test_sign_coherence_on_rotating_solution(self):
        # with the same outward eta: the edge law holds and the edge
        # four-acceleration is -(mu0/mub) eta, directed into the sheet
        u = np.array([0.4])
        bd = boundary_data(HELICOID.boundary, u)
        assert abs(float(edge_equation_residual(bd, 1.0, 3.0))) < 1e-12
        res = boundary_laplacian_residuals(HELICOID.boundary, u, 1.0, 3.0)
        # combined = L - (mu0/mub) eta with L the (flat) edge Laplacian of the
        # embedding, which equals minus the four-acceleration for a worldline
        assert np.max(np.abs(res.combined)) < 1e-12
        # inward check: the acceleration's spatial part points to the rotation axis
        accel = -(1.0 / 3.0) * bd.spacetime_normal
        position = HELICOID.embedding.position(HELICOID.boundary.chi(u))
        radial = position[..., 1:] / np.linalg.norm(position[..., 1:], axis=-1,
                                                    keepdims=True)
        assert float(np.sum(accel[..., 1:] * radial)) < 0.0
