"""Each kernel evaluates the map and the metric once per point batch, with no LAPACK call.

A sheet with D = 2 and one normal, and its edge, are evaluated in closed form:
the rank check, the det, inverse and signature of each metric (a curved
background metric too), and the unit normal take no ``svd``, ``inv``,
``eigvalsh`` or ``det``.  A D = 3 sheet takes one rank SVD per point batch.

An edge kernel evaluates the boundary map chi and its derivatives once per
point batch as well, and the callers that need only the first-order edge
frame take no second derivative of either map.  ``verify`` evaluates each
edge of an entry once for all the edge rows that read the edge at its sample
points, and checks the sheet, or each edge, once for all the rows that read it
at one subset of those points.

The integrability residuals evaluate the map, and the background metric with
it, once per point of each stencil sweep they make, at the sample points and
FD step of the ``verify`` command, build Gamma and K only where they are
used, and take second derivatives only at points whose Gamma or K is read.
A hole-radius scan is one edge evaluation over all its radii.
A string step builds the outward edge direction twice per end: once each for
the predictor and the corrector; only the corrector builds a four-velocity.
In ``evolve`` a step takes over the edge tangents that the step before it
computed at its new positions, so a run of n steps computes them 2n + 1 times.
The Procrustes alignment of one normal column takes no SVD.  The
Gauss-Weingarten residual differences the tangents and the aligned normals
in one sweep of the first-order frame.
A finite-difference stencil calls its function once for all its shifts, in
blocks of at most ``geometry.FD_BLOCK_POINTS`` points; the second-derivative
fallback, a stencil of a stencil, is one call of the map for a small batch.
The sheet's volume element reads the map's points only on a curved
background, since a flat metric is the same at every point; a displaced map
windows its deformation once per point batch.
The rank and signature checks run once per batch of points a caller asks
for; the stencil points of a kernel that differences geometry around them
take the unchecked evaluation.  The finite-difference first variation checks
the undeformed sheet once on its bulk grid and once on each edge's boundary
grid, the points it integrates over, and reads it unchecked everywhere else.
Its displaced maps align the ungauged normal and take no sign gauge, and it
evaluates each undeformed edge once per point set that a displaced edge or
its limit reads, for both signs of eps: a sloped edge costs what a straight
one does, since its displaced limit is explicit.
"""

import dataclasses
import json

import numpy as np
import pytest

from worldsheet import catalog, dynamics, geometry
from worldsheet.background import BackgroundMetric
from worldsheet.boundary import (
    BoundaryEmbedding,
    WorldsheetScalar,
    adapted_edge_data,
    boundary_data,
    boundary_laplacian_residuals,
    laplacian_decomposition_residual,
)
from worldsheet.cli import main
from worldsheet.geometry import (
    Embedding,
    _procrustes,
    extrinsic_curvature,
    frame,
    gauss_weingarten_residual,
)
from worldsheet.integrability import (
    boundary_integrability_residuals,
    curvature_tensors,
    direct_embedding_residuals,
    worldsheet_integrability_residuals,
)
from worldsheet.variation import (
    ActionConfig,
    DeformationField,
    GridAxis,
    _deformed_embedding,
    _displaced_edge,
    _domain_alignment,
    dng_action,
    edge_action,
    first_variation_fd,
)

from helpers import fd_only_twin, random_deformation, s3_sphere

HELICOID = catalog.helicoid(0.5, 1.0)  # analytic derivatives, co-dimension one

COUNTED = ((Embedding, "position"), (Embedding, "d_position"), (Embedding, "dd_position"),
           (BoundaryEmbedding, "chi"), (BoundaryEmbedding, "d_chi"),
           (BoundaryEmbedding, "dd_chi"), (BackgroundMetric, "metric_at"), (np.linalg, "svd"),
           (np.linalg, "inv"), (np.linalg, "eigvalsh"), (np.linalg, "det"))
NO_LAPACK = {"svd": 0, "inv": 0, "eigvalsh": 0, "det": 0}


@pytest.fixture
def counts(monkeypatch):
    tally = {name: 0 for _, name in COUNTED}
    for owner, name in COUNTED:
        def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
            tally[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return tally


@pytest.mark.parametrize("embedding,pts", [
    (HELICOID.embedding, HELICOID.sample_grid()),
    (s3_sphere(1.7, 1.1), np.array([[0.7, 0.3], [1.3, -2.0]])),  # curved g: cofactor inverse
], ids=["flat", "curved"])
def test_frame_evaluates_each_quantity_once(counts, embedding, pts):
    frame(embedding, pts)
    assert counts == {"position": 1, "d_position": 1, "dd_position": 0,
                      "chi": 0, "d_chi": 0, "dd_chi": 0, "metric_at": 1} | NO_LAPACK


# psi = xi^0 (xi^1)^2 on the sheet, with its closed-form gradient and Hessian
SCALAR = WorldsheetScalar(
    lambda xi: xi[..., 0] * xi[..., 1] ** 2,
    lambda xi: np.stack([xi[..., 1] ** 2, 2.0 * xi[..., 0] * xi[..., 1]], axis=-1),
    lambda xi: np.stack([np.stack([0.0 * xi[..., 0], 2.0 * xi[..., 1]], axis=-1),
                         np.stack([2.0 * xi[..., 1], 2.0 * xi[..., 0]], axis=-1)], axis=-1))


@pytest.mark.parametrize("kernel,edge_calls", [
    (lambda: extrinsic_curvature(HELICOID.embedding, HELICOID.sample_grid()), 0),
    (lambda: boundary_data(HELICOID.boundary, HELICOID.boundary_grid()), 1),
    (lambda: boundary_laplacian_residuals(HELICOID.boundary, HELICOID.boundary_grid(),
                                          1.0, 3.0), 1),
    (lambda: laplacian_decomposition_residual(HELICOID.boundary, HELICOID.boundary_grid(),
                                              SCALAR), 1),
], ids=["extrinsic_curvature", "boundary_data", "boundary_laplacian_residuals",
        "laplacian_decomposition_residual"])
def test_second_order_kernels_evaluate_each_quantity_once(counts, kernel, edge_calls):
    kernel()
    assert counts == {"position": 1, "d_position": 1, "dd_position": 1, "chi": edge_calls,
                      "d_chi": edge_calls, "dd_chi": edge_calls, "metric_at": 1} | NO_LAPACK


def test_gauss_weingarten_differences_one_first_order_frame(counts):
    # the center's second-order evaluation, then one stacked stencil of the frame;
    # one normal column needs no polar SVD
    gauss_weingarten_residual(HELICOID.embedding, HELICOID.sample_grid())
    assert counts == {"position": 2, "d_position": 2, "dd_position": 1,
                      "chi": 0, "d_chi": 0, "dd_chi": 0, "metric_at": 2} | NO_LAPACK


@pytest.mark.parametrize("embedding,position_calls", [
    (HELICOID.embedding, 0),
    (s3_sphere(1.7, 1.1), 1),
], ids=["flat", "curved"])
def test_volume_action_reads_map_points_only_on_a_curved_background(counts, embedding,
                                                                    position_calls):
    config = ActionConfig(1.0, 1.0, (GridAxis(8, 0.2, 1.0), GridAxis(8, 0.1, 0.9)))
    dng_action(embedding, config)
    assert (counts["position"], counts["d_position"]) == (position_calls, 1)


def test_fd_variation_evaluation_counts(counts):
    # every displaced map and edge evaluation is an unchecked record of the
    # undeformed sheet, which is validated once on the bulk grid and once on
    # each edge's boundary grid; the displaced volume elements take tangents only.
    # Each of the 6 displaced tangent maps (the bulk and two edges, each sign of
    # eps) is one sheet d_position plus one sheet evaluation on the stacked
    # stencil of the displacement
    config, edges = catalog.action_setup(HELICOID, 1.0, 3.0, (16, 16))
    first_variation_fd(HELICOID.embedding, edges, config, random_deformation(HELICOID, 0), 1e-2)
    assert (counts["position"], counts["d_position"]) == (22, 30)


@pytest.mark.parametrize("entry, mub, seed", [
    (HELICOID, 3.0, 0),
    (catalog.collapsing_string(1.0, 1.0), 0.7, 2),  # sloped edges, eta_last != +-1
], ids=["helicoid", "collapsing"])
def test_fd_variation_evaluates_each_undeformed_edge_once_per_point_set(monkeypatch, entry,
                                                                        mub, seed):
    # per edge: the undeformed limit at the domain-alignment center and on the
    # bulk grid, its check on the boundary grid, then its parts at the boundary
    # grid (the displaced limit and edge there) and at the edge's tangent
    # stencil, each shared by both signs of eps
    config, edges = catalog.action_setup(entry, 1.0, mub, (16, 16))
    calls = []
    original = BoundaryEmbedding.chi

    def counted(self, point):
        calls.extend(i for i, bnd in enumerate(edges) if bnd is self)
        return original(self, point)

    monkeypatch.setattr(BoundaryEmbedding, "chi", counted)
    first_variation_fd(entry.embedding, edges, config, random_deformation(entry, seed), 1e-2)
    assert len(edges) == 2 and sorted(calls) == [0] * 5 + [1] * 5


def test_displaced_map_position_takes_no_normal_sign_gauge(monkeypatch):
    config = catalog.action_setup(HELICOID, 1.0, 3.0, (16, 16))[0]
    displaced = _deformed_embedding(HELICOID.embedding, random_deformation(HELICOID, 0), 1e-2,
                                    _domain_alignment(HELICOID.embedding, config.grid))
    calls = 0
    original = geometry._first_significant_sign

    def counted(v):
        nonlocal calls
        calls += 1
        return original(v)

    monkeypatch.setattr(geometry, "_first_significant_sign", counted)
    displaced.position(HELICOID.sample_grid())
    assert calls == 0


@pytest.fixture
def checked(monkeypatch):
    """Points per rank and signature check, split by sheet: the helicoid's, or another."""
    tally = {"helicoid": [], "other": []}
    original = geometry._check_metric

    def counted(embedding, gamma, *args):
        tally["helicoid" if embedding is HELICOID.embedding else "other"].append(
            int(np.prod(gamma.shape[:-2])))
        return original(embedding, gamma, *args)

    monkeypatch.setattr(geometry, "_check_metric", counted)
    return tally


def test_fd_variation_checks_the_sheet_at_the_points_it_asks_for(checked):
    # the helicoid: the domain center, the 16 x 16 bulk grid and the 16 points
    # of each edge, once each.  The displaced sheet: its frame in each edge
    # action.  No check at the stencil points of the displaced maps or edges.
    config, edges = catalog.action_setup(HELICOID, 1.0, 3.0, (16, 16))
    first_variation_fd(HELICOID.embedding, edges, config, random_deformation(HELICOID, 0), 1e-2)
    assert sorted(checked["helicoid"]) == [1, 16, 16, 256]
    assert checked["other"] == [16] * 4


def test_gauss_weingarten_checks_only_the_points_it_is_asked_for(checked):
    pts = HELICOID.sample_grid()
    gauss_weingarten_residual(HELICOID.embedding, pts)
    assert checked == {"helicoid": [len(pts)], "other": []}


def test_displaced_map_windows_each_point_batch_once(monkeypatch):
    calls = 0
    original = DeformationField._window

    def counted(self, t):
        nonlocal calls
        calls += 1
        return original(self, t)

    monkeypatch.setattr(DeformationField, "_window", counted)
    displaced = _deformed_embedding(HELICOID.embedding, random_deformation(HELICOID, 0), 1e-2,
                                    lambda normals: normals)
    displaced.position(HELICOID.sample_grid())
    assert calls == 1


ACTION_CONFIG = catalog.action_setup(HELICOID, 1.0, 3.0, (8, 8))[0]
EDGE_DEFORMATION = DeformationField(boundary_normal_fns=lambda u: np.sin(u[..., 0]))


@pytest.mark.parametrize("kernel", [
    lambda: edge_action(HELICOID.boundary, ACTION_CONFIG),
    # a displaced edge and its limit, with a fresh store of its undeformed parts
    lambda: [f(HELICOID.boundary_grid()) for f in
             _displaced_edge(HELICOID.boundary, EDGE_DEFORMATION, 1e-2, {})],
], ids=["edge_action", "displaced_edge_chi"])
def test_first_order_edge_callers_take_no_second_derivatives(counts, kernel):
    kernel()
    assert counts == {"position": 1, "d_position": 1, "dd_position": 0,
                      "chi": 1, "d_chi": 1, "dd_chi": 0, "metric_at": 1} | NO_LAPACK


def test_adapted_edge_data_takes_second_derivatives_once(counts):
    # the twist stencil needs only the first-order adapted normals
    adapted_edge_data(HELICOID.boundary, HELICOID.boundary_grid())
    assert (counts["dd_position"], counts["dd_chi"]) == (1, 1)


# the rows that read one second-order evaluation of each edge at ``boundary_grid()``
EDGE_RECORD_ROWS = ("edge_trace", "edge_residual", "boundary_condition_max",
                    "laplacian_form_agreement")


def test_verify_evaluates_each_edge_once_for_its_edge_rows(counts):
    rows = tuple(e for e in HELICOID.expected if e.quantity in EDGE_RECORD_ROWS)
    assert sorted(e.quantity for e in rows) == sorted(EDGE_RECORD_ROWS)
    catalog.evaluate_entry(dataclasses.replace(HELICOID, expected=rows))
    edges = len(HELICOID.boundaries)
    assert counts == {"position": edges, "d_position": edges, "dd_position": edges,
                      "chi": edges, "d_chi": edges, "dd_chi": edges,
                      "metric_at": edges} | NO_LAPACK


def test_verify_edge_rows_add_one_evaluation_per_edge_to_the_sweeps(counts):
    # the integrability rows difference their own stencils; every other edge
    # row of the entry reads the one evaluation of each edge.  The hole's edge
    # is 2D, so the entry lists both integrability edge rows.
    hole = catalog.planar_hole(2.0)
    sweeps = tuple(e for e in hole.expected if e.quantity.startswith("integrability_"))
    assert {"integrability_boundary", "integrability_direct"} <= {e.quantity for e in sweeps}
    catalog.evaluate_entry(dataclasses.replace(hole, expected=sweeps))
    swept = counts["dd_chi"]
    catalog.evaluate_entry(hole)
    assert counts["dd_chi"] - swept == swept + len(hole.boundaries)


# the rows that read the sheet at every sixth sample point, and each edge at
# every third edge point: one checked record of each point set for all of them
SHEET_SUBSET_ROWS = ("scalar_curvature_dev", "gauss_weingarten_max")
EDGE_SUBSET_ROWS = ("integrability_boundary", "integrability_direct")


@pytest.mark.parametrize("entry_id", ["helicoid", "plane", "sphere", "torus"])
def test_verify_checks_the_sheet_once_for_its_subset_rows(checked, entry_id):
    entry = catalog.entry_from_id(entry_id)
    rows = tuple(e for e in entry.expected if e.quantity in SHEET_SUBSET_ROWS)
    assert sorted(e.quantity for e in rows) == sorted(SHEET_SUBSET_ROWS)
    catalog.evaluate_entry(dataclasses.replace(entry, expected=rows))
    assert checked["other"] == [7]  # sample_grid()[::4], once for both rows


def test_verify_checks_each_edge_once_for_its_subset_rows(checked):
    hole = catalog.entry_from_id("hole")
    rows = tuple(e for e in hole.expected if e.quantity in EDGE_SUBSET_ROWS)
    assert sorted(e.quantity for e in rows) == sorted(EDGE_SUBSET_ROWS)
    catalog.evaluate_entry(dataclasses.replace(hole, expected=rows))
    assert checked["other"] == [4] * len(hole.boundaries)  # boundary_grid()[::16]


def verify_sheet(entry_id):
    entry = catalog.entry_from_id(entry_id)
    pts = entry.sample_grid()
    some = pts[:: max(1, len(pts) // 4)]
    return lambda: worldsheet_integrability_residuals(entry.embedding, some, 1e-4)


def verify_edge(entry_id, residuals):
    entry = catalog.entry_from_id(entry_id)
    u = entry.boundary_grid()
    some = u[:: max(1, len(u) // 3)]
    return lambda: residuals(entry.boundary, some, 1e-4)


@pytest.mark.parametrize("kernel,ceiling", [
    (verify_sheet("helicoid"), 5),  # one per point of the (2d+1)-point stencil
    (verify_sheet("hole"), 7),
    (verify_sheet("torus"), 25),    # plus the nested sweeps of the twist curvature
    (verify_edge("helicoid", boundary_integrability_residuals), 7),
    (verify_edge("helicoid", direct_embedding_residuals), 9),
    (verify_edge("hole", direct_embedding_residuals), 25),
    (verify_edge("hole", curvature_tensors), 31),  # one sweep per level
], ids=["helicoid_sheet", "hole_sheet", "torus_sheet", "helicoid_edge_in_sheet",
        "helicoid_direct", "hole_direct", "hole_curvature_tensors"])
def test_integrability_evaluates_the_map_once_per_stencil_point(counts, kernel, ceiling):
    kernel()
    assert counts["position"] <= ceiling
    assert counts["metric_at"] == counts["position"]  # the ambient Riemann reuses the level's g


def test_twist_curvature_builds_gamma_and_k_at_outer_stencil_points_only(monkeypatch):
    # torus: two normals, so the twist curvature's nested sweeps run
    tally = {"_connection": 0, "_extrinsic": 0}
    for name in tally:
        def counted(*args, _original=getattr(geometry, name), _name=name):
            tally[_name] += 1
            return _original(*args)
        monkeypatch.setattr(geometry, name, counted)
    dd_points = []

    def dd_position(self, point, _original=Embedding.dd_position):
        dd_points.append(int(np.prod(np.shape(point)[:-1])))
        return _original(self, point)

    monkeypatch.setattr(Embedding, "dd_position", dd_position)
    verify_sheet("torus")()
    assert tally == {"_connection": 2, "_extrinsic": 2}  # the center and one stacked stencil
    # second order too: the 5 points and 4 shifts of each, none in the twist sweeps
    assert sum(dd_points) == 25


def call_sizes(stencil, points):
    """Points per call that ``stencil`` makes of its function at ``points``."""
    sizes = []

    def fn(p):
        sizes.append(int(np.prod(p.shape[:-1])))
        return p

    stencil(fn, points, 1e-5)
    return sizes


THIRD = geometry.FD_BLOCK_POINTS // 3


@pytest.mark.parametrize("count,sizes", [
    (1, [4]),                                      # one call for the whole stencil
    (30, [4 * 30]),
    (THIRD, [3 * THIRD, THIRD]),                   # as many whole shifts as fit
    (geometry.FD_BLOCK_POINTS, [geometry.FD_BLOCK_POINTS] * 4),  # one call per shift
    (geometry.FD_BLOCK_POINTS + 1, [geometry.FD_BLOCK_POINTS + 1] * 4),
], ids=["single", "small", "third", "block", "above_block"])
def test_fd_jacobian_calls_fn_in_blocks_of_at_most_fd_block_points(count, sizes):
    # a bigger call per shift would raise peak memory on the action quadrature
    assert call_sizes(geometry.fd_jacobian, np.zeros((count, 2))) == sizes


def test_fd_second_derivatives_are_one_position_call_for_a_small_batch():
    # the Jacobian of the FD tangent map: 2D outer shifts, each with 2D inner shifts
    sizes = []

    def position(p):
        sizes.append(int(np.prod(p.shape[:-1])))
        return HELICOID.embedding.position_fn(p)

    twin = fd_only_twin(dataclasses.replace(HELICOID.embedding, position_fn=position))
    twin.dd_position(np.zeros((30, 2)))
    assert sizes == [16 * 30]


def test_hole_scan_is_one_edge_evaluation(counts, tmp_path):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"schema_version": 1, "scan": "hole_radius", "start": 1.0,
                               "stop": 4.0, "points": 301, "mu0": 1.0, "mub": 2.0}))
    assert main(["scan", "--config", str(cfg), "--out-dir", str(tmp_path / "scan")]) == 0
    svd = counts.pop("svd")
    assert counts == {"position": 1, "d_position": 1, "dd_position": 1, "chi": 1,
                      "d_chi": 1, "dd_chi": 1, "metric_at": 1,
                      "inv": 0, "eigvalsh": 0, "det": 0}
    assert svd <= 1  # the hole is a D = 3 sheet: one rank SVD


@pytest.mark.parametrize("entry,svd_calls", [
    (HELICOID, 0),                  # one normal column: the polar factor is a sign
    (catalog.flat_torus(1.0, 1.0), 1),
], ids=["one_column", "two_columns"])
def test_procrustes_takes_an_svd_only_for_two_or_more_columns(counts, entry, svd_calls):
    pts = entry.sample_grid()
    fr = frame(entry.embedding, pts)
    g = entry.embedding.background.metric_at(entry.embedding.position(pts))
    before = counts["svd"]
    _procrustes(fr.normals, fr.normals[0], g)
    assert counts["svd"] - before == svd_calls


def test_step_builds_two_edge_directions_per_end(monkeypatch):
    calls = 0
    original = dynamics._eta

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_eta", counted)
    config = dynamics.SimulationConfig(
        initial_data={"id": "rotating", "mu0": 1.0, "mub": 3.0, "radius": 1.0},
        duration=1.0)
    dynamics.step(dynamics.initial_state_from_config(config), config)
    # per end: the predictor, then the corrector
    assert calls == 4


def _counted(monkeypatch, name):
    """Count the calls of the dynamics kernel ``name``; returns the one-element tally."""
    calls = [0]
    original = getattr(dynamics, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, name, counted)
    return calls


def test_step_builds_one_four_velocity_per_end(monkeypatch):
    config = dynamics.SimulationConfig(
        initial_data={"id": "rotating", "mu0": 1.0, "mub": 3.0, "radius": 1.0},
        duration=1.0)
    state = dynamics.initial_state_from_config(config)
    calls = _counted(monkeypatch, "_unit_timelike")
    dynamics.step(state, config)
    assert calls[0] == 2  # the corrector's, per end; the predictor advances X only


def _collapse_of(steps, stride=3):
    return dynamics.SimulationConfig(
        initial_data={"id": "collapsing", "mu0": 1.0, "mub": 1.0, "x0": 1.0},
        grid_points=32, duration=steps * 0.5 * 2.0 / 31, output_stride=stride,
        constraint_tol=2e-3)


@pytest.mark.parametrize("steps", [1, 7])
def test_evolve_takes_each_steps_edge_tangents_over(monkeypatch, steps):
    calls = _counted(monkeypatch, "_outward_tangent")
    assert dynamics.evolve(_collapse_of(steps)).final.time > 0.0
    # per end: the first step's at the initial state, then per step the midpoint's
    # and the new one
    assert calls[0] == 4 * steps + 2


@pytest.mark.parametrize("steps", [1, 7])
def test_evolve_takes_each_edge_speed_once(monkeypatch, steps):
    calls = _counted(monkeypatch, "_speed")
    assert dynamics.evolve(_collapse_of(steps)).final.time > 0.0
    # per end: the initial tangent's, then per step the midpoint's and the new one's;
    # the next predictor and the new edge velocity take the carried speed
    assert calls[0] == 4 * steps + 2


@pytest.mark.parametrize("steps,stride", [(1, 1), (7, 3), (7, 7), (7, 100)])
def test_evolve_builds_endpoint_states_only_for_snapshots(monkeypatch, steps, stride):
    calls = _counted(monkeypatch, "EndpointState")
    snapshots = dynamics.evolve(_collapse_of(steps, stride)).snapshots
    assert len(snapshots) == 1 + -(-steps // stride)
    assert calls[0] == 2 * len(snapshots)  # one pair per stored state, the initial one too
