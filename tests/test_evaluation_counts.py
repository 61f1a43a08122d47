"""Each kernel evaluates the map, the metric and the rank SVD once per point batch.

The integrability residuals evaluate the map once per point of each stencil
sweep they make, at the sample points and FD step of the ``verify`` command.
A string step builds the outward edge direction once per Runge-Kutta rate
evaluation of both ends together, plus once each for the new and old state.
The Procrustes alignment of one normal column takes no SVD.
"""

import numpy as np
import pytest

from worldsheet import catalog, dynamics
from worldsheet.background import BackgroundMetric
from worldsheet.boundary import boundary_data
from worldsheet.geometry import Embedding, extrinsic_curvature, frame
from worldsheet.integrability import (
    _procrustes,
    boundary_integrability_residuals,
    curvature_tensors,
    direct_embedding_residuals,
    worldsheet_integrability_residuals,
)

HELICOID = catalog.helicoid(0.5, 1.0)  # analytic derivatives, co-dimension one

COUNTED = ((Embedding, "position"), (Embedding, "d_position"), (Embedding, "dd_position"),
           (BackgroundMetric, "metric_at"), (np.linalg, "svd"))


@pytest.fixture
def counts(monkeypatch):
    tally = {name: 0 for _, name in COUNTED}
    for owner, name in COUNTED:
        def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
            tally[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return tally


def test_frame_evaluates_each_quantity_once(counts):
    frame(HELICOID.embedding, HELICOID.sample_grid())
    svd = counts.pop("svd")
    assert counts == {"position": 1, "d_position": 1, "dd_position": 0, "metric_at": 1}
    assert svd <= 1


@pytest.mark.parametrize("kernel", [
    lambda: extrinsic_curvature(HELICOID.embedding, HELICOID.sample_grid()),
    lambda: boundary_data(HELICOID.boundary, HELICOID.boundary_grid()),
], ids=["extrinsic_curvature", "boundary_data"])
def test_second_order_kernels_evaluate_each_quantity_once(counts, kernel):
    kernel()
    svd = counts.pop("svd")
    assert counts == {"position": 1, "d_position": 1, "dd_position": 1, "metric_at": 1}
    assert svd <= 1


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
    (verify_edge("helicoid", boundary_integrability_residuals), 8),
    (verify_edge("helicoid", direct_embedding_residuals), 13),
    (verify_edge("hole", direct_embedding_residuals), 25),
    (verify_edge("hole", curvature_tensors), 31),  # one sweep per level
], ids=["helicoid_sheet", "hole_sheet", "torus_sheet", "helicoid_edge_in_sheet",
        "helicoid_direct", "hole_direct", "hole_curvature_tensors"])
def test_integrability_evaluates_the_map_once_per_stencil_point(counts, kernel, ceiling):
    kernel()
    assert counts["position"] <= ceiling


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


def test_step_builds_edge_directions_for_both_ends_at_once(monkeypatch):
    calls = 0
    original = dynamics._edge_eta

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_edge_eta", counted)
    config = dynamics.SimulationConfig(
        initial_data={"id": "rotating", "mu0": 1.0, "mub": 3.0, "radius": 1.0},
        duration=1.0)
    dynamics.step(dynamics.initial_state_from_config(config), config)
    assert calls <= 10  # predictor and corrector 4 each, then eta and prev_eta
