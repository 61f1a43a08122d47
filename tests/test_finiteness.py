"""A non-finite value from any callback ends in a typed error, never in wrong numbers.

The scenario is the catalog helicoid with both edges, on a background that
takes the curved branch (metric, Christoffel and Riemann callbacks that
return flat-space values).  Each callback slot is wrapped so that one batch
element of every value it returns is NaN or +-inf, and each public entry
point that reads the slot must then raise a ``WorldsheetError``.  A map that is
NaN only at one stencil point of a kernel, where no rank or signature check
runs, must raise ``DegenerateImmersion`` there.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from worldsheet import catalog
from worldsheet.background import LORENTZIAN, BackgroundMetric
from worldsheet.boundary import (
    WorldsheetScalar,
    adapted_edge_data,
    boundary_condition_residual,
    boundary_data,
    boundary_laplacian_residuals,
    laplacian_decomposition_residual,
)
from worldsheet.errors import DegenerateImmersion, WorldsheetError
from worldsheet.geometry import (
    extrinsic_curvature,
    frame,
    gauss_weingarten_residual,
    normal_frame,
    tangent_basis,
)
from worldsheet.integrability import (
    aligned_normal_frame_fn,
    boundary_integrability_residuals,
    curvature_tensors,
    direct_embedding_residuals,
    worldsheet_connection,
    worldsheet_integrability_residuals,
    worldsheet_riemann,
)
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

HELICOID = catalog.helicoid(0.5, 1.0)


def _carry(x, shape):
    """Zeros of shape (..., *shape), NaN where the point x is not finite, as a real field is."""
    return np.zeros(shape) + 0.0 * x[..., 0].reshape(x.shape[:-1] + (1,) * len(shape))


def _metric(x):
    return np.diag([-1.0, 1.0, 1.0]) + _carry(x, (3, 3))


SLOTS = {  # slot -> the record that holds it
    "position_fn": "embedding", "d_position_fn": "embedding", "dd_position_fn": "embedding",
    "metric_fn": "background", "christoffel_fn": "background", "riemann_fn": "background",
    "chi_fn": "edge", "d_chi_fn": "edge", "dd_chi_fn": "edge",
    "normal_fn": "deformation", "tangential_fn": "deformation",
    "boundary_normal_fns": "deformation",
    "value_fn": "scalar", "gradient_fn": "scalar", "hessian_fn": "scalar",
}


def scenario(slot=None, wrap=None):
    """The helicoid scenario, with callback ``slot`` replaced by ``wrap(callback)``."""
    def patched(record, kind):
        if SLOTS.get(slot) != kind:
            return record
        return dataclasses.replace(record, **{slot: wrap(getattr(record, slot))})

    background = patched(BackgroundMetric(3, LORENTZIAN, _metric,
                                          lambda x: _carry(x, (3, 3, 3)),
                                          lambda x: _carry(x, (3, 3, 3, 3))), "background")
    emb = patched(dataclasses.replace(HELICOID.embedding, background=background), "embedding")
    upper = patched(dataclasses.replace(HELICOID.boundaries[0], parent=emb), "edge")
    lower = dataclasses.replace(HELICOID.boundaries[1], parent=emb)
    entry = dataclasses.replace(HELICOID, embedding=emb, domain=((0.0, 1.0), (lower, upper)))
    cfg, edges = catalog.action_setup(entry, 1.0, 3.0, (8, 8))
    defo = patched(DeformationField(
        tangential_fn=lambda xi: np.stack([np.sin(xi[..., 1]), xi[..., 0] * xi[..., 1]], axis=-1),
        normal_fn=lambda xi: np.cos(xi[..., 0])[..., None] * (1.0 + xi[..., 1] ** 2)[..., None],
        boundary_normal_fns=lambda u: 0.3 * np.sin(u[..., 0]),
        time_extent=(0.0, 1.0)), "deformation")
    # psi = xi^0 (xi^1)^2, with its closed-form gradient and Hessian
    scalar = patched(WorldsheetScalar(
        lambda xi: xi[..., 0] * xi[..., 1] ** 2,
        lambda xi: np.stack([xi[..., 1] ** 2, 2.0 * xi[..., 0] * xi[..., 1]], axis=-1),
        lambda xi: np.stack([np.stack([0.0 * xi[..., 0], 2.0 * xi[..., 1]], axis=-1),
                             np.stack([2.0 * xi[..., 1], 2.0 * xi[..., 0]], axis=-1)], axis=-1)),
        "scalar")
    return emb, upper, edges, cfg, defo, scalar


MAP = {"position_fn", "d_position_fn", "metric_fn"}
SECOND = MAP | {"dd_position_fn", "christoffel_fn"}
EDGE = SECOND | {"chi_fn", "d_chi_fn", "dd_chi_fn"}
PTS = HELICOID.sample_grid(3)
U = HELICOID.boundary_grid(4)

# entry point -> the slots it reads
ENTRY_POINTS = {
    "tangent_basis": (lambda s: tangent_basis(s[0], PTS), {"d_position_fn"}),
    "frame": (lambda s: frame(s[0], PTS), MAP),
    "normal_frame": (lambda s: normal_frame(s[0], PTS), MAP),
    "aligned_normal_frame_fn": (lambda s: aligned_normal_frame_fn(s[0], PTS[4])(PTS), MAP),
    "extrinsic_curvature": (lambda s: extrinsic_curvature(s[0], PTS), SECOND),
    "gauss_weingarten_residual": (lambda s: gauss_weingarten_residual(s[0], PTS), SECOND),
    "worldsheet_connection": (lambda s: worldsheet_connection(s[0], PTS), SECOND),
    "worldsheet_riemann": (lambda s: worldsheet_riemann(s[0], PTS), SECOND),
    "worldsheet_integrability_residuals": (
        lambda s: worldsheet_integrability_residuals(s[0], PTS), SECOND | {"riemann_fn"}),
    "boundary_data": (lambda s: boundary_data(s[1], U), EDGE),
    "boundary_condition_residual": (lambda s: boundary_condition_residual(s[1], U),
                                    EDGE - {"dd_chi_fn"}),
    "boundary_laplacian_residuals": (
        lambda s: boundary_laplacian_residuals(s[1], U, 1.0, 3.0), EDGE),
    "adapted_edge_data": (lambda s: adapted_edge_data(s[1], U), EDGE),
    "laplacian_decomposition_residual": (
        lambda s: laplacian_decomposition_residual(s[1], U, s[5]),
        EDGE | {"gradient_fn", "hessian_fn"}),
    "WorldsheetScalar.value": (lambda s: s[5].value(PTS), {"value_fn"}),
    "boundary_integrability_residuals": (
        lambda s: boundary_integrability_residuals(s[1], U), EDGE),
    "direct_embedding_residuals": (lambda s: direct_embedding_residuals(s[1], U),
                                   EDGE | {"riemann_fn"}),
    "curvature_tensors": (lambda s: curvature_tensors(s[1], U), EDGE | {"riemann_fn"}),
    "metric_variation": (lambda s: metric_variation(s[0], PTS, s[4]),
                         SECOND | {"normal_fn", "tangential_fn"}),
    "dng_action": (lambda s: dng_action(s[0], s[3]), MAP | {"chi_fn"}),
    "edge_action": (lambda s: edge_action(s[1], s[3]), MAP | {"chi_fn", "d_chi_fn"}),
    "first_variation_analytic": (
        lambda s: first_variation_analytic(s[0], s[2], s[3], s[4]),
        EDGE | {"normal_fn", "tangential_fn", "boundary_normal_fns"}),
    "first_variation_fd": (
        lambda s: first_variation_fd(s[0], s[2], s[3], s[4], 1e-2),
        MAP | {"chi_fn", "d_chi_fn", "normal_fn", "tangential_fn", "boundary_normal_fns"}),
}


def poisoned(element, bad):
    """Wrap a callback so that batch element ``element`` (mod the batch) is ``bad``."""
    def wrap(fn):
        def wrapped(x):
            out = np.array(fn(x), dtype=float)
            rows = out.reshape((int(np.prod(x.shape[:-1])), -1))
            rows[element % len(rows)] = bad
            return out
        return wrapped
    return wrap


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_clean_scenario_evaluates(name):
    run, _ = ENTRY_POINTS[name]
    run(scenario())


# every slot each entry point reads; hypothesis draws the element and the value
@pytest.mark.parametrize("name,slot", [(name, slot) for name in sorted(ENTRY_POINTS)
                                       for slot in sorted(ENTRY_POINTS[name][1])])
@settings(derandomize=True, max_examples=3, deadline=None)
@given(element=st.integers(0, 200), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_callback_raises_typed_error(name, slot, element, bad):
    run, _ = ENTRY_POINTS[name]
    with pytest.raises(WorldsheetError), np.errstate(invalid="ignore", over="ignore"):
        run(scenario(slot, poisoned(element, bad)))


def nan_at(fn, target, radius):
    """``fn`` with NaN at the points within ``radius`` (max-norm) of ``target``, and only there."""
    def wrapped(x):
        out = np.array(fn(x), dtype=float)
        hit = np.max(np.abs(x - target), axis=-1) < radius
        out[hit] = np.nan
        return out
    return wrapped


# the edge-free strip t in [0.2, 0.8], sigma in [-0.5, 0.5]: the FD step is
# 1e-5 at every quadrature point, and the displaced grid is the grid
STRIP = ActionConfig(1.0, 3.0, (GridAxis(8, 0.2, 0.8), GridAxis(8, -0.5, 0.5)))
GW_POINTS = np.array([[0.3, 0.2], [0.6, -0.4]])  # the Gauss-Weingarten step there is 1e-4

# kernel -> (run, one of its stencil points that is not one of its own points)
STENCIL_KERNELS = {
    "first_variation_fd": (
        lambda emb: first_variation_fd(emb, [], STRIP, DeformationField(
            normal_fn=lambda xi: np.cos(xi[..., 1:])), 1e-2),
        np.array([0.2375 + 1e-5, 0.0625]), 1e-5),
    "gauss_weingarten_residual": (
        lambda emb: gauss_weingarten_residual(emb, GW_POINTS),
        GW_POINTS[0] + [1e-4, 0.0], 1e-4),
}


@pytest.mark.parametrize("slot", ["position_fn", "d_position_fn"])
@pytest.mark.parametrize("kernel", sorted(STENCIL_KERNELS))
def test_non_finite_map_at_one_stencil_point_raises(kernel, slot):
    # the map is finite at every point the kernel was asked for; stencil
    # points take no rank or signature check, but still the finiteness checks
    run, target, step = STENCIL_KERNELS[kernel]
    emb = HELICOID.embedding
    emb = dataclasses.replace(emb, **{slot: nan_at(getattr(emb, slot), target, 0.25 * step)})
    with pytest.raises(DegenerateImmersion), np.errstate(invalid="ignore"):
        run(emb)
