"""The package leaves no cyclic garbage: every record it builds is freed by reference counting.

A reference cycle (say, a closure stored in the record it captures) keeps
its arrays alive until the cycle collector runs, which raises peak memory on
the quadrature-size kernels.  With the collector off, one run over every
catalog entry, both edge levels of the hole, the analytic and FD first
variations and a short evolution must leave nothing for ``gc.collect()``.
"""

import gc

import pytest

from worldsheet import catalog
from worldsheet.boundary import adapted_edge_data
from worldsheet.dynamics import SimulationConfig, evolve
from worldsheet.integrability import curvature_tensors
from worldsheet.variation import first_variation_analytic, first_variation_fd

from helpers import random_deformation


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_no_cyclic_garbage(collector_off):
    for entry_id in catalog.catalog_ids():
        catalog.evaluate_entry(catalog.entry_from_id(entry_id))
    hole = catalog.entry_from_id("hole")
    curvature_tensors(hole.boundary, hole.boundary_grid())
    adapted_edge_data(hole.boundary, hole.boundary_grid())
    helicoid = catalog.helicoid(0.5, 1.0)
    cfg, edges = catalog.action_setup(helicoid, 1.0, 3.0, (16, 16))
    defo = random_deformation(helicoid, 0)
    first_variation_analytic(helicoid.embedding, edges, cfg, defo)
    first_variation_fd(helicoid.embedding, edges, cfg, defo, 1e-2)
    evolve(SimulationConfig(initial_data={"id": "collapsing", "mu0": 1.0, "mub": 1.0,
                                          "x0": 1.0},
                            duration=0.05, grid_points=50, constraint_tol=2e-3))
    assert gc.collect() == 0
