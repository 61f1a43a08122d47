"""The package leaves no cyclic garbage: every record it builds is freed by reference counting.

A reference cycle (say, a closure stored in the record it captures) keeps
its arrays alive until the cycle collector runs, which raises peak memory on
the quadrature-size kernels.  With the collector off, one run over every
catalog entry, both edge levels of the hole, the analytic and FD first
variations and a short evolution must leave no object of the package for
``gc.collect()``.  Only the package's own objects count: the garbage of an
earlier failing test, which pytest releases at the start of this one, is
collected before the run, and any other garbage is not the package's.
"""

import gc
import types
from collections import Counter

import pytest

from worldsheet import catalog
from worldsheet.boundary import adapted_edge_data
from worldsheet.dynamics import SimulationConfig, collapsing_initial_state, evolve
from worldsheet.integrability import curvature_tensors
from worldsheet.variation import first_variation_analytic, first_variation_fd

from helpers import random_deformation

PACKAGE = "worldsheet"


def _made_by_package(obj) -> bool:
    """An object of one of the package's types, or a function or frame of its code."""
    if isinstance(obj, types.FunctionType):
        module = obj.__module__
    elif isinstance(obj, types.FrameType):
        module = obj.f_globals.get("__name__")
    else:
        module = type(obj).__module__
    return isinstance(module, str) and (module == PACKAGE or module.startswith(PACKAGE + "."))


@pytest.fixture
def package_garbage():
    """Run a body with the collector off, and count the package's objects among its garbage."""

    def run(body) -> Counter:
        gc.collect()  # what was garbage before the body is not the body's
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            body()
            gc.collect()
            return Counter(type(o).__qualname__ for o in gc.garbage if _made_by_package(o))
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    gc.disable()
    try:
        yield run
    finally:
        gc.enable()


def _every_kernel():
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


def test_no_cyclic_garbage(package_garbage):
    assert package_garbage(_every_kernel) == Counter()


def test_a_record_that_captures_itself_is_cyclic_garbage(package_garbage):
    def body():
        state = collapsing_initial_state(1.0, 1.0, 1.0, 16)
        state.hook = lambda: state

    def foreign():
        loop = []
        loop.append(loop)

    assert package_garbage(body)["StringState"] == 1
    assert package_garbage(foreign) == Counter()  # cyclic, but not the package's
