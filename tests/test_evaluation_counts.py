"""Each kernel evaluates the map, the metric and the rank SVD once per point batch."""

import numpy as np
import pytest

from worldsheet import catalog
from worldsheet.background import BackgroundMetric
from worldsheet.boundary import boundary_data
from worldsheet.geometry import Embedding, extrinsic_curvature, frame

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
