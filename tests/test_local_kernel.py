"""The closed forms of the local kernel agree with the LAPACK and Gram-Schmidt results.

Each property pins one closed form of ``geometry`` to the reference it
replaced, which is kept here only: the D = 2 rank decision to the SVD's, the
cofactor det and inverse to ``np.linalg``, the Descartes count of negative
eigenvalues to ``eigvalsh``, and the Hodge normal of the sheet and of the
edge to the Gram-Schmidt gauge, sign included.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from worldsheet import catalog
from worldsheet.background import LORENTZIAN, BackgroundMetric
from worldsheet.boundary import _pullback_metric, boundary_data
from worldsheet.errors import DegenerateImmersion
from worldsheet.geometry import (
    _det_adjugate,
    _frame_at,
    _gram_schmidt_normals,
    _inverse,
    _negative_eigenvalues,
    _projected_seeds,
    _rank_checked_scale,
)

from helpers import random_points

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


def svd_rank_decision(e):
    """(full rank, s_max) as the SVD decides it: s_min / s_max > 1e-10."""
    s = np.linalg.svd(e, compute_uv=False)
    return bool(s[-1] > 1e-10 * s[0]), s[0]


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 5))
def test_rank_decision_equals_the_svd(seed, n):
    """Random N x 2 maps with s_min / s_max from 3e-4 down to 3e-15, around the 1e-10 cut."""
    rng = np.random.default_rng(seed)
    for ratio in np.exp(rng.uniform(np.log(3e-15), np.log(3e-4), 50)):
        u = np.linalg.qr(rng.standard_normal((n, 2)))[0]
        v = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        e = 10.0 ** rng.uniform(-3, 3) * (u * [1.0, ratio]) @ v.T
        full_rank, s_max = svd_rank_decision(e)
        if full_rank:
            assert _rank_checked_scale(e) == pytest.approx(s_max, rel=1e-14)
        else:
            with pytest.raises(DegenerateImmersion):
                _rank_checked_scale(e)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3))
def test_det_and_inverse_equal_lapack(seed, d):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((256, d, d)) * 10.0 ** rng.uniform(-3, 3, (256, 1, 1))
    m = m[np.linalg.cond(m) < 1e3]
    det, adj = _det_adjugate(m)
    ref = np.linalg.det(m)
    assert np.all(np.abs(det - ref) <= 1e-12 * np.abs(ref))
    inv, ref_inv = _inverse(m, det, adj), np.linalg.inv(m)
    scale = np.max(np.abs(ref_inv), axis=(-1, -2), keepdims=True)
    assert np.all(np.abs(inv - ref_inv) <= 1e-12 * scale)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3))
def test_negative_eigenvalue_count_equals_eigvalsh(seed, d):
    """Random nonsingular symmetric matrices, eigenvalues of either sign from 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((256, d, d)))[0]
    lam = rng.choice([-1.0, 1.0], (256, d)) * 10.0 ** rng.uniform(-3, 3, (256, d))
    m = q @ (lam[..., None] * np.swapaxes(q, -1, -2))
    m = 0.5 * (m + np.swapaxes(m, -1, -2))
    det, adj = _det_adjugate(m)
    assert np.array_equal(_negative_eigenvalues(m, det, adj),
                          np.sum(np.linalg.eigvalsh(m) < 0, axis=-1))


def sheared(entry):
    """The entry on a curved-branch background: a constant non-diagonal Lorentzian metric."""
    g = np.diag([-1.0, 1.0, 1.0]) + 0.1 * np.array([[0.0, 1.0, 0.5],
                                                   [1.0, 0.5, -0.3],
                                                   [0.5, -0.3, 0.0]])

    def metric(x):
        return np.broadcast_to(g, x.shape[:-1] + (3, 3)).copy()

    background = BackgroundMetric(3, LORENTZIAN, metric,
                                  lambda x: np.zeros(x.shape[:-1] + (3, 3, 3)))
    return dataclasses.replace(entry, embedding=dataclasses.replace(entry.embedding,
                                                                    background=background))


ONE_NORMAL = [catalog.entry_from_id(i) for i in catalog.catalog_ids()
              if catalog.entry_from_id(i).embedding.codimension == 1]
SHEETS = {entry.id: entry for entry in ONE_NORMAL} | {"sheared_helicoid": sheared(
    catalog.helicoid(0.5, 1.0))}
EDGES = {f"{entry.id}-{index}": edge for entry in ONE_NORMAL
         for index, edge in enumerate(entry.boundaries)}


@PROPERTY
@given(name=st.sampled_from(sorted(SHEETS)), seed=st.integers(0, 2**32 - 1))
def test_hodge_normal_equals_the_gram_schmidt_gauge(name, seed):
    entry = SHEETS[name]
    fr = _frame_at(entry.embedding, random_points(entry, 64, seed))
    ref, found = _gram_schmidt_normals(
        fr.g, _projected_seeds(fr.g, fr.tangents, fr.induced_metric_inverse), 1)
    assert np.all(found == 1)
    assert np.max(np.abs(fr.normals - ref)) <= 1e-14


def edge_points(edge, count, seed):
    """Random boundary points: the first coordinate over the entry's edge range."""
    rng = np.random.default_rng(seed)
    entry = next(e for e in ONE_NORMAL if edge in e.boundaries)
    lo, hi = entry.sample_box[0]
    u = rng.uniform(0.3, 5.9, (count, edge.boundary_dim))
    u[:, 0] = rng.uniform(lo, hi, count)
    return u


@PROPERTY
@given(name=st.sampled_from(sorted(EDGES)), seed=st.integers(0, 2**32 - 1))
def test_edge_hodge_normal_equals_the_gram_schmidt_eta(name, seed):
    """eta is the Gram-Schmidt normal oriented so that sign det[eps, eta] = orientation."""
    edge = EDGES[name]
    u = edge_points(edge, 32, seed)
    fr = _frame_at(edge.parent, edge.chi(u))
    eps, gamma = edge.d_chi(u), fr.induced_metric
    _, h_inv = _pullback_metric(edge, gamma, eps)
    ref, found = _gram_schmidt_normals(gamma, _projected_seeds(gamma, eps, h_inv), 1)
    assert np.all(found == 1)
    ref = ref * (edge.orientation
                 * np.sign(np.linalg.det(np.concatenate([eps, ref], axis=-1))))[..., None, None]
    assert np.max(np.abs(boundary_data(edge, u).normal_in_m - ref[..., 0])) <= 1e-14
