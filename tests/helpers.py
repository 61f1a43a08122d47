"""Shared fixtures for the residual and variation test suites."""

import numpy as np

from worldsheet import catalog
from worldsheet.geometry import Embedding
from worldsheet.variation import DeformationField, first_variation_fd


def fd_only_twin(emb: Embedding, fd_step: float = 1e-5) -> Embedding:
    """Same map but with all derivatives taken by finite differences."""
    return Embedding(emb.worldsheet_dim, emb.background, emb.position_fn,
                     fd_step=fd_step)


def random_points(entry, count, seed):
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, hi in entry.sample_box])
    highs = np.array([hi for lo, hi in entry.sample_box])
    return lows + (highs - lows) * rng.random((count, len(lows)))


def random_deformation(entry, seed, amplitude=0.4):
    """Smooth random deformation adapted to the entry's domain topology.

    Periodic axes get trigonometric modes; the time axis is cap-windowed.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=8) * amplitude
    d = entry.embedding.worldsheet_dim
    k = entry.embedding.codimension
    periodic = entry.periodic or (False,) * d
    time_extent = None if periodic[0] else tuple(map(float, entry.domain[0]))

    def mode(x, c0, c1, freq):
        return c0 * np.sin(freq * x) + c1 * np.cos(freq * x)

    def tangential(xi):
        comps = [mode(xi[..., 0], a[0], a[1], 2.0) + a[2] * xi[..., -1]
                 for _ in range(1)]
        comps.append(a[3] * np.cos(xi[..., 0]) * xi[..., -1])
        while len(comps) < d:
            comps.append(np.zeros(xi.shape[:-1]))
        return np.stack(comps[:d], axis=-1)

    def normal(xi):
        base = mode(xi[..., 0], a[4], a[5], 2.0) + a[6] * np.cos(3.0 * xi[..., -1])
        return np.repeat(base[..., None], k, axis=-1) / max(k, 1)

    # closed edges need a periodic displacement; open ones are cap-windowed
    edge_freq = 2.0 if periodic[0] else 1.7

    def boundary_normal(u):
        return a[7] * np.sin(edge_freq * u[..., 0]) + 0.3 * a[4]

    return DeformationField(
        tangential_fn=tangential,
        normal_fn=normal,
        boundary_normal_fns=boundary_normal,
        time_extent=time_extent,
    )


def curved_hole_edge():
    """Edge r = 2 + 0.3 sin(phi) + 0.1 t^2 over the hole sheet: a 2D edge with curvature."""
    def level(u):
        return 2.0 + 0.3 * np.sin(u[..., 1]) + 0.1 * u[..., 0] ** 2

    def d_level(u):
        return np.stack([0.2 * u[..., 0], 0.3 * np.cos(u[..., 1])], axis=-1)

    def dd_level(u):
        z = np.zeros_like(u[..., 0])
        return np.stack([np.stack([0.2 + z, z], axis=-1),
                         np.stack([z, -0.3 * np.sin(u[..., 1])], axis=-1)], axis=-2)

    return catalog._graph_boundary(catalog.planar_hole(2.0).embedding, level, d_level, dd_level,
                                   np.array([0.0, 0.0, -1.0]))


def richardson_variation(emb, edges, cfg, defo, eps):
    f1 = first_variation_fd(emb, edges, cfg, defo, eps)
    f2 = first_variation_fd(emb, edges, cfg, defo, eps / 2.0)
    return (4.0 * f2 - f1) / 3.0
