"""Acceptance criteria: closed-form reproduction of the analytic scenarios.

Each test prints one pass line with its runtime; run with ``pytest -s`` to see
them.  Tolerances are pinned here and must not be loosened to make a failing
criterion pass.
"""

import time

import numpy as np
import pytest

from worldsheet import catalog
from worldsheet.boundary import (
    boundary_condition_residual,
    boundary_data,
    boundary_laplacian_residuals,
    edge_equation_residual,
)
from worldsheet.dynamics import (
    SimulationConfig,
    diagnostics,
    evolve,
    rotating_orbit_omega,
)
from worldsheet.geometry import extrinsic_curvature
from worldsheet.integrability import (
    boundary_integrability_residuals,
    direct_embedding_residuals,
    worldsheet_integrability_residuals,
)
from worldsheet.variation import first_variation_analytic

from helpers import random_deformation, random_points, richardson_variation

HELICOID = catalog.helicoid(0.5, 1.0)
PLANE = catalog.plane()
COLLAPSE = catalog.collapsing_string(1.0, 1.0)
HOLE = catalog.planar_hole(2.0)
SPHERE = catalog.sphere(2.0)
TORUS = catalog.flat_torus(1.0, 1.0)
DISK = catalog.euclidean_disk(1.0)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"PASS {self.name} ({elapsed:.2f}s)")
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its runtime budget: {elapsed:.1f}s")
        return False


def test_criterion_01_extremality_of_solutions():
    with Budget("criterion 1: vanishing curvature traces on the analytic sheets", 1.0):
        for entry in (HELICOID, COLLAPSE):
            pts = random_points(entry, 100, seed=17)
            traces = extrinsic_curvature(entry.embedding, pts).traces
            assert np.max(np.abs(traces)) < 1e-9


def test_criterion_02_edge_law():
    with Budget("criterion 2: edge equation of motion on orbit and hole", 1.0):
        bd = boundary_data(HELICOID.boundary, HELICOID.boundary_grid(25))
        assert np.max(np.abs(edge_equation_residual(bd, 1.0, 3.0))) < 1e-9
        bd_hole = boundary_data(HOLE.boundary, HOLE.boundary_grid(5))
        assert np.max(np.abs(edge_equation_residual(bd_hole, 1.0, 2.0))) < 1e-9


def test_criterion_03_boundary_conditions():
    with Budget("criterion 3: projected-trace boundary conditions", 1.0):
        res = boundary_condition_residual(HELICOID.boundary,
                                          HELICOID.boundary_grid(25))
        assert np.max(np.abs(res)) < 1e-9
        for entry in (PLANE, COLLAPSE):
            for att in entry.boundaries:
                flat = boundary_condition_residual(att, entry.boundary_grid(9))
                assert np.all(flat == 0.0)


def test_criterion_04_form_equivalence():
    with Budget("criterion 4: projection and edge-Laplacian forms agree", 1.0):
        entries = (PLANE, HELICOID, COLLAPSE, HOLE, DISK,
                   catalog.euclidean_plane_hole(2.0))
        for entry in entries:
            mu0 = entry.parameters.get("mu0", 1.0)
            mub = entry.parameters.get("mub", 1.0)
            for att in entry.boundaries:
                u = entry.boundary_grid(5)
                proj = boundary_condition_residual(att, u)
                lap = boundary_laplacian_residuals(att, u, mu0, mub)
                assert np.max(np.abs(proj - lap.normal)) < 1e-8
                assert np.max(np.abs(proj + lap.normal)) < 1e-8


def test_criterion_05_integrability_suite():
    with Budget("criterion 5: integrability residuals at all three levels", 30.0):
        step = 1e-4
        cases = [(PLANE, (0.4, 0.5)), (SPHERE, (1.1, 0.4)), (TORUS, (0.7, 1.3)),
                 (HELICOID, (0.8, 0.5)), (HOLE, (0.3, 1.1, 2.7))]
        for entry, point in cases:
            p = np.array(point)
            res = worldsheet_integrability_residuals(entry.embedding, p, step)
            assert res.max() < 1e-6, entry.id
            for att in entry.boundaries:
                u = entry.boundary_grid(3)[:2]
                g, c = boundary_integrability_residuals(att, u, step)
                assert max(np.max(g), np.max(c)) < 1e-6, entry.id
                direct = direct_embedding_residuals(att, u, step)
                assert direct.max() < 1e-6, entry.id
        # convergence order, measured where the truncation error is resolvable
        for entry, point in ((SPHERE, (1.1, 0.4)), (HELICOID, (0.8, 0.5)),
                             (HOLE, (0.3, 1.1, 2.7))):
            p = np.array(point)
            r1 = worldsheet_integrability_residuals(entry.embedding, p, 2e-3)
            r2 = worldsheet_integrability_residuals(entry.embedding, p, 1e-3)
            for big, small in ((r1.gauss_codazzi, r2.gauss_codazzi),
                               (r1.codazzi_mainardi, r2.codazzi_mainardi)):
                if float(small) < 1e-11:
                    continue
                assert np.log2(float(big) / float(small)) > 1.8, entry.id


def test_criterion_06_variational_identities():
    with Budget("criterion 6: analytic vs finite-difference first variations", 60.0):
        eps = 1e-2
        tol = max(1e-6, 10.0 * eps * eps)
        configs = [
            (PLANE, 1.0, 0.7, (64, 64)),
            (HELICOID, 1.0, 3.0, (64, 64)),
            (DISK, 1.0, 0.5, (64, 64)),
        ]
        for entry, mu0, mub, counts in configs:
            cfg, edges = catalog.action_setup(entry, mu0, mub, counts)
            for seed in range(5):
                defo = random_deformation(entry, seed=seed)
                ana = first_variation_analytic(entry.embedding, edges, cfg, defo)
                fd = richardson_variation(entry.embedding, edges, cfg, defo, eps)
                assert abs(fd - ana) < tol, (entry.id, seed, fd, ana)
                if entry is HELICOID:
                    # exact stationarity of the rotating-orbit solution
                    assert abs(ana) < 1e-10


def test_criterion_07_endpoint_law_in_dynamics():
    with Budget("criterion 7: constant endpoint pull, directed inward", 60.0):
        period = 2.0 * np.pi / 0.5
        runs = [
            (SimulationConfig(
                initial_data={"id": "rotating", "mu0": 1.0, "mub": 3.0, "radius": 1.0},
                duration=3.0 * period, grid_points=200, output_stride=50), 1.0 / 3.0),
            (SimulationConfig(
                initial_data={"id": "collapsing", "mu0": 1.0, "mub": 1.0, "x0": 1.0},
                duration=0.5, grid_points=200, output_stride=10,
                constraint_tol=2e-3), 1.0),
        ]
        for cfg, expected in runs:
            traj = evolve(cfg)
            for s in traj.snapshots[1:]:
                d = diagnostics(s)
                for ep in d.endpoints:
                    assert abs(ep.acceleration_magnitude - expected) < 1e-3
                    assert ep.direction_angle < 1e-3


def test_criterion_08_collapsing_trajectory():
    with Budget("criterion 8: endpoint worldline matches the closed form", 60.0):
        errors = {}
        for m in (200, 400):
            cfg = SimulationConfig(
                initial_data={"id": "collapsing", "mu0": 1.0, "mub": 1.0, "x0": 1.0},
                duration=0.5, grid_points=m, output_stride=10, constraint_tol=2e-3)
            traj = evolve(cfg)
            errs = []
            for s in traj.snapshots[1:]:
                t = s.positions[-1][0]
                x = s.positions[-1][1]
                exact = catalog.endpoint_worldline(1.0, 1.0, t)
                errs.append(abs(x - exact) / abs(exact))
            errors[m] = max(errs)
        assert errors[200] < 1e-3
        assert max(errors.values()) < 1e-12  # the ends move on exact hyperbolas
        # the order shows where interior truncation reaches an end: the radius
        # of a rotating string's endpoint over one period
        radius_errors = {}
        for m in (100, 200):
            cfg = SimulationConfig(
                initial_data={"id": "rotating", "mu0": 1.0, "mub": 3.0, "radius": 1.0},
                duration=2.0 * np.pi / 0.5, grid_points=m)
            radius_errors[m] = max(abs(np.linalg.norm(s.positions[-1][1:]) - 1.0)
                                   for s in evolve(cfg).snapshots)
        assert radius_errors[100] / radius_errors[200] > 3.0


def test_criterion_09_rotating_orbit_persistence():
    with Budget("criterion 9: circular orbit and charge conservation", 120.0):
        period = 2.0 * np.pi / 0.5
        cfg = SimulationConfig(
            initial_data={"id": "rotating", "mu0": 1.0, "mub": 3.0, "radius": 1.0},
            duration=3.0 * period, grid_points=200, output_stride=50)
        traj = evolve(cfg)
        e0 = diagnostics(traj.snapshots[0]).total_energy
        for s in traj.snapshots[1:]:
            radius = np.linalg.norm(s.positions[-1][1:])
            assert abs(radius - 1.0) < 0.01  # < 1% per revolution over 3 revs
            energy = diagnostics(s).total_energy
            assert abs(energy - e0) / e0 < 1e-3


def test_criterion_10_critical_radius_scan():
    with Budget("criterion 10: edge-law sign change brackets the critical radius", 10.0):
        mu0, mub = 1.0, 2.0
        rhos = np.linspace(1.0, 4.0, 31)
        residuals = []
        for rho in rhos:
            bd = boundary_data(catalog.planar_hole(float(rho)).boundary,
                               np.array([0.0, 0.0]))
            residuals.append(float(edge_equation_residual(bd, mu0, mub)))
        signs = np.sign(residuals)
        crossings = [(rhos[i], rhos[i + 1]) for i in range(len(signs) - 1)
                     if signs[i] != signs[i + 1]]
        assert crossings
        lo, hi = crossings[0]
        assert lo <= mub / mu0 <= hi
        assert hi - lo <= (rhos[1] - rhos[0]) + 1e-12


def test_criterion_11_orbit_relation_limits():
    with Budget("criterion 11: orbit relation stays subluminal, null limit", 1.0):
        for q in np.logspace(-3, 6, 50):
            assert rotating_orbit_omega(q, 1.0, 1.0) < 1.0
        assert abs(1.0 - rotating_orbit_omega(1e6, 1.0, 1.0)) < 1e-6
