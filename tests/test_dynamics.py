"""String evolution with massive endpoints: closed-form worldlines and charges."""

import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from worldsheet import dynamics
from worldsheet.catalog import collision_time, endpoint_worldline
from worldsheet.dynamics import (
    EndpointState,
    SimulationConfig,
    Tensions,
    collapsing_initial_state,
    constraint_norms,
    diagnostics,
    evolve,
    initial_state_from_config,
    rotating_initial_state,
    rotating_orbit_omega,
    step,
)
from worldsheet.errors import ConstraintBlowup, EndpointCollision, InvalidParameters

from helpers import (
    batched_advance_endpoints,
    batched_edge_eta,
    batched_edge_tangents,
    batched_mdot,
    batched_normalize_timelike,
)

COLLAPSE = {"id": "collapsing", "mu0": 1.0, "mub": 1.0, "x0": 1.0}
ROTATING = {"id": "rotating", "mu0": 1.0, "mub": 3.0, "radius": 1.0}


def collapse_config(**kw):
    base = dict(initial_data=COLLAPSE, duration=0.5, grid_points=200,
                output_stride=10, constraint_tol=2e-3)
    base.update(kw)
    return SimulationConfig(**base)


def endpoint_errors(traj, a=1.0, x0=1.0):
    errs = []
    for s in traj.snapshots[1:]:
        t, x = s.positions[-1, :2]
        exact = endpoint_worldline(a, x0, t)
        errs.append(abs(x - exact) / abs(exact))
    return errs


class TestOrbitRelation:
    def test_reference_value(self):
        assert rotating_orbit_omega(1.0, 3.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_and_subluminal(self):
        ratios = np.logspace(-2, 6, 40)
        omegas = [rotating_orbit_omega(q, 1.0, 1.0) for q in ratios]
        assert all(b > a for a, b in zip(omegas, omegas[1:]))
        assert all(w < 1.0 for w in omegas)

    @settings(derandomize=True, max_examples=50)
    @given(q=st.floats(1e-3, 1e3), q_larger=st.floats(1e-3, 1e3),
           radius=st.floats(0.2, 5.0))
    def test_subluminal_and_increasing_property(self, q, q_larger, radius):
        assume(q_larger > 1.001 * q)
        w = rotating_orbit_omega(q, 1.0, radius)
        assert w * radius < 1.0
        assert rotating_orbit_omega(q_larger, 1.0, radius) > w

    def test_tensionless_and_massless_limits(self):
        assert rotating_orbit_omega(1e-12, 1.0, 1.0) < 1e-5
        assert 1.0 - rotating_orbit_omega(1e6, 1.0, 1.0) < 1e-6

    def test_oracle_against_edge_equation(self):
        # the root makes the geometric edge law vanish on the matching sheet
        from worldsheet.boundary import boundary_data, edge_equation_residual
        from worldsheet.catalog import helicoid
        w = rotating_orbit_omega(0.7, 2.0, 1.0)
        bd = boundary_data(helicoid(w, 1.0).boundary, np.array([0.3]))
        assert abs(float(edge_equation_residual(bd, 0.7, 2.0))) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameters):
            rotating_orbit_omega(-1.0, 1.0, 1.0)


class TestConfigValidation:
    def test_minimum_grid(self):
        with pytest.raises(InvalidParameters):
            SimulationConfig(initial_data=COLLAPSE, duration=1.0, grid_points=8)

    def test_cfl(self):
        with pytest.raises(InvalidParameters):
            SimulationConfig(initial_data=COLLAPSE, duration=1.0, dt_fraction=1.5)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_duration(self, duration):
        with pytest.raises(InvalidParameters):
            SimulationConfig(initial_data=COLLAPSE, duration=duration)

    @pytest.mark.parametrize("change", [{"constraint_tol": 0.0}, {"output_stride": 0}],
                             ids=["zero_constraint_tol", "zero_output_stride"])
    def test_constraint_tolerance_and_stride(self, change):
        with pytest.raises(InvalidParameters,
                           match="bad constraint tolerance or output stride"):
            SimulationConfig(initial_data=COLLAPSE, duration=1.0, **change)

    @pytest.mark.parametrize("change", [
        {"constraint_tol": float("nan")},  # would raise ConstraintBlowup at step 1
        {"constraint_tol": float("inf")},
        {"grid_points": 32.5},
        {"output_stride": 2.5},
        {"output_stride": float("inf")},
        {"output_stride": True},
    ], ids=["nan_constraint_tol", "inf_constraint_tol", "fractional_grid_points",
            "fractional_output_stride", "inf_output_stride", "bool_output_stride"])
    def test_out_of_scope_value_rejected(self, change):
        with pytest.raises(InvalidParameters):
            SimulationConfig(initial_data=COLLAPSE, duration=1.0, **change)

    def test_unknown_initial_keys(self):
        cfg = SimulationConfig(initial_data={"id": "collapsing", "bogus": 1.0},
                               duration=0.1)
        with pytest.raises(InvalidParameters):
            initial_state_from_config(cfg)

    def test_tensions_validated(self):
        with pytest.raises(InvalidParameters):
            Tensions(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("build", [
        lambda v: Tensions(v, 1.0, 1.0),
        lambda v: Tensions(1.0, v, 1.0),
        lambda v: Tensions(1.0, 1.0, v),
        lambda v: rotating_orbit_omega(v, 3.0, 1.0),
        lambda v: rotating_orbit_omega(1.0, v, 1.0),
        lambda v: rotating_orbit_omega(1.0, 3.0, v),
        lambda v: collapsing_initial_state(v, 1.0, 1.0, 32),
        lambda v: collapsing_initial_state(1.0, v, 1.0, 32),
        lambda v: collapsing_initial_state(1.0, 1.0, v, 32),
        lambda v: collapsing_initial_state(1.0, 1.0, 1.0, 32, mub_left=v),
        lambda v: collapsing_initial_state(1.0, 1.0, 1.0, 32, mub_right=v),
    ], ids=["tensions_mu0", "tensions_mub_left", "tensions_mub_right", "omega_mu0",
            "omega_mub", "omega_radius", "collapsing_mu0", "collapsing_mub",
            "collapsing_x0", "collapsing_mub_left", "collapsing_mub_right"])
    def test_non_finite_parameter_rejected(self, build, value):
        # NaN fails every range comparison, so each slot needs a finiteness check
        with pytest.raises(InvalidParameters):
            build(value)


class TestStaticString:
    # the smallest subnormal pull underflows to no bending over a step
    @pytest.mark.parametrize("mu0", [0.0, 5e-324], ids=["no_pull", "underflowing_pull"])
    def test_force_free_state_is_fixed(self, mu0):
        cfg = SimulationConfig(initial_data={"id": "collapsing", "mu0": mu0,
                                             "mub": 1.0, "x0": 1.0},
                               duration=1.0, grid_points=32, output_stride=10)
        traj = evolve(cfg)
        init = initial_state_from_config(cfg)
        drift = np.max(np.abs(traj.final.positions[:, 1:] - init.positions[:, 1:]))
        assert drift < 1e-12
        assert diagnostics(traj.final).total_energy == pytest.approx(2.0)


class TestCollapsingString:
    def test_endpoint_tracks_hyperbola(self):
        traj = evolve(collapse_config())
        assert max(endpoint_errors(traj)) < 1e-3

    def test_endpoint_worldline_is_exact(self):
        # the straight string keeps each end on its hyperbola, which a step takes exactly
        for m in (200, 400):
            cfg = collapse_config(grid_points=m, output_stride=m // 20)
            assert max(endpoint_errors(evolve(cfg))) < 1e-12

    @pytest.mark.parametrize("mubs", [(1.0, 1.0), (2.0, 0.7)], ids=["equal", "unequal"])
    def test_proper_time_matches_hyperbola(self, mubs):
        # an end at rest at t = 0 under pull a reaches lab time t = sinh(a tau) / a
        cfg = SimulationConfig(
            initial_data=dict(COLLAPSE, mub_left=mubs[0], mub_right=mubs[1]),
            duration=0.5, grid_points=200, output_stride=10, constraint_tol=2e-3)
        for s in evolve(cfg).snapshots[1:]:
            for t, ep, mub in zip(s.positions[[0, -1], 0], s.endpoints, mubs):
                a = 1.0 / mub
                assert abs(ep.proper_time - np.arcsinh(a * t) / a) < 1e-12

    def test_left_right_symmetry(self):
        traj = evolve(collapse_config())
        left, right = traj.final.positions[[0, -1]]
        assert left[1] == pytest.approx(-right[1], abs=1e-12)

    def test_midflight_position_and_speed(self):
        # around lab time 1 the right endpoint sits at x0 - (sqrt(2) - 1)
        # moving inward at speed 1/sqrt(2)
        traj = evolve(collapse_config(duration=3.2, output_stride=5))
        checked = 0
        for s in traj.snapshots:
            ep = s.endpoints[1]
            t, x = s.positions[-1, :2]
            if not 0.9 <= t <= 1.1:
                continue
            checked += 1
            assert abs(x - endpoint_worldline(1.0, 1.0, t)) < 1e-6
            speed = abs(ep.four_velocity[1] / ep.four_velocity[0])
            assert abs(speed - t / np.sqrt(1.0 + t * t)) < 1e-6
        assert checked > 0

    def test_unequal_endpoint_masses(self):
        # heavier left end: each endpoint follows its own hyperbola
        cfg = SimulationConfig(
            initial_data={"id": "collapsing", "mu0": 1.0, "mub": 1.0,
                          "mub_left": 2.0, "x0": 1.0},
            duration=0.5, grid_points=200, output_stride=10, constraint_tol=2e-3)
        traj = evolve(cfg)
        for s in traj.snapshots[1:]:
            left, right = s.positions[[0, -1]]
            t_l, t_r = left[0], right[0]
            assert abs(left[1] + endpoint_worldline(0.5, 1.0, t_l)) < 1e-6
            assert abs(right[1] - endpoint_worldline(1.0, 1.0, t_r)) < 1e-6
        d = diagnostics(traj.final)
        assert abs(d.endpoints[0].acceleration_magnitude - 0.5) < 1e-3
        assert abs(d.endpoints[1].acceleration_magnitude - 1.0) < 1e-3

    def test_four_velocity_normalization_held(self):
        traj = evolve(collapse_config())
        for s in traj.snapshots:
            for ep in s.endpoints:
                u = ep.four_velocity
                norm = -u[0] ** 2 + np.sum(u[1:] ** 2)
                assert abs(norm + 1.0) < 1e-9

    def test_collision_event_and_time(self):
        cfg = collapse_config(duration=10.0, output_stride=100)
        traj = evolve(cfg)
        assert traj.terminal_event == "endpoint_collision"
        t_lab = traj.final.positions[-1, 0]
        t_exact = collision_time(1.0, 1.0)
        assert abs(t_lab - t_exact) / t_exact < 0.05

    def test_endpoint_law_magnitude_and_direction(self):
        traj = evolve(collapse_config())
        for s in traj.snapshots[1:]:
            d = diagnostics(s)
            for ep in d.endpoints:
                assert abs(ep.acceleration_magnitude - 1.0) < 1e-3
                assert ep.direction_angle < 1e-10

    def test_force_free_ends_report_no_direction(self):
        # mu0 = 0: the ends move freely, so the measured acceleration is exactly zero
        traj = evolve(collapse_config(initial_data=dict(COLLAPSE, mu0=0.0), grid_points=32,
                                      duration=0.2, output_stride=1))
        assert len(traj.snapshots) > 2
        for s in traj.snapshots[1:]:
            for ep in diagnostics(s).endpoints:
                assert ep.acceleration_magnitude == 0.0
                assert ep.direction_angle is None

    def test_time_reversal_retraces(self):
        cfg = collapse_config(grid_points=256, output_stride=1)
        state = initial_state_from_config(cfg)
        x_init = state.positions.copy()
        for _ in range(128):
            state = step(state, cfg)
        state.velocities = -state.velocities
        for ep in state.endpoints:
            ep.four_velocity = -ep.four_velocity
        for _ in range(128):
            state = step(state, cfg)
        assert np.max(np.abs(state.positions - x_init)) < 1e-6


@pytest.fixture(scope="module")
def orbit_trajectory():
    period = 2.0 * np.pi / 0.5
    cfg = SimulationConfig(initial_data=ROTATING, duration=3.0 * period,
                           grid_points=200, output_stride=50)
    return evolve(cfg)


@pytest.mark.parametrize("theta", [0.3, 0.8, 1.2])
def test_direction_angle_is_taken_at_the_step_midpoint(theta):
    # from rest to rapidity phi along x over dtau: u_mid = (cosh, sinh)(phi/2) and the
    # measured acceleration is 2 sinh(phi/2)/dtau along e1 = (sinh, cosh)(phi/2).  A unit
    # edge tangent at angle theta from -e1, tilted out of the (t, x) plane, is already
    # orthogonal to u_mid, so the angle is theta; at any other u it is not.
    phi, dtau = 0.5, 0.1
    e1 = np.array([np.sinh(phi / 2), np.cosh(phi / 2), 0.0])
    tangent = -(np.cos(theta) * e1 + np.sin(theta) * np.array([0.0, 0.0, 1.0]))
    end = EndpointState(np.array([np.cosh(phi), np.sinh(phi), 0.0]), dtau,
                        np.array([1.0, 0.0, 0.0]), 0.0, tangent)
    state = dataclasses.replace(collapsing_initial_state(1.0, 1.0, 1.0, 16),
                                endpoints=(end, end))
    for ep in diagnostics(state).endpoints:
        assert ep.acceleration_magnitude == pytest.approx(2.0 * np.sinh(phi / 2) / dtau,
                                                          rel=1e-12)
        assert ep.direction_angle == pytest.approx(theta, abs=1e-12)


@pytest.mark.parametrize("mu0,mub,radius", [(1.0, 3.0, 1.0), (1.1, 2.5, 0.9)])
def test_rotating_charges_match_closed_form(mu0, mub, radius):
    # bulk terms from the profile sin(w sigma)/w, endpoint terms mub gamma (1, wR)
    w = rotating_orbit_omega(mu0, mub, radius)
    wr = w * radius
    gamma = 1.0 / np.sqrt(1.0 - wr**2)
    j = (mu0 / w**2 * (np.arcsin(wr) - wr * np.sqrt(1.0 - wr**2))
         + 2.0 * mub * wr * radius * gamma)
    e = 2.0 * mu0 * np.arcsin(wr) / w + 2.0 * mub * gamma
    d = diagnostics(rotating_initial_state(mu0, mub, radius, 200))
    assert abs(d.angular_momentum - j) < 1e-4  # trapezoid error, second order in dsigma
    assert abs(d.total_energy - e) < 1e-12


class TestRotatingOrbit:
    def test_orbit_persists(self, orbit_trajectory):
        radii = [np.linalg.norm(s.positions[-1, 1:])
                 for s in orbit_trajectory.snapshots]
        assert max(abs(r - 1.0) for r in radii) < 0.01 / 3.0  # < 1% per revolution

    def test_energy_and_angular_momentum_conserved(self, orbit_trajectory):
        d0 = diagnostics(orbit_trajectory.snapshots[0])
        sigma_star = np.arcsin(0.5) / 0.5
        expected_e = 2.0 * sigma_star + 2.0 * 3.0 / np.sqrt(0.75)
        assert d0.total_energy == pytest.approx(expected_e, rel=1e-4)
        for s in orbit_trajectory.snapshots[1:]:
            d = diagnostics(s)
            assert abs(d.total_energy - d0.total_energy) / d0.total_energy < 1e-3
            assert abs(d.angular_momentum - d0.angular_momentum) < 1e-3

    def test_endpoint_law_along_orbit(self, orbit_trajectory):
        for s in orbit_trajectory.snapshots[1:]:
            d = diagnostics(s)
            for ep in d.endpoints:
                assert abs(ep.acceleration_magnitude - 1.0 / 3.0) < 1e-3
                assert ep.direction_angle < 1e-3

    def test_constraints_stay_small_with_bounded_growth(self, orbit_trajectory):
        snaps = orbit_trajectory.snapshots
        norms = [max(constraint_norms(s)) for s in snaps]
        assert max(norms) < 1e-4
        t0, t1 = snaps[1].time, snaps[-1].time
        slope = (norms[-1] - norms[1]) / (t1 - t0)
        assert slope < 1e-5


def _nominal_times(config, state, snapshots):
    """Snapshot k of a stride-s run is stored after step k s, the last after the final step."""
    dt = config.dt_fraction * state.dsigma
    n_steps = int(round(config.duration / dt))
    return [min(k * config.output_stride, n_steps) * dt for k in range(len(snapshots))]


class TestExactRotatingString:
    """Every node of one period against X = (t, f cos wt, f sin wt), f = sin(w sigma)/w."""

    @staticmethod
    def max_node_error(grid_points):
        w = rotating_orbit_omega(ROTATING["mu0"], ROTATING["mub"], ROTATING["radius"])
        config = SimulationConfig(initial_data=ROTATING, grid_points=grid_points,
                                  duration=2.0 * np.pi / w, output_stride=10)
        state = initial_state_from_config(config)
        sigma_max = np.arcsin(w * ROTATING["radius"]) / w
        f = np.sin(w * np.linspace(-sigma_max, sigma_max, grid_points)) / w
        snapshots = evolve(config).snapshots
        assert len(snapshots) == 2 + 12 * (grid_points - 1) // 10  # one period: 12 (M-1) steps
        err = 0.0
        for snap, t in zip(snapshots, _nominal_times(config, state, snapshots)):
            exact = np.stack([np.full_like(f, t), f * np.cos(w * t), f * np.sin(w * t)], axis=1)
            err = max(err, float(np.max(np.abs(snap.positions - exact))))
        return err

    def test_every_node_converges_at_second_order(self):
        coarse, fine = self.max_node_error(50), self.max_node_error(100)
        assert coarse < 1.6e-3 and fine < 4.0e-4  # measured 1.47e-3 and 3.56e-4
        assert 3.5 < coarse / fine < 4.5

    @pytest.mark.parametrize("initial", [ROTATING, COLLAPSE], ids=["rotating", "collapsing"])
    @pytest.mark.parametrize("stride", [1, 3, 7])
    def test_snapshot_k_is_stored_at_step_k_times_stride(self, initial, stride):
        config = SimulationConfig(initial_data=initial, grid_points=16, duration=1.0,
                                  output_stride=stride, constraint_tol=2e-3)
        state = initial_state_from_config(config)
        snapshots = evolve(config).snapshots
        n_steps = int(round(config.duration / (config.dt_fraction * state.dsigma)))
        assert len(snapshots) == 1 + -(-n_steps // stride)
        assert [s.time for s in snapshots] == pytest.approx(
            _nominal_times(config, state, snapshots), rel=1e-12, abs=0.0)


class TestTerminalEvents:
    def test_zero_duration_single_snapshot(self):
        cfg = collapse_config(duration=0.0)
        traj = evolve(cfg)
        assert len(traj.snapshots) == 1
        assert traj.terminal_event == "duration"

    def test_constraint_blowup_raises_with_partial_trajectory(self):
        cfg = collapse_config(grid_points=32, constraint_tol=1e-7, output_stride=1)
        with pytest.raises(ConstraintBlowup) as err:
            evolve(cfg)
        assert err.value.trajectory.snapshots

    @pytest.mark.parametrize("where", ["interior_node", "endpoint_four_velocity"])
    def test_nan_state_raises_constraint_blowup(self, where):
        # NaN compares false against any threshold, so the check must catch it
        cfg = collapse_config()
        state = initial_state_from_config(cfg)
        if where == "interior_node":
            state.positions[7, 1] = np.nan
        else:
            state.endpoints[1].four_velocity[1] = np.nan
        with pytest.raises(ConstraintBlowup):
            step(state, cfg)

    def test_nan_written_into_a_stepped_state_raises_constraint_blowup(self):
        # a state that step returned carries nothing that would hide the NaN
        cfg = collapse_config()
        state = step(initial_state_from_config(cfg), cfg)
        state.positions[7, 1] = np.nan
        with pytest.raises(ConstraintBlowup):
            step(state, cfg)

    def test_collision_raises_from_step(self):
        cfg = collapse_config(duration=10.0)
        state = initial_state_from_config(cfg)
        with pytest.raises(EndpointCollision):
            for _ in range(100000):
                state = step(state, cfg)

    def test_determinism(self):
        t1 = evolve(collapse_config(duration=0.2))
        t2 = evolve(collapse_config(duration=0.2))
        assert np.array_equal(t1.final.positions, t2.final.positions)


def _state_values(state):
    values = [getattr(state, f.name) for f in dataclasses.fields(state) if f.name != "endpoints"]
    for ep in state.endpoints:
        values += [getattr(ep, f.name) for f in dataclasses.fields(ep)]
    return values


@pytest.mark.parametrize("initial", [COLLAPSE, ROTATING], ids=["collapsing", "rotating"])
def test_step_leaves_its_input_state_unchanged(initial):
    # evolve keeps the states that step returns as snapshots, without copies
    cfg = SimulationConfig(initial_data=initial, duration=1.0)
    first = initial_state_from_config(cfg)
    for state in (first, step(first, cfg)):  # the second has every history array
        before = copy.deepcopy(_state_values(state))
        step(state, cfg)
        for old, new in zip(before, _state_values(state), strict=True):
            if isinstance(old, np.ndarray):
                assert old.shape == new.shape and old.tobytes() == new.tobytes()
            else:
                assert old == new


@settings(derandomize=True, max_examples=40, deadline=None)
@given(initial=st.sampled_from([ROTATING, COLLAPSE,
                                dict(COLLAPSE, mub_left=0.6, mub_right=1.7)]),
       m=st.integers(16, 40), steps=st.integers(1, 30), stride=st.integers(1, 4))
def test_evolve_equals_a_loop_of_public_steps_bitwise_property(initial, m, steps, stride):
    # evolve hands each step what the step before computed; step recomputes it all
    config = SimulationConfig(initial_data=initial, grid_points=m, duration=1.0,
                              output_stride=stride, constraint_tol=2e-3)
    state = initial_state_from_config(config)
    config = dataclasses.replace(config, duration=steps * config.dt_fraction * state.dsigma)
    by_time = {state.time: state}
    for _ in range(steps):
        state = step(state, config)
        by_time[state.time] = state
    snapshots = evolve(config).snapshots
    assert snapshots[-1].time == state.time

    def bits(s):
        return [v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in _state_values(s)]

    for snap in snapshots:
        assert bits(snap) == bits(by_time[snap.time])


@st.composite
def endpoint_pairs(draw):
    """Both ends of a string in 2+1 dimensions: timelike u, spacelike edge tangents."""

    def rows(lo, hi):
        return np.array([[draw(st.floats(lo, hi)) for _ in range(3)] for _ in range(2)])

    u0 = rows(-0.45, 0.45)  # |v|^2 < 0.41 for the 2 spatial components
    u0[:, 0] = 1.0
    tangents = rows(-3.0, 3.0)  # time components within 0.95 of the spatial norm
    spatial = np.hypot(tangents[:, 1], tangents[:, 2])
    assume(np.all(spatial >= 0.01))
    tangents[:, 0] = np.clip(tangents[:, 0], -0.95 * spatial, 0.95 * spatial)
    return dict(x0=rows(-10.0, 10.0), u0=batched_normalize_timelike(u0),
                tangents=tangents,
                tau0=np.array([draw(st.floats(0.0, 100.0)) for _ in range(2)]),
                accels=np.array([draw(st.floats(0.0, 3.0)) for _ in range(2)]),
                dt=draw(st.floats(1e-4, 0.05)))


SUBSTEPS = 32


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pair=endpoint_pairs())
def test_closed_form_endpoint_step_matches_substepped_oracle_property(pair):
    # with the edge tangent frozen, the oracle in many substeps converges to the exact motion
    x_ref, u_ref, tau_ref = pair["x0"], pair["u0"], pair["tau0"]
    for _ in range(SUBSTEPS):
        x_ref, u_ref, tau_ref = batched_advance_endpoints(
            x_ref, u_ref, tau_ref, pair["tangents"], pair["accels"], pair["dt"] / SUBSTEPS)
    eta_ref = batched_edge_eta(pair["tangents"], pair["u0"])
    for row in range(2):
        tangent, u0 = pair["tangents"][row].tolist(), pair["u0"][row].tolist()
        x, u, tau = dynamics._advance_end(
            pair["x0"][row].tolist(), u0, float(pair["tau0"][row]), tangent,
            float(pair["accels"][row]), pair["dt"])
        for got, ref in ((x, x_ref[row]), (u, u_ref[row]), (tau, tau_ref[row])):
            assert np.all(np.abs(np.subtract(got, ref)) <= 1e-9 * (1.0 + np.abs(ref)))
        assert np.array(dynamics._eta(tangent, u0)).tobytes() == eta_ref[row].tobytes()


@settings(derandomize=True, max_examples=50, deadline=None)
@given(m=st.integers(6, 12), dsigma=st.floats(1e-3, 1.0), seed=st.integers(0, 2**32 - 1))
def test_float_edge_tangents_equal_batched_rows_bitwise_property(m, dsigma, seed):
    positions = np.random.default_rng(seed).normal(size=(m, 3))
    ref = batched_edge_tangents(positions, dsigma)
    tangents = [dynamics._outward_tangent(*positions[rows].tolist(), dsigma)
                for rows in ([0, 1, 2], [-1, -2, -3])]  # edge row first
    assert np.array(tangents).tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [2, 4, 5])
def test_step_and_diagnostics_reject_states_outside_2_plus_1_dimensions(n):
    # the float kernels unpack 3-vectors (t, x, y): positions and velocities are (M, 3)
    cfg = collapse_config(grid_points=32)
    state = step(initial_state_from_config(cfg), cfg)  # ends with one step of history

    def resized(a):
        out = np.zeros(a.shape[:-1] + (n,))
        out[..., :min(n, 3)] = a[..., :min(n, 3)]
        return out

    ends = tuple(dataclasses.replace(ep, **{f: resized(getattr(ep, f)) for f in
                                            ("four_velocity", "prev_four_velocity", "edge_tangent")})
                 for ep in state.endpoints)
    for bad in (dict(positions=resized(state.positions), velocities=resized(state.velocities),
                     endpoints=ends),
                dict(velocities=resized(state.velocities))):
        with pytest.raises(InvalidParameters):
            step(dataclasses.replace(state, **bad), cfg)
        with pytest.raises(InvalidParameters):
            diagnostics(dataclasses.replace(state, **bad))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(m=st.integers(3, 12), n=st.integers(2, 5), dsigma=st.floats(1e-3, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_constraint_norms_equal_batched_products_bitwise_property(m, n, dsigma, seed):
    rng = np.random.default_rng(seed)
    positions, velocities = rng.normal(size=(2, m, n))
    state = collapsing_initial_state(1.0, 1.0, 1.0, 16)
    state = dataclasses.replace(state, positions=positions, velocities=velocities,
                                dsigma=dsigma)
    xp = (positions[2:] - positions[:-2]) / (2.0 * dsigma)
    xd = velocities[1:-1]
    ref = (np.max(np.abs(batched_mdot(xd, xp))),
           np.max(np.abs(batched_mdot(xd, xd) + batched_mdot(xp, xp))))
    assert np.array(constraint_norms(state)).tobytes() == np.array(ref).tobytes()


def test_an_unresolved_end_is_a_typed_outcome_not_a_clamp():
    # an edge tangent that is not spacelike by the margin, or an end whose proper time
    # would not advance, ends the step; no Minkowski square is clamped
    for tangent in ((1.0, 1.0, 0.0), (2.0, 1.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0 + 1e-9, 0.0)):
        with pytest.raises(EndpointCollision):
            dynamics._speed(tangent)
    assert dynamics._speed((0.0, 3.0, 4.0)) == 5.0
    assert dynamics._speed((1.0, 1.0 + 1e-6, 0.0)) == pytest.approx(math.sqrt(2e-6))
    assert math.isnan(dynamics._speed((0.0, math.nan, 0.0)))  # NaN goes on to the gate
    u0 = (1.0, 0.0, 0.0)
    with pytest.raises(EndpointCollision):
        dynamics._advance_end((0.0, 1.0, 0.0), u0, 1e300, (0.0, 1.0, 0.0), 1.0, 0.01)
    with pytest.raises(InvalidParameters):
        dynamics._unit_timelike((1.0, 1.0, 0.0))
    with pytest.raises(InvalidParameters):
        dynamics._eta((0.0, 0.0, 0.0), u0)


@pytest.mark.parametrize("grid_points, initial, stride", [
    (100, COLLAPSE, 1),
    (200, dict(COLLAPSE, mub_left=0.7, mub_right=1.4), 100),
], ids=["collapse_M100", "unequal_M200"])
def test_collapse_ends_at_its_last_resolved_step(grid_points, initial, stride):
    # the edge tangent loses its spacelike norm before the ends reach the collision
    # threshold; the run ends there, and every snapshot's diagnostics are finite numbers
    cfg = SimulationConfig(initial_data=initial, duration=10.0, grid_points=grid_points,
                           output_stride=stride,
                           constraint_tol=2e-3 if stride == 1 else 1e-4)
    traj = evolve(cfg)
    assert traj.terminal_event == "endpoint_collision"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = [diagnostics(s) for s in traj.snapshots]
    for s, d in zip(traj.snapshots, records):
        values = [*d.constraint_norms, d.total_energy, d.angular_momentum]
        values += [e.acceleration_magnitude for e in d.endpoints if s is not traj.snapshots[0]]
        assert all(math.isfinite(v) for v in values)
        for rows in (s.positions[:3], s.positions[:-4:-1]):
            dynamics._speed(dynamics._outward_tangent(*rows.tolist(), s.dsigma))
    for side in (0, 1):
        taus = [s.endpoints[side].proper_time for s in traj.snapshots]
        assert all(a < b for a, b in zip(taus, taus[1:]))
    t_end = traj.final.positions[[0, -1], 0]
    assert np.all(np.abs(t_end - collision_time(1.0, 1.0)) < 0.02 * collision_time(1.0, 1.0))


def _arrays(value):
    if isinstance(value, np.ndarray):
        return [value]
    return [a for v in value for a in _arrays(v)] if isinstance(value, (tuple, list)) else []


@pytest.mark.parametrize("initial", [COLLAPSE, ROTATING], ids=["collapsing", "rotating"])
def test_evolve_snapshots_own_their_arrays(monkeypatch, initial):
    # one set of scratch rows per run; a snapshot's positions and velocities are its own
    made = []
    for name in ("_scratch_rows", "_carry"):
        def spy(*args, original=getattr(dynamics, name)):
            made.append(original(*args))
            return made[-1]
        monkeypatch.setattr(dynamics, name, spy)
    traj = evolve(SimulationConfig(initial_data=initial, duration=0.5, grid_points=32,
                                   output_stride=2, constraint_tol=2e-3))
    assert len(made) == 2 and len(traj.snapshots) > 5
    scratch = _arrays(made)
    owned = [a for s in traj.snapshots for a in (s.positions, s.velocities)]
    for i, a in enumerate(owned):
        assert not any(np.shares_memory(a, b) for b in owned[i + 1:] + scratch)


def test_a_second_evolve_leaves_the_first_trajectory_unchanged():
    cfg = collapse_config(grid_points=32, output_stride=3)
    first = evolve(cfg)
    before = [copy.deepcopy(_state_values(s)) for s in first.snapshots]
    second = evolve(cfg)
    for old, snap, again in zip(before, first.snapshots, second.snapshots, strict=True):
        for a, b, c in zip(old, _state_values(snap), _state_values(again), strict=True):
            if isinstance(a, np.ndarray):
                assert a.tobytes() == b.tobytes() == c.tobytes()
            else:
                assert a == b == c
