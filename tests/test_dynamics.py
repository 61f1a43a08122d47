"""String evolution with massive endpoints: closed-form worldlines and charges."""

import copy
import dataclasses
import math
import warnings
from unittest import mock

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
    Trajectory,
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

    @pytest.mark.parametrize("initial_data", [5, None, "rotating", [("id", "rotating")]],
                             ids=["int", "none", "text", "pairs"])
    def test_non_mapping_initial_data_rejected(self, initial_data):
        with pytest.raises(InvalidParameters, match="initial_data must be a mapping"):
            SimulationConfig(initial_data=initial_data, duration=1.0)

    @pytest.mark.parametrize("initial", [
        dict(COLLAPSE, mu0="a"), dict(COLLAPSE, mub=None), dict(COLLAPSE, mub_left="1.0"),
        dict(COLLAPSE, x0=[1.0]), dict(COLLAPSE, x0=True), dict(ROTATING, mu0="a"),
        dict(ROTATING, mub=None), dict(ROTATING, radius="1.0"),
    ], ids=["text_mu0", "none_mub", "text_mub_left", "list_x0", "bool_x0", "rotating_text_mu0",
            "rotating_none_mub", "text_radius"])
    def test_non_numeric_initial_value_rejected(self, initial):
        # a comparison of text, None or a list raised TypeError before the range check
        cfg = SimulationConfig(initial_data=initial, duration=0.1)
        with pytest.raises(InvalidParameters):
            initial_state_from_config(cfg)

    def test_numpy_and_int_initial_values_accepted(self):
        cfg = SimulationConfig(initial_data=dict(COLLAPSE, mu0=np.float64(1.0), x0=1),
                               duration=0.1)
        assert initial_state_from_config(cfg).tensions.mu0 == 1.0

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


def _bits(state):
    return [v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in _state_values(state)]


def _stepped(state, config):
    """``evolve`` from ``state`` as a loop of public ``step`` calls, each gating itself."""
    snapshots, event = [state], "duration"
    for k in range(round(config.duration / (config.dt_fraction * state.dsigma))):
        try:
            new = step(state, config)
        except EndpointCollision:
            event = "endpoint_collision"
            break
        except ConstraintBlowup as exc:
            exc.trajectory = Trajectory(snapshots, "constraint_blowup")
            raise
        state = new
        if (k + 1) % config.output_stride == 0:
            snapshots.append(state)
    if snapshots[-1] is not state:
        snapshots.append(state)
    return Trajectory(snapshots, event)


def _outcome(run):
    """(terminal event or exception type, its message, each snapshot's bits) of ``run()``."""
    try:
        traj = run()
    except Exception as exc:
        snapshots = exc.trajectory.snapshots if isinstance(exc, ConstraintBlowup) else []
        return type(exc), str(exc), [_bits(s) for s in snapshots]
    return traj.terminal_event, None, [_bits(s) for s in traj.snapshots]


def _evolve_from(monkeypatch, state, config):
    """``evolve(config)`` started from ``state`` in place of the config's initial data."""
    monkeypatch.setattr(dynamics, "initial_state_from_config", lambda _: state)
    return evolve(config)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(initial=st.sampled_from([ROTATING, COLLAPSE,
                                dict(COLLAPSE, mub_left=0.6, mub_right=1.7)]),
       m=st.integers(16, 40), steps=st.integers(1, 40), stride=st.integers(1, 10),
       block=st.integers(2, 8), tol=st.sampled_from([2e-3, 3e-4, 2e-5, 1e-5, 5e-6]))
def test_evolve_equals_a_loop_of_public_steps_bitwise_property(initial, m, steps, stride,
                                                               block, tol):
    # evolve hands each step what the step before computed and gates blocks of steps; step
    # recomputes it all and gates itself.  Runs that blow up raise the same exception with
    # the same snapshots.  Blocks of a few steps make every flush point occur.
    config = SimulationConfig(initial_data=initial, grid_points=m, duration=1.0,
                              output_stride=stride, constraint_tol=tol)
    state = initial_state_from_config(config)
    config = dataclasses.replace(config, duration=steps * config.dt_fraction * state.dsigma)
    with mock.patch.object(dynamics, "GATE_NODES", block * m):
        assert _outcome(lambda: evolve(config)) == _outcome(lambda: _stepped(state, config))


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


@settings(derandomize=True, max_examples=30, deadline=None)
@given(m=st.integers(3, 12), n=st.integers(2, 5), steps=st.integers(1, 6),
       dsigma=st.floats(1e-3, 1.0), seed=st.integers(0, 2**32 - 1))
def test_block_norms_equal_each_states_norms_bitwise_property(m, n, steps, dsigma, seed):
    # the gate of a block of steps takes every step's norms to the bit
    positions, velocities = np.random.default_rng(seed).normal(size=(2, steps, m, n))
    block = dynamics._constraint_norms(positions, velocities, dsigma)
    state = collapsing_initial_state(1.0, 1.0, 1.0, 16)
    each = [constraint_norms(dataclasses.replace(state, positions=p, velocities=v,
                                                 dsigma=dsigma))
            for p, v in zip(positions, velocities)]
    assert block.T.tobytes() == np.array(each).tobytes()


def _blocks(n_steps, stride, block):
    """The steps (from 1) that ``evolve`` gates together: a block ends at a stored step, when
    it holds ``block`` steps, and at the last step."""
    blocks, current = [], []
    for s in range(1, n_steps + 1):
        current.append(s)
        if s % stride == 0 or len(current) == block or s == n_steps:
            blocks.append(current)
            current = []
    return blocks


GATED_STEPS = 64


@pytest.fixture(scope="module")
def rotating_norms():
    """(config, each step's larger constraint norm, each step's time) of the rotating string
    at M = 200 over ``GATED_STEPS`` steps, by step from 1."""
    config = SimulationConfig(initial_data=ROTATING, grid_points=200, duration=1.0,
                              constraint_tol=1e300)
    state = initial_state_from_config(config)
    config = dataclasses.replace(
        config, duration=GATED_STEPS * config.dt_fraction * state.dsigma)
    norms, times = {}, {}
    for s in range(1, GATED_STEPS + 1):
        state = step(state, config)
        norms[s], times[s] = max(constraint_norms(state)), state.time
    return config, norms, times


def _first_failing_at(norms, s):
    """A ``constraint_tol`` whose gate passes every step before ``s`` and fails at ``s``."""
    before = max((norms[t] for t in range(1, s)), default=0.0)
    assert norms[s] > before
    return 0.5 * (before + norms[s]) / 100.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("stride, place", [(1, "first"), (7, "first"), (7, "middle"),
                                           (7, "last"), (50, "first"), (50, "middle"),
                                           (50, "last")])
def test_a_blowup_at_any_step_of_a_block_is_the_loop_of_steps_blowup(rotating_norms, stride,
                                                                     place):
    # the gate first fails at the first, a middle or the last step of a block of three or
    # more steps (at stride 1 every block is one step; at stride 50 the blocks are full)
    config, norms, times = rotating_norms
    block = max(2, dynamics.GATE_NODES // config.grid_points)
    rises = [s for s in norms if norms[s] > max((norms[t] for t in range(1, s)), default=0.0)]
    candidates = [steps[{"first": 0, "middle": len(steps) // 2, "last": -1}[place]]
                  for steps in _blocks(GATED_STEPS, stride, block)
                  if len(steps) > 2 or stride == 1]
    s = next(c for c in candidates if c in rises[1:])
    config = dataclasses.replace(config, output_stride=stride,
                                 constraint_tol=_first_failing_at(norms, s))
    expected = _outcome(lambda: _stepped(initial_state_from_config(config), config))
    assert expected[0] is ConstraintBlowup and f"t={times[s]:.4f}" in expected[1]
    assert _outcome(lambda: evolve(config)) == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field", [1, 2], ids=["positions", "velocities"])
def test_nan_written_partway_through_a_block_is_the_loop_of_steps_blowup(monkeypatch, field):
    # step 20 of a 40-step run at M = 200 is the fourth of the block of steps 17 to 32; the
    # steps after it in the block run on NaN, and no warning or later step may hide it
    config = SimulationConfig(initial_data=ROTATING, grid_points=200, duration=1.0,
                              output_stride=50)
    state = initial_state_from_config(config)
    config = dataclasses.replace(config, duration=40 * config.dt_fraction * state.dsigma)
    assert [17, 32] in [[b[0], b[-1]] for b in _blocks(40, 50, dynamics.GATE_NODES // 200)]
    calls = []

    def poisoned(*args, advance=dynamics._advance):
        out = advance(*args)
        calls.append(out[0])
        if len(calls) == 20:
            out[field][7, 1] = np.nan
        return out

    monkeypatch.setattr(dynamics, "_advance", poisoned)
    expected = _outcome(lambda: _stepped(state, config))
    calls.clear()
    assert _outcome(lambda: evolve(config)) == expected
    assert expected[0] is ConstraintBlowup and "(nan, nan)" in expected[1]
    assert len(calls) == 32  # evolve ran the block to its end before gating it


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_blowup_wins_over_an_unresolved_end_later_in_its_block():
    # at M = 16 one block holds the whole collapse: the gate first fails at a step near the
    # start, and an end stops being resolved at a later step of the same block
    config = SimulationConfig(initial_data=COLLAPSE, grid_points=16, duration=10.0,
                              output_stride=1000, constraint_tol=1e300)
    state, norms = initial_state_from_config(config), {}
    with pytest.raises(EndpointCollision, match="not spacelike"):
        while True:
            state = step(state, config)
            norms[len(norms) + 1] = max(constraint_norms(state))
    collision = len(norms) + 1
    assert collision <= max(2, dynamics.GATE_NODES // 16)
    config = dataclasses.replace(config, constraint_tol=_first_failing_at(norms, 2))
    expected = _outcome(lambda: _stepped(initial_state_from_config(config), config))
    assert expected[0] is ConstraintBlowup and len(expected[2]) == 1
    assert _outcome(lambda: evolve(config)) == expected


@pytest.fixture(scope="module")
def collapse_to_separation():
    """The M = 32 collapse stepped until its ends come within the collision threshold:
    (config, the state after each step from 0, each step's larger constraint norm, by step
    from 1, the separating step's included with the threshold lifted)."""
    config = SimulationConfig(initial_data=COLLAPSE, grid_points=32, duration=10.0,
                              output_stride=1000, constraint_tol=1e300)
    states, norms = [initial_state_from_config(config)], {}
    with pytest.raises(EndpointCollision, match="within grid resolution"):
        while True:
            states.append(step(states[-1], config))
            norms[len(states) - 1] = max(constraint_norms(states[-1]))
    states.pop()  # the separating step raised: its state was never made
    lifted = step(dataclasses.replace(states[-1], collision_threshold=0.0), config)
    norms[len(states)] = max(constraint_norms(lifted))
    return config, states, norms


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_blowup_wins_over_a_separation_later_in_its_block(monkeypatch,
                                                            collapse_to_separation):
    # started 11 steps before its ends separate, the block holds every remaining step; the
    # gate first fails at the step of the largest norm before the separation
    config, states, norms = collapse_to_separation
    k = len(states)  # the separating step
    start = k - 11
    s = max(range(start + 1, k), key=norms.__getitem__)
    before = max((norms[t] for t in range(start + 1, s)), default=0.0)
    config = dataclasses.replace(config, duration=20 * config.dt_fraction * states[0].dsigma,
                                 constraint_tol=0.5 * (before + norms[s]) / 100.0)
    expected = _outcome(lambda: _stepped(states[start], config))
    assert expected[0] is ConstraintBlowup and len(expected[2]) == 1
    assert _outcome(lambda: _evolve_from(monkeypatch, states[start], config)) == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_gate_decides_before_the_separation_check_at_one_step(monkeypatch,
                                                                  collapse_to_separation):
    # the gate and the separation check both fail at the separating step: ConstraintBlowup
    config, states, norms = collapse_to_separation
    k = len(states)
    start = min(j for j in range(k - 11, k)
                if max((norms[t] for t in range(j + 1, k)), default=0.0) < norms[k])
    before = max((norms[t] for t in range(start + 1, k)), default=0.0)
    config = dataclasses.replace(config, duration=20 * config.dt_fraction * states[0].dsigma,
                                 constraint_tol=0.5 * (before + norms[k]) / 100.0)
    expected = _outcome(lambda: _stepped(states[start], config))
    assert expected[0] is ConstraintBlowup
    assert _outcome(lambda: _evolve_from(monkeypatch, states[start], config)) == expected
    passing = dataclasses.replace(config, constraint_tol=1e300)
    assert _outcome(lambda: _stepped(states[start], passing))[0] == "endpoint_collision"


@pytest.mark.parametrize("error", [EndpointCollision, InvalidParameters, OverflowError])
@pytest.mark.parametrize("blows_up", [True, False], ids=["blowup_first", "no_blowup"])
def test_a_later_steps_exception_loses_to_an_earlier_blowup(monkeypatch, rotating_norms,
                                                             error, blows_up):
    # step 25 raises in its right end, in the block of steps 17 to 32 at stride 50; when the
    # gate fails at step 19 of that block, its ConstraintBlowup is what propagates
    config, norms, _ = rotating_norms
    config = dataclasses.replace(config, output_stride=50, constraint_tol=(
        _first_failing_at(norms, 19) if blows_up else 1e300))
    calls = []

    def failing(*args, step_end=dynamics._step_end):
        calls.append(args)
        if len(calls) == 2 * 25:
            raise error("step 25 fails")
        return step_end(*args)

    monkeypatch.setattr(dynamics, "_step_end", failing)
    expected = _outcome(lambda: _stepped(initial_state_from_config(config), config))
    calls.clear()
    assert _outcome(lambda: evolve(config)) == expected
    if blows_up:
        assert expected[0] is ConstraintBlowup
    else:
        assert expected[0] == ("endpoint_collision" if error is EndpointCollision else error)
