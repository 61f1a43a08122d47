"""Time evolution of a string with massive endpoints in flat Minkowski space.

Interior nodes obey the wave equation of the orthonormal (conformal) gauge,
integrated by velocity-Verlet leapfrog.  Each endpoint is its own relativistic
particle driven by a pull of constant proper magnitude mu0/mub along minus the
outward edge direction eta; eta is rebuilt every step by orthonormalizing the
one-sided sigma derivative at the edge against the endpoint four-velocity.
Both endpoints advance together, as one (2, N) batch with rows (left, right),
in slice (coordinate) time by a Runge-Kutta step, so their time component
tracks the interior slices exactly.  Units: c = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintBlowup, EndpointCollision, InvalidParameters

Array = np.ndarray

MIN_GRID_POINTS = 16


def rotating_orbit_omega(mu0: float, mub: float, radius: float) -> float:
    """Angular velocity of the circular endpoint orbit: w^2 R / (1 - w^2 R^2) = mu0/mub.

    The positive root always satisfies w R < 1, grows monotonically with
    mu0/mub, and w R -> 1 as mub -> 0 (the massless-edge limit).
    """
    if mu0 <= 0 or mub <= 0 or radius <= 0:
        raise InvalidParameters("tensions and radius must be positive")
    q = mu0 / mub
    return math.sqrt(q / (radius * (1.0 + q * radius)))


@dataclass(frozen=True)
class Tensions:
    mu0: float
    mub_left: float
    mub_right: float

    def __post_init__(self) -> None:
        if self.mu0 < 0 or self.mub_left <= 0 or self.mub_right <= 0:
            raise InvalidParameters("need mu0 >= 0 and positive endpoint tensions")


@dataclass
class EndpointState:
    """Relativistic endpoint particle, with one step of history for diagnostics."""

    position: Array
    four_velocity: Array
    proper_time: float = 0.0
    eta: Array | None = None
    prev_four_velocity: Array | None = None
    prev_proper_time: float | None = None
    prev_eta: Array | None = None


@dataclass
class StringState:
    """Discretized string on a worldsheet-time slice.

    ``positions``/``velocities`` hold all M nodes (endpoints included as the
    first and last rows, kept in sync with ``endpoints``).
    """

    time: float
    positions: Array        # (M, N)
    velocities: Array       # (M, N)
    endpoints: tuple[EndpointState, EndpointState]
    tensions: Tensions
    dsigma: float
    collision_threshold: float

    @property
    def grid_points(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class SimulationConfig:
    initial_data: dict
    duration: float
    grid_points: int = 200
    dt_fraction: float = 0.5
    constraint_tol: float = 1e-4
    output_stride: int = 10

    def __post_init__(self) -> None:
        if self.grid_points < MIN_GRID_POINTS:
            raise InvalidParameters(f"grid_points must be >= {MIN_GRID_POINTS}")
        if not 0.0 < self.dt_fraction <= 1.0:
            raise InvalidParameters("dt_fraction must satisfy 0 < dt <= dsigma (CFL)")
        if not 0 <= self.duration < math.inf:
            raise InvalidParameters("duration must be finite and non-negative")
        if self.constraint_tol <= 0 or self.output_stride < 1:
            raise InvalidParameters("bad constraint tolerance or output stride")


def _mdot(u: Array, v: Array) -> Array:
    return -u[..., 0] * v[..., 0] + (u[..., 1:] * v[..., 1:]).sum(axis=-1)


def _normalize_timelike(u: Array) -> Array:
    return u / np.sqrt(np.maximum(-_mdot(u, u), 1e-300))[..., None]


def _edge_eta(edge_tangent: Array, u: Array) -> Array:
    """Unit outward worldsheet vector: edge tangent orthonormalized against u."""
    v = edge_tangent + _mdot(edge_tangent, u)[..., None] * u
    norm2 = _mdot(v, v)
    return v / np.sqrt(np.maximum(norm2, 1e-300))[..., None]


def _edge_tangents(positions: Array, dsigma: float) -> Array:
    """Second-order one-sided sigma derivatives at both edges, pointing outward.

    Rows are (left, right).  At the left edge the backward-looking combination
    is already minus the sigma derivative, which is the outward direction there.
    """
    return (3.0 * positions[[0, -1]] - 4.0 * positions[[1, -2]]
            + positions[[2, -3]]) / (2.0 * dsigma)


def _edge_speeds(tangents: Array) -> Array:
    """Norms of the edge tangents: the proper-time rate of each endpoint."""
    return np.sqrt(np.maximum(_mdot(tangents, tangents), 1e-300))


def collapsing_initial_state(mu0: float, mub: float, x0: float,
                             grid_points: int, *,
                             mub_left: float | None = None,
                             mub_right: float | None = None) -> StringState:
    """Straight string at rest between +-x0; endpoint masses may differ per end."""
    if x0 <= 0:
        raise InvalidParameters("x0 must be positive")
    sigma = np.linspace(-x0, x0, grid_points)
    positions = np.zeros((grid_points, 3))
    positions[:, 1] = sigma
    velocities = np.zeros_like(positions)
    velocities[:, 0] = 1.0
    u0 = np.array([1.0, 0.0, 0.0])
    tensions = Tensions(mu0,
                        mub if mub_left is None else mub_left,
                        mub if mub_right is None else mub_right)
    left = EndpointState(positions[0].copy(), u0.copy())
    right = EndpointState(positions[-1].copy(), u0.copy())
    dsig = sigma[1] - sigma[0]
    return StringState(
        time=0.0, positions=positions, velocities=velocities,
        endpoints=(left, right), tensions=tensions, dsigma=dsig,
        collision_threshold=2.0 * dsig,
    )


def rotating_initial_state(mu0: float, mub: float, radius: float,
                           grid_points: int) -> StringState:
    """Rigidly rotating string through the origin, endpoints on the circular orbit.

    Conformal profile x + i y = f(sigma) e^{i w t} with f = sin(w sigma)/w on
    sigma in [-arcsin(wR)/w, +arcsin(wR)/w]; the endpoint speed is w R < 1.
    """
    w = rotating_orbit_omega(mu0, mub, radius)
    sigma_max = math.asin(w * radius) / w
    sigma = np.linspace(-sigma_max, sigma_max, grid_points)
    f = np.sin(w * sigma) / w
    positions = np.zeros((grid_points, 3))
    positions[:, 1] = f
    velocities = np.zeros_like(positions)
    velocities[:, 0] = 1.0
    velocities[:, 2] = w * f
    tensions = Tensions(mu0, mub, mub)
    left = EndpointState(positions[0].copy(),
                         _normalize_timelike(velocities[0].copy()))
    right = EndpointState(positions[-1].copy(),
                          _normalize_timelike(velocities[-1].copy()))
    dsig = sigma[1] - sigma[0]
    scale = 2.0 * radius / (2.0 * sigma_max)
    return StringState(
        time=0.0, positions=positions, velocities=velocities,
        endpoints=(left, right), tensions=tensions, dsigma=dsig,
        collision_threshold=2.0 * dsig * scale,
    )


def initial_state_from_config(config: SimulationConfig) -> StringState:
    data = dict(config.initial_data)
    kind = data.pop("id", None)
    if kind == "collapsing":
        state = collapsing_initial_state(
            mu0=data.pop("mu0", 1.0), mub=data.pop("mub", 1.0),
            x0=data.pop("x0", 1.0), grid_points=config.grid_points,
            mub_left=data.pop("mub_left", None),
            mub_right=data.pop("mub_right", None))
    elif kind == "rotating":
        state = rotating_initial_state(
            mu0=data.pop("mu0", 1.0), mub=data.pop("mub", 3.0),
            radius=data.pop("radius", 1.0), grid_points=config.grid_points)
    else:
        raise InvalidParameters(f"unknown initial data id {kind!r}")
    if data:
        raise InvalidParameters(f"unknown initial data keys {sorted(data)}")
    return state


def constraint_norms(state: StringState) -> tuple[float, float]:
    """Max interior-node violations of the orthonormal-gauge constraints."""
    xp = (state.positions[2:] - state.positions[:-2]) / (2.0 * state.dsigma)
    xd = state.velocities[1:-1]
    c1 = np.abs(_mdot(xd, xp))
    c2 = np.abs(_mdot(xd, xd) + _mdot(xp, xp))
    return float(np.max(c1)), float(np.max(c2))


def _advance_endpoints(x0: Array, u0: Array, tau0: Array, tangents: Array,
                       accels: Array, dt: float) -> tuple[Array, Array, Array]:
    """Classical fourth-order Runge-Kutta step of both endpoints in worldsheet time.

    Every argument holds one row per end (left, right): positions, four-velocities
    and edge tangents are (2, N), proper times and pulls mu0/mub are (2,).  The
    rates are dX/dt = u speed, du/dt = -accel eta speed and dtau/dt = speed, where
    speed is the norm of the one-sided edge tangent: the gauge constraints force
    -Xdot^2 = X'^2 at the edge, so the endpoint slides along its worldline at
    that rate relative to the interior slices.  Returns (X, u, tau), u renormalized.
    """
    speed = _edge_speeds(tangents)
    rate = speed[:, None]
    pull = accels[:, None]

    def du(u: Array) -> Array:
        return -pull * _edge_eta(tangents, u) * rate

    k1 = du(u0)
    u1 = u0 + 0.5 * dt * k1
    k2 = du(u1)
    u2 = u0 + 0.5 * dt * k2
    k3 = du(u2)
    u3 = u0 + dt * k3
    k4 = du(u3)
    x = x0 + dt / 6.0 * (u0 * rate + 2 * (u1 * rate) + 2 * (u2 * rate) + u3 * rate)
    u = _normalize_timelike(u0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
    tau = tau0 + dt / 6.0 * (speed + 2 * speed + 2 * speed + speed)
    return x, u, tau


def step(state: StringState, config: SimulationConfig) -> StringState:
    """One leapfrog step of the interior plus Runge-Kutta endpoint advances.

    Steps dt = ``config.dt_fraction`` * dsigma.  Raises ConstraintBlowup when the
    gauge constraints exceed 100x the configured tolerance or are not finite (a NaN
    state), and EndpointCollision when the endpoint separation falls below grid resolution.
    """
    dt = config.dt_fraction * state.dsigma
    ds2 = state.dsigma * state.dsigma
    pos, vel = state.positions, state.velocities
    mu0 = state.tensions.mu0

    acc = np.zeros_like(pos)
    acc[1:-1] = (pos[2:] - 2.0 * pos[1:-1] + pos[:-2]) / ds2
    v_half = vel[1:-1] + 0.5 * dt * acc[1:-1]
    new_pos = pos.copy()
    new_pos[1:-1] = pos[1:-1] + dt * v_half

    # endpoints: predictor fills the end rows, then a corrector re-advances
    # them with the step-midpoint edge tangent (second-order coupling)
    left, right = state.endpoints
    x0 = np.stack((left.position, right.position))
    u0 = np.stack((left.four_velocity, right.four_velocity))
    tau0 = np.array((left.proper_time, right.proper_time))
    accels = mu0 / np.array((state.tensions.mub_left, state.tensions.mub_right))
    new_pos[[0, -1]] = _advance_endpoints(
        x0, u0, tau0, _edge_tangents(pos, state.dsigma), accels, dt)[0]
    tangents = _edge_tangents(0.5 * (pos + new_pos), state.dsigma)
    x, u, tau = _advance_endpoints(x0, u0, tau0, tangents, accels, dt)
    new_pos[[0, -1]] = x
    eta, prev_eta = _edge_eta(tangents, u), _edge_eta(tangents, u0)

    acc_new = np.zeros_like(pos)
    acc_new[1:-1] = (new_pos[2:] - 2.0 * new_pos[1:-1] + new_pos[:-2]) / ds2
    new_vel = vel.copy()
    new_vel[1:-1] = v_half + 0.5 * dt * acc_new[1:-1]
    new_vel[[0, -1]] = u * _edge_speeds(_edge_tangents(new_pos, state.dsigma))[:, None]
    # rows in EndpointState field order: X, u, tau, eta, then the previous u, tau, eta
    endpoints = tuple(EndpointState(*row) for row in zip(
        x, u, tau.tolist(), eta, u0, tau0.tolist(), prev_eta))

    new_state = StringState(
        time=state.time + dt,
        positions=new_pos,
        velocities=new_vel,
        endpoints=endpoints,
        tensions=state.tensions,
        dsigma=state.dsigma,
        collision_threshold=state.collision_threshold,
    )
    c1, c2 = constraint_norms(new_state)
    limit = 100.0 * config.constraint_tol
    if not (c1 <= limit and c2 <= limit):  # also true for NaN
        raise ConstraintBlowup(
            f"gauge constraints blew up: ({c1:.3e}, {c2:.3e}) at t={new_state.time:.4f}")
    sep = np.linalg.norm(new_pos[-1, 1:] - new_pos[0, 1:])
    if sep < new_state.collision_threshold:
        raise EndpointCollision(
            f"endpoints within grid resolution ({sep:.3e}) at t={new_state.time:.4f}")
    return new_state


@dataclass
class Trajectory:
    snapshots: list[StringState]
    terminal_event: str  # "duration" or "endpoint_collision"

    @property
    def final(self) -> StringState:
        return self.snapshots[-1]


def evolve(config: SimulationConfig) -> Trajectory:
    """Run a simulation to its duration or a physical terminal event.

    Deterministic for a given config.  Snapshots are stored every
    ``output_stride`` steps plus the final state.  A collision is a physical
    termination and is reported through ``terminal_event``; constraint blowup
    propagates as an exception carrying the partial trajectory.
    """
    state = initial_state_from_config(config)
    dt = config.dt_fraction * state.dsigma
    n_steps = int(round(config.duration / dt)) if config.duration > 0 else 0
    snapshots = [state]
    event = "duration"
    for k in range(n_steps):
        try:
            state = step(state, config)
        except EndpointCollision:
            event = "endpoint_collision"
            snapshots.append(state)
            break
        except ConstraintBlowup as exc:
            exc.trajectory = Trajectory(snapshots, "constraint_blowup")
            raise
        if (k + 1) % config.output_stride == 0:
            snapshots.append(state)
    if event == "duration" and n_steps > 0 and n_steps % config.output_stride != 0:
        snapshots.append(state)
    return Trajectory(snapshots, event)


@dataclass(frozen=True)
class EndpointDiagnostics:
    acceleration: Array | None
    acceleration_magnitude: float | None
    direction_angle: float | None  # angle between measured acceleration and -eta


@dataclass(frozen=True)
class DiagnosticsRecord:
    constraint_norms: tuple[float, float]
    total_energy: float
    angular_momentum: float
    endpoints: tuple[EndpointDiagnostics, EndpointDiagnostics]


def diagnostics(state: StringState) -> DiagnosticsRecord:
    """Conserved charges and the endpoint acceleration law, from the current state.

    Endpoint accelerations are finite differences of u over proper time across
    the last step, compared against minus the step-midpoint outward direction;
    they are None until one step of history exists.  Energy sums the interior
    density mu0 * dX^0/dt with trapezoidal weights plus mub * u^0 per end;
    angular momentum is the z-component analogue.
    """
    mu0 = state.tensions.mu0
    w = np.ones(state.grid_points)
    w[0] = w[-1] = 0.5
    energy = mu0 * state.dsigma * float(np.sum(w * state.velocities[:, 0]))
    ang = mu0 * state.dsigma * float(np.sum(
        w * (state.positions[:, 1] * state.velocities[:, 2]
             - state.positions[:, 2] * state.velocities[:, 1])))
    for mub, ep in zip((state.tensions.mub_left, state.tensions.mub_right),
                       state.endpoints):
        energy += mub * abs(ep.four_velocity[0])
        ang += mub * (ep.position[1] * ep.four_velocity[2]
                      - ep.position[2] * ep.four_velocity[1]) * np.sign(ep.four_velocity[0])

    diags = []
    for ep in state.endpoints:
        if ep.prev_four_velocity is None or ep.prev_eta is None or ep.eta is None:
            diags.append(EndpointDiagnostics(None, None, None))
            continue
        dtau = ep.proper_time - ep.prev_proper_time
        a = (ep.four_velocity - ep.prev_four_velocity) / dtau
        mag = float(np.sqrt(max(_mdot(a, a), 0.0)))
        u_mid = _normalize_timelike(0.5 * (ep.four_velocity + ep.prev_four_velocity))
        eta_mid = _edge_eta(0.5 * (ep.eta + ep.prev_eta), u_mid)
        cosang = -_mdot(a, eta_mid) / max(mag, 1e-300)
        angle = float(np.arccos(np.clip(cosang, -1.0, 1.0)))
        diags.append(EndpointDiagnostics(a, mag, angle))
    return DiagnosticsRecord(
        constraint_norms=constraint_norms(state),
        total_energy=energy,
        angular_momentum=ang,
        endpoints=(diags[0], diags[1]),
    )
