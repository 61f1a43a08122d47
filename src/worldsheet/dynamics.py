"""Time evolution of a string with massive endpoints in flat Minkowski space.

Interior nodes obey the wave equation of the orthonormal (conformal) gauge,
integrated by velocity-Verlet leapfrog.  Each endpoint is its own relativistic
particle driven by a pull of constant proper magnitude mu0/mub along minus the
outward edge direction eta; eta is rebuilt every step by orthonormalizing the
one-sided sigma derivative at the edge against the endpoint four-velocity.
Each endpoint advances on its own in slice (coordinate) time, so its time
component tracks the interior slices exactly.  With its edge tangent frozen
over a step, an endpoint moves on an exact hyperbola, taken in closed form: a
position-only predictor step fills the end rows, then a corrector retakes the
step with the step-midpoint tangent.  ``evolve`` hands each step the interior
Laplacian, edge rows and edge tangents that the step before computed at its new
positions, which ``step`` computes itself.  An endpoint is a single N-vector,
where numpy's per-call overhead would dominate, so its kernels run on lists of
Python floats; eta, the edge tangents and the step-midpoint rows keep numpy's
operation order, so both forms agree to the bit.  Units: c = 1.
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
    if not all(0 < v < math.inf for v in (mu0, mub, radius)):
        raise InvalidParameters("tensions and radius must be finite and positive")
    q = mu0 / mub
    return math.sqrt(q / (radius * (1.0 + q * radius)))


@dataclass(frozen=True)
class Tensions:
    mu0: float
    mub_left: float
    mub_right: float

    def __post_init__(self) -> None:
        if not (0 <= self.mu0 < math.inf and 0 < self.mub_left < math.inf
                and 0 < self.mub_right < math.inf):
            raise InvalidParameters("need finite mu0 >= 0 and finite positive endpoint tensions")


@dataclass
class EndpointState:
    """Relativistic endpoint particle, with one step of history for diagnostics.

    Its position is the end row of ``StringState.positions``.  ``edge_tangent``
    is the step-midpoint outward tangent that the last step's corrector used.
    """

    four_velocity: Array
    proper_time: float = 0.0
    prev_four_velocity: Array | None = None
    prev_proper_time: float | None = None
    edge_tangent: Array | None = None


@dataclass
class StringState:
    """Discretized string on a worldsheet-time slice.

    ``positions``/``velocities`` hold all M nodes, the endpoints as the first
    and last rows; ``endpoints`` holds what else each end carries.
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
        counts = (self.grid_points, self.output_stride)
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                   for n in counts):
            raise InvalidParameters("grid_points and output_stride must be integers")
        if self.grid_points < MIN_GRID_POINTS:
            raise InvalidParameters(f"grid_points must be >= {MIN_GRID_POINTS}")
        if not 0.0 < self.dt_fraction <= 1.0:
            raise InvalidParameters("dt_fraction must satisfy 0 < dt <= dsigma (CFL)")
        if not 0 <= self.duration < math.inf:
            raise InvalidParameters("duration must be finite and non-negative")
        if not 0 < self.constraint_tol < math.inf or self.output_stride < 1:
            raise InvalidParameters("bad constraint tolerance or output stride")


# Float kernels of one endpoint: vectors are lists of Python floats.


def _fdot(u: list, v: list) -> float:
    """Minkowski product in numpy's order, -u0 v0 + (0.0 + u1 v1 + ...).

    numpy sums a short axis left to right from 0.0; starting there too keeps
    the sign of a zero sum.
    """
    s = 0.0
    for i in range(1, len(u)):
        s += u[i] * v[i]
    return -u[0] * v[0] + s


def _unit_timelike(u: list) -> list:
    norm = math.sqrt(max(-_fdot(u, u), 1e-300))
    return [c / norm for c in u]


def _eta(edge_tangent: list, u: list) -> list:
    """Unit outward worldsheet vector: edge tangent orthonormalized against u."""
    d = _fdot(edge_tangent, u)
    v = [t + d * c for t, c in zip(edge_tangent, u)]
    norm = math.sqrt(max(_fdot(v, v), 1e-300))
    return [c / norm for c in v]


def _rest_norm(v: list, u: list) -> float:
    """Euclidean norm of v in the rest frame of the unit timelike u: sqrt(v.v + 2 (v.u)^2)."""
    return math.sqrt(max(_fdot(v, v) + 2.0 * _fdot(v, u) ** 2, 0.0))


def _speed(edge_tangent: list) -> float:
    """Norm of the edge tangent: the proper-time rate of the endpoint."""
    return math.sqrt(max(_fdot(edge_tangent, edge_tangent), 1e-300))


# Rows that the one-sided edge tangents read: three at each end, edge row outermost.
_EDGE_ROWS = [0, 1, 2, -3, -2, -1]


def _outward_tangents(rows: list, dsigma: float) -> tuple[list, list]:
    """Second-order one-sided sigma derivatives at (left, right), pointing outward.

    ``rows`` holds the ``_EDGE_ROWS`` of a positions array as float lists.  At
    the left edge the backward-looking combination is already minus the sigma
    derivative, which is the outward direction there.
    """
    h = 2.0 * dsigma
    l0, l1, l2, r2, r1, r0 = rows
    return ([(3.0 * a - 4.0 * b + c) / h for a, b, c in zip(l0, l1, l2)],
            [(3.0 * a - 4.0 * b + c) / h for a, b, c in zip(r0, r1, r2)])


def _initial_state(sigma: Array, x: Array, y_rate: Array | float, tensions: Tensions,
                   scale: float) -> StringState:
    """String at t = 0 on the sigma grid: nodes at (0, x, 0) moving with dy/dt = y_rate.

    ``scale`` converts sigma lengths into lab lengths for the collision threshold.
    """
    positions = np.zeros((sigma.size, 3))
    positions[:, 1] = x
    velocities = np.zeros_like(positions)
    velocities[:, 0] = 1.0
    velocities[:, 2] = y_rate
    left, right = (EndpointState(np.array(_unit_timelike(velocities[row].tolist())))
                   for row in (0, -1))
    dsig = float(sigma[1] - sigma[0])  # numpy scalars would slow the float kernels
    return StringState(
        time=0.0, positions=positions, velocities=velocities,
        endpoints=(left, right), tensions=tensions, dsigma=dsig,
        collision_threshold=2.0 * dsig * scale,
    )


def collapsing_initial_state(mu0: float, mub: float, x0: float,
                             grid_points: int, *,
                             mub_left: float | None = None,
                             mub_right: float | None = None) -> StringState:
    """Straight string at rest between +-x0; endpoint masses may differ per end."""
    if not 0 < x0 < math.inf:
        raise InvalidParameters("x0 must be finite and positive")
    sigma = np.linspace(-x0, x0, grid_points)
    tensions = Tensions(mu0,
                        mub if mub_left is None else mub_left,
                        mub if mub_right is None else mub_right)
    return _initial_state(sigma, sigma, 0.0, tensions, 1.0)


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
    return _initial_state(sigma, f, w * f, Tensions(mu0, mub, mub),
                          2.0 * radius / (2.0 * sigma_max))


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
    """Max interior-node violations of the orthonormal-gauge constraints: one pass over
    the (N, M-2) component rows in ``_fdot``'s order, as abs drops a zero's sign."""
    xp = (state.positions[2:] - state.positions[:-2]).T / (2.0 * state.dsigma)
    xd = state.velocities[1:-1].T
    mixed, xd2, xp2 = xd[1] * xp[1], xd[1] * xd[1], xp[1] * xp[1]
    for a, b in zip(xd[2:], xp[2:]):
        mixed += a * b
        xd2 += a * a
        xp2 += b * b
    return (float(np.abs(mixed - xd[0] * xp[0]).max()),
            float(np.abs((xd2 - xd[0] * xd[0]) + (xp2 - xp[0] * xp[0])).max()))


def _end_position(x0: list, u0: list, tangent: list, accel: float, dt: float) -> tuple:
    """(X, dtau, w, eta0) of one endpoint after one step: its position, in closed form.

    Position, four-velocity and edge tangent are float lists, the pull ``accel`` is
    mu0/mub.  The rates are dX/dt = u speed and du/dt = -accel eta speed, where speed
    is the norm of the one-sided edge tangent: the gauge constraints force -Xdot^2 =
    X'^2 at the edge, so the endpoint slides along its worldline at that rate
    relative to the interior slices.  With the tangent frozen over the step, u and
    eta stay in the plane of u0 and the tangent, so the motion is exactly hyperbolic:
    over the proper time dtau = speed dt, with w = accel dtau,
    u = cosh(w) u0 - sinh(w) eta0 and X = X0 + dtau (sinh(w) u0 - 2 sinh^2(w/2) eta0) / w.
    """
    dtau = _speed(tangent) * dt
    w = accel * dtau
    eta0 = _eta(tangent, u0)
    if w == 0.0:  # no pull, or one so weak that w underflows
        along, across = dtau, 0.0
    else:
        along, across = dtau * (math.sinh(w) / w), dtau * (2.0 * math.sinh(0.5 * w) ** 2 / w)
    x = [p + along * a - across * e for p, a, e in zip(x0, u0, eta0)]
    return x, dtau, w, eta0


def _advance_end(x0: list, u0: list, tau0: float, tangent: list, accel: float,
                 dt: float) -> tuple[list, list, float]:
    """(X, u renormalized, tau) of one endpoint after one step (``_end_position``)."""
    x, dtau, w, eta0 = _end_position(x0, u0, tangent, accel, dt)
    sinh, cosh = math.sinh(w), math.cosh(w)
    u = _unit_timelike([cosh * a - sinh * e for a, e in zip(u0, eta0)])
    return x, u, tau0 + dtau


def _step_facts(positions: Array, rows: list, dsigma: float) -> tuple[Array, list, tuple]:
    """What a step reads at ``positions`` besides them: (interior Laplacian, edge rows,
    outward edge tangents), with ``rows`` the float lists of ``positions[_EDGE_ROWS]``."""
    lap = (positions[2:] - 2.0 * positions[1:-1] + positions[:-2]) / (dsigma * dsigma)
    return lap, rows, _outward_tangents(rows, dsigma)


def step(state: StringState, config: SimulationConfig) -> StringState:
    """One leapfrog step of the interior plus closed-form endpoint advances.

    Steps dt = ``config.dt_fraction`` * dsigma.  Raises ConstraintBlowup when the
    gauge constraints exceed 100x the configured tolerance or are not finite (a NaN
    state), and EndpointCollision when the endpoint separation falls below grid resolution.
    """
    return _advance(state, config)[0]


def _advance(state: StringState, config: SimulationConfig,
             carried: tuple | None = None) -> tuple[StringState, tuple]:
    """``step``, also returning the new positions' ``_step_facts``; given ``state``'s or None."""
    dt = config.dt_fraction * state.dsigma
    pos, vel = state.positions, state.velocities
    lap, rows, tangents = carried or _step_facts(pos, pos[:3].tolist() + pos[-3:].tolist(),
                                                 state.dsigma)
    tensions = state.tensions
    accels = (tensions.mu0 / tensions.mub_left, tensions.mu0 / tensions.mub_right)
    starts = [(x0, ep.four_velocity.tolist(), ep.proper_time)
              for x0, ep in zip((rows[0], rows[-1]), state.endpoints)]

    v_half = vel[1:-1] + 0.5 * dt * lap
    new_pos = pos.copy()
    new_pos[1:-1] = pos[1:-1] + dt * v_half
    inner = new_pos[1:3].tolist() + new_pos[-3:-1].tolist()

    # endpoints: a position-only predictor step, then a corrector re-advances them
    # with the step-midpoint edge tangent (second-order coupling)
    left, right = (_end_position(x0, u0, tangent, accel, dt)[0]
                   for (x0, u0, _), tangent, accel in zip(starts, tangents, accels))
    mid_tangents = _outward_tangents(
        [[0.5 * (a + b) for a, b in zip(old, new)]
         for old, new in zip(rows, [left, *inner, right])], state.dsigma)
    ends = [_advance_end(*start, tangent, accel, dt)
            for start, tangent, accel in zip(starts, mid_tangents, accels)]
    new_pos[0], new_pos[-1] = ends[0][0], ends[1][0]
    new_lap, _, new_tangents = carry = _step_facts(
        new_pos, [ends[0][0], *inner, ends[1][0]], state.dsigma)

    new_vel = np.empty_like(vel)
    new_vel[1:-1] = v_half + 0.5 * dt * new_lap
    for row, (_, u, _), tangent in zip((0, -1), ends, new_tangents):
        speed = _speed(tangent)
        new_vel[row] = [c * speed for c in u]
    endpoints = tuple(
        EndpointState(np.array(u), tau, np.array(u0), tau0, np.array(tangent))
        for (_, u, tau), (_, u0, tau0), tangent in zip(ends, starts, mid_tangents))

    new_state = StringState(
        time=state.time + dt, positions=new_pos, velocities=new_vel, endpoints=endpoints,
        tensions=tensions, dsigma=state.dsigma, collision_threshold=state.collision_threshold)
    c1, c2 = constraint_norms(new_state)
    limit = 100.0 * config.constraint_tol
    if not (c1 <= limit and c2 <= limit):  # also true for NaN
        raise ConstraintBlowup(
            f"gauge constraints blew up: ({c1:.3e}, {c2:.3e}) at t={new_state.time:.4f}")
    sep = math.dist(ends[0][0][1:], ends[1][0][1:])
    if sep < new_state.collision_threshold:
        raise EndpointCollision(
            f"endpoints within grid resolution ({sep:.3e}) at t={new_state.time:.4f}")
    return new_state, carry


@dataclass
class Trajectory:
    snapshots: list[StringState]
    terminal_event: str  # "duration" or "endpoint_collision"

    @property
    def final(self) -> StringState:
        return self.snapshots[-1]


def evolve(config: SimulationConfig) -> Trajectory:
    """Run a simulation to its duration or a physical terminal event.

    Deterministic for a given config, and equal to a loop of ``step`` calls whose
    steps take over what the step before computed at their positions.  Snapshots
    are stored every ``output_stride`` steps plus the final state, once.  A
    collision is a physical termination and is reported through ``terminal_event``;
    constraint blowup propagates as an exception carrying the partial trajectory.
    """
    state = initial_state_from_config(config)
    dt = config.dt_fraction * state.dsigma
    n_steps = int(round(config.duration / dt)) if config.duration > 0 else 0
    snapshots, event, carried = [state], "duration", None
    for k in range(n_steps):
        try:
            state, carried = _advance(state, config, carried)
        except EndpointCollision:
            event = "endpoint_collision"
            break
        except ConstraintBlowup as exc:
            exc.trajectory = Trajectory(snapshots, "constraint_blowup")
            raise
        if (k + 1) % config.output_stride == 0:
            snapshots.append(state)
    if snapshots[-1] is not state:  # the final state, unless the stride stored it
        snapshots.append(state)
    return Trajectory(snapshots, event)


@dataclass(frozen=True)
class EndpointDiagnostics:
    acceleration_magnitude: float | None
    direction_angle: float | None  # angle from the measured acceleration to -eta, rest frame


@dataclass(frozen=True)
class DiagnosticsRecord:
    constraint_norms: tuple[float, float]
    total_energy: float
    angular_momentum: float
    endpoints: tuple[EndpointDiagnostics, EndpointDiagnostics]


def diagnostics(state: StringState) -> DiagnosticsRecord:
    """Conserved charges and the endpoint acceleration law, from the current state.

    Endpoint accelerations are finite differences of u over proper time across
    the last step, compared against minus the step-midpoint outward direction
    by their angle in the rest frame of the step-midpoint four-velocity; they
    are None until one step of history exists, and the angle is None when the
    measured acceleration is exactly zero (force-free ends, mu0 = 0).  Energy
    sums the interior density mu0 * dX^0/dt with trapezoidal weights plus
    mub * u^0 per end; angular momentum is the z-component analogue.
    """
    mu0 = state.tensions.mu0
    w = np.ones(state.grid_points)
    w[0] = w[-1] = 0.5
    energy = mu0 * state.dsigma * float(np.sum(w * state.velocities[:, 0]))
    ang = mu0 * state.dsigma * float(np.sum(
        w * (state.positions[:, 1] * state.velocities[:, 2]
             - state.positions[:, 2] * state.velocities[:, 1])))
    for mub, x, ep in zip((state.tensions.mub_left, state.tensions.mub_right),
                          state.positions[[0, -1]], state.endpoints):
        energy += mub * abs(ep.four_velocity[0])
        ang += mub * (x[1] * ep.four_velocity[2]
                      - x[2] * ep.four_velocity[1]) * np.sign(ep.four_velocity[0])

    diags = []
    for ep in state.endpoints:
        if (ep.prev_four_velocity is None or ep.prev_proper_time is None
                or ep.edge_tangent is None):
            diags.append(EndpointDiagnostics(None, None))
            continue
        dtau = ep.proper_time - ep.prev_proper_time
        acc = ((ep.four_velocity - ep.prev_four_velocity) / dtau).tolist()
        mag = math.sqrt(max(_fdot(acc, acc), 0.0))
        u_mid = _unit_timelike((0.5 * (ep.four_velocity + ep.prev_four_velocity)).tolist())
        eta_mid = _eta(ep.edge_tangent.tolist(), u_mid)
        na, ne = _rest_norm(acc, u_mid), _rest_norm(eta_mid, u_mid)
        if na == 0.0:  # no measured acceleration (force-free ends): no direction
            diags.append(EndpointDiagnostics(mag, None))
            continue
        # the angle to -eta_mid in the rest frame of u_mid, as 2 asin(|a + eta| / 2)
        # of the unit vectors there, which keeps its accuracy near zero
        chord = _rest_norm([a / na + e / ne for a, e in zip(acc, eta_mid)], u_mid)
        diags.append(EndpointDiagnostics(mag, 2.0 * math.asin(min(0.5 * chord, 1.0))))
    return DiagnosticsRecord(
        constraint_norms=constraint_norms(state),
        total_energy=energy,
        angular_momentum=ang,
        endpoints=(diags[0], diags[1]),
    )
