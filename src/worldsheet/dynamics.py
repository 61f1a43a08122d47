"""Time evolution of a string with massive endpoints in flat 2+1 Minkowski space.

Interior nodes obey the wave equation of the orthonormal (conformal) gauge,
integrated by velocity-Verlet leapfrog.  Each endpoint is its own relativistic
particle pulled with constant proper magnitude mu0/mub along minus the outward
edge direction eta, the one-sided sigma derivative at the edge orthonormalized
against its four-velocity.  An end sits at a fixed sigma and ages at the rate
|X'| per slice (the gauge constraints force -Xdot^2 = X'^2 there), so the time
component of an accelerating end trails the slice time (by 0.25 at t = 1 in the
collapse from rest at x0 = 1).  With its edge tangent frozen over a step, an end
moves on an exact hyperbola, taken in closed form by one float kernel per end,
``_step_end``: a position-only predictor, the step-midpoint tangent, a corrector
with it, then the new tangent and its speed.  ``evolve`` loops ``_advance`` on
raw (M, 3) arrays and 3-vectors (t, x, y), hands each step the half kick, edge
rows, tangents and speeds the step before computed, and builds a ``StringState``
only to store it; ``step`` wraps the same kernel.  A step writes its new
positions, velocities and time into a row of ``_scratch_rows``, which ``evolve``
allocates once per run and ``step`` once per call.  The float kernels unpack
their 3-vectors and keep numpy's operation order, so they match array forms of
the same formulas to the bit.

The gauge-constraint gate runs over a block of steps at once, the (S, M, 3) rows
as the steps wrote them: in ``evolve`` when the block holds ``GATE_NODES`` nodes
(16 steps at M = 200), before a snapshot is stored, after the last step, and
before an exception a step raised propagates; ``step`` is a block of one.  Each
element goes through the same ufuncs in the same order and the max over nodes is
exact, so every step's norms, and which step fails first, are those of a gate
after each step.  The earliest failing step's ConstraintBlowup wins over anything
a later step raised, and at one step the gate decides before the separation
check.  A stored snapshot copies its rows, so it owns its arrays and never comes
from a step the gate has not passed.

An end is resolved while its edge tangent T is spacelike by a margin, T.T >
EDGE_MARGIN (T^0)^2, and its proper time advances.  A step at which either fails
for an end raises EndpointCollision, which ends an ``evolve`` as
``endpoint_collision`` at the last resolved step: the ends are within what the
sheet resolves, as a collapsing string's are shortly before they meet.  No
Minkowski square is clamped: a four-velocity that is not timelike, or an edge
direction that is not spacelike, raises InvalidParameters, and NaN passes every
check on to the constraint gate, which raises ConstraintBlowup.  Units: c = 1.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintBlowup, EndpointCollision, InvalidParameters, _numbers

Array = np.ndarray

MIN_GRID_POINTS = 16
EDGE_MARGIN = 2.0 ** -26  # an edge tangent T with T.T at most this times T^0 squared: unresolved
GATE_NODES = 3200  # the nodes of the steps that ``evolve`` gates at once: 16 steps at M = 200


def rotating_orbit_omega(mu0: float, mub: float, radius: float) -> float:
    """Angular velocity of the circular endpoint orbit: w^2 R / (1 - w^2 R^2) = mu0/mub.

    The positive root always satisfies w R < 1, grows monotonically with
    mu0/mub, and w R -> 1 as mub -> 0 (the massless-edge limit).
    """
    if not (_numbers(mu0, mub, radius) and all(0 < v < math.inf for v in (mu0, mub, radius))):
        raise InvalidParameters("tensions and radius must be finite and positive")
    q = mu0 / mub
    return math.sqrt(q / (radius * (1.0 + q * radius)))


@dataclass(frozen=True)
class Tensions:
    mu0: float
    mub_left: float
    mub_right: float

    def __post_init__(self) -> None:
        if not (_numbers(self.mu0, self.mub_left, self.mub_right)
                and 0 <= self.mu0 < math.inf and 0 < self.mub_left < math.inf
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
    """Discretized string on a worldsheet-time slice in 2+1 Minkowski space.

    ``positions``/``velocities`` are (M, 3), all M nodes as (t, x, y) rows, the
    endpoints first and last; ``endpoints`` holds what else each end carries.
    """

    time: float
    positions: Array        # (M, 3)
    velocities: Array       # (M, 3)
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
        if not isinstance(self.initial_data, Mapping):
            raise InvalidParameters(f"initial_data must be a mapping, got {self.initial_data!r}")
        counts = (self.grid_points, self.output_stride)
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                   for n in counts):
            raise InvalidParameters("grid_points and output_stride must be integers")
        if self.grid_points < MIN_GRID_POINTS:
            raise InvalidParameters(f"grid_points must be >= {MIN_GRID_POINTS}")
        if not _numbers(self.duration, self.dt_fraction, self.constraint_tol):
            raise InvalidParameters("duration, dt_fraction and constraint_tol must be numbers")
        if not 0.0 < self.dt_fraction <= 1.0:
            raise InvalidParameters("dt_fraction must satisfy 0 < dt <= dsigma (CFL)")
        if not 0 <= self.duration < math.inf:
            raise InvalidParameters("duration must be finite and non-negative")
        if not 0 < self.constraint_tol < math.inf or self.output_stride < 1:
            raise InvalidParameters("bad constraint tolerance or output stride")


# Float kernels of one endpoint: 3-vectors (t, x, y) of Python floats, unpacked.


def _fdot(u, v) -> float:
    """Minkowski product in numpy's order, -u0 v0 + (0.0 + u1 v1 + u2 v2): numpy sums a
    short axis left to right from 0.0, and starting there too keeps a zero sum's sign."""
    (u0, u1, u2), (v0, v1, v2) = u, v
    return -u0 * v0 + (0.0 + u1 * v1 + u2 * v2)


def _unit_timelike(u) -> tuple:
    square = -_fdot(u, u)
    if square <= 0.0:
        raise InvalidParameters(f"four-velocity {u} is not timelike")
    norm = math.sqrt(square)
    return u[0] / norm, u[1] / norm, u[2] / norm


def _eta(edge_tangent, u) -> tuple:
    """Unit outward worldsheet vector: edge tangent orthonormalized against u."""
    d = _fdot(edge_tangent, u)
    (t0, t1, t2), (u0, u1, u2) = edge_tangent, u
    v0, v1, v2 = v = (t0 + d * u0, t1 + d * u1, t2 + d * u2)
    square = _fdot(v, v)
    if square <= 0.0:
        raise InvalidParameters(f"edge direction {v} is not spacelike")
    norm = math.sqrt(square)
    return v0 / norm, v1 / norm, v2 / norm


def _rest_norm(v) -> float:
    """Euclidean norm of v in the rest frame of a unit timelike u with v.u = 0: sqrt(v.v)."""
    return math.sqrt(max(_fdot(v, v), 0.0))


def _speed(edge_tangent) -> float:
    """Norm of the edge tangent: the proper-time rate of the endpoint.  A tangent that is not
    spacelike by ``EDGE_MARGIN`` is an end the sheet no longer resolves: EndpointCollision."""
    square = _fdot(edge_tangent, edge_tangent)
    if square <= EDGE_MARGIN * edge_tangent[0] ** 2:
        raise EndpointCollision(f"an end's edge tangent {edge_tangent} is not spacelike "
                                f"by the margin (T.T = {square:.3e})")
    return math.sqrt(square)


def _outward_tangent(a, b, c, dsigma: float) -> tuple:
    """Second-order one-sided sigma derivative at the edge row ``a`` from the next rows inward
    ``b``, ``c``; at the left edge it is minus the sigma derivative, so both point outward."""
    h = 2.0 * dsigma
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a, b, c
    return ((3.0 * a0 - 4.0 * b0 + c0) / h, (3.0 * a1 - 4.0 * b1 + c1) / h,
            (3.0 * a2 - 4.0 * b2 + c2) / h)


def _midpoint(p, q) -> tuple:
    return 0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1]), 0.5 * (p[2] + q[2])


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
    return StringState(0.0, positions, velocities, (left, right), tensions, dsig,
                       2.0 * dsig * scale)


def collapsing_initial_state(mu0: float, mub: float, x0: float,
                             grid_points: int, *,
                             mub_left: float | None = None,
                             mub_right: float | None = None) -> StringState:
    """Straight string at rest between +-x0; endpoint masses may differ per end."""
    if not (_numbers(x0) and 0 < x0 < math.inf):
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
    """Max interior-node violations of the orthonormal-gauge constraints."""
    return tuple(_constraint_norms(state.positions, state.velocities, state.dsigma).tolist())


def _constraint_norms(pos: Array, vel: Array, dsigma: float) -> Array:
    """``constraint_norms`` of one (M, N) state, or of each of (S, M, N) states as a (2, S)
    array: the max over nodes of the products of the (M-2, N) rows, their columns summed in
    ``_fdot``'s order, as abs drops a zero's sign."""
    xp = pos[..., 2:, :] - pos[..., :-2, :]
    xp /= 2.0 * dsigma
    xd = vel[..., 1:-1, :]
    prods = np.empty((3, *xp.shape))
    for out, a, b in zip(prods, (xd, xd, xp), (xp, xd, xp)):
        np.multiply(a, b, out=out)
    total = prods[..., 1]
    for j in range(2, prods.shape[-1]):
        total = total + prods[..., j]
    diff = np.subtract(total, prods[..., 0], out=total)  # rows: mixed, xd2, xp2
    diff[1] += diff[2]
    norms = diff[:2]
    return np.abs(norms, out=norms).max(axis=-1)


def _gate(rows: tuple, start: int, stop: int, dsigma: float, config: SimulationConfig) -> None:
    """The constraint gate of the steps in rows ``start:stop`` of ``_scratch_rows``: raises
    ConstraintBlowup at the earliest whose norms exceed 100x ``constraint_tol`` or are not
    finite."""
    positions, velocities, times = rows
    c1s, c2s = _constraint_norms(positions[start:stop], velocities[start:stop], dsigma).tolist()
    limit = 100.0 * config.constraint_tol
    for t, c1, c2 in zip(times[start:stop], c1s, c2s):
        if not (c1 <= limit and c2 <= limit):  # also true for NaN
            raise ConstraintBlowup(f"gauge constraints blew up: ({c1:.3e}, {c2:.3e}) at t={t:.4f}")


def _end_position(x0, u0, tangent, speed: float, accel: float, dt: float) -> tuple:
    """(X, dtau, w, sinh(w), eta0) of one endpoint after one step: its position, in closed form.

    ``speed`` is ``_speed(tangent)`` and ``accel`` the pull mu0/mub.  The rates are dX/dt
    = u speed and du/dt = -accel eta speed.  With the tangent frozen the motion is
    hyperbolic: over dtau = speed dt, with w = accel dtau, u = cosh(w) u0 - sinh(w) eta0
    and X = X0 + dtau (sinh(w) u0 - 2 sinh^2(w/2) eta0) / w.
    """
    dtau = speed * dt
    w = accel * dtau
    e0, e1, e2 = eta0 = _eta(tangent, u0)
    sinh = math.sinh(w)
    along, across = ((dtau, 0.0) if w == 0.0  # no pull, or one so weak that w underflows
                     else (dtau * (sinh / w), dtau * (2.0 * math.sinh(0.5 * w) ** 2 / w)))
    (p0, p1, p2), (a0, a1, a2) = x0, u0
    x = (p0 + along * a0 - across * e0, p1 + along * a1 - across * e1,
         p2 + along * a2 - across * e2)
    return x, dtau, w, sinh, eta0


def _advance_end(x0, u0, tau0: float, tangent, accel: float, dt: float) -> tuple:
    """(X, u renormalized, tau) of one endpoint after one step (``_end_position``); an end whose
    proper time would not advance raises EndpointCollision."""
    x, dtau, w, sinh, (e0, e1, e2) = _end_position(x0, u0, tangent, _speed(tangent), accel, dt)
    tau = tau0 + dtau
    if tau == tau0:
        raise EndpointCollision(f"an end's proper time {tau0!r} no longer advances")
    cosh, (a0, a1, a2) = math.cosh(w), u0
    u = _unit_timelike((cosh * a0 - sinh * e0, cosh * a1 - sinh * e1, cosh * a2 - sinh * e2))
    return x, u, tau


def _end_facts(rows: list, dsigma: float) -> tuple[list, tuple, float]:
    """(rows, outward tangent, its ``_speed``) of one end, from its three rows, edge row first."""
    tangent = _outward_tangent(*rows, dsigma)
    return rows, tangent, _speed(tangent)


def _half_kick(pos: Array, dsigma: float, dt: float) -> Array:
    """Half a leapfrog kick of the interior at ``pos``: dt/2 times the Laplacian there."""
    return 0.5 * dt * ((pos[2:] - 2.0 * pos[1:-1] + pos[:-2]) / (dsigma * dsigma))


def _carry(pos: Array, dsigma: float, dt: float) -> tuple:
    """What a step reads at ``pos`` besides it: (``_half_kick``, each end's ``_end_facts``)."""
    return (_half_kick(pos, dsigma, dt),
            (_end_facts(pos[:3].tolist(), dsigma), _end_facts(pos[:-4:-1].tolist(), dsigma)))


def _scratch_rows(pos: Array, steps: int) -> tuple:
    """The rows of ``steps`` steps of ``_advance`` at ``pos``'s shape: (positions, velocities,
    times), a block of (steps, M, N) states that ``_gate`` takes as it is."""
    m, n = pos.shape
    return np.empty((steps, m, n)), np.empty((steps, m, n)), [0.0] * steps


def _step_end(facts: tuple, inner: list, start: tuple, accel: float, dt: float,
              dsigma: float) -> tuple:
    """One end over one step, from its ``_end_facts``, its (u, tau) and the new rows beside its
    edge row: (X, (u, tau), step-midpoint tangent, new ``_end_facts``)."""
    ((x0, b0, c0), tangent, speed), (u0, tau0), (b1, c1) = facts, start, inner
    x1 = _end_position(x0, u0, tangent, speed, accel, dt)[0]
    mid = _outward_tangent(_midpoint(x0, x1), _midpoint(b0, b1), _midpoint(c0, c1), dsigma)
    x, u, tau = _advance_end(x0, u0, tau0, mid, accel, dt)
    return x, (u, tau), mid, _end_facts([x, *inner], dsigma)


def _string_state(like: StringState, time: float, pos: Array, vel: Array, ends: list,
                  starts: list, mids: list) -> StringState:
    """``like``'s string at ``_advance``'s raw values, with ``starts`` as the ends' history."""
    ((u_l, tau_l), (u_r, tau_r)), ((u0_l, tau0_l), (u0_r, tau0_r)), (mid_l, mid_r) = (
        ends, starts, mids)
    endpoints = (EndpointState(np.array(u_l), tau_l, np.array(u0_l), tau0_l, np.array(mid_l)),
                 EndpointState(np.array(u_r), tau_r, np.array(u0_r), tau0_r, np.array(mid_r)))
    return StringState(time, pos, vel, endpoints, like.tensions, like.dsigma,
                       like.collision_threshold)


def step(state: StringState, config: SimulationConfig) -> StringState:
    """One leapfrog step of the interior plus closed-form endpoint advances.

    Steps dt = ``config.dt_fraction`` * dsigma.  Raises ConstraintBlowup when the
    gauge constraints exceed 100x the configured tolerance or are not finite (a NaN
    state), and EndpointCollision when the endpoint separation falls below grid resolution
    or an end is no longer resolved (its edge tangent is not spacelike by ``EDGE_MARGIN``,
    or its proper time would not advance).  The gate is ``evolve``'s over a block of one
    step, and it decides before the separation check.  Positions and velocities other than
    (M, 3), 2+1 dimensions, raise InvalidParameters.
    """
    if state.positions.shape[1:] != (3,) or state.velocities.shape != state.positions.shape:
        raise InvalidParameters("string positions and velocities must be (M, 3)")
    starts = [(ep.four_velocity.tolist(), ep.proper_time) for ep in state.endpoints]
    pos, rows = state.positions, _scratch_rows(state.positions, 1)
    time, pos, vel, ends, mids, _, sep = _advance(
        state.time, pos, state.velocities, starts,
        _carry(pos, state.dsigma, config.dt_fraction * state.dsigma), rows, 0, state, config)
    _gate(rows, 0, 1, state.dsigma, config)
    _check_separation(sep, state, time)
    return _string_state(state, time, pos, vel, ends, starts, mids)


def _advance(time: float, pos: Array, vel: Array, starts: list, carry: tuple, rows: tuple,
             row: int, like: StringState, config: SimulationConfig) -> tuple:
    """``step`` on raw values and ``like``'s constants, from the ``_carry`` of ``pos``, without
    the gate or the separation check: its positions, velocities and time go to ``row`` of
    ``_scratch_rows``.  Returns (time, positions, velocities, each end's (u, tau), midpoint
    tangents, ``_carry``, end separation) after it."""
    dsigma, tensions = like.dsigma, like.tensions
    dt = config.dt_fraction * dsigma
    (kick, facts), (positions, velocities, times) = carry, rows
    accels = (tensions.mu0 / tensions.mub_left, tensions.mu0 / tensions.mub_right)
    v_half = vel[1:-1] + kick
    new_pos = positions[row]
    interior = np.multiply(v_half, dt, out=new_pos[1:-1])
    np.add(pos[1:-1], interior, out=interior)
    xl, end_l, mid_l, facts_l = _step_end(facts[0], new_pos[1:3].tolist(), starts[0],
                                          accels[0], dt, dsigma)
    xr, end_r, mid_r, facts_r = _step_end(facts[1], new_pos[-2:-4:-1].tolist(), starts[1],
                                          accels[1], dt, dsigma)
    new_pos[0], new_pos[-1] = xl, xr
    kick = _half_kick(new_pos, dsigma, dt)
    new_vel = velocities[row]
    np.add(v_half, kick, out=new_vel[1:-1])
    (a0, a1, a2), (b0, b1, b2) = end_l[0], end_r[0]  # each end's u, times its new speed
    speed_l, speed_r = facts_l[2], facts_r[2]
    new_vel[0] = a0 * speed_l, a1 * speed_l, a2 * speed_l
    new_vel[-1] = b0 * speed_r, b1 * speed_r, b2 * speed_r
    time += dt
    times[row] = time
    return (time, new_pos, new_vel, (end_l, end_r), (mid_l, mid_r), (kick, (facts_l, facts_r)),
            math.dist(xl[1:], xr[1:]))


def _check_separation(sep: float, like: StringState, time: float) -> None:
    """EndpointCollision when the ends' separation ``sep`` is below ``like``'s grid resolution."""
    if sep < like.collision_threshold:
        raise EndpointCollision(
            f"endpoints within grid resolution ({sep:.3e}) at t={time:.4f}")


@dataclass
class Trajectory:
    snapshots: list[StringState]
    terminal_event: str  # "duration" or "endpoint_collision"

    @property
    def final(self) -> StringState:
        return self.snapshots[-1]


def evolve(config: SimulationConfig) -> Trajectory:
    """Run a simulation to its duration or a physical terminal event.

    Deterministic for a given config, and equal to a loop of ``step`` calls, also in a
    run that blows up: it runs ``_advance`` on raw values, each step taking over what the
    step before computed and writing its state into a row of one block of scratch rows,
    and stores a ``StringState`` every ``output_stride`` steps plus the final one.  The
    gate runs over the steps not yet gated when the block holds ``GATE_NODES`` nodes,
    before a snapshot is stored, after the last step, and before an exception a step
    raised propagates; a stored snapshot copies its rows.  A collision, or an end the
    sheet no longer resolves, is a physical termination reported through
    ``terminal_event``, the last stored state being the last resolved step; constraint
    blowup at the earliest failing step propagates as an exception carrying the partial
    trajectory, whatever a later step raised.
    """
    state = initial_state_from_config(config)
    dsigma = state.dsigma
    dt = config.dt_fraction * dsigma
    n_steps = int(round(config.duration / dt)) if config.duration > 0 else 0
    snapshots, event = [state], "duration"
    time, pos, vel = state.time, state.positions, state.velocities
    ends = [(ep.four_velocity.tolist(), ep.proper_time) for ep in state.endpoints]
    starts, mids, carry = ends, [], _carry(pos, dsigma, dt)
    block = max(2, GATE_NODES // pos.shape[0])
    rows = _scratch_rows(pos, block + 1)  # a step never writes the row it starts from
    first = row = 0  # the steps not yet gated are in rows first:row
    stored = True
    try:
        for k in range(n_steps):
            try:
                t, new_pos, new_vel, new_ends, new_mids, carry, sep = _advance(
                    time, pos, vel, ends, carry, rows, row, state, config)
                row += 1
                _check_separation(sep, state, t)
            except EndpointCollision:
                event = "endpoint_collision"
                break
            except Exception:  # the steps before it are gated first: an earlier blowup wins
                _gate(rows, first, row, dsigma, config)
                raise
            time, pos, vel, starts, ends, mids = t, new_pos, new_vel, ends, new_ends, new_mids
            stored = (k + 1) % config.output_stride == 0
            if stored or row - first == block:
                _gate(rows, first, row, dsigma, config)
                first = row = int(row == 1)  # row 0 next, unless it holds the next start
            if stored:
                snapshots.append(
                    _string_state(state, time, pos.copy(), vel.copy(), ends, starts, mids))
        _gate(rows, first, row, dsigma, config)
    except ConstraintBlowup as exc:
        exc.trajectory = Trajectory(snapshots, "constraint_blowup")
        raise exc from None  # what a later step raised is not reported
    if not stored:  # the final state, unless the stride stored it
        snapshots.append(_string_state(state, time, pos.copy(), vel.copy(), ends, starts, mids))
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
    mub * u^0 per end; angular momentum is the z-component analogue.  A state that
    is not (M, 3) raises InvalidParameters, as in ``step``.
    """
    if state.positions.shape[1:] != (3,) or state.velocities.shape != state.positions.shape:
        raise InvalidParameters("string positions and velocities must be (M, 3)")
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
        na = _rest_norm(acc)  # acc, eta_mid and their chord are all orthogonal to u_mid
        u_mid = _unit_timelike((0.5 * (ep.four_velocity + ep.prev_four_velocity)).tolist())
        eta_mid = _eta(ep.edge_tangent.tolist(), u_mid)
        ne = _rest_norm(eta_mid)
        if na == 0.0:  # no measured acceleration (force-free ends): no direction
            diags.append(EndpointDiagnostics(na, None))
            continue
        # the angle to -eta_mid in the rest frame of u_mid, as 2 asin(|a + eta| / 2)
        # of the unit vectors there, which keeps its accuracy near zero
        chord = _rest_norm([a / na + e / ne for a, e in zip(acc, eta_mid)])
        diags.append(EndpointDiagnostics(na, 2.0 * math.asin(min(0.5 * chord, 1.0))))
    return DiagnosticsRecord(constraint_norms=constraint_norms(state), total_energy=energy,
                             angular_momentum=ang, endpoints=(diags[0], diags[1]))
