"""Shared fixtures for the residual and variation test suites."""

import csv
import io

import numpy as np

from worldsheet import catalog
from worldsheet.background import EUCLIDEAN, BackgroundMetric
from worldsheet.geometry import Embedding, _frame_at, _hodge_normal, _step_scale
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
                                   -1)


def richardson_variation(emb, edges, cfg, defo, eps):
    f1 = first_variation_fd(emb, edges, cfg, defo, eps)
    f2 = first_variation_fd(emb, edges, cfg, defo, eps / 2.0)
    return (4.0 * f2 - f1) / 3.0


# Reference oracle for the endpoint step: the batched numpy Runge-Kutta form
# that advanced both ends as one (2, N) array, rows (left, right).  In many
# substeps it converges to the exact hyperbolic motion that
# ``dynamics._advance_end`` takes in closed form.  The float edge direction and
# edge tangents in ``worldsheet.dynamics`` must reproduce its rows bit for bit.


def batched_mdot(u, v):
    return -u[..., 0] * v[..., 0] + (u[..., 1:] * v[..., 1:]).sum(axis=-1)


def batched_normalize_timelike(u):
    return u / np.sqrt(np.maximum(-batched_mdot(u, u), 1e-300))[..., None]


def batched_edge_eta(edge_tangent, u):
    v = edge_tangent + batched_mdot(edge_tangent, u)[..., None] * u
    norm2 = batched_mdot(v, v)
    return v / np.sqrt(np.maximum(norm2, 1e-300))[..., None]


def batched_edge_tangents(positions, dsigma):
    return (3.0 * positions[[0, -1]] - 4.0 * positions[[1, -2]]
            + positions[[2, -3]]) / (2.0 * dsigma)


def batched_advance_endpoints(x0, u0, tau0, tangents, accels, dt):
    speed = np.sqrt(np.maximum(batched_mdot(tangents, tangents), 1e-300))
    rate = speed[:, None]
    pull = accels[:, None]

    def du(u):
        return -pull * batched_edge_eta(tangents, u) * rate

    k1 = du(u0)
    u1 = u0 + 0.5 * dt * k1
    k2 = du(u1)
    u2 = u0 + 0.5 * dt * k2
    k3 = du(u2)
    u3 = u0 + dt * k3
    k4 = du(u3)
    x = x0 + dt / 6.0 * (u0 * rate + 2 * (u1 * rate) + 2 * (u2 * rate) + u3 * rate)
    u = batched_normalize_timelike(u0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
    tau = tau0 + dt / 6.0 * (speed + 2 * speed + 2 * speed + speed)
    return x, u, tau


# Reference oracle for the finite-difference stencil: one call of fn per
# shifted copy of the points, for fn of any output shape (..., *S).
# ``geometry.fd_jacobian`` evaluates fn on the stacked shifts instead, and must
# reproduce it bit for bit.


def looped_fd_jacobian(fn, point, step):
    point = np.asarray(point, dtype=float)
    d = point.shape[-1]
    h = step * _step_scale(point)
    cols = []
    for a in range(d):
        e = np.zeros(d)
        e[a] = 1.0
        diff = fn(point + h * e) - fn(point - h * e)
        h_out = h.reshape(point.shape[:-1] + (1,) * (diff.ndim + 1 - point.ndim))
        cols.append(diff / (2.0 * h_out))
    return np.stack(cols, axis=-1)


# Reference oracle for the edge orientation: the outward-hint rule that the
# ``orientation`` sign replaced.  The unit normal is signed by its inner
# product with a worldsheet vector pointing out of the sheet;
# ``boundary_data`` must give the same eta bit for bit.


def hint_oriented_eta(bnd, u, hint):
    u = np.asarray(u, dtype=float)
    eps = bnd.d_chi(u)
    fr = _frame_at(bnd.parent, bnd.chi(u))
    eta = _hodge_normal(eps, fr.induced_metric_inverse)[0]
    align = np.einsum("...a,...ab,...b->...", eta, fr.induced_metric, hint)
    assert np.all(np.abs(align) >= 1e-12), "hint orthogonal to the edge normal"
    return eta * np.sign(align)[..., None]


def graph_edge_hint(edge):
    """The hint of a graph edge chi(u) = (u, f(u)): +-1 along the last axis."""
    return edge.orientation * np.eye(edge.parent.worldsheet_dim)[-1]


# Reference oracle for ``trajectory.csv``: one ``csv.writer.writerow`` per node,
# each number formatted per cell.  ``worldsheet.cli`` writes each snapshot as
# preformatted lines instead, and must reproduce these bytes exactly.


def csv_writer_trajectory(snapshots, float_fmt):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "node"] + [f"x{i}" for i in range(snapshots[0].positions.shape[1])])
    for s in snapshots:
        for idx, node in enumerate(s.positions.tolist()):
            writer.writerow([c if isinstance(c, str) else float_fmt % float(c)
                             for c in [s.time, str(idx), *node]])
    return buf.getvalue().encode("utf-8")


# Reference oracle for ``endpoints.csv`` and ``diagnostics.csv``: one
# ``csv.writer.writerow`` per row of cells, each number formatted per cell.
# ``worldsheet.cli`` formats each snapshot's rows with one ``%`` instead.


def csv_writer_bytes(header, rows, float_fmt):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else float_fmt % float(c) for c in row])
    return buf.getvalue().encode("utf-8")


def endpoint_cells(snapshots):
    return [[s.time, name, *x, *ep.four_velocity, ep.proper_time]
            for s in snapshots
            for name, x, ep in zip(("left", "right"), s.positions[[0, -1]], s.endpoints)]


def diagnostics_cells(snapshots, diagnostics):
    rows = []
    for s in snapshots:
        d = diagnostics(s)
        acc = [np.nan if e.acceleration_magnitude is None else e.acceleration_magnitude
               for e in d.endpoints]
        rows.append([s.time, *d.constraint_norms, d.total_energy, d.angular_momentum, *acc])
    return rows


# A curved background with closed forms: the round S^3 of radius a in
# coordinates (chi, theta, phi), metric a^2 (dchi^2 + sin^2 chi dOmega^2), and
# the sphere chi = chi0 inside it, with coordinates (theta, phi).  Every
# Christoffel and ambient-Riemann term of the kernels is non-zero there.


def round_s3(a):
    def metric(x):
        s2 = np.sin(x[..., 0]) ** 2
        diag = a * a * np.stack([np.ones_like(s2), s2, s2 * np.sin(x[..., 1]) ** 2], axis=-1)
        return diag[..., :, None] * np.eye(3)

    def christoffels(x):  # [mu, alpha, beta], upper index first
        chi, theta = x[..., 0], x[..., 1]
        cot_chi, cot_theta = np.cos(chi) / np.sin(chi), np.cos(theta) / np.sin(theta)
        out = np.zeros(x.shape[:-1] + (3, 3, 3))
        out[..., 0, 1, 1] = -np.sin(chi) * np.cos(chi)
        out[..., 0, 2, 2] = -np.sin(chi) * np.cos(chi) * np.sin(theta) ** 2
        out[..., 1, 2, 2] = -np.sin(theta) * np.cos(theta)
        out[..., 1, 0, 1] = out[..., 1, 1, 0] = cot_chi
        out[..., 2, 0, 2] = out[..., 2, 2, 0] = cot_chi
        out[..., 2, 1, 2] = out[..., 2, 2, 1] = cot_theta
        return out

    def riemann(x):  # R^m_{nrs} = (delta^m_r g_ns - delta^m_s g_nr) / a^2
        g, eye = metric(x), np.eye(3)
        return (np.einsum("mr,...ns->...mnrs", eye, g)
                - np.einsum("ms,...nr->...mnrs", eye, g)) / (a * a)

    return BackgroundMetric(3, EUCLIDEAN, metric, christoffels, riemann)


def s3_sphere(a, chi0):
    """The umbilic sphere chi = chi0 in ``round_s3(a)``: K_ab = (cot chi0 / a) gamma_ab."""
    def pos(u):
        return np.concatenate([np.full(u.shape[:-1] + (1,), chi0), u], axis=-1)

    def d_pos(u):
        return np.broadcast_to(np.eye(3)[:, 1:], u.shape[:-1] + (3, 2)).copy()

    def dd_pos(u):
        return np.zeros(u.shape[:-1] + (3, 2, 2))

    return Embedding(2, round_s3(a), pos, d_pos, dd_pos)


# Reference oracles for the structure-equation kernels: the einsum forms that
# ``geometry._covariant``, ``_connection``, ``_extrinsic`` and ``_twist``,
# ``boundary._projector``, ``integrability._curvature`` (through ``_riemann``
# and ``_twist_curvature``) and ``integrability._frame_pullback`` replaced.
# The kernels must agree with them to roundoff.


def einsum_covariant_hessian(dd, chris, tangents):
    return dd + np.einsum("...mrs,...ra,...sb->...mab", chris, tangents, tangents)


def einsum_covariant_frame(dn, tangents, normals, chris):
    return dn + np.einsum("...mrs,...rA,...sI->...mIA", chris, tangents, normals)


def einsum_riemann(conn, dconn, metric):
    mixed = (np.einsum("...dbac->...abcd", dconn)
             - np.einsum("...cbad->...abcd", dconn)
             + np.einsum("...cea,...dbe->...abcd", conn, conn)
             - np.einsum("...dea,...cbe->...abcd", conn, conn))
    return np.einsum("...ae,...ebcd->...abcd", metric, mixed)


def einsum_twist_curvature(omega, domega):
    comm = (np.einsum("...aik,...bkj->...abij", omega, omega)
            - np.einsum("...bik,...akj->...abij", omega, omega))
    return (np.einsum("...aijb->...abij", domega)
            - np.einsum("...bija->...abij", domega) + comm)


def einsum_frame_pullback_blocks(r, t, n):
    """The Gauss, Codazzi and Ricci left-hand sides R(t,t,t,t), R(t,t,t,n), R(t,t,n,n)."""
    return (np.einsum("...mnrs,...ma,...nb,...rc,...sd->...abcd", r, t, t, t, t),
            np.einsum("...mnrs,...ma,...nb,...rc,...si->...abci", r, t, t, t, n),
            np.einsum("...mnrs,...ma,...nb,...ri,...sj->...abij", r, t, t, n, n))


def einsum_connection(h_inv, tangents, g, sec):
    return np.einsum("...cd,...nd,...nm,...mab->...abc", h_inv, tangents, g, sec)


def einsum_extrinsic(normals, g, sec):
    kk = -np.einsum("...mi,...mn,...nab->...abi", normals, g, sec)
    return 0.5 * (kk + np.swapaxes(kk, -3, -2))


def einsum_twist(cov, normals, g):
    omega = np.einsum("...nJ,...nm,...mIA->...AIJ", normals, g, cov)
    return 0.5 * (omega - np.swapaxes(omega, -1, -2))


def einsum_projector(eps, h_inv):
    return np.einsum("...aA,...AB,...bB->...ab", eps, h_inv, eps)


# Reference oracles for the small-batch kernels: the numpy wrapper forms that
# ``geometry._det_adjugate`` (``np.stack``, ``np.cross``), ``geometry.fd_jacobian``
# (``np.moveaxis``) and ``catalog._stack`` and ``_sym2`` (``np.stack``) replaced
# with the C-level operations those wrappers reduce to.  They must agree bit for bit.


def stacked_det_adjugate(m):
    d = m.shape[-1]
    if d == 1:
        return m[..., 0, 0], np.ones_like(m)
    if d == 2:
        a, b, c, e = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
        return a * e - b * c, np.stack([e, -b, -c, a], axis=-1).reshape(m.shape)
    cols = np.swapaxes(m, -1, -2)
    adj = np.cross(cols[..., [1, 2, 0], :], cols[..., [2, 0, 1], :])
    return np.sum(adj[..., 0, :] * cols[..., 0, :], axis=-1), adj


def moveaxis_fd_jacobian(fn, point, step):
    point = np.asarray(point, dtype=float)
    d = point.shape[-1]
    h = step * _step_scale(point)
    shift = h * np.eye(d).reshape((d,) + (1,) * (h.ndim - 1) + (d,))
    f = fn(np.concatenate([point + shift, point - shift]))
    h = h.reshape(point.shape[:-1] + (1,) * (f.ndim - point.ndim))
    return np.ascontiguousarray(np.moveaxis((f[:d] - f[d:]) / (2.0 * h), 0, -1))


def stacked_sym2(xx, xy, yy):
    return np.stack([np.stack([xx, xy], axis=-1), np.stack([xy, yy], axis=-1)], axis=-1)


def where_smooth_ramp(x):
    """``variation._smooth_ramp`` in its branch form, each end set to 0 by ``np.where``."""
    x = np.clip(x, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = np.where(x > 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        hi = np.where(x < 1.0, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
        return lo / (lo + hi)
