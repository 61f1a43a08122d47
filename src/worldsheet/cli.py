"""Command-line surface: verify catalog residuals, evolve strings, scan parameters.

Outputs are deterministic: CSV numbers use 12 significant digits with LF line
endings, and every run writes a JSON manifest keyed by a stable digest of its
canonicalized configuration.  A re-run into the same directory with the same
digest, or into a directory whose manifest is corrupt, refuses to overwrite
unless forced.  Outputs are all or nothing: each file is written under a
temporary name and renamed into place only once all of them are written, the
manifest last.

A ``hole_radius`` scan evaluates the edge at all its radii in one batch; if
the batch fails, the scan falls back to one evaluation per radius, so each
failing radius gets its own ``failed: ...`` row.  An ``orbit_omega`` scan
builds one rotating worldsheet per point.

Exit codes: 0 success or physical termination, 1 numerical/physics failure,
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .boundary import boundary_data, edge_equation_residual
from .catalog import (
    _constant_boundary,
    catalog_ids,
    entry_from_id,
    evaluate_entry,
    helicoid,
    planar_hole,
)
from .dynamics import (
    ConstraintBlowup,
    SimulationConfig,
    diagnostics,
    evolve,
    initial_state_from_config,
    rotating_orbit_omega,
)
from .errors import InvalidParameters, WorldsheetError

FLOAT_FMT = "%.12e"

# the optional evolve keys and their kinds; SimulationConfig holds their defaults
_EVOLVE_OPTIONAL = {"grid_points": int, "dt_fraction": float, "constraint_tol": float,
                    "output_stride": int}
_EVOLVE_KEYS = {"schema_version", "initial_data", "duration", *_EVOLVE_OPTIONAL}
_SCAN_KEYS = {"schema_version", "scan", "start", "stop", "points",
              "mu0", "mub", "radius"}


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    return FLOAT_FMT % float(x)


def _write_csv(path: Path, header: list[str], rows: Iterable[list | str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
            else:
                writer.writerow([c if isinstance(c, str) else _fmt(c) for c in row])


def config_digest(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _prepare_out_dir(out_dir: Path, digest: str, force: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.json"
    if manifest.exists() and not force:
        try:
            existing = json.loads(manifest.read_text())
        except ValueError:  # not JSON, or not text at all
            existing = None
        if not isinstance(existing, dict):
            raise UsageError(f"{manifest} is corrupt; use --force to overwrite")
        if existing.get("config_digest") == digest:
            raise UsageError(
                f"{out_dir} already holds results for digest {digest}; use --force to overwrite")


def _write_outputs(out_dir: Path, command: str, digest: str, started: str,
                   terminal_event: str, tables: dict[str, tuple[list[str], Iterable[list]]]
                   ) -> None:
    """Write each CSV table, then the manifest, all or nothing.

    Every file goes to a temporary name in ``out_dir`` first; only when all are
    written are they renamed into place, the manifest last.  On failure the
    temporary files are removed and the directory keeps what it held before.
    """
    staged = []
    try:
        for name, (header, rows) in tables.items():
            staged.append(out_dir / f".{name}.tmp")
            _write_csv(staged[-1], header, rows)
        manifest = {
            "command": command,
            "config_digest": digest,
            "code_version": __version__,
            "started_at": started,
            "finished_at": _utc_now(),
            "terminal_event": terminal_event,
            "outputs": sorted(tables),
        }
        staged.append(out_dir / ".manifest.json.tmp")
        staged[-1].write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        raise
    for tmp, name in zip(staged, [*tables, "manifest.json"]):
        os.replace(tmp, out_dir / name)


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _finite_number(text: str) -> float:
    """JSON float and constant hook: NaN, Infinity and overflowing floats are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise UsageError(f"config numbers must be finite, got {text}")
    return value


def _load_config(path: str, allowed_keys: set[str]) -> dict:
    try:
        config = json.loads(Path(path).read_text(), parse_float=_finite_number,
                            parse_constant=_finite_number)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError("config must be a JSON object")
    if config.get("schema_version") != 1:
        raise UsageError("config requires schema_version = 1")
    unknown = set(config) - allowed_keys
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return config


_REQUIRED = object()


def _config_value(config: dict, key: str, default=_REQUIRED):
    """``config[key]``, or ``default``; a missing key without a default is a usage error."""
    if key in config:
        return config[key]
    if default is _REQUIRED:
        raise UsageError(f"config requires {key!r}")
    return default


def _config_number(config: dict, key: str, kind: type = float, default=_REQUIRED):
    """``config[key]`` as a float, or as an int when ``kind`` is int.

    Only a JSON number converts: text and booleans do not.  JSON floats are
    finite already (``_finite_number``).  A missing required key, any other
    value, an int that overflows a float and a non-integral count are usage errors.
    """
    raw = _config_value(config, key, default)
    try:
        value = float(raw) if type(raw) in (int, float) else None  # a bool is no number
    except OverflowError:
        value = None
    if value is None:
        raise UsageError(f"config {key!r} must be a number, got {raw!r}")
    if kind is int:
        if not value.is_integer():
            raise UsageError(f"config {key!r} must be an integer, got {raw!r}")
        return int(value)
    return value


def cmd_verify(args) -> int:
    started = _utc_now()
    entries = []
    for entry_id in args.entries:
        try:
            entries.append((entry_id, entry_from_id(entry_id)))
        except (KeyError, InvalidParameters) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    digest = config_digest({"command": "verify", "entries": sorted(args.entries)})
    out_dir = Path(args.out_dir)
    _prepare_out_dir(out_dir, digest, args.force)

    rows = []
    all_pass = True
    for entry_id, entry in entries:
        for quantity, value, expected, residual, ok in evaluate_entry(entry):
            rows.append([entry_id, quantity, value, expected, residual,
                         "true" if ok else "false"])
            all_pass &= ok
    _write_outputs(out_dir, "verify", digest, started,
                   "all_pass" if all_pass else "residual_failure",
                   {"residuals.csv": (["entry", "quantity", "value", "expected",
                                       "residual", "pass"], rows)})
    for row in rows:
        label = "pass" if row[5] == "true" else "FAIL"
        print(f"{label} {row[0]:24s} {row[1]:28s} residual={_fmt(row[4])}")
    return 0 if all_pass else 1


def _trajectory_rows(snapshots) -> Iterator[str]:
    """Each snapshot as one ``%`` of the run's (M, N) row template, its "T"s (in no formatted
    float) replaced by the time: the bytes of ``csv.writer``, as no field needs quoting."""
    m, n = snapshots[0].positions.shape
    block = "".join([f"T{idx}," + ",".join([FLOAT_FMT] * n) + "\n" for idx in range(m)])
    for s in snapshots:
        yield (block % tuple(s.positions.ravel().tolist())).replace("T", _fmt(s.time) + ",")


def _endpoint_rows(snapshots) -> Iterator[str]:
    """Both end rows of each snapshot, (t, side, position, four-velocity, proper time), as one
    ``%`` of the run's template: the bytes of ``csv.writer`` with ``_fmt`` per number."""
    numbers = ",".join([FLOAT_FMT] * (2 * snapshots[0].positions.shape[1] + 1))
    block = "".join([f"{FLOAT_FMT},{side},{numbers}\n" for side in ("left", "right")])
    for s in snapshots:
        left, right = s.endpoints
        yield block % (s.time, *s.positions[0].tolist(), *left.four_velocity.tolist(),
                       left.proper_time, s.time, *s.positions[-1].tolist(),
                       *right.four_velocity.tolist(), right.proper_time)


def _diagnostics_rows(snapshots) -> list[str]:
    """Each snapshot's ``diagnostics`` as one ``%`` of the run's row template, an end without
    an acceleration as nan: the bytes of ``csv.writer`` with ``_fmt`` per number."""
    row = ",".join([FLOAT_FMT] * 7) + "\n"
    rows = []
    for s in snapshots:
        d = diagnostics(s)
        acc = [math.nan if e.acceleration_magnitude is None else e.acceleration_magnitude
               for e in d.endpoints]
        rows.append(row % (s.time, *d.constraint_norms, d.total_energy, d.angular_momentum,
                           *acc))
    return rows


def cmd_evolve(args) -> int:
    started = _utc_now()
    config = _load_config(args.config, _EVOLVE_KEYS)
    initial_data = _config_value(config, "initial_data")
    if not isinstance(initial_data, dict):
        raise UsageError(f"config 'initial_data' must be an object, got {initial_data!r}")
    initial_data = {key: value if key == "id" else _config_number(initial_data, key)
                    for key, value in initial_data.items()}
    sim = SimulationConfig(
        initial_data=initial_data,
        duration=_config_number(config, "duration"),
        **{key: _config_number(config, key, kind)
           for key, kind in _EVOLVE_OPTIONAL.items() if key in config},
    )
    initial_state_from_config(sim)  # rejects bad initial data before any output exists
    digest = config_digest(config)
    out_dir = Path(args.out_dir)
    _prepare_out_dir(out_dir, digest, args.force)
    try:
        traj, status = evolve(sim), 0
    except ConstraintBlowup as exc:
        traj, status = exc.trajectory, 1  # its terminal_event is "constraint_blowup"
    event, snapshots = traj.terminal_event, traj.snapshots

    comp_names = [f"x{i}" for i in range(snapshots[0].positions.shape[1])]
    _write_outputs(out_dir, "evolve", digest, started, event, {
        "trajectory.csv": (["t", "node"] + comp_names, _trajectory_rows(snapshots)),
        "endpoints.csv": (["t", "side"] + comp_names + [f"u{i}" for i in range(len(comp_names))]
                          + ["proper_time"], _endpoint_rows(snapshots)),
        "diagnostics.csv": (["t", "constraint_mixed", "constraint_norm", "energy",
                             "angular_momentum", "acc_left", "acc_right"],
                            _diagnostics_rows(snapshots)),
    })
    print(f"evolve finished: event={event}, snapshots={len(snapshots)}")
    return status


def _scan_hole(rhos, mu0: float, mub: float) -> tuple[np.ndarray, np.ndarray]:
    """Edge trace and edge-law residual of the planar hole at each radius, in one batch.

    The hole's map does not depend on rho; only its edge r = rho does.  So one
    ``boundary_data`` call at u = (0, 0), on an edge whose level is the array
    of radii, gives every point.  The entry at the smallest radius validates
    them all.
    """
    rhos = np.asarray(rhos, dtype=float)
    entry = planar_hole(float(rhos.min()))
    edge = _constant_boundary(entry.embedding, rhos, entry.boundary.orientation)
    bd = boundary_data(edge, np.zeros((rhos.size, 2)))
    return bd.edge_trace, edge_equation_residual(bd, mu0, mub)


def _scan_point_hole(rho: float, mu0: float, mub: float) -> tuple[float, float]:
    k, residual = _scan_hole([rho], mu0, mub)
    return float(k[0]), float(residual[0])


def cmd_scan(args) -> int:
    started = _utc_now()
    config = _load_config(args.config, _SCAN_KEYS)
    kind = config.get("scan")
    if kind not in ("hole_radius", "orbit_omega"):
        raise UsageError(f"unknown scan kind {kind!r}")
    start, stop = _config_number(config, "start"), _config_number(config, "stop")
    points = _config_number(config, "points", int)
    if points < 2 or not stop > start:
        raise UsageError("scan needs points >= 2 and stop > start")
    mu0 = _config_number(config, "mu0", default=1.0)
    mub = _config_number(config, "mub", default=1.0)
    radius = _config_number(config, "radius", default=1.0)
    if not (mub > 0 and radius > 0):
        raise UsageError("edge tension mub and radius must be positive")
    digest = config_digest(config)
    out_dir = Path(args.out_dir)
    _prepare_out_dir(out_dir, digest, args.force)

    values = np.linspace(start, stop, points)

    def hole_row(rho: float) -> list:
        k, residual = _scan_point_hole(rho, mu0, mub)
        return [rho, k, residual, "ok"]

    def orbit_row(ratio: float) -> list:
        w = rotating_orbit_omega(ratio * mub, mub, radius)
        # cross-check: the edge law holds on the matching rotating worldsheet
        bd = boundary_data(helicoid(w, radius).boundary, np.array([[0.0]]))
        residual = float(edge_equation_residual(bd, ratio * mub, mub)[0])
        return [ratio, w, w * radius, residual, "ok"]

    rows = []
    if kind == "hole_radius":
        worker = hole_row
        header = ["rho", "edge_trace", "edge_residual", "status"]
        try:
            k, residual = _scan_hole(values, mu0, mub)
        except WorldsheetError:
            pass  # the per-point loop below gives each failing radius its own row
        else:
            rows = [[rho, kv, rv, "ok"]
                    for rho, kv, rv in zip(values.tolist(), k.tolist(), residual.tolist())]
    else:
        worker = orbit_row
        header = ["tension_ratio", "omega", "omega_radius", "edge_residual", "status"]
    failures = 0
    for v in values[len(rows):]:  # every point, unless the batch gave them all
        try:
            rows.append(worker(float(v)))
        except WorldsheetError as exc:
            failures += 1
            rows.append([float(v)] + ["nan"] * (len(header) - 2) + [f"failed: {exc}"])
    _write_outputs(out_dir, "scan", digest, started,
                   "complete" if failures == 0 else "partial_failure",
                   {"scan.csv": (header, rows)})
    print(f"scan wrote {len(rows)} points to {out_dir / 'scan.csv'}")
    return 0 if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process; each ``cmd_*`` looks its callees up per call."""
    parser = argparse.ArgumentParser(
        prog="worldsheet",
        description="Geometry and dynamics of relativistic sheets with massive edges")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check catalog residual tables")
    p_verify.add_argument("--entries", nargs="+", required=True,
                          metavar="ID[:k=v,...]",
                          help=f"catalog ids, e.g. {', '.join(catalog_ids())}")
    p_verify.add_argument("--out-dir", default="out", help="output directory")
    p_verify.add_argument("--force", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_evolve = sub.add_parser("evolve", help="run a string simulation")
    p_evolve.add_argument("--config", required=True, help="JSON simulation config")
    p_evolve.add_argument("--out-dir", default="out", help="output directory")
    p_evolve.add_argument("--force", action="store_true")
    p_evolve.set_defaults(func=cmd_evolve)

    p_scan = sub.add_parser("scan", help="scan a parameter range")
    p_scan.add_argument("--config", required=True, help="JSON scan definition")
    p_scan.add_argument("--out-dir", default="out", help="output directory")
    p_scan.add_argument("--force", action="store_true")
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, InvalidParameters) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorldsheetError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
