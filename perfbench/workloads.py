"""The benchmark workloads: seeded inputs, one pass of work, and its correctness checks.

A workload drives the public CLI (``worldsheet.cli.main``) or the library
in-process.  ``inputs(index)`` draws one pass's parameters from the workload
seed; ``inputs(None)`` gives the reference inputs, which are the parameters of
the acceptance tests and do not depend on the seed.  ``run`` is the timed
part.  ``check`` compares the outputs with closed forms or with the catalog's
own tolerances; the tolerances are those of ``tests/test_acceptance.py``,
copied unchanged.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# sizes of one pass; the smoke sizes only check that everything runs
FULL = {"scan_points": 301, "quadrature": 64, "grid_points": 200}
SMOKE = {"scan_points": 31, "quadrature": 40, "grid_points": 100}

FD_EPS = 1e-2
FD_TOL = max(1e-6, 10.0 * FD_EPS * FD_EPS)
STATIONARY_TOL = 1e-10
PULL_TOL = 1e-3
ANGLE_TOL = 1e-3
RADIUS_TOL = 0.01
ENERGY_TOL = 1e-3
WORLDLINE_TOL = 1e-3
EDGE_TRACE_TOL = 1e-9   # the hole's edge_trace tolerance in the catalog


@dataclass
class Check:
    name: str
    ok: bool
    use: float | None = None  # residual / tolerance, for residual checks


def residual_check(name: str, residual: float, tolerance: float) -> Check:
    use = float(residual) / tolerance
    return Check(name, bool(use < 1.0), use)  # NaN fails


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Call ``cli.main`` in-process; returns the exit code and captured stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def csv_digests(out_root: Path) -> dict[str, str]:
    """sha256 of every CSV under ``out_root``; manifests carry timestamps and are left out."""
    return {str(p.relative_to(out_root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_root.rglob("*.csv"))}


def _draw(rng, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 6)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, sizes: dict):
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes

    def rng(self, index: int):
        return np.random.default_rng([self.seed, index])

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self, index: int | None) -> dict:
        raise NotImplementedError

    def run(self, inp: dict, out_root: Path) -> dict:
        raise NotImplementedError

    def check(self, inp: dict, out: dict) -> list[Check]:
        raise NotImplementedError

    def digests(self, out: dict) -> dict[str, str]:
        return csv_digests(out["dir"])

    def rerun(self, inp: dict, out_root: Path) -> tuple[dict, list[Check]]:
        """Run ``inp`` again for the byte-determinism comparison, with any extra checks."""
        return self.run(inp, out_root), []


class CliWorkload(Workload):
    """A pass is a list of CLI operations, each into its own fresh output directory."""

    def ops(self, inp: dict, out_root: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def run(self, inp: dict, out_root: Path) -> dict:
        results = {name: run_cli(self.cli, argv) for name, argv in self.ops(inp, out_root)}
        return {"dir": out_root, "results": results}

    def exit_checks(self, out: dict) -> list[Check]:
        return [Check(f"{name}.exit" + (f" ({err.strip()})" if code else ""), code == 0)
                for name, (code, err) in out["results"].items()]


class CatalogCli(CliWorkload):
    """``verify`` over every catalog entry, then a 301-point ``hole_radius`` scan."""

    name = "catalog-cli"

    def setup(self) -> None:
        from worldsheet import catalog, cli
        self.catalog, self.cli = catalog, cli
        self.ids = catalog.catalog_ids()

    def _entry_ids(self, rng) -> list[str]:
        if rng is None:
            return list(self.ids)
        d = functools.partial(_draw, rng)
        params = {
            "collapsing": f"a={d(0.8, 1.25)},x0={d(0.8, 1.25)}",
            "disk": f"rho={d(0.8, 1.25)}",
            "helicoid": f"omega={d(0.4, 0.6)},R={d(0.8, 1.2)}",
            "hole": f"rho={d(1.5, 2.5)}",
            "plane": "",
            "plane_hole": f"rho={d(1.5, 2.5)}",
            "sphere": f"radius={d(1.5, 2.5)}",
            "torus": f"r1={d(0.8, 1.25)},r2={d(0.8, 1.25)}",
        }
        return [f"{i}:{params[i]}" if params[i] else i for i in self.ids]

    def inputs(self, index: int | None) -> dict:
        rng = None if index is None else self.rng(index)
        ids = self._entry_ids(rng)
        tolerances = {(i, exp.quantity): exp.tolerance
                      for i in ids for exp in self.catalog.entry_from_id(i).expected}
        if rng is None:
            mu0, mub = 1.0, 2.0
        else:
            mu0 = _draw(rng, 0.7, 1.4)
            mub = round(mu0 * _draw(rng, 1.3, 3.7), 6)
        scan = {"schema_version": 1, "scan": "hole_radius", "start": 1.0, "stop": 4.0,
                "points": self.sizes["scan_points"], "mu0": mu0, "mub": mub}
        cfg_dir = self.workdir / ("ref" if index is None else f"p{index}")
        cfg_dir.mkdir(parents=True, exist_ok=True)
        (cfg_dir / "scan.json").write_text(json.dumps(scan))
        return {"ids": ids, "tolerances": tolerances, "scan": scan,
                "scan_config": str(cfg_dir / "scan.json")}

    def ops(self, inp: dict, out_root: Path) -> list[tuple[str, list[str]]]:
        return [("verify", ["verify", "--entries", *inp["ids"],
                            "--out-dir", str(out_root / "verify")]),
                ("scan", ["scan", "--config", inp["scan_config"],
                          "--out-dir", str(out_root / "scan")])]

    def check(self, inp: dict, out: dict) -> list[Check]:
        checks = self.exit_checks(out)
        rows = read_csv(out["dir"] / "verify" / "residuals.csv")
        checks.append(Check("verify.rows", len(rows) == len(inp["tolerances"])))
        for row in rows:
            name = f"verify.{row['entry']}.{row['quantity']}"
            tol = inp["tolerances"].get((row["entry"], row["quantity"]))
            if tol is None:
                checks.append(Check(f"{name}.known", False))
                continue
            checks.append(residual_check(name, float(row["residual"]), tol))

        scan = inp["scan"]
        rows = read_csv(out["dir"] / "scan" / "scan.csv")
        checks.append(Check("scan.rows", len(rows) == scan["points"]))
        checks.append(Check("scan.status", all(r["status"] == "ok" for r in rows)))
        rhos = np.array([float(r["rho"]) for r in rows])
        traces = np.array([float(r["edge_trace"]) for r in rows])
        checks.append(residual_check("scan.edge_trace",
                                     np.max(np.abs(traces + 1.0 / rhos)), EDGE_TRACE_TOL))
        # the edge-law sign change brackets mub/mu0 within one step (criterion 10)
        signs = np.sign([float(r["edge_residual"]) for r in rows])
        crossings = [(rhos[i], rhos[i + 1]) for i in range(len(signs) - 1)
                     if signs[i] != signs[i + 1]]
        ratio = scan["mub"] / scan["mu0"]
        step = rhos[1] - rhos[0]
        bracketed = bool(crossings) and (
            crossings[0][0] <= ratio <= crossings[0][1]
            and crossings[0][1] - crossings[0][0] <= step + 1e-12)
        checks.append(Check("scan.bracket", bracketed))
        return checks


class VariationFd(Workload):
    """Criterion 6: analytic first variation against the Richardson FD variation."""

    name = "variation-fd"

    def setup(self) -> None:
        from worldsheet import catalog, variation
        from worldsheet.errors import WorldsheetError
        self.variation, self.error = variation, WorldsheetError
        q = self.sizes["quadrature"]
        cases = [(catalog.plane(), 1.0, 0.7), (catalog.helicoid(0.5, 1.0), 1.0, 3.0),
                 (catalog.euclidean_disk(1.0), 1.0, 0.5)]
        self.cases = [(entry,) + catalog.action_setup(entry, mu0, mub, (q, q))
                      for entry, mu0, mub in cases]

    def inputs(self, index: int | None) -> dict:
        if index is None:
            # criterion 6's first deformation: seed 0, the same modes on every entry
            coeffs = [np.random.default_rng(0).normal(size=8) * 0.4] * len(self.cases)
        else:
            rng = self.rng(index)
            coeffs = [rng.normal(size=8) * 0.4 for _ in self.cases]
        return {"deformations": [self._deformation(entry, a)
                                 for (entry, _, _), a in zip(self.cases, coeffs)]}

    def _deformation(self, entry, a):
        """Smooth deformation adapted to the entry's domain (the tests' random family).

        Periodic axes get trigonometric modes, the time axis is cap-windowed,
        and closed edges get a periodic displacement.
        """
        d = entry.embedding.worldsheet_dim
        k = entry.embedding.codimension
        periodic = entry.periodic or (False,) * d
        time_extent = None if periodic[0] else tuple(map(float, entry.domain[0]))
        edge_freq = 2.0 if periodic[0] else 1.7

        def tangential(xi):
            x0, xl = xi[..., 0], xi[..., -1]
            comps = [a[0] * np.sin(2.0 * x0) + a[1] * np.cos(2.0 * x0) + a[2] * xl,
                     a[3] * np.cos(x0) * xl]
            comps += [np.zeros(xi.shape[:-1])] * (d - len(comps))
            return np.stack(comps[:d], axis=-1)

        def normal(xi):
            x0 = xi[..., 0]
            base = (a[4] * np.sin(2.0 * x0) + a[5] * np.cos(2.0 * x0)
                    + a[6] * np.cos(3.0 * xi[..., -1]))
            return np.repeat(base[..., None], k, axis=-1) / max(k, 1)

        def boundary_normal(u):
            return a[7] * np.sin(edge_freq * u[..., 0]) + 0.3 * a[4]

        return self.variation.DeformationField(
            tangential_fn=tangential, normal_fn=normal,
            boundary_normal_fns=boundary_normal, time_extent=time_extent)

    def run(self, inp: dict, out_root: Path) -> dict:
        v = self.variation
        rows = []
        for (entry, cfg, edges), defo in zip(self.cases, inp["deformations"]):
            try:
                ana = v.first_variation_analytic(entry.embedding, edges, cfg, defo)
                f1 = v.first_variation_fd(entry.embedding, edges, cfg, defo, FD_EPS)
                f2 = v.first_variation_fd(entry.embedding, edges, cfg, defo, FD_EPS / 2.0)
                rows.append((entry.id, ana, (4.0 * f2 - f1) / 3.0, None))
            except self.error as exc:
                rows.append((entry.id, math.nan, math.nan, repr(exc)))
        return {"rows": rows}

    def check(self, inp: dict, out: dict) -> list[Check]:
        checks = []
        for entry_id, ana, fd, error in out["rows"]:
            checks.append(Check(f"{entry_id}.raised", error is None))
            checks.append(residual_check(f"{entry_id}.fd_vs_analytic", abs(fd - ana), FD_TOL))
            if entry_id == "helicoid":
                # exact stationarity of the rotating-orbit solution
                checks.append(residual_check("helicoid.stationary", abs(ana), STATIONARY_TOL))
        return checks

    def digests(self, out: dict) -> dict[str, str]:
        return {entry_id: hashlib.sha256(repr((ana, fd)).encode()).hexdigest()
                for entry_id, ana, fd, _ in out["rows"]}


class EvolveStrings(CliWorkload):
    """``evolve`` on the rotating string (step-bound) and the collapsing string (output-bound)."""

    name = "evolve-strings"

    def setup(self) -> None:
        from worldsheet import catalog, cli, dynamics
        self.catalog, self.cli, self.dynamics = catalog, cli, dynamics

    def inputs(self, index: int | None) -> dict:
        m = self.sizes["grid_points"]
        if index is None:
            mu0, radius, c_mu0, c_mub = 1.0, 1.0, 1.0, 1.0
        else:
            rng = self.rng(index)
            mu0, radius = _draw(rng, 0.8, 1.25), _draw(rng, 0.8, 1.25)
            c_mu0, c_mub = _draw(rng, 0.8, 1.25), _draw(rng, 0.8, 1.25)
        # mu0 R / mub = 1/3 keeps the endpoint speed w R = 1/2, so one period is
        # always 12 (M - 1) steps while the tensions and the radius change
        mub = 3.0 * mu0 * radius
        omega = self.dynamics.rotating_orbit_omega(mu0, mub, radius)
        rotating = {"schema_version": 1,
                    "initial_data": {"id": "rotating", "mu0": mu0, "mub": mub,
                                     "radius": radius},
                    "grid_points": m, "duration": 2.0 * math.pi / omega,
                    "output_stride": 50}
        collapse = {"schema_version": 1,
                    "initial_data": {"id": "collapsing", "mu0": c_mu0, "mub": c_mub,
                                     "x0": 1.0},
                    "grid_points": m, "duration": 0.5, "constraint_tol": 2e-3,
                    "output_stride": 1}
        cfg_dir = self.workdir / ("ref" if index is None else f"p{index}")
        cfg_dir.mkdir(parents=True, exist_ok=True)
        configs = {"rotating": rotating, "collapse": collapse}
        for name, config in configs.items():
            (cfg_dir / f"{name}.json").write_text(json.dumps(config))
        return {"configs": configs, "dir": cfg_dir}

    def ops(self, inp: dict, out_root: Path) -> list[tuple[str, list[str]]]:
        return [(name, ["evolve", "--config", str(inp["dir"] / f"{name}.json"),
                        "--out-dir", str(out_root / name)])
                for name in inp["configs"]]

    def check(self, inp: dict, out: dict) -> list[Check]:
        checks = self.exit_checks(out)
        for name, config in inp["configs"].items():
            d = out["dir"] / name
            init = config["initial_data"]
            manifest = json.loads((d / "manifest.json").read_text())
            checks.append(Check(f"{name}.event", manifest["terminal_event"] == "duration"))
            diag = read_csv(d / "diagnostics.csv")
            ends = read_csv(d / "endpoints.csv")
            pull = init["mu0"] / init["mub"]
            acc = [float(r[k]) for r in diag[1:] for k in ("acc_left", "acc_right")]
            checks.append(residual_check(f"{name}.pull",
                                         max(abs(a - pull) for a in acc), PULL_TOL))
            if name == "rotating":
                steps = 12 * (config["grid_points"] - 1)
                snapshots = 1 + -(-steps // config["output_stride"])
                checks.append(Check("rotating.snapshots", len(diag) == snapshots))
                r0 = init["radius"]
                radii = [math.hypot(float(r["x1"]), float(r["x2"])) for r in ends[2:]]
                checks.append(residual_check("rotating.radius",
                                             max(abs(r - r0) / r0 for r in radii), RADIUS_TOL))
                e0 = float(diag[0]["energy"])
                drift = max(abs(float(r["energy"]) - e0) / e0 for r in diag[1:])
                checks.append(residual_check("rotating.energy", drift, ENERGY_TOL))
            else:
                right = [r for r in ends if r["side"] == "right"][1:]
                t = np.array([float(r["x0"]) for r in right])
                x = np.array([float(r["x1"]) for r in right])
                exact = self.catalog.endpoint_worldline(pull, init["x0"], t)
                checks.append(residual_check("collapse.worldline",
                                             np.max(np.abs(x - exact) / np.abs(exact)),
                                             WORLDLINE_TOL))
        return checks

    def rerun(self, inp: dict, out_root: Path) -> tuple[dict, list[Check]]:
        """Re-run with ``cli.diagnostics`` observed: the pull angle is not in the CSVs."""
        original = self.cli.diagnostics
        checks, results = [], {}
        for name, argv in self.ops(inp, out_root):
            angles = []

            def observed(state):
                record = original(state)
                angles.extend(ep.direction_angle for ep in record.endpoints
                              if ep.direction_angle is not None)
                return record

            self.cli.diagnostics = observed
            try:
                results[name] = run_cli(self.cli, argv)
            finally:
                self.cli.diagnostics = original
            checks.append(residual_check(f"{name}.angle", max(angles, default=math.nan),
                                         ANGLE_TOL))
        return {"dir": out_root, "results": results}, checks


WORKLOADS = {w.name: w for w in (CatalogCli, VariationFd, EvolveStrings)}
