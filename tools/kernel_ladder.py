"""Per-layer kernel ladder: the same kernels in two versions of the package, in one process.

Runs from anywhere:

    python tools/kernel_ladder.py REV [--rounds 7] [--number N] [--grid-points 200]
                                      [--batches 1 1000]

REV is a git revision of this repository (its ``src/worldsheet`` is extracted
with ``git archive``) or a directory that holds ``worldsheet/``, such as the
``src`` of another checkout.  That version is loaded under the name
``worldsheet_base`` beside the working tree's ``worldsheet``; the package
imports itself only relatively, so the two never mix.

The kernels are ``dynamics.step`` on the rotating string at M grid points, the
gauge-constraint norms ``dynamics.constraint_norms`` of that string, the
constraint gate of one block of steps of that string, per step (the block that
``evolve`` gates at once, ``dynamics.GATE_NODES`` nodes of the working tree; a
version without the block gate ``dynamics._gate`` gates each step alone, as its
``evolve`` did), one step of ``dynamics.evolve`` on the same string (its loop,
where a step takes over what the previous one computed), ``position``, ``frame``,
``normal_frame``, ``extrinsic_curvature`` and ``boundary_data`` on the catalog
helicoid at each batch size, the checked evaluation ``geometry._frame_at`` of
the helicoid at 4096 points, the ``position`` of a displaced helicoid map of
``first_variation_fd`` at the same points, ``variation.first_variation_fd``
on the helicoid at 16 x 16 quadrature points (the workload ``variation-fd``
runs it at 64 x 64), and ``catalog.evaluate_entry`` on the catalog helicoid
and hole (the rows of ``verify``, which the workload ``catalog-cli`` runs).
Each round times every kernel once in each version, alternating which
version goes first, and the best time per call of each version is kept.
Timing both versions in one process, round by round, cancels most of the
drift of a shared machine; a REV equal to the working tree shows the noise
floor.  Prints one table with both times in microseconds and their ratio,
working tree over REV.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BASE = "worldsheet_base"
TARGET_S = 0.02  # one measurement lasts about this long when --number is not given
FRAME_POINTS = 4096
FD_QUADRATURE = 16


def load_package(directory: Path, name: str):
    """Import the package in ``directory`` as ``name``, with all of its modules."""
    spec = importlib.util.spec_from_file_location(
        name, directory / "__init__.py", submodule_search_locations=[str(directory)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)


def package_dir(rev: str, tmp: Path) -> Path:
    """The ``worldsheet/`` directory of REV: a directory as given, else a git revision."""
    if (Path(rev) / "worldsheet" / "__init__.py").is_file():
        return Path(rev) / "worldsheet"
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/worldsheet"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp, filter="data")
    return tmp / "src" / "worldsheet"


def kernels(pkg: str, grid_points: int, batches: list[int]) -> dict[str, tuple]:
    """name -> (zero-argument call, kernel calls it makes), for the package ``pkg``."""
    dynamics = importlib.import_module(f"{pkg}.dynamics")
    geometry = importlib.import_module(f"{pkg}.geometry")
    boundary = importlib.import_module(f"{pkg}.boundary")
    catalog = importlib.import_module(f"{pkg}.catalog")
    variation = importlib.import_module(f"{pkg}.variation")

    rotating = {"id": "rotating", "mu0": 1.0, "mub": 3.0, "radius": 1.0}
    config = dynamics.SimulationConfig(initial_data=rotating, duration=1.0,
                                       grid_points=grid_points)
    state = dynamics.initial_state_from_config(config)
    steps = 100
    run = dynamics.SimulationConfig(
        initial_data=rotating, grid_points=grid_points, output_stride=steps,
        duration=steps * config.dt_fraction * state.dsigma)
    block = max(2, importlib.import_module("worldsheet.dynamics").GATE_NODES // grid_points)
    calls = {f"dynamics.step M={grid_points}": (lambda: dynamics.step(state, config), 1),
             f"constraint_norms M={grid_points}": (lambda: dynamics.constraint_norms(state), 1),
             f"gate of {block} steps M={grid_points}, per step": (
                 gate_block(dynamics, state, config, block), block),
             f"dynamics.evolve M={grid_points}, per step": (lambda: dynamics.evolve(run), steps)}

    entry = catalog.helicoid(0.5, 1.0)
    emb, bnd = entry.embedding, entry.boundary
    (t_lo, t_hi), (s_lo, s_hi) = entry.sample_box
    for b in batches:
        frac = (np.arange(b) + 0.5) / b
        pts = np.stack([t_lo + (t_hi - t_lo) * frac, s_hi - (s_hi - s_lo) * frac], axis=-1)
        u = pts[:, :1]
        calls.update({
            f"position B={b}": (lambda p=pts: emb.position(p), 1),
            f"frame B={b}": (lambda p=pts: geometry.frame(emb, p), 1),
            f"normal_frame B={b}": (lambda p=pts: geometry.normal_frame(emb, p), 1),
            f"extrinsic_curvature B={b}": (lambda p=pts: geometry.extrinsic_curvature(emb, p), 1),
            f"boundary_data B={b}": (lambda q=u: boundary.boundary_data(bnd, q), 1),
        })

    frac = (np.arange(FRAME_POINTS) + 0.5) / FRAME_POINTS
    pts = np.stack([t_lo + (t_hi - t_lo) * frac, s_hi - (s_hi - s_lo) * frac], axis=-1)
    cfg, edges = catalog.action_setup(entry, 1.0, 3.0, (FD_QUADRATURE, FD_QUADRATURE))
    defo = variation.DeformationField(
        normal_fn=lambda xi: 0.1 * np.sin(2.0 * xi[..., :1]) * np.cos(xi[..., -1:]),
        boundary_normal_fns=lambda v: 0.05 * np.cos(v[..., 0]),
        time_extent=tuple(map(float, entry.domain[0])))
    displaced = variation._deformed_embedding(emb, defo, 1e-2,
                                              variation._domain_alignment(emb, cfg.grid))
    calls.update({
        f"_frame_at B={FRAME_POINTS}": (lambda: geometry._frame_at(emb, pts), 1),
        f"displaced position B={FRAME_POINTS}": (lambda: displaced.position(pts), 1),
        f"first_variation_fd {FD_QUADRATURE}x{FD_QUADRATURE}": (
            lambda: variation.first_variation_fd(emb, edges, cfg, defo, 1e-2), 1),
    })
    for name in ("helicoid", "hole"):
        listed = catalog.entry_from_id(name)
        calls[f"evaluate_entry {name}"] = (lambda e=listed: catalog.evaluate_entry(e), 1)
    return calls


def gate_block(dynamics, state, config, block: int):
    """A call that gates the ``block`` steps after ``state`` as ``dynamics.evolve`` does."""
    states = [state]
    for _ in range(block):
        states.append(dynamics.step(states[-1], config))
    if hasattr(dynamics, "_gate"):  # one pass over the block's rows
        rows = dynamics._scratch_rows(state.positions, block + 1)
        for i, s in enumerate(states[1:]):
            rows[0][i], rows[1][i] = s.positions, s.velocities
        return lambda: dynamics._gate(rows, 0, block, state.dsigma, config)
    rows, limit = dynamics._gate_rows(*state.positions.shape), 100.0 * config.constraint_tol

    def each_step():
        for s in states[1:]:
            c1, c2 = dynamics._constraint_norms(s.positions, s.velocities, s.dsigma, rows)
            if not (c1 <= limit and c2 <= limit):
                raise dynamics.ConstraintBlowup("gauge constraints blew up")

    return each_step


def per_call_s(fn, count: int, number: int) -> float:
    start = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - start) / (number * count)


def ladder(rev: str, rounds: int, number: int | None, grid_points: int,
           batches: list[int]) -> list[tuple[str, float, float]]:
    """(kernel, best seconds per call at REV, best at the working tree) per kernel."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="kernel-ladder-") as tmp:
        load_package(package_dir(rev, Path(tmp)), BASE)
        versions = [kernels(pkg, grid_points, batches) for pkg in (BASE, "worldsheet")]
    rows = []
    for name in versions[0]:
        calls = [v[name] for v in versions]
        for fn, _ in calls:  # first calls pay for lazy set-up; time neither
            fn()
        n = number or max(1, round(TARGET_S / max(per_call_s(*calls[1], 1), 1e-7)))
        best = [float("inf"), float("inf")]
        for r in range(rounds):
            for i in ((0, 1) if r % 2 == 0 else (1, 0)):
                best[i] = min(best[i], per_call_s(*calls[i], n))
        rows.append((name, best[0], best[1]))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision, or a directory that holds worldsheet/")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--number", type=int, default=None,
                        help="calls per measurement (default: about 20 ms worth)")
    parser.add_argument("--grid-points", type=int, default=200)
    parser.add_argument("--batches", type=int, nargs="+", default=[1, 1000])
    args = parser.parse_args(argv)
    rows = ladder(args.rev, args.rounds, args.number, args.grid_points, args.batches)
    width = max(len(name) for name, _, _ in rows)
    print(f"{'kernel':<{width}}  {'REV us':>10}  {'work us':>10}  ratio")
    for name, base, work in rows:
        print(f"{name:<{width}}  {1e6 * base:10.2f}  {1e6 * work:10.2f}  {work / base:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
