"""Mutation census: does tier-1 fail when one term of a formula is wrong?

Each mutant is one textual replacement (file, old, new) in the package
source, where ``old`` occurs exactly once in its file.  Mutants run one at a
time, each on a fresh temporary copy of ``src``, ``tests``, ``tools`` and
``pyproject.toml`` made outside the repository, with the tier-1 command
(stopping at the first failure).  A mutant is killed when tier-1 fails, and
survives when it passes.  A formula rewrite that moves a mutant's site
updates its triple here; a new formula adds its mutants.  Tier-1's
``tests/test_mutation_census.py`` checks that every ``old`` text is still
found exactly once; the mutant runs leave that test out, since every mutant
fails it by construction.

Run from anywhere, with the test dependencies installed:

    python tools/mutation_census.py

It prints one line per mutant and exits 1 if a mutant's ``old`` text is not
found exactly once (a stale census), else 0.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FRESHNESS_TEST = "tests/test_mutation_census.py"
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", f"--ignore={FRESHNESS_TEST}"]

# id: (file, old, new, what the mutant breaks)
MUTANTS = {
    "M02": ("src/worldsheet/geometry.py",
            "return dv + cols.swapaxes(-1, -2)[..., None, :, :] @ (chris @",
            "return dv - cols.swapaxes(-1, -2)[..., None, :, :] @ (chris @",
            "the Christoffel sign of the covariant derivative `_covariant`"),
    "M07": ("src/worldsheet/integrability.py",
            "+ w_a @ w_b - w_b @ w_a",
            "- w_a @ w_b + w_b @ w_a",
            "the commutator sign of the connection curvature `_curvature`"),
    "M08": ("src/worldsheet/integrability.py",
            "else r_frame[(..., *block)] - rhs",
            "else -r_frame[(..., *block)] - rhs",
            "the ambient-Riemann sign of the left-hand sides in `_structure_residuals`"),
    "M11": ("src/worldsheet/boundary.py",
            'hess = st.sec - np.einsum("...ABC,...mC->...mAB", bl.edge.conn',
            'hess = st.sec + np.einsum("...ABC,...mC->...mAB", bl.edge.conn',
            "the edge Christoffel sign in `boundary_laplacian_residuals`"),
    "M26": ("src/worldsheet/variation.py",
            'config.mub * (np.einsum("...i,...i->...", hk, phi_n)',
            'config.mub * (0.0 * np.einsum("...i,...i->...", hk, phi_n)',
            "drops mub H^ab K_ab^i Phi_i from `first_variation_analytic`"),
    "M27": ("src/worldsheet/geometry.py",
            "_project(fr.tangents @ fr.induced_metric_inverse.swapaxes(-1, -2), g, sec)",
            "_project(fr.tangents, g, sec)",
            "drops h^{CD} from the Gauss formula of `_connection` (Gamma lowered)"),
    "M28": ("src/worldsheet/geometry.py",
            "kk = _project(normals, g, sec)",
            "kk = _project(normals, np.eye(g.shape[-1]), sec)",
            "drops the ambient metric g from `_extrinsic`"),
    "M29": ("src/worldsheet/boundary.py",
            "return eps @ h_inv @ eps.swapaxes(-1, -2)",
            "return eps @ eps.swapaxes(-1, -2)",
            "drops h^{AB} from the edge projector `_projector`"),
    "M30": ("src/worldsheet/geometry.py",
            "np.concatenate([-kk.swapaxes(-1, -2), twist.swapaxes(-1, -2)], axis=-1)",
            "np.concatenate([kk.swapaxes(-1, -2), twist.swapaxes(-1, -2)], axis=-1)",
            "the sign of K in the Gauss equation of `gauss_weingarten_residual`"),
    "M31": ("src/worldsheet/catalog.py",
            "for lim in reversed(limits)",
            "for lim in limits",
            "lists `CatalogEntry.boundaries` lo slot first"),
    "M32": ("src/worldsheet/catalog.py",
            "(1.0 - w2 * pts[..., 1] ** 2) ** 2",
            "(1.0 - w2 * pts[..., 1] ** 2)",
            "drops the square from the helicoid's scalar curvature 2w^2/(1 - w^2 s^2)^2"),
    "M33": ("src/worldsheet/dynamics.py",
            "x = (p0 + along * a0 - across * e0, p1 + along * a1 - across * e1,\n"
            "         p2 + along * a2 - across * e2)",
            "x = (p0 + along * a0 + across * e0, p1 + along * a1 + across * e1,\n"
            "         p2 + along * a2 + across * e2)",
            "the sign of the eta0 term in the endpoint's closed-form position `_end_position`"),
    "M34": ("src/worldsheet/dynamics.py",
            "_end_facts(pos[:-4:-1].tolist(), dsigma)",
            "_end_facts(pos[:3].tolist(), dsigma)",
            "starts the right end of a `step` or an `evolve` from the left end's rows"),
    "M35": ("src/worldsheet/dynamics.py",
            "eta_mid = _eta(ep.edge_tangent.tolist(), u_mid)",
            "eta_mid = _eta(ep.edge_tangent.tolist(), ep.prev_four_velocity.tolist())",
            "takes the direction of `diagnostics` at the step's first u, not its midpoint"),
    "M36": ("src/worldsheet/variation.py",
            "displaced = {bnd.orientation: _displaced_edge(",
            "displaced = {-bnd.orientation: _displaced_edge(",
            "flips the side of each displaced edge in `first_variation_fd`"),
    "M37": ("src/worldsheet/boundary.py",
            "_procrustes(fr_u.normals, sheet_normals, g)",
            "fr_u.normals",
            "differences unaligned sheet normals in the twist of `adapted_edge_data`"),
    "M38": ("src/worldsheet/geometry.py",
            "total = a[..., 0] + 0.0",
            "total = a[..., 0].copy()",
            "keeps the -0.0 of an all -0.0 row in `_sum_last`, where numpy's sum reads +0.0"),
    "M39": ("src/worldsheet/geometry.py",
            "_sum_last(c.diagonal(axis1=-2, axis2=-1))",
            "_sum_last(c[..., 0, :])",
            "sums the first row for a trace in `_negative_eigenvalues`"),
    "M40": ("src/worldsheet/geometry.py",
            "for i in reversed(range(v.shape[-1])):",
            "for i in range(v.shape[-1]):",
            "takes the sign of the last significant component in `_first_significant_sign`"),
    "M41": ("src/worldsheet/geometry.py",
            "n = nu @ g_inv.T if g_inv.ndim == 2 else",
            "n = nu if g_inv.ndim == 2 else",
            "leaves the flat Hodge covector unraised in `_hodge_normal`"),
    "M42": ("src/worldsheet/geometry.py",
            "_sum_last(raw[..., 0] * gref[..., 0])",
            "_sum_last(raw[..., 0] * ref[..., 0])",
            "drops g from the one-column overlap of `_procrustes`"),
    "M43": ("src/worldsheet/geometry.py",
            "@ (metric[:, None] * tangents)",
            "@ (metric[::-1, None] * tangents)",
            "puts the signature on the wrong rows in the flat `_pullback`"),
    "M44": ("src/worldsheet/variation.py",
            "bg.signature)) if bg.flat",
            "bg.signature)) if bg.dimension",
            "takes the flat metric on a curved background in `_volume_density`"),
    "M45": ("src/worldsheet/geometry.py",
            "return None if bg.flat else bg.christoffels_at(self.x)",
            "return None",
            "drops a curved background's Christoffels from the sheet's `_Evaluation.chris`"),
    "M46": ("src/worldsheet/geometry.py",
            "return _finite(self.position_fn(np.asarray(point, dtype=float)),\n"
            "                       DegenerateImmersion, \"non-finite position\")",
            "return np.asarray(self.position_fn(np.asarray(point, dtype=float)), dtype=float)",
            "drops the finiteness gate of `Embedding.position`, the only one on the map"),
    "M47": ("src/worldsheet/geometry.py",
            'return _finite(e, DegenerateImmersion, "non-finite tangent map")',
            "return np.asarray(e, dtype=float)",
            "drops the finiteness gate of `Embedding.d_position` on the tangent map"),
    "M48": ("src/worldsheet/variation.py",
            "    _frame_at(embedding, pts)\n    bulk = ",
            "    bulk = ",
            "drops the check of the undeformed sheet on the bulk grid in `first_variation_fd`"),
    "M49": ("src/worldsheet/variation.py",
            "        _frame_at(bnd.parent, xi)\n",
            "",
            "drops the check of the undeformed sheet on each edge's grid in `first_variation_fd`"),
    "M50": ("src/worldsheet/geometry.py",
            "    scale = _rank_checked_scale(ev.tangents, ev.minors)\n"
            "    _check_metric(embedding, ev.induced_metric, *ev.cofactors, scale)\n",
            "",
            "drops the rank and signature checks from `_frame_at`, the one place they run"),
    "M51": ("src/worldsheet/variation.py",
            "if (isinstance(ax.points, bool) or not isinstance(ax.points, (int, np.integer))\n"
            "                    or ax.points < 8):",
            "if ax.points < 8:",
            "drops the integer check of the quadrature counts in `ActionConfig`"),
    "M52": ("src/worldsheet/variation.py",
            "if not np.all((width > 0) & np.isfinite(width)):",
            "if False:",
            "drops the width check of edge-dependent limits in `_bulk_grid`"),
    "M53": ("src/worldsheet/dynamics.py",
            "    new_pos[0], new_pos[-1] = xl, xr\n"
            "    kick = _half_kick(new_pos, dsigma, dt)\n",
            "    kick = _half_kick(new_pos, dsigma, dt)\n"
            "    new_pos[0], new_pos[-1] = xl, xr\n",
            "carries the half kick of the end rows before the corrector writes them"),
    "M54": ("src/worldsheet/dynamics.py",
            "_end_facts([x, *inner], dsigma)",
            "_end_facts([x1, *inner], dsigma)",
            "carries the edge tangent of the predictor's row, not the corrector's"),
    "M55": ("src/worldsheet/dynamics.py",
            '                event = "endpoint_collision"\n                break\n',
            '                event = "endpoint_collision"\n'
            "                snapshots.append(_string_state(\n"
            "                    state, time, pos.copy(), vel.copy(), ends, starts, mids))\n"
            "                break\n",
            "stores the last state again on a collision when the stride already stored it"),
    "M56": ("src/worldsheet/dynamics.py",
            "stored = (k + 1) % config.output_stride == 0",
            "stored = (k - 1) % config.output_stride == 0",
            "shifts the steps at which `evolve` stores its snapshots by two"),
    "M57": ("src/worldsheet/dynamics.py",
            "return x, (u, tau), mid, _end_facts([x, *inner], dsigma)",
            "return x, (u, tau), mid, _end_facts([x, *inner], dsigma)[:2] + (_speed(mid),)",
            "carries the midpoint tangent's speed in place of the new tangent's"),
    "M58": ("src/worldsheet/dynamics.py",
            "for j in range(2, prods.shape[-1]):",
            "for j in range(2, prods.shape[-1] - 1):",
            "leaves the last component out of the column sums in `constraint_norms`"),
    "M59": ("src/worldsheet/catalog.py",
            "idx = np.argmax(np.abs(values - expected))",
            "idx = np.argmax(np.abs(values + expected))",
            "measures a sample's distance from minus the expected value in `_worst`"),
    "M60": ("src/worldsheet/catalog.py",
            "np.linalg.norm(_projected_trace(bl) + _laplacian_residuals(bl, mu0, mub).normal,",
            "np.linalg.norm(_projected_trace(bl) - _laplacian_residuals(bl, mu0, mub).normal,",
            "subtracts the two forms of `laplacian_form_agreement`, which cancel when added"),
    "M61": ("src/worldsheet/geometry.py",
            "for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):",
            "for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):",
            "flips the sign of one component of the 3x3 adjugate's cross products"),
    "M62": ("src/worldsheet/catalog.py",
            "sheet = cache(lambda: _frame_at(entry.embedding, _every(pts, 6)))",
            "sheet = cache(lambda: _frame_at(entry.embedding, _every(pts, 4)))",
            "builds `verify`'s shared sheet record at the 5-point subset, not the 7-point one"),
    "M63": ("src/worldsheet/dynamics.py",
            "u1 * v1 + u2 * v2)",
            "u1 * v1 + u2 * v1)",
            "pairs the y component with the x one in the endpoints' Minkowski product `_fdot`"),
    "M64": ("src/worldsheet/cli.py",
            'f"T{idx},"',
            'f"T{idx + 1},"',
            "numbers the nodes of the `trajectory.csv` template from 1, not 0"),
    "M65": ("src/worldsheet/variation.py",
            "(key := pts.tobytes())",
            "(key := pts.shape)",
            "keys a displaced edge's undeformed parts on the shape of the point set only"),
    "M66": ("src/worldsheet/variation.py",
            "hi = np.exp(-1.0 / np.maximum(1.0 - x, 1e-300))",
            "hi = np.exp(-1.0 / np.maximum(x, 1e-300))",
            "builds the upper end of `_smooth_ramp` from x, not 1 - x"),
    "M67": ("src/worldsheet/variation.py",
            "n = align(fr.ungauged_normals)",
            "n = fr.ungauged_normals",
            "displaces the sheet along the unaligned Hodge normal in `first_variation_fd`"),
    "M68": ("src/worldsheet/variation.py",
            "if len({bnd.orientation for bnd in edges}) < len(edges):",
            "if False:",
            "accepts two edges of one orientation in the first variations"),
    "M69": ("src/worldsheet/variation.py",
            "_smooth_ramp(np.minimum(4.0 * s, 4.0 * (1.0 - s)))",
            "_smooth_ramp(4.0 * s)",
            "windows a deformation at the lower cap only"),
    "M71": ("src/worldsheet/cli.py",
            'for side in ("left", "right")',
            'for side in ("right", "left")',
            "swaps the sides of the `endpoints.csv` row template"),
    "M72": ("src/worldsheet/dynamics.py",
            "    if square <= EDGE_MARGIN * edge_tangent[0] ** 2:\n"
            "        raise EndpointCollision("
            "f\"an end's edge tangent {edge_tangent} is not spacelike \"\n"
            "                                f\"by the margin (T.T = {square:.3e})\")\n"
            "    return math.sqrt(square)\n",
            "    return math.sqrt(max(square, 1e-300))\n",
            "restores the clamp of the edge tangent's Minkowski square in `_speed`"),
    "M73": ("src/worldsheet/dynamics.py",
            "if tau == tau0:",
            "if False:",
            "lets an end whose proper time no longer advances step on"),
    "M74": ("src/worldsheet/dynamics.py",
            "for t, c1, c2 in zip(times[start:stop], c1s, c2s):",
            "for t, c1, c2 in reversed(list(zip(times[start:stop], c1s, c2s))):",
            "reports the last failing step of a gated block, not the first"),
    "M75": ("src/worldsheet/dynamics.py",
            "            if stored or row - first == block:\n"
            "                _gate(rows, first, row, dsigma, config)\n"
            "                first = row = int(row == 1)"
            "  # row 0 next, unless it holds the next start\n"
            "            if stored:\n"
            "                snapshots.append(\n"
            "                    _string_state(state, time, pos.copy(), vel.copy(),"
            " ends, starts, mids))\n",
            "            if stored:\n"
            "                snapshots.append(\n"
            "                    _string_state(state, time, pos.copy(), vel.copy(),"
            " ends, starts, mids))\n"
            "            if stored or row - first == block:\n"
            "                _gate(rows, first, row, dsigma, config)\n"
            "                first = row = int(row == 1)"
            "  # row 0 next, unless it holds the next start\n",
            "stores a snapshot before the steps up to it are gated"),
    "M76": ("src/worldsheet/dynamics.py",
            "                _gate(rows, first, row, dsigma, config)\n                raise\n",
            "                raise\n",
            "lets a step's exception propagate before the steps before it are gated"),
    "M77": ("src/worldsheet/dynamics.py",
            "positions[start:stop], velocities[start:stop]",
            "positions[start:stop - 1], velocities[start:stop - 1]",
            "leaves the last step of a gated block ungated"),
    "M78": ("src/worldsheet/variation.py",
            "return embedding.d_position(xi) + eps * images[xi.tobytes()].jacobian",
            "return embedding.d_position(xi) + images[xi.tobytes()].jacobian",
            "drops eps from the displaced tangent map of `first_variation_fd`"),
    "M79": ("src/worldsheet/variation.py",
            "return embedding.d_position(xi) + eps * images[xi.tobytes()].jacobian",
            "return eps * images[xi.tobytes()].jacobian",
            "drops the sheet's own tangent map from the displaced one of `first_variation_fd`"),
    "M80": ("src/worldsheet/variation.py",
            "parts[key] = xi, eta, psi[..., None], psi / eta_last",
            "parts[key] = xi, eta, psi[..., None], psi * eta_last",
            "multiplies Psi by eta_last in the displaced limit of `first_variation_fd`"),
    "M81": ("src/worldsheet/variation.py",
            "parts[key] = xi, eta, psi[..., None], psi / eta_last",
            "parts[key] = xi, eta, psi[..., None], psi",
            "drops the division by eta_last from the displaced limit of `first_variation_fd`"),
    "M82": ("src/worldsheet/cli.py",
            'rows.append([v, *scan([v])[0], "ok"])',
            'rows.append([v, *scan(values[:1])[0], "ok"])',
            "evaluates the first value for every row of a scan's each-value-alone fallback"),
    "M83": ("src/worldsheet/geometry.py",
            "return lambda p: _finite(normal_frame_fn(p), GaugeFailure,\n"
            "                             \"non-finite normals from normal_frame_fn\")",
            "return lambda p: np.asarray(normal_frame_fn(p), dtype=float)",
            "drops the finiteness gate of a caller's `normal_frame_fn` in `_checked_normals`"),
    "M84": ("src/worldsheet/boundary.py",
            "return _finite(self.chi_fn(np.asarray(point, dtype=float)),\n"
            "                       DegenerateImmersion, \"non-finite edge map chi\")",
            "return np.asarray(self.chi_fn(np.asarray(point, dtype=float)), dtype=float)",
            "drops the finiteness gate of `BoundaryEmbedding.chi`, the only one on the edge map"),
    "M85": ("src/worldsheet/variation.py",
            "return embedding.d_position(xi) + eps * images[xi.tobytes()].jacobian",
            "return embedding.d_position(xi) + abs(eps) * images[xi.tobytes()].jacobian",
            "reads +|eps| J in the displaced tangent map of the -eps action of "
            "`first_variation_fd`"),
}


def mutate(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise LookupError(f"{file}: the mutated text occurs {text.count(old)} times, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def run_mutant(mutant_id: str) -> tuple[bool, str]:
    """(killed, first failing test or '') for one mutant, on a temporary copy."""
    file, old, new, _ = MUTANTS[mutant_id]
    with tempfile.TemporaryDirectory(prefix=f"census-{mutant_id}-") as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "tests", tree / "tests",
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copytree(ROOT / "tools", tree / "tools",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        mutate(tree, file, old, new)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode != 0, failed.group(1) if failed else ""


def main() -> int:
    survivors = []
    for mutant_id in MUTANTS:
        try:
            killed, first = run_mutant(mutant_id)
        except LookupError as exc:
            print(f"{mutant_id} stale: {exc}")
            return 1
        print(f"{mutant_id} {'killed' if killed else 'SURVIVES'}: {MUTANTS[mutant_id][3]}"
              + (f" (first failure: {first})" if first else ""), flush=True)
        if not killed:
            survivors.append(mutant_id)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed"
          + (f"; surviving: {', '.join(survivors)}" if survivors else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
