"""Command-line behavior: exit codes, CSV determinism, manifests, scans."""

import csv
import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from worldsheet import cli
from worldsheet.cli import (FLOAT_FMT, _scan_hole, _scan_orbit, _trajectory_rows, _write_csv,
                            main)
from worldsheet.dynamics import SimulationConfig, StringState, diagnostics, evolve
from worldsheet.errors import InconsistentGeometry, WorldsheetError

from helpers import csv_writer_bytes, csv_writer_trajectory, diagnostics_cells, endpoint_cells


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


EVOLVE_CONFIG = {
    "schema_version": 1,
    "initial_data": {"id": "collapsing", "mu0": 1.0, "mub": 1.0, "x0": 1.0},
    "grid_points": 64,
    "duration": 0.3,
    "constraint_tol": 2e-3,
    "output_stride": 10,
}


class TestVerify:
    def test_all_pass_exit_zero(self, tmp_path):
        code = main(["verify", "--entries", "plane", "helicoid:omega=0.5,R=1",
                     "--out-dir", str(tmp_path / "v")])
        assert code == 0
        rows = read_rows(tmp_path / "v" / "residuals.csv")
        assert rows and all(r["pass"] == "true" for r in rows)

    @pytest.mark.parametrize("entry,message", [
        ("nonsense", "unknown catalog entry 'nonsense'"),
        ("sphere:bogus=1", "unknown parameter 'bogus' for entry 'sphere'"),
    ], ids=["entry", "parameter"])
    def test_unknown_entry_exit_two(self, tmp_path, capsys, entry, message):
        out = tmp_path / "v"
        assert main(["verify", "--entries", entry, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_invalid_parameters_exit_two(self, tmp_path):
        assert main(["verify", "--entries", "helicoid:omega=0.9,R=1.2",
                     "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("entry", ["helicoid:omega=nan", "sphere:radius=nan",
                                       "hole:rho=inf", "disk:rho=nan",
                                       "helicoid:omega=abc", "helicoid:mu0=2",
                                       "helicoid:omega=0.5,omega=0.3", "helicoid:omega"])
    def test_bad_parameter_exit_two_without_outputs(self, tmp_path, entry):
        out = tmp_path / "v"
        assert main(["verify", "--entries", entry, "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_failed_residual_exit_one(self, tmp_path, monkeypatch):
        import worldsheet.cli as cli
        monkeypatch.setattr(cli, "evaluate_entry",
                            lambda entry: [("rigged", 1.0, 0.0, 1.0, False)])
        out = tmp_path / "v"
        assert main(["verify", "--entries", "plane", "--out-dir", str(out)]) == 1
        rows = read_rows(out / "residuals.csv")
        assert rows[0]["pass"] == "false"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["terminal_event"] == "residual_failure"


class TestEvolve:
    def test_clean_run_writes_outputs_and_manifest(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, EVOLVE_CONFIG)
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["terminal_event"] == "duration"
        for name in manifest["outputs"]:
            assert (out / name).exists()
        assert set(manifest["outputs"]) == {"trajectory.csv", "endpoints.csv",
                                            "diagnostics.csv"}

    def test_endpoint_column_matches_closed_form(self, tmp_path):
        from worldsheet.catalog import endpoint_worldline
        cfg = tmp_path / "cfg.json"
        write_json(cfg, EVOLVE_CONFIG)
        out = tmp_path / "run"
        main(["evolve", "--config", str(cfg), "--out-dir", str(out)])
        for row in read_rows(out / "endpoints.csv"):
            if row["side"] != "right":
                continue
            t, x = float(row["x0"]), float(row["x1"])
            assert abs(x - endpoint_worldline(1.0, 1.0, t)) < 1e-3

    def test_rerun_refused_without_force(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, EVOLVE_CONFIG)
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(out),
                     "--force"]) == 0

    def test_corrupt_manifest_refused_without_force(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, EVOLVE_CONFIG)
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text("{not json", encoding="utf-8")
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not (out / "trajectory.csv").exists()
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(out),
                     "--force"]) == 0
        assert json.loads((out / "manifest.json").read_text())["command"] == "evolve"

    def test_failed_write_leaves_no_outputs(self, tmp_path, monkeypatch):
        import worldsheet.cli as cli
        original, written = cli._write_csv, []

        def fail_on_third(path, header, rows):
            written.append(path)
            if len(written) == 3:
                raise OSError("disk full")
            original(path, header, rows)

        monkeypatch.setattr(cli, "_write_csv", fail_on_third)
        cfg = tmp_path / "cfg.json"
        write_json(cfg, EVOLVE_CONFIG)
        out = tmp_path / "run"
        with pytest.raises(OSError):
            main(["evolve", "--config", str(cfg), "--out-dir", str(out)])
        assert len(written) == 3
        assert not (out / "trajectory.csv").exists()
        assert not (out / "manifest.json").exists()
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("config", [
        dict(EVOLVE_CONFIG, output_stride=1),
        dict(EVOLVE_CONFIG, initial_data={"id": "rotating", "mu0": 1.0, "mub": 3.0,
                                          "radius": 1.0},
             duration=1.0, output_stride=7),
    ], ids=["collapse_stride_1", "rotating"])
    def test_trajectory_bytes_equal_the_csv_writer_oracle(self, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, config)
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        sim = SimulationConfig(**{k: v for k, v in config.items() if k != "schema_version"})
        expected = csv_writer_trajectory(evolve(sim).snapshots, FLOAT_FMT)
        assert (out / "trajectory.csv").read_bytes() == expected

    def test_trajectory_bytes_equal_the_csv_writer_oracle_on_edge_values(self, tmp_path):
        # each snapshot's single % and its substituted time column, on every kind of float
        edge = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e+300, -5e-324, 0.1, 12.0])
        snapshots = [SimpleNamespace(time=t, positions=sign * edge.reshape(3, 3))
                     for t, sign in ((0.0, 1.0), (-0.0, -1.0), (1e+300, 1.0), (np.nan, -1.0))]
        path = tmp_path / "trajectory.csv"
        _write_csv(path, ["t", "node", "x0", "x1", "x2"], _trajectory_rows(snapshots))
        assert path.read_bytes() == csv_writer_trajectory(snapshots, FLOAT_FMT)

    @pytest.mark.parametrize("config", [
        dict(EVOLVE_CONFIG, output_stride=1),
        dict(EVOLVE_CONFIG, duration=10.0, grid_points=32, output_stride=5),
        dict(EVOLVE_CONFIG, initial_data={"id": "rotating", "mu0": 1.0, "mub": 3.0,
                                          "radius": 1.0},
             duration=1.0, output_stride=7),
    ], ids=["collapse_stride_1", "collision", "rotating"])
    def test_endpoint_and_diagnostics_bytes_equal_the_csv_writer_oracle(self, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, config)
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        sim = SimulationConfig(**{k: v for k, v in config.items() if k != "schema_version"})
        snapshots = evolve(sim).snapshots
        for name, rows in (("endpoints.csv", endpoint_cells(snapshots)),
                           ("diagnostics.csv", diagnostics_cells(snapshots, diagnostics))):
            text = (out / name).read_bytes()
            header = text.split(b"\n", 1)[0].decode().split(",")
            assert text == csv_writer_bytes(header, rows, FLOAT_FMT)

    def test_endpoint_and_diagnostics_bytes_equal_the_csv_writer_oracle_on_edge_values(
            self, tmp_path, monkeypatch):
        # one % per snapshot's end rows and per diagnostics row, on every kind of float:
        # a first snapshot's nan accelerations, +-0.0 and exponents beyond +-99
        edge = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e+300, -5e-324, 0.1, 12.0, 1e-150]
        snapshots = []
        for k, (t, sign) in enumerate(((0.0, 1.0), (-0.0, -1.0), (1e+300, 1.0), (np.nan, -1.0))):
            v = [sign * x for x in np.roll(edge, k)]
            ends = (SimpleNamespace(four_velocity=np.array(v[:3]), proper_time=v[3]),
                    SimpleNamespace(four_velocity=np.array(v[4:7]), proper_time=v[7]))
            positions = np.array([v[8], v[9], v[0], v[1], v[2], v[3], v[4], v[5], v[6]])
            snapshots.append(SimpleNamespace(time=t, positions=positions.reshape(3, 3),
                                             endpoints=ends))
        records = {id(s): SimpleNamespace(
            constraint_norms=(s.positions[0, 0], s.positions[1, 1]),
            total_energy=s.positions[2, 2], angular_momentum=-s.positions[0, 1],
            endpoints=(SimpleNamespace(acceleration_magnitude=None if k == 0 else s.time),
                       SimpleNamespace(acceleration_magnitude=None if k == 0 else -0.0)))
            for k, s in enumerate(snapshots)}
        monkeypatch.setattr(cli, "diagnostics", lambda s: records[id(s)])
        header = ["t", "side", "x0", "x1", "x2", "u0", "u1", "u2", "proper_time"]
        path = tmp_path / "endpoints.csv"
        _write_csv(path, header, cli._endpoint_rows(snapshots))
        assert path.read_bytes() == csv_writer_bytes(header, endpoint_cells(snapshots), FLOAT_FMT)
        header = ["t", "constraint_mixed", "constraint_norm", "energy", "angular_momentum",
                  "acc_left", "acc_right"]
        _write_csv(path, header, cli._diagnostics_rows(snapshots))
        assert path.read_bytes() == csv_writer_bytes(
            header, diagnostics_cells(snapshots, cli.diagnostics), FLOAT_FMT)

    def test_main_builds_one_parser_per_process(self, tmp_path):
        import worldsheet.cli as cli
        cli.build_parser.cache_clear()
        cfg = tmp_path / "cfg.json"
        write_json(cfg, EVOLVE_CONFIG)
        for run in ("a", "b"):
            assert main(["evolve", "--config", str(cfg), "--out-dir", str(tmp_path / run)]) == 0
        assert cli.build_parser.cache_info().misses == 1

    def test_worldsheet_error_exit_one_without_outputs(self, tmp_path, monkeypatch, capsys):
        import worldsheet.cli as cli

        def broken(sim):
            raise InconsistentGeometry("rigged cross-check")

        monkeypatch.setattr(cli, "evolve", broken)
        cfg = tmp_path / "cfg.json"
        write_json(cfg, EVOLVE_CONFIG)
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "failure: rigged cross-check\n"
        assert list(out.iterdir()) == []

    def test_byte_identical_outputs_for_same_digest(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, EVOLVE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["evolve", "--config", str(cfg), "--out-dir", str(out1)])
        main(["evolve", "--config", str(cfg), "--out-dir", str(out2)])
        for name in ("trajectory.csv", "endpoints.csv", "diagnostics.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["config_digest"] == m2["config_digest"]

    def test_below_minimum_grid_exit_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, dict(EVOLVE_CONFIG, grid_points=8))
        assert main(["evolve", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("key,text", [
        ("duration", "NaN"), ("duration", "Infinity"), ("duration", "1e400"),
        ("grid_points", "NaN"), ("x0", "NaN"),
        pytest.param("x0", "1" + "0" * 400, id="x0-overflowing_integer"),
    ])
    def test_non_finite_number_exit_two_without_outputs(self, tmp_path, key, text):
        payload = json.dumps(EVOLVE_CONFIG)
        old = f'"{key}": 1.0' if key == "x0" else f'"{key}": {EVOLVE_CONFIG[key]}'
        assert old in payload
        cfg = tmp_path / "cfg.json"
        cfg.write_text(payload.replace(old, f'"{key}": {text}'), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("change", [
        {"duration": None}, {"initial_data": None}, {"duration": "abc"},
        {"initial_data": "rotating"}, {"grid_points": 64.5}, {"output_stride": 2.5},
        {"initial_data": {"id": "collapsing", "mu0": "abc"}},
        {"initial_data": {"id": "rotating", "radius": None}},
        {"initial_data": {"id": "collapsing", "x0": [1.0]}},
        {"initial_data": {"id": "collapsing", "x0": 0}},
        {"initial_data": {"id": "bogus"}},
        {"initial_data": {"id": "rotating", "bogus": 1}},
        {"initial_data": {"id": "rotating", "radius": -1}},
        {"duration": "0.05"}, {"initial_data": {"id": "collapsing", "mu0": "1.0"}},
        {"initial_data": {"id": "collapsing", "x0": True}}, {"output_stride": True},
    ], ids=["no_duration", "no_initial_data", "text_duration", "text_initial_data",
            "fractional_grid_points", "fractional_output_stride", "text_initial_mu0",
            "null_initial_radius", "list_initial_x0", "zero_initial_x0", "unknown_initial_id",
            "unknown_initial_key", "negative_initial_radius", "number_text_duration",
            "number_text_initial_mu0", "bool_initial_x0", "bool_output_stride"])
    def test_missing_or_mistyped_key_exit_two_without_outputs(self, tmp_path, capsys,
                                                              change):
        payload = {k: v for k, v in dict(EVOLVE_CONFIG, **change).items() if v is not None}
        cfg = tmp_path / "cfg.json"
        write_json(cfg, payload)
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, dict(EVOLVE_CONFIG, bogus=1))
        assert main(["evolve", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "run")]) == 2

    def test_missing_schema_version_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        payload = dict(EVOLVE_CONFIG)
        payload.pop("schema_version")
        write_json(cfg, payload)
        assert main(["evolve", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("payload,message", [
        (None, "error: cannot read config "),
        ([EVOLVE_CONFIG], "error: config must be a JSON object\n"),
        (dict(EVOLVE_CONFIG, duration="nan"),
         "error: config 'duration' must be a number, got 'nan'\n"),
    ], ids=["missing_file", "json_array", "nan_text"])
    def test_unusable_config_exit_two_without_outputs(self, tmp_path, capsys, payload, message):
        cfg = tmp_path / "cfg.json"
        if payload is not None:
            write_json(cfg, payload)
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_constraint_blowup_exit_one_with_manifest(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, dict(EVOLVE_CONFIG, constraint_tol=1e-7))
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["terminal_event"] == "constraint_blowup"

    def test_collision_is_clean_termination(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_json(cfg, dict(EVOLVE_CONFIG, duration=10.0, grid_points=64,
                             output_stride=100))
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["terminal_event"] == "endpoint_collision"

    @pytest.mark.parametrize("config", [
        dict(EVOLVE_CONFIG, output_stride=3),
        dict(EVOLVE_CONFIG, initial_data={"id": "rotating", "mu0": 1.0, "mub": 3.0,
                                          "radius": 1.0}, duration=2.0, constraint_tol=3e-6),
    ], ids=["duration", "constraint_blowup"])
    def test_diagnostics_is_called_by_its_module_name_once_per_snapshot(self, tmp_path,
                                                                         monkeypatch, config):
        # the benchmark's re-run (perfbench/workloads.py) replaces `cli.diagnostics` with a
        # one-argument wrapper to read the pull angle, which no CSV holds
        calls = []

        def observed(*args, **kwargs):
            calls.append((args, kwargs))
            return diagnostics(*args, **kwargs)

        monkeypatch.setattr(cli, "diagnostics", observed)
        cfg = tmp_path / "cfg.json"
        write_json(cfg, config)
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) in (0, 1)
        sim = SimulationConfig(**{k: v for k, v in config.items() if k != "schema_version"})
        try:
            snapshots = evolve(sim).snapshots
        except WorldsheetError as exc:
            snapshots = exc.trajectory.snapshots
        assert len(calls) == len(snapshots) > 1
        for (args, kwargs), snap in zip(calls, snapshots):
            assert not kwargs and len(args) == 1 and isinstance(args[0], StringState)
            assert (args[0].time, args[0].positions.tobytes()) == (snap.time,
                                                                   snap.positions.tobytes())

    def test_collision_at_stride_one_stores_the_last_state_once(self, tmp_path):
        # the stride has already stored the last good state when the ends collide
        config = dict(EVOLVE_CONFIG, duration=10.0, grid_points=32, output_stride=1)
        sim = SimulationConfig(**{k: v for k, v in config.items() if k != "schema_version"})
        traj = evolve(sim)
        assert traj.terminal_event == "endpoint_collision"
        times = [s.time for s in traj.snapshots]
        assert all(a < b for a, b in zip(times, times[1:]))
        cfg = tmp_path / "cfg.json"
        write_json(cfg, config)
        out = tmp_path / "run"
        assert main(["evolve", "--config", str(cfg), "--out-dir", str(out)]) == 0
        blocks = [float(row["t"]) for row in read_rows(out / "trajectory.csv")][::32]
        assert len(blocks) == len(times) and all(a < b for a, b in zip(blocks, blocks[1:]))


class TestScan:
    def test_hole_scan_brackets_critical_radius(self, tmp_path):
        cfg = tmp_path / "scan.json"
        write_json(cfg, {"schema_version": 1, "scan": "hole_radius",
                         "start": 1.0, "stop": 4.0, "points": 31,
                         "mu0": 1.0, "mub": 2.0})
        out = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = read_rows(out / "scan.csv")
        rhos = np.array([float(r["rho"]) for r in rows])
        res = np.array([float(r["edge_residual"]) for r in rows])
        crossings = [(rhos[i], rhos[i + 1]) for i in range(len(res) - 1)
                     if np.sign(res[i]) != np.sign(res[i + 1])]
        assert crossings, "no sign change found"
        lo, hi = crossings[0]
        assert lo <= 2.0 <= hi
        assert hi - lo <= (rhos[1] - rhos[0]) + 1e-12

    @settings(derandomize=True, max_examples=50)
    @given(mu0=st.floats(0.5, 2.0), ratio=st.floats(1.2, 3.5))
    def test_edge_law_changes_sign_at_critical_radius_property(self, mu0, ratio):
        # the hole is in equilibrium at rho = mub/mu0 = ratio
        [(_, below)] = _scan_hole([0.9 * ratio], mu0, ratio * mu0)
        [(_, above)] = _scan_hole([1.1 * ratio], mu0, ratio * mu0)
        assert below < 0.0 < above

    def test_orbit_scan_monotone_subluminal(self, tmp_path):
        cfg = tmp_path / "scan.json"
        write_json(cfg, {"schema_version": 1, "scan": "orbit_omega",
                         "start": 0.1, "stop": 10.0, "points": 25,
                         "mub": 1.0, "radius": 1.0})
        out = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = read_rows(out / "scan.csv")
        omegas = [float(r["omega"]) for r in rows]
        wr = [float(r["omega_radius"]) for r in rows]
        residuals = [abs(float(r["edge_residual"])) for r in rows]
        assert all(b > a for a, b in zip(omegas, omegas[1:]))
        assert all(v < 1.0 for v in wr)
        assert max(residuals) < 1e-9

    def test_empty_range_exit_two(self, tmp_path):
        cfg = tmp_path / "scan.json"
        write_json(cfg, {"schema_version": 1, "scan": "hole_radius",
                         "start": 2.0, "stop": 2.0, "points": 1})
        assert main(["scan", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "scan")]) == 2

    @pytest.mark.parametrize("bounds", ['"start": -Infinity, "stop": 2.0',
                                        '"start": 1.0, "stop": Infinity',
                                        '"start": 1.0, "stop": 1e400',
                                        pytest.param('"start": 1.0, "stop": 2.0, "points": 1'
                                                     + "0" * 400, id="overflowing_points")])
    def test_non_finite_range_exit_two_without_outputs(self, tmp_path, bounds):
        points = "" if '"points"' in bounds else ', "points": 5'
        cfg = tmp_path / "scan.json"
        cfg.write_text('{"schema_version": 1, "scan": "hole_radius", ' + bounds + points
                       + ', "mu0": 1.0, "mub": 2.0}', encoding="utf-8")
        out = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["hole_radius", "orbit_omega"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("key", ["mub", "radius"])
    def test_nonpositive_mub_exit_two_without_outputs(self, tmp_path, kind, value, key):
        cfg = tmp_path / "scan.json"
        write_json(cfg, {"schema_version": 1, "scan": kind, "start": 1.0,
                         "stop": 3.0, "points": 5, "mu0": 1.0, "mub": 2.0, key: value})
        out = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("change", [
        {"stop": None}, {"start": None}, {"points": None}, {"points": "x"},
        {"points": 30.7}, {"start": "abc"}, {"mu0": "abc"}, {"mub": [2.0]},
        {"start": "1"}, {"points": "31"}, {"mub": True},
    ], ids=["no_stop", "no_start", "no_points", "text_points", "fractional_points",
            "text_start", "text_mu0", "list_mub", "number_text_start", "number_text_points",
            "bool_mub"])
    def test_missing_or_mistyped_key_exit_two_without_outputs(self, tmp_path, capsys,
                                                              change):
        base = {"schema_version": 1, "scan": "hole_radius", "start": 1.0, "stop": 4.0,
                "points": 30, "mu0": 1.0, "mub": 2.0}
        cfg = tmp_path / "scan.json"
        write_json(cfg, {k: v for k, v in dict(base, **change).items() if v is not None})
        out = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(start=st.floats(-1.0, 4.0), width=st.floats(0.05, 6.0),
           points=st.integers(2, 60), mu0=st.floats(0.5, 2.0), mub=st.floats(0.5, 4.0))
    def test_hole_scan_rows_equal_point_evaluations_property(self, start, width, points,
                                                             mu0, mub):
        # the batched scan writes the rows a per-point evaluation would, failures included
        expected = []
        for rho in np.linspace(start, start + width, points).tolist():
            try:
                [(k, residual)] = _scan_hole([rho], mu0, mub)
                expected.append([FLOAT_FMT % rho, FLOAT_FMT % k, FLOAT_FMT % residual, "ok"])
            except WorldsheetError as exc:
                expected.append([FLOAT_FMT % rho, "nan", "nan", f"failed: {exc}"])
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "scan.json", Path(tmp) / "scan"
            write_json(cfg, {"schema_version": 1, "scan": "hole_radius", "start": start,
                             "stop": start + width, "points": points, "mu0": mu0,
                             "mub": mub})
            code = main(["scan", "--config", str(cfg), "--out-dir", str(out)])
            with open(out / "scan.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
        assert rows == expected
        assert code == (0 if all(r[3] == "ok" for r in expected) else 1)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(start=st.floats(-2.0, 3.0), width=st.floats(0.05, 6.0),
           points=st.integers(2, 40), mub=st.floats(0.5, 4.0), radius=st.floats(0.2, 3.0))
    def test_orbit_scan_rows_equal_point_evaluations_property(self, start, width, points,
                                                              mub, radius):
        # the orbit scan writes the rows a per-ratio evaluation would; ratios <= 0 fail
        expected = []
        for ratio in np.linspace(start, start + width, points).tolist():
            try:
                cols = _scan_orbit(ratio, mub, radius)
                expected.append([FLOAT_FMT % v for v in (ratio, *cols)] + ["ok"])
            except WorldsheetError as exc:
                expected.append([FLOAT_FMT % ratio, "nan", "nan", "nan", f"failed: {exc}"])
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "scan.json", Path(tmp) / "scan"
            write_json(cfg, {"schema_version": 1, "scan": "orbit_omega", "start": start,
                             "stop": start + width, "points": points, "mub": mub,
                             "radius": radius})
            code = main(["scan", "--config", str(cfg), "--out-dir", str(out)])
            with open(out / "scan.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
        assert rows == expected
        assert code == (0 if all(r[4] == "ok" for r in expected) else 1)

    def test_unknown_scan_kind_exit_two(self, tmp_path):
        cfg = tmp_path / "scan.json"
        write_json(cfg, {"schema_version": 1, "scan": "bogus",
                         "start": 1.0, "stop": 2.0, "points": 5})
        assert main(["scan", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "scan")]) == 2

    def test_per_point_failures_recorded_exit_one(self, tmp_path):
        # non-positive radii fail pointwise; the scan continues past them
        cfg = tmp_path / "scan.json"
        write_json(cfg, {"schema_version": 1, "scan": "hole_radius",
                         "start": -0.5, "stop": 1.5, "points": 5,
                         "mu0": 1.0, "mub": 2.0})
        out = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg), "--out-dir", str(out)]) == 1
        rows = read_rows(out / "scan.csv")
        assert len(rows) == 5
        assert any(r["status"].startswith("failed") for r in rows)
        assert any(r["status"] == "ok" for r in rows)

    def test_csv_float_format(self, tmp_path):
        cfg = tmp_path / "scan.json"
        write_json(cfg, {"schema_version": 1, "scan": "hole_radius",
                         "start": 1.0, "stop": 3.0, "points": 9,
                         "mu0": 1.0, "mub": 2.0})
        out = tmp_path / "scan"
        main(["scan", "--config", str(cfg), "--out-dir", str(out)])
        text = (out / "scan.csv").read_text()
        assert "\r" not in text
        first_data_line = text.splitlines()[1]
        assert first_data_line.split(",")[0] == "%.12e" % 1.0
