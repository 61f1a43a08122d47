"""The kernel ladder runs: the working tree against itself, by directory, at tiny sizes."""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ladder_times_every_kernel_in_both_versions(capsys):
    spec = importlib.util.spec_from_file_location("kernel_ladder",
                                                  ROOT / "tools" / "kernel_ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    assert ladder.main([str(ROOT / "src"), "--rounds", "1", "--number", "1",
                        "--grid-points", "16", "--batches", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["kernel", "REV", "us", "REV", "flt", "work", "us", "work", "flt",
                              "ratio"]
    assert [row.split()[0] for row in rows] == [
        "dynamics.step", "constraint_norms", "gate", "dynamics.evolve", "dynamics.evolve",
        "position", "frame", "normal_frame", "extrinsic_curvature", "boundary_data",
        "_frame_at", "delta_jacobian", "displaced", "first_variation_fd", "evaluate_entry",
        "evaluate_entry"]
    for row in rows:
        base, base_flt, work, work_flt, ratio = (float(v) for v in row.split()[-5:])
        assert base > 0.0 and work > 0.0 and math.isfinite(ratio)
        assert base_flt >= 0.0 and work_flt >= 0.0
