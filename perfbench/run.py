"""Benchmark of the worldsheet toolkit: one workload per run, closed loop, one client.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload catalog-cli --seed 1 --seconds 30 --trace 0

A pass is one sweep over the workload's inputs, with fresh parameters drawn
from the seed and a fixed work size.  One untimed warm-up pass on the
reference inputs (the acceptance-test parameters) comes first, then timed
passes until ``--seconds`` is spent, then pass 0's inputs run again and every
CSV must be byte-identical.  Every pass is checked for correctness.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of standard output is one JSON object; a fuller record (quartiles,
provenance, failed checks, the cProfile top 10) goes to ``.perfbench_out/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# one BLAS thread: results (and CSV bytes) stay reproducible and a shared
# two-core machine is not oversubscribed; set before numpy is imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import PER_LAYER_UNITS, Tracer, layer_metrics  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, Check  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(".perfbench_out")
TMP_DIR = Path(".perfbench_tmp")

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "ok_frac": "ratio", "tol_use_max": "ratio"}
# The host is shared, and its speed drifts by up to 2x over tens of seconds.
# A fixed kernel that does not touch worldsheet is timed before every pass, and
# pass_s is the median pass time scaled to the speed at which that kernel takes
# CAL_REFERENCE_S (about its time on a quiet 2-vCPU x86-64 host).
CAL_REFERENCE_S = 0.05
MIN_PASSES = 3
COUNTED_TRACED_PASSES = 3  # per-layer counts come from exactly this many passes
SETUP_PROBES = 5
PROFILED = ("variation-fd", "evolve-strings")  # single-threaded, so cProfile sees all


def make_workload(args, tag: str):
    workdir = TMP_DIR / f"{args.workload}-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[args.workload](args.seed, workdir, SMOKE if args.smoke else FULL)


def probe_setup(args) -> int:
    """Child process: set up the workload, make pass 0's inputs, then report."""
    w = make_workload(args, "probe")
    try:
        w.setup()
        w.inputs(0)
        print("ready", flush=True)
    finally:
        shutil.rmtree(w.workdir, ignore_errors=True)
    return 0


def measure_setup(args, count: int) -> list[float]:
    """Wall time from starting a fresh interpreter to the end of its workload set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    times = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return times


def calibration() -> float:
    """Wall time of a fixed kernel: a Python loop over 3-vectors (like a dynamics
    step or a batch-1 geometry call) plus batched 4096-point numpy work (like the
    64x64 quadrature)."""
    start = time.perf_counter()
    u, v, acc = np.array([1.0, 0.2, 0.1]), np.array([0.5, 0.3, 0.2]), 0.0
    for i in range(3000):
        w = u * 0.5 + v * (i % 3)
        acc += float(-w[0] * w[0] + np.sum(w[1:] * w[1:]))
    e, g = np.random.default_rng(0).normal(size=(4096, 3, 2)), np.diag([-1.0, 1.0, 1.0])
    for _ in range(6):
        gamma = np.einsum("...ma,mn,...nb->...ab", e, g, e)
        np.linalg.inv(gamma + 3.0 * np.eye(2))
        acc += float(np.sum(np.sin(e) * np.cos(e)))
    return time.perf_counter() - start


def run_checks(w, inp, out) -> list[Check]:
    try:
        return w.check(inp, out)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [Check(f"outputs.readable ({exc!r})", False)]


def output_size(out: dict) -> tuple[int, int]:
    files = [p for p in out["dir"].rglob("*") if p.is_file()] if "dir" in out else []
    return len(files), sum(p.stat().st_size for p in files)


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git; None outside a repo."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": BLAS_THREADS,
            "cpu_count": os.cpu_count(), "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "seed": seed}


def profile_pass(w, index: int) -> list[dict]:
    """Top 10 functions by tottime over one pass on fresh inputs."""
    inp = w.inputs(index)
    profiler = cProfile.Profile()
    profiler.enable()
    w.run(inp, w.workdir / f"p{index}" / "out")
    profiler.disable()
    rows = sorted(pstats.Stats(profiler).stats.items(), key=lambda kv: kv[1][2],
                  reverse=True)[:10]
    return [{"function": f"{Path(f).name}:{line}({fn})", "ncalls": nc,
             "tottime_s": tt, "cumtime_s": ct}
            for (f, line, fn), (_, nc, tt, ct, _) in rows]


def benchmark(args, w) -> dict:
    record = {"workload": args.workload, "provenance": provenance(args.seed)}
    if not args.trace:
        record["setup_samples_s"] = measure_setup(args, 1 if args.smoke else SETUP_PROBES)
    w.setup()

    def pass_dir(index):
        return w.workdir / ("ref" if index is None else f"p{index}")

    # warm-up on the reference inputs; its checks give tol_use_max
    inp = w.inputs(None)
    ref_checks = run_checks(w, inp, w.run(inp, pass_dir(None) / "out"))
    shutil.rmtree(pass_dir(None), ignore_errors=True)
    checks = list(ref_checks)

    # timed passes; a traced run alternates untraced and traced passes so that
    # both see the same drift in machine speed
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    times, cals = {False: [], True: []}, []
    counted, written = None, [0, 0]
    index, loop_start = 0, time.perf_counter()
    try:
        while True:
            traced = bool(tracer) and index % 2 == 1
            done = times[traced]
            if len(done) >= MIN_PASSES and (time.perf_counter() - loop_start
                                            + statistics.median(done) > args.seconds):
                break
            inp = w.inputs(index)
            cals.append(calibration())
            if traced:
                tracer.pass_id, tracer.active = index, True
            start = time.perf_counter()
            out = w.run(inp, pass_dir(index) / "out")
            done.append(time.perf_counter() - start)
            if traced:
                tracer.active = False
                if len(done) <= COUNTED_TRACED_PASSES:
                    written = [a + b for a, b in zip(written, output_size(out))]
                if len(done) == COUNTED_TRACED_PASSES:
                    counted = (len(tracer.spans), Counter(tracer.counters))
            checks += run_checks(w, inp, out)
            if index == 0:
                first = (inp, w.digests(out))
                shutil.rmtree(pass_dir(0) / "out", ignore_errors=True)
            else:
                shutil.rmtree(pass_dir(index), ignore_errors=True)
            index += 1
    finally:
        if tracer:
            tracer.active = False
            tracer.uninstall()

    # byte-determinism: pass 0's inputs again, every CSV compared
    inp0, digests0 = first
    out, extra = w.rerun(inp0, pass_dir(0) / "rerun")
    digests1 = w.digests(out)
    checks += extra
    checks.append(Check("determinism.files", bool(digests0) and digests0.keys() == digests1.keys()))
    checks += [Check(f"determinism.{key}", digests1.get(key) == digest)
               for key, digest in digests0.items()]
    shutil.rmtree(pass_dir(0), ignore_errors=True)

    untraced = times[False]
    failed = [c.name for c in checks if not c.ok]
    record.update({
        "passes": len(untraced), "pass_times_s": untraced,
        "pass_quartiles_s": statistics.quantiles(untraced, n=4, method="inclusive"),
        "calibration_times_s": cals,
        "speed_scale": CAL_REFERENCE_S / statistics.median(cals),
        "checks_attempted": len(checks), "checks_failed": len(failed),
        "failed_checks": failed,
        "reference_checks": [[c.name, c.use] for c in ref_checks if c.use is not None]})
    if tracer:
        n_spans, counters = counted
        extra = {"cli.files_written": written[0] / COUNTED_TRACED_PASSES,
                 "cli.bytes_written": written[1] / COUNTED_TRACED_PASSES,
                 "trace.overhead_frac": statistics.median(times[True])
                 / statistics.median(untraced) - 1.0}
        values = layer_metrics(tracer.spans[:n_spans], counters, COUNTED_TRACED_PASSES, extra)
        units = PER_LAYER_UNITS
        record["traced_pass_times_s"] = times[True]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        if args.workload in PROFILED:
            record["cprofile_top10"] = profile_pass(w, index)
    else:
        values = {
            "pass_s": statistics.median(untraced) * record["speed_scale"],
            "setup_s": statistics.median(record["setup_samples_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(failed) / len(checks),
            "tol_use_max": max(use for _, use in record["reference_checks"]),
        }
        units = END_TO_END_UNITS
    record["metrics"] = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny work sizes and one set-up probe: checks that everything runs")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "worldsheet" / "__init__.py").is_file():
        print(f"error: no worldsheet sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return probe_setup(args)

    w = make_workload(args, "run")
    try:
        record = benchmark(args, w)
    finally:
        shutil.rmtree(w.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()  # only when no other run is using it
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")

    print("provenance: " + ", ".join(f"{k}={v}" for k, v in record["provenance"].items()))
    q = record["pass_quartiles_s"]
    print(f"{args.workload}: {record['passes']} untraced passes, wall-time quartiles "
          f"{q[0]:.4f} / {q[1]:.4f} / {q[2]:.4f} s, speed scale {record['speed_scale']:.3f}")
    if record["failed_checks"]:
        print("failed checks: " + ", ".join(record["failed_checks"][:20]))
    print(json.dumps({"correct": not record["failed_checks"],
                      "attempted": record["checks_attempted"],
                      "failed": record["checks_failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
