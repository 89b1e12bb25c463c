"""Benchmark of the `ddcorr scan` path on fixed scan workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root, which must hold `src/ddcorr` and
`scenarios/`.  Each iteration is one fresh interpreter (scan_child.py) that
imports ddcorr, parses the workload's scenarios, scans them and writes their
CSV and PGM outputs, exactly as `ddcorr scan` does.  Iterations repeat until
S seconds have passed, after one untimed warm-up that compiles bytecode.

--trace 0 reports the end-to-end metrics, medians over the iterations:
wall_s (interpreter start to last output written), setup_s (import plus
scenario parsing, over at least SETUP_SAMPLES processes), points_per_s
(grid points over the time after set-up) and peak_rss_mib.  --trace 1
alternates untraced and traced one-worker iterations and reports the
per-layer metrics of the traced ones, the remainder of the scan time that no
layer covers, and the tracing overhead (traced minus untraced scan time).

The grids are fixed; the seed picks the grid points checked against the
oracle.  Every run checks every output (checks.py) and that all iterations
wrote identical bytes; a multi-worker workload is also compared with a
one-worker scan.  The last stdout line is the JSON result; the exit code is
1 if a check failed and 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
SRC = Path("src")
OUT = BENCH / "out"
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Case:
    path: str
    minimum: str | None = None  # key of checks.QUANTIZED_MINIMUM
    dips_MHz: tuple | None = None  # transition frequencies of a tau x tau map


@dataclass(frozen=True)
class Workload:
    workers: int
    cases: tuple


WORKLOADS = {
    # Pulse-count cells on the exact engine: per-point timelines and
    # propagators dominate (exact.coherence_system is 75-90% of the time).
    "pulse-cells": Workload(1, (
        Case("scenarios/correlated-ladder-cell.json", minimum="correlated"),
        Case("scenarios/ring-sandwich-slice.json", minimum="ring"),
    )),
    # Every point has its own tau pair, so no per-axis reuse applies; the
    # only workload that runs the process pool.
    "tau-map-pool": Workload(2, (
        Case("scenarios/spin-one-tau-map.json", dips_MHz=(0.20, 0.14)),
    )),
    # Acceptance criterion 3's halved-coupling panels, analytic engine only:
    # the Magnus model, ScanRecord construction and the writers.
    "magnus-panels": Workload(1, (
        Case("perfbench/scenarios/correlated-ladder-half.json", minimum="correlated"),
        Case("perfbench/scenarios/uncorrelated-ladder-half.json", minimum="uncorrelated"),
        Case("perfbench/scenarios/type-v-half.json", minimum="correlated"),
    )),
}

END_TO_END_UNITS = {"wall_s": "s", "points_per_s": "points/s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, a scan that crashed)."""


def run_child(cases, out_dir: Path, workers: int, trace_file=None, setup_only=False) -> dict:
    """One scan_child.py process; returns its report plus wall_s."""
    cmd = [sys.executable, str(BENCH / "scan_child.py"), "--out-dir", str(out_dir),
           "--workers", str(workers), *(c.path for c in cases)]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.resolve()), os.environ.get("PYTHONPATH")])))
    start = time.monotonic()
    # a process group of its own, so that killing it also reaches the pool workers
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, start_new_session=True, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"scan process exited {proc.returncode}:\n{err.strip()}")
    report = json.loads(out.splitlines()[-1])
    if Path(report["package"]) != (SRC / "ddcorr" / "__init__.py").resolve():
        raise BenchError(f"imported ddcorr from {report['package']}, not from {SRC}")
    if not setup_only:
        report["wall_s"] = report["done"] - start
        report["scan_s"] = report["done"] - report["setup_end"]
        report["hashes"] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
        }
    return report


def median(values) -> float:
    return float(statistics.median(values))


def measure(workload: Workload, out_dir: Path, seconds: float) -> tuple[list, dict]:
    deadline = time.monotonic() + seconds
    runs = []
    while not runs or time.monotonic() < deadline:
        runs.append(run_child(workload.cases, out_dir, workload.workers))
    setups = [r["import_s"] + r["parse_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        probe = run_child(workload.cases, out_dir, workload.workers, setup_only=True)
        setups.append(probe["import_s"] + probe["parse_s"])
    metrics = {
        "wall_s": median(r["wall_s"] for r in runs),
        "points_per_s": median(r["points"] / r["scan_s"] for r in runs),
        "setup_s": median(setups),
        "peak_rss_mib": median(r["peak_rss_kib"] / 1024.0 for r in runs),
    }
    return runs, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def layer_metrics(run: dict) -> dict:
    """Per-layer (value, unit) of one traced iteration."""
    layers = run["layers"]

    def ms(name):
        return layers[name]["s"] * 1e3

    def self_ms(name):
        return (layers[name]["s"] - layers[name]["child_s"]) * 1e3

    exact = layers["exact.coherence_system"]
    scan_ms = run["scan_s"] * 1e3
    covered = ms("scan.run_scan") + ms("scan.write_csv") + ms("scan.write_heatmap")
    return {
        "ddcorr.import_ms": (run["import_s"] * 1e3, "ms"),
        "cli.parse_scenario_ms": (ms("cli.parse_scenario"), "ms"),
        "scan.run_scan_ms": (ms("scan.run_scan"), "ms"),
        "scan.self_ms": (self_ms("scan.run_scan"), "ms"),
        "scan.write_csv_ms": (ms("scan.write_csv"), "ms"),
        "scan.write_heatmap_ms": (ms("scan.write_heatmap"), "ms"),
        "scan.csv_bytes": (run["csv_bytes"], "bytes"),
        "exact.coherence_system_ms": (ms("exact.coherence_system"), "ms"),
        "exact.coherence_system_calls": (exact["calls"], "count"),
        "exact.us_per_point": (exact["s"] * 1e6 / exact["calls"] if exact["calls"] else 0.0, "us"),
        "sequence.build_timeline_ms": (ms("sequence.build_timeline"), "ms"),
        "sequence.build_timeline_calls": (layers["sequence.build_timeline"]["calls"], "count"),
        "sequence.flips_built": (run["flips_built"], "count"),
        "analytic.magnus_coherence_ms": (ms("analytic.magnus_coherence"), "ms"),
        "analytic.self_ms": (self_ms("analytic.magnus_coherence"), "ms"),
        "analytic.magnus_generator_ms": (ms("analytic.magnus_generator"), "ms"),
        "analytic.magnus_generator_calls": (layers["analytic.magnus_generator"]["calls"], "count"),
        "bench.scan_phase_ms": (scan_ms, "ms"),
        "bench.unaccounted_ms": (scan_ms - covered, "ms"),
    }


def measure_traced(workload: Workload, out_dir: Path, seconds: float) -> tuple[list, dict]:
    trace_file = out_dir.parent / "trace.json"
    deadline = time.monotonic() + seconds
    plain, traced = [], []
    while not traced or time.monotonic() < deadline:
        plain.append(run_child(workload.cases, out_dir, 1))
        run = run_child(workload.cases, out_dir, 1, trace_file=trace_file)
        run["csv_bytes"] = sum((out_dir / f"{Path(c.path).stem}.csv").stat().st_size
                               for c in workload.cases)
        traced.append(run)
    per_run = [layer_metrics(r) for r in traced]
    metrics = {
        name: (median(m[name][0] for m in per_run), unit)
        for name, (_, unit) in per_run[0].items()
    }
    overhead = median(r["scan_s"] for r in traced) - median(r["scan_s"] for r in plain)
    metrics["bench.trace_overhead_ms"] = (overhead * 1e3, "ms")
    return plain + traced, metrics


def check_outputs(workload: Workload, runs: list, out_dir: Path, seed: int) -> list[str]:
    from ddcorr.cli import parse_scenario  # src/ is on sys.path once main() has checked it

    failures = []
    if any(r["hashes"] != runs[0]["hashes"] for r in runs):
        failures.append("iterations wrote different output bytes")
    for index, case in enumerate(workload.cases):
        raw = json.loads(Path(case.path).read_text())
        scenario = parse_scenario(case.path)
        clusters = [(c.energies, c.coupling) for c in scenario.system.clusters]
        stem = Path(case.path).stem
        found = checks.check_scan(
            case, raw, clusters, out_dir / f"{stem}.csv", out_dir / f"{stem}.pgm",
            runs[-1]["minima"][index]["re_L"], np.random.default_rng([seed, index]),
        )
        failures += [f"{case.path}: {f}" for f in found]
    return failures


def check_one_worker(workload: Workload, out_dir: Path) -> list[str]:
    """A pool scan must write the bytes a one-worker scan writes."""
    ref_dir = out_dir.parent / "one-worker"
    ref_dir.mkdir()
    run_child(workload.cases, ref_dir, 1)
    return [
        f"{p.name}: {workload.workers} workers and 1 worker wrote different bytes"
        for p in sorted(ref_dir.iterdir())
        if p.read_bytes() != (out_dir / p.name).read_bytes()
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so run_child kills the scan it waits for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]
    missing = [p for p in [SRC / "ddcorr" / "__init__.py", *(Path(c.path) for c in workload.cases)]
               if not p.is_file()]
    if missing:
        raise BenchError(f"run from the repository root; missing {', '.join(map(str, missing))}")
    sys.path.insert(0, str(SRC.resolve()))

    work_dir = OUT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    out_dir = work_dir / "scan"
    out_dir.mkdir(parents=True)
    run_child(workload.cases, out_dir, workload.workers, setup_only=True)  # warm-up

    if args.trace:
        runs, metrics = measure_traced(workload, out_dir, args.seconds)
    else:
        runs, metrics = measure(workload, out_dir, args.seconds)
    failures = check_outputs(workload, runs, out_dir, args.seed)
    if workload.workers > 1 and not args.trace:
        failures += check_one_worker(workload, out_dir)

    for line in failures:
        print(f"CHECK FAILED: {line}")
    print(f"{args.workload}: {len(runs)} iterations of {len(workload.cases)} scans")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": len(runs) * len(workload.cases),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (work_dir / "result.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
