"""Command-line front end: scenario files, subcommands, output emission.

A scenario is a JSON object with `clusters` and `sequence` sections plus
optional `grid`, `analytic`, and `plan` sections.  Every frequency- or
time-valued key carries its unit as a suffix (`_MHz`, `_kHz`, `_us`), and
the cyclic-to-angular conversion happens exactly once, at load time.
Level and block indices are 0-based.

Subcommands: scan, analytic, plan, filter, lint, validate.  Exit codes:
0 success, 1 usage error, 2 scenario/validation error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .analytic import TOPOLOGIES, Topology
from .planner import DEFAULT_T_IR_US, plan, readout_fidelity
from .scan import (
    AnalyticModel,
    GridSpec,
    PulseAxis,
    TauAxis,
    run_scan,
    write_csv,
    write_heatmap,
)
from .sequence import (
    Block,
    SequenceSpec,
    build_timeline,
    filter_numeric,
    lint_resonance_overlap,
    resonant_tau,
)
from .spin_model import (
    TWO_PI,
    SystemModel,
    TargetCluster,
    ladder_preset,
    new_cluster,
    ring_preset,
    spin_one_preset,
    star_preset,
    transition,
    validate_weak_coupling,
)

# Bare field names -> the unit-suffixed spelling the schema requires.
_SUFFIX_HINTS = {
    "f_a": "f_a_MHz",
    "f_b": "f_b_MHz",
    "lambda": "lambda_kHz",
    "rung_freqs": "rung_freqs_MHz",
    "rung_couplings": "rung_couplings_kHz",
    "f_1": "f_1_MHz",
    "f_2": "f_2_MHz",
    "freqs": "freqs_MHz",
    "energies": "energies_MHz",
    "amp": "amp_kHz",
    "tau": "tau_us",
    "lo": "lo_us",
    "hi": "hi_us",
    "t_ir": "t_ir_us",
    "delta_omega": "delta_omega_kHz",
}


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate; message carries the field path."""


@dataclass(frozen=True)
class Scenario:
    """A fully resolved scenario plus its normalized JSON source."""

    system: SystemModel
    sequence: SequenceSpec
    grid: GridSpec | None
    analytic_model: AnalyticModel | None
    plan_inputs: dict | None
    source: dict

    def to_json_dict(self) -> dict:
        return copy.deepcopy(self.source)


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


def _as_dict(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _as_list(obj, path: str) -> list:
    if not isinstance(obj, list):
        _fail(path, f"expected an array, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, allowed: set, path: str) -> None:
    for key in obj:
        if key in allowed:
            continue
        hint = _SUFFIX_HINTS.get(key)
        if hint and hint in allowed:
            _fail(path, f"field {key!r} is missing its unit suffix; use {hint!r}")
        _fail(path, f"unknown field {key!r} (allowed: {', '.join(sorted(allowed))})")


def _is_number(value) -> bool:
    """A finite JSON number; Python's json also parses NaN and Infinity."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _number(obj: dict, key: str, path: str, default=None):
    if key not in obj:
        if default is not None:
            return default
        _fail(path, f"missing required field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{path}.{key}", f"expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        _fail(f"{path}.{key}", f"expected a finite number, got {value!r}")
    return float(value)


def _integer(obj: dict, key: str, path: str, default=None):
    if key not in obj:
        if default is not None:
            return default
        _fail(path, f"missing required field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{path}.{key}", f"expected an integer, got {value!r}")
    return value


def _amp_phase(entry, path: str):
    """A coupling given as amplitude_kHz or [amplitude_kHz, phase_rad]."""
    if _is_number(entry):
        return float(entry), 0.0
    if isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry)):
        return float(entry[0]), float(entry[1])
    _fail(path, f"expected amplitude_kHz or [amplitude_kHz, phase_rad], got {entry!r}")


def _parse_cluster(obj, path: str) -> TargetCluster:
    obj = _as_dict(obj, path)
    try:
        if "preset" not in obj:
            return _parse_custom_cluster(obj, path)
        preset = obj["preset"]
        if preset == "spin_one":
            _check_keys(obj, {"preset", "label", "f_a_MHz", "f_b_MHz", "lambda_kHz"}, path)
            cluster = spin_one_preset(
                _number(obj, "f_a_MHz", path),
                _number(obj, "f_b_MHz", path),
                _number(obj, "lambda_kHz", path),
            )
        elif preset == "ladder":
            _check_keys(obj, {"preset", "label", "rung_freqs_MHz", "rung_couplings_kHz"}, path)
            freqs = _as_list(obj.get("rung_freqs_MHz"), f"{path}.rung_freqs_MHz")
            coups = _as_list(obj.get("rung_couplings_kHz"), f"{path}.rung_couplings_kHz")
            cluster = ladder_preset(freqs, coups)
        elif preset == "ring":
            _check_keys(obj, {"preset", "label", "f_1_MHz", "f_2_MHz", "couplings_kHz"}, path)
            entries = [
                _amp_phase(c, f"{path}.couplings_kHz[{i}]")
                for i, c in enumerate(_as_list(obj.get("couplings_kHz"), f"{path}.couplings_kHz"))
            ]
            cluster = ring_preset(
                _number(obj, "f_1_MHz", path), _number(obj, "f_2_MHz", path), entries
            )
        elif preset == "star":
            _check_keys(obj, {"preset", "label", "freqs_MHz", "couplings_kHz"}, path)
            entries = [
                _amp_phase(c, f"{path}.couplings_kHz[{i}]")
                for i, c in enumerate(_as_list(obj.get("couplings_kHz"), f"{path}.couplings_kHz"))
            ]
            cluster = star_preset(_as_list(obj.get("freqs_MHz"), f"{path}.freqs_MHz"), entries)
        else:
            _fail(path, f"unknown preset {preset!r}")
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        _fail(path, str(exc))
    if "label" in obj:
        if not isinstance(obj["label"], str):
            _fail(f"{path}.label", "expected a string")
        cluster = dataclasses.replace(cluster, label=obj["label"])
    return cluster


def _parse_custom_cluster(obj: dict, path: str) -> TargetCluster:
    _check_keys(obj, {"label", "energies_MHz", "couplings"}, path)
    if "energies_MHz" not in obj:
        _fail(path, "cluster needs a 'preset' or an 'energies_MHz' list")
    energies = _as_list(obj["energies_MHz"], f"{path}.energies_MHz")
    for i, e in enumerate(energies):
        if not _is_number(e):
            _fail(f"{path}.energies_MHz[{i}]", f"expected a finite number, got {e!r}")
    entries = []
    for i, c in enumerate(_as_list(obj.get("couplings", []), f"{path}.couplings")):
        cpath = f"{path}.couplings[{i}]"
        c = _as_dict(c, cpath)
        _check_keys(c, {"m", "n", "amp_kHz", "phase_rad"}, cpath)
        entries.append(
            (
                _integer(c, "m", cpath),
                _integer(c, "n", cpath),
                TWO_PI * _number(c, "amp_kHz", cpath) / 1000.0,
                _number(c, "phase_rad", cpath, default=0.0),
            )
        )
    label = obj.get("label", "custom")
    if not isinstance(label, str):
        _fail(f"{path}.label", "expected a string")
    try:
        return new_cluster(label, TWO_PI * np.asarray(energies, dtype=float), entries)
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_block(obj, clusters, path: str) -> Block:
    obj = _as_dict(obj, path)
    try:
        if "tau_us" in obj:
            _check_keys(obj, {"tau_us", "n_pulses"}, path)
            return Block(_number(obj, "tau_us", path), _integer(obj, "n_pulses", path))
        if "cluster" in obj:
            _check_keys(obj, {"cluster", "m", "n", "order", "n_pulses"}, path)
            index = _integer(obj, "cluster", path)
            if not 0 <= index < len(clusters):
                _fail(f"{path}.cluster", f"no cluster {index} (have {len(clusters)})")
            spec = transition(
                clusters[index], _integer(obj, "m", path), _integer(obj, "n", path)
            )
            tau = resonant_tau(spec.omega, _integer(obj, "order", path, default=1))
            return Block(tau, _integer(obj, "n_pulses", path))
    except ScenarioError:
        raise
    except ValueError as exc:
        _fail(path, str(exc))
    _fail(path, "block needs either 'tau_us' or a 'cluster' resonance target")


def _parse_axis(obj, path: str):
    obj = _as_dict(obj, path)
    kind = obj.get("kind")
    try:
        if kind == "tau":
            _check_keys(obj, {"kind", "block", "lo_us", "hi_us", "steps"}, path)
            return TauAxis(
                _integer(obj, "block", path),
                _number(obj, "lo_us", path),
                _number(obj, "hi_us", path),
                _integer(obj, "steps", path),
            )
        if kind == "pulse":
            _check_keys(obj, {"kind", "block", "start", "stop", "step"}, path)
            return PulseAxis(
                _integer(obj, "block", path),
                _integer(obj, "start", path),
                _integer(obj, "stop", path),
                _integer(obj, "step", path, default=2),
            )
    except ScenarioError:
        raise
    except ValueError as exc:
        _fail(path, str(exc))
    _fail(f"{path}.kind", "axis kind must be 'tau' or 'pulse'")


def _parse_grid(obj, path: str) -> GridSpec:
    obj = _as_dict(obj, path)
    _check_keys(obj, {"engine", "axes"}, path)
    axes = [
        _parse_axis(a, f"{path}.axes[{i}]")
        for i, a in enumerate(_as_list(obj.get("axes"), f"{path}.axes"))
    ]
    engine = obj.get("engine", "exact")
    try:
        return GridSpec(tuple(axes), engine)
    except ValueError as exc:
        _fail(path, str(exc))


def _resolve_transition(clusters, entry, path: str, with_cluster: bool):
    entry = _as_list(entry, path)
    want = 3 if with_cluster else 2
    if len(entry) != want or not all(isinstance(x, int) for x in entry):
        shape = "[cluster, m, n]" if with_cluster else "[m, n]"
        _fail(path, f"expected {shape}, got {entry!r}")
    if with_cluster:
        index, m, n = entry
        if not 0 <= index < len(clusters):
            _fail(path, f"no cluster {index} (have {len(clusters)})")
        return index, m, n
    return entry


def _parse_analytic(obj, clusters, path: str) -> AnalyticModel:
    obj = _as_dict(obj, path)
    _check_keys(obj, {"topology", "cluster", "transitions"}, path)
    name = obj.get("topology")
    if name not in TOPOLOGIES:
        _fail(f"{path}.topology", f"unknown topology {name!r} (one of {', '.join(TOPOLOGIES)})")
    entries = _as_list(obj.get("transitions"), f"{path}.transitions")
    # separate molecules name [cluster, m, n]; otherwise one cluster holds all
    independent = name.endswith("-independent")
    try:
        if not independent:
            index = _integer(obj, "cluster", path)
            if not 0 <= index < len(clusters):
                _fail(f"{path}.cluster", f"no cluster {index} (have {len(clusters)})")
        dims, deltas = [], []
        for i, entry in enumerate(entries):
            tpath = f"{path}.transitions[{i}]"
            if independent:
                index, m, n = _resolve_transition(clusters, entry, tpath, with_cluster=True)
                dims.append(clusters[index].dim)
            else:
                m, n = _resolve_transition(clusters, entry, tpath, with_cluster=False)
            deltas.append(transition(clusters[index], m, n).delta)
        d = math.prod(dims) if independent else clusters[index].dim
        return AnalyticModel(Topology(name, tuple(dims)), tuple(deltas), d)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        _fail(path, str(exc))


def _parse_plan(obj, clusters, path: str) -> dict:
    obj = _as_dict(obj, path)
    _check_keys(
        obj,
        {"fidelity", "alpha0", "alpha1", "snr", "t_ir_us", "transitions", "delta_omega_kHz"},
        path,
    )
    try:
        if "fidelity" in obj:
            fidelity = _number(obj, "fidelity", path)
        elif "alpha0" in obj and "alpha1" in obj:
            fidelity = readout_fidelity(
                _number(obj, "alpha0", path), _number(obj, "alpha1", path)
            )
        else:
            _fail(path, "give 'fidelity' or both 'alpha0' and 'alpha1'")
        inputs = {
            "fidelity": fidelity,
            "snr": _number(obj, "snr", path),
            "t_ir_us": _number(obj, "t_ir_us", path, default=DEFAULT_T_IR_US),
        }
        if "transitions" in obj:
            entries = _as_list(obj["transitions"], f"{path}.transitions")
            deltas, omegas = [], []
            for i, entry in enumerate(entries):
                index, m, n = _resolve_transition(
                    clusters, entry, f"{path}.transitions[{i}]", with_cluster=True
                )
                spec = transition(clusters[index], m, n)
                deltas.append(spec.delta)
                omegas.append(spec.omega)
            inputs["deltas"] = deltas
            inputs["omegas"] = omegas
        elif "delta_omega_kHz" in obj:
            products = _as_list(obj["delta_omega_kHz"], f"{path}.delta_omega_kHz")
            inputs["delta_omegas"] = [
                TWO_PI * _amp_phase(x, f"{path}.delta_omega_kHz[{i}]")[0] / 1000.0
                for i, x in enumerate(products)
            ]
        else:
            _fail(path, "give 'transitions' or 'delta_omega_kHz'")
        return inputs
    except ScenarioError:
        raise
    except ValueError as exc:
        _fail(path, str(exc))


def scenario_from_dict(raw: dict, name: str = "scenario") -> Scenario:
    raw = _as_dict(raw, name)
    _check_keys(raw, {"clusters", "sequence", "grid", "analytic", "plan"}, name)
    if "clusters" not in raw or "sequence" not in raw:
        _fail(name, "scenario needs 'clusters' and 'sequence' sections")
    clusters = [
        _parse_cluster(c, f"{name}.clusters[{i}]")
        for i, c in enumerate(_as_list(raw["clusters"], f"{name}.clusters"))
    ]
    if not clusters:
        _fail(f"{name}.clusters", "need at least one cluster")
    blocks = [
        _parse_block(b, clusters, f"{name}.sequence[{i}]")
        for i, b in enumerate(_as_list(raw["sequence"], f"{name}.sequence"))
    ]
    try:
        sequence = SequenceSpec(tuple(blocks))
    except ValueError as exc:
        _fail(f"{name}.sequence", str(exc))
    grid = _parse_grid(raw["grid"], f"{name}.grid") if "grid" in raw else None
    analytic = (
        _parse_analytic(raw["analytic"], clusters, f"{name}.analytic")
        if "analytic" in raw
        else None
    )
    plan_inputs = (
        _parse_plan(raw["plan"], clusters, f"{name}.plan") if "plan" in raw else None
    )
    if grid is not None:
        for i, axis in enumerate(grid.axes):
            if axis.block >= len(blocks):
                _fail(f"{name}.grid.axes[{i}]", f"block {axis.block} not in the sequence")
    return Scenario(
        system=SystemModel(tuple(clusters)),
        sequence=sequence,
        grid=grid,
        analytic_model=analytic,
        plan_inputs=plan_inputs,
        source=copy.deepcopy(raw),
    )


def parse_scenario(path) -> Scenario:
    """Load and fully validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return scenario_from_dict(raw, name=str(path))


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _default_workers() -> int:
    raw = os.environ.get("DDCORR_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ScenarioError(f"{flag}: expected comma-separated numbers, got {text!r}")
    if not all(map(math.isfinite, values)):
        raise ScenarioError(f"{flag}: expected finite numbers, got {text!r}")
    return values


def _cmd_scan(args) -> int:
    scenario = parse_scenario(args.scenario)
    grid = scenario.grid
    if grid is None:
        raise ScenarioError(f"{args.scenario}: no 'grid' section to scan")
    if args.engine:
        grid = dataclasses.replace(grid, engine=args.engine)
    records = run_scan(
        scenario.system,
        scenario.sequence,
        grid,
        analytic_model=scenario.analytic_model,
        workers=args.workers,
    )
    if args.out:
        write_csv(records, args.out)
    if args.heatmap:
        write_heatmap(records, args.heatmap)
    best = min(records, key=lambda r: r.re_L)
    where = ", ".join(
        f"{label} = {_fmt(value)}" for label, value in zip(best.labels, best.coords)
    )
    print(f"{len(records)} points; min Re L = {_fmt(best.re_L)} at {where}")
    return 0


def _cmd_analytic(args) -> int:
    deltas = _parse_floats(args.delta, "--delta")
    pulses = _parse_floats(args.n, "--n")
    name = args.topology
    dims = ()
    if name.endswith("-independent"):
        if not args.dims:
            raise ScenarioError(f"{name} requires --dims")
        dims = tuple(int(x) for x in _parse_floats(args.dims, "--dims"))
    topology = Topology(name, dims)
    d = math.prod(dims) if dims else args.d
    if d is None:
        raise ScenarioError("--d is required for this topology")
    print(_fmt(AnalyticModel(topology, deltas, d).evaluate(pulses)))
    return 0


def _cmd_plan(args) -> int:
    inputs: dict = {}
    if args.scenario:
        scenario = parse_scenario(args.scenario)
        if scenario.plan_inputs is None:
            raise ScenarioError(f"{args.scenario}: no 'plan' section")
        inputs = dict(scenario.plan_inputs)
    if args.fidelity is not None:
        inputs["fidelity"] = args.fidelity
    elif args.alpha0 is not None and args.alpha1 is not None:
        inputs["fidelity"] = readout_fidelity(args.alpha0, args.alpha1)
    if args.snr is not None:
        inputs["snr"] = args.snr
    if args.t_ir_us is not None:
        inputs["t_ir_us"] = args.t_ir_us
    if args.delta_omega_khz:
        inputs["delta_omegas"] = [
            TWO_PI * x / 1000.0 for x in _parse_floats(args.delta_omega_khz, "--delta-omega-kHz")
        ]
        inputs.pop("deltas", None)
        inputs.pop("omegas", None)
    if args.deltas and args.freqs_mhz:
        inputs["deltas"] = _parse_floats(args.deltas, "--deltas")
        inputs["omegas"] = [TWO_PI * f for f in _parse_floats(args.freqs_mhz, "--freqs-MHz")]
    if "fidelity" not in inputs or "snr" not in inputs:
        raise ScenarioError("plan needs a readout fidelity (--F or --alpha0/--alpha1) and --snr")
    if "delta_omegas" not in inputs and "deltas" not in inputs:
        raise ScenarioError("plan needs --delta-omega-kHz, or --deltas with --freqs-MHz")
    report = plan(
        inputs["fidelity"],
        inputs["snr"],
        delta_omegas=inputs.get("delta_omegas"),
        deltas=inputs.get("deltas"),
        omegas=inputs.get("omegas"),
        t_ir_us=inputs.get("t_ir_us", DEFAULT_T_IR_US),
    )
    if args.json:
        print(json.dumps(report.to_json_dict()))
        return 0
    print(f"F       = {_fmt(report.fidelity)}")
    print(f"K       = {report.shots}")
    print(f"t_dip   = {_fmt(report.dip_time_us)} us")
    print(f"t_point = {_fmt(report.point_time_s)} s")
    if report.sweep_points is not None:
        print(f"sweep   = {report.sweep_points} points, {_fmt(report.sweep_time_s)} s")
    return 0


def _cmd_filter(args) -> int:
    scenario = parse_scenario(args.scenario)
    timeline = build_timeline(scenario.sequence)
    f_lo, f_hi = args.f_min_mhz, args.f_max_mhz
    if not 0 < f_lo < f_hi:
        raise ScenarioError(f"need 0 < f-min < f-max, got {f_lo}, {f_hi}")
    rows = []
    for f in np.linspace(f_lo, f_hi, args.steps):
        result = filter_numeric(timeline, TWO_PI * f)
        rows.append((f, result.magnitude, result.phase))
    if args.out:
        lines = ["# ddcorr-filter v1", "f_MHz,filter_F,filter_phase_rad"]
        lines += [f"{f:.17g},{mag:.17g},{phase:.17g}" for f, mag, phase in rows]
        with open(args.out, "wb") as fh:
            fh.write(("\n".join(lines) + "\n").encode("ascii"))
        print(f"wrote {len(rows)} points to {args.out}")
    else:
        for f, mag, phase in rows:
            print(f"{_fmt(f)} MHz: F = {_fmt(mag)}, phase = {_fmt(phase)}")
    return 0


def _cmd_lint(args) -> int:
    scenario = parse_scenario(args.scenario)
    findings = []
    for i, cluster in enumerate(scenario.system.clusters):
        findings += [f"cluster {i}: {w}" for w in validate_weak_coupling(cluster)]
    findings += lint_resonance_overlap(scenario.system.clusters, scenario.sequence)
    if findings:
        for line in findings:
            print(line)
    else:
        print("clean: no lint findings")
    return 0


def _cmd_validate(args) -> int:
    scenario = parse_scenario(args.scenario)
    dims = ", ".join(str(c.dim) for c in scenario.system.clusters)
    parts = [
        f"{len(scenario.system.clusters)} cluster(s) (d = {dims})",
        f"{len(scenario.sequence.blocks)} block(s)",
    ]
    if scenario.grid is not None:
        parts.append(f"grid {'x'.join(str(len(a)) for a in scenario.grid.axes)} [{scenario.grid.engine}]")
    if scenario.analytic_model is not None:
        parts.append("analytic model")
    if scenario.plan_inputs is not None:
        parts.append("plan inputs")
    print("OK: " + "; ".join(parts))
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ddcorr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("scan", help="run a grid scan from a scenario file")
    p.add_argument("scenario")
    p.add_argument("--out", help="write scan records as CSV")
    p.add_argument("--heatmap", help="write a 16-bit PGM heatmap (2-axis grids)")
    p.add_argument("--engine", choices=["exact", "analytic", "both"], help="override the scenario's engine")
    p.add_argument("--workers", type=int, default=_default_workers(), help="process count (default $DDCORR_WORKERS or 1)")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("analytic", help="evaluate one closed-form dip")
    p.add_argument("--topology", required=True, choices=TOPOLOGIES)
    p.add_argument("--d", type=int, help="Hilbert dimension")
    p.add_argument("--dims", help="per-molecule dimensions for independent topologies")
    p.add_argument("--delta", required=True, help="comma-separated contrasts")
    p.add_argument("--n", required=True, help="comma-separated pulse counts")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("plan", help="measurement time budget")
    p.add_argument("scenario", nargs="?", help="optional scenario with a 'plan' section")
    p.add_argument("--F", "--fidelity", dest="fidelity", type=float, help="readout fidelity")
    p.add_argument("--alpha0", type=float, help="photons per shot, sensor state 0")
    p.add_argument("--alpha1", type=float, help="photons per shot, sensor state 1")
    p.add_argument("--snr", type=float, help="target signal-to-noise ratio")
    p.add_argument("--delta-omega-kHz", dest="delta_omega_khz", help="delta*omega products, cyclic kHz")
    p.add_argument("--deltas", help="contrasts (enables the sweep estimate)")
    p.add_argument("--freqs-MHz", dest="freqs_mhz", help="transition frequencies, cyclic MHz")
    p.add_argument("--t-ir-us", dest="t_ir_us", type=float, help="init+readout overhead per shot")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("filter", help="filter-function profile of the scenario's sequence")
    p.add_argument("scenario")
    p.add_argument("--f-min-MHz", dest="f_min_mhz", type=float, required=True)
    p.add_argument("--f-max-MHz", dest="f_max_mhz", type=float, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--out", help="write the profile as CSV")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("lint", help="weak-coupling and resonance-overlap diagnostics")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("validate", help="parse and validate a scenario file")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_validate)
    return parser


def dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
