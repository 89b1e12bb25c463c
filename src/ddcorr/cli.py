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
import contextlib
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .analytic import TOPOLOGIES, AnalyticModel
from .planner import DEFAULT_T_IR_US, plan, readout_fidelity
from .scan import (
    ENGINES,
    GridSpec,
    PulseAxis,
    TauAxis,
    check_grid_size,
    run_scan,
    write_columns,
    write_csv,
    write_heatmap,
)
from .sequence import (
    Block,
    SequenceSpec,
    check_filter_phase,
    filter_multiblock,
    lint_resonance_overlap,
    resonant_tau,
)
from .spin_model import (
    TWO_PI,
    SystemModel,
    TargetCluster,
    as_int,
    check_bytes,
    ladder_preset,
    new_cluster,
    ring_preset,
    spin_one_preset,
    star_preset,
    transition,
    validate_weak_coupling,
)

# Unit suffixes the schema requires on frequency- and time-valued keys.
_UNITS = ("_MHz", "_kHz", "_us")
# Re L values this close to the scan minimum tie for the summary point.
_TIE_TOL = 1e-12
# Bytes a filter profile keeps per frequency step, of the 4 GiB it may use
# (spin_model.check_bytes): the frequency and its FilterResult, and with
# --out the three float columns that scan.write_columns encodes block by
# block.  Peak RSS rose by about 176 bytes a step printing 4e5-8e5 steps
# of the shipped ladder cell, and by about 209 writing them with --out
# (numpy 2.4, Python 3.11, x86-64).
_STEP_BYTES = 512


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate; message carries the field path."""


@dataclass(frozen=True)
class Scenario:
    """A fully resolved scenario."""

    system: SystemModel
    sequence: SequenceSpec
    grid: GridSpec | None
    analytic_model: AnalyticModel | None
    plan_inputs: dict | None


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


@contextlib.contextmanager
def _at(path: str, labels: dict | None = None):
    """Report a model constructor's ValueError, TypeError or OverflowError
    (an integer beyond float range) at a field path or flag.

    A refusal whose inputs (the arguments it names) have labels, flags or
    field paths, is reported at those labels joined with "/" instead.  A
    ScenarioError passes through: it already carries its path.
    """
    try:
        yield
    except ScenarioError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        labels = labels or {}
        where = dict.fromkeys(labels[key] for key in getattr(exc, "inputs", ()) if key in labels)
        _fail("/".join(where) or path, str(exc))


# Readers: each takes (value, path) and returns the checked value.


def _finite(value, path: str) -> float:
    # Python's json also parses NaN and Infinity
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # JSON integers have no size limit
        _fail(path, "expected a finite number, got an integer beyond float range")
    if not math.isfinite(number):
        _fail(path, f"expected a finite number, got {value!r}")
    return number


def _finite_or_null(value, path: str):
    return None if value is None else _finite(value, path)


def _int(value, path: str) -> int:
    try:
        return as_int(value, path)
    except ValueError:
        _fail(path, f"expected an integer, got {value!r}")


def _text(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, "expected a string")
    return value


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _array(value, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _each(reader):
    """Reader for an array whose entries each go through reader at path[i]."""
    return lambda value, path: [
        reader(entry, f"{path}[{i}]") for i, entry in enumerate(_array(value, path))
    ]


def _amp_phase(value, path: str) -> tuple[float, float]:
    """A coupling given as amplitude_kHz or [amplitude_kHz, phase_rad]."""
    if not isinstance(value, list):
        return _finite(value, path), 0.0
    if len(value) != 2:
        _fail(path, f"expected amplitude_kHz or [amplitude_kHz, phase_rad], got {value!r}")
    return _finite(value[0], path), _finite(value[1], path)


def _fields(obj, table: dict, path: str) -> list:
    """Read obj's fields by table, in table order.

    table maps each allowed key to a reader, or to (reader, default) for an
    optional key.
    """
    obj = _object(obj, path)
    for key in obj:
        if key in table:
            continue
        hint = next((key + unit for unit in _UNITS if key + unit in table), None)
        if hint:
            _fail(path, f"field {key!r} is missing its unit suffix; use {hint!r}")
        _fail(path, f"unknown field {key!r} (allowed: {', '.join(sorted(table))})")
    values = []
    for key, spec in table.items():
        reader = spec[0] if isinstance(spec, tuple) else spec
        if key in obj:
            values.append(reader(obj[key], f"{path}.{key}"))
        elif isinstance(spec, tuple):
            values.append(spec[1])
        else:
            _fail(path, f"missing required field {key!r}")
    return values


# preset name -> (constructor, its arguments in order)
_PRESETS = {
    "spin_one": (spin_one_preset, {"f_a_MHz": _finite, "f_b_MHz": _finite, "lambda_kHz": _finite}),
    "ladder": (
        ladder_preset,
        {"rung_freqs_MHz": _each(_finite), "rung_couplings_kHz": _each(_finite_or_null)},
    ),
    "ring": (
        ring_preset,
        {"f_1_MHz": _finite, "f_2_MHz": _finite, "couplings_kHz": _each(_amp_phase)},
    ),
    "star": (star_preset, {"freqs_MHz": _each(_finite), "couplings_kHz": _each(_amp_phase)}),
}


def _coupling(obj, path: str) -> tuple:
    m, n, amp, phase = _fields(
        obj, {"m": _int, "n": _int, "amp_kHz": _finite, "phase_rad": (_finite, 0.0)}, path
    )
    return m, n, TWO_PI * amp / 1000.0, phase


_CUSTOM_CLUSTER = {
    "label": (_text, "custom"),
    "energies_MHz": (_each(_finite), None),
    "couplings": (_each(_coupling), []),
}


def _parse_cluster(obj, path: str) -> TargetCluster:
    # numpy need not warn of a unit conversion that overflows: TargetCluster refuses its inf or NaN
    if "preset" not in _object(obj, path):
        label, energies, couplings = _fields(obj, _CUSTOM_CLUSTER, path)
        if energies is None:
            _fail(path, "cluster needs a 'preset' or an 'energies_MHz' list")
        with _at(path), np.errstate(over="ignore", invalid="ignore"):
            return new_cluster(label, TWO_PI * np.asarray(energies), couplings)
    preset = obj["preset"]
    if not isinstance(preset, str) or preset not in _PRESETS:
        _fail(path, f"unknown preset {preset!r}")
    make, table = _PRESETS[preset]
    _, label, *args = _fields(obj, {"preset": _text, "label": (_text, None), **table}, path)
    with _at(path), np.errstate(over="ignore", invalid="ignore"):
        cluster = make(*args)
    return cluster if label is None else dataclasses.replace(cluster, label=label)


def _cluster_at(clusters, index: int, path: str) -> TargetCluster:
    if not 0 <= index < len(clusters):
        _fail(path, f"no cluster {index} (have {len(clusters)})")
    return clusters[index]


def _transition(clusters, entry, path: str, cluster=None):
    """Resolve integers [m, n] on cluster, or [cluster, m, n] when cluster is None."""
    shape, size = ("[cluster, m, n]", 3) if cluster is None else ("[m, n]", 2)
    if len(entry) != size:
        _fail(path, f"expected {shape}, got {entry!r}")
    if cluster is None:
        cluster = _cluster_at(clusters, entry[0], path)
    with _at(path):
        return cluster, transition(cluster, *entry[-2:])


_TAU_BLOCK = {"tau_us": _finite, "n_pulses": _int}
_RESONANT_BLOCK = {"cluster": _int, "m": _int, "n": _int, "order": (_int, 1), "n_pulses": _int}


def _parse_block(obj, clusters, path: str) -> Block:
    if "tau_us" in _object(obj, path):
        tau, n_pulses = _fields(obj, _TAU_BLOCK, path)
    elif "cluster" in obj:
        index, m, n, order, n_pulses = _fields(obj, _RESONANT_BLOCK, path)
        cluster = _cluster_at(clusters, index, f"{path}.cluster")
        with _at(path):
            tau = resonant_tau(transition(cluster, m, n).omega, order)
    else:
        _fail(path, "block needs either 'tau_us' or a 'cluster' resonance target")
    with _at(path):
        return Block(tau, n_pulses)


# axis kind -> (constructor, its arguments in order)
_AXES = {
    "tau": (TauAxis, {"block": _int, "lo_us": _finite, "hi_us": _finite, "steps": _int}),
    "pulse": (
        PulseAxis,
        {"block": _int, "start": _int, "stop": _int, "step": (_int, PulseAxis.step)},
    ),
}


def _parse_axis(obj, path: str):
    kind = _object(obj, path).get("kind")
    if not isinstance(kind, str) or kind not in _AXES:
        _fail(f"{path}.kind", "axis kind must be 'tau' or 'pulse'")
    make, table = _AXES[kind]
    _, *args = _fields(obj, {"kind": _text, **table}, path)
    with _at(path):
        return make(*args)


def _parse_grid(obj, path: str) -> GridSpec:
    axes, engine = _fields(obj, {"axes": _each(_parse_axis), "engine": (_text, "exact")}, path)
    with _at(path):
        return GridSpec(tuple(axes), engine)


def _topology(value, path: str) -> str:
    # a JSON list or object is not hashable, so not a key to look up
    if not isinstance(value, str) or value not in TOPOLOGIES:
        _fail(path, f"unknown topology {value!r} (one of {', '.join(TOPOLOGIES)})")
    return value


_TRANSITIONS = _each(_each(_int))
_ANALYTIC = {"topology": _topology, "cluster": (_int, None), "transitions": _TRANSITIONS}


def _parse_analytic(obj, clusters, path: str) -> AnalyticModel:
    name, index, entries = _fields(obj, _ANALYTIC, path)
    cluster = None
    # separate molecules name [cluster, m, n]; otherwise one cluster holds all
    if TOPOLOGIES[name].independent:
        if index is not None:
            _fail(path, f"{name} takes no 'cluster': each transition names [cluster, m, n]")
    elif index is None:
        _fail(path, "missing required field 'cluster'")
    else:
        cluster = _cluster_at(clusters, index, f"{path}.cluster")
    resolved = [
        _transition(clusters, entry, f"{path}.transitions[{i}]", cluster)
        for i, entry in enumerate(entries)
    ]
    dims = (cluster.dim,) if cluster is not None else tuple(c.dim for c, _ in resolved)
    with _at(path):
        return AnalyticModel(name, tuple(t.delta for _, t in resolved), dims)


_PLAN = {
    "fidelity": (_finite, None),
    "alpha0": (_finite, None),
    "alpha1": (_finite, None),
    "snr": _finite,
    "t_ir_us": (_finite, DEFAULT_T_IR_US),
    "transitions": (_TRANSITIONS, None),
    "delta_omega_kHz": (_each(_finite), None),
}


def _parse_plan(obj, clusters, path: str) -> dict:
    fidelity, alpha0, alpha1, snr, t_ir_us, entries, products = _fields(obj, _PLAN, path)
    # the field path of each input, for a refusal that names it
    labels = {key: f"{path}.{key}" for key in ("fidelity", "snr", "t_ir_us")}
    if fidelity is None:
        if alpha0 is None or alpha1 is None:
            _fail(path, "give 'fidelity' or both 'alpha0' and 'alpha1'")
        with _at(path):
            fidelity = readout_fidelity(alpha0, alpha1)
        labels["fidelity"] = path
    elif alpha0 is not None or alpha1 is not None:
        _fail(path, "give 'fidelity' or 'alpha0' and 'alpha1', not both")
    inputs = {"fidelity": fidelity, "snr": snr, "t_ir_us": t_ir_us}
    if entries is not None and products is not None:
        _fail(path, "give 'transitions' or 'delta_omega_kHz', not both")
    if entries is not None:
        specs = [
            _transition(clusters, entry, f"{path}.transitions[{i}]")[1]
            for i, entry in enumerate(entries)
        ]
        inputs["deltas"] = [spec.delta for spec in specs]
        inputs["omegas"] = [spec.omega for spec in specs]
        labels["deltas"] = labels["omegas"] = f"{path}.transitions"
    elif products is not None:
        inputs["delta_omegas"] = [TWO_PI * x / 1000.0 for x in products]
        labels["delta_omegas"] = f"{path}.delta_omega_kHz"
    else:
        _fail(path, "give 'transitions' or 'delta_omega_kHz'")
    # the section alone must give a finite budget; the plan command checks
    # the flags that override it
    with _at(path, labels):
        plan(**inputs)
    return inputs


_SCENARIO = {
    "clusters": _each(_parse_cluster),
    "sequence": _array,
    "grid": (_parse_grid, None),
    "analytic": (_object, None),
    "plan": (_object, None),
}


def scenario_from_dict(raw: dict, name: str = "scenario") -> Scenario:
    clusters, blocks, grid, analytic, plan_section = _fields(raw, _SCENARIO, name)
    if not clusters:
        _fail(f"{name}.clusters", "need at least one cluster")
    blocks = [
        _parse_block(b, clusters, f"{name}.sequence[{i}]") for i, b in enumerate(blocks)
    ]
    with _at(f"{name}.sequence"):
        sequence = SequenceSpec(tuple(blocks))
    if analytic is not None:
        analytic = _parse_analytic(analytic, clusters, f"{name}.analytic")
    if plan_section is not None:
        plan_section = _parse_plan(plan_section, clusters, f"{name}.plan")
    system = SystemModel(tuple(clusters))
    if grid is not None:
        axes = {f"axes[{i}]": f"{name}.grid.axes[{i}]" for i in range(len(grid.axes))}
        with _at(f"{name}.grid", axes):
            check_grid_size(system, sequence, grid)
    return Scenario(
        system=system,
        sequence=sequence,
        grid=grid,
        analytic_model=analytic,
        plan_inputs=plan_section,
    )


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict, refusing a key given twice, which
    json.loads alone would read with its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def parse_scenario(path) -> Scenario:
    """Load and fully validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.loads(fh.read(), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    # not UTF-8, a duplicate key, an integer literal past the digit limit,
    # or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return scenario_from_dict(raw, name=str(path))


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _parse_numbers(text: str, flag: str, kind=float) -> list:
    """A flag's comma-separated finite numbers, each read by kind (float or int)."""
    try:
        values = [kind(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        noun = "numbers" if kind is float else "integers"
        raise ScenarioError(f"{flag}: expected comma-separated {noun}, got {text!r}")
    for x in values:
        _finite(x, flag)  # an int is kept whole, not rounded through float
    return values


def _cmd_scan(args) -> int:
    scenario = parse_scenario(args.scenario)
    grid = scenario.grid
    if grid is None:
        raise ScenarioError(f"{args.scenario}: no 'grid' section to scan")
    if args.engine:
        grid = dataclasses.replace(grid, engine=args.engine)
    if args.heatmap and len(grid.axes) != 2:
        raise ScenarioError(f"--heatmap: heatmap requires a 2-axis scan, got a {len(grid.axes)}-axis grid")
    with _at(f"{args.scenario}.grid"):
        result = run_scan(scenario.system, scenario.sequence, grid)
    if args.out:
        write_csv(result, args.out)
    if args.heatmap:
        write_heatmap(result, args.heatmap)
    # the first point in grid order that ties the minimum, so that a last-bit
    # change cannot move the summary between two mirror-symmetric minima
    re_L = result.L.real
    best = int(np.argmax(re_L <= re_L.min() + _TIE_TOL))
    where = ", ".join(f"{label} = {_fmt(v)}" for label, v in zip(result.labels, result.coords[best]))
    print(f"{len(result)} points; min Re L = {_fmt(result.L[best].real)} at {where}")
    return 0


def _cmd_analytic(args) -> int:
    deltas = _parse_numbers(args.delta, "--delta")
    pulses = _parse_numbers(args.n, "--n")
    name = args.topology
    if TOPOLOGIES[name].independent:
        if args.dims is None:
            raise ScenarioError(f"--dims is required for {name}")
        size, dims = "--dims", tuple(_parse_numbers(args.dims, "--dims", int))
        if args.d is not None and args.d != math.prod(dims):
            raise ScenarioError(f"--d: {args.d} is not the product of --dims {args.dims}")
    elif args.dims is not None:
        raise ScenarioError(f"--dims: {name} is one molecule; give its dimension with --d")
    elif args.d is None:
        raise ScenarioError("--d is required for this topology")
    else:
        size, dims = "--d", (args.d,)
        _finite(args.d, size)  # argparse's int takes integers beyond float range
    with _at("--topology", {"deltas": "--delta", "dims": size, "pulses": "--n"}):
        print(_fmt(AnalyticModel(name, deltas, dims).evaluate(pulses)))
    return 0


def _cmd_plan(args) -> int:
    inputs: dict = {}
    # the flag of each input a flag gave; the scenario's were checked at parse
    flags: dict = {}
    if args.scenario:
        scenario = parse_scenario(args.scenario)
        if scenario.plan_inputs is None:
            raise ScenarioError(f"{args.scenario}: no 'plan' section")
        inputs = dict(scenario.plan_inputs)
    if (args.alpha0 is None) != (args.alpha1 is None):
        raise ScenarioError("--alpha0 and --alpha1 must be given together")
    if args.fidelity is not None and args.alpha0 is not None:
        raise ScenarioError("give --F or --alpha0/--alpha1, not both")
    if args.fidelity is not None:
        inputs["fidelity"] = _finite(args.fidelity, "--F")
        flags["fidelity"] = "--F"
    elif args.alpha0 is not None:
        alphas = _finite(args.alpha0, "--alpha0"), _finite(args.alpha1, "--alpha1")
        with _at("--alpha0/--alpha1"):
            inputs["fidelity"] = readout_fidelity(*alphas)
        flags["fidelity"] = "--alpha0/--alpha1"
    if args.snr is not None:
        inputs["snr"] = _finite(args.snr, "--snr")
        flags["snr"] = "--snr"
    if args.t_ir_us is not None:
        inputs["t_ir_us"] = _finite(args.t_ir_us, "--t-ir-us")
        flags["t_ir_us"] = "--t-ir-us"
    if (args.deltas is None) != (args.freqs_mhz is None):
        raise ScenarioError("--deltas and --freqs-MHz must be given together")
    if args.delta_omega_khz is not None and args.deltas is not None:
        raise ScenarioError("give --delta-omega-kHz or --deltas/--freqs-MHz, not both")
    if args.delta_omega_khz is not None or args.deltas is not None:
        # target flags replace every target the scenario gave
        for key in ("delta_omegas", "deltas", "omegas"):
            inputs.pop(key, None)
    if args.delta_omega_khz is not None:
        inputs["delta_omegas"] = [
            TWO_PI * x / 1000.0 for x in _parse_numbers(args.delta_omega_khz, "--delta-omega-kHz")
        ]
        flags["delta_omegas"] = "--delta-omega-kHz"
    if args.deltas is not None:
        inputs["deltas"] = _parse_numbers(args.deltas, "--deltas")
        inputs["omegas"] = [TWO_PI * f for f in _parse_numbers(args.freqs_mhz, "--freqs-MHz")]
        flags.update(deltas="--deltas", omegas="--freqs-MHz")
    if "fidelity" not in inputs or "snr" not in inputs:
        raise ScenarioError("plan needs a readout fidelity (--F or --alpha0/--alpha1) and --snr")
    if "delta_omegas" not in inputs and "deltas" not in inputs:
        raise ScenarioError("plan needs --delta-omega-kHz, or --deltas with --freqs-MHz")
    # a refusal that names no flag's input is the scenario's; without one,
    # the flags gave every input
    where = f"{args.scenario}.plan" if args.scenario else "/".join(flags.values())
    with _at(where, flags):
        report = plan(**inputs)
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
    f_lo = _finite(args.f_min_mhz, "--f-min-MHz")
    f_hi = _finite(args.f_max_mhz, "--f-max-MHz")
    if not 0 < f_lo < f_hi:
        raise ScenarioError(f"--f-min-MHz/--f-max-MHz: need 0 < f-min < f-max, got {f_lo}, {f_hi}")
    with _at("--f-max-MHz"):
        check_filter_phase(scenario.sequence, f_hi, "a filter")
    if args.steps < 1:
        raise ScenarioError(f"--steps: expected an integer >= 1, got {args.steps}")
    with _at("--steps"):
        check_bytes(args.steps * _STEP_BYTES, f"{args.steps} steps need", "a filter profile")
    freqs = np.linspace(f_lo, f_hi, args.steps)
    results = [filter_multiblock(scenario.sequence, TWO_PI * f) for f in freqs]
    if args.out:
        header = ["f_MHz", "filter_F", "filter_phase_rad"]
        columns = [freqs, [r.magnitude for r in results], [r.phase for r in results]]
        write_columns(args.out, "filter", header, columns, freqs.shape)
        print(f"wrote {len(freqs)} points to {args.out}")
    else:
        for f, r in zip(freqs, results):
            print(f"{_fmt(f)} MHz: F = {_fmt(r.magnitude)}, phase = {_fmt(r.phase)}")
    return 0


def _cmd_lint(args) -> int:
    scenario = parse_scenario(args.scenario)
    findings = []
    for i, cluster in enumerate(scenario.system.clusters):
        findings += [f"cluster {i}: {w}" for w in validate_weak_coupling(cluster)]
    with _at(f"{args.scenario}.sequence"):
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
    p.add_argument("--out", help="write the scan as CSV")
    p.add_argument("--heatmap", help="write a 16-bit PGM heatmap (2-axis grids)")
    p.add_argument("--engine", choices=ENGINES, help="override the scenario's engine")
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
    p.add_argument("--deltas", help="contrasts, with --freqs-MHz (enables the sweep estimate)")
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
