"""Grid sweeps of sensor coherence over pulse intervals and pulse numbers.

A scan varies 1-3 axes of a base block sequence, evaluating each grid point
with the exact conditional-evolution engine, the analytic model, or both
side by side.  The analytic model is the second-order Magnus expansion of
every block over all couplings (analytic.magnus_coherence); its first-order
limit is the closed-form dips.  Exact points are independent work items and
may be evaluated by a process pool; results are always emitted in
lexicographic grid order, so output bytes do not depend on the worker count.

Pulse-number axes default to steps of 2: the closed forms are derived for
even pulse counts, and an even grid tiles whole unit cells.  Grids normally
start at N = 0 so every scan carries the full-coherence anchor L = 1.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .analytic import DipParams, Topology, dip_1d, dip_2d, dip_3d, magnus_coherence
from .exact import coherence_system
from .sequence import SequenceSpec, build_timeline
from .spin_model import SystemModel

_ENGINES = ("exact", "analytic", "both")
_DIP_THRESHOLD = 0.9
# Verdict margin around the midpoint of the two quantized minima.
_AMBIGUOUS_BAND = 0.1


@dataclass(frozen=True)
class TauAxis:
    """Sweep a block's pulse half-interval over [lo, hi] us, inclusive."""

    block: int
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        if self.block < 0:
            raise ValueError("block index must be >= 0")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.lo <= 0:
            raise ValueError("tau range must be positive")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")

    @property
    def label(self) -> str:
        return f"tau{self.block + 1}_us"

    def __len__(self) -> int:
        return self.steps

    def values(self) -> list[float]:
        return [float(v) for v in np.linspace(self.lo, self.hi, self.steps)]


@dataclass(frozen=True)
class PulseAxis:
    """Sweep a block's pulse count start..stop inclusive, default step 2."""

    block: int
    start: int
    stop: int
    step: int = 2

    def __post_init__(self):
        if self.block < 0:
            raise ValueError("block index must be >= 0")
        if self.start < 0 or self.step < 1:
            raise ValueError("need start >= 0 and step >= 1")
        if self.stop < self.start + self.step:
            raise ValueError("pulse axis must contain at least two points")

    @property
    def label(self) -> str:
        return f"n{self.block + 1}"

    def __len__(self) -> int:
        return (self.stop - self.start) // self.step + 1

    def values(self) -> list[int]:
        return list(range(self.start, self.stop + 1, self.step))


@dataclass(frozen=True)
class GridSpec:
    axes: tuple
    engine: str = "exact"

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if not 1 <= len(self.axes) <= 3:
            raise ValueError("grid needs 1-3 axes")
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {self.engine!r}")
        seen = set()
        for axis in self.axes:
            if not isinstance(axis, (TauAxis, PulseAxis)):
                raise ValueError(f"not an axis descriptor: {axis!r}")
            key = (type(axis), axis.block)
            if key in seen:
                raise ValueError(f"duplicate axis for block {axis.block}")
            seen.add(key)


@dataclass(frozen=True)
class ScanRecord:
    """One grid point: coordinates plus the complex coherence parts."""

    coords: tuple[float, ...]
    labels: tuple[str, ...]
    re_L: float
    im_L: float
    analytic_L: float | None = None

    def __post_init__(self):
        # negated so that a NaN magnitude fails too
        if not self.re_L**2 + self.im_L**2 <= 1 + 1e-9:
            raise ValueError("|L| > 1: not a physical coherence")


@dataclass(frozen=True)
class AnalyticModel:
    """Topology declaration binding closed-form dips to a scanned sequence.

    deltas[i] is the contrast of the transition targeted by block i; d is
    the cluster dimension (the joint dimension for separate molecules).
    evaluate() gives the first-order closed form; run_scan requires the
    model for its analytic engines but evaluates the second-order model.
    """

    topology: Topology
    deltas: tuple[float, ...]
    d: int

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(float(x) for x in self.deltas))
        if not isinstance(self.topology, Topology):
            raise ValueError(f"unrecognized topology {self.topology!r}")
        expect = self.topology.arity
        if len(self.deltas) != expect:
            raise ValueError(
                f"{expect} deltas required for this topology, got {len(self.deltas)}"
            )
        self.topology.check_dim(self.d)

    def evaluate(self, pulse_counts) -> float:
        counts = tuple(float(n) for n in pulse_counts)
        if len(counts) != len(self.deltas):
            raise ValueError("one pulse count per block required")
        if self.topology.arity == 1:
            return dip_1d(self.d, self.deltas[0], counts[0])
        dip = dip_2d if self.topology.arity == 2 else dip_3d
        return dip(self.topology, DipParams(self.d, self.deltas, counts))


def _apply_point(spec: SequenceSpec, axes, combo) -> SequenceSpec:
    for axis, value in zip(axes, combo):
        if isinstance(axis, TauAxis):
            spec = spec.with_block(axis.block, tau=value)
        else:
            spec = spec.with_block(axis.block, n_pulses=value)
    return spec


# Worker-process state, installed once per pool worker instead of shipping
# the model with every grid point.
_POOL: dict = {}


def _pool_init(system, spec, axes):
    _POOL["args"] = (system, spec, axes)


def _pool_eval(combo):
    system, spec, axes = _POOL["args"]
    timeline = build_timeline(_apply_point(spec, axes, combo))
    return coherence_system(system, timeline)


def run_scan(
    system: SystemModel,
    base_spec: SequenceSpec,
    grid: GridSpec,
    analytic_model: AnalyticModel | None = None,
    workers: int = 1,
) -> list[ScanRecord]:
    """Evaluate the grid and return records in lexicographic axis order.

    With engine "exact" the records carry Re/Im of the simulated coherence;
    "analytic" puts the analytic value in both re_L and analytic_L
    (im_L = 0); "both" runs the simulator and attaches analytic_L for
    point-by-point comparison.  analytic_L is Re (1/d) Tr[(V^-)^dagger V^+]
    from the second-order Magnus block generators of every cluster
    (analytic.magnus_coherence), so |analytic_L| <= 1; analytic_model
    declares the topology whose closed forms are that model's first-order
    limit, and pulse-count axes are the only ones it accepts.
    """
    for axis in grid.axes:
        if axis.block >= len(base_spec.blocks):
            raise ValueError(f"axis block {axis.block} not in the base sequence")
    needs_analytic = grid.engine in ("analytic", "both")
    if needs_analytic:
        if analytic_model is None:
            raise ValueError(f"engine {grid.engine!r} requires an analytic model")
        if len(analytic_model.deltas) != len(base_spec.blocks):
            raise ValueError("analytic model must declare one delta per block")
        if any(isinstance(a, TauAxis) for a in grid.axes):
            raise ValueError("closed-form dips are functions of pulse counts only")

    labels = tuple(axis.label for axis in grid.axes)
    combos = list(product(*(axis.values() for axis in grid.axes)))

    exact_vals: list[complex] | None = None
    if grid.engine in ("exact", "both"):
        if workers > 1:
            chunk = max(1, len(combos) // (workers * 8))
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_pool_init,
                initargs=(system, base_spec, grid.axes),
            ) as pool:
                exact_vals = list(pool.map(_pool_eval, combos, chunksize=chunk))
        else:
            _pool_init(system, base_spec, grid.axes)
            exact_vals = [_pool_eval(c) for c in combos]

    analytic_vals = None
    if needs_analytic:
        counts = np.tile([b.n_pulses for b in base_spec.blocks], (len(combos), 1))
        counts[:, [axis.block for axis in grid.axes]] = combos
        taus = [b.tau for b in base_spec.blocks]
        analytic_vals = magnus_coherence(system, taus, counts).real

    records = []
    for i, combo in enumerate(combos):
        analytic_val = None
        if analytic_vals is not None:
            analytic_val = float(analytic_vals[i])
        if exact_vals is not None:
            re, im = exact_vals[i].real, exact_vals[i].imag
        else:
            re, im = analytic_val, 0.0
        records.append(
            ScanRecord(tuple(float(v) for v in combo), labels, re, im, analytic_val)
        )
    return records


def find_dips(records, axis: int = 0, threshold: float = _DIP_THRESHOLD):
    """Strict local minima of Re L below threshold along a 1D record slice.

    Returns (coordinate, value) pairs using coordinate column `axis`.
    """
    values = [r.re_L for r in records]
    dips = []
    for i in range(1, len(values) - 1):
        if values[i] < values[i - 1] and values[i] < values[i + 1]:
            if values[i] < threshold:
                dips.append((records[i].coords[axis], values[i]))
    return dips


def classify_correlation(measured_min: float, d: int) -> str:
    """Judge whether a measured 2D dip minimum indicates a shared level.

    Compares against the quantized minima (d-4)/d (correlated) and (d-8)/d
    (uncorrelated); verdicts inside a +-0.1 band around their midpoint are
    "ambiguous".  At d = 3 the uncorrelated hypothesis does not exist, so a
    low minimum is ambiguous rather than uncorrelated.
    """
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    midpoint = (d - 6) / d
    if abs(measured_min - midpoint) <= _AMBIGUOUS_BAND:
        return "ambiguous"
    if measured_min > midpoint:
        return "correlated"
    return "uncorrelated" if d >= 4 else "ambiguous"


def _format(x: float) -> str:
    return f"{x:.17g}"


def write_csv(records, path) -> None:
    """Write records as `# ddcorr-scan v1` CSV, full precision, LF endings."""
    if not records:
        raise ValueError("no records to write")
    labels = records[0].labels
    with_analytic = records[0].analytic_L is not None
    columns = [*labels, "re_L", "im_L"] + (["analytic_L"] if with_analytic else [])
    lines = ["# ddcorr-scan v1", ",".join(columns)]
    for rec in records:
        if rec.labels != labels or (rec.analytic_L is not None) != with_analytic:
            raise ValueError("records are not a uniform scan")
        cells = [_format(v) for v in rec.coords] + [_format(rec.re_L), _format(rec.im_L)]
        if with_analytic:
            cells.append(_format(rec.analytic_L))
        lines.append(",".join(cells))
    data = "\n".join(lines) + "\n"
    with open(path, "wb") as fh:
        fh.write(data.encode("ascii"))


def write_heatmap(records, path) -> None:
    """Render a 2-axis scan as 16-bit binary PGM, Re L in [-1, 1] -> [0, 65535].

    Columns run along axis 1 ascending, rows along axis 2 ascending.
    """
    if not records or len(records[0].coords) != 2:
        raise ValueError("heatmap requires a 2-axis scan")
    n2 = len({r.coords[1] for r in records})
    n1, rem = divmod(len(records), n2)
    if rem or n1 * n2 != len(records):
        raise ValueError("records do not fill a full 2D grid")
    grid = np.array([r.re_L for r in records]).reshape(n1, n2)
    pixels = np.rint((np.clip(grid, -1.0, 1.0) + 1.0) / 2.0 * 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n1} {n2}\n65535\n".encode("ascii"))
        # row-major raster over rows = axis 2: transpose the (axis1, axis2) grid
        fh.write(pixels.T.tobytes())
