"""Grid sweeps of sensor coherence over pulse intervals and pulse numbers.

A scan varies 1-3 axes of a base block sequence, evaluating each grid point
with the exact conditional-evolution engine, the analytic model, or both
side by side.  The analytic model is the second-order Magnus expansion of
every block over all couplings (analytic.magnus_coherence); its first-order
limit is the closed-form dips.  Both engines build the blocks of every
distinct (tau, N) of a block by one fold of its segments, squaring at a
cost of log N per count (exact.fold_blocks, which analytic.magnus_axis
shares), so both take tau and pulse axes on any block, whatever their
counts.  run_scan cuts the sequence at the block boundary that splits
the grid's axes into the fewest left plus right rows, composes each
distinct left and right part once, and contracts them into the whole grid
with one matrix product per cluster (exact.factor_coherence): a 2-axis
grid on two blocks costs N1 + N2 block products plus a GEMM instead of a
product chain at every point.  A scan is one ScanResult of columns in
lexicographic grid order.  check_grid_size rejects a grid too large to
scan in memory, from its point count and the cut's row count.

Output costs what a scan's distinct values cost: write_csv formats each
distinct column, and each distinct value within it, once and joins the
rows from the formatted columns, and iterating a ScanResult builds its
ScanRecord rows in C from columns converted to Python floats once.

Pulse-number axes default to steps of 2: the closed forms are derived for
even pulse counts, and an even grid tiles whole unit cells.  Grids normally
start at N = 0 so every scan carries the full-coherence anchor L = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, product, repeat
from typing import NamedTuple

import numpy as np

# magnus_coherence, coherence_system and build_timeline are unused here, but
# perfbench --trace 1 wraps them by name
from .analytic import _magnus_stacks, magnus_coherence  # noqa: F401
from .exact import block_stacks, coherence_system, factor_coherence  # noqa: F401
from .sequence import MAX_PULSES, SequenceSpec, build_timeline  # noqa: F401
from .spin_model import SystemModel

_ENGINES = ("exact", "analytic", "both")
_DIP_THRESHOLD = 0.9
# Verdict margin around the midpoint of the two quantized minima.
_AMBIGUOUS_BAND = 0.1
# Bytes a scan needs per grid point (coordinate and coherence columns, CSV
# cells and lines) and per composed row and unit of each cluster's d^2 (the
# complex d x d block stacks and branches of one left or right row of the
# cut); and the most a scan may need.  Per point, peak RSS of run_scan plus
# write_csv rose by 443-666 bytes on 447 x 447 pulse grids at d = 3
# (engines analytic, exact and both), of which write_csv's own peak is
# 315-521 (tracemalloc; its formatted cells, one string per distinct value,
# and the row strings of the join are alive at once).  Per row, at most
# ~330 was measured as peak RSS on d = 2..12, on tau axes and on pulse axes
# of step 2 and 16, whatever their largest count (block folds keep O(d^2)
# per count).  numpy 2.4, Python 3.11, x86-64.
_POINT_BYTES = 1024
_MATRIX_BYTES = 512
_MAX_SCAN_BYTES = 4 << 30


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
        if self.stop > MAX_PULSES:
            raise ValueError(f"pulse counts must be at most 2**53, got {self.stop}")

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


class ScanRecord(NamedTuple):
    """One grid point of a ScanResult: coordinates plus the coherence parts."""

    coords: tuple[float, ...]
    labels: tuple[str, ...]
    re_L: float
    im_L: float
    analytic_L: float | None = None


@dataclass(frozen=True, eq=False)
class ScanResult:
    """A scan as columns in lexicographic grid order; its rows are ScanRecords.

    shape holds the axis lengths, coords is (P, k) float, L (P,) complex and
    analytic_L (P,) float or None, all checked once, here: P >= 1 points
    fill shape, and every |L| <= 1.
    """

    labels: tuple[str, ...]
    shape: tuple[int, ...]
    coords: np.ndarray
    L: np.ndarray
    analytic_L: np.ndarray | None = None

    def __post_init__(self):
        points, k = len(self.coords), len(self.labels)
        if self.coords.shape != (points, k) or len(self.shape) != k:
            raise ValueError("need one label and one axis length per coordinate column")
        if points < 1 or min(self.shape) < 1 or math.prod(self.shape) != points:
            raise ValueError(f"{points} points do not fill a {self.shape} grid")
        for column in (self.L, self.analytic_L):
            if column is not None and column.shape != (points,):
                raise ValueError(f"L and analytic_L need {points} values each")
        # negated so that a NaN magnitude fails too
        if not np.all(self.L.real**2 + self.L.imag**2 <= 1 + 1e-9):
            raise ValueError("|L| > 1: not a physical coherence")

    def __len__(self) -> int:
        return len(self.L)

    def __getitem__(self, i: int) -> ScanRecord:
        L = complex(self.L[i])
        analytic = None if self.analytic_L is None else float(self.analytic_L[i])
        return ScanRecord(tuple(self.coords[i].tolist()), self.labels, L.real, L.imag, analytic)

    def __iter__(self):
        """The rows of __getitem__, in grid order.

        Returns a map iterator that builds each ScanRecord in C
        (tuple.__new__ over zipped columns), from columns converted to
        Python floats once with tolist(); each call starts a fresh one.
        """
        analytic = repeat(None) if self.analytic_L is None else self.analytic_L.tolist()
        columns = zip(
            map(tuple, self.coords.tolist()),
            repeat(self.labels),
            self.L.real.tolist(),
            self.L.imag.tolist(),
            analytic,
        )
        return map(partial(tuple.__new__, ScanRecord), columns)


def check_grid_size(system: SystemModel, grid: GridSpec) -> None:
    """Raise ValueError if scanning grid would need more than _MAX_SCAN_BYTES.

    The estimate charges every point _POINT_BYTES and every row that the
    cut composes _MATRIX_BYTES per unit of each cluster's d^2.  It reads
    only the axis lengths, their blocks and the cluster dimensions, so an
    oversize grid is rejected before any of its points is built.
    """
    points = math.prod(len(axis) for axis in grid.axes)
    _, rows = _cut(grid)
    need = points * _POINT_BYTES + rows * _MATRIX_BYTES * sum(c.dim**2 for c in system.clusters)
    if need > _MAX_SCAN_BYTES:
        raise ValueError(
            f"grid of {points} points needs about {need / 2**30:.3g} GiB, "
            f"over the {_MAX_SCAN_BYTES >> 30} GiB a scan may use"
        )


def run_scan(
    system: SystemModel,
    base_spec: SequenceSpec,
    grid: GridSpec,
    analytic_model=None,
    workers: int = 1,
) -> ScanResult:
    """Evaluate the grid and return its points in lexicographic axis order.

    With engine "exact" L is the simulated coherence; "analytic" puts the
    analytic value in both L (imaginary part 0) and analytic_L; "both" runs
    the simulator and attaches analytic_L for point-by-point comparison.
    analytic_L is Re (1/d) Tr[(V^-)^dagger V^+] from the second-order
    Magnus block generators of every cluster (the model of
    analytic.magnus_coherence), so |analytic_L| <= 1; every engine takes
    any grid.  analytic_model and workers are unused and kept for callers
    that pass them by keyword.  Grids that check_grid_size rejects raise
    ValueError before any point is built.

    Both engines go through exact.factor_coherence, cut at _cut: the axes on
    blocks before the cut vary its left rows, the others its right rows.
    """
    check_grid_size(system, grid)
    for axis in grid.axes:
        if axis.block >= len(base_spec.blocks):
            raise ValueError(f"axis block {axis.block} not in the base sequence")

    blocks = base_spec.blocks
    shape = tuple(map(len, grid.axes))
    cut, _ = _cut(grid)
    # grid axes of the left part (blocks before the cut), then of the right
    order = sorted(range(len(shape)), key=lambda k: grid.axes[k].block >= cut)
    left = _part(blocks[:cut], [a for a in grid.axes if a.block < cut], 0)
    right = _part(blocks[cut:], [a for a in grid.axes if a.block >= cut], cut)

    def coherence(block_stack):
        pairs = factor_coherence(system, left, right, block_stack)
        return pairs.reshape([shape[k] for k in order]).transpose(np.argsort(order)).ravel()

    analytic_L = None if grid.engine == "exact" else coherence(_magnus_stacks).real
    L = analytic_L.astype(complex) if grid.engine == "analytic" else coherence(block_stacks)
    labels = tuple(axis.label for axis in grid.axes)
    return ScanResult(labels, shape, _points(grid.axes), L, analytic_L)


def _points(axes) -> np.ndarray:
    """(P, k) float coordinates of the axes' grid in lexicographic order."""
    rows, k = math.prod(map(len, axes)), len(axes)
    values = chain.from_iterable(product(*(axis.values() for axis in axes)))
    return np.fromiter(values, float, count=rows * k).reshape(rows, k)


def _cut(grid: GridSpec) -> tuple[int, int]:
    """The block boundary c that leaves the fewest rows to compose, and
    that row count N_left + N_right.

    Axes on blocks before c vary the left part and the others the right
    part, which then have N_left and N_right distinct rows (one for a part
    without axes).  The count changes only where c passes an axis's block,
    so c = 0 and each axis block + 1 are the only candidates; ties go to
    the smaller c.
    """

    def rows(c):
        left = math.prod(len(a) for a in grid.axes if a.block < c)
        return left + math.prod(len(a) for a in grid.axes if a.block >= c)

    count, cut = min((rows(c), c) for c in {0, *(a.block + 1 for a in grid.axes)})
    return cut, count


def _part(blocks, axes, first: int) -> tuple[np.ndarray, np.ndarray]:
    """(taus, counts) of consecutive blocks, starting at block first, with
    one row per point of the axes' grid in lexicographic order."""
    values = _points(axes)
    taus = np.tile([b.tau for b in blocks], (len(values), 1))
    counts = np.tile([b.n_pulses for b in blocks], (len(values), 1))
    for k, axis in enumerate(axes):
        (taus if isinstance(axis, TauAxis) else counts)[:, axis.block - first] = values[:, k]
    return taus, counts


def find_dips(result: ScanResult, threshold: float = _DIP_THRESHOLD):
    """Strict local minima of Re L below threshold along a 1-axis scan.

    Returns (coordinate, value) pairs in axis order.
    """
    if len(result.shape) != 1:
        raise ValueError(f"find_dips needs a 1-axis scan, got {len(result.shape)} axes")
    values = result.L.real
    inner = values[1:-1]
    dips = np.flatnonzero((inner < values[:-2]) & (inner < values[2:]) & (inner < threshold)) + 1
    return [(float(result.coords[i, 0]), float(values[i])) for i in dips]


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


def write_csv(result: ScanResult, path) -> None:
    """Write a scan as `# ddcorr-scan v1` CSV, full precision, LF endings.

    Every cell is its float formatted with "%.17g".  Each distinct column,
    and each distinct value within a column, is formatted once: both are
    keyed on their float64 bits, so -0.0 and 0.0 stay apart.  A column's
    distinct values (np.unique) are formatted by one % operation and taken
    back to its rows by the inverse index, and the rows are joined from the
    formatted columns.  So under the analytic engine analytic_L reuses
    re_L's cells and im_L is one formatted +0.0.
    """
    extra = [] if result.analytic_L is None else [result.analytic_L]
    header = [*result.labels, "re_L", "im_L"] + ["analytic_L"] * len(extra)
    formatted = {}
    cells = []
    for column in (*result.coords.T, result.L.real, result.L.imag, *extra):
        bits = np.ascontiguousarray(column, dtype=float).view(np.uint64)
        key = bits.tobytes()
        if key not in formatted:
            distinct, inverse = np.unique(bits, return_inverse=True)
            text = ("%.17g\n" * len(distinct) % tuple(distinct.view(float).tolist())).split("\n")
            formatted[key] = np.array(text, dtype=object)[inverse].tolist()
        cells.append(formatted[key])
    rows = map(",".join, zip(*cells))
    data = "\n".join(chain(["# ddcorr-scan v1", ",".join(header)], rows, [""]))
    with open(path, "wb") as fh:
        fh.write(data.encode("ascii"))


def write_heatmap(result: ScanResult, path) -> None:
    """Render a 2-axis scan as 16-bit binary PGM, Re L in [-1, 1] -> [0, 65535].

    Columns run along axis 1 ascending, rows along axis 2 ascending.
    """
    if len(result.shape) != 2:
        raise ValueError("heatmap requires a 2-axis scan")
    n1, n2 = result.shape
    grid = result.L.real.reshape(n1, n2)
    pixels = np.rint((np.clip(grid, -1.0, 1.0) + 1.0) / 2.0 * 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n1} {n2}\n65535\n".encode("ascii"))
        # row-major raster over rows = axis 2: transpose the (axis1, axis2) grid
        fh.write(pixels.T.tobytes())
