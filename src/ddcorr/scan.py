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
scan in memory, from its point count, the cut's rows and blocks and,
under the Magnus engine, the level triples of its clusters, and one whose
axes reach a block that Block refuses.  It also rejects, under every
engine, a grid whose phase is beyond spin_model.PHASE_RANGE: the phase
at which float64 rounding would move a propagator by the stated tolerance
of 1e-4, so a scan that runs is right to that, far below the shot noise of
a measurement.  ddcorr filter and the closed-form dips hold their phases to
the same range.

write_columns, which writes both a scan's CSV (write_csv) and ddcorr
filter's profile, prints every cell as "%.17g" would, byte for byte,
without a % operation per value: a numpy encoder computes the 17
significant digits and the decimal exponent of a block of cells at once,
exactly (a double-double product with powers of ten from Python ints,
rounded half to even), and lays them out as NUL-padded bytes that one
bytes.translate compacts.  Non-finite cells, and the rare ones too close
to a rounding tie for that arithmetic to decide, take "%.17g" % itself.
Identical columns are encoded once, and a column that repeats one grid
axis only for that axis.  Iterating a ScanResult builds its ScanRecord
rows in C from columns converted to Python floats once.

Pulse-number axes default to steps of 2: the closed forms are derived for
even pulse counts, and an even grid tiles whole unit cells.  Grids normally
start at N = 0 so every scan carries the full-coherence anchor L = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

# magnus_coherence, coherence_system and build_timeline are unused here, but
# perfbench --trace 1 wraps them by name
from .analytic import TOPOLOGIES, magnus_coherence, magnus_stacks  # noqa: F401
from .exact import block_stacks, coherence_system, factor_coherence  # noqa: F401
from .sequence import MAX_PULSES, Block, SequenceSpec, build_timeline  # noqa: F401
from .spin_model import InputError, SystemModel, as_float, as_int, check_bytes, check_phase, format_g

ENGINES = ("exact", "analytic", "both")
# Verdict margin around the midpoint of the two quantized minima.
_AMBIGUOUS_BAND = 0.1
# Bytes a scan needs per grid point (coordinate and coherence columns, CSV
# cells and lines), per composed row and unit of each cluster's d^2 (the
# complex d x d block stacks and branches of one left or right row of the
# cut), per block of a composed row (its tau and count, and the checked
# counts and entry parities of compose_branches) and, under the Magnus
# engine, per (m, k, n) level triple of the largest cluster
# (analytic.magnus_axis's d x d x d within-segment terms of one tau, the
# same for every triple), of the 4 GiB a scan may use
# (spin_model.check_bytes).  Peak RSS of run_scan plus write_csv, in fresh
# processes: per point, 68-107 bytes on 447 x 447 and 1000 x 1000 pulse
# grids at d = 3 and 84-124 on 59^3 and 100^3 grids at d = 4 (engines
# exact, analytic and both).  Per row, at most ~330 on d = 2..12, on tau
# axes and on pulse axes of step 2 and 16, whatever their largest count
# (block folds keep O(d^2) per count).  Per block, 36-40 bytes on a
# 2001-count pulse axis over 100-800 blocks at d = 3.  Per triple, 97-122
# bytes (peak RSS of one tau's blocks, analytic.magnus_stacks) on ladders
# of 0.2 MHz and of 1e-7 MHz rungs (every triple in _nested_integral's
# Taylor series) at d = 60, 100, 150 and 200, and of near-degenerate groups
# of 4 and 20 levels at d = 100 and 200.  numpy 2.4, Python 3.11, x86-64.
_POINT_BYTES = 128
_MATRIX_BYTES = 512
_ENTRY_BYTES = 48
_TRIPLE_BYTES = 128


def _check_axis(axis, *integers) -> None:
    """Read the fields named in integers as ints (spin_model.as_int), in
    order, then raise ValueError if the axis's block index is negative."""
    for name in integers:
        object.__setattr__(axis, name, as_int(getattr(axis, name), name))
    if axis.block < 0:
        raise ValueError("block index must be >= 0")


@dataclass(frozen=True)
class TauAxis:
    """Sweep a block's pulse half-interval over [lo, hi] us, inclusive."""

    block: int
    lo: float
    hi: float
    steps: int

    def __post_init__(self):
        _check_axis(self, "block", "steps")
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

    def extreme_block(self, block: Block) -> Block:
        """block at this axis's largest tau, as Block checks it."""
        return Block(self.hi, block.n_pulses)


@dataclass(frozen=True)
class PulseAxis:
    """Sweep a block's pulse count start..stop inclusive, default step 2."""

    block: int
    start: int
    stop: int
    step: int = 2

    def __post_init__(self):
        _check_axis(self, "block", "start", "stop", "step")
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

    def extreme_block(self, block: Block) -> Block:
        """block at this axis's largest count, as Block checks it."""
        return Block(block.tau, self.stop - (self.stop - self.start) % self.step)


@dataclass(frozen=True)
class GridSpec:
    axes: tuple
    engine: str = "exact"

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if not 1 <= len(self.axes) <= 3:
            raise ValueError("grid needs 1-3 axes")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
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

    def __iter__(self):
        """The rows as ScanRecords, in grid order.

        Returns a map iterator that builds each ScanRecord in C
        (tuple.__new__ over zipped columns), from columns converted to
        Python floats once with tolist(), the coordinate tuples included;
        each call starts a fresh one.
        """
        analytic = repeat(None) if self.analytic_L is None else self.analytic_L.tolist()
        columns = zip(
            zip(*self.coords.T.tolist()),
            repeat(self.labels),
            self.L.real.tolist(),
            self.L.imag.tolist(),
            analytic,
        )
        return map(partial(tuple.__new__, ScanRecord), columns)


def check_grid_size(system: SystemModel, base_spec: SequenceSpec, grid: GridSpec) -> None:
    """Raise ValueError if scanning grid on base_spec would need over 4 GiB,
    or reach a block that Block or the phase range refuses.

    The estimate charges every point _POINT_BYTES, every row that the cut
    composes _MATRIX_BYTES per unit of each cluster's d^2, and every block
    of such a row _ENTRY_BYTES.  Engines analytic and both also hold, for
    one cluster and one tau at a time, _TRIPLE_BYTES per level triple of the
    largest cluster.  Every engine takes a grid whose phase is at most
    PHASE_RANGE: the clusters' largest |energy| plus largest |coupling|,
    summed, times the sequence's length (2 tau max(N, 1) summed over its
    blocks at the axes' largest values, and at least 1 us), plus 1 rad per
    level of every cluster per pulse (max(N, 1) a block), in Python floats
    that overflow to inf unwarned.  An axis on a missing or refused block
    raises an InputError naming it "axes[i]".  It reads no point of the
    grid, so such a grid is rejected before any of its points is built.
    """
    blocks = list(base_spec.blocks)
    for i, axis in enumerate(grid.axes):
        try:
            if axis.block >= len(blocks):
                raise ValueError(f"block {axis.block} not in the sequence")
            blocks[axis.block] = axis.extreme_block(blocks[axis.block])
        except ValueError as exc:
            raise InputError(str(exc), (f"axes[{i}]",)) from None
    cut, left, right = _cut(grid)
    points = left * right
    entries = left * cut + right * (len(base_spec.blocks) - cut)
    need = (
        points * _POINT_BYTES
        + (left + right) * _MATRIX_BYTES * sum(c.dim**2 for c in system.clusters)
        + entries * _ENTRY_BYTES
    )
    if grid.engine != "exact":
        need += _TRIPLE_BYTES * max(c.dim for c in system.clusters) ** 3
    try:
        count = str(points)
    except ValueError:  # more digits than int-to-str converts
        count = format_g(points)
    check_bytes(need, f"grid of {count} points needs", "a scan")
    rate = sum(float(abs(c.energies).max()) + float(abs(c.coupling).max()) for c in system.clusters)
    length = max(1.0, sum(2.0 * b.tau * max(b.n_pulses, 1) for b in blocks))
    levels = sum(c.dim for c in system.clusters) * sum(max(b.n_pulses, 1) for b in blocks)
    reach = f"|energy| + |coupling| {rate:.3g} rad/us over {length:.3g} us and 1 rad per level per pulse"
    check_phase(rate * length + levels, reach, "a scan")


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
    check_grid_size(system, base_spec, grid)

    blocks = base_spec.blocks
    shape = tuple(map(len, grid.axes))
    cut, _, _ = _cut(grid)
    # grid axes of the left part (blocks before the cut), then of the right
    order = sorted(range(len(shape)), key=lambda k: grid.axes[k].block >= cut)
    left = _part(blocks[:cut], [a for a in grid.axes if a.block < cut], 0)
    right = _part(blocks[cut:], [a for a in grid.axes if a.block >= cut], cut)

    def coherence(block_stack):
        pairs = factor_coherence(system, left, right, block_stack)
        return pairs.reshape([shape[k] for k in order]).transpose(np.argsort(order)).ravel()

    analytic_L = None if grid.engine == "exact" else coherence(magnus_stacks).real
    L = analytic_L.astype(complex) if grid.engine == "analytic" else coherence(block_stacks)
    labels = tuple(axis.label for axis in grid.axes)
    return ScanResult(labels, shape, _points(grid.axes), L, analytic_L)


def _points(axes) -> np.ndarray:
    """(P, k) float coordinates of the axes' grid in lexicographic order."""
    if not axes:
        return np.empty((1, 0))
    values = [np.array(axis.values(), float) for axis in axes]
    return np.stack(np.meshgrid(*values, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _cut(grid: GridSpec) -> tuple[int, int, int]:
    """The block boundary c that leaves the fewest rows to compose, and
    its row counts N_left and N_right.

    Axes on blocks before c vary the left part and the others the right
    part, which then have N_left and N_right distinct rows (one for a part
    without axes).  The count changes only where c passes an axis's block,
    so c = 0 and each axis block + 1 are the only candidates; ties go to
    the smaller c.
    """

    def rows(c):
        # __len__() counts in Python ints, where len() stops at sys.maxsize
        left = math.prod(a.__len__() for a in grid.axes if a.block < c)
        return left, math.prod(a.__len__() for a in grid.axes if a.block >= c)

    _, cut = min((sum(rows(c)), c) for c in {0, *(a.block + 1 for a in grid.axes)})
    return cut, *rows(cut)


def _part(blocks, axes, first: int) -> tuple[np.ndarray, np.ndarray]:
    """(taus, counts) of consecutive blocks, starting at block first, with
    one row per point of the axes' grid in lexicographic order."""
    values = _points(axes)
    taus = np.tile([b.tau for b in blocks], (len(values), 1))
    counts = np.tile([b.n_pulses for b in blocks], (len(values), 1))
    for k, axis in enumerate(axes):
        (taus if isinstance(axis, TauAxis) else counts)[:, axis.block - first] = values[:, k]
    return taus, counts


def classify_correlation(measured_min: float, d: int) -> str:
    """Judge whether a measured 2D dip minimum indicates a shared level.

    Compares against the midpoint of the 2d-correlated and 2d-uncorrelated
    minima, divided by d once from their Shape.floor; verdicts inside a
    +-0.1 band around it are "ambiguous".  Below the uncorrelated topology's
    least dimension that hypothesis does not exist, so a low minimum is
    ambiguous rather than uncorrelated.
    """
    if not math.isfinite(as_float(measured_min)):
        raise ValueError(f"measured_min must be finite, got {measured_min}")
    correlated, uncorrelated = TOPOLOGIES["2d-correlated"], TOPOLOGIES["2d-uncorrelated"]
    d = as_int(d, "d")
    if d < correlated.least:
        raise ValueError(f"need d >= {correlated.least}, got {d}")
    if as_float(d) == math.inf:
        raise ValueError(f"d must be finite, got {d}")
    midpoint = (correlated.floor(d) + uncorrelated.floor(d)) / 2 / d
    if abs(measured_min - midpoint) <= _AMBIGUOUS_BAND:
        return "ambiguous"
    if measured_min > midpoint:
        return "correlated"
    return "uncorrelated" if d >= uncorrelated.least else "ambiguous"


def write_csv(result: ScanResult, path) -> None:
    """Write a scan as `# ddcorr-scan v1` CSV (write_columns): one column
    per axis, then re_L, im_L and, when an analytic engine ran, analytic_L.

    Under the analytic engine analytic_L reuses re_L's cells, and re_L is
    the one column encoded cell by cell; every coordinate column of a grid
    of 2 or 3 axes, and a constant im_L, is encoded for one axis only.
    """
    extra = [] if result.analytic_L is None else [result.analytic_L]
    header = [*result.labels, "re_L", "im_L"] + ["analytic_L"] * len(extra)
    columns = [*result.coords.T, result.L.real, result.L.imag, *extra]
    write_columns(path, "scan", header, columns, result.shape)


def write_columns(path, kind: str, header, columns, shape) -> None:
    """Write float columns as `# ddcorr-<kind> v1` CSV: the header row, then
    one row per point of a grid of shape in lexicographic order, at full
    precision with LF endings.

    Every cell is its float formatted with "%.17g", byte for byte, but the
    digits come from numpy arithmetic on many cells at once (_encode_cells)
    instead of one % operation per value.  Each distinct column is encoded
    once, compared on its float64 bits (so -0.0 and 0.0 stay apart), and a
    column that varies along one grid axis only for that axis's values.
    Rows go out in blocks of _CSV_ROWS: a block's cells are NUL-padded
    uint32 lanes laid out row by row, with a comma in the spare first byte
    of every cell but a row's first, and one bytes.translate drops the NULs
    before it is written.
    """
    columns = [np.ascontiguousarray(c, dtype=float) for c in columns]
    points = math.prod(shape)
    if len(header) != len(columns) or any(c.shape != (points,) for c in columns):
        raise ValueError(f"need one header cell and {points} values per column")
    # source[c] is the first column with c's bits; the distinct ones either
    # repeat one line of a grid axis (lines, as (stride, length)) or vary
    source, lines, varying = [], {}, []
    for c, column in enumerate(columns):
        bits = column.view(np.uint64)
        same = (d for d in [*lines, *varying] if np.array_equal(bits, columns[d].view(np.uint64)))
        source.append(next(same, c))
        if source[c] == c:
            axis = _grid_axis(bits, shape)
            if axis is None:
                varying.append(c)
            else:
                lines[c] = (math.prod(shape[axis + 1 :]), shape[axis])
    values = [columns[c][: n * stride : stride] for c, (stride, n) in lines.items()]
    if values:
        cut = np.cumsum([len(v) for v in values])[:-1]
        split = np.split(_encode_blocks(np.concatenate(values)), cut, axis=1)
        lines = {c: (*lines[c], _nonzero_lanes(lanes)) for c, lanes in zip(lines, split)}
    step = _CSV_CELLS // max(1, len(varying))
    with open(path, "wb") as fh:
        fh.write(f"# ddcorr-{kind} v1\n{','.join(header)}\n".encode("ascii"))
        for first in range(0, points, step):
            end = min(first + step, points)
            if varying:
                x = np.concatenate([columns[c][first:end] for c in varying])
                encoded = _encode_cells(x).reshape(_LANES, len(varying), -1)
            for start in range(first, end, _CSV_ROWS):
                rows = np.arange(start, min(start + _CSV_ROWS, end))
                span = slice(start - first, start - first + len(rows))
                cells = {
                    c: lanes.take(rows // stride % n, axis=1)
                    for c, (stride, n, lanes) in lines.items()
                }
                for k, c in enumerate(varying):
                    cells[c] = _nonzero_lanes(encoded[:, k, span])
                newline = np.full((1, len(rows)), ord("\n"), np.uint32)
                parts = [cells[c] for c in source] + [newline]
                text = np.concatenate(parts)
                text[np.cumsum([len(part) for part in parts[:-2]], dtype=int)] |= ord(",")
                fh.write(text.T.tobytes().translate(None, b"\0"))


# Cells that write_columns encodes at once, and rows that it writes at once.
# Per-operation overhead favours large blocks, but most scratch arrays of
# a block must stay under the allocator's 128 KiB mmap threshold to be
# reused: larger ones fault in fresh pages every time, which cost about 2
# of the 3.5 ms that encoding one 11303-cell column took in one call.
_CSV_CELLS = 4096
_CSV_ROWS = 1024
# uint32 lanes of an encoded cell: a spare byte, the sign, "0." and zeros
# and the integer digits (5); the point and the fraction digits (5); and
# "e+XXX" (2).
_LANES = 12
# a digit remainder this close to 1/2 may be a rounding tie, which
# "%.17g" % decides
_TIE = 2.0**-30
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double in halves
# offset of the decimal exponents (-324..308) in the encoder's tables
_X0 = 330


def _grid_axis(bits, shape):
    """The first axis k, shorter than the grid, along which alone bits (a
    column in grid order) varies; else None."""
    grid = bits.reshape(shape)
    for k in range(len(shape)):
        line = grid[tuple(slice(None) if j == k else slice(0, 1) for j in range(len(shape)))]
        if shape[k] < len(bits) and (grid == line).all():
            return k
    return None


def _encode_blocks(x) -> np.ndarray:
    """_encode_cells of x, _CSV_CELLS cells at a time."""
    blocks = range(0, len(x), _CSV_CELLS)
    return np.concatenate([_encode_cells(x[b : b + _CSV_CELLS]) for b in blocks], axis=1)


def _nonzero_lanes(lanes):
    return lanes[lanes.any(axis=1)]


@cache
def _csv_tables():
    """The encoder's small tables, built once per process and read-only.

    digits4[k] and zeros4[k]: the uint32 lane of the 4 ASCII digits of
    k < 10**4 and the count of its trailing zero digits.  lead[d]: the first
    digit lane for leading digit d, with the point in the byte before it.
    Indexed by decimal exponent X + _X0: whole[.], the digits before the
    point (X + 1 in fixed point, none after "0.", one before "e"), and
    head[:, . + 2 _X0 s], the first two lanes for sign s (0 or 1) with "0."
    and its zeros.  The digit lanes hold digit j at byte j + 3;
    keep_whole[:, w] keeps digits j < w, and keep_frac[:, 18 w + k] digits
    w <= j < k and the point when w > 0 digits precede it and some follow.
    """
    d = np.arange(10)
    ascii4 = np.empty((10, 10, 10, 10, 4), np.uint8)
    for k in range(4):
        ascii4[..., k] = (d + ord("0")).reshape((10,) + (1,) * (3 - k))
    z = (d == 0).astype(np.uint8)
    zeros4 = z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))
    lead = ((d + ord("0")) << 24 | ord(".") << 16).astype(np.uint32)
    X = np.arange(-_X0, _X0)
    whole = np.where((X < -4) | (X > 16), 1, np.maximum(X + 1, 0))
    head = np.zeros((2, 2, 2 * _X0), np.uint32)
    zeros = b"".join((b"\0\0" + b"0.000"[: 6 - k]).ljust(8, b"\0") for k in range(1, 5))
    head[:, :, _X0 - 4 : _X0] = np.frombuffer(zeros, np.uint32).reshape(-1, 2).T
    head[1, 0] |= ord("-") << 8
    j = np.arange(20) - 3
    w = np.arange(18)[:, None, None]
    k = np.arange(18)[:, None]

    def lanes(mask):
        return (mask * np.uint8(255)).view(np.uint32).reshape(-1, 5).T

    tables = (
        ascii4.view(np.uint32).ravel(),
        zeros4.ravel(),
        lead,
        whole,
        head.transpose(1, 0, 2).reshape(2, -1),
        lanes((j >= 0) & (j < k)),
        lanes((j >= w) & (j < k) | (j == -1) & (k > w) & (w > 0)),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


@cache
def _power(X: int) -> tuple[float, ...]:
    """(up, down, hi, head, tail, lo) for decimal exponent X: up * down =
    2**e, and hi + lo equals 10**(16 - X) / 2**e to a relative 2**-105,
    with 1/2 < hi < 2.

    hi is the double nearest to the scaled power and head + tail its
    Veltkamp split into 26-bit halves, so that products with them are
    exact; lo is the double nearest to the remainder.  Python ints make
    every step exact, and neither up nor down leaves the normal range.
    """
    q = 16 - X
    num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
    e = num.bit_length() - den.bit_length()
    num, den = (num, den << e) if e >= 0 else (num << -e, den)
    hi = num / den
    n, d = hi.as_integer_ratio()
    lo = (num * d - n * den) / (den * d)
    c = _SPLIT * hi
    head = c - (c - hi)
    return 2.0 ** (e // 2), 2.0 ** (e - e // 2), hi, head, hi - head, lo


def _scaled(a, X):
    """a * 10**(16 - X) for positive finite a, as p + r.

    p is integer-valued from 2**53 on, and p + r is within 2**-45 of the
    exact product below 2**57.  The powers come from _power, memoised for
    the process.  A = a * 2**e is exact, and A * hi is exact as p plus
    Dekker's error term, so the error is that of A * lo and of the final
    sums.
    """
    low, high = int(X.min()), int(X.max())
    table = np.array([_power(k) for k in range(low, high + 1)]).T.copy()
    up, down, hi, head, tail, lo = (column.take(X - low) for column in table)
    A = a * up * down
    p = A * hi
    c = A * _SPLIT
    Ah = c - (c - A)
    Al = A - Ah
    err = ((Ah * head - p) + Ah * tail + Al * head) + Al * tail
    return p, err + A * lo


def _outside(p, r):
    """Where p + r is not in [1e16 - 0.04, 1e17): the exponent estimate missed."""
    return ((p - 1e16) + r < -0.04) | ((p - 1e17) + r >= 0)


def _encode_cells(x) -> np.ndarray:
    """The bytes of "%.17g" % v for every v in x, as (_LANES, len(x)) uint32
    lanes: cell i is lanes[:, i] read as bytes with the NULs dropped.  The
    first byte of every cell is a NUL left for write_columns' separator.

    For each finite nonzero |v|, X is the decimal exponent and D the 17
    significant digits, both after rounding: the scaled value y =
    |v| * 10**(16 - X) lies in [1e16, 1e17), and D is y rounded half to
    even.  X starts as floor(log10|v|); where y falls outside that decade
    (log10 rounded across a power of ten) X moves by one and y is scaled
    again.  y is computed to within 2**-45 (_scaled), so a remainder within
    _TIE of 1/2, or a second miss, could round either way: those cells, and
    NaN and infinities, take "%.17g" % itself.  A y within 0.04 below 1e16
    rounds up to 1e16 exactly as 10 y would round to 1e17, and a D of 1e17
    carries into the exponent, so neither decade boundary needs more.

    The layout is %g's: fixed point for -4 <= X < 17, with X + 1 integer
    digits (or "0." and -X - 1 zeros when X < 0), and else one digit, the
    point and "e" with a signed exponent of at least two digits; trailing
    zeros of the fraction go, and the point with them.  Zeros keep their
    sign ("-0").
    """
    digits4, zeros4, lead, whole_of, head, keep_whole, keep_frac = _csv_tables()
    neg = np.signbit(x)
    a = np.abs(x)
    fallback = ~np.isfinite(a)
    zero = a == 0
    a[fallback | zero] = 1.0
    X = np.floor(np.log10(a)).astype(np.int64)
    p, r = _scaled(a, X)
    # |r| < 64, so only these can be outside [1e16 - 0.04, 1e17)
    near = np.flatnonzero((p < 1e16 + 64) | (p > 1e17 - 64))
    miss = near[_outside(p[near], r[near])] if near.size else near
    if miss.size:
        X[miss] += np.where(p[miss] > 5e16, 1, -1)
        p[miss], r[miss] = _scaled(a[miss], X[miss])
        fallback[miss] |= _outside(p[miss], r[miss])
    t = r + 0.5
    rounded = np.floor(t)
    fallback |= np.abs(t - rounded - 0.5) > 0.5 - _TIE
    D = p.astype(np.int64) + rounded.astype(np.int64)
    if D.max() == 10**17:
        carry = D == 10**17
        D[carry] = 10**16
        X += carry

    # the leading digit and four lanes of four digits; zeros print "0"
    high = D // 10**8
    low = (D - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    first = high // 10**8
    upper = high // 10**4
    lower = low // 10**4
    quads = np.stack(
        [upper - first * 10**4, high - upper * 10**4, lower, low - lower * 10**4]
    )
    lanes = np.empty((5, len(x)), np.uint32)
    lanes[0] = lead.take(first - zero)
    digits4.take(quads, out=lanes[1:])
    tz = zeros4.take(quads)
    z = quads == 0
    trailing = tz[3] + z[3] * (tz[2] + z[2] * (tz[1] + z[1] * tz[0]))

    row = X + _X0
    whole = whole_of.take(row)
    out = np.empty((_LANES, len(x)), np.uint32)
    np.bitwise_and(lanes, keep_whole.take(whole, axis=1), out=out[:5])
    out[:2] |= head.take(row + 2 * _X0 * neg, axis=1)
    kept = np.maximum(17 - trailing, whole)
    np.bitwise_and(lanes, keep_frac.take(18 * whole + kept, axis=1), out=out[5:10])
    out[10:] = 0
    if X.min() < -4 or X.max() > 16:
        e = np.flatnonzero((X < -4) | (X > 16))
        Xe = X[e]
        text = b"".join((b"e%+03d" % k).ljust(8, b"\0") for k in range(Xe.min(), Xe.max() + 1))
        out[10:, e] = np.frombuffer(text, np.uint32).reshape(-1, 2)[Xe - Xe.min()].T
    odd = np.flatnonzero(fallback)
    if odd.size:
        text = ("\0%.17g\n" * odd.size % tuple(x[odd].tolist())).split("\n")[:-1]
        out[:, odd] = 0
        out[:7, odd] = np.array(text, dtype="S28").view(np.uint32).reshape(-1, 7).T
    return out


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
