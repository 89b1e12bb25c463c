"""Correctness checks on one scan's outputs, read back from disk.

Each check follows from the method or from the documented output format,
never from a copy of earlier output:

- the CSV has the documented header, one column per axis, one row per grid
  point in lexicographic axis order, and finite values with |L| <= 1;
- L = 1 wherever every block has zero pulses;
- a panel's minimum is the quantized minimum of its level topology;
- a tau x tau map has one dip region per pair of resonant spacings;
- on grid points sampled with the run's seed, the exact engine matches the
  expm oracle (oracle.py) and the second-order Magnus model lies within its
  own error of it;
- the PGM pixels are recomputed from the CSV's Re L column.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import ndimage

import oracle

# The exact engine diagonalizes once and takes matrix powers; the oracle
# multiplies one expm per segment.  Both are accurate to ~1e-13 here.
EXACT_TOL = 1e-9
# Acceptance criterion 2's tolerance on a panel's quantized minimum.
MINIMUM_TOL = 0.08
# The second-order Magnus model leaves an error that shrinks about linearly
# with the couplings over a unit cell (acceptance criterion 3 measures x2.2
# per halving on the max error).  Over every point of the halved and the
# full-coupling panels it is at most 0.27 times the largest contrast
# delta = |beta_mn| / omega_mn.  Allow half of delta.
MAGNUS_TOL_PER_DELTA = 0.5
# Re L below this marks a resonance dip on the tau map (acceptance
# criterion 8: the four dips reach <= 0.23, sidelobes stay >= 0.27).
DIP_THRESHOLD = 0.25
ORACLE_SAMPLES = 12

QUANTIZED_MINIMUM = {
    "correlated": lambda d: (d - 4) / d,
    "uncorrelated": lambda d: (d - 8) / d,
    "ring": lambda d: -1.0 / 3.0 if d == 3 else math.nan,
}


def axis_values(axis: dict) -> list[float]:
    if axis["kind"] == "pulse":
        return [float(n) for n in range(axis["start"], axis["stop"] + 1, axis.get("step", 2))]
    return [float(t) for t in np.linspace(axis["lo_us"], axis["hi_us"], axis["steps"])]


def axis_label(axis: dict) -> str:
    block = axis["block"] + 1
    return f"tau{block}_us" if axis["kind"] == "tau" else f"n{block}"


def base_blocks(raw: dict, clusters) -> list[tuple[float, int]]:
    """(tau_us, n_pulses) per block, resonant spacings from the energies."""
    blocks = []
    for block in raw["sequence"]:
        if "tau_us" in block:
            tau = float(block["tau_us"])
        else:
            energies = clusters[block["cluster"]][0]
            omega = energies[block["m"]] - energies[block["n"]]
            tau = oracle.resonant_tau(omega, block.get("order", 1))
        blocks.append((tau, int(block["n_pulses"])))
    return blocks


def largest_contrast(clusters) -> float:
    best = 0.0
    for energies, coupling in clusters:
        for m, n in itertools.combinations(range(len(energies)), 2):
            omega = abs(energies[m] - energies[n])
            if omega > 0 and abs(coupling[m, n]) > 0:
                best = max(best, abs(coupling[m, n]) / omega)
    return best


def read_csv(path):
    lines = path.read_text(encoding="ascii").split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end in a newline")
    return lines[0], lines[1].split(","), [line.split(",") for line in lines[2:-1]]


def pgm_bytes(values: np.ndarray) -> bytes:
    """P5 16-bit heatmap of an (n1, n2) grid, rows along the second axis."""
    n1, n2 = values.shape
    pixels = np.rint((np.clip(values, -1.0, 1.0) + 1.0) / 2.0 * 65535).astype(">u2")
    return f"P5\n{n1} {n2}\n65535\n".encode("ascii") + pixels.T.tobytes()


def check_scan(case, raw, clusters, csv_path, pgm_path, reported_min, rng) -> list[str]:
    """Failures (empty when all pass) for one scenario's CSV and PGM.

    raw is the scenario JSON, clusters its (energies, coupling) pairs as the
    program parsed them, reported_min the minimum Re L the scan printed.
    """
    axes = raw["grid"]["axes"]
    engine = raw["grid"].get("engine", "exact")
    header, columns, rows = read_csv(csv_path)
    want_columns = [axis_label(a) for a in axes] + ["re_L", "im_L"]
    if engine != "exact":
        want_columns.append("analytic_L")
    if header != "# ddcorr-scan v1" or columns != want_columns:
        return [f"CSV header {header!r} / columns {columns} (want {want_columns})"]
    grid = list(itertools.product(*(axis_values(a) for a in axes)))
    if len(rows) != len(grid) or any(len(r) != len(columns) for r in rows):
        return [f"CSV has {len(rows)} rows, want {len(grid)} of {len(columns)} cells"]
    table = np.array([[float(x) for x in row] for row in rows])
    failures = []
    if not np.array_equal(table[:, : len(axes)], np.array(grid)):
        failures.append("CSV coordinates are not the grid in lexicographic order")
    values = table[:, len(axes)] + 1j * table[:, len(axes) + 1]
    analytic = table[:, len(axes) + 2] if engine != "exact" else None
    if not np.all(np.isfinite(table)):
        failures.append("CSV holds non-finite values")
    if np.max(np.abs(values)) > 1 + 1e-9 or (
        analytic is not None and np.max(np.abs(analytic)) > 1 + 1e-9
    ):
        failures.append("|L| > 1 in the CSV")
    if float(values.real.min()) != reported_min:
        failures.append(f"printed minimum {reported_min} is not the CSV's {values.real.min()}")

    blocks = base_blocks(raw, clusters)
    counts = np.tile([n for _, n in blocks], (len(grid), 1))
    for j, axis in enumerate(axes):
        if axis["kind"] == "pulse":
            counts[:, axis["block"]] = table[:, j]
    zero = np.all(counts == 0, axis=1)
    if np.any(np.abs(values[zero] - 1) > 1e-12) or (
        analytic is not None and np.any(np.abs(analytic[zero] - 1) > 1e-12)
    ):
        failures.append("L != 1 at zero pulse counts")

    if case.minimum:
        want = QUANTIZED_MINIMUM[case.minimum](len(clusters[0][0]))
        lows = [("Re L", values.real.min())]
        if analytic is not None:
            lows.append(("analytic_L", analytic.min()))
        for name, low in lows:
            if not abs(low - want) <= MINIMUM_TOL:
                failures.append(f"min {name} = {low:.4f}, want {want:.4f} +- {MINIMUM_TOL}")

    if case.dips_MHz:
        failures += _check_dips(case.dips_MHz, axes, values.real)

    magnus_tol = MAGNUS_TOL_PER_DELTA * largest_contrast(clusters)
    for i in rng.choice(len(grid), size=min(ORACLE_SAMPLES, len(grid)), replace=False):
        point = list(blocks)
        for j, axis in enumerate(axes):
            tau, n = point[axis["block"]]
            point[axis["block"]] = (
                (table[i, j], n) if axis["kind"] == "tau" else (tau, int(table[i, j]))
            )
        ref = oracle.coherence(clusters, point)
        if engine != "analytic" and not oracle.agrees(values[i], ref, EXACT_TOL):
            failures.append(f"row {i}: L = {values[i]} but the oracle gives {ref}")
        if analytic is not None and not oracle.agrees(analytic[i], ref.real, magnus_tol):
            failures.append(
                f"row {i}: analytic_L = {analytic[i]} is not within {magnus_tol:.4g} "
                f"of the oracle's {ref.real}"
            )

    if len(axes) == 2:
        shape = (len(axis_values(axes[0])), len(axis_values(axes[1])))
        if pgm_path.read_bytes() != pgm_bytes(values.real.reshape(shape)):
            failures.append("PGM pixels differ from the ones recomputed from the CSV")
    return failures


def _check_dips(freqs_MHz, axes, re_values) -> list[str]:
    """One dip region per resonant (tau1, tau2) pair, each within a grid step."""
    taus = [np.array(axis_values(a)) for a in axes]
    grid = re_values.reshape(len(taus[0]), len(taus[1]))
    labels, count = ndimage.label(grid < DIP_THRESHOLD)
    centers = []
    for region in range(1, count + 1):
        masked = np.where(labels == region, grid, np.inf)
        i, j = np.unravel_index(np.argmin(masked), grid.shape)
        centers.append((taus[0][i], taus[1][j]))
    resonant = [oracle.resonant_tau(2 * math.pi * f) for f in freqs_MHz]
    steps = [t[1] - t[0] for t in taus]
    failures = [] if count == 4 else [f"{count} dip regions, want 4"]
    for target in itertools.product(resonant, repeat=2):
        near = [
            c for c in centers
            if all(abs(c[k] - target[k]) <= steps[k] + 1e-9 for k in range(2))
        ]
        if len(near) != 1:
            failures.append(f"{len(near)} dip regions within a step of tau = {target}")
    return failures
