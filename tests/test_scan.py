"""Tests for grid scans, dip detection, and the on-disk formats."""

import dataclasses
import math
import os
import struct
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ddcorr import scan as scan_module
from ddcorr.analytic import AnalyticModel
from ddcorr.cli import parse_scenario
from ddcorr.scan import (
    ENGINES,
    GridSpec,
    PulseAxis,
    ScanRecord,
    ScanResult,
    TauAxis,
    check_grid_size,
    classify_correlation,
    run_scan,
    write_csv,
    write_heatmap,
)
from ddcorr.sequence import Block, SequenceSpec, resonant_tau
from ddcorr.spin_model import (
    InputError,
    SystemModel,
    ladder_preset,
    new_cluster,
    spin_one_preset,
    transition,
)

TWO_PI = 2.0 * np.pi
REPO = Path(__file__).resolve().parents[1]


def fig_two_transition_system():
    cluster = ladder_preset([0.20, 0.14, 0.30], [5.0, 5.04, None])
    d1 = transition(cluster, 1, 0).delta
    d2 = transition(cluster, 2, 1).delta
    spec = SequenceSpec(
        [
            Block(resonant_tau(TWO_PI * 0.20), 2),
            Block(resonant_tau(TWO_PI * 0.14), 2),
        ]
    )
    return SystemModel((cluster,)), spec, (d1, d2)


class TestAxes:
    def test_tau_axis_labels_and_values(self):
        axis = TauAxis(0, 1.0, 2.0, 5)
        assert axis.label == "tau1_us"
        np.testing.assert_allclose(
            axis.values(), [1.0, 1.25, 1.5, 1.75, 2.0]
        )

    def test_tau_axis_validation(self):
        with pytest.raises(ValueError):
            TauAxis(0, 2.0, 1.0, 5)
        with pytest.raises(ValueError):
            TauAxis(0, 0.0, 1.0, 5)
        with pytest.raises(ValueError):
            TauAxis(0, 1.0, 2.0, 1)
        with pytest.raises(ValueError):
            TauAxis(-1, 1.0, 2.0, 5)

    def test_pulse_axis_labels_and_values(self):
        axis = PulseAxis(1, 0, 8, 2)
        assert axis.label == "n2"
        assert axis.values() == [0, 2, 4, 6, 8]

    def test_pulse_axis_default_step(self):
        assert PulseAxis(0, 0, 6).values() == [0, 2, 4, 6]

    @pytest.mark.parametrize(
        "axis",
        [TauAxis(0, 1.0, 2.0, 5), PulseAxis(0, 0, 8), PulseAxis(0, 1, 10, 3)],
    )
    def test_point_count_matches_values(self, axis):
        assert len(axis) == len(axis.values())

    def test_pulse_axis_validation(self):
        with pytest.raises(ValueError):
            PulseAxis(0, -2, 8)
        with pytest.raises(ValueError):
            PulseAxis(0, 0, 8, 0)
        with pytest.raises(ValueError):
            PulseAxis(0, 4, 4)

    def test_pulse_axis_counts_stop_at_2_pow_53(self):
        assert len(PulseAxis(0, 0, 2**53, 2**52)) == 3
        absurd = [(0, 2**53 + 2, 2**52 + 1), (0, 10**30, 10**30), (2**60, 2**61, 2)]
        for start, stop, step in absurd:
            message = rf"^pulse counts must be at most 2\*\*53, got {stop}$"
            with pytest.raises(ValueError, match=message):
                PulseAxis(0, start, stop, step)


class TestGridSpec:
    def test_engine_whitelist(self):
        with pytest.raises(ValueError):
            GridSpec((PulseAxis(0, 0, 8),), engine="magic")

    def test_axis_count_bounds(self):
        with pytest.raises(ValueError):
            GridSpec(())
        with pytest.raises(ValueError):
            GridSpec(tuple(PulseAxis(b, 0, 8) for b in range(4)))

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError):
            GridSpec((PulseAxis(0, 0, 8), PulseAxis(0, 0, 4)))

    def test_mixed_axis_types_on_one_block_allowed(self):
        grid = GridSpec((TauAxis(0, 1.0, 2.0, 3), PulseAxis(0, 0, 8)))
        assert len(grid.axes) == 2


def scan_result(labels, shape, coords, L, analytic_L=None):
    """A ScanResult from lists: float coordinates, complex L, float analytic_L."""
    coords, L = np.array(coords, dtype=float), np.array(L, dtype=complex)
    analytic_L = None if analytic_L is None else np.array(analytic_L, dtype=float)
    return ScanResult(labels, shape, coords, L, analytic_L)


def scan_1d(values):
    """A 1-axis ScanResult with coordinates 0, 1, 2, ... and the given L."""
    return scan_result(("n1",), (len(values),), [[i] for i in range(len(values))], values)


class TestScanResult:
    def test_rejects_unphysical_magnitude(self):
        with pytest.raises(ValueError, match=r"\|L\| > 1"):
            scan_1d([1.0, 1.2 + 0.3j, 0.5])

    @pytest.mark.parametrize("re_L,im_L", [(np.nan, 0.0), (0.5, np.nan)])
    def test_rejects_nan(self, re_L, im_L):
        with pytest.raises(ValueError, match=r"\|L\| > 1"):
            scan_1d([1.0, complex(re_L, im_L)])

    @pytest.mark.parametrize(
        "labels,shape,coords,L,analytic_L",
        [
            (("n1",), (0,), np.empty((0, 1)), [], None),
            (("n1", "n2"), (2,), [[0.0], [2.0]], [1.0, 0.5], None),
            (("n1",), (2, 1), [[0.0], [2.0]], [1.0, 0.5], None),
            (("n1",), (2,), [0.0, 2.0], [1.0, 0.5], None),
            (("n1",), (3,), [[0.0], [2.0]], [1.0, 0.5], None),
            (("n1", "n2"), (-1, -2), [[0.0, 0.0], [0.0, 2.0]], [1.0, 0.5], None),
            (("n1",), (2,), [[0.0], [2.0]], [1.0], None),
            (("n1",), (2,), [[0.0], [2.0]], [[1.0], [0.5]], None),
            (("n1",), (2,), [[0.0], [2.0]], [1.0, 0.5], [1.0]),
        ],
        ids=[
            "empty",
            "labels",
            "shape-rank",
            "flat-coords",
            "point-count",
            "negative-length",
            "short-L",
            "2d-L",
            "short-analytic",
        ],
    )
    def test_rejects_inconsistent_columns(self, labels, shape, coords, L, analytic_L):
        with pytest.raises(ValueError):
            scan_result(labels, shape, coords, L, analytic_L)


class TestAnalyticModel:
    def test_1d_dispatch(self):
        model = AnalyticModel("1d", (0.025,), (3,))
        assert model.evaluate((20,)) == pytest.approx((1 + 2 * np.cos(1.0)) / 3)

    def test_delta_count_must_match_topology(self):
        with pytest.raises(ValueError):
            AnalyticModel("1d", (0.025, 0.036), (3,))
        with pytest.raises(ValueError):
            AnalyticModel("2d-correlated", (0.025,), (3,))

    def test_dimension_must_host_topology(self):
        with pytest.raises(ValueError, match="needs dimension >= 4, got 3"):
            AnalyticModel("2d-uncorrelated", (0.025, 0.036), (3,))

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            AnalyticModel("2d", (0.025, 0.036), (3,))


class TestRunScan:
    def test_lexicographic_order(self):
        system, spec, deltas = fig_two_transition_system()
        model = AnalyticModel("2d-correlated", deltas, (4,))
        grid = GridSpec(
            (PulseAxis(0, 0, 4, 2), PulseAxis(1, 0, 2, 2)),
            engine="analytic",
        )
        records = run_scan(system, spec, grid, analytic_model=model)
        assert [r.coords for r in records] == [
            (0.0, 0.0),
            (0.0, 2.0),
            (2.0, 0.0),
            (2.0, 2.0),
            (4.0, 0.0),
            (4.0, 2.0),
        ]
        assert next(iter(records)).labels == ("n1", "n2")

    def test_analytic_engine_fills_both_fields(self):
        system, spec, deltas = fig_two_transition_system()
        model = AnalyticModel("2d-correlated", deltas, (4,))
        grid = GridSpec(
            (PulseAxis(0, 0, 8, 2), PulseAxis(1, 0, 8, 2)),
            engine="analytic",
        )
        records = run_scan(system, spec, grid, analytic_model=model)
        for rec in records:
            assert rec.im_L == 0.0
            assert rec.analytic_L == rec.re_L

    def test_both_engine_attaches_analytic(self):
        system, spec, deltas = fig_two_transition_system()
        model = AnalyticModel("2d-correlated", deltas, (4,))
        grid = GridSpec(
            (PulseAxis(0, 0, 8, 2), PulseAxis(1, 0, 8, 2)), engine="both"
        )
        records = run_scan(system, spec, grid, analytic_model=model)
        for rec in records:
            assert rec.analytic_L is not None
            assert abs(rec.re_L - rec.analytic_L) < 0.05

    def test_ring_sandwich_reaches_its_minimum_under_the_analytic_engine(self):
        # four blocks, two of them scanned: the ring's quantized minimum -1/3
        scenario = parse_scenario(REPO / "scenarios" / "ring-sandwich-slice.json")
        grid = dataclasses.replace(scenario.grid, engine="analytic")
        result = run_scan(scenario.system, scenario.sequence, grid)
        assert result.L.real.min() == pytest.approx(-1.0 / 3.0, abs=0.01)

    def test_axis_block_must_exist(self):
        system, spec, _ = fig_two_transition_system()
        grid = GridSpec((PulseAxis(2, 0, 8, 2),))
        with pytest.raises(ValueError):
            run_scan(system, spec, grid)

    def test_oversize_grid_rejected_before_it_is_built(self, monkeypatch):
        system, spec, _ = fig_two_transition_system()
        grid = GridSpec((PulseAxis(0, 0, 2_000_000_000), PulseAxis(1, 0, 88)))

        def build(*axes):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(scan_module, "_points", build)
        with pytest.raises(ValueError, match="grid of 45000000045 points needs about"):
            run_scan(system, spec, grid)

    def test_grid_size_limit(self):
        # one d = 4 cluster on two blocks: 128 bytes a point, 512 * 16 a
        # composed row and 48 a block of such a row; a 1-axis grid cuts at 0,
        # so its rows are its points, of two blocks each, plus the one empty
        # left part, and 4 GiB holds (4 GiB - 8192) // 8416 points
        system, spec, _ = fig_two_transition_system()
        fits = (4 * 2**30 - 8192) // 8416
        check_grid_size(system, spec, GridSpec((PulseAxis(0, 0, fits - 1, 1),)))
        with pytest.raises(ValueError, match=f"grid of {fits + 1} points"):
            check_grid_size(system, spec, GridSpec((PulseAxis(0, 0, fits, 1),)))
        # two clusters, two axes on two blocks: 1000 + 1000 rows for 10^6
        # points fit, 6000 + 6000 rows for 3.6 * 10^7 points do not
        pair = SystemModel(system.clusters * 2)
        check_grid_size(
            pair, spec, GridSpec((PulseAxis(0, 0, 999, 1), PulseAxis(1, 0, 999, 1)))
        )
        with pytest.raises(ValueError, match="grid of 36000000 points needs about 4.48 GiB"):
            check_grid_size(
                pair, spec, GridSpec((PulseAxis(0, 0, 5999, 1), PulseAxis(1, 0, 5999, 1)))
            )

    def test_grid_size_charges_the_magnus_working_set(self):
        # the analytic engine also holds 128 bytes per level triple of one
        # cluster at one tau: a 3-point pulse axis on one block of a d-level
        # cluster needs 3 * 128 + 4 * 512 * d^2 + 3 * 48 + 128 * d^3, which
        # fits 4 GiB up to d = 317, however long a tau axis is
        spec = SequenceSpec([Block(1.25, 2)])
        pulses = GridSpec((PulseAxis(0, 0, 4),))
        for d, fits in ((317, True), (318, False)):
            system = SystemModel((ladder_preset([0.2] * (d - 1), [5.0] * (d - 1)),))
            need = 3 * 128 + 4 * 512 * d**2 + 3 * 48 + 128 * d**3
            assert fits == (need <= 4 * 2**30)
            check_grid_size(system, spec, pulses)
            for engine in ("analytic", "both"):
                grid = dataclasses.replace(pulses, engine=engine)
                if fits:
                    check_grid_size(system, spec, grid)
                else:
                    with pytest.raises(ValueError, match=f"needs about {need / 2**30:.3g} GiB"):
                        check_grid_size(system, spec, grid)
        system = SystemModel((ladder_preset([0.2] * 29, [5.0] * 29),))
        check_grid_size(system, spec, GridSpec((TauAxis(0, 1.0, 2.0, 5000),), "analytic"))
        # 150 levels 0.03 rad/us apart, every gap under the nested integral's
        # series threshold at tau = 0.002: the same charge as a generic cluster
        system = SystemModel((new_cluster("g", 0.03 * np.arange(150), [(1, 0, 0.02, 0.0)]),))
        spec = SequenceSpec([Block(0.5, 2), Block(0.5, 2)])
        check_grid_size(system, spec, GridSpec((TauAxis(1, 0.002, 1.0, 3),), "analytic"))

    def test_grid_size_refuses_blocks_beyond_their_range(self):
        # every block at its axes' largest tau and count must pass Block's
        # checks, refused as an InputError naming the axis, and every engine
        # takes at most 1e150 rad of a cluster's (|energy| + |coupling|) x
        # max(2 tau max(N, 1), 1 us)
        system = SystemModel((spin_one_preset(0.2, 0.14, 5.0),))
        # |energy| 1.26 + |coupling| 0.0222 rad/us
        spec = SequenceSpec([Block(1.25, 2)])
        grid = GridSpec((TauAxis(0, 1.0, 1e306, 3), PulseAxis(0, 0, 100)))
        with pytest.raises(InputError, match=r"finite, got tau = 1e\+306, n = 100$") as refused:
            check_grid_size(system, spec, grid)
        assert refused.value.inputs == ("axes[1]",)
        with pytest.raises(InputError, match="^block 1 not in the sequence$") as refused:
            check_grid_size(system, spec, GridSpec((PulseAxis(1, 0, 4),)))
        assert refused.value.inputs == ("axes[0]",)
        # at hi = 2e149 the coupling alone reaches 1.8e148 rad, and with the
        # energies 1.02e150
        for hi, fits in ((1e149, True), (2e149, False)):
            for engine in ENGINES:
                grid = GridSpec((TauAxis(0, 1.0, hi, 3),), engine)
                if fits:
                    check_grid_size(system, spec, grid)
                else:
                    with pytest.raises(ValueError, match=r"1e\+150 rad a scan takes$"):
                        check_grid_size(system, spec, grid)

    def test_grid_size_charges_every_block_of_a_row(self):
        # 4001 rows of 30000 blocks: 48 bytes a block makes 5.4 GiB, where
        # the points and rows alone need 0.04 GiB
        system = SystemModel((spin_one_preset(0.2, 0.14, 5.0),))
        grid = GridSpec((PulseAxis(0, 0, 8000),))
        check_grid_size(system, SequenceSpec([Block(1.25, 2)] * 2), grid)
        with pytest.raises(ValueError, match="grid of 4001 points needs about 5.38 GiB"):
            check_grid_size(system, SequenceSpec([Block(1.25, 2)] * 30000), grid)

    def test_worker_count_does_not_change_results(self):
        cluster = spin_one_preset(0.20, 0.14, 5.0 * np.sqrt(2.0))
        system = SystemModel((cluster,))
        spec = SequenceSpec([Block(resonant_tau(TWO_PI * 0.20), 2)])
        grid = GridSpec((PulseAxis(0, 0, 20, 2),))
        serial = run_scan(system, spec, grid, workers=1)
        pooled = run_scan(system, spec, grid, workers=2)
        assert [r.coords for r in serial] == [r.coords for r in pooled]
        assert [r.re_L for r in serial] == [r.re_L for r in pooled]
        assert [r.im_L for r in serial] == [r.im_L for r in pooled]

    def test_rows_view_the_columns(self):
        # the row uses callers rely on: len, iteration and min by re_L
        system, spec, deltas = fig_two_transition_system()
        model = AnalyticModel("2d-correlated", deltas, (4,))
        axes = (PulseAxis(0, 0, 8, 2), PulseAxis(1, 0, 6, 2))
        result = run_scan(system, spec, GridSpec(axes, engine="both"), analytic_model=model)
        assert result.shape == (5, 4)
        assert len(result) == 20
        rows = list(result)
        assert len(rows) == 20
        assert [r.coords for r in rows] == [
            (float(a), float(b)) for a, b in product(*(axis.values() for axis in axes))
        ]
        for i, (row, again) in enumerate(zip(rows, result)):
            assert type(row) is ScanRecord and type(row.coords) is tuple
            assert row == again
            assert row == ScanRecord(
                tuple(result.coords[i]),
                ("n1", "n2"),
                result.L[i].real,
                result.L[i].imag,
                result.analytic_L[i],
            )
            assert all(type(v) is float for v in (*row.coords, row.re_L, row.im_L, row.analytic_L))
        best = min(result, key=lambda r: r.re_L)
        assert best == rows[int(np.argmin(result.L.real))]
        # every iter() starts over, independent of the ones before it
        first, second = iter(result), iter(result)
        assert first is not second
        assert next(first) == rows[0]
        assert next(first) == rows[1]
        assert next(second) == rows[0]
        assert list(result) == rows
        # without an analytic column every row carries analytic_L None
        exact = run_scan(system, spec, GridSpec(axes, engine="exact"))
        assert exact.analytic_L is None
        rows = list(exact)
        assert len(rows) == 20
        for i, (row, again) in enumerate(zip(rows, exact)):
            assert type(row) is ScanRecord and type(row.coords) is tuple
            assert row == again
            assert row == ScanRecord(
                tuple(exact.coords[i]), ("n1", "n2"), exact.L[i].real, exact.L[i].imag
            )
            assert row.analytic_L is None
            assert all(type(v) is float for v in (*row.coords, row.re_L, row.im_L))
        assert list(exact) == rows

    def test_tau_scan_finds_both_resonances(self):
        cluster = spin_one_preset(0.20, 0.14, 5.0 * np.sqrt(2.0))
        system = SystemModel((cluster,))
        spec = SequenceSpec([Block(1.0, 20)])
        grid = GridSpec((TauAxis(0, 1.0, 2.0, 101),))
        result = run_scan(system, spec, grid)
        values = result.L.real
        inner = values[1:-1]
        # strict interior minima of Re L below 0.9
        minima = (inner < values[:-2]) & (inner < values[2:]) & (inner < 0.9)
        dips = result.coords[1:-1, 0][minima]
        tau_a = resonant_tau(TWO_PI * 0.20)
        tau_b = resonant_tau(TWO_PI * 0.14)
        step = 0.01
        hits = [min(abs(dips - target)) for target in (tau_a, tau_b)]
        assert all(h <= step + 1e-12 for h in hits)


class TestClassifyCorrelation:
    def test_clear_calls(self):
        assert classify_correlation(-0.98, 4) == "uncorrelated"
        assert classify_correlation(0.03, 4) == "correlated"

    def test_midpoint_band_is_ambiguous(self):
        assert classify_correlation(-0.5, 4) == "ambiguous"
        assert classify_correlation(-0.45, 4) == "ambiguous"
        assert classify_correlation(-0.55, 4) == "ambiguous"

    def test_band_edges(self):
        assert classify_correlation(-0.39, 4) == "correlated"
        assert classify_correlation(-0.61, 4) == "uncorrelated"

    def test_d3_never_reports_uncorrelated(self):
        assert classify_correlation(-0.95, 3) == "ambiguous"
        assert classify_correlation(-0.30, 3) == "correlated"

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            classify_correlation(-0.5, 2)

    @pytest.mark.parametrize("measured", [math.nan, math.inf, -math.inf])
    def test_rejects_a_minimum_that_is_not_finite(self, measured):
        with pytest.raises(ValueError, match=f"^measured_min must be finite, got {measured}$"):
            classify_correlation(measured, 4)


# Finite floats the CSV must reproduce bit for bit: signed zeros,
# subnormals, the extremes and integral values, beside whatever hypothesis
# draws.  Coherence parts stay within 0.7 so every |L| <= 1.
SPECIAL = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 3.0, -42.0, 2.0**53]
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL)
UNIT = st.floats(-0.7, 0.7) | st.sampled_from([-0.0, 5e-324, -2.5e-310, 0.5])


@st.composite
def column_scans(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    points = math.prod(shape)

    def column(values, width=None):
        item = values if width is None else st.tuples(*[values] * width)
        return draw(st.lists(item, min_size=points, max_size=points))

    coords = column(FINITE, len(shape))
    L = [complex(re, im) for re, im in column(st.tuples(UNIT, UNIT))]
    analytic_L = draw(st.none() | st.lists(FINITE, min_size=points, max_size=points))
    labels = tuple(f"n{k + 1}" for k in range(len(shape)))
    return scan_result(labels, shape, coords, L, analytic_L), coords, L, analytic_L


# Cells that format alike but differ in their bits: NaNs with other payloads
# or signs, beside the infinities that analytic_L may hold.
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
NONFINITE = [math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf]


@st.composite
def repeating_scans(draw):
    """ScanResults whose columns repeat: each column draws from one small
    pool of values, is constant, or copies an earlier column (so analytic_L
    can be re_L); analytic_L also draws NaN and the infinities."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    points = math.prod(shape)
    pool = draw(st.lists(st.sampled_from([0.0, -0.0]) | UNIT, min_size=1, max_size=4))
    width = len(shape) + 2 + draw(st.integers(0, 1))
    columns = []
    for j in range(width):
        values = st.sampled_from(pool + NONFINITE if j == len(shape) + 2 else pool)
        kind = draw(st.sampled_from(["pool", "constant", "copy"][: 2 + bool(columns)]))
        if kind == "copy":
            columns.append(draw(st.sampled_from(columns)))
        elif kind == "constant":
            columns.append([draw(values)] * points)
        else:
            columns.append(draw(st.lists(values, min_size=points, max_size=points)))
    coords = list(zip(*columns[: len(shape)]))
    L = [complex(re, im) for re, im in zip(*columns[len(shape) : len(shape) + 2])]
    analytic_L = columns[len(shape) + 2] if width > len(shape) + 2 else None
    labels = tuple(f"n{k + 1}" for k in range(len(shape)))
    return scan_result(labels, shape, coords, L, analytic_L)


def one_format_csv(result) -> bytes:
    """The reference writer: every cell of every row "%.17g" in one % pass."""
    extra = [] if result.analytic_L is None else [result.analytic_L]
    header = [*result.labels, "re_L", "im_L"] + ["analytic_L"] * len(extra)
    table = np.column_stack([result.coords, result.L.real, result.L.imag, *extra])
    row = ",".join(["%.17g"] * len(header)) + "\n"
    body = (row * len(table)) % tuple(table.ravel().tolist())
    return ("# ddcorr-scan v1\n" + ",".join(header) + "\n" + body).encode("ascii")


class TestWriteCsv:
    def test_exact_bytes(self, tmp_path):
        result = scan_result(("n1",), (2,), [[0.0], [2.0]], [1.0, 0.25 - 0.125j])
        path = tmp_path / "scan.csv"
        write_csv(result, path)
        data = path.read_bytes()
        assert data == (
            b"# ddcorr-scan v1\n"
            b"n1,re_L,im_L\n"
            b"0,1,0\n"
            b"2,0.25,-0.125\n"
        )

    def test_full_precision_roundtrip(self, tmp_path):
        value = 1.0 / 3.0
        result = scan_result(("n1",), (2,), [[0.0], [2.0]], [value, -value])
        path = tmp_path / "scan.csv"
        write_csv(result, path)
        lines = path.read_text().splitlines()
        assert float(lines[2].split(",")[1]) == value
        assert b"\r" not in path.read_bytes()

    def test_analytic_column_when_present(self, tmp_path):
        result = scan_result(("n1", "n2"), (1, 2), [[0.0, 0.0], [0.0, 2.0]], [1.0, 0.5], [1.0, 0.5])
        path = tmp_path / "scan.csv"
        write_csv(result, path)
        header = path.read_text().splitlines()[1]
        assert header == "n1,n2,re_L,im_L,analytic_L"

    @given(column_scans())
    @settings(max_examples=100, deadline=None)
    def test_cells_are_full_precision_per_value(self, tmp_path_factory, scan):
        result, coords, L, analytic_L = scan
        path = tmp_path_factory.mktemp("csv") / "scan.csv"
        write_csv(result, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + len(L)
        for i, line in enumerate(lines[2:]):
            values = [*coords[i], L[i].real, L[i].imag]
            if analytic_L is not None:
                values.append(analytic_L[i])
            cells = line.split(",")
            assert cells == [f"{x:.17g}" for x in values]
            assert [struct.pack("<d", float(c)) for c in cells] == [
                struct.pack("<d", x) for x in values
            ]

    @given(repeating_scans())
    @example(scan_result(("n1",), (4,), [[0.0], [-0.0], [-0.0], [0.0]], [0.5, -0.0, 0.0, 0.5]))
    @example(
        scan_result(
            ("n1", "n2"),
            (2, 2),
            [[0.0, 0.0], [0.0, 2.0], [2.0, 0.0], [2.0, 2.0]],
            [0.5, -0.0, 0.0, 0.5],
            [0.5, -0.0, 0.0, 0.5],
        )
    )
    @example(scan_result(("n1",), (5,), [[3.0]] * 5, [0.25] * 5, [0.25, *NONFINITE[2:], math.nan]))
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_one_format_per_cell(self, tmp_path_factory, result):
        path = tmp_path_factory.mktemp("csv") / "scan.csv"
        write_csv(result, path)
        assert path.read_bytes() == one_format_csv(result)


def assert_same_csv(data: bytes, want: bytes):
    """Byte equality, reported as the first differing line."""
    if data != want:
        lines = enumerate(zip(data.split(b"\n"), want.split(b"\n")))
        i, (got, line) = next((i, pair) for i, pair in lines if pair[0] != pair[1])
        pytest.fail(f"line {i + 1}: wrote {got!r}, %.17g gives {line!r}")


def probe_values(rng) -> np.ndarray:
    """Over 10**6 floats that probe every branch of "%.17g"."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    tens_up = np.nextafter(tens, np.inf)
    switches = np.array([1e-5, 1e-4, 1e16, 1e17]).view(np.uint64)
    finite_max = np.finfo(float).max
    families = [
        # every exponent, subnormals, NaN payloads and infinities
        rng.integers(0, 2**64, 600_000, dtype=np.uint64, endpoint=False).view(float),
        # powers of ten and their neighbours; those from 1e17 up are not
        # exact and scale to within an ulp of a decade boundary
        *(s * v for s in (1, -1) for v in (tens, np.nextafter(tens, 0), tens_up)),
        # j / 2**17 in [1, 2.53): every odd j ties at the 17th digit
        np.arange(2**17, 2**17 + 200_000) / 2.0**17,
        rng.integers(1, 2**52, 20_000, dtype=np.uint64).view(float),
        np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, finite_max, -finite_max]),
        np.array([math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf]),
        rng.integers(0, 2**60, 100_000).astype(float),
        np.concatenate([2.0 ** np.arange(61) + d for d in (-1, 0, 1)]),
        # 64 ulps either side of where %g switches between fixed and e
        (switches[:, None] + np.arange(-64, 65)).ravel().view(float),
        rng.uniform(-1, 1, 100_000),
        rng.uniform(1e-22, 1e-17, 20_000),
    ]
    return np.concatenate(families)


class TestEncoderExactness:
    """write_csv's numpy encoder against one "%.17g" pass, with no mismatch."""

    def test_a_million_probe_values(self, tmp_path):
        values = probe_values(np.random.default_rng(14))
        assert len(values) >= 10**6
        path = tmp_path / "probe.csv"
        # one-axis scans encode their columns block by block
        for chunk in np.array_split(values, 4):
            L = np.zeros(len(chunk), complex)
            result = ScanResult(("x",), (len(chunk),), chunk[:, None], L)
            write_csv(result, path)
            assert_same_csv(path.read_bytes(), one_format_csv(result))

    def test_axis_lines(self, tmp_path):
        # a grid's coordinate columns and a constant column are encoded as
        # one line of an axis each
        values = probe_values(np.random.default_rng(15))[::2000]
        n = len(values) // 2
        coords = np.stack(np.meshgrid(values[:n], values[n : 2 * n], indexing="ij"), -1)
        L = np.full(n * n, -0.0, complex)
        result = ScanResult(("x", "y"), (n, n), coords.reshape(-1, 2), L, coords[..., 0].ravel())
        path = tmp_path / "lines.csv"
        write_csv(result, path)
        assert_same_csv(path.read_bytes(), one_format_csv(result))

    @pytest.mark.parametrize("engine", ["exact", "analytic", "both"])
    @pytest.mark.parametrize(
        "scenario",
        [
            *sorted((REPO / "scenarios").glob("*.json")),
            *sorted((REPO / "perfbench" / "scenarios").glob("*-half.json")),
        ],
        ids=lambda path: path.stem,
    )
    def test_shipped_scans(self, tmp_path, scenario, engine):
        parsed = parse_scenario(scenario)
        grid = dataclasses.replace(parsed.grid, engine=engine)
        result = run_scan(parsed.system, parsed.sequence, grid)
        path = tmp_path / "scan.csv"
        write_csv(result, path)
        assert_same_csv(path.read_bytes(), one_format_csv(result))

    def test_scan_output_imports_no_module(self, tmp_path):
        # numpy functions can import their submodules on first use (np.unique
        # without return_* imports numpy.ma): a cold start would pay for it
        scenario = REPO / "scenarios" / "correlated-ladder-cell.json"
        code = (
            "import sys\n"
            "from ddcorr.cli import parse_scenario\n"
            "from ddcorr.scan import run_scan, write_csv, write_heatmap\n"
            f"scenario = parse_scenario({str(scenario)!r})\n"
            "before = set(sys.modules)\n"
            "result = run_scan(scenario.system, scenario.sequence, scenario.grid)\n"
            f"write_csv(result, {str(tmp_path / 'scan.csv')!r})\n"
            f"write_heatmap(result, {str(tmp_path / 'scan.pgm')!r})\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\n"

    def test_scan_never_loads_the_reference_module(self, tmp_path):
        # the oracles serve the tests; neither scan nor filter nor lint
        # compiles them
        scenario = str(REPO / "scenarios" / "correlated-ladder-cell.json")
        commands = [
            ["scan", scenario, "--engine", "both", "--out", str(tmp_path / "scan.csv")],
            ["filter", scenario, "--f-min-MHz", "0.05", "--f-max-MHz", "0.4", "--steps", "5"],
            ["lint", scenario],
        ]
        code = (
            "import sys\n"
            "from ddcorr.cli import dispatch\n"
            f"code = max(dispatch(argv) for argv in {commands!r})\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('ddcorr.')))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        modules = ["analytic", "cli", "exact", "planner", "scan", "sequence", "spin_model"]
        assert run.stdout.endswith(f"0 {['ddcorr.' + m for m in modules]}\n")


class TestWriteHeatmap:
    @staticmethod
    def grid_result(shape, values_by_coord):
        coords = [coord for coord, _ in values_by_coord]
        values = [v for _, v in values_by_coord]
        return scan_result(("n1", "n2"), shape, coords, values)

    def test_header_and_pixels(self, tmp_path):
        result = self.grid_result(
            (2, 3),
            [
                ((0.0, 0.0), -1.0),
                ((0.0, 1.0), 0.0),
                ((0.0, 2.0), 1.0),
                ((1.0, 0.0), 1.0),
                ((1.0, 1.0), -1.0),
                ((1.0, 2.0), 0.0),
            ],
        )
        path = tmp_path / "map.pgm"
        write_heatmap(result, path)
        data = path.read_bytes()
        header = b"P5\n2 3\n65535\n"
        assert data.startswith(header)
        pixels = np.frombuffer(data[len(header):], dtype=">u2").reshape(3, 2)
        mid = 32768
        want = np.array([[0, 65535], [mid, 0], [65535, mid]])
        np.testing.assert_array_equal(pixels, want)

    def test_out_of_range_values_clip(self, tmp_path):
        result = scan_result(
            ("tau1_us", "tau2_us"),
            (2, 2),
            [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)],
            [-1.0, 1.0, 1.0, -1.0],
        )
        path = tmp_path / "map.pgm"
        write_heatmap(result, path)
        pixels = np.frombuffer(
            path.read_bytes().split(b"65535\n", 1)[1], dtype=">u2"
        )
        assert set(pixels.tolist()) <= {0, 65535}

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_heatmap(scan_1d([0.5]), tmp_path / "x.pgm")

    def test_rejects_ragged_grid(self):
        with pytest.raises(ValueError):
            self.grid_result(
                (2, 2),
                [
                    ((0.0, 0.0), 0.1),
                    ((0.0, 1.0), 0.2),
                    ((1.0, 0.0), 0.3),
                ],
            )
