"""Tests for grid scans, dip detection, and the on-disk formats."""

import numpy as np
import pytest

from ddcorr.analytic import Topology, dip_1d
from ddcorr.scan import (
    AnalyticModel,
    GridSpec,
    PulseAxis,
    ScanRecord,
    TauAxis,
    classify_correlation,
    find_dips,
    run_scan,
    write_csv,
    write_heatmap,
)
from ddcorr.sequence import Block, SequenceSpec, resonant_tau
from ddcorr.spin_model import (
    SystemModel,
    ladder_preset,
    spin_one_preset,
    transition,
)

TWO_PI = 2.0 * np.pi


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


class TestScanRecord:
    def test_rejects_unphysical_magnitude(self):
        with pytest.raises(ValueError):
            ScanRecord((1.0,), ("n1",), 1.2, 0.3)

    @pytest.mark.parametrize("re_L,im_L", [(np.nan, 0.0), (0.5, np.nan)])
    def test_rejects_nan(self, re_L, im_L):
        with pytest.raises(ValueError):
            ScanRecord((1.0,), ("n1",), re_L, im_L)


class TestAnalyticModel:
    def test_1d_dispatch(self):
        model = AnalyticModel(Topology("1d"), (0.025,), 3)
        assert model.evaluate((20,)) == pytest.approx(dip_1d(3, 0.025, 20))

    def test_delta_count_must_match_topology(self):
        with pytest.raises(ValueError):
            AnalyticModel(Topology("1d"), (0.025, 0.036), 3)
        with pytest.raises(ValueError):
            AnalyticModel(Topology("2d-correlated"), (0.025,), 3)

    def test_dimension_must_host_topology(self):
        with pytest.raises(ValueError, match="needs dimension >= 4, got 3"):
            AnalyticModel(Topology("2d-uncorrelated"), (0.025, 0.036), 3)

    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            AnalyticModel("2d", (0.025, 0.036), 3)


class TestRunScan:
    def test_lexicographic_order(self):
        system, spec, deltas = fig_two_transition_system()
        model = AnalyticModel(Topology("2d-correlated"), deltas, 4)
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
        assert records[0].labels == ("n1", "n2")

    def test_analytic_engine_fills_both_fields(self):
        system, spec, deltas = fig_two_transition_system()
        model = AnalyticModel(Topology("2d-correlated"), deltas, 4)
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
        model = AnalyticModel(Topology("2d-correlated"), deltas, 4)
        grid = GridSpec(
            (PulseAxis(0, 0, 8, 2), PulseAxis(1, 0, 8, 2)), engine="both"
        )
        records = run_scan(system, spec, grid, analytic_model=model)
        for rec in records:
            assert rec.analytic_L is not None
            assert abs(rec.re_L - rec.analytic_L) < 0.05

    def test_analytic_engine_rejects_tau_axis(self):
        system, spec, deltas = fig_two_transition_system()
        model = AnalyticModel(Topology("2d-correlated"), deltas, 4)
        grid = GridSpec((TauAxis(0, 1.0, 2.0, 3),), engine="analytic")
        with pytest.raises(ValueError):
            run_scan(system, spec, grid, analytic_model=model)

    def test_analytic_engine_requires_model(self):
        system, spec, _ = fig_two_transition_system()
        grid = GridSpec((PulseAxis(0, 0, 8, 2),), engine="analytic")
        with pytest.raises(ValueError):
            run_scan(system, spec, grid)

    def test_axis_block_must_exist(self):
        system, spec, _ = fig_two_transition_system()
        grid = GridSpec((PulseAxis(2, 0, 8, 2),))
        with pytest.raises(ValueError):
            run_scan(system, spec, grid)

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

    def test_tau_scan_finds_both_resonances(self):
        cluster = spin_one_preset(0.20, 0.14, 5.0 * np.sqrt(2.0))
        system = SystemModel((cluster,))
        spec = SequenceSpec([Block(1.0, 20)])
        grid = GridSpec((TauAxis(0, 1.0, 2.0, 101),))
        records = run_scan(system, spec, grid)
        dips = find_dips(records, threshold=0.9)
        tau_a = resonant_tau(TWO_PI * 0.20)
        tau_b = resonant_tau(TWO_PI * 0.14)
        step = 0.01
        hits = [
            min(abs(coord - target) for coord, _ in dips)
            for target in (tau_a, tau_b)
        ]
        assert all(h <= step + 1e-12 for h in hits)


class TestFindDips:
    @staticmethod
    def records_from(values):
        return [
            ScanRecord((float(i),), ("n1",), v, 0.0)
            for i, v in enumerate(values)
        ]

    def test_finds_interior_minima(self):
        recs = self.records_from([1.0, 0.2, 0.8, 0.1, 0.9])
        dips = find_dips(recs)
        assert dips == [(1.0, 0.2), (3.0, 0.1)]

    def test_threshold_filters(self):
        recs = self.records_from([1.0, 0.2, 0.8, 0.1, 0.9])
        assert find_dips(recs, threshold=0.15) == [(3.0, 0.1)]

    def test_endpoints_never_count(self):
        recs = self.records_from([0.0, 0.5, 0.1])
        assert find_dips(recs) == []

    def test_plateau_is_not_a_dip(self):
        recs = self.records_from([1.0, 0.3, 0.3, 1.0])
        assert find_dips(recs) == []


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


class TestWriteCsv:
    def test_exact_bytes(self, tmp_path):
        records = [
            ScanRecord((0.0,), ("n1",), 1.0, 0.0),
            ScanRecord((2.0,), ("n1",), 0.25, -0.125),
        ]
        path = tmp_path / "scan.csv"
        write_csv(records, path)
        data = path.read_bytes()
        assert data == (
            b"# ddcorr-scan v1\n"
            b"n1,re_L,im_L\n"
            b"0,1,0\n"
            b"2,0.25,-0.125\n"
        )

    def test_full_precision_roundtrip(self, tmp_path):
        value = 1.0 / 3.0
        records = [
            ScanRecord((0.0,), ("n1",), value, 0.0),
            ScanRecord((2.0,), ("n1",), -value, 0.0),
        ]
        path = tmp_path / "scan.csv"
        write_csv(records, path)
        lines = path.read_text().splitlines()
        assert float(lines[2].split(",")[1]) == value
        assert b"\r" not in path.read_bytes()

    def test_analytic_column_when_present(self, tmp_path):
        records = [
            ScanRecord((0.0, 0.0), ("n1", "n2"), 1.0, 0.0, 1.0),
            ScanRecord((0.0, 2.0), ("n1", "n2"), 0.5, 0.0, 0.5),
        ]
        path = tmp_path / "scan.csv"
        write_csv(records, path)
        header = path.read_text().splitlines()[1]
        assert header == "n1,n2,re_L,im_L,analytic_L"

    def test_rejects_empty_and_mixed(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv([], tmp_path / "x.csv")
        mixed = [
            ScanRecord((0.0,), ("n1",), 1.0, 0.0),
            ScanRecord((0.0,), ("n2",), 1.0, 0.0),
        ]
        with pytest.raises(ValueError):
            write_csv(mixed, tmp_path / "y.csv")


class TestWriteHeatmap:
    @staticmethod
    def grid_records(values_by_coord):
        labels = ("n1", "n2")
        return [
            ScanRecord(coord, labels, v, 0.0)
            for coord, v in values_by_coord
        ]

    def test_header_and_pixels(self, tmp_path):
        records = self.grid_records(
            [
                ((0.0, 0.0), -1.0),
                ((0.0, 1.0), 0.0),
                ((0.0, 2.0), 1.0),
                ((1.0, 0.0), 1.0),
                ((1.0, 1.0), -1.0),
                ((1.0, 2.0), 0.0),
            ]
        )
        path = tmp_path / "map.pgm"
        write_heatmap(records, path)
        data = path.read_bytes()
        header = b"P5\n2 3\n65535\n"
        assert data.startswith(header)
        pixels = np.frombuffer(data[len(header):], dtype=">u2").reshape(3, 2)
        mid = 32768
        want = np.array([[0, 65535], [mid, 0], [65535, mid]])
        np.testing.assert_array_equal(pixels, want)

    def test_out_of_range_values_clip(self, tmp_path):
        records = [
            ScanRecord((0.0, 0.0), ("tau1_us", "tau2_us"), -1.0, 0.0),
            ScanRecord((0.0, 1.0), ("tau1_us", "tau2_us"), 1.0, 0.0),
            ScanRecord((1.0, 0.0), ("tau1_us", "tau2_us"), 1.0, 0.0),
            ScanRecord((1.0, 1.0), ("tau1_us", "tau2_us"), -1.0, 0.0),
        ]
        path = tmp_path / "map.pgm"
        write_heatmap(records, path)
        pixels = np.frombuffer(
            path.read_bytes().split(b"65535\n", 1)[1], dtype=">u2"
        )
        assert set(pixels.tolist()) <= {0, 65535}

    def test_rejects_non_2d(self, tmp_path):
        records = [ScanRecord((0.0,), ("n1",), 0.5, 0.0)]
        with pytest.raises(ValueError):
            write_heatmap(records, tmp_path / "x.pgm")

    def test_rejects_ragged_grid(self, tmp_path):
        records = self.grid_records(
            [
                ((0.0, 0.0), 0.1),
                ((0.0, 1.0), 0.2),
                ((1.0, 0.0), 0.3),
            ]
        )
        with pytest.raises(ValueError):
            write_heatmap(records, tmp_path / "x.pgm")
