"""Tests for the measurement-budget planner."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from ddcorr.planner import (
    DEFAULT_T_IR_US,
    BudgetOverflow,
    PlanReport,
    check_fidelity,
    dip_time,
    plan,
    point_time,
    readout_fidelity,
    shots_for_snr,
    sweep_time,
)

TWO_PI = 2.0 * np.pi

# the worked two-transition example: delta_i * omega_i = 2 pi * 5 kHz each
COUPLING = TWO_PI * 0.005
DELTAS = (0.025, 0.036)
OMEGAS = (TWO_PI * 0.20, TWO_PI * 0.14)


class TestReadoutFidelity:
    def test_worked_example(self):
        got = readout_fidelity(0.02, 0.01)
        assert got == pytest.approx(1.0 / math.sqrt(601.0), rel=1e-12)
        assert got == pytest.approx(0.0408, abs=5e-5)

    def test_symmetric_in_states(self):
        assert readout_fidelity(0.05, 0.01) == readout_fidelity(0.01, 0.05)

    def test_equal_means_rejected(self):
        with pytest.raises(ValueError):
            readout_fidelity(0.02, 0.02)

    def test_negative_means_rejected(self):
        with pytest.raises(ValueError):
            readout_fidelity(-0.01, 0.02)

    @given(
        a0=st.floats(0.001, 10.0),
        a1=st.floats(0.001, 10.0),
        boost=st.floats(1.1, 5.0),
    )
    def test_wider_separation_helps(self, a0, a1, boost):
        lo, hi = sorted((a0, a1))
        # the widened separation must be representable, not a 1-ulp wash
        assume((hi - lo) * (boost - 1.0) > 1e-9 * hi)
        base = readout_fidelity(lo, hi)
        better = readout_fidelity(lo, lo + (hi - lo) * boost)
        assert 0.0 < base < 1.0
        assert better > base

    def test_model_wraps_fidelity(self):
        with pytest.raises(ValueError):
            check_fidelity(0.0)
        with pytest.raises(ValueError):
            check_fidelity(1.5)
        assert check_fidelity(1.0) == 1.0


class TestShots:
    def test_exact_squares(self):
        assert shots_for_snr(0.5, 1.0) == 4
        assert shots_for_snr(1.0, 1.0) == 1

    def test_rounds_up(self):
        assert shots_for_snr(0.3, 1.0) == 12  # (1/0.3)^2 = 11.11

    def test_snr_squared_scaling(self):
        base = (1.0 / 0.5) ** 2
        assert shots_for_snr(0.5, 2.0) == int(4 * base)
        assert shots_for_snr(0.5, 3.0) == int(9 * base)

    def test_worked_example(self):
        assert shots_for_snr(0.03, 10.0) == 111112

    def test_at_least_one_shot(self):
        # (1e-200)^2 rounds to 0
        assert shots_for_snr(1.0, 1e-200) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            shots_for_snr(0.0, 1.0)
        with pytest.raises(ValueError):
            shots_for_snr(0.5, 0.0)


class TestDipTime:
    def test_equal_couplings(self):
        got = dip_time(0.025, COUPLING / 0.025, 0.025, COUPLING / 0.025)
        assert got == pytest.approx(math.pi**2 / COUPLING, rel=1e-12)
        assert got == pytest.approx(314.159, abs=1e-3)

    def test_worked_example(self):
        got = dip_time(DELTAS[0], OMEGAS[0], DELTAS[1], OMEGAS[1])
        assert got == pytest.approx(312.91, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            dip_time(0.0, 1.0, 0.02, 1.0)


class TestPointTime:
    def test_unit_conversion(self):
        assert point_time(1000, 99.0, 1.0) == pytest.approx(0.1)

    def test_default_overhead(self):
        assert point_time(10, 9.0) == point_time(10, 9.0, DEFAULT_T_IR_US)

    def test_worked_example(self):
        t_dip = dip_time(DELTAS[0], OMEGAS[0], DELTAS[1], OMEGAS[1])
        got = point_time(111112, t_dip, 1.0)
        assert got == pytest.approx(34.879, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            point_time(0, 9.0)
        with pytest.raises(ValueError):
            point_time(10, -1.0)


class TestSweepTime:
    def test_unit_cell_point_count(self):
        points, _ = sweep_time(111112, DELTAS, OMEGAS)
        assert points == 63 * 44

    def test_uniform_seconds(self):
        points, seconds = sweep_time(111112, DELTAS, OMEGAS)
        t_dip = dip_time(DELTAS[0], OMEGAS[0], DELTAS[1], OMEGAS[1])
        want = points * point_time(111112, t_dip, 1.0)
        assert seconds == pytest.approx(want, rel=1e-12)

    def test_uniform_mode_needs_two_axes(self):
        with pytest.raises(ValueError):
            sweep_time(100, (0.02,), (1.0,))

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep_time(0, DELTAS, OMEGAS)
        with pytest.raises(ValueError):
            sweep_time(100, (0.02, -0.01), (1.0, 1.0))


class TestPlan:
    def test_products_only(self):
        report = plan(0.03, 10.0, delta_omegas=(COUPLING, COUPLING))
        assert report.shots == 111112
        assert report.dip_time_us == pytest.approx(314.159, abs=1e-3)
        assert report.sweep_points is None
        assert report.sweep_time_s is None

    def test_full_budget(self):
        report = plan(0.03, 10.0, deltas=DELTAS, omegas=OMEGAS)
        assert report.shots == 111112
        assert report.dip_time_us == pytest.approx(312.91, abs=0.01)
        assert report.point_time_s == pytest.approx(34.879, abs=0.01)
        assert report.sweep_points == 2772
        assert report.sweep_time_s == pytest.approx(
            2772 * report.point_time_s, rel=1e-12
        )

    def test_brighter_readout_shrinks_everything(self):
        dim = plan(0.03, 10.0, deltas=DELTAS, omegas=OMEGAS)
        bright = plan(0.3, 10.0, deltas=DELTAS, omegas=OMEGAS)
        assert bright.shots == 1112
        assert bright.point_time_s == pytest.approx(0.349, abs=5e-3)
        assert bright.sweep_time_s < dim.sweep_time_s / 50.0

    def test_json_keys(self):
        report = plan(0.03, 10.0, deltas=DELTAS, omegas=OMEGAS)
        out = report.to_json_dict()
        assert set(out) == {
            "F",
            "K",
            "t_dip_us",
            "t_point_s",
            "sweep_points",
            "t_sweep_s",
        }
        assert out["F"] == 0.03
        assert out["K"] == 111112

    def test_needs_coupling_information(self):
        with pytest.raises(ValueError):
            plan(0.03, 10.0)

    def test_dip_needs_exactly_two_transitions(self):
        with pytest.raises(ValueError):
            plan(0.03, 10.0, delta_omegas=(COUPLING,))

    def test_fidelity_outside_unit_interval(self):
        with pytest.raises(ValueError, match="fidelity must be in"):
            plan(1.5, 10.0, delta_omegas=(COUPLING, COUPLING))


class TestBudgetOverflow:
    """Inputs whose counts or times do not fit a float raise, naming them."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: shots_for_snr(0.03, 1e200),
            lambda: shots_for_snr(1e-300, 10.0),
            lambda: dip_time(1e-320, 1.0, 0.02, 1.0),
            lambda: dip_time(1e-320, 1e-10, 0.02, 1.0),  # the product rounds to 0
            lambda: point_time(10, 9.0, 1e308),
            lambda: sweep_time(100, (1e-320, 0.02), (1e3, 1.0)),
            lambda: sweep_time(100, (1e-200, 1e-200), (1.0, 1.0)),
        ],
        ids=["snr", "fidelity", "dip", "dip-product", "point", "cell", "sweep"],
    )
    def test_raises_instead_of_inf(self, call):
        with pytest.raises(BudgetOverflow):
            call()

    @pytest.mark.parametrize(
        "kwargs,inputs",
        [
            ({"snr": 1e200, "delta_omegas": (COUPLING, COUPLING)}, ("fidelity", "snr")),
            ({"delta_omegas": (1e-320, COUPLING)}, ("delta_omegas",)),
            ({"deltas": (1e-320, 0.02), "omegas": OMEGAS}, ("deltas", "omegas")),
            (
                {"t_ir_us": 1e308, "delta_omegas": (COUPLING, COUPLING)},
                ("fidelity", "snr", "delta_omegas", "t_ir_us"),
            ),
            (
                {"deltas": (1e-200, 1e-200), "omegas": (1.0, 1.0)},
                ("fidelity", "snr", "deltas", "omegas", "t_ir_us"),
            ),
        ],
        ids=["shots", "dip-products", "dip-deltas", "point", "sweep"],
    )
    def test_plan_names_the_inputs(self, kwargs, inputs):
        with pytest.raises(BudgetOverflow) as info:
            plan(**{"fidelity": 0.03, "snr": 10.0, **kwargs})
        assert info.value.inputs == inputs


class TestPlanReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlanReport(
                fidelity=0.0,
                snr=10.0,
                shots=1,
                dip_time_us=1.0,
                point_time_s=1.0,
            )
