"""Tests for the measurement-budget planner."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from ddcorr.planner import (
    DEFAULT_T_IR_US,
    BudgetOverflow,
    plan,
    readout_fidelity,
)
from ddcorr.spin_model import InputError

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

    @pytest.mark.parametrize("alpha0", [1e-170, 5e-324])
    def test_separation_whose_square_rounds_to_zero_rejected(self, alpha0):
        with pytest.raises(ValueError, match=r"photon means .* and 0 are too close"):
            readout_fidelity(alpha0, 0.0)

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
        with pytest.raises(InputError, match=r"fidelity must be in \(0, 1\], got 0.0"):
            _products(0.0, 10.0)
        with pytest.raises(InputError, match=r"fidelity must be in \(0, 1\], got 1.5"):
            _products(1.5, 10.0)
        assert _products(1.0, 10.0).fidelity == 1.0


def _products(fidelity, snr, **kwargs):
    """plan() of the worked example's products delta_i * omega_i."""
    return plan(fidelity, snr, delta_omegas=(COUPLING, COUPLING), **kwargs)


def _full(fidelity=0.03):
    """plan() of the worked example's deltas and omegas at SNR 10."""
    return plan(fidelity, 10.0, deltas=DELTAS, omegas=OMEGAS)


class TestShots:
    def test_exact_squares(self):
        assert _products(0.5, 1.0).shots == 4
        assert _products(1.0, 1.0).shots == 1

    def test_rounds_up(self):
        assert _products(0.3, 1.0).shots == 12  # (1/0.3)^2 = 11.11

    def test_snr_squared_scaling(self):
        base = (1.0 / 0.5) ** 2
        assert _products(0.5, 2.0).shots == int(4 * base)
        assert _products(0.5, 3.0).shots == int(9 * base)

    def test_worked_example(self):
        assert _products(0.03, 10.0).shots == 111112

    def test_at_least_one_shot(self):
        # (1e-200)^2 rounds to 0
        assert _products(1.0, 1e-200).shots == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            _products(0.0, 1.0)
        with pytest.raises(ValueError):
            _products(0.5, 0.0)


class TestDipTime:
    def test_equal_couplings(self):
        got = _products(0.03, 10.0).dip_time_us
        assert got == pytest.approx(math.pi**2 / COUPLING, rel=1e-12)
        assert got == pytest.approx(314.159, abs=1e-3)
        # the dip time depends on each product delta_i * omega_i alone
        split = plan(0.03, 10.0, deltas=(0.025, 0.025), omegas=(COUPLING / 0.025,) * 2)
        assert split.dip_time_us == pytest.approx(got, rel=1e-12)

    def test_worked_example(self):
        assert _full().dip_time_us == pytest.approx(312.91, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan(0.03, 10.0, deltas=(0.0, 0.02), omegas=(1.0, 1.0))


class TestPointTime:
    def test_unit_conversion(self):
        # 100 shots of 99 + 1 us
        report = plan(0.5, 5.0, delta_omegas=(math.pi**2 / 99.0,) * 2, t_ir_us=1.0)
        assert report.shots == 100
        assert report.dip_time_us == pytest.approx(99.0, rel=1e-12)
        assert report.point_time_s == pytest.approx(0.01, rel=1e-12)

    def test_default_overhead(self):
        assert _products(0.03, 10.0) == _products(0.03, 10.0, t_ir_us=DEFAULT_T_IR_US)

    def test_worked_example(self):
        assert _full().point_time_s == pytest.approx(34.879, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            _products(0.03, 10.0, t_ir_us=-1.0)
        with pytest.raises(ValueError):
            plan(0.03, 10.0, delta_omegas=(COUPLING, -1.0))


class TestSweepTime:
    def test_unit_cell_point_count(self):
        assert _full().sweep_points == 63 * 44

    def test_uniform_seconds(self):
        report = _full()
        assert report.sweep_time_s == report.sweep_points * report.point_time_s

    def test_charged_the_reported_point_time(self):
        # integers whose float roundings are inexact price the sweep at the
        # reported point time too, not at one recomputed from the roundings
        big = 2**53 + 1
        report = plan(1.0, 1.0, deltas=(big, big), omegas=(big, big), t_ir_us=0.0)
        assert report.sweep_time_s == report.sweep_points * report.point_time_s

    def test_uniform_mode_needs_two_axes(self):
        with pytest.raises(ValueError):
            plan(0.03, 10.0, deltas=(0.02,), omegas=(1.0,))

    def test_validation(self):
        with pytest.raises(ValueError):
            plan(0.03, 10.0, deltas=(0.02, -0.01), omegas=(1.0, 1.0))


class TestGoldenBits:
    """Every PlanReport field of the worked examples, bit for bit (float.hex)."""

    @pytest.mark.parametrize(
        "report,want",
        [
            (
                _products(0.03, 10.0),
                {"fidelity": "0x1.eb851eb851eb8p-6", "snr": "0x1.4000000000000p+3",
                 "shots": 111112, "dip_time_us": "0x1.3a28c59d5433ap+8",
                 "point_time_s": "0x1.1824d0c1256cep+5", "sweep_points": None,
                 "sweep_time_s": None},
            ),
            (
                _full(0.03),
                {"fidelity": "0x1.eb851eb851eb8p-6", "snr": "0x1.4000000000000p+3",
                 "shots": 111112, "dip_time_us": "0x1.38e9a0424ab98p+8",
                 "point_time_s": "0x1.170920bf0c13bp+5", "sweep_points": 2772,
                 "sweep_time_s": "0x1.79addad295d8ap+16"},
            ),
            (
                _full(0.3),
                {"fidelity": "0x1.3333333333333p-2", "snr": "0x1.4000000000000p+3",
                 "shots": 1112, "dip_time_us": "0x1.38e9a0424ab98p+8",
                 "point_time_s": "0x1.6572d1b7145adp-2", "sweep_points": 2772,
                 "sweep_time_s": "0x1.e3cfe8da4d0cfp+9"},
            ),
        ],
        ids=["products", "full-dim", "full-bright"],
    )
    def test_worked_examples(self, report, want):
        got = {key: value.hex() if isinstance(value, float) else value
               for key, value in dataclasses.asdict(report).items()}
        assert got == want


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

    def test_products_or_deltas_and_omegas_not_both(self):
        with pytest.raises(ValueError, match="give delta_omegas, or deltas and omegas"):
            plan(0.03, 10.0, delta_omegas=(COUPLING, COUPLING), deltas=DELTAS, omegas=OMEGAS)

    @pytest.mark.parametrize(
        "kwargs,inputs",
        [
            ({"fidelity": 1.5, "delta_omegas": (COUPLING, COUPLING)}, ("fidelity",)),
            ({"snr": 0.0, "delta_omegas": (COUPLING, COUPLING)}, ("snr",)),
            ({"t_ir_us": -1.0, "delta_omegas": (COUPLING, COUPLING)}, ("t_ir_us",)),
            ({"deltas": (0.0, 0.036), "omegas": OMEGAS}, ("deltas",)),
            ({"deltas": DELTAS, "omegas": (OMEGAS[0], -OMEGAS[1])}, ("omegas",)),
            ({"delta_omegas": (COUPLING,) * 3}, ("delta_omegas",)),
            ({"deltas": DELTAS, "omegas": (*OMEGAS, 1.0)}, ("deltas", "omegas")),
        ],
        ids=["fidelity", "snr", "t-ir", "zero-delta", "negative-omega", "three-products",
             "unequal-counts"],
    )
    def test_range_refusal_names_its_input(self, kwargs, inputs):
        with pytest.raises(InputError) as info:
            plan(**{"fidelity": 0.03, "snr": 10.0, **kwargs})
        assert not isinstance(info.value, BudgetOverflow)
        assert info.value.inputs == inputs


    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"snr": 10**400}, "snr"),
            ({"t_ir_us": 10**400}, "t_ir_us"),
            ({"fidelity": -(10**400)}, "fidelity"),
            ({"delta_omegas": (COUPLING, 10**400)}, "delta_omegas"),
            ({"deltas": (10**400, 0.02), "omegas": OMEGAS}, "deltas"),
        ],
        ids=["snr", "t-ir", "fidelity", "products", "deltas"],
    )
    def test_integer_beyond_float_range_names_its_input(self, kwargs, name):
        if "deltas" not in kwargs:
            kwargs = {"delta_omegas": (COUPLING, COUPLING), **kwargs}
        with pytest.raises(InputError) as info:
            plan(**{"fidelity": 0.03, "snr": 10.0, **kwargs})
        assert str(info.value) == f"{name} must be finite, got an integer beyond float range"
        assert info.value.inputs == (name,)

    @pytest.mark.parametrize(
        "kwargs,name,values",
        [
            ({"delta_omegas": (math.inf, 1.0)}, "delta_omegas", "(inf, 1.0)"),
            ({"deltas": (0.02, math.inf), "omegas": OMEGAS}, "deltas", "(0.02, inf)"),
            ({"deltas": DELTAS, "omegas": (math.inf, 1.0)}, "omegas", "(inf, 1.0)"),
        ],
        ids=["products", "deltas", "omegas"],
    )
    def test_infinite_target_names_its_input(self, kwargs, name, values):
        with pytest.raises(InputError) as info:
            plan(0.03, 10.0, **kwargs)
        assert str(info.value) == f"{name} must be finite, got {values}"
        assert info.value.inputs == (name,)

    def test_integer_deltas_and_omegas_are_priced_as_floats(self):
        # their product, 10**400, overflows only as an integer
        ints = plan(0.03, 10.0, deltas=(10**200, 0.02), omegas=(10**200, 1.0))
        floats = plan(0.03, 10.0, deltas=(1e200, 0.02), omegas=(1e200, 1.0))
        assert ints == floats


class TestBudgetOverflow:
    """Inputs whose counts or times do not fit a float raise, naming them."""

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"snr": 1e200}, "snr 1e+200 at F = 0.03 needs too many shots"),
            ({"fidelity": 1e-300}, "snr 10 at F = 1e-300 needs too many shots"),
            ({"deltas": (1e-320, 0.02), "omegas": (1.0, 1.0)},
             "delta * omega = 9.99989e-321 and 0.02 rad/us give an infinite dip time"),
            # the product rounds to 0
            ({"deltas": (1e-320, 0.02), "omegas": (1e-10, 1.0)},
             "delta * omega = 0 and 0.02 rad/us give an infinite dip time"),
            # both products overflow
            ({"deltas": (1e300, 1e300), "omegas": (1e300, 1e300)},
             "delta * omega = inf and inf rad/us give a zero dip time"),
            ({"t_ir_us": 1e308},
             "1.11e+05 shots of 314.159 + 1e+308 us give an infinite point time"),
            ({"deltas": (1e-310, 0.02), "omegas": (1e300, 1.0)},
             "deltas 1e-310 and 0.02 give an infinite unit cell"),
            ({"deltas": (1e-200, 1e-200), "omegas": (1.0, 1.0)},
             "1.57e+200 x 1.57e+200 points of 1.09663e+200 s give an infinite sweep time"),
        ],
        ids=["snr", "fidelity", "dip", "dip-product", "dip-zero", "point", "cell", "sweep"],
    )
    def test_raises_instead_of_inf(self, kwargs, message):
        if "deltas" not in kwargs:
            kwargs = {"delta_omegas": (COUPLING, COUPLING), **kwargs}
        with pytest.raises(BudgetOverflow) as info:
            plan(**{"fidelity": 0.03, "snr": 10.0, **kwargs})
        assert str(info.value) == message

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
