"""Tests for pulse timelines, filter responses, and resonance lint."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from ddcorr.sequence import (
    Block,
    PulseTimeline,
    SequenceSpec,
    build_timeline,
    check_timeline_size,
    filter_cpmg_closed,
    filter_numeric,
    lint_resonance_overlap,
    resonant_tau,
)
from ddcorr.reference import filter_multiblock, modulation
from ddcorr.spin_model import spin_one_preset, star_preset

TWO_PI = 2.0 * np.pi


def quadrature_filter(timeline, omega):
    """Independent oracle: integrate f(t) e^{i omega t} with adaptive
    quadrature, splitting at every sign flip."""
    points = [0.0, *timeline.flip_times.tolist(), timeline.total_time]

    def f_re(t):
        return modulation(timeline, t) * np.cos(omega * t)

    def f_im(t):
        return modulation(timeline, t) * np.sin(omega * t)

    total = 0.0 + 0.0j
    for a, b in zip(points[:-1], points[1:]):
        re, _ = integrate.quad(f_re, a, b, limit=200)
        im, _ = integrate.quad(f_im, a, b, limit=200)
        total += re + 1j * im
    return omega * total


class TestBlockAndSpec:
    def test_block_duration(self):
        assert Block(1.25, 4).duration == pytest.approx(10.0)

    def test_block_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            Block(0.0, 4)
        with pytest.raises(ValueError):
            Block(-1.0, 4)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_block_rejects_non_finite_tau(self, tau):
        with pytest.raises(ValueError, match="block tau must be finite"):
            Block(tau, 2)

    def test_block_rejects_negative_pulses(self):
        for n in (-1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=r"^n_pulses must be a nonnegative integer, got "):
                Block(1.0, n)

    def test_block_pulses_stop_at_2_pow_53(self):
        assert Block(1.0, 2**53).n_pulses == 2**53
        for n in (2**53 + 1, 2**62, 10**30, 1e30, 10**400):
            with pytest.raises(ValueError, match=r"^n_pulses must be at most 2\*\*53, got "):
                Block(1.0, n)

    def test_spec_accepts_raw_pairs(self):
        spec = SequenceSpec([(1.25, 4)])
        assert spec.blocks[0] == Block(1.25, 4)


class TestBuildTimeline:
    def test_single_block_flip_times(self):
        tl = build_timeline(SequenceSpec([Block(1.0, 3)]))
        np.testing.assert_allclose(tl.flip_times, [1.0, 3.0, 5.0])
        assert tl.total_time == pytest.approx(6.0)

    def test_two_blocks_offset(self):
        tl = build_timeline(SequenceSpec([Block(1.0, 2), Block(0.5, 2)]))
        np.testing.assert_allclose(tl.flip_times, [1.0, 3.0, 4.5, 5.5])
        assert tl.total_time == pytest.approx(6.0)

    def test_zero_pulse_block_has_zero_duration(self):
        assert Block(1.0, 0).duration == 0.0
        tl = build_timeline(SequenceSpec([Block(1.0, 0), Block(0.5, 1)]))
        np.testing.assert_allclose(tl.flip_times, [0.5])
        assert tl.total_time == pytest.approx(1.0)

    def test_timeline_validation(self):
        with pytest.raises(ValueError):
            PulseTimeline(flip_times=np.array([0.0, 1.0]), total_time=2.0)
        with pytest.raises(ValueError):
            PulseTimeline(flip_times=np.array([1.0, 1.0]), total_time=3.0)
        with pytest.raises(ValueError):
            PulseTimeline(flip_times=np.array([1.0, 4.0]), total_time=3.0)


class TestTimelineSize:
    def test_pulse_budget_is_four_gib_at_256_bytes_a_pulse(self):
        # 2**24 pulses over two blocks fit; one more does not; none is built
        check_timeline_size(SequenceSpec([Block(1.0, 2**23), Block(0.5, 2**23)]))
        with pytest.raises(ValueError, match="^16777217 pulses need about 4 GiB as a timeline"):
            check_timeline_size(SequenceSpec([Block(1.0, 2**23), Block(0.5, 2**23 + 1)]))


class TestModulation:
    def test_starts_positive(self):
        tl = build_timeline(SequenceSpec([Block(1.0, 2)]))
        assert modulation(tl, 0.5) == 1

    def test_sign_flips_at_each_pulse(self):
        tl = build_timeline(SequenceSpec([Block(1.0, 3)]))
        samples = [modulation(tl, t) for t in (0.5, 2.0, 4.0, 5.5)]
        assert samples == [1, -1, 1, -1]

    @given(
        taus=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=3),
        pulses=st.lists(st.integers(0, 9), min_size=1, max_size=3),
    )
    def test_number_of_sign_changes_equals_pulse_count(self, taus, pulses):
        k = min(len(taus), len(pulses))
        spec = SequenceSpec(
            [Block(t, n) for t, n in zip(taus[:k], pulses[:k])]
        )
        tl = build_timeline(spec)
        ts = np.linspace(0.0, tl.total_time, 4001)[1:-1]
        vals = np.array([modulation(tl, t) for t in ts])
        changes = int(np.sum(vals[1:] != vals[:-1]))
        assert changes == sum(pulses[:k])


class TestResonantTau:
    def test_fundamental(self):
        om = TWO_PI * 0.2
        assert resonant_tau(om) == pytest.approx(1.25)

    def test_higher_order(self):
        om = TWO_PI * 0.2
        assert resonant_tau(om, order=2) == pytest.approx(3.75)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resonant_tau(0.0)
        with pytest.raises(ValueError):
            resonant_tau(TWO_PI, order=0)


class TestFilterNumeric:
    @pytest.mark.parametrize("n_pulses", [1, 7, 20])
    def test_resonance_magnitude_and_phase(self, n_pulses):
        om = TWO_PI * 0.2
        tl = build_timeline(SequenceSpec([Block(resonant_tau(om), n_pulses)]))
        result = filter_numeric(tl, om)
        assert result.magnitude == pytest.approx(2 * n_pulses, abs=1e-9)
        assert result.phase == pytest.approx(0.0, abs=1e-9)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            spec = SequenceSpec(
                [
                    Block(rng.uniform(0.3, 2.0), int(rng.integers(1, 8))),
                    Block(rng.uniform(0.3, 2.0), int(rng.integers(0, 8))),
                ]
            )
            tl = build_timeline(spec)
            omega = rng.uniform(0.2, 4.0)
            got = filter_numeric(tl, omega)
            want = quadrature_filter(tl, omega)
            got_z = got.magnitude * np.exp(1j * got.phase)
            assert abs(got_z - want) < 1e-8

    def test_rejects_zero_frequency(self):
        tl = build_timeline(SequenceSpec([Block(1.0, 2)]))
        with pytest.raises(ValueError):
            filter_numeric(tl, 0.0)

    def test_magnitude_peaks_at_resonance(self):
        om = TWO_PI * 0.2
        tau0 = resonant_tau(om)
        n = 12
        center = filter_numeric(
            build_timeline(SequenceSpec([Block(tau0, n)])), om
        ).magnitude
        for detune in (0.9, 0.95, 1.05, 1.1):
            off = filter_numeric(
                build_timeline(SequenceSpec([Block(tau0 * detune, n)])), om
            ).magnitude
            assert off < center


class TestFilterClosedForm:
    @pytest.mark.parametrize("n_pulses", [1, 2, 5, 8, 21])
    def test_matches_numeric_over_grid(self, n_pulses):
        tau = 0.9
        for x in np.linspace(0.05, 4.0 * np.pi, 160):
            omega = x / tau
            closed = filter_cpmg_closed(n_pulses, tau, omega)
            numeric = filter_numeric(
                build_timeline(SequenceSpec([Block(tau, n_pulses)])), omega
            )
            assert closed == pytest.approx(numeric.magnitude, abs=1e-9)

    def test_resonance_matches_numeric_without_a_second_path(self):
        tau = 0.9
        omega = (np.pi / 2.0) / tau
        closed = filter_cpmg_closed(4, tau, omega)
        numeric = filter_numeric(
            build_timeline(SequenceSpec([Block(tau, 4)])), omega
        )
        assert closed == pytest.approx(numeric.magnitude, abs=1e-9)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("n_pulses", [1, 63, 10**9, 2**53])
    def test_resonance_reaches_2n_at_any_pulse_count(self, order, n_pulses):
        om = TWO_PI * 0.2
        closed = filter_cpmg_closed(n_pulses, resonant_tau(om, order), om)
        assert closed == pytest.approx(2 * n_pulses, rel=1e-12)

    @pytest.mark.parametrize(
        "tau,omega,name",
        [(np.nan, 1.0, "tau"), (np.inf, 1.0, "tau"), (1.0, np.nan, "omega"), (1.0, np.inf, "omega")],
    )
    def test_rejects_non_finite_tau_or_omega(self, tau, omega, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got "):
            filter_cpmg_closed(5, tau, omega)


class TestFilterMultiblock:
    @given(
        taus=st.lists(st.floats(0.2, 2.5), min_size=2, max_size=3),
        pulses=st.lists(st.integers(0, 9), min_size=2, max_size=3),
        omega=st.floats(0.1, 6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_whole_timeline_numeric(self, taus, pulses, omega):
        k = min(len(taus), len(pulses))
        spec = SequenceSpec(
            [Block(t, n) for t, n in zip(taus[:k], pulses[:k])]
        )
        block_wise = filter_multiblock(spec, omega)
        whole = filter_numeric(build_timeline(spec), omega)
        za = block_wise.magnitude * np.exp(1j * block_wise.phase)
        zb = whole.magnitude * np.exp(1j * whole.phase)
        assert abs(za - zb) < 1e-10

    @pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf, 0.0])
    def test_rejects_non_finite_or_zero_omega(self, omega):
        with pytest.raises(ValueError, match="^omega must be finite and nonzero, got "):
            filter_multiblock(SequenceSpec([Block(1.1, 5)]), omega)

    def test_single_block_reduces_to_numeric(self):
        spec = SequenceSpec([Block(1.1, 5)])
        a = filter_multiblock(spec, 2.3)
        b = filter_numeric(build_timeline(spec), 2.3)
        assert a.magnitude == pytest.approx(b.magnitude, abs=1e-12)


class TestLint:
    def test_moderately_split_transitions_are_clean(self):
        cluster = spin_one_preset(0.20, 0.14, 5.0 * np.sqrt(2.0))
        spec = SequenceSpec([Block(1.25, 20)])
        assert lint_resonance_overlap([cluster], spec) == []

    def test_odd_harmonic_is_flagged(self):
        cluster = star_preset([0.2, 0.6], [5.0, 5.0])
        spec = SequenceSpec([Block(1.25, 20)])
        findings = lint_resonance_overlap([cluster], spec)
        assert len(findings) == 1
        assert "(1,0)" in findings[0] and "(2,0)" in findings[0]
        assert "100%" in findings[0]

    def test_off_resonant_block_reports_nothing(self):
        cluster = spin_one_preset(0.20, 0.14, 5.0 * np.sqrt(2.0))
        spec = SequenceSpec([Block(0.9, 20)])
        assert lint_resonance_overlap([cluster], spec) == []
