"""Tests for pulse timelines, filter responses, and resonance lint."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from ddcorr.sequence import (
    Block,
    PulseTimeline,
    SequenceSpec,
    build_timeline,
    filter_multiblock,
    lint_resonance_overlap,
    resonant_tau,
)
from ddcorr.reference import filter_numeric, modulation
from ddcorr.spin_model import InputError, new_cluster, spin_one_preset, star_preset

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

    @pytest.mark.parametrize("tau,n", [(1e308, 1), (1e308, 0), (1e300, 2**53)])
    def test_block_refuses_a_duration_beyond_float_range(self, tau, n):
        with pytest.raises(ValueError, match=r"^2 \* tau \* max\(n_pulses, 1\) must be finite"):
            Block(tau, n)

    def test_spec_refuses_a_duration_beyond_float_range(self):
        block = Block(8e307, 1)
        assert SequenceSpec([block]).duration == 1.6e308
        with pytest.raises(ValueError, match="^sequence lasts beyond float range$"):
            SequenceSpec([block, block])

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


def filter_block(n_pulses, tau, omega):
    """Filter magnitude of one CPMG block at its full duration 2*N*tau."""
    return filter_multiblock(SequenceSpec([Block(tau, n_pulses)]), omega).magnitude


class TestFilterClosedForm:
    @pytest.mark.parametrize("n_pulses", [1, 2, 5, 8, 21])
    def test_matches_numeric_over_grid(self, n_pulses):
        tau = 0.9
        for x in np.linspace(0.05, 4.0 * np.pi, 160):
            omega = x / tau
            closed = filter_block(n_pulses, tau, omega)
            numeric = filter_numeric(
                build_timeline(SequenceSpec([Block(tau, n_pulses)])), omega
            )
            assert closed == pytest.approx(numeric.magnitude, abs=1e-9)

    def test_resonance_matches_numeric_without_a_second_path(self):
        tau = 0.9
        omega = (np.pi / 2.0) / tau
        closed = filter_block(4, tau, omega)
        numeric = filter_numeric(
            build_timeline(SequenceSpec([Block(tau, 4)])), omega
        )
        assert closed == pytest.approx(numeric.magnitude, abs=1e-9)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("n_pulses", [1, 63, 10**9, 2**53])
    def test_resonance_reaches_2n_at_any_pulse_count(self, order, n_pulses):
        om = TWO_PI * 0.2
        closed = filter_block(n_pulses, resonant_tau(om, order), om)
        assert closed == pytest.approx(2 * n_pulses, rel=1e-12)

    @pytest.mark.parametrize(
        "tau,omega,name",
        [(np.nan, 1.0, "tau"), (np.inf, 1.0, "tau"), (1.0, np.nan, "omega"), (1.0, np.inf, "omega")],
    )
    def test_rejects_non_finite_tau_or_omega(self, tau, omega, name):
        # Block refuses the tau, filter_multiblock the omega
        with pytest.raises(ValueError, match=f"^(block )?{name} must be finite"):
            filter_block(5, tau, omega)


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


def longdouble_filter(spec, omega):
    """omega * integral f(t) e^{i omega t} dt over the ideal flip times
    (2p - 1) * tau_i of spec, segment by segment in long double."""
    one = np.longdouble(1)
    bounds, start = [[0 * one]], 0 * one
    for block in spec.blocks:
        tau = one * block.tau
        bounds.append(start + (2 * np.arange(1, block.n_pulses + 1, dtype=np.longdouble) - 1) * tau)
        start = start + 2 * block.n_pulses * tau
    bounds = np.concatenate([*bounds, [start]])
    phases = np.exp(1j * (one * omega * bounds))
    signs = np.where(np.arange(bounds.size - 1) % 2, -one, one)
    return complex(-1j * np.sum(signs * (phases[1:] - phases[:-1])))


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is float64 here"
)
class TestFilterAccuracy:
    # Rounding omega*tau and omega*start moves each closed-form phase by
    # about N*eps, so the error grows as N^2*eps.  Over 12 random sequences
    # of 3e4 to 3.3e5 pulses, on and off resonance, it reached 4.7 N^2*eps
    # (1.0e-5), and filter_numeric's 1.2 N^2*eps.
    @pytest.mark.parametrize(
        "blocks", [[(1.25, 100_000)], [(1.25, 100_000), (1.7857, 50_001)]], ids=["one", "two"]
    )
    def test_matches_the_ideal_sequence_in_long_double(self, blocks):
        spec = SequenceSpec([Block(*b) for b in blocks])
        n = sum(block.n_pulses for block in spec.blocks)
        omegas = [0.05, 0.7, 2.9, 5.3]
        for block in spec.blocks:
            resonance = np.pi / (2 * block.tau)
            omegas += [resonance, resonance * (1 + 1.5 / block.n_pulses), 3 * resonance]
        for omega in omegas:
            got = filter_multiblock(spec, omega)
            error = abs(got.magnitude * np.exp(1j * got.phase) - longdouble_filter(spec, omega))
            assert error <= 10 * n**2 * np.finfo(float).eps, omega


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

    def test_transition_with_a_phase_beyond_float_range_is_refused(self):
        # 2 * tau * omega overflows for the (2, 0) transition
        energies = np.array([0.0, TWO_PI * 0.2, 1e308])
        cluster = new_cluster("far", energies, [(1, 0, 0.03, 0.0), (2, 0, 0.03, 0.0)])
        message = "2 pi x 1.59155e+307 MHz x 50 us is beyond the 1.5e+11 rad lint takes"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            lint_resonance_overlap([cluster], SequenceSpec([Block(1.25, 20)]))

    def test_each_block_is_bounded_by_its_own_reach(self):
        # at 0.6 MHz each 1e9-tau block reaches 7.5e10 rad and the idle block
        # is never evaluated, though the whole sequence reaches 3.8e12 rad
        cluster = star_preset([0.2, 0.6], [5.0, 5.0])
        long = [Block(1e12, 0), Block(1.25, 20)] + [Block(1e9, 10)] * 3
        findings = lint_resonance_overlap([cluster], SequenceSpec(long))
        assert findings == [
            "block 1 (tau = 1.25 us) is resonant with cluster 0 transition (1,0) "
            "but also drives cluster 0 transition (2,0) at F = 40 (100% of 2N)"
        ]
        # one block of 2e9 x 10 pulses reaches 1.51e11 rad on its own
        message = "2 pi x 0.6 MHz x 4e+10 us is beyond the 1.5e+11 rad lint takes"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            lint_resonance_overlap([cluster], SequenceSpec([Block(1.25, 20), Block(2e9, 10)]))

    def test_off_resonant_block_reports_nothing(self):
        cluster = spin_one_preset(0.20, 0.14, 5.0 * np.sqrt(2.0))
        spec = SequenceSpec([Block(0.9, 20)])
        assert lint_resonance_overlap([cluster], spec) == []
