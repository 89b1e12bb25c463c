"""Tests for cluster construction, presets, and transition bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ddcorr.spin_model import (
    DELTA_ERROR,
    DELTA_WARN,
    MAX_BYTES,
    SystemModel,
    TargetCluster,
    all_transitions,
    ladder_preset,
    new_cluster,
    ring_preset,
    spin_one_preset,
    star_preset,
    transition,
    validate_weak_coupling,
)

TWO_PI = 2.0 * np.pi


class TestNewCluster:
    def test_basic_construction(self):
        c = new_cluster("demo", [0.0, 1.0, 3.5], [(1, 0, 0.02, 0.0)])
        assert c.dim == 3
        assert c.label == "demo"
        np.testing.assert_allclose(c.energies, [0.0, 1.0, 3.5])

    def test_coupling_is_hermitian(self):
        c = new_cluster("demo", [0.0, 1.0], [(1, 0, 0.05, 0.7)])
        np.testing.assert_allclose(c.coupling, c.coupling.conj().T, atol=1e-15)
        assert c.coupling[1, 0] == pytest.approx(0.05 * np.exp(1j * 0.7))

    def test_rejects_out_of_range_level(self):
        with pytest.raises(ValueError):
            new_cluster("bad", [0.0, 1.0], [(2, 0, 0.05, 0.0)])

    def test_rejects_non_finite_energy(self):
        with pytest.raises(ValueError, match="must be finite"):
            new_cluster("bad", [0.0, np.nan], [(1, 0, 0.05, 0.0)])

    def test_rejects_self_coupling(self):
        with pytest.raises(ValueError):
            new_cluster("bad", [0.0, 1.0], [(1, 1, 0.05, 0.0)])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError):
            new_cluster(
                "bad", [0.0, 1.0], [(1, 0, 0.05, 0.0), (0, 1, 0.03, 0.0)]
            )

    def test_rejects_more_levels_than_its_matrices_fit(self):
        # 64 bytes per d^2: 8192 levels fill MAX_BYTES, 8193 overflow it
        assert 8192**2 * 64 == MAX_BYTES
        with pytest.raises(ValueError, match="^8193 levels need about 4 GiB as d x d matrices"):
            new_cluster("big", np.arange(8193.0), [])
        # the presets build through new_cluster
        with pytest.raises(ValueError, match="^8193 levels need about"):
            ladder_preset([0.1] * 8192, [None] * 8192)

    def test_arrays_are_read_only(self):
        c = new_cluster("demo", [0.0, 1.0], [(1, 0, 0.05, 0.0)])
        with pytest.raises((ValueError, RuntimeError)):
            c.energies[0] = 99.0

    def test_equality_by_value(self):
        a = new_cluster("x", [0.0, 1.0], [(1, 0, 0.05, 0.0)])
        b = new_cluster("x", [0.0, 1.0], [(1, 0, 0.05, 0.0)])
        c = new_cluster("x", [0.0, 1.1], [(1, 0, 0.05, 0.0)])
        assert a == b
        assert a != c


class TestSpinOnePreset:
    def test_level_energies(self):
        c = spin_one_preset(0.20, 0.14, 5.0)
        # ordering |-1>, |0>, |+1> with the zero level in the middle
        np.testing.assert_allclose(
            c.energies, [TWO_PI * 0.14, 0.0, TWO_PI * 0.20]
        )

    def test_couplings_share_central_level(self):
        c = spin_one_preset(0.20, 0.14, 5.0)
        amp = TWO_PI * (5.0 / 1000.0) / np.sqrt(2.0)
        assert abs(c.coupling[0, 1]) == pytest.approx(amp)
        assert abs(c.coupling[2, 1]) == pytest.approx(amp)
        assert c.coupling[2, 0] == 0.0

    def test_transition_frequencies(self):
        c = spin_one_preset(0.20, 0.14, 5.0)
        up = transition(c, 2, 1)
        down = transition(c, 0, 1)
        assert up.omega == pytest.approx(TWO_PI * 0.20)
        assert down.omega == pytest.approx(TWO_PI * 0.14)


class TestLadderPreset:
    def test_cumulative_energies(self):
        c = ladder_preset([0.20, 0.14, 0.30], [5.0, 5.04, None])
        expected = TWO_PI * np.array([0.0, 0.20, 0.34, 0.64])
        np.testing.assert_allclose(c.energies, expected)

    def test_dark_rung_has_no_coupling(self):
        c = ladder_preset([0.20, 0.14, 0.30], [5.0, 5.04, None])
        assert c.coupling[3, 2] == 0.0
        assert abs(c.coupling[1, 0]) > 0.0
        assert abs(c.coupling[2, 1]) > 0.0

    def test_rung_count_mismatch(self):
        with pytest.raises(ValueError):
            ladder_preset([0.20, 0.14], [5.0])


class TestRingPreset:
    def test_three_transitions_close(self):
        c = ring_preset(0.34, 0.14, [5.0, 5.04, 4.98])
        t_a = transition(c, 2, 0)
        t_b = transition(c, 1, 0)
        t_c = transition(c, 2, 1)
        assert t_a.omega == pytest.approx(TWO_PI * 0.34)
        assert t_b.omega == pytest.approx(TWO_PI * 0.14)
        assert t_c.omega == pytest.approx(t_a.omega - t_b.omega)

    def test_rejects_degenerate_split(self):
        with pytest.raises(ValueError):
            ring_preset(0.28, 0.14, [5.0, 5.0, 5.0])


class TestStarPreset:
    def test_hub_and_satellites(self):
        c = star_preset([0.20, 0.14, 0.06], [5.0, 5.04, 4.98])
        assert c.dim == 4
        for i, f in enumerate([0.20, 0.14, 0.06]):
            t = transition(c, i + 1, 0)
            assert t.omega == pytest.approx(TWO_PI * f)
        # satellites are not coupled to each other
        assert c.coupling[2, 1] == 0.0
        assert c.coupling[3, 1] == 0.0
        assert c.coupling[3, 2] == 0.0


class TestTransition:
    def test_orients_to_positive_frequency(self):
        c = new_cluster("demo", [0.0, TWO_PI * 0.2], [(1, 0, 0.05, 0.3)])
        t = transition(c, 0, 1)
        assert t.m == 1 and t.n == 0
        assert t.omega > 0

    def test_delta_is_amplitude_over_frequency(self):
        c = new_cluster("demo", [0.0, TWO_PI * 0.2], [(1, 0, 0.05, 0.0)])
        t = transition(c, 1, 0)
        assert t.delta == pytest.approx(0.05 / (TWO_PI * 0.2))

    def test_kappa_matches_coupling_phase(self):
        c = new_cluster("demo", [0.0, TWO_PI * 0.2], [(1, 0, 0.05, 0.3)])
        t = transition(c, 1, 0)
        assert t.kappa == pytest.approx(0.3)

    def test_rejects_uncoupled_pair(self):
        c = new_cluster(
            "demo", [0.0, 1.0, 2.0], [(1, 0, 0.05, 0.0)]
        )
        with pytest.raises(ValueError):
            transition(c, 2, 0)

    def test_rejects_degenerate_pair(self):
        c = new_cluster("demo", [1.0, 1.0], [(1, 0, 0.05, 0.0)])
        with pytest.raises(ValueError):
            transition(c, 1, 0)

    def test_all_transitions_covers_coupled_pairs(self):
        c = ring_preset(0.34, 0.14, [5.0, 5.04, 4.98])
        ts = all_transitions(c)
        assert len(ts) == 3
        freqs = sorted(t.omega / TWO_PI for t in ts)
        np.testing.assert_allclose(freqs, [0.14, 0.20, 0.34], atol=1e-12)

    def test_all_transitions_skips_dark_rung(self):
        c = ladder_preset([0.20, 0.14, 0.30], [5.0, 5.04, None])
        pairs = {(t.m, t.n) for t in all_transitions(c)}
        assert pairs == {(1, 0), (2, 1)}

    @pytest.mark.parametrize("seed", range(20))
    def test_all_transitions_matches_the_pair_loop(self, seed):
        # random clusters with dark pairs and degenerate levels
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        energies = rng.choice([0.0, 0.5, 1.3, 2.0, 2.7], size=d)
        couplings = [
            (m, n, rng.uniform(0.01, 0.1), rng.uniform(0, TWO_PI))
            for m in range(d)
            for n in range(m)
            if rng.uniform() < 0.5
        ]
        c = new_cluster("r", energies, couplings)
        want = [
            transition(c, m, n)
            for m in range(d)
            for n in range(m)
            if c.coupling[m, n] != 0 and c.energies[m] != c.energies[n]
        ]
        assert all_transitions(c) == want


class TestValidateWeakCoupling:
    def test_clean_cluster_passes(self):
        c = spin_one_preset(0.20, 0.14, 5.0)
        assert validate_weak_coupling(c) == []

    def test_warns_on_moderate_ratio(self):
        c = new_cluster(
            "warn",
            [0.0, TWO_PI * 0.2],
            [(1, 0, 0.5 * TWO_PI * 0.2 * DELTA_WARN * 1.2 * 2, 0.0)],
        )
        findings = validate_weak_coupling(c)
        assert len(findings) == 1
        assert "delta" in findings[0].lower()

    def test_errors_on_strong_coupling(self):
        c = new_cluster(
            "strong",
            [0.0, TWO_PI * 0.2],
            [(1, 0, TWO_PI * 0.2 * DELTA_ERROR * 1.5, 0.0)],
        )
        findings = validate_weak_coupling(c)
        assert len(findings) == 1
        assert findings[0].startswith("error")


class TestSystemModel:
    def test_holds_multiple_clusters(self):
        a = spin_one_preset(0.20, 0.14, 5.0)
        b = ring_preset(0.34, 0.14, [5.0, 5.04, 4.98])
        sys = SystemModel((a, b))
        assert len(sys.clusters) == 2

    def test_rejects_empty_system(self):
        with pytest.raises(ValueError):
            SystemModel(())


@given(
    shift=st.floats(-5.0, 5.0, allow_nan=False),
    f=st.floats(0.05, 1.0),
    amp=st.floats(1e-4, 1e-2),
)
def test_transition_invariant_under_energy_shift(shift, f, amp):
    """A global energy offset must not change any transition parameter."""
    base = new_cluster("a", [0.0, TWO_PI * f], [(1, 0, amp, 0.4)])
    moved = new_cluster(
        "a", [shift, shift + TWO_PI * f], [(1, 0, amp, 0.4)]
    )
    t0 = transition(base, 1, 0)
    t1 = transition(moved, 1, 0)
    assert t1.omega == pytest.approx(t0.omega, rel=1e-12, abs=1e-12)
    assert t1.delta == pytest.approx(t0.delta, rel=1e-12)
    assert t1.kappa == pytest.approx(t0.kappa, rel=1e-12)


@given(
    f_a=st.floats(0.5, 1.0),
    f_b=st.floats(0.05, 0.45),
    lam=st.floats(0.1, 20.0),
)
def test_spin_one_hamiltonian_is_hermitian(f_a, f_b, lam):
    c = spin_one_preset(f_a, f_b, lam)
    h = np.diag(c.energies) + c.coupling
    np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
