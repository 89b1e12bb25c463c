"""Tests for the exact conditional-propagator coherence engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from ddcorr.exact import (
    coherence_cluster,
    coherence_system,
    conditional_propagator,
)
from ddcorr.sequence import (
    Block,
    PulseTimeline,
    SequenceSpec,
    build_timeline,
    resonant_tau,
)
from ddcorr.spin_model import SystemModel, new_cluster, spin_one_preset
from ddcorr.analytic import AnalyticModel

TWO_PI = 2.0 * np.pi


def random_cluster(rng, dim, label="r"):
    energies = np.sort(rng.uniform(0.0, 4.0, size=dim))
    energies += np.linspace(0.0, 0.5, dim)  # keep levels nondegenerate
    couplings = []
    for m in range(dim):
        for n in range(m):
            if rng.uniform() < 0.7:
                couplings.append(
                    (m, n, rng.uniform(0.005, 0.05), rng.uniform(0, TWO_PI))
                )
    if not couplings:
        couplings = [(1, 0, 0.02, 0.3)]
    return new_cluster(label, energies, couplings)


def random_timeline(rng, max_blocks=2):
    n_blocks = int(rng.integers(1, max_blocks + 1))
    spec = SequenceSpec(
        [
            Block(rng.uniform(0.3, 2.0), int(rng.integers(0, 7)))
            for _ in range(n_blocks)
        ]
    )
    return build_timeline(spec)


class TestConditionalPropagator:
    def test_zero_coupling_signs_agree(self):
        c = new_cluster("k", [0.0, 1.3, 2.9], [(1, 0, 0.0, 0.0)])
        tl = build_timeline(SequenceSpec([Block(0.8, 3)]))
        up = conditional_propagator(c, tl, +1)
        down = conditional_propagator(c, tl, -1)
        np.testing.assert_allclose(up, down, atol=1e-13)
        free = expm(-1j * np.diag(c.energies) * tl.total_time)
        np.testing.assert_allclose(up, free, atol=1e-12)

    def test_rejects_bad_sign(self):
        c = spin_one_preset(0.2, 0.14, 5.0)
        tl = build_timeline(SequenceSpec([Block(0.8, 2)]))
        with pytest.raises(ValueError):
            conditional_propagator(c, tl, 0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_unitary_for_random_models(self, seed):
        rng = np.random.default_rng(seed)
        c = random_cluster(rng, int(rng.integers(2, 5)))
        tl = random_timeline(rng)
        u = conditional_propagator(c, tl, +1)
        np.testing.assert_allclose(
            u @ u.conj().T, np.eye(c.dim), atol=1e-12
        )


class TestCoherence:
    def test_empty_timeline_gives_unity(self):
        c = spin_one_preset(0.2, 0.14, 5.0)
        tl = PulseTimeline(flip_times=np.array([]), total_time=0.0)
        assert coherence_cluster(c, tl) == pytest.approx(1.0, abs=1e-14)

    def test_zero_coupling_gives_unity(self):
        c = new_cluster("k", [0.0, 1.3], [(1, 0, 0.0, 0.0)])
        tl = build_timeline(SequenceSpec([Block(0.8, 4)]))
        assert coherence_cluster(c, tl) == pytest.approx(1.0, abs=1e-13)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_magnitude_bounded_by_one(self, seed):
        rng = np.random.default_rng(seed)
        c = random_cluster(rng, int(rng.integers(2, 5)))
        tl = random_timeline(rng)
        assert abs(coherence_cluster(c, tl)) <= 1.0 + 1e-12

    def test_system_coherence_is_cluster_product(self):
        rng = np.random.default_rng(3)
        a = random_cluster(rng, 3, "a")
        b = random_cluster(rng, 2, "b")
        tl = random_timeline(rng)
        system = SystemModel((a, b))
        want = coherence_cluster(a, tl) * coherence_cluster(b, tl)
        assert coherence_system(system, tl) == pytest.approx(
            want, abs=1e-14
        )


def tensor_product_cluster(c1, c2):
    """Joint cluster of two noninteracting clusters on the product space."""
    e1 = np.asarray(c1.energies)
    e2 = np.asarray(c2.energies)
    d1, d2 = len(e1), len(e2)
    energies = [e1[i] + e2[j] for i in range(d1) for j in range(d2)]
    couplings = []
    b1 = np.asarray(c1.coupling)
    b2 = np.asarray(c2.coupling)
    for m in range(d1):
        for n in range(m):
            if b1[m, n] != 0:
                for j in range(d2):
                    couplings.append(
                        (
                            m * d2 + j,
                            n * d2 + j,
                            abs(b1[m, n]),
                            float(np.angle(b1[m, n])),
                        )
                    )
    for i in range(d1):
        for m in range(d2):
            for n in range(m):
                if b2[m, n] != 0:
                    couplings.append(
                        (
                            i * d2 + m,
                            i * d2 + n,
                            abs(b2[m, n]),
                            float(np.angle(b2[m, n])),
                        )
                    )
    return new_cluster("joint", energies, couplings)


class TestFactorization:
    def test_joint_tensor_coherence_factorizes(self):
        """Coherence of a noninteracting pair equals the product of the
        single-cluster coherences, evaluated on the joint Hilbert space."""
        rng = np.random.default_rng(42)
        for _ in range(6):
            c1 = random_cluster(rng, int(rng.integers(2, 4)), "a")
            c2 = random_cluster(rng, int(rng.integers(2, 4)), "b")
            joint = tensor_product_cluster(c1, c2)
            tl = random_timeline(rng, max_blocks=2)
            joint_l = coherence_cluster(joint, tl)
            split_l = coherence_cluster(c1, tl) * coherence_cluster(c2, tl)
            assert abs(joint_l - split_l) < 1e-9


class TestRefinement:
    def test_halving_coupling_at_fixed_rotation_tightens_match(self):
        """At resonance the first-order prediction depends only on N*delta,
        so halving the coupling while doubling N must shrink the
        exact-vs-analytic gap by well over 2x."""
        om = TWO_PI * 0.2
        tau = resonant_tau(om)
        lam = 5.0 * np.sqrt(2.0)
        n = 20

        c_base = spin_one_preset(0.2, 0.14, lam)
        c_half = spin_one_preset(0.2, 0.14, lam / 2.0)
        delta = 2.0 * np.pi * (lam / 1000.0) / np.sqrt(2.0) / om

        tl_base = build_timeline(SequenceSpec([Block(tau, n)]))
        tl_half = build_timeline(SequenceSpec([Block(tau, 2 * n)]))

        want = AnalyticModel("1d", (delta,), (3,)).evaluate((n,))
        halved = AnalyticModel("1d", (delta / 2.0,), (3,)).evaluate((2 * n,))
        assert want == pytest.approx(halved, abs=1e-12)

        err_base = abs(coherence_cluster(c_base, tl_base).real - want)
        err_half = abs(coherence_cluster(c_half, tl_half).real - want)
        assert err_base < 5e-3
        assert err_half < err_base / 2.0
