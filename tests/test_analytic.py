"""Tests for first-order dip formulas against their trace oracles, and for
the second-order Magnus model against the exact propagators."""

import itertools

import numpy as np
import pytest

from ddcorr.analytic import (
    DipParams,
    Topology,
    dip_1d,
    dip_2d,
    dip_3d,
    dip_trace_2d,
    dip_trace_3d,
    magnus_coherence,
    magnus_generator,
    magnus_rotation,
    minima,
    pulse_period,
)
from ddcorr.exact import coherence_system, conditional_propagator
from ddcorr.sequence import Block, SequenceSpec, build_timeline, resonant_tau
from ddcorr.spin_model import (
    SystemModel,
    ladder_preset,
    new_cluster,
    ring_preset,
    spin_one_preset,
    star_preset,
    transition,
)

TWO_PI = 2.0 * np.pi


def ladder_2d_correlated():
    c = ladder_preset([0.20, 0.14, 0.30], [5.0, 5.04, None])
    return c, [(1, 0), (2, 1)]

def ladder_2d_uncorrelated():
    c = ladder_preset([0.20, 0.30, 0.14], [5.0, None, 5.04])
    return c, [(1, 0), (3, 2)]

def cluster_ring():
    c = ring_preset(0.34, 0.14, [5.0, 5.04, 4.98])
    return c, [(2, 0), (1, 0), (2, 1)]

def cluster_star():
    c = star_preset([0.20, 0.14, 0.06], [5.0, 5.04, 4.98])
    return c, [(1, 0), (2, 0), (3, 0)]

def cluster_linked():
    c = ladder_preset([0.20, 0.14, 0.30], [5.0, 5.04, 4.98])
    return c, [(1, 0), (2, 1), (3, 2)]

def cluster_unlinked():
    c = ladder_preset([0.20, 0.30, 0.14, 0.06], [5.0, None, 5.04, 4.98])
    return c, [(1, 0), (3, 2), (4, 3)]

def cluster_uncorrelated_3d():
    c = ladder_preset(
        [0.20, 0.35, 0.14, 0.27, 0.06], [5.0, None, 5.04, None, 4.98]
    )
    return c, [(1, 0), (3, 2), (5, 4)]


def deltas_of(cluster, pairs):
    return tuple(transition(cluster, m, n).delta for m, n in pairs)


class TestMagnusRotation:
    def test_zero_pulses_is_identity(self):
        c = spin_one_preset(0.20, 0.14, 5.0)
        np.testing.assert_allclose(
            magnus_rotation(c, 2, 1, 0), np.eye(3), atol=1e-15
        )

    def test_block_structure(self):
        c = new_cluster(
            "k", [0.0, TWO_PI * 0.2, TWO_PI * 0.5], [(1, 0, 0.03, 0.4)]
        )
        n = 11
        delta = transition(c, 1, 0).delta
        theta = n * delta
        u = magnus_rotation(c, 1, 0, n)
        assert u[2, 2] == 1.0
        assert u[0, 0] == pytest.approx(np.cos(theta))
        assert u[1, 1] == pytest.approx(np.cos(theta))
        want_10 = -1j * np.exp(0.4j) * np.sin(theta)
        assert u[1, 0] == pytest.approx(want_10, abs=1e-14)
        assert u[0, 1] == pytest.approx(
            -1j * np.exp(-0.4j) * np.sin(theta), abs=1e-14
        )

    def test_level_order_is_normalized(self):
        c = spin_one_preset(0.20, 0.14, 5.0)
        np.testing.assert_allclose(
            magnus_rotation(c, 2, 1, 7), magnus_rotation(c, 1, 2, 7)
        )

    def test_unitary(self):
        c = spin_one_preset(0.20, 0.14, 5.0)
        u = magnus_rotation(c, 0, 1, 13)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-14)

    def test_trace_identity(self):
        c = spin_one_preset(0.20, 0.14, 5.0)
        delta = transition(c, 2, 1).delta
        for n in (0, 5, 40, 63):
            got = np.trace(magnus_rotation(c, 2, 1, 2 * n)).real / 3
            assert got == pytest.approx(dip_1d(3, delta, n), abs=1e-14)


def shared_level_cluster(scale):
    """Three levels, both transitions coupled through level 1, with phases."""
    amp = TWO_PI * 5e-3 * scale
    return new_cluster(
        "v",
        [0.0, TWO_PI * 0.20, TWO_PI * 0.34],
        [(1, 0, amp, 0.4), (2, 1, 1.2 * amp, -1.1)],
    )


class TestMagnusGenerator:
    def test_zero_pulses_and_skew_hermitian(self):
        c = shared_level_cluster(1.0)
        for term in magnus_generator(c, 1.25, 0):
            np.testing.assert_array_equal(term, np.zeros((3, 3)))
        for term in magnus_generator(c, 1.25, 7):
            np.testing.assert_allclose(term, -term.conj().T, atol=1e-15)

    @pytest.mark.parametrize("splitting", [None, 0.0, 1e-4])
    def test_matches_log_of_exact_block_propagator(self, splitting):
        """splitting None: a four-level ladder; otherwise a coupled pair
        split by that much (rad/us) next to a 0.2 MHz transition, which
        exercises the omega -> 0 limits."""
        logm = pytest.importorskip("scipy.linalg").logm
        tau, n_pulses = resonant_tau(TWO_PI * 0.20), 6
        timeline = build_timeline(SequenceSpec([Block(tau, n_pulses)]))
        first_res, second_res = [], []
        for scale in (1.0, 0.5):
            if splitting is None:
                c = ladder_preset(
                    [0.20, 0.14, 0.30], [5.0 * scale, 5.04 * scale, 3.0 * scale]
                )
            else:
                amp = TWO_PI * 5e-3 * scale
                c = new_cluster(
                    "pair",
                    [0.0, splitting, TWO_PI * 0.20],
                    [(1, 0, amp, 0.3), (2, 1, amp, 0.0), (2, 0, 0.8 * amp, 0.0)],
                )
            omega1, omega2 = magnus_generator(c, tau, n_pulses)
            frame = np.diag(np.exp(1j * c.energies * timeline.total_time))
            for sign in (1, -1):
                log_v = logm(frame @ conditional_propagator(c, timeline, sign))
                first_res.append(np.abs(log_v - sign * omega1).max())
                second_res.append(np.abs(log_v - sign * omega1 - omega2).max())
        # per branch: first order leaves O(eps^2), second order O(eps^3)
        for k in (0, 1):
            assert first_res[k] / first_res[k + 2] < 4.5
            assert second_res[k] / second_res[k + 2] > 7.0
            assert second_res[k] < 0.05 * first_res[k]

    def test_resonant_first_order_part_is_magnus_rotation(self):
        expm = pytest.importorskip("scipy.linalg").expm
        for scale in (1.0, 0.5):
            c = shared_level_cluster(scale)
            for (m, n), n_pulses in (((1, 0), 40), ((2, 1), 26)):
                omega = c.energies[m] - c.energies[n]
                omega1, _ = magnus_generator(c, resonant_tau(omega), n_pulses)
                resonant = np.zeros_like(omega1)
                resonant[[m, n], [n, m]] = omega1[[m, n], [n, m]]
                np.testing.assert_allclose(
                    expm(resonant), magnus_rotation(c, m, n, n_pulses), atol=1e-12
                )

    def test_coherence_converges_to_exact_at_third_order(self):
        rng = np.random.default_rng(11)
        taus = rng.uniform(0.5, 2.0, size=3)
        counts = np.vstack([[0, 0, 0], rng.integers(0, 9, size=(8, 3))])
        worst = []
        for scale in (0.25, 0.125):
            system = SystemModel((
                ladder_preset([0.20, 0.14, 0.30], [20 * scale, 15 * scale, 10 * scale]),
                ring_preset(0.34, 0.14, [12 * scale, (9 * scale, 0.7), 8 * scale]),
            ))
            got = magnus_coherence(system, taus, counts)
            assert got[0] == pytest.approx(1.0, abs=1e-14)
            assert np.all(np.abs(got) <= 1.0 + 1e-12)
            want = [
                coherence_system(system, build_timeline(
                    SequenceSpec([Block(t, int(n)) for t, n in zip(taus, row)])
                ))
                for row in counts
            ]
            worst.append(np.abs(got - want).max())
        assert worst[0] / worst[1] > 8.0


class TestDip1D:
    def test_unit_at_zero_pulses(self):
        assert dip_1d(3, 0.025, 0) == pytest.approx(1.0)

    def test_known_values(self):
        assert dip_1d(3, 0.025, 20) == pytest.approx(
            (1 + 2 * np.cos(1.0)) / 3
        )
        assert dip_1d(3, 0.025, 63) == pytest.approx(-1.0 / 3.0, abs=1e-4)

    def test_two_level_floor(self):
        delta = 0.02
        n_half = np.pi / (2 * delta)
        assert dip_1d(2, delta, n_half) == pytest.approx(-1.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            dip_1d(1, 0.02, 5)
        with pytest.raises(ValueError):
            dip_1d(3, 0.0, 5)


class TestDip2D:
    def test_correlated_known_value(self):
        params = DipParams(3, (0.025, 0.036), (63, 44))
        got = dip_2d(Topology("2d-correlated"), params)
        assert got == pytest.approx(-1.0 / 3.0, abs=1e-3)

    def test_uncorrelated_floor_at_half_period(self):
        d1, d2 = 0.025, 0.036
        params = DipParams(
            4, (d1, d2), (np.pi / (2 * d1), np.pi / (2 * d2))
        )
        assert dip_2d(Topology("2d-uncorrelated"), params) == pytest.approx(
            -1.0
        )
        assert dip_2d(Topology("2d-correlated"), params) == pytest.approx(0.0)

    def test_independent_molecules_is_product(self):
        params = DipParams(6, (0.02, 0.03), (17, 11))
        got = dip_2d(Topology("2d-independent", (2, 3)), params)
        want = dip_1d(2, 0.02, 17) * dip_1d(3, 0.03, 11)
        assert got == pytest.approx(want, abs=1e-14)

    def test_independent_molecules_dimension_guard(self):
        params = DipParams(5, (0.02, 0.03), (17, 11))
        with pytest.raises(ValueError):
            dip_2d(Topology("2d-independent", (2, 3)), params)

    def test_minimum_dimension_guard(self):
        with pytest.raises(ValueError):
            dip_2d(
                Topology("2d-uncorrelated"),
                DipParams(3, (0.02, 0.03), (1, 1)),
            )
        with pytest.raises(ValueError):
            dip_2d(
                Topology("2d-correlated"), DipParams(2, (0.02, 0.03), (1, 1))
            )

    def test_exchange_symmetry(self):
        for topo in (Topology("2d-correlated"), Topology("2d-uncorrelated")):
            a = dip_2d(topo, DipParams(4, (0.02, 0.031), (9, 23)))
            b = dip_2d(topo, DipParams(4, (0.031, 0.02), (23, 9)))
            assert a == pytest.approx(b, abs=1e-14)


class TestTraceOracle2D:
    """The closed 2D forms must reproduce the first-order trace exactly."""

    @pytest.mark.parametrize(
        "make,kind,d",
        [
            (ladder_2d_correlated, "correlated", 4),
            (ladder_2d_uncorrelated, "uncorrelated", 4),
        ],
    )
    def test_closed_form_equals_trace_on_grid(self, make, kind, d):
        cluster, pairs = make()
        deltas = deltas_of(cluster, pairs)
        topo = Topology(f"2d-{kind}")
        worst = 0.0
        for n1 in range(0, 40, 2):
            for n2 in range(0, 40, 2):
                trace = dip_trace_2d(cluster, pairs[0], pairs[1], n1, n2)
                closed = dip_2d(topo, DipParams(d, deltas, (n1, n2)))
                worst = max(worst, abs(trace.real - closed))
        assert worst < 1e-10

    def test_spin_one_matches_correlated_form(self):
        cluster = spin_one_preset(0.20, 0.14, 5.0 * np.sqrt(2.0))
        pairs = [(2, 1), (0, 1)]
        deltas = deltas_of(cluster, pairs)
        for n1, n2 in [(0, 0), (10, 6), (31, 17), (63, 44)]:
            trace = dip_trace_2d(cluster, pairs[0], pairs[1], n1, n2)
            closed = dip_2d(
                Topology("2d-correlated"), DipParams(3, deltas, (n1, n2))
            )
            assert trace.real == pytest.approx(closed, abs=1e-12)

    def test_trace_is_phase_blind(self):
        plain = ladder_preset([0.20, 0.14, 0.30], [5.0, 5.04, None])
        rng = np.random.default_rng(5)
        phased = new_cluster(
            "phased",
            plain.energies,
            [
                (1, 0, abs(plain.coupling[1, 0]), rng.uniform(0, TWO_PI)),
                (2, 1, abs(plain.coupling[2, 1]), rng.uniform(0, TWO_PI)),
            ],
        )
        for n1, n2 in [(8, 4), (25, 30), (63, 44)]:
            a = dip_trace_2d(plain, (1, 0), (2, 1), n1, n2).real
            b = dip_trace_2d(phased, (1, 0), (2, 1), n1, n2).real
            assert a == pytest.approx(b, abs=1e-12)


class TestTraceOracle3D:
    @pytest.mark.parametrize(
        "make,kind,d",
        [
            (cluster_ring, "ring", 3),
            (cluster_star, "star", 4),
            (cluster_linked, "linked_ladder", 4),
            (cluster_unlinked, "unlinked_ladder", 5),
            (cluster_uncorrelated_3d, "uncorrelated", 6),
        ],
    )
    def test_closed_form_equals_trace_on_grid(self, make, kind, d):
        cluster, pairs = make()
        deltas = deltas_of(cluster, pairs)
        topo = Topology("3d-" + kind.replace("_", "-"))
        worst = 0.0
        for n1 in range(0, 40, 2):
            for n2 in range(0, 40, 2):
                for n3 in range(0, 10, 2):
                    trace = dip_trace_3d(cluster, pairs, n1, n2, n3)
                    closed = dip_3d(
                        topo, DipParams(d, deltas, (n1, n2, n3))
                    )
                    worst = max(worst, abs(trace.real - closed))
        assert worst < 1e-10

    def test_middle_off_reductions(self):
        """With the middle transition idle the chain forms reduce to the
        matching 2D forms; with the last one idle too, to the 1D dip."""
        cases = [
            (cluster_linked, "linked_ladder", 4, Topology("2d-uncorrelated")),
            (cluster_unlinked, "unlinked_ladder", 5, Topology("2d-uncorrelated")),
            (cluster_ring, "ring", 3, Topology("2d-correlated")),
            (cluster_star, "star", 4, Topology("2d-correlated")),
        ]
        for make, kind, d, reduced in cases:
            _, pairs = make()
            cluster, _ = make()
            deltas = deltas_of(cluster, pairs)
            topo = Topology("3d-" + kind.replace("_", "-"))
            for n1 in (0, 9, 22, 41):
                for n3 in (0, 7, 30):
                    full = dip_3d(topo, DipParams(d, deltas, (n1, 0, n3)))
                    two = dip_2d(
                        reduced,
                        DipParams(
                            d,
                            (deltas[0], deltas[2]),
                            (n1, n3),
                        ),
                    )
                    assert full == pytest.approx(two, abs=1e-12)
                solo = dip_3d(topo, DipParams(d, deltas, (n1, 0, 0)))
                assert solo == pytest.approx(
                    dip_1d(d, deltas[0], n1), abs=1e-12
                )

    def test_trace_is_phase_blind(self):
        base, pairs = cluster_linked()
        rng = np.random.default_rng(11)
        phased = new_cluster(
            "phased",
            base.energies,
            [
                (m, n, abs(base.coupling[m, n]), rng.uniform(0, TWO_PI))
                for m, n in pairs
            ],
        )
        for ns in [(4, 8, 2), (20, 14, 40), (63, 44, 12)]:
            a = dip_trace_3d(base, pairs, *ns).real
            b = dip_trace_3d(phased, pairs, *ns).real
            assert a == pytest.approx(b, abs=1e-12)

    def test_independent_is_product(self):
        params = DipParams(8, (0.02, 0.03, 0.01), (5, 9, 13))
        got = dip_3d(Topology("3d-independent", (2, 2, 2)), params)
        want = (
            dip_1d(2, 0.02, 5) * dip_1d(2, 0.03, 9) * dip_1d(2, 0.01, 13)
        )
        assert got == pytest.approx(want, abs=1e-14)


class TestPeriodicityAndParity:
    def test_dip_1d_periodic_in_pulse_period(self):
        delta = 0.025
        period = pulse_period(delta).exact
        for n in (0.0, 13.0, 50.5):
            assert dip_1d(3, delta, n + period) == pytest.approx(
                dip_1d(3, delta, n), abs=1e-12
            )

    def test_traces_periodic_per_axis(self):
        cluster, pairs = ladder_2d_correlated()
        deltas = deltas_of(cluster, pairs)
        base = dip_trace_2d(cluster, pairs[0], pairs[1], 7, 12).real
        shifted = dip_trace_2d(
            cluster, pairs[0], pairs[1], 7 + np.pi / deltas[0], 12
        ).real
        assert shifted == pytest.approx(base, abs=1e-10)


class TestPulsePeriod:
    def test_known_values(self):
        p = pulse_period(0.025)
        assert p.exact == pytest.approx(125.664, abs=5e-4)
        assert p.even == 126
        p = pulse_period(0.036)
        assert p.exact == pytest.approx(87.266, abs=5e-4)
        assert p.even == 88

    def test_exact_even_period(self):
        p = pulse_period(np.pi / 100.0)
        assert p.exact == pytest.approx(100.0, abs=1e-12)
        assert p.even == 100

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            pulse_period(0.0)


class TestMinima:
    def test_quoted_values(self):
        assert minima(Topology("2d-uncorrelated"), 4) == pytest.approx(-1.0)
        assert minima(Topology("2d-correlated"), 4) == pytest.approx(0.0)
        assert minima(Topology("1d"), 3) == pytest.approx(-1.0 / 3.0)

    def test_dimension_scaling(self):
        for d in range(3, 9):
            assert minima(Topology("1d"), d) == pytest.approx((d - 4) / d)
        for d in range(4, 9):
            assert minima(Topology("2d-uncorrelated"), d) == pytest.approx(
                (d - 8) / d
            )
        for d in range(3, 9):
            assert minima(Topology("2d-correlated"), d) == pytest.approx(
                (d - 4) / d
            )

    def test_3d_values(self):
        assert minima(Topology("3d-ring"), 3) == pytest.approx(-1.0 / 3.0)
        assert minima(Topology("3d-star"), 4) == pytest.approx(0.0)
        assert minima(Topology("3d-linked-ladder"), 4) == pytest.approx(-1.0)
        assert minima(Topology("3d-unlinked-ladder"), 5) == pytest.approx(
            -3.0 / 5.0
        )
        assert minima(Topology("3d-uncorrelated"), 6) == pytest.approx(-1.0)

    def test_independent_molecules_corner_product(self):
        assert minima(
            Topology("2d-independent", (2, 2)), 4
        ) == pytest.approx(-1.0)
        assert minima(
            Topology("2d-independent", (3, 5)), 15
        ) == pytest.approx(-1.0 / 3.0)

    def test_2d_minima_are_attained_and_global(self):
        """Brute-force check that the quoted minima really floor the closed
        forms over real pulse counts, and are hit at half-period driving."""
        delta = 0.02
        period = np.pi / delta
        grid = np.linspace(0.0, period, 241)
        for topo, d in [
            (Topology("2d-uncorrelated"), 4),
            (Topology("2d-uncorrelated"), 6),
            (Topology("2d-correlated"), 3),
            (Topology("2d-correlated"), 4),
        ]:
            floor = minima(topo, d)
            best = min(
                dip_2d(topo, DipParams(d, (delta, delta), (n1, n2)))
                for n1 in grid
                for n2 in grid
            )
            assert best >= floor - 1e-9
            half = period / 2.0
            at_half = dip_2d(topo, DipParams(d, (delta, delta), (half, half)))
            assert at_half == pytest.approx(floor, abs=1e-9)

    def test_3d_minima_are_attained_and_global(self):
        delta = 0.02
        period = np.pi / delta
        grid = np.linspace(0.0, period, 49)
        for topo, d in [
            (Topology("3d-ring"), 3),
            (Topology("3d-star"), 4),
            (Topology("3d-linked-ladder"), 4),
            (Topology("3d-unlinked-ladder"), 5),
            (Topology("3d-uncorrelated"), 6),
        ]:
            floor = minima(topo, d)
            best = min(
                dip_3d(topo, DipParams(d, (delta,) * 3, (n1, n2, n3)))
                for n1 in grid
                for n2 in grid
                for n3 in grid
            )
            assert best >= floor - 1e-9
            assert best <= floor + 0.05


class TestValidation:
    def test_unknown_topology_kind(self):
        with pytest.raises(ValueError):
            Topology("diagonal")
        with pytest.raises(ValueError):
            Topology("chain")

    def test_payload_only_for_independent(self):
        with pytest.raises(ValueError):
            Topology("2d-correlated", (3,))
        with pytest.raises(ValueError):
            Topology("3d-ring", (3,))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            DipParams(1, (0.02,), (3,))
        with pytest.raises(ValueError):
            DipParams(3, (0.02, 0.03), (3,))
        with pytest.raises(ValueError):
            DipParams(3, (-0.02,), (3,))
        with pytest.raises(ValueError):
            DipParams(3, (0.02,), (-3,))

    def test_dip_3d_dimension_guards(self):
        with pytest.raises(ValueError):
            dip_3d(
                Topology("3d-uncorrelated"),
                DipParams(5, (0.02,) * 3, (1, 1, 1)),
            )
        with pytest.raises(ValueError):
            dip_3d(
                Topology("3d-unlinked-ladder"),
                DipParams(4, (0.02,) * 3, (1, 1, 1)),
            )
        with pytest.raises(ValueError):
            dip_3d(Topology("3d-ring"), DipParams(2, (0.02,) * 3, (1, 1, 1)))
