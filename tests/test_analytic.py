"""Tests for first-order dip formulas against their trace oracles, and for
the second-order Magnus model against the exact propagators."""

import itertools
import math
import re

import numpy as np
import pytest
from mpmath import mp, mpf

from ddcorr.analytic import (
    TOPOLOGIES,
    AnalyticModel,
    magnus_coherence,
    magnus_generator,
    minima,
    pulse_period,
)
from ddcorr.exact import coherence_system, conditional_propagator
from ddcorr.reference import dip_trace_2d, dip_trace_3d, magnus_rotation
from ddcorr.sequence import Block, SequenceSpec, build_timeline, resonant_tau
from ddcorr.spin_model import (
    InputError,
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
            want = AnalyticModel("1d", (delta,), (3,)).evaluate((n,))
            assert got == pytest.approx(want, abs=1e-14)


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
        assert AnalyticModel("1d", (0.025,), (3,)).evaluate((0,)) == pytest.approx(1.0)

    def test_known_values(self):
        model = AnalyticModel("1d", (0.025,), (3,))
        assert model.evaluate((20,)) == pytest.approx((1 + 2 * np.cos(1.0)) / 3)
        assert model.evaluate((63,)) == pytest.approx(-1.0 / 3.0, abs=1e-4)

    def test_two_level_floor(self):
        delta = 0.02
        n_half = np.pi / (2 * delta)
        assert AnalyticModel("1d", (delta,), (2,)).evaluate((n_half,)) == pytest.approx(-1.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            AnalyticModel("1d", (0.02,), (1,)).evaluate((5,))
        with pytest.raises(ValueError):
            AnalyticModel("1d", (0.0,), (3,)).evaluate((5,))

    def test_rejects_non_finite_delta(self):
        with pytest.raises(ValueError, match="delta must be finite"):
            AnalyticModel("1d", (np.nan,), (4,)).evaluate((2,))

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match=r"pulse counts must be finite and >= 0, got \(-5.0,\)"):
            AnalyticModel("1d", (0.02,), (3,)).evaluate((-5,))


class TestDip2D:
    def test_correlated_known_value(self):
        model = AnalyticModel("2d-correlated", (0.025, 0.036), (3,))
        got = model.evaluate((63, 44))
        assert got == pytest.approx(-1.0 / 3.0, abs=1e-3)

    def test_params_reject_non_finite_delta(self):
        with pytest.raises(ValueError, match="every delta must be finite"):
            AnalyticModel("1d", (np.nan,), (4,)).evaluate((2,))

    def test_uncorrelated_floor_at_half_period(self):
        d1, d2 = 0.025, 0.036
        pulses = (np.pi / (2 * d1), np.pi / (2 * d2))
        uncorrelated = AnalyticModel("2d-uncorrelated", (d1, d2), (4,))
        assert uncorrelated.evaluate(pulses) == pytest.approx(-1.0)
        correlated = AnalyticModel("2d-correlated", (d1, d2), (4,))
        assert correlated.evaluate(pulses) == pytest.approx(0.0)

    def test_independent_molecules_is_product(self):
        model = AnalyticModel("2d-independent", (0.02, 0.03), (2, 3))
        got = model.evaluate((17, 11))
        first = AnalyticModel("1d", (0.02,), (2,)).evaluate((17,))
        want = first * AnalyticModel("1d", (0.03,), (3,)).evaluate((11,))
        assert got == pytest.approx(want, abs=1e-14)

    def test_independent_molecules_dimension_guard(self):
        with pytest.raises(ValueError):
            AnalyticModel("2d-independent", (0.02, 0.03), (1, 3)).evaluate((17, 11))
        with pytest.raises(ValueError):
            AnalyticModel("2d-independent", (0.02, 0.03), (6,)).evaluate((17, 11))

    def test_minimum_dimension_guard(self):
        with pytest.raises(ValueError):
            AnalyticModel("2d-uncorrelated", (0.02, 0.03), (3,)).evaluate((1, 1))
        with pytest.raises(ValueError):
            AnalyticModel("2d-correlated", (0.02, 0.03), (2,)).evaluate((1, 1))

    def test_exchange_symmetry(self):
        for topo in ("2d-correlated", "2d-uncorrelated"):
            a = AnalyticModel(topo, (0.02, 0.031), (4,)).evaluate((9, 23))
            b = AnalyticModel(topo, (0.031, 0.02), (4,)).evaluate((23, 9))
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
        topo = f"2d-{kind}"
        worst = 0.0
        for n1 in range(0, 40, 2):
            for n2 in range(0, 40, 2):
                trace = dip_trace_2d(cluster, pairs[0], pairs[1], n1, n2)
                closed = AnalyticModel(topo, deltas, (d,)).evaluate((n1, n2))
                worst = max(worst, abs(trace.real - closed))
        assert worst < 1e-10

    def test_spin_one_matches_correlated_form(self):
        cluster = spin_one_preset(0.20, 0.14, 5.0 * np.sqrt(2.0))
        pairs = [(2, 1), (0, 1)]
        deltas = deltas_of(cluster, pairs)
        for n1, n2 in [(0, 0), (10, 6), (31, 17), (63, 44)]:
            trace = dip_trace_2d(cluster, pairs[0], pairs[1], n1, n2)
            closed = AnalyticModel("2d-correlated", deltas, (3,)).evaluate((n1, n2))
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
        topo = "3d-" + kind.replace("_", "-")
        worst = 0.0
        for n1 in range(0, 40, 2):
            for n2 in range(0, 40, 2):
                for n3 in range(0, 10, 2):
                    trace = dip_trace_3d(cluster, pairs, n1, n2, n3)
                    closed = AnalyticModel(topo, deltas, (d,)).evaluate((n1, n2, n3))
                    worst = max(worst, abs(trace.real - closed))
        assert worst < 1e-10

    def test_middle_off_reductions(self):
        """With the middle transition idle the chain forms reduce to the
        matching 2D forms; with the last one idle too, to the 1D dip."""
        cases = [
            (cluster_linked, "linked_ladder", 4, "2d-uncorrelated"),
            (cluster_unlinked, "unlinked_ladder", 5, "2d-uncorrelated"),
            (cluster_ring, "ring", 3, "2d-correlated"),
            (cluster_star, "star", 4, "2d-correlated"),
        ]
        for make, kind, d, reduced in cases:
            _, pairs = make()
            cluster, _ = make()
            deltas = deltas_of(cluster, pairs)
            topo = "3d-" + kind.replace("_", "-")
            for n1 in (0, 9, 22, 41):
                for n3 in (0, 7, 30):
                    full = AnalyticModel(topo, deltas, (d,)).evaluate((n1, 0, n3))
                    two = AnalyticModel(reduced, (deltas[0], deltas[2]), (d,)).evaluate(
                        (n1, n3)
                    )
                    assert full == pytest.approx(two, abs=1e-12)
                solo = AnalyticModel(topo, deltas, (d,)).evaluate((n1, 0, 0))
                assert solo == pytest.approx(
                    AnalyticModel("1d", (deltas[0],), (d,)).evaluate((n1,)), abs=1e-12
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
        model = AnalyticModel("3d-independent", (0.02, 0.03, 0.01), (2, 2, 2))
        got = model.evaluate((5, 9, 13))
        want = np.prod(
            [
                AnalyticModel("1d", (delta,), (2,)).evaluate((n,))
                for delta, n in ((0.02, 5), (0.03, 9), (0.01, 13))
            ]
        )
        assert got == pytest.approx(want, abs=1e-14)


# Every topology's closed form at the values of the code it replaced, as
# float.hex: rows (d or dims, deltas, pulses, value) with a zero count, a
# half-period count N_i = pi/(2 delta_i) and generic counts.  Summing pure
# monomials of the coefficient table moved four rows by 1-2 ulp from the
# half-angle form they had (3d-ring at d = 3 and 4, 3d-star and
# 3d-linked-ladder at d = 4); each stays within 1 eps of its 50-digit value.
GOLDEN = {
    "1d": [
        (3, (0.025,), (0.0,), "0x1.0000000000000p+0"),
        (3, (0.025,), (62.83185307179586,), "-0x1.5555555555555p-2"),
        (5, (0.0357,), (17.5,), "0x1.73e00c4e364a9p-1"),
    ],
    "2d-independent": [
        ((2, 3), (0.025, 0.036), (0.0, 11.0), "0x1.9a6d57b82461bp-1"),
        ((2, 3), (0.025, 0.036), (62.83185307179586, 43.63323129985824), "0x1.5555555555555p-2"),
        ((3, 3), (0.02, 0.031), (17.0, 44.5), "-0x1.f15c8ad8f1ed3p-3"),
    ],
    "2d-uncorrelated": [
        (4, (0.025, 0.036), (0.0, 44.0), "0x1.6d97048af0800p-13"),
        (4, (0.025, 0.036), (62.83185307179586, 43.63323129985824), "-0x1.0000000000000p+0"),
        (6, (0.02, 0.031), (9.0, 23.5), "0x1.5dc5bc91ab54cp-1"),
    ],
    "2d-correlated": [
        (3, (0.025, 0.036), (63.0, 0.0), "-0x1.554f282e1b758p-2"),
        (3, (0.025, 0.036), (62.83185307179586, 43.63323129985824), "-0x1.5555555555555p-2"),
        (4, (0.02, 0.031), (9.0, 23.0), "0x1.1b8ca08efdfbcp-1"),
    ],
    "3d-independent": [
        ((2, 2, 2), (0.021, 0.033, 0.017), (0.0, 7.0, 13.0), "0x1.9e470de77caeep-1"),
        (
            (2, 2, 2),
            (0.021, 0.033, 0.017),
            (74.79982508547126, 47.59988869075444, 92.39978392911155),
            "-0x1.0000000000000p+0",
        ),
        ((2, 3, 2), (0.0357, 0.019, 0.027), (31.0, 17.5, 5.0), "-0x1.fb6a77fe087eep-2"),
    ],
    "3d-uncorrelated": [
        (6, (0.021, 0.033, 0.017), (0.0, 7.0, 13.0), "0x1.ddb4d4ed2b357p-1"),
        (
            6,
            (0.021, 0.033, 0.017),
            (74.79982508547126, 47.59988869075444, 92.39978392911155),
            "-0x1.0000000000000p+0",
        ),
        (7, (0.0357, 0.019, 0.027), (31.0, 17.5, 5.0), "0x1.e3277802cdc55p-2"),
    ],
    "3d-ring": [
        (3, (0.021, 0.033, 0.017), (0.0, 7.0, 13.0), "0x1.bd21d98faa1a7p-1"),
        (
            3,
            (0.021, 0.033, 0.017),
            (74.79982508547126, 47.59988869075444, 92.39978392911155),
            "-0x1.5555555555555p-2",
        ),
        (4, (0.0357, 0.019, 0.027), (31.0, 17.5, 5.0), "0x1.67f9fcfd1d541p-3"),
    ],
    "3d-star": [
        (4, (0.021, 0.033, 0.017), (0.0, 7.0, 13.0), "0x1.cdd9632bbf93ep-1"),
        (
            4,
            (0.021, 0.033, 0.017),
            (74.79982508547126, 47.59988869075444, 92.39978392911155),
            "0x0.0p+0",
        ),
        (5, (0.0357, 0.019, 0.027), (31.0, 17.5, 5.0), "0x1.5cca65320bbb3p-2"),
    ],
    "3d-linked-ladder": [
        (4, (0.021, 0.033, 0.017), (0.0, 7.0, 13.0), "0x1.cdd9632bbf93dp-1"),
        (
            4,
            (0.021, 0.033, 0.017),
            (74.79982508547126, 47.59988869075444, 92.39978392911155),
            "-0x1.0000000000000p+0",
        ),
        (5, (0.0357, 0.019, 0.027), (31.0, 17.5, 5.0), "0x1.50eca45867cb2p-2"),
    ],
    "3d-unlinked-ladder": [
        (5, (0.021, 0.033, 0.017), (0.0, 7.0, 13.0), "0x1.d7e11c22ffa96p-1"),
        (
            5,
            (0.021, 0.033, 0.017),
            (74.79982508547126, 47.59988869075444, 92.39978392911155),
            "-0x1.3333333333333p-1",
        ),
        (6, (0.0357, 0.019, 0.027), (31.0, 17.5, 5.0), "0x1.8a54aa00af6afp-2"),
    ],
}


@pytest.mark.parametrize("name", TOPOLOGIES)
def test_closed_forms_match_golden_values_bit_for_bit(name):
    for size, deltas, pulses, want in GOLDEN[name]:
        dims = size if isinstance(size, tuple) else (size,)
        got = AnalyticModel(name, deltas, dims).evaluate(pulses)
        assert got.hex() == want, (size, deltas, pulses)


def _polynomial_at_50_digits(shape, dims, c):
    """The TOPOLOGIES polynomial at the float64 cosines c, in mpmath."""
    molecules = zip(dims, zip(c)) if shape.independent else [(dims[0], c)]
    value = mpf(1)
    for d, x in molecules:
        terms = [mpf(1)]
        for ci in x:
            terms += [t * ci for t in terms]
        value *= mp.fsum(mpf(a) * t for a, t in zip(shape.coef(d), terms)) / d
    return value


@pytest.mark.parametrize("name", TOPOLOGIES)
def test_closed_forms_are_within_4_eps_of_their_polynomial(name):
    """evaluate sums the coefficient table in float64; against the same
    polynomial at 50 digits, from the same cosines, it is off by at most 4
    eps (2.3 eps measured over 2000 draws per row), at generic counts and
    near the half period, where the loop rows cancel to near zero."""
    shape, rng = TOPOLOGIES[name], np.random.default_rng([36, list(TOPOLOGIES).index(name)])
    k = shape.arity
    with mp.workdps(50):
        for _ in range(600):
            if shape.independent:
                dims = tuple(rng.integers(2, 9, k).tolist())
            else:
                dims = (int(rng.integers(shape.least, 65)),)
            deltas = rng.uniform(0.005, 0.05, k).tolist()
            pulses = rng.uniform(0, 300, k).tolist()
            if rng.random() < 0.5:
                near = rng.uniform(-1e-3, 1e-3, k)
                pulses = [math.pi / (2 * delta) * (1 + x) for delta, x in zip(deltas, near)]
            c = [math.cos(2 * n * delta) for delta, n in zip(deltas, pulses)]
            got = AnalyticModel(name, deltas, dims).evaluate(pulses)
            want = _polynomial_at_50_digits(shape, dims, c)
            assert abs(mpf(got) - want) <= 4 * 2.0**-52, (dims, deltas, pulses)


class TestPeriodicityAndParity:
    def test_dip_1d_periodic_in_pulse_period(self):
        delta = 0.025
        period = pulse_period(delta).exact
        for n in (0.0, 13.0, 50.5):
            assert AnalyticModel("1d", (delta,), (3,)).evaluate((n + period,)) == pytest.approx(
                AnalyticModel("1d", (delta,), (3,)).evaluate((n,)), abs=1e-12
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
        for delta in (0.0, -0.025, math.inf, -math.inf, math.nan, 5e-324):
            message = f"delta must be finite and > 0 with pi/delta finite, got {delta}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                pulse_period(delta)


class TestMinima:
    def test_quoted_values(self):
        assert minima("2d-uncorrelated", (4,)) == -1.0
        assert minima("2d-correlated", (4,)) == 0.0
        assert minima("1d", (3,)) == -1.0 / 3.0

    def test_dimension_scaling(self):
        for d in range(3, 9):
            assert minima("1d", (d,)) == (d - 4) / d
        for d in range(4, 9):
            assert minima("2d-uncorrelated", (d,)) == (d - 8) / d
        for d in range(3, 9):
            assert minima("2d-correlated", (d,)) == (d - 4) / d

    def test_3d_values(self):
        assert minima("3d-ring", (3,)) == -1.0 / 3.0
        assert minima("3d-star", (4,)) == 0.0
        assert minima("3d-linked-ladder", (4,)) == -1.0
        assert minima("3d-unlinked-ladder", (5,)) == -3.0 / 5.0
        assert minima("3d-uncorrelated", (6,)) == -1.0

    def test_independent_molecules_corner_product(self):
        assert minima("2d-independent", (2, 2)) == -1.0
        assert minima("2d-independent", (3, 5)) == -1.0 / 3.0

    def test_2d_minima_are_attained_and_global(self):
        """Brute-force check that the quoted minima really floor the closed
        forms over real pulse counts, and are hit at half-period driving."""
        delta = 0.02
        period = np.pi / delta
        grid = np.linspace(0.0, period, 241).tolist()
        for topo, d in [
            ("2d-uncorrelated", 4),
            ("2d-uncorrelated", 6),
            ("2d-correlated", 3),
            ("2d-correlated", 4),
        ]:
            floor = minima(topo, (d,))
            model = AnalyticModel(topo, (delta, delta), (d,))
            best = min(model.evaluate((n1, n2)) for n1 in grid for n2 in grid)
            assert best >= floor - 1e-9
            half = period / 2.0
            at_half = model.evaluate((half, half))
            assert at_half == pytest.approx(floor, abs=1e-9)

    def test_3d_minima_are_attained_and_global(self):
        delta = 0.02
        period = np.pi / delta
        grid = np.linspace(0.0, period, 49).tolist()
        for topo, d in [
            ("3d-ring", 3),
            ("3d-star", 4),
            ("3d-linked-ladder", 4),
            ("3d-unlinked-ladder", 5),
            ("3d-uncorrelated", 6),
        ]:
            floor = minima(topo, (d,))
            model = AnalyticModel(topo, (delta,) * 3, (d,))
            best = min(
                model.evaluate((n1, n2, n3))
                for n1 in grid
                for n2 in grid
                for n3 in grid
            )
            assert best >= floor - 1e-9
            assert best <= floor + 0.05


class TestValidation:
    def test_unknown_topology_kind(self):
        with pytest.raises(ValueError):
            AnalyticModel("diagonal", (0.02,), (3,))
        with pytest.raises(ValueError):
            minima("chain", (3,))

    def test_payload_only_for_independent(self):
        with pytest.raises(ValueError):
            AnalyticModel("2d-correlated", (0.02, 0.03), (3, 3))
        with pytest.raises(ValueError):
            minima("3d-ring", (3, 3, 3))

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, 0.0, -0.02])
    def test_model_refuses_a_delta_when_built(self, delta):
        with pytest.raises(InputError, match=r"^every delta must be finite and > 0, got \(") as caught:
            AnalyticModel("1d", (delta,), (3,))
        assert caught.value.inputs == ("deltas",)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            AnalyticModel("1d", (0.02,), (1,)).evaluate((3,))
        with pytest.raises(ValueError):
            AnalyticModel("2d-correlated", (0.02, 0.03), (3,)).evaluate((3,))
        with pytest.raises(ValueError):
            AnalyticModel("1d", (-0.02,), (3,)).evaluate((3,))
        with pytest.raises(ValueError):
            AnalyticModel("1d", (0.02,), (3,)).evaluate((-3,))

    def test_dip_3d_dimension_guards(self):
        with pytest.raises(ValueError):
            AnalyticModel("3d-uncorrelated", (0.02,) * 3, (5,)).evaluate((1, 1, 1))
        with pytest.raises(ValueError):
            AnalyticModel("3d-unlinked-ladder", (0.02,) * 3, (4,)).evaluate((1, 1, 1))
        with pytest.raises(ValueError):
            AnalyticModel("3d-ring", (0.02,) * 3, (2,)).evaluate((1, 1, 1))
