"""spin_model.PHASE_RANGE against a 50-digit reference.

PHASE_RANGE is TOLERANCE / (C eps): the float64 CPMG block propagators of
exact.block_stacks are within C eps (rate 2 tau + d) max(N, 1) of their
exact values in the spectral norm, with rate the cluster's largest
|energy| plus largest |coupling|, so a grid whose phase (the sum of those
terms that scan.check_grid_size charges) is within PHASE_RANGE has every
propagator within TOLERANCE.  The reference builds each block in mpmath
at 50 digits: both Hamiltonians' eigendecompositions, the tau and 2 tau
segments, and the unit cell's k-th power from its eigenphases.
filter_multiblock's F is held to the same range: it is within
C eps omega T 2N of its 50-digit value, for a sequence of T us and N
pulses.  mpmath is a test-only dependency (tests/test_imports.py keeps it
out of the package).
"""

import math
from itertools import product

import numpy as np
import pytest
from mpmath import mp

from ddcorr.exact import block_stacks
from ddcorr.sequence import Block, SequenceSpec, filter_multiblock
from ddcorr.spin_model import PHASE_RANGE, TargetCluster, ladder_preset

TOLERANCE = 1e-4
C = 3
EPS = np.finfo(float).eps
COUNTS = [0, 1, 2, 3, 8, 1001, 10**6, 10**9 - 1, 10**9]


def test_the_range_is_the_tolerance_over_c_eps():
    assert PHASE_RANGE == TOLERANCE / (C * EPS)
    assert C * EPS * PHASE_RANGE <= TOLERANCE


def _ladder(d, rng):
    return ladder_preset(list(rng.uniform(0.12, 0.4, d - 1)), list(rng.uniform(1.0, 5.0, d - 1)))


def _dense(d, rng):
    """Levels up to 1.3 (d - 1) rad/us apart, every pair coupled."""
    energies = np.sort(rng.uniform(0.0, 1.3 * (d - 1), d))
    beta = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return TargetCluster("dense", energies, rng.uniform(0.005, 0.05) * (beta + beta.conj().T))


def _segment(values, vectors, t):
    """exp(-i H t) from H's eigendecomposition, in mpmath."""
    phases = mp.diag([mp.expj(-w * t) for w in values])
    return vectors * phases * vectors.transpose_conj()


def _reference_blocks(cluster, tau, counts):
    """The blocks of block_stacks at 50 digits, as (2, len(counts)) mpmath
    matrices: [0] entered on coupling sign +1, [1] on -1."""
    with mp.workdps(50):
        h0 = np.diag(cluster.energies)
        tau = mp.mpf(tau)
        bases = [mp.eighe(mp.matrix(h0 + s * cluster.coupling / 2.0)) for s in (1, -1)]
        edge = [_segment(w, v, tau) for w, v in bases]
        inner = [_segment(w, v, 2 * tau) for w, v in bases]
        # cell^k from the cell's eigenphases; entered on -1 the cell is
        # inner[1] inner[0] = inner[0]^dagger cell inner[0]
        phases, vectors = mp.eig(inner[0] * inner[1])
        inverse = mp.inverse(vectors)
        one = mp.eye(cluster.dim)
        out = [[], []]
        for n in counts:
            k = max(n - 1, 0) // 2
            power = vectors * mp.diag([(p / abs(p)) ** k for p in phases]) * inverse
            powers = (power, inner[0].transpose_conj() * power * inner[0])
            for s in (0, 1):
                e, i = (edge[s], edge[1 - s]), (inner[s], inner[1 - s])
                tail = e[0] * i[1] if n % 2 == 0 else e[1]
                out[s].append(one if n == 0 else tail * powers[s] * e[0])
        return out


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8, 12, 16])
def test_block_stacks_are_within_the_rounding_bound(d):
    # odd d ladders, even d dense couplings; tau from 1e-3 to 30 us, where
    # 1 rad per level per pulse is the larger term below about 0.1 us
    rng = np.random.default_rng(d)
    cluster = (_ladder if d % 2 else _dense)(d, rng)
    tau = float(10 ** rng.uniform(-3.0, 1.5))
    rate = float(abs(cluster.energies).max() + abs(cluster.coupling).max())
    got = block_stacks(cluster, [tau], COUNTS)
    reference = _reference_blocks(cluster, tau, COUNTS)
    for s, (j, n) in product((0, 1), enumerate(COUNTS)):
        exact = np.array(reference[s][j].tolist(), dtype=complex)
        error = np.linalg.norm(got[s, 0, j] - exact, 2)
        bound = C * EPS * (rate * 2.0 * tau + d) * max(n, 1)
        assert error <= bound, (d, tau, s, n, error / (EPS * (rate * 2.0 * tau + d) * max(n, 1)))


def _reference_filter(blocks, omega):
    """|F| of filter_multiblock's closed forms at 50 digits."""
    with mp.workdps(50):
        omega, z, start, sign = mp.mpf(omega), mp.mpc(0), mp.mpf(0), 1
        for tau, n in blocks:
            tau = mp.mpf(tau)
            u = mp.expj(omega * tau)
            h = omega * tau + mp.pi / 2
            h -= mp.pi * mp.nint(h / mp.pi)
            kernel = n if h == 0 else mp.sin(n * h) / mp.sin(h)
            z += sign * mp.expj(omega * start) * 1j * (1 - u) ** 2 * mp.expj((n - 1) * h) * kernel
            start += 2 * n * tau
            sign *= (-1) ** n
        return float(abs(z))


def test_filter_is_within_the_rounding_bound():
    rng = np.random.default_rng(7)
    for _ in range(20):
        blocks = [
            (float(10 ** rng.uniform(-1, 1)), int(10 ** rng.uniform(0, 10)))
            for _ in range(rng.integers(1, 4))
        ]
        spec = SequenceSpec([Block(tau, n) for tau, n in blocks])
        pulses = sum(n for _, n in blocks)
        # on the first block's resonance, where F reaches 2N, and off it
        for omega in (math.pi / (2 * blocks[0][0]), float(rng.uniform(0.1, 5.0))):
            error = abs(filter_multiblock(spec, omega).magnitude - _reference_filter(blocks, omega))
            assert error <= C * EPS * omega * spec.duration * 2 * pulses, (blocks, omega, error)

