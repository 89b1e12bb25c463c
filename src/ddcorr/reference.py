"""First-order test oracles for the closed forms and the filter integrals.

magnus_rotation is the first-order propagator of a resonant CPMG block;
dip_trace_2d and dip_trace_3d take normalized traces of its products,
which the closed-form dips of analytic.AnalyticModel must equal.
modulation is the square-wave modulation function f(t) of a compiled
timeline, against which the tests integrate the filter functions, and
filter_multiblock composes a sequence's filter from its blocks' closed
forms.  No other ddcorr module imports this one, so the CLI never
compiles it.
"""

from __future__ import annotations

import bisect
import cmath
import math

import numpy as np

from .sequence import FilterResult, PulseTimeline, SequenceSpec, _block_integral
from .spin_model import TargetCluster, transition


def magnus_rotation(
    cluster: TargetCluster, m: int, n: int, pulse_count: float
) -> np.ndarray:
    """First-order effective propagator of a resonant CPMG block.

    Identity except the 2x2 block on levels (m, n), which rotates by
    pulse_count * delta with the coupling phase kappa; level order inside
    the block follows the omega > 0 normalization of transition().
    """
    spec = transition(cluster, m, n)
    theta = pulse_count * spec.delta
    u = np.eye(cluster.dim, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    u[spec.m, spec.m] = c
    u[spec.n, spec.n] = c
    u[spec.m, spec.n] = -1j * np.exp(1j * spec.kappa) * s
    u[spec.n, spec.m] = -1j * np.exp(-1j * spec.kappa) * s
    return u


def dip_trace_2d(cluster: TargetCluster, first, second, n1: float, n2: float) -> complex:
    """Trace oracle (1/d) Tr[U_2(2 N_2) U_1(2 N_1)] for two transitions.

    first/second are (m, n) level pairs.  Valid for any integer parity:
    flipping both rotation angles' signs (the odd-count variant) only
    conjugates the trace, so the real part is parity-blind.
    """
    u1 = magnus_rotation(cluster, *first, 2 * n1)
    u2 = magnus_rotation(cluster, *second, 2 * n2)
    return complex(np.trace(u2 @ u1) / cluster.dim)


def dip_trace_3d(
    cluster: TargetCluster, transitions, n1: float, n2: float, n3: float
) -> complex:
    """Trace oracle (1/d) Tr[U_3(2 N_3) U_2(N_2) U_1(2 N_1) U_2(N_2)].

    The second transition's rotation is split into two half-angle factors
    bracketing the first; the order matters whenever the transitions share
    levels, so the split is kept literal.
    """
    t1, t2, t3 = transitions
    u1 = magnus_rotation(cluster, *t1, 2 * n1)
    u2 = magnus_rotation(cluster, *t2, n2)
    u3 = magnus_rotation(cluster, *t3, 2 * n3)
    return complex(np.trace(u3 @ u2 @ u1 @ u2) / cluster.dim)


def modulation(timeline: PulseTimeline, t: float) -> int:
    """Modulation function f(t): +1 before the first flip, toggling at each flip."""
    if not 0 <= t <= timeline.total_time:
        raise ValueError(f"t = {t} outside [0, {timeline.total_time}]")
    flipped = bisect.bisect_right(timeline.flip_times.tolist(), t)
    return -1 if flipped % 2 else 1


def filter_multiblock(spec: SequenceSpec, omega: float) -> FilterResult:
    """Coherent per-block composition of the sequence filter.

    Each block contributes its closed-form integral, O(1) in its pulse
    count, rotated by the phase accumulated up to the block start and
    sign-flipped when an odd number of pulses precede it; the result equals
    filter_numeric of the compiled timeline.
    """
    if not (math.isfinite(omega) and omega != 0):  # negated so that NaN fails too
        raise ValueError(f"omega must be finite and nonzero, got {omega}")
    z = 0.0 + 0.0j
    start = 0.0
    sign = 1.0
    for block in spec.blocks:
        z += sign * cmath.exp(1j * omega * start) * _block_integral(block.n_pulses, block.tau, omega)
        start += block.duration
        sign *= (-1) ** block.n_pulses
    return FilterResult(abs(z), cmath.phase(z) if z != 0 else 0.0)
