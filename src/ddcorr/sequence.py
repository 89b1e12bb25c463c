"""Multi-block CPMG pulse timelines and their filter functions.

An l-dimensional decoupling sequence is l consecutive CPMG blocks, block i
having pulse half-interval tau_i (us) and pulse count N_i.  Within a block
the sensor is flipped at local times (2p - 1) * tau_i, p = 1..N_i, so pulses
are 2*tau_i apart with tau_i padding at both block edges.

The filter function F(omega, t) = omega * |integral_0^t f(t') e^{i omega t'} dt'|
measures how strongly the sequence's modulation function f (the +-1 square
wave toggling at each flip) picks up noise at omega; a block is resonant with
a transition when 2*tau = pi*(2c - 1)/omega, where F reaches 2N.

Filter integrals are exact, never quadrature: one closed form per CPMG
block, O(1) in N, composed over the blocks by filter_multiblock, so no
timeline is built to filter.  Filter phases are measured with t = 0 at the
start of the whole sequence.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .spin_model import TWO_PI, all_transitions, as_float, check_phase

# Fraction of the on-resonance value 2N at which an off-target transition
# counts as contaminating a block.
_OVERLAP_FRACTION = 0.2

# A block targets a transition when 2*tau*omega/pi is within this distance
# of an odd integer.
_RESONANCE_RESIDUAL = 0.05

# Larger pulse counts do not survive float64 (coordinates, 2*N*tau) exactly.
MAX_PULSES = 2**53


def _whole(counts: np.ndarray) -> np.ndarray:
    """Where counts are nonnegative integers, one by one unless numeric."""
    if counts.dtype.kind in "biuf":
        return np.isfinite(counts) & (counts >= 0) & (np.floor(counts) == counts)
    # abs(n) < inf holds for every int, however large, and fails for NaN
    return np.reshape([abs(n) < math.inf and n == int(n) and n >= 0 for n in counts.flat], counts.shape)


def check_blocks(taus, counts) -> tuple[np.ndarray, np.ndarray]:
    """taus and counts of CPMG blocks as float and int arrays, by the rule
    Block and every engine entry apply.  A ValueError names the first value
    that fails: every tau is finite (an int beyond float range is not),
    then > 0; every count (as given: lists as object arrays) is a
    nonnegative integer, then at most MAX_PULSES; then 2 tau max(N, 1) is
    finite at the largest tau and count."""
    taus, counts = (x if isinstance(x, np.ndarray) else np.array(x, dtype=object) for x in (taus, counts))
    values = np.vectorize(as_float, otypes=[float])(taus) if taus.dtype == object else taus.astype(float)
    for given, ok, rule in (
        (taus, lambda: np.isfinite(values), "block tau must be finite"),
        (taus, lambda: values > 0, "block tau must be > 0"),
        (counts, lambda: _whole(counts), "n_pulses must be a nonnegative integer"),
        (counts, lambda: counts <= MAX_PULSES, "n_pulses must be at most 2**53"),
    ):
        if not (ok := ok()).all():
            raise ValueError(f"{rule}, got {given[~ok].flat[0]}")
    if values.size and counts.size:
        tau, n = taus.flat[values.argmax()], counts.flat[counts.argmax()]
        if not math.isfinite(2.0 * float(tau) * max(int(n), 1)):  # tau enters phases even at n = 0
            raise ValueError(f"2 * tau * max(n_pulses, 1) must be finite, got tau = {tau}, n = {n}")
    return values, counts.astype(np.int64)


@dataclass(frozen=True)
class Block:
    """One CPMG block: pulses 2*tau apart, tau padding at the edges."""

    tau: float
    n_pulses: int

    def __post_init__(self):
        object.__setattr__(self, "n_pulses", check_blocks(self.tau, self.n_pulses)[1].item())

    @property
    def duration(self) -> float:
        return 2.0 * self.n_pulses * self.tau


@dataclass(frozen=True)
class SequenceSpec:
    """Ordered CPMG blocks; 1-3 blocks cover the supported cases."""

    blocks: tuple[Block, ...]

    def __post_init__(self):
        blocks = tuple(
            b if isinstance(b, Block) else Block(*b) for b in self.blocks
        )
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("sequence needs at least one block")
        if not math.isfinite(self.duration):
            raise ValueError("sequence lasts beyond float range")

    @property
    def duration(self) -> float:
        return sum(block.duration for block in self.blocks)


@dataclass(frozen=True, eq=False)
class PulseTimeline:
    """Compiled absolute flip times (us) over [0, total_time]."""

    flip_times: np.ndarray
    total_time: float

    def __post_init__(self):
        flips = np.array(self.flip_times, dtype=float)
        flips.setflags(write=False)
        object.__setattr__(self, "flip_times", flips)
        if flips.size:
            if flips[0] <= 0:
                raise ValueError("first flip must come after t = 0")
            if np.any(np.diff(flips) <= 0):
                raise ValueError("flip times must be strictly ascending")
            if flips[-1] >= self.total_time:
                raise ValueError("last flip must come before total_time")
        elif self.total_time < 0:
            raise ValueError("total_time must be >= 0")

    @property
    def n_flips(self) -> int:
        return int(self.flip_times.size)


@dataclass(frozen=True)
class FilterResult:
    """Filter magnitude F (dimensionless, >= 0) and phase xi (rad)."""

    magnitude: float
    phase: float


def build_timeline(spec: SequenceSpec) -> PulseTimeline:
    """Compile a block sequence to absolute flip times.

    Block i's flips sit at (cumulative duration of earlier blocks)
    + (2p - 1) * tau_i for p = 1..N_i; zero-pulse blocks contribute nothing.
    """
    flips = []
    start = 0.0
    for block in spec.blocks:
        for p in range(1, block.n_pulses + 1):
            flips.append(start + (2 * p - 1) * block.tau)
        start += block.duration
    return PulseTimeline(np.array(flips), start)


def resonant_tau(omega: float, order: int = 1) -> float:
    """Half-interval putting a CPMG block on resonance: 2*tau = pi*(2c-1)/omega.

    Args:
        omega: transition frequency (rad/us), > 0.
        order: dip order c >= 1 (c = 1 is the principal dip).

    Raises ValueError for an omega or order outside those ranges (a Python
    int beyond float range included), or where tau is beyond float range.
    """
    w, c = as_float(omega), as_float(order)
    if not 0 < w < math.inf:  # negated so that NaN fails too
        raise ValueError(f"omega must be finite and > 0, got {omega}")
    # inf % 1 is NaN: an integer order beyond float range is refused below
    if not (c >= 1 and c % 1 == 0 or c == math.inf):
        raise ValueError(f"order must be a positive integer, got {order}")
    tau = np.pi * (2 * c - 1) / (2.0 * w)
    if tau == math.inf:
        raise ValueError(f"order {order} at omega {omega} puts tau beyond float range")
    return tau


def _block_integral(n_pulses: int, tau: float, omega: float) -> complex:
    """omega * integral f(t) e^{i omega t} dt over one CPMG block, from its start.

    Cell p of length 2*tau adds (-u^2)^p times cell 0's i(1 - u)^2, with
    u = e^{i omega tau}: a geometric sum e^{i(N-1)h} sin(Nh)/sin(h), where
    h = omega*tau + pi/2 mod pi and the kernel is exactly N at h == 0.
    """
    u = cmath.exp(1j * omega * tau)
    h = math.remainder(omega * tau + math.pi / 2.0, math.pi)
    kernel = n_pulses if h == 0 else math.sin(n_pulses * h) / math.sin(h)
    return 1j * (1.0 - u) ** 2 * cmath.exp(1j * (n_pulses - 1) * h) * kernel


def check_filter_phase(spec: SequenceSpec, f_MHz: float, user: str) -> None:
    """spin_model.check_phase on the largest phase filter_multiblock computes at f_MHz, omega
    times the sequence duration or a zero-pulse block's tau, so F's rounding stays in tolerance."""
    longest = max(spec.duration, *(b.tau for b in spec.blocks))
    check_phase(TWO_PI * f_MHz * longest, f"2 pi x {f_MHz:g} MHz x {longest:g} us", user)


def filter_multiblock(spec: SequenceSpec, omega: float) -> FilterResult:
    """Coherent per-block composition of the sequence filter.

    Each block contributes its closed-form integral, O(1) in its pulse
    count, rotated by the phase accumulated up to the block start and
    sign-flipped when an odd number of pulses precede it; the result equals
    reference.filter_numeric of the compiled timeline.  It takes any phase:
    at resonance it gives 2N exactly even at N = 2**53 (2.8e16 rad), so
    callers bound the phase with check_filter_phase.
    """
    if not (math.isfinite(as_float(omega)) and omega != 0):  # negated so that NaN fails too
        raise ValueError(f"omega must be finite and nonzero, got {omega}")
    z = 0.0 + 0.0j
    start = 0.0
    sign = 1.0
    for block in spec.blocks:
        z += sign * cmath.exp(1j * omega * start) * _block_integral(block.n_pulses, block.tau, omega)
        start += block.duration
        sign *= (-1) ** block.n_pulses
    return FilterResult(abs(z), cmath.phase(z) if z != 0 else 0.0)


def lint_resonance_overlap(clusters, spec: SequenceSpec) -> list[str]:
    """Flag blocks whose filter also picks up transitions other than their target.

    A block targets the transition whose resonance condition it satisfies,
    2*tau*omega/pi within 0.05 of an odd integer; exact harmonic ties go to
    the lowest harmonic order.  Any other transition whose CPMG filter at
    the block's duration reaches 20% of the on-resonance value 2N
    (odd-harmonic hits, accidental near-resonances) produces a warning.
    Each block is a filter of its own, so check_filter_phase refuses a block
    that reaches past PHASE_RANGE at the largest transition frequency.
    """
    transitions = []
    for ci, cluster in enumerate(clusters):
        transitions.extend((ci, t) for t in all_transitions(cluster))
    f_top = max((t.omega for _, t in transitions), default=0.0) / TWO_PI
    warnings = []
    for bi, block in enumerate(spec.blocks):
        if block.n_pulses < 1:
            continue
        check_filter_phase(SequenceSpec([block]), f_top, "lint")
        full = 2.0 * block.n_pulses
        phases = [(ci, t, 2.0 * block.tau * t.omega / np.pi) for ci, t in transitions]
        hits = []
        for ci, t, x in phases:
            order = max(round((x - 1.0) / 2.0), 0)
            residual = abs(x - (2 * order + 1))
            if residual <= _RESONANCE_RESIDUAL:
                hits.append((order, residual, ci, t))
        if not hits:
            continue  # block targets nothing; nothing to contaminate
        _, _, best_ci, best_t = min(hits, key=lambda h: h[:2])
        for ci, t, _ in phases:
            if ci == best_ci and t == best_t:
                continue
            f = abs(_block_integral(block.n_pulses, block.tau, t.omega))
            if f >= _OVERLAP_FRACTION * full:
                warnings.append(
                    f"block {bi} (tau = {block.tau:.6g} us) is resonant with "
                    f"cluster {best_ci} transition ({best_t.m},{best_t.n}) but also "
                    f"drives cluster {ci} transition ({t.m},{t.n}) at "
                    f"F = {f:.3g} ({f / full:.0%} of 2N)"
                )
    return warnings
