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
block, O(1) in N, and, as their reference, filter_numeric's per-segment
antiderivatives of e^{i omega t} over a compiled timeline.  Filter phases
are measured with t = 0 at the start of the whole timeline.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .spin_model import all_transitions, check_bytes

# Fraction of the on-resonance value 2N at which an off-target transition
# counts as contaminating a block.
_OVERLAP_FRACTION = 0.2

# A block targets a transition when 2*tau*omega/pi is within this distance
# of an odd integer.
_RESONANCE_RESIDUAL = 0.05

# Larger pulse counts do not survive float64 (coordinates, 2*N*tau) exactly.
MAX_PULSES = 2**53

# The bytes that build_timeline plus filter_numeric need per pulse, of the
# 4 GiB a filter profile may use (spin_model.check_bytes): one flip time as
# a Python float in a list and in two arrays, and the complex phase, sign
# and difference arrays of its segment.  Peak RSS rose by about 150 bytes a
# pulse filtering 1.5e6 pulses at 5 frequencies (numpy 2.4, Python 3.11).
_PULSE_BYTES = 256


@dataclass(frozen=True)
class Block:
    """One CPMG block: pulses 2*tau apart, tau padding at the edges."""

    tau: float
    n_pulses: int

    def __post_init__(self):
        if not math.isfinite(self.tau):
            raise ValueError(f"block tau must be finite, got {self.tau}")
        if self.tau <= 0:
            raise ValueError(f"block tau must be > 0, got {self.tau}")
        n = self.n_pulses
        # abs(n) < inf holds for every int, however large, and fails for NaN
        if not abs(n) < math.inf or n != int(n) or n < 0:
            raise ValueError(f"n_pulses must be a nonnegative integer, got {n}")
        if n > MAX_PULSES:
            raise ValueError(f"n_pulses must be at most 2**53, got {n}")
        object.__setattr__(self, "n_pulses", int(n))

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


def check_timeline_size(spec: SequenceSpec) -> None:
    """Raise ValueError if the timeline of spec, one flip per pulse, would
    need more than 4 GiB to build and filter."""
    pulses = sum(block.n_pulses for block in spec.blocks)
    check_bytes(pulses * _PULSE_BYTES, f"{pulses} pulses need", "a filter profile", "a timeline")


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
    """
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    if order < 1 or order != int(order):
        raise ValueError(f"order must be a positive integer, got {order}")
    return np.pi * (2 * order - 1) / (2.0 * omega)


def _filter_integral(flip_times, total_time: float, omega: float) -> complex:
    """omega * integral_0^T f(t) e^{i omega t} dt, exactly, segment by segment."""
    bounds = np.concatenate([[0.0], flip_times, [total_time]])
    phases = np.exp(1j * omega * bounds)
    signs = np.where(np.arange(bounds.size - 1) % 2, -1.0, 1.0)
    # omega * s * (e^{i w b} - e^{i w a}) / (i w) summed over segments
    return -1j * np.sum(signs * (phases[1:] - phases[:-1]))


def filter_numeric(timeline: PulseTimeline, omega: float) -> FilterResult:
    """Filter magnitude and phase of an arbitrary timeline at frequency omega.

    Returns (F, xi) with F * e^{i xi} = omega * integral f(t) e^{i omega t} dt,
    the phase referenced to the timeline start.
    """
    if omega == 0:
        raise ValueError("filter undefined at omega = 0")
    z = _filter_integral(timeline.flip_times, timeline.total_time, omega)
    return FilterResult(float(abs(z)), float(np.angle(z)) if z != 0 else 0.0)


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


def filter_cpmg_closed(n_pulses: int, tau: float, omega: float) -> float:
    """Closed-form CPMG-N filter magnitude at the block's full duration 2*N*tau.

    One expression, O(1) in N and 2N at every resonance; filter_numeric of
    the block's timeline is its reference.
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    for name, value in (("tau", tau), ("omega", omega)):
        if not 0 < value < math.inf:  # negated so that NaN fails too
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    return abs(_block_integral(n_pulses, tau, omega))


def lint_resonance_overlap(clusters, spec: SequenceSpec) -> list[str]:
    """Flag blocks whose filter also picks up transitions other than their target.

    A block targets the transition whose resonance condition it satisfies,
    2*tau*omega/pi within 0.05 of an odd integer; exact harmonic ties go to
    the lowest harmonic order.  Any other transition whose CPMG filter at
    the block's duration reaches 20% of the on-resonance value 2N
    (odd-harmonic hits, accidental near-resonances) produces a warning.
    """
    transitions = []
    for ci, cluster in enumerate(clusters):
        transitions.extend((ci, t) for t in all_transitions(cluster))
    warnings = []
    for bi, block in enumerate(spec.blocks):
        if block.n_pulses < 1 or not transitions:
            continue
        full = 2.0 * block.n_pulses
        hits = []
        for ci, t in transitions:
            x = 2.0 * block.tau * t.omega / np.pi
            order = max(round((x - 1.0) / 2.0), 0)
            residual = abs(x - (2 * order + 1))
            if residual <= _RESONANCE_RESIDUAL:
                hits.append((order, residual, ci, t))
        if not hits:
            continue  # block targets nothing; nothing to contaminate
        _, _, best_ci, best_t = min(hits, key=lambda h: h[:2])
        for ci, t in transitions:
            if ci == best_ci and t == best_t:
                continue
            f = filter_cpmg_closed(block.n_pulses, block.tau, t.omega)
            if f >= _OVERLAP_FRACTION * full:
                warnings.append(
                    f"block {bi} (tau = {block.tau:.6g} us) is resonant with "
                    f"cluster {best_ci} transition ({best_t.m},{best_t.n}) but also "
                    f"drives cluster {ci} transition ({t.m},{t.n}) at "
                    f"F = {f:.3g} ({f / full:.0%} of 2N)"
                )
    return warnings
