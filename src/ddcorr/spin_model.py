"""Target nuclear-spin clusters seen by a two-level sensor spin.

A cluster ("molecule") is a d-level system with a diagonal free Hamiltonian,
given by its level energies, plus a Hermitian coupling operator whose
off-diagonal entries drive transitions between levels when the sensor flips.

Unit conventions
----------------
All stored frequencies and couplings are ANGULAR, in rad/us.  Preset
constructors take cyclic units (MHz for transition frequencies, kHz for
couplings) and multiply by 2*pi on ingestion.  Level indices are 0-based.

All types are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

# Contrast delta = |beta_mn / omega_mn| thresholds for the weak-coupling
# diagnostics: beyond WARN the leading-order dip formulas visibly degrade,
# beyond ERROR they are meaningless.
DELTA_WARN = 0.1
DELTA_ERROR = 1.0

_HERMITICITY_TOL = 1e-12

# The most memory a cluster, a scan or a filter profile may need, and the
# bytes a cluster of d levels needs per d^2 as new_cluster builds it: the
# complex coupling matrix, TargetCluster's frozen copy, and the conjugate
# and difference of its Hermiticity check.  The tracemalloc peak of
# parsing a custom cluster was 64.0 bytes per d^2 at d = 1000-3000 (numpy
# 2.4, Python 3.11, x86-64).
MAX_BYTES = 4 << 30
_LEVEL_PAIR_BYTES = 64
# The most phase, in rad, that a scan, a filter profile or a closed-form dip
# may reach (check_phase): float64 rounding error grows with the phase, and
# PHASE_RANGE holds it to a tolerance of 1e-4, far below the sigma = 0.1
# shot noise the shipped plans target.  A block's propagators are within
# c eps (rate 2 tau + d) max(N, 1) of their exact values in the spectral
# norm (eps = 2**-52, rate = largest |energy| + largest |coupling|): a unit
# cell's phases round once, a block of k cells carries k times that whether
# cell^k comes from the fold or from a spectral power, and the d x d
# products add about eps per level a pulse, which dominates below tau ~ 0.1
# us.  Against a 50-digit mpmath reference (tests/test_precision.py), c was
# at most 2.5 on 60 random ladders and dense Hermitian couplings of d =
# 2-16, tau = 1e-3 to 30 us and N up to 1e9; c = 3 here.  Blocks and
# clusters add their errors and |L| moves by at most those of U+ and U-, so
# on a grid whose phase (scan.check_grid_size) is within PHASE_RANGE every
# propagator is within 1e-4 and L within 2e-4.  The filter's closed form
# rounds omega tau once a block: F is within c eps omega T 2N (c at most
# 0.25 measured), so off by at most 1e-4 of its on-resonance value 2N.  A
# closed-form dip rounds each phase 2 N delta once, so its cosines are
# within eps 2 N delta.  Such phases, and the Magnus terms' sums of
# products of two of them over d <= 317 levels, stay far inside float
# range.
PHASE_RANGE = 1e-4 / (3 * 2.0**-52)


def format_g(n: int, shift: int = 0) -> str:
    """n / 2**shift as "%.3g" formats it, also for an integer n beyond float range."""
    try:
        return f"{n / 2**shift:.3g}"
    except OverflowError:  # format it scaled by 10^-drop
        drop = n.bit_length() * 30103 // 100000 - 40
        mantissa, exponent = f"{(n >> shift) // 10**drop:.3g}".split("e")
        return f"{mantissa}e+{int(exponent) + drop}"


def as_float(x) -> float:
    """float(x), with a Python int beyond float range as the infinity of its sign."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _float_array(values, dtype=float) -> np.ndarray:
    """values as a dtype array, with a Python int beyond float range as the
    infinity of its sign, for a finiteness check to refuse."""
    try:
        return np.asarray(values, dtype=dtype)
    except OverflowError:
        big = np.vectorize(lambda x: as_float(x) if isinstance(x, int) else x, otypes=[dtype])
        return big(np.asarray(values, dtype=object))


def check_bytes(need: int, subject: str, user: str, held: str = "") -> None:
    """Raise ValueError if need bytes exceed MAX_BYTES, worded as
    "<subject> about X GiB[ as <held>], over the 4 GiB <user> may use"."""
    if need > MAX_BYTES:
        held = f" as {held}" if held else ""
        raise ValueError(
            f"{subject} about {format_g(need, 30)} GiB{held}, "
            f"over the {MAX_BYTES >> 30} GiB {user} may use"
        )


class InputError(ValueError):
    """A refused input; inputs names the arguments the refused value
    depends on, for a front end to report it at the flags that gave them."""

    def __init__(self, message: str, inputs: tuple[str, ...] = ()):
        super().__init__(message)
        self.inputs = inputs


def check_phase(phase: float, reach: str, user: str, inputs: tuple[str, ...] = ()) -> None:
    """Raise an InputError unless phase is at most PHASE_RANGE (so also if
    it is NaN), worded as "<reach> is beyond the X rad <user> takes"."""
    if not phase <= PHASE_RANGE:
        raise InputError(f"{reach} is beyond the {PHASE_RANGE:.3g} rad {user} takes", inputs)


def as_int(value, name: str) -> int:
    """value as an int if it is a Python or numpy integer and not a bool.  Block counts
    (sequence.check_blocks) and resonant_tau's order also take numpy casts' 4.0 and True."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}", (name,))
    return int(value)


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TargetCluster:
    """A d-level nuclear-spin cluster: level energies and coupling matrix.

    Attributes:
        label: human-readable name.
        energies: length-d level energies (rad/us).
        coupling: d x d Hermitian coupling operator (rad/us); entry (m, n)
            is the matrix element driving the m <-> n transition.
    """

    label: str
    energies: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        energies = _frozen_array(_float_array(self.energies))
        coupling = _frozen_array(_float_array(self.coupling, complex))
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "coupling", coupling)
        d = energies.shape[0]
        if energies.ndim != 1 or d < 2:
            raise ValueError(f"cluster needs at least 2 levels, got shape {energies.shape}")
        if coupling.shape != (d, d):
            raise ValueError(
                f"coupling shape {coupling.shape} does not match {d} energies"
            )
        if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(coupling))):
            raise ValueError("level energies and couplings must be finite")
        if np.max(np.abs(coupling - coupling.conj().T)) > _HERMITICITY_TOL:
            raise ValueError("coupling matrix is not Hermitian")

    @property
    def dim(self) -> int:
        return self.energies.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TargetCluster):
            return NotImplemented
        return (
            self.label == other.label
            and np.array_equal(self.energies, other.energies)
            and np.array_equal(self.coupling, other.coupling)
        )

    def __repr__(self) -> str:
        return f"TargetCluster({self.label!r}, d={self.dim})"


@dataclass(frozen=True)
class TransitionSpec:
    """A single transition m <-> n, oriented so omega > 0.

    Attributes:
        m, n: level indices with energies[m] > energies[n].
        omega: transition frequency energies[m] - energies[n] (rad/us).
        beta_mag: |coupling[m, n]| (rad/us).
        kappa: phase arg(coupling[m, n] / omega) (rad).
        delta: dimensionless contrast beta_mag / omega.
    """

    m: int
    n: int
    omega: float
    beta_mag: float
    kappa: float
    delta: float


@dataclass(frozen=True)
class SystemModel:
    """An ordered collection of independent target clusters.

    Each cluster starts in the maximally mixed state; the sensor coherence
    factorizes over clusters.
    """

    clusters: tuple[TargetCluster, ...]

    def __post_init__(self):
        clusters = tuple(self.clusters)
        object.__setattr__(self, "clusters", clusters)
        if len(clusters) < 1:
            raise ValueError("system needs at least one cluster")


def new_cluster(label, energies, couplings) -> TargetCluster:
    """Build a cluster from raw angular energies and a coupling list.

    Args:
        label: cluster name.
        energies: level energies (rad/us).
        couplings: iterable of (m, n, amplitude, phase) with amplitude in
            rad/us and phase in rad; fills coupling[m, n] = amp * e^{i*phase}
            and the conjugate at (n, m).

    Raises:
        ValueError: on duplicate (m, n) pairs (in either order), non-integer
            or out-of-range indices, negative amplitudes, fewer than 2
            levels, more levels than MAX_BYTES holds d x d matrices of, or a
            transition whose contrast is beyond float range.
    """
    energies = _float_array(energies)
    d = energies.shape[0]
    if d < 2:
        raise ValueError(f"cluster needs at least 2 levels, got {d}")
    check_bytes(d * d * _LEVEL_PAIR_BYTES, f"{d} levels need", "a cluster", "d x d matrices")
    beta = np.zeros((d, d), dtype=complex)
    seen = set()
    for m, n, amp, phase in couplings:
        m, n, amp, phase = as_int(m, "m"), as_int(n, "n"), as_float(amp), as_float(phase)
        if not (0 <= m < d and 0 <= n < d):
            raise ValueError(f"coupling ({m},{n}) out of range for d={d}")
        if m == n:
            raise ValueError(f"diagonal coupling ({m},{m}) not allowed")
        if amp < 0:
            raise ValueError(f"coupling amplitude must be >= 0, got {amp}")
        key = (min(m, n), max(m, n))
        if key in seen:
            raise ValueError(f"duplicate coupling entry for levels {key}")
        seen.add(key)
        if not (math.isfinite(amp) and math.isfinite(phase)):
            raise ValueError("level energies and couplings must be finite")
        beta[m, n] = amp * np.exp(1j * phase)
        beta[n, m] = np.conj(beta[m, n])
    cluster = TargetCluster(label, energies, beta)
    all_transitions(cluster)  # raises for a contrast beyond float range
    return cluster


def spin_one_preset(f_a: float, f_b: float, lam: float) -> TargetCluster:
    """Spin-1 cluster with two transitions sharing the |0> level (type-V).

    Levels are ordered (|-1>, |0>, |+1>) = indices (0, 1, 2) with energies
    (2*pi*f_b, 0, 2*pi*f_a); the coupling is the transverse spin operator
    scaled to lam, so only the (|+-1>, |0>) pairs couple, each with magnitude
    2*pi*(lam/1000)/sqrt(2).  The double transition (|+1>, |-1>) is dark.

    Args:
        f_a: |+1> <-> |0> transition frequency (MHz, cyclic).
        f_b: |-1> <-> |0> transition frequency (MHz, cyclic).
        lam: coupling strength (kHz, cyclic).

    Raises:
        ValueError: if f_a == f_b (degenerate transitions) or inputs are
            not positive.
    """
    label = f"spin-one({f_a},{f_b})"
    f_a, f_b, lam = as_float(f_a), as_float(f_b), as_float(lam)
    if f_a <= 0 or f_b <= 0 or lam <= 0:
        raise ValueError("f_a, f_b and lam must be positive")
    if f_a == f_b:
        raise ValueError("f_a == f_b gives degenerate transitions")
    energies = TWO_PI * np.array([f_b, 0.0, f_a])
    amp = TWO_PI * (lam / 1000.0) / np.sqrt(2.0)
    return new_cluster(label, energies, [(0, 1, amp, 0.0), (2, 1, amp, 0.0)])


def ladder_preset(rung_freqs, rung_couplings) -> TargetCluster:
    """Ladder of d levels; energies are cumulative sums of the rung frequencies.

    Couplings sit only on adjacent rungs; a None entry leaves that rung dark.

    Args:
        rung_freqs: d-1 level spacings (MHz, cyclic), all > 0.
        rung_couplings: d-1 entries, each a coupling amplitude (kHz, cyclic)
            or None.

    Raises:
        ValueError: on empty rungs, length mismatch, or nonpositive spacing.
    """
    rung_freqs = [as_float(f) for f in rung_freqs]
    rung_couplings = [None if c is None else as_float(c) for c in rung_couplings]
    if not rung_freqs:
        raise ValueError("ladder needs at least one rung")
    if len(rung_couplings) != len(rung_freqs):
        raise ValueError(
            f"{len(rung_freqs)} rungs but {len(rung_couplings)} couplings"
        )
    if any(f <= 0 for f in rung_freqs):
        raise ValueError("rung frequencies must be positive")
    energies = TWO_PI * np.concatenate([[0.0], np.cumsum(rung_freqs)])
    couplings = []
    for i, c in enumerate(rung_couplings):
        if c is None:
            continue
        couplings.append((i + 1, i, TWO_PI * (c / 1000.0), 0.0))
    return new_cluster(f"ladder(d={len(rung_freqs) + 1})", energies, couplings)


def ring_preset(f_1: float, f_2: float, couplings) -> TargetCluster:
    """Three levels with all three transitions coupled (ring / type-Delta).

    Levels (0, 1, 2) have energies (0, 2*pi*f_2, 2*pi*f_1); the transition
    frequencies are 2*pi*f_1 (levels 2-0), 2*pi*f_2 (1-0) and
    2*pi*(f_1 - f_2) (2-1), and the three couplings attach in that order.

    Args:
        f_1, f_2: the two largest transition frequencies (MHz), f_1 > f_2 > 0.
        couplings: three entries, each an amplitude (kHz, cyclic) or an
            (amplitude_kHz, phase_rad) pair, for transitions 1, 2, 3.

    Raises:
        ValueError: if f_1 <= f_2, f_2 <= 0, f_1 == 2*f_2 (degenerate third
            transition), or not exactly three couplings.
    """
    label = f"ring({f_1},{f_2})"
    f_1, f_2 = as_float(f_1), as_float(f_2)
    if f_2 <= 0 or f_1 <= f_2:
        raise ValueError("need f_1 > f_2 > 0")
    if f_1 == 2 * f_2:
        raise ValueError("f_1 == 2*f_2 makes the third transition degenerate with the second")
    couplings = list(couplings)
    if len(couplings) != 3:
        raise ValueError(f"ring needs exactly 3 couplings, got {len(couplings)}")
    pairs = [(2, 0), (1, 0), (2, 1)]
    entries = []
    for (m, n), c in zip(pairs, couplings):
        amp, phase = c if isinstance(c, (tuple, list)) else (c, 0.0)
        entries.append((m, n, TWO_PI * (as_float(amp) / 1000.0), phase))
    energies = TWO_PI * np.array([0.0, f_2, f_1])
    return new_cluster(label, energies, entries)


def star_preset(freqs, couplings) -> TargetCluster:
    """Hub level plus satellites; every transition shares the hub (star).

    Level 0 is the hub at energy 0; satellite i sits at 2*pi*freqs[i] and
    couples to the hub with couplings[i].

    Args:
        freqs: satellite transition frequencies (MHz), all distinct and > 0.
        couplings: matching amplitudes (kHz, cyclic) or (amplitude, phase)
            pairs.
    """
    freqs = [as_float(f) for f in freqs]
    couplings = list(couplings)
    if len(freqs) < 2:
        raise ValueError("star needs at least two satellites")
    if len(couplings) != len(freqs):
        raise ValueError("one coupling per satellite required")
    if any(f <= 0 for f in freqs) or len(set(freqs)) != len(freqs):
        raise ValueError("satellite frequencies must be positive and distinct")
    entries = []
    for i, c in enumerate(couplings):
        amp, phase = c if isinstance(c, (tuple, list)) else (c, 0.0)
        entries.append((i + 1, 0, TWO_PI * (as_float(amp) / 1000.0), phase))
    energies = TWO_PI * np.concatenate([[0.0], freqs])
    return new_cluster(f"star(d={len(freqs) + 1})", energies, entries)


def transition(cluster: TargetCluster, m: int, n: int) -> TransitionSpec:
    """Extract the (m, n) transition, oriented so its frequency is positive.

    Raises:
        ValueError: for a non-integer m or n, m == n, degenerate levels
            (omega == 0), a dark transition (zero coupling element), or a
            contrast beyond float range.
    """
    m, n = as_int(m, "m"), as_int(n, "n")
    if m == n:
        raise ValueError(f"({m},{m}) is not a transition")
    d = cluster.dim
    if not (0 <= m < d and 0 <= n < d):
        raise ValueError(f"transition ({m},{n}) out of range for d={d}")
    omega = cluster.energies[m] - cluster.energies[n]
    if omega == 0:
        raise ValueError(f"levels {m} and {n} are degenerate; contrast undefined")
    if omega < 0:
        m, n = n, m
        omega = -omega
    beta = cluster.coupling[m, n]
    if beta == 0:
        raise ValueError(f"transition ({m},{n}) is dark (zero coupling)")
    beta_mag, omega = float(abs(beta)), float(omega)
    delta = beta_mag / omega  # Python floats overflow to inf with no numpy warning
    if np.isinf(delta):
        raise ValueError(
            f"transition ({m},{n}) has contrast {beta_mag:g} / {omega:g}, beyond float range"
        )
    return TransitionSpec(
        m=m,
        n=n,
        omega=omega,
        beta_mag=beta_mag,
        kappa=float(np.angle(beta)),
        delta=delta,
    )


def all_transitions(cluster: TargetCluster) -> list[TransitionSpec]:
    """All non-dark, non-degenerate transitions of a cluster, in row-major
    order of the level pairs m > n."""
    energies = cluster.energies
    bright = np.tril(cluster.coupling != 0, -1) & (energies[:, None] != energies[None, :])
    return [transition(cluster, m, n) for m, n in np.argwhere(bright).tolist()]


def validate_weak_coupling(cluster: TargetCluster) -> list[str]:
    """Diagnostics for transitions violating the weak-coupling assumption.

    Returns one message per nonzero transition with delta > 0.1 (warning)
    or delta >= 1 (error); an empty list means all contrasts are safely small.
    """
    messages = []
    for t in all_transitions(cluster):
        if t.delta >= DELTA_ERROR:
            messages.append(
                f"error: transition ({t.m},{t.n}) has delta = {t.delta:.4g} >= 1; "
                "coupling is not weak and dip formulas do not apply"
            )
        elif t.delta > DELTA_WARN:
            messages.append(
                f"warning: transition ({t.m},{t.n}) has delta = {t.delta:.4g} > 0.1; "
                "leading-order dip formulas lose accuracy"
            )
    return messages
