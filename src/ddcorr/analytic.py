"""Closed-form coherence dips from first-order average-Hamiltonian theory.

On resonance with transition (m, n), a CPMG block of N pulses acts on the
target, to first order in delta = |beta_mn / omega_mn|, as a rotation by
angle N*delta in the (m, n) plane and identity elsewhere.  The sensor
coherence dip is then a normalized trace of a short product of such
rotations, which reduces to the closed forms implemented here for each
transition topology:

  one transition          (d - 2 + 2 cos(2 N delta)) / d
  two, no shared level    (d - 4 + 2 c1 + 2 c2) / d
  two, one shared level   (d - 3 + c1 + c2 + c1 c2) / d
  separate molecules      product of one-transition factors

with c_i = cos(2 N_i delta_i), plus the three-transition variants below.
Driving each transition for N_i = pi/(2 delta_i) pulses (a half period)
pins the dip at a quantized minimum fixed by d and the topology alone.

Pulse counts may be real-valued here: the closed forms are smooth in N and
exactly periodic with period pi/delta_i, which the tests exploit.  Integer
counts matter only when an actual timeline is built.

The closed forms are the first-order limit of magnus_generator, which
carries each block's Magnus expansion to second order over every coupling
of the cluster: the off-resonant first-order terms of the other
transitions, and the commutator term that shifts a level shared by two
driven transitions.  magnus_coherence composes those generators into the
coherence of whole sequences, as the model that scans compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spin_model import SystemModel, TargetCluster, transition

# Topology name -> (driven transitions, least dimension, m of the quantized
# minimum (d - m)/d).  The *-independent topologies drive one transition per
# molecule: their least dimension is per molecule, and their minimum is a
# corner product of one-transition factors instead.
_TOPOLOGIES = {
    "1d": (1, 2, 4),
    "2d-independent": (2, 2, None),
    "2d-uncorrelated": (2, 4, 8),
    "2d-correlated": (2, 3, 4),
    "3d-independent": (3, 2, None),
    "3d-uncorrelated": (3, 6, 12),
    "3d-ring": (3, 3, 4),
    "3d-star": (3, 4, 4),
    "3d-linked-ladder": (3, 4, 8),
    "3d-unlinked-ladder": (3, 5, 8),
}
TOPOLOGIES = tuple(_TOPOLOGIES)
# Below this max(|a|, |b|) * dt the nested segment integral uses its double
# Taylor series, truncated after total order _SERIES_ORDER (error below
# 1e-20 relative), instead of difference quotients that divide by a or b.
_SERIES_TOL = 1e-2
_SERIES_ORDER = 7
# Terms x^j y^k / (j! (k+1)! (j+k+2)) of that series, j + k <= _SERIES_ORDER.
_SERIES_J, _SERIES_K = np.array(
    [(j, k) for j in range(_SERIES_ORDER + 1) for k in range(_SERIES_ORDER + 1 - j)]
).T
_SERIES_COEF = np.array(
    [
        1.0 / (math.factorial(j) * math.factorial(k + 1) * (j + k + 2))
        for j, k in zip(_SERIES_J, _SERIES_K)
    ]
)


@dataclass(frozen=True)
class DipParams:
    """Dimension, contrasts delta_i, and (real-valued) pulse counts N_i."""

    d: int
    deltas: tuple[float, ...]
    pulses: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(float(x) for x in self.deltas))
        object.__setattr__(self, "pulses", tuple(float(x) for x in self.pulses))
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        if len(self.deltas) != len(self.pulses):
            raise ValueError("deltas and pulses must have equal length")
        if any(x <= 0 for x in self.deltas):
            raise ValueError("every delta must be > 0")
        if any(n < 0 for n in self.pulses):
            raise ValueError("pulse counts must be >= 0")


@dataclass(frozen=True)
class Topology:
    """How the driven transitions relate, named as in TOPOLOGIES.

    1d: one transition.  Two transitions: independent (separate molecules),
    uncorrelated (no shared level) or correlated (one shared level).  Three
    transitions: independent, uncorrelated, ring (a closed triangle on
    three levels), star (three transitions sharing a hub level),
    linked-ladder (a chain where consecutive transitions share a level) or
    unlinked-ladder (transitions 2 and 3 chained, transition 1 detached).
    The independent topologies carry one dimension per molecule in dims.
    """

    name: str
    dims: tuple[int, ...] = ()

    def __post_init__(self):
        if self.name not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.name!r}")
        object.__setattr__(self, "dims", tuple(int(x) for x in self.dims))
        least = _TOPOLOGIES[self.name][1]
        if not self.independent:
            if self.dims:
                raise ValueError(f"{self.name} takes no dimension payload")
        elif len(self.dims) != self.arity or any(d < least for d in self.dims):
            raise ValueError(
                f"{self.name} needs {self.arity} dimensions >= {least}, got {self.dims}"
            )

    @property
    def arity(self) -> int:
        """Number of driven transitions."""
        return _TOPOLOGIES[self.name][0]

    @property
    def independent(self) -> bool:
        """One transition per separate molecule."""
        return self.name.endswith("-independent")

    def check_dim(self, d: int) -> None:
        """Raise ValueError unless the topology fits joint dimension d."""
        least = _TOPOLOGIES[self.name][1]
        if self.independent and d != math.prod(self.dims):
            factors = " * ".join(map(str, self.dims))
            raise ValueError(f"joint dimension {d} != {factors} for separate molecules")
        if not self.independent and d < least:
            raise ValueError(f"{self.name} topology needs dimension >= {least}, got {d}")


class PulsePeriod(NamedTuple):
    exact: float
    even: int


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


def _segment_integral(w, dt):
    """integral_0^dt e^{i w x} dx = dt e^{i w dt/2} sinc, elementwise; dt at w = 0."""
    return dt * np.exp(0.5j * w * dt) * np.sinc(w * dt / (2.0 * np.pi))


def _nested_integral(a, b, dt):
    """integral_0^dt dx e^{i a x} integral_0^x dy e^{i b y}, elementwise.

    Divides by the larger of |a|, |b| so the difference quotient stays well
    conditioned; where both are small (including a, b, a + b -> 0) the
    double Taylor series replaces it.
    """
    a, b = np.broadcast_arrays(a, b)
    e_ab = _segment_integral(a + b, dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            np.abs(b) >= np.abs(a),
            (e_ab - _segment_integral(a, dt)) / (1j * b),
            (np.exp(1j * a * dt) * _segment_integral(b, dt) - e_ab) / (1j * a),
        )
    small = np.maximum(np.abs(a), np.abs(b)) * dt < _SERIES_TOL
    x = 1j * dt * a[small][:, None]
    y = 1j * dt * b[small][:, None]
    out[small] = dt**2 * (x**_SERIES_J * y**_SERIES_K) @ _SERIES_COEF
    return out


def magnus_generator(
    cluster: TargetCluster, tau: float, n_pulses: int
) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-order Magnus terms of one CPMG block, all couplings.

    In the interaction frame of H0 = diag(energies), with the block starting
    at t = 0 on coupling sign +1, the block propagator is exp(omega1 +
    omega2 + O(beta^3)); both terms are anti-Hermitian d x d matrices.
    omega1[m, n] = -(i/2) beta[m, n] * integral f(t) e^{i omega_mn t} dt is
    the filter integral at every transition frequency, so it changes sign
    with the coupling sign; omega2, the nested commutator integral, does
    not.  A block entered at time t0 on coupling sign s has the generator
    D (s omega1 + omega2) D^dagger with D = diag(e^{i E t0}).

    Both terms come from exact per-segment antiderivatives, never
    quadrature.  On resonance, omega1 restricted to the driven transition
    exponentiates to magnus_rotation(cluster, m, n, n_pulses).
    """
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if n_pulses != int(n_pulses) or n_pulses < 0:
        raise ValueError(f"n_pulses must be a nonnegative integer, got {n_pulses}")
    d = cluster.dim
    if n_pulses == 0:
        zero = np.zeros((d, d), dtype=complex)
        return zero, zero.copy()
    w = cluster.energies[:, None] - cluster.energies[None, :]
    beta = cluster.coupling
    # segment j runs from starts[j] with sign (-1)^j: tau at both edges, 2 tau inside
    starts = np.concatenate([[0.0], (2 * np.arange(1, n_pulses + 1) - 1) * tau])
    lengths = np.full(starts.size, 2.0 * tau)
    lengths[[0, -1]] = tau
    signs = np.where(np.arange(starts.size) % 2, -1.0, 1.0)
    phases = np.exp(1j * w * starts[:, None, None])
    seg = -0.5j * beta * signs[:, None, None] * phases * _segment_integral(
        w, lengths[:, None, None]
    )
    omega1 = seg.sum(axis=0)
    # pairs of distinct segments: (1/2) sum_j [A_j, sum_{k<j} A_k]
    before = np.cumsum(seg, axis=0) - seg
    omega2 = 0.5 * np.sum(seg @ before - before @ seg, axis=0)
    # pairs within one segment, which depend on its length alone
    w_mk, w_kn = w[:, :, None], w[None, :, :]
    weights = beta[:, :, None] * beta[None, :, :]
    for length, mask in ((tau, lengths == tau), (2.0 * tau, lengths != tau)):
        twist = _nested_integral(w_mk, w_kn, length) - _nested_integral(w_kn, w_mk, length)
        inner = np.einsum("mkn,mkn->mn", weights, twist)
        omega2 -= phases[mask].sum(axis=0) * inner / 8.0
    return omega1, omega2


def _expm_skew(x: np.ndarray) -> np.ndarray:
    """exp(x) for a stack of anti-Hermitian matrices, via eigh of i*x."""
    h = 1j * x
    w, v = np.linalg.eigh(0.5 * (h + np.swapaxes(h, -1, -2).conj()))
    return (v * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def magnus_coherence(system: SystemModel, taus, counts) -> np.ndarray:
    """Second-order Magnus coherence for a batch of block sequences.

    Args:
        taus: the l blocks' pulse half-intervals (us).
        counts: (P, l) pulse counts, one row per sequence.

    Returns the complex coherence of each row: the product over clusters of
    (1/d) Tr[(V^-)^dagger V^+], where V^+- multiplies the blocks'
    exponentiated magnus_generator terms for each sensor branch, moved to
    the block's start time and sign.  V^+- are unitary, so |L| <= 1.
    Generators are built once per distinct (block, count).
    """
    taus = np.asarray(taus, dtype=float)
    counts = np.asarray(counts, dtype=int).reshape(-1, taus.size)
    durations = 2.0 * counts * taus
    starts = np.cumsum(durations, axis=1) - durations
    entry = np.where((np.cumsum(counts, axis=1) - counts) % 2, -1, 1)
    total = np.ones(len(counts), dtype=complex)
    for cluster in system.clusters:
        v = {s: np.eye(cluster.dim, dtype=complex) for s in (1, -1)}
        for j, tau in enumerate(taus):
            values, index = np.unique(counts[:, j], return_inverse=True)
            first, second = map(
                np.array, zip(*(magnus_generator(cluster, tau, int(n)) for n in values))
            )
            props = {s: _expm_skew(s * first + second) for s in (1, -1)}
            phase = np.exp(1j * starts[:, j, None] * cluster.energies)
            for s in (1, -1):
                u = np.where(
                    (s * entry[:, j] > 0)[:, None, None], props[1][index], props[-1][index]
                )
                v[s] = (phase[:, :, None] * u * phase.conj()[:, None, :]) @ v[s]
        total *= np.einsum("pij,pij->p", v[-1].conj(), v[1]) / cluster.dim
    return total


def dip_1d(d: int, delta: float, n_pulses: float) -> float:
    """Single-transition dip (d - 2 + 2 cos(2 N delta)) / d."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return (d - 2 + 2 * math.cos(2 * n_pulses * delta)) / d


def _molecule_product(topology: Topology, params: DipParams) -> float:
    """Product of one-transition dips, one per separate molecule."""
    return math.prod(
        dip_1d(d, delta, n)
        for d, delta, n in zip(topology.dims, params.deltas, params.pulses)
    )


def dip_2d(topology: Topology, params: DipParams) -> float:
    """Two-transition dip for the given topology."""
    if topology.arity != 2 or len(params.deltas) != 2:
        raise ValueError("2D dip needs a 2d topology and exactly two (delta, N) pairs")
    topology.check_dim(params.d)
    if topology.independent:
        return _molecule_product(topology, params)
    c1, c2 = (math.cos(2 * n * dv) for dv, n in zip(params.deltas, params.pulses))
    if topology.name == "2d-uncorrelated":
        return (params.d - 4 + 2 * c1 + 2 * c2) / params.d
    return (params.d - 3 + c1 + c2 + c1 * c2) / params.d


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


def dip_3d(topology: Topology, params: DipParams) -> float:
    """Three-transition dip for the given topology (real part of the trace)."""
    if topology.arity != 3 or len(params.deltas) != 3:
        raise ValueError("3D dip needs a 3d topology and exactly three (delta, N) pairs")
    topology.check_dim(params.d)
    if topology.independent:
        return _molecule_product(topology, params)
    d = params.d
    ca, cb, cc = (math.cos(2 * n * dv) for dv, n in zip(params.deltas, params.pulses))
    if topology.name == "3d-uncorrelated":
        return (d - 6 + 2 * ca + 2 * cb + 2 * cc) / d
    if topology.name == "3d-unlinked-ladder":
        return (d - 5 + 2 * ca + cb + cc + cb * cc) / d
    # ring/star/linked forms carry the middle rotation as split half angles
    half = params.pulses[1] * params.deltas[1]
    cos2, sin2 = math.cos(half) ** 2, math.sin(half) ** 2
    cross = ca * cos2 + cos2 * cc - ca * sin2 * cc - sin2
    if topology.name == "3d-linked-ladder":
        return (d - 4 + ca + cc + cross) / d
    return (d - 3 + ca * cc + cross) / d


def pulse_period(delta: float) -> PulsePeriod:
    """Dip period in pulse number, N_c = pi/delta, and its nearest even integer.

    Even rounding serves grid construction: sweeping N over one period in
    steps of 2 tiles pulse-number space with whole unit cells.
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    exact = math.pi / delta
    return PulsePeriod(exact, 2 * round(exact / 2))


def _factor_extremes(dims):
    """Corner candidates of a product of one-transition factors."""
    lows = [(d - 4) / d for d in dims]
    values = [1.0]
    for low in lows:
        values = [v * x for v in values for x in (low, 1.0)]
    return min(values)


def minima(topology: Topology, d: int) -> float:
    """Quantized dip minimum for a topology at dimension d.

    Each value is the global minimum of the corresponding closed form over
    real pulse counts, reached at half-period driving (N_i = pi/(2 delta_i)).
    """
    topology.check_dim(d)
    m = _TOPOLOGIES[topology.name][2]
    if m is None:
        return _factor_extremes(topology.dims)
    return (d - m) / d
