"""Closed-form coherence dips from first-order average-Hamiltonian theory.

On resonance with transition (m, n), a CPMG block of N pulses acts on the
target, to first order in delta = |beta_mn / omega_mn|, as a rotation by
angle N*delta in the (m, n) plane and identity elsewhere.  The sensor
coherence dip is then a normalized trace of a short product of such
rotations, which reduces to one closed form per transition topology:

  one transition          (d - 2 + 2 cos(2 N delta)) / d
  two, no shared level    (d - 4 + 2 c1 + 2 c2) / d
  two, one shared level   (d - 3 + c1 + c2 + c1 c2) / d
  separate molecules      product of one-transition factors

with c_i = cos(2 N_i delta_i), plus the three-transition variants.  One
table, TOPOLOGIES, holds each as its coefficients over products of c_i.
AnalyticModel(topology, deltas, dims).evaluate(pulses) is the one entry
point for all ten, and one check of (dims, deltas, counts) guards them.
The forms are multilinear, so their minima (minima) lie at corners c_i = +-1.

Pulse counts may be real-valued here: the closed forms are smooth in N and
exactly periodic with period pi/delta_i, which the tests exploit.  Integer
counts matter only when an actual timeline is built.

The closed forms are the first-order limit of magnus_generator, which
carries each block's Magnus expansion to second order over every coupling
of the cluster: the off-resonant first-order terms of the other
transitions, and the commutator term that shifts a level shared by two
driven transitions.  magnus_axis gives the same generators for every
pulse count of one tau by folding the terms of a tau and a 2 tau segment
with the second-order BCH rule for concatenated runs (exact.fold_blocks),
with magnus_generator kept as the literal per-count reference.
magnus_coherence composes the axis generators into the coherence of whole
sequences, as the model that scans compare against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .exact import factor_coherence, fold_blocks
from .sequence import check_blocks
from .spin_model import InputError, SystemModel, TargetCluster, as_float, as_int, check_phase


class Shape(NamedTuple):
    """A row of TOPOLOGIES: what a topology's closed form, checks and minimum need."""

    arity: int  # driven transitions
    least: int  # least dimension, per molecule
    independent: bool  # one driven transition per separate molecule
    coef: Callable  # coef(d): d times one molecule's dip coefficients

    def floor(self, d: int) -> float:
        """d times one molecule's least dip, at a corner c_i = +-1 (d unchecked)."""
        return min(_weigh(self.coef(d), c) for c in itertools.product((1, -1), repeat=self.arity))


def _weigh(coef, c) -> float:
    """coef . the products of c over each subset in binary order (1, c0, c1,
    c0 c1, c2, ...), as far as coef goes, summed left to right."""
    terms = [1]
    for x in c:
        terms += [t * x for t in terms]
    total = 0
    for a, t in zip(coef, terms):
        total += a * t
    return total


def _coef(*rest):
    """coef(d) of a dip that is 1 at zero pulses: d - sum(rest), then rest."""
    return lambda d: (d - sum(rest), *rest)


# Topology name -> its Shape, the one place that knows them; coef in _weigh's order.
TOPOLOGIES = {
    "1d": Shape(1, 2, False, _coef(2)),
    "2d-independent": Shape(2, 2, True, _coef(2)),
    "2d-uncorrelated": Shape(2, 4, False, _coef(2, 2, 0)),
    "2d-correlated": Shape(2, 3, False, _coef(1, 1, 1)),
    "3d-independent": Shape(3, 2, True, _coef(2)),
    "3d-uncorrelated": Shape(3, 6, False, _coef(2, 2, 0, 2, 0, 0, 0)),
    "3d-ring": Shape(3, 3, False, _coef(*[0.5] * 7)),
    "3d-star": Shape(3, 4, False, _coef(*[0.5] * 7)),
    "3d-linked-ladder": Shape(3, 4, False, _coef(1.5, 0.5, 0.5, 1.5, -0.5, 0.5, 0.5)),
    "3d-unlinked-ladder": Shape(3, 5, False, _coef(2, 1, 0, 1, 0, 1, 0)),
}
# Below this max(|a|, |b|) * dt the nested segment integral uses its double
# Taylor series, truncated after total order _SERIES_ORDER (error below
# 1e-20 relative), instead of difference quotients that divide by a or b.
_SERIES_TOL = 1e-2
_SERIES_ORDER = 7
# _SERIES_COEF[j][k] = 1 / (j! (k+1)! (j+k+2)) is the coefficient of x^j y^k
# (x = i a dt, y = i b dt) in that series over dt^2, j + k <= _SERIES_ORDER.
_SERIES_COEF = [
    [
        1.0 / (math.factorial(j) * math.factorial(k + 1) * (j + k + 2))
        for k in range(_SERIES_ORDER + 1 - j)
    ]
    for j in range(_SERIES_ORDER + 1)
]


class PulsePeriod(NamedTuple):
    exact: float
    even: int


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
    x = 1j * dt * a[small]
    y = 1j * dt * b[small]
    # Horner's rule in y inside each power of x, then in x, so the series
    # holds a few (n,) arrays whatever its order
    series = 0.0
    for row in reversed(_SERIES_COEF):
        inner = 0.0
        for coef in reversed(row):
            inner = inner * y + coef
        series = series * x + inner
    out[small] = dt**2 * series
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
    exponentiates to reference.magnus_rotation(cluster, m, n, n_pulses).
    This is the literal per-count reference; magnus_axis gives the same
    terms for a whole pulse axis at once.
    """
    tau, n_pulses = (x.item() for x in check_blocks(tau, n_pulses))
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


def _concat(later, earlier):
    """Magnus terms (S, Q, phase) of earlier followed by later, stacked.

    S is a run's first-order term from t = 0, Q has its second-order term
    P as anti-Hermitian part (Q - Q^dagger) / 2, and phase is e^{i w T}
    for its length T.  A shift by t multiplies terms elementwise by
    e^{i w t}, an automorphism of the matrix product, so the BCH rule for
    concatenated runs (Blanes et al., Phys. Rep. 470, 151 (2009), sec. 2)
    gives (S1 + ph1 S2, P1 + ph1 P2 + (1/2) [ph1 S2, S1], ph1 ph2).  The S
    are anti-Hermitian, so that commutator is the anti-Hermitian part of
    ph1 S2 S1, which Q takes whole.
    """
    out = earlier[2] * later
    cross = out[0] @ earlier[0]
    out[:2] += earlier[:2]
    out[1] += cross
    return out


def magnus_axis(cluster: TargetCluster, tau: float, counts) -> tuple[np.ndarray, np.ndarray]:
    """magnus_generator(cluster, tau, N) for every N in counts, in one fold.

    Returns (omega1, omega2), each (len(counts), d, d), by exact.fold_blocks
    with _concat.  A tau segment of sign s has the terms (s S, P, e^{i w
    tau}), with S the filter integral and P the within-segment term of
    magnus_generator (anti-Hermitian, so its own Q); a 2 tau segment is two
    tau segments of one sign.  P takes one _nested_integral over the d^3
    level triples, whose few (d^3,) arrays bound the working set whatever
    the level gaps.  Counts may be unsorted and repeated; zero counts give
    zeros.
    """
    tau, counts = check_blocks(tau, counts)
    w = cluster.energies[:, None] - cluster.energies[None, :]
    beta = cluster.coupling
    # w is antisymmetric and conj(nested(a, b)) = nested(-a, -b), so the
    # [m, k, n] twin nested(w_kn, w_mk) is nested's [n, k, m] conjugate
    nested = _nested_integral(w[:, :, None], w[None, :, :], tau)
    twist = nested - np.swapaxes(nested, 0, 2).conj()
    within = -np.einsum("mkn,mkn->mn", beta[:, :, None] * beta[None, :, :], twist) / 8.0
    first = -0.5j * beta * _segment_integral(w, tau)
    edge = [np.stack([s * first, within, np.exp(1j * w * tau)]) for s in (1, -1)]
    one = np.array([0, 0, 1], dtype=complex)[:, None, None] * np.ones(w.shape)
    inner = [_concat(x, x) for x in edge]
    omega1, q, _ = fold_blocks(edge, inner, counts, _concat, one)
    return omega1, 0.5 * (q - np.swapaxes(q, -1, -2).conj())


def _expm_skew(x: np.ndarray) -> np.ndarray:
    """exp(x) for a stack of anti-Hermitian matrices, via eigh of i*x."""
    h = 1j * x
    w, v = np.linalg.eigh(0.5 * (h + np.swapaxes(h, -1, -2).conj()))
    return (v * np.exp(-1j * w)[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def magnus_stacks(cluster: TargetCluster, taus, counts) -> np.ndarray:
    """Lab-frame Magnus block propagators, shaped and ordered as exact.block_stacks.

    A block of N pulses entered on coupling sign s is e^{-i H0 T}
    exp(s omega1 + omega2), T = 2 N tau: the interaction-frame generator of
    magnus_generator, moved to the lab frame, which makes it independent of
    the block's start time.  The generators of every count come from one
    magnus_axis pass per tau.
    """
    terms = np.array([magnus_axis(cluster, tau, counts) for tau in taus])
    first, second = np.moveaxis(terms, 1, 0)
    free = np.exp(-2j * np.multiply.outer(np.outer(taus, counts), cluster.energies))
    return np.stack([free[..., None] * _expm_skew(s * first + second) for s in (1, -1)])


def magnus_coherence(system: SystemModel, taus, counts) -> np.ndarray:
    """Second-order Magnus coherence for a batch of block sequences.

    Args:
        taus: the l blocks' pulse half-intervals (us).
        counts: (P, l) pulse counts, one row per sequence.

    Returns the complex coherence of each row: the product over clusters of
    (1/d) Tr[(V^-)^dagger V^+], where V^+- multiplies the blocks'
    exponentiated magnus_generator terms for each sensor branch, entered on
    the block's coupling sign.  V^+- are unitary, so |L| <= 1.  Each
    block's generators come from one magnus_axis pass over its distinct
    counts and are composed by exact.factor_coherence with an empty left
    part, as the exact engine's blocks are.
    """
    taus = np.asarray(taus)
    counts = np.reshape(counts, (-1, taus.size))
    empty = np.empty((1, 0))
    right = (np.broadcast_to(taus, counts.shape), counts)
    return factor_coherence(system, (empty, empty), right, magnus_stacks)[0]


def _shape(topology: str, dims) -> tuple[Shape, tuple[int, ...]]:
    """topology's Shape and dims as ints (spin_model.as_int), if there is
    one dimension per molecule, each from the topology's least to float
    range (else an InputError naming "dims")."""
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    shape, dims = TOPOLOGIES[topology], tuple(as_int(x, "dims") for x in dims)
    if shape.independent:
        if len(dims) != shape.arity or min(dims) < shape.least:
            message = f"{topology} needs {shape.arity} dimensions >= {shape.least}, got {dims}"
            raise InputError(message, ("dims",))
    elif len(dims) != 1 or dims[0] < shape.least:
        got = ", ".join(map(str, dims))
        message = f"{topology} topology needs dimension >= {shape.least}, got {got}"
        raise InputError(message, ("dims",))
    if as_float(max(dims)) == math.inf:
        raise InputError(f"dims must be finite, got {max(dims)}", ("dims",))
    return shape, dims


@dataclass(frozen=True)
class AnalyticModel:
    """The closed-form dip of one topology, at real-valued pulse counts.

    topology names how the driven transitions relate, as in TOPOLOGIES.
    1d: one transition.  Two transitions: independent (separate molecules),
    uncorrelated (no shared level) or correlated (one shared level).  Three
    transitions: independent, uncorrelated, ring (a closed triangle on
    three levels), star (three transitions sharing a hub level),
    linked-ladder (a chain where consecutive transitions share a level) or
    unlinked-ladder (transitions 2 and 3 chained, transition 1 detached).

    deltas[i] is the contrast of the topology's i-th driven transition (the
    one block i targets).  dims holds one dimension per molecule: (d,) for
    one cluster, one per transition for the independent topologies; d is
    their product, the joint dimension.  A refused field raises an
    InputError naming it ("deltas" or "dims"), as evaluate does for its
    "pulses".  Scans do not read the model: their analytic engines evaluate
    the second-order Magnus model of the whole system.
    """

    topology: str
    deltas: tuple[float, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(as_float(x) for x in self.deltas))
        shape, dims = _shape(self.topology, self.dims)
        object.__setattr__(self, "dims", dims)
        if len(self.deltas) != shape.arity:
            message = f"{shape.arity} deltas required for this topology, got {len(self.deltas)}"
            raise InputError(message, ("deltas",))
        if not all(0 < x < math.inf for x in self.deltas):
            raise InputError(f"every delta must be finite and > 0, got {self.deltas}", ("deltas",))

    @property
    def d(self) -> int:
        """The joint dimension, the product of dims."""
        return math.prod(self.dims)

    def evaluate(self, pulses) -> float:
        """The dip at pulse counts N_i, one per delta (the real part of the trace).

        Raises an InputError unless there is one count per delta, every
        count is finite and >= 0, and every phase 2 N_i delta_i is within
        spin_model.PHASE_RANGE (naming "deltas" and "pulses").
        """
        deltas, counts = self.deltas, tuple(as_float(n) for n in pulses)
        if len(counts) != len(deltas):
            raise InputError("one pulse count per block required", ("pulses",))
        if not all(0 <= n < math.inf for n in counts):
            raise InputError(f"pulse counts must be finite and >= 0, got {counts}", ("pulses",))
        phase, n, delta = max((2 * n * delta, n, delta) for delta, n in zip(deltas, counts))
        reach = f"2 N delta = 2 x {n:g} x {delta:g}"
        check_phase(phase, reach, "a closed-form dip", ("deltas", "pulses"))
        shape = TOPOLOGIES[self.topology]
        c = [math.cos(2 * n * delta) for delta, n in zip(deltas, counts)]
        molecules = zip(self.dims, zip(c)) if shape.independent else [(self.d, c)]
        return math.prod(_weigh(shape.coef(d), x) / d for d, x in molecules)


def pulse_period(delta: float) -> PulsePeriod:
    """Dip period in pulse number, N_c = pi/delta, and its nearest even integer.

    Even rounding serves grid construction: sweeping N over one period in
    steps of 2 tiles pulse-number space with whole unit cells.
    """
    exact = math.pi / as_float(delta) if delta > 0 else 0.0
    if not 0 < exact < math.inf:  # so NaN, inf and a delta too small for pi/delta fail
        raise ValueError(f"delta must be finite and > 0 with pi/delta finite, got {delta}")
    return PulsePeriod(exact, 2 * round(exact / 2))


def minima(topology: str, dims) -> float:
    """Quantized dip minimum of a topology, dims as in AnalyticModel.

    Each value is the global minimum of the corresponding closed form over
    real pulse counts, reached at half-period driving (N_i = pi/(2 delta_i)).
    For separate molecules it is the least corner product of the molecules'
    minima Shape.floor(d_i)/d_i and 1.
    """
    shape, dims = _shape(topology, dims)
    factors = [(shape.floor(d) / d, 1.0) for d in dims]
    return min(math.prod(corner) for corner in itertools.product(*factors))
