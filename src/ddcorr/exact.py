"""Exact conditional evolution of target clusters under a pulse timeline.

Between sensor flips the target evolves under H0 + s*f(t)*beta/2, where
s = +-1 labels the sensor eigenstate, H0 = diag(level energies), beta is the
sensor-conditional coupling matrix, and f(t) is the sequence's square-wave
modulation (+1 before the first flip).  The sensor coherence after the
sequence, for a maximally mixed target, is

    L_k = (1/d) Tr[(U^-)^dagger U^+]

per cluster, and the product over clusters for a system of independent
clusters.

Only two Hamiltonians ever appear (H0 + beta/2 and H0 - beta/2), so each is
eigendecomposed once and every segment propagator is a diagonal phase
sandwich.  A CPMG block's lab-frame propagator depends only on its (tau, N)
and the coupling sign it is entered on, so scans build one stack of block
propagators per block (block_stacks, folded from its segments by
fold_blocks at a cost of log N per count) and compose_branches multiplies
a batch of block sequences from them, picking each block's entry sign
from the parity of the pulses before it.

A sequence cut at a block boundary into a left part Lft (played first) and
a right part R has U^+- = R^+- Lft^+-, so

    (1/d) Tr[(U^-)^dagger U^+] = (1/d) Tr[Y X],
    X = Lft^+ (Lft^-)^dagger,  Y = (R^-)^dagger R^+,

with R entered on the sign the parity of Lft's pulses selects (an odd
parity swaps R's branches, which turns Y into its adjoint).
factor_coherence composes every distinct left and right part once and
gets the coherence of all their pairs from one matrix product of the
flattened X and Y per cluster, so a scan grid split across the cut costs
N_left + N_right compositions instead of N_left * N_right.
conditional_propagator keeps the literal segment-by-segment product as the
reference; coherence_cluster and coherence_system evaluate it.
"""

from __future__ import annotations

import numpy as np

from .sequence import PulseTimeline
from .spin_model import SystemModel, TargetCluster

def _segment_propagators(cluster: TargetCluster, dts) -> np.ndarray:
    """exp(-i (H0 +- beta/2) dt) per dt, (2, len(dts), d, d); [0] is coupling sign +1."""
    h0 = np.diag(cluster.energies)
    w, v = np.linalg.eigh(np.stack([h0 + cluster.coupling / 2.0, h0 - cluster.coupling / 2.0]))
    phases = np.exp(-1j * w[:, None, :] * np.asarray(dts, dtype=float)[:, None])
    return (v[:, None] * phases[..., None, :]) @ np.swapaxes(v, -1, -2).conj()[:, None]


def conditional_propagator(
    cluster: TargetCluster, timeline: PulseTimeline, sensor_sign: int
) -> np.ndarray:
    """Target propagator for one sensor eigenstate, literal segment product.

    Args:
        sensor_sign: +1 or -1, selecting H0 + beta/2 or H0 - beta/2 for the
            first segment; the coupling sign toggles at every flip.
    """
    if sensor_sign not in (1, -1):
        raise ValueError(f"sensor_sign must be +1 or -1, got {sensor_sign}")
    dts = np.diff(np.concatenate([[0.0], timeline.flip_times, [timeline.total_time]]))
    segments = _segment_propagators(cluster, dts)
    # segment p has coupling sign sensor_sign * (-1)^p
    first = 0 if sensor_sign == 1 else 1
    u = np.eye(cluster.dim, dtype=complex)
    for p in range(dts.size):
        u = segments[(first + p) % 2, p] @ u
    return u


def check_blocks(taus, counts) -> tuple[np.ndarray, np.ndarray]:
    """taus and counts as float and int arrays of CPMG blocks.

    Raises ValueError unless every tau is finite and > 0 and every count is
    an integer >= 0, so that no block is built from a NaN, a negative or a
    truncated value.
    """
    taus = np.asarray(taus, dtype=float)
    bad = taus[~(np.isfinite(taus) & (taus > 0))]
    if bad.size:
        raise ValueError(f"tau must be finite and > 0, got {bad[0]:g}")
    raw = np.asarray(counts)
    values = raw.astype(float)
    bad = values[~(np.isfinite(values) & (values >= 0) & (values == np.floor(values)))]
    if bad.size:
        raise ValueError(f"pulse counts must be integers >= 0, got {bad[0]:g}")
    return taus, raw.astype(int)


def _power(cell, ks, combine, one):
    """cell^k for each of the sorted distinct ks, on the count axis: the
    square of cell^(k // 2), times cell where k is odd."""
    if ks.max(initial=0) <= 1:
        return np.where((ks == 1)[:, None, None], cell, one)
    half, inverse = np.unique(ks // 2, return_inverse=True)
    root = _power(cell, half, combine, one)
    square = combine(root, root)[..., inverse, :, :]
    return combine(np.where((ks % 2 == 1)[:, None, None], cell, one), square)


def fold_blocks(edge, inner, counts, combine, one):
    """The CPMG block of every count, on a count axis at -3, from its segments.

    Elements are arrays (..., d, d); combine(later, earlier) concatenates
    two, and one is the identity (zero counts give it).  edge and inner
    hold the tau and 2 tau segments, [0] on the entry sign and [1] on the
    other.  A block of N >= 1 pulses is a tau segment, N - 1 of 2 tau with
    alternating sign and a closing tau segment; later factors first,

        edge[N % 2] inner[1]^(N even) cell^k edge[0],
        cell = inner[0] inner[1],  k = (N - 1) // 2.
    """
    counts = np.asarray(counts)
    # a count axis of length 1 on every element, for broadcasting
    e0, e1, i0, i1, one = (x[..., None, :, :] for x in (*edge, *inner, one))
    ks, inverse = np.unique(np.maximum(counts - 1, 0) // 2, return_inverse=True)
    cells = _power(combine(i0, i1), ks, combine, one)[..., inverse, :, :]
    tail = np.where((counts % 2 == 0)[:, None, None], combine(e0, i1), e1)
    return np.where((counts == 0)[:, None, None], one, combine(tail, combine(cells, e0)))


def block_stacks(cluster: TargetCluster, taus, counts) -> np.ndarray:
    """Lab-frame CPMG block propagators for every (tau, N) pair, both entry signs.

    Returns shape (2, len(taus), len(counts), d, d); [0] is the block entered
    on coupling sign +1, [1] on -1: entered on -1, the segments' sign pair
    swaps.
    """
    taus, counts = check_blocks(taus, counts)
    edge, inner = np.split(_segment_propagators(cluster, np.append(taus, 2.0 * taus)), 2, axis=1)
    one = np.eye(cluster.dim, dtype=complex)
    return fold_blocks((edge, edge[::-1]), (inner, inner[::-1]), counts, np.matmul, one)


def compose_branches(cluster: TargetCluster, taus, counts, block_stack) -> np.ndarray:
    """U^+ ([0]) and U^- ([1]) of P block sequences, shape (2, P, d, d).

    taus and counts are (P, l): each row's block spacings (us) and pulse
    counts.  block_stack(cluster, taus, counts) gives the propagators of
    every (tau, N) pair as block_stacks does; it is called once per block
    with that block's distinct values.  A row's block j enters on coupling
    sign (-1)^(pulses before block j) in U^+ and the opposite sign in U^-.
    Rows of l = 0 blocks give the identity.
    """
    taus, counts = check_blocks(taus, counts)
    d = cluster.dim
    flipped = (np.cumsum(counts, axis=1) - counts) % 2
    branches = np.broadcast_to(np.eye(d, dtype=complex), (2, len(counts), d, d))
    for j in range(counts.shape[1]):
        tau_values, tau_index = np.unique(taus[:, j], return_inverse=True)
        count_values, count_index = np.unique(counts[:, j], return_inverse=True)
        stack = block_stack(cluster, tau_values, count_values)
        stack = stack.reshape(2, -1, d, d)
        row = tau_index * count_values.size + count_index
        blocks = stack[np.stack([flipped[:, j], 1 - flipped[:, j]]), row]
        branches = blocks @ branches if j else blocks
    return branches


def factor_coherence(system: SystemModel, left, right, block_stack) -> np.ndarray:
    """Coherence of every (left row, right row) pair of sequences, shape (A, B).

    left and right are (taus, counts) pairs of shapes (A, c) and (B, l - c):
    the first c blocks and the last l - c blocks of a sequence.  Each part
    is composed once per row by compose_branches, and each cluster's
    (1/d) Tr[Y X] for all pairs is one matrix product per left parity.
    """
    left_taus, left_counts = check_blocks(*left)
    odd = left_counts.sum(axis=1) % 2 == 1
    total = np.ones((len(left_counts), len(right[1])), dtype=complex)
    for cluster in system.clusters:
        d = cluster.dim
        lft_plus, lft_minus = compose_branches(cluster, left_taus, left_counts, block_stack)
        r_plus, r_minus = compose_branches(cluster, *right, block_stack)
        x = lft_plus @ np.swapaxes(lft_minus, -1, -2).conj()
        y = (np.swapaxes(r_minus, -1, -2).conj() @ r_plus).reshape(-1, d * d)
        # Tr[Y X] = sum_ij Y_ij X_ji; after an odd left part Y is Y^dagger
        # and the sum reads conj(Y_ji) X_ji
        pairs = np.empty_like(total)
        pairs[~odd] = np.swapaxes(x[~odd], -1, -2).reshape(-1, d * d) @ y.T
        pairs[odd] = x[odd].reshape(-1, d * d) @ y.conj().T
        total *= pairs / d
    return total


def coherence_cluster(cluster: TargetCluster, timeline: PulseTimeline) -> complex:
    """Sensor coherence (1/d) Tr[(U^-)^dagger U^+] contributed by one cluster."""
    plus = conditional_propagator(cluster, timeline, 1)
    minus = conditional_propagator(cluster, timeline, -1)
    return complex(np.trace(minus.conj().T @ plus) / cluster.dim)


def coherence_system(model: SystemModel, timeline: PulseTimeline) -> complex:
    """Product of per-cluster coherences for independent clusters."""
    val = 1.0 + 0.0j
    for cluster in model.clusters:
        val *= coherence_cluster(cluster, timeline)
    return complex(val)
