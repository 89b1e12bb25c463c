"""Independent reference for the sensor coherence of a multi-block CPMG sequence.

For one cluster with level energies E and coupling matrix beta, the target
evolves under H0 + s f(t) beta / 2 with H0 = diag(E), where s = +-1 is the
sensor branch and f(t) = +-1 toggles at every flip.  Block i flips at
(2p - 1) tau_i, p = 1..N_i, after the start of the block, and lasts
2 N_i tau_i.  The coherence is

    L = prod over clusters of (1/d) Tr[(U^-)^dagger U^+],

with U^s the literal product of scipy.linalg.expm over the segments between
flips.  Nothing here uses ddcorr: inputs are plain arrays and
(tau, pulse count) pairs, so the reference shares no code with the engines
it checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm


def resonant_tau(omega: float, order: int = 1) -> float:
    """Half-interval with 2 tau = pi (2 order - 1) / omega, omega in rad/us."""
    return math.pi * (2 * order - 1) / (2.0 * abs(omega))


def flip_times(blocks) -> tuple[list[float], float]:
    """Absolute flip times and total duration of (tau_us, n_pulses) blocks."""
    flips, start = [], 0.0
    for tau, n_pulses in blocks:
        flips += [start + (2 * p - 1) * tau for p in range(1, n_pulses + 1)]
        start += 2 * n_pulses * tau
    return flips, start


def branch_propagator(energies, coupling, blocks, sign: int) -> np.ndarray:
    """U^sign: the segment product starting on coupling sign `sign`."""
    h0 = np.diag(np.asarray(energies, dtype=complex))
    beta = np.asarray(coupling, dtype=complex)
    flips, total = flip_times(blocks)
    u = np.eye(h0.shape[0], dtype=complex)
    t = 0.0
    for edge in flips + [total]:
        u = expm(-1j * (h0 + sign * beta / 2.0) * (edge - t)) @ u
        t, sign = edge, -sign
    return u


def coherence(clusters, blocks) -> complex:
    """L for independent clusters given as (energies, coupling) pairs."""
    value = 1.0 + 0.0j
    for energies, coupling in clusters:
        u_plus = branch_propagator(energies, coupling, blocks, 1)
        u_minus = branch_propagator(energies, coupling, blocks, -1)
        value *= np.trace(u_minus.conj().T @ u_plus) / len(energies)
    return complex(value)


def agrees(value: complex, reference: complex, tol: float) -> bool:
    """True when |value - reference| <= tol."""
    return abs(complex(value) - complex(reference)) <= tol
