"""Measurement-time budgeting for dip spectroscopy with optical readout.

A single sensor readout discriminates the two outcomes with fidelity
F = [1 + 2(a0 + a1)/(a0 - a1)^2]^(-1/2), where a0 and a1 are the mean
detected photon numbers per shot for the two sensor states.  Reaching a
target signal-to-noise ratio xi on the coherence therefore takes
K = ceil(xi^2 / F^2) repetitions.

The deepest 2D dip sits at half-period driving (N_i = pi/(2 delta_i)) of
both transitions, giving the per-shot evolution time

    t_dip = pi^2/(2 delta_1 omega_1) + pi^2/(2 delta_2 omega_2)   (us)

and a per-point wall time T = K * (t_dip + t_ir), with t_ir the
initialization + readout overhead per shot.  Sweeping a full unit cell
N_1c x N_2c in steps of dN costs ceil(N_1c/dN) * ceil(N_2c/dN) points; the
uniform estimate charges every point the dip-time T, while the exact mode
sums each grid point's actual evolution time at first-order resonance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_T_IR_US = 1.0
_US_PER_S = 1e6


@dataclass(frozen=True)
class ReadoutModel:
    """Readout quality, given directly as a fidelity or as photon means."""

    fidelity: float

    def __post_init__(self):
        if not 0 < self.fidelity <= 1:
            raise ValueError(f"fidelity must be in (0, 1], got {self.fidelity}")

    @classmethod
    def from_photon_means(cls, alpha0: float, alpha1: float) -> "ReadoutModel":
        return cls(readout_fidelity(alpha0, alpha1))


@dataclass(frozen=True)
class PlanReport:
    """Shot count and time budget for one dip point and a unit-cell sweep."""

    fidelity: float
    snr: float
    shots: int
    dip_time_us: float
    point_time_s: float
    sweep_points: int | None = None
    sweep_time_s: float | None = None

    def __post_init__(self):
        for name in ("fidelity", "snr", "shots", "dip_time_us", "point_time_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def to_json_dict(self) -> dict:
        return {
            "F": self.fidelity,
            "K": self.shots,
            "t_dip_us": self.dip_time_us,
            "t_point_s": self.point_time_s,
            "sweep_points": self.sweep_points,
            "t_sweep_s": self.sweep_time_s,
        }


def readout_fidelity(alpha0: float, alpha1: float) -> float:
    """F = [1 + 2(a0 + a1)/(a0 - a1)^2]^(-1/2) from per-shot photon means."""
    if alpha0 < 0 or alpha1 < 0:
        raise ValueError("photon means must be >= 0")
    if alpha0 == alpha1:
        raise ValueError("indistinguishable states: alpha0 = alpha1 gives F = 0")
    return (1 + 2 * (alpha0 + alpha1) / (alpha0 - alpha1) ** 2) ** -0.5


def shots_for_snr(fidelity: float, snr: float) -> int:
    """K = ceil(xi^2 / F^2) repetitions to resolve the dip at SNR xi."""
    if fidelity <= 0 or snr <= 0:
        raise ValueError("fidelity and snr must be > 0")
    return math.ceil((snr / fidelity) ** 2)


def dip_time(delta1: float, omega1: float, delta2: float, omega2: float) -> float:
    """Evolution time (us) of the deepest 2D dip; omega in rad/us.

    Block i runs N_ic/2 = pi/(2 delta_i) pulses at the resonant interval
    2 tau_i = pi/omega_i, contributing pi^2/(2 delta_i omega_i).
    """
    if min(delta1, omega1, delta2, omega2) <= 0:
        raise ValueError("all deltas and omegas must be > 0")
    return math.pi**2 / (2 * delta1 * omega1) + math.pi**2 / (2 * delta2 * omega2)


def point_time(shots: int, dip_time_us: float, t_ir_us: float = DEFAULT_T_IR_US) -> float:
    """Wall time (s) for one grid point: K * (evolution + overhead)."""
    if shots <= 0 or dip_time_us <= 0 or t_ir_us < 0:
        raise ValueError("need shots > 0, dip_time > 0, t_ir >= 0")
    return shots * (dip_time_us + t_ir_us) / _US_PER_S


def sweep_time(
    shots: int,
    deltas,
    omegas,
    t_ir_us: float = DEFAULT_T_IR_US,
    step: int = 2,
    mode: str = "uniform",
) -> tuple[int, float]:
    """(points, seconds) to record a full unit cell, one axis per transition.

    mode "uniform" charges every point the dip-point time; mode "exact" sums
    the true per-point evolution N_1*2*tau_1 + ... over the even-N grid
    (N_i = 0, step, ..., < N_ic), which is cheaper since most points evolve
    for less than the dip time.
    """
    deltas = tuple(float(x) for x in deltas)
    omegas = tuple(float(x) for x in omegas)
    if len(deltas) != len(omegas) or not deltas:
        raise ValueError("need matching nonempty deltas and omegas")
    if min(deltas) <= 0 or min(omegas) <= 0:
        raise ValueError("all deltas and omegas must be > 0")
    if shots <= 0 or step < 1:
        raise ValueError("need shots > 0 and step >= 1")
    if mode not in ("uniform", "exact"):
        raise ValueError(f"mode must be uniform or exact, got {mode!r}")
    counts = [math.ceil(math.pi / delta / step) for delta in deltas]
    points = math.prod(counts)
    if mode == "uniform":
        if len(deltas) != 2:
            raise ValueError("uniform mode prices points at the 2D dip time")
        t_dip = dip_time(deltas[0], omegas[0], deltas[1], omegas[1])
        return points, points * point_time(shots, t_dip, t_ir_us)
    # N_i = k * step over k < counts[i] averages step * (counts[i] - 1) / 2
    # pulses, each 2 tau_i long, so the mean evolution per point is:
    taus = [math.pi / (2 * omega) for omega in omegas]
    evolution = step * sum(tau * (count - 1) for tau, count in zip(taus, counts))
    return points, shots * points * (evolution + t_ir_us) / _US_PER_S


def plan(
    fidelity: float,
    snr: float,
    delta_omegas=None,
    deltas=None,
    omegas=None,
    t_ir_us: float = DEFAULT_T_IR_US,
    step: int = 2,
) -> PlanReport:
    """Assemble the full budget report.

    delta_omegas: two products delta_i * omega_i (rad/us), enough for the
    shot count and dip/point times.  Supplying deltas and omegas separately
    additionally prices the unit-cell sweep (the cell size depends on the
    deltas alone).
    """
    if delta_omegas is None:
        if deltas is None or omegas is None:
            raise ValueError("give delta_omegas, or deltas and omegas")
        delta_omegas = [d * w for d, w in zip(deltas, omegas)]
    if len(delta_omegas) != 2:
        raise ValueError("dip time is defined for exactly two transitions")
    readout = ReadoutModel(fidelity)
    shots = shots_for_snr(readout.fidelity, snr)
    # the dip time depends on each product delta_i * omega_i alone
    t_dip = dip_time(delta_omegas[0], 1.0, delta_omegas[1], 1.0)
    t_point = point_time(shots, t_dip, t_ir_us)
    sweep_points = sweep_s = None
    if deltas is not None and omegas is not None:
        sweep_points, sweep_s = sweep_time(shots, deltas, omegas, t_ir_us, step)
    return PlanReport(
        fidelity=readout.fidelity,
        snr=snr,
        shots=shots,
        dip_time_us=t_dip,
        point_time_s=t_point,
        sweep_points=sweep_points,
        sweep_time_s=sweep_s,
    )
