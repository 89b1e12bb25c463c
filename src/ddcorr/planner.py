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
N_1c x N_2c in pulse-count steps of 2, the step of a scan's pulse axes,
costs ceil(N_1c/2) * ceil(N_2c/2) points, each charged the dip-point time
T, about the cell's mean per-point evolution.
Inputs that give a count or time too large for a float raise BudgetOverflow.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

DEFAULT_T_IR_US = 1.0
_US_PER_S = 1e6


class BudgetOverflow(ValueError):
    """A shot count, unit cell or time too large for a float.

    From plan(), inputs names the plan() arguments the value depends on.
    """

    def __init__(self, message: str, inputs: tuple[str, ...] = ()):
        super().__init__(message)
        self.inputs = inputs


def check_fidelity(fidelity: float) -> float:
    """fidelity, if it is a readout fidelity in (0, 1] (see readout_fidelity)."""
    if not 0 < fidelity <= 1:
        raise ValueError(f"fidelity must be in (0, 1], got {fidelity}")
    return fidelity


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
    try:
        return (1 + 2 * (alpha0 + alpha1) / (alpha0 - alpha1) ** 2) ** -0.5
    except OverflowError:
        raise ValueError(
            f"photon means {alpha0:g} and {alpha1:g} are too large to evaluate F"
        ) from None


def shots_for_snr(fidelity: float, snr: float) -> int:
    """K = ceil(xi^2 / F^2) repetitions to resolve the dip at SNR xi."""
    if fidelity <= 0 or snr <= 0:
        raise ValueError("fidelity and snr must be > 0")
    try:
        # at least one shot, though (snr / fidelity)^2 may round to 0
        return max(1, math.ceil((snr / fidelity) ** 2))
    except OverflowError:
        raise BudgetOverflow(f"snr {snr:g} at F = {fidelity:g} needs too many shots") from None


def dip_time(delta1: float, omega1: float, delta2: float, omega2: float) -> float:
    """Evolution time (us) of the deepest 2D dip; omega in rad/us.

    Block i runs N_ic/2 = pi/(2 delta_i) pulses at the resonant interval
    2 tau_i = pi/omega_i, contributing pi^2/(2 delta_i omega_i).
    """
    if min(delta1, omega1, delta2, omega2) <= 0:
        raise ValueError("all deltas and omegas must be > 0")
    try:
        t_dip = math.pi**2 / (2 * delta1 * omega1) + math.pi**2 / (2 * delta2 * omega2)
    except ZeroDivisionError:  # a product of subnormals rounds to 0
        t_dip = math.inf
    if not math.isfinite(t_dip):
        raise BudgetOverflow(
            f"delta * omega = {delta1 * omega1:g} and {delta2 * omega2:g} rad/us "
            "give an infinite dip time"
        )
    return t_dip


def point_time(shots: int, dip_time_us: float, t_ir_us: float = DEFAULT_T_IR_US) -> float:
    """Wall time (s) for one grid point: K * (evolution + overhead)."""
    if shots <= 0 or dip_time_us <= 0 or t_ir_us < 0:
        raise ValueError("need shots > 0, dip_time > 0, t_ir >= 0")
    t_point = shots * (dip_time_us + t_ir_us) / _US_PER_S
    if not math.isfinite(t_point):
        raise BudgetOverflow(
            f"{shots:.3g} shots of {dip_time_us:g} + {t_ir_us:g} us give an infinite point time"
        )
    return t_point


def sweep_time(
    shots: int,
    deltas,
    omegas,
    t_ir_us: float = DEFAULT_T_IR_US,
) -> tuple[int, float]:
    """(points, seconds) to record a full unit cell of two transitions.

    Every point of the grid N_i = 0, 2, ..., < N_ic is charged the
    dip-point time, about the mean evolution over the cell.
    """
    deltas = tuple(float(x) for x in deltas)
    omegas = tuple(float(x) for x in omegas)
    if len(deltas) != len(omegas) or not deltas:
        raise ValueError("need matching nonempty deltas and omegas")
    if min(deltas) <= 0 or min(omegas) <= 0:
        raise ValueError("all deltas and omegas must be > 0")
    if shots <= 0:
        raise ValueError("need shots > 0")
    if len(deltas) != 2:
        raise ValueError("the sweep prices points at the 2D dip time")
    sides = [math.pi / delta / 2 for delta in deltas]
    if not all(map(math.isfinite, sides)):
        raise BudgetOverflow(f"deltas {deltas[0]:g} and {deltas[1]:g} give an infinite unit cell")
    points = math.prod(map(math.ceil, sides))
    t_dip = dip_time(deltas[0], omegas[0], deltas[1], omegas[1])
    t_point = point_time(shots, t_dip, t_ir_us)
    try:
        seconds = points * t_point
    except OverflowError:  # more points than a float holds
        seconds = math.inf
    if not math.isfinite(seconds):
        raise BudgetOverflow(
            f"{sides[0]:.3g} x {sides[1]:.3g} points of {t_point:g} s give an infinite sweep time"
        )
    return points, seconds


def plan(
    fidelity: float,
    snr: float,
    delta_omegas=None,
    deltas=None,
    omegas=None,
    t_ir_us: float = DEFAULT_T_IR_US,
) -> PlanReport:
    """Assemble the full budget report.

    delta_omegas: two products delta_i * omega_i (rad/us), enough for the
    shot count and dip/point times.  Supplying deltas and omegas separately
    additionally prices the unit-cell sweep (the cell size depends on the
    deltas alone).  A BudgetOverflow names in inputs the arguments of the
    value that overflowed.
    """
    if delta_omegas is not None:
        pairs, targets = [(x, 1.0) for x in delta_omegas], ("delta_omegas",)
    elif deltas is not None and omegas is not None:
        pairs, targets = list(zip(deltas, omegas)), ("deltas", "omegas")
    else:
        raise ValueError("give delta_omegas, or deltas and omegas")
    if len(pairs) != 2:
        raise ValueError("dip time is defined for exactly two transitions")
    check_fidelity(fidelity)
    with _overflow_of("fidelity", "snr"):
        shots = shots_for_snr(fidelity, snr)
    # the dip time depends on each product delta_i * omega_i alone
    with _overflow_of(*targets):
        t_dip = dip_time(*pairs[0], *pairs[1])
    with _overflow_of("fidelity", "snr", *targets, "t_ir_us"):
        t_point = point_time(shots, t_dip, t_ir_us)
    sweep_points = sweep_s = None
    if deltas is not None and omegas is not None:
        with _overflow_of("fidelity", "snr", "deltas", "omegas", "t_ir_us"):
            sweep_points, sweep_s = sweep_time(shots, deltas, omegas, t_ir_us)
    return PlanReport(
        fidelity=fidelity,
        snr=snr,
        shots=shots,
        dip_time_us=t_dip,
        point_time_s=t_point,
        sweep_points=sweep_points,
        sweep_time_s=sweep_s,
    )


@contextlib.contextmanager
def _overflow_of(*inputs: str):
    """Re-raise a BudgetOverflow with inputs set to the named plan() arguments."""
    try:
        yield
    except BudgetOverflow as exc:
        raise BudgetOverflow(str(exc), inputs) from None
