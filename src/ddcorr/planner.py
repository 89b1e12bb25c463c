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
T, about the cell's mean per-point evolution.  plan() refuses each
out-of-range input as an InputError naming that input, and each count or
time too large for a float as a BudgetOverflow naming the inputs of the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spin_model import InputError

DEFAULT_T_IR_US = 1.0
_US_PER_S = 1e6


class BudgetOverflow(InputError):
    """A shot count, unit cell or time too large for a float."""


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
    except ZeroDivisionError:  # (alpha0 - alpha1)^2 rounds to 0
        raise ValueError(
            f"photon means {alpha0:g} and {alpha1:g} are too close to evaluate F"
        ) from None


def _float(value, name: str) -> float:
    try:
        return float(value)
    except OverflowError:  # a Python integer beyond float range
        raise InputError(f"{name} must be finite, got an integer beyond float range", (name,)) from None


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
    shot count and dip/point times.  Supplying deltas and omegas instead
    additionally prices the unit-cell sweep (the cell size depends on the
    deltas alone).  Every input is checked first, and one out of range
    raises an InputError naming it in inputs; past those checks only a
    BudgetOverflow can arise, naming every input of the value that overflowed.
    """
    if delta_omegas is not None and deltas is None and omegas is None:
        targets = {"delta_omegas": delta_omegas}
    elif delta_omegas is None and deltas is not None and omegas is not None:
        targets = {"deltas": deltas, "omegas": omegas}
    else:
        raise ValueError("give delta_omegas, or deltas and omegas")
    targets = {name: tuple(_float(x, name) for x in values) for name, values in targets.items()}
    fidelity, snr, t_ir_us = _float(fidelity, "fidelity"), _float(snr, "snr"), _float(t_ir_us, "t_ir_us")
    if not 0 < fidelity <= 1:
        raise InputError(f"fidelity must be in (0, 1], got {fidelity}", ("fidelity",))
    if not snr > 0:
        raise InputError(f"snr must be > 0, got {snr}", ("snr",))
    if not t_ir_us >= 0:
        raise InputError(f"t_ir_us must be >= 0, got {t_ir_us}", ("t_ir_us",))
    if any(len(values) != 2 for values in targets.values()):
        raise InputError("dip time is defined for exactly two transitions", tuple(targets))
    for name, values in targets.items():
        if not all(x > 0 for x in values):
            raise InputError(f"{name} must be > 0, got {values}", (name,))
        if not all(x < math.inf for x in values):
            raise InputError(f"{name} must be finite, got {values}", (name,))
    every = ("fidelity", "snr", *targets, "t_ir_us")
    try:
        # at least one shot, though (snr / fidelity)^2 may round to 0
        shots = max(1, math.ceil((snr / fidelity) ** 2))
    except OverflowError:
        raise BudgetOverflow(
            f"snr {snr:g} at F = {fidelity:g} needs too many shots", ("fidelity", "snr")
        ) from None
    # the dip time depends on each product delta_i * omega_i alone
    sweep = "deltas" in targets
    (d1, o1), (d2, o2) = zip(*targets.values()) if sweep else zip(targets["delta_omegas"], (1.0, 1.0))
    try:
        t_dip = math.pi**2 / (2 * d1 * o1) + math.pi**2 / (2 * d2 * o2)
    except ZeroDivisionError:  # a product of subnormals rounds to 0
        t_dip = math.inf
    if not 0 < t_dip < math.inf:  # 0 where both products overflow
        size = "an infinite" if t_dip else "a zero"
        raise BudgetOverflow(
            f"delta * omega = {d1 * o1:g} and {d2 * o2:g} rad/us give {size} dip time",
            tuple(targets),
        )
    t_point = shots * (t_dip + t_ir_us) / _US_PER_S
    if not math.isfinite(t_point):
        raise BudgetOverflow(
            f"{shots:.3g} shots of {t_dip:g} + {t_ir_us:g} us give an infinite point time", every
        )
    points = seconds = None
    if sweep:
        deltas = targets["deltas"]
        sides = [math.pi / delta / 2 for delta in deltas]
        if not all(map(math.isfinite, sides)):
            raise BudgetOverflow(
                f"deltas {deltas[0]:g} and {deltas[1]:g} give an infinite unit cell", every
            )
        points = math.prod(map(math.ceil, sides))
        try:
            seconds = points * t_point
        except OverflowError:  # more points than a float holds
            seconds = math.inf
        if not math.isfinite(seconds):
            raise BudgetOverflow(
                f"{sides[0]:.3g} x {sides[1]:.3g} points of {t_point:g} s "
                "give an infinite sweep time",
                every,
            )
    return PlanReport(
        fidelity=fidelity,
        snr=snr,
        shots=shots,
        dip_time_us=t_dip,
        point_time_s=t_point,
        sweep_points=points,
        sweep_time_s=seconds,
    )
