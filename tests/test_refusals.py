"""Refusals of the model constructors that no other test reaches.

One row per refused input: the call and the whole message it raises, so
that a reworded or dropped check shows here.  Every refusal is a
ValueError, whatever the input's type or size.
"""

import math
import re

import numpy as np
import pytest

from ddcorr.analytic import AnalyticModel, minima, pulse_period
from ddcorr.scan import GridSpec, PulseAxis, TauAxis, classify_correlation
from ddcorr.sequence import (
    Block,
    PulseTimeline,
    SequenceSpec,
    check_blocks,
    check_filter_phase,
    filter_multiblock,
    lint_resonance_overlap,
    resonant_tau,
)
from ddcorr.spin_model import (
    InputError,
    TargetCluster,
    ladder_preset,
    new_cluster,
    ring_preset,
    spin_one_preset,
    star_preset,
    transition,
)

TWO_LEVELS = TargetCluster("pair", [0.0, 1.0], [[0, 0.1], [0.1, 0]])
# a Python int beyond float range
HUGE = 10**400
NOT_FINITE = "level energies and couplings must be finite"

# id -> (the refused call, its message)
REFUSALS = {
    "cluster-shape-mismatch": (
        lambda: TargetCluster("c", [0.0, 1.0, 2.0], np.zeros((2, 2))),
        "coupling shape (2, 2) does not match 3 energies",
    ),
    "cluster-not-hermitian": (
        lambda: TargetCluster("c", [0.0, 1.0], [[0, 0.1], [0.2, 0]]),
        "coupling matrix is not Hermitian",
    ),
    "cluster-one-level": (
        lambda: TargetCluster("c", [0.0], [[0]]),
        "cluster needs at least 2 levels, got shape (1,)",
    ),
    "new-cluster-one-energy": (
        lambda: new_cluster("c", [0.0], []),
        "cluster needs at least 2 levels, got 1",
    ),
    "ladder-no-rungs": (lambda: ladder_preset([], []), "ladder needs at least one rung"),
    "star-one-satellite": (lambda: star_preset([0.2], [5.0]), "star needs at least two satellites"),
    "star-coupling-count": (
        lambda: star_preset([0.2, 0.3], [5.0]),
        "one coupling per satellite required",
    ),
    "transition-m-m": (lambda: transition(TWO_LEVELS, 1, 1), "(1,1) is not a transition"),
    "grid-entry-not-axis": (
        lambda: GridSpec((PulseAxis(0, 0, 4), "tau")),
        "not an axis descriptor: 'tau'",
    ),
    "timeline-negative-time": (lambda: PulseTimeline([], -1.0), "total_time must be >= 0"),
    # a Python int beyond float range is not a finite float: a ValueError
    # in the rule's words, not float()'s OverflowError
    "block-int-tau-beyond-float-range": (
        lambda: Block(10**400, 4),
        f"block tau must be finite, got {10**400}",
    ),
    "check-blocks-int-tau-beyond-float-range": (
        lambda: check_blocks([10**400], [4]),
        f"block tau must be finite, got {10**400}",
    ),
    "pulse-period-int-delta-beyond-float-range": (
        lambda: pulse_period(10**400),
        f"delta must be finite and > 0 with pi/delta finite, got {10**400}",
    ),
    "resonant-tau-int-omega-beyond-float-range": (
        lambda: resonant_tau(HUGE),
        f"omega must be finite and > 0, got {HUGE}",
    ),
    "resonant-tau-int-order-beyond-float-range": (
        lambda: resonant_tau(1.0, HUGE),
        f"order {HUGE} at omega 1.0 puts tau beyond float range",
    ),
    "spin-one-int-frequency-beyond-float-range": (lambda: spin_one_preset(HUGE, 0.1, 5.0), NOT_FINITE),
    "ladder-int-rung-beyond-float-range": (lambda: ladder_preset([HUGE], [5.0]), NOT_FINITE),
    "ring-int-frequency-beyond-float-range": (
        lambda: ring_preset(HUGE, 0.1, [5.0, 5.0, 5.0]),
        NOT_FINITE,
    ),
    "star-int-coupling-beyond-float-range": (
        lambda: star_preset([0.2, 0.3], [HUGE, 5.0]),
        NOT_FINITE,
    ),
    "new-cluster-int-energy-beyond-float-range": (
        lambda: new_cluster("c", [0.0, HUGE], [(1, 0, 0.1, 0.0)]),
        NOT_FINITE,
    ),
    "new-cluster-int-amplitude-beyond-float-range": (
        lambda: new_cluster("c", [0.0, 1.0], [(1, 0, HUGE, 0.0)]),
        NOT_FINITE,
    ),
    "cluster-int-energy-beyond-float-range": (
        lambda: TargetCluster("c", [0, HUGE], [[0, 0.1], [0.1, 0]]),
        NOT_FINITE,
    ),
    "analytic-model-int-delta-beyond-float-range": (
        lambda: AnalyticModel("1d", (HUGE,), (3,)),
        "every delta must be finite and > 0, got (inf,)",
    ),
    "evaluate-int-count-beyond-float-range": (
        lambda: AnalyticModel("1d", (0.1,), (3,)).evaluate((HUGE,)),
        "pulse counts must be finite and >= 0, got (inf,)",
    ),
    # 2 N delta = 5e298 rad: a cosine of it carries rounding far beyond 2 pi
    "evaluate-phase-beyond-range": (
        lambda: AnalyticModel("2d-correlated", (0.025, 0.03), (3,)).evaluate((1e300, 44)),
        "2 N delta = 2 x 1e+300 x 0.025 is beyond the 1.5e+11 rad a closed-form dip takes",
    ),
    "evaluate-phase-beyond-float-range": (
        lambda: AnalyticModel("2d-correlated", (1e308, 0.03), (3,)).evaluate((62, 44)),
        "2 N delta = 2 x 62 x 1e+308 is beyond the 1.5e+11 rad a closed-form dip takes",
    ),
    "analytic-model-int-dimension-beyond-float-range": (
        lambda: AnalyticModel("1d", (0.1,), (HUGE,)),
        f"dims must be finite, got {HUGE}",
    ),
    "analytic-model-independent-int-dimension-beyond-float-range": (
        lambda: AnalyticModel("2d-independent", (0.1, 0.1), (2, HUGE)),
        f"dims must be finite, got {HUGE}",
    ),
    "minima-int-dimension-beyond-float-range": (
        lambda: minima("1d", (HUGE,)),
        f"dims must be finite, got {HUGE}",
    ),
    "classify-int-minimum-beyond-float-range": (
        lambda: classify_correlation(HUGE, 4),
        f"measured_min must be finite, got {HUGE}",
    ),
    "classify-int-dimension-beyond-float-range": (
        lambda: classify_correlation(0.5, HUGE),
        f"d must be finite, got {HUGE}",
    ),
    "filter-int-omega-beyond-float-range": (
        lambda: filter_multiblock(SequenceSpec([Block(1.25, 4)]), HUGE),
        f"omega must be finite and nonzero, got {HUGE}",
    ),
    # axes take integer blocks, counts and steps, and a bool is none
    "tau-axis-float-steps": (lambda: TauAxis(0, 1.0, 2.0, 2.5), "steps must be an integer, got 2.5"),
    "tau-axis-bool-block": (lambda: TauAxis(True, 1.0, 2.0, 3), "block must be an integer, got True"),
    "pulse-axis-float-block": (lambda: PulseAxis(0.5, 0, 10), "block must be an integer, got 0.5"),
    "pulse-axis-float-start": (lambda: PulseAxis(0, 0.0, 10), "start must be an integer, got 0.0"),
    "pulse-axis-float-stop": (lambda: PulseAxis(0, 0, 10.0), "stop must be an integer, got 10.0"),
    "pulse-axis-float-step": (lambda: PulseAxis(0, 0, 10, 2.5), "step must be an integer, got 2.5"),
    "pulse-axis-bool-step": (lambda: PulseAxis(0, 0, 10, True), "step must be an integer, got True"),
    # level indices and dimensions are read by spin_model.as_int, as the
    # axes' fields are: never truncated, and never an IndexError
    "new-cluster-float-level": (
        lambda: new_cluster("c", [0.0, 1.0], [(1.5, 0, 0.1, 0.0)]),
        "m must be an integer, got 1.5",
    ),
    "new-cluster-bool-level": (
        lambda: new_cluster("c", [0.0, 1.0], [(1, True, 0.1, 0.0)]),
        "n must be an integer, got True",
    ),
    "new-cluster-infinite-level": (
        lambda: new_cluster("c", [0.0, 1.0], [(math.inf, 0, 0.1, 0.0)]),
        "m must be an integer, got inf",
    ),
    "transition-whole-float-level": (
        lambda: transition(TWO_LEVELS, 1.0, 0),
        "m must be an integer, got 1.0",
    ),
    "transition-bool-level": (
        lambda: transition(TWO_LEVELS, 1, True),
        "n must be an integer, got True",
    ),
    "analytic-model-float-dimension": (
        lambda: AnalyticModel("2d-independent", (0.02, 0.03), (3.7,)),
        "dims must be an integer, got 3.7",
    ),
    "analytic-model-bool-dimension": (
        lambda: AnalyticModel("2d-independent", (0.02, 0.03), (2, True)),
        "dims must be an integer, got True",
    ),
    "minima-float-dimension": (
        lambda: minima("2d-correlated", (4.9,)),
        "dims must be an integer, got 4.9",
    ),
    "classify-float-dimension": (
        lambda: classify_correlation(0.0, 4.5),
        "d must be an integer, got 4.5",
    ),
    "classify-bool-dimension": (
        lambda: classify_correlation(0.0, True),
        "d must be an integer, got True",
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# id -> (a call past spin_model.PHASE_RANGE, its message)
PHASE_REFUSALS = {
    # 2 pi x 4.8e8 MHz x 50 us is 1.51e11 rad
    "filter-phase-beyond-range": (
        lambda: check_filter_phase(SequenceSpec([Block(1.25, 20)]), 4.8e8, "a filter"),
        "2 pi x 4.8e+08 MHz x 50 us is beyond the 1.5e+11 rad a filter takes",
    ),
    # a zero-pulse block's tau enters its phases, though not the duration
    "filter-phase-zero-pulse-tau": (
        lambda: check_filter_phase(SequenceSpec([Block(1e12, 0), Block(1.25, 20)]), 0.2, "a filter"),
        "2 pi x 0.2 MHz x 1e+12 us is beyond the 1.5e+11 rad a filter takes",
    ),
    # 2.5e18 rad, where float64 spacing is 512 rad: no resonance survives
    "lint-phase-beyond-range": (
        lambda: lint_resonance_overlap(
            [spin_one_preset(0.2, 0.14, 7.0710678)], SequenceSpec([Block(1e17, 10)])
        ),
        "2 pi x 0.2 MHz x 2e+18 us is beyond the 1.5e+11 rad lint takes",
    ),
}


@pytest.mark.parametrize("call, message", PHASE_REFUSALS.values(), ids=PHASE_REFUSALS)
def test_phase_refusal(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$") as refused:
        call()
    assert refused.value.inputs == ()


def test_filter_phase_inside_the_range_is_taken():
    # 2 pi x 4.7e8 MHz x 50 us is 1.48e11 rad
    spec = SequenceSpec([Block(1.25, 20)])
    for f_MHz in (4.7e8, 0.0):
        assert check_filter_phase(spec, f_MHz, "a filter") is None


def test_closed_form_phase_refusal_names_deltas_and_pulses():
    with pytest.raises(InputError) as refused:
        AnalyticModel("1d", (0.025,), (3,)).evaluate((1e13,))
    assert refused.value.inputs == ("deltas", "pulses")


def test_dimension_beyond_float_range_names_dims():
    calls = (
        lambda: AnalyticModel("3d-star", (0.1,) * 3, (HUGE,)),
        lambda: minima("3d-ring", (HUGE,)),
    )
    for call in calls:
        with pytest.raises(InputError) as refused:
            call()
        assert refused.value.inputs == ("dims",)


def test_axes_take_numpy_integers():
    axis = PulseAxis(np.int64(0), np.int64(0), np.int64(10), np.int64(2))
    assert axis.values() == list(range(0, 11, 2))
    assert len(TauAxis(np.int32(1), 1.0, 2.0, np.int64(3)).values()) == 3


def test_levels_take_numpy_integers():
    assert transition(TWO_LEVELS, np.int64(1), 0) == transition(TWO_LEVELS, 1, 0)
