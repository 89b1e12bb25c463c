"""Refusals of the model constructors that no other test reaches.

One row per refused input: the call and the whole message it raises, so
that a reworded or dropped check shows here.
"""

import re

import numpy as np
import pytest

from ddcorr.scan import GridSpec, PulseAxis
from ddcorr.sequence import PulseTimeline
from ddcorr.spin_model import TargetCluster, ladder_preset, new_cluster, star_preset, transition

TWO_LEVELS = TargetCluster("pair", [0.0, 1.0], [[0, 0.1], [0.1, 0]])

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
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
