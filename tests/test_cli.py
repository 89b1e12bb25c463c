"""Tests for scenario files and the command-line interface."""

import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ddcorr import cli as cli_module
from ddcorr import scan as scan_module
from ddcorr.analytic import TOPOLOGIES
from ddcorr.cli import (
    ScenarioError,
    dispatch,
    parse_scenario,
    scenario_from_dict,
)
from ddcorr.sequence import filter_multiblock

TWO_PI = 2.0 * np.pi
REPO = Path(__file__).resolve().parents[1]


def correlated_2d_scenario():
    return {
        "clusters": [
            {
                "preset": "ladder",
                "rung_freqs_MHz": [0.20, 0.14, 0.30],
                "rung_couplings_kHz": [5.0, 5.04, None],
            }
        ],
        "sequence": [
            {"cluster": 0, "m": 1, "n": 0, "n_pulses": 2},
            {"cluster": 0, "m": 2, "n": 1, "n_pulses": 2},
        ],
        "grid": {
            "engine": "both",
            "axes": [
                {"kind": "pulse", "block": 0, "start": 0, "stop": 8, "step": 2},
                {"kind": "pulse", "block": 1, "start": 0, "stop": 8, "step": 2},
            ],
        },
        "analytic": {
            "topology": "2d-correlated",
            "cluster": 0,
            "transitions": [[1, 0], [2, 1]],
        },
        "plan": {
            "fidelity": 0.03,
            "snr": 10.0,
            "transitions": [[0, 1, 0], [0, 2, 1]],
        },
    }


def tau_scan_scenario():
    return {
        "clusters": [
            {
                "preset": "spin_one",
                "f_a_MHz": 0.20,
                "f_b_MHz": 0.14,
                "lambda_kHz": 7.0711,
            }
        ],
        "sequence": [{"tau_us": 1.25, "n_pulses": 20}],
        "grid": {
            "engine": "exact",
            "axes": [
                {"kind": "tau", "block": 0, "lo_us": 1.0, "hi_us": 2.0, "steps": 21}
            ],
        },
    }


def run_python(argv):
    """Run a fresh interpreter from the repository root with one BLAS thread."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, *argv],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_capped(argv):
    """dispatch(argv) in a fresh interpreter whose address space is capped at 1 GiB."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from ddcorr.cli import dispatch\n"
        f"sys.exit(dispatch({argv!r}))\n"
    )
    return run_python(["-c", code])


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


DELETE = object()
SPIN_ONE = {"preset": "spin_one", "f_a_MHz": 0.2, "f_b_MHz": 0.14, "lambda_kHz": 7.0}
LADDER = {
    "preset": "ladder",
    "rung_freqs_MHz": [0.2, 0.14, 0.3],
    "rung_couplings_kHz": [5.0, 5.04, None],
}
RING = {"preset": "ring", "f_1_MHz": 0.34, "f_2_MHz": 0.14, "couplings_kHz": [5.0, 5.04, 4.98]}
STAR = {"preset": "star", "freqs_MHz": [0.2, 0.14], "couplings_kHz": [5.0, 5.04]}
CUSTOM = {"energies_MHz": [0.0, 0.2], "couplings": [{"m": 1, "n": 0, "amp_kHz": 5.0}]}
TOPOLOGY_LIST = ", ".join(TOPOLOGIES)


def tau_map(f_a_MHz, hi_us=2.0):
    """scenarios/spin-one-tau-map.json without its plan section, at f_a_MHz
    and with its first tau axis up to hi_us."""
    scenario = json.loads((REPO / "scenarios" / "spin-one-tau-map.json").read_text())
    del scenario["plan"]
    scenario["clusters"][0]["f_a_MHz"] = f_a_MHz
    scenario["grid"]["axes"][0]["hi_us"] = hi_us
    return scenario


def edit(base, **changes):
    """A copy of base with keys replaced, added, or (value DELETE) removed."""
    out = copy.deepcopy(base)
    for key, value in changes.items():
        if value is DELETE:
            del out[key]
        else:
            out[key] = value
    return out


# One malformed edit of correlated_2d_scenario() per error branch of the
# scenario reader: (keys to the edited value, new value or DELETE, expected
# stderr after "error: <file>").
MALFORMED = [
    pytest.param((), [], ": expected an object, got list", id="not-an-object"),
    pytest.param(
        ("extra",), 1,
        ": unknown field 'extra' (allowed: analytic, clusters, grid, plan, sequence)",
        id="unknown-section",
    ),
    pytest.param(
        ("sequence",), DELETE, ": missing required field 'sequence'",
        id="missing-sequence",
    ),
    pytest.param(
        ("clusters",), {"a": 1}, ".clusters: expected an array, got dict",
        id="clusters-not-array",
    ),
    pytest.param(("clusters",), [], ".clusters: need at least one cluster", id="no-clusters"),
    pytest.param(
        ("clusters", 0), 3, ".clusters[0]: expected an object, got int", id="cluster-not-object"
    ),
    pytest.param(
        ("clusters", 0), edit(SPIN_ONE, preset="triangle"),
        ".clusters[0]: unknown preset 'triangle'",
        id="unknown-preset",
    ),
    pytest.param(
        ("clusters", 0), edit(SPIN_ONE, f_a_MHz=DELETE, f_a=0.2),
        ".clusters[0]: field 'f_a' is missing its unit suffix; use 'f_a_MHz'",
        id="suffix-hint",
    ),
    pytest.param(
        ("clusters", 0), edit(SPIN_ONE, colour="red"),
        ".clusters[0]: unknown field 'colour'"
        " (allowed: f_a_MHz, f_b_MHz, label, lambda_kHz, preset)",
        id="unknown-field",
    ),
    pytest.param(
        ("clusters", 0), edit(SPIN_ONE, lambda_kHz=DELETE),
        ".clusters[0]: missing required field 'lambda_kHz'",
        id="missing-field",
    ),
    pytest.param(
        ("clusters", 0), edit(SPIN_ONE, f_a_MHz="0.2"),
        ".clusters[0].f_a_MHz: expected a number, got str",
        id="number-type",
    ),
    pytest.param(
        ("clusters", 0), edit(SPIN_ONE, f_b_MHz=0.2),
        ".clusters[0]: f_a == f_b gives degenerate transitions",
        id="preset-error",
    ),
    pytest.param(
        ("clusters", 0), edit(SPIN_ONE, label=7), ".clusters[0].label: expected a string",
        id="label-type",
    ),
    pytest.param(
        ("clusters", 0), edit(LADDER, rung_couplings_kHz=5.0),
        ".clusters[0].rung_couplings_kHz: expected an array, got float",
        id="ladder-not-array",
    ),
    pytest.param(
        ("clusters", 0), edit(LADDER, rung_couplings_kHz=DELETE),
        ".clusters[0]: missing required field 'rung_couplings_kHz'",
        id="ladder-missing",
    ),
    pytest.param(
        ("clusters", 0), edit(LADDER, rung_couplings_kHz=[5.0, "x", None]),
        ".clusters[0].rung_couplings_kHz[1]: expected a number, got str",
        id="ladder-entry",
    ),
    pytest.param(
        ("clusters", 0), edit(LADDER, rung_freqs_MHz=[0.2, -0.1, 0.3]),
        ".clusters[0]: rung frequencies must be positive",
        id="ladder-error",
    ),
    pytest.param(
        ("clusters", 0), edit(RING, couplings_kHz=DELETE, couplings=[5.0, 5.0, 5.0]),
        ".clusters[0]: field 'couplings' is missing its unit suffix; use 'couplings_kHz'",
        id="ring-bare-couplings",
    ),
    pytest.param(
        ("clusters", 0), edit(RING, couplings_kHz=[5.0, [5.0], 4.98]),
        ".clusters[0].couplings_kHz[1]:"
        " expected amplitude_kHz or [amplitude_kHz, phase_rad], got [5.0]",
        id="ring-entry",
    ),
    pytest.param(
        ("clusters", 0), edit(RING, couplings_kHz=[5.0, 5.04]),
        ".clusters[0]: ring needs exactly 3 couplings, got 2",
        id="ring-count",
    ),
    pytest.param(
        ("clusters", 0), edit(LADDER, rung_freqs_MHz=[1e308, 0.14, 0.3]),
        ".clusters[0]: level energies and couplings must be finite",
        id="ladder-frequency-overflow",
    ),
    pytest.param(
        ("clusters", 0), edit(LADDER, rung_couplings_kHz=[1e308, 5.04, None]),
        ".grid: |energy| + |coupling| 6.28e+305 rad/us over 48.6 us and 1 rad per level per pulse"
        " is beyond the 1.5e+11 rad a scan takes",
        id="magnus-coupling-range",
    ),
    pytest.param(
        ("clusters", 0), edit(STAR, freqs_MHz=[0.2, 0.2]),
        ".clusters[0]: satellite frequencies must be positive and distinct",
        id="star-error",
    ),
    pytest.param(
        ("clusters", 0), edit(STAR, freqs_MHz=0.2),
        ".clusters[0].freqs_MHz: expected an array, got float",
        id="star-freqs-type",
    ),
    pytest.param(
        ("clusters", 0), {"label": "x"},
        ".clusters[0]: cluster needs a 'preset' or an 'energies_MHz' list",
        id="custom-no-energies",
    ),
    pytest.param(
        ("clusters", 0), edit(CUSTOM, energies_MHz=[0.0, "0.2"]),
        ".clusters[0].energies_MHz[1]: expected a number, got str",
        id="custom-energy-type",
    ),
    pytest.param(
        ("clusters", 0), edit(CUSTOM, couplings=[3]),
        ".clusters[0].couplings[0]: expected an object, got int",
        id="custom-coupling-object",
    ),
    pytest.param(
        ("clusters", 0), edit(CUSTOM, couplings=[{"m": 1, "n": 0, "amp": 5.0}]),
        ".clusters[0].couplings[0]: field 'amp' is missing its unit suffix; use 'amp_kHz'",
        id="custom-coupling-hint",
    ),
    pytest.param(
        ("clusters", 0), edit(CUSTOM, couplings=[{"m": 1.0, "n": 0, "amp_kHz": 5.0}]),
        ".clusters[0].couplings[0].m: expected an integer, got 1.0",
        id="custom-coupling-integer",
    ),
    pytest.param(
        ("clusters", 0), edit(CUSTOM, couplings=[{"m": 1, "amp_kHz": 5.0}]),
        ".clusters[0].couplings[0]: missing required field 'n'",
        id="custom-coupling-missing",
    ),
    pytest.param(
        ("clusters", 0), edit(CUSTOM, couplings=[{"m": 5, "n": 0, "amp_kHz": 5.0}]),
        ".clusters[0]: coupling (5,0) out of range for d=2",
        id="custom-coupling-range",
    ),
    pytest.param(
        ("clusters", 0), edit(CUSTOM, label=None), ".clusters[0].label: expected a string",
        id="custom-label-type",
    ),
    pytest.param(
        ("clusters", 0), edit(CUSTOM, energies_MHz=[0.0, 1e308]),
        ".clusters[0]: level energies and couplings must be finite",
        id="custom-energy-overflow",
    ),
    pytest.param(
        ("clusters", 0), edit(CUSTOM, couplings=[{"m": 1, "n": 0, "amp_kHz": 1e308}]),
        ".clusters[0]: level energies and couplings must be finite",
        id="custom-amplitude-overflow",
    ),
    pytest.param(
        ("sequence",), [], ".sequence: sequence needs at least one block", id="sequence-empty"
    ),
    pytest.param(
        ("sequence", 0), {"tau": 1.25, "n_pulses": 2},
        ".sequence[0]: block needs either 'tau_us' or a 'cluster' resonance target",
        id="block-neither",
    ),
    pytest.param(
        ("sequence", 0), {"tau_us": 1.25, "n_pulses": 2, "m": 1},
        ".sequence[0]: unknown field 'm' (allowed: n_pulses, tau_us)",
        id="block-unknown-field",
    ),
    pytest.param(
        ("sequence", 0, "n_pulses"), 2.5, ".sequence[0].n_pulses: expected an integer, got 2.5",
        id="block-integer",
    ),
    pytest.param(
        ("sequence", 0, "n_pulses"), 10**30,
        f".sequence[0]: n_pulses must be at most 2**53, got {10**30}",
        id="block-absurd-count",
    ),
    pytest.param(
        ("sequence", 1), {"tau_us": 1.25, "n_pulses": 2**62},
        f".sequence[1]: n_pulses must be at most 2**53, got {2**62}",
        id="fixed-block-absurd-count",
    ),
    pytest.param(
        ("sequence", 0), {"tau_us": -1.0, "n_pulses": 2},
        ".sequence[0]: block tau must be > 0, got -1.0",
        id="block-tau-error",
    ),
    pytest.param(
        ("sequence", 1, "cluster"), 5, ".sequence[1].cluster: no cluster 5 (have 1)",
        id="block-cluster-range",
    ),
    pytest.param(
        ("sequence", 0, "m"), 9, ".sequence[0]: transition (9,0) out of range for d=4",
        id="block-transition",
    ),
    pytest.param(
        ("sequence", 0, "order"), 0, ".sequence[0]: order must be a positive integer, got 0",
        id="block-order",
    ),
    pytest.param(
        ("sequence", 0, "order"), 10**400,
        f".sequence[0]: order {10**400} at omega 1.2566370614359172 puts tau beyond float range",
        id="block-order-beyond-float-range",
    ),
    pytest.param(
        ("grid", "axes"), DELETE, ".grid: missing required field 'axes'",
        id="grid-missing-axes",
    ),
    pytest.param(
        ("grid", "engine"), "fast",
        ".grid: engine must be one of ('exact', 'analytic', 'both'), got 'fast'",
        id="grid-engine",
    ),
    pytest.param(
        ("grid", "axes", 0, "kind"), "frequency",
        ".grid.axes[0].kind: axis kind must be 'tau' or 'pulse'",
        id="axis-kind",
    ),
    pytest.param(
        ("grid", "axes", 0), {"kind": "tau", "block": 0, "lo": 1.0, "hi_us": 2.0, "steps": 5},
        ".grid.axes[0]: field 'lo' is missing its unit suffix; use 'lo_us'",
        id="axis-hint",
    ),
    pytest.param(
        ("grid", "axes", 0, "start"), 10,
        ".grid.axes[0]: pulse axis must contain at least two points",
        id="axis-error",
    ),
    pytest.param(
        ("grid", "axes", 0),
        {"kind": "pulse", "block": 0, "start": 0, "stop": 10**30, "step": 10**30},
        f".grid.axes[0]: pulse counts must be at most 2**53, got {10**30}",
        id="axis-absurd-count",
    ),
    pytest.param(
        ("grid", "axes", 0, "block"), 5, ".grid.axes[0]: block 5 not in the sequence",
        id="axis-block",
    ),
    pytest.param(
        ("grid", "axes", 1), {"kind": "tau", "block": 1, "lo_us": 1.0, "hi_us": 1e308, "steps": 3},
        ".grid.axes[1]: 2 * tau * max(n_pulses, 1) must be finite, got tau = 1e+308, n = 2",
        id="axis-tau-overflow",
    ),
    pytest.param(
        ("grid", "axes", 1, "block"), 0, ".grid: duplicate axis for block 0",
        id="axis-duplicate",
    ),
    # level energies count on the exact engine too: their phases would
    # overflow the segment propagators
    pytest.param(
        (), tau_map(1e307),
        ".grid: |energy| + |coupling| 6.28e+307 rad/us over 160 us and 1 rad per level per pulse"
        " is beyond the 1.5e+11 rad a scan takes",
        id="energy-range",
    ),
    pytest.param(
        (), tau_map(1e300, hi_us=1e10),
        ".grid: |energy| + |coupling| 6.28e+300 rad/us over 4e+11 us and 1 rad per level per pulse"
        " is beyond the 1.5e+11 rad a scan takes",
        id="energy-range-long-blocks",
    ),
    # finite phases whose float64 rounding would pass the 1e-4 tolerance:
    # pulse counts from 1e12, and a 0.2 MHz level over 4e12 us
    pytest.param(
        ("grid", "axes", 0), {"kind": "pulse", "block": 0, "start": 10**12, "stop": 10**12 + 4},
        ".grid: |energy| + |coupling| 4.05 rad/us over 2.5e+12 us and 1 rad per level per pulse"
        " is beyond the 1.5e+11 rad a scan takes",
        id="pulse-range",
    ),
    pytest.param(
        (), tau_map(0.2, hi_us=1e11),
        ".grid: |energy| + |coupling| 1.29 rad/us over 4e+12 us and 1 rad per level per pulse"
        " is beyond the 1.5e+11 rad a scan takes",
        id="tau-range",
    ),
    pytest.param(
        ("analytic", "topology"), "2d-entangled",
        f".analytic.topology: unknown topology '2d-entangled' (one of {TOPOLOGY_LIST})",
        id="topology-unknown",
    ),
    pytest.param(
        ("analytic", "cluster"), DELETE, ".analytic: missing required field 'cluster'",
        id="analytic-cluster-missing",
    ),
    pytest.param(
        ("analytic", "cluster"), 3, ".analytic.cluster: no cluster 3 (have 1)",
        id="analytic-cluster-range",
    ),
    pytest.param(
        ("analytic",),
        {"topology": "2d-independent", "cluster": 99, "transitions": [[0, 1, 0], [0, 2, 1]]},
        ".analytic: 2d-independent takes no 'cluster': each transition names [cluster, m, n]",
        id="analytic-independent-cluster",
    ),
    pytest.param(
        ("analytic", "transitions", 0), [1, 0, 0],
        ".analytic.transitions[0]: expected [m, n], got [1, 0, 0]",
        id="analytic-transition-shape",
    ),
    pytest.param(
        ("analytic", "transitions", 1), [3, 9],
        ".analytic.transitions[1]: transition (3,9) out of range for d=4",
        id="analytic-transition-range",
    ),
    pytest.param(
        ("analytic", "transitions"), [[1, 0]],
        ".analytic: 2 deltas required for this topology, got 1",
        id="analytic-delta-count",
    ),
    pytest.param(
        ("analytic",), {"topology": "2d-independent", "transitions": [[0, 1, 0], [2, 1, 0]]},
        ".analytic.transitions[1]: no cluster 2 (have 1)",
        id="analytic-independent-range",
    ),
    pytest.param(
        ("plan", "shots"), 10,
        ".plan: unknown field 'shots' (allowed: alpha0, alpha1, delta_omega_kHz, fidelity,"
        " snr, t_ir_us, transitions)",
        id="plan-unknown",
    ),
    pytest.param(
        ("plan", "fidelity"), DELETE, ".plan: give 'fidelity' or both 'alpha0' and 'alpha1'",
        id="plan-no-fidelity",
    ),
    pytest.param(
        ("plan", "alpha0"), -1, ".plan: give 'fidelity' or 'alpha0' and 'alpha1', not both",
        id="plan-fidelity-and-alpha",
    ),
    pytest.param(
        ("plan",),
        {"alpha0": 0.02, "alpha1": 0.02, "snr": 10.0, "transitions": [[0, 1, 0], [0, 2, 1]]},
        ".plan: indistinguishable states: alpha0 = alpha1 gives F = 0",
        id="plan-alpha-error",
    ),
    pytest.param(
        ("plan",),
        {"alpha0": 1e300, "alpha1": 0.01, "snr": 10.0, "delta_omega_kHz": [5.0, 5.0]},
        ".plan: photon means 1e+300 and 0.01 are too large to evaluate F",
        id="plan-alpha-overflow",
    ),
    pytest.param(
        ("plan", "fidelity"), 1.5,
        ".plan.fidelity: fidelity must be in (0, 1], got 1.5",
        id="plan-fidelity-above-one",
    ),
    pytest.param(
        ("plan", "snr"), DELETE, ".plan: missing required field 'snr'", id="plan-snr-missing"
    ),
    pytest.param(
        ("plan", "transitions"), DELETE, ".plan: give 'transitions' or 'delta_omega_kHz'",
        id="plan-no-targets",
    ),
    pytest.param(
        ("plan", "delta_omega_kHz"), [-5.0, 3.0],
        ".plan: give 'transitions' or 'delta_omega_kHz', not both",
        id="plan-transitions-and-products",
    ),
    pytest.param(
        ("plan", "transitions", 0), [1, 0],
        ".plan.transitions[0]: expected [cluster, m, n], got [1, 0]",
        id="plan-transition-shape",
    ),
    pytest.param(
        ("plan",), {"fidelity": 0.03, "snr": 10.0, "delta_omega_kHz": [5.0, "x"]},
        ".plan.delta_omega_kHz[1]: expected a number, got str",
        id="plan-delta-omega",
    ),
    pytest.param(
        ("plan",), {"fidelity": 0.03, "snr": 10.0, "delta_omega_kHz": [1e-320, 5.0]},
        ".plan.delta_omega_kHz: delta * omega = 6.42285e-323 and 0.0314159 rad/us give an"
        " infinite dip time",
        id="plan-dip-time-overflow",
    ),
    pytest.param(
        ("plan",), {"fidelity": 0.03, "snr": 10.0, "delta_omega": [5.0, 5.0]},
        ".plan: field 'delta_omega' is missing its unit suffix; use 'delta_omega_kHz'",
        id="plan-hint",
    ),
]


class TestScenarioParsing:
    def test_full_scenario_resolves(self):
        sc = scenario_from_dict(correlated_2d_scenario())
        assert sc.system.clusters[0].dim == 4
        assert len(sc.sequence.blocks) == 2
        assert sc.sequence.blocks[0].tau == pytest.approx(1.25)
        assert sc.sequence.blocks[1].tau == pytest.approx(
            1.25 * 0.20 / 0.14, rel=1e-12
        )
        assert sc.grid.engine == "both"
        assert sc.analytic_model.d == 4
        assert sc.plan_inputs["fidelity"] == 0.03

    def test_reparse_equivalence(self, tmp_path):
        sc = scenario_from_dict(correlated_2d_scenario())
        again = scenario_from_dict(correlated_2d_scenario())
        assert again.system.clusters[0] == sc.system.clusters[0]
        assert again.sequence == sc.sequence
        assert again.grid == sc.grid

    def test_unknown_key_suggests_unit_suffix(self):
        payload = correlated_2d_scenario()
        payload["clusters"][0] = {
            "preset": "spin_one",
            "f_a": 0.2,
            "f_b_MHz": 0.14,
            "lambda_kHz": 5.0,
        }
        with pytest.raises(ScenarioError, match="f_a_MHz"):
            scenario_from_dict(payload)

    def test_error_carries_field_path(self):
        payload = correlated_2d_scenario()
        payload["sequence"][1]["cluster"] = 5
        with pytest.raises(ScenarioError, match=r"sequence\[1\]"):
            scenario_from_dict(payload)

    def test_boolean_is_not_a_number(self):
        payload = tau_scan_scenario()
        payload["clusters"][0]["f_a_MHz"] = True
        with pytest.raises(ScenarioError, match="number"):
            scenario_from_dict(payload)

    def test_missing_sections(self):
        with pytest.raises(ScenarioError, match="clusters"):
            scenario_from_dict({"sequence": []})

    def test_bad_axis_kind(self):
        payload = tau_scan_scenario()
        payload["grid"]["axes"][0]["kind"] = "frequency"
        with pytest.raises(ScenarioError, match="kind"):
            scenario_from_dict(payload)

    def test_unknown_topology_lists_options(self):
        payload = correlated_2d_scenario()
        payload["analytic"]["topology"] = "2d-entangled"
        with pytest.raises(ScenarioError, match="2d-correlated"):
            scenario_from_dict(payload)

    @pytest.mark.parametrize(
        "keys,value,where",
        [
            (("grid", "axes", 0, "hi_us"), math.inf, "grid.axes[0].hi_us"),
            (("sequence", 0, "tau_us"), math.nan, "sequence[0].tau_us"),
            (("clusters", 0, "lambda_kHz"), -math.inf, "clusters[0].lambda_kHz"),
            (
                ("clusters", 0),
                {"energies_MHz": [0.0, math.nan]},
                "clusters[0].energies_MHz[1]",
            ),
            (
                ("clusters", 0),
                {
                    "preset": "ring",
                    "f_1_MHz": 0.34,
                    "f_2_MHz": 0.14,
                    "couplings_kHz": [5.0, [5.04, math.nan], 4.98],
                },
                "clusters[0].couplings_kHz[1]",
            ),
            (
                ("clusters", 0),
                edit(LADDER, rung_freqs_MHz=[0.2, math.nan, 0.3]),
                "clusters[0].rung_freqs_MHz[1]",
            ),
            (
                ("clusters", 0),
                edit(LADDER, rung_couplings_kHz=[5.0, math.inf, None]),
                "clusters[0].rung_couplings_kHz[1]",
            ),
            (
                ("clusters", 0),
                edit(STAR, freqs_MHz=[0.2, -math.inf]),
                "clusters[0].freqs_MHz[1]",
            ),
        ],
        ids=[
            "hi_us",
            "tau_us",
            "lambda_kHz",
            "energies_MHz",
            "couplings_kHz",
            "rung_freqs_MHz",
            "rung_couplings_kHz",
            "freqs_MHz",
        ],
    )
    def test_non_finite_number_fails_with_field_path(
        self, tmp_path, capsys, keys, value, where
    ):
        payload = tau_scan_scenario()
        target = payload
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        # json writes and reads these as NaN / Infinity / -Infinity
        path = write_scenario(tmp_path, payload)
        assert dispatch(["validate", path]) == 2
        assert f"{path}.{where}: " in capsys.readouterr().err

    @pytest.mark.parametrize("keys,value,expected", MALFORMED)
    def test_error_message(self, tmp_path, capsys, keys, value, expected):
        payload = correlated_2d_scenario()
        if not keys:
            payload = value
        else:
            target = payload
            for key in keys[:-1]:
                target = target[key]
            if value is DELETE:
                del target[keys[-1]]
            else:
                target[keys[-1]] = value
        path = write_scenario(tmp_path, payload)
        assert dispatch(["validate", path]) == 2
        assert capsys.readouterr().err == f"error: {path}{expected}\n"

    def test_topology_the_cluster_cannot_host(self, tmp_path, capsys):
        payload = tau_scan_scenario()
        payload["analytic"] = {
            "topology": "2d-uncorrelated",
            "cluster": 0,
            "transitions": [[2, 1], [0, 1]],
        }
        path = write_scenario(tmp_path, payload)
        assert dispatch(["validate", path]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}.analytic: 2d-uncorrelated topology needs dimension >= 4, got 3\n"
        )

    def test_readme_schema_block_parses(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```jsonc\n(.*?)```", text, re.S).group(1)
        scenario = scenario_from_dict(json.loads(re.sub(r"//[^\n]*", "", block)))
        assert [c.dim for c in scenario.system.clusters] == [3, 3, 3, 3, 2]
        assert scenario.analytic_model is not None
        assert scenario.plan_inputs is not None

    def test_readme_python_blocks_run(self):
        # in order, in one namespace, as a reader would paste them
        text = (REPO / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        assert len(blocks) >= 2
        namespace = {}
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
        assert len(namespace["result"]) == 64 * 45
        # the quick start's comment states the values it prints
        stated = re.search(r"# Re L = ([-0-9., ]+):", text).group(1)
        assert stated == ", ".join(f"{x:.3f}" for x in namespace["dip"].L.real[[10, 20, 31]])

    def test_custom_cluster(self):
        payload = {
            "clusters": [
                {
                    "label": "pair",
                    "energies_MHz": [0.0, 0.2],
                    "couplings": [{"m": 1, "n": 0, "amp_kHz": 5.0}],
                }
            ],
            "sequence": [{"tau_us": 1.25, "n_pulses": 4}],
        }
        sc = scenario_from_dict(payload)
        cluster = sc.system.clusters[0]
        assert cluster.label == "pair"
        assert cluster.energies[1] == pytest.approx(TWO_PI * 0.2)
        assert abs(cluster.coupling[1, 0]) == pytest.approx(
            TWO_PI * 5.0 / 1000.0
        )

    def test_invalid_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "clusters": [,]\n}\n')
        with pytest.raises(ScenarioError, match="line 2"):
            parse_scenario(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            parse_scenario(str(tmp_path / "nope.json"))


class TestDispatchBasics:
    def test_no_arguments_prints_help(self, capsys):
        assert dispatch([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert dispatch(["frobnicate"]) == 1

    def test_validate_good_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, correlated_2d_scenario())
        assert dispatch(["validate", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK:")
        assert "2 block(s)" in out
        assert "analytic model" in out

    def test_validate_bad_scenario(self, tmp_path, capsys):
        payload = correlated_2d_scenario()
        payload["sequence"][0]["m"] = 9
        path = write_scenario(tmp_path, payload)
        assert dispatch(["validate", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert dispatch(["analytic", "--delta", "0.025", "--n", "63"]) == 1

    def test_validate_counts_a_huge_axis_without_listing_it(self, tmp_path):
        payload = correlated_2d_scenario()
        payload["grid"]["axes"][0]["stop"] = 1_000_000_000
        payload["grid"]["axes"][1]["stop"] = 88
        path = write_scenario(tmp_path, payload)
        # a list of the axis's 500000001 counts cannot fit under a 1 GiB cap,
        # so the grid is sized from len() and rejected without listing it
        result = run_capped(["validate", path])
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {path}.grid: grid of 22500000045 points needs about 6.52e+03 GiB, "
            "over the 4 GiB a scan may use\n"
        )

    def test_validate_prices_a_grid_beyond_float_range(self, tmp_path, capsys):
        payload = json.loads((REPO / "scenarios" / "spin-one-tau-map.json").read_text())
        payload["grid"]["axes"][0]["steps"] = 10**400
        path = write_scenario(tmp_path, payload)
        assert dispatch(["validate", path]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}.grid: grid of {41 * 10**400} points needs about 9.22e+394 GiB, "
            "over the 4 GiB a scan may use\n"
        )

    def test_validate_prices_a_grid_past_the_int_to_str_digit_limit(self, tmp_path, capsys):
        # 10**4400 points have more digits than str() converts
        payload = json.loads((REPO / "scenarios" / "spin-one-tau-map.json").read_text())
        for axis in payload["grid"]["axes"]:
            axis["steps"] = 10**2200
        path = write_scenario(tmp_path, payload)
        assert dispatch(["validate", path]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}.grid: grid of 1e+4400 points needs about 1.19e+4393 GiB, "
            "over the 4 GiB a scan may use\n"
        )

    def test_validate_reports_a_literal_past_the_digit_limit_at_its_file(self, tmp_path, capsys):
        payload = json.loads((REPO / "scenarios" / "spin-one-tau-map.json").read_text())
        payload["plan"]["snr"] = "<snr>"
        path = tmp_path / "scenario.json"
        # json.dumps cannot write an integer of more than 4300 digits
        path.write_text(json.dumps(payload).replace('"<snr>"', "1" + "0" * 5000))
        assert dispatch(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        # Python 3.10 words it "the limit (4300)", later ones "(4300 digits)"
        assert err.startswith(f"error: {path}: Exceeds the limit (4300"), err
        assert "value has 5001 digits" in err

    def test_validate_reports_json_nested_past_the_recursion_limit_at_its_file(
        self, tmp_path, capsys
    ):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert dispatch(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: maximum recursion depth exceeded"), err

    def test_validate_reports_a_file_that_is_not_utf8_at_its_file(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        assert dispatch(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )

    def test_validate_reports_a_key_given_twice_at_its_file(self, tmp_path, capsys):
        # json.loads alone would read the grid as exact, its last value
        text = (REPO / "scenarios" / "correlated-ladder-cell.json").read_text()
        path = tmp_path / "scenario.json"
        path.write_text(text.replace('"engine": "both"', '"engine": "analytic", "engine": "exact"'))
        assert dispatch(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: duplicate key 'engine'\n"

    def test_validate_refuses_a_block_lasting_beyond_float_range(self, tmp_path, capsys):
        payload = json.loads((REPO / "scenarios" / "spin-one-tau-map.json").read_text())
        payload["sequence"][0]["tau_us"] = 1e308
        path = write_scenario(tmp_path, payload)
        for command in ("validate", "lint"):
            assert dispatch([command, path]) == 2
            assert capsys.readouterr().err == (
                f"error: {path}.sequence[0]: 2 * tau * max(n_pulses, 1) must be finite, "
                f"got tau = 1e+308, n = {payload['sequence'][0]['n_pulses']}\n"
            )

    def test_validate_and_lint_a_billion_pulse_block_in_constant_memory(self, tmp_path):
        payload = {
            "clusters": [{"preset": "star", "freqs_MHz": [0.2, 0.6], "couplings_kHz": [5.0, 5.0]}],
            "sequence": [{"tau_us": 1.25, "n_pulses": 1_000_000_000}],
        }
        path = write_scenario(tmp_path, payload)
        # a timeline of 1e9 flips cannot fit under a 1 GiB cap: the filter
        # is the closed form, O(1) in the pulse count
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from ddcorr.cli import dispatch\n"
            f"sys.exit(dispatch(['validate', {path!r}]) or dispatch(['lint', {path!r}]))\n"
        )
        result = run_python(["-c", code])
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert "F = 2e+09 (100% of 2N)" in result.stdout

    def test_validate_rejects_a_cluster_too_large_to_build(self, tmp_path):
        # its (60000, 60000) complex coupling matrix alone would take 53.6 GiB
        cluster = {
            "energies_MHz": [0.001 * i for i in range(60000)],
            "couplings": [{"m": 1, "n": 0, "amp_kHz": 5.0}],
        }
        payload = {"clusters": [cluster], "sequence": [{"tau_us": 1.25, "n_pulses": 2}]}
        path = write_scenario(tmp_path, payload)
        result = run_capped(["validate", path])
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {path}.clusters[0]: 60000 levels need about 215 GiB as d x d "
            "matrices, over the 4 GiB a cluster may use\n"
        )

    @pytest.mark.parametrize("command", ["validate", "scan"])
    def test_rejects_a_grid_whose_rows_carry_too_many_blocks(self, tmp_path, command):
        # 4001 rows of 30000 blocks: their int64 pulse counts alone would
        # take 916 MiB, where the points and rows need 0.04 GiB
        payload = {
            "clusters": [SPIN_ONE],
            "sequence": [{"tau_us": 1.25, "n_pulses": 2}] * 30000,
            "grid": {"axes": [{"kind": "pulse", "block": 0, "start": 0, "stop": 8000}]},
        }
        path = write_scenario(tmp_path, payload)
        result = run_capped([command, path])
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {path}.grid: grid of 4001 points needs about 5.38 GiB, "
            "over the 4 GiB a scan may use\n"
        )

    @staticmethod
    def four_hundred_levels(engine):
        ladder = {"preset": "ladder", "rung_freqs_MHz": [0.2] * 399, "rung_couplings_kHz": [5.0] * 399}
        axis = {"kind": "pulse", "block": 0, "start": 0, "stop": 4, "step": 2}
        return {
            "clusters": [ladder],
            "sequence": [{"tau_us": 1.25, "n_pulses": 2}],
            "grid": {"engine": engine, "axes": [axis]},
        }

    @pytest.mark.parametrize("command", ["validate", "scan"])
    def test_rejects_a_magnus_grid_whose_working_set_cannot_fit(self, tmp_path, command):
        # the Magnus engine holds (d, d, d) arrays for a block's one tau:
        # 128 bytes per level triple make 7.63 GiB at d = 400, where the
        # points and rows need 0.3 GiB
        path = write_scenario(tmp_path, self.four_hundred_levels("analytic"))
        result = run_capped([command, path])
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {path}.grid: grid of 3 points needs about 7.93 GiB, "
            "over the 4 GiB a scan may use\n"
        )

    def test_exact_grid_of_many_levels_scans_but_not_under_the_magnus_engine(self, tmp_path):
        path = write_scenario(tmp_path, self.four_hundred_levels("exact"))
        out = tmp_path / "out.csv"
        result = run_capped(["scan", path, "--out", str(out)])
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("3 points; ")
        out.unlink()
        result = run_capped(["scan", path, "--engine", "analytic", "--out", str(out)])
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {path}.grid: grid of 3 points needs about 7.93 GiB, "
            "over the 4 GiB a scan may use\n"
        )
        assert not out.exists()

    def test_scan_rejects_an_oversize_grid_before_building_it(
        self, tmp_path, capsys, monkeypatch
    ):
        payload = correlated_2d_scenario()
        payload["grid"]["axes"][0]["stop"] = 1_000_000
        payload["grid"]["axes"][1]["stop"] = 88
        path = write_scenario(tmp_path, payload)

        def build(*axes):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(scan_module, "_points", build)
        assert dispatch(["scan", path, "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}.grid: grid of 22500045 points needs about 6.52 GiB, "
            "over the 4 GiB a scan may use\n"
        )
        assert not (tmp_path / "out.csv").exists()

    def test_python_m_ddcorr_runs_quietly(self):
        result = run_python(
            ["-m", "ddcorr", "validate", "scenarios/correlated-ladder-cell.json"]
        )
        assert result.returncode == 0
        assert result.stdout.startswith("OK:")
        assert result.stderr == ""


class TestAnalyticCommand:
    def run(self, capsys, *argv):
        code = dispatch(["analytic", *argv])
        out = capsys.readouterr().out.strip()
        return code, out

    def test_correlated_worked_example(self, capsys):
        code, out = self.run(
            capsys,
            "--topology", "2d-correlated",
            "--d", "3",
            "--delta", "0.025,0.036",
            "--n", "63,44",
        )
        assert code == 0
        assert float(out) == pytest.approx(-1.0 / 3.0, abs=1e-3)

    def test_1d(self, capsys):
        code, out = self.run(
            capsys, "--topology", "1d", "--d", "3", "--delta", "0.025", "--n", "63"
        )
        assert code == 0
        assert float(out) == pytest.approx(-1.0 / 3.0, abs=1e-3)

    def test_independent_molecules(self, capsys):
        code, out = self.run(
            capsys,
            "--topology", "2d-independent",
            "--dims", "2,2",
            "--delta", "0.02,0.02",
            "--n", "78.54,78.54",
        )
        assert code == 0
        assert float(out) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ("--topology", "2d-correlated", "--delta", "0.025,0.036", "--n", "63,44"),
                "--d is required for this topology",
            ),
            (
                ("--topology", "1d", "--delta", "0.025", "--n", "63"),
                "--d is required for this topology",
            ),
            (
                (
                    "--topology", "2d-independent",
                    "--dims", "2",
                    "--delta", "0.025,0.036",
                    "--n", "63,44",
                ),
                "--dims: 2d-independent needs 2 dimensions >= 2, got (2,)",
            ),
            (
                ("--topology", "2d-independent", "--delta", "0.1,0.1", "--n", "2,2"),
                "--dims is required for 2d-independent",
            ),
        ],
        ids=["no-d", "1d-no-d", "dims-count", "no-dims"],
    )
    def test_missing_dimension_fails(self, capsys, argv, message):
        assert dispatch(["analytic", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ("--topology", "1d", "--d", "3", "--dims", "5", "--delta", "0.025", "--n", "63"),
                "--dims: 1d is one molecule; give its dimension with --d",
            ),
            (
                (
                    "--topology", "2d-correlated",
                    "--d", "3",
                    "--dims", "3",
                    "--delta", "0.025,0.036",
                    "--n", "63,44",
                ),
                "--dims: 2d-correlated is one molecule; give its dimension with --d",
            ),
            (
                (
                    "--topology", "2d-independent",
                    "--dims", "2,2",
                    "--d", "7",
                    "--delta", "0.02,0.02",
                    "--n", "78.54,78.54",
                ),
                "--d: 7 is not the product of --dims 2,2",
            ),
        ],
        ids=["1d-dims", "correlated-dims", "independent-d"],
    )
    def test_contradictory_size_flags_fail(self, capsys, argv, message):
        assert dispatch(["analytic", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_independent_d_equal_to_the_product_is_accepted(self, capsys):
        code, out = self.run(
            capsys,
            "--topology", "2d-independent",
            "--dims", "2,2",
            "--d", "4",
            "--delta", "0.02,0.02",
            "--n", "78.54,78.54",
        )
        assert code == 0
        assert float(out) == pytest.approx(1.0, abs=1e-3)

    def test_dims_above_2_to_the_53_are_not_rounded(self, capsys):
        # 2**53 + 1 is no float: --d must equal the true product, not the rounded one
        argv = ["--topology", "2d-independent", "--dims", "9007199254740993,2",
                "--delta", "0.02,0.02", "--n", "5,5"]
        assert dispatch(["analytic", *argv, "--d", "18014398509481986"]) == 0
        assert capsys.readouterr().out == "0.980067\n"
        assert dispatch(["analytic", *argv, "--d", "18014398509481984"]) == 2
        assert capsys.readouterr().err == (
            "error: --d: 18014398509481984 is not the product of --dims 9007199254740993,2\n"
        )

    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_every_topology_is_accepted(self, capsys, name):
        count = int(name[0])
        size = ["--dims", ",".join(["2"] * count)] if "independent" in name else ["--d", "6"]
        code, out = self.run(
            capsys,
            "--topology", name,
            *size,
            "--delta", ",".join(["0.02"] * count),
            "--n", ",".join(["5"] * count),
        )
        assert code == 0
        assert -1.0 <= float(out) <= 1.0

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--d", "3", "--delta", "0.025,nan", "--n", "63,44"], "--delta"),
            (["--d", "3", "--delta", "0.025,-inf", "--n", "63,44"], "--delta"),
            (["--d", "3", "--delta", "0.025,0.036", "--n", "63,Infinity"], "--n"),
        ],
        ids=["nan", "minus-inf", "infinity"],
    )
    def test_non_finite_number_list_fails(self, capsys, argv, flag):
        code = dispatch(["analytic", "--topology", "2d-correlated", *argv])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}:")

    @pytest.mark.parametrize(
        "delta,n,reach",
        [
            ("0.025,0.03", "1e300,44", "2 N delta = 2 x 1e+300 x 0.025"),
            # 2 x 62 x 1e308 overflows to inf; the cosine would raise a math domain error
            ("1e308,0.03", "62,44", "2 N delta = 2 x 62 x 1e+308"),
        ],
        ids=["past-range", "past-float-range"],
    )
    def test_refuses_phases_beyond_the_phase_range(self, capsys, delta, n, reach):
        argv = ["--topology", "2d-correlated", "--d", "3", "--delta", delta, "--n", n]
        assert dispatch(["analytic", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --delta/--n: {reach} is beyond the 1.5e+11 rad a closed-form dip takes\n"
        )

    def test_evaluates_a_phase_within_the_range(self, capsys):
        # 2 x 1e12 x 0.025 is 5e10 rad, inside the 1.5e11 rad range
        argv = ["--topology", "2d-correlated", "--d", "3", "--delta", "0.025,0.03", "--n", "1e12,44"]
        assert dispatch(["analytic", *argv]) == 0
        assert capsys.readouterr() == ("-0.326267\n", "")

    def test_fractional_dims_fail(self, capsys):
        code = dispatch([
            "analytic", "--topology", "2d-independent", "--dims", "2.7,2",
            "--delta", "0.02,0.02", "--n", "78.54,78.54",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --dims: expected comma-separated integers, got '2.7,2'\n"
        )

    def test_1d_negative_count_fails(self, capsys):
        code = dispatch(
            ["analytic", "--topology", "1d", "--d", "3", "--delta", "0.02", "--n", "-5"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --n: pulse counts must be finite and >= 0, got (-5.0,)\n"
        )

    def test_malformed_number_list(self, capsys):
        code, _ = self.run(
            capsys,
            "--topology", "1d",
            "--d", "3",
            "--delta", "0.025;0.03",
            "--n", "63",
        )
        assert code == 2


class TestPlanCommand:
    def test_direct_flags(self, capsys):
        code = dispatch(
            ["plan", "--F", "0.03", "--snr", "10", "--delta-omega-kHz", "5,5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "K       = 111112" in out
        assert "314.159 us" in out
        assert "sweep" not in out

    def test_json_output(self, capsys):
        code = dispatch(
            [
                "plan",
                "--F", "0.03",
                "--snr", "10",
                "--delta-omega-kHz", "5,5",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["K"] == 111112
        assert report["F"] == 0.03
        assert report["t_dip_us"] == pytest.approx(314.159, abs=1e-3)
        assert report["sweep_points"] is None

    def test_deltas_and_freqs_enable_sweep(self, capsys):
        code = dispatch(
            [
                "plan",
                "--F", "0.03",
                "--snr", "10",
                "--deltas", "0.025,0.036",
                "--freqs-MHz", "0.2,0.14",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep   = 2772 points" in out

    def test_scenario_plan_section(self, tmp_path, capsys):
        path = write_scenario(tmp_path, correlated_2d_scenario())
        code = dispatch(["plan", path, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["K"] == 111112
        assert report["sweep_points"] == 2772

    def test_flag_overrides_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, correlated_2d_scenario())
        code = dispatch(["plan", path, "--snr", "20", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["K"] == 444445

    def test_alpha_pair(self, capsys):
        code = dispatch(
            [
                "plan",
                "--alpha0", "0.02",
                "--alpha1", "0.01",
                "--snr", "10",
                "--delta-omega-kHz", "5,5",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["F"] == pytest.approx(0.0408, abs=5e-5)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--F", "nan"], "--F: expected a finite number, got nan"),
            (["--F", "0.03", "--snr", "inf"], "--snr: expected a finite number, got inf"),
            (
                ["--alpha0", "inf", "--alpha1", "0.01"],
                "--alpha0: expected a finite number, got inf",
            ),
            (
                ["--alpha0", "0.02", "--alpha1=-inf"],
                "--alpha1: expected a finite number, got -inf",
            ),
            (
                ["--F", "0.03", "--t-ir-us", "nan"],
                "--t-ir-us: expected a finite number, got nan",
            ),
            (["--F", "1.5"], "--F: fidelity must be in (0, 1], got 1.5"),
            (
                ["--alpha0", "1e300", "--alpha1", "0.01"],
                "--alpha0/--alpha1: photon means 1e+300 and 0.01 are too large to evaluate F",
            ),
            (
                ["--alpha0", "1e-170", "--alpha1", "0"],
                "--alpha0/--alpha1: photon means 1e-170 and 0 are too close to evaluate F",
            ),
        ],
        ids=[
            "F", "snr", "alpha0", "alpha1", "t-ir-us", "fidelity-above-one", "alpha-overflow",
            "alpha-underflow",
        ],
    )
    def test_bad_readout_flags(self, capsys, argv, message):
        base = ["--snr", "10", "--delta-omega-kHz", "5,5"]
        assert dispatch(["plan", *base, *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("with_scenario", [False, True], ids=["flags", "scenario"])
    @pytest.mark.parametrize(
        "flag", [["--deltas", "0.5,0.5"], ["--freqs-MHz", "0.2,0.14"]], ids=["deltas", "freqs"]
    )
    def test_deltas_and_freqs_go_together(self, tmp_path, capsys, flag, with_scenario):
        scenario = [write_scenario(tmp_path, correlated_2d_scenario())] if with_scenario else []
        argv = ["plan", *scenario, "--F", "0.03", "--snr", "10", *flag]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --deltas and --freqs-MHz must be given together\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--F", "0.03", "--alpha0", "5", "--snr", "10", "--delta-omega-kHz", "5,5"],
            [str(REPO / "scenarios" / "spin-one-tau-map.json"), "--alpha0", "5"],
        ],
        ids=["flags", "scenario"],
    )
    def test_alpha0_and_alpha1_go_together(self, capsys, argv):
        assert dispatch(["plan", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --alpha0 and --alpha1 must be given together\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["--F", "0.03", "--alpha0", "-1", "--alpha1", "0.5", "--delta-omega-kHz", "1,2"],
                "give --F or --alpha0/--alpha1, not both",
            ),
            (
                ["--F", "0.03", "--delta-omega-kHz", "1,2", "--deltas", "0.1", "--freqs-MHz", "1"],
                "give --delta-omega-kHz or --deltas/--freqs-MHz, not both",
            ),
        ],
        ids=["fidelity", "targets"],
    )
    def test_one_input_given_two_ways(self, capsys, argv, message):
        assert dispatch(["plan", "--snr", "10", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_deltas_and_freqs_replace_scenario_products(self, tmp_path, capsys):
        payload = correlated_2d_scenario()
        payload["plan"] = {"fidelity": 0.03, "snr": 10.0, "delta_omega_kHz": [5.0, 5.0]}
        path = write_scenario(tmp_path, payload)
        flags = ["--deltas", "0.025,0.036", "--freqs-MHz", "0.2,0.14", "--json"]
        assert dispatch(["plan", "--F", "0.03", "--snr", "10", *flags]) == 0
        alone = json.loads(capsys.readouterr().out)
        assert dispatch(["plan", path, *flags]) == 0
        over = json.loads(capsys.readouterr().out)
        assert over == alone
        assert over["t_dip_us"] == pytest.approx(312.913, abs=1e-3)  # not 314.159
        assert over["sweep_points"] == 2772

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["--deltas", "1e-320,0.1", "--freqs-MHz", "1,1"],
                "--deltas/--freqs-MHz: delta * omega = 6.28303e-320 and 0.628319 rad/us give an"
                " infinite dip time",
            ),
            (
                ["--delta-omega-kHz", "1e-320,5"],
                "--delta-omega-kHz: delta * omega = 6.42285e-323 and 0.0314159 rad/us give an"
                " infinite dip time",
            ),
            (
                ["--deltas", "1e-200,1e-200", "--freqs-MHz", "1,1"],
                "--F/--snr/--deltas/--freqs-MHz: 1.57e+200 x 1.57e+200 points of 1.74534e+199 s"
                " give an infinite sweep time",
            ),
            (
                ["--delta-omega-kHz", "1,5", "--t-ir-us", "1e308"],
                "--F/--snr/--delta-omega-kHz/--t-ir-us: 1.11e+05 shots of 942.478 + 1e+308 us"
                " give an infinite point time",
            ),
        ],
        ids=["dip-from-deltas", "dip-from-products", "sweep", "point"],
    )
    def test_infinite_budget_names_its_flags(self, capsys, argv, message):
        assert dispatch(["plan", "--F", "0.03", "--snr", "10", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_flag_that_overflows_a_scenario_budget(self, tmp_path, capsys):
        path = write_scenario(tmp_path, correlated_2d_scenario())
        assert dispatch(["plan", path, "--snr", "1e200"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --snr: snr 1e+200 at F = 0.03 needs too many shots\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--snr=-1", "--delta-omega-kHz", "5,5"], "--snr: snr must be > 0, got -1.0"),
            (
                ["--snr", "10", "--delta-omega-kHz", "5,5", "--t-ir-us=-1"],
                "--t-ir-us: t_ir_us must be >= 0, got -1.0",
            ),
            (
                ["--snr", "10", "--deltas", "0,0.036", "--freqs-MHz", "0.2,0.14"],
                "--deltas: deltas must be > 0, got (0.0, 0.036)",
            ),
            (
                ["--snr", "10", "--deltas", "0.025,0.036", "--freqs-MHz", "0.2,-0.14"],
                "--freqs-MHz: omegas must be > 0, got (1.2566370614359172, -0.8796459430051422)",
            ),
            (
                ["--snr", "10", "--deltas", "0.025,0.036", "--freqs-MHz", "0.2,0.14,0.3"],
                "--deltas/--freqs-MHz: dip time is defined for exactly two transitions",
            ),
            # 2 pi x 1e308 overflows to inf, which is > 0 but no target
            (
                ["--snr", "10", "--delta-omega-kHz", "1e308,1"],
                "--delta-omega-kHz: delta_omegas must be finite, got (inf, 0.006283185307179587)",
            ),
            (
                ["--snr", "10", "--deltas", "0.02,0.03", "--freqs-MHz", "1e308,0.14"],
                "--freqs-MHz: omegas must be finite, got (inf, 0.8796459430051422)",
            ),
        ],
        ids=["snr", "t-ir-us", "zero-delta", "negative-freq", "unequal-counts", "infinite-product",
             "infinite-freq"],
    )
    def test_range_refusal_names_only_its_flag(self, capsys, argv, message):
        assert dispatch(["plan", "--F", "0.03", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_validate_refuses_a_product_that_overflows(self, tmp_path, capsys):
        payload = json.loads((REPO / "scenarios" / "spin-one-tau-map.json").read_text())
        del payload["plan"]["transitions"]
        payload["plan"]["delta_omega_kHz"] = [1e308, 1.0]
        path = write_scenario(tmp_path, payload)
        assert dispatch(["validate", path]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}.plan.delta_omega_kHz: delta_omegas must be finite,"
            " got (inf, 0.006283185307179587)\n"
        )

    @pytest.mark.parametrize(
        "fields,where,message",
        [
            ({"snr": -1}, ".plan.snr", "snr must be > 0, got -1.0"),
            ({"t_ir_us": -1}, ".plan.t_ir_us", "t_ir_us must be >= 0, got -1.0"),
            (
                {"alpha0": 1e-170, "alpha1": 0},
                ".plan",
                "photon means 1e-170 and 0 are too close to evaluate F",
            ),
        ],
        ids=["snr", "t-ir-us", "alphas-too-close"],
    )
    def test_validate_reports_a_plan_refusal_at_its_field(
        self, tmp_path, capsys, fields, where, message
    ):
        payload = json.loads((REPO / "scenarios" / "spin-one-tau-map.json").read_text())
        payload["plan"].update(fields)
        path = write_scenario(tmp_path, payload)
        assert dispatch(["validate", path]) == 2
        assert capsys.readouterr().err == f"error: {path}{where}: {message}\n"

    def test_missing_inputs(self, capsys):
        assert dispatch(["plan", "--F", "0.03", "--snr", "10"]) == 2
        assert dispatch(["plan", "--snr", "10", "--delta-omega-kHz", "5,5"]) == 2

    def test_scenario_without_plan_section(self, capsys):
        path = str(REPO / "scenarios" / "ring-sandwich-slice.json")
        assert dispatch(["plan", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: no 'plan' section\n"


class TestScanCommand:
    def test_csv_and_summary(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tau_scan_scenario())
        out_csv = tmp_path / "scan.csv"
        code = dispatch(["scan", path, "--out", str(out_csv)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "21 points; min Re L = " in stdout
        text = out_csv.read_text()
        assert text.startswith("# ddcorr-scan v1\ntau1_us,re_L,im_L\n")
        assert len(text.splitlines()) == 2 + 21

    def test_heatmap_for_two_axis_grid(self, tmp_path, capsys):
        payload = correlated_2d_scenario()
        path = write_scenario(tmp_path, payload)
        out_pgm = tmp_path / "map.pgm"
        code = dispatch(
            ["scan", path, "--engine", "analytic", "--heatmap", str(out_pgm)]
        )
        assert code == 0
        assert out_pgm.read_bytes().startswith(b"P5\n5 5\n65535\n")

    def test_heatmap_of_a_one_axis_grid_is_refused_before_the_scan(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tau_scan_scenario())
        out_csv, out_pgm = tmp_path / "scan.csv", tmp_path / "map.pgm"
        code = dispatch(["scan", path, "--out", str(out_csv), "--heatmap", str(out_pgm)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --heatmap: heatmap requires a 2-axis scan, got a 1-axis grid\n"
        assert not out_csv.exists()
        assert not out_pgm.exists()

    def test_engine_override_to_analytic_fills_analytic_column(
        self, tmp_path, capsys
    ):
        path = write_scenario(tmp_path, correlated_2d_scenario())
        out_csv = tmp_path / "scan.csv"
        code = dispatch(
            ["scan", path, "--engine", "analytic", "--out", str(out_csv)]
        )
        assert code == 0
        header = out_csv.read_text().splitlines()[1]
        assert header == "n1,n2,re_L,im_L,analytic_L"

    def test_workers_flag_is_rejected(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tau_scan_scenario())
        assert dispatch(["scan", path, "--workers", "2"]) == 1
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_workers_environment_is_not_read(self, tmp_path, capsys, monkeypatch):
        path = write_scenario(tmp_path, tau_scan_scenario())
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert dispatch(["scan", path, "--out", str(a)]) == 0
        monkeypatch.setenv("DDCORR_WORKERS", "zebra")
        assert dispatch(["scan", path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("gap", [1e-16, -1e-16], ids=["first-smaller", "second-smaller"])
    def test_summary_takes_the_first_of_near_tied_minima(
        self, tmp_path, capsys, monkeypatch, gap
    ):
        values = np.array([0.5, -0.3, 0.1, -0.3 + gap, 0.5])
        assert values[3] != values[1]
        coords = np.array([[0.0], [2.0], [4.0], [6.0], [8.0]])
        result = scan_module.ScanResult(("n1",), (5,), coords, values.astype(complex))
        monkeypatch.setattr(cli_module, "run_scan", lambda *args, **kwargs: result)
        path = write_scenario(tmp_path, tau_scan_scenario())
        assert dispatch(["scan", path]) == 0
        assert capsys.readouterr().out == "5 points; min Re L = -0.3 at n1 = 2\n"

    def test_scan_refusal_carries_the_grid_path(self, tmp_path, capsys, monkeypatch):
        def run_scan(*args, **kwargs):
            raise ValueError("|L| > 1: not a physical coherence")

        monkeypatch.setattr(cli_module, "run_scan", run_scan)
        path = write_scenario(tmp_path, tau_scan_scenario())
        assert dispatch(["scan", path]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}.grid: |L| > 1: not a physical coherence\n"
        )

    def test_scan_without_grid_section(self, tmp_path, capsys):
        payload = tau_scan_scenario()
        del payload["grid"]
        path = write_scenario(tmp_path, payload)
        assert dispatch(["scan", path]) == 2


class TestFilterCommand:
    def test_profile_csv(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tau_scan_scenario())
        out_csv = tmp_path / "filter.csv"
        code = dispatch(
            [
                "filter", path,
                "--f-min-MHz", "0.05",
                "--f-max-MHz", "0.4",
                "--steps", "36",
                "--out", str(out_csv),
            ]
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "# ddcorr-filter v1"
        assert lines[1] == "f_MHz,filter_F,filter_phase_rad"
        assert len(lines) == 2 + 36
        rows = [tuple(map(float, ln.split(","))) for ln in lines[2:]]
        peak_f = max(rows, key=lambda r: r[1])[0]
        assert peak_f == pytest.approx(0.2, abs=0.01)

    @pytest.mark.parametrize(
        "scenario", sorted((REPO / "scenarios").glob("*.json")), ids=lambda path: path.stem
    )
    def test_profile_csv_bytes(self, tmp_path, capsys, scenario):
        # 5000 rows of 3 cells span several of the writer's encoder blocks
        out_csv = tmp_path / "filter.csv"
        argv = ["--f-min-MHz", "0.05", "--f-max-MHz", "0.4", "--steps", "5000", "--out", str(out_csv)]
        assert dispatch(["filter", str(scenario), *argv]) == 0
        sequence = parse_scenario(scenario).sequence
        rows = [
            "%.17g,%.17g,%.17g\n" % (f, result.magnitude, result.phase)
            for f in np.linspace(0.05, 0.4, 5000)
            for result in [filter_multiblock(sequence, TWO_PI * f)]
        ]
        header = "# ddcorr-filter v1\nf_MHz,filter_F,filter_phase_rad\n"
        assert out_csv.read_bytes() == (header + "".join(rows)).encode("ascii")

    def test_prints_rows_without_out(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tau_scan_scenario())
        code = dispatch(
            ["filter", path, "--f-min-MHz", "0.1", "--f-max-MHz", "0.3", "--steps", "5"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["--f-min-MHz", "nan", "--f-max-MHz", "0.3"],
                "--f-min-MHz: expected a finite number, got nan",
            ),
            (
                ["--f-min-MHz", "0.1", "--f-max-MHz", "inf"],
                "--f-max-MHz: expected a finite number, got inf",
            ),
        ],
        ids=["f-min", "f-max"],
    )
    def test_non_finite_range(self, tmp_path, capsys, argv, message):
        path = write_scenario(tmp_path, tau_scan_scenario())
        assert dispatch(["filter", path, *argv, "--steps", "3"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_steps_below_one_fail(self, tmp_path, capsys, steps):
        path = write_scenario(tmp_path, tau_scan_scenario())
        out_csv = tmp_path / "filter.csv"
        argv = ["filter", path, "--f-min-MHz", "0.1", "--f-max-MHz", "0.3"]
        code = dispatch([*argv, "--steps", steps, "--out", str(out_csv)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --steps: expected an integer >= 1, got {steps}\n"
        assert not out_csv.exists()

    def test_bad_range(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tau_scan_scenario())
        code = dispatch(
            ["filter", path, "--f-min-MHz", "0.4", "--f-max-MHz", "0.1"]
        )
        assert code == 2

    def test_rejects_a_step_count_too_large_to_hold(self, tmp_path):
        # the 10**9 frequencies alone would take 7.45 GiB
        path = write_scenario(tmp_path, tau_scan_scenario())
        argv = ["filter", path, "--f-min-MHz", "0.05", "--f-max-MHz", "0.4"]
        result = run_capped([*argv, "--steps", "1000000000"])
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == (
            "error: --steps: 1000000000 steps need about 477 GiB, "
            "over the 4 GiB a filter profile may use\n"
        )

    def test_step_count_beyond_float_range_keeps_its_budget(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tau_scan_scenario())
        steps = 10**400
        argv = ["filter", path, "--f-min-MHz", "0.1", "--f-max-MHz", "0.3"]
        assert dispatch([*argv, "--steps", str(steps)]) == 2
        assert capsys.readouterr().err == (
            f"error: --steps: {steps} steps need about 4.77e+393 GiB, "
            "over the 4 GiB a filter profile may use\n"
        )

    def test_filters_a_billion_pulse_block_in_constant_memory(self, tmp_path):
        # a timeline of 1e9 flips would take about 238 GiB; the closed form
        # takes O(1) in the pulse count
        payload = tau_scan_scenario()
        payload["sequence"][0]["n_pulses"] = 10**9
        path = write_scenario(tmp_path, payload)
        argv = ["filter", path, "--f-min-MHz", "0.1", "--f-max-MHz", "0.3", "--steps", "3"]
        result = run_capped(argv)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert "0.2 MHz: F = 2e+09, phase = " in result.stdout

    @pytest.mark.parametrize(
        "sequence,f_max,message",
        [
            # 2 pi x 1e307 MHz is finite, but not over the 50 us sequence
            ([{"tau_us": 1.25, "n_pulses": 20}], "1e307", "2 pi x 1e+307 MHz x 50 us"),
            # 2 pi x 1e308 MHz itself overflows
            ([{"tau_us": 1.25, "n_pulses": 20}], "1e308", "2 pi x 1e+308 MHz x 50 us"),
            # a zero-pulse block's tau enters its phase, though not the duration
            (
                [{"tau_us": 1e300, "n_pulses": 0}, {"tau_us": 1.25, "n_pulses": 20}],
                "1e10",
                "2 pi x 1e+10 MHz x 1e+300 us",
            ),
        ],
        ids=["sequence", "omega", "zero-pulse-tau"],
    )
    def test_refuses_phases_beyond_float_range(self, tmp_path, capsys, sequence, f_max, message):
        payload = tau_scan_scenario()
        payload["sequence"] = sequence
        del payload["grid"]
        path = write_scenario(tmp_path, payload)
        argv = ["filter", path, "--f-min-MHz", "0.1", "--f-max-MHz", f_max, "--steps", "2"]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --f-max-MHz: {message} is beyond the 1.5e+11 rad a filter takes\n"

    def test_refuses_phases_beyond_the_phase_range(self, tmp_path, capsys):
        # 2 pi x 1e9 MHz x 50 us is 3.1e11 rad: finite, but past the phase
        # at which F's rounding error would pass its 1e-4 tolerance
        payload = tau_scan_scenario()
        del payload["grid"]
        path = write_scenario(tmp_path, payload)
        argv = ["filter", path, "--f-min-MHz", "0.1", "--steps", "2"]
        assert dispatch([*argv, "--f-max-MHz", "1e8"]) == 0
        capsys.readouterr()
        assert dispatch([*argv, "--f-max-MHz", "1e9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --f-max-MHz: 2 pi x 1e+09 MHz x 50 us is beyond the 1.5e+11 rad a filter takes\n"
        )


class TestLintCommand:
    def test_clean_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tau_scan_scenario())
        assert dispatch(["lint", path]) == 0
        assert "clean: no lint findings" in capsys.readouterr().out

    def test_refuses_phases_beyond_the_phase_range(self, tmp_path, capsys):
        # 2 pi x 0.2 MHz x 2e11 us is 2.5e11 rad, past the phase at which
        # the filter's rounding error would pass its tolerance; 2.5e10 is not
        payload = tau_scan_scenario()
        del payload["grid"]
        for tau_us, reach in ((1e17, "2e+18"), (1e10, "2e+11")):
            payload["sequence"] = [{"tau_us": tau_us, "n_pulses": 10}]
            path = write_scenario(tmp_path, payload)
            assert dispatch(["lint", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {path}.sequence: 2 pi x 0.2 MHz x {reach} us is beyond the 1.5e+11 rad lint takes\n"
            )
        payload["sequence"] = [{"tau_us": 1e9, "n_pulses": 10}]
        path = write_scenario(tmp_path, payload)
        assert dispatch(["lint", path]) == 0
        assert capsys.readouterr().out == "clean: no lint findings\n"

    def test_harmonic_overlap_reported(self, tmp_path, capsys):
        payload = {
            "clusters": [
                {
                    "preset": "star",
                    "freqs_MHz": [0.2, 0.6],
                    "couplings_kHz": [5.0, 5.0],
                }
            ],
            "sequence": [{"tau_us": 1.25, "n_pulses": 20}],
        }
        path = write_scenario(tmp_path, payload)
        assert dispatch(["lint", path]) == 0
        out = capsys.readouterr().out
        assert "resonant" in out
        assert "clean" not in out
