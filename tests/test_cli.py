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

from ddcorr.analytic import TOPOLOGIES
from ddcorr.cli import (
    ScenarioError,
    _default_workers,
    dispatch,
    parse_scenario,
    scenario_from_dict,
)

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
        ("grid", "axes", 0, "block"), 5, ".grid.axes[0]: block 5 not in the sequence",
        id="axis-block",
    ),
    pytest.param(
        ("grid", "axes", 1, "block"), 0, ".grid: duplicate axis for block 0",
        id="axis-duplicate",
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
        ("plan",),
        {"alpha0": 0.02, "alpha1": 0.02, "snr": 10.0, "transitions": [[0, 1, 0], [0, 2, 1]]},
        ".plan: indistinguishable states: alpha0 = alpha1 gives F = 0",
        id="plan-alpha-error",
    ),
    pytest.param(
        ("plan", "snr"), DELETE, ".plan: missing required field 'snr'", id="plan-snr-missing"
    ),
    pytest.param(
        ("plan", "transitions"), DELETE, ".plan: give 'transitions' or 'delta_omega_kHz'",
        id="plan-no-targets",
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

    def test_roundtrip_preserves_source(self):
        source = correlated_2d_scenario()
        sc = scenario_from_dict(copy.deepcopy(source))
        assert sc.to_json_dict() == source
        mutated = sc.to_json_dict()
        mutated["clusters"].clear()
        assert sc.to_json_dict() == source

    def test_reparse_equivalence(self, tmp_path):
        source = correlated_2d_scenario()
        sc = scenario_from_dict(copy.deepcopy(source))
        again = scenario_from_dict(sc.to_json_dict())
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
        # a list of the axis's 500000001 counts cannot fit under a 1 GiB cap
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from ddcorr.cli import dispatch\n"
            f"sys.exit(dispatch(['validate', {path!r}]))\n"
        )
        result = run_python(["-c", code])
        assert result.returncode == 0, result.stderr
        assert "grid 500000001x45 [both]" in result.stdout

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
        "argv",
        [
            ("--topology", "2d-correlated", "--delta", "0.025,0.036", "--n", "63,44"),
            ("--topology", "1d", "--delta", "0.025", "--n", "63"),
            (
                "--topology", "2d-independent",
                "--dims", "2",
                "--delta", "0.025,0.036",
                "--n", "63,44",
            ),
        ],
        ids=["no-d", "1d-no-d", "dims-count"],
    )
    def test_missing_dimension_fails(self, capsys, argv):
        assert dispatch(["analytic", *argv]) == 2
        assert capsys.readouterr().err.startswith("error:")

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
            (["--F", "1.5"], "fidelity must be in (0, 1], got 1.5"),
        ],
        ids=["F", "snr", "alpha0", "alpha1", "t-ir-us", "fidelity-above-one"],
    )
    def test_bad_readout_flags(self, capsys, argv, message):
        base = ["--snr", "10", "--delta-omega-kHz", "5,5"]
        assert dispatch(["plan", *base, *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_inputs(self, capsys):
        assert dispatch(["plan", "--F", "0.03", "--snr", "10"]) == 2
        assert dispatch(["plan", "--snr", "10", "--delta-omega-kHz", "5,5"]) == 2


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

    def test_worker_count_is_cosmetic(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tau_scan_scenario())
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert dispatch(["scan", path, "--out", str(a), "--workers", "1"]) == 0
        assert dispatch(["scan", path, "--out", str(b), "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

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

    def test_bad_range(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tau_scan_scenario())
        code = dispatch(
            ["filter", path, "--f-min-MHz", "0.4", "--f-max-MHz", "0.1"]
        )
        assert code == 2


class TestLintCommand:
    def test_clean_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, tau_scan_scenario())
        assert dispatch(["lint", path]) == 0
        assert "clean: no lint findings" in capsys.readouterr().out

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


class TestWorkerDefaults:
    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("DDCORR_WORKERS", "3")
        assert _default_workers() == 3

    def test_env_fallbacks(self, monkeypatch):
        monkeypatch.setenv("DDCORR_WORKERS", "zebra")
        assert _default_workers() == 1
        monkeypatch.setenv("DDCORR_WORKERS", "-4")
        assert _default_workers() == 1
        monkeypatch.delenv("DDCORR_WORKERS")
        assert _default_workers() == 1
