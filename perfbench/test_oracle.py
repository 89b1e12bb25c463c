"""The benchmark's oracle and checks against the program, on small inputs.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
from ddcorr.cli import scenario_from_dict  # noqa: E402
from ddcorr.exact import coherence_system, conditional_propagator  # noqa: E402
from ddcorr.scan import run_scan, write_csv, write_heatmap  # noqa: E402
from ddcorr.sequence import Block, SequenceSpec, build_timeline  # noqa: E402
from ddcorr.spin_model import SystemModel, new_cluster  # noqa: E402
from run import Case  # noqa: E402

TWO_PI = 2.0 * np.pi


def random_cluster(rng, d):
    energies = TWO_PI * np.sort(rng.uniform(0.0, 0.5, d))
    couplings = [
        (m, n, TWO_PI * rng.uniform(0.002, 0.02), rng.uniform(-np.pi, np.pi))
        for m in range(d) for n in range(m) if rng.random() < 0.7
    ]
    return new_cluster("random", energies, couplings)


def random_blocks(rng):
    return [(rng.uniform(0.4, 2.0), int(rng.integers(0, 13))) for _ in range(rng.integers(1, 4))]


@pytest.mark.parametrize("case", range(20))
def test_oracle_matches_conditional_propagator(case):
    rng = np.random.default_rng(case)
    clusters = [random_cluster(rng, int(rng.integers(2, 5))) for _ in range(rng.integers(1, 3))]
    blocks = random_blocks(rng)
    timeline = build_timeline(SequenceSpec([Block(t, n) for t, n in blocks]))
    for cluster in clusters:
        for sign in (1, -1):
            want = conditional_propagator(cluster, timeline, sign)
            got = oracle.branch_propagator(cluster.energies, cluster.coupling, blocks, sign)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)
    reference = oracle.coherence([(c.energies, c.coupling) for c in clusters], blocks)
    assert oracle.agrees(coherence_system(SystemModel(tuple(clusters)), timeline), reference,
                         checks.EXACT_TOL)


def test_oracle_rejects_conjugated_branch():
    rng = np.random.default_rng(7)
    cluster = random_cluster(rng, 3)
    blocks = [(0.9, 7), (1.3, 5)]
    u_plus = oracle.branch_propagator(cluster.energies, cluster.coupling, blocks, 1)
    u_minus = oracle.branch_propagator(cluster.energies, cluster.coupling, blocks, -1)
    wrong = np.trace(u_minus.conj().T @ u_plus.conj()) / cluster.dim
    reference = oracle.coherence([(cluster.energies, cluster.coupling)], blocks)
    assert not oracle.agrees(wrong, reference, checks.EXACT_TOL)


SCENARIO = {
    "clusters": [{
        "energies_MHz": [0.0, 0.2, 0.45],
        "couplings": [
            {"m": 1, "n": 0, "amp_kHz": 9.0, "phase_rad": 0.4},
            {"m": 2, "n": 1, "amp_kHz": 7.0, "phase_rad": -1.1},
            {"m": 2, "n": 0, "amp_kHz": 5.0, "phase_rad": 2.0},
        ],
    }],
    "sequence": [{"tau_us": 1.1, "n_pulses": 3}, {"tau_us": 0.8, "n_pulses": 5}],
    "grid": {"engine": "exact", "axes": [
        {"kind": "pulse", "block": 0, "start": 0, "stop": 9, "step": 1},
        {"kind": "tau", "block": 1, "lo_us": 0.7, "hi_us": 1.3, "steps": 4},
    ]},
}


def scan_outputs(tmp_path):
    scenario = scenario_from_dict(SCENARIO)
    records = run_scan(scenario.system, scenario.sequence, scenario.grid)
    write_csv(records, tmp_path / "s.csv")
    write_heatmap(records, tmp_path / "s.pgm")
    clusters = [(c.energies, c.coupling) for c in scenario.system.clusters]
    return clusters, min(r.re_L for r in records)


def run_checks(tmp_path, clusters, reported_min):
    return checks.check_scan(Case("s.json"), SCENARIO, clusters, tmp_path / "s.csv",
                             tmp_path / "s.pgm", reported_min, np.random.default_rng(0))


def test_checks_pass_on_program_output(tmp_path):
    clusters, reported_min = scan_outputs(tmp_path)
    assert run_checks(tmp_path, clusters, reported_min) == []


def test_checks_reject_swapped_branches(tmp_path):
    """Negating Im L gives (1/d) Tr[(U^+)^dagger U^-]: the branches swapped."""
    clusters, reported_min = scan_outputs(tmp_path)
    path = tmp_path / "s.csv"
    lines = path.read_text().split("\n")
    for i in range(2, len(lines) - 1):
        cells = lines[i].split(",")
        cells[3] = repr(-float(cells[3]))
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines))
    failures = run_checks(tmp_path, clusters, reported_min)
    assert failures and all("the oracle gives" in f for f in failures)
