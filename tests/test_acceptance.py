"""End-to-end acceptance checks with pinned tolerances.

Each test prints one [acceptance] PASS/FAIL line with the measured numbers
(visible even under output capture), then asserts its gate.
"""

import math
import time

import numpy as np
import pytest

from ddcorr.analytic import AnalyticModel, Topology, dip_1d
from ddcorr.exact import coherence_cluster
from ddcorr.planner import plan, shots_for_snr
from ddcorr.reference import dip_trace_2d, dip_trace_3d, filter_multiblock
from ddcorr.scan import (
    GridSpec,
    PulseAxis,
    TauAxis,
    classify_correlation,
    run_scan,
    write_csv,
)
from ddcorr.sequence import (
    Block,
    SequenceSpec,
    build_timeline,
    filter_cpmg_closed,
    filter_numeric,
    resonant_tau,
)
from ddcorr.spin_model import (
    SystemModel,
    ladder_preset,
    new_cluster,
    ring_preset,
    spin_one_preset,
    star_preset,
    transition,
)

TWO_PI = 2.0 * np.pi
OMEGA_A = TWO_PI * 0.20
OMEGA_B = TWO_PI * 0.14
TAU_A = resonant_tau(OMEGA_A)
TAU_B = resonant_tau(OMEGA_B)
LAMBDA_FIG1 = 5.0 * math.sqrt(2.0)  # kHz; lambda / sqrt(2) = 5 kHz


def _report(capsys, number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] criterion {number}: {verdict} - {detail}")


def fig1_cluster(scale=1.0):
    return spin_one_preset(0.20, 0.14, LAMBDA_FIG1 * scale)


def fig3_panels(scale=1.0):
    """The three two-transition demonstration panels.

    Returns (name, cluster, transition pairs, expected minimum, expected
    verdict) tuples; couplings are multiplied by `scale`.
    """
    correlated = ladder_preset(
        [0.20, 0.14, 0.30], [5.0 * scale, 5.04 * scale, None]
    )
    uncorrelated = ladder_preset(
        [0.20, 0.30, 0.14], [5.0 * scale, None, 5.04 * scale]
    )
    type_v = fig1_cluster(scale)
    return [
        ("correlated-ladder", correlated, [(1, 0), (2, 1)], 0.0, "correlated"),
        ("uncorrelated-ladder", uncorrelated, [(1, 0), (3, 2)], -1.0, "uncorrelated"),
        ("type-v", type_v, [(2, 1), (0, 1)], -1.0 / 3.0, "correlated"),
    ]


def panel_topology(name):
    if name == "uncorrelated-ladder":
        return Topology("2d-uncorrelated")
    return Topology("2d-correlated")


def run_panel(name, cluster, pairs, scale=1.0, extent=(126, 88)):
    """Scan one panel on its unit-cell grid with both engines."""
    deltas = tuple(transition(cluster, m, n).delta for m, n in pairs)
    spec = SequenceSpec([Block(TAU_A, 2), Block(TAU_B, 2)])
    grid = GridSpec(
        (
            PulseAxis(0, 0, extent[0], 2),
            PulseAxis(1, 0, extent[1], 2),
        ),
        engine="both",
    )
    model = AnalyticModel(panel_topology(name), deltas, cluster.dim)
    system = SystemModel((cluster,))
    start = time.perf_counter()
    records = run_scan(system, spec, grid, analytic_model=model)
    elapsed = time.perf_counter() - start
    return records, elapsed


@pytest.fixture(scope="module")
def fig3_results():
    out = {}
    for name, cluster, pairs, expected_min, expected_class in fig3_panels():
        records, elapsed = run_panel(name, cluster, pairs)
        out[name] = {
            "records": records,
            "elapsed": elapsed,
            "expected_min": expected_min,
            "expected_class": expected_class,
            "d": cluster.dim,
        }
    return out


def test_criterion_1_quantized_1d_minimum(capsys):
    cluster = fig1_cluster()
    system = SystemModel((cluster,))
    spec = SequenceSpec([Block(TAU_A, 2)])
    grid = GridSpec((PulseAxis(0, 0, 126, 2),))
    start = time.perf_counter()
    records = run_scan(system, spec, grid)
    elapsed = time.perf_counter() - start
    best = min(records, key=lambda r: r.re_L)
    n_at_min = best.coords[0]
    ok = (
        abs(best.re_L - (-1.0 / 3.0)) <= 0.08
        and abs(n_at_min - 63) <= 4
        and elapsed < 1.0
    )
    _report(
        capsys,
        1,
        ok,
        f"min Re L = {best.re_L:.4f} at N = {n_at_min:.0f} "
        f"(want -1/3 +- 0.08 within 63 +- 4), {elapsed:.2f} s < 1 s",
    )
    assert ok


def test_criterion_2_topology_separation(fig3_results, capsys):
    details = []
    ok = True
    total = 0.0
    for name, data in fig3_results.items():
        measured = min(r.re_L for r in data["records"])
        verdict = classify_correlation(measured, data["d"])
        good = (
            abs(measured - data["expected_min"]) <= 0.08
            and verdict == data["expected_class"]
        )
        ok &= good
        total += data["elapsed"]
        details.append(
            f"{name}: min = {measured:+.4f} "
            f"(want {data['expected_min']:+.3f} +- 0.08) -> {verdict}"
        )
    ok &= total < 60.0
    details.append(f"runtime {total:.1f} s < 60 s")
    _report(capsys, 2, ok, "; ".join(details))
    assert ok


def test_criterion_3_convergence_under_coupling_halving(fig3_results, capsys):
    details = []
    ok = True
    for name, cluster, pairs, _, _ in fig3_panels(scale=0.5):
        base = fig3_results[name]["records"]
        base_err = np.array([abs(r.re_L - r.analytic_L) for r in base])
        rms_base = float(np.sqrt(np.mean(base_err**2)))
        max_base = float(base_err.max())

        halved, _ = run_panel(name, cluster, pairs, extent=(252, 176))
        half_err = np.array([abs(r.re_L - r.analytic_L) for r in halved])
        rms_half = float(np.sqrt(np.mean(half_err**2)))
        max_half = float(half_err.max())

        rms_ratio = rms_base / rms_half
        max_ratio = max_base / max_half
        good = rms_base < 0.05 and rms_ratio >= 2.0 and max_ratio >= 2.0
        ok &= good
        details.append(
            f"{name}: rms = {rms_base:.4f} (< 0.05), "
            f"halving gains rms x{rms_ratio:.3f}, max x{max_ratio:.3f} (>= 2)"
        )
    _report(capsys, 3, ok, "; ".join(details))
    assert ok


def test_criterion_4_trace_oracle_equivalence(capsys):
    worst = 0.0

    def check(got, want):
        nonlocal worst
        worst = max(worst, abs(got - want))

    # two-transition topologies on 20 x 20 even-N grids
    two_d = [
        (
            ladder_preset([0.20, 0.14, 0.30], [5.0, 5.04, None]),
            [(1, 0), (2, 1)],
            Topology("2d-correlated"),
        ),
        (
            ladder_preset([0.20, 0.30, 0.14], [5.0, None, 5.04]),
            [(1, 0), (3, 2)],
            Topology("2d-uncorrelated"),
        ),
    ]
    grid = range(0, 40, 2)
    for cluster, pairs, topo in two_d:
        deltas = tuple(transition(cluster, m, n).delta for m, n in pairs)
        for n1 in grid:
            for n2 in grid:
                trace = dip_trace_2d(cluster, pairs[0], pairs[1], n1, n2)
                closed = AnalyticModel(topo, deltas, cluster.dim).evaluate((n1, n2))
                check(trace.real, closed)

    # three-transition topologies on 20 x 20 x 5 grids
    three_d = [
        (ring_preset(0.34, 0.14, [5.0, 5.04, 4.98]),
         [(2, 0), (1, 0), (2, 1)], Topology("3d-ring")),
        (star_preset([0.20, 0.14, 0.06], [5.0, 5.04, 4.98]),
         [(1, 0), (2, 0), (3, 0)], Topology("3d-star")),
        (ladder_preset([0.20, 0.14, 0.30], [5.0, 5.04, 4.98]),
         [(1, 0), (2, 1), (3, 2)], Topology("3d-linked-ladder")),
        (ladder_preset([0.20, 0.30, 0.14, 0.06], [5.0, None, 5.04, 4.98]),
         [(1, 0), (3, 2), (4, 3)], Topology("3d-unlinked-ladder")),
        (ladder_preset([0.20, 0.35, 0.14, 0.27, 0.06],
                       [5.0, None, 5.04, None, 4.98]),
         [(1, 0), (3, 2), (5, 4)], Topology("3d-uncorrelated")),
    ]
    n3_grid = range(0, 10, 2)
    for cluster, pairs, topo in three_d:
        deltas = tuple(transition(cluster, m, n).delta for m, n in pairs)
        for n1 in grid:
            for n2 in grid:
                for n3 in n3_grid:
                    trace = dip_trace_3d(cluster, pairs, n1, n2, n3)
                    closed = AnalyticModel(topo, deltas, cluster.dim).evaluate(
                        (n1, n2, n3)
                    )
                    check(trace.real, closed)

    # chain-form reductions: middle transition idle, then last idle too
    reductions = [
        (three_d[2], Topology("2d-uncorrelated")),  # linked chain
        (three_d[3], Topology("2d-uncorrelated")),  # unlinked chain
    ]
    for (cluster, pairs, topo), reduced in reductions:
        deltas = tuple(transition(cluster, m, n).delta for m, n in pairs)
        for n1 in grid:
            for n3 in grid:
                trace = dip_trace_3d(cluster, pairs, n1, 0, n3)
                closed = AnalyticModel(
                    reduced, (deltas[0], deltas[2]), cluster.dim
                ).evaluate((n1, n3))
                check(trace.real, closed)
            solo = dip_trace_3d(cluster, pairs, n1, 0, 0)
            check(solo.real, dip_1d(cluster.dim, deltas[0], n1))

    ok = worst < 1e-10
    _report(capsys, 4, ok, f"max |trace - closed form| = {worst:.2e} (< 1e-10)")
    assert ok


def test_criterion_5_filter_identities(capsys):
    tau = 0.9
    worst_closed = 0.0
    for n_pulses in (7, 8):
        for x in np.linspace(0.004, 4.0 * np.pi, 997):
            omega = x / tau
            timeline = build_timeline(SequenceSpec([Block(tau, n_pulses)]))
            closed = filter_cpmg_closed(n_pulses, tau, omega)
            numeric = filter_numeric(timeline, omega).magnitude
            worst_closed = max(worst_closed, abs(closed - numeric))

    worst_res = 0.0
    for n_pulses in (1, 2, 7, 20, 63):
        timeline = build_timeline(SequenceSpec([Block(TAU_A, n_pulses)]))
        got = filter_numeric(timeline, OMEGA_A).magnitude
        worst_res = max(worst_res, abs(got - 2 * n_pulses))

    rng = np.random.default_rng(2024)
    worst_multi = 0.0
    for _ in range(50):
        spec = SequenceSpec(
            [
                Block(rng.uniform(0.2, 2.5), int(rng.integers(0, 10))),
                Block(rng.uniform(0.2, 2.5), int(rng.integers(0, 10))),
            ]
        )
        timeline = build_timeline(spec)
        for omega in rng.uniform(0.05, 6.0, size=4):
            a = filter_multiblock(spec, omega)
            b = filter_numeric(timeline, omega)
            za = a.magnitude * np.exp(1j * a.phase)
            zb = b.magnitude * np.exp(1j * b.phase)
            worst_multi = max(worst_multi, abs(za - zb))

    ok = worst_closed < 1e-9 and worst_res < 1e-9 and worst_multi < 1e-10
    _report(
        capsys,
        5,
        ok,
        f"closed vs numeric {worst_closed:.1e} (< 1e-9), "
        f"resonance |F - 2N| {worst_res:.1e} (< 1e-9), "
        f"multiblock {worst_multi:.1e} (< 1e-10)",
    )
    assert ok


def _random_small_cluster(rng, label):
    dim = int(rng.integers(2, 4))
    energies = np.cumsum(rng.uniform(0.5, 3.0, size=dim))
    couplings = [
        (m, n, rng.uniform(0.005, 0.05), rng.uniform(0.0, TWO_PI))
        for m in range(dim)
        for n in range(m)
        if rng.uniform() < 0.8
    ] or [(1, 0, 0.02, 0.1)]
    return new_cluster(label, energies, couplings)


def _tensor_join(c1, c2):
    e1, e2 = np.asarray(c1.energies), np.asarray(c2.energies)
    d1, d2 = len(e1), len(e2)
    energies = [e1[i] + e2[j] for i in range(d1) for j in range(d2)]
    couplings = []
    for m in range(d1):
        for n in range(m):
            value = c1.coupling[m, n]
            if value != 0:
                couplings += [
                    (m * d2 + j, n * d2 + j, abs(value), float(np.angle(value)))
                    for j in range(d2)
                ]
    for i in range(d1):
        for m in range(d2):
            for n in range(m):
                value = c2.coupling[m, n]
                if value != 0:
                    couplings.append(
                        (i * d2 + m, i * d2 + n, abs(value), float(np.angle(value)))
                    )
    return new_cluster("joint", energies, couplings)


def test_criterion_6_factorization(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        c1 = _random_small_cluster(rng, "a")
        c2 = _random_small_cluster(rng, "b")
        spec = SequenceSpec(
            [
                Block(rng.uniform(0.3, 2.0), int(rng.integers(1, 8))),
                Block(rng.uniform(0.3, 2.0), int(rng.integers(0, 8))),
            ]
        )
        timeline = build_timeline(spec)
        joint = coherence_cluster(_tensor_join(c1, c2), timeline)
        split = coherence_cluster(c1, timeline) * coherence_cluster(c2, timeline)
        worst = max(worst, abs(joint - split))
    ok = worst < 1e-9
    _report(capsys, 6, ok, f"max |joint - product| = {worst:.1e} (< 1e-9)")
    assert ok


def test_criterion_7_planner_reproduction(capsys):
    deltas = (0.025, 0.036)
    omegas = (OMEGA_A, OMEGA_B)
    dim_report = plan(0.03, 10.0, deltas=deltas, omegas=omegas)
    bright_report = plan(0.3, 10.0, deltas=deltas, omegas=omegas)
    shots = shots_for_snr(0.03, 10.0)

    checks = [
        ("K ~ 1.1e5", abs(shots - 111112) <= 1
         and dim_report.shots == shots),
        ("t_dip = 0.31 ms +- 2%",
         abs(dim_report.dip_time_us - 310.0) <= 0.02 * 310.0),
        ("t_point = 34 s +- 5%",
         abs(dim_report.point_time_s - 34.0) <= 0.05 * 34.0),
        ("sweep = 9.2e4 s +- 10%",
         abs(dim_report.sweep_time_s - 9.2e4) <= 0.1 * 9.2e4),
        ("bright t_point = 0.34 s +- 5%",
         abs(bright_report.point_time_s - 0.34) <= 0.05 * 0.34),
        ("bright sweep = 920 s +- 10%",
         abs(bright_report.sweep_time_s - 920.0) <= 0.1 * 920.0),
    ]
    ok = all(flag for _, flag in checks)
    measured = (
        f"K = {dim_report.shots}, t_dip = {dim_report.dip_time_us:.1f} us, "
        f"t_point = {dim_report.point_time_s:.2f} s, "
        f"sweep = {dim_report.sweep_time_s:.3g} s, "
        f"bright {bright_report.point_time_s:.3f} s / "
        f"{bright_report.sweep_time_s:.1f} s"
    )
    failed = [name for name, flag in checks if not flag]
    detail = measured + (f"; failed: {', '.join(failed)}" if failed else "")
    _report(capsys, 7, ok, detail)
    assert ok


def _dip_regions(values, threshold):
    """Connected regions (4-neighbor) below threshold; returns argmin cells."""
    mask = values < threshold
    seen = np.zeros_like(mask, dtype=bool)
    regions = []
    rows, cols = mask.shape
    for i in range(rows):
        for j in range(cols):
            if not mask[i, j] or seen[i, j]:
                continue
            stack = [(i, j)]
            seen[i, j] = True
            cells = []
            while stack:
                a, b = stack.pop()
                cells.append((a, b))
                for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    na, nb = a + da, b + db
                    if 0 <= na < rows and 0 <= nb < cols:
                        if mask[na, nb] and not seen[na, nb]:
                            seen[na, nb] = True
                            stack.append((na, nb))
            best = min(cells, key=lambda c: values[c])
            regions.append(best)
    return regions


def test_criterion_8_tau_map_dip_regions(capsys):
    cluster = fig1_cluster()
    system = SystemModel((cluster,))
    spec = SequenceSpec([Block(1.0, 20), Block(1.0, 20)])
    steps = 41
    grid = GridSpec(
        (TauAxis(0, 1.0, 2.0, steps), TauAxis(1, 1.0, 2.0, steps))
    )
    records = run_scan(system, spec, grid)
    taus = np.array(TauAxis(0, 1.0, 2.0, steps).values())
    values = np.array([r.re_L for r in records]).reshape(steps, steps)

    # 0.25 separates the four resonance dips (all <= 0.23 on this grid)
    # from filter sidelobes and edge shoulders (all >= 0.27).
    regions = _dip_regions(values, threshold=0.25)
    centers = [(taus[i], taus[j]) for i, j in regions]
    targets = [
        (TAU_A, TAU_A),
        (TAU_A, TAU_B),
        (TAU_B, TAU_A),
        (TAU_B, TAU_B),
    ]
    step = taus[1] - taus[0]
    matched = []
    for target in targets:
        hits = [
            c
            for c in centers
            if abs(c[0] - target[0]) <= step + 1e-9
            and abs(c[1] - target[1]) <= step + 1e-9
        ]
        matched.append(len(hits) == 1)
    ok = len(centers) == 4 and all(matched)
    shown = ", ".join(f"({a:.3f}, {b:.3f})" for a, b in sorted(centers))
    _report(
        capsys,
        8,
        ok,
        f"{len(centers)} dip regions at {shown} "
        f"(want 4 regions within {step:.3f} us of the resonance pairs)",
    )
    assert ok


def test_tau_map_dip_regions_under_the_analytic_engine():
    # criterion 8's map on the second-order Magnus model
    steps = 41
    axis = TauAxis(0, 1.0, 2.0, steps)
    grid = GridSpec((axis, TauAxis(1, 1.0, 2.0, steps)), engine="analytic")
    spec = SequenceSpec([Block(1.0, 20), Block(1.0, 20)])
    values = run_scan(SystemModel((fig1_cluster(),)), spec, grid).L.real
    taus = np.array(axis.values())
    regions = _dip_regions(values.reshape(steps, steps), threshold=0.25)
    centers = np.array([(taus[i], taus[j]) for i, j in regions])
    assert len(centers) == 4
    step = taus[1] - taus[0]
    for target in [(TAU_A, TAU_A), (TAU_A, TAU_B), (TAU_B, TAU_A), (TAU_B, TAU_B)]:
        near = np.all(np.abs(centers - target) <= step + 1e-9, axis=1)
        assert near.sum() == 1, (target, centers)


def test_criterion_9_determinism_across_workers(tmp_path, capsys):
    cluster = fig1_cluster()
    system = SystemModel((cluster,))

    jobs = [
        (
            "tau-scan",
            SequenceSpec([Block(1.0, 20)]),
            GridSpec((TauAxis(0, 1.0, 2.0, 101),)),
        ),
        (
            "pulse-grid",
            SequenceSpec([Block(TAU_A, 2), Block(TAU_B, 2)]),
            GridSpec((PulseAxis(0, 0, 40, 2), PulseAxis(1, 0, 30, 2))),
        ),
    ]
    ok = True
    for name, spec, grid in jobs:
        paths = {}
        for workers in (1, 8):
            records = run_scan(system, spec, grid, workers=workers)
            path = tmp_path / f"{name}-w{workers}.csv"
            write_csv(records, path)
            paths[workers] = path.read_bytes()
        ok &= paths[1] == paths[8]
    _report(
        capsys,
        9,
        ok,
        "scan CSV bytes identical for worker counts 1 and 8"
        if ok
        else "scan CSV bytes differ between worker counts 1 and 8",
    )
    assert ok
