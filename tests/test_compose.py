"""Properties of the block-stack composer behind both scan engines.

Random clusters (d <= 6) and random 1-4 block sequences, with odd and zero
pulse counts, on a grid that sweeps one block's tau and one block's pulse
count.  The exact stacks must reproduce the literal segment product of
conditional_propagator branch by branch, the lab-frame Magnus blocks must
reproduce the interaction-frame composition that moves each block's
generator to its start time, and both engines must keep the invariants of
a coherence: L = 1 without pulses, |L| <= 1, and conjugation when the
sensor branches swap (the coupling changes sign).  The Magnus generators
of a whole pulse axis (magnus_axis) must equal the per-count reference
magnus_generator, and every block builder must reject a tau or a count no
CPMG block can have.  Blocks are folded by squaring, so on a sparse axis
with counts of 1e4 both engines must still match the per-count
references, and the Magnus blocks of counts to 2e5 must fit in 1 MiB.

run_scan contracts a grid from its left and right parts at one block cut
(factor_coherence).  On random 1-3 axis grids (two axes on one block, axes
listed against block order, odd pulse steps so that both left parities
occur) every engine must equal the coherence of each enumerated row, and a
grid on two blocks must compose N1 + N2 rows, not N1 * N2.
"""

import dataclasses
import math
import re
import tracemalloc
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ddcorr import exact

from ddcorr.analytic import (
    _SERIES_ORDER,
    _SERIES_TOL,
    _expm_skew,
    _nested_integral,
    magnus_axis,
    magnus_coherence,
    magnus_generator,
    magnus_stacks,
)
from ddcorr.exact import (
    block_stacks,
    coherence_system,
    compose_branches,
    conditional_propagator,
    factor_coherence,
)
from ddcorr.scan import _TRIPLE_BYTES, GridSpec, PulseAxis, TauAxis, run_scan
from ddcorr.sequence import Block, SequenceSpec, build_timeline, check_blocks
from ddcorr.spin_model import SystemModel, TargetCluster, ladder_preset, new_cluster

TWO_PI = 2.0 * np.pi
EXACT_TOL = 1e-12
FRAME_TOL = 1e-14
AXIS_TOL = 1e-13
CUT_TOL = 1e-13
# the left part of a sequence cut before its first block
NO_LEFT = (np.empty((1, 0)), np.empty((1, 0)))


def random_cluster(rng, dim):
    energies = np.sort(rng.uniform(0.0, 4.0, size=dim)) + np.linspace(0.0, 0.5, dim)
    couplings = [
        (m, n, rng.uniform(0.005, 0.08), rng.uniform(0, TWO_PI))
        for m in range(dim)
        for n in range(m)
        if rng.uniform() < 0.7
    ]
    return new_cluster("r", energies, couplings or [(1, 0, 0.02, 0.3)])


def flipped(cluster):
    """The cluster seen from the other sensor branch: coupling sign reversed."""
    return TargetCluster(cluster.label, cluster.energies, -cluster.coupling)


@st.composite
def scans(draw):
    """(system, base sequence, grid, per-row sequences, taus, counts)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    system = SystemModel(tuple(
        random_cluster(rng, draw(st.integers(2, 6))) for _ in range(draw(st.integers(1, 2)))
    ))
    n_blocks = draw(st.integers(1, 4))
    spec = SequenceSpec([
        Block(rng.uniform(0.3, 2.0), draw(st.integers(0, 9))) for _ in range(n_blocks)
    ])
    lo = rng.uniform(0.3, 1.5)
    start, step = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    grid = GridSpec((
        TauAxis(draw(st.integers(0, n_blocks - 1)), lo, lo + rng.uniform(0.1, 1.0), 3),
        PulseAxis(draw(st.integers(0, n_blocks - 1)), start, start + step * 3, step),
    ))
    rows = grid_rows(spec, grid.axes)
    taus = np.array([[b.tau for b in row.blocks] for row in rows])
    counts = np.array([[b.n_pulses for b in row.blocks] for row in rows])
    return system, spec, grid, rows, taus, counts


def start_time_magnus(system, taus, counts):
    """Magnus coherence composed in the interaction frame, row by row.

    Each block's generator is entered on its coupling sign and moved to its
    start time t0 by D = diag(e^{i E t0}), as magnus_generator documents.
    """
    total = np.ones(len(counts), dtype=complex)
    for p, row in enumerate(counts):
        for cluster in system.clusters:
            v = {s: np.eye(cluster.dim, dtype=complex) for s in (1, -1)}
            start, before = 0.0, 0
            for tau, n in zip(taus, row):
                first, second = magnus_generator(cluster, tau, int(n))
                frame = np.diag(np.exp(1j * cluster.energies * start))
                for s in (1, -1):
                    block = _expm_skew(s * (-1) ** before * first + second)
                    v[s] = frame @ block @ frame.conj().T @ v[s]
                start += 2.0 * n * tau
                before += n
            total[p] *= np.trace(v[-1].conj().T @ v[1]) / cluster.dim
    return total


@given(scans())
@settings(max_examples=40, deadline=None)
def test_exact_branches_match_literal_segment_product(scan):
    system, spec, grid, rows, taus, counts = scan
    for cluster in system.clusters:
        plus, minus = compose_branches(cluster, taus, counts, block_stacks)
        for p, row in enumerate(rows):
            timeline = build_timeline(row)
            np.testing.assert_allclose(
                plus[p], conditional_propagator(cluster, timeline, 1), rtol=0, atol=EXACT_TOL
            )
            np.testing.assert_allclose(
                minus[p], conditional_propagator(cluster, timeline, -1), rtol=0, atol=EXACT_TOL
            )
    got = run_scan(system, spec, grid).L
    want = np.array([coherence_system(system, build_timeline(row)) for row in rows])
    np.testing.assert_allclose(got, want, rtol=0, atol=EXACT_TOL)


@given(scans())
@settings(max_examples=40, deadline=None)
def test_lab_frame_magnus_matches_start_time_frame(scan):
    system, _, _, _, taus, counts = scan
    taus = taus[0]  # the Magnus model takes one tau per block
    got = magnus_coherence(system, taus, counts)
    np.testing.assert_allclose(
        got, start_time_magnus(system, taus, counts), rtol=0, atol=FRAME_TOL
    )


def engines(system, taus, counts):
    yield factor_coherence(system, NO_LEFT, (taus, counts), block_stacks)[0]
    yield magnus_coherence(system, taus[0], counts)


@given(scans())
@settings(max_examples=40, deadline=None)
def test_coherence_invariants(scan):
    system, _, _, _, taus, counts = scan
    swapped = SystemModel(tuple(flipped(c) for c in system.clusters))
    for value, zero, mirror in zip(
        engines(system, taus, counts),
        engines(system, taus, np.zeros_like(counts)),
        engines(swapped, taus, counts),
    ):
        np.testing.assert_allclose(zero, 1.0, rtol=0, atol=1e-14)
        assert np.all(np.abs(value) <= 1.0 + 1e-12)
        np.testing.assert_allclose(mirror, value.conj(), rtol=0, atol=EXACT_TOL)


@st.composite
def pulse_axes(draw):
    """(cluster, tau, counts): d <= 6 with exactly and nearly degenerate level
    pairs, and unsorted counts with duplicates, 0, 1 and an odd count."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 6))
    energies = rng.uniform(0.0, 4.0, size=dim)
    for m in range(1, dim):
        # a level on top of, or within 1e-7..1e-3 rad/us of, an earlier one
        # puts that pair on the Taylor-series branch of the nested integral
        kind = draw(st.sampled_from(["free", "exact", "near"]))
        if kind != "free":
            gap = 0.0 if kind == "exact" else 10.0 ** rng.uniform(-7, -3) * rng.choice([-1, 1])
            energies[m] = energies[rng.integers(m)] + gap
    couplings = [
        (m, n, rng.uniform(0.005, 0.08), rng.uniform(0, TWO_PI))
        for m in range(dim)
        for n in range(m)
        if rng.uniform() < 0.7
    ]
    cluster = new_cluster("r", energies, couplings or [(1, 0, 0.02, 0.3)])
    tau = 10.0 ** rng.uniform(-1, 0.5)
    drawn = draw(st.lists(st.integers(0, 60), min_size=1, max_size=10))
    odd = 2 * draw(st.integers(0, 30)) + 1
    counts = rng.permutation([*drawn, drawn[0], 0, 1, odd])
    if np.all(np.diff(counts) >= 0):
        counts = counts[::-1]
    return cluster, tau, counts


@given(pulse_axes())
@settings(max_examples=40, deadline=None)
def test_magnus_axis_matches_per_count_generator(axis):
    cluster, tau, counts = axis
    first, second = magnus_axis(cluster, tau, counts)
    assert first.shape == second.shape == (counts.size, cluster.dim, cluster.dim)
    for k, n in enumerate(counts):
        for got, want in zip((first[k], second[k]), magnus_generator(cluster, tau, int(n))):
            scale = max(np.abs(want).max(), 1.0)
            np.testing.assert_allclose(got, want, rtol=0, atol=AXIS_TOL * scale)


def extended(cluster):
    """The cluster's arrays in long double, for magnus_generator as an oracle.

    In float64 the generator's phases e^{i w t} round by about eps |w| t,
    so at N = 1e4 its sums drift by up to 1e-10, far more than the fold
    does from a long-double evaluation.
    """
    return SimpleNamespace(
        energies=cluster.energies.astype(np.longdouble),
        coupling=cluster.coupling.astype(np.clongdouble),
        dim=cluster.dim,
    )


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="needs an extended long double"
)
@pytest.mark.parametrize("seed", range(3))
def test_sparse_axis_matches_per_count_references(seed):
    """Counts of 1e4 on one axis: both engines' blocks match the per-count
    references.  The literal segment product drifts in proportion to N, and
    any float64 phase e^{i w t} of a block of length t is good to about
    eps |w| t, hence the tolerances' growth with N and with |w| tau."""
    rng = np.random.default_rng(seed)
    cluster = random_cluster(rng, int(rng.integers(2, 7)))
    # dyadic, so that the oracle's segment starts (2j - 1) tau are exact
    tau = round(rng.uniform(0.3, 2.0) * 2**20) / 2**20
    counts = rng.permutation([0, 1, 9999, 10000, 10001, 12345])
    stacks = block_stacks(cluster, [tau], counts)
    first, second = magnus_axis(cluster, tau, counts)
    spread = max(1.0, np.ptp(cluster.energies) * tau)
    for k, n in enumerate(counts):
        timeline = build_timeline(SequenceSpec([Block(tau, int(n))]))
        for entry, sign in enumerate((1, -1)):
            want = conditional_propagator(cluster, timeline, sign)
            np.testing.assert_allclose(
                stacks[entry, 0, k], want, rtol=0, atol=max(1e-12, 1e-14 * n)
            )
        reference = magnus_generator(extended(cluster), tau, int(n))
        for got, want in zip((first[k], second[k]), reference):
            scale = max(float(np.abs(want).max()), 1.0)
            atol = AXIS_TOL * scale * max(1.0, n / 1000) * spread
            np.testing.assert_allclose(got, want.astype(complex), rtol=0, atol=atol)


def test_magnus_blocks_memory_does_not_grow_with_the_largest_count():
    cluster = random_cluster(np.random.default_rng(9), 3)
    counts = range(0, 200001, 20000)
    tracemalloc.start()
    try:
        magnus_stacks(cluster, [0.8], counts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def near_degenerate_cluster(rng, dim):
    """Levels in groups a few 1e-3 rad/us wide, so that many level triples
    take _nested_integral's Taylor series."""
    energies = rng.integers(0, 4, size=dim) + rng.uniform(0.0, 6e-3, size=dim)
    return new_cluster("g", energies, [(1, 0, 0.02, 0.3)])


@pytest.mark.parametrize("seed", range(20))
def test_nested_twin_is_the_swapped_conjugate(seed):
    """magnus_axis takes nested(w_kn, w_mk) as nested(w_mk, w_kn)'s [n, k, m]
    conjugate; the two agree to the last bit (a zero may change sign)."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 12))
    for cluster in (random_cluster(rng, dim), near_degenerate_cluster(rng, dim)):
        tau = 10.0 ** rng.uniform(-1, 0.5)
        w = cluster.energies[:, None] - cluster.energies[None, :]
        nested = _nested_integral(w[:, :, None], w[None, :, :], tau)
        twin = _nested_integral(w[None, :, :], w[:, :, None], tau)
        assert np.array_equal(twin, np.swapaxes(nested, 0, 2).conj())


def power_table_series(a, b, dt):
    """The nested integral's Taylor series as an (n, terms) power table."""
    j, k = np.array(
        [(j, k) for j in range(_SERIES_ORDER + 1) for k in range(_SERIES_ORDER + 1 - j)]
    ).T
    coef = np.array(
        [1.0 / (math.factorial(p) * math.factorial(q + 1) * (p + q + 2)) for p, q in zip(j, k)]
    )
    x = 1j * dt * a[:, None]
    y = 1j * dt * b[:, None]
    return dt**2 * (x**j * y**k) @ coef


@pytest.mark.parametrize("seed", range(5))
def test_series_horner_matches_the_power_table(seed):
    rng = np.random.default_rng(seed)
    dt = 10.0 ** rng.uniform(-2, 1)
    reach = _SERIES_TOL / dt
    a = rng.uniform(-reach, reach, size=2000)
    b = rng.uniform(-reach, reach, size=2000)
    # exact zeros and the cancelling sum a + b = 0 are inside the branch too
    a[:3], b[:3] = (0.0, 0.0, a[2]), (0.0, b[1], -a[2])
    got = _nested_integral(a, b, dt)
    want = power_table_series(a, b, dt)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_magnus_blocks_memory_is_one_rate_per_triple():
    """A fully near-degenerate cluster, whose every triple takes the series,
    stays within the grid bound's per-triple charge."""
    d = 60
    cluster = ladder_preset([1e-7] * (d - 1), [5.0] * (d - 1))
    tracemalloc.start()
    try:
        magnus_stacks(cluster, [1.25], [0, 2, 4])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _TRIPLE_BYTES * d**3


# (tau, N) that Block refuses, with Block's message; every builder must
# refuse them with the same text before it builds anything
BAD_BLOCKS = [
    pytest.param(1.25, -2, "n_pulses must be a nonnegative integer, got -2", id="negative-count"),
    pytest.param(1.25, 2.7, "n_pulses must be a nonnegative integer, got 2.7", id="fractional-count"),
    pytest.param(1.25, np.nan, "n_pulses must be a nonnegative integer, got nan", id="nan-count"),
    pytest.param(1.25, np.inf, "n_pulses must be a nonnegative integer, got inf", id="inf-count"),
    pytest.param(np.nan, 4, "block tau must be finite, got nan", id="nan-tau"),
    pytest.param(np.inf, 4, "block tau must be finite, got inf", id="inf-tau"),
    pytest.param(-1.25, 4, "block tau must be > 0, got -1.25", id="negative-tau"),
    pytest.param(0.0, 4, "block tau must be > 0, got 0.0", id="zero-tau"),
    pytest.param(
        1.25, 2**53 + 2, "n_pulses must be at most 2**53, got 9007199254740994", id="count-past-2**53"
    ),
    pytest.param(
        1.25, 10**19, "n_pulses must be at most 2**53, got 10000000000000000000", id="uint64-count"
    ),
    pytest.param(
        1.25, 10**400, f"n_pulses must be at most 2**53, got {10**400}", id="count-beyond-float"
    ),
    pytest.param(
        1e308,
        4,
        "2 * tau * max(n_pulses, 1) must be finite, got tau = 1e+308, n = 4",
        id="block-beyond-float",
    ),
]

# every entry that builds blocks, on one (tau, N): with N after a zero count,
# alone, and as numpy arrays, which keep each value's type
BUILDERS = [
    pytest.param(lambda c, tau, n: block_stacks(c, [tau], [0, n]), id="block_stacks"),
    pytest.param(lambda c, tau, n: magnus_axis(c, tau, [0, n]), id="magnus_axis"),
    pytest.param(lambda c, tau, n: magnus_generator(c, tau, n), id="magnus_generator"),
    pytest.param(
        lambda c, tau, n: factor_coherence(SystemModel((c,)), NO_LEFT, ([[tau]], [[n]]), block_stacks),
        id="compose_coherence",
    ),
    pytest.param(lambda c, tau, n: magnus_coherence(SystemModel((c,)), [tau], [[n]]), id="magnus_coherence"),
    pytest.param(lambda c, tau, n: block_stacks(c, [tau], [n]), id="block_stacks-alone"),
    pytest.param(lambda c, tau, n: magnus_axis(c, tau, [n]), id="magnus_axis-alone"),
    pytest.param(lambda c, tau, n: block_stacks(c, np.array([tau]), np.array([n])), id="block_stacks-array"),
    pytest.param(
        lambda c, tau, n: factor_coherence(
            SystemModel((c,)), (np.array([[tau]]), np.array([[n]])), NO_LEFT, block_stacks
        ),
        id="left-part-array",
    ),
]


@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("tau, count, message", BAD_BLOCKS)
def test_block_builders_reject_invalid_blocks(build, tau, count, message):
    cluster = random_cluster(np.random.default_rng(5), 3)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Block(tau, count)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(cluster, tau, count)


@pytest.mark.parametrize("build", BUILDERS)
@settings(max_examples=40, deadline=None)
@given(
    tau=st.sampled_from([np.nan, np.inf, -np.inf, -1.25, 0.0, 0, -0.0, 1e308]) | st.floats(0.05, 3.0),
    count=st.sampled_from(
        [-2, -1.0, 2.7, 0.5, np.nan, np.inf, -np.inf, 2**53 + 1, 10**19, -(10**19), 10**400, 1e30, 4.0, True]
    )
    | st.integers(0, 9),
)
def test_builders_refuse_exactly_what_block_refuses(build, tau, count):
    """Each builder raises when Block(tau, N) raises, with its message, and
    builds every block that Block takes."""
    cluster = random_cluster(np.random.default_rng(5), 3)
    try:
        Block(tau, count)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            build(cluster, tau, count)
    else:
        build(cluster, tau, count)


def test_numpy_casts_a_count_before_the_rule_reads_it():
    """np.array([0, 10**19]) is float64, so the refusal quotes the cast value;
    the list [0, 10**19] keeps the Python int."""
    cluster = random_cluster(np.random.default_rng(5), 3)
    with pytest.raises(ValueError, match=r"^n_pulses must be at most 2\*\*53, got 1e\+19$"):
        block_stacks(cluster, [1.25], np.array([0, 10**19]))


def test_check_blocks_accepts_the_edges_block_accepts():
    for tau, count in ((1.0, 2**53), (8e307, 1), (8e307, 0), (5e-324, 2**53), (1.25, 4.0), (1.25, True)):
        Block(tau, count)
        taus, counts = check_blocks([tau], np.array([count]))
        assert taus.dtype == float and counts.dtype == np.int64
        assert counts[0] == count


def grid_case(seed, counts, axes):
    """(system, base sequence, grid axes) of one or two random clusters."""
    rng = np.random.default_rng(seed)
    system = SystemModel(tuple(
        random_cluster(rng, int(rng.integers(2, 7))) for _ in range(int(rng.integers(1, 3)))
    ))
    spec = SequenceSpec([Block(rng.uniform(0.3, 2.0), n) for n in counts])
    return system, spec, tuple(axes)


@st.composite
def grid_cases(draw):
    """1-3 axes in any order over 1-4 blocks, a tau and a pulse axis
    possibly on one block, pulse steps odd or even."""
    counts = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4))
    slots = [(kind, block) for kind in ("tau", "pulse") for block in range(len(counts))]
    chosen = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=3, unique=True))
    axes = []
    for kind, block in chosen:
        if kind == "tau":
            lo, width = draw(st.floats(0.3, 1.5)), draw(st.floats(0.1, 1.0))
            axes.append(TauAxis(block, lo, lo + width, draw(st.integers(2, 3))))
        else:
            start, step = draw(st.integers(0, 3)), draw(st.integers(1, 3))
            axes.append(PulseAxis(block, start, start + step * draw(st.integers(1, 3)), step))
    return grid_case(draw(st.integers(0, 2**32 - 1)), counts, axes)


def grid_rows(spec, axes):
    """The grid's sequences in lexicographic axis order."""
    rows = []
    for point in product(*(axis.values() for axis in axes)):
        blocks = list(spec.blocks)
        for axis, value in zip(axes, point):
            key = "tau" if isinstance(axis, TauAxis) else "n_pulses"
            blocks[axis.block] = dataclasses.replace(blocks[axis.block], **{key: value})
        rows.append(SequenceSpec(tuple(blocks)))
    return rows


@given(grid_cases())
@example(grid_case(1, [3, 2, 5], [PulseAxis(1, 0, 6, 3), TauAxis(1, 0.6, 1.1, 3)]))
@example(grid_case(2, [1, 4, 2, 3], [TauAxis(3, 0.5, 0.9, 2), PulseAxis(0, 1, 4, 1)]))
@example(
    grid_case(3, [2, 1, 0], [PulseAxis(2, 0, 4, 2), TauAxis(0, 0.4, 1.0, 3), PulseAxis(0, 1, 7, 3)])
)
@settings(max_examples=40, deadline=None)
def test_exact_scan_matches_every_row(case):
    system, spec, axes = case
    got = run_scan(system, spec, GridSpec(axes)).L
    want = [coherence_system(system, build_timeline(row)) for row in grid_rows(spec, axes)]
    np.testing.assert_allclose(got, want, rtol=0, atol=EXACT_TOL)


@given(grid_cases(), st.sampled_from(["analytic", "both"]))
@example(grid_case(4, [3, 2, 5], [PulseAxis(2, 1, 7, 3), PulseAxis(0, 0, 3, 1)]), "both")
@example(grid_case(5, [1, 4], [PulseAxis(1, 0, 2, 1), PulseAxis(0, 3, 9, 3)]), "analytic")
@example(grid_case(7, [2, 3], [TauAxis(0, 0.8, 1.3, 3), TauAxis(1, 0.5, 0.9, 2)]), "analytic")
@example(
    grid_case(8, [3, 0, 4, 1], [PulseAxis(1, 0, 4, 2), TauAxis(3, 0.4, 0.7, 2), TauAxis(1, 0.6, 1.0, 3)]),
    "both",
)
@settings(max_examples=40, deadline=None)
def test_analytic_scan_matches_every_row(case, engine):
    system, spec, axes = case
    result = run_scan(system, spec, GridSpec(axes, engine=engine))
    rows = grid_rows(spec, axes)
    want = [
        magnus_coherence(system, [b.tau for b in row.blocks], [b.n_pulses for b in row.blocks])[0]
        for row in rows
    ]
    np.testing.assert_allclose(result.analytic_L, np.real(want), rtol=0, atol=CUT_TOL)
    if engine == "analytic":
        np.testing.assert_array_equal(result.L, result.analytic_L)
    else:
        want = [coherence_system(system, build_timeline(row)) for row in rows]
        np.testing.assert_allclose(result.L, want, rtol=0, atol=EXACT_TOL)


def test_grid_on_two_blocks_composes_each_axis_once(monkeypatch):
    system, spec, _ = grid_case(6, [2, 3, 4], [])
    axes = (PulseAxis(2, 0, 8, 2), PulseAxis(0, 1, 10, 3))  # 5 and 4 counts
    composed = []

    def counting(cluster, taus, counts, block_stack):
        composed.append(len(counts))
        return compose_branches(cluster, taus, counts, block_stack)

    monkeypatch.setattr(exact, "compose_branches", counting)
    run_scan(system, spec, GridSpec(axes, engine="both"))
    # per engine and cluster: the 4 left rows of block 0, the 5 right rows of block 2
    assert composed == [4, 5] * 2 * len(system.clusters)
