"""The CLI's exit contract under hostile scenario values and flag values.

A scenario case sets one leaf of a shipped scenario to a hostile value and
runs one command through cli.dispatch in-process.  The contract: the exit
code is 0 or 2 and no exception escapes dispatch; exit 2 prints a message
that starts with a field path or a flag; exit 0 prints no nan or inf
token, to stdout or to a CSV.  Scans run on the scenario's grid shrunk to
a few points, under --engine both.

A structure case keeps the values and breaks the document instead: it
deletes one key or list entry, duplicates one key, swaps one object or
array for the other kind of container, nests one of them 100000 arrays
deep, truncates the file or writes bytes that are not UTF-8.  The
contract is the scenario case's.

A flag case sets one value flag of a valid analytic, plan or filter
command line to a hostile string.  The contract: exit 0 with no nan or inf
token in stdout, exit 1 with argparse's usage message, or exit 2 with a
message that starts with a flag.

Tier-1 draws a bounded sample of each kind of case.  Run this file as a
script to sweep every case:

    PYTHONPATH=src python tests/test_exit_contract.py
"""

import contextlib
import copy
import io
import itertools
import json
import re
import sys
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from ddcorr.cli import dispatch

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = {
    path.stem: json.loads(path.read_text()) for path in sorted(REPO.glob("scenarios/*.json"))
}


class RawJson(str):
    """JSON text that check_case writes verbatim in place of its leaf."""

    def __repr__(self):
        return f"RawJson(<{len(self)} characters>)"


# an integer literal past int-to-str's 4300-digit limit: json.dumps cannot
# write it, so check_case splices it into the dumped text
HUGE_LITERAL = RawJson("1" + "0" * 4300)
# a key given twice with different values, spliced in place of a string
# leaf "engine": json.loads alone keeps the last
ENGINE_TWICE = RawJson('"analytic", "engine": "exact"')
HOSTILE = [
    float("nan"),
    float("inf"),
    float("-inf"),
    1e308,
    -1e308,
    1e307,
    -1e307,
    10**400,
    -(10**400),
    # past spin_model.PHASE_RANGE as a pulse count, a level in MHz or a tau
    # in us, though far inside float range
    10**13,
    2**63,
    5e-324,
    0,
    -1,
    -0.5,
    True,
    "1.0",
    [],
    [1.0, 2.0],
    {},
    {"m": 0},
    None,
    HUGE_LITERAL,
]
COMMANDS = ["validate", "lint", "plan", "filter", "scan"]
_FLAGS = {
    "filter": ["--f-min-MHz", "0.05", "--f-max-MHz", "0.4", "--steps", "3"],
    "scan": ["--engine", "both"],
}
_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.I)

# Valid command lines of the commands that read flag values; a flag case
# replaces the value of one of their flags.
FLAG_LINES = {
    "analytic": [
        ["--topology", "2d-correlated", "--d", "4", "--delta", "0.025,0.036", "--n", "63,44"],
        ["--topology", "3d-independent", "--dims", "2,3,2", "--delta", "0.02,0.03,0.01",
         "--n", "5,9,13"],
        # one line for each other row of analytic.TOPOLOGIES
        ["--topology", "1d", "--d", "3", "--delta", "0.025", "--n", "63"],
        ["--topology", "2d-independent", "--dims", "3,2", "--delta", "0.025,0.036", "--n", "63,44"],
        ["--topology", "2d-uncorrelated", "--d", "4", "--delta", "0.025,0.036", "--n", "63,44"],
        ["--topology", "3d-uncorrelated", "--d", "6", "--delta", "0.02,0.03,0.01", "--n", "5,9,13"],
        ["--topology", "3d-ring", "--d", "3", "--delta", "0.02,0.03,0.01", "--n", "5,9,13"],
        ["--topology", "3d-star", "--d", "4", "--delta", "0.02,0.03,0.01", "--n", "5,9,13"],
        ["--topology", "3d-linked-ladder", "--d", "4", "--delta", "0.02,0.03,0.01", "--n", "5,9,13"],
        ["--topology", "3d-unlinked-ladder", "--d", "5", "--delta", "0.02,0.03,0.01",
         "--n", "5,9,13"],
    ],
    "plan": [
        ["--F", "0.03", "--snr", "10", "--delta-omega-kHz", "5,5", "--t-ir-us", "1"],
        ["--alpha0", "0.02", "--alpha1", "0.01", "--snr", "10", "--deltas", "0.025,0.036",
         "--freqs-MHz", "0.2,0.14"],
        [str(REPO / "scenarios/correlated-ladder-cell.json"), "--snr", "10", "--t-ir-us", "2"],
        # a dark state 1: any hostile --alpha0 meets alpha1 = 0
        ["--alpha0", "0.02", "--alpha1", "0", "--snr", "10", "--delta-omega-kHz", "5,5"],
    ],
    "filter": [
        [str(REPO / "scenarios/correlated-ladder-cell.json"), "--f-min-MHz", "0.05",
         "--f-max-MHz", "0.4", "--steps", "3"],
    ],
}


def _hostile_texts(valid: str) -> list[str]:
    """Hostile strings for a flag whose valid value is valid: non-finite,
    huge, near-largest, negative, zero and subnormal numbers, empty lists,
    one value too few and one too many, and a non-number."""
    values = valid.split(",")
    texts = ["NaN", "inf", "-inf", "1" + "0" * 400, "1e308", "-1", "0", "5e-324", "", ","]
    texts += [",".join(values[:-1]), ",".join(values + values[-1:]), "abc"]
    return list(dict.fromkeys(texts))


FLAG_CASES = [
    (command, line, flag, text)
    for command, lines in FLAG_LINES.items()
    for line, argv in enumerate(lines)
    for flag, valid in zip(argv, argv[1:])
    if flag.startswith("--")
    for text in _hostile_texts(valid)
]


def _run(argv: list) -> tuple[int, str, str]:
    """dispatch(argv) in-process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _shrunk(scenario: dict) -> dict:
    """The scenario with each grid axis cut to two or three points."""
    scenario = copy.deepcopy(scenario)
    for axis in scenario.get("grid", {}).get("axes", []):
        if axis["kind"] == "tau":
            axis["steps"] = 3
        else:
            axis["stop"] = axis["start"] + 2 * axis.get("step", 2)
    return scenario


def _nodes(node, path=()):
    """(path, value) of every value in a JSON document, parents first."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _nodes(child, (*path, key))


LEAVES = [
    (name, path)
    for name, scenario in SCENARIOS.items()
    for path, node in _nodes(_shrunk(scenario))
    if not isinstance(node, (dict, list))
]


def _structures(scenario: dict) -> list[tuple]:
    """The structure cases of a scenario, as (kind, where)."""
    nodes = list(_nodes(scenario))
    cases = [("delete", path) for path, _ in nodes if path]
    cases += [("duplicate", path) for path, _ in nodes if path and isinstance(path[-1], str)]
    containers = [path for path, node in nodes if isinstance(node, (dict, list))]
    cases += [(kind, path) for kind in ("swap", "nest") for path in containers]
    cases += [("truncate", eighth) for eighth in range(8)]
    cases += [("encoding", how) for how in ("bom", "utf-16", "stray")]
    return cases


STRUCTURES = [
    (name, *case) for name, scenario in SCENARIOS.items() for case in _structures(_shrunk(scenario))
]


# a key and value no shipped scenario holds, for structure_bytes to splice over
STAND_IN = "\0"


def structure_bytes(name: str, kind: str, where) -> bytes:
    """The file of one structure case of a shipped scenario (shrunk)."""
    scenario = _shrunk(SCENARIOS[name])
    text = json.dumps(scenario, indent=2)
    if kind == "truncate":
        return text.encode()[: len(text) * where // 8]
    if kind == "encoding":
        if where == "utf-16":
            return text.encode("utf-16")
        if where == "bom":
            return b"\xff\xfe" + text.encode()
        # a lone continuation byte inside the first string
        cut = text.index('"') + 1
        return text[:cut].encode() + b"\x80" + text[cut:].encode()
    # boxed, so that the root too has a parent to change it in
    *path, key = (0, *where)
    parent = box = [scenario]
    for step in path:
        parent = parent[step]
    node = parent[key]
    if kind == "delete":
        del parent[key]
    elif kind == "duplicate":
        parent[STAND_IN] = node
    elif kind == "swap":
        parent[key] = list(node.values()) if isinstance(node, dict) else dict(enumerate(node))
    else:
        parent[key] = STAND_IN
    # json.dumps writes the stand-in once, as a key or a value; it becomes
    # the duplicated key, or the nested arrays
    text = json.dumps(box[0])
    splice = json.dumps(key) if kind == "duplicate" else "[" * 100000 + "]" * 100000
    return text.replace(json.dumps(STAND_IN), splice).encode()


def check_case(name: str, leaf: tuple, value, command: str) -> None:
    scenario = _shrunk(SCENARIOS[name])
    target = scenario
    for key in leaf[:-1]:
        target = target[key]
    target[leaf[-1]] = "<raw>" if isinstance(value, RawJson) else value
    text = json.dumps(scenario)
    if isinstance(value, RawJson):
        text = text.replace('"<raw>"', value)
    _check_file(f"{command} with {name} {list(leaf)} = {value!r}", name, text.encode(), command)


def check_structure(name: str, kind: str, where, command: str) -> None:
    case = f"{command} with {name}, {kind} {where!r}"
    _check_file(case, name, structure_bytes(name, kind, where), command)


def _check_file(case: str, name: str, data: bytes, command: str) -> None:
    """Run command on a scenario file of these bytes and check the contract."""
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/{name}.json"
        csv = Path(tmp, "scan.csv")
        Path(path).write_bytes(data)
        argv = [command, path, *_FLAGS.get(command, [])]
        if command == "scan":
            argv += ["--out", str(csv)]
        code, out, err = _run(argv)
        written = csv.read_text() if csv.exists() else ""
    assert code in (0, 2), f"{case}: exit {code}\n{err}"
    if code == 2:
        message = err.removeprefix("error: ")
        assert message.startswith((path, "--")), f"{case}: {err}"
    else:
        assert not _NON_FINITE.search(out + written), f"{case}: {out}"


def check_flag_case(command: str, line: int, flag: str, text: str) -> None:
    argv = list(FLAG_LINES[command][line])
    at = argv.index(flag)
    argv[at : at + 2] = [f"{flag}={text}"]
    code, out, err = _run([command, *argv])
    case = f"{command} {' '.join(argv)}"[:200]
    if code == 0:
        assert not _NON_FINITE.search(out), f"{case}: {out}"
    elif code == 1:
        assert err.startswith(f"usage: ddcorr {command}"), f"{case}: exit 1\n{err}"
    else:
        assert code == 2 and err.startswith("error: --"), f"{case}: exit {code}\n{err}"


@settings(max_examples=200, deadline=None)
@given(
    leaf=st.sampled_from(LEAVES),
    value=st.sampled_from(HOSTILE),
    command=st.sampled_from(COMMANDS),
)
@example(leaf=("spin-one-tau-map", ("plan", "snr")), value=10**400, command="plan")
@example(leaf=("correlated-ladder-cell", ("sequence", 0, "order")), value=10**400, command="scan")
@example(leaf=("spin-one-tau-map", ("clusters", 0, "f_a_MHz")), value=5e-324, command="lint")
@example(leaf=("spin-one-tau-map", ("grid", "axes", 0, "steps")), value=2**63, command="validate")
@example(leaf=("spin-one-tau-map", ("plan", "snr")), value=HUGE_LITERAL, command="validate")
@example(
    leaf=("correlated-ladder-cell", ("clusters", 0, "rung_freqs_MHz", 0)), value=1e308, command="scan"
)
@example(
    leaf=("correlated-ladder-cell", ("clusters", 0, "rung_couplings_kHz", 0)),
    value=1e308,
    command="scan",
)
@example(leaf=("spin-one-tau-map", ("grid", "axes", 0, "hi_us")), value=1e308, command="scan")
# level energies whose phases overflow float range over the grid's blocks
@example(leaf=("ring-sandwich-slice", ("clusters", 0, "f_1_MHz")), value=1e307, command="scan")
@example(
    leaf=("correlated-ladder-cell", ("clusters", 0, "rung_freqs_MHz", 2)), value=1e307, command="scan"
)
@example(leaf=("correlated-ladder-cell", ("grid", "engine")), value=ENGINE_TWICE, command="validate")
# a topology is looked up in a dict, where a list or an object is unhashable
@example(leaf=("correlated-ladder-cell", ("analytic", "topology")), value=[], command="validate")
def test_hostile_value_exits_0_or_2(leaf, value, command):
    check_case(*leaf, value, command)


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(STRUCTURES), command=st.sampled_from(COMMANDS))
@example(case=("spin-one-tau-map", "nest", ()), command="validate")
@example(case=("correlated-ladder-cell", "swap", ("grid", "axes", 0)), command="scan")
@example(case=("ring-sandwich-slice", "duplicate", ("grid", "engine")), command="scan")
@example(case=("spin-one-tau-map", "truncate", 5), command="plan")
@example(case=("correlated-ladder-cell", "encoding", "stray"), command="lint")
def test_hostile_structure_exits_0_or_2(case, command):
    check_structure(*case, command)


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(FLAG_CASES))
@example(case=("analytic", 0, "--d", "1" + "0" * 400))
@example(case=("analytic", 0, "--n", "-1"))
@example(case=("plan", 0, "--snr", "-1"))
@example(case=("plan", 3, "--alpha0", "5e-324"))
@example(case=("filter", 0, "--f-min-MHz", "0"))
@example(case=("filter", 0, "--f-max-MHz", "1e308"))
def test_hostile_flag_exits_0_1_or_2_at_its_flag(case):
    check_flag_case(*case)


def sweep() -> int:
    """Check every scenario and flag case; print each failure, return their count."""
    cases = [
        (check_case, (name, leaf, value, command))
        for (name, leaf), value, command in itertools.product(LEAVES, HOSTILE, COMMANDS)
    ]
    cases += [
        (check_structure, (*case, command))
        for case, command in itertools.product(STRUCTURES, COMMANDS)
    ]
    cases += [(check_flag_case, case) for case in FLAG_CASES]
    failures = 0
    for check, args in cases:
        try:
            check(*args)
        except Exception as exc:  # report every broken case, not the first
            failures += 1
            print(f"FAIL {type(exc).__name__}: {exc}".splitlines()[0])
    print(f"{len(cases) - failures} of {len(cases)} cases keep the exit contract")
    return failures


if __name__ == "__main__":
    # as under pytest: a numpy warning fails its case
    warnings.simplefilter("error", RuntimeWarning)
    sys.exit(1 if sweep() else 0)
