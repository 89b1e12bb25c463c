"""The CLI's exit contract under hostile scenario values and flag values.

A scenario case sets one leaf of a shipped scenario to a hostile value and
runs one command through cli.dispatch in-process.  The contract: the exit
code is 0 or 2 and no exception escapes dispatch; exit 2 prints a message
that starts with a field path or a flag; exit 0 prints no nan or inf
token, to stdout or to a CSV.  Scans run on the scenario's grid shrunk to
a few points, under --engine both.

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
HOSTILE = [
    float("nan"),
    float("inf"),
    float("-inf"),
    10**400,
    -(10**400),
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


def _leaves(node, path=()):
    """Paths of every scalar in a JSON document, list entries included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield path
        return
    for key, child in items:
        yield from _leaves(child, (*path, key))


LEAVES = [
    (name, path) for name, scenario in SCENARIOS.items() for path in _leaves(_shrunk(scenario))
]


def check_case(name: str, leaf: tuple, value, command: str) -> None:
    scenario = _shrunk(SCENARIOS[name])
    target = scenario
    for key in leaf[:-1]:
        target = target[key]
    target[leaf[-1]] = "<raw>" if isinstance(value, RawJson) else value
    text = json.dumps(scenario)
    if isinstance(value, RawJson):
        text = text.replace('"<raw>"', value)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/{name}.json"
        csv = Path(tmp, "scan.csv")
        Path(path).write_text(text, encoding="utf-8")
        argv = [command, path, *_FLAGS.get(command, [])]
        if command == "scan":
            argv += ["--out", str(csv)]
        code, out, err = _run(argv)
        written = csv.read_text() if csv.exists() else ""
    case = f"{command} with {name} {list(leaf)} = {value!r}"
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
def test_hostile_value_exits_0_or_2(leaf, value, command):
    check_case(*leaf, value, command)


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
