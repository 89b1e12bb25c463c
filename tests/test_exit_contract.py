"""The CLI's exit contract under hostile scenario values.

Each case sets one leaf of a shipped scenario to a hostile value and runs
one command through cli.dispatch in-process.  The contract: the exit code
is 0 or 2 and no exception escapes dispatch; exit 2 prints a message that
starts with a field path or a flag; exit 0 prints no nan or inf token, to
stdout or to a CSV.  Scans run on the scenario's grid shrunk to a few
points, under --engine both.

Tier-1 draws a bounded sample of (leaf, value, command).  Run this file as
a script to sweep every case:

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
]
COMMANDS = ["validate", "lint", "plan", "filter", "scan"]
_FLAGS = {
    "filter": ["--f-min-MHz", "0.05", "--f-max-MHz", "0.4", "--steps", "3"],
    "scan": ["--engine", "both"],
}
_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.I)


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
    target[leaf[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/{name}.json"
        csv = Path(tmp, "scan.csv")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        argv = [command, path, *_FLAGS.get(command, [])]
        if command == "scan":
            argv += ["--out", str(csv)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv)
        written = csv.read_text() if csv.exists() else ""
    case = f"{command} with {name} {list(leaf)} = {value!r}"
    assert code in (0, 2), f"{case}: exit {code}\n{err.getvalue()}"
    if code == 2:
        message = err.getvalue().removeprefix("error: ")
        assert message.startswith((path, "--")), f"{case}: {err.getvalue()}"
    else:
        assert not _NON_FINITE.search(out.getvalue() + written), f"{case}: {out.getvalue()}"


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
def test_hostile_value_exits_0_or_2(leaf, value, command):
    check_case(*leaf, value, command)


def sweep() -> int:
    """Check every (leaf, value, command); print each failure, return their count."""
    failures = 0
    for (name, leaf), value, command in itertools.product(LEAVES, HOSTILE, COMMANDS):
        try:
            check_case(name, leaf, value, command)
        except Exception as exc:  # report every broken case, not the first
            failures += 1
            print(f"FAIL {type(exc).__name__}: {exc}".splitlines()[0])
    cases = len(LEAVES) * len(HOSTILE) * len(COMMANDS)
    print(f"{cases - failures} of {cases} cases keep the exit contract")
    return failures


if __name__ == "__main__":
    # as under pytest: a numpy warning fails its case
    warnings.simplefilter("error", RuntimeWarning)
    sys.exit(1 if sweep() else 0)
