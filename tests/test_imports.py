"""Module boundaries of the ddcorr package, read from its source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ddcorr"


def private_imports(source: str) -> list[str]:
    """What source imports from ddcorr modules (relatively or by absolute
    name) under a name that starts with an underscore: "module:name" for a
    name, and the module itself where one of its parts does."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] == "ddcorr":
                found += [f"{module}:{a.name}" for a in node.names if a.name.startswith("_")]
                found += [module] if "._" in f".{module}" else []
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("ddcorr._")]
    return found


def test_no_module_imports_another_modules_private_name():
    found = {
        path.name: private_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert not {name: names for name, names in found.items() if names}


def test_private_imports_finds_each_form():
    source = "\n".join(
        [
            "from .analytic import _TOPOLOGIES, TOPOLOGIES",
            "from ddcorr.scan import _cut",
            "from . import _private",
            "import ddcorr._private",
            "from ._private import name",
            "from .cli import main",
            "import numpy._core",
        ]
    )
    assert private_imports(source) == [
        ".analytic:_TOPOLOGIES",
        "ddcorr.scan:_cut",
        ".:_private",
        "ddcorr._private",
        "._private",
    ]


def test_no_module_imports_a_test_only_dependency():
    # mpmath is the 50-digit reference of tests/test_precision.py and
    # tests/test_analytic.py; numpy is the one runtime dependency
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            assert not any(name.split(".")[0] == "mpmath" for name in names), path.name
