"""The layers the benchmark traces exist under the names it traces them by."""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def traced_names():
    """Keys of the TRACED dict in bench/run.py, read without running it."""
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("bench/run.py defines no TRACED dict")


def test_every_traced_name_resolves_in_ldpma():
    names = traced_names()
    assert names
    missing = []
    for dotted in names:
        module_name, _, path = dotted.partition(".")
        owner = importlib.import_module("ldpma." + module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(dotted)
    assert not missing, f"traced names not found in ldpma: {missing}"
