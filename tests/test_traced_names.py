"""The benchmark's traced layer names must keep resolving to package functions.

perfbench/run.py looks each "module.function" of its TRACED list up with
getattr when run with --trace 1, so a refactor that renames or drops one of
them makes the traced benchmark crash.  The list is read from the source
without importing the harness.
"""

import ast
import importlib
import inspect
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def traced_names() -> list[str]:
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED list in {RUN_PY}")


def test_every_traced_name_is_a_function_of_its_module():
    names = traced_names()
    assert len(names) == len(set(names)) > 0
    for qual in names:
        modname, fname = qual.split(".")
        module = importlib.import_module(f"windmills.{modname}")
        fn = getattr(module, fname, None)
        assert inspect.isfunction(fn), f"{qual} does not name a function"
