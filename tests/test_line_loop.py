"""One line loop: a single function of the package sizes the workers of a
scan of 1-d line transforms and gives each its ``radial.LineBuffers``.

The parse covers ``src/conemult/*.py``: a function (or method) that
constructs ``LineBuffers`` or calls ``util._worker_count`` with
``LINE_POINT_BYTES`` owns a copy of the transform-and-sort loop, and there
is to be one, ``characterize.scan_line``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "conemult"


def _name(node):
    return node.id if isinstance(node, ast.Name) else \
        getattr(node, "attr", None)


def _sizes_a_line_loop(call):
    name = _name(call.func)
    return name == "LineBuffers" or (name == "_worker_count" and any(
        _name(arg) == "LINE_POINT_BYTES" for arg in call.args))


def _owners():
    """module.function of each outermost function holding such a call."""
    owners = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [node for node in tree.body
                     if isinstance(node, ast.FunctionDef)]
        functions += [st for node in tree.body
                      if isinstance(node, ast.ClassDef)
                      for st in node.body if isinstance(st, ast.FunctionDef)]
        for fn in functions:
            if any(isinstance(call, ast.Call) and _sizes_a_line_loop(call)
                   for call in ast.walk(fn)):
                owners.add(f"{path.stem}.{fn.name}")
    return owners


def test_one_function_runs_the_line_loop():
    assert _owners() == {"characterize.scan_line"}
