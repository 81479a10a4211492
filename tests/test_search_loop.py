"""One witness search: a single function of the package steps through a
witness budget.

The parse covers ``src/conemult/*.py``: a function (or method) that calls
``range`` on an expression of a name ``budget`` owns a copy of the search
loop, and there is to be one, ``opnorm._search``, whose instances are the
grid search (``opnorm.estimate_lower``) and the shell search
(``wave.shell_operator_lower_bound``).
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "conemult"


def _ranges_over_budget(call):
    return isinstance(call.func, ast.Name) and call.func.id == "range" and \
        any(isinstance(node, ast.Name) and node.id == "budget"
            for arg in call.args for node in ast.walk(arg))


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
            if any(isinstance(call, ast.Call) and _ranges_over_budget(call)
                   for call in ast.walk(fn)):
                owners.add(f"{path.stem}.{fn.name}")
    return owners


def test_one_function_runs_the_witness_search():
    assert _owners() == {"opnorm._search"}
