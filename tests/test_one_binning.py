"""One level binning: a single function of the package forms level-bin keys
from the float64 bits, and the majorant test and the exact weak norm of a
witness read the same bins.

The parse covers ``src/conemult/*.py``: a function (or method) that views an
array as int64 and shifts it right forms bin keys from the bit patterns, and
there is to be one, ``lorentz.LevelBins.__init__``.  ``rounded_up`` and
``opnorm._witness_norms`` reach the bins through it: the latter binds one
``LevelBins`` and hands it to both the majorant and ``lorentz_quasinorm``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "conemult"


def _functions():
    """(module.qualified name, node) of each function and method."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for st in node.body:
                    if isinstance(st, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{st.name}", st


def _views_as_int64(node):
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Attribute) and node.func.attr == "view" \
        and any(getattr(arg, "attr", getattr(arg, "id", None)) == "int64"
                for arg in node.args)


def _shifts_right(node):
    if isinstance(node, ast.Call):
        func = node.func
        return getattr(func, "attr", getattr(func, "id", None)) \
            == "right_shift"
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and \
        isinstance(node.op, ast.RShift)


def _calls(fn, name):
    return [node for node in ast.walk(fn) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == name]


def test_one_function_forms_level_bin_keys():
    owners = {name for name, fn in _functions()
              if any(_views_as_int64(n) for n in ast.walk(fn))
              and any(_shifts_right(n) for n in ast.walk(fn))}
    assert owners == {"lorentz.LevelBins.__init__"}


def test_the_majorant_and_the_weak_norm_read_one_binning():
    functions = dict(_functions())
    assert len(_calls(functions["lorentz.rounded_up"], "LevelBins")) == 1
    norms = functions["opnorm._witness_norms"]
    binds = [node for node in ast.walk(norms)
             if isinstance(node, ast.Assign)
             and _calls(node.value, "LevelBins")]
    assert len(binds) == 1 and len(_calls(norms, "LevelBins")) == 1
    name = binds[0].targets[0].id
    majorant = [call for call in _calls(norms, "majorant_quasinorm")
                if getattr(call.func.value, "id", None) == name]
    exact = [call for call in _calls(norms, "lorentz_quasinorm")
             if any(getattr(arg, "id", None) == name for arg in call.args)]
    assert len(majorant) == 1 and len(exact) == 1
