"""Every library parameter with a default has a caller that sets it.

The census parses ``src/conemult/*.py``: for each parameter with a default
(functions and methods) and each dataclass field with a default, some call
in the package must pass it, by keyword or by position.  A default that no
call overrides is a constant in disguise, and each one doubles the
configurations the tests have to cover.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "conemult"

# (owner, parameter) pairs whose default stands although no call sets it
ALLOWED = {
    # the inverse transform's panel budget; that layer is due to be replaced
    # as a whole, and its tests run it at small budgets
    ("radial_transform", "panel_budget"),
    # the d = 2 quadrature-oracle kernel of tests/test_wave.py runs at degree 8
    ("SmoothingKernel", "bump_degree"),
    # the command line itself: None reads sys.argv
    ("main", "argv"),
}


def _is_dataclass(cls):
    for deco in cls.decorator_list:
        node = deco.func if isinstance(deco, ast.Call) else deco
        name = node.id if isinstance(node, ast.Name) else \
            getattr(node, "attr", None)
        if name == "dataclass":
            return True
    return False


def _defaulted(fn, method):
    """(name, positional index or None) of each defaulted parameter; a
    method's index does not count self or cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    shift = 1 if method else 0
    out = [(arg.arg, i - shift)
           for i, arg in enumerate(positional) if i >= first]
    out += [(arg.arg, None) for arg, default
            in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return out


def _census():
    """(owner, callee, parameter, index) of every default, and
    (callee, positional count, keywords, starred) of every call."""
    defaults, calls = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defaults += [(node.name, node.name, name, i)
                             for name, i in _defaulted(node, False)]
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    fields = [st for st in node.body
                              if isinstance(st, ast.AnnAssign)
                              and isinstance(st.target, ast.Name)]
                    defaults += [(node.name, node.name, st.target.id, i)
                                 for i, st in enumerate(fields)
                                 if st.value is not None]
                for st in node.body:
                    if not isinstance(st, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in st.decorator_list)
                    # a class is called by its name to reach __init__
                    callee = node.name if st.name == "__init__" else st.name
                    defaults += [(f"{node.name}.{st.name}", callee, name, i)
                                 for name, i in _defaulted(st, not static)]
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for call in ast.walk(cls):
                if isinstance(call, ast.Call) and \
                        getattr(call.func, "id", None) == "cls":
                    calls.append((cls.name, len(call.args),
                                  {k.arg for k in call.keywords}, False))
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            calls.append((name, len(call.args),
                          {k.arg for k in call.keywords}, starred))
    return defaults, calls


def test_every_default_is_set_by_some_call():
    defaults, calls = _census()
    assert len(defaults) > 20   # the parse found the package
    unset = []
    for owner, callee, name, index in defaults:
        if (owner, name) in ALLOWED:
            continue
        if not any(c == callee and (name in keywords or (
                index is not None and (starred or count > index)))
                for c, count, keywords, starred in calls):
            unset.append(f"{owner}({name})")
    assert unset == []


def test_allow_list_names_live_defaults():
    defaults, _ = _census()
    present = {(owner, name) for owner, _, name, _ in defaults}
    assert ALLOWED <= present
