"""No public API that only tests call, and no setting that no caller sets.

Every name in a module's ``__all__`` must be used as code somewhere in
``src/dirac_toa``: a ``Name`` or an attribute access, outside the name's own
definition and outside the package ``__init__``.  Docstrings, comments,
imports and the ``__all__`` strings themselves do not count.  Attribute
accesses match by name alone, so the rule errs toward passing.

Every defaulted parameter of a public module-level function must be passed,
by keyword or by position, by some call in ``src/dirac_toa`` outside the
function's own body; otherwise the default is the only value it ever takes.
Calls match by name alone and a call with ``*`` or ``**`` passes every
parameter, so this rule errs toward passing too.  ``cli.main(argv)`` is the
entry point and is exempt.

Conversely, no such default may be passed by every call in ``src/dirac_toa``
that names the function: then the default is never the value, and the
parameter should be required.  A call with ``*`` or ``**`` counts as passing
here, so this rule errs toward flagging, and a function no call names is left
to the first rule.

The package surface is stated once: ``__init__`` star-imports each library
module, so the ``dirac_toa`` namespace is the union of their ``__all__``
lists, no name is exported by two modules, and ``__init__`` imports no name
explicitly.

The config file is a run's one input: every subcommand of the parser that
``cli.main`` builds takes exactly the options ``--config`` and ``--out``.
"""
import argparse
import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from dirac_toa import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "dirac_toa"


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _definition(tree: ast.Module, name: str):
    """The top-level def, class or assignment that binds ``name``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node
    return None


def _used_names(tree: ast.AST, skip=None) -> set:
    """Names that ``tree`` uses as code, not descending into ``skip``."""
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def unreferenced(sources: dict) -> dict:
    """module -> the names of its ``__all__`` that no module uses as code."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    out = {}
    for mod, tree in trees.items():
        others = set().union(*(_used_names(t) for m, t in trees.items() if m != mod))
        missing = [
            name for name in _exports(tree)
            if name not in others and name not in _used_names(tree, _definition(tree, name))
        ]
        if missing:
            out[mod] = missing
    return out


def test_every_public_name_has_a_caller_in_src():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert len(sources) >= 8
    assert unreferenced(sources) == {}


def test_rule_flags_a_name_only_its_own_body_uses():
    sources = {
        "a": '__all__ = ["used", "unused", "LIMIT"]\n'
             'LIMIT = 1\n'
             'def used():\n    """unused"""\n    return LIMIT\n'
             'def unused(n):\n    return unused(n - 1) if n else 0\n',
        "b": "from .a import unused, used\n\ndef caller():\n    return used()\n",
    }
    assert unreferenced(sources) == {"a": ["unused"]}



# (module, function, parameter) that may keep a default no call in src/ sets
_ENTRY_POINTS = {("cli", "main", "argv")}


def _defaulted(fn: ast.FunctionDef) -> list:
    """(name, position or None) of each parameter of ``fn`` that has a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def _calls(tree: ast.AST, name: str, skip) -> list:
    """Calls of ``name`` (as a Name or an attribute) in ``tree`` outside ``skip``."""
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == name) or (
                isinstance(f, ast.Attribute) and f.attr == name
            ):
                found.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _passes(call: ast.Call, name: str, position) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def _defaults_by_calls(sources: dict, flagged) -> dict:
    """module -> the "function.parameter" defaults of public module-level
    functions for which ``flagged(calls, name, position)`` holds, ``calls``
    being the calls of the function in ``sources`` outside its own body."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    out = {}
    for mod, tree in trees.items():
        hits = []
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            calls = [c for t in trees.values() for c in _calls(t, fn.name, fn)]
            hits += [
                f"{fn.name}.{name}" for name, position in _defaulted(fn)
                if (mod, fn.name, name) not in _ENTRY_POINTS and flagged(calls, name, position)
            ]
        if hits:
            out[mod] = hits
    return out


def unset_defaults(sources: dict) -> dict:
    """module -> the "function.parameter" defaults that no call in ``sources`` sets."""
    return _defaults_by_calls(
        sources, lambda calls, name, pos: not any(_passes(c, name, pos) for c in calls)
    )


def overridden_defaults(sources: dict) -> dict:
    """module -> the "function.parameter" defaults that every call in ``sources`` sets."""
    return _defaults_by_calls(
        sources, lambda calls, name, pos: calls and all(_passes(c, name, pos) for c in calls)
    )


def test_every_default_has_a_setter_in_src():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert len(sources) >= 9
    assert unset_defaults(sources) == {}


def test_rule_flags_a_default_only_its_own_body_sets():
    sources = {
        "a": "def f(x, n=2, *, k=1):\n    return f(x, n - 1, k=0) if n else x\n"
             "def g(x, n=2, m=3):\n    return x\n"
             "def h(x, n=2):\n    return x\n"
             "def _private(x, n=2):\n    return x\n",
        "b": "from . import a\n\ndef caller(args, opts):\n"
             "    return a.f(1), a.g(1, 2), a.g(1, m=4), a.h(*args), a.h(1, **opts)\n",
    }
    assert unset_defaults(sources) == {"a": ["f.n", "f.k"]}


def test_no_default_is_set_by_every_call_in_src():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert len(sources) >= 9
    assert overridden_defaults(sources) == {}


def test_rule_flags_a_default_every_call_sets():
    sources = {
        "a": "def f(x, n=2, *, k=1):\n    return f(x) if n else x\n"
             "def g(x, n=2, m=3):\n    return x\n"
             "def h(x, n=2):\n    return x\n"
             "def unused(x, n=2):\n    return x\n"
             "def _private(x, n=2):\n    return x\n",
        "b": "from . import a\n\ndef caller(args):\n"
             "    return a.f(1, 3, k=0), a.f(1, n=0, k=2), a.g(1, 2), a.g(1, m=4),"
             " a.h(*args), a._private(1, 2)\n",
    }
    # f's own recursive call does not count; g.m is left at its default once
    assert overridden_defaults(sources) == {"a": ["f.n", "f.k", "h.n"]}


# the modules whose ``__all__`` make up the package surface; ``verify``,
# ``limits`` and ``cli`` are reached by their module names
LIBRARY = ("algebra", "arrival", "config", "eigenfunctions", "grids")


def surface_faults(init_text: str, exports: dict) -> list:
    """Faults of a package ``__init__`` against ``exports``, module -> its
    ``__all__``: an import of explicit names, a module not star-imported, a
    name that two modules export."""
    faults, starred = [], set()
    for node in ast.walk(ast.parse(init_text)):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            if names == ["*"]:
                starred.add(node.module)
            else:
                faults.append(f"explicit import from {node.module}: {', '.join(names)}")
    faults += [f"{mod} is not star-imported" for mod in exports if mod not in starred]
    owner = {}
    for mod, names in exports.items():
        for name in names:
            if name in owner:
                faults.append(f"{name} is exported by {owner[name]} and {mod}")
            owner.setdefault(name, mod)
    return faults


def test_package_surface_is_the_modules_all():
    exports = {
        mod: _exports(ast.parse((SRC / f"{mod}.py").read_text(encoding="utf-8")))
        for mod in LIBRARY
    }
    assert surface_faults((SRC / "__init__.py").read_text(encoding="utf-8"), exports) == []
    package = importlib.import_module("dirac_toa")
    submodules = {path.stem for path in SRC.glob("*.py")}
    public = {
        name for name in vars(package)
        if not name.startswith("_") and name not in submodules
    }
    assert public == set().union(*exports.values())


def test_rule_flags_a_second_export_list():
    exports = {"a": ["f", "g"], "b": ["g"], "c": ["h"]}
    init = "from .a import *\nfrom .b import *\nfrom .c import h\n"
    assert surface_faults(init, exports) == [
        "explicit import from c: h", "c is not star-imported", "g is exported by a and b",
    ]


def test_every_command_takes_only_config_and_out(monkeypatch):
    built = []

    def stop(parser, args=None, namespace=None):
        built.append(parser)
        raise SystemExit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", stop)
    with pytest.raises(SystemExit):
        cli.main([])
    (parser,) = built
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(cli._COMMANDS)
    for name, sub in commands.choices.items():
        options = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert options == {"--config", "--out"}, name


# the records that validate or coerce outside input when they are built; every
# other record of the package is a tuple
_DATACLASS_RECORDS = ["GridSpinorField", "PacketSpec"]
_TUPLE_RECORDS = [
    "ArrivalDistribution", "CheckResult", "DeficiencyReport", "DiracBasis", "DualSolution",
    "EnergyGridFunction", "GridConfig", "LimitReport", "LimitsConfig", "MomentumGrid",
    "RunConfig", "TimeConfig", "ToaEigenfunction", "_Run",
]


def test_a_record_is_a_tuple_unless_it_validates_its_input():
    records = {}
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"dirac_toa.{path.stem}")
        records.update(
            (name, obj) for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and not issubclass(obj, Exception)
        )
    assert sorted(n for n, c in records.items() if dataclasses.is_dataclass(c)) == _DATACLASS_RECORDS
    assert sorted(n for n, c in records.items() if issubclass(c, tuple)) == _TUPLE_RECORDS
    assert len(records) == len(_DATACLASS_RECORDS) + len(_TUPLE_RECORDS)
