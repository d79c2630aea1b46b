"""No public API that only tests call.

Every name in a module's ``__all__`` must be used as code somewhere in
``src/dirac_toa``: a ``Name`` or an attribute access, outside the name's own
definition and outside the package ``__init__``.  Docstrings, comments,
imports and the ``__all__`` strings themselves do not count.  Attribute
accesses match by name alone, so the rule errs toward passing.
"""
import ast
from pathlib import Path

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

