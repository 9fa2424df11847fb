"""Every module-level private name in the package is used somewhere else in
the package: a helper or constant nothing reads is dead code."""

import ast
from pathlib import Path

import qpcodes

SRC = Path(qpcodes.__file__).resolve().parent


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _used(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_no_module_level_private_name_is_unused():
    private = []  # (module, name, defining statement)
    statements = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            statements.append(node)
            for name in _defined(node):
                if name.startswith("_") and not name.startswith("__"):
                    private.append((path.stem, name, node))
    assert private
    unused = [
        f"{module}.{name}"
        for module, name, home in private
        if not any(name in _used(node) for node in statements if node is not home)
    ]
    assert not unused, unused
