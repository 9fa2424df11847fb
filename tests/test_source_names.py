"""Every module-level private name in the package is used somewhere else in
the package, and every imported name is read where it is imported: a
helper, constant or import nothing reads is dead code."""

import ast
import importlib
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


def test_every_imported_name_is_read_or_exported():
    unread = []  # module: name
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unread.append(f"{path.stem}: {name}")
    assert not unread, unread


def test_every_exported_name_is_defined():
    """Each name in a module's __all__ is bound in that module, so a star
    import of it cannot fail and no export outlives what it named."""
    exported = {
        path.stem: importlib.import_module(f"qpcodes.{path.stem}")
        for path in sorted(SRC.glob("*.py"))
        if any(isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
               for node in ast.parse(path.read_text()).body)
    }
    assert exported
    missing = [f"{stem}.{name}" for stem, module in exported.items() for name in module.__all__
               if not hasattr(module, name)]
    assert not missing, missing


def test_only_construct_reads_a_lineage():
    """A code's lineage is provenance, written, validated and echoed by
    construct; what a code is built of is read from its matrix, so no other
    module reads the attribute."""
    readers = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "construct"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "lineage"
    ]
    assert not readers, readers


def test_no_module_reads_another_modules_private_name():
    """A private name is read only in the module that defines it: no module
    imports one from another (from .x import _y) or reads one through a
    module it imports (x._y)."""
    modules = {path.stem for path in SRC.glob("*.py")}
    readers = []  # module: other._name
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}  # local name: package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module in modules:
                readers += [f"{path.stem}: {node.module}.{a.name}" for a in node.names if _private(a.name)]
            elif isinstance(node, ast.ImportFrom) and node.level and node.module is None:
                imported.update((a.asname or a.name, a.name) for a in node.names if a.name in modules)
        readers += [
            f"{path.stem}: {imported[node.value.id]}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in imported and _private(node.attr)
        ]
    assert not readers, readers


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")
