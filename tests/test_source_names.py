"""Every module-level private name in the package is used somewhere else in
the package, and every imported name is read where it is imported: a
helper, constant or import nothing reads is dead code."""

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
