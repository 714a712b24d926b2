"""The package's public surface: ``qschro.__all__`` and what ``__init__`` imports."""

import ast
import pathlib

import qschro

INIT = pathlib.Path(qschro.__file__)


def test_all_lists_every_public_import_once_and_each_resolves():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    public = [name for name in imported if not name.startswith("_") and name != "annotations"]
    assert public
    assert len(qschro.__all__) == len(set(qschro.__all__))
    assert [name for name in qschro.__all__ if not hasattr(qschro, name)] == []
    assert [name for name in public if name not in qschro.__all__] == []


PACKAGE = INIT.parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _defined(node) -> list[str]:
    """The names a module-level statement defines: a function, a class or
    the plain names it assigns."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]


def _referenced(node) -> set[str]:
    """Every name a subtree reads: plain names, attributes and the names of
    ``from ... import``."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(alias.name for alias in n.names)
    return names


def test_every_private_module_level_name_is_referenced_outside_its_definition():
    # a helper whose last caller went is dead code: a private function,
    # class or constant must be read by some other statement of the package
    statements = [(module, node) for module, tree in MODULES.items() for node in tree.body]
    reads = [_referenced(node) for _, node in statements]
    dead = [
        f"{module}.{name}"
        for i, (module, node) in enumerate(statements)
        for name in _defined(node)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in names for j, names in enumerate(reads) if j != i)
    ]
    assert dead == []


def test_every_relative_import_is_used_by_its_module():
    # ``__init__`` imports to re-export; every other module reads each name
    # it takes from a sibling
    unused = []
    for module, tree in MODULES.items():
        if module == "__init__":
            continue
        imported = [alias.asname or alias.name for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.level for alias in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{module}.{name}" for name in imported if name not in used]
    assert unused == []
