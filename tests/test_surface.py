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
