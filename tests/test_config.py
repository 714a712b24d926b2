"""Every constant in ``config`` is a knob the package reads."""

import ast
import pathlib
import re

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qschro"


def test_every_config_constant_is_read_by_another_module():
    tree = ast.parse((PACKAGE / "config.py").read_text(encoding="utf-8"))
    names = [t.id for node in tree.body if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name) and t.id.isupper()]
    assert names
    sources = [f.read_text(encoding="utf-8") for f in sorted(PACKAGE.rglob("*.py")) if f.name != "config.py"]
    unread = [n for n in names if not any(re.search(rf"\b{n}\b", src) for src in sources)]
    assert unread == []
