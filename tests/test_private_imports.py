"""No blindsim module imports an underscore-prefixed name from another.

Each question the library answers has one public entry point; a private
name imported across modules would be a second, unchecked one.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "blindsim"


def _private_imports(source: str, filename: str = "<source>") -> list[str]:
    """Each `from <blindsim module> import _name` in source, as "file:line name"."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "blindsim":
            continue
        found += [f"{filename}:{node.lineno} {alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_the_scan_finds_a_private_import():
    assert _private_imports("from .analysis import QUANTUM_CHSH_MAX, _efficiencies\n") == ["<source>:1 _efficiencies"]
    assert _private_imports("from blindsim.protocol import _assemble\n") == ["<source>:1 _assemble"]
    assert _private_imports("from . import _private\n") == ["<source>:1 _private"]
    # outside the package, and public names, are not its business
    assert _private_imports("from __future__ import annotations\nfrom numpy import _NoValue\n") == []


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(SRC.glob("*.py"))
    assert modules, SRC
    found = [hit for path in modules for hit in _private_imports(path.read_text(), path.name)]
    assert found == []
