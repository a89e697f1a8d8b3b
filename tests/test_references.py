"""The reference modules stand apart from the code they check.

Each `tests/reference_*.py` holds an earlier definition that a test holds
the library to. A reference that imported a private name from `wbforge`
would share the very code it is meant to check, so none may.
"""

import ast
from pathlib import Path

import pytest

REFERENCES = sorted(Path(__file__).resolve().parent.glob("reference_*.py"))


def _wbforge_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every name the file imports from `wbforge` or under it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wbforge":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend((alias.name, alias.name.rsplit(".", 1)[-1]) for alias in node.names
                         if alias.name.split(".")[0] == "wbforge")
    return found


def test_the_references_are_found():
    assert {"reference_dl.py", "reference_model.py", "reference_read.py",
            "reference_terms.py"} <= {p.name for p in REFERENCES}


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: p.stem)
def test_a_reference_imports_no_private_name(path):
    imports = _wbforge_imports(path)
    assert imports
    assert [(m, n) for m, n in imports if n.startswith("_")] == []


def test_the_read_reference_imports_nothing_from_the_validator():
    modules = {m for m, _ in _wbforge_imports(Path(__file__).parent / "reference_read.py")}
    assert "wbforge.validator" not in modules
