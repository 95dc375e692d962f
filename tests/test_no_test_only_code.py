"""Every module-level function and class under ``src/`` has a caller
outside the tests: test oracles live in ``tests/``, not in the package."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fatpoints"

# The writer that pairs with ``scheme_from_json``: the wire format is
# defined by both directions, though only the tests write schemes.
ALLOWED = {"scheme.scheme_to_json"}


def _references(path: Path) -> set[str]:
    """Names, attribute names and string constants used in a file.  The
    imports of ``__init__.py`` are re-exports, and no import is a use."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)  # perfbench/spans.py wraps functions by name
    return refs


def test_every_definition_has_a_caller_outside_the_tests():
    callers = [PACKAGE, ROOT / "perfbench", ROOT / "bench"]
    used = set().union(*(_references(f) for d in callers for f in d.glob("*.py")))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{path.stem}.{node.name}"
                if node.name not in used and name not in ALLOWED:
                    unused.append(name)
    assert unused == []
