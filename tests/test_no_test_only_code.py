"""Every module-level function and class under ``src/``, and every public
method and property of those classes, has a caller outside the tests: test
oracles live in ``tests/``, not in the package.  A method counts as called
when its name is used outside the tests, so one that shares its name with
another definition (``KType.s`` and a ``KConfiguration.s``) is not told
apart from it."""

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


def _definitions(path: Path):
    """(qualified name, name) of each module-level function and class of a
    file, and of each public method and property of its classes; dunders
    and private names are skipped."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_every_definition_has_a_caller_outside_the_tests():
    callers = [PACKAGE, ROOT / "perfbench", ROOT / "bench"]
    used = set().union(*(_references(f) for d in callers for f in d.glob("*.py")))
    unused = [qualified for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name in _definitions(path)
              if name not in used and qualified not in ALLOWED]
    assert unused == []
