"""Every module-level function and class under ``src/``, and every public
method and property of those classes, has a caller outside the tests: test
oracles live in ``tests/``, not in the package.

A module-level definition counts as called when its name is used bare, as
a string constant, or as an attribute read off a module of the package
(``cht.bound_check``, ``_kconfig.count_lines``, ``pkg.linalg.mpz``).  A
dataclass field declared under the same name, or read off some other
object (``report.F_upper``), is no use of it.  A method counts as called
when its name is used in any of these ways or as any attribute, so one
that shares its name with another definition (``KType.s`` and a
``KConfiguration.s``) is not told apart from it.

An exception class is a caller decision, so each one under ``src/`` is
named in an ``except`` clause, or subclassed, outside the tests; one that
is only raised and printed is a ``ValueError`` with its message.

The JSON wire format has one home, ``wire.py``: no other module under
``src/`` imports ``json`` or defines a function whose name ends in
``_json``."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fatpoints"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _module_aliases(tree) -> set[str]:
    """The package's module names and the names a file imports them under
    (``from . import kconfig as _kconfig``)."""
    aliases = set(MODULES)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname and alias.name.rpartition(".")[2] in MODULES:
                    aliases.add(alias.asname)
    return aliases


def _references(path: Path) -> tuple[set[str], set[str]]:
    """(uses, attributes) of a file.  Uses are names read, string constants
    and attributes read off a module of the package; attributes are every
    attribute name.  No import is a use."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = _module_aliases(tree)
    uses, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.add(node.id)  # not a field declared under the same name
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
            owner = node.value
            if getattr(owner, "id", getattr(owner, "attr", None)) in modules:
                uses.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses.add(node.value)  # perfbench/spans.py wraps functions by name
    return uses, attributes


def _definitions(path: Path):
    """(qualified name, name, is a method) of each module-level function
    and class of a file, and of each public method and property of its
    classes; dunders and private names are skipped."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield f"{path.stem}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name, True


CALLERS = [PACKAGE, ROOT / "perfbench", ROOT / "bench"]


def test_every_definition_has_a_caller_outside_the_tests():
    refs = [_references(f) for d in CALLERS for f in d.glob("*.py")]
    uses = set().union(*(u for u, _ in refs))
    attributes = set().union(*(a for _, a in refs))
    unused = [qualified for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name, method in _definitions(path)
              if name not in uses and not (method and name in attributes)]
    assert unused == []


def _names(node) -> set[str]:
    """The names an ``except`` type or a base class expression spells: a
    bare name, the attribute read off a module, or each of a tuple."""
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def _exception_classes() -> list[str]:
    """module.name of each exception class that a module of the package
    defines; ``__init__`` defines nothing, and importing ``__main__`` would
    run the CLI."""
    found = []
    for module in sorted(MODULES - {"__init__", "__main__"}):
        for name, value in vars(importlib.import_module(f"fatpoints.{module}")).items():
            if (isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == f"fatpoints.{module}"):
                found.append(f"{module}.{name}")
    return found


def test_every_exception_class_is_caught_outside_the_tests():
    handled = set()
    for path in (f for d in CALLERS for f in d.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                handled |= _names(node.type)
            elif isinstance(node, ast.ClassDef):
                handled |= set().union(*map(_names, node.bases))
    classes = _exception_classes()
    assert "kconfig.GenerationFailed" in classes
    assert [c for c in classes if c.rpartition(".")[2] not in handled] == []


def _json_holders(path: Path) -> list[str]:
    """Each import of ``json`` and each function whose name ends in
    ``_json`` in a file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
            found.append(f"from {node.module} import")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.endswith("_json"):
            found.append(f"def {node.name}")
    return found


def test_the_json_format_has_one_home():
    holders = {path.stem: _json_holders(path) for path in sorted(PACKAGE.glob("*.py"))}
    home = holders.pop("wire", None)
    assert {module: found for module, found in holders.items() if found} == {}
    assert home
