"""The package's public surface: every public module-level function and
class, and every public method of such a class, has a caller in the package
or the benchmark, apart from a fixed few that only the tests call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "causalmed"

#: Public names that no code in ``src/`` or ``bench/`` refers to; the tests
#: call them.
TEST_ONLY = {"mediation.effect_triple", "scm.sample", "scm.format_scm", "data.Column.build"}


def public(node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def public_definitions():
    """``module.name`` for each public module-level function and class, and
    ``module.Class.name`` for each public method (properties included) of
    such a class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in filter(public, ast.parse(path.read_text()).body):
            yield f"{path.stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for item in filter(public, node.body):
                    yield f"{path.stem}.{node.name}.{item.name}"


def referenced_names():
    """Every identifier that code in ``src/`` or ``bench/`` reads or imports:
    names, attributes and imported names, so a name inside a docstring or
    comment does not count."""
    names = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_public_names_without_a_caller_are_the_test_only_few():
    referenced = referenced_names()
    unreferenced = {name for name in public_definitions() if name.rpartition(".")[2] not in referenced}
    assert unreferenced == TEST_ONLY
